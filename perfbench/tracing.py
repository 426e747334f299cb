"""Span recorder for the traced run: wraps the library's public functions from outside.

Each wrapped call records one span (name, start, end, parent span, operation
id) in flat in-memory arrays; nothing is written until the run ends.  A
function is wrapped in every module of the package that holds it under the
same name, which is where callers look it up (``inference.pair_masks``,
``sampling.monotone_cover``, ``cli.dumps``, ...).  Per-mask helpers such as
``elements_of`` and ``mask_leq`` are left alone: a span on each would cost
more than the work it measures.
"""

from __future__ import annotations

import array
import gzip
import json
import sys
import time
from collections import Counter
from pathlib import Path

# layer -> public functions that get a span of their own
WRAPPED = {
    "lattice": ("pair_masks", "monotone_cover", "clique_graph"),
    "inference": (
        "clique_set",
        "graph_law",
        "graph_prob",
        "cluster_prob",
        "coarse_cluster_prob",
        "enumerate_monotone_covers",
        "classify_extension",
        "marginal_restriction_check",
        "exchangeability_discrepancy",
    ),
    "sampling": ("sample_point_process", "sample_pipeline", "sample_graph_batch"),
    "serialization": (
        "dumps",
        "graph_from_dict",
        "family_from_dict",
        "cover_from_dict",
        "realization_from_dict",
        "sample_from_dict",
    ),
    "schedules": ("schedule_from_dict",),
    "cli": ("build_parser", "main", "mc_vs_exact"),
}
# the wire-format readers are reported together as one parse layer
PARSE_SPAN = "serialization.parse"
PACKAGE_MODULES = ("", ".lattice", ".schedules", ".inference", ".sampling", ".serialization", ".cli")


def span_name(layer: str, function: str) -> str:
    if layer == "serialization" and function.endswith("_from_dict"):
        return PARSE_SPAN
    return f"{layer}.{function}"


class Tracer:
    """Collects spans while ``enabled``; the benchmark's own checks run with it off."""

    def __init__(self) -> None:
        self.enabled = False
        self.op_id = -1
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array.array("i")
        self.start = array.array("d")
        self.end = array.array("d")
        self.parent = array.array("i")
        self.op = array.array("i")
        self._stack: list[int] = []
        # counters kept at the same boundaries: rate calls, dumps bytes, cold table builds
        self.counts: Counter = Counter()

    def _name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def add_span(self, name: str, start: float, end: float, parent: int = -1, op: int | None = None) -> int:
        idx = len(self.start)
        self.name.append(self._name_id(name))
        self.start.append(start)
        self.end.append(end)
        self.parent.append(parent)
        self.op.append(self.op_id if op is None else op)
        return idx

    def wrap(self, name: str, fn):
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            idx = self.add_span(name, clock(), 0.0, stack[-1] if stack else -1)
            stack.append(idx)
            try:
                return fn(*args, **kwargs)
            finally:
                self.end[idx] = clock()
                stack.pop()

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def install(self, package: str = "poissonclique") -> None:
        """Replace each listed function wherever the package's modules hold it."""
        modules = [sys.modules[package + suffix] for suffix in PACKAGE_MODULES]
        for layer, functions in WRAPPED.items():
            home = sys.modules[f"{package}.{layer}"]
            for function in functions:
                original = getattr(home, function)
                traced = self.wrap(span_name(layer, function), self._instrument(layer, function, original))
                for module in modules:
                    if getattr(module, function, None) is original:
                        setattr(module, function, traced)
        schedule_base = sys.modules[f"{package}.schedules"].RateSchedule
        rate = schedule_base.rate

        def counted_rate(schedule, n, r):
            if self.enabled:
                self.counts["schedules.rate.calls"] += 1
            return rate(schedule, n, r)

        schedule_base.rate = counted_rate

    def _instrument(self, layer: str, function: str, fn):
        """Counters that need the call's own arguments or cache state."""
        if (layer, function) == ("lattice", "pair_masks"):

            def pair_masks(n):
                misses = fn.cache_info().misses
                t0 = time.perf_counter()
                table = fn(n)
                if fn.cache_info().misses != misses and self.enabled:
                    self.counts["lattice.pair_masks.cold_s"] += time.perf_counter() - t0
                return table

            return pair_masks
        if (layer, function) == ("serialization", "dumps"):

            def dumps(document):
                text = fn(document)
                if self.enabled:
                    self.counts["serialization.dumps.bytes"] += len(text.encode())
                return text

            return dumps
        return fn

    # -- aggregation ---------------------------------------------------------

    def self_times(self) -> tuple[Counter, Counter]:
        """Per span name: number of calls and total self time (duration minus child spans)."""
        child = [0.0] * len(self.start)
        for i in range(len(self.start)):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        calls: Counter = Counter()
        self_s: Counter = Counter()
        for i in range(len(self.start)):
            name = self.names[self.name[i]]
            calls[name] += 1
            self_s[name] += self.end[i] - self.start[i] - child[i]
        return calls, self_s

    # -- persistence ---------------------------------------------------------

    def dump_json(self, path: Path) -> None:
        """Write spans and counters of a short-lived child process."""
        doc = {
            "names": self.names,
            "spans": [
                [self.name[i], self.start[i], self.end[i], self.parent[i]] for i in range(len(self.start))
            ],
            "counts": dict(self.counts),
        }
        path.write_text(json.dumps(doc))

    def merge_json(self, path: Path, op: int) -> None:
        """Append a child's spans under operation ``op``, re-basing parent indices."""
        doc = json.loads(path.read_text())
        base = len(self.start)
        for nid, start, end, parent in doc["spans"]:
            self.add_span(doc["names"][nid], start, end, parent + base if parent >= 0 else -1, op)
        self.counts.update(doc["counts"])

    def dump_tsv(self, path: Path) -> None:
        """Write every span as ``name start end parent op`` (gzip, one per line)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", compresslevel=1) as out:
            out.write("name\tstart\tend\tparent\top\n")
            for i in range(len(self.start)):
                out.write(
                    f"{self.names[self.name[i]]}\t{self.start[i]:.9f}\t{self.end[i]:.9f}\t"
                    f"{self.parent[i]}\t{self.op[i]}\n"
                )
