"""The four workloads: seeded inputs, the operations that call the library, and
the correctness check run after every operation.  ``BENCHMARK.json`` gates
exact-law and cli-cold; query-stream and simulate run only by name
(perfbench/README.md says why).

Inputs are plain data made from the workload seed with the standard library
before the library is imported or any timing starts; ``build`` turns them into
operations.  Every workload is one closed-loop client: the next operation is
sent when the previous one has returned.  A workload is a list of rounds of
operations that the runner repeats whole, so the operation mix of every run is
the same whatever its length.

Counts in ``Op.counts`` are computed from the inputs, outside the library, and
repeat exactly for a seed: they describe the work the inputs ask for under
today's algorithms (for example 2^C(n,2) cells per whole-level law), not what a
faster implementation ends up touching.  ``Op.observe`` reads counts off an
operation's output the first time it runs (support sizes, cover counts).
"""

from __future__ import annotations

import itertools
import json
import math
import os
import random
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

# ---------------------------------------------------------------------------
# Operations and workload descriptions
# ---------------------------------------------------------------------------


@dataclass
class Op:
    """One call into the program, and the check that its output is right."""

    kind: str
    call: Callable[[], Any]
    check: Callable[[Any], str | None]
    counts: dict = field(default_factory=dict)
    observe: Callable[[Any], dict] | None = None
    # an output within the documented contract that still reports a failure
    # (a CLI exit code 1): why, or None
    failed: Callable[[Any], str | None] | None = None
    # the runner's bookkeeping: counts are taken from the first execution only
    seen: bool = False


@dataclass
class Context:
    """What building a workload's operations needs to know about the checkout."""

    root: Path
    tracer: Any = None
    spans_dir: Path | None = None


def child_env(root: Path) -> dict:
    """Environment for child processes: the checkout's ``src`` and nothing else on PYTHONPATH."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    return env


@dataclass(frozen=True)
class Workload:
    """One workload; why each exists is in BENCHMARK.json and perfbench/README.md."""

    name: str
    # pair_masks levels the operations use, built by set-up before timing
    tables: tuple[int, ...]
    # whole rounds run at least, so that the tail percentile has >= 10 samples beyond it
    min_rounds: int
    tail_pct: float
    generate: Callable[[int], list]
    build: Callable[[list, Context], list[list[Op]]]
    in_process: bool = True


def setup(tables: tuple[int, ...], tracer=None) -> float:
    """Import the library and build the tables a workload needs; return the seconds taken."""
    t0 = time.perf_counter()
    import poissonclique.cli  # noqa: F401  (the whole public surface)

    imported = time.perf_counter()
    if tracer is not None:
        tracer.install()
        tracer.counts["cli.import_s"] += imported - t0
        tracer.counts["processes"] += 1
        tracer.enabled = True
    from poissonclique import lattice

    for n in tables:
        lattice.pair_masks(n)
        lattice.edge_bit_pairs(n)
    if tracer is not None:
        tracer.enabled = False
    return time.perf_counter() - t0


# ---------------------------------------------------------------------------
# Independent graph helpers (share no code with the library)
# ---------------------------------------------------------------------------


def edge_pairs(n: int) -> list[tuple[int, int]]:
    """Edge carried by each bit of an edge mask: (1,2), (1,3), (2,3), (1,4), ..."""
    return [(i, j) for j in range(2, n + 1) for i in range(1, j)]


def edge_mask(pairs) -> int:
    return sum(1 << ((j - 1) * (j - 2) // 2 + (i - 1)) for i, j in set(pairs))


def labels(mask: int) -> list[int]:
    return [i + 1 for i in range(mask.bit_length()) if mask >> i & 1]


def pairs_within(masks) -> set[tuple[int, int]]:
    """Edges of the clique graph of a family: every pair inside some member."""
    return {pair for a in masks for pair in itertools.combinations(labels(a), 2)}


def cliques(n: int, pairs) -> list[int]:
    """Vertex masks of every complete subgraph with at least two vertices."""
    adjacent = [0] * (n + 1)
    for i, j in pairs:
        adjacent[i] |= 1 << (j - 1)
        adjacent[j] |= 1 << (i - 1)
    found = []

    def grow(clique: int, candidates: int) -> None:
        while candidates:
            low = candidates & -candidates
            candidates ^= low
            bigger = clique | low
            found.append(bigger)
            grow(bigger, candidates & adjacent[low.bit_length()])

    for v in range(1, n + 1):
        grow(1 << (v - 1), adjacent[v] & ~((1 << v) - 1))
    return found


def law_cost(n: int) -> dict:
    """Cells of a whole-level law on [n] and the bytes its array passes touch.

    Passes: the zero fill, C(n,2) zeta passes, the exp pass and C(n,2) Moebius
    passes, each touching all 8-byte cells once.
    """
    nbits = n * (n - 1) // 2
    cells = 1 << nbits
    return {
        "inference.graph_law.cells": cells,
        "inference.graph_law.bytes_computed": cells * 8 * (2 * nbits + 2),
    }


def add_counts(*parts: dict) -> dict:
    total: dict = {}
    for part in parts:
        for key, value in part.items():
            total[key] = total.get(key, 0) + value
    return total


def strict_json(text: str):
    """Parse JSON, refusing NaN and infinities, which are not JSON."""

    def reject(token):
        raise ValueError(f"non-JSON constant {token}")

    return json.loads(text, parse_constant=reject)


def schedule(kind: str, **params) -> dict:
    return {"kind": kind, **params}


def random_schedule(rng: random.Random) -> dict:
    if rng.random() < 0.5:
        return schedule("geometric", alpha=round(rng.uniform(0.2, 0.8), 3), c=round(rng.uniform(0.2, 5.0), 3))
    return schedule("beta_uniform", c=round(rng.uniform(0.2, 5.0), 3))


# ---------------------------------------------------------------------------
# exact-law: whole-level engine, NumPy-bound
# ---------------------------------------------------------------------------

# README default, then the schedules on which today's Moebius pass produces
# negative cells at n = 7 (kept so that defect shows in law_neg_cells)
EXACT_SCHEDULES = (
    schedule("geometric", alpha=0.5, c=1.0),
    schedule("geometric", alpha=0.5, c=1e-6),
    schedule("geometric", alpha=0.9, c=20.0),
    schedule("beta_uniform", c=1.0),
)
# clique-rich graphs on [7] (120 and 58 cliques) that take the whole-level fallback
K7 = tuple(itertools.combinations(range(1, 8), 2))
K6_PLUS_EDGE = tuple(itertools.combinations(range(1, 7), 2)) + ((6, 7),)
CHECK_CELLS_PER_LAW = 4
CLIQUE_CAP = 24
LAW_SUM_TOL = 1e-9
CELL_ATOL = 1e-10


def generate_exact_law(seed: int) -> list:
    rng = random.Random(seed)
    ops = []
    for s, sched in enumerate(EXACT_SCHEDULES):
        for n in (5, 6, 7):
            # cells the per-graph clique walk can price, to compare against the law
            pairs = edge_pairs(n)
            cells = []
            while len(cells) < CHECK_CELLS_PER_LAW:
                mask = rng.getrandbits(len(pairs))
                chosen = [pairs[b] for b in range(len(pairs)) if mask >> b & 1]
                if len(cliques(n, chosen)) <= CLIQUE_CAP:
                    cells.append(mask)
            ops.append(("graph_law", s, n, cells))
    for s in range(len(EXACT_SCHEDULES)):
        ops.append(("graph_prob", s, "K7"))
        ops.append(("graph_prob", s, "K6+(6,7)"))
        ops.append(("marginal", s))
        ops.append(("exchangeability", s))
    return [ops]


def build_exact_law(rounds: list, ctx: Context) -> list[list[Op]]:
    from poissonclique import inference, lattice, schedules

    scheds = [schedules.schedule_from_dict(doc) for doc in EXACT_SCHEDULES]
    graphs = {"K7": K7, "K6+(6,7)": K6_PLUS_EDGE}
    # law values at the fallback graphs, filled by the n = 7 law of each schedule,
    # which runs earlier in the round
    fallback_cells: dict[tuple[int, str], float] = {}

    def law_op(s: int, n: int, cells: list[int]) -> Op:
        pairs = edge_pairs(n)

        def check(law) -> str | None:
            total = float(law.sum())
            if abs(total - 1.0) > LAW_SUM_TOL:
                return f"law sums to {total!r}"
            for mask in cells:
                graph = lattice.Graph.from_edges(n, [pairs[b] for b in range(len(pairs)) if mask >> b & 1])
                walk = inference.graph_prob(graph, scheds[s])
                if abs(float(law[mask]) - walk) > CELL_ATOL:
                    return f"cell {mask}: law {float(law[mask])!r} vs clique walk {walk!r}"
            if n == 7:
                for name, edges in graphs.items():
                    fallback_cells[s, name] = float(law[edge_mask(edges)])
            return None

        return Op(
            f"graph_law n={n} {EXACT_SCHEDULES[s]}",
            lambda: inference.graph_law(n, scheds[s]),
            check,
            counts=law_cost(n),
            observe=lambda law: {"law_neg_cells": int((law < 0).sum())},
        )

    def prob_op(s: int, name: str) -> Op:
        graph = lattice.Graph.from_edges(7, graphs[name])

        def check(prob) -> str | None:
            expected = fallback_cells.get((s, name))
            if expected is None or abs(prob - expected) > CELL_ATOL:
                return f"graph_prob {prob!r} vs whole-level law cell {expected!r}"
            return None

        return Op(
            f"graph_prob {name} {EXACT_SCHEDULES[s]}",
            lambda: inference.graph_prob(graph, scheds[s]),
            check,
            counts=add_counts(law_cost(7), {"inference.graph_prob.fallback_calls": 1}),
        )

    def bounded(value, what: str) -> str | None:
        return None if value <= CELL_ATOL else f"{what} {value!r} exceeds {CELL_ATOL}"

    out = []
    for kind, s, *rest in rounds[0]:
        if kind == "graph_law":
            out.append(law_op(s, *rest))
        elif kind == "graph_prob":
            out.append(prob_op(s, rest[0]))
        elif kind == "marginal":
            out.append(
                Op(
                    f"marginal_restriction_check m=6 n=7 {EXACT_SCHEDULES[s]}",
                    lambda s=s: inference.marginal_restriction_check(scheds[s], 6, 7),
                    lambda v: bounded(v, "marginal discrepancy"),
                    counts=add_counts(law_cost(6), law_cost(7)),
                )
            )
        else:
            out.append(
                Op(
                    f"exchangeability_discrepancy n=6 {EXACT_SCHEDULES[s]}",
                    lambda s=s: inference.exchangeability_discrepancy(scheds[s], 6),
                    lambda v: bounded(v, "exchangeability discrepancy"),
                    counts=add_counts(
                        law_cost(6), {"inference.exchangeability_discrepancy.relabelings": math.factorial(6) - 1}
                    ),
                )
            )
    return [out]


# ---------------------------------------------------------------------------
# query-stream: many small exact queries, interpreter-bound
# ---------------------------------------------------------------------------

QUERY_BLOCKS = 40
QUERY_GRAPH_SIZES = range(4, 11)
CLASSIFY_N = 5
CLASSIFY_MEMBERS = range(3, 9)
# the repo's absolute tolerance for exact probabilities: a value outside it is
# incorrect; a value outside [0, 1] by less is a rounding error, counted in
# inference.prob_outside_unit (a known defect) but not a failed operation
PROB_TOL = 1e-12


def _random_graph(rng: random.Random, n: int):
    """A graph on [n] with at least one edge and at most CLIQUE_CAP cliques."""
    pairs = edge_pairs(n)
    while True:
        density = rng.uniform(0.1, 0.6)
        chosen = [p for p in pairs if rng.random() < density]
        found = cliques(n, chosen)
        if chosen and len(found) <= CLIQUE_CAP:
            return chosen, found


def _extension_case(rng: random.Random, k: int):
    """A support on [n] with k members and a graph on [n+1] grown from one of its extensions."""
    support = rng.sample(range(1, 1 << CLASSIFY_N), k)
    new_bit = 1 << CLASSIFY_N
    extended = set()
    for member in support:
        pick = rng.randrange(3)  # stay, gain the new vertex, or both
        if pick != 1:
            extended.add(member)
        if pick != 0:
            extended.add(member | new_bit)
    return sorted(support), sorted(extended), sorted(pairs_within(extended))


def generate_query_stream(seed: int) -> list:
    rng = random.Random(seed)
    blocks = []
    for _ in range(QUERY_BLOCKS):
        block = []
        for n in QUERY_GRAPH_SIZES:
            pairs, found = _random_graph(rng, n)
            subset = rng.choice(found)
            sched = random_schedule(rng)
            block.append(("graph_prob", n, pairs, sched))
            block.append(("cluster", n, pairs, subset, sched))
            block.append(("coarse", n, pairs, subset, sched))
            block.append(("covers", n, pairs))
            block.append(("transitivity", random_schedule(rng)))
        for k in CLASSIFY_MEMBERS:
            support, extended, observed = _extension_case(rng, k)
            block.append(("classify", support, extended, observed, random_schedule(rng)))
        rng.shuffle(block)
        blocks.append(block)
    return blocks


def _probability(value, what: str) -> str | None:
    """Incorrect: outside [0, 1] by more than PROB_TOL."""
    return None if -PROB_TOL <= value <= 1.0 + PROB_TOL else f"{what} {value!r} outside [0, 1]"


def _outside_unit(*values) -> dict:
    """Probabilities outside [0, 1] by a rounding error, counted from the first execution."""
    return {"inference.prob_outside_unit": sum(not 0.0 <= v <= 1.0 for v in values)}


def build_query_stream(rounds: list, ctx: Context) -> list[list[Op]]:
    from poissonclique import inference, lattice, schedules

    def graph_of(n, pairs):
        return lattice.Graph.from_edges(n, pairs)

    def cluster_pair(key, prob: float, kind: str, pairs_seen: dict) -> str | None:
        # cluster_prob <= coarse_cluster_prob, checked when the second of the two returns
        other = pairs_seen.setdefault(key, {})
        other[kind] = prob
        if len(other) == 2 and other["cluster"] > other["coarse"] + PROB_TOL:
            return f"cluster_prob {other['cluster']!r} > coarse_cluster_prob {other['coarse']!r}"
        return None

    def make(b: int, entry, pairs_seen: dict) -> Op:
        kind = entry[0]
        if kind == "graph_prob":
            _, n, pairs, sched = entry
            graph, s = graph_of(n, pairs), schedules.schedule_from_dict(sched)
            return Op(
                f"graph_prob n={n}",
                lambda: inference.graph_prob(graph, s),
                lambda p: _probability(p, "graph_prob"),
                observe=_outside_unit,
            )
        if kind in ("cluster", "coarse"):
            _, n, pairs, subset, sched = entry
            graph, s = graph_of(n, pairs), schedules.schedule_from_dict(sched)
            fn = "cluster_prob" if kind == "cluster" else "coarse_cluster_prob"
            key = (b, n)

            def check(p) -> str | None:
                return _probability(p, fn) or cluster_pair(key, p, kind, pairs_seen)

            return Op(f"{fn} n={n}", lambda: getattr(inference, fn)(subset, graph, s), check, observe=_outside_unit)
        if kind == "covers":
            _, n, pairs = entry
            graph, target = graph_of(n, pairs), set(pairs)

            def check(enumeration) -> str | None:
                if not enumeration.covers:
                    return "no cover found"
                for cover in enumeration.covers:
                    if pairs_within(cover.maximal) != target:
                        return f"cover {cover.member_sets()} does not project to the input graph"
                return None

            return Op(
                f"enumerate_monotone_covers n={n}",
                lambda: inference.enumerate_monotone_covers(graph),
                check,
                observe=lambda e: {"inference.enumerate_monotone_covers.covers": len(e.covers)},
            )
        if kind == "transitivity":
            s = schedules.schedule_from_dict(entry[1])
            return Op(
                "transitivity_conditional",
                lambda: inference.transitivity_conditional(s),
                lambda p: _probability(p, "transitivity"),
                observe=_outside_unit,
            )
        _, support, extended, observed, sched = entry
        family = lattice.SubsetFamily(CLASSIFY_N, frozenset(support))
        truth = lattice.SubsetFamily(CLASSIFY_N + 1, frozenset(extended))
        graph, s = graph_of(CLASSIFY_N + 1, observed), schedules.schedule_from_dict(sched)

        def check(posterior) -> str | None:
            total = sum(posterior.values())
            if abs(total - 1.0) > PROB_TOL:
                return f"posterior sums to {total!r}"
            if truth not in posterior:
                return "the generating extension is missing from the posterior"
            for p in posterior.values():
                if error := _probability(p, "posterior"):
                    return error
            return None

        return Op(
            f"classify_extension k={len(support)}",
            lambda: inference.classify_extension(family, graph, s),
            check,
            counts={"inference.classify_extension.combos": 3 ** len(support)},
            observe=lambda posterior: {"classify.candidates": len(posterior), **_outside_unit(*posterior.values())},
        )

    out = []
    for b, block in enumerate(rounds):
        pairs_seen: dict = {}
        out.append([make(b, entry, pairs_seen) for entry in block])
    return out


# ---------------------------------------------------------------------------
# simulate: seeded sampling, one Philox stream per subset
# ---------------------------------------------------------------------------

FEW_POINTS = schedule("geometric", alpha=0.5, c=1.0)  # about 2 points at any n
MANY_POINTS = (schedule("geometric", alpha=0.5, c=200.0), schedule("beta_uniform", c=50.0))
# draws per (size, schedule) pair, each with both methods.  The many cheap n = 8
# draws are most of the operations, so the median falls inside that one class,
# whose samples are spread over the whole run; n = 16 is the tail
SAMPLE_DRAWS = {8: 10, 12: 1, 14: 1, 16: 1}
METHODS = ("inversion", "bernoulli")
BATCHES = ((6, 100_000), (10, 10_000))
MC_N, MC_DRAWS = 5, 100_000


def generate_simulate(seed: int) -> list:
    rng = random.Random(seed)
    ops = []
    for n, draws in SAMPLE_DRAWS.items():
        for sched in (FEW_POINTS,) + MANY_POINTS:
            for _ in range(draws):
                draw_seed = rng.getrandbits(64)  # the full documented range [0, 2^64)
                ops.extend(("sample", n, sched, draw_seed, method) for method in METHODS)
    for n, draws in BATCHES:
        ops.append(("batch", n, draws, rng.getrandbits(64)))
    ops.append(("mc_vs_exact", MC_N, MC_DRAWS, rng.getrandbits(64)))
    rng.shuffle(ops)
    return [ops]


def build_simulate(rounds: list, ctx: Context) -> list[list[Op]]:
    import hashlib

    from poissonclique import cli, sampling, schedules

    few = schedules.schedule_from_dict(FEW_POINTS)
    # support of each (n, schedule, seed) draw, whichever method returned first
    twins: dict = {}
    # fingerprint of each operation's output from the previous round
    previous: dict = {}

    def same_as_before(i: int, fingerprint) -> str | None:
        earlier = previous.setdefault(i, fingerprint)
        return None if earlier == fingerprint else "same seed gave a different result"

    def sample_op(i: int, n: int, sched: dict, seed: int, method: str) -> Op:
        s = schedules.schedule_from_dict(sched)
        key = (n, json.dumps(sched, sort_keys=True), seed)

        def check(sample) -> str | None:
            if sample.realization.seed != seed or sample.n != n:
                return "draw does not echo its seed and size"
            if pairs_within(sample.cover.maximal) != set(sample.graph.edges):
                return "graph is not the clique graph of the cover"
            members = sample.support.members
            if twins.setdefault(key, members) != members:
                return "bernoulli support differs from the inversion support"
            return same_as_before(i, tuple(sorted(sample.realization.counts.items())))

        return Op(
            f"sample_pipeline n={n} {method} {sched}",
            lambda: sampling.sample_pipeline(s, n, seed, method=method),
            check,
            counts={"sampling.streams": 1 << n},
            observe=lambda sample: {"sampling.points": len(sample.support)},
        )

    def batch_op(i: int, n: int, draws: int, seed: int) -> Op:
        def check(masks) -> str | None:
            if len(masks) != draws:
                return f"{len(masks)} draws instead of {draws}"
            single = sampling.sample_pipeline(few, n, seed).graph
            if int(masks[0]) != edge_mask(single.edges):
                return "sample_graph_batch(...)[0] differs from the single draw"
            return same_as_before(i, hashlib.sha256(masks.tobytes()).hexdigest())

        return Op(
            f"sample_graph_batch n={n} draws={draws}",
            lambda: sampling.sample_graph_batch(few, n, draws, seed),
            check,
            counts={"sampling.streams": (1 << n) - n - 1, "sampling.sample_graph_batch.draws": draws},
        )

    def mc_op(i: int, n: int, draws: int, seed: int) -> Op:
        def check(report) -> str | None:
            if report["n"] != n or report["draws"] != draws:
                return "report does not echo its inputs"
            if not 0 <= report["flagged_cells"] <= 1 << (n * (n - 1) // 2):
                return "flagged cell count out of range"
            return same_as_before(i, (report["flagged_cells"], report["max_deviation"]))

        return Op(
            f"mc_vs_exact n={n} draws={draws}",
            lambda: cli.mc_vs_exact(few, n, draws, seed),
            check,
            counts=add_counts(
                law_cost(n),
                {"sampling.streams": (1 << n) - n - 1, "sampling.sample_graph_batch.draws": draws},
            ),
        )

    makers = {"sample": sample_op, "batch": batch_op, "mc_vs_exact": mc_op}
    return [[makers[kind](i, *rest) for i, (kind, *rest) in enumerate(rounds[0])]]


# ---------------------------------------------------------------------------
# cli-cold: one fresh `python -m poissonclique` process per operation
# ---------------------------------------------------------------------------

README_SCHEDULE = json.dumps(schedule("geometric", alpha=0.5, c=1))
README_GRAPH = '{"n":4,"edges":[[1,2],[1,3],[2,3],[3,4]]}'
README_TRIANGLE = '{"n":3,"edges":[[1,2],[1,3],[2,3]]}'
README_COVERS = [[[1, 2], [1, 3], [2, 3], [3, 4]], [[1, 2, 3], [3, 4]]]
README_TRANSITIVITY = 0.9170863223467731
README_SEED29_COVER = [[1, 4], [2, 3, 4]]
README_SEED29_EDGES = [[1, 4], [2, 3], [2, 4], [3, 4]]
CLI_TIMEOUT_S = 120


def generate_cli_cold(seed: int) -> list:
    rng = random.Random(seed)
    s = README_SCHEDULE
    commands = [
        (["covers", "--graph", README_GRAPH], (0,)),
        (["transitivity", "--schedule", s], (0,)),
        (["sample", "--schedule", s, "--n", "4", "--seed", "29"], (0,)),
        (["cluster-prob", "--graph", README_TRIANGLE, "--subset", "[1,2,3]", "--schedule", s], (0,)),
        (["schedule", "check", "--kind", "beta_uniform", "--nmax", "12"], (0,)),
        (["schedule", "derive", "--row", "[0.125,0.125,0.125,0.125]"], (0,)),
        (["mc-vs-exact", "--schedule", s, "--n", "3", "--draws", "100000", "--seed", "1"], (0,)),
        # exits 1 at every seed tried: the 4-SE bound flags single hits in rare cells
        (["mc-vs-exact", "--schedule", s, "--n", "5", "--draws", "100000", "--seed", str(rng.getrandbits(64))], (0, 1)),
        (["check-consistency", "--schedule", s, "--n", "6"], (0,)),
        (["check-exchangeability", "--schedule", s, "--n", "5"], (0,)),
        (["sample", "--schedule", s, "--n", "14", "--seed", str(rng.getrandbits(64))], (0,)),
    ]
    return [commands]


def _cli_counts(argv: list[str]) -> dict:
    """Work each command's inputs ask for, computed from its arguments."""
    flags = dict(zip(argv, argv[1:]))
    command = argv[0]
    if command == "sample":
        return {"sampling.streams": 1 << int(flags["--n"])}
    if command == "mc-vs-exact":
        n, draws = int(flags["--n"]), int(flags["--draws"])
        return add_counts(
            law_cost(n), {"sampling.streams": (1 << n) - n - 1, "sampling.sample_graph_batch.draws": draws}
        )
    if command == "check-consistency":
        n = int(flags["--n"])
        return add_counts(*(add_counts(law_cost(m), law_cost(n)) for m in range(1, n)))
    if command == "check-exchangeability":
        n = int(flags["--n"])
        return add_counts(
            law_cost(n), {"inference.exchangeability_discrepancy.relabelings": math.factorial(n) - 1}
        )
    return {}


def _check_cli(argv: list[str], expected: tuple[int, ...], code: int, stdout: str, stderr: str) -> str | None:
    if code not in expected:
        return f"exit code {code}, expected {expected}: {stderr.strip()[-200:]}"
    try:
        report = strict_json(stdout)
    except ValueError as exc:
        return f"stdout is not strict JSON: {exc}"
    if report.get("ok") is not (code == 0):
        return f"report ok={report.get('ok')} disagrees with exit code {code}"
    results = report["results"]
    command = argv[0]
    if command == "covers" and (
        results["count"] != 2 or [c["members"] for c in results["covers"]] != README_COVERS
    ):
        return f"covers: {results['count']} covers, README states 2"
    if command == "transitivity" and results["prob"] != README_TRANSITIVITY:
        return f"transitivity {results['prob']!r}, README states {README_TRANSITIVITY!r}"
    if command == "sample":
        (sample,) = results["samples"]
        if argv[argv.index("--seed") + 1] == "29" and (
            sample["cover"]["members"] != README_SEED29_COVER or sample["graph"]["edges"] != README_SEED29_EDGES
        ):
            return "seed-29 sample differs from the README"
        cover_masks = [sum(1 << (v - 1) for v in member) for member in sample["cover"]["members"]]
        if sorted(map(list, pairs_within(cover_masks))) != sample["graph"]["edges"]:
            return "sample graph is not the clique graph of its cover"
    if command == "cluster-prob":
        return _probability(results["prob"], "cluster-prob")
    return None


def _cli_observe(argv: list[str], stdout: str) -> dict:
    """Counts read off a command's report: support sizes, cover counts."""
    results = strict_json(stdout)["results"]
    if argv[0] == "sample":
        return {"sampling.points": sum(len(s["support"]["members"]) for s in results["samples"])}
    if argv[0] == "covers":
        return {"inference.enumerate_monotone_covers.covers": results["count"]}
    return {}


def build_cli_cold(rounds: list, ctx: Context) -> list[list[Op]]:
    python = sys.executable
    child = str(ctx.root / "perfbench" / "child.py")
    env = child_env(ctx.root)
    tracer = ctx.tracer

    def make(i: int, argv: list[str], expected: tuple[int, ...]) -> Op:
        spans = ctx.spans_dir / f"child-{i}.json" if tracer is not None else None
        if tracer is None:
            command = [python, "-m", "poissonclique", *argv]
        else:
            command = [python, child, "cli", str(spans), "--", *argv]

        def call():
            done = subprocess.run(
                command, cwd=ctx.root, env=env, capture_output=True, text=True, timeout=CLI_TIMEOUT_S
            )
            return done.returncode, done.stdout, done.stderr

        def check(result) -> str | None:
            if spans is not None:
                tracer.merge_json(spans, tracer.op_id)
                spans.unlink()
            return _check_cli(argv, expected, *result)

        label = argv[:2] if argv[0] == "schedule" else argv[:1]
        if "--n" in argv:
            label = label + ["--n", argv[argv.index("--n") + 1]]
        return Op(
            " ".join(["cli", *label]),
            call,
            check,
            counts=_cli_counts(argv),
            observe=lambda result: _cli_observe(argv, result[1]),
            failed=lambda result: f"exit code {result[0]}" if result[0] else None,
        )

    return [[make(i, argv, expected) for i, (argv, expected) in enumerate(rounds[0])]]


# ---------------------------------------------------------------------------

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "exact-law",
            tables=(5, 6, 7),
            min_rounds=4,
            tail_pct=90.0,
            generate=generate_exact_law,
            build=build_exact_law,
        ),
        Workload(
            "query-stream",
            tables=tuple(QUERY_GRAPH_SIZES),
            min_rounds=QUERY_BLOCKS,
            tail_pct=99.0,
            generate=generate_query_stream,
            build=build_query_stream,
        ),
        Workload(
            "simulate",
            # sample_pipeline builds no pair table; the batches and mc_vs_exact do
            tables=tuple(n for n, _ in BATCHES) + (MC_N,),
            min_rounds=3,
            tail_pct=96.0,
            generate=generate_simulate,
            build=build_simulate,
        ),
        Workload(
            "cli-cold",
            tables=(),
            min_rounds=4,
            tail_pct=75.0,
            generate=generate_cli_cold,
            build=build_cli_cold,
            in_process=False,
        ),
    )
}
