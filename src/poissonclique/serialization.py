"""JSON wire formats.

Graphs: {"n": int, "edges": [[i, j], ...]} with 1-based vertices, i < j, sorted.
Families and covers: {"n": int, "members": [[sorted ints], ...]} with the empty
set as [] and members in ascending bit-pattern order.  Realizations add counts
and the sampling metadata.  Every n, vertex label, count and seed must be a
JSON integer: readers reject floats and booleans instead of truncating them.
A realization's seed must also lie in [0, 2^64), its method must be one the
sampler knows, and a "bernoulli" count must be 1; ``PointProcessRealization``
checks these, as the samplers do.  A realization lists each subset once, and a
table schedule keys its rows by canonical decimal levels ("3", not "03").
``dumps`` output is byte-stable: keys sorted, two space indent, trailing
newline; floats use Python repr, the shortest string that parses back to the
same value.
"""

from __future__ import annotations

import json
from typing import Mapping

from .lattice import GeneratingClass, Graph, SubsetFamily, elements_of, mask_of
from .sampling import PipelineSample, PointProcessRealization

FORMAT_VERSION = 1

__all__ = [
    "FORMAT_VERSION",
    "dumps",
    "require_int",
    "graph_to_dict",
    "graph_from_dict",
    "family_to_dict",
    "family_from_dict",
    "cover_to_dict",
    "cover_from_dict",
    "realization_to_dict",
    "realization_from_dict",
    "sample_to_dict",
    "sample_from_dict",
]


def dumps(document: Mapping) -> str:
    """Byte-stable strict JSON; raises ValueError on NaN or infinity, which JSON cannot carry."""
    return json.dumps(document, indent=2, sort_keys=True, allow_nan=False) + "\n"


def _require(doc: Mapping, key: str, expected: str):
    try:
        return doc[key]
    except (TypeError, KeyError):
        raise ValueError(f"{expected} document needs a {key!r} field") from None


def require_int(value, what: str) -> int:
    """``value`` itself if it is an int; a float (even 2.0), string or bool raises ValueError."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{what} must be an integer, got {value!r}")
    return value


def graph_to_dict(graph: Graph) -> dict:
    return {"n": graph.n, "edges": [[i, j] for i, j in graph.sorted_edges()]}


def graph_from_dict(doc: Mapping) -> Graph:
    n = require_int(_require(doc, "n", "graph"), "graph n")
    edges = _require(doc, "edges", "graph")
    try:
        pairs = [(require_int(i, "vertex"), require_int(j, "vertex")) for i, j in edges]
    except (TypeError, ValueError) as exc:
        raise ValueError(f"malformed edge list: {exc}") from None
    return Graph.from_edges(n, pairs)


def family_to_dict(family: SubsetFamily) -> dict:
    return {"n": family.n, "members": [list(s) for s in family.member_sets()]}


def family_from_dict(doc: Mapping) -> SubsetFamily:
    n = require_int(_require(doc, "n", "family"), "family n")
    members = _require(doc, "members", "family")
    try:
        masks = frozenset(
            mask_of((require_int(e, "vertex") for e in member), n) for member in members
        )
    except TypeError as exc:
        raise ValueError(f"malformed member list: {exc}") from None
    return SubsetFamily(n, masks)


cover_to_dict = family_to_dict  # a cover is the family of its maximal members


def cover_from_dict(doc: Mapping) -> GeneratingClass:
    family = family_from_dict(doc)
    return GeneratingClass(family.n, family.members)


def realization_to_dict(realization: PointProcessRealization) -> dict:
    return {
        "n": realization.n,
        "seed": realization.seed,
        "method": realization.method,
        "counts": [
            {"subset": list(elements_of(mask)), "count": realization.counts[mask]}
            for mask in realization.support_masks()
        ],
    }


def realization_from_dict(doc: Mapping) -> PointProcessRealization:
    n = require_int(_require(doc, "n", "realization"), "realization n")
    counts = {}
    for entry in _require(doc, "counts", "realization"):
        subset = mask_of((require_int(e, "vertex") for e in entry["subset"]), n)
        if subset in counts:
            raise ValueError(f"realization lists subset {list(elements_of(subset))} twice")
        counts[subset] = require_int(entry["count"], "count")
    seed, method = _require(doc, "seed", "realization"), _require(doc, "method", "realization")
    return PointProcessRealization(n, counts, seed, method)  # checks the seed and the method


def sample_to_dict(sample: PipelineSample) -> dict:
    return {
        "realization": realization_to_dict(sample.realization),
        "support": family_to_dict(sample.support),
        "cover": cover_to_dict(sample.cover),
        "graph": graph_to_dict(sample.graph),
    }


def sample_from_dict(doc: Mapping) -> PipelineSample:
    return PipelineSample(
        realization_from_dict(_require(doc, "realization", "sample")),
        family_from_dict(_require(doc, "support", "sample")),
        cover_from_dict(_require(doc, "cover", "sample")),
        graph_from_dict(_require(doc, "graph", "sample")),
    )
