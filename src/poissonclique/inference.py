"""Exact laws of the subset process and its projected graph, by exhaustive
enumeration at desk scale.

The generative chain is: independent Poisson counts on every subset of [n] with
rate lambda_n(cardinality), support family X*, least monotone cover, clique
graph.  Because presence of distinct subsets is independent, every probability
below reduces to sums of products of p(a) = 1 - e^{-lambda(#a)} and their
complements.  Two computation paths are used:

* per-graph: sum over subsets of cliques(G) whose pairwise edges exactly cover
  E(G), as a memoized include/exclude walk; capped at CLIQUE_SUBSET_CAP cliques.
* whole-level: the cumulative law P(graph <= e) = exp(T(e) - T(full)) with T(e)
  the total rate of cliques fitting inside e, computed by a subset-sum (zeta)
  transform over the edge lattice and inverted by a Moebius pass.  The passes
  run in two memory layouts, low edge bits first in a transposed one, so that
  every pass streams long contiguous runs; each cell still sees the same float
  operations, in the same order, as the plain per-bit butterfly.  ``graph_law``
  prices all 2^C(n,2) graphs at once; the clique-rich fallback of
  ``graph_prob`` runs the same transform on the 2^|E(G)| graphs inside E(G).

Subsets of cardinality <= 1 never affect the graph; they are marginalized out of
every graph computation and cancel from every conditional ratio.

Survival products are always accumulated as exp(-sum of rates), so they never
underflow factor by factor.  A level whose total rate of subsets with at least
two elements overflows the float range has no finite exponent to work with, and
the graph laws reject it with ValueError.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .lattice import (
    GeneratingClass,
    Graph,
    ResourceCapError,
    SubsetFamily,
    all_masks,
    clique_graph,
    edge_bit_pairs,
    edge_index,
    elements_of,
    full_mask,
    graph_to_edge_mask,
    mask_leq,
    monotone_cover,
    pair_masks,
    restrict_graph,
)
from .schedules import RateSchedule

GRAPH_ENUM_CAP = 7
CLIQUE_SUBSET_CAP = 24
EXTENSION_MEMBERS_CAP = 12


class InconsistentEvidenceError(ValueError):
    """The conditioning evidence has probability zero: no state matches it."""


@dataclass(frozen=True)
class CoverEnumeration:
    """Every antichain of cliques whose union of pairwise edges is exactly E(G)."""

    graph: Graph
    covers: tuple[GeneratingClass, ...]

    def __len__(self) -> int:
        return len(self.covers)


def _size_rates(schedule: RateSchedule, n: int) -> list[float]:
    return [schedule.rate(n, r) for r in range(n + 1)]


def _presence(rate: float) -> float:
    # 1 - e^{-rate}, accurate for small rates
    return -math.expm1(-rate)


def clique_set(graph: Graph) -> tuple[int, ...]:
    """Every vertex mask of cardinality >= 2 inducing a complete subgraph, ascending."""
    em = graph_to_edge_mask(graph)
    pmt = pair_masks(graph.n)
    return tuple(a for a in all_masks(graph.n) if a.bit_count() >= 2 and pmt[a] & ~em == 0)


def _cover_weight(
    cliques: tuple[int, ...],
    presence: Mapping[int, float],
    pair_mask: Mapping[int, int],
    target: int,
) -> float:
    """Sum over subsets S of ``cliques`` with edge union exactly ``target`` of
    prod_{a in S} p(a) * prod_{a not in S} (1 - p(a)).

    Once every target edge is covered the remaining cliques integrate out to a
    factor 1, so the walk is memoized on (position, still-uncovered edges).
    """
    k = len(cliques)
    suffix = [0] * (k + 1)
    for i in range(k - 1, -1, -1):
        suffix[i] = suffix[i + 1] | pair_mask[cliques[i]]
    memo: dict[tuple[int, int], float] = {}

    def walk(i: int, needed: int) -> float:
        if needed == 0:
            return 1.0
        if needed & ~suffix[i]:
            return 0.0
        key = (i, needed)
        got = memo.get(key)
        if got is None:
            a = cliques[i]
            q = presence[a]
            got = (1.0 - q) * walk(i + 1, needed) + q * walk(i + 1, needed & ~pair_mask[a])
            memo[key] = got
        return got

    return walk(0, target)


def enumerate_monotone_covers(graph: Graph) -> CoverEnumeration:
    """All generating classes of cliques (cardinality >= 2) projecting exactly to ``graph``."""
    cliques = clique_set(graph)
    if len(cliques) > CLIQUE_SUBSET_CAP:
        raise ResourceCapError(
            f"graph has {len(cliques)} cliques, enumeration cap is {CLIQUE_SUBSET_CAP}"
        )
    pmt = pair_masks(graph.n)
    target = graph_to_edge_mask(graph)
    k = len(cliques)
    suffix = [0] * (k + 1)
    for i in range(k - 1, -1, -1):
        suffix[i] = suffix[i + 1] | pmt[cliques[i]]

    covers: list[GeneratingClass] = []
    chosen: list[int] = []

    def walk(i: int, covered: int) -> None:
        if covered | suffix[i] != target:
            return
        if i == k:
            covers.append(GeneratingClass(graph.n, frozenset(chosen)))
            return
        walk(i + 1, covered)
        c = cliques[i]
        # masks ascend, so only the subset direction can break the antichain
        if all(not mask_leq(e, c) for e in chosen):
            chosen.append(c)
            walk(i + 1, covered | pmt[c])
            chosen.pop()

    walk(0, 0)
    covers.sort(key=lambda gc: gc.sorted_masks())
    return CoverEnumeration(graph, tuple(covers))


# ---------------------------------------------------------------------------
# Point masses and intervals of the support-family law
# ---------------------------------------------------------------------------

def family_point_prob(family: SubsetFamily, schedule: RateSchedule) -> float:
    """P(support = family): presence factors for members, survival for the rest."""
    rates = _size_rates(schedule, family.n)
    present = 1.0
    absent_rate = 0.0
    for a in all_masks(family.n):
        lam = rates[a.bit_count()]
        if a in family.members:
            present *= _presence(lam)
        else:
            absent_rate += lam
    return present * math.exp(-absent_rate)


def interval_prob(family: SubsetFamily, schedule: RateSchedule) -> float:
    """P(support <= family), i.e. no subset outside the family is present."""
    rates = _size_rates(schedule, family.n)
    outside = sum(rates[a.bit_count()] for a in all_masks(family.n) if a not in family.members)
    return math.exp(-outside)


# ---------------------------------------------------------------------------
# The projected graph law
# ---------------------------------------------------------------------------

def _graph_rates(schedule: RateSchedule, n: int) -> tuple[list[float], float]:
    """lambda_n(0..n) and sum_r C(n, r) lambda_n(r) over r >= 2, which must be finite."""
    rates = _size_rates(schedule, n)
    total = sum(math.comb(n, r) * rates[r] for r in range(2, n + 1))
    if not math.isfinite(total):
        raise ValueError(
            f"level {n}: the total rate of subsets with at least two elements overflows ({total})"
        )
    return rates, total


def _law_cap(n: int, cap: int | None) -> None:
    cap = GRAPH_ENUM_CAP if cap is None else cap
    if n > cap:
        raise ResourceCapError(f"whole-level graph law needs 2**{n * (n - 1) // 2} entries (cap n <= {cap})")


_TRANSPOSE_ROWS = 64


def _subcube_law(n: int, rates: list[float], edges: int) -> np.ndarray:
    """P(graph = e) for every graph e on [n] whose edges lie inside ``edges``.

    Index bit i carries the i-th set bit of ``edges``.  A zeta pass over an edge
    bit outside ``edges`` never writes a cell inside it, and one over a bit
    inside reads only cells inside, so these cells of the whole-level transform
    need only the cliques whose pairs lie inside ``edges``, on compacted bits.
    T(full) needs every clique: it is folded pairwise, bit by bit, from the
    nonzero cells, which are the additions the full transform makes at the
    full mask (0.0 for an empty level).

    A pass ``view[:, 1, :] += view[:, 0, :]`` at bit position p streams runs of
    2^p cells, and NumPy's per-run overhead dominates below about 4096 cells.
    So the low k = nbits // 2 bits are processed in a transposed layout that
    puts them at the top positions, and the high bits in the natural layout,
    with blocked copies in between.  Bits are still processed in order
    0 .. nbits - 1 by both transforms, so every cell is bit-identical to the
    plain per-bit butterfly.
    """
    pmt = pair_masks(n)
    bits = [b for b in range(n * (n - 1) // 2) if edges >> b & 1]
    nbits = len(bits)
    k = nbits // 2
    h = nbits - k
    # 0.0 + rate is the dense scatter's own addition (it turns -0.0 into 0.0)
    cells = {pmt[a]: 0.0 + rates[a.bit_count()] for a in all_masks(n) if a.bit_count() >= 2}

    folded = cells
    for _ in range(n * (n - 1) // 2):
        folded = {
            key: folded.get(2 * key + 1, 0.0) + folded.get(2 * key, 0.0)
            for key in {e >> 1 for e in folded}
        }
    total = folded.get(0, 0.0)

    low = np.zeros(1 << nbits)  # transposed layout: low bits on top
    for e, rate in cells.items():
        if e & ~edges == 0:
            c = sum(1 << i for i, b in enumerate(bits) if e >> b & 1)
            low[(c & ((1 << k) - 1)) << h | c >> k] += rate
    high = np.empty_like(low)  # natural layout

    def passes(x: np.ndarray, positions: range, op: np.ufunc) -> None:
        for p in positions:
            view = x.reshape(-1, 2, 1 << p)
            op(view[:, 1, :], view[:, 0, :], out=view[:, 1, :])

    def transpose(src: np.ndarray, dst: np.ndarray, rows: int) -> None:
        s = src.reshape(rows, -1)
        d = dst.reshape(-1, rows)
        for r in range(0, rows, _TRANSPOSE_ROWS):
            d[:, r : r + _TRANSPOSE_ROWS] = s[r : r + _TRANSPOSE_ROWS].T

    passes(low, range(h, nbits), np.add)
    transpose(low, high, 1 << k)
    passes(high, range(k, nbits), np.add)
    np.subtract(high, total, out=high)
    np.exp(high, out=high)
    transpose(high, low, 1 << h)
    passes(low, range(h, nbits), np.subtract)
    transpose(low, high, 1 << k)
    passes(high, range(k, nbits), np.subtract)
    return high


def graph_law(n: int, schedule: RateSchedule, *, cap: int | None = None) -> np.ndarray:
    """Exact probability of every graph on [n], indexed by edge bitmask.

    Bit b of the index carries edge ``edge_bit_pairs(n)[b]``.  Computed via the
    cumulative law F(e) = P(graph <= e) = exp(T(e) - T(full)), where T is the
    subset-sum transform of clique rates over the edge lattice, then inverted
    by a Moebius pass; both run in two memory layouts and are bit-identical to
    the plain per-bit butterfly.  Cost O(2^C(n,2) * C(n,2)).  Raises ValueError
    when the level's total rate overflows.
    """
    _law_cap(n, cap)
    rates, _ = _graph_rates(schedule, n)
    return _subcube_law(n, rates, (1 << n * (n - 1) // 2) - 1)


def graph_prob(graph: Graph, schedule: RateSchedule, *, cap: int | None = None) -> float:
    """P(projected graph = graph), exactly.

    Uses the clique-subset walk when the graph has at most CLIQUE_SUBSET_CAP
    cliques.  Otherwise runs the whole-level transform on the 2^|E(G)| graphs
    inside E(G) and returns the same float as ``graph_law(n)[mask of G]``;
    the level cap of ``graph_law`` applies.  Raises ValueError when the level's
    total rate overflows.
    """
    cliques = clique_set(graph)
    rates, total_rate = _graph_rates(schedule, graph.n)
    if len(cliques) <= CLIQUE_SUBSET_CAP:
        pmt = pair_masks(graph.n)
        presence = {a: _presence(rates[a.bit_count()]) for a in cliques}
        weight = _cover_weight(cliques, presence, pmt, graph_to_edge_mask(graph))
        clique_rate = sum(rates[a.bit_count()] for a in cliques)
        return math.exp(clique_rate - total_rate) * weight
    _law_cap(graph.n, cap)
    return float(_subcube_law(graph.n, rates, graph_to_edge_mask(graph))[-1])


def transitivity_conditional(schedule: RateSchedule) -> float:
    """P(2 ~ 3 | 1 ~ 2 and 1 ~ 3) under the projected graph law on [3]."""
    survive3 = math.exp(-schedule.rate(3, 3))
    edge2 = _presence(schedule.rate(3, 2))
    numerator = 1.0 - survive3 * (1.0 - edge2**3)
    denominator = 1.0 - survive3 * (1.0 - edge2**2)
    if denominator == 0.0:
        raise ValueError("conditioning event has probability zero: both level-3 rates are zero")
    return numerator / denominator


# ---------------------------------------------------------------------------
# Conditional cluster queries
# ---------------------------------------------------------------------------

def _conditional_setup(subset: int, graph: Graph, schedule: RateSchedule):
    if subset.bit_count() < 2:
        raise ValueError("cluster queries need at least two vertices")
    if subset & ~full_mask(graph.n):
        raise ValueError(f"subset {elements_of(subset)} exceeds vertex set [{graph.n}]")
    cliques = clique_set(graph)
    if len(cliques) > CLIQUE_SUBSET_CAP:
        raise ResourceCapError(f"graph has {len(cliques)} cliques, conditional cap is {CLIQUE_SUBSET_CAP}")
    rates = _size_rates(schedule, graph.n)
    presence = {a: _presence(rates[a.bit_count()]) for a in cliques}
    pmt = pair_masks(graph.n)
    target = graph_to_edge_mask(graph)
    denom = _cover_weight(cliques, presence, pmt, target)
    if denom == 0.0:
        raise ValueError("graph has probability zero under this schedule")
    return cliques, presence, pmt, target, denom


def cluster_prob(subset: int, graph: Graph, schedule: RateSchedule) -> float:
    """P(the latent process put a point exactly on ``subset`` | projected graph).

    ``subset`` must induce a complete subgraph, otherwise the probability is
    structurally zero and the query is rejected.
    """
    if subset.bit_count() >= 2 and not subset & ~full_mask(graph.n):
        if pair_masks(graph.n)[subset] & ~graph_to_edge_mask(graph):
            raise ValueError(
                f"{elements_of(subset)} is not a clique of the graph, so it cannot be a cluster"
            )
    cliques, presence, pmt, target, denom = _conditional_setup(subset, graph, schedule)
    rest = tuple(a for a in cliques if a != subset)
    numerator = presence[subset] * _cover_weight(rest, presence, pmt, target & ~pmt[subset])
    return numerator / denom


def coarse_cluster_prob(subset: int, graph: Graph, schedule: RateSchedule) -> float:
    """P(some latent point covers ``subset`` | projected graph).

    The covering point must itself be a clique of the observed graph, so the
    answer is 0 whenever no clique contains ``subset``.
    """
    cliques, presence, pmt, target, denom = _conditional_setup(subset, graph, schedule)
    supersets = tuple(a for a in cliques if mask_leq(subset, a))
    rest = tuple(a for a in cliques if not mask_leq(subset, a))
    none_present = 1.0
    for a in supersets:
        none_present *= 1.0 - presence[a]
    none_weight = none_present * _cover_weight(rest, presence, pmt, target)
    return (denom - none_weight) / denom


def classify_extension(
    support: SubsetFamily, observed: Graph, schedule: RateSchedule
) -> dict[SubsetFamily, float]:
    """Posterior over supports on [n+1] given the support on [n] and the graph on [n+1].

    Every member of the old support either stays, gains the new vertex, or
    both; all 3^k combinations are filtered by the observed graph and weighted
    by their point mass.
    """
    n = support.n
    if observed.n != n + 1:
        raise ValueError(f"observed graph must have {n + 1} vertices, got {observed.n}")
    if restrict_graph(observed, n) != clique_graph(monotone_cover(support)):
        raise ValueError("observed graph restricted to the old vertices contradicts the known support")
    members = support.sorted_masks()
    if len(members) > EXTENSION_MEMBERS_CAP:
        raise ResourceCapError(f"support has {len(members)} members, extension cap is {EXTENSION_MEMBERS_CAP}")
    new_bit = 1 << n

    candidates: list[tuple[SubsetFamily, float]] = []
    for choice in itertools.product((0, 1, 2), repeat=len(members)):
        masks = set()
        for e, pick in zip(members, choice):
            if pick != 1:
                masks.add(e)
            if pick != 0:
                masks.add(e | new_bit)
        extended = SubsetFamily(n + 1, frozenset(masks))
        if clique_graph(monotone_cover(extended)) == observed:
            candidates.append((extended, family_point_prob(extended, schedule)))

    if not candidates:
        raise InconsistentEvidenceError("no support on the extended vertex set matches the evidence")
    total = sum(w for _, w in candidates)
    if total == 0.0:
        raise InconsistentEvidenceError("every support matching the evidence has probability zero")
    candidates.sort(key=lambda item: item[0].sorted_masks())
    return {family: weight / total for family, weight in candidates}


# ---------------------------------------------------------------------------
# Law-level diagnostics
# ---------------------------------------------------------------------------

def marginal_restriction_check(
    schedule: RateSchedule, m: int, n: int, *, cap: int | None = None
) -> float:
    """Max over graphs G on [m] of |P_m(G) - sum of P_n over graphs restricting to G|.

    Zero (to rounding) exactly when the schedule is consistent across levels.
    Relies on edges inside [m] occupying the low bits of the edge mask.
    """
    if not 1 <= m < n:
        raise ValueError(f"need 1 <= m < n, got m={m}, n={n}")
    law_m = graph_law(m, schedule, cap=cap)
    law_n = graph_law(n, schedule, cap=cap)
    folded = law_n.reshape(-1, law_m.size).sum(axis=0)
    return float(np.abs(folded - law_m).max())


def _swap_index(n: int, j: int, m: int) -> np.ndarray:
    """For every edge mask on [n], the edge mask after swapping vertices j and m.

    A relabeling moves each edge bit to one fixed position, so the image of a
    mask is the OR of the images of its low and high halves; two small tables
    joined by one outer OR build the whole int32 index (2^21 cells at n = 7).
    """
    rename = {j: m, m: j}
    dest = [
        edge_index(*sorted((rename.get(x, x), rename.get(y, y)))) for x, y in edge_bit_pairs(n)
    ]
    half = len(dest) // 2

    def table(bits: list[int]) -> np.ndarray:
        out = np.zeros(1 << len(bits), dtype=np.int32)
        for b, d in enumerate(bits):
            out.reshape(-1, 2, 1 << b)[:, 1, :] |= 1 << d
        return out

    return (table(dest[half:])[:, None] | table(dest[:half])[None, :]).ravel()


def exchangeability_discrepancy(schedule: RateSchedule, n: int, *, cap: int | None = None) -> float:
    """Max over relabelings sigma and graphs G of |P(G) - P(sigma G)| at level n.

    Relabelings form a group, so this is the largest spread of the law within
    one isomorphism orbit: the max over G of P(G) minus the least P over G's
    orbit.  Float subtraction is monotone, so the result is bit-identical to
    the pairwise maximum over all n! relabelings.  Orbit minima are built along
    the stabilizer chain S_2 < ... < S_n: S_m is the union of the cosets
    S_{m-1} tau_{j,m}, j < m, where tau_{j,m} swaps vertices j and m, so level
    m folds in the minimum at tau_{j,m} G.  Cost: n(n-1)/2 gathers over the
    2^C(n,2) cells; n = 7 takes about a second where n! relabelings took about
    half an hour.
    """
    law = graph_law(n, schedule, cap=cap)
    lo = law.copy()
    for m in range(2, n + 1):
        for j in range(1, m):
            np.minimum(lo, lo[_swap_index(n, j, m)], out=lo)
    return float((law - lo).max())
