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
  the total rate of cliques fitting inside e, computed for every edge mask by a
  subset-sum (zeta) transform and inverted by a Moebius pass.  This prices all
  2^C(n,2) graphs at once and is the fallback for clique-rich graphs.

Subsets of cardinality <= 1 never affect the graph; they are marginalized out of
every graph computation and cancel from every conditional ratio.

Survival products are always accumulated as exp(-sum of rates), so no
intermediate underflow occurs regardless of rate size.
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
class CliqueSet:
    """All cliques of a graph with at least two vertices, as vertex masks."""

    graph: Graph
    cliques: tuple[int, ...]


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


def clique_set(graph: Graph) -> CliqueSet:
    """Enumerate every vertex mask of cardinality >= 2 inducing a complete subgraph."""
    em = graph_to_edge_mask(graph)
    pmt = pair_masks(graph.n)
    cliques = tuple(
        a for a in all_masks(graph.n) if a.bit_count() >= 2 and pmt[a] & ~em == 0
    )
    return CliqueSet(graph, cliques)


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


def enumerate_monotone_covers(graph: Graph, *, clique_cap: int = CLIQUE_SUBSET_CAP) -> CoverEnumeration:
    """All generating classes of cliques (cardinality >= 2) projecting exactly to ``graph``."""
    cliques = clique_set(graph).cliques
    if len(cliques) > clique_cap:
        raise ResourceCapError(f"graph has {len(cliques)} cliques, enumeration cap is {clique_cap}")
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

def graph_law(n: int, schedule: RateSchedule, *, cap: int | None = None) -> np.ndarray:
    """Exact probability of every graph on [n], indexed by edge bitmask.

    Bit b of the index carries edge ``edge_bit_pairs(n)[b]``.  Computed via the
    cumulative law F(e) = P(graph <= e) = exp(T(e) - T(full)), where T is the
    subset-sum transform of clique rates over the edge lattice, then inverted
    by a Moebius pass.  Cost O(2^C(n,2) * C(n,2)).
    """
    cap = GRAPH_ENUM_CAP if cap is None else cap
    if n > cap:
        raise ResourceCapError(f"whole-level graph law needs 2**{n * (n - 1) // 2} entries (cap n <= {cap})")
    nbits = n * (n - 1) // 2
    rates = _size_rates(schedule, n)
    pmt = pair_masks(n)
    transform = np.zeros(1 << nbits)
    for a in all_masks(n):
        if a.bit_count() >= 2:
            transform[pmt[a]] += rates[a.bit_count()]
    for b in range(nbits):
        view = transform.reshape(-1, 2, 1 << b)
        view[:, 1, :] += view[:, 0, :]
    law = np.exp(transform - transform[-1])
    for b in range(nbits):
        view = law.reshape(-1, 2, 1 << b)
        view[:, 1, :] -= view[:, 0, :]
    return law


def graph_prob(graph: Graph, schedule: RateSchedule, *, cap: int | None = None) -> float:
    """P(projected graph = graph), exactly.

    Uses the clique-subset walk when the graph has at most CLIQUE_SUBSET_CAP
    cliques, otherwise falls back to the whole-level law.
    """
    cliques = clique_set(graph).cliques
    rates = _size_rates(schedule, graph.n)
    if len(cliques) <= CLIQUE_SUBSET_CAP:
        pmt = pair_masks(graph.n)
        presence = {a: _presence(rates[a.bit_count()]) for a in cliques}
        weight = _cover_weight(cliques, presence, pmt, graph_to_edge_mask(graph))
        total_rate = sum(math.comb(graph.n, r) * rates[r] for r in range(2, graph.n + 1))
        clique_rate = sum(rates[a.bit_count()] for a in cliques)
        return math.exp(clique_rate - total_rate) * weight
    law = graph_law(graph.n, schedule, cap=cap)
    return float(law[graph_to_edge_mask(graph)])


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
    cliques = clique_set(graph).cliques
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
