import contextlib
import decimal
import gc
import itertools
import math
import random
import sys
import threading
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from poissonclique import inference
from poissonclique.inference import (
    CLIQUE_SUBSET_CAP,
    EXTENSION_MEMBERS_CAP,
    InconsistentEvidenceError,
    classify_extension,
    clique_set,
    cluster_prob,
    coarse_cluster_prob,
    enumerate_monotone_covers,
    exchangeability_discrepancy,
    family_point_prob,
    graph_law,
    graph_prob,
    interval_prob,
    marginal_restriction_check,
    transitivity_conditional,
)
from poissonclique.lattice import (
    GeneratingClass,
    Graph,
    Permutation,
    ResourceCapError,
    SubsetFamily,
    clique_graph,
    edge_mask_to_graph,
    graph_to_edge_mask,
    iter_submasks,
    mask_of,
    monotone_cover,
    permute_family,
    permute_graph,
)
from poissonclique.schedules import (
    GeometricSchedule,
    BetaUniformSchedule,
    MomentAtomsSchedule,
    TableSchedule,
    constant_table,
)

from oracles import (
    DECIMAL_DIGITS,
    butterfly_law,
    covered_pairs,
    decimal_graph_prob,
    decimal_interval_prob,
    decimal_point_mass,
    event_prob,
    extension_weights,
    point_mass,
    random_schedule,
    relabeling_discrepancy,
)

LN2 = math.log(2)
LN2_TABLE_2 = TableSchedule({2: (LN2, LN2, LN2)})
LN2_TABLE_3 = TableSchedule({3: (LN2, LN2, LN2, LN2)})
TRIANGLE = Graph.from_edges(3, [(1, 2), (1, 3), (2, 3)])


def complete_graph(n):
    return Graph.from_edges(n, itertools.combinations(range(1, n + 1), 2))


def all_graphs(n):
    pairs = list(itertools.combinations(range(1, n + 1), 2))
    for code in range(1 << len(pairs)):
        yield Graph.from_edges(n, (p for b, p in enumerate(pairs) if code >> b & 1))


# ---------------------------------------------------------------------------
# Point masses and intervals
# ---------------------------------------------------------------------------

def test_family_point_prob_four_fair_coins():
    family = SubsetFamily.from_sets(2, [[1, 2]])
    assert math.isclose(family_point_prob(family, LN2_TABLE_2), 1 / 16, abs_tol=1e-15)


def test_family_point_prob_zero_rates():
    zero = TableSchedule({1: (0.0, 0.0)})
    assert family_point_prob(SubsetFamily(1, frozenset()), zero) == 1.0


def test_family_point_prob_normalizes():
    rng = random.Random(11)
    for schedule in [LN2_TABLE_2, random_schedule(rng), random_schedule(rng)]:
        total = 0.0
        for code in range(1 << 4):
            members = frozenset(a for a in range(4) if code >> a & 1)
            total += family_point_prob(SubsetFamily(2, members), schedule)
        assert math.isclose(total, 1.0, abs_tol=1e-12)


def test_family_point_prob_reads_a_cover_as_its_antichain():
    # P(support = the antichain), not the law of the monotone set it generates
    schedule = random_schedule(random.Random(13))
    for code in range(1 << 8):
        family = SubsetFamily(3, frozenset(a for a in range(8) if code >> a & 1))
        cover = monotone_cover(family)
        assert family_point_prob(cover, schedule) == family_point_prob(
            SubsetFamily(3, cover.members), schedule
        )


def test_family_point_prob_matches_oracle():
    rng = random.Random(12)
    schedule = random_schedule(rng)
    for code in range(1 << 4):
        members = frozenset(a for a in range(4) if code >> a & 1)
        assert math.isclose(
            family_point_prob(SubsetFamily(2, members), schedule),
            point_mass(members, 2, schedule),
            abs_tol=1e-14,
        )


def test_interval_prob_full_power_set():
    full = SubsetFamily(2, frozenset(range(4)))
    assert interval_prob(full, LN2_TABLE_2) == 1.0


def test_interval_prob_single_exclusion():
    family = SubsetFamily(2, frozenset({0b00, 0b01, 0b10}))
    assert math.isclose(interval_prob(family, LN2_TABLE_2), 0.5, abs_tol=1e-15)


def test_interval_prob_empty_family_positive():
    s = GeometricSchedule(alpha=0.4, c=1.5)
    value = interval_prob(SubsetFamily(2, frozenset()), s)
    assert 0.0 < value < 1.0
    assert math.isclose(value, math.exp(-sum(s.rate(2, a.bit_count()) for a in range(4))))


def test_interval_prob_is_sum_of_lower_point_masses():
    # exhaustive at n=2, sampled families at n=3
    rng = random.Random(13)
    schedule = random_schedule(rng)
    cases = [(2, code) for code in range(16)] + [(3, rng.randrange(1 << 8)) for _ in range(12)]
    for n, code in cases:
        members = frozenset(a for a in range(1 << n) if code >> a & 1)
        family = SubsetFamily(n, members)
        total = 0.0
        member_list = sorted(members)
        for sub in range(1 << len(member_list)):
            chosen = frozenset(m for b, m in enumerate(member_list) if sub >> b & 1)
            total += family_point_prob(SubsetFamily(n, chosen), schedule)
        assert math.isclose(interval_prob(family, schedule), total, abs_tol=1e-12)


@pytest.mark.parametrize("n", [8, 12, 16])
def test_interval_and_point_probs_keep_relative_accuracy(n):
    # table rows scaled so that the level's total rate, the empty family's
    # exponent, is 1, 50, 300 or 700; families of 0-50 random members.  Both
    # functions stay within 1e-13 relative of the 60-digit sum (the 50-digit
    # point mass) wherever that is a normal float, down past 1e-300
    rng = random.Random(24 + n)
    smallest = decimal.Decimal(sys.float_info.min)
    for total in (1.0, 50.0, 300.0, 700.0):
        for _ in range(10):
            row = [rng.random() for _ in range(n + 1)]
            scale = total / math.fsum(math.comb(n, r) * x for r, x in enumerate(row))
            schedule = TableSchedule({n: tuple(x * scale for x in row)})
            family = SubsetFamily(n, frozenset(rng.sample(range(1 << n), rng.randint(0, 50))))
            exact = decimal_interval_prob(family.members, n, schedule)
            if exact >= smallest:
                assert relative_error(interval_prob(family, schedule), exact) <= decimal.Decimal("1e-13")
            exact = decimal_point_mass(family.members, n, schedule)
            if exact >= smallest:
                assert relative_error(family_point_prob(family, schedule), exact) <= decimal.Decimal("1e-13")


def test_interval_and_point_probs_read_zero_when_the_exponent_overflows():
    # every rate is finite, but the rates of the absent subsets add past the float range
    schedule = TableSchedule({3: (1e308,) * 4})
    for family in SubsetFamily(3, frozenset()), SubsetFamily.from_sets(3, [[1, 2, 3]]):
        assert interval_prob(family, schedule) == 0.0
        assert family_point_prob(family, schedule) == 0.0


# ---------------------------------------------------------------------------
# Cover enumeration
# ---------------------------------------------------------------------------

def test_triangle_covers():
    covers = enumerate_monotone_covers(TRIANGLE).covers
    assert {c.member_sets() for c in covers} == {((1, 2), (1, 3), (2, 3)), ((1, 2, 3),)}


def test_empty_graph_has_single_empty_cover():
    covers = enumerate_monotone_covers(Graph(3, frozenset())).covers
    assert covers == (GeneratingClass(3, frozenset()),)


def test_hub_graph_cover_split():
    # edges {12,13,23,34}: two covers; without edge 12: one; three in total
    with_edge = enumerate_monotone_covers(Graph.from_edges(4, [(1, 2), (1, 3), (2, 3), (3, 4)]))
    without_edge = enumerate_monotone_covers(Graph.from_edges(4, [(1, 3), (2, 3), (3, 4)]))
    assert {c.member_sets() for c in with_edge.covers} == {
        ((1, 2, 3), (3, 4)),
        ((1, 2), (1, 3), (2, 3), (3, 4)),
    }
    assert {c.member_sets() for c in without_edge.covers} == {((1, 3), (2, 3), (3, 4))}


def test_near_complete_graph_cover_split():
    # edges {12,13,14,23,24}: four covers; without edge 12: one; five in total
    with_edge = enumerate_monotone_covers(
        Graph.from_edges(4, [(1, 2), (1, 3), (1, 4), (2, 3), (2, 4)])
    )
    without_edge = enumerate_monotone_covers(Graph.from_edges(4, [(1, 3), (1, 4), (2, 3), (2, 4)]))
    assert {c.member_sets() for c in with_edge.covers} == {
        ((1, 2), (1, 3), (2, 3), (1, 4), (2, 4)),
        ((1, 3), (2, 3), (1, 2, 4)),
        ((1, 2, 3), (1, 4), (2, 4)),
        ((1, 2, 3), (1, 2, 4)),
    }
    assert {c.member_sets() for c in without_edge.covers} == {((1, 3), (2, 3), (1, 4), (2, 4))}


def test_covers_project_back_and_are_canonical():
    for graph in all_graphs(4):
        enumeration = enumerate_monotone_covers(graph)
        keys = [c.sorted_masks() for c in enumeration.covers]
        assert keys == sorted(keys)
        assert len(set(keys)) == len(keys)
        for cover in enumeration.covers:
            assert clique_graph(cover) == graph
            assert all(a.bit_count() >= 2 for a in cover.maximal)


def test_covers_match_antichain_sweep():
    # independent count: antichains of size >= 2 masks projecting to the graph
    from poissonclique.lattice import all_antichains

    by_graph = {}
    for cover in all_antichains(3):
        if all(a.bit_count() >= 2 for a in cover.maximal):
            key = clique_graph(cover)
            by_graph[key] = by_graph.get(key, 0) + 1
    for graph in all_graphs(3):
        assert len(enumerate_monotone_covers(graph)) == by_graph.get(graph, 0)


def test_cover_enumeration_cap():
    with pytest.raises(ResourceCapError):
        enumerate_monotone_covers(complete_graph(6))
    assert len(clique_set(complete_graph(6))) == 57


def test_clique_walks_retain_no_memory():
    # a recursive walk that closes over itself is a reference cycle, and with
    # the cyclic collector off it would keep each call's memo (about 120 KB per
    # graph_prob call on this 23-clique graph) alive
    graph = Graph.from_edges(
        7,
        [(1, 2), (1, 6), (2, 4), (2, 7), (3, 4), (3, 5), (3, 6)]
        + [(4, 5), (4, 6), (4, 7), (5, 6), (5, 7), (6, 7)],
    )
    assert len(clique_set(graph)) == 23
    schedule = GeometricSchedule(alpha=0.5)
    calls = {
        "graph_prob": lambda: graph_prob(graph, schedule),
        "cluster_prob": lambda: cluster_prob(mask_of([4, 5, 6], 7), graph, schedule),
        "enumerate_monotone_covers": lambda: enumerate_monotone_covers(graph),
    }
    for name, call in calls.items():
        call()  # fills the lattice caches
        gc.disable()
        tracemalloc.start()
        try:
            before, _ = tracemalloc.get_traced_memory()
            for _ in range(5):
                call()
            after, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
            gc.enable()
        assert after - before <= 16_384, f"{name}: 5 calls retain {after - before} bytes"


# ---------------------------------------------------------------------------
# Graph law
# ---------------------------------------------------------------------------

def test_graph_prob_single_absent_edge():
    assert math.isclose(graph_prob(Graph(2, frozenset()), LN2_TABLE_2), 0.5, abs_tol=1e-15)


def test_graph_prob_triangle():
    assert math.isclose(graph_prob(TRIANGLE, LN2_TABLE_3), 9 / 16, abs_tol=1e-15)


def test_graph_prob_normalizes():
    rng = random.Random(21)
    for schedule in [LN2_TABLE_3, random_schedule(rng), random_schedule(rng)]:
        total = sum(graph_prob(g, schedule) for g in all_graphs(3))
        assert math.isclose(total, 1.0, abs_tol=1e-12)


def test_graph_prob_matches_family_oracle():
    rng = random.Random(22)
    for schedule in [LN2_TABLE_3, random_schedule(rng)]:
        for graph in all_graphs(3):
            expected = event_prob(3, schedule, lambda mem: covered_pairs(mem, 3) == graph.edges)
            assert math.isclose(graph_prob(graph, schedule), expected, abs_tol=1e-12)


def test_graph_law_matches_graph_prob():
    rng = random.Random(23)
    for n in (2, 3, 4):
        schedule = random_schedule(rng)
        law = graph_law(n, schedule)
        assert math.isclose(float(law.sum()), 1.0, abs_tol=1e-12)
        assert float(law.min()) > -1e-12
        for graph in all_graphs(n):
            assert math.isclose(
                float(law[graph_to_edge_mask(graph)]), graph_prob(graph, schedule), abs_tol=1e-12
            )


def test_graph_prob_clique_rich_fallback():
    # K6 has 57 cliques, beyond the subset-walk cap; the law path must take over
    schedule = GeometricSchedule(alpha=0.5, c=1.0)
    k6 = complete_graph(6)
    law = graph_law(6, schedule)
    assert math.isclose(graph_prob(k6, schedule), float(law[-1]), abs_tol=1e-15)


def test_graph_law_cap():
    with pytest.raises(ResourceCapError):
        graph_law(8, GeometricSchedule(alpha=0.5))
    with pytest.raises(ResourceCapError):
        graph_law(3, GeometricSchedule(alpha=0.5), cap=2)
    with pytest.raises(ValueError, match="level must be >= 0, got -1"):
        graph_law(-1, GeometricSchedule(alpha=0.5))
    with pytest.raises(ValueError, match="level must be >= 0, got -1"):
        exchangeability_discrepancy(GeometricSchedule(alpha=0.5), -1)


# ---------------------------------------------------------------------------
# Transitivity
# ---------------------------------------------------------------------------

def test_transitivity_fair_coin_rates():
    assert math.isclose(transitivity_conditional(LN2_TABLE_3), 0.9, abs_tol=1e-15)


def test_transitivity_degenerate_cases():
    no_triple = TableSchedule({3: (0.0, 0.0, 0.8, 0.0)})
    assert math.isclose(transitivity_conditional(no_triple), -math.expm1(-0.8), abs_tol=1e-15)
    no_pair = TableSchedule({3: (0.0, 0.0, 0.0, 0.5)})
    assert transitivity_conditional(no_pair) == 1.0
    with pytest.raises(ValueError):
        transitivity_conditional(TableSchedule({3: (0.0, 0.0, 0.0, 0.0)}))


def test_transitivity_matches_family_oracle():
    rng = random.Random(31)
    for _ in range(5):
        schedule = random_schedule(rng)
        num = event_prob(3, schedule, lambda mem: len(covered_pairs(mem, 3)) == 3)
        den = event_prob(
            3, schedule, lambda mem: {(1, 2), (1, 3)} <= covered_pairs(mem, 3)
        )
        assert math.isclose(transitivity_conditional(schedule), num / den, abs_tol=1e-12)


# ---------------------------------------------------------------------------
# Cluster queries
# ---------------------------------------------------------------------------

def test_cluster_prob_triangle_values():
    assert math.isclose(
        cluster_prob(mask_of([1, 2, 3], 3), TRIANGLE, LN2_TABLE_3), 8 / 9, abs_tol=1e-15
    )
    assert math.isclose(
        cluster_prob(mask_of([1, 2], 3), TRIANGLE, LN2_TABLE_3), 5 / 9, abs_tol=1e-15
    )


def test_cluster_prob_forced_single_edge():
    edge = Graph.from_edges(2, [(1, 2)])
    for schedule in [LN2_TABLE_2, TableSchedule({2: (0.0, 0.0, 3.0)})]:
        assert cluster_prob(mask_of([1, 2], 2), edge, schedule) == 1.0


def test_cluster_prob_argument_errors():
    with pytest.raises(ValueError):
        cluster_prob(mask_of([1], 3), TRIANGLE, LN2_TABLE_3)
    with pytest.raises(ValueError):
        cluster_prob(mask_of([1, 4], 4), TRIANGLE, LN2_TABLE_3)
    no_edges = Graph.from_edges(3, [(1, 3), (2, 3)])
    with pytest.raises(ValueError):
        cluster_prob(mask_of([1, 2], 3), no_edges, LN2_TABLE_3)


def test_cluster_prob_zero_probability_graph():
    # with only triples possible, a single-edge graph cannot occur
    only_triples = TableSchedule({3: (0.0, 0.0, 0.0, 1.0)})
    edge = Graph.from_edges(3, [(1, 2)])
    with pytest.raises(ValueError):
        cluster_prob(mask_of([1, 2], 3), edge, only_triples)


def test_cluster_prob_matches_family_oracle():
    rng = random.Random(41)
    for _ in range(3):
        schedule = random_schedule(rng)
        for graph in [TRIANGLE, Graph.from_edges(3, [(1, 2), (1, 3)])]:
            graph_event = lambda mem: covered_pairs(mem, 3) == graph.edges
            den = event_prob(3, schedule, graph_event)
            for clique in clique_set(graph):
                num = event_prob(3, schedule, lambda mem: clique in mem and graph_event(mem))
                assert math.isclose(
                    cluster_prob(clique, graph, schedule), num / den, abs_tol=1e-12
                )


def test_coarse_cluster_prob_values():
    assert coarse_cluster_prob(mask_of([1, 2], 3), TRIANGLE, LN2_TABLE_3) == 1.0
    assert (
        coarse_cluster_prob(mask_of([1, 2], 3), Graph.from_edges(3, [(1, 3), (2, 3)]), LN2_TABLE_3)
        == 0.0
    )
    assert math.isclose(
        coarse_cluster_prob(mask_of([1, 2, 3], 3), TRIANGLE, LN2_TABLE_3), 8 / 9, abs_tol=1e-15
    )


def test_coarse_cluster_prob_matches_family_oracle():
    rng = random.Random(42)
    schedule = random_schedule(rng)
    for graph in [TRIANGLE, Graph.from_edges(3, [(1, 2), (1, 3)])]:
        graph_event = lambda mem: covered_pairs(mem, 3) == graph.edges
        den = event_prob(3, schedule, graph_event)
        for h in range(1 << 3):
            if h.bit_count() < 2:
                continue
            num = event_prob(
                3,
                schedule,
                lambda mem: graph_event(mem) and any(h & ~a == 0 for a in mem if a.bit_count() >= 2),
            )
            assert math.isclose(
                coarse_cluster_prob(h, graph, schedule), num / den, abs_tol=1e-12
            )


def test_coarse_dominates_cluster():
    rng = random.Random(43)
    schedules = [random_schedule(rng) for _ in range(3)]
    for graph in all_graphs(4):
        for schedule in schedules:
            for clique in clique_set(graph):
                assert cluster_prob(clique, graph, schedule) <= coarse_cluster_prob(
                    clique, graph, schedule
                ) + 1e-12


def test_coarse_cluster_prob_zero_probability_graph():
    # with only triples possible, a single-edge graph cannot occur
    only_triples = TableSchedule({3: (0.0, 0.0, 0.0, 1.0)})
    edge = Graph.from_edges(3, [(1, 2)])
    with pytest.raises(ValueError, match="probability zero"):
        coarse_cluster_prob(mask_of([1, 2], 3), edge, only_triples)


def test_coarse_cluster_prob_skips_the_full_cover_walk(monkeypatch):
    # some + none is the graph's weight, so the walk over every clique with
    # the full target is not run when a clique contains the subset
    walks = []
    cover_weight = inference._cover_weight

    def recording(cliques, presence, pair_mask, target):
        walks.append((cliques, target))
        return cover_weight(cliques, presence, pair_mask, target)

    monkeypatch.setattr(inference, "_cover_weight", recording)
    schedule = GeometricSchedule(alpha=0.5)
    triangle_and_path = Graph.from_edges(5, [(1, 2), (1, 3), (2, 3), (3, 4), (4, 5)])
    for graph in [TRIANGLE, complete_graph(4), triangle_and_path]:
        full = (clique_set(graph), graph_to_edge_mask(graph))
        for clique in clique_set(graph):
            walks.clear()
            coarse_cluster_prob(clique, graph, schedule)
            assert walks and full not in walks


@pytest.mark.parametrize("alpha, c", [(1e-3, 1e6), (1e-6, 1e12), (1e-8, 1e16)])
def test_coarse_cluster_prob_keeps_small_answers_relative(alpha, c):
    # the triangle itself is its only superset clique, so covering it and
    # being a latent point are one event; the answer is about 4 * alpha
    schedule = GeometricSchedule(alpha=alpha, c=c)
    triangle = mask_of([1, 2, 3], 3)
    exact = cluster_prob(triangle, TRIANGLE, schedule)
    assert exact < 1e-2
    assert abs(coarse_cluster_prob(triangle, TRIANGLE, schedule) - exact) <= 1e-14 * exact


# ---------------------------------------------------------------------------
# Classification of an added vertex
# ---------------------------------------------------------------------------

def test_classify_worked_example():
    distribution = classify_extension(
        SubsetFamily.from_sets(1, [[1]]), Graph.from_edges(2, [(1, 2)]), LN2_TABLE_2
    )
    expected = {
        SubsetFamily.from_sets(2, [[1, 2]]): 0.5,
        SubsetFamily.from_sets(2, [[1], [1, 2]]): 0.5,
    }
    assert set(distribution) == set(expected)
    for family, prob in expected.items():
        assert math.isclose(distribution[family], prob, abs_tol=1e-12)


def test_classify_empty_extension_graph():
    distribution = classify_extension(
        SubsetFamily.from_sets(1, [[1]]), Graph(2, frozenset()), LN2_TABLE_2
    )
    assert set(distribution) == {SubsetFamily.from_sets(2, [[1]])}
    assert math.isclose(sum(distribution.values()), 1.0, abs_tol=1e-15)


def test_classify_precondition_violation():
    with pytest.raises(ValueError):
        classify_extension(
            SubsetFamily.from_sets(2, [[1, 2]]),
            Graph.from_edges(3, [(1, 3)]),
            LN2_TABLE_3,
        )


def test_classify_inconsistent_evidence():
    # edge 1-3 without 2-3 cannot arise from extending {{1,2}}
    with pytest.raises(InconsistentEvidenceError):
        classify_extension(
            SubsetFamily.from_sets(2, [[1, 2]]),
            Graph.from_edges(3, [(1, 2), (1, 3)]),
            LN2_TABLE_3,
        )


def test_classify_zero_mass_evidence():
    # the only matching family needs a size-1 member whose rate is zero
    stubborn = TableSchedule({2: (LN2, 0.0, LN2)})
    with pytest.raises(InconsistentEvidenceError):
        classify_extension(SubsetFamily.from_sets(1, [[1]]), Graph(2, frozenset()), stubborn)


def _random_extension(base: SubsetFamily, rng: random.Random) -> SubsetFamily:
    # a family on [n+1] restricting exactly to ``base``
    new_bit = 1 << base.n
    members = set()
    for e in sorted(base.members):
        pick = rng.randrange(3)
        if pick != 1:
            members.add(e)
        if pick != 0:
            members.add(e | new_bit)
    return SubsetFamily(base.n + 1, frozenset(members))


def test_classify_matches_family_oracle():
    # candidate set and weights must match an exhaustive sweep over families on [n+1]
    rng = random.Random(51)
    for _ in range(15):
        n = rng.randrange(1, 3)
        code = rng.randrange(1 << (1 << n))
        base = SubsetFamily(n, frozenset(a for a in range(1 << n) if code >> a & 1))
        observed = clique_graph(monotone_cover(_random_extension(base, rng)))
        schedule = random_schedule(rng)
        distribution = classify_extension(base, observed, schedule)

        low = (1 << n) - 1
        expected = {}
        for fam_code in range(1 << (1 << (n + 1))):
            members = frozenset(a for a in range(1 << (n + 1)) if fam_code >> a & 1)
            if frozenset(a & low for a in members) != base.members:
                continue
            if covered_pairs(members, n + 1) != observed.edges:
                continue
            expected[SubsetFamily(n + 1, members)] = point_mass(members, n + 1, schedule)
        total = sum(expected.values())
        assert set(distribution) == set(expected)
        for family, weight in expected.items():
            assert math.isclose(distribution[family], weight / total, abs_tol=1e-12)


def test_classify_permutation_invariance():
    rng = random.Random(52)
    schedule = random_schedule(rng)
    support = SubsetFamily.from_sets(2, [[1], [1, 2]])
    observed = Graph.from_edges(3, [(1, 2), (1, 3)])
    sigma = Permutation((2, 1))
    extended = Permutation((2, 1, 3))
    base = classify_extension(support, observed, schedule)
    permuted = classify_extension(
        permute_family(support, sigma), permute_graph(observed, extended), schedule
    )
    mapped = {permute_family(fam, extended): p for fam, p in base.items()}
    assert set(mapped) == set(permuted)
    for family, prob in mapped.items():
        assert math.isclose(permuted[family], prob, abs_tol=1e-12)


def relative_error(got: float, exact: decimal.Decimal) -> decimal.Decimal:
    with decimal.localcontext() as ctx:
        ctx.prec = DECIMAL_DIGITS
        return abs(decimal.Decimal(got) - exact) / exact


def _extension_case(rng: random.Random):
    # a support of at most 8 members on [n], n = 1..6, and the graph of one of its
    # extensions; one case in five toggles an edge at the new vertex, which may
    # leave no support on [n+1] matching the evidence
    n = rng.randint(1, 6)
    base = SubsetFamily(n, frozenset(rng.sample(range(1 << n), rng.randint(0, min(8, 1 << n)))))
    edges = set(covered_pairs(_random_extension(base, rng).members, n + 1))
    if rng.random() < 0.2:
        edges ^= {(rng.randint(1, n), n + 1)}
    schedule = random_schedule(rng)
    while isinstance(schedule, TableSchedule) and n + 1 not in schedule.rows:
        schedule = random_schedule(rng)
    return base, Graph.from_edges(n + 1, edges), schedule


def test_classify_matches_extension_oracle():
    # candidate sets equal the 3^k enumeration's, posteriors agree within 1e-12
    # relative, and within 1e-13 relative of 50-digit point masses at n + 1 <= 5
    rng = random.Random(53)
    answered = 0
    for _ in range(300):
        base, observed, schedule = _extension_case(rng)
        weights = extension_weights(base.members, base.n, observed.edges, schedule)
        if not weights:
            with pytest.raises(InconsistentEvidenceError):
                classify_extension(base, observed, schedule)
            continue
        distribution = classify_extension(base, observed, schedule)
        answered += 1
        assert {family.members for family in distribution} == set(weights)
        assert list(distribution) == sorted(distribution, key=SubsetFamily.sorted_masks)
        total = math.fsum(weights.values())
        for family, prob in distribution.items():
            assert math.isclose(prob, weights[family.members] / total, rel_tol=1e-12)
        if observed.n <= 5:
            exact = {f: decimal_point_mass(f.members, observed.n, schedule) for f in distribution}
            with decimal.localcontext() as ctx:
                ctx.prec = DECIMAL_DIGITS
                exact_total = sum(exact.values())
                for family, prob in distribution.items():
                    assert relative_error(prob, exact[family] / exact_total) <= decimal.Decimal("1e-13")
    assert answered >= 240


def test_classify_prices_choices_without_covers_or_point_masses(monkeypatch):
    # the graph of the old support is built once, for the precondition; no
    # candidate gets a cover, a clique graph or a power-set point mass
    calls = []
    for name in ("monotone_cover", "clique_graph", "family_point_prob"):
        real = getattr(inference, name)
        monkeypatch.setattr(inference, name, lambda *a, name=name, real=real: calls.append(name) or real(*a))
    support = SubsetFamily.from_sets(3, [[1], [2], [1, 2], [2, 3], []])
    observed = Graph.from_edges(4, [(1, 2), (2, 3), (1, 4), (2, 4)])
    assert len(classify_extension(support, observed, GeometricSchedule(alpha=0.5))) > 1
    assert calls == ["monotone_cover", "clique_graph"]


def test_classify_beyond_the_power_set_cap():
    # n = 20: {1,2} and {2,3} must both gain vertex 21 to cover N(21) = {1,2,3},
    # and each keeps its old copy as well, independently, with probability p(lambda(2))
    schedule = GeometricSchedule(alpha=0.5, c=1.0)
    pair_12, pair_23 = mask_of([1, 2], 20), mask_of([2, 3], 20)
    support = SubsetFamily.from_sets(20, [[1, 2], [2, 3], [4, 5, 6], [7], [8, 20], [9, 10, 11, 12]])
    old_edges = clique_graph(monotone_cover(support)).edges
    observed = Graph.from_edges(21, set(old_edges) | {(1, 21), (2, 21), (3, 21)})
    distribution = classify_extension(support, observed, schedule)
    assert len(distribution) == 4
    assert math.isclose(sum(distribution.values()), 1.0, rel_tol=1e-15)
    keep, drop = -math.expm1(-schedule.rate(21, 2)), math.exp(-schedule.rate(21, 2))
    for family, prob in distribution.items():
        kept = (pair_12 in family.members) + (pair_23 in family.members)
        assert math.isclose(prob, keep**kept * drop ** (2 - kept), rel_tol=1e-13)


def test_classify_when_the_level_survival_underflows():
    # the level-3 total rate is near 2000, so exp(-T) underflows to 0; the
    # posterior never forms it: P(support = {123}) = e^{-lambda_3(2)}
    schedule = GeometricSchedule(alpha=0.5, c=2000.0)
    distribution = classify_extension(SubsetFamily.from_sets(2, [[1, 2]]), TRIANGLE, schedule)
    moved = SubsetFamily.from_sets(3, [[1, 2, 3]])
    assert list(distribution.values()) == [1.0, distribution[moved]]
    assert math.isclose(distribution[moved], math.exp(-schedule.rate(3, 2)), rel_tol=1e-13)
    assert 0.0 < distribution[moved] < 1e-100


def test_classify_extends_a_level_0_support():
    # the evidence on the old vertices is the empty graph on [0]; the one new
    # vertex has no neighbour, so the empty set stays, moves to {1}, or both
    schedule = GeometricSchedule(alpha=0.5, c=1.0)
    observed = Graph(1, frozenset())
    distribution = classify_extension(SubsetFamily(0, frozenset({0})), observed, schedule)
    weights = extension_weights(frozenset({0}), 0, observed.edges, schedule)
    total = math.fsum(weights.values())
    assert [family.members for family in distribution] == [frozenset({0}), frozenset({0, 1}), frozenset({1})]
    for family, prob in distribution.items():
        assert math.isclose(prob, weights[family.members] / total, rel_tol=1e-13)
    assert classify_extension(SubsetFamily(0, frozenset()), observed, schedule) == {SubsetFamily(1, frozenset()): 1.0}


def test_classify_member_cap_counts_every_member():
    schedule = GeometricSchedule(alpha=0.5)
    for count in (EXTENSION_MEMBERS_CAP, EXTENSION_MEMBERS_CAP + 1):
        support = SubsetFamily(4, frozenset(range(count)))  # the first masks of [4], the empty set among them
        observed = Graph(5, clique_graph(monotone_cover(support)).edges)
        if count > EXTENSION_MEMBERS_CAP:
            with pytest.raises(ResourceCapError, match="extension cap"):
                classify_extension(support, observed, schedule)
        else:
            # N(5) is empty: every member but the empty set must stay
            assert len(classify_extension(support, observed, schedule)) == 3


# ---------------------------------------------------------------------------
# Cross-level diagnostics
# ---------------------------------------------------------------------------

def test_marginal_restriction_consistent_schedules():
    assert marginal_restriction_check(GeometricSchedule(alpha=0.5, c=1.0), 2, 3) < 1e-12
    assert marginal_restriction_check(BetaUniformSchedule(c=1.0), 2, 4) < 1e-12


def test_marginal_restriction_flags_inconsistency():
    assert marginal_restriction_check(constant_table(3, 0.3), 2, 3) > 0.01


def fold_discrepancy(schedule, m, n):
    # the restriction marginal summed from the level-n law: edges inside [m]
    # occupy the low C(m, 2) bits of the edge mask
    folded = graph_law(n, schedule).reshape(-1, 2 ** math.comb(m, 2)).sum(0)
    return np.abs(folded - graph_law(m, schedule)).max()


def test_marginal_restriction_equals_level_n_fold():
    rng = random.Random(67)
    schedules = [random_schedule(rng) for _ in range(4)] + [constant_table(6, 0.3)]
    schedules += [TableSchedule({k: tuple(rng.uniform(0.0, 2.0) for _ in range(k + 1)) for k in range(7)})]
    for schedule in schedules:
        for n in range(2, 7):
            for m in range(1, n):
                check = marginal_restriction_check(schedule, m, n)
                assert abs(check - fold_discrepancy(schedule, m, n)) <= 1e-12, (schedule, m, n)


def test_marginal_restriction_builds_no_level_n_array():
    schedule = GeometricSchedule(alpha=0.5)
    level_bytes = (1 << 21) * 8
    tracemalloc.start()
    try:
        marginal_restriction_check(schedule, 6, 7)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 0.1 * level_bytes, f"peak {peak / level_bytes:.3f} x the level-7 law"


def test_marginal_restriction_keeps_level_n_cap_and_overflow():
    schedule = GeometricSchedule(alpha=0.5)
    with pytest.raises(ResourceCapError):
        marginal_restriction_check(schedule, 7, 8)
    with pytest.raises(ResourceCapError):
        marginal_restriction_check(schedule, 5, 6, cap=5)
    assert marginal_restriction_check(schedule, 2, 8, cap=8) < 1e-12
    overflowing = TableSchedule({2: (0.0, 0.0, 1.0), 3: (0.0, 0.0, 1e308, 1e308)})
    with pytest.raises(ValueError, match="level 3"):
        marginal_restriction_check(overflowing, 2, 3)


def test_marginal_restriction_argument_errors():
    with pytest.raises(ValueError):
        marginal_restriction_check(GeometricSchedule(alpha=0.5), 3, 3)
    with pytest.raises(ValueError):
        marginal_restriction_check(GeometricSchedule(alpha=0.5), 0, 2)


def test_exchangeability_discrepancy_is_rounding_level():
    rng = random.Random(61)
    for n in (2, 3, 4):
        assert exchangeability_discrepancy(random_schedule(rng), n) < 1e-12


# The exchangeability check must return the same float as the n!-relabeling
# oracle, not merely a close one: both are max |P(G) - P(H)| over the same
# pairs, and float subtraction is monotone.
EXACT_LAW_SCHEDULES = [
    GeometricSchedule(alpha=0.5, c=1.0),
    GeometricSchedule(alpha=0.5, c=1e-6),
    GeometricSchedule(alpha=0.9, c=20.0),
    BetaUniformSchedule(c=1.0),
]


@pytest.mark.parametrize("n", range(2, 7))
@pytest.mark.parametrize("schedule", EXACT_LAW_SCHEDULES, ids=repr)
def test_exchangeability_discrepancy_equals_oracle(schedule, n):
    assert exchangeability_discrepancy(schedule, n) == relabeling_discrepancy(graph_law(n, schedule), n)


def test_exchangeability_discrepancy_equals_oracle_random_schedules():
    rng = random.Random(67)
    for n in (2, 3, 4, 5, 5, 5, 6):
        schedule = random_schedule(rng)
        assert exchangeability_discrepancy(schedule, n) == relabeling_discrepancy(
            graph_law(n, schedule), n
        )


@pytest.mark.parametrize("n", range(1, 6))
def test_exchangeability_discrepancy_on_non_exchangeable_laws(n, monkeypatch):
    # Schedule-driven laws are exchangeable, so their spreads are rounding
    # noise.  Arbitrary arrays give large spreads, and a law that is +1 at G,
    # -1 at sigma G and 0 elsewhere reads 2 only if the orbit of G is complete.
    rng = np.random.default_rng(71 + n)
    size = 1 << (n * (n - 1) // 2)
    laws = [rng.random(size) for _ in range(4)]
    laws += [rng.integers(0, 3, size).astype(float) * 1e-300 for _ in range(2)]
    for _ in range(30):
        g = int(rng.integers(size))
        sigma = Permutation(tuple(int(v) + 1 for v in rng.permutation(n)))
        law = np.zeros(size)
        law[g] = 1.0
        law[graph_to_edge_mask(permute_graph(edge_mask_to_graph(n, g), sigma))] -= 1.0
        laws.append(law)
    for law in laws:
        monkeypatch.setattr(inference, "graph_law", lambda *args, law=law, **kw: law.copy())
        assert exchangeability_discrepancy(None, n) == relabeling_discrepancy(law, n)


def test_exchangeability_discrepancy_on_non_exchangeable_laws_at_21_axes(monkeypatch):
    # n = 7 views the law as a cube of 21 axes; a law that is +1 at G and -1
    # at sigma G reads 2 if sigma G != G, and 0 if sigma fixes G
    n = 7
    rng = np.random.default_rng(97)
    size = 1 << (n * (n - 1) // 2)
    for _ in range(6):
        g = int(rng.integers(size))
        sigma = Permutation(tuple(int(v) + 1 for v in rng.permutation(n)))
        image = graph_to_edge_mask(permute_graph(edge_mask_to_graph(n, g), sigma))
        law = np.zeros(size)
        law[g] = 1.0
        law[image] -= 1.0
        monkeypatch.setattr(inference, "graph_law", lambda *args, law=law, **kw: law)
        assert exchangeability_discrepancy(None, n) == (2.0 if image != g else 0.0)


@settings(max_examples=25, deadline=None)
@given(
    kind=st.sampled_from(["geometric", "beta_uniform"]),
    alpha=st.floats(0.01, 0.99),
    c=st.floats(1e-6, 50.0),
    n=st.integers(2, 5),
)
def test_exchangeability_discrepancy_matches_oracle_property(kind, alpha, c, n):
    schedule = GeometricSchedule(alpha=alpha, c=c) if kind == "geometric" else BetaUniformSchedule(c=c)
    got = exchangeability_discrepancy(schedule, n)
    assert got == relabeling_discrepancy(graph_law(n, schedule), n)
    assert got <= 1e-10


# ---------------------------------------------------------------------------
# Whole-level transform: bit for bit against the plain per-bit butterfly
# ---------------------------------------------------------------------------

def assert_same_bits(got, want):
    assert np.array_equal(got, want)
    assert got.tobytes() == want.tobytes()


def level_rates(schedule, n):
    return [schedule.rate(n, r) for r in range(n + 1)]


# n = 0 and n = 1 are one-cell levels: no top index bit, so no top pass
@pytest.mark.parametrize("n", range(0, 8))
@pytest.mark.parametrize("schedule", EXACT_LAW_SCHEDULES, ids=repr)
def test_graph_law_equals_butterfly_oracle(schedule, n):
    assert_same_bits(graph_law(n, schedule), butterfly_law(n, level_rates(schedule, n)))


def test_graph_law_equals_butterfly_oracle_random_schedules():
    rng = random.Random(83)
    for _ in range(6):
        schedule = random_schedule(rng)
        for n in range(1, 8):
            if isinstance(schedule, TableSchedule) and n not in schedule.rows:
                continue
            assert_same_bits(graph_law(n, schedule), butterfly_law(n, level_rates(schedule, n)))


@settings(max_examples=25, deadline=None)
@given(
    kind=st.sampled_from(["geometric", "beta_uniform"]),
    alpha=st.floats(0.01, 0.99),
    c=st.floats(1e-6, 50.0),
    n=st.integers(1, 5),
)
def test_graph_law_equals_butterfly_oracle_property(kind, alpha, c, n):
    schedule = GeometricSchedule(alpha=alpha, c=c) if kind == "geometric" else BetaUniformSchedule(c=c)
    assert_same_bits(graph_law(n, schedule), butterfly_law(n, level_rates(schedule, n)))


# the default tile covers a whole level at n <= 6, so smaller ones put tile
# boundaries there: one cell (one row per tile), one row of the level's own
# 2^(nbits // 2) cells, a third of the level (an uneven last tile), and two
# powers of two that split the high bits between passes inside each tile and
# passes over the whole array: two rows (one high bit inside) and a quarter of
# the level (all but the top two inside)
TILE_CELLS = {
    "one cell": lambda nbits: 1,
    "one row": lambda nbits: 1 << nbits // 2,
    "uneven": lambda nbits: (1 << nbits) // 3,
    "two rows": lambda nbits: 2 << nbits // 2,
    "quarter": lambda nbits: (1 << nbits) // 4,
}


@pytest.mark.parametrize(
    "n, tile",
    [pytest.param(n, None, id=str(n)) for n in (6, 7)]
    + [pytest.param(n, tile, id=f"{n}-tile {tile}") for n in (5, 6) for tile in TILE_CELLS],
)
@pytest.mark.parametrize("schedule", EXACT_LAW_SCHEDULES, ids=repr)
def test_kernel_subcubes_equal_butterfly_oracle(schedule, n, tile, monkeypatch):
    # the whole-level kernel under each tile size, run alone or split between
    # threads by the caller
    if tile is not None:
        monkeypatch.setattr(inference, "_TILE_CELLS", TILE_CELLS[tile](n * (n - 1) // 2))
    rates = level_rates(schedule, n)
    law = inference._law(n, rates)
    assert_same_bits(law, butterfly_law(n, rates))


def test_kernel_restores_ufunc_buffer_size(monkeypatch):
    schedule = GeometricSchedule(alpha=0.5)
    bufsize = np.getbufsize()
    np.setbufsize(4096)
    try:
        graph_law(7, schedule)
        assert np.getbufsize() == 4096
        with pytest.raises(ValueError, match="level 3"):
            graph_law(3, OVERFLOWING_TRIANGLE)
        assert np.getbufsize() == 4096

        def failing(*args, **kwargs):
            assert np.getbufsize() == inference._PASS_BUFSIZE
            raise ArithmeticError("raised inside the passes")

        monkeypatch.setattr(inference, "_passes", failing)
        with pytest.raises(ArithmeticError, match="inside the passes"):
            inference._law(3, level_rates(schedule, 3))
        assert np.getbufsize() == 4096
    finally:
        np.setbufsize(bufsize)


def test_whole_level_kernels_hold_one_level_array():
    # the n = 7 law is 2^21 float64 cells; row tiles add about 1 MiB to it,
    # and a second level-sized array would double the peak.  The
    # exchangeability check holds the law, its orbit minima and one
    # transposed copy; a fourth level-sized array would break its bound
    schedule = GeometricSchedule(alpha=0.5)
    level_bytes = (1 << 21) * 8
    calls = {
        "graph_law": (1.25, lambda: graph_law(7, schedule)),
        "graph_prob fallback": (1.25, lambda: graph_prob(complete_graph(7), schedule)),
        "marginal_restriction_check": (1.25, lambda: marginal_restriction_check(schedule, 6, 7)),
        "exchangeability_discrepancy": (3.25, lambda: exchangeability_discrepancy(schedule, 7)),
    }
    for name, (bound, call) in calls.items():
        tracemalloc.start()
        try:
            call()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= bound * level_bytes, f"{name}: peak {peak / level_bytes:.2f} x the level"


# detected CPU counts: one (the serial loop), two, three and 64, all of which
# share with one helper thread at most
CPUS = (1, 2, 3, 64)


def tiles_at(n, tile):
    nbits = n * (n - 1) // 2
    cells = inference._TILE_CELLS if tile is None else TILE_CELLS[tile](nbits)
    return (1 << nbits) // max(1 << nbits // 2, cells)


def helper_opens(nbits):
    with inference._helper(nbits) as pool:
        return pool is not None


def forced_helper(monkeypatch):
    # a helper for the n = 7 cube, whatever CPUs the process may run on
    monkeypatch.setattr(inference, "_cpus", lambda: 2)
    return inference._helper(21)


@pytest.mark.parametrize("cpus", CPUS)
@pytest.mark.parametrize(
    "n, tile",
    [pytest.param(n, None, id=str(n)) for n in (6, 7)]
    + [pytest.param(n, tile, id=f"{n}-tile {tile}") for n in (5, 6) for tile in TILE_CELLS],
)
@pytest.mark.parametrize("schedule", EXACT_LAW_SCHEDULES[:2], ids=repr)
def test_kernel_bits_do_not_depend_on_the_worker_count(schedule, n, tile, cpus, monkeypatch):
    monkeypatch.setattr(inference, "_cpus", lambda: cpus)
    shares = []
    helper = inference._helper

    def recorded(nbits):
        opened = helper(nbits)
        shares.append(not isinstance(opened, contextlib.nullcontext))
        return opened

    monkeypatch.setattr(inference, "_helper", recorded)
    test_kernel_subcubes_equal_butterfly_oracle(schedule, n, tile, monkeypatch)
    assert any(shares) == (cpus >= 2 and tiles_at(n, tile) >= 16)


def test_helper_follows_the_cpus_and_the_tiles(monkeypatch):
    for cpus in CPUS:
        monkeypatch.setattr(inference, "_cpus", lambda: cpus)
        assert [helper_opens(n * (n - 1) // 2) for n in range(1, 9)] == [False] * 6 + [cpus >= 2] * 2


def test_kernel_workers_share_the_passes_and_their_errors(monkeypatch):
    monkeypatch.setattr(inference, "_cpus", lambda: 2)
    caller = threading.get_ident()
    halves = inference._halves

    def halves_after_the_helper(pool, work, *arrays):
        # the caller's half waits until the helper has started the other
        # half, so that both threads run every shared job
        started = threading.Event()

        def work_after_the_helper(*parts):
            if threading.get_ident() != caller:
                started.set()
            elif pool is not None:
                assert started.wait(10), "the helper never started its half"
            work(*parts)

        return halves(pool, work_after_the_helper, *arrays)

    monkeypatch.setattr(inference, "_halves", halves_after_the_helper)
    schedule = GeometricSchedule(alpha=0.5)
    seen = []
    passes = inference._passes

    def recorded(*args, **kwargs):
        seen.append((threading.get_ident(), np.getbufsize(), np.geterr()))
        passes(*args, **kwargs)

    monkeypatch.setattr(inference, "_passes", recorded)
    threads = threading.active_count()
    bufsize = np.getbufsize()
    np.setbufsize(4096)
    try:
        with np.errstate(divide="raise", over="warn", under="ignore", invalid="raise"):
            err = np.geterr()
            graph_law(7, schedule)
            assert (np.getbufsize(), np.geterr(), threading.active_count()) == (4096, err, threads)
            assert len({ident for ident, _, _ in seen}) > 1
            assert {(size, str(state)) for _, size, state in seen} == {(inference._PASS_BUFSIZE, str(err))}

            def failing_on_the_caller(x, positions, op, *args):
                # the caller's half waits for the helper (above), so the
                # helper holds the other half when this raises
                if threading.get_ident() == caller and op is np.subtract:
                    raise ArithmeticError("raised by the caller's Moebius pass")
                passes(x, positions, op, *args)

            monkeypatch.setattr(inference, "_passes", failing_on_the_caller)
            with pytest.raises(ArithmeticError, match="caller's Moebius pass"):
                graph_law(7, schedule)
            assert (np.getbufsize(), np.geterr(), threading.active_count()) == (4096, err, threads)

            def failing_in_a_worker(*args, **kwargs):
                if threading.get_ident() != caller:
                    raise ArithmeticError("raised inside a worker")
                passes(*args, **kwargs)

            monkeypatch.setattr(inference, "_passes", failing_in_a_worker)
            with pytest.raises(ArithmeticError, match="worker"):
                graph_law(7, schedule)
            assert (np.getbufsize(), np.geterr(), threading.active_count()) == (4096, err, threads)
    finally:
        np.setbufsize(bufsize)


def test_halves_runs_each_half_once_under_frequent_switches(monkeypatch):
    # four helpers at once, eight threads on fewer CPUs, and a switch
    # interval that lets the interpreter change threads between any two
    # bytecodes: a half run twice or never shows in the counts and the part
    # sizes, and a lost hand-over between the threads as a call that never
    # returns
    monkeypatch.setattr(inference, "_cpus", lambda: 2)

    def jobs(failures):
        try:
            with inference._helper(21) as pool:
                for size in [2] * 50 + [2000, 10]:
                    hits, other = np.zeros(size, int), np.zeros(size, int)
                    sizes = []

                    def work(part, other_part):
                        sizes.append((part.size, other_part.size))
                        time.sleep(1e-5)  # the half ends after the other has moved on
                        for i in range(part.size):
                            part[i] += 1
                            other_part[i] += 1

                    inference._halves(pool, work, hits, other)
                    assert sizes == [(size // 2, size // 2)] * 2
                    if not (hits == 1).all() or not (other == 1).all():
                        failures.append((size, hits, other))
        except Exception as exc:  # reported by the main thread's assertion
            failures.append(exc)

    interval = sys.getswitchinterval()
    threads = threading.active_count()
    failures = []
    sys.setswitchinterval(1e-6)
    try:
        callers = [threading.Thread(target=jobs, args=(failures,)) for _ in range(3)]
        for caller in callers:
            caller.start()
        jobs(failures)
        for caller in callers:
            caller.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(caller.is_alive() for caller in callers)
    assert failures == []
    assert threading.active_count() == threads


def test_halves_caller_does_not_wait_for_a_helper_that_has_not_started(monkeypatch):
    # the pool thread is held by another task, so the caller ends its half
    # before that thread takes up the job: the caller drops the thread's
    # share, runs the other half itself and returns, every cell hit once
    caller = threading.get_ident()
    release = threading.Event()
    hits = np.zeros(10, int)
    ran_on = set()
    sizes = []

    def work(part):
        ran_on.add(threading.get_ident())
        sizes.append(part.size)
        part += 1

    with forced_helper(monkeypatch) as pool:
        try:
            blocker = pool.submit(release.wait, 10)
            inference._halves(pool, work, hits)
            held = not blocker.done()
        finally:
            release.set()
    assert held, "halves waited for the held pool thread"
    assert sizes == [5, 5]
    assert (hits == 1).all()
    assert ran_on == {caller}


def test_halves_raise_the_lower_error_once_both_halves_end(monkeypatch):
    caller = threading.get_ident()
    started = threading.Event()
    ended = []

    def both_raise(part):
        if threading.get_ident() != caller:
            started.set()
            raise ArithmeticError("upper half")
        assert started.wait(10), "the helper never started its half"
        raise ArithmeticError("lower half")

    def lower_raises(part):
        if threading.get_ident() != caller:
            started.set()
            time.sleep(0.05)  # still running when the caller's half raises
            ended.append(part[0])
            return
        assert started.wait(10), "the helper never started its half"
        raise ArithmeticError("lower half")

    threads = threading.active_count()
    bufsize = np.getbufsize()
    np.setbufsize(4096)
    try:
        with np.errstate(divide="raise", over="warn", under="ignore", invalid="raise"):
            err = np.geterr()
            for work, upper_ended in ((both_raise, []), (lower_raises, [2])):
                started.clear()
                ended.clear()
                with forced_helper(monkeypatch) as pool:
                    with pytest.raises(ArithmeticError, match="lower half"):
                        inference._halves(pool, work, np.arange(4))
                    assert ended == upper_ended  # before the executor's join
                assert (np.getbufsize(), np.geterr(), threading.active_count()) == (4096, err, threads)
    finally:
        np.setbufsize(bufsize)


def test_whole_level_kernels_hold_one_level_array_under_many_cpus(monkeypatch):
    # 64 CPUs still share with one helper, one 1 MiB tile buffer each
    monkeypatch.setattr(inference, "_cpus", lambda: 64)
    assert helper_opens(21)
    test_whole_level_kernels_hold_one_level_array()


def clique_rich_graphs(n, rng, count, most=math.inf, density=0.75):
    # graphs with 25 to ``most`` cliques, beyond the clique walk's cap
    pairs = list(itertools.combinations(range(1, n + 1), 2))
    found = []
    while len(found) < count:
        graph = Graph.from_edges(n, [p for p in pairs if rng.random() < density])
        if CLIQUE_SUBSET_CAP < len(clique_set(graph)) <= most:
            found.append(graph)
    return found


K6_PLUS_EDGE = Graph.from_edges(7, list(itertools.combinations(range(1, 7), 2)) + [(6, 7)])

# 60-digit references from an inclusion-exclusion over all 2^21 subgraphs of
# K7, grouped by clique-count vector: (K7, K6 plus the edge (6, 7))
SIXTY_DIGIT_CELLS = [
    (GeometricSchedule(alpha=0.5, c=1.0), "0.0085926923477287749", "3.8083161420753662e-5"),
    (GeometricSchedule(alpha=0.5, c=1e-6), "7.8124999694832327e-9", "6.1035126209267725e-17"),
    (GeometricSchedule(alpha=0.9, c=20.0), "0.99999879195561535", "1.6421523596866817e-12"),
    (BetaUniformSchedule(c=1.0), "0.11862663482337744", "6.5378036540789169e-5"),
]


@pytest.mark.parametrize(
    "schedule, k7, k6_plus_edge", SIXTY_DIGIT_CELLS, ids=[repr(s) for s, *_ in SIXTY_DIGIT_CELLS]
)
def test_clique_rich_cells_equal_60_digit_values(schedule, k7, k6_plus_edge):
    # the signed transform read -1.767e-13 on K6 plus (6, 7) under
    # geometric(0.5, 1e-6), and K7 4.4e-4 relative off
    for graph, exact in ((complete_graph(7), k7), (K6_PLUS_EDGE, k6_plus_edge)):
        assert len(clique_set(graph)) > CLIQUE_SUBSET_CAP
        prob = graph_prob(graph, schedule)
        assert prob >= 0.0
        assert relative_error(prob, decimal.Decimal(exact)) <= decimal.Decimal("1e-13")


@pytest.mark.parametrize("schedule", EXACT_LAW_SCHEDULES, ids=repr)
def test_clique_rich_cells_equal_clique_walk_under_a_raised_cap(schedule, monkeypatch):
    rng = random.Random(89)
    for n in (6, 7):
        for graph in clique_rich_graphs(n, rng, 4, 40):
            prob = graph_prob(graph, schedule)
            with monkeypatch.context() as patch:
                patch.setattr(inference, "CLIQUE_SUBSET_CAP", 40)
                walk = graph_prob(graph, schedule)
            assert prob >= 0.0
            assert math.isclose(prob, walk, rel_tol=1e-13)


@pytest.mark.parametrize("schedule", EXACT_LAW_SCHEDULES, ids=repr)
def test_dense_clique_rich_cells_near_kernel_law_cells(schedule):
    # graphs of edge density 0.8 with any number of cliques (K7 less an edge
    # has 88), where the split-off neighbourhood spans the most inner edges;
    # the signed kernel's cells are only near, so the benchmark's atol is used
    rng = random.Random(89)
    k7_less_edge = Graph.from_edges(7, list(itertools.combinations(range(1, 8), 2))[1:])
    for n, named in ((6, []), (7, [k7_less_edge])):
        law = graph_law(n, schedule)
        for graph in named + clique_rich_graphs(n, rng, 8, density=0.8):
            prob = graph_prob(graph, schedule)
            assert prob >= 0.0
            assert math.isclose(prob, law[graph_to_edge_mask(graph)], rel_tol=0.0, abs_tol=1e-10)


@settings(max_examples=40, deadline=None)
@given(
    kind=st.sampled_from(["geometric", "beta_uniform"]),
    alpha=st.floats(0.01, 0.99),
    c=st.floats(1e-6, 50.0),
    n=st.integers(2, 7),
    code=st.integers(0, (1 << 21) - 1),
)
def test_cell_equals_clique_walk_property(kind, alpha, c, n, code):
    # the vertex split called directly, on graphs the clique walk prices
    schedule = GeometricSchedule(alpha=alpha, c=c) if kind == "geometric" else BetaUniformSchedule(c=c)
    edges = code & (1 << n * (n - 1) // 2) - 1
    graph = edge_mask_to_graph(n, edges)
    assume(len(clique_set(graph)) <= CLIQUE_SUBSET_CAP)
    cell = inference._cell(n, level_rates(schedule, n), edges)
    assert cell >= 0.0
    assert math.isclose(cell, graph_prob(graph, schedule), rel_tol=1e-13)


def test_clique_rich_cell_under_a_rate_past_the_exp_range():
    # expm1(800) overflows, so the pairs take the normalized update; every
    # pair is present, and the level total 15 * 800 is finite
    assert graph_prob(complete_graph(6), TableSchedule({6: (0.0, 0.0, 800.0, 0.0, 0.0, 0.0, 0.0)})) == 1.0


@pytest.mark.parametrize("schedule", EXACT_LAW_SCHEDULES, ids=repr)
def test_graph_prob_clique_walk_relative_to_decimal_walk(schedule):
    # every graph on n <= 5: K5, with 26 cliques, takes the vertex split over
    # level-4 laws, and every other one the clique walk
    for n in range(1, 6):
        for graph in all_graphs(n):
            exact = decimal_graph_prob(graph.edges, n, schedule)
            assert relative_error(graph_prob(graph, schedule), exact) <= decimal.Decimal("1e-13")


def test_graph_prob_fallback_keeps_level_cap():
    schedule = GeometricSchedule(alpha=0.5)
    with pytest.raises(ResourceCapError):
        graph_prob(complete_graph(8), schedule)
    with pytest.raises(ResourceCapError):
        graph_prob(complete_graph(7), schedule, cap=6)
    # the clique walk is not bound by the level cap
    assert graph_prob(Graph.from_edges(8, [(1, 2)]), schedule) > 0.0


def test_graph_prob_applies_the_power_set_cap_before_the_level_total():
    # C(2000, r) * rate would not even convert to a float
    with pytest.raises(ResourceCapError, match="pair-mask table"):
        graph_prob(Graph.from_edges(2000, []), GeometricSchedule(alpha=0.5))


def test_complete_graph_under_large_rates_reads_one():
    # every subset is a clique, so nothing is absent: the exponent is 0
    schedule = TableSchedule({4: (0.0, 0.0, 268.197, 1571.564, 208.737)})
    assert graph_prob(complete_graph(4), schedule) == 1.0


@pytest.mark.parametrize("bound", [1.0, 10.0, 60.0, 3000.0])
def test_clique_walk_keeps_relative_accuracy_under_large_rates(bound):
    # table rows drawn from [0, bound] on graphs with at most 24 cliques (all
    # but K5): no probability passes 1, and every one the float range holds
    # stays within 1e-13 relative of the 50-digit walk
    rng = random.Random(23)
    for n in (3, 4, 5):
        pairs = list(itertools.combinations(range(1, n + 1), 2))
        for _ in range(40):
            schedule = TableSchedule({n: tuple(rng.uniform(0.0, bound) for _ in range(n + 1))})
            density = rng.random()
            graph = Graph.from_edges(n, [p for p in pairs if rng.random() < density])
            if len(clique_set(graph)) > CLIQUE_SUBSET_CAP:
                continue
            prob = graph_prob(graph, schedule)
            assert prob <= 1.0
            exact = decimal_graph_prob(graph.edges, n, schedule)
            if exact >= decimal.Decimal("1e-300"):
                assert relative_error(prob, exact) <= decimal.Decimal("1e-13")


# rows whose level total C(n, r) * rate overflows, though every rate is finite
OVERFLOWING_TRIANGLE = TableSchedule({3: (0.0, 0.0, 1e308, 1e308)})
OVERFLOWING_PAIRS_6 = TableSchedule({6: (0.0, 0.0, 1e308, 0.0, 0.0, 0.0, 0.0)})


def test_graph_law_rejects_overflowing_level_total():
    with pytest.raises(ValueError, match="level 3"):
        graph_law(3, OVERFLOWING_TRIANGLE)


def test_graph_prob_rejects_overflowing_level_total():
    with pytest.raises(ValueError, match="level 3"):
        graph_prob(TRIANGLE, OVERFLOWING_TRIANGLE)  # clique walk
    assert len(clique_set(complete_graph(6))) > CLIQUE_SUBSET_CAP
    with pytest.raises(ValueError, match="level 6"):
        graph_prob(complete_graph(6), OVERFLOWING_PAIRS_6)  # whole-level fallback


def test_large_finite_level_total_keeps_its_bits():
    schedule = TableSchedule({3: (0.0, 0.0, 1e307, 1e307)})
    law = graph_law(3, schedule)
    assert_same_bits(law, butterfly_law(3, level_rates(schedule, 3)))
    assert not np.isnan(law).any()
    assert graph_prob(TRIANGLE, schedule) == 1.0
