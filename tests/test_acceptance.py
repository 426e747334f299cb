"""End-to-end acceptance checks, one per shipped guarantee.

Each test prints exactly one PASS/FAIL line (visible under ``pytest -s`` or in
the captured-output section) and then asserts, so a red test always names the
guarantee it broke.  Reference values come from brute-force enumeration over
raw subset families — see oracles.py — never from the code paths under test.
"""

import itertools
import math
import random
import time

from oracles import covered_pairs, event_prob, random_schedule

from poissonclique import (
    BetaUniformSchedule,
    GeometricSchedule,
    Graph,
    MomentAtomsSchedule,
    Permutation,
    SubsetFamily,
    TableSchedule,
    check_consistency,
    classify_extension,
    clique_graph,
    clique_set,
    cluster_prob,
    coarse_cluster_prob,
    constant_table,
    derive_lower,
    enumerate_monotone_covers,
    exchangeability_discrepancy,
    leq_family,
    leq_generating_class,
    leq_graph,
    marginal_restriction_check,
    monotone_cover,
    permute_family,
    permute_generating_class,
    permute_graph,
    preimage_sup,
    restrict_family,
    restrict_generating_class,
    restrict_graph,
    transitivity_conditional,
)
from poissonclique.cli import mc_vs_exact
from poissonclique.lattice import edge_mask_to_graph

LN2 = math.log(2.0)
LN2_TABLE_2 = TableSchedule({2: (LN2, LN2, LN2)})
LN2_TABLE_3 = TableSchedule({3: (LN2, LN2, LN2, LN2)})


def _report(criterion: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {criterion}: {detail}"


def _cover_sets(graph: Graph) -> set[frozenset[frozenset[int]]]:
    enumeration = enumerate_monotone_covers(graph)
    return {frozenset(frozenset(s) for s in c.member_sets()) for c in enumeration.covers}


def _as_cover(*subsets) -> frozenset[frozenset[int]]:
    return frozenset(frozenset(s) for s in subsets)


def test_criterion_1_cover_enumeration():
    # Two graphs on [4] with the 1-2 edge unknown: enumerate the covers of both
    # completions of each and compare set-for-set against the known lists.
    start = time.perf_counter()
    hub = [(1, 3), (2, 3), (3, 4)]
    expected_hub_with = {
        _as_cover({1, 2}, {1, 3}, {2, 3}, {3, 4}),
        _as_cover({1, 2, 3}, {3, 4}),
    }
    expected_hub_without = {_as_cover({1, 3}, {2, 3}, {3, 4})}
    bipartite = [(1, 3), (1, 4), (2, 3), (2, 4)]
    expected_bip_with = {
        _as_cover({1, 2, 3}, {1, 2, 4}),
        _as_cover({1, 2, 4}, {1, 3}, {2, 3}),
        _as_cover({1, 2, 3}, {1, 4}, {2, 4}),
        _as_cover({1, 2}, {1, 3}, {1, 4}, {2, 3}, {2, 4}),
    }
    expected_bip_without = {_as_cover({1, 3}, {1, 4}, {2, 3}, {2, 4})}

    got = [
        _cover_sets(Graph.from_edges(4, edges + extra))
        for edges, extra in [
            (hub, [(1, 2)]),
            (hub, []),
            (bipartite, [(1, 2)]),
            (bipartite, []),
        ]
    ]
    elapsed = time.perf_counter() - start
    ok = (
        got[0] == expected_hub_with
        and got[1] == expected_hub_without
        and got[2] == expected_bip_with
        and got[3] == expected_bip_without
        and elapsed < 1.0
    )
    counts = [len(g) for g in got]
    _report(1, ok, f"cover lists match set-for-set, totals {counts[0] + counts[1]} and "
                   f"{counts[2] + counts[3]} across completions ({elapsed:.2f}s < 1s)")


def test_criterion_2_transitivity_closed_form():
    # Closed form for P(2~3 | 1~2, 1~3) vs exhaustive enumeration over all 256
    # subset families on [3], for 20 random schedules.
    start = time.perf_counter()
    rng = random.Random(20260814)
    worst = 0.0
    for _ in range(20):
        schedule = random_schedule(rng)
        closed = transitivity_conditional(schedule)
        joint = event_prob(
            3, schedule, lambda mem: {(1, 2), (1, 3), (2, 3)} <= covered_pairs(mem, 3)
        )
        condition = event_prob(
            3, schedule, lambda mem: {(1, 2), (1, 3)} <= covered_pairs(mem, 3)
        )
        worst = max(worst, abs(closed - joint / condition))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-12 and elapsed < 1.0
    _report(2, ok, f"closed form vs 256-family brute force, 20 schedules, "
                   f"max gap {worst:.2e} <= 1e-12 ({elapsed:.2f}s < 1s)")


def test_criterion_3_projective_consistency_and_relabeling():
    # Consistent schedules: restriction marginals agree across all m < n <= 6
    # and the graph law is invariant under every relabeling for n <= 5.
    start = time.perf_counter()
    schedules = [
        GeometricSchedule(alpha=0.2),
        GeometricSchedule(alpha=0.5),
        GeometricSchedule(alpha=0.8),
        BetaUniformSchedule(),
    ]
    worst_marginal = 0.0
    worst_relabel = 0.0
    for schedule in schedules:
        for n in range(2, 7):
            for m in range(1, n):
                worst_marginal = max(worst_marginal, marginal_restriction_check(schedule, m, n))
        for n in range(2, 6):
            worst_relabel = max(worst_relabel, exchangeability_discrepancy(schedule, n))
    elapsed = time.perf_counter() - start
    ok = worst_marginal < 1e-10 and worst_relabel <= 1e-10 and elapsed < 60.0
    _report(3, ok, f"marginals m<n<=6 max {worst_marginal:.2e} < 1e-10, relabeling n<=5 "
                   f"max {worst_relabel:.2e} <= 1e-10 ({elapsed:.1f}s < 60s)")


def test_criterion_4_inconsistent_schedule_detected():
    # Negative control: a constant rate table violates the cross-level
    # recurrence, and both detectors must say so.
    table = constant_table(3, 0.3)
    marginal_gap = marginal_restriction_check(table, 2, 3)
    report = check_consistency(table, 3)
    ok = marginal_gap > 0.01 and len(report.witnesses) > 0
    _report(4, ok, f"constant-0.3 table: marginal gap {marginal_gap:.3f} > 0.01, "
                   f"{len(report.witnesses)} recurrence witnesses reported")


def test_criterion_5_recurrence_algebra():
    # Cross-level recurrence: exact zero for the dyadic geometric schedule,
    # <= 1e-12 for the integral-backed kinds, and derive_lower rebuilds the
    # geometric closed form from its level-6 row alone.
    geometric = check_consistency(GeometricSchedule(alpha=0.5, c=1.0), 12)
    beta = check_consistency(BetaUniformSchedule(), 12)
    atoms = check_consistency(MomentAtomsSchedule(((0.3, 1.0), (0.7, 0.5))), 12)

    derived = derive_lower([0.5**6] * 7)
    derive_gap = max(
        abs(derived.rate(n, r) - 0.5**n) for n in range(7) for r in range(n + 1)
    )
    ok = (
        geometric.max_violation == 0.0
        and beta.max_violation <= 1e-12
        and atoms.max_violation <= 1e-12
        and derive_gap <= 1e-14
    )
    _report(5, ok, f"recurrence to n_max=12: geometric {geometric.max_violation:.1e} == 0, "
                   f"beta {beta.max_violation:.1e}, atoms {atoms.max_violation:.1e} <= 1e-12; "
                   f"derive-from-level-6 gap {derive_gap:.1e} <= 1e-14")


def test_criterion_6_cluster_probabilities():
    # Conditional point-presence given a triangle, against brute-force family
    # enumeration, plus the coarse >= fine dominance on every small graph.
    triangle = Graph.from_edges(3, [(1, 2), (1, 3), (2, 3)])
    triangle_pairs = frozenset({(1, 2), (1, 3), (2, 3)})
    denominator = event_prob(3, LN2_TABLE_3, lambda mem: covered_pairs(mem, 3) == triangle_pairs)
    gaps = []
    for subset, expected in [(0b111, 8 / 9), (0b011, 5 / 9)]:
        got = cluster_prob(subset, triangle, LN2_TABLE_3)
        brute = event_prob(
            3,
            LN2_TABLE_3,
            lambda mem: covered_pairs(mem, 3) == triangle_pairs and subset in mem,
        ) / denominator
        gaps.append(abs(got - expected))
        gaps.append(abs(got - brute))

    rng = random.Random(6)
    dominance_ok = True
    for _ in range(5):
        schedule = random_schedule(rng)
        for n in (2, 3, 4):
            for edge_mask in range(1 << (n * (n - 1) // 2)):
                graph = edge_mask_to_graph(n, edge_mask)
                for subset in clique_set(graph):
                    fine = cluster_prob(subset, graph, schedule)
                    coarse = coarse_cluster_prob(subset, graph, schedule)
                    if coarse < fine - 1e-12:
                        dominance_ok = False
    ok = max(gaps) <= 1e-12 and dominance_ok
    _report(6, ok, f"triangle ratios 8/9 and 5/9 vs brute force, max gap {max(gaps):.2e} "
                   f"<= 1e-12; coarse >= fine on all graphs n<=4 x 5 schedules: {dominance_ok}")


def test_criterion_7_classification():
    # Growing [1] -> [2] with one known point {1} and a new edge: the two
    # viable supports split the mass evenly; and the returned distribution is
    # always a probability distribution.
    distribution = classify_extension(
        SubsetFamily.from_sets(1, [{1}]), Graph.from_edges(2, [(1, 2)]), LN2_TABLE_2
    )
    expected = {
        SubsetFamily.from_sets(2, [{1, 2}]),
        SubsetFamily.from_sets(2, [{1}, {1, 2}]),
    }
    example_ok = set(distribution) == expected and all(
        math.isclose(p, 0.5, abs_tol=1e-12) for p in distribution.values()
    )

    rng = random.Random(7)
    worst_total = 0.0
    for _ in range(50):
        n = rng.randrange(1, 4)
        code = rng.randrange(1 << (1 << n))
        base = SubsetFamily(n, frozenset(a for a in range(1 << n) if code >> a & 1))
        new_bit = 1 << n
        members = set()
        for e in sorted(base.members):
            pick = rng.randrange(3)
            if pick != 1:
                members.add(e)
            if pick != 0:
                members.add(e | new_bit)
        observed = clique_graph(monotone_cover(SubsetFamily(n + 1, frozenset(members))))
        schedule = random_schedule(rng)
        total = sum(classify_extension(base, observed, schedule).values())
        worst_total = max(worst_total, abs(total - 1.0))
    ok = example_ok and worst_total <= 1e-12
    _report(7, ok, f"worked example splits 1/2 each: {example_ok}; 50 random posteriors "
                   f"normalize, max |sum-1| {worst_total:.2e} <= 1e-12")


def test_criterion_8_sampler_matches_exact_law():
    # 10^5 pipeline draws at n=3: every graph cell within 4 standard errors of
    # the exact law, and a deliberately mismatched law is flagged.
    start = time.perf_counter()
    schedule = GeometricSchedule(alpha=0.5, c=1.0)
    matched = mc_vs_exact(schedule, 3, 100_000, seed=20260814)
    control = mc_vs_exact(
        schedule, 3, 100_000, seed=20260814, exact_schedule=GeometricSchedule(alpha=0.3, c=1.0)
    )
    elapsed = time.perf_counter() - start
    ok = matched["flagged_cells"] == 0 and control["flagged_cells"] > 0 and elapsed < 30.0
    _report(8, ok, f"10^5 draws: 0 of 64 cells beyond 4 SE (max dev {matched['max_deviation']:.1e}); "
                   f"mismatched control flags {control['flagged_cells']} cells ({elapsed:.1f}s < 30s)")


def _check_invariants(family: SubsetFamily, m: int, sigma: Permutation) -> None:
    cover = monotone_cover(family)
    graph = clique_graph(cover)
    assert restrict_generating_class(cover, m) == monotone_cover(restrict_family(family, m))
    assert restrict_graph(graph, m) == clique_graph(restrict_generating_class(cover, m))
    assert permute_generating_class(cover, sigma) == monotone_cover(permute_family(family, sigma))
    assert permute_graph(graph, sigma) == clique_graph(permute_generating_class(cover, sigma))


def test_criterion_9_projection_functor_invariants():
    # The two projection maps commute with restriction, relabeling, and the
    # partial orders: exhaustively for n <= 3, then on 10^4 random cases n <= 6.
    start = time.perf_counter()
    for n in (1, 2, 3):
        identity = Permutation(tuple(range(1, n + 1)))
        families = [
            SubsetFamily(n, frozenset(a for a in range(1 << n) if code >> a & 1))
            for code in range(1 << (1 << n))
        ]
        for family in families:
            for sigma in itertools.permutations(range(1, n + 1)):
                _check_invariants(family, max(1, n - 1), Permutation(sigma))
            if n > 1:
                for m in range(1, n):
                    _check_invariants(family, m, identity)
        # order preservation of both projections
        covers = [monotone_cover(f) for f in families]
        graphs = [clique_graph(c) for c in covers]
        for i, left in enumerate(families):
            for j, right in enumerate(families):
                if leq_family(left, right):
                    assert leq_generating_class(covers[i], covers[j])
                if leq_generating_class(covers[i], covers[j]):
                    assert leq_graph(graphs[i], graphs[j])
        # the restriction preimage has a unique largest element
        for m in range(1, n):
            tops = {}
            for family in families:
                base = restrict_family(family, m)
                top = tops.get(base)
                if top is None:
                    top = tops[base] = preimage_sup(base, n)
                assert leq_family(family, top)
            for base, top in tops.items():
                assert restrict_family(top, m) == base

    rng = random.Random(9)
    for _ in range(10_000):
        n = rng.randrange(2, 7)
        members = frozenset(rng.randrange(1 << n) for _ in range(rng.randrange(7)))
        family = SubsetFamily(n, members)
        m = rng.randrange(1, n)
        sigma = Permutation(tuple(rng.sample(range(1, n + 1), n)))
        _check_invariants(family, m, sigma)
        # restriction composes
        level = rng.randrange(m, n)
        assert restrict_family(restrict_family(family, level), m) == restrict_family(family, m)
        # anything restricting to E sits below preimage_sup(E)
        assert leq_family(family, preimage_sup(restrict_family(family, m), n))
        # adding members moves every projection up
        larger = SubsetFamily(n, members | frozenset(rng.randrange(1 << n) for _ in range(3)))
        assert leq_family(family, larger)
        assert leq_generating_class(monotone_cover(family), monotone_cover(larger))
        assert leq_graph(clique_graph(monotone_cover(family)), clique_graph(monotone_cover(larger)))
    elapsed = time.perf_counter() - start
    _report(9, True, f"functoriality/equivariance/order/preimage invariants: exhaustive n<=3 "
                     f"plus 10^4 random cases n<=6 ({elapsed:.1f}s)")
