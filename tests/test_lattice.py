import itertools
import random

import pytest

from poissonclique.lattice import (
    GeneratingClass,
    Graph,
    Permutation,
    ResourceCapError,
    SubsetFamily,
    all_antichains,
    all_families,
    all_masks,
    clique_graph,
    edge_bit_pairs,
    edge_index,
    edge_mask_to_graph,
    elements_of,
    graph_to_edge_mask,
    leq_family,
    leq_generating_class,
    leq_graph,
    mask_of,
    monotone_cover,
    pair_masks,
    permute_family,
    permute_generating_class,
    permute_graph,
    preimage_sup,
    restrict_family,
    restrict_generating_class,
    restrict_graph,
)

from oracles import maximal_members, pairs_inside


def fam(n, *sets):
    return SubsetFamily.from_sets(n, sets)


def gc(n, *sets):
    return GeneratingClass.from_sets(n, sets)


# ---------------------------------------------------------------------------
# Masks
# ---------------------------------------------------------------------------

def test_mask_roundtrip():
    for n in range(5):
        for a in all_masks(n):
            assert mask_of(elements_of(a), n) == a


def test_mask_of_rejects_out_of_range():
    with pytest.raises(ValueError):
        mask_of([3], 2)
    with pytest.raises(ValueError):
        mask_of([0], 2)


def test_all_masks_cap():
    with pytest.raises(ResourceCapError):
        all_masks(17)
    with pytest.raises(ValueError, match="level must be >= 0, got -1"):
        all_masks(-1)


# ---------------------------------------------------------------------------
# Restriction and permutation of families
# ---------------------------------------------------------------------------

def test_restrict_family_componentwise():
    assert restrict_family(fam(3, [1, 3], [2]), 2) == fam(2, [1], [2])


def test_restrict_family_keeps_empty_member():
    assert restrict_family(fam(3, [1, 2], [3]), 2) == fam(2, [1, 2], [])


def test_restrict_family_merges_duplicates():
    assert restrict_family(fam(2, [1], [1, 2]), 1) == fam(1, [1])


def test_restrict_family_range_error():
    with pytest.raises(ValueError):
        restrict_family(fam(2, [1]), 3)
    with pytest.raises(ValueError):
        restrict_family(fam(2, [1]), 0)


def test_permute_family_swap():
    swap = Permutation((2, 1))
    assert permute_family(fam(2, [1], [1, 2]), swap) == fam(2, [2], [1, 2])


def test_permute_family_identity():
    family = fam(3, [1, 3], [2])
    assert permute_family(family, Permutation.identity(3)) == family


def test_permute_family_cycle():
    cycle = Permutation((2, 3, 1))
    assert permute_family(fam(3, [1, 3]), cycle) == fam(3, [1, 2])


def test_permutation_validation():
    with pytest.raises(ValueError):
        Permutation((1, 1))
    with pytest.raises(ValueError):
        permute_family(fam(2, [1]), Permutation.identity(3))


# ---------------------------------------------------------------------------
# Monotone covers and generating classes
# ---------------------------------------------------------------------------

def test_monotone_cover_absorbs_subset():
    assert monotone_cover(fam(2, [1], [1, 2])) == gc(2, [1, 2])


def test_monotone_cover_keeps_incomparable():
    assert monotone_cover(fam(3, [1, 2], [3])) == gc(3, [1, 2], [3])


def test_monotone_cover_of_empty_set_member():
    assert monotone_cover(fam(1, [])) == gc(1, [])


def test_monotone_cover_of_empty_family():
    assert monotone_cover(SubsetFamily(3, frozenset())) == GeneratingClass(3, frozenset())


def test_generating_class_rejects_comparable_pair():
    with pytest.raises(ValueError):
        gc(2, [1], [1, 2])


def test_generating_class_is_a_family_of_its_maximal_members():
    cover = gc(3, [1, 2], [3])
    family = fam(3, [1, 2], [3])
    assert isinstance(cover, SubsetFamily)
    assert cover.members == family.members
    assert cover.maximal == cover.members
    assert cover.member_sets() == family.member_sets() == ((1, 2), (3,))
    assert 0b011 in cover and len(cover) == 2
    # equality compares classes, so the two stay distinct keys
    assert cover != family and family != cover
    assert len({cover: 0, family: 1}) == 2


def test_family_order_and_monotone_order_differ_on_a_class():
    small, large = gc(3, [1, 2]), gc(3, [1, 2, 3])
    assert not leq_family(small, large)
    assert leq_generating_class(small, large)


def test_generating_class_rejects_out_of_range_member():
    with pytest.raises(ValueError, match="exceeds ground set"):
        GeneratingClass(2, frozenset({0b100}))
    with pytest.raises(ValueError):
        GeneratingClass(-1, frozenset())
    with pytest.raises(ValueError):
        gc(2, [3])


def test_restrict_generating_class_absorbs():
    assert restrict_generating_class(gc(3, [1, 2], [3]), 2) == gc(2, [1, 2])


def test_restrict_generating_class_re_extracts():
    assert restrict_generating_class(gc(3, [1, 3], [2, 3]), 2) == gc(2, [1], [2])


def test_restrict_generating_class_identity():
    assert restrict_generating_class(gc(3, [1, 2, 3]), 3) == gc(3, [1, 2, 3])


# ---------------------------------------------------------------------------
# Graphs
# ---------------------------------------------------------------------------

def test_clique_graph_single_edge():
    assert clique_graph(gc(3, [1, 2], [3])) == Graph.from_edges(3, [(1, 2)])


def test_clique_graph_triangle():
    assert clique_graph(gc(3, [1, 2, 3])) == Graph.from_edges(3, [(1, 2), (1, 3), (2, 3)])


def test_clique_graph_empty():
    assert clique_graph(GeneratingClass(4, frozenset())) == Graph(4, frozenset())


def test_restrict_graph():
    triangle = Graph.from_edges(3, [(1, 2), (1, 3), (2, 3)])
    assert restrict_graph(triangle, 2) == Graph.from_edges(2, [(1, 2)])
    assert restrict_graph(Graph.from_edges(3, [(2, 3)]), 2) == Graph(2, frozenset())
    assert restrict_graph(triangle, 3) == triangle


def test_graph_validation():
    with pytest.raises(ValueError):
        Graph.from_edges(3, [(1, 1)])
    with pytest.raises(ValueError):
        Graph(2, frozenset({(1, 3)}))
    with pytest.raises(ValueError):
        Graph(3, frozenset({(2, 1)}))


# ---------------------------------------------------------------------------
# preimage_sup
# ---------------------------------------------------------------------------

def test_preimage_sup_examples():
    assert preimage_sup(fam(1, [1]), 2) == fam(2, [1], [1, 2])
    assert preimage_sup(fam(1, []), 2) == fam(2, [], [2])
    assert preimage_sup(SubsetFamily(1, frozenset()), 3) == SubsetFamily(3, frozenset())


def test_preimage_sup_range_error():
    with pytest.raises(ValueError):
        preimage_sup(fam(2, [1]), 2)


def test_preimage_sup_is_maximum_of_restriction_preimage():
    # exhaustive: every family on [n] restricting to E sits below preimage_sup(E, n)
    for m, n in [(1, 2), (1, 3), (2, 3)]:
        for family in all_families(m):
            sup = preimage_sup(family, n)
            assert restrict_family(sup, m) == family
            for candidate in all_families(n):
                if restrict_family(candidate, m) == family:
                    assert leq_family(candidate, sup)


# ---------------------------------------------------------------------------
# Partial orders
# ---------------------------------------------------------------------------

def test_leq_family_examples():
    assert leq_family(fam(2, [1]), fam(2, [1], [1, 2]))
    assert not leq_family(fam(2, [1]), fam(2, [1, 2]))
    assert not leq_family(fam(2, [1, 2]), fam(2, [1]))


def test_leq_generating_class_examples():
    assert leq_generating_class(gc(2, [1]), gc(2, [1, 2]))
    assert not leq_generating_class(gc(2, [1, 2]), gc(2, [1]))
    assert leq_generating_class(gc(3, [1, 2], [3]), gc(3, [1, 2, 3]))


def test_leq_graph():
    edge = Graph.from_edges(3, [(1, 2)])
    triangle = Graph.from_edges(3, [(1, 2), (1, 3), (2, 3)])
    assert leq_graph(edge, triangle)
    assert not leq_graph(triangle, edge)


def test_leq_size_mismatch():
    with pytest.raises(ValueError):
        leq_family(fam(2, [1]), fam(3, [1]))
    with pytest.raises(ValueError):
        leq_graph(Graph(2, frozenset()), Graph(3, frozenset()))


# ---------------------------------------------------------------------------
# Functor and equivariance properties
# ---------------------------------------------------------------------------

def test_alpha_functoriality_exhaustive():
    # cover-then-restrict equals restrict-then-cover, all families up to n=4
    for n in range(1, 5):
        for family in all_families(n):
            cover = monotone_cover(family)
            for m in range(1, n):
                assert monotone_cover(restrict_family(family, m)) == restrict_generating_class(
                    cover, m
                )


def test_beta_functoriality_exhaustive():
    # one antichain per monotone set; 20 on [3], 168 on [4]
    counts = {}
    for n in (3, 4):
        antichains = list(all_antichains(n))
        counts[n] = len(antichains)
        for cover in antichains:
            graph = clique_graph(cover)
            for m in range(1, n):
                assert clique_graph(restrict_generating_class(cover, m)) == restrict_graph(
                    graph, m
                )
    assert counts == {3: 20, 4: 168}


def test_permutation_equivariance_exhaustive():
    n = 3
    for family in all_families(n):
        cover = monotone_cover(family)
        graph = clique_graph(cover)
        for images in itertools.permutations(range(1, n + 1)):
            sigma = Permutation(images)
            assert monotone_cover(permute_family(family, sigma)) == permute_generating_class(
                cover, sigma
            )
            assert clique_graph(permute_generating_class(cover, sigma)) == permute_graph(
                graph, sigma
            )


def test_order_preservation_exhaustive():
    n = 3
    families = list(all_families(n))
    for e1 in families:
        for e2 in families:
            if leq_family(e1, e2):
                for m in range(1, n):
                    assert leq_family(restrict_family(e1, m), restrict_family(e2, m))
                assert leq_generating_class(monotone_cover(e1), monotone_cover(e2))
                assert leq_graph(
                    clique_graph(monotone_cover(e1)), clique_graph(monotone_cover(e2))
                )


def test_cover_matches_bruteforce_maximal():
    for n in range(1, 4):
        for family in all_families(n):
            assert monotone_cover(family).maximal == maximal_members(family.members)


def test_restriction_composition():
    rng = random.Random(20240814)
    for _ in range(200):
        n = rng.randrange(3, 7)
        members = frozenset(rng.randrange(1 << n) for _ in range(rng.randrange(6)))
        family = SubsetFamily(n, members)
        m = rng.randrange(2, n + 1)
        l = rng.randrange(1, m + 1)
        assert restrict_family(restrict_family(family, m), l) == restrict_family(family, l)
        cover = monotone_cover(family)
        assert restrict_generating_class(
            restrict_generating_class(cover, m), l
        ) == restrict_generating_class(cover, l)
        graph = clique_graph(cover)
        assert restrict_graph(restrict_graph(graph, m), l) == restrict_graph(graph, l)


def test_cover_idempotent_on_antichains():
    for cover in all_antichains(3):
        as_family = SubsetFamily(3, cover.maximal)
        assert monotone_cover(as_family) == cover


# ---------------------------------------------------------------------------
# Edge-bit encoding
# ---------------------------------------------------------------------------

def test_edge_bits_are_prefix_stable():
    # edges inside [m] must occupy the low C(m,2) bits regardless of n
    for m in range(2, 7):
        limit = m * (m - 1) // 2
        for b, (i, j) in enumerate(edge_bit_pairs(7)):
            assert (j <= m) == (b < limit)
            assert edge_index(i, j) == b


def test_graph_edge_mask_roundtrip():
    rng = random.Random(7)
    for _ in range(100):
        n = rng.randrange(2, 8)
        pairs = [(i, j) for j in range(2, n + 1) for i in range(1, j) if rng.random() < 0.4]
        graph = Graph.from_edges(n, pairs)
        assert edge_mask_to_graph(n, graph_to_edge_mask(graph)) == graph


def test_edge_mask_to_graph_rejects_masks_outside_level():
    assert edge_mask_to_graph(3, 0b111) == Graph.from_edges(3, [(1, 2), (1, 3), (2, 3)])
    assert edge_mask_to_graph(0, 0) == Graph(0, frozenset())
    for n, mask in ((3, 1 << 3), (3, 1 << 5), (3, -1), (1, 1), (0, 1)):
        with pytest.raises(ValueError):
            edge_mask_to_graph(n, mask)


def test_pair_masks_match_clique_graph():
    pmt = pair_masks(4)
    for a in all_masks(4):
        if a.bit_count() >= 2:
            cover = GeneratingClass(4, frozenset({a}))
            assert pmt[a] == graph_to_edge_mask(clique_graph(cover))
        else:
            assert pmt[a] == 0


def test_pair_masks_equal_the_combinations_oracle():
    for n in range(13):
        assert pair_masks(n) == tuple(pairs_inside(a, n) for a in range(1 << n))


def test_graph_restriction_and_relabeling_argument_errors():
    k3 = Graph.from_edges(3, [(1, 2), (1, 3), (2, 3)])
    with pytest.raises(ValueError, match="non-negative"):
        Graph(-1, frozenset())
    with pytest.raises(ValueError, match="outside 1..3"):
        restrict_graph(k3, 0)
    with pytest.raises(ValueError, match="permutation size 2 != vertex count 3"):
        permute_graph(k3, Permutation((2, 1)))


def test_extension_and_family_space_caps():
    with pytest.raises(ResourceCapError, match="2\\*\\*17 submasks"):
        preimage_sup(SubsetFamily(0, frozenset()), 17)
    with pytest.raises(ResourceCapError, match="family-space iteration"):
        next(all_families(5))
    with pytest.raises(ResourceCapError, match="antichain iteration"):
        next(all_antichains(5))
