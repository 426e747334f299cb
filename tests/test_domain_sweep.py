"""A seeded property sweep over the documented domain of the exact laws.

Schedules are drawn over each kind's whole parameter range: geometric with
alpha log-uniform in [1e-9, 1) and c log-uniform in [1e-14, 1e16];
beta_uniform with c in the same range; one to three moment atoms, x in
[0, 1] and w log-uniform in [1e-14, 1e6]; and table rows whose rates are 0,
5e-324, other subnormals or log-uniform up to 700.  Graphs live on n <= 5,
families of up to 12 members on n <= 8.  Every answer is checked against its
``decimal`` twin from ``oracles`` wherever that twin is a normal float.

The cluster conditionals run on the parametric kinds only, and skip an
example whose 60-digit cover weight lies below the normal float range: there
the float weights underflow or lose digits (ROADMAP item 12, whose repros are
strict xfails in ``test_inference``), and table rates down to 5e-324 land
there often.  hypothesis runs derandomized, but it mixes literal constants of
the loaded modules into its draws, so this module alone and the whole suite
draw different examples.  The module takes a few seconds.
"""

import decimal
import itertools
import math
import sys

import pytest
from hypothesis import given, settings, strategies as st

from poissonclique.inference import (
    clique_set,
    cluster_prob,
    coarse_cluster_prob,
    family_point_prob,
    graph_prob,
    interval_prob,
)
from poissonclique.lattice import Graph, ResourceCapError, SubsetFamily, edge_bit_pairs, elements_of, mask_leq
from poissonclique.schedules import BetaUniformSchedule, GeometricSchedule, MomentAtomsSchedule, TableSchedule

from oracles import (
    decimal_cluster_prob,
    decimal_coarse_cluster_prob,
    decimal_cover_weight,
    decimal_graph_prob,
    decimal_interval_prob,
    decimal_point_mass,
    relative_error,
)

SWEEP = settings(derandomize=True, deadline=None)
TOL = decimal.Decimal("1e-13")
SMALLEST_NORMAL = decimal.Decimal(sys.float_info.min)


def log_uniform(lo: float, hi: float) -> st.SearchStrategy[float]:
    """Floats whose logarithm is uniform on [ln lo, ln hi], kept inside [lo, hi]."""
    return st.floats(math.log(lo), math.log(hi)).map(lambda u: min(max(math.exp(u), lo), hi))


# exp of a log just under 0 rounds to 1.0; the largest float below 1 stands in
ALPHA = log_uniform(1e-9, 1.0).map(lambda a: min(a, math.nextafter(1.0, 0.0)))
SCALE = log_uniform(1e-14, 1e16)
ATOMS = st.lists(st.tuples(st.floats(0.0, 1.0), log_uniform(1e-14, 1e6)), min_size=1, max_size=3)
PARAMETRIC = st.one_of(
    st.builds(GeometricSchedule, ALPHA, SCALE),
    st.builds(BetaUniformSchedule, SCALE),
    st.builds(MomentAtomsSchedule, ATOMS),
)
TABLE_RATES = st.one_of(
    st.just(0.0),
    st.just(5e-324),
    st.floats(5e-324, sys.float_info.min, exclude_max=True),
    log_uniform(sys.float_info.min, 700.0),
)


def schedules(n: int) -> st.SearchStrategy:
    """Every kind; a table carries just the row of level ``n``."""
    table = st.lists(TABLE_RATES, min_size=n + 1, max_size=n + 1).map(lambda row: TableSchedule({n: row}))
    return st.one_of(PARAMETRIC, table)


@st.composite
def graphs(draw) -> Graph:
    n = draw(st.integers(0, 5))
    pairs = edge_bit_pairs(n)
    return Graph(n, draw(st.sets(st.sampled_from(pairs))) if pairs else ())


def assert_near_normal_twin(got: float, twin: decimal.Decimal) -> None:
    """``got`` within 1e-13 relative of ``twin`` wherever the twin is a normal float."""
    if SMALLEST_NORMAL <= twin:
        assert relative_error(got, twin) <= TOL, (got, twin)


@settings(SWEEP, max_examples=250)
@given(st.data())
def test_graph_prob_is_a_probability_near_its_decimal_twin(data):
    graph = data.draw(graphs())
    schedule = data.draw(schedules(graph.n))
    try:
        prob = graph_prob(graph, schedule)
    except ValueError as err:
        # the only documented raise: the level's total rate of subsets with
        # two or more elements leaves the float range
        total = sum(decimal.Decimal(schedule.rate(graph.n, r)) * math.comb(graph.n, r) for r in range(2, graph.n + 1))
        assert "overflows" in str(err) and total > decimal.Decimal(sys.float_info.max)
        return
    assert 0.0 <= prob <= 1.0
    assert_near_normal_twin(prob, decimal_graph_prob(graph.edges, graph.n, schedule))


@settings(SWEEP, max_examples=60)
@given(st.data())
def test_graph_prob_sums_to_one_over_every_graph(data):
    n = data.draw(st.integers(0, 4))
    schedule = data.draw(schedules(n))
    pairs = edge_bit_pairs(n)
    probs = [
        graph_prob(Graph(n, edges), schedule)
        for k in range(len(pairs) + 1)
        for edges in itertools.combinations(pairs, k)
    ]
    assert abs(math.fsum(probs) - 1.0) <= 1e-15


@settings(SWEEP, max_examples=250)
@given(st.data())
def test_family_point_prob_within_interval_prob_near_decimal_twins(data):
    n = data.draw(st.integers(0, 8))
    family = SubsetFamily(n, data.draw(st.sets(st.integers(0, (1 << n) - 1), max_size=12)))
    schedule = data.draw(schedules(n))
    point, interval = family_point_prob(family, schedule), interval_prob(family, schedule)
    assert 0.0 <= point <= interval <= 1.0
    assert_near_normal_twin(point, decimal_point_mass(family.members, n, schedule))
    assert_near_normal_twin(interval, decimal_interval_prob(family.members, n, schedule))


@settings(SWEEP, max_examples=200)
@given(st.data())
def test_cluster_prob_within_coarse_near_decimal_twins(data):
    graph = data.draw(graphs())
    cliques = clique_set(graph)
    if not cliques:
        return
    subset = data.draw(st.sampled_from(cliques))
    schedule = data.draw(PARAMETRIC)
    if len(cliques) > 24:
        with pytest.raises(ResourceCapError):
            cluster_prob(subset, graph, schedule)
        return
    whole = decimal_cover_weight(graph.edges, graph.n, schedule)
    if not whole:
        for query in (cluster_prob, coarse_cluster_prob):
            with pytest.raises(ValueError, match="probability zero"):
                query(subset, graph, schedule)
        return
    fine_twin, coarse_twin = (
        oracle(elements_of(subset), graph.edges, graph.n, schedule)
        for oracle in (decimal_cluster_prob, decimal_coarse_cluster_prob)
    )
    if min(w for w in (whole, whole * fine_twin, whole * coarse_twin) if w) < SMALLEST_NORMAL:
        # a cover weight of the ratio lies below the normal range, where it
        # underflows or loses digits: ROADMAP item 12, whose cases are strict
        # xfails in test_inference
        return
    fine, coarse = cluster_prob(subset, graph, schedule), coarse_cluster_prob(subset, graph, schedule)
    assert 0.0 <= fine <= coarse <= 1.0
    if not any(a != subset and mask_leq(subset, a) for a in cliques):
        assert fine == coarse
    assert_near_normal_twin(fine, fine_twin)
    assert_near_normal_twin(coarse, coarse_twin)
