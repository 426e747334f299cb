import math
import os
import random
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import poissonclique
from poissonclique.inference import graph_law
from poissonclique.lattice import (
    Graph,
    Permutation,
    ResourceCapError,
    SubsetFamily,
    clique_graph,
    graph_to_edge_mask,
    mask_of,
    monotone_cover,
    permute_family,
    permute_graph,
)
from poissonclique.sampling import (
    METHOD_BERNOULLI,
    _SCALAR_MAX_N,
    PointProcessRealization,
    _first_uniforms,
    _graph_batches,
    _poisson_from_uniform,
    sample_graph_batch,
    sample_pipeline,
    sample_point_process,
    support,
)
from poissonclique.schedules import GeometricSchedule, TableSchedule, constant_table

from oracles import keyed_counts, keyed_graph_batch, keyed_stream, random_schedule

GEOM = GeometricSchedule(alpha=0.5, c=1.0)


# ---------------------------------------------------------------------------
# Determinism and validation
# ---------------------------------------------------------------------------

def test_same_seed_same_realization():
    for method in ("inversion", METHOD_BERNOULLI):
        a = sample_point_process(GEOM, 3, 1234, method=method)
        b = sample_point_process(GEOM, 3, 1234, method=method)
        assert a == b


def test_distinct_seeds_vary():
    draws = {sample_point_process(GEOM, 3, seed).support_masks() for seed in range(40)}
    assert len(draws) > 1


def test_zero_schedule_draws_nothing():
    zero = constant_table(3, 0.0)
    realization = sample_point_process(zero, 3, 99)
    assert realization.counts == {}
    assert support(realization) == SubsetFamily(3, frozenset())


def test_realization_validation():
    with pytest.raises(ValueError):
        PointProcessRealization(2, {0b100: 1}, 0, "inversion")
    with pytest.raises(ValueError):
        PointProcessRealization(2, {0b01: -1}, 0, "inversion")
    with pytest.raises(ValueError):
        sample_point_process(GEOM, 2, -1)
    with pytest.raises(ValueError):
        sample_point_process(GEOM, 2, 1 << 64)
    with pytest.raises(ValueError):
        sample_point_process(GEOM, 2, 0, method="guess")


@pytest.mark.parametrize("count", [0, 2, 5])
def test_bernoulli_realization_carries_presence_only(count):
    with pytest.raises(ValueError, match="bernoulli"):
        PointProcessRealization(2, {0b11: count}, 0, "bernoulli")
    assert PointProcessRealization(2, {0b11: count}, 0, "inversion").counts == ({0b11: count} if count else {})
    assert set(sample_point_process(GEOM, 5, 3, method="bernoulli").counts.values()) == {1}


@pytest.mark.parametrize(
    "seed, method",
    [(-1, "inversion"), (1 << 64, "inversion"), (2.0, "inversion"), (True, "inversion"), (0, "guess")],
)
def test_realization_rejects_seed_or_method_outside_the_domain(seed, method):
    with pytest.raises(ValueError):
        PointProcessRealization(2, {0b11: 1}, seed, method)


def test_seed_checked_before_any_stream():
    # an all-zero table opens no stream, and the seed is still checked; a float
    # seed would be truncated into the key table while the realization kept it
    zero = constant_table(3, 0.0)
    for seed in (-1, 1 << 64, 2.0, 1.5):
        with pytest.raises(ValueError, match="seed"):
            sample_point_process(zero, 3, seed)
        with pytest.raises(ValueError, match="seed"):
            sample_graph_batch(zero, 3, 5, seed)


def test_power_set_cap_before_key_table():
    with pytest.raises(ResourceCapError):
        sample_point_process(GEOM, 17, 0)


@pytest.mark.parametrize("seed, other", [(1 << 63, (1 << 63) + 1), ((1 << 64) - 1, 0)])
def test_seeds_from_2_63_up_keep_their_own_streams(seed, other):
    # a key given as a list of Python ints goes through float64: 2^63 + 1 then reads
    # 2^63's stream, and 2^64 - 1 reads seed 0's with a RuntimeWarning from the cast
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        first = sample_graph_batch(GEOM, 6, 2000, seed)
        second = sample_graph_batch(GEOM, 6, 2000, other)
    assert not np.array_equal(first, second)


RATES = st.sampled_from([0.0, 0.05, 0.4, 2.5, 900.0])
# odd seeds from 2^63 up have no float64 twin, so a key cast through float64 shows
ODD_HIGH_SEEDS = st.integers(1 << 62, (1 << 63) - 1).map(lambda half: 2 * half + 1)


@st.composite
def keyed_cases(draw):
    n = draw(st.integers(0, 6))
    if draw(st.booleans()):
        schedule = random_schedule(random.Random(draw(st.integers(0, 1 << 32))))
    else:  # zero rates and the rate > 700 branch
        schedule = TableSchedule({n: tuple(draw(RATES) for _ in range(n + 1))})
    seed = draw(st.integers(0, (1 << 64) - 1) | ODD_HIGH_SEEDS)
    return schedule, n, seed


@settings(max_examples=40, deadline=None)
@given(case=keyed_cases(), draws=st.integers(0, 30))
def test_samplers_match_the_uint64_key_oracle(case, draws):
    schedule, n, seed = case
    for method in ("inversion", METHOD_BERNOULLI):
        realization = sample_point_process(schedule, n, seed, method=method)
        assert realization.counts == keyed_counts(schedule, n, seed, method)
    batch = sample_graph_batch(schedule, n, draws, seed)
    assert np.array_equal(batch, keyed_graph_batch(schedule, n, draws, seed))


@settings(max_examples=30, deadline=None)
@given(n=st.integers(0, 10), seed=st.integers(0, (1 << 64) - 1) | ODD_HIGH_SEEDS)
def test_first_uniforms_equal_numpy_philox_bit_for_bit(n, seed):
    uniforms = _first_uniforms(seed, n)
    assert uniforms == [keyed_stream(seed, a).random() for a in range(1 << n)]


@pytest.mark.parametrize("n", [_SCALAR_MAX_N, _SCALAR_MAX_N + 1])
@pytest.mark.parametrize("seed", [0, 29, (1 << 63) + 1, (1 << 64) - 1])
def test_first_uniforms_on_both_sides_of_the_scalar_cap(n, seed):
    # the last level on Python ints and the first on the vectorised pass
    uniforms = _first_uniforms(seed, n)
    assert uniforms == [keyed_stream(seed, a).random() for a in range(1 << n)]


@pytest.mark.parametrize("seed", [0, 29, (1 << 63) + 1, (1 << 64) - 1])
def test_first_uniforms_at_n16_spot_check(seed):
    uniforms = _first_uniforms(seed, 16)
    assert len(uniforms) == 1 << 16
    for a in random.Random(seed).sample(range(1 << 16), 300):
        assert uniforms[a] == keyed_stream(seed, a).random()


def test_zero_counts_are_dropped():
    realization = PointProcessRealization(2, {0b01: 0, 0b11: 2}, 7, "inversion")
    assert realization.counts == {0b11: 2}
    assert support(realization) == SubsetFamily(2, frozenset({0b11}))


# ---------------------------------------------------------------------------
# Pipeline stages
# ---------------------------------------------------------------------------

def test_pipeline_stages_cohere():
    for seed in range(25):
        sample = sample_pipeline(GEOM, 4, seed)
        assert sample.support == support(sample.realization)
        assert sample.cover == monotone_cover(sample.support)
        assert sample.graph == clique_graph(sample.cover)
        assert sample.seed == seed
        assert sample.n == 4


def test_pipeline_triple_makes_triangle():
    # a realization whose support is a single triple projects to the triangle
    realization = PointProcessRealization(3, {0b111: 1}, 0, "inversion")
    family = support(realization)
    graph = clique_graph(monotone_cover(family))
    assert graph == Graph.from_edges(3, [(1, 2), (1, 3), (2, 3)])


def test_pipeline_singletons_make_empty_graph():
    realization = PointProcessRealization(3, {0b001: 2, 0b010: 1}, 0, "inversion")
    graph = clique_graph(monotone_cover(support(realization)))
    assert graph == Graph(3, frozenset())


def test_bernoulli_support_matches_inversion():
    for seed in range(50):
        full = sample_point_process(GEOM, 3, seed)
        fast = sample_point_process(GEOM, 3, seed, method=METHOD_BERNOULLI)
        assert fast.method == METHOD_BERNOULLI
        assert set(fast.counts) == set(full.counts)
        assert all(count == 1 for count in fast.counts.values())


def test_permutation_commutes_with_pipeline():
    sigma = Permutation((3, 1, 2))
    for seed in range(20):
        realization = sample_point_process(GEOM, 3, seed)
        permuted = PointProcessRealization(
            3,
            {sigma.apply_to_mask(a): c for a, c in realization.counts.items()},
            realization.seed,
            realization.method,
        )
        assert support(permuted) == permute_family(support(realization), sigma)
        assert clique_graph(monotone_cover(support(permuted))) == permute_graph(
            clique_graph(monotone_cover(support(realization))), sigma
        )


# ---------------------------------------------------------------------------
# Batch sampling
# ---------------------------------------------------------------------------

def test_batch_first_draw_matches_single():
    rng = random.Random(5)
    for _ in range(5):
        schedule = random_schedule(rng)
        seed = rng.randrange(1 << 32)
        batch = sample_graph_batch(schedule, 3, 4, seed)
        single = sample_pipeline(schedule, 3, seed)
        assert int(batch[0]) == graph_to_edge_mask(single.graph)


def test_batch_deterministic():
    a = sample_graph_batch(GEOM, 4, 1000, 31)
    b = sample_graph_batch(GEOM, 4, 1000, 31)
    assert np.array_equal(a, b)
    assert sample_graph_batch(GEOM, 4, 0, 31).size == 0


@pytest.mark.parametrize("n", (3, 5))
def test_blocked_counts_equal_unchunked_bincount(n):
    draws = 10_007
    cells = 1 << n * (n - 1) // 2
    batch = sample_graph_batch(GEOM, n, draws, 2024)
    whole = np.bincount(batch, minlength=cells)
    for chunk in (3, 1000, 4096, draws - 1, draws, draws + 5):
        blocks = list(_graph_batches(GEOM, n, draws, 2024, chunk))
        assert [block.size for block in blocks[:-1]] == [chunk] * (len(blocks) - 1)
        assert np.array_equal(np.concatenate(blocks), batch)
        counts = np.zeros(cells, dtype=np.int64)
        for block in blocks:
            counts += np.bincount(block, minlength=cells)
        assert np.array_equal(counts, whole)


# ---------------------------------------------------------------------------
# Monte Carlo agreement with the exact law
# ---------------------------------------------------------------------------

def test_poisson_mean_and_presence():
    # counts({1}) has mean 0.25 under geometric(0.5, 1) at n=2;
    # P({1,2} present) = 1 - e^{-0.25}
    n_seeds = 20000
    mask_single = mask_of([1], 2)
    mask_pair = mask_of([1, 2], 2)
    total = 0
    present = 0
    for seed in range(n_seeds):
        counts = sample_point_process(GEOM, 2, seed).counts
        total += counts.get(mask_single, 0)
        present += 1 if mask_pair in counts else 0
    mean = total / n_seeds
    sigma = math.sqrt(0.25 / n_seeds)
    assert abs(mean - 0.25) < 3 * sigma
    p = -math.expm1(-0.25)
    se = math.sqrt(p * (1 - p) / n_seeds)
    assert abs(present / n_seeds - p) < 3 * se


def test_batch_frequencies_match_exact_law():
    draws = 30000
    law = graph_law(3, GEOM)
    masks = sample_graph_batch(GEOM, 3, draws, 424242)
    freq = np.bincount(masks, minlength=law.size) / draws
    se = np.sqrt(law * (1 - law) / draws)
    assert np.all(np.abs(freq - law) <= 4 * se + 1e-12)


def test_restricted_batch_matches_lower_level_law():
    # graphs sampled at n=4 and restricted to [2] follow the exact n=2 law
    draws = 30000
    masks = sample_graph_batch(GEOM, 4, draws, 777)
    restricted = masks & 1  # low bit is the edge 1-2
    law = graph_law(2, GEOM)
    freq = np.bincount(restricted, minlength=2) / draws
    se = np.sqrt(law * (1 - law) / draws)
    assert np.all(np.abs(freq - law) <= 4 * se + 1e-12)


def test_relabeled_batch_matches_law():
    # swapping labels 1 and 3 permutes edge bits (12<->23); the law is unchanged
    draws = 30000
    masks = sample_graph_batch(GEOM, 3, draws, 31337)
    swapped = ((masks & 1) << 2) | (masks & 2) | ((masks >> 2) & 1)
    law = graph_law(3, GEOM)
    freq = np.bincount(swapped, minlength=law.size) / draws
    se = np.sqrt(law * (1 - law) / draws)
    assert np.all(np.abs(freq - law) <= 4 * se + 1e-12)


# ---------------------------------------------------------------------------
# Poisson CDF inversion
# ---------------------------------------------------------------------------

TOP_UNIFORM = 1.0 - 2.0**-53  # the largest double a Philox uniform takes
INVERSION_SCRIPT = """
from poissonclique.sampling import _poisson_from_uniform
print([_poisson_from_uniform(%r, rate) for rate in (0.1, 10.0, 500.0, 699.0)])
""" % TOP_UNIFORM


def plain_cdf_walk(u, rate, steps=3000):
    """The inversion without its stop on a sum that no longer grows; None
    after ``steps`` terms, where the walk would run on."""
    term = math.exp(-rate)
    cumulative = term
    k = 0
    while u >= cumulative:
        if k == steps:
            return None
        k += 1
        term *= rate / k
        cumulative += term
    return k


def test_inversion_returns_where_the_float_cdf_stops_short_of_the_uniform():
    # the float sums end at 0.9999999999999998 (rate 0.1) to 0.9999999999999979
    # (rate 699), below TOP_UNIFORM; a child process turns a hang into a failure
    package_root = str(Path(poissonclique.__file__).resolve().parent.parent)
    inherited = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=package_root + (os.pathsep + inherited if inherited else ""))
    completed = subprocess.run(
        [sys.executable, "-c", INVERSION_SCRIPT], capture_output=True, text=True, env=env, timeout=60
    )
    assert completed.returncode == 0, completed.stderr
    assert completed.stdout == "[10, 47, 694, 925]\n"


@pytest.mark.parametrize("rate, count, exact", [(0.1, 10, 9), (10.0, 47, 45)])
def test_poisson_inversion_stops_where_a_term_no_longer_moves_the_sum(rate, count, exact):
    # in this process, unlike the child above: at TOP_UNIFORM the walk
    # stops at the first term too small to move the sum, a count or two past
    # the exact inverse, the least k whose 60-digit CDF exceeds u
    import decimal

    u = TOP_UNIFORM
    assert _poisson_from_uniform(u, rate) == count
    with decimal.localcontext() as ctx:
        ctx.prec = 60
        lam = decimal.Decimal(rate)
        term = cdf = (-lam).exp()
        k = 0
        while cdf <= decimal.Decimal(u):
            k += 1
            term *= lam / k
            cdf += term
    assert k == exact


@settings(max_examples=300, deadline=None)
@given(
    u=st.one_of(st.floats(0.0, 1.0, exclude_max=True), st.integers(1, 1 << 20).map(lambda i: 1.0 - i * 2.0**-53)),
    rate=st.floats(0.0, 700.0),
)
def test_inversion_equals_the_plain_cdf_walk_wherever_it_returns(u, rate):
    expected = plain_cdf_walk(u, rate)
    if expected is not None:
        assert _poisson_from_uniform(u, rate) == expected


def test_large_rate_uses_library_sampler():
    big = TableSchedule({1: (0.0, 900.0)})
    realization = sample_point_process(big, 1, 3)
    count = realization.counts[0b1]
    # 6 sigma around the mean of Poisson(900)
    assert abs(count - 900) < 6 * math.sqrt(900)


def test_graph_batch_rejects_negative_draws():
    with pytest.raises(ValueError, match="draws must be non-negative"):
        sample_graph_batch(GeometricSchedule(alpha=0.5), 3, -1, 0)
