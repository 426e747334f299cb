"""Draws of the latent subset process and its projection to a graph.

Randomness contract: subset ``a`` under seed ``s`` reads from the counter-based
stream Philox4x64-10(key=(s, a)), for every seed in [0, 2^64), independent of
every other subset and of evaluation order.  A single draw consumes one uniform
per subset with positive rate (inversion of the Poisson CDF), so the Bernoulli
support fast path, which thresholds the same uniform at e^{-rate}, reproduces
the support of the full draw exactly.  Philox is a pure function of (key,
counter), so single draws compute every subset's first uniform directly,
``_first_uniforms``, bit for bit equal to NumPy's ``Philox(key=(s, a))``: on
Python ints up to level ``_SCALAR_MAX_N`` (64 subsets), in one vectorised
NumPy pass above it.  Batch reads, and Poisson counts at rates beyond the CDF
walk's range, use NumPy's ``Generator`` on the same stream, built by
``_keyed_stream``.  Batch draws read successive uniforms along each stream:
draw ``d`` of a batch equals the single draw only at ``d = 0``.

NumPy is imported inside the functions that need it, so importing this module
(and the CLI) does not load it, and neither does a single draw at n <= 6 whose
rates stay within the CDF walk's range.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Iterator, Mapping

from .lattice import (
    GeneratingClass,
    Graph,
    SubsetFamily,
    _Value,
    all_masks,
    clique_graph,
    full_mask,
    monotone_cover,
    pair_masks,
)
from .schedules import RateSchedule

if TYPE_CHECKING:
    import numpy as np

METHOD_INVERSION = "inversion"
METHOD_BERNOULLI = "bernoulli"
METHODS = (METHOD_INVERSION, METHOD_BERNOULLI)
SEED_LIMIT = 1 << 64

# beyond this the CDF walk would underflow; hand off to the library sampler
_INVERSION_MAX_RATE = 700.0


class PointProcessRealization(_Value):
    """Poisson multiplicities on the power set of [n]; zero counts are omitted.

    ``method`` records how the draw was produced: "inversion" carries true
    multiplicities, "bernoulli" only presence indicators (every count is 1).
    """

    n: int
    counts: Mapping[int, int]
    seed: int
    method: str
    _fields = ("n", "counts", "seed", "method")

    def __init__(self, n: int, counts: Mapping[int, int], seed: int, method: str) -> None:
        check_seed(seed)
        check_method(method)
        top = full_mask(n)
        clean = {}
        for mask, count in sorted(dict(counts).items()):
            if mask & ~top:
                raise ValueError(f"mask {mask:#x} exceeds ground set [{n}]")
            if count < 0:
                raise ValueError("counts must be non-negative")
            if method == METHOD_BERNOULLI and count != 1:
                raise ValueError(f"a bernoulli realization carries presence only, got count {count}")
            if count > 0:
                clean[mask] = int(count)
        super().__init__(n, clean, seed, method)

    def support_masks(self) -> tuple[int, ...]:
        return tuple(sorted(self.counts))


class PipelineSample(_Value):
    """One draw pushed through support, least monotone cover, clique graph."""

    realization: PointProcessRealization
    support: SubsetFamily
    cover: GeneratingClass
    graph: Graph
    _fields = ("realization", "support", "cover", "graph")

    def __init__(
        self, realization: PointProcessRealization, support: SubsetFamily, cover: GeneratingClass, graph: Graph
    ) -> None:
        super().__init__(realization, support, cover, graph)

    @property
    def n(self) -> int:
        return self.realization.n

    @property
    def seed(self) -> int:
        return self.realization.seed


def check_seed(seed: int) -> int:
    """``seed`` itself if it is an int in [0, 2^64); anything else raises ValueError."""
    if isinstance(seed, bool) or not isinstance(seed, int) or not 0 <= seed < SEED_LIMIT:
        raise ValueError(f"seed must be an integer in [0, 2^64), got {seed!r}")
    return seed


def check_method(method: str) -> str:
    if method not in METHODS:
        raise ValueError(f"unknown sampling method {method!r}")
    return method


# Philox4x64-10 (Salmon et al., SC 2011): round multipliers and key increments
_PHILOX_M = (0xD2E7470EE14C6C93, 0xCA5A826395121157)
_PHILOX_W = (0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B)
_LOW32 = 0xFFFFFFFF
_LOW64 = (1 << 64) - 1
# levels up to this one run the Philox rounds on Python ints.  With NumPy
# already loaded, the median call at n = 4 / 6 / 7 takes 0.07-0.11 / 0.25-0.42 /
# 0.50-0.76 ms on ints against 0.23-0.40 / 0.24-0.40 / 0.25-0.43 ms vectorised
# (five processes, 2-vCPU Xeon, Python 3.11.7, NumPy 2.4.6), so the ints lose
# from level 7 on; a process that never loads NumPy also skips its import
_SCALAR_MAX_N = 6


def _keyed_stream(seed: int, a: int) -> np.random.Generator:
    """NumPy's generator on subset a's stream.  The key is built as a uint64
    pair: a list of Python ints would pass through float64 above 2^63."""
    import numpy as np

    return np.random.Generator(np.random.Philox(key=np.array([seed, a], dtype=np.uint64)))


def _mulhilo(m: int, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(high, low) 64-bit halves of the 128-bit product m * x, from 32-bit limbs."""
    m_hi, m_lo = m >> 32, m & _LOW32
    x_hi, x_lo = x >> 32, x & _LOW32
    ll, lh, hl = x_lo * m_lo, x_lo * m_hi, x_hi * m_lo
    carry = ((ll >> 32) + (lh & _LOW32) + (hl & _LOW32)) >> 32
    return x_hi * m_hi + (lh >> 32) + (hl >> 32) + carry, x * m


def _first_uniforms(seed: int, n: int) -> list[float]:
    """The first double of stream (seed, a) for every subset a of [n], in mask order.

    NumPy's Philox bit generator fills its first block from counter (1, 0, 0, 0)
    and hands out lane 0 first; a double is its top 53 bits times 2^-53.  Round 0
    maps that counter under key (s, a) to (s, 0, a, M0), so both passes start
    there and run the other nine rounds.  Up to level ``_SCALAR_MAX_N`` each key
    runs them on Python ints, whose products are exact; above it all 2^n keys
    share the seed and the counter, so nine rounds over uint64 arrays produce
    every stream's first output at once.
    """
    check_seed(seed)
    masks = all_masks(n)  # the power-set cap, before 2^n keys are allocated
    k0s = [(seed + step * _PHILOX_W[0]) & _LOW64 for step in range(1, 10)]
    if n <= _SCALAR_MAX_N:
        uniforms = []
        for a in masks:
            c0, c1, c2, c3 = seed, 0, a, _PHILOX_M[0]
            k1 = a
            for k0 in k0s:
                k1 = (k1 + _PHILOX_W[1]) & _LOW64
                p0, p1 = _PHILOX_M[0] * c0, _PHILOX_M[1] * c2
                c0, c1, c2, c3 = (p1 >> 64) ^ c1 ^ k0, p1 & _LOW64, (p0 >> 64) ^ c3 ^ k1, p0 & _LOW64
            uniforms.append((c0 >> 11) * 2.0**-53)
        return uniforms

    import numpy as np

    k1 = np.arange(len(masks), dtype=np.uint64)
    c0, c1, c2, c3 = np.full_like(k1, seed), np.zeros_like(k1), k1.copy(), np.full_like(k1, _PHILOX_M[0])
    for k0 in k0s:
        k1 += np.uint64(_PHILOX_W[1])
        hi0, lo0 = _mulhilo(_PHILOX_M[0], c0)
        hi1, lo1 = _mulhilo(_PHILOX_M[1], c2)
        c0, c1, c2, c3 = hi1 ^ c1 ^ np.uint64(k0), lo1, hi0 ^ c3 ^ k1, lo0
    return ((c0 >> 11).astype(np.float64) * 2.0**-53).tolist()


def _poisson_from_uniform(u: float, rate: float) -> int:
    """Invert the Poisson CDF at a single uniform, for rates <= 700.

    The float CDF is within 2.0e-15 of the exact one at rate 700 (1.6e-16 at
    rate 10), so a uniform that close to a step lands a count off.  It can stop
    short of the largest uniform, 1 - 2^-53: the walk then returns the first k
    whose term no longer moves it (10 at rate 0.1, exact 9; 47 at rate 10, 45)."""
    term = math.exp(-rate)
    cumulative = term
    k = 0
    while u >= cumulative:
        k += 1
        term *= rate / k
        if cumulative + term == cumulative:
            break
        cumulative += term
    return k


def sample_point_process(
    schedule: RateSchedule, n: int, seed: int, *, method: str = METHOD_INVERSION
) -> PointProcessRealization:
    """Independent Poisson counts for every subset of [n], deterministic in seed."""
    check_method(method)
    uniforms = _first_uniforms(seed, n)
    rates = [schedule.rate(n, r) for r in range(n + 1)]
    # the count is 0 exactly when u < e^{-rate}, always so at rate 0
    zero_below = [math.exp(-rate) for rate in rates]
    inversion = method == METHOD_INVERSION
    counts: dict[int, int] = {}
    for a, u in enumerate(uniforms):
        r = a.bit_count()
        rate = rates[r]
        if inversion and rate > _INVERSION_MAX_RATE:
            counts[a] = int(_keyed_stream(seed, a).poisson(rate))
        elif u >= zero_below[r]:
            counts[a] = _poisson_from_uniform(u, rate) if inversion else 1
    return PointProcessRealization(n, counts, seed, method)


def support(realization: PointProcessRealization) -> SubsetFamily:
    """Subsets with positive multiplicity."""
    return SubsetFamily(realization.n, frozenset(realization.counts))


def sample_pipeline(
    schedule: RateSchedule, n: int, seed: int, *, method: str = METHOD_INVERSION
) -> PipelineSample:
    """Draw the process and project it: support, monotone cover, clique graph."""
    realization = sample_point_process(schedule, n, seed, method=method)
    family = support(realization)
    cover = monotone_cover(family)
    return PipelineSample(realization, family, cover, clique_graph(cover))


def _graph_batches(
    schedule: RateSchedule, n: int, draws: int, seed: int, chunk: int
) -> Iterator[np.ndarray]:
    """Edge bitmasks of draws 0 .. draws - 1, in successive arrays of at most
    ``chunk`` draws.

    Draw d thresholds the d-th uniform of stream (seed, a) for every subset a.
    Each stream is built once and read on from block to block, and a stream's
    doubles come out in the same order however its reads are split, so the
    blocks concatenate to the same masks for every ``chunk``.  A stream is kept
    between blocks only when another block follows.
    """
    import numpy as np

    check_seed(seed)
    if draws < 0:
        raise ValueError("draws must be non-negative")
    pmt = pair_masks(n)
    rates = [schedule.rate(n, r) for r in range(n + 1)]
    drawn = [a for a in all_masks(n) if a.bit_count() >= 2 and rates[a.bit_count()] > 0.0]
    streams: dict[int, np.random.Generator] = {}
    for start in range(0, draws, chunk):
        size = min(chunk, draws - start)
        out = np.zeros(size, dtype=np.int64)
        for a in drawn:
            stream = streams.pop(a) if start else _keyed_stream(seed, a)
            out[stream.random(size) >= math.exp(-rates[a.bit_count()])] |= pmt[a]
            if start + size < draws:
                streams[a] = stream
        yield out


def sample_graph_batch(schedule: RateSchedule, n: int, draws: int, seed: int) -> np.ndarray:
    """Edge bitmasks of ``draws`` projected graphs, vectorized per subset stream.

    Draw d thresholds the d-th uniform of stream (seed, a) for every subset a,
    so the batch is deterministic and its first column matches single draws.
    """
    import numpy as np

    batches = _graph_batches(schedule, n, draws, seed, max(draws, 1))
    return next(batches, np.zeros(0, dtype=np.int64))
