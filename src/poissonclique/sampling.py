"""Draws of the latent subset process and its projection to a graph.

Randomness contract: subset ``a`` under seed ``s`` reads from the counter-based
stream Philox(key=(s, a)), for every seed in [0, 2^64), independent of every
other subset and of evaluation order; one place, ``_streams``, builds the keys,
as uint64.  A single draw consumes one uniform per subset with positive rate
(inversion of the Poisson CDF), so the Bernoulli support fast path, which
thresholds the same uniform at e^{-rate}, reproduces the support of the full
draw exactly.  Batch draws read successive uniforms along each stream: draw
``d`` of a batch equals the single draw only at ``d = 0``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .lattice import (
    GeneratingClass,
    Graph,
    SubsetFamily,
    all_masks,
    clique_graph,
    full_mask,
    monotone_cover,
    pair_masks,
)
from .schedules import RateSchedule

METHOD_INVERSION = "inversion"
METHOD_BERNOULLI = "bernoulli"
METHODS = (METHOD_INVERSION, METHOD_BERNOULLI)
SEED_LIMIT = 1 << 64

# beyond this the CDF walk would underflow; hand off to the library sampler
_INVERSION_MAX_RATE = 700.0


@dataclass(frozen=True)
class PointProcessRealization:
    """Poisson multiplicities on the power set of [n]; zero counts are omitted.

    ``method`` records how the draw was produced: "inversion" carries true
    multiplicities, "bernoulli" only presence indicators (every count is 1).
    """

    n: int
    counts: Mapping[int, int]
    seed: int
    method: str

    def __post_init__(self) -> None:
        check_seed(self.seed)
        check_method(self.method)
        top = full_mask(self.n)
        clean = {}
        for mask, count in sorted(dict(self.counts).items()):
            if mask & ~top:
                raise ValueError(f"mask {mask:#x} exceeds ground set [{self.n}]")
            if count < 0:
                raise ValueError("counts must be non-negative")
            if count > 0:
                clean[mask] = int(count)
        object.__setattr__(self, "counts", clean)

    def support_masks(self) -> tuple[int, ...]:
        return tuple(sorted(self.counts))


@dataclass(frozen=True)
class PipelineSample:
    """One draw pushed through support, least monotone cover, clique graph."""

    realization: PointProcessRealization
    support: SubsetFamily
    cover: GeneratingClass
    graph: Graph

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


def _streams(schedule: RateSchedule, n: int, seed: int, smallest: int):
    """(a, rate, stream) per subset a of [n] with >= ``smallest`` elements and positive
    rate, in mask order.  Stream a is keyed by row a of one uint64 (seed, mask) table:
    a key list of Python ints would pass through float64 above 2^63."""
    check_seed(seed)
    masks = all_masks(n)  # the power-set cap, before 2^n keys are allocated
    keys = np.empty((len(masks), 2), dtype=np.uint64)
    keys[:, 0], keys[:, 1] = seed, masks
    rates = [schedule.rate(n, r) for r in range(n + 1)]
    for a in masks:
        rate = rates[a.bit_count()]
        if a.bit_count() >= smallest and rate > 0.0:
            yield a, rate, np.random.Generator(np.random.Philox(key=keys[a]))


def _poisson_from_uniform(u: float, rate: float) -> int:
    """Invert the Poisson CDF at a single uniform; exact for any rate <= 700."""
    term = math.exp(-rate)
    cumulative = term
    k = 0
    while u >= cumulative:
        k += 1
        term *= rate / k
        cumulative += term
    return k


def sample_point_process(
    schedule: RateSchedule, n: int, seed: int, *, method: str = METHOD_INVERSION
) -> PointProcessRealization:
    """Independent Poisson counts for every subset of [n], deterministic in seed."""
    check_method(method)
    counts: dict[int, int] = {}
    for a, rate, stream in _streams(schedule, n, seed, 0):
        if method == METHOD_BERNOULLI:
            count = 1 if stream.random() >= math.exp(-rate) else 0
        elif rate > _INVERSION_MAX_RATE:
            count = int(stream.poisson(rate))
        else:
            count = _poisson_from_uniform(stream.random(), rate)
        if count:
            counts[a] = count
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


def sample_graph_batch(schedule: RateSchedule, n: int, draws: int, seed: int) -> np.ndarray:
    """Edge bitmasks of ``draws`` projected graphs, vectorized per subset stream.

    Draw d thresholds the d-th uniform of stream (seed, a) for every subset a,
    so the batch is deterministic and its first column matches single draws.
    """
    if draws < 0:
        raise ValueError("draws must be non-negative")
    pmt = pair_masks(n)
    out = np.zeros(draws, dtype=np.int64)
    for a, rate, stream in _streams(schedule, n, seed, 2):
        out[stream.random(draws) >= math.exp(-rate)] |= pmt[a]
    return out
