"""Brute-force reference computations and random test inputs.

Nothing here reuses the package's enumeration shortcuts: probabilities are
rebuilt from the raw independence picture (one presence coin per subset of [n],
success probability 1 - e^{-rate}), and graphs are read straight off family
members.  Family sweeps cost 2^(2^n), so keep n <= 3; the relabeling sweep
costs n! passes over the law, so keep n <= 6 there.  The per-bit butterfly
walks all 2^C(n,2) edge masks once per edge bit, so n <= 7.  The keyed-stream
draws rebuild each subset's Philox stream from its own uint64 key, one subset
at a time, without the sampler's loop.
"""

import itertools
import math
import random

import numpy as np

from poissonclique.schedules import (
    BetaUniformSchedule,
    GeometricSchedule,
    MomentAtomsSchedule,
    derive_lower,
)


def family_from_code(code: int, n: int) -> frozenset[int]:
    return frozenset(a for a in range(1 << n) if code >> a & 1)


def all_families(n: int):
    for code in range(1 << (1 << n)):
        yield family_from_code(code, n)


def covered_pairs(members: frozenset[int], n: int) -> frozenset[tuple[int, int]]:
    """Edges of the projected graph: pairs lying together inside some member."""
    edges = set()
    for a in members:
        labels = [i for i in range(1, n + 1) if a >> (i - 1) & 1]
        edges.update(itertools.combinations(labels, 2))
    return frozenset(edges)


def pairs_inside(a: int, n: int) -> int:
    """Edge mask of every pair (i, j), i < j, of vertices in a: bit (j-1)(j-2)/2 + i-1."""
    labels = [i for i in range(1, n + 1) if a >> (i - 1) & 1]
    pairs = 0
    for i, j in itertools.combinations(labels, 2):
        pairs |= 1 << ((j - 1) * (j - 2) // 2 + i - 1)
    return pairs


def point_mass(members: frozenset[int], n: int, schedule) -> float:
    prob = 1.0
    for a in range(1 << n):
        hit = 1.0 - math.exp(-schedule.rate(n, a.bit_count()))
        prob *= hit if a in members else 1.0 - hit
    return prob


def event_prob(n: int, schedule, predicate) -> float:
    total = 0.0
    for members in all_families(n):
        if predicate(members):
            total += point_mass(members, n, schedule)
    return total


def maximal_members(members: frozenset[int]) -> frozenset[int]:
    return frozenset(a for a in members if not any(a != b and a & ~b == 0 for b in members))


def random_schedule(rng: random.Random):
    """A consistent schedule of a random kind, defined at least up to level 6."""
    kind = rng.randrange(4)
    if kind == 0:
        return GeometricSchedule(alpha=rng.uniform(0.1, 0.9), c=rng.uniform(0.2, 3.0))
    if kind == 1:
        return BetaUniformSchedule(c=rng.uniform(0.2, 3.0))
    if kind == 2:
        atoms = tuple((rng.random(), rng.uniform(0.1, 2.0)) for _ in range(rng.randrange(1, 4)))
        return MomentAtomsSchedule(atoms)
    return derive_lower([rng.uniform(0.0, 2.0) for _ in range(7)])


def relabeling_discrepancy(law, n: int) -> float:
    """Max over all n! - 1 relabelings sigma and graphs G of |law[G] - law[sigma G]|.

    ``law`` is indexed by edge mask: edge (i, j), i < j, sits at bit
    (j-1)(j-2)/2 + i-1.  Every relabeling's index array is rebuilt bit by bit.
    """
    pairs = [(i, j) for j in range(2, n + 1) for i in range(1, j)]
    idx = np.arange(law.size, dtype=np.int64)
    worst = 0.0
    for images in itertools.permutations(range(1, n + 1)):
        if images == tuple(range(1, n + 1)):
            continue
        relabeled = np.zeros(law.size, dtype=np.int64)
        for b, (i, j) in enumerate(pairs):
            x, y = images[i - 1], images[j - 1]
            low, high = min(x, y), max(x, y)
            relabeled |= ((idx >> b) & 1) << ((high - 1) * (high - 2) // 2 + low - 1)
        worst = max(worst, float(np.abs(law[relabeled] - law).max()))
    return worst


def butterfly_law(n: int, rates) -> np.ndarray:
    """The whole-level graph law by the plain per-bit zeta/Moebius butterfly.

    ``rates[r]`` is the Poisson rate of each r-subset of [n].  Cell e holds
    P(graph = e), edge (i, j), i < j, at bit (j-1)(j-2)/2 + i-1: the cumulative
    law P(graph <= e) = exp(T(e) - T(full)), with T(e) the total rate of vertex
    subsets whose pairs all lie in e, is built by one subset-sum pass per edge
    bit, in bit order, and inverted by one difference pass per edge bit.
    """
    nbits = n * (n - 1) // 2
    transform = np.zeros(1 << nbits)
    for a in range(1 << n):
        labels = [i for i in range(1, n + 1) if a >> (i - 1) & 1]
        if len(labels) < 2:
            continue
        pairs = 0
        for i, j in itertools.combinations(labels, 2):
            pairs |= 1 << ((j - 1) * (j - 2) // 2 + i - 1)
        transform[pairs] += rates[len(labels)]
    for b in range(nbits):
        view = transform.reshape(-1, 2, 1 << b)
        view[:, 1, :] += view[:, 0, :]
    law = np.exp(transform - transform[-1])
    for b in range(nbits):
        view = law.reshape(-1, 2, 1 << b)
        view[:, 1, :] -= view[:, 0, :]
    return law


def keyed_stream(seed: int, a: int) -> np.random.Generator:
    """Subset a's stream under ``seed``: Philox keyed by the uint64 pair (seed, a)."""
    return np.random.Generator(np.random.Philox(key=np.array([seed, a], dtype=np.uint64)))


def keyed_counts(schedule, n: int, seed: int, method: str) -> dict[int, int]:
    """One draw's nonzero counts from the first uniform u of each positive-rate stream.

    "bernoulli": 1 when u >= e^{-rate}.  "inversion": the least k whose Poisson
    CDF, summed term by term, exceeds u; a rate above 700 reads the stream's own
    Poisson sampler instead.
    """
    counts = {}
    for a in range(1 << n):
        rate = schedule.rate(n, bin(a).count("1"))
        if rate <= 0.0:
            continue
        stream = keyed_stream(seed, a)
        if method == "bernoulli":
            count = int(stream.random() >= math.exp(-rate))
        elif rate > 700.0:
            count = int(stream.poisson(rate))
        else:
            u = stream.random()
            count, term = 0, math.exp(-rate)
            cdf = term
            while cdf <= u:
                count += 1
                term *= rate / count
                cdf += term
        if count:
            counts[a] = count
    return counts


def keyed_graph_batch(schedule, n: int, draws: int, seed: int) -> np.ndarray:
    """Edge masks of ``draws`` graphs: draw d holds the pairs of every subset a with
    at least two elements whose stream's d-th uniform reaches e^{-rate}.  Edge
    (i, j), i < j, sits at bit (j-1)(j-2)/2 + i-1."""
    out = np.zeros(draws, dtype=np.int64)
    for a in range(1 << n):
        labels = [i for i in range(1, n + 1) if a >> (i - 1) & 1]
        rate = schedule.rate(n, len(labels))
        if len(labels) < 2 or rate <= 0.0:
            continue
        pairs = 0
        for i, j in itertools.combinations(labels, 2):
            pairs |= 1 << ((j - 1) * (j - 2) // 2 + i - 1)
        out[keyed_stream(seed, a).random(draws) >= math.exp(-rate)] |= pairs
    return out
