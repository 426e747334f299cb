"""Brute-force reference computations and random test inputs.

Nothing here reuses the package's enumeration shortcuts: probabilities are
rebuilt from the raw independence picture (one presence coin per subset of [n],
success probability 1 - e^{-rate}), and graphs are read straight off family
members.  Family sweeps cost 2^(2^n), so keep n <= 3; the relabeling sweep
costs n! passes over the law, so keep n <= 6 there.  The per-bit butterfly
walks all 2^C(n,2) edge masks once per edge bit, so n <= 7.  The keyed-stream
draws rebuild each subset's Philox stream from its own uint64 key, one subset
at a time, without the sampler's loop.  The 50-digit ``decimal`` references
(standard library only) give relative accuracy where float sums cannot: the
clique walk costs one memoized include/exclude step per clique, so keep the
clique count small; the 60-digit interval sum visits all 2^n masks, so keep
n <= 16.  The extension enumeration lists all 3^k choices for k support
members, so keep k <= 8.
"""

import decimal
import functools
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
    hits = [-math.expm1(-schedule.rate(n, r)) for r in range(n + 1)]
    misses = [math.exp(-schedule.rate(n, r)) for r in range(n + 1)]
    prob = 1.0
    for a in range(1 << n):
        prob *= hits[a.bit_count()] if a in members else misses[a.bit_count()]
    return prob


def extension_weights(base: frozenset[int], n: int, edges, schedule) -> dict[frozenset[int], float]:
    """Point mass of every family on [n+1] that restricts to ``base`` (masks on [n])
    and whose pairs are exactly ``edges``.  Each member stays, moves to itself plus
    vertex n + 1, or both; all 3^k choices are listed and checked one by one."""
    grow = 1 << n  # vertex n + 1
    options = [(frozenset({a}), frozenset({a | grow}), frozenset({a, a | grow})) for a in sorted(base)]
    pairs = {option: covered_pairs(option, n + 1) for choices in options for option in choices}
    weights = {}
    for choice in itertools.product(*options):
        if frozenset().union(*(pairs[option] for option in choice)) == frozenset(edges):
            members = frozenset().union(*choice)
            weights[members] = point_mass(members, n + 1, schedule)
    return weights


DECIMAL_DIGITS = 50


def _decimal_factors(rate: float) -> tuple[decimal.Decimal, decimal.Decimal]:
    """(1 - e^{-rate}, e^{-rate}) to the current context's precision."""
    survival = (-decimal.Decimal(rate)).exp()
    return 1 - survival, survival


@functools.lru_cache(maxsize=None)
def _decimal_level_factors(schedule, n: int) -> tuple:
    with decimal.localcontext() as ctx:
        ctx.prec = DECIMAL_DIGITS
        return tuple(_decimal_factors(schedule.rate(n, r)) for r in range(n + 1))


def decimal_point_mass(members: frozenset[int], n: int, schedule) -> decimal.Decimal:
    """``point_mass`` to DECIMAL_DIGITS digits."""
    factors = _decimal_level_factors(schedule, n)
    with decimal.localcontext() as ctx:
        ctx.prec = DECIMAL_DIGITS
        prob = decimal.Decimal(1)
        for a in range(1 << n):
            hit, miss = factors[a.bit_count()]
            prob *= hit if a in members else miss
        return prob


def decimal_interval_prob(members, n: int, schedule) -> decimal.Decimal:
    """P(no subset of [n] outside ``members`` is present) to 60 digits: the rate
    of every absent mask, added one mask at a time."""
    with decimal.localcontext() as ctx:
        ctx.prec = 60
        rates = [decimal.Decimal(schedule.rate(n, r)) for r in range(n + 1)]
        outside = sum((rates[a.bit_count()] for a in range(1 << n) if a not in members), decimal.Decimal(0))
        return (-outside).exp()


def decimal_graph_prob(edges, n: int, schedule) -> decimal.Decimal:
    """P(projected graph on [n] has exactly ``edges``) to DECIMAL_DIGITS digits.

    Every vertex set of two or more labels with a pair outside ``edges`` must be
    absent.  The others, the cliques, are walked in turn, present or absent, until
    their pairs cover ``edges``; the cliques left over then integrate out to 1.
    """
    edges = frozenset(edges)
    with decimal.localcontext() as ctx:
        ctx.prec = DECIMAL_DIGITS
        cliques, outside = [], decimal.Decimal(0)
        for size in range(2, n + 1):
            for labels in itertools.combinations(range(1, n + 1), size):
                pairs = frozenset(itertools.combinations(labels, 2))
                if pairs <= edges:
                    cliques.append((pairs, _decimal_factors(schedule.rate(n, size))))
                else:
                    outside += decimal.Decimal(schedule.rate(n, size))

        @functools.lru_cache(maxsize=None)
        def walk(i: int, uncovered: frozenset) -> decimal.Decimal:
            if not uncovered:
                return decimal.Decimal(1)
            if i == len(cliques):
                return decimal.Decimal(0)
            pairs, (hit, miss) = cliques[i]
            return miss * walk(i + 1, uncovered) + hit * walk(i + 1, uncovered - pairs)

        return (-outside).exp() * walk(0, edges)


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
