"""Exact laws of the subset process and its projected graph, by exhaustive
enumeration at desk scale.

The generative chain is: independent Poisson counts on every subset of [n] with
rate lambda_n(cardinality), support family X*, least monotone cover, clique
graph.  Because presence of distinct subsets is independent, every probability
below reduces to sums of products of p(a) = 1 - e^{-lambda(#a)} and their
complements.  Two computation paths are used:

* per-graph: the absent subsets, those not cliques of G, priced by one exponent
  of non-negative terms, times the sum over subsets of cliques(G) whose pairs
  exactly cover E(G), one forward pass over the cliques (``_cover_weight``),
  up to CLIQUE_SUBSET_CAP cliques.  The cluster conditionals are ratios of two
  such passes.
  A graph with more cliques splits off one vertex (``_cell``), which needs the
  whole laws one level down; the vertex step (``_positive_law``) builds them
  from sums of non-negative terms, so no cell of this path cancels.
* whole-level: the cumulative law P(graph <= e) = exp(T(e) - T(full)) with T(e)
  the total rate of cliques fitting inside e, computed by a subset-sum (zeta)
  transform over the edge lattice and inverted by a Moebius pass, for all
  2^C(n,2) graphs at once in one array (``_law`` describes the kernel).

Subsets of cardinality <= 1 never affect the graph; they are marginalized out of
every graph computation and cancel from every conditional ratio.

Survival products are exp(-sum of rates), one exact sum by sizes rounded once
(``_absent_rate``), so they never underflow factor by factor.  A level whose
total rate of subsets with at least two elements overflows has no finite
exponent to work with, and the graph laws reject it with ValueError.

NumPy is imported inside the functions that build arrays, so the per-graph
queries and the conditionals run without loading it.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import math
import operator
import os
from typing import TYPE_CHECKING, Callable, Iterable, Mapping

from .lattice import (
    GeneratingClass,
    Graph,
    ResourceCapError,
    SubsetFamily,
    _Value,
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
)
from .schedules import RateSchedule

if TYPE_CHECKING:
    from concurrent.futures import ThreadPoolExecutor

    import numpy as np

GRAPH_ENUM_CAP = 7
CLIQUE_SUBSET_CAP = 24
EXTENSION_MEMBERS_CAP = 12


class InconsistentEvidenceError(ValueError):
    """The conditioning evidence has probability zero: no state matches it."""


class CoverEnumeration(_Value):
    """Every antichain of cliques whose union of pairwise edges is exactly E(G)."""

    graph: Graph
    covers: tuple[GeneratingClass, ...]
    _fields = ("graph", "covers")

    def __init__(self, graph: Graph, covers: tuple[GeneratingClass, ...]) -> None:
        super().__init__(graph, covers)

    def __len__(self) -> int:
        return len(self.covers)


def _size_rates(schedule: RateSchedule, n: int) -> list[float]:
    return [schedule.rate(n, r) for r in range(n + 1)]


def _presence(rate: float) -> float:
    # 1 - e^{-rate}, accurate for small rates
    return -math.expm1(-rate)


def _absent_rate(n: int, rates: list[float], present: Iterable[int], smallest: int) -> float:
    """Sum over r >= ``smallest`` of (C(n, r) - #``present`` of size r) * rates[r],
    each count split into its bits, so every addend is exact and ``math.fsum``
    rounds once; math.inf when a partial sum leaves the float range."""
    sizes = [a.bit_count() for a in present]
    counts = [(r, math.comb(n, r) - sizes.count(r)) for r in range(smallest, n + 1)]
    try:
        return math.fsum(math.ldexp(rates[r], j) for r, k in counts for j in range(k.bit_length()) if k >> j & 1)
    except OverflowError:
        return math.inf


def clique_set(graph: Graph) -> tuple[int, ...]:
    """Every vertex mask of cardinality >= 2 inducing a complete subgraph, ascending."""
    return _cliques(graph.n, graph_to_edge_mask(graph))


def _cliques(n: int, edges: int) -> tuple[int, ...]:
    pmt = pair_masks(n)
    return tuple(a for a in all_masks(n) if a.bit_count() >= 2 and pmt[a] & ~edges == 0)


def _suffix_unions(cliques: list[int] | tuple[int, ...], masks: Mapping[int, int]) -> list[int]:
    """Entry i: the union of the ``masks`` of ``cliques[i:]``."""
    return list(itertools.accumulate(reversed(cliques), lambda u, a: u | masks[a], initial=0))[::-1]


def _cover_weight(
    cliques: tuple[int, ...],
    presence: Mapping[int, float],
    masks: Mapping[int, int],
    target: int,
) -> float:
    """Sum over subsets S of ``cliques`` whose ``masks`` clear every bit of
    ``target`` of prod_{a in S} p(a) * prod_{a not in S} (1 - p(a)).

    One forward pass over the cliques by (-highest vertex, -size, mask): a
    layer maps the bits still to clear to their weight.  A clique that holds
    none of a state's bits passes it on at weight * 1, so a cleared state
    carries on to the end; a state the cliques ahead cannot clear is dropped.
    """
    order = sorted(cliques, key=lambda a: (-a.bit_length(), -a.bit_count(), a))
    suffix = _suffix_unions(order, masks)
    layer = {target: 1.0}
    for a, ahead in zip(order, suffix[1:]):
        q, clear = presence[a], masks[a]
        step: dict[int, float] = {}
        for needed, weight in layer.items():
            if not needed & clear:
                step[needed] = step.get(needed, 0.0) + weight
                continue
            if not needed & ~ahead:
                step[needed] = step.get(needed, 0.0) + (1.0 - q) * weight
            if not needed & ~clear & ~ahead:
                step[needed & ~clear] = step.get(needed & ~clear, 0.0) + q * weight
        layer = step
    return layer.get(0, 0.0)


def _walk_setup(graph: Graph, walk: str) -> tuple[tuple[int, ...], tuple[int, ...], int]:
    """``graph``'s cliques, pair masks and edge mask; ResourceCapError past CLIQUE_SUBSET_CAP cliques."""
    edges = graph_to_edge_mask(graph)
    cliques = _cliques(graph.n, edges)
    if len(cliques) > CLIQUE_SUBSET_CAP:
        raise ResourceCapError(f"graph has {len(cliques)} cliques, {walk} cap is {CLIQUE_SUBSET_CAP}")
    return cliques, pair_masks(graph.n), edges


def enumerate_monotone_covers(graph: Graph) -> CoverEnumeration:
    """All generating classes of cliques (cardinality >= 2) projecting exactly to ``graph``."""
    cliques, pmt, target = _walk_setup(graph, "enumeration")
    k = len(cliques)
    suffix = _suffix_unions(cliques, pmt)

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

    # walk's closure holds walk itself: without the del, the cycle keeps
    # ``covers`` alive until the cyclic garbage collector runs
    try:
        walk(0, 0)
    finally:
        del walk
    covers.sort(key=lambda gc: gc.sorted_masks())
    return CoverEnumeration(graph, tuple(covers))


# ---------------------------------------------------------------------------
# Point masses and intervals of the support-family law
# ---------------------------------------------------------------------------

def family_point_prob(family: SubsetFamily, schedule: RateSchedule) -> float:
    """P(support = family): presence factors for members, survival for the rest."""
    rates = _size_rates(schedule, family.n)
    present = math.prod(_presence(rates[a.bit_count()]) for a in family.sorted_masks())
    return present * interval_prob(family, schedule)


def interval_prob(family: SubsetFamily, schedule: RateSchedule) -> float:
    """P(support <= family), i.e. no subset outside the family is present:
    exp of minus their total rate, one exact sum by sizes (``_absent_rate``),
    so 0.0 when it overflows.  The power-set cap applies as to a subset loop."""
    all_masks(family.n)
    return math.exp(-_absent_rate(family.n, _size_rates(schedule, family.n), family.members, 0))


# ---------------------------------------------------------------------------
# The projected graph law
# ---------------------------------------------------------------------------

def _graph_rates(schedule: RateSchedule, n: int) -> list[float]:
    """lambda_n(0..n); ValueError when sum_r C(n, r) lambda_n(r), r >= 2, overflows."""
    rates = _size_rates(schedule, n)
    if not math.isfinite(total := _absent_rate(n, rates, (), 2)):
        raise ValueError(f"level {n}: the total rate of subsets with at least two elements overflows ({total})")
    return rates


def _law_cap(n: int, cap: int | None) -> None:
    if n < 0:
        raise ValueError(f"level must be >= 0, got {n}")
    cap = GRAPH_ENUM_CAP if cap is None else cap
    if n > cap:
        raise ResourceCapError(f"whole-level graph law needs 2**{n * (n - 1) // 2} entries (cap n <= {cap})")


# NumPy copies a pass's runs through its ufunc buffer when they are shorter
# than half of it (8192 elements by default); runs of 1024-2048 cells then cost
# about twice as much per cell.  The shortest run of a high-bit pass is
# 2^(nbits // 2) cells, 1024 at n = 7.
_PASS_BUFSIZE = 1024
# Cells per row tile: 1 MiB of float64, half of a 2 MiB L2 cache, so a tile's
# exp, its k low passes and the high passes inside it stay in cache; it also
# sets which high passes run inside a tile (17 of 21 bits at n = 7).  Larger
# tiles measured slower at n = 7.
_TILE_CELLS = 1 << 17


def _passes(x: np.ndarray, positions: range, op: np.ufunc, width: int = 1) -> None:
    """One butterfly pass ``x[e | bit] = op(x[e | bit], x[e])`` per bit position,
    in order; index bit p has flat stride ``width << p``."""
    for p in positions:
        view = x.reshape(-1, 2, width << p)
        op(view[:, 1, :], view[:, 0, :], out=view[:, 1, :])


def _row_tiles(nbits: int) -> tuple[int, int, int]:
    """k = nbits // 2; the rows of 2^k cells (one row per high part) per tile,
    about ``_TILE_CELLS`` cells, at least one row and at most all of them; and
    c = k + the trailing zero bits of that count.  Tiles start at multiples of
    it, and a pass over bit p pairs cells only inside one aligned block of
    2^(p + 1) cells, so the passes over bits k .. c - 1 pair cells inside one
    tile; ``_law`` describes how the tiles are swept.
    """
    k = nbits // 2
    step = max(1, min(_TILE_CELLS >> k, 1 << nbits - k))
    return k, step, k + (step & -step).bit_length() - 1


def _cpus() -> int:
    """The CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _helper(nbits: int) -> contextlib.AbstractContextManager[ThreadPoolExecutor | None]:
    """A one-thread executor for ``_halves`` of a cube of 2^nbits cells, which
    takes the upper half of each of ``_law``'s jobs, else a context that holds
    None.

    It opens when the process may run on two CPUs and the cube has at least
    16 row tiles, so that each half holds whole tiles and the two threads'
    tile buffers stay within 1/8 of the cube: from n = 7 (16 tiles) on, never
    at n <= 6 (one tile).  The thread starts with the first job and is joined
    on exit, so none outlives the ``with`` block, and ``concurrent.futures``
    (which imports ``logging``) is imported only here.  NumPy keeps the ufunc
    buffer size and the floating-point error state per thread (1.x) or per
    context (2.x), so the thread takes the caller's, as they are when the
    helper is opened.
    """
    k, step, _ = _row_tiles(nbits)
    if (1 << nbits - k) // step < 16 or _cpus() < 2:
        return contextlib.nullcontext()
    from concurrent.futures import ThreadPoolExecutor

    import numpy as np

    bufsize, err = np.getbufsize(), np.geterr()

    def adopt() -> None:
        np.setbufsize(bufsize)
        np.seterr(**err)

    return ThreadPoolExecutor(1, initializer=adopt)


def _halves(pool: ThreadPoolExecutor | None, work: Callable[..., object], *arrays: np.ndarray) -> None:
    """``work(*arrays)`` on the caller if ``pool`` is None.

    Otherwise ``work`` runs once on the lower halves of the flat ``arrays``,
    on the caller, and once on their upper halves, on the ``pool``'s thread
    if that thread has started them by the time the caller is done, else on
    the caller too: the caller never waits for the thread to take up the
    job.  Once both halves are done, an error in either is raised in the
    caller, the lower half's if both raise.
    """
    if pool is None:
        work(*arrays)
        return
    lower, upper = zip(*(a.reshape(2, -1) for a in arrays))
    share = pool.submit(work, *upper)
    try:
        work(*lower)
    except BaseException:
        if not share.cancel():  # the pool thread took up the job
            share.exception()
        raise
    if share.cancel():
        work(*upper)
    else:
        share.result()


def _law(n: int, rates: list[float]) -> np.ndarray:
    """The law of every graph on [n] under the size rates ``rates``, by the
    whole-level kernel: F(e) = P(graph <= e) = exp(T(e) - T(full)), T(e) the
    total rate of the cliques inside e, by a subset-sum (zeta) transform over
    the edge lattice, inverted by a Moebius pass, in one level-sized array.

    Both transforms take the bits in order 0 .. nbits - 1, so every cell
    sees the same float operations, in the same order, as the plain per-bit
    butterfly, whatever the tiles and the threads:

    * At most 2^n - n - 1 cells hold a clique (its pair mask), and a pass over
      one of the low k = nbits // 2 bits adds only within a row of 2^k cells
      that share their high bits.  So the low zeta passes run on one column
      per nonzero row, low bits on axis 0 so that runs are long, and the
      columns are then scattered into the natural layout; every other row
      stays 0.0, as the butterfly leaves it.
    * One ``sweep`` runs both transforms' other passes below the top bit.  A
      pass over bit p pairs cells only inside one aligned block of 2^(p + 1)
      cells, so the passes over bits k .. c - 1 run on one cache-sized row
      tile at a time (``_row_tiles``), and only the bits from c on sweep the
      whole array: 4 of 21 at n = 7, none at n <= 6.  A pass streams runs of
      2^p cells, and NumPy's per-run overhead dominates on short ones, so the
      Moebius sweep first copies each tile transposed into a buffer of its
      thread's own, low bits on axis 0, as it takes the subtraction of T(full)
      (the zeta transform's own last cell); there the tile takes the exp and
      the low passes in runs of at least one cell per tile row, and is copied
      back.
    * Every pass but the one over the top index bit pairs cells inside one
      half of the cube, and NumPy releases the GIL inside each ufunc.  So
      each sweep runs by ``_halves`` of the cube, the upper half on the
      ``_helper`` thread when one opens (from n = 7 on two CPUs), and then
      the top pass by ``_halves`` of its two operands.
    * The passes run with NumPy's ufunc buffer at ``_PASS_BUFSIZE``, restored
      afterwards, and the helper is joined before this returns.
    """
    import numpy as np

    pmt = pair_masks(n)
    nbits = n * (n - 1) // 2
    k, step, c = _row_tiles(nbits)
    bufsize = np.getbufsize()
    np.setbufsize(_PASS_BUFSIZE)
    try:
        with _helper(nbits) as pool:
            # 0.0 + rate is the dense scatter's own addition (it turns -0.0 into 0.0)
            cells = {pmt[a]: 0.0 + rates[a.bit_count()] for a in all_masks(n) if a.bit_count() >= 2}
            keys = np.fromiter(cells, np.int64, len(cells))
            rows, column = np.unique(keys >> k, return_inverse=True)
            low = np.zeros((1 << k, rows.size))
            low[keys & (1 << k) - 1, column] = np.fromiter(cells.values(), float, len(cells))
            _passes(low, range(k), np.add, rows.size)
            law = np.zeros(1 << nbits)
            law.reshape(-1, 1 << k)[rows] = low.T
            del low

            def sweep(part: np.ndarray, op: np.ufunc) -> None:
                table = part.reshape(-1, 1 << k)
                buf = np.empty(step << k) if op is np.subtract else None
                for r in range(0, len(table), step):
                    natural = table[r : r + step]
                    if buf is not None:
                        tile = buf[: natural.size].reshape(1 << k, -1)
                        np.subtract(natural.T, total, out=tile)
                        np.exp(tile, out=tile)
                        _passes(tile, range(k), np.subtract, len(natural))
                        np.copyto(natural, tile.T)
                    _passes(natural, range(k, min(c, nbits - 1)), op)
                _passes(part, range(c, nbits - 1), op)

            for op in np.add, np.subtract:
                _halves(pool, functools.partial(sweep, op=op), law)
                if nbits:
                    _halves(pool, lambda lo, hi: op(hi, lo, out=hi), *law.reshape(2, -1))
                total = float(law[-1])  # T(full), once the zeta transform is done
            return law
    finally:
        np.setbufsize(bufsize)


def graph_law(n: int, schedule: RateSchedule, *, cap: int | None = None) -> np.ndarray:
    """Exact probability of every graph on [n], indexed by edge bitmask.

    Bit b of the index carries edge ``edge_bit_pairs(n)[b]``.  Computed by the
    whole-level zeta/Moebius kernel (see ``_law``); every cell is
    bit-identical to the plain per-bit butterfly, whatever the thread count.
    Cost O(2^C(n,2) * C(n,2)) time, and memory for the returned array plus a
    1 MiB tile per thread (n = 7: a 16 MiB law in about 20 ms on two CPUs,
    30 ms on one).
    Raises ValueError when the level's total rate overflows.
    """
    _law_cap(n, cap)
    return _law(n, _graph_rates(schedule, n))


def graph_prob(graph: Graph, schedule: RateSchedule, *, cap: int | None = None) -> float:
    """P(projected graph = graph), exactly, from sums of non-negative terms.

    Up to CLIQUE_SUBSET_CAP cliques, one non-negative exponent prices the
    absent subsets, times the cliques' cover weight from one forward pass
    (``_cover_weight``).
    Otherwise splits off the vertex whose neighbourhood spans the fewest
    edges (see ``_cell``): that needs the whole laws at level n - 1, built
    by the vertex step (``_positive_law``), or, when the neighbourhood spans
    no edge, two cells a level down.  K7 takes about 3-5 ms with a 1.1 MiB
    ``tracemalloc`` peak; K6 plus a pendant edge at n = 7, about 0.4-0.7 ms
    and level-5 laws only; one thread either way.  The power-set cap applies
    before any level-sized sum, the level cap of ``graph_law`` to the split.
    Raises ValueError when the level's total rate overflows.
    """
    pair_masks(graph.n)  # the power-set cap, before the level total
    return _prob(graph.n, _graph_rates(schedule, graph.n), graph_to_edge_mask(graph), cap)


def _prob(n: int, rates: list[float], edges: int, cap: int | None = None) -> float:
    """P(graph = ``edges``) on [n] under the size rates ``rates``: up to
    CLIQUE_SUBSET_CAP cliques, the absent subsets priced by one non-negative
    exponent times the cover weight (``_cover_weight``), else ``_cell``
    (level cap)."""
    cliques = _cliques(n, edges)
    if len(cliques) > CLIQUE_SUBSET_CAP:
        _law_cap(n, cap)
        return _cell(n, rates, edges)
    pmt = pair_masks(n)
    presence = {a: _presence(rates[a.bit_count()]) for a in cliques}
    weight = _cover_weight(cliques, presence, pmt, edges)
    return math.exp(-_absent_rate(n, rates, cliques, 2)) * weight


def _cell(n: int, rates: list[float], edges: int) -> float:
    """P(graph = e) for the graph e = ``edges`` on [n], by splitting off one
    vertex; every term is >= 0.

    The law is exchangeable, so the vertex whose neighbourhood N spans the
    fewest edges of e is relabelled n.  Let e' be the edges of e inside
    [n - 1].  The subsets inside [n - 1] make a graph C' with the level-(n - 1)
    law h at the rates lambda_n(r).  A subset b + {n} adds the edges (i, n),
    i in b, and pairs(b), so e is hit exactly when every such b lies inside N,
    the b's cover N and C' + D = e', D the union of pairs(b) over |b| >= 2.
    Those b form a subset process on [n - 1] at the rates lambda_n(r + 1),
    with graph law h'; a singleton b runs at rate lambda_n(2), present with
    probability p1 and absent with s1.  So with g(D) = h'(D) *
    p1^(vertices of N isolated in D) * s1^(n - 1 - |N|) for D inside E(e[N])
    and Q(X) = sum of g(D) over D containing X (superset passes that add),
    P = sum over C' of h(C') * Q(e' - C').  When E(e[N]) is empty that is one
    term, h'(empty) * p1^|N| * s1^(n - 1 - |N|) * h(e'), and h(e') and
    h'(empty) are cells a level down (``_prob``).
    """
    import numpy as np

    pmt = pair_masks(n)
    neighbours = [0] * (n + 1)
    for b, (i, j) in enumerate(edge_bit_pairs(n)):
        if edges >> b & 1:
            neighbours[i] |= 1 << j - 1
            neighbours[j] |= 1 << i - 1
    v = min(range(n, 0, -1), key=lambda u: (pmt[neighbours[u]] & edges).bit_count())
    if v != n:
        edges = sum(1 << d for b, d in enumerate(_swap_bits(n, v, n)) if edges >> b & 1)
    below = (n - 1) * (n - 2) // 2
    lower, star = edges & (1 << below) - 1, edges >> below
    inner, size = pmt[star] & lower, star.bit_count()
    p1, outside = _presence(rates[2]), (n - 1 - size) * rates[2]
    if not inner:
        return math.exp(-outside) * p1**size * _prob(n - 1, rates[1:], 0) * _prob(n - 1, rates[:n], lower)
    # every D inside E(e[N]), bit i of its position carrying the i-th edge of
    # ``inner``: its edge mask and the vertices its edges touch
    cells, touched = np.zeros(1, np.int32), np.zeros(1, np.uint8)
    for b, (i, j) in enumerate(edge_bit_pairs(n - 1)):
        if inner >> b & 1:
            cells = np.concatenate((cells, cells | 1 << b))
            touched = np.concatenate((touched, touched | 1 << i - 1 | 1 << j - 1))
    factors = np.array([math.exp(-outside) * p1 ** (star & ~t).bit_count() for t in range(1 << n - 1)])
    # g in reverse, so that its subset sums are Q at the complement of each D
    q = _positive_law(n - 1, rates[1:])[cells[::-1]] * factors[touched[::-1]]
    _passes(q, range(inner.bit_count()), np.add)
    terms = _positive_law(n - 1, rates[:n])[lower & ~inner | cells] * q
    while terms.size > 1:  # pairwise, the same float on every NumPy version
        terms = terms[1::2] + terms[0::2]
    return float(terms[0])


# A clique whose rate passes ln 2 enters the vertex step by the normalized
# update, so that every weight expm1(rate) of the others is at most 1
_WEIGHT_RATE = math.log(2)


def _positive_law(n: int, rates: list[float]) -> np.ndarray:
    """The law of every graph on [n] under the size rates ``rates``, from sums
    of non-negative terms: level m is built from level m - 1 by adding vertex
    m (``_vertex_step``).  Used at levels <= 6, where it takes about 1 ms."""
    import numpy as np

    law = np.ones(1)
    for m in range(2, n + 1):
        law = _vertex_step(law, m, rates)
    return law


def _vertex_step(h: np.ndarray, m: int, rates: list[float]) -> np.ndarray:
    """The level-m law from the level-(m - 1) law ``h``, both at ``rates``.

    The edges (i, m) are the top m - 1 bits of the level-m index, so the law
    J is rows R (the neighbours of m) by columns (graphs on [m - 1]).  Row 0
    starts as h times the survival of every clique b + {m} with rate at most
    ``_WEIGHT_RATE``; such a clique then adds w * X(J), w = expm1(rate), where
    X(J) is J summed over the clique's pair bits K and placed in the cells
    that hold all of K.  A clique of a larger rate takes the normalized update
    J = s * J + p * X(J), s = exp(-rate), p = 1 - s.

    Phase j, for j = 1 .. m - 1, adds the cliques whose largest vertex below
    m is j.  It reads the rows L inside [j - 1], which it scales at most, and
    writes the rows U that hold j and no larger vertex, empty until then.
    The pair {j, m} sets U = w * L (or U = p * L, L = s * L).  Then
    b' + {j, m}, b' a nonempty subset of [j - 1], is visited as a trie
    (``_phase_plan``): the marginal M(b') of V = L + U over the bits K'(b')
    of b' + {j, m} other than row j is its parent's marginal halved over the
    bits that b' adds, a first-level node that of L + U.  Its add goes into
    U's K'(b') corner, into the corner of every marginal on its path that is
    read again, and into M(b') itself.
    """
    import numpy as np

    nbits = m * (m - 1) // 2
    below = nbits - (m - 1)
    weighted = sum(math.comb(m - 1, k) * rates[k + 1] for k in range(1, m) if rates[k + 1] <= _WEIGHT_RATE)
    law = np.zeros(1 << nbits)
    np.multiply(h, math.exp(-weighted), out=law[: 1 << below])
    # axis t carries index bit nbits - 1 - t; row bit i - 1 (vertex i) is axis m - 1 - i
    cube = law.reshape((2,) * nbits)
    factors = [_clique_factors(rate) for rate in rates[: m + 1]]
    for j in range(1, m):
        fixed = (0,) * (m - 1 - j)
        # Ellipsis keeps a view where every axis is fixed (m = 2)
        lower, upper = cube[fixed + (0, ...)], cube[fixed + (1, ...)]
        coef, scale = factors[2]
        np.multiply(lower, coef, out=upper)
        if scale != 1.0:
            lower *= scale
        marginals: list = [None] * j
        for depth, halvings, corner, kept, stored in _phase_plan(m, j):
            x = lower + upper if depth == 1 else marginals[depth - 1]
            for one, zero in halvings:
                x = x[one] + x[zero]
            marginals[depth] = x
            coef, scale = factors[depth + 2]
            if not coef:
                continue
            add = x * coef
            if scale != 1.0:
                for y in [lower, upper] + [marginals[a] for a, _ in kept]:
                    y *= scale
            elif stored:
                x += add
            upper[corner] += add
            for a, rel in kept:
                marginals[a][rel] += add
    return law


def _clique_factors(rate: float) -> tuple[float, float]:
    """(w, 1.0) with w = expm1(rate) for a clique priced into row 0, else the
    normalized update's (p, s)."""
    if rate <= _WEIGHT_RATE:
        return math.expm1(rate), 1.0
    return -math.expm1(-rate), math.exp(-rate)


@functools.lru_cache(maxsize=None)
def _phase_plan(m: int, j: int) -> tuple:
    """The trie of phase j of ``_vertex_step`` at level m, in depth-first
    order: per node b' (children b' + {i}, i < min b'), its depth |b'|, the
    (one, zero) indices that halve its parent's marginal over each bit b'
    adds, its corner in U, the (depth, corner) of each marginal on its path
    that a later node reads, and whether a child reads its own.  L and U
    carry bit b on axis nr - 1 - b; a marginal drops the axes it sums, and
    an index fixes bits and drops their axes, so every corner has the axes
    of the add that goes into it.
    """
    below = (m - 1) * (m - 2) // 2
    nr = below + j - 1

    def at(summed: frozenset[int], bits: frozenset[int], value: int = 1) -> tuple:
        index = [value if b in bits else slice(None) for b in range(nr - 1, -1, -1) if b not in summed]
        while index and index[-1] == slice(None):
            index.pop()
        return (*index, ...)

    plan = []

    def visit(members: tuple[int, ...], summed: frozenset[int], kept: tuple) -> None:
        depth, least = len(members), members[-1] if members else j
        for i in range(1, least):
            new = sorted({below + i - 1} | {edge_index(i, y) for y in members + (j,)})
            bits = summed.union(new)
            # a later child of this node reads its marginal
            path = kept + ((depth, summed),) if depth and i < least - 1 else kept
            halvings = tuple((at(bits.difference(new[t:]), {b}), at(bits.difference(new[t:]), {b}, 0))
                             for t, b in enumerate(new))
            rels = tuple((a, at(s, bits - s)) for a, s in path)
            plan.append((depth + 1, halvings, at(frozenset(), bits), rels, i > 1))
            visit(members + (i,), bits, path)

    visit((), frozenset(), ())
    return tuple(plan)


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

def _conditional(subset: int, graph: Graph, schedule: RateSchedule, chosen: Callable[[int], bool]) -> float:
    """P(some clique a with ``chosen(a)`` present | projected graph): one flag
    bit above the edge bits, held by the chosen cliques, is cleared only when
    one of them is present, so the answer is the cover weight of the edges and
    the flag over that of the edges, each a sum of non-negative terms."""
    if subset.bit_count() < 2:
        raise ValueError("cluster queries need at least two vertices")
    if subset & ~full_mask(graph.n):
        raise ValueError(f"subset {elements_of(subset)} exceeds vertex set [{graph.n}]")
    cliques, pmt, edges = _walk_setup(graph, "conditional")
    rates = _size_rates(schedule, graph.n)
    presence = {a: _presence(rates[a.bit_count()]) for a in cliques}
    whole = _cover_weight(cliques, presence, pmt, edges)
    if whole == 0.0:
        raise ValueError("graph has probability zero under this schedule")
    flag = 1 << graph.n * (graph.n - 1) // 2
    flagged = {a: pmt[a] | flag if chosen(a) else pmt[a] for a in cliques}
    return _cover_weight(cliques, presence, flagged, edges | flag) / whole


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
    return _conditional(subset, graph, schedule, lambda a: a == subset)


def coarse_cluster_prob(subset: int, graph: Graph, schedule: RateSchedule) -> float:
    """P(some latent point covers ``subset`` | projected graph).

    The covering point must itself be a clique of the observed graph, so the
    answer is 0 whenever no clique contains ``subset``.
    """
    return _conditional(subset, graph, schedule, lambda a: mask_leq(subset, a))


def classify_extension(
    support: SubsetFamily, observed: Graph, schedule: RateSchedule
) -> dict[SubsetFamily, float]:
    """Posterior over supports on [n+1] given the support on [n] and the graph on [n+1].

    Every member e stays, gains the new vertex v, or both.  The evidence fixes
    only N(v): a member outside it stays, and the members gaining v must cover
    it exactly.  Every candidate shares the absence of every other subset and
    the staying members' presences, so it is weighed by the other members'
    factors alone, each member's three scaled exactly by one power of two.
    """
    n = support.n
    if observed.n != n + 1:
        raise ValueError(f"observed graph must have {n + 1} vertices, got {observed.n}")
    if {e for e in observed.edges if e[1] <= n} != clique_graph(monotone_cover(support)).edges:
        raise ValueError("observed graph restricted to the old vertices contradicts the known support")
    members = support.sorted_masks()
    if len(members) > EXTENSION_MEMBERS_CAP:
        raise ResourceCapError(f"support has {len(members)} members, extension cap is {EXTENSION_MEMBERS_CAP}")
    v = 1 << n
    neighbours = sum(1 << (i - 1) for i, j in observed.edges if j == n + 1)
    rates = _size_rates(schedule, n + 1)
    p = [_presence(rate) for rate in rates]
    s = [math.exp(-rate) for rate in rates]
    stays = frozenset(f for f in members if f & ~neighbours)
    options = []  # (members kept, factor, vertices joined to v) for stay, gain v, both
    for e, r in ((e, e.bit_count()) for e in members if e not in stays):
        factors = p[r] * s[r + 1], s[r] * p[r + 1], p[r] * p[r + 1]
        shift = -math.frexp(max(factors))[1]
        stay, gain, both = (math.ldexp(x, shift) for x in factors)
        options.append((((e,), stay, 0), ((e | v,), gain, e), ((e, e | v), both, e)))

    candidates: list[tuple[SubsetFamily, float]] = []
    for picks in itertools.product(*options):
        if functools.reduce(operator.or_, (joined for _, _, joined in picks), 0) == neighbours:
            masks = stays.union(*(kept for kept, _, _ in picks))
            candidates.append((SubsetFamily(n + 1, masks), math.prod(factor for _, factor, _ in picks)))
    if not candidates:
        raise InconsistentEvidenceError("no support on the extended vertex set matches the evidence")
    total = math.fsum(w for _, w in candidates)
    if total == 0.0 or any(p[f.bit_count()] == 0.0 for f in stays):
        raise InconsistentEvidenceError("every support matching the evidence has probability zero")
    candidates.sort(key=lambda item: item[0].sorted_masks())
    return {family: weight / total for family, weight in candidates}


# ---------------------------------------------------------------------------
# Law-level diagnostics
# ---------------------------------------------------------------------------

def marginal_restriction_check(
    schedule: RateSchedule, m: int, n: int, *, cap: int | None = None
) -> float:
    """Max over graphs G on [m] of |P_m(G) - P(level-n graph restricted to [m] = G)|.

    Zero (to rounding) exactly when the schedule is consistent across levels.
    The level-n process restricted to [m] is itself a subset process on [m]:
    b is hit when some a with a & [m] = b is present, independently across b,
    at the pushed rate Lambda(#b) = sum_j C(n - m, j) lambda_n(#b + j), which
    ``math.fsum`` rounds correctly from its non-negative terms.  So the
    restricted law is the level-m law at the pushed rates: the check builds
    two level-m laws and no level-n array.  The level cap and the overflow
    check of level n still apply.
    """
    import numpy as np

    if not 1 <= m < n:
        raise ValueError(f"need 1 <= m < n, got m={m}, n={n}")
    law_m = graph_law(m, schedule, cap=cap)
    _law_cap(n, cap)
    rates = _graph_rates(schedule, n)
    pushed = [math.fsum(math.comb(n - m, j) * rates[s + j] for j in range(n - m + 1)) for s in range(m + 1)]
    return float(np.abs(_law(m, pushed) - law_m).max())


def _swap_bits(n: int, j: int, m: int) -> list[int]:
    """Entry b: the edge bit that the swap of vertices j and m moves edge bit b to."""
    rename = {j: m, m: j}
    return [edge_index(*sorted((rename.get(x, x), rename.get(y, y)))) for x, y in edge_bit_pairs(n)]


def _swap_axes(n: int, j: int, m: int) -> list[int]:
    """The transpose of the (2,) * C(n,2) edge cube that swaps vertices j and
    m.  In C order axis t carries edge bit top - t, and the swap moves edge
    bit b to dest[b]."""
    dest = _swap_bits(n, j, m)
    top = len(dest) - 1
    return [top - dest[top - t] for t in range(len(dest))]


def exchangeability_discrepancy(schedule: RateSchedule, n: int, *, cap: int | None = None) -> float:
    """Max over relabelings sigma and graphs G of |P(G) - P(sigma G)| at level n.

    Relabelings form a group, so this is the largest spread of the law within
    one isomorphism orbit: the max over orbits of the largest P minus the
    least.  Float subtraction is monotone, so the result is bit-identical to
    the pairwise maximum over all n! relabelings.  The orbits come from
    ``_orbits(n)``, kept for the last n <= 7 it was called with; each call
    then gathers the law in orbit order and takes one maximum and one minimum
    per orbit.  Cost: one gather over the 2^C(n,2) cells, and memory for the
    law and its gathered copy (n = 6: under 1 ms; n = 7: about 50 ms once the
    orbits are built, which takes about 0.3 s the first time).  At n = 8 the
    orbits (1 GiB) are built on every call and not kept.  The orbit fold
    needs one cube axis per edge, and NumPy 1.x allows 32, so n <= 8; at
    n = 9 the law itself (2^36 cells) cannot be allocated.
    """
    import numpy as np

    _law_cap(n, cap)
    # before the law, so that the peak holds one law
    order, starts = (_orbits if n <= 7 else _orbits.__wrapped__)(n)
    x = graph_law(n, schedule, cap=cap)[order]
    return float((np.maximum.reduceat(x, starts) - np.minimum.reduceat(x, starts)).max())


@functools.lru_cache(maxsize=1)
def _orbits(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The cells of the level-n law sorted by isomorphism orbit (``int32``),
    and the position where each orbit starts.

    Each cell's orbit is named by its least index, folded in along the
    stabilizer chain S_2 < ... < S_n: S_m is the union of the cosets
    S_{m-1} tau_{j,m}, j < m, where tau_{j,m} swaps vertices j and m, so
    level m folds in the minimum at tau_{j,m} G.  A relabeling only reorders
    the C(n,2) edge bits, so each tau_{j,m} is a transpose of the indices
    viewed as a (2,) * C(n,2) cube, folded in by one in-place minimum; NumPy
    computes ufuncs on overlapping operands as if the input were copied
    first.  The orbits are then numbered in ``uint16`` (12,346 at n = 8), so
    that a stable sort by number is a radix sort.  The layout is half a level
    of ``int32``: 8 MiB at n = 7, 1 GiB at n = 8, which is why the cache
    keeps one layout and ``exchangeability_discrepancy`` keeps none past 7.
    """
    import numpy as np

    size = 1 << n * (n - 1) // 2
    least = np.arange(size, dtype=np.int32)
    cube = least.reshape((2,) * (n * (n - 1) // 2))
    for m in range(2, n + 1):
        for j in range(1, m):
            np.minimum(cube, cube.transpose(_swap_axes(n, j, m)), out=cube)
    number = np.zeros(size, np.uint16)
    least_cells = np.flatnonzero(least == np.arange(size, dtype=np.int32))
    number[least_cells] = np.arange(least_cells.size)
    number = number[least]
    del least, cube
    order = np.argsort(number, kind="stable").astype(np.int32)
    starts = np.concatenate(([0], np.cumsum(np.bincount(number))[:-1]))
    order.flags.writeable = starts.flags.writeable = False  # shared by every caller
    return order, starts
