"""Bitmask toolkit for the three nested structures the generative model walks through:
subset families, their least monotone covers (each a ``GeneratingClass``: the
family of its maximal elements, pairwise incomparable), and the graphs obtained
by projecting each maximal element to a clique.

Conventions
-----------
* A subset of the ground set {1, ..., n} is a plain ``int``: bit ``i-1`` is set
  iff ``i`` is in the subset.  The empty set is ``0``.
* Enumerations emit subsets in increasing bit-pattern order, so all derived
  output is deterministic.
* Cost model: loops over the power set are ``2**n`` (capped at
  ``POWERSET_CAP``); loops over the space of families are ``2**(2**n)`` and only
  feasible up to ``FAMILY_SPACE_CAP``.

Every operation here is a pure function of immutable values; results can be
shared freely across threads.
"""

from __future__ import annotations

import itertools
from functools import lru_cache
from typing import Iterable, Iterator, NoReturn

POWERSET_CAP = 16
FAMILY_SPACE_CAP = 4


class ResourceCapError(RuntimeError):
    """An exhaustive enumeration would exceed its configured cap."""


def full_mask(n: int) -> int:
    """Bitmask of the whole ground set {1, ..., n}."""
    return (1 << n) - 1


def mask_of(elements: Iterable[int], n: int) -> int:
    """Build a subset mask from 1-based element labels, validating the range."""
    mask = 0
    for e in elements:
        if not 1 <= e <= n:
            raise ValueError(f"element {e} outside ground set [{n}]")
        mask |= 1 << (e - 1)
    return mask


def elements_of(mask: int) -> tuple[int, ...]:
    """1-based element labels of a subset mask, ascending."""
    out = []
    i = 1
    while mask:
        if mask & 1:
            out.append(i)
        mask >>= 1
        i += 1
    return tuple(out)


def mask_leq(a: int, b: int) -> bool:
    """Subset inclusion a <= b on bitmasks."""
    return a & ~b == 0


def iter_submasks(mask: int) -> Iterator[int]:
    """All submasks of ``mask``, including 0 and ``mask`` itself."""
    sub = mask
    while True:
        yield sub
        if sub == 0:
            return
        sub = (sub - 1) & mask


def all_masks(n: int) -> range:
    """Every subset of {1, ..., n} in canonical order."""
    if n < 0:
        raise ValueError(f"level must be >= 0, got {n}")
    if n > POWERSET_CAP:
        raise ResourceCapError(f"power-set iteration needs 2**{n} masks (cap {POWERSET_CAP})")
    return range(1 << n)


class _Value:
    """Base of the immutable value types.  A class's fields are its own
    annotations in order, or its parent's when it has none, so a class constant
    goes unannotated.  ``__init__`` binds positional values, then named ones;
    an instance equals only an instance of its own class with equal fields,
    hashes and prints by its fields, and refuses assignment and deletion."""

    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls, **kwargs: object) -> None:
        super().__init_subclass__(**kwargs)
        cls._fields = tuple(cls.__annotations__) or cls._fields

    def __init__(self, *values: object, **named: object) -> None:
        fields = self._fields
        if named or len(values) != len(fields):
            values += tuple(named.pop(name) for name in fields[len(values):] if name in named)
            if named or len(values) != len(fields):
                raise TypeError(f"{type(self).__name__} takes each of its fields {fields} once")
        self.__dict__.update(zip(fields, values))

    def _astuple(self) -> tuple:
        return tuple(map(self.__dict__.__getitem__, self._fields))

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self._astuple() == other._astuple()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._astuple())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={value!r}" for name, value in zip(self._fields, self._astuple()))
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name: str, value: object) -> NoReturn:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> NoReturn:
        raise AttributeError(f"cannot delete field {name!r}")


class _FrozenDict(dict):
    """A dict field of a value type: it prints, compares, pickles and copies
    as a dict, hashes by its items, and item assignment, deletion and every
    mutating method raise TypeError."""

    def _refuse(self, *args: object, **kwargs: object) -> NoReturn:
        raise TypeError("a value's mapping cannot be changed")

    __setitem__ = __delitem__ = __ior__ = clear = pop = popitem = setdefault = update = _refuse

    def __hash__(self) -> int:
        return hash(frozenset(self.items()))

    def __reduce__(self) -> tuple:
        return type(self), (dict(self),)


class SubsetFamily(_Value):
    """A duplicate-free collection of subsets of {1, ..., n}."""

    n: int
    members: frozenset[int]

    def __init__(self, n: int, members: Iterable[int]) -> None:
        super().__init__(n, frozenset(members))
        if n < 0:
            raise ValueError("ground-set size must be non-negative")
        top = full_mask(n)
        for a in self.members:
            if a & ~top:
                raise ValueError(f"member {elements_of(a)} exceeds ground set [{n}]")

    @classmethod
    def from_sets(cls, n: int, sets: Iterable[Iterable[int]]) -> "SubsetFamily":
        return cls(n, frozenset(mask_of(s, n) for s in sets))

    def sorted_masks(self) -> tuple[int, ...]:
        return tuple(sorted(self.members))

    def member_sets(self) -> tuple[tuple[int, ...], ...]:
        return tuple(elements_of(a) for a in self.sorted_masks())

    def __contains__(self, mask: int) -> bool:
        return mask in self.members

    def __len__(self) -> int:
        return len(self.members)


class GeneratingClass(SubsetFamily):
    """An antichain ``SubsetFamily``: the maximal elements determining a monotone set.

    The empty antichain is the minimal monotone set; the antichain {[n]} is the
    maximal one.  The downward closure is never materialized, so a family function
    sees the maximal members only; the monotone order is ``leq_generating_class``.
    """

    def __init__(self, n: int, members: Iterable[int]) -> None:
        super().__init__(n, members)
        for a, b in itertools.combinations(self.members, 2):
            if mask_leq(a, b) or mask_leq(b, a):
                raise ValueError(
                    f"not an antichain: {elements_of(a)} and {elements_of(b)} are comparable"
                )

    @property
    def maximal(self) -> frozenset[int]:
        return self.members


class Graph(_Value):
    """Undirected graph on vertices {1, ..., n}; edges stored as (i, j) with i < j."""

    n: int
    edges: frozenset[tuple[int, int]]

    def __init__(self, n: int, edges: Iterable[tuple[int, int]]) -> None:
        super().__init__(n, frozenset(edges))
        if n < 0:
            raise ValueError("vertex count must be non-negative")
        for i, j in self.edges:
            if not (1 <= i < j <= n):
                raise ValueError(f"edge ({i}, {j}) invalid on vertex set [{n}]")

    @classmethod
    def from_edges(cls, n: int, pairs: Iterable[tuple[int, int]]) -> "Graph":
        edges = set()
        for i, j in pairs:
            if i == j:
                raise ValueError(f"self-loop at vertex {i}")
            edges.add((min(i, j), max(i, j)))
        return cls(n, frozenset(edges))

    def sorted_edges(self) -> tuple[tuple[int, int], ...]:
        return tuple(sorted(self.edges))

    def __len__(self) -> int:
        return len(self.edges)


class Permutation(_Value):
    """A bijection of {1, ..., n}; ``images[i-1]`` is the image of ``i``."""

    images: tuple[int, ...]

    def __init__(self, images: Iterable[int]) -> None:
        super().__init__(tuple(images))
        n = len(self.images)
        if sorted(self.images) != list(range(1, n + 1)):
            raise ValueError(f"images {self.images} are not a bijection of [{n}]")

    @property
    def n(self) -> int:
        return len(self.images)

    @classmethod
    def identity(cls, n: int) -> "Permutation":
        return cls(tuple(range(1, n + 1)))

    def apply_to_mask(self, mask: int) -> int:
        return sum(1 << self.images[i - 1] - 1 for i in elements_of(mask))


# ---------------------------------------------------------------------------
# Restriction and permutation maps on the three levels
# ---------------------------------------------------------------------------

def restrict_family(family: SubsetFamily, m: int) -> SubsetFamily:
    """Intersect every member with {1, ..., m}; duplicates merge."""
    if not 1 <= m <= family.n:
        raise ValueError(f"restriction target {m} outside 1..{family.n}")
    top = full_mask(m)
    return SubsetFamily(m, frozenset(a & top for a in family.members))


def permute_family(family: SubsetFamily, sigma: Permutation) -> SubsetFamily:
    """Apply a permutation of the ground set to every member."""
    if sigma.n != family.n:
        raise ValueError(f"permutation size {sigma.n} != ground-set size {family.n}")
    return SubsetFamily(family.n, frozenset(sigma.apply_to_mask(a) for a in family.members))


def maximal_masks(masks: Iterable[int]) -> frozenset[int]:
    """Maximal elements under inclusion (the antichain of an arbitrary collection)."""
    ordered = sorted(set(masks), key=lambda a: (-a.bit_count(), a))
    kept: list[int] = []
    for a in ordered:
        if not any(mask_leq(a, b) for b in kept):
            kept.append(a)
    return frozenset(kept)


def monotone_cover(family: SubsetFamily) -> GeneratingClass:
    """Least monotone cover of a family, as the antichain of its maximal members."""
    return GeneratingClass(family.n, maximal_masks(family.members))


def restrict_generating_class(gc: GeneratingClass, m: int) -> GeneratingClass:
    """Intersect each maximal element with {1, ..., m} and re-extract the antichain.

    Restriction can make previously incomparable elements comparable, so a
    fresh maximal-element pass is required.
    """
    return GeneratingClass(m, maximal_masks(restrict_family(gc, m).members))


def permute_generating_class(gc: GeneratingClass, sigma: Permutation) -> GeneratingClass:
    return GeneratingClass(gc.n, permute_family(gc, sigma).members)


def clique_graph(gc: GeneratingClass) -> Graph:
    """Graph whose edge set is the union of cliques on the antichain elements."""
    edges = set()
    for a in gc.members:
        labels = elements_of(a)
        edges.update(itertools.combinations(labels, 2))
    return Graph(gc.n, frozenset(edges))


def restrict_graph(graph: Graph, m: int) -> Graph:
    """Induced subgraph on vertices {1, ..., m}."""
    if not 1 <= m <= graph.n:
        raise ValueError(f"restriction target {m} outside 1..{graph.n}")
    return Graph(m, frozenset(e for e in graph.edges if e[1] <= m))


def permute_graph(graph: Graph, sigma: Permutation) -> Graph:
    if sigma.n != graph.n:
        raise ValueError(f"permutation size {sigma.n} != vertex count {graph.n}")
    return Graph.from_edges(
        graph.n,
        ((sigma.images[i - 1], sigma.images[j - 1]) for i, j in graph.edges),
    )


def preimage_sup(family: SubsetFamily, n: int) -> SubsetFamily:
    """Largest family on {1, ..., n} whose restriction to the original ground set
    is ``family``: every member extended by every subset of the new labels."""
    if n <= family.n:
        raise ValueError(f"target size {n} must exceed current size {family.n}")
    if n > POWERSET_CAP:
        raise ResourceCapError(f"extension enumeration needs 2**{n - family.n} submasks per member")
    ext = full_mask(n) ^ full_mask(family.n)
    members = frozenset(e | s for e in family.members for s in iter_submasks(ext))
    return SubsetFamily(n, members)


# ---------------------------------------------------------------------------
# The three partial orders
# ---------------------------------------------------------------------------

def _check_same_n(a: int, b: int) -> None:
    if a != b:
        raise ValueError(f"ground-set sizes differ: {a} != {b}")


def leq_family(e1: SubsetFamily, e2: SubsetFamily) -> bool:
    """Containment of families: every member of e1 is a member of e2."""
    _check_same_n(e1.n, e2.n)
    return e1.members <= e2.members


def leq_generating_class(f1: GeneratingClass, f2: GeneratingClass) -> bool:
    """Monotone-set containment: each element of f1 lies below some element of f2."""
    _check_same_n(f1.n, f2.n)
    return all(any(mask_leq(a, b) for b in f2.members) for a in f1.members)


def leq_graph(g1: Graph, g2: Graph) -> bool:
    """Edge-set containment."""
    _check_same_n(g1.n, g2.n)
    return g1.edges <= g2.edges


# ---------------------------------------------------------------------------
# Family-space enumeration (oracle-scale only)
# ---------------------------------------------------------------------------

def all_families(n: int) -> Iterator[SubsetFamily]:
    """Every family on {1, ..., n}, ordered by the 2**(2**n)-bit characteristic code."""
    if n > FAMILY_SPACE_CAP:
        raise ResourceCapError(f"family-space iteration needs 2**(2**{n}) families (cap {FAMILY_SPACE_CAP})")
    masks = list(all_masks(n))
    for code in range(1 << len(masks)):
        yield SubsetFamily(n, frozenset(a for a in masks if code >> a & 1))


def all_antichains(n: int) -> Iterator[GeneratingClass]:
    """Every antichain on {1, ..., n} (one per monotone set), canonical order."""
    if n > FAMILY_SPACE_CAP:
        raise ResourceCapError(f"antichain iteration scans 2**(2**{n}) families (cap {FAMILY_SPACE_CAP})")
    for family in all_families(n):
        if maximal_masks(family.members) == family.members:
            yield GeneratingClass(n, family.members)


# ---------------------------------------------------------------------------
# Edge-bit encoding of graphs (used by exact computation and batch sampling)
# ---------------------------------------------------------------------------

def edge_index(i: int, j: int) -> int:
    """Bit position of edge (i, j), i < j; edges inside [m] occupy a prefix."""
    return (j - 1) * (j - 2) // 2 + (i - 1)


@lru_cache(maxsize=None)
def edge_bit_pairs(n: int) -> tuple[tuple[int, int], ...]:
    """Edge (i, j) carried by each bit position, for graphs on [n]."""
    return tuple((i, j) for j in range(2, n + 1) for i in range(1, j))


@lru_cache(maxsize=None)
def pair_masks(n: int) -> tuple[int, ...]:
    """For each vertex mask, the edge-bit mask of all pairs inside it.

    Built from smaller masks: spread[a] sets bit (j-1)(j-2)/2 for each vertex j
    of a.  With w the lowest vertex of a and rest = a minus w, every j in rest
    exceeds w, so the edges (w, j) are spread[rest] << (w - 1).
    """
    if n > POWERSET_CAP:
        raise ResourceCapError(f"pair-mask table needs 2**{n} entries (cap {POWERSET_CAP})")
    table = [0] * (1 << n)
    spread = [0] * (1 << n)
    for a in range(1, 1 << n):
        low = a & -a
        rest, w = a ^ low, low.bit_length()
        spread[a] = spread[rest] | 1 << (w - 1) * (w - 2) // 2
        table[a] = table[rest] | spread[rest] << (w - 1)
    return tuple(table)


def graph_to_edge_mask(graph: Graph) -> int:
    mask = 0
    for i, j in graph.edges:
        mask |= 1 << edge_index(i, j)
    return mask


def edge_mask_to_graph(n: int, mask: int) -> Graph:
    pairs = edge_bit_pairs(n)
    if not 0 <= mask < 1 << len(pairs):
        raise ValueError(f"edge mask {mask} outside [0, 2^{len(pairs)}) for n = {n}")
    return Graph(n, frozenset(pairs[b] for b in range(len(pairs)) if mask >> b & 1))
