"""Value semantics of the package's twelve immutable types: repr, equality only
within one class, hashing by field values, refusal of assignment and deletion,
pickle and copy round trips, keyword construction and validation messages.

The reprs are the strings the types have printed since they were first written;
a change to any of them changes what users see in logs and doctests.
"""

import copy
import pickle

import pytest

from poissonclique.inference import CoverEnumeration
from poissonclique.lattice import GeneratingClass, Graph, Permutation, SubsetFamily
from poissonclique.sampling import PipelineSample, PointProcessRealization
from poissonclique.schedules import (
    BetaUniformSchedule,
    ConsistencyReport,
    GeometricSchedule,
    MomentAtomsSchedule,
    TableSchedule,
)


def _family():
    return SubsetFamily(3, frozenset({3, 6}))


def _cover():
    return GeneratingClass(3, frozenset({3, 6}))


def _triangle():
    return Graph(3, frozenset({(1, 2), (2, 3), (1, 3)}))


def _realization():
    return PointProcessRealization(3, {6: 1, 3: 1}, 7, "bernoulli")


TRIANGLE_REPR = "Graph(n=3, edges=frozenset({(2, 3), (1, 2), (1, 3)}))"
REALIZATION_REPR = "PointProcessRealization(n=3, counts={3: 1, 6: 1}, seed=7, method='bernoulli')"

# (factory, repr, field names); every factory builds a fresh, equal value
VALUES = {
    "SubsetFamily": (_family, "SubsetFamily(n=3, members=frozenset({3, 6}))", ("n", "members")),
    "GeneratingClass": (_cover, "GeneratingClass(n=3, members=frozenset({3, 6}))", ("n", "members")),
    "Graph": (_triangle, TRIANGLE_REPR, ("n", "edges")),
    "Permutation": (lambda: Permutation((2, 1, 3)), "Permutation(images=(2, 1, 3))", ("images",)),
    "GeometricSchedule": (
        lambda: GeometricSchedule(alpha=0.5, c=1.0),
        "GeometricSchedule(alpha=0.5, c=1.0)",
        ("alpha", "c"),
    ),
    "BetaUniformSchedule": (lambda: BetaUniformSchedule(c=2.0), "BetaUniformSchedule(c=2.0)", ("c",)),
    "MomentAtomsSchedule": (
        lambda: MomentAtomsSchedule([(0.25, 1), [1, 0.5]]),
        "MomentAtomsSchedule(atoms=((0.25, 1.0), (1.0, 0.5)))",
        ("atoms",),
    ),
    "TableSchedule": (
        lambda: TableSchedule({1: [0.5, 0.5], 0: (1,)}),
        "TableSchedule(rows={1: (0.5, 0.5), 0: (1.0,)})",
        ("rows",),
    ),
    "ConsistencyReport": (
        lambda: ConsistencyReport(2, 1e-12, 0.0, ((1, 0, 1.0, 0.5),)),
        "ConsistencyReport(n_max=2, tol=1e-12, max_violation=0.0, witnesses=((1, 0, 1.0, 0.5),))",
        ("n_max", "tol", "max_violation", "witnesses"),
    ),
    "PointProcessRealization": (_realization, REALIZATION_REPR, ("n", "counts", "seed", "method")),
    "PipelineSample": (
        lambda: PipelineSample(_realization(), _family(), _cover(), _triangle()),
        f"PipelineSample(realization={REALIZATION_REPR}, "
        "support=SubsetFamily(n=3, members=frozenset({3, 6})), "
        f"cover=GeneratingClass(n=3, members=frozenset({{3, 6}})), graph={TRIANGLE_REPR})",
        ("realization", "support", "cover", "graph"),
    ),
    "CoverEnumeration": (
        lambda: CoverEnumeration(_triangle(), (_cover(),)),
        f"CoverEnumeration(graph={TRIANGLE_REPR}, covers=(GeneratingClass(n=3, members=frozenset({{3, 6}})),))",
        ("graph", "covers"),
    ),
}

# a realization's counts are a dict, so it and a pipeline sample holding one
# have no hash
UNHASHABLE = {"PointProcessRealization", "PipelineSample"}

by_name = pytest.mark.parametrize("name", sorted(VALUES))


@by_name
def test_repr_is_unchanged(name):
    make, text, _ = VALUES[name]
    assert repr(make()) == text


@by_name
def test_equal_only_within_one_class(name):
    make = VALUES[name][0]
    a, b = make(), make()
    assert a is not b and a == b and not a != b
    if name not in UNHASHABLE:
        assert hash(a) == hash(b)
        assert {a: 0}[b] == 0
    for other, (make_other, _, _) in VALUES.items():
        if other != name:
            assert a != make_other() and make_other() != a


def test_a_family_never_equals_its_cover():
    members = frozenset({3, 6})
    assert SubsetFamily(3, members) != GeneratingClass(3, members)
    assert len({SubsetFamily(3, members), GeneratingClass(3, members)}) == 2


@by_name
def test_fields_refuse_assignment_and_deletion(name):
    make, _, fields = VALUES[name]
    value = make()
    for field in fields + ("extra",):
        with pytest.raises(AttributeError, match=f"cannot assign to field '{field}'"):
            setattr(value, field, None)
        with pytest.raises(AttributeError, match=f"cannot delete field '{field}'"):
            delattr(value, field)
    assert value == make()


@by_name
def test_pickle_and_copy_round_trip(name):
    make = VALUES[name][0]
    value = make()
    copies = [pickle.loads(pickle.dumps(value, protocol)) for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]
    copies += [copy.copy(value), copy.deepcopy(value)]
    for twin in copies:
        assert type(twin) is type(value) and twin == value and repr(twin) == repr(value)
        with pytest.raises(AttributeError):
            setattr(twin, VALUES[name][2][0], None)


def test_keyword_construction_and_defaults():
    assert GeometricSchedule(alpha=0.5).c == 1.0
    assert GeometricSchedule(0.5) == GeometricSchedule(alpha=0.5, c=1.0)
    assert BetaUniformSchedule().c == 1.0
    assert MomentAtomsSchedule(atoms=((0.5, 1.0),)) == MomentAtomsSchedule(((0.5, 1.0),))
    assert TableSchedule(rows={0: (1.0,)}) == TableSchedule({0: (1.0,)})
    assert SubsetFamily(n=3, members=frozenset({3})) == SubsetFamily(3, frozenset({3}))
    assert GeneratingClass(n=3, members=frozenset({3})) == GeneratingClass(3, frozenset({3}))
    assert Graph(n=2, edges=frozenset({(1, 2)})) == Graph(2, frozenset({(1, 2)}))
    assert Permutation(images=(2, 1)) == Permutation((2, 1))
    report = ConsistencyReport(n_max=2, tol=0.1, max_violation=0.0, witnesses=())
    assert report == ConsistencyReport(2, 0.1, 0.0, ()) and report.ok
    realization = PointProcessRealization(n=2, counts={1: 2}, seed=3, method="inversion")
    assert realization == PointProcessRealization(2, {1: 2}, 3, "inversion")
    sample = PipelineSample(realization=_realization(), support=_family(), cover=_cover(), graph=_triangle())
    assert sample == PipelineSample(_realization(), _family(), _cover(), _triangle())
    assert sample.n == 3 and sample.seed == 7
    assert CoverEnumeration(graph=_triangle(), covers=()) == CoverEnumeration(_triangle(), ())


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: SubsetFamily(-1, frozenset()), "ground-set size must be non-negative"),
        (lambda: SubsetFamily(2, frozenset({4})), "member (3,) exceeds ground set [2]"),
        (lambda: GeneratingClass(2, frozenset({4})), "member (3,) exceeds ground set [2]"),
        (lambda: GeneratingClass(2, frozenset({1, 3})), "not an antichain: (1,) and (1, 2) are comparable"),
        (lambda: Graph(-1, frozenset()), "vertex count must be non-negative"),
        (lambda: Graph(2, frozenset({(2, 1)})), "edge (2, 1) invalid on vertex set [2]"),
        (lambda: Permutation((1, 1)), "images (1, 1) are not a bijection of [2]"),
        (lambda: GeometricSchedule(1.0), "alpha must lie strictly inside (0, 1), got 1.0"),
        (lambda: GeometricSchedule(0.5, 0.0), "c must be finite and positive, got 0.0"),
        (lambda: BetaUniformSchedule(-1.0), "c must be finite and positive, got -1.0"),
        (lambda: MomentAtomsSchedule(((2.0, 1.0),)), "atom location 2.0 outside [0, 1]"),
        (lambda: MomentAtomsSchedule(((0.5, 0.0),)), "atom weight 0.0 must be finite and positive"),
        (lambda: MomentAtomsSchedule(((0.5, 1e308), (0.5, 1e308))), "total atom weight inf must be finite"),
        (lambda: TableSchedule({-1: ()}), "level -1 must be non-negative"),
        (lambda: TableSchedule({1: (1.0,)}), "row for level 1 must have 2 entries, got 1"),
        (lambda: TableSchedule({0: (-1.0,)}), "rate -1.0 at level 0 must be finite and non-negative"),
        (lambda: TableSchedule({}), "table needs at least one row"),
        (lambda: PointProcessRealization(3, {}, -1, "inversion"), "seed must be an integer in [0, 2^64), got -1"),
        (lambda: PointProcessRealization(3, {}, 1, "x"), "unknown sampling method 'x'"),
        (lambda: PointProcessRealization(1, {2: 1}, 1, "inversion"), "mask 0x2 exceeds ground set [1]"),
        (lambda: PointProcessRealization(1, {1: -1}, 1, "inversion"), "counts must be non-negative"),
        (
            lambda: PointProcessRealization(1, {1: 2}, 1, "bernoulli"),
            "a bernoulli realization carries presence only, got count 2",
        ),
    ],
)
def test_validation_messages(build, message):
    with pytest.raises(ValueError) as excinfo:
        build()
    assert str(excinfo.value) == message


def test_values_built_from_sets_and_lists_are_hashable():
    graph = Graph(3, {(1, 2)})
    assert hash(graph) == hash(Graph(3, frozenset({(1, 2)})))
    assert {graph: 1}[Graph(3, [(1, 2)])] == 1
    sigma = Permutation([2, 1, 3])
    assert sigma == Permutation((2, 1, 3)) and hash(sigma) == hash(Permutation((2, 1, 3)))
    assert sigma.apply_to_mask(0b001) == 0b010
    assert hash(SubsetFamily(3, {3, 6})) == hash(_family())
    assert GeneratingClass(3, [6, 3]) == _cover() and hash(GeneratingClass(3, [6, 3])) == hash(_cover())


def test_frozen_and_tuple_input_is_stored_as_is():
    members, edges, images = frozenset({3, 6}), frozenset({(1, 2)}), (2, 1, 3)
    assert SubsetFamily(3, members).members is members
    assert GeneratingClass(3, members).members is members
    assert Graph(3, edges).edges is edges
    assert Permutation(images).images is images
