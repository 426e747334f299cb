import json

from poissonclique.lattice import GeneratingClass, Graph, SubsetFamily
from poissonclique.sampling import PointProcessRealization, sample_pipeline
from poissonclique.schedules import GeometricSchedule
from poissonclique.serialization import (
    cover_from_dict,
    cover_to_dict,
    dumps,
    family_from_dict,
    family_to_dict,
    graph_from_dict,
    graph_to_dict,
    realization_from_dict,
    realization_to_dict,
    require_int,
    sample_from_dict,
    sample_to_dict,
)

import pytest


def test_graph_roundtrip():
    graph = Graph.from_edges(4, [(3, 4), (1, 2), (1, 3)])
    doc = graph_to_dict(graph)
    assert doc == {"n": 4, "edges": [[1, 2], [1, 3], [3, 4]]}
    assert graph_from_dict(json.loads(json.dumps(doc))) == graph


def test_family_roundtrip_with_empty_member():
    family = SubsetFamily.from_sets(3, [[], [1, 3], [2]])
    doc = family_to_dict(family)
    assert doc["members"][0] == []
    assert family_from_dict(json.loads(json.dumps(doc))) == family


def test_cover_roundtrip():
    cover = GeneratingClass.from_sets(4, [[1, 2, 3], [3, 4]])
    doc = cover_to_dict(cover)
    assert cover_from_dict(json.loads(json.dumps(doc))) == cover


def test_cover_from_dict_rejects_non_antichain():
    with pytest.raises(ValueError):
        cover_from_dict({"n": 2, "members": [[1], [1, 2]]})


def test_realization_roundtrip():
    realization = PointProcessRealization(3, {0b011: 2, 0b100: 1}, 99, "inversion")
    doc = realization_to_dict(realization)
    assert realization_from_dict(json.loads(json.dumps(doc))) == realization


def test_sample_roundtrip():
    sample = sample_pipeline(GeometricSchedule(alpha=0.5), 4, 1729)
    doc = sample_to_dict(sample)
    assert sample_from_dict(json.loads(json.dumps(doc))) == sample


@pytest.mark.parametrize(
    "field, value", [("seed", -1), ("seed", 1 << 64), ("method", "guess"), ("method", None)]
)
def test_realization_readers_reject_seed_or_method_outside_the_domain(field, value):
    doc = sample_to_dict(sample_pipeline(GeometricSchedule(alpha=0.5), 3, 11))
    doc["realization"][field] = value
    with pytest.raises(ValueError, match=field):
        realization_from_dict(doc["realization"])
    with pytest.raises(ValueError, match=field):
        sample_from_dict(doc)


def test_malformed_documents():
    for bad in [{}, {"n": 2}, {"edges": []}, 17]:
        with pytest.raises(ValueError):
            graph_from_dict(bad)
    with pytest.raises(ValueError):
        family_from_dict({"n": 2, "members": [[1, 5]]})


def test_dumps_byte_stable():
    sample = sample_pipeline(GeometricSchedule(alpha=0.5), 3, 55)
    doc = sample_to_dict(sample)
    text = dumps(doc)
    assert text == dumps(sample_to_dict(sample_pipeline(GeometricSchedule(alpha=0.5), 3, 55)))
    assert text.endswith("\n")
    assert json.loads(text) == doc


def test_dumps_rejects_non_finite_floats():
    for bad in (float("nan"), float("inf"), -float("inf")):
        with pytest.raises(ValueError):
            dumps({"prob": bad})


REALIZATION = {"n": 3, "seed": 1, "method": "inversion", "counts": []}


@pytest.mark.parametrize(
    "reader, doc",
    [
        (graph_from_dict, {"n": 3.7, "edges": [[1, 2]]}),
        (graph_from_dict, {"n": 3, "edges": [[1, 2.5]]}),
        (graph_from_dict, {"n": 3, "edges": [[True, 3]]}),
        (graph_from_dict, {"n": 3, "edges": [["1", 3]]}),
        (graph_from_dict, {"n": True, "edges": []}),
        (family_from_dict, {"n": 3, "members": [[1.9, 2]]}),
        (family_from_dict, {"n": 2.0, "members": [[1]]}),
        (cover_from_dict, {"n": 3, "members": [[False]]}),
        (realization_from_dict, {**REALIZATION, "counts": [{"subset": [1.5], "count": 1}]}),
        (realization_from_dict, {**REALIZATION, "counts": [{"subset": [1], "count": 1.5}]}),
        (realization_from_dict, {**REALIZATION, "seed": 1.0}),
    ],
)
def test_readers_reject_non_integer_labels(reader, doc):
    with pytest.raises(ValueError, match="integer"):
        reader(doc)


def test_require_int_accepts_only_int():
    assert require_int(7, "x") == 7
    assert require_int(1 << 70, "x") == 1 << 70
    for bad in (7.0, True, "7", None):
        with pytest.raises(ValueError, match="x must be an integer"):
            require_int(bad, "x")
