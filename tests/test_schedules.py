import json
import math
import random

import pytest
from scipy.integrate import quad

from poissonclique.schedules import (
    BetaUniformSchedule,
    ConsistencyReport,
    GeometricSchedule,
    MomentAtomsSchedule,
    TableSchedule,
    check_consistency,
    constant_table,
    derive_lower,
    require_real,
    schedule_from_dict,
)

from oracles import random_schedule


# ---------------------------------------------------------------------------
# Rate evaluation
# ---------------------------------------------------------------------------

def test_geometric_closed_form():
    s = GeometricSchedule(alpha=0.5, c=1.0)
    assert s.rate(3, 2) == 0.125
    assert s.rate(0, 0) == 1.0


def test_beta_uniform_matches_quadrature():
    # the rate must be the uniform-measure moment integral of x^r (1-x)^(n-r)
    s = BetaUniformSchedule(c=1.0)
    assert math.isclose(s.rate(2, 1), 1 / 6, abs_tol=1e-15)
    for n in range(7):
        for r in range(n + 1):
            integral, _ = quad(lambda x: x**r * (1 - x) ** (n - r), 0, 1)
            assert math.isclose(s.rate(n, r), integral, abs_tol=1e-12)


def test_single_atom_equals_geometric():
    atom = MomentAtomsSchedule(((0.5, 1.0),))
    geom = GeometricSchedule(alpha=0.5, c=1.0)
    for n in range(9):
        for r in range(n + 1):
            assert atom.rate(n, r) == geom.rate(n, r) == 0.5**n


def test_boundary_atom():
    s = MomentAtomsSchedule(((1.0, 1.0),))
    for n in range(1, 5):
        for r in range(n + 1):
            assert s.rate(n, r) == (1.0 if r == n else 0.0)


def test_two_atom_arithmetic():
    s = MomentAtomsSchedule(((0.3, 2.0), (0.8, 1.0)))
    assert math.isclose(s.rate(2, 1), 2 * 0.3 * 0.7 + 1 * 0.8 * 0.2, abs_tol=1e-15)


def test_table_lookup_and_sparseness():
    s = TableSchedule({3: (0.1, 0.2, 0.3, 0.4)})
    assert s.rate(3, 2) == 0.3
    assert s.n_max == 3
    with pytest.raises(ValueError):
        s.rate(2, 1)


def test_rate_argument_errors():
    s = GeometricSchedule(alpha=0.5)
    with pytest.raises(ValueError):
        s.rate(2, 3)
    with pytest.raises(ValueError):
        s.rate(2, -1)
    with pytest.raises(ValueError):
        s.rate(-1, 0)


def test_parameter_validation():
    with pytest.raises(ValueError):
        GeometricSchedule(alpha=0.0)
    with pytest.raises(ValueError):
        GeometricSchedule(alpha=1.0)
    with pytest.raises(ValueError):
        GeometricSchedule(alpha=0.5, c=0.0)
    with pytest.raises(ValueError):
        BetaUniformSchedule(c=-1.0)
    with pytest.raises(ValueError):
        MomentAtomsSchedule(((1.5, 1.0),))
    with pytest.raises(ValueError):
        MomentAtomsSchedule(((0.5, 0.0),))
    with pytest.raises(ValueError):
        TableSchedule({2: (0.1, 0.2)})
    with pytest.raises(ValueError):
        TableSchedule({1: (0.1, -0.2)})
    with pytest.raises(ValueError):
        TableSchedule({})


def test_rates_never_negative():
    rng = random.Random(99)
    for _ in range(10):
        s = random_schedule(rng)
        for n in range(7):
            for r in range(n + 1):
                assert s.rate(n, r) >= 0.0


# ---------------------------------------------------------------------------
# Cross-level recurrence
# ---------------------------------------------------------------------------

def test_geometric_consistency_exact():
    report = check_consistency(GeometricSchedule(alpha=0.5, c=1.0), 6)
    assert report.max_violation == 0.0
    assert report.ok


def test_beta_uniform_consistency():
    report = check_consistency(BetaUniformSchedule(c=1.0), 6)
    assert report.max_violation <= 1e-12


def test_all_ones_table_witness():
    report = check_consistency(constant_table(2, 1.0), 2)
    assert not report.ok
    assert report.max_violation == 1.0
    assert (1, 0, 1.0, 2.0) in report.witnesses


def test_random_consistent_schedules():
    rng = random.Random(4)
    for _ in range(10):
        assert check_consistency(random_schedule(rng), 6).max_violation <= 1e-10


def test_report_invariant():
    report = check_consistency(GeometricSchedule(alpha=0.3), 8, tol=1e-12)
    assert isinstance(report, ConsistencyReport)
    assert report.ok == (report.max_violation <= report.tol)
    with pytest.raises(ValueError):
        check_consistency(GeometricSchedule(alpha=0.3), 0)


# ---------------------------------------------------------------------------
# derive_lower
# ---------------------------------------------------------------------------

def test_derive_lower_uniform_row():
    table = derive_lower([0.125, 0.125, 0.125, 0.125])
    assert table.rows[2] == (0.25, 0.25, 0.25)
    assert table.rows[1] == (0.5, 0.5)
    assert table.rows[0] == (1.0,)


def test_derive_lower_two_entry_row():
    assert derive_lower([0.7, 0.4]).rows[0] == (1.1,)


def test_derive_lower_from_beta_row():
    beta = BetaUniformSchedule(c=1.0)
    table = derive_lower([beta.rate(2, r) for r in range(3)])
    assert table.rows[2] == (1 / 3, 1 / 6, 1 / 3)
    for r in range(2):
        assert math.isclose(table.rate(1, r), beta.rate(1, r), abs_tol=1e-15)


def test_derive_lower_matches_geometric_closed_form():
    geom = GeometricSchedule(alpha=0.5, c=1.0)
    table = derive_lower([geom.rate(6, r) for r in range(7)])
    for n in range(7):
        for r in range(n + 1):
            assert math.isclose(table.rate(n, r), geom.rate(n, r), abs_tol=1e-14)
    assert check_consistency(table, 6).max_violation == 0.0


def test_derive_lower_rejects_bad_rows():
    with pytest.raises(ValueError):
        derive_lower([])
    with pytest.raises(ValueError):
        derive_lower([0.5, -0.1])


def test_from_moment_measure():
    s = MomentAtomsSchedule(((0.5, 1.0),))
    assert isinstance(s, MomentAtomsSchedule)
    assert s.rate(4, 2) == 0.5**4
    with pytest.raises(ValueError):
        MomentAtomsSchedule(((-0.2, 1.0),))


# ---------------------------------------------------------------------------
# Wire format
# ---------------------------------------------------------------------------

def test_schedule_dict_roundtrip():
    examples = [
        GeometricSchedule(alpha=0.25, c=2.0),
        BetaUniformSchedule(c=0.5),
        MomentAtomsSchedule(((0.3, 2.0), (0.8, 1.0))),
        TableSchedule({3: (0.1, 0.2, 0.3, 0.4), 2: (0.3, 0.5, 0.7)}),
    ]
    for s in examples:
        doc = s.to_dict()
        assert schedule_from_dict(doc) == s
        assert schedule_from_dict(json.loads(json.dumps(doc))) == s


def test_schedule_from_dict_errors():
    with pytest.raises(ValueError):
        schedule_from_dict({"kind": "mystery"})
    with pytest.raises(ValueError):
        schedule_from_dict({})
    with pytest.raises(ValueError):
        schedule_from_dict({"kind": "geometric"})
    with pytest.raises(ValueError):
        schedule_from_dict({"kind": "table", "rows": {"2": [0.1]}})


def test_require_real_accepts_only_json_numbers():
    assert require_real(2, "x") == 2.0 and isinstance(require_real(2, "x"), float)
    assert require_real(0.25, "x") == 0.25
    for bad in (True, False, None, "0.5", [0.5]):
        with pytest.raises(ValueError, match="x must be a number"):
            require_real(bad, "x")
    with pytest.raises(ValueError, match="float range"):
        require_real(10**400, "x")


@pytest.mark.parametrize(
    "doc",
    [
        {"kind": "beta_uniform", "c": True},
        {"kind": "beta_uniform", "c": None},
        {"kind": "geometric", "alpha": "0.25", "c": 2},
        {"kind": "geometric", "alpha": 0.25, "c": "2"},
        {"kind": "moment_atoms", "atoms": [["0.3", 1.0]]},
        {"kind": "moment_atoms", "atoms": [[0.3, True]]},
        {"kind": "table", "rows": {"1": [None, 1.0]}},
        {"kind": "table", "rows": {"1": [0.5, "1"]}},
    ],
)
def test_schedule_documents_need_json_number_reals(doc):
    with pytest.raises(ValueError, match="must be a number"):
        schedule_from_dict(doc)


def test_integer_reals_read_as_floats():
    # a JSON integer is a number: it reads, and echoes, as a float
    assert schedule_from_dict({"kind": "geometric", "alpha": 0.5, "c": 1}).to_dict() == {
        "kind": "geometric",
        "alpha": 0.5,
        "c": 1.0,
    }
    table = schedule_from_dict({"kind": "table", "rows": {"1": [0, 2]}})
    assert table.to_dict()["rows"] == {"1": [0.0, 2.0]}
    # the library constructors keep taking Python numbers
    assert derive_lower([1, 0]).to_dict()["rows"]["0"] == [1.0]
