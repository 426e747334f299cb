import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import poissonclique
from poissonclique.cli import COMMANDS, JSON_FLAGS, main

LN2 = "0.6931471805599453"
LN2_TABLE_3 = '{"kind":"table","n":3,"rows":{"3":[%s,%s,%s,%s]}}' % (LN2, LN2, LN2, LN2)
LN2_TABLE_2 = '{"kind":"table","n":2,"rows":{"2":[%s,%s,%s]}}' % (LN2, LN2, LN2)
GEOM_HALF = '{"kind":"geometric","alpha":0.5,"c":1}'
TRIANGLE = '{"n":3,"edges":[[1,2],[1,3],[2,3]]}'
K6 = json.dumps({"n": 6, "edges": [[i, j] for j in range(2, 7) for i in range(1, j)]})


def run_cli(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(argv, capsys):
    code, out, _ = run_cli(argv, capsys)
    return code, json.loads(out)


def test_transitivity_report(capsys):
    code, doc = run_json(["transitivity", "--schedule", LN2_TABLE_3], capsys)
    assert code == 0
    assert doc["format_version"] == 1
    assert doc["command"] == "transitivity"
    assert math.isclose(doc["results"]["prob"], 0.9, abs_tol=1e-12)


def test_schedule_check_geometric(capsys):
    code, doc = run_json(
        ["schedule", "check", "--kind", "geometric", "--alpha", "0.5", "--c", "1", "--nmax", "8"],
        capsys,
    )
    assert code == 0
    assert doc["results"]["max_violation"] == 0.0
    assert doc["ok"] is True


def test_schedule_check_flags_violation(capsys):
    table = '{"kind":"table","n":2,"rows":{"1":[1,1],"2":[1,1,1]}}'
    code, doc = run_json(["schedule", "check", "--schedule", table, "--nmax", "2"], capsys)
    assert code == 1
    assert doc["ok"] is False
    assert doc["results"]["witnesses"][0]["n"] == 1
    assert doc["results"]["max_violation"] == 1.0


def test_schedule_derive(capsys):
    code, doc = run_json(["schedule", "derive", "--row", "[0.125,0.125,0.125,0.125]"], capsys)
    assert code == 0
    rows = doc["results"]["schedule"]["rows"]
    assert rows["2"] == [0.25, 0.25, 0.25]
    assert rows["0"] == [1.0]


def test_covers_hub_graph(capsys):
    code, doc = run_json(
        ["covers", "--graph", '{"n":4,"edges":[[1,2],[1,3],[2,3],[3,4]]}'], capsys
    )
    assert code == 0
    assert doc["results"]["count"] == 2
    members = {tuple(tuple(m) for m in c["members"]) for c in doc["results"]["covers"]}
    assert ((1, 2, 3), (3, 4)) in members


def test_graph_prob(capsys):
    code, doc = run_json(
        ["graph-prob", "--graph", '{"n":2,"edges":[]}', "--schedule", LN2_TABLE_2], capsys
    )
    assert code == 0
    assert math.isclose(doc["results"]["prob"], 0.5, abs_tol=1e-12)


def test_cluster_prob(capsys):
    code, doc = run_json(
        ["cluster-prob", "--graph", TRIANGLE, "--subset", "[1,2]", "--schedule", LN2_TABLE_3],
        capsys,
    )
    assert code == 0
    assert math.isclose(doc["results"]["prob"], 5 / 9, abs_tol=1e-12)


def test_coarse_cluster_prob(capsys):
    code, doc = run_json(
        [
            "coarse-cluster-prob",
            "--graph",
            TRIANGLE,
            "--subset",
            "[1,2]",
            "--schedule",
            LN2_TABLE_3,
        ],
        capsys,
    )
    assert code == 0
    assert doc["results"]["prob"] == 1.0


def test_classify(capsys):
    code, doc = run_json(
        [
            "classify",
            "--support",
            '{"n":1,"members":[[1]]}',
            "--graph",
            '{"n":2,"edges":[[1,2]]}',
            "--schedule",
            LN2_TABLE_2,
        ],
        capsys,
    )
    assert code == 0
    candidates = doc["results"]["candidates"]
    assert len(candidates) == 2
    for candidate in candidates:
        assert math.isclose(candidate["prob"], 0.5, abs_tol=1e-12)


def test_check_consistency(capsys):
    code, doc = run_json(
        ["check-consistency", "--schedule", GEOM_HALF, "--n", "4"], capsys
    )
    assert code == 0
    assert doc["results"]["max_discrepancy"] < 1e-10

    bad = '{"kind":"table","n":3,"rows":{"2":[0.3,0.3,0.3],"3":[0.3,0.3,0.3,0.3]}}'
    code, doc = run_json(
        ["check-consistency", "--schedule", bad, "--m", "2", "--n", "3"], capsys
    )
    assert code == 1
    assert doc["results"]["max_discrepancy"] > 0.01


def test_check_exchangeability(capsys):
    code, doc = run_json(
        ["check-exchangeability", "--schedule", GEOM_HALF, "--n", "4"], capsys
    )
    assert code == 0
    assert doc["results"]["max_discrepancy"] < 1e-10


def test_check_exchangeability_n7(capsys):
    code, doc = run_json(
        ["check-exchangeability", "--schedule", GEOM_HALF, "--n", "7", "--tol", "1e-10"], capsys
    )
    assert code == 0
    assert doc["checks"][0]["pass"] is True
    assert doc["results"]["max_discrepancy"] <= 1e-10


def test_mc_vs_exact_pass_and_fail(capsys):
    base = [
        "mc-vs-exact",
        "--schedule",
        GEOM_HALF,
        "--n",
        "3",
        "--draws",
        "20000",
        "--seed",
        "5",
    ]
    code, doc = run_json(base, capsys)
    assert code == 0
    assert doc["results"]["flagged_cells"] == 0

    code, doc = run_json(
        base + ["--exact-schedule", '{"kind":"geometric","alpha":0.3,"c":1}'], capsys
    )
    assert code == 1
    assert doc["results"]["flagged_cells"] > 0


def test_sample_seeds_and_determinism(capsys):
    argv = ["sample", "--schedule", GEOM_HALF, "--n", "3", "--seed", "11", "--draws", "3"]
    code, first, _ = run_cli(argv, capsys)
    assert code == 0
    code, second, _ = run_cli(argv, capsys)
    assert first == second
    doc = json.loads(first)
    seeds = [s["realization"]["seed"] for s in doc["results"]["samples"]]
    assert seeds == [11, 12, 13]


def test_sample_bernoulli_method(capsys):
    argv = [
        "sample",
        "--schedule",
        GEOM_HALF,
        "--n",
        "3",
        "--seed",
        "11",
        "--method",
        "bernoulli",
    ]
    code, doc = run_json(argv, capsys)
    assert code == 0
    sample = doc["results"]["samples"][0]
    assert sample["realization"]["method"] == "bernoulli"
    assert all(entry["count"] == 1 for entry in sample["realization"]["counts"])


def test_stdin_document(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", __import__("io").StringIO(TRIANGLE))
    code, doc = run_json(["covers", "--graph", "-"], capsys)
    assert code == 0
    assert doc["results"]["count"] == 2


@pytest.mark.parametrize("command", ["cluster-prob", "coarse-cluster-prob"])
def test_subset_from_stdin_matches_inline(command, capsys, monkeypatch):
    argv = [command, "--graph", TRIANGLE, "--schedule", LN2_TABLE_3, "--subset"]
    code, inline, _ = run_cli(argv + ["[2,1]"], capsys)
    assert code == 0
    monkeypatch.setattr("sys.stdin", __import__("io").StringIO("[2,1]"))
    code, piped, _ = run_cli(argv + ["-"], capsys)
    assert code == 0
    assert piped == inline
    assert json.loads(inline)["inputs"]["subset"] == [1, 2]


@pytest.mark.parametrize("draws", ["0", "-5"])
def test_sample_rejects_non_positive_draws(draws, capsys):
    code, out, err = run_cli(
        ["sample", "--schedule", GEOM_HALF, "--n", "3", "--seed", "1", "--draws", draws], capsys
    )
    assert code == 2
    assert out == ""
    assert "draws" in err


@pytest.mark.parametrize(
    "schedule",
    [
        '{"kind":"moment_atoms","atoms":[[0.5,Infinity]]}',
        '{"kind":"geometric","alpha":0.5,"c":Infinity}',
        '{"kind":"beta_uniform","c":Infinity}',
    ],
)
def test_non_finite_schedule_parameters_exit_2(schedule, capsys):
    code, out, err = run_cli(["graph-prob", "--graph", TRIANGLE, "--schedule", schedule], capsys)
    assert code == 2
    assert out == ""
    assert "finite" in err


def test_non_finite_result_exits_2_without_stdout(capsys):
    # Finite rates whose sum overflows would give inf - inf = NaN, which strict JSON cannot carry.
    huge = '{"kind":"table","n":3,"rows":{"3":[0,0,1e308,1e308]}}'
    code, out, err = run_cli(["graph-prob", "--graph", TRIANGLE, "--schedule", huge], capsys)
    assert code == 2
    assert out == ""
    assert "error" in err


@pytest.mark.parametrize(
    "graph, schedule, level",
    [
        (TRIANGLE, '{"kind":"table","n":3,"rows":{"3":[0,0,1e308,1e308]}}', 3),
        (K6, '{"kind":"table","n":6,"rows":{"6":[0,0,1e308,0,0,0,0]}}', 6),
    ],
    ids=["clique-walk", "whole-level-fallback"],
)
def test_overflowing_level_total_exits_2_naming_the_level(graph, schedule, level, capsys):
    code, out, err = run_cli(["graph-prob", "--graph", graph, "--schedule", schedule], capsys)
    assert code == 2
    assert out == ""
    assert f"level {level}" in err


def test_graph_prob_fallback_beyond_level_cap_exits_3(capsys):
    k8 = json.dumps({"n": 8, "edges": [[i, j] for j in range(2, 9) for i in range(1, j)]})
    code, out, err = run_cli(["graph-prob", "--graph", k8, "--schedule", GEOM_HALF], capsys)
    assert code == 3
    assert out == ""
    assert "cap" in err


def test_usage_errors(capsys):
    with pytest.raises(SystemExit) as info:
        main(["no-such-command"])
    assert info.value.code == 2
    with pytest.raises(SystemExit) as info:
        main(["transitivity"])
    assert info.value.code == 2

    code, _, err = run_cli(["transitivity", "--schedule", "nonsense"], capsys)
    assert code == 2
    assert "error" in err

    code, _, err = run_cli(
        ["cluster-prob", "--graph", TRIANGLE, "--subset", "[1]", "--schedule", LN2_TABLE_3],
        capsys,
    )
    assert code == 2


def test_resource_cap_exit_code(capsys):
    k6 = json.dumps(
        {"n": 6, "edges": [[i, j] for j in range(2, 7) for i in range(1, j)]}
    )
    code, _, err = run_cli(["covers", "--graph", k6], capsys)
    assert code == 3
    assert "cap" in err


def test_env_cap_override(capsys, monkeypatch):
    monkeypatch.setenv("POISSONCLIQUE_MAX_N", "2")
    code, _, err = run_cli(
        ["check-consistency", "--schedule", GEOM_HALF, "--n", "3"], capsys
    )
    assert code == 3
    monkeypatch.setenv("POISSONCLIQUE_MAX_N", "what")
    code, _, err = run_cli(
        ["check-consistency", "--schedule", GEOM_HALF, "--n", "3"], capsys
    )
    assert code == 2


def test_module_entry_point():
    # the child imports the package from wherever this process found it
    package_root = str(Path(poissonclique.__file__).resolve().parent.parent)
    inherited = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=package_root + (os.pathsep + inherited if inherited else ""))
    completed = subprocess.run(
        [
            sys.executable,
            "-m",
            "poissonclique",
            "graph-prob",
            "--graph",
            '{"n":2,"edges":[]}',
            "--schedule",
            LN2_TABLE_2,
        ],
        capture_output=True,
        text=True,
        env=env,
    )
    assert completed.returncode == 0
    doc = json.loads(completed.stdout)
    assert math.isclose(doc["results"]["prob"], 0.5, abs_tol=1e-12)


# ---------------------------------------------------------------------------
# Table-driven contracts
# ---------------------------------------------------------------------------

# one valid invocation per command; a JSON flag missing here is appended with JSON_VALUES
BASE_ARGV = {
    "sample": ["--schedule", GEOM_HALF, "--n", "3", "--seed", "4", "--draws", "2"],
    "covers": ["--graph", TRIANGLE],
    "graph-prob": ["--graph", TRIANGLE, "--schedule", GEOM_HALF],
    "cluster-prob": ["--graph", TRIANGLE, "--subset", "[2,1]", "--schedule", LN2_TABLE_3],
    "coarse-cluster-prob": ["--graph", TRIANGLE, "--subset", "[1,2]", "--schedule", LN2_TABLE_3],
    "classify": ["--support", '{"n":2,"members":[[1,2]]}', "--graph", TRIANGLE]
    + ["--schedule", GEOM_HALF],
    "transitivity": ["--schedule", GEOM_HALF],
    "schedule check": ["--kind", "moment_atoms", "--atoms", "[[0.3,1],[0.8,2]]", "--nmax", "4"],
    "schedule derive": ["--row", "[0.125,0.125,0.125]"],
    "check-consistency": ["--schedule", GEOM_HALF, "--n", "3"],
    "check-exchangeability": ["--schedule", GEOM_HALF, "--n", "3"],
    "mc-vs-exact": ["--schedule", GEOM_HALF, "--n", "3", "--draws", "200", "--seed", "2"],
}
JSON_VALUES = {"--schedule": GEOM_HALF, "--exact-schedule": GEOM_HALF}
JSON_FLAG_CASES = [
    (name, flag)
    for name, command in COMMANDS.items()
    for flag, _ in command.flags
    if flag in JSON_FLAGS
]


@pytest.mark.parametrize("name, flag", JSON_FLAG_CASES, ids=[" ".join(c) for c in JSON_FLAG_CASES])
def test_every_json_flag_reads_stdin(name, flag, capsys, monkeypatch):
    argv = name.split() + BASE_ARGV[name]
    if flag not in argv:
        argv += [flag, JSON_VALUES[flag]]
    at = argv.index(flag) + 1
    code, inline, err = run_cli(argv, capsys)
    assert code == 0, err
    monkeypatch.setattr("sys.stdin", __import__("io").StringIO(argv[at]))
    code, piped, err = run_cli(argv[:at] + ["-"] + argv[at + 1 :], capsys)
    assert code == 0, err
    assert piped == inline


@pytest.mark.parametrize("command", ["sample", "mc-vs-exact"])
@pytest.mark.parametrize("seed", ["-1", str(1 << 64)])
def test_seed_outside_64_bits_exits_2(command, seed, capsys):
    argv = command.split() + BASE_ARGV[command]
    argv[argv.index("--seed") + 1] = seed
    with pytest.raises(SystemExit) as info:
        main(argv)
    assert info.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--seed" in captured.err


def test_sample_successive_seeds_wrap_modulo_2_64(capsys):
    # the last in-range seed is accepted; its successor wraps to 0
    last = (1 << 64) - 1
    argv = ["sample", "--schedule", GEOM_HALF, "--n", "2", "--seed", str(last), "--draws", "2"]
    code, doc = run_json(argv, capsys)
    assert code == 0
    assert doc["seed"] == last
    assert [s["realization"]["seed"] for s in doc["results"]["samples"]] == [last, 0]


@pytest.mark.parametrize(
    "argv",
    [
        ["graph-prob", "--graph", '{"n":3.7,"edges":[[1,2]]}', "--schedule", GEOM_HALF],
        ["graph-prob", "--graph", '{"n":3,"edges":[[1,2.5]]}', "--schedule", GEOM_HALF],
        ["graph-prob", "--graph", '{"n":3,"edges":[[true,3]]}', "--schedule", GEOM_HALF],
        ["cluster-prob", "--graph", TRIANGLE, "--subset", "[1.9,2]", "--schedule", GEOM_HALF],
        ["cluster-prob", "--graph", TRIANGLE, "--subset", "[true,2]", "--schedule", GEOM_HALF],
        ["classify", "--support", '{"n":2,"members":[[1,2.0]]}', "--graph", TRIANGLE]
        + ["--schedule", GEOM_HALF],
    ],
    ids=["graph n", "edge label", "bool label", "subset float", "subset bool", "support label"],
)
def test_non_integer_labels_exit_2(argv, capsys):
    code, out, err = run_cli(argv, capsys)
    assert code == 2
    assert out == ""
    assert "integer" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["schedule", "derive", "--row", "[null]"],
        ["schedule", "derive", "--row", "[true, 1]"],
        ["schedule", "derive", "--row", '["0.5", 1]'],
        ["transitivity", "--schedule", '{"kind":"beta_uniform","c":true}'],
        ["transitivity", "--schedule", '{"kind":"geometric","alpha":"0.25","c":"2"}'],
        ["transitivity", "--schedule", '{"kind":"moment_atoms","atoms":[["0.3",true]]}'],
        ["graph-prob", "--graph", TRIANGLE]
        + ["--schedule", '{"kind":"table","rows":{"3":[0,0,null,1]}}'],
    ],
    ids=["row null", "row bool", "row string", "bool c", "string alpha", "atoms", "table null"],
)
def test_non_number_reals_exit_2(argv, capsys):
    code, out, err = run_cli(argv, capsys)
    assert code == 2
    assert out == ""
    assert "must be a number" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["schedule", "derive", "--row", "[%d]" % 10**400],
        ["transitivity", "--schedule", '{"kind":"beta_uniform","c":%d}' % 10**400],
    ],
    ids=["row", "schedule c"],
)
def test_integer_real_beyond_float_range_exits_2(argv, capsys):
    # float() of such an integer raises OverflowError, which escaped as a traceback
    code, out, err = run_cli(argv, capsys)
    assert code == 2
    assert out == ""
    assert "beyond the float range" in err


@pytest.mark.parametrize(
    "flags, missing",
    [(["--kind", "geometric"], "alpha"), (["--kind", "moment_atoms"], "atoms")],
)
def test_schedule_check_shorthand_missing_field(flags, missing, capsys):
    code, out, err = run_cli(["schedule", "check", *flags, "--nmax", "3"], capsys)
    assert code == 2
    assert out == ""
    assert f"malformed '{flags[1]}' schedule document: '{missing}'" in err


def test_schedule_check_shorthand_echoes_the_parsed_schedule(capsys):
    # a flag the kind has no field for is dropped, as schedule_from_dict drops it
    argv = ["schedule", "check", "--kind", "beta_uniform", "--alpha", "0.3", "--nmax", "3"]
    code, doc = run_json(argv, capsys)
    assert code == 0
    assert doc["schedule"] == {"kind": "beta_uniform", "c": 1.0}
