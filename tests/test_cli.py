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


@pytest.mark.parametrize("seed", range(10))
def test_mc_vs_exact_passes_the_true_law_at_n5(seed, capsys):
    code, doc = run_json(
        ["mc-vs-exact", "--schedule", GEOM_HALF, "--n", "5", "--draws", "100000", "--seed", str(seed)],
        capsys,
    )
    assert (code, doc["results"]["flagged_cells"]) == (0, 0)


@pytest.mark.parametrize(
    "exact",
    [
        '{"kind":"geometric","alpha":0.48,"c":1}',
        '{"kind":"geometric","alpha":0.5,"c":1.05}',
        '{"kind":"beta_uniform","c":1}',
    ],
)
def test_mc_vs_exact_flags_near_laws_at_n5(exact, capsys):
    argv = ["mc-vs-exact", "--schedule", GEOM_HALF, "--n", "5", "--draws", "100000", "--seed", "3"]
    code, doc = run_json(argv + ["--exact-schedule", exact], capsys)
    assert code == 1
    assert doc["results"]["flagged_cells"] > 0


def test_mc_vs_exact_cells_pass_inside_their_bound(capsys):
    # a law with zero cells: every sampled graph but K3 and the empty one is
    # impossible under it, so its bound is [0, 0] and a single hit fails
    triangles_only = '{"kind":"table","n":3,"rows":{"3":[0,0,0,1]}}'
    argv = ["mc-vs-exact", "--schedule", GEOM_HALF, "--n", "3", "--draws", "5000", "--seed", "4"]
    for extra, exit_code in (([], 0), (["--exact-schedule", triangles_only], 1)):
        code, doc = run_json(argv + extra, capsys)
        assert code == exit_code
        results = doc["results"]
        for cell in results["cells"]:
            low, high = cell["bound"]
            assert 0.0 <= low <= high <= 1.0
            assert cell["pass"] == (low <= cell["empirical"] <= high)
            if cell["exact"] == 0.0:
                assert (low, high) == (0.0, 0.0)
        assert results["flagged_cells"] == sum(not cell["pass"] for cell in results["cells"])


def test_mc_vs_exact_flags_a_hit_on_a_cell_computed_at_or_below_zero(monkeypatch):
    # rounding leaves cells of tiny mass at or below 0 in the computed law;
    # a draw on one is flagged however large alpha is
    import poissonclique.cli as cli
    from poissonclique.schedules import GeometricSchedule

    schedule = GeometricSchedule(alpha=0.5)
    law = cli.graph_law(3, schedule)
    rounded = law.copy()
    rounded[[0, 5]] = [-2e-16, 0.0]
    monkeypatch.setattr(cli, "graph_law", lambda *args, **kwargs: rounded.copy())
    results = cli.mc_vs_exact(schedule, 3, 5000, 4, alpha=1 - 1e-9)
    hits = {cell["edge_mask"]: cell for cell in results["cells"] if cell["empirical"] > 0}
    assert set(hits) == set(range(8))
    assert [mask for mask, cell in hits.items() if not cell["pass"]] == [0, 5]
    assert hits[0]["bound"] == hits[5]["bound"] == [0.0, 0.0]


def bernoulli_kl(f, p):
    terms = [(f, p), (1 - f, 1 - p)]
    if any(a > 0 and b <= 0 for a, b in terms):
        return math.inf
    return sum(a * math.log(a / b) for a, b in terms if a > 0)


def test_mc_count_bounds_match_a_scan_of_every_count():
    import numpy as np

    from poissonclique.cli import _count_bounds

    draws = 300
    limit = math.log(2 * 64 / 1e-3) / draws
    p = np.array([-1e-18, 0.0, 1e-9, 0.003, 0.2, 0.5, 0.97, 1 - 1e-12, 1.0])
    low, high = _count_bounds(p, draws, limit)
    for i, q in enumerate(p.tolist()):
        passing = [c for c in range(draws + 1) if bernoulli_kl(c / draws, q) <= limit]
        assert passing == list(range(low[i], high[i] + 1))


@pytest.mark.parametrize("value", ["0", "1", "1.5", "-0.1", "nan", "inf", "x"])
def test_mc_vs_exact_alpha_outside_the_unit_interval_exits_2(value, capsys):
    argv = ["mc-vs-exact"] + BASE_ARGV["mc-vs-exact"] + ["--alpha", value]
    with pytest.raises(SystemExit) as info:
        main(argv)
    assert info.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"argument --alpha: must be a number in (0, 1), got '{value}'" in captured.err


def test_mc_vs_exact_counts_do_not_depend_on_the_block_size(monkeypatch):
    import numpy as np

    from poissonclique import cli
    from poissonclique.sampling import sample_graph_batch
    from poissonclique.schedules import GeometricSchedule

    schedule = GeometricSchedule(alpha=0.5)
    draws = 20_000
    assert draws < cli.MC_CHUNK_DRAWS
    whole = cli.mc_vs_exact(schedule, 3, draws, 5)
    freq = np.bincount(sample_graph_batch(schedule, 3, draws, 5), minlength=8) / draws
    assert [cell["empirical"] for cell in whole["cells"]] == freq.tolist()
    monkeypatch.setattr(cli, "MC_CHUNK_DRAWS", 777)  # 25 full blocks and a short one
    assert cli.mc_vs_exact(schedule, 3, draws, 5) == whole


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


RATE_900_TABLE = '{"kind":"table","n":3,"rows":{"3":[0.0,1.5,900,2.5]}}'


@pytest.mark.parametrize(
    "seed, method, counts",
    [
        # recorded when every subset drew from its own Generator; the pairs'
        # rate of 900 reads that subset's Poisson sampler under inversion
        (29, "inversion", [([1], 1), ([2], 1), ([1, 2], 894), ([1, 3], 921), ([2, 3], 901), ([1, 2, 3], 2)]),
        (29, "bernoulli", [([1], 1), ([2], 1), ([1, 2], 1), ([1, 3], 1), ([2, 3], 1), ([1, 2, 3], 1)]),
        ((1 << 63) + 1, "inversion", [([1, 2], 836), ([1, 3], 887), ([2, 3], 951), ([1, 2, 3], 3)]),
        ((1 << 63) + 1, "bernoulli", [([1, 2], 1), ([1, 3], 1), ([2, 3], 1), ([1, 2, 3], 1)]),
    ],
)
def test_sample_rate_900_table_regression(seed, method, counts, capsys):
    argv = ["sample", "--schedule", RATE_900_TABLE, "--n", "3", "--seed", str(seed), "--method", method]
    code, doc = run_json(argv, capsys)
    assert code == 0
    realization = doc["results"]["samples"][0]["realization"]
    assert [(entry["subset"], entry["count"]) for entry in realization["counts"]] == counts


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


def test_graph_prob_splits_off_bare_vertices_past_the_level_cap(capsys):
    # K5 plus the path 5-6-7 on [10]: the split builds level-5 laws only
    edges = [[i, j] for j in range(2, 6) for i in range(1, j)] + [[5, 6], [6, 7]]
    graph = json.dumps({"n": 10, "edges": edges})
    code, doc = run_json(["graph-prob", "--graph", graph, "--schedule", GEOM_HALF], capsys)
    assert code == 0 and doc["ok"] is True
    assert doc["results"]["prob"] > 0.0


@pytest.mark.parametrize("schedule", [GEOM_HALF, '{"kind":"beta_uniform","c":1}'])
def test_graph_prob_past_the_power_set_cap_exits_3_without_stdout(schedule, capsys):
    # the cap comes before the level total, whose C(2000, r) * rate would not
    # convert to a float
    code, out, err = run_cli(["graph-prob", "--graph", '{"n":2000,"edges":[]}', "--schedule", schedule], capsys)
    assert code == 3
    assert out == ""
    assert err == "error: pair-mask table needs 2**2000 entries (cap 16)\n"


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
    for text in ("what", "-1"):
        monkeypatch.setenv("POISSONCLIQUE_MAX_N", text)
        code, _, err = run_cli(
            ["check-consistency", "--schedule", GEOM_HALF, "--n", "3"], capsys
        )
        assert code == 2


def test_failed_allocation_exit_code(capsys, monkeypatch):
    # a cap raised past the memory fails in NumPy's allocation, a MemoryError
    # subclass; the law function raises it here instead of allocating
    import poissonclique.cli as cli

    class ArrayMemoryError(MemoryError):
        pass

    def unallocatable(*args, **kwargs):
        raise ArrayMemoryError("Unable to allocate 2.00 TiB for an array with shape (2**36,)")

    monkeypatch.setattr(cli, "exchangeability_discrepancy", unallocatable)
    monkeypatch.setenv("POISSONCLIQUE_MAX_N", "9")
    code, out, err = run_cli(["check-exchangeability", "--schedule", GEOM_HALF, "--n", "9"], capsys)
    assert (code, out) == (3, "")
    assert err == "error: Unable to allocate 2.00 TiB for an array with shape (2**36,)\n"


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


COLD_COMMANDS = [
    ["covers", "--graph", TRIANGLE],
    ["transitivity", "--schedule", GEOM_HALF],
    ["cluster-prob", "--graph", TRIANGLE, "--subset", "[1,2]", "--schedule", GEOM_HALF],
    ["coarse-cluster-prob", "--graph", TRIANGLE, "--subset", "[1,2]", "--schedule", GEOM_HALF],
    ["graph-prob", "--graph", TRIANGLE, "--schedule", GEOM_HALF],
    ["classify", "--support", '{"n":2,"members":[[1,2]]}', "--graph", TRIANGLE, "--schedule", GEOM_HALF],
    ["schedule", "check", "--kind", "geometric", "--alpha", "0.5", "--c", "1", "--nmax", "6"],
    ["schedule", "derive", "--row", "[0.125,0.125,0.125,0.125]"],
    # single draws up to level 6 run their Philox rounds on Python ints
    ["sample", "--schedule", GEOM_HALF, "--n", "4", "--seed", "29"],
    ["sample", "--schedule", GEOM_HALF, "--n", "6", "--seed", "29", "--method", "bernoulli"],
    # whole-level laws up to level 5 are lists of Python floats
    ["check-consistency", "--schedule", GEOM_HALF, "--n", "6"],
    ["check-exchangeability", "--schedule", GEOM_HALF, "--n", "5"],
]
COLD_IMPORT_SCRIPT = """
import contextlib, io, json, sys
import poissonclique, poissonclique.cli as cli

def run(argv):
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(argv) == 0, argv

for argv in json.loads(sys.argv[1]):
    run(argv)
assert "numpy" not in sys.modules, "a command without arrays imported numpy"
loaded = {"dataclasses", "inspect"} & set(sys.modules)
assert not loaded, f"a command without arrays imported {sorted(loaded)}"
run(["sample", "--schedule", %r, "--n", "7", "--seed", "1"])
assert "numpy" in sys.modules, "sample drew without numpy"
assert "dataclasses" not in sys.modules, "sample --n 7 imported dataclasses"
""" % GEOM_HALF
# a level-6 law is the kernel's array
EXCHANGEABILITY_6_SCRIPT = """
import contextlib, io, sys
import poissonclique.cli as cli
with contextlib.redirect_stdout(io.StringIO()):
    assert cli.main(["check-exchangeability", "--schedule", %r, "--n", "6"]) == 0
assert "numpy" in sys.modules, "check-exchangeability --n 6 ran without numpy"
""" % GEOM_HALF


def test_commands_without_arrays_never_import_numpy():
    package_root = str(Path(poissonclique.__file__).resolve().parent.parent)
    inherited = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=package_root + (os.pathsep + inherited if inherited else ""))
    completed = subprocess.run(
        [sys.executable, "-c", COLD_IMPORT_SCRIPT, json.dumps(COLD_COMMANDS)],
        capture_output=True,
        text=True,
        env=env,
    )
    assert completed.returncode == 0, completed.stderr


def test_exchangeability_at_level_6_imports_numpy():
    package_root = str(Path(poissonclique.__file__).resolve().parent.parent)
    inherited = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=package_root + (os.pathsep + inherited if inherited else ""))
    completed = subprocess.run(
        [sys.executable, "-c", EXCHANGEABILITY_6_SCRIPT], capture_output=True, text=True, env=env
    )
    assert completed.returncode == 0, completed.stderr


# with numpy blocked, any import of it raises ImportError
BLOCKED_NUMPY_SCRIPT = """
import json, sys
sys.modules["numpy"] = None
import poissonclique.cli as cli
sys.exit(cli.main(json.loads(sys.argv[1])))
"""


def test_readme_draw_prints_its_golden_bytes_with_numpy_blocked():
    argv = ["sample", "--schedule", GEOM_HALF, "--n", "4", "--seed", "29"]
    golden = json.loads((Path(__file__).parent / "data" / "cli_golden.json").read_text())
    (case,) = [case for case in golden["cases"] if case["argv"] == argv]
    package_root = str(Path(poissonclique.__file__).resolve().parent.parent)
    inherited = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=package_root + (os.pathsep + inherited if inherited else ""))
    completed = subprocess.run(
        [sys.executable, "-c", BLOCKED_NUMPY_SCRIPT, json.dumps(argv)],
        capture_output=True,
        text=True,
        env=env,
    )
    assert completed.returncode == case["exit"] == 0, completed.stderr
    assert completed.stdout == case["stdout"]


# every recorded case, replayed in one process, its exit code and stdout
BLOCKED_NUMPY_GOLDEN_SCRIPT = """
import contextlib, io, json, sys
sys.modules["numpy"] = None
import poissonclique.cli as cli
for case in json.loads(sys.argv[1]):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(case["argv"])
    assert code == case["exit"], (case["argv"], code)
    assert out.getvalue() == case["stdout"], case["argv"]
"""


def test_golden_law_checks_up_to_level_5_print_their_bytes_with_numpy_blocked():
    golden = json.loads((Path(__file__).parent / "data" / "cli_golden.json").read_text())
    cases = [
        case
        for case in golden["cases"]
        if case["argv"][0] in ("check-consistency", "check-exchangeability")
        and int(case["argv"][case["argv"].index("--n") + 1]) <= 5
    ]
    assert len(cases) == 5
    package_root = str(Path(poissonclique.__file__).resolve().parent.parent)
    inherited = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=package_root + (os.pathsep + inherited if inherited else ""))
    completed = subprocess.run(
        [sys.executable, "-c", BLOCKED_NUMPY_GOLDEN_SCRIPT, json.dumps(cases)],
        capture_output=True,
        text=True,
        env=env,
    )
    assert completed.returncode == 0, completed.stderr


SERIAL_KERNEL_SCRIPT = """
import contextlib, io, sys, threading
threads = threading.active_count()
import poissonclique.cli as cli
from poissonclique.inference import graph_law
from poissonclique.schedules import GeometricSchedule

graph_law(6, GeometricSchedule(alpha=0.5))
assert threading.active_count() == threads, "graph_law(6) left a thread"
with contextlib.redirect_stdout(io.StringIO()):
    assert cli.main(["check-exchangeability", "--schedule", %r, "--n", "5"]) == 0
assert threading.active_count() == threads, "check-exchangeability left a thread"
loaded = {"concurrent.futures", "logging"} & set(sys.modules)
assert not loaded, f"imported {sorted(loaded)}"
""" % GEOM_HALF


def test_start_up_and_levels_below_7_load_no_thread_machinery():
    # a level of one row tile runs the plain serial loop: no thread, and no
    # executor module (concurrent.futures imports logging)
    package_root = str(Path(poissonclique.__file__).resolve().parent.parent)
    inherited = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=package_root + (os.pathsep + inherited if inherited else ""))
    completed = subprocess.run(
        [sys.executable, "-c", SERIAL_KERNEL_SCRIPT], capture_output=True, text=True, env=env
    )
    assert completed.returncode == 0, completed.stderr


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


@pytest.mark.parametrize("command", ["sample", "check-exchangeability", "mc-vs-exact", "check-consistency"])
@pytest.mark.parametrize("n", ["-1", "-2"])
def test_negative_level_exits_2(command, n, capsys):
    argv = command.split() + BASE_ARGV[command]
    argv[argv.index("--n") + 1] = n
    with pytest.raises(SystemExit) as info:
        main(argv)
    assert info.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "argument --n: must be an integer >= 0" in captured.err


@pytest.mark.parametrize(
    "command, flag",
    [
        ("check-consistency", "--tol"),
        ("check-exchangeability", "--tol"),
        ("schedule check", "--tol"),
    ],
)
@pytest.mark.parametrize("value", ["nan", "inf", "-1"])
def test_non_finite_or_negative_threshold_exits_2(command, flag, value, capsys):
    argv = command.split() + BASE_ARGV[command] + [flag, value]
    with pytest.raises(SystemExit) as info:
        main(argv)
    assert info.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"argument {flag}: must be a finite number >= 0, got '{value}'" in captured.err


@pytest.mark.parametrize("n", ["0", "1"])
def test_check_consistency_without_a_lower_level_exits_2(n, capsys):
    argv = ["check-consistency"] + BASE_ARGV["check-consistency"]
    argv[argv.index("--n") + 1] = n
    code, out, err = run_cli(argv, capsys)
    assert code == 2
    assert out == ""
    assert err.startswith("error: --n must be at least 2")


def test_sample_successive_seeds_wrap_modulo_2_64(capsys):
    # the last in-range seed is accepted; its successor wraps to 0
    last = (1 << 64) - 1
    argv = ["sample", "--schedule", GEOM_HALF, "--n", "2", "--seed", str(last), "--draws", "2"]
    code, doc = run_json(argv, capsys)
    assert code == 0
    assert doc["seed"] == last
    assert [s["realization"]["seed"] for s in doc["results"]["samples"]] == [last, 0]


def test_schedule_with_a_non_canonical_level_key_exits_2(capsys):
    table = '{"kind":"table","n":3,"rows":{"3":[0,0,1,1],"03":[0,0,2,2]}}'
    code, out, err = run_cli(["schedule", "check", "--schedule", table, "--nmax", "3"], capsys)
    assert code == 2
    assert out == ""
    assert "'03'" in err


def test_classify_extends_a_level_0_support(capsys):
    argv = ["classify", "--support", '{"n":0,"members":[[]]}', "--graph", '{"n":1,"edges":[]}', "--schedule", GEOM_HALF]
    code, doc = run_json(argv, capsys)
    assert code == 0
    candidates = doc["results"]["candidates"]
    assert [candidate["family"]["members"] for candidate in candidates] == [[[]], [[], [1]], [[1]]]
    assert math.isclose(sum(candidate["prob"] for candidate in candidates), 1.0, rel_tol=1e-15)


def test_classify_member_cap_exits_3_without_stdout(capsys):
    support = json.dumps({"n": 4, "members": [[i for i in range(1, 5) if a >> (i - 1) & 1] for a in range(13)]})
    graph = '{"n":5,"edges":[[1,2],[1,3],[1,4],[2,3],[2,4],[3,4]]}'
    code, out, err = run_cli(["classify", "--support", support, "--graph", graph, "--schedule", GEOM_HALF], capsys)
    assert code == 3
    assert out == ""
    assert "extension cap" in err


def test_classify_when_the_level_survival_underflows(capsys):
    schedule = '{"kind":"geometric","alpha":0.5,"c":2000}'
    argv = ["classify", "--support", '{"n":2,"members":[[1,2]]}', "--graph", TRIANGLE, "--schedule", schedule]
    code, doc = run_json(argv, capsys)
    assert code == 0
    probs = [candidate["prob"] for candidate in doc["results"]["candidates"]]
    assert probs[0] == 1.0 and 0.0 < probs[1] < 1e-100


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


@pytest.mark.parametrize(
    "atoms, atom",
    [("[[0.5]]", "[0.5]"), ("[[0.3,1,2]]", "[0.3, 1, 2]"), ('{"a":1}', "'a'")],
    ids=["one number", "three numbers", "object"],
)
def test_schedule_check_malformed_atom_exits_2(atoms, atom, capsys):
    # unpacking the atom used to escape as "not enough values to unpack (...)"
    argv = ["schedule", "check", "--kind", "moment_atoms", "--atoms", atoms, "--nmax", "3"]
    code, out, err = run_cli(argv, capsys)
    assert code == 2
    assert out == ""
    assert err == (
        f"error: malformed 'moment_atoms' schedule document: atom {atom} must be a [location, weight] pair\n"
    )


def test_schedule_check_overflowing_atom_weights_exit_2(capsys):
    # each weight is finite, but lambda_n(0) summed them to inf at every
    # level, and the NaN gaps used to read as "ok": true
    schedule = '{"kind":"moment_atoms","atoms":[[0,1e308],[0,1e308]]}'
    code, out, err = run_cli(["schedule", "check", "--schedule", schedule, "--nmax", "4"], capsys)
    assert code == 2
    assert out == ""
    assert "total atom weight inf must be finite" in err


def test_schedule_check_shorthand_echoes_the_parsed_schedule(capsys):
    # a flag the kind has no field for is dropped, as schedule_from_dict drops it
    argv = ["schedule", "check", "--kind", "beta_uniform", "--alpha", "0.3", "--nmax", "3"]
    code, doc = run_json(argv, capsys)
    assert code == 0
    assert doc["schedule"] == {"kind": "beta_uniform", "c": 1.0}


def test_mc_vs_exact_rejects_no_draws_and_an_alpha_outside_the_unit_interval(capsys):
    from poissonclique import cli
    from poissonclique.schedules import GeometricSchedule

    schedule = GeometricSchedule(alpha=0.5)
    with pytest.raises(ValueError, match="draws must be positive"):
        cli.mc_vs_exact(schedule, 3, 0, 1)
    with pytest.raises(ValueError, match="alpha must lie in"):
        cli.mc_vs_exact(schedule, 3, 10, 1, alpha=1.5)
    code, out, err = run_cli(["mc-vs-exact", "--schedule", GEOM_HALF, "--n", "3", "--seed", "1", "--draws", "0"], capsys)
    assert (code, out) == (2, "")
    assert "draws must be positive" in err


@pytest.mark.parametrize(
    "argv, message",
    [
        (["cluster-prob", "--graph", TRIANGLE, "--subset", '{"a":1}', "--schedule", LN2_TABLE_3], "--subset must be"),
        (["schedule", "derive", "--row", "3"], "--row must be"),
    ],
)
def test_json_flags_of_the_wrong_shape_exit_2(argv, message, capsys):
    code, out, err = run_cli(argv, capsys)
    assert (code, out) == (2, "")
    assert message in err


def test_cluster_prob_past_the_conditional_cap_exits_3(capsys):
    code, out, err = run_cli(["cluster-prob", "--graph", K6, "--subset", "[1,2]", "--schedule", GEOM_HALF], capsys)
    assert (code, out) == (3, "")
    assert "graph has 57 cliques, conditional cap is 24" in err
