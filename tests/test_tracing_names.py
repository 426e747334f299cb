"""The traced benchmark run (perfbench/run.py --trace 1) wraps library functions by name.

These tests read its table of names without installing any wrapper, so a rename
in the package fails here instead of crashing the traced run, and they check
that the CLI looks each wrapped function up at call time, which is where the
wrappers are installed.
"""

import importlib
import importlib.util
import io
from collections import Counter
from pathlib import Path

import pytest

from poissonclique import cli

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _tracing_module():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_wrapped_function_exists():
    tracing = _tracing_module()
    for suffix in tracing.PACKAGE_MODULES:
        importlib.import_module("poissonclique" + suffix)
    missing = [
        f"{layer}.{function}"
        for layer, functions in tracing.WRAPPED.items()
        for function in functions
        if not callable(getattr(importlib.import_module(f"poissonclique.{layer}"), function, None))
    ]
    assert missing == []
    assert callable(importlib.import_module("poissonclique.schedules").RateSchedule.rate)


GEOM = '{"kind":"geometric","alpha":0.5,"c":1}'
TRIANGLE = '{"n":3,"edges":[[1,2],[1,3],[2,3]]}'


@pytest.mark.parametrize(
    "argv, expected",
    [
        (
            ["cluster-prob", "--graph", TRIANGLE, "--subset", "[1,2]", "--schedule", GEOM],
            {"build_parser", "schedule_from_dict", "graph_from_dict", "cluster_prob", "dumps"},
        ),
        (
            ["coarse-cluster-prob", "--graph", TRIANGLE, "--subset", "[1,2]", "--schedule", GEOM],
            {"coarse_cluster_prob"},
        ),
        (
            ["mc-vs-exact", "--schedule", GEOM, "--n", "3", "--draws", "10", "--seed", "1"],
            {"mc_vs_exact", "graph_law"},  # draws are counted block by block, not batched
        ),
        (["graph-prob", "--graph", TRIANGLE, "--schedule", GEOM], {"graph_prob"}),
        (["covers", "--graph", TRIANGLE], {"enumerate_monotone_covers"}),
        (
            ["classify", "--support", '{"n":2,"members":[[1,2]]}', "--graph", TRIANGLE]
            + ["--schedule", GEOM],
            {"family_from_dict", "classify_extension"},
        ),
        (["sample", "--schedule", GEOM, "--n", "3", "--seed", "1"], {"sample_pipeline"}),
        (["check-consistency", "--schedule", GEOM, "--n", "3"], {"marginal_restriction_check"}),
        (["check-exchangeability", "--schedule", GEOM, "--n", "3"], {"exchangeability_discrepancy"}),
    ],
    ids=lambda value: value[0] if isinstance(value, list) else "",
)
def test_cli_calls_wrapped_functions_through_module_globals(argv, expected, monkeypatch, capsys):
    tracing = _tracing_module()
    calls = Counter()

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    for functions in tracing.WRAPPED.values():
        for name in functions:
            if hasattr(cli, name):
                monkeypatch.setattr(cli, name, counting(name, getattr(cli, name)))
    monkeypatch.setattr("sys.stdin", io.StringIO(""))
    assert cli.main(argv) == 0
    capsys.readouterr()
    assert expected <= set(calls)
