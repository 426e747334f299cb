"""Replay recorded CLI invocations in-process and compare exit codes and stdout bytes.

Each case of ``data/cli_golden.json`` holds an argv, the text fed to stdin
(or null), the exit code and the stdout of the CLI before it became
table-driven: every README example, one or more invocations per subcommand,
the stdin forms and the exit-1, -2 and -3 paths.  Usage errors that argparse
reports by ``SystemExit`` are recorded with that exit code and empty stdout.
"""

import io
import json
from pathlib import Path

import numpy as np
import pytest

from poissonclique.cli import main

GOLDEN = json.loads((Path(__file__).parent / "data" / "cli_golden.json").read_text())
# batch draws read NumPy's Generator, whose streams may change between releases;
# single draws (`sample`) compute their Philox uniforms without it
SAMPLING_COMMANDS = ("mc-vs-exact",)


@pytest.mark.parametrize(
    "case", GOLDEN["cases"], ids=[" ".join(case["argv"])[:60] for case in GOLDEN["cases"]]
)
def test_cli_output_matches_recording(case, capsys, monkeypatch):
    if case["argv"][0] in SAMPLING_COMMANDS and np.__version__ != GOLDEN["numpy"]:
        pytest.skip(f"recorded with numpy {GOLDEN['numpy']}, running {np.__version__}")
    monkeypatch.delenv("POISSONCLIQUE_MAX_N", raising=False)
    monkeypatch.setattr("sys.stdin", io.StringIO(case["stdin"] or ""))
    try:
        code = main(list(case["argv"]))
    except SystemExit as exc:
        code = exc.code
    assert code == case["exit"]
    assert capsys.readouterr().out == case["stdout"]
