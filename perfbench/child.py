"""Entry points that run in fresh child processes started by perfbench/run.py.

    python3 perfbench/child.py setup <workload>
        Time one set-up of <workload> (import plus the lazy tables it needs)
        and print the seconds on stdout.
    python3 perfbench/child.py cli <spans.json> -- <cli arguments>
        Run the command line like ``python -m poissonclique <cli arguments>``,
        with the tracer's wrappers installed, and write the spans to
        <spans.json>.  Exits with the command's own exit code.

Both expect the library's ``src`` directory on PYTHONPATH.
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

import workloads
from tracing import Tracer


def _cli(spans_path: str, argv: list[str]) -> int:
    t0 = time.perf_counter()
    import poissonclique.cli

    import_s = time.perf_counter() - t0
    tracer = Tracer()
    tracer.install()
    tracer.counts["cli.import_s"] = import_s
    tracer.counts["processes"] = 1
    tracer.enabled = True
    try:
        return poissonclique.cli.main(argv)
    finally:
        tracer.enabled = False
        tracer.dump_json(Path(spans_path))


def main(argv: list[str]) -> int:
    if len(argv) == 2 and argv[0] == "setup":
        print(repr(workloads.setup(workloads.WORKLOADS[argv[1]].tables)))
        return 0
    if len(argv) >= 3 and argv[0] == "cli" and argv[2] == "--":
        return _cli(argv[1], argv[3:])
    print(__doc__, file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
