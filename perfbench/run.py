"""Benchmark of the poissonclique library and CLI, timed from outside.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --workload all --seed <n> --seconds <s>

Run it from the root of a checkout; it imports the library from ``src``.  One
workload runs per invocation, as one closed-loop client in this fresh process
(cli-cold: one fresh child process per operation).  Whole rounds of the
workload's seeded operations repeat until ``--seconds`` have passed.  Every
operation's output is checked.  The last line of stdout is one JSON object:
with ``--trace 0`` the end-to-end metrics, with ``--trace 1`` the per-layer
metrics of a run in which the library's public functions are wrapped in spans.
``--workload all`` runs every workload untraced and traced, each in its own
process, and prints all end-to-end metrics and the tracing overhead.
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

import workloads
from tracing import PARSE_SPAN, Tracer

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench_out"
# fresh-process set-ups per untraced run, half before and half after the timed
# loop, so that their median spans the run rather than one moment of the host
SETUP_PROBES = 12
# a run stops at the first round boundary after --seconds
TAIL_GRID = (50.0, 75.0, 80.0, 90.0, 95.0, 96.0, 99.0, 99.9)
TAIL_MIN_BEYOND = 10

END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "ops/s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "peak_rss_mib": "MiB",
    "success_rate": "ratio",
}

# per-layer metrics read from the spans, per operation: (span, statistic)
SPAN_METRICS = {
    f"{span}.{stat}": (span, stat)
    for span, stats in (
        ("lattice.monotone_cover", ("calls", "self_s")),
        ("lattice.clique_graph", ("calls", "self_s")),
        ("inference.clique_set", ("calls", "self_s")),
        ("inference.graph_law", ("calls", "self_s")),
        ("inference.graph_prob", ("self_s",)),
        ("inference.cluster_prob", ("self_s",)),
        ("inference.coarse_cluster_prob", ("self_s",)),
        ("inference.enumerate_monotone_covers", ("self_s",)),
        ("inference.classify_extension", ("self_s",)),
        ("inference.marginal_restriction_check", ("self_s",)),
        ("inference.exchangeability_discrepancy", ("self_s",)),
        ("sampling.sample_point_process", ("calls", "self_s")),
        ("sampling.sample_pipeline", ("self_s",)),
        ("sampling.sample_graph_batch", ("self_s",)),
        ("serialization.dumps", ("self_s",)),
        (PARSE_SPAN, ("self_s",)),
        ("schedules.schedule_from_dict", ("self_s",)),
        ("cli.build_parser", ("self_s",)),
        ("cli.main", ("self_s",)),
        ("cli.mc_vs_exact", ("self_s",)),
    )
    for stat in stats
}
# counts computed from the inputs or read off outputs, per operation
COMPUTED = (
    "inference.graph_law.cells",
    "inference.graph_law.bytes_computed",
    "inference.graph_prob.fallback_calls",
    "inference.enumerate_monotone_covers.covers",
    "inference.classify_extension.combos",
    "inference.exchangeability_discrepancy.relabelings",
    "sampling.streams",
    "sampling.points",
    "sampling.sample_graph_batch.draws",
)


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric with its unit, in report order."""
    units = {}
    for name, (_, stat) in SPAN_METRICS.items():
        units[name] = "s/op" if stat == "self_s" else "calls/op"
    for name in COMPUTED:
        units[name] = "B/op" if name.endswith("bytes_computed") else "count/op"
    units.update(
        {
            "inference.classify_extension.useful_ratio": "ratio",
            "sampling.useful_stream_ratio": "ratio",
            "lattice.pair_masks.cold_s": "s",
            "cli.import_s": "s",
            "schedules.rate.calls": "calls/op",
            "serialization.dumps.bytes": "B/op",
            "law_neg_cells": "count",
            "inference.prob_outside_unit": "count",
            "trace.ops_per_s": "ops/s",
        }
    )
    return units


def percentile(ordered: list[float], pct: float) -> float:
    """Linear interpolation between closest ranks, as numpy's default."""
    rank = pct / 100.0 * (len(ordered) - 1)
    low = math.floor(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def beyond(n: int, pct: float) -> int:
    """Samples ranked strictly above the interpolated percentile."""
    return n - 1 - math.floor(pct / 100.0 * (n - 1))


def tail(ordered: list[float], preferred: float) -> tuple[float, float, int]:
    """The workload's tail percentile, or the highest grid one with >= 10 samples beyond it."""
    pct = preferred
    if beyond(len(ordered), pct) < TAIL_MIN_BEYOND:
        fits = [p for p in TAIL_GRID if beyond(len(ordered), p) >= TAIL_MIN_BEYOND]
        pct = fits[-1] if fits else TAIL_GRID[0]
    return pct, percentile(ordered, pct), beyond(len(ordered), pct)


def probe_setup(name: str) -> float:
    """One set-up of the workload in a fresh process, in seconds."""
    done = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "child.py"), "setup", name],
        cwd=ROOT,
        env=workloads.child_env(ROOT),
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    return float(done.stdout.strip().splitlines()[-1])


def measure(rounds, workload, seconds: float, tracer) -> dict:
    """Run whole rounds until ``seconds`` have passed; time, check and count every operation."""
    latencies: list[float] = []
    failed = 0
    errors: list[str] = []
    failures: dict[str, int] = {}
    totals: dict = {}
    distinct = 0
    neg_detail = []
    started = time.perf_counter()
    done_rounds = 0
    while done_rounds < workload.min_rounds or time.perf_counter() - started < seconds:
        for op in rounds[done_rounds % len(rounds)]:
            if tracer is not None:
                tracer.op_id = len(latencies)
                tracer.enabled = True
            t0 = time.perf_counter()
            try:
                result = op.call()
                error = None
            except Exception:  # a raising operation is a failed, incorrect operation
                result, error = None, traceback.format_exc(limit=3)
            latencies.append(time.perf_counter() - t0)
            if tracer is not None:
                tracer.enabled = False
            if error is None:
                try:
                    error = op.check(result)
                    if error is None and not op.seen:
                        op.seen = True
                        distinct += 1
                        observed = op.observe(result) if op.observe else {}
                        totals = workloads.add_counts(totals, op.counts, observed)
                        if observed.get("law_neg_cells"):
                            neg_detail.append((op.kind, observed["law_neg_cells"]))
                except Exception:
                    error = "check raised: " + traceback.format_exc(limit=3)
            if error is not None:
                errors.append(f"{op.kind}: {error}")
                failed += 1
            elif op.failed is not None and (why := op.failed(result)):
                failures[f"{op.kind}: {why}"] = failures.get(f"{op.kind}: {why}", 0) + 1
                failed += 1
        done_rounds += 1
    return {
        "latencies": latencies,
        "failed": failed,
        "errors": errors,
        "failures": failures,
        "totals": totals,
        "distinct": distinct,
        "neg_detail": neg_detail,
        "rounds": done_rounds,
        "elapsed": time.perf_counter() - started,
    }


def end_to_end(run: dict, workload, setup_samples: list[float]) -> tuple[dict, dict]:
    lat = sorted(run["latencies"])
    n = len(lat)
    pct, tail_s, n_beyond = tail(lat, workload.tail_pct)
    usage = resource.RUSAGE_SELF if workload.in_process else resource.RUSAGE_CHILDREN
    values = {
        "setup_s": statistics.median(setup_samples),
        "ops_per_s": n / math.fsum(lat),
        "latency_p50_ms": percentile(lat, 50.0) * 1e3,
        "latency_tail_ms": tail_s * 1e3,
        "peak_rss_mib": resource.getrusage(usage).ru_maxrss / 1024.0,
        "success_rate": (n - run["failed"]) / n,
    }
    detail = {
        "tail_percentile": pct,
        "tail_samples_beyond": n_beyond,
        "samples": n,
        "error_rate": run["failed"] / n,
        "law_neg_cells": run["totals"].get("law_neg_cells", 0),
        "prob_outside_unit": run["totals"].get("inference.prob_outside_unit", 0),
        "setup_samples": setup_samples,
    }
    return values, detail


def per_layer(run: dict, tracer: Tracer) -> dict:
    n = len(run["latencies"])
    calls, self_s = tracer.self_times()
    values = {}
    for name, (span, stat) in SPAN_METRICS.items():
        values[name] = (calls if stat == "calls" else self_s)[span] / n
    totals, distinct = run["totals"], max(run["distinct"], 1)
    for name in COMPUTED:
        values[name] = totals.get(name, 0) / distinct
    combos = totals.get("inference.classify_extension.combos", 0)
    streams = totals.get("sampling.streams", 0)
    processes = max(tracer.counts["processes"], 1)
    values.update(
        {
            "inference.classify_extension.useful_ratio": totals.get("classify.candidates", 0) / combos if combos else 0.0,
            "sampling.useful_stream_ratio": totals.get("sampling.points", 0) / streams if streams else 0.0,
            "lattice.pair_masks.cold_s": tracer.counts["lattice.pair_masks.cold_s"] / processes,
            "cli.import_s": tracer.counts["cli.import_s"] / processes,
            "schedules.rate.calls": tracer.counts["schedules.rate.calls"] / n,
            "serialization.dumps.bytes": tracer.counts["serialization.dumps.bytes"] / n,
            "law_neg_cells": totals.get("law_neg_cells", 0),
            "inference.prob_outside_unit": totals.get("inference.prob_outside_unit", 0),
            "trace.ops_per_s": n / math.fsum(run["latencies"]),
        }
    )
    return values


def run_one(name: str, seed: int, seconds: float, traced: bool) -> int:
    workload = workloads.WORKLOADS[name]
    probes = 0 if traced else SETUP_PROBES // 2
    setup_samples = [probe_setup(name) for _ in range(probes)]
    inputs = workload.generate(seed)
    tracer = Tracer() if traced else None
    ctx = workloads.Context(ROOT, tracer)
    sys.path.insert(0, str(ROOT / "src"))
    OUT_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT_DIR) as tmp:
        ctx.spans_dir = Path(tmp)
        if workload.in_process:
            workloads.setup(workload.tables, tracer)
            import poissonclique

            if not Path(poissonclique.__file__).resolve().is_relative_to(ROOT / "src"):
                raise RuntimeError(f"imported {poissonclique.__file__}, not the checkout's src")
        rounds = workload.build(inputs, ctx)
        run = measure(rounds, workload, seconds, tracer)
    setup_samples += [probe_setup(name) for _ in range(probes)]

    print(
        f"workload {name}  seed {seed}  trace {int(traced)}  rounds {run['rounds']}  "
        f"ops {len(run['latencies'])}  elapsed {run['elapsed']:.1f} s"
    )
    for error in run["errors"][:10]:
        print(f"  INCORRECT {error}")
    for why, count in sorted(run["failures"].items())[:10]:
        print(f"  failed x{count} {why}")
    if traced:
        metrics = per_layer(run, tracer)
        units = per_layer_units()
        spans_path = OUT_DIR / f"{name}-seed{seed}.spans.tsv.gz"
        tracer.dump_tsv(spans_path)
        print(f"  {len(tracer.start)} spans written to {spans_path.relative_to(ROOT)}")
    else:
        metrics, detail = end_to_end(run, workload, setup_samples)
        units = END_TO_END
        print(
            f"  tail is p{detail['tail_percentile']:g} with {detail['tail_samples_beyond']} of "
            f"{detail['samples']} samples beyond it; error_rate {detail['error_rate']:.4f} "
            f"({run['failed']} failed of {detail['samples']}); law_neg_cells {detail['law_neg_cells']} per round; "
            f"prob_outside_unit {detail['prob_outside_unit']} over the distinct operations"
        )
        for kind, count in run["neg_detail"]:
            print(f"    negative cells {count:>9}  {kind}")
        print("perfbench-detail " + json.dumps(detail))
    for key, value in metrics.items():
        print(f"  {key:<52} {value:>16.6g} {units[key]}")
    result = {
        "correct": not run["errors"],
        "attempted": len(run["latencies"]),
        "failed": run["failed"],
        "metrics": {key: {"value": value, "unit": units[key]} for key, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


def run_all(seed: int, seconds: float) -> int:
    """Every workload untraced then traced, each in its own process; a summary at the end."""
    summary = {}
    for name in workloads.WORKLOADS:
        entry = {}
        for traced in (0, 1):
            done = subprocess.run(
                [sys.executable, __file__, "--workload", name, "--seed", str(seed),
                 "--seconds", str(seconds), "--trace", str(traced)],
                cwd=ROOT, capture_output=True, text=True, timeout=900, check=True,
            )
            lines = done.stdout.strip().splitlines()
            print("\n".join(lines[:-1]))
            entry["traced" if traced else "untraced"] = json.loads(lines[-1])
            for line in lines:
                if line.startswith("perfbench-detail "):
                    entry["detail"] = json.loads(line.split(" ", 1)[1])
        summary[name] = entry
    print("\nsummary (untraced; law_neg_cells per round; overhead = traced ops/s / untraced ops/s)")
    for name, entry in summary.items():
        m = {k: v["value"] for k, v in entry["untraced"]["metrics"].items()}
        d = entry["detail"]
        traced_ops = entry["traced"]["metrics"]["trace.ops_per_s"]["value"]
        entry["trace_overhead"] = traced_ops / m["ops_per_s"]
        print(
            f"  {name:<13} setup_s {m['setup_s']:.4f} s | ops_per_s {m['ops_per_s']:.3f} ops/s | "
            f"latency_p50_ms {m['latency_p50_ms']:.3f} ms | latency_tail_ms {m['latency_tail_ms']:.3f} ms "
            f"(p{d['tail_percentile']:g}, {d['tail_samples_beyond']} of {d['samples']} beyond) | "
            f"peak_rss_mib {m['peak_rss_mib']:.1f} MiB | error_rate {d['error_rate']:.4f} failed/attempted | "
            f"law_neg_cells {d['law_neg_cells']} count | trace overhead {entry['trace_overhead']:.3f}"
        )
    print(json.dumps(summary))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "poissonclique" / "__init__.py").is_file():
        print(f"error: no library source at {ROOT / 'src' / 'poissonclique'}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args.seed, args.seconds)
    return run_one(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
