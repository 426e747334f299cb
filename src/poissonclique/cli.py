"""Command-line surface: every query prints one JSON report document to stdout.

Exit codes: 0 success, 1 a requested check failed, 2 usage or argument error,
3 a resource cap was exceeded.  Flags taking JSON documents accept "-" to read
the document from standard input.  The only environment knob is
POISSONCLIQUE_MAX_N, which overrides the whole-level enumeration cap.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass, field

import numpy as np

from . import __version__
from .inference import (
    enumerate_monotone_covers,
    classify_extension,
    cluster_prob,
    coarse_cluster_prob,
    exchangeability_discrepancy,
    graph_law,
    graph_prob,
    marginal_restriction_check,
    transitivity_conditional,
)
from .lattice import ResourceCapError, elements_of, mask_of
from .sampling import METHOD_BERNOULLI, METHOD_INVERSION, sample_graph_batch, sample_pipeline
from .schedules import (
    BetaUniformSchedule,
    GeometricSchedule,
    MomentAtomsSchedule,
    RateSchedule,
    check_consistency,
    derive_lower,
    schedule_from_dict,
)
from .serialization import (
    FORMAT_VERSION,
    cover_to_dict,
    dumps,
    family_from_dict,
    family_to_dict,
    graph_from_dict,
    graph_to_dict,
    sample_to_dict,
)

MC_SE_FACTOR = 4.0
MC_CELL_ATOL = 1e-12
MC_TABLE_LIMIT = 1 << 10


@dataclass
class RunReport:
    """Everything one invocation computed, in byte-stable order."""

    command: str
    inputs: dict
    schedule: dict | None = None
    seed: int | None = None
    results: dict = field(default_factory=dict)
    checks: list[dict] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(entry["pass"] for entry in self.checks)

    def to_dict(self) -> dict:
        return {
            "format_version": FORMAT_VERSION,
            "command": self.command,
            "inputs": self.inputs,
            "schedule": self.schedule,
            "seed": self.seed,
            "results": self.results,
            "checks": self.checks,
            "ok": self.ok,
        }


def _load_json(text: str, what: str):
    if text == "-":
        text = sys.stdin.read()
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"invalid JSON for {what}: {exc}") from None


def _parse_schedule(text: str) -> tuple[RateSchedule, dict]:
    doc = _load_json(text, "--schedule")
    return schedule_from_dict(doc), doc


def _parse_subset(text: str, n: int) -> int:
    doc = _load_json(text, "--subset")
    if not isinstance(doc, list):
        raise ValueError("--subset must be a JSON list of vertex labels")
    return mask_of((int(e) for e in doc), n)


def mc_vs_exact(
    schedule: RateSchedule,
    n: int,
    draws: int,
    seed: int,
    *,
    exact_schedule: RateSchedule | None = None,
    se_factor: float = MC_SE_FACTOR,
    cap: int | None = None,
) -> dict:
    """Empirical graph frequencies vs the exact law; flags cells beyond se_factor SEs.

    ``exact_schedule`` lets a deliberately mismatched law be used on the exact
    side as a negative control; by default the sampling schedule is used.
    """
    if draws <= 0:
        raise ValueError("draws must be positive")
    law = graph_law(n, exact_schedule if exact_schedule is not None else schedule, cap=cap)
    masks = sample_graph_batch(schedule, n, draws, seed)
    freq = np.bincount(masks, minlength=law.size).astype(float) / draws
    exact = np.clip(law, 0.0, 1.0)
    se = np.sqrt(exact * (1.0 - exact) / draws)
    deviation = np.abs(freq - exact)
    threshold = se_factor * se + MC_CELL_ATOL
    flagged = deviation > threshold
    cells = []
    for g in range(law.size):
        if law.size <= MC_TABLE_LIMIT or flagged[g]:
            cells.append(
                {
                    "edge_mask": g,
                    "exact": float(exact[g]),
                    "empirical": float(freq[g]),
                    "se": float(se[g]),
                    "pass": not bool(flagged[g]),
                }
            )
    return {
        "n": n,
        "draws": draws,
        "se_factor": se_factor,
        "flagged_cells": int(flagged.sum()),
        "max_deviation": float(deviation.max()),
        "cells": cells,
    }


# ---------------------------------------------------------------------------
# Subcommand handlers
# ---------------------------------------------------------------------------

def _cmd_sample(args, cap) -> RunReport:
    if args.draws < 1:
        raise ValueError("--draws must be positive")
    schedule, sdoc = _parse_schedule(args.schedule)
    samples = []
    for i in range(args.draws):
        sample = sample_pipeline(schedule, args.n, (args.seed + i) % (1 << 64), method=args.method)
        samples.append(sample_to_dict(sample))
    return RunReport(
        command="sample",
        inputs={"n": args.n, "draws": args.draws, "method": args.method},
        schedule=sdoc,
        seed=args.seed,
        results={"samples": samples},
    )


def _cmd_covers(args, cap) -> RunReport:
    graph = graph_from_dict(_load_json(args.graph, "--graph"))
    enumeration = enumerate_monotone_covers(graph)
    return RunReport(
        command="covers",
        inputs={"graph": graph_to_dict(graph)},
        results={
            "count": len(enumeration),
            "covers": [cover_to_dict(c) for c in enumeration.covers],
        },
    )


def _cmd_graph_prob(args, cap) -> RunReport:
    schedule, sdoc = _parse_schedule(args.schedule)
    graph = graph_from_dict(_load_json(args.graph, "--graph"))
    prob = graph_prob(graph, schedule, cap=cap)
    return RunReport(
        command="graph-prob",
        inputs={"graph": graph_to_dict(graph)},
        schedule=sdoc,
        results={"prob": float(prob)},
    )


def _cmd_cluster_prob(args, cap) -> RunReport:
    schedule, sdoc = _parse_schedule(args.schedule)
    graph = graph_from_dict(_load_json(args.graph, "--graph"))
    subset = _parse_subset(args.subset, graph.n)
    prob = cluster_prob(subset, graph, schedule)
    return RunReport(
        command="cluster-prob",
        inputs={"graph": graph_to_dict(graph), "subset": list(elements_of(subset))},
        schedule=sdoc,
        results={"prob": float(prob)},
    )


def _cmd_coarse_cluster_prob(args, cap) -> RunReport:
    schedule, sdoc = _parse_schedule(args.schedule)
    graph = graph_from_dict(_load_json(args.graph, "--graph"))
    subset = _parse_subset(args.subset, graph.n)
    prob = coarse_cluster_prob(subset, graph, schedule)
    return RunReport(
        command="coarse-cluster-prob",
        inputs={"graph": graph_to_dict(graph), "subset": list(elements_of(subset))},
        schedule=sdoc,
        results={"prob": float(prob)},
    )


def _cmd_classify(args, cap) -> RunReport:
    schedule, sdoc = _parse_schedule(args.schedule)
    support = family_from_dict(_load_json(args.support, "--support"))
    graph = graph_from_dict(_load_json(args.graph, "--graph"))
    distribution = classify_extension(support, graph, schedule)
    return RunReport(
        command="classify",
        inputs={"support": family_to_dict(support), "graph": graph_to_dict(graph)},
        schedule=sdoc,
        results={
            "candidates": [
                {"family": family_to_dict(fam), "prob": float(p)} for fam, p in distribution.items()
            ]
        },
    )


def _cmd_transitivity(args, cap) -> RunReport:
    schedule, sdoc = _parse_schedule(args.schedule)
    return RunReport(
        command="transitivity",
        inputs={},
        schedule=sdoc,
        results={"prob": float(transitivity_conditional(schedule))},
    )


def _schedule_from_flags(args) -> tuple[RateSchedule, dict]:
    if args.schedule is not None:
        return _parse_schedule(args.schedule)
    if args.kind == "geometric":
        if args.alpha is None:
            raise ValueError("--kind geometric needs --alpha")
        schedule: RateSchedule = GeometricSchedule(alpha=args.alpha, c=args.c)
    elif args.kind == "beta_uniform":
        schedule = BetaUniformSchedule(c=args.c)
    elif args.kind == "moment_atoms":
        if args.atoms is None:
            raise ValueError("--kind moment_atoms needs --atoms")
        atoms = _load_json(args.atoms, "--atoms")
        schedule = MomentAtomsSchedule(tuple((float(x), float(w)) for x, w in atoms))
    else:
        raise ValueError("provide --schedule or --kind")
    return schedule, schedule.to_dict()


def _cmd_schedule_check(args, cap) -> RunReport:
    schedule, sdoc = _schedule_from_flags(args)
    report = check_consistency(schedule, args.nmax, tol=args.tol)
    return RunReport(
        command="schedule check",
        inputs={"n_max": args.nmax},
        schedule=sdoc,
        results=report.to_dict(),
        checks=[
            {
                "name": "cross_level_recurrence",
                "value": report.max_violation,
                "tolerance": args.tol,
                "pass": report.ok,
            }
        ],
    )


def _cmd_schedule_derive(args, cap) -> RunReport:
    row = _load_json(args.row, "--row")
    if not isinstance(row, list):
        raise ValueError("--row must be a JSON list of rates")
    table = derive_lower([float(v) for v in row])
    return RunReport(
        command="schedule derive",
        inputs={"row": [float(v) for v in row]},
        results={"schedule": table.to_dict()},
    )


def _cmd_check_consistency(args, cap) -> RunReport:
    schedule, sdoc = _parse_schedule(args.schedule)
    targets = [args.m] if args.m is not None else list(range(1, args.n))
    per_level = {
        str(m): float(marginal_restriction_check(schedule, m, args.n, cap=cap)) for m in targets
    }
    worst = max(per_level.values())
    return RunReport(
        command="check-consistency",
        inputs={"m": args.m, "n": args.n},
        schedule=sdoc,
        results={"max_discrepancy": worst, "per_level": per_level},
        checks=[
            {
                "name": "marginal_restriction",
                "value": worst,
                "tolerance": args.tol,
                "pass": worst <= args.tol,
            }
        ],
    )


def _cmd_check_exchangeability(args, cap) -> RunReport:
    schedule, sdoc = _parse_schedule(args.schedule)
    worst = float(exchangeability_discrepancy(schedule, args.n, cap=cap))
    return RunReport(
        command="check-exchangeability",
        inputs={"n": args.n},
        schedule=sdoc,
        results={"max_discrepancy": worst},
        checks=[
            {
                "name": "relabeling_invariance",
                "value": worst,
                "tolerance": args.tol,
                "pass": worst <= args.tol,
            }
        ],
    )


def _cmd_mc_vs_exact(args, cap) -> RunReport:
    schedule, sdoc = _parse_schedule(args.schedule)
    exact_schedule = None
    exact_doc = None
    if args.exact_schedule is not None:
        exact_schedule, exact_doc = _parse_schedule(args.exact_schedule)
    results = mc_vs_exact(
        schedule,
        args.n,
        args.draws,
        args.seed,
        exact_schedule=exact_schedule,
        se_factor=args.se_factor,
        cap=cap,
    )
    return RunReport(
        command="mc-vs-exact",
        inputs={"n": args.n, "draws": args.draws, "exact_schedule": exact_doc},
        schedule=sdoc,
        seed=args.seed,
        results=results,
        checks=[
            {
                "name": "graph_cells_within_se",
                "value": results["flagged_cells"],
                "tolerance": 0,
                "pass": results["flagged_cells"] == 0,
            }
        ],
    )


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

def _add_schedule_flag(parser: argparse.ArgumentParser, required: bool = True) -> None:
    parser.add_argument(
        "--schedule",
        required=required,
        help='schedule JSON, e.g. \'{"kind":"geometric","alpha":0.5,"c":1}\' ("-" reads stdin)',
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="poissonclique",
        description="Exact laws, conditional inference, and simulation for the "
        "subset-process graph model.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("sample", help="draw the process and project it to a graph")
    _add_schedule_flag(p)
    p.add_argument("--n", type=int, required=True, help="ground-set size")
    p.add_argument("--seed", type=int, required=True, help="64-bit seed (draw i uses seed+i)")
    p.add_argument("--draws", type=int, default=1, help="number of pipeline draws (default 1)")
    p.add_argument(
        "--method",
        choices=[METHOD_INVERSION, METHOD_BERNOULLI],
        default=METHOD_INVERSION,
        help="full multiplicities or support-only fast path",
    )
    p.set_defaults(handler=_cmd_sample)

    p = sub.add_parser("covers", help="enumerate all generating classes projecting to a graph")
    p.add_argument("--graph", required=True, help='graph JSON {"n":..,"edges":[[i,j],..]}')
    p.set_defaults(handler=_cmd_covers)

    p = sub.add_parser("graph-prob", help="exact probability of one graph")
    _add_schedule_flag(p)
    p.add_argument("--graph", required=True)
    p.set_defaults(handler=_cmd_graph_prob)

    p = sub.add_parser("cluster-prob", help="P(subset is itself a latent point | graph)")
    _add_schedule_flag(p)
    p.add_argument("--graph", required=True)
    p.add_argument("--subset", required=True, help="JSON list of vertices, e.g. [1,2]")
    p.set_defaults(handler=_cmd_cluster_prob)

    p = sub.add_parser("coarse-cluster-prob", help="P(some latent point covers subset | graph)")
    _add_schedule_flag(p)
    p.add_argument("--graph", required=True)
    p.add_argument("--subset", required=True)
    p.set_defaults(handler=_cmd_coarse_cluster_prob)

    p = sub.add_parser("classify", help="posterior over extended supports given a grown graph")
    _add_schedule_flag(p)
    p.add_argument("--support", required=True, help='family JSON {"n":..,"members":[[..],..]}')
    p.add_argument("--graph", required=True, help="observed graph on n+1 vertices")
    p.set_defaults(handler=_cmd_classify)

    p = sub.add_parser("transitivity", help="P(2~3 | 1~2, 1~3) at n=3")
    _add_schedule_flag(p)
    p.set_defaults(handler=_cmd_transitivity)

    p = sub.add_parser("schedule", help="rate-schedule utilities")
    ssub = p.add_subparsers(dest="schedule_command", required=True)

    pc = ssub.add_parser("check", help="verify the cross-level recurrence")
    _add_schedule_flag(pc, required=False)
    pc.add_argument("--kind", choices=["geometric", "beta_uniform", "moment_atoms"])
    pc.add_argument("--alpha", type=float)
    pc.add_argument("--c", type=float, default=1.0)
    pc.add_argument("--atoms", help='JSON [[x,w],...] for --kind moment_atoms')
    pc.add_argument("--nmax", type=int, required=True)
    pc.add_argument("--tol", type=float, default=1e-12)
    pc.set_defaults(handler=_cmd_schedule_check)

    pd = ssub.add_parser("derive", help="fill all lower levels from one top row")
    pd.add_argument("--row", required=True, help="JSON list: rates at the top level")
    pd.set_defaults(handler=_cmd_schedule_derive)

    p = sub.add_parser(
        "check-consistency", help="exact restriction-marginal agreement across levels"
    )
    _add_schedule_flag(p)
    p.add_argument("--n", type=int, required=True, help="upper level")
    p.add_argument("--m", type=int, help="lower level (default: all m < n)")
    p.add_argument("--tol", type=float, default=1e-10)
    p.set_defaults(handler=_cmd_check_consistency)

    p = sub.add_parser("check-exchangeability", help="exact relabeling invariance of the graph law")
    _add_schedule_flag(p)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--tol", type=float, default=1e-10)
    p.set_defaults(handler=_cmd_check_exchangeability)

    p = sub.add_parser("mc-vs-exact", help="Monte Carlo graph frequencies against the exact law")
    _add_schedule_flag(p)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--draws", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument(
        "--exact-schedule",
        help="compare against this schedule's exact law instead (negative control)",
    )
    p.add_argument("--se-factor", type=float, default=MC_SE_FACTOR)
    p.set_defaults(handler=_cmd_mc_vs_exact)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    cap_text = os.environ.get("POISSONCLIQUE_MAX_N")
    try:
        cap = int(cap_text) if cap_text else None
    except ValueError:
        print(f"error: POISSONCLIQUE_MAX_N must be an integer, got {cap_text!r}", file=sys.stderr)
        return 2
    try:
        report = args.handler(args, cap)
        text = dumps(report.to_dict())
    except ResourceCapError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    sys.stdout.write(text)
    return 0 if report.ok else 1
