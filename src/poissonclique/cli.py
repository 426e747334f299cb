"""Command-line surface: every query prints one JSON report document to stdout.

The subcommands are the rows of one table, ``COMMANDS``.  A row gives the help
text, the flag specs and a small function that turns the parsed arguments into
``(inputs, results, checks)``; a two-word name such as "schedule check" nests
under a "schedule" sub-parser.  ``main`` reads every flag that takes a JSON
document (``JSON_FLAGS``) in one pass before the row's function runs, so "-"
reads the document from standard input on each of them, and wraps what the
function returns in the one report envelope: format_version, command, inputs,
schedule, seed, results, checks, and ok, true when every check passes.

Exit codes: 0 success, 1 a requested check failed, 2 usage or argument error,
3 a resource cap was exceeded or an array could not be allocated.  The only
environment knob is POISSONCLIQUE_MAX_N, which overrides the whole-level
enumeration cap.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from typing import TYPE_CHECKING, Callable, NamedTuple

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
from .sampling import (
    METHOD_INVERSION, METHODS, SEED_LIMIT, _graph_batches, check_seed, sample_pipeline
)
from .schedules import (
    RateSchedule, check_consistency, derive_lower, require_real, schedule_from_dict
)
from .serialization import (
    FORMAT_VERSION,
    cover_to_dict,
    dumps,
    family_from_dict,
    family_to_dict,
    graph_from_dict,
    graph_to_dict,
    require_int,
    sample_to_dict,
)

if TYPE_CHECKING:
    import numpy as np

# family-wise false-alarm rate of mc-vs-exact on the true law
MC_ALPHA = 1e-3
MC_TABLE_LIMIT = 1 << 10
# draws counted per block, so memory does not grow with --draws
MC_CHUNK_DRAWS = 1 << 16


def _bernoulli_kl(f: np.ndarray, p: np.ndarray) -> np.ndarray:
    """KL(Bernoulli(f) || Bernoulli(p)) per cell, with 0 log 0 = 0: infinite
    where f gives an outcome mass that p does not (p <= 0 < f or f < 1 <= p)."""
    import numpy as np

    with np.errstate(divide="ignore", invalid="ignore"):
        hit = np.where(p > 0, f * np.log(f / p), np.inf)
        miss = np.where(p < 1, (1 - f) * np.log((1 - f) / (1 - p)), np.inf)
    return np.where(f > 0, hit, 0.0) + np.where(f < 1, miss, 0.0)


def _count_bounds(p: np.ndarray, draws: int, limit: float) -> tuple[np.ndarray, np.ndarray]:
    """Per cell, the least and the greatest count c in [0, draws] with
    KL(c / draws || p) <= ``limit``, by bisection on either side of the count
    of least KL, next to p * draws, where KL is monotone.  That count passes
    whenever any count does, as the Chernoff bound behind ``limit`` implies."""
    import numpy as np

    below = np.minimum(np.maximum(np.floor(p * draws), 0), draws)
    above = np.minimum(below + 1, draws)
    closer = _bernoulli_kl(above / draws, p) < _bernoulli_kl(below / draws, p)
    nearest = np.where(closer, above, below).astype(np.int64)
    bounds = []
    for outside in (-1, draws + 1):
        fails, passes = np.full_like(nearest, outside), nearest
        while (open_ := abs(passes - fails) > 1).any():
            mid = (fails + passes) // 2
            failed = _bernoulli_kl(mid / draws, p) > limit
            fails = np.where(open_ & failed, mid, fails)
            passes = np.where(open_ & ~failed, mid, passes)
        bounds.append(passes)
    return bounds[0], bounds[1]


def mc_vs_exact(
    schedule: RateSchedule,
    n: int,
    draws: int,
    seed: int,
    *,
    exact_schedule: RateSchedule | None = None,
    alpha: float = MC_ALPHA,
    cap: int | None = None,
) -> dict:
    """Empirical graph frequencies vs the exact law, flagging a cell g when
    draws * KL(freq_g || p_g) > log(2 * cells / alpha), KL the Bernoulli
    divergence.  By the Chernoff bound on either side of p_g and a union over
    the cells, the exact law is flagged with probability at most ``alpha``, at
    every draw count.  A cell that ``graph_law`` computes as <= 0 (a mass
    below its rounding) is flagged by any draw that lands on it, whatever
    ``alpha`` is.  Each listed cell carries its bound [low,
    high]: the least and the greatest frequency count / draws that pass.

    ``exact_schedule`` lets a deliberately mismatched law be used on the exact
    side as a negative control; by default the sampling schedule is used.
    """
    import numpy as np

    if draws <= 0:
        raise ValueError("draws must be positive")
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must lie in (0, 1), got {alpha!r}")
    law = graph_law(n, exact_schedule if exact_schedule is not None else schedule, cap=cap)
    counts = np.zeros(law.size, dtype=np.int64)
    for masks in _graph_batches(schedule, n, draws, seed, MC_CHUNK_DRAWS):
        counts += np.bincount(masks, minlength=law.size)
    freq = counts.astype(float) / draws
    limit = math.log(2 * law.size / alpha) / draws
    flagged = _bernoulli_kl(freq, law) > limit
    listed = np.flatnonzero(flagged) if law.size > MC_TABLE_LIMIT else np.arange(law.size)
    low, high = _count_bounds(law[listed], draws, limit)
    cells = [
        {
            "edge_mask": int(g),
            "exact": float(law[g]),
            "empirical": float(freq[g]),
            "bound": [int(lo) / draws, int(hi) / draws],
            "pass": not bool(flagged[g]),
        }
        for g, lo, hi in zip(listed, low, high)
    ]
    return {
        "n": n,
        "draws": draws,
        "alpha": alpha,
        "flagged_cells": int(flagged.sum()),
        "max_deviation": float(np.abs(freq - law).max()),
        "cells": cells,
    }


# ---------------------------------------------------------------------------
# Row functions: parsed arguments (JSON flags already decoded) and the level
# cap in, (inputs, results, checks) out.  Library functions are looked up by
# their module-global name at call time, so wrappers installed on this module
# see every call.
# ---------------------------------------------------------------------------

def _check(name: str, value, tolerance, passed: bool) -> list[dict]:
    return [{"name": name, "value": value, "tolerance": tolerance, "pass": passed}]


def _sample(args, cap):
    if args.draws < 1:
        raise ValueError("--draws must be positive")
    schedule = schedule_from_dict(args.schedule)
    samples = []
    for i in range(args.draws):
        seed = (args.seed + i) % SEED_LIMIT
        samples.append(sample_to_dict(sample_pipeline(schedule, args.n, seed, method=args.method)))
    inputs = {"n": args.n, "draws": args.draws, "method": args.method}
    return inputs, {"samples": samples}, []


def _covers(args, cap):
    graph = graph_from_dict(args.graph)
    enumeration = enumerate_monotone_covers(graph)
    results = {"count": len(enumeration), "covers": [cover_to_dict(c) for c in enumeration.covers]}
    return {"graph": graph_to_dict(graph)}, results, []


def _graph_prob(args, cap):
    schedule, graph = schedule_from_dict(args.schedule), graph_from_dict(args.graph)
    prob = graph_prob(graph, schedule, cap=cap)
    return {"graph": graph_to_dict(graph)}, {"prob": float(prob)}, []


def _cluster(args, cap):
    schedule, graph = schedule_from_dict(args.schedule), graph_from_dict(args.graph)
    if not isinstance(args.subset, list):
        raise ValueError("--subset must be a JSON list of vertex labels")
    subset = mask_of((require_int(v, "subset vertex") for v in args.subset), graph.n)
    query = cluster_prob if args.command == "cluster-prob" else coarse_cluster_prob
    inputs = {"graph": graph_to_dict(graph), "subset": list(elements_of(subset))}
    return inputs, {"prob": float(query(subset, graph, schedule))}, []


def _classify(args, cap):
    schedule = schedule_from_dict(args.schedule)
    support, graph = family_from_dict(args.support), graph_from_dict(args.graph)
    distribution = classify_extension(support, graph, schedule)
    candidates = [{"family": family_to_dict(f), "prob": float(p)} for f, p in distribution.items()]
    inputs = {"support": family_to_dict(support), "graph": graph_to_dict(graph)}
    return inputs, {"candidates": candidates}, []


def _transitivity(args, cap):
    return {}, {"prob": float(transitivity_conditional(schedule_from_dict(args.schedule)))}, []


def _schedule_check(args, cap):
    if "schedule" in args:
        schedule = schedule_from_dict(args.schedule)
    else:
        # --kind/--alpha/--c/--atoms are shorthand for a schedule document
        doc = {key: getattr(args, key) for key in ("kind", "alpha", "c", "atoms") if key in args}
        if "kind" not in doc:
            raise ValueError("provide --schedule or --kind")
        schedule = schedule_from_dict(doc)
        args.schedule = schedule.to_dict()  # what the report echoes
    report = check_consistency(schedule, args.nmax, tol=args.tol)
    checks = _check("cross_level_recurrence", report.max_violation, args.tol, report.ok)
    return {"n_max": args.nmax}, report.to_dict(), checks


def _schedule_derive(args, cap):
    if not isinstance(args.row, list):
        raise ValueError("--row must be a JSON list of rates")
    row = [require_real(v, "rate") for v in args.row]
    return {"row": row}, {"schedule": derive_lower(row).to_dict()}, []


def _check_consistency(args, cap):
    if args.n < 2:
        raise ValueError(f"--n must be at least 2, so that a lower level m < n exists; got {args.n}")
    schedule = schedule_from_dict(args.schedule)
    m = getattr(args, "m", None)
    targets = [m] if m is not None else range(1, args.n)
    per_level = {
        str(k): float(marginal_restriction_check(schedule, k, args.n, cap=cap)) for k in targets
    }
    worst = max(per_level.values())
    checks = _check("marginal_restriction", worst, args.tol, worst <= args.tol)
    return {"m": m, "n": args.n}, {"max_discrepancy": worst, "per_level": per_level}, checks


def _check_exchangeability(args, cap):
    worst = float(exchangeability_discrepancy(schedule_from_dict(args.schedule), args.n, cap=cap))
    checks = _check("relabeling_invariance", worst, args.tol, worst <= args.tol)
    return {"n": args.n}, {"max_discrepancy": worst}, checks


def _mc_vs_exact(args, cap):
    schedule = schedule_from_dict(args.schedule)
    exact_doc = getattr(args, "exact_schedule", None)
    exact = schedule_from_dict(exact_doc) if "exact_schedule" in args else None
    results = mc_vs_exact(
        schedule, args.n, args.draws, args.seed,
        exact_schedule=exact, alpha=args.alpha, cap=cap,
    )
    flagged = results["flagged_cells"]
    inputs = {"n": args.n, "draws": args.draws, "exact_schedule": exact_doc}
    return inputs, results, _check("graph_cells_within_bound", flagged, 0, flagged == 0)


# ---------------------------------------------------------------------------
# Command table
# ---------------------------------------------------------------------------

def _checked(convert: Callable, ok: Callable, want: str) -> Callable:
    """An argparse type: ``convert(text)`` if it converts and passes ``ok``, else
    the usage error "must be <want>, got <text>"."""

    def check(text: str):
        try:
            value = convert(text)
            if ok(value):
                return value
        except ValueError:
            pass
        raise argparse.ArgumentTypeError(f"must be {want}, got {text!r}")

    return check


_seed = _checked(lambda text: check_seed(int(text)), lambda seed: True, "an integer in [0, 2^64)")
_level = _checked(int, lambda n: n >= 0, "an integer >= 0")
_nonnegative = _checked(float, lambda x: math.isfinite(x) and x >= 0.0, "a finite number >= 0")
_unit_open = _checked(float, lambda x: 0.0 < x < 1.0, "a number in (0, 1)")


class Command(NamedTuple):
    help: str
    flags: tuple[tuple[str, dict], ...]
    run: Callable


def _flag(name: str, **spec) -> tuple[str, dict]:
    return name, spec


# flags whose value is a JSON document, decoded in this order before a row runs
JSON_FLAGS = (
    "--schedule", "--exact-schedule", "--support", "--graph", "--subset", "--row", "--atoms"
)

SCHEDULE_HELP = 'schedule JSON, e.g. \'{"kind":"geometric","alpha":0.5,"c":1}\''
SCHEDULE = _flag("--schedule", required=True, help=SCHEDULE_HELP)
GRAPH = _flag("--graph", required=True, help='graph JSON {"n":..,"edges":[[i,j],..]}')
SUBSET = _flag("--subset", required=True, help="JSON list of vertices, e.g. [1,2]")
N = _flag("--n", type=_level, required=True, help="ground-set size (level)")
SEED = _flag("--seed", type=_seed, required=True, help="seed in [0, 2^64)")
EXACT_TOL = _flag("--tol", type=_nonnegative, default=1e-10)

COMMANDS = {
    "sample": Command(
        "draw the process and project it to a graph",
        (
            SCHEDULE,
            N,
            SEED,
            _flag("--draws", type=int, default=1, help="number of draws; draw i uses seed+i"),
            _flag(
                "--method",
                choices=METHODS,
                default=METHOD_INVERSION,
                help="full multiplicities or support-only fast path",
            ),
        ),
        _sample,
    ),
    "covers": Command("enumerate all generating classes projecting to a graph", (GRAPH,), _covers),
    "graph-prob": Command("exact probability of one graph", (SCHEDULE, GRAPH), _graph_prob),
    "cluster-prob": Command(
        "P(subset is itself a latent point | graph)", (SCHEDULE, GRAPH, SUBSET), _cluster
    ),
    "coarse-cluster-prob": Command(
        "P(some latent point covers subset | graph)", (SCHEDULE, GRAPH, SUBSET), _cluster
    ),
    "classify": Command(
        "posterior over extended supports given a grown graph",
        (
            SCHEDULE,
            _flag("--support", required=True, help='family JSON {"n":..,"members":[[..],..]}'),
            _flag("--graph", required=True, help="observed graph on n+1 vertices"),
        ),
        _classify,
    ),
    "transitivity": Command("P(2~3 | 1~2, 1~3) at n=3", (SCHEDULE,), _transitivity),
    "schedule check": Command(
        "verify the cross-level recurrence",
        (
            _flag("--schedule", help=SCHEDULE_HELP + " (wins over --kind)"),
            _flag("--kind", choices=["geometric", "beta_uniform", "moment_atoms"]),
            _flag("--alpha", type=float),
            _flag("--c", type=float),
            _flag("--atoms", help="JSON [[x,w],...] for --kind moment_atoms"),
            _flag("--nmax", type=int, required=True),
            _flag("--tol", type=_nonnegative, default=1e-12),
        ),
        _schedule_check,
    ),
    "schedule derive": Command(
        "fill all lower levels from one top row",
        (_flag("--row", required=True, help="JSON list: rates at the top level"),),
        _schedule_derive,
    ),
    "check-consistency": Command(
        "exact restriction-marginal agreement across levels",
        (SCHEDULE, N, _flag("--m", type=int, help="lower level (default: all m < n)"), EXACT_TOL),
        _check_consistency,
    ),
    "check-exchangeability": Command(
        "exact relabeling invariance of the graph law",
        (SCHEDULE, N, EXACT_TOL),
        _check_exchangeability,
    ),
    "mc-vs-exact": Command(
        "Monte Carlo graph frequencies against the exact law",
        (
            SCHEDULE,
            N,
            _flag("--draws", type=int, required=True),
            SEED,
            _flag("--exact-schedule", help="use this schedule's exact law (negative control)"),
            _flag("--alpha", type=_unit_open, default=MC_ALPHA, help="family-wise false-alarm rate"),
        ),
        _mc_vs_exact,
    ),
}
GROUPS = {"schedule": "rate-schedule utilities"}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="poissonclique",
        description="Exact laws, conditional inference, and simulation for the "
        "subset-process graph model.  Flags taking JSON accept \"-\" to read standard input.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    groups = {"": parser.add_subparsers(dest="command", required=True)}
    for name, command in COMMANDS.items():
        group, _, leaf = name.rpartition(" ")
        if group not in groups:
            nested = groups[""].add_parser(group, help=GROUPS[group])
            groups[group] = nested.add_subparsers(dest=f"{group}_command", required=True)
        # a flag that is neither given nor defaulted is absent from the namespace
        p = groups[group].add_parser(leaf, help=command.help, argument_default=argparse.SUPPRESS)
        for flag, spec in command.flags:
            p.add_argument(flag, **spec)
        p.set_defaults(command=name)
    return parser


def _load_json(text: str, flag: str):
    if text == "-":
        text = sys.stdin.read()
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"invalid JSON for {flag}: {exc}") from None


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    cap_text = os.environ.get("POISSONCLIQUE_MAX_N")
    try:
        cap = _level(cap_text) if cap_text else None
    except argparse.ArgumentTypeError as exc:
        print(f"error: POISSONCLIQUE_MAX_N {exc}", file=sys.stderr)
        return 2
    try:
        for flag in JSON_FLAGS:
            dest = flag[2:].replace("-", "_")
            if dest in args:
                setattr(args, dest, _load_json(getattr(args, dest), flag))
        inputs, results, checks = COMMANDS[args.command].run(args, cap)
        report = {
            "format_version": FORMAT_VERSION,
            "command": args.command,
            "inputs": inputs,
            "schedule": getattr(args, "schedule", None),
            "seed": getattr(args, "seed", None),
            "results": results,
            "checks": checks,
            "ok": all(check["pass"] for check in checks),
        }
        text = dumps(report)
    except (ResourceCapError, MemoryError) as exc:  # MemoryError: an array NumPy could not allocate
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    sys.stdout.write(text)
    return 0 if report["ok"] else 1
