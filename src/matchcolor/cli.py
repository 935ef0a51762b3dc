"""Command-line front end.

Subcommands: chi-star, color, list-color, calibrate, sample, verify
(chi-e | dist).  JSON output is emitted with sorted keys so equal inputs and
seeds give byte-equal output.  Timing lives in ``bench/run.py``, not here.

Exit codes: 0 success, 1 computation failed or verification rejected,
2 malformed invocation or input.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .colorer import GsConfig, color_multigraph
from .errors import (
    CalibrationError,
    CapacityError,
    GreedyBlockedError,
    InfeasibleTargetError,
    LocalSearchError,
    ParseError,
    RoundError,
)
from .fractional import chi_star
from .graphs import Multigraph, load_multigraph, validate_coloring
from .hardcore import (
    SAMPLERS,
    ChainConfig,
    HardCoreModel,
    calibrate_activities,
    draw_matching,
    sample_matching,
)
from .listcolor import ListConfig, list_edge_color
from .oracle import brute_force_chromatic_index, exact_distribution, tv_distance
from .rng import stream

USAGE_ERROR = 2
FAILURE = 1


def _read_graph(path: str) -> Multigraph:
    return load_multigraph(Path(path).read_text())


def _read_json(path: str):
    return json.loads(Path(path).read_text())


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _is_color_list(value) -> bool:
    return isinstance(value, list) and all(_is_int(c) for c in value)


def _int_key_map(raw, what: str, valid, expect: str) -> dict[int, object]:
    """``raw`` keyed by integer edge id, each value passing ``valid``."""
    if not isinstance(raw, dict):
        raise ParseError(f"{what} must be a JSON object keyed by edge id")
    try:
        out = {int(k): v for k, v in raw.items()}
    except (TypeError, ValueError) as err:
        raise ParseError(f"{what}: non-integer edge id") from err
    for e, v in out.items():
        if not valid(v):
            raise ParseError(f"{what}: edge {e} must map to {expect}, got {json.dumps(v)}")
    return out


def _read_lists(path: str) -> dict[int, list[int]]:
    return _int_key_map(_read_json(path), "lists", _is_color_list, "an array of integer colors")


def _emit(obj, path: str | None = None) -> None:
    text = json.dumps(obj, sort_keys=True, indent=2) + "\n"
    if path:
        Path(path).write_text(text)
    else:
        sys.stdout.write(text)


def _activities_for(graph: Multigraph, args) -> list[float]:
    if getattr(args, "activities", None):
        raw = _int_key_map(_read_json(args.activities), "activities", _is_number, "a number")
        missing = [e for e in range(graph.m) if e not in raw]
        if missing:
            raise ParseError(f"activities file misses edge ids {missing[:5]}")
        return [float(raw[e]) for e in range(graph.m)]
    return [float(args.uniform_activity)] * graph.m


def _cmd_chi_star(args) -> int:
    graph = _read_graph(args.graph)
    idx = chi_star(graph)
    witness = (
        "degree"
        if idx.witness == "degree"
        else {
            "vertices": list(idx.witness.vertices),
            "edges": idx.witness.edge_count,
            "ratio": str(idx.witness.ratio),
        }
    )
    _emit(
        {
            "chi_star": str(idx.value),
            "value": float(idx.value),
            "witness": witness,
            "exhaustive": idx.exhaustive,
        }
    )
    return 0


def _gs_config(args) -> GsConfig:
    return GsConfig(
        epsilon=args.epsilon,
        master_seed=args.seed,
        chi0_override=args.chi0,
        t_override=args.radius,
        sampler=args.sampler,
        chain_steps=args.chain_steps,
        retries=args.retries,
        step_cap=args.step_cap,
    )


def _cmd_color(args) -> int:
    graph = _read_graph(args.graph)
    coloring, stats = color_multigraph(graph, _gs_config(args))
    report = validate_coloring(graph, coloring)
    if not report.proper or report.uncolored:
        _emit({"error": "produced coloring failed validation"})
        return FAILURE
    _emit({"coloring": {str(e): c for e, c in sorted(coloring.items())}, "stats": stats}, args.out)
    return 0


def _cmd_list_color(args) -> int:
    graph = _read_graph(args.graph)
    lists = _read_lists(args.lists)
    cfg = ListConfig(
        epsilon=args.epsilon,
        master_seed=args.seed,
        alpha_override=args.alpha,
        t_override=args.radius,
        sampler=args.sampler,
        chain_steps=args.chain_steps,
        max_iterations=args.max_iterations,
        step_cap=args.step_cap,
        edge_threshold=None if args.no_edge_flaws else args.edge_threshold,
        vertex_threshold=args.vertex_threshold,
    )
    coloring, stats = list_edge_color(graph, lists, cfg)
    report = validate_coloring(graph, coloring, lists)
    if not report.ok or report.uncolored:
        _emit({"error": "produced coloring failed validation"})
        return FAILURE
    _emit({"coloring": {str(e): c for e, c in sorted(coloring.items())}, "stats": stats}, args.out)
    return 0


def _cmd_calibrate(args) -> int:
    graph = _read_graph(args.graph)
    result = calibrate_activities(
        graph,
        args.target,
        tol=args.tol,
        max_iters=args.max_iters,
        chain=ChainConfig(steps=args.chain_steps),
        samples=args.samples,
        rng=stream(args.seed, "cli", "calibrate"),
    )
    _emit(
        {
            "activities": {str(e): v for e, v in sorted(result.activities.items())},
            "achieved": {str(e): v for e, v in sorted(result.achieved.items())},
            "max_error": result.max_error,
            "iterations": result.iterations,
            "k_hat": result.k_hat,
            "method": result.method,
        }
    )
    return 0


def _cmd_sample(args) -> int:
    if args.count < 0:
        raise ValueError("count must be non-negative")
    graph = _read_graph(args.graph)
    sampler = "exact" if args.exact else "chain"
    model = HardCoreModel(graph, _activities_for(graph, args), sampler, args.chain_steps)
    rng = stream(args.seed, "cli", "sample")
    out = [sorted(draw_matching(model, rng)) for _ in range(args.count)]
    _emit({"matchings": out})
    return 0


def _cmd_verify_chi_e(args) -> int:
    graph = _read_graph(args.graph)
    coloring = _int_key_map(_read_json(args.coloring), "coloring", _is_int, "an integer color")
    lists = _read_lists(args.lists) if args.lists else None
    report = validate_coloring(graph, coloring, lists)
    payload = {
        "proper": report.proper,
        "conflicts": [list(p) for p in report.conflicts],
        "colors_used": report.colors_used,
        "list_violations": list(report.list_violations),
        "uncolored": list(report.uncolored),
    }
    ok = report.ok and not report.uncolored
    if args.optimal:
        best = brute_force_chromatic_index(graph)
        payload["chromatic_index"] = best
        payload["optimal"] = report.colors_used == best
        ok = ok and report.colors_used == best
    _emit(payload)
    return 0 if ok else FAILURE


def _cmd_verify_dist(args) -> int:
    if args.samples <= 0:
        raise ValueError("samples must be positive")
    graph = _read_graph(args.graph)
    model = HardCoreModel(graph, _activities_for(graph, args))
    exact = exact_distribution(model)
    rng = stream(args.seed, "cli", "verify-dist")
    counts: dict[frozenset[int], int] = {}
    for _ in range(args.samples):
        m = sample_matching(model, ChainConfig(steps=args.chain_steps), rng=rng)
        counts[m] = counts.get(m, 0) + 1
    tv = tv_distance(exact, counts)
    _emit({"tv_distance": tv, "samples": args.samples, "tolerance": args.tol})
    return 0 if tv <= args.tol else FAILURE


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="matchcolor",
        description="Near-optimal multigraph edge coloring via hard-core matchings.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("chi-star", help="fractional chromatic index")
    p.add_argument("graph")
    p.set_defaults(func=_cmd_chi_star)

    p = sub.add_parser("color", help="edge-color a multigraph")
    p.add_argument("graph")
    p.add_argument("--epsilon", type=float, default=0.1)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--chi0", type=int, default=None, help="greedy threshold override")
    p.add_argument("--radius", type=int, default=None, help="resample radius override")
    p.add_argument("--sampler", choices=SAMPLERS, default="auto")
    p.add_argument("--chain-steps", type=int, default=None)
    p.add_argument("--retries", type=int, default=3)
    p.add_argument("--step-cap", type=int, default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_color)

    p = sub.add_parser("list-color", help="edge-color from per-edge color lists")
    p.add_argument("graph")
    p.add_argument("lists", help="JSON object: edge id -> list of colors")
    p.add_argument("--epsilon", type=float, default=0.1)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--alpha", type=float, default=None)
    p.add_argument("--radius", type=int, default=None)
    p.add_argument("--sampler", choices=SAMPLERS, default="auto")
    p.add_argument("--chain-steps", type=int, default=None)
    p.add_argument("--max-iterations", type=int, default=50)
    p.add_argument("--step-cap", type=int, default=200)
    p.add_argument("--edge-threshold", type=float, default=0.25)
    p.add_argument("--no-edge-flaws", action="store_true")
    p.add_argument("--vertex-threshold", type=float, default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_list_color)

    p = sub.add_parser("calibrate", help="fit activities to a marginal target")
    p.add_argument("graph")
    p.add_argument("--target", required=True, help="rational marginal, e.g. 1/5 or 0.2")
    p.add_argument("--tol", type=float, default=None)
    p.add_argument("--max-iters", type=int, default=500)
    p.add_argument("--chain-steps", type=int, default=None)
    p.add_argument("--samples", type=int, default=400)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_calibrate)

    p = sub.add_parser("sample", help="draw matchings from a hard-core model")
    p.add_argument("graph")
    p.add_argument("--uniform-activity", type=float, default=1.0)
    p.add_argument("--activities", default=None, help="JSON edge id -> activity")
    p.add_argument("--count", type=int, default=1)
    p.add_argument("--chain-steps", type=int, default=None)
    p.add_argument(
        "--exact",
        action="store_true",
        help="draw exactly from the hard-core law instead of running the chain",
    )
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_sample)

    p = sub.add_parser("verify", help="check artifacts")
    vsub = p.add_subparsers(dest="verify_command", required=True)

    v = vsub.add_parser("chi-e", help="validate an edge coloring")
    v.add_argument("graph")
    v.add_argument("coloring", help="JSON edge id -> color")
    v.add_argument("--lists", default=None)
    v.add_argument("--optimal", action="store_true", help="compare against the exact chromatic index")
    v.set_defaults(func=_cmd_verify_chi_e)

    v = vsub.add_parser("dist", help="total variation of chain samples vs the exact law")
    v.add_argument("graph")
    v.add_argument("--uniform-activity", type=float, default=1.0)
    v.add_argument("--activities", default=None)
    v.add_argument("--samples", type=int, default=2000)
    v.add_argument("--chain-steps", type=int, default=None)
    v.add_argument("--tol", type=float, default=0.05)
    v.add_argument("--seed", type=int, default=0)
    v.set_defaults(func=_cmd_verify_dist)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ParseError, json.JSONDecodeError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return USAGE_ERROR
    except (
        InfeasibleTargetError,
        CalibrationError,
        LocalSearchError,
        RoundError,
        GreedyBlockedError,
        CapacityError,
    ) as err:
        print(f"error: {err}", file=sys.stderr)
        return FAILURE
    except ValueError as err:
        print(f"error: {err}", file=sys.stderr)
        return USAGE_ERROR


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
