"""Closed-loop benchmark of matchcolor, end to end and per layer.

    python3 bench/run.py --workload gs_banded --seed 1 --seconds 50 --trace 0

One caller, one process, one thread: each operation starts after the
previous one returns.  A pass runs the workload's size ladder once, and a run
repeats whole passes until ``--seconds`` have passed, so every run holds the
same mix of sizes.  Operations cycle through a corpus generated from
``--seed``.  Outputs are checked after the timed loop; a typed ``matchcolor``
error or a wrong output is a failed operation, and any failure makes the
command exit 1.

``--trace 0`` prints the end-to-end metrics.  Latency and throughput are
given in reference units: the run's median time of ``reference_work``, a
fixed computation timed before each operation, so that they follow the
program rather than the host's drifting speed.  ``--trace 1`` runs every
operation twice, untraced and then traced, and prints per-layer metrics:
per operation, the calls, busy seconds and self seconds of each traced
function, counters read from return values, the unattributed share of
operation wall, and the tracing overhead (traced minus untraced wall).  The
spans go to ``bench/out/spans-<workload>-seed<seed>.jsonl``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
record the environment and the run.  ``bench/README.md`` gives each
workload's rationale and the predicted effect of each layer.
"""

from __future__ import annotations

import os

# One BLAS thread, set before anything can load numpy.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import gc
import json
import math
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"

DEFAULT_SEED = 1
HELDOUT_SEED = 7919  # kept out of tuning; check claimed gains on it too
SETUP_PROBES = 6  # fresh processes timing set-up, besides this one
TAIL_BEYOND = 10  # op tail: highest percentile with this many ops beyond it


def setup(workload: str, seed: int):
    """Import the program and generate the corpus; returns (workload, corpus, seconds)."""
    start = time.perf_counter()
    sys.path.insert(0, str(SRC))
    import matchcolor

    if not Path(matchcolor.__file__).resolve().is_relative_to(SRC):
        raise ImportError(f"matchcolor was imported from {matchcolor.__file__}, not from {SRC}")
    import workloads

    wl = workloads.WORKLOADS[workload]
    corpus = wl.build(seed)
    return wl, corpus, time.perf_counter() - start


def probe_setup(workload: str, seed: int) -> float:
    """Set-up seconds measured in a fresh interpreter."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
         "--workload", workload, "--seed", str(seed)],
        capture_output=True, text=True, timeout=120, cwd=ROOT, check=True,
    )
    return float(proc.stdout.strip().splitlines()[-1])


def environment() -> dict[str, Any]:
    import numpy

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "commit": git_commit(),
        "machine": platform.machine(),
    }


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git; "unknown"
    when the checkout is not a git repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


REF_N = 20  # vertices of the reference graph, a Moebius ladder; about 13 ms per call


def reference_work() -> float:
    """A fixed computation that times the machine, not the program.

    The host's speed drifts by tens of percent over minutes, and this drifts
    with it.  It is the kind of work matchcolor's exact path does: log Z of
    the hard-core model on matchings of a small fixed graph, by a memoised
    recursion over frozensets of free vertices with a log-sum-exp at each
    state (2547 states).  It never calls matchcolor, so a change to the
    program cannot change it.
    """
    adj: dict[int, list[int]] = {v: [] for v in range(REF_N)}
    for v in range(REF_N):
        for u in ((v + 1) % REF_N, (v + REF_N // 2) % REF_N):
            adj[v].append(u)
            adj[u].append(v)
    log_w = math.log(0.7)
    memo: dict[frozenset[int], float] = {}

    def log_z(free: frozenset[int]) -> float:
        if len(free) < 2:
            return 0.0
        got = memo.get(free)
        if got is not None:
            return got
        v = min(free)
        rest = free - {v}
        terms = [log_z(rest)]
        for u in adj[v]:
            if u in rest:
                terms.append(log_w + log_z(rest - {u}))
        top = max(terms)
        memo[free] = value = top + math.log(sum(math.exp(t - top) for t in terms))
        return value

    return log_z(frozenset(range(REF_N)))


def time_reference() -> float:
    """Seconds one reference_work takes, with the collector paused so that
    the program's heap cannot add to it."""
    gc.disable()
    try:
        start = time.perf_counter()
        reference_work()
        return time.perf_counter() - start
    finally:
        gc.enable()


@dataclass
class OpRecord:
    instance: Any
    latency: float
    output: Any = None
    error: BaseException | None = None
    problems: list[str] | None = None


def run_one(wl, inst, errors) -> OpRecord:
    start = time.perf_counter()
    try:
        output = wl.run(inst)
    except errors as err:
        return OpRecord(inst, time.perf_counter() - start, error=err)
    return OpRecord(inst, time.perf_counter() - start, output)


def closed_loop(wl, corpus, seconds: float, tracer=None):
    """Run whole passes of operations back to back until the deadline.

    Returns (untraced records, traced records, reference samples, loop
    wall).  The reference computation is timed before each operation.
    With a tracer, each operation runs untraced and then traced on the same
    instance, and the draws and calibrations the tracer saw are checked
    afterwards.
    """
    from workloads import PROGRAM_ERRORS as errors, traced_output_problems

    plain: list[OpRecord] = []
    traced: list[OpRecord] = []
    refs: list[float] = []
    start = time.perf_counter()
    deadline = start + seconds
    while not plain or len(plain) % wl.pass_length or time.perf_counter() < deadline:
        refs.append(time_reference())
        inst = corpus[len(plain) % len(corpus)]
        if tracer is None:
            plain.append(run_one(wl, inst, errors))
            continue
        op_id = len(traced)
        # Alternate which run goes first, so warm-up effects cancel out of
        # the overhead figure.
        if op_id % 2:
            plain.append(run_one(wl, inst, errors))
        with tracer:
            rec = tracer.run_op(op_id, lambda: run_one(wl, inst, errors))
        rec.problems = traced_output_problems(tracer.take_outputs())
        traced.append(rec)
        if not op_id % 2:
            plain.append(run_one(wl, inst, errors))
    return plain, traced, refs, time.perf_counter() - start


def check(wl, records: list[OpRecord]) -> None:
    for rec in records:
        if rec.error is not None:
            rec.problems = [f"{type(rec.error).__name__}: {rec.error}"]
        else:
            rec.problems = (rec.problems or []) + wl.check(rec.instance, rec.output)


def same_output(a, b) -> bool:
    """Traced and untraced runs of one instance must agree exactly."""
    if isinstance(a, tuple):
        return a[1:] == b[1:]
    return {k: v for k, v in a.items() if k != "graph"} == {k: v for k, v in b.items() if k != "graph"}


def tail(values: list[float]) -> tuple[float, float]:
    """The value at the highest percentile with TAIL_BEYOND values beyond
    it, and that percentile."""
    ordered = sorted(values)
    count = len(ordered)
    if count <= TAIL_BEYOND:
        return ordered[-1], 100.0
    return ordered[count - TAIL_BEYOND - 1], 100.0 * (count - TAIL_BEYOND) / count


def end_to_end(wl, plain: list[OpRecord], refs: list[float], wall: float, setup_s: float,
               rss_mb: float) -> tuple[dict, dict]:
    """Latency and throughput in reference units, plus set-up and memory.

    Operation latencies are divided by the run's median reference time, so
    the figures follow the program, not the host's drifting speed.  The same
    figures in seconds go on the ``# run`` line.
    """
    per = wl.pass_length
    passes = len(plain) // per
    unit = statistics.median(refs)
    norm = [r.latency / unit for r in plain]
    ok = [not r.problems for r in plain]
    pass_rates = []
    for p in range(passes):
        ops = range(p * per, (p + 1) * per)
        pass_rates.append(sum(plain[i].instance.m for i in ops if ok[i]) / sum(norm[i] for i in ops))
    lat = [r.latency for r in plain]
    count = len(plain)
    tail_ref, tail_pct = tail(norm)
    metrics = {
        "setup_s": (setup_s, "s"),
        "op_p50_ref": (statistics.median(norm), "ref"),
        "op_tail_ref": (tail_ref, "ref"),
        "edges_per_ref": (statistics.median(pass_rates), "1/ref"),
        "peak_rss_mb": (rss_mb, "MB"),
    }
    extra = {
        "ops": count,
        "passes": passes,
        "op_tail_percentile": tail_pct,
        "loop_wall_s": wall,
        "ref_unit_s": unit,
        "op_p50_s": statistics.median(lat),
        "op_tail_s": tail(lat)[0],
        "edges_per_s": sum(r.instance.m for r, good in zip(plain, ok) if good) / sum(lat),
        "failure_rate": (count - sum(ok)) / count,
    }
    if wl.quality is not None and any(ok):
        extra["colors_over_chi_star"] = statistics.fmean(wl.quality(r.output) for r in plain if not r.problems)
    return metrics, extra


# Per-layer metric names; each traced function reports calls, busy_s, self_s.
LAYER_SPANS = (
    "graphs.load_multigraph",
    "graphs.induced_subgraph",
    "graphs.restrict_edges",
    "graphs.ball_subgraph",
    "fractional.chi_star",
    "fractional.find_violated_matching_constraint",
    "hardcore.calibrate_activities",
    "hardcore.exact_marginals",
    "hardcore.log_partition_function",
    "hardcore.sample_matching_recursive",
    "hardcore.sample_matching",
    "hardcore.estimate_marginals",
    "localsearch.run_with_selector",
    "localsearch.select",
    "localsearch.repair",
    "colorer.plan_round",
    "colorer.initial_state",
    "colorer.run_round",
    "colorer.resample_matching",
    "colorer.greedy_edge_coloring",
)
FLAW_KINDS = ("vertex", "odd_set", "edge")


def per_layer(tracer, plain: list[OpRecord], traced: list[OpRecord]) -> dict:
    from spans import OP_SPAN, REPAIR_SPAN

    ops = len(traced)
    selfs = tracer.self_times()
    calls: dict[str, int] = {}
    busy: dict[str, float] = {}
    own: dict[str, float] = {}
    counts = {"iterations": 0, "steps": 0, "failed": 0}
    kinds = dict.fromkeys(FLAW_KINDS, 0)
    for idx, name in enumerate(tracer.names):
        calls[name] = calls.get(name, 0) + 1
        busy[name] = busy.get(name, 0.0) + tracer.end[idx] - tracer.start[idx]
        own[name] = own.get(name, 0.0) + selfs[idx]
        extra = tracer.counters.get(idx, {})
        for key in ("iterations", "steps", "failed"):
            counts[key] += extra.get(key, 0)
        if name == REPAIR_SPAN:
            kinds[extra["kind"]] = kinds.get(extra["kind"], 0) + 1
    metrics: dict[str, tuple[float, str]] = {}
    for name in LAYER_SPANS:
        metrics[f"{name}.calls"] = (calls.get(name, 0) / ops, "1/op")
        metrics[f"{name}.busy_s"] = (busy.get(name, 0.0) / ops, "s/op")
        metrics[f"{name}.self_s"] = (own.get(name, 0.0) / ops, "s/op")
    metrics["colorer.commit.self_s"] = (own.get("colorer.color_multigraph", 0.0) / ops, "s/op")
    metrics["hardcore.calibrate_activities.iterations"] = (counts["iterations"] / ops, "1/op")
    metrics["localsearch.run_with_selector.steps"] = (counts["steps"] / ops, "1/op")
    metrics["localsearch.run_with_selector.failed"] = (counts["failed"] / ops, "1/op")
    for kind in FLAW_KINDS:
        metrics[f"localsearch.flaws.{kind}"] = (kinds[kind] / ops, "1/op")
    op_wall = busy.get(OP_SPAN, 0.0)
    unattributed = own.get(OP_SPAN, 0.0)
    plain_wall = sum(r.latency for r in plain)
    metrics["bench.ops"] = (float(ops), "count")
    metrics["bench.op_wall_s"] = (op_wall / ops, "s/op")
    metrics["bench.unattributed_s"] = (unattributed / ops, "s/op")
    metrics["bench.unattributed_share"] = (unattributed / op_wall, "ratio")
    metrics["bench.trace_overhead_s"] = ((op_wall - plain_wall) / ops, "s/op")
    metrics["bench.trace_overhead_share"] = ((op_wall - plain_wall) / plain_wall, "ratio")
    return metrics


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=("gs_banded", "cubic_exact"))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=50.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    try:
        wl, corpus, setup_s = setup(args.workload, args.seed)
    except ImportError as err:
        print(f"bench: cannot import the program from {SRC}: {err}", file=sys.stderr)
        return 2
    if args.setup_probe:
        print(repr(setup_s))
        return 0
    setup_samples = [setup_s] + [probe_setup(args.workload, args.seed) for _ in range(SETUP_PROBES)]
    env = environment()
    print("# env " + json.dumps(env, sort_keys=True), flush=True)

    tracer = None
    if args.trace:
        from spans import Tracer

        tracer = Tracer()
    plain, traced, refs, wall = closed_loop(wl, corpus, args.seconds, tracer)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    check(wl, plain)
    check(wl, traced)
    for a, b in zip(plain, traced):
        if a.output is not None and b.output is not None and not same_output(a.output, b.output):
            b.problems.append("traced output differs from the untraced output")
    records = plain + traced
    failed = [r for r in records if r.problems]
    for rec in failed[:5]:
        print(f"# FAILED op on instance {rec.instance.index} ({rec.instance.kind}, n={rec.instance.n}): "
              + "; ".join(rec.problems[:3]), flush=True)

    metrics, extra = end_to_end(wl, plain, refs, wall, statistics.median(setup_samples), rss_mb)
    extra["setup_samples_s"] = setup_samples
    extra["op_latencies"] = [[r.instance.index, r.instance.n, r.latency] for r in plain]
    OUT_DIR.mkdir(exist_ok=True)
    if tracer is not None:
        spans_path = OUT_DIR / f"spans-{args.workload}-seed{args.seed}.jsonl"
        tracer.write_jsonl(spans_path)
        metrics = per_layer(tracer, plain, traced)
        extra["spans_file"] = str(spans_path.relative_to(ROOT))
    print("# run " + json.dumps(
        {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
         "trace": args.trace, **{k: v for k, v in extra.items() if k != "op_latencies"}},
        sort_keys=True), flush=True)
    result = {
        "correct": not failed,
        "attempted": len(records),
        "failed": len(failed),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    with open(OUT_DIR / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json", "w") as fh:
        json.dump({"env": env, "run": extra, **result}, fh, indent=1, sort_keys=True)
    print(json.dumps(result), flush=True)
    return 0 if not failed else 1


if __name__ == "__main__":
    sys.exit(main())
