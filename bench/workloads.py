"""Benchmark workloads: seeded input generators, operations, and output checks.

Each workload turns a seed into a corpus of instances (``build``), runs one
instance per operation (``run``), and checks an operation's output
(``check``), returning the list of problems found.  Inputs are generated here,
not taken from the test suite, so editing a test cannot change a workload.
The program sees only the generated graph text and configs.

Every instance carries its graph as edge-list text, and every operation
starts by parsing it with ``load_multigraph``.  Functions are looked up on the
``matchcolor`` modules at call time, so the tracer's wrappers apply.

A corpus is ``CORPUS_PASSES`` passes over the workload's size ladder, with
fresh random structure for every instance.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Callable

import numpy as np

import matchcolor
from matchcolor import colorer, fractional, graphs, hardcore

# Typed failures of the program: an operation raising one of these failed.
PROGRAM_ERRORS: tuple[type[BaseException], ...] = (
    matchcolor.CalibrationError,
    matchcolor.CapacityError,
    matchcolor.GreedyBlockedError,
    matchcolor.InfeasibleTargetError,
    matchcolor.LocalSearchError,
    matchcolor.ParseError,
    matchcolor.RoundError,
)

# One pass of each workload runs its ladder once; a run is a whole number of
# passes, so every run holds the same mix of sizes.
GS_LADDER = (11, 17, 24)
# (vertices, what the operation runs after chi*): "calibrate" fits
# activities to (39/40)/chi* and draws exactly; "exact" computes log Z and
# marginals at unit activity and draws exactly; "chain" draws with the
# Metropolis chain at its default budget and estimates marginals from it.
CUBIC_LADDER = ((12, "calibrate"), (34, "exact"), (48, "chain"))
CORPUS_PASSES = 40  # distinct instances per rung; longer runs cycle
EXACT_DRAWS = 20
CHAIN_DRAWS = 4
CHAIN_ESTIMATE_SAMPLES = 8
CALIBRATION_TOL = 1e-6  # the exact path's default tolerance


@dataclass
class Instance:
    """One operation's input: graph text plus whatever the operation needs."""

    index: int
    n: int
    m: int
    text: str
    kind: str
    payload: Any = None


# ---------------------------------------------------------------------------
# Generators


def graph_text(n: int, edges: list[tuple[int, int]]) -> str:
    lines = [f"p {n} {len(edges)}"]
    lines.extend(f"e {u} {v}" for u, v in edges)
    return "\n".join(lines) + "\n"


def banded_edges(
    rng: random.Random, n: int, delta_max: int, mult_lo: int, mult_hi: int, chords: int = 3
) -> list[tuple[int, int]]:
    """A cycle skeleton with up to ``chords`` chords and heavy multiplicities.

    Distinct endpoint pairs stay at most n + chords, so the collapsed graph
    fits the exact partition-function path, while host edges and the maximum
    degree scale with the multiplicities.  Degrees are clamped to delta_max
    by thinning the heaviest incident bundle.
    """
    pairs: dict[tuple[int, int], int] = {}
    for i in range(n):
        key = tuple(sorted((i, (i + 1) % n)))
        pairs[key] = rng.randint(mult_lo, mult_hi)
    for _ in range(rng.randint(0, chords)):
        u, v = rng.sample(range(n), 2)
        key = tuple(sorted((u, v)))
        pairs[key] = pairs.get(key, 0) + 1
    for v in range(n):
        while sum(m for k, m in pairs.items() if v in k) > delta_max:
            key = max((k for k in pairs if v in k), key=lambda k: (pairs[k], k))
            pairs[key] -= 1
            if pairs[key] == 0:
                del pairs[key]
    edges: list[tuple[int, int]] = []
    for (u, v), mult in sorted(pairs.items()):
        edges.extend([(u, v)] * mult)
    return edges


def cubic_edges(rng: random.Random, n: int) -> list[tuple[int, int]]:
    """A uniform random simple 3-regular graph: pair the 3n half-edges at
    random and reject pairings with loops or parallel edges."""
    if n % 2 or n < 4:
        raise ValueError("a 3-regular graph needs an even n >= 4")
    while True:
        points = [v for v in range(n) for _ in range(3)]
        rng.shuffle(points)
        edges: set[tuple[int, int]] = set()
        for i in range(0, len(points), 2):
            u, v = sorted((points[i], points[i + 1]))
            if u == v or (u, v) in edges:
                break
            edges.add((u, v))
        else:
            return sorted(edges)


def _instance(index: int, n: int, edges: list[tuple[int, int]], kind: str, payload=None) -> Instance:
    return Instance(index, n, len(edges), graph_text(n, edges), kind, payload)


def _corpus_rng(workload: str, seed: int, index: int) -> random.Random:
    return random.Random(f"{workload}:{seed}:{index}")


def build_gs(seed: int) -> list[Instance]:
    out = []
    for index in range(CORPUS_PASSES * len(GS_LADDER)):
        n = GS_LADDER[index % len(GS_LADDER)]
        edges = banded_edges(_corpus_rng("gs_banded", seed, index), n, 40, 8, 18)
        cfg = colorer.GsConfig(
            epsilon=0.5,
            master_seed=seed * 1000 + index,
            chi0_override=10,
            t_override=2,
            # The program's own step cap, not criterion 8's 3000: a round's
            # search length has a long tail, and at 3000 about one instance
            # in 1400 exhausts every retry (seed 99, index 52 needs 8126
            # steps in round 1).  Here that tail is timed, not aborted.
            step_cap=None,
        )
        out.append(_instance(index, n, edges, "gs", cfg))
    return out


def build_cubic(seed: int) -> list[Instance]:
    out = []
    for index in range(CORPUS_PASSES * len(CUBIC_LADDER)):
        n, kind = CUBIC_LADDER[index % len(CUBIC_LADDER)]
        edges = cubic_edges(_corpus_rng("cubic_exact", seed, index), n)
        out.append(_instance(index, n, edges, kind, seed * 1000 + index))
    return out


# ---------------------------------------------------------------------------
# Operations


def run_gs(inst: Instance):
    g = graphs.load_multigraph(inst.text)
    coloring, stats = colorer.color_multigraph(g, inst.payload)
    return g, coloring, stats


def run_cubic(inst: Instance):
    g = graphs.load_multigraph(inst.text)
    index = fractional.chi_star(g)
    rng = np.random.default_rng(inst.payload)
    out: dict[str, Any] = {"graph": g, "chi_star": index}
    if inst.kind == "calibrate":
        target = Fraction(39, 40) / index.value
        calib = hardcore.calibrate_activities(g, target, max_iters=4000)
        model = hardcore.HardCoreModel(g, calib.activities)
        out["calibration"] = (target, calib)
        out["draws"] = [hardcore.sample_matching_recursive(model, rng) for _ in range(EXACT_DRAWS)]
    elif inst.kind == "exact":
        model = hardcore.HardCoreModel(g, [1.0] * g.m)
        out["log_z"] = hardcore.log_partition_function(model)
        out["marginals"] = hardcore.exact_marginals(model)
        out["draws"] = [hardcore.sample_matching_recursive(model, rng) for _ in range(EXACT_DRAWS)]
    else:
        model = hardcore.HardCoreModel(g, [1.0] * g.m)
        out["draws"] = [hardcore.sample_matching(model, rng=rng) for _ in range(CHAIN_DRAWS)]
        out["marginals"] = hardcore.estimate_marginals(
            model, hardcore.ChainConfig(), CHAIN_ESTIMATE_SAMPLES, rng=rng
        )
    return out


# ---------------------------------------------------------------------------
# Correctness gate


def matching_problems(graph, edge_ids, label: str) -> list[str]:
    seen: set[int] = set()
    for eid in edge_ids:
        if not 0 <= eid < graph.m:
            return [f"{label}: edge id {eid} out of range"]
        u, v = graph.endpoints[eid]
        if u in seen or v in seen:
            return [f"{label}: not a matching (vertex {u if u in seen else v} twice)"]
        seen.update((u, v))
    return []


def coloring_problems(graph, coloring) -> list[str]:
    """Proper, complete, and within 2 Delta - 1 colors."""
    problems = []
    rep = graphs.validate_coloring(graph, coloring)
    if not rep.ok:
        problems.append(f"improper coloring: conflicts {rep.conflicts[:3]}")
    if rep.uncolored or len(coloring) != graph.m:
        problems.append(f"incomplete coloring: {len(rep.uncolored)} edges uncolored")
    if rep.colors_used > 2 * graph.max_degree() - 1:
        problems.append(f"{rep.colors_used} colors exceed 2 Delta - 1 = {2 * graph.max_degree() - 1}")
    for v in range(graph.n):
        colors = [coloring[e] for e in graph.incidence[v] if e in coloring]
        if len(set(colors)) != len(colors):
            problems.append(f"vertex {v} sees a repeated color")
            break
    return problems


def check_gs(inst: Instance, output) -> list[str]:
    g, coloring, stats = output
    problems = coloring_problems(g, coloring)
    rounds = stats["rounds"]
    if rounds and Fraction(rounds[0]["chi_star"]) != Fraction(stats["chi_star"]):
        problems.append("first round's chi* differs from the input's chi*")
    if Fraction(stats["chi_star"]) < g.max_degree():
        problems.append("chi* below the maximum degree")
    for k in range(1, len(rounds)):
        level = Fraction(rounds[k]["chi_star"])
        target = Fraction(rounds[k - 1]["c_star"])
        if level > target:
            problems.append(f"round {k}: chi* {level} above the previous target {target}")
    return problems


def chi_star_problems(graph, index) -> list[str]:
    """The reported chi* must be attained by its witness and reach Delta."""
    if not index.exhaustive:
        return ["chi* search was not exhaustive"]
    delta = graph.max_degree()
    if index.value < delta:
        return [f"chi* {index.value} below Delta {delta}"]
    if index.witness == "degree":
        return [] if index.value == delta else ["degree witness but chi* != Delta"]
    verts = set(index.witness.vertices)
    inside = sum(1 for u, v in graph.endpoints if u in verts and v in verts)
    if len(verts) % 2 == 0 or inside != index.witness.edge_count:
        return ["odd-set witness does not match the graph"]
    if Fraction(inside, (len(verts) - 1) // 2) != index.value:
        return ["odd-set witness does not attain chi*"]
    return []


def check_cubic(inst: Instance, output) -> list[str]:
    g = output["graph"]
    problems = chi_star_problems(g, output["chi_star"])
    for k, draw in enumerate(output["draws"]):
        problems += matching_problems(g, draw, f"draw {k}")
    if "calibration" in output:
        target, calib = output["calibration"]
        problems += calibration_problems(calib, {e: target for e in range(g.m)})
    if "log_z" in output and not math.log1p(g.m) <= output["log_z"] < math.inf:
        problems.append(f"log Z {output['log_z']} below log(1 + m)")
    if "marginals" in output:
        margs = output["marginals"]
        if set(margs) != set(range(g.m)) or not all(0.0 <= p <= 1.0 for p in margs.values()):
            return problems + ["marginals missing or outside [0, 1]"]
        for v in range(g.n):
            if sum(margs[e] for e in g.incidence[v]) > 1.0 + 1e-9:
                problems.append(f"marginals at vertex {v} sum above 1")
                break
    return problems


def calibration_problems(calib, targets) -> list[str]:
    if not calib.converged:
        return ["calibration did not converge"]
    if calib.method == "exact":
        worst = max((abs(calib.achieved[e] - float(t)) for e, t in targets.items()), default=0.0)
        if worst > CALIBRATION_TOL:
            return [f"calibrated marginal off target by {worst:.3g}"]
    return []


def traced_output_problems(outputs) -> list[str]:
    """Checks on what the tracer saw inside an operation: every draw is a
    matching of its model's graph and every calibration converged."""
    problems: list[str] = []
    for name, graph, result in outputs:
        if name.endswith("calibrate_activities"):
            if not result.converged:
                problems.append("an inner calibration did not converge")
        else:
            problems += matching_problems(graph, result, name)
    return problems


# ---------------------------------------------------------------------------
# Registry


@dataclass(frozen=True)
class Workload:
    name: str
    build: Callable[[int], list[Instance]]
    run: Callable[[Instance], Any]
    check: Callable[[Instance, Any], list[str]]
    pass_length: int
    quality: Callable[[Any], float] | None = None


def _colors_over_chi_star(output) -> float:
    _, _, stats = output
    return stats["colors_used"] / float(Fraction(stats["chi_star"]))


WORKLOADS: dict[str, Workload] = {
    "gs_banded": Workload(
        "gs_banded", build_gs, run_gs, check_gs, len(GS_LADDER), _colors_over_chi_star
    ),
    "cubic_exact": Workload("cubic_exact", build_cubic, run_cubic, check_cubic, len(CUBIC_LADDER)),
}
