"""Near-optimal edge coloring of multigraphs by repeated matching removal.

Each round measures the fractional chromatic index chi* of the current graph,
draws N ~ chi*^(3/4) independent matchings from a hard-core distribution whose
edge marginals are calibrated to (1 - eps/4)/chi*, and repairs two flaw kinds
by resampling the matchings inside a radius-t ball until none remain:

* a vertex whose residual degree (after deleting all N matchings) stays above
  c* - (eps/4) N, where c* = chi* - N/(1+eps) is the target level;
* a connected odd vertex set H, |H| <= vertex_cap, whose residual edge count
  exceeds (|H|-1)/2 * c*.

A flawless round certifies chi* of the residual graph is at most c* (exactly
so when vertex_cap covers every odd set), so recursing drives chi* down to a
threshold chi0, below which a greedy pass finishes with at most 2*Delta - 1
extra colors.  Total colors: chi* + O(chi*^(3/4)) + O(chi0).

Resampling a matching M around a core H at radius t keeps the sub-matching
with both endpoints at distance >= t from H, then redraws the rest from the
hard-core law on the graph induced on the distance-(<= t) ball minus the kept
endpoints.  One distance map from the core gives both balls and the flaw's
footprint.  A round draws from the model its calibration returned
(``RoundParams.model``), so a round compiles one partition-function DAG,
the calibration's, and shares it across its attempts, initial draws and
repairs.  Every draw goes through ``hardcore.draw_matching``, which walks
that DAG from the free region's node, so no subgraph or submodel is built
per repair (only the chain sampler, where the DAG would pass the model's
node budget, runs on an induced submodel, built once per model and
region).  ``repair_radius`` plans t for both this pipeline and the list
pipeline.  Exact action kernels and the product measure over matching
tuples are exposed for small instances so search convergence certificates
(charges, commutation, lopsidependency) can be evaluated against the same
code paths.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Mapping, Sequence

import numpy as np

from .errors import CapacityError, GreedyBlockedError, LocalSearchError, RoundError
from .fractional import chi_star, connected_odd_sets, find_violated_matching_constraint
from .graphs import (
    Multigraph,
    distances_from,
    induced_subgraph,
    matched_vertices,
    nested_balls,
    restrict_edges,
)
from .hardcore import (
    SAMPLERS,
    ChainConfig,
    HardCoreModel,
    calibrate_activities,
    draw_matching,
)
from .localsearch import Flaw, FlawSpec, RunTrace, run_with_selector
from .oracle import exact_distribution
from .rng import stream

RoundState = tuple[frozenset[int], ...]

# Iteration cap of every pipeline calibration, eight times
# calibrate_activities' default: a stalled fit is an error, not a slow answer.
CALIBRATION_MAX_ITERS = 4000


@dataclass(frozen=True)
class GsConfig:
    """Pipeline parameters.

    ``epsilon`` controls the per-round excess N/(1+eps) and, through
    delta = eps/4, the calibration target and flaw thresholds.  ``chi0``
    defaults to max(64, ceil((4/eps)^4)); instances below it go straight to
    the greedy pass.  ``sampler`` and ``chain_steps`` set every round model's
    sampler: "exact" (partition-function walk), "chain" (Metropolis), or
    "auto" (exact while its DAG fits ``hardcore``'s node budget).
    Round planning calibrates at ``calibrate_activities``' default
    tolerance, sample count and ``CALIBRATION_MAX_ITERS`` iterations.
    """

    epsilon: float = 0.1
    master_seed: int = 0
    chi0_override: int | None = None
    t_override: int | None = None
    sampler: str = "auto"
    chain_steps: int | None = None
    retries: int = 3
    step_cap: int | None = None

    def __post_init__(self):
        if not 0.0 < self.epsilon <= 0.5:
            raise ValueError(f"epsilon must lie in (0, 0.5], got {self.epsilon}")
        if self.sampler not in SAMPLERS:
            raise ValueError(f"unknown sampler {self.sampler!r}")
        if self.retries < 1:
            raise ValueError("retries must be at least 1")
        if self.step_cap is not None and self.step_cap < 1:
            raise ValueError("step_cap must be positive")
        if self.chain_steps is not None and self.chain_steps < 0:
            raise ValueError("chain_steps must be non-negative")
        if self.chi0_override is not None and self.chi0_override < 1:
            raise ValueError("chi0_override must be positive")
        if self.t_override is not None and self.t_override < 1:
            raise ValueError("t_override must be at least 1")

    @property
    def chi0(self) -> int:
        if self.chi0_override is not None:
            return self.chi0_override
        return max(64, math.ceil((4.0 / self.epsilon) ** 4))


@dataclass(frozen=True)
class RoundParams:
    """Derived quantities for one matching-removal round.

    ``model`` is the calibration's hard-core model of the round's graph,
    compiled DAG included: every draw of the round comes from it.
    """

    chi_star: Fraction
    n_matchings: int
    c_star: Fraction
    delta: Fraction
    radius: int
    k_hat: float
    vertex_cap: int
    model: HardCoreModel

    @property
    def degree_threshold(self) -> Fraction:
        return self.c_star - self.delta * self.n_matchings


def _graph_diameter(graph: Multigraph) -> int:
    best = 0
    for v in range(graph.n):
        if not graph.incidence[v]:
            continue
        best = max(best, max(d for d in distances_from(graph, [v]) if d >= 0))
    return max(best, 1)


def repair_radius(graph: Multigraph, k_hat: float, epsilon: float, t_override: int | None) -> int:
    """The repair radius t of both pipelines: ``t_override`` when set, else
    ceil(8 (k_hat + 1)^2 / delta) + 2 with delta = eps/4, clamped to
    [1, diameter of the graph]."""
    if t_override is not None:
        return t_override
    delta = float(Fraction(str(epsilon)) / 4)
    radius = math.ceil(8.0 * (k_hat + 1.0) ** 2 / delta) + 2
    return max(1, min(radius, _graph_diameter(graph)))


def _floor_three_quarters(value: Fraction) -> int:
    """floor(value^(3/4)) for a positive rational, via integer fourth root."""
    cubed = value.numerator**3 // value.denominator**3
    return math.isqrt(math.isqrt(cubed))


def plan_round(
    graph: Multigraph,
    cfg: GsConfig,
    round_index: int = 0,
    rng: np.random.Generator | None = None,
) -> RoundParams | None:
    """Measure chi*, pick N, c*, the flaw radius, and calibrate activities.

    Returns None when chi* < chi0: the caller should finish greedily.
    """
    if graph.m == 0:
        return None
    index = chi_star(graph)
    value = index.value
    if value < cfg.chi0:
        return None
    eps = Fraction(str(cfg.epsilon))
    delta = eps / 4
    n_match = max(1, _floor_three_quarters(value))
    c_star = value - Fraction(n_match) / (1 + eps)
    if c_star < 1:
        raise ValueError(
            f"planned target level {c_star} is below 1; the instance is too "
            "small for this round structure (raise chi0 or color greedily)"
        )
    target = (1 - delta) / value
    if rng is None:
        rng = stream(cfg.master_seed, "round", round_index, "calibrate")
    calib = calibrate_activities(
        graph,
        target,
        max_iters=CALIBRATION_MAX_ITERS,
        chain=ChainConfig(steps=cfg.chain_steps),
        sampler=cfg.sampler,
        rng=rng,
    )
    cap_frac = Fraction(graph.max_degree()) / (delta * n_match)
    cap = cap_frac.numerator // cap_frac.denominator
    if cap % 2 == 0:
        cap -= 1
    largest_odd = graph.n if graph.n % 2 else graph.n - 1
    vertex_cap = max(3, min(cap, max(largest_odd, 3)))
    return RoundParams(
        chi_star=value,
        n_matchings=n_match,
        c_star=c_star,
        delta=delta,
        radius=repair_radius(graph, calib.k_hat, cfg.epsilon, cfg.t_override),
        k_hat=calib.k_hat,
        vertex_cap=vertex_cap,
        model=calib.model,
    )


# ---------------------------------------------------------------------------
# Sampling and resampling


def initial_state(
    params: RoundParams,
    cfg: GsConfig,
    round_index: int = 0,
    attempt: int = 0,
) -> RoundState:
    """Draw the N independent matchings from the round's model, one derived
    stream per slot."""
    out = []
    for i in range(params.n_matchings):
        rng = stream(cfg.master_seed, "round", round_index, "attempt", attempt, "init", i)
        out.append(draw_matching(params.model, rng))
    return tuple(out)


def _residual_degrees(graph: Multigraph, base: list[int], state: RoundState) -> list[int]:
    """Each vertex's degree once the union of the round's matchings is
    removed: ``base`` (the host degrees) less the union's endpoints."""
    union: set[int] = set()
    for matching in state:
        union |= matching
    deg = base.copy()
    ends = graph.endpoints
    for eid in union:
        u, v = ends[eid]
        deg[u] -= 1
        deg[v] -= 1
    return deg


def _residual_graph(graph: Multigraph, state: RoundState) -> Multigraph:
    union: set[int] = set()
    for matching in state:
        union |= matching
    sub, _ = restrict_edges(graph, [eid for eid in range(graph.m) if eid not in union])
    return sub


def _repair_balls(
    graph: Multigraph, core: Iterable[int], radius: int
) -> tuple[frozenset[int], ...]:
    """The vertices at distance < t, <= t and < t + 2 from a repair's core,
    from one distance map: the inner ball, whose matching edges are redrawn;
    the outer ball, where the redraw lives; and the flaw's footprint, every
    vertex the repair can read or write."""
    return nested_balls(graph, core, (radius, radius + 1, radius + 2))


def resample_matching(
    model: HardCoreModel,
    matching: frozenset[int],
    inner: frozenset[int],
    outer: frozenset[int],
    rng: np.random.Generator,
) -> frozenset[int]:
    """Keep edges clear of the inner ball, redraw hard-core on the free region.

    The redraw comes from ``model``'s law induced on the free region: the
    outer ball minus the endpoints of the kept edges, drawn under the
    model's own sampler setting (``draw_matching``).
    """
    graph = model.graph
    frozen = frozenset(
        eid
        for eid in matching
        if graph.endpoints[eid][0] not in inner and graph.endpoints[eid][1] not in inner
    )
    region = outer - matched_vertices(graph, frozen)
    return frozen | draw_matching(model, rng, region)


def _make_address(
    model: HardCoreModel, inner: frozenset[int], outer: frozenset[int]
) -> Callable[[RoundState, np.random.Generator], RoundState]:
    def address(state: RoundState, rng: np.random.Generator) -> RoundState:
        return tuple(resample_matching(model, m, inner, outer, rng) for m in state)

    return address


def make_selector(params: RoundParams) -> Callable[[RoundState], Flaw | None]:
    """Highest-priority present flaw: vertices in id order, then the first
    violating odd set reported by the constraint oracle.  Repairs redraw
    from the round's hard-core model."""
    model = params.model
    graph = model.graph
    # Residual degrees are integers: deg > threshold iff deg > its floor.
    thr = math.floor(params.degree_threshold)
    base = [graph.degree(v) for v in range(graph.n)]
    # Per core, the flaw's footprint and repair, built on first selection.
    repairs: dict[tuple[int, ...], tuple[frozenset[int], Callable]] = {}

    def flaw(kind: str, key: tuple, core: tuple[int, ...]) -> Flaw:
        got = repairs.get(core)
        if got is None:
            inner, outer, footprint = _repair_balls(graph, core, params.radius)
            got = repairs[core] = (footprint, _make_address(model, inner, outer))
        return Flaw(kind, key, *got)

    def select(state: RoundState) -> Flaw | None:
        deg = _residual_degrees(graph, base, state)
        for v in range(graph.n):
            if deg[v] > thr:
                return flaw("vertex", ("vertex", v), (v,))
        if graph.n >= 3:
            resid = _residual_graph(graph, state)
            if resid.m:
                cert = find_violated_matching_constraint(
                    resid, params.c_star, params.vertex_cap
                )
                if cert is not None:
                    return flaw("odd_set", ("odd_set", cert.vertices), cert.vertices)
        return None

    return select


def run_round(
    params: RoundParams,
    cfg: GsConfig,
    round_index: int = 0,
) -> tuple[RoundState, RunTrace]:
    """Sample and repair until flawless.

    Retries with fresh derived streams on step-cap exhaustion; raises a
    round error carrying the last trace when all attempts fail.  Any other
    error from the search propagates unchanged.  ``color_multigraph``
    certifies the residual level when it measures the next round's chi*.
    """
    select = make_selector(params)
    last_trace: RunTrace | None = None
    for attempt in range(cfg.retries):
        state = initial_state(params, cfg, round_index, attempt)
        rng = stream(cfg.master_seed, "round", round_index, "attempt", attempt, "search")
        try:
            trace = run_with_selector(state, select, rng, step_cap=cfg.step_cap)
        except LocalSearchError as err:
            last_trace = err.trace
            continue
        return trace.final_state, trace
    raise RoundError(
        f"round {round_index}: local search exhausted {cfg.retries} attempts",
        trace=last_trace,
    )


# ---------------------------------------------------------------------------
# Greedy completion and the full pipeline


def greedy_edge_coloring(
    graph: Multigraph, first_color: int = 0, lists: Mapping[int, Sequence[int]] | None = None
) -> dict[int, int]:
    """Color edges in id order with the smallest free color at both endpoints.

    Without lists this uses at most 2*Delta - 1 colors from ``first_color``
    upward.  With lists, each edge takes the smallest free color from its own
    list; a list exhausted by blocked colors raises a greedy failure.
    """
    used_at: list[set[int]] = [set() for _ in range(graph.n)]
    out: dict[int, int] = {}
    for eid, (u, v) in enumerate(graph.endpoints):
        blocked = used_at[u] | used_at[v]
        if lists is None:
            c = first_color
            while c in blocked:
                c += 1
        else:
            c = next((col for col in lists[eid] if col not in blocked), None)
            if c is None:
                raise GreedyBlockedError(eid)
        out[eid] = c
        used_at[u].add(c)
        used_at[v].add(c)
    return out


def color_multigraph(graph: Multigraph, cfg: GsConfig | None = None) -> tuple[dict[int, int], dict]:
    """Edge-color the graph; returns (coloring by original edge id, stats).

    Rounds assign one fresh color per sampled matching (an edge in several
    matchings takes the first); the final residual is colored greedily with
    colors above all round colors.  Stats record, per round, the matching
    count, the target level, search steps, and addressed-flaw counts; plus
    the overall color count, the input's chi*, and their ratio.

    Each round's residual is certified exactly: its chi*, measured when the
    next round is planned, must not exceed the round's target level c*.
    """
    cfg = cfg or GsConfig()
    if graph.m == 0:
        return {}, {"rounds": [], "colors_used": 0, "chi_star": "0", "ratio": 0.0}
    coloring: dict[int, int] = {}
    next_color = 0
    rounds: list[dict] = []
    current = graph
    cur_to_orig = list(range(graph.m))
    round_index = 0
    prev: RoundParams | None = None
    while current.m:
        params = plan_round(current, cfg, round_index)
        # Planning measured chi* of this graph; asking again is a lookup.
        level = params.chi_star if params is not None else chi_star(current).value
        if prev is None:
            overall = level
        elif level > prev.c_star:
            raise RoundError(
                f"round {round_index - 1}: flawless state leaves residual chi* = "
                f"{level} above the target {prev.c_star}",
                trace=trace,
            )
        if params is None:
            break
        state, trace = run_round(params, cfg, round_index)
        for matching in state:
            for eid in sorted(matching):
                orig = cur_to_orig[eid]
                if orig not in coloring:
                    coloring[orig] = next_color
            next_color += 1
        union: set[int] = set()
        for matching in state:
            union |= matching
        survivors = [eid for eid in range(current.m) if eid not in union]
        current, _ = restrict_edges(current, survivors)
        cur_to_orig = [cur_to_orig[eid] for eid in survivors]
        rounds.append(
            {
                "chi_star": str(params.chi_star),
                "n_matchings": params.n_matchings,
                "c_star": str(params.c_star),
                "radius": params.radius,
                "steps": trace.steps,
                "flaws_by_kind": trace.counts_by_kind(),
            }
        )
        round_index += 1
        prev = params
    if current.m:
        tail = greedy_edge_coloring(current, first_color=next_color)
        for eid, c in tail.items():
            coloring[cur_to_orig[eid]] = c
    colors_used = len(set(coloring.values()))
    stats = {
        "rounds": rounds,
        "colors_used": colors_used,
        "chi_star": str(overall),
        "ratio": colors_used / float(overall),
    }
    return coloring, stats


# ---------------------------------------------------------------------------
# Exact verification artifacts (small instances)


def resample_kernel(
    graph: Multigraph, params: RoundParams, core: Iterable[int]
) -> Callable[[RoundState], dict[RoundState, float]]:
    """Exact transition kernel of the repair action for the given core.

    Enumerates, per slot, the hard-core law on that slot's free region
    (``oracle.exact_distribution``) and takes the product across slots.
    Intended for small instances.
    """
    inner, outer, _ = _repair_balls(graph, core, params.radius)
    activities = params.model.activities

    def kernel(state: RoundState) -> dict[RoundState, float]:
        per_slot: list[list[tuple[frozenset[int], float]]] = []
        for matching in state:
            frozen = frozenset(
                eid
                for eid in matching
                if graph.endpoints[eid][0] not in inner
                and graph.endpoints[eid][1] not in inner
            )
            region = outer - matched_vertices(graph, frozen)
            sub = induced_subgraph(graph, region)
            law = exact_distribution(
                HardCoreModel(sub.graph, [activities[h] for h in sub.edge_ids])
            )
            per_slot.append(
                [
                    (frozen | frozenset(sub.edge_ids[j] for j in local), p)
                    for local, p in law.as_dict().items()
                ]
            )
        out: dict[RoundState, float] = {}
        for combo in itertools.product(*per_slot):
            nxt = tuple(m for m, _ in combo)
            p = math.prod(p for _, p in combo)
            out[nxt] = out.get(nxt, 0.0) + p
        return out

    return kernel


def round_measure(
    graph: Multigraph, params: RoundParams, cap: int = 12
) -> dict[RoundState, float]:
    """The product hard-core measure over tuples of N matchings."""
    if graph.m > cap:
        raise CapacityError(f"round measure enumeration capped at {cap} edges")
    law = exact_distribution(params.model)
    out: dict[RoundState, float] = {}
    for combo in itertools.product(law.as_dict().items(), repeat=params.n_matchings):
        state = tuple(m for m, _ in combo)
        out[state] = out.get(state, 0.0) + math.prod(p for _, p in combo)
    return out


def round_flaw_specs(graph: Multigraph, params: RoundParams) -> list[FlawSpec]:
    """The full static flaw family with exact kernels, for verification runs:
    one spec per vertex, then one per connected odd set within the cap."""
    thr = params.degree_threshold
    base = [graph.degree(v) for v in range(graph.n)]
    specs: list[FlawSpec] = []

    def vertex_detect(v: int) -> Callable[[RoundState], bool]:
        return lambda state: _residual_degrees(graph, base, state)[v] > thr

    def set_detect(vs: tuple[int, ...]) -> Callable[[RoundState], bool]:
        members = set(vs)
        bound = Fraction(len(vs) - 1, 2) * params.c_star

        def detect(state: RoundState) -> bool:
            union: set[int] = set()
            for m in state:
                union |= m
            count = sum(
                1
                for eid, (u, v) in enumerate(graph.endpoints)
                if eid not in union and u in members and v in members
            )
            return count > bound

        return detect

    def spec(name: str, detect: Callable[[RoundState], bool], core: Sequence[int]) -> FlawSpec:
        inner, outer, footprint = _repair_balls(graph, core, params.radius)
        return FlawSpec(
            name=name,
            detect=detect,
            address=_make_address(params.model, inner, outer),
            footprint=footprint,
            kernel=resample_kernel(graph, params, core),
        )

    for v in range(graph.n):
        specs.append(spec(f"vertex:{v}", vertex_detect(v), [v]))
    for vs in connected_odd_sets(graph, params.vertex_cap):
        specs.append(spec("oddset:" + "-".join(map(str, vs)), set_detect(vs), vs))
    return specs
