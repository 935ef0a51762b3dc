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
endpoints.  A round builds one hard-core model and shares it across its
attempts, initial draws and repairs: a redraw walks that model's compiled
partition-function DAG from the free region's node, which holds the induced
law, so no subgraph or submodel is built per repair (only the chain sampler,
above the exact cap, runs on an induced submodel).  Exact action kernels
and the product measure over matching tuples are exposed for small
instances so search convergence certificates (charges, commutation,
lopsidependency) can be evaluated against the same code paths.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Callable, Iterable, Mapping, Sequence

import numpy as np

from .errors import CapacityError, LocalSearchError, RoundError
from .fractional import chi_star, find_violated_matching_constraint
from .graphs import (
    Multigraph,
    ball_vertices,
    delete_matchings,
    distances_from,
    induced_subgraph,
    matched_vertices,
    restrict_edges,
)
from .hardcore import (
    EXACT_CAP,
    ChainConfig,
    HardCoreModel,
    calibrate_activities,
    log_partition_function,
    sample_matching,
    sample_matching_recursive,
)
from .localsearch import Flaw, FlawSpec, RunTrace, run_with_selector
from .rng import stream

RoundState = tuple[frozenset[int], ...]

EXACT_VERIFY_N = 10  # residual chi* is re-derived exactly up to this size


@dataclass(frozen=True)
class GsConfig:
    """Pipeline parameters.

    ``epsilon`` controls the per-round excess N/(1+eps) and, through
    delta = eps/4, the calibration target and flaw thresholds.  ``chi0``
    defaults to max(64, ceil((4/eps)^4)); instances below it go straight to
    the greedy pass.  ``sampler`` picks the matching sampler: "exact"
    (partition-function walk), "chain" (Metropolis), or "auto" (exact when
    the collapsed view is small).  ``calibration_tol`` overrides the marginal
    tolerance used when planning rounds; the local search absorbs small
    calibration slack, so round planning can run looser than the default.
    """

    epsilon: float = 0.1
    master_seed: int = 0
    chi0_override: int | None = None
    t_override: int | None = None
    sampler: str = "auto"
    chain_steps: int | None = None
    retries: int = 3
    step_cap: int | None = None
    calibration_samples: int = 400
    calibration_max_iters: int = 4000
    calibration_tol: float | None = None

    def __post_init__(self):
        if not 0.0 < self.epsilon <= 0.5:
            raise ValueError(f"epsilon must lie in (0, 0.5], got {self.epsilon}")
        if self.calibration_tol is not None and not 0.0 < self.calibration_tol < 1.0:
            raise ValueError("calibration_tol must lie in (0, 1)")
        if self.sampler not in ("auto", "exact", "chain"):
            raise ValueError(f"unknown sampler {self.sampler!r}")
        if self.retries < 1:
            raise ValueError("retries must be at least 1")
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
    """Derived quantities for one matching-removal round."""

    chi_star: Fraction
    n_matchings: int
    c_star: Fraction
    delta: Fraction
    radius: int
    k_hat: float
    vertex_cap: int
    activities: dict[int, float]

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


def _floor_three_quarters(value: Fraction) -> int:
    """floor(value^(3/4)) for a positive rational, via integer fourth root."""
    cubed = value.numerator**3 // value.denominator**3
    return math.isqrt(math.isqrt(cubed))


def plan_round(
    graph: Multigraph,
    cfg: GsConfig,
    round_index: int = 0,
    rng: np.random.Generator | None = None,
    warm: Mapping[int, float] | None = None,
) -> RoundParams | None:
    """Measure chi*, pick N, c*, the flaw radius, and calibrate activities.

    Returns None when chi* < chi0: the caller should finish greedily.
    ``warm`` seeds the calibration with activities from an earlier round.
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
    if cfg.sampler == "chain":
        exact_cap = -1
    elif cfg.sampler == "exact":
        exact_cap = 10**9
    else:
        exact_cap = None
    if rng is None:
        rng = stream(cfg.master_seed, "round", round_index, "calibrate")
    calib = calibrate_activities(
        graph,
        target,
        tol=cfg.calibration_tol,
        max_iters=cfg.calibration_max_iters,
        chain=ChainConfig(steps=cfg.chain_steps),
        samples=cfg.calibration_samples,
        exact_cap=exact_cap,
        rng=rng,
        initial=warm,
    )
    cap_frac = Fraction(graph.max_degree()) / (delta * n_match)
    cap = cap_frac.numerator // cap_frac.denominator
    if cap % 2 == 0:
        cap -= 1
    largest_odd = graph.n if graph.n % 2 else graph.n - 1
    vertex_cap = max(3, min(cap, max(largest_odd, 3)))
    if cfg.t_override is not None:
        radius = cfg.t_override
    else:
        radius = math.ceil(8.0 * (calib.k_hat + 1.0) ** 2 / float(delta)) + 2
        radius = min(radius, _graph_diameter(graph))
        radius = max(radius, 1)
    return RoundParams(
        chi_star=value,
        n_matchings=n_match,
        c_star=c_star,
        delta=delta,
        radius=radius,
        k_hat=calib.k_hat,
        vertex_cap=vertex_cap,
        activities=dict(calib.activities),
    )


# ---------------------------------------------------------------------------
# Sampling and resampling


def _draw(
    model: HardCoreModel,
    cfg: GsConfig,
    rng: np.random.Generator,
    region: frozenset[int] | None = None,
) -> frozenset[int]:
    """One hard-core draw from ``model``, or from its law induced on ``region``.

    The exact path walks the model's compiled DAG from the region's node; it
    is taken when ``cfg.sampler`` is "exact", or "auto" with at most
    ``EXACT_CAP`` collapsed edges inside the region.  The chain runs on the
    model itself, or on a submodel induced on the region.
    """
    exact = cfg.sampler == "exact"
    if cfg.sampler == "auto":
        if region is None:
            edges = model.collapse().m
        else:
            dag = model.dag()
            edges = dag.edges_within(dag.mask_of(region))
        exact = edges <= EXACT_CAP
    if exact:
        return sample_matching_recursive(model, rng, region=region)
    chain = ChainConfig(steps=cfg.chain_steps)
    if region is None:
        return sample_matching(model, chain, rng=rng)
    sub = induced_subgraph(model.graph, region)
    submodel = HardCoreModel(sub.graph, [model.activities[h] for h in sub.edge_ids])
    return frozenset(sub.edge_ids[j] for j in sample_matching(submodel, chain, rng=rng))


def initial_state(
    model: HardCoreModel,
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
        out.append(_draw(model, cfg, rng))
    return tuple(out)


def _residual_degrees(graph: Multigraph, state: RoundState) -> list[int]:
    union: set[int] = set()
    for matching in state:
        union |= matching
    deg = [0] * graph.n
    for eid, (u, v) in enumerate(graph.endpoints):
        if eid not in union:
            deg[u] += 1
            deg[v] += 1
    return deg


def _residual_graph(graph: Multigraph, state: RoundState) -> Multigraph:
    union: set[int] = set()
    for matching in state:
        union |= matching
    sub, _ = restrict_edges(graph, [eid for eid in range(graph.m) if eid not in union])
    return sub


def _resample_regions(
    graph: Multigraph, core: frozenset[int], radius: int
) -> tuple[frozenset[int], frozenset[int]]:
    """(vertices at distance < t from the core, vertices at distance <= t)."""
    return ball_vertices(graph, core, radius), ball_vertices(graph, core, radius + 1)


def resample_matching(
    model: HardCoreModel,
    matching: frozenset[int],
    inner: frozenset[int],
    outer: frozenset[int],
    cfg: GsConfig,
    rng: np.random.Generator,
) -> frozenset[int]:
    """Keep edges clear of the inner ball, redraw hard-core on the free region.

    The redraw comes from ``model``'s law induced on the free region: the
    outer ball minus the endpoints of the kept edges.
    """
    graph = model.graph
    frozen = frozenset(
        eid
        for eid in matching
        if graph.endpoints[eid][0] not in inner and graph.endpoints[eid][1] not in inner
    )
    region = outer - matched_vertices(graph, frozen)
    return frozen | _draw(model, cfg, rng, region)


def _make_address(
    model: HardCoreModel, params: RoundParams, cfg: GsConfig, core: frozenset[int]
) -> Callable[[RoundState, np.random.Generator], RoundState]:
    inner, outer = _resample_regions(model.graph, core, params.radius)

    def address(state: RoundState, rng: np.random.Generator) -> RoundState:
        return tuple(resample_matching(model, m, inner, outer, cfg, rng) for m in state)

    return address


def flaw_footprint(graph: Multigraph, core: Iterable[int], radius: int) -> frozenset[int]:
    """Vertices the repair can read or write: distance < radius + 2 from the core."""
    return ball_vertices(graph, core, radius + 2)


def make_selector(
    model: HardCoreModel, params: RoundParams, cfg: GsConfig
) -> Callable[[RoundState], Flaw | None]:
    """Highest-priority present flaw: vertices in id order, then the first
    violating odd set reported by the constraint oracle.  Repairs redraw
    from ``model``, the round's hard-core model."""
    graph = model.graph
    thr = params.degree_threshold

    def select(state: RoundState) -> Flaw | None:
        deg = _residual_degrees(graph, state)
        for v in range(graph.n):
            if deg[v] > thr:
                core = frozenset([v])
                return Flaw(
                    kind="vertex",
                    key=("vertex", v),
                    footprint=flaw_footprint(graph, core, params.radius),
                    address=_make_address(model, params, cfg, core),
                )
        if graph.n >= 3:
            resid = _residual_graph(graph, state)
            if resid.m:
                cert = find_violated_matching_constraint(
                    resid, params.c_star, params.vertex_cap
                )
                if cert is not None:
                    core = frozenset(cert.vertices)
                    return Flaw(
                        kind="odd_set",
                        key=("odd_set", cert.vertices),
                        footprint=flaw_footprint(graph, core, params.radius),
                        address=_make_address(model, params, cfg, core),
                    )
        return None

    return select


def run_round(
    graph: Multigraph,
    params: RoundParams,
    cfg: GsConfig,
    round_index: int = 0,
) -> tuple[RoundState, RunTrace]:
    """Sample, repair until flawless, and certify the residual level.

    Retries with fresh derived streams on step-cap exhaustion; raises a
    round error carrying the last trace when all attempts fail.  Any other
    error from the search propagates unchanged.
    """
    # One model, and so one compiled DAG, serves every draw of the round:
    # each attempt's initial matchings and every repair's regional redraw.
    model = HardCoreModel(graph, params.activities)
    select = make_selector(model, params, cfg)
    last_trace: RunTrace | None = None
    for attempt in range(cfg.retries):
        state = initial_state(model, params, cfg, round_index, attempt)
        rng = stream(cfg.master_seed, "round", round_index, "attempt", attempt, "search")
        try:
            trace = run_with_selector(state, select, rng, step_cap=cfg.step_cap)
        except LocalSearchError as err:
            last_trace = err.trace
            continue
        final: RoundState = trace.final_state
        if graph.n <= EXACT_VERIFY_N:
            resid = delete_matchings(graph, final)
            if resid.m:
                level = chi_star(resid).value
                if level > params.c_star:
                    raise RoundError(
                        f"flawless state leaves residual chi* = {level} above the "
                        f"target {params.c_star}",
                        trace=trace,
                    )
        return final, trace
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
    from .errors import GreedyBlockedError

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
    """
    cfg = cfg or GsConfig()
    if graph.m == 0:
        return {}, {"rounds": [], "colors_used": 0, "chi_star": "0", "ratio": 0.0}
    overall = chi_star(graph).value
    coloring: dict[int, int] = {}
    next_color = 0
    rounds: list[dict] = []
    current = graph
    cur_to_orig = list(range(graph.m))
    round_index = 0
    warm: dict[int, float] | None = None
    while current.m:
        params = plan_round(current, cfg, round_index, warm=warm)
        if params is None:
            break
        state, trace = run_round(current, params, cfg, round_index)
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
        warm = {new: params.activities[old] for new, old in enumerate(survivors)}
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


def _enumerate_matchings_with_probs(
    graph: Multigraph, activities: Mapping[int, float]
) -> list[tuple[frozenset[int], float]]:
    from .oracle import enumerate_matchings

    model = HardCoreModel(graph, [activities[e] for e in range(graph.m)]) if graph.m else None
    log_z = log_partition_function(model) if model else 0.0
    out = []
    for matching in enumerate_matchings(graph):
        logw = sum(math.log(activities[e]) for e in matching)
        out.append((frozenset(matching), math.exp(logw - log_z)))
    return out


def resample_kernel(
    graph: Multigraph, params: RoundParams, core: Iterable[int]
) -> Callable[[RoundState], dict[RoundState, float]]:
    """Exact transition kernel of the repair action for the given core.

    Enumerates, per slot, the hard-core law on that slot's free region and
    takes the product across slots.  Intended for small instances.
    """
    core_set = frozenset(core)
    inner, outer = _resample_regions(graph, core_set, params.radius)

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
            acts = {j: params.activities[h] for j, h in enumerate(sub.edge_ids)}
            options = []
            for local, p in _enumerate_matchings_with_probs(sub.graph, acts):
                lifted = frozen | frozenset(sub.edge_ids[j] for j in local)
                options.append((lifted, p))
            per_slot.append(options)
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
    singles = _enumerate_matchings_with_probs(graph, params.activities)
    out: dict[RoundState, float] = {}
    for combo in itertools.product(singles, repeat=params.n_matchings):
        state = tuple(m for m, _ in combo)
        out[state] = out.get(state, 0.0) + math.prod(p for _, p in combo)
    return out


def _connected_odd_sets(graph: Multigraph, cap: int) -> list[tuple[int, ...]]:
    adj: list[set[int]] = [set() for _ in range(graph.n)]
    for u, v in graph.endpoints:
        adj[u].add(v)
        adj[v].add(u)
    out = []
    for size in range(3, cap + 1, 2):
        for combo in itertools.combinations(range(graph.n), size):
            inside = set(combo)
            seen = {combo[0]}
            queue = [combo[0]]
            while queue:
                v = queue.pop()
                for w in adj[v]:
                    if w in inside and w not in seen:
                        seen.add(w)
                        queue.append(w)
            if len(seen) == size:
                out.append(combo)
    return out


def round_flaw_specs(
    graph: Multigraph, params: RoundParams, cfg: GsConfig | None = None
) -> list[FlawSpec]:
    """The full static flaw family with exact kernels, for verification runs:
    one spec per vertex, then one per connected odd set within the cap."""
    cfg = cfg or GsConfig()
    thr = params.degree_threshold
    model = HardCoreModel(graph, params.activities)
    specs: list[FlawSpec] = []

    def vertex_detect(v: int) -> Callable[[RoundState], bool]:
        return lambda state: _residual_degrees(graph, state)[v] > thr

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

    for v in range(graph.n):
        core = frozenset([v])
        specs.append(
            FlawSpec(
                name=f"vertex:{v}",
                detect=vertex_detect(v),
                address=_make_address(model, params, cfg, core),
                footprint=flaw_footprint(graph, core, params.radius),
                kernel=resample_kernel(graph, params, core),
            )
        )
    odd_cap = min(params.vertex_cap, graph.n if graph.n % 2 else graph.n - 1)
    if odd_cap >= 3:
        for vs in _connected_odd_sets(graph, odd_cap):
            core = frozenset(vs)
            specs.append(
                FlawSpec(
                    name="oddset:" + "-".join(map(str, vs)),
                    detect=set_detect(vs),
                    address=_make_address(model, params, cfg, core),
                    footprint=flaw_footprint(graph, core, params.radius),
                    kernel=resample_kernel(graph, params, core),
                )
            )
    return specs
