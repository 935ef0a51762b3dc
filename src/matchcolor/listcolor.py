"""List edge coloring by synchronized per-color hard-core matchings.

Every color i induces the subgraph G_i of edges whose lists contain i.  An
iteration samples, for each color, a matching M_i with edge marginals near
1/|L_e| (calibrated once, then inherited), an activation bit a_i(e) with
probability alpha = min(1, 1/log Delta) per edge of G_i, and an equalizer bit
h_i(e).  Edge e is claimed by color i when e is in M_i with a_i(e) set; an
edge claimed by several colors commits to the smallest.  The next G_i drops

* edges touching an endpoint of a committed color-i edge,
* edges committed to another color j — except those in M_i that i itself did
  not claim, which stay to preserve the conditional law of M_i,
* edges whose equalizer bit fired.

The equalizer probability (alpha - q)/(1 - q), with
q(e, i) = alpha m_i(e) - sum_{j != i} alpha^2 m_i(e) m_j(e), makes the total
departure chance of e from G_i (uniquely claimed by i, or equalizer-removed)
equal alpha, so lists and degrees shrink in lockstep.

Two flaw kinds are repaired inside an iteration before committing: a vertex
where too small a fraction of its uncolored edges got claimed, and an edge
whose summed post-removal marginals drift off the iteration-start ledger.
A repair redraws every color's matching inside a radius-t ball of the core
(in G_i's own metric) and re-flips the bits there.  Draws and repairs of
color i come from one hard-core model of G_i per iteration: on the first
iteration the model its calibration returned, shared by every color with
the same edge set, and afterwards one built at the inherited activities.
Iterations stop when the maximum uncolored degree falls below Delta/(2 K),
and a list-greedy pass finishes on the lists {i : e in G_i} that the
removals left behind.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

import numpy as np

from .colorer import CALIBRATION_MAX_ITERS, greedy_edge_coloring, repair_radius, resample_matching
from .errors import GreedyBlockedError, InfeasibleTargetError
from .fractional import chi_star
from .graphs import Multigraph, matched_vertices, nested_balls, restrict_edges
from .hardcore import (
    SAMPLERS,
    CalibrationResult,
    ChainConfig,
    HardCoreModel,
    calibrate_activities,
    draw_matching,
    sampler_marginals,
)
from .localsearch import Flaw, run_with_selector
from .rng import stream

log = logging.getLogger(__name__)

ListMap = Mapping[int, Sequence[int]]

# Chain runs per chain-estimated color marginal, and the slack the drift
# bound gives up when any marginal of a probe is chain-estimated.
MARGINAL_SAMPLES = 100
ESTIMATION_BUDGET = 0.05


@dataclass(frozen=True)
class ListConfig:
    """List-coloring pipeline parameters.

    ``edge_threshold`` bounds the allowed ledger drift (None disables the
    edge flaw and the drift statistic); ``mass_floor`` additionally flags a
    live edge whose post-removal marginal sum falls below it, which keeps
    every uncolored edge holding usable colors; ``vertex_threshold`` is the
    minimum claimed fraction per vertex and iteration (None means alpha/4, 0
    disables).  ``list_floor`` stops iterating once some uncolored edge's
    remaining list shrinks to that size, leaving the rest to the greedy pass
    while its lists still beat its degrees.  ``sampler`` and ``chain_steps``
    set every color model's sampler, as in ``GsConfig``: under "auto" its
    calibration, draws, repairs and marginals are exact while its DAG fits
    ``hardcore``'s node budget.  Calibration and chain-estimated
    marginals run at fixed settings: ``CALIBRATION_MAX_ITERS``,
    ``MARGINAL_SAMPLES`` and ``ESTIMATION_BUDGET``.
    """

    epsilon: float = 0.1
    master_seed: int = 0
    alpha_override: float | None = None
    t_override: int | None = None
    sampler: str = "auto"
    chain_steps: int | None = None
    max_iterations: int = 50
    step_cap: int = 200
    edge_threshold: float | None = 0.25
    mass_floor: float = 0.0
    vertex_threshold: float | None = None
    list_floor: int = 0

    def __post_init__(self):
        if not 0.0 < self.epsilon <= 0.1:
            raise ValueError(f"epsilon must lie in (0, 0.1], got {self.epsilon}")
        if self.sampler not in SAMPLERS:
            raise ValueError(f"unknown sampler {self.sampler!r}")
        if self.alpha_override is not None and not 0.0 < self.alpha_override <= 1.0:
            raise ValueError("alpha_override must lie in (0, 1]")
        if self.t_override is not None and self.t_override < 1:
            raise ValueError("t_override must be at least 1")
        if self.max_iterations < 1 or self.step_cap < 1:
            raise ValueError("max_iterations and step_cap must be positive")
        if self.chain_steps is not None and self.chain_steps < 0:
            raise ValueError("chain_steps must be non-negative")
        if not 0.0 <= self.mass_floor < 1.0:
            raise ValueError("mass_floor must lie in [0, 1)")
        if self.list_floor < 0:
            raise ValueError("list_floor must be non-negative")


@dataclass(frozen=True)
class ColorState:
    """Per-color matchings and bit sets, aligned with the context's colors."""

    matchings: tuple[frozenset[int], ...]
    active: tuple[frozenset[int], ...]
    held: tuple[frozenset[int], ...]


@dataclass
class IterationContext:
    graph: Multigraph
    colors: tuple[int, ...]
    g_edges: dict[int, tuple[int, ...]]
    activities: dict[int, dict[int, float]]
    marginals: dict[int, dict[int, float]]
    ledger_total: dict[int, float]
    eq: dict[tuple[int, int], float]
    alpha: float
    k_hat: float
    radius: int
    cfg: ListConfig
    iteration: int
    uncolored: tuple[int, ...]
    locality_audits: int = 0
    # Per color: the hard-core model of G_i, the host ids of its edges and
    # their positions there, shared by the iteration's draw and every repair.
    models: dict[int, tuple[HardCoreModel, tuple[int, ...], dict[int, int]]] = field(
        default_factory=dict, repr=False
    )
    # Per (edge set G_i, repair core): the inner and outer balls in G_i's
    # metric and the host ids of G_i's edges inside the outer ball, sorted;
    # None when G_i has no edge at the core.  Colors with equal edge sets
    # share their regions.
    regions: dict[
        tuple[tuple[int, ...], frozenset[int]],
        tuple[frozenset[int], frozenset[int], tuple[int, ...]] | None,
    ] = field(default_factory=dict, repr=False)

    def region(
        self, color: int, core: frozenset[int]
    ) -> tuple[frozenset[int], frozenset[int], tuple[int, ...]] | None:
        """The repair region of ``color`` around ``core``, built once."""
        key = (self.g_edges[color], core)
        if key not in self.regions:
            g = self.models[color][0].graph
            got = None
            if any(g.incidence[v] for v in core):
                inner, outer = nested_balls(g, core, (self.radius, self.radius + 1))
                ends = g.endpoints
                kept = self.models[color][1]
                inside = {j for v in outer for j in g.incidence[v] if outer.issuperset(ends[j])}
                got = (inner, outer, tuple(kept[j] for j in sorted(inside)))
            self.regions[key] = got
        return self.regions[key]


def build_color_subgraphs(graph: Multigraph, lists: ListMap) -> dict[int, tuple[int, ...]]:
    """Edge ids of each color's subgraph G_i, keyed by color."""
    stray = [e for e in lists if e not in range(graph.m)]
    if stray:
        raise ValueError(f"lists name edge ids {stray[:5]} outside range({graph.m})")
    for eid in range(graph.m):
        if eid not in lists or not list(lists[eid]):
            raise ValueError(f"edge {eid} has no color list")
    out: dict[int, list[int]] = {}
    for eid in range(graph.m):
        for c in lists[eid]:
            out.setdefault(int(c), []).append(eid)
    return {c: tuple(sorted(set(ids))) for c, ids in sorted(out.items())}


def default_alpha(graph: Multigraph) -> float:
    delta = graph.max_degree()
    if delta <= 1 or math.log(delta) <= 1.0:
        return 1.0
    return 1.0 / math.log(delta)


def equalizer_probability(alpha: float, m_i: float, others: Iterable[float]) -> float:
    """(alpha - q)/(1 - q) for q = alpha m_i - sum_j alpha^2 m_i m_j; clamped
    to 0 (with a warning) when q exceeds alpha."""
    q = alpha * m_i - sum(alpha * alpha * m_i * m_j for m_j in others)
    if q > alpha:
        log.warning("claim probability %.6f exceeds alpha %.6f; equalizer off", q, alpha)
        return 0.0
    if q >= 1.0:
        return 0.0
    return max(0.0, (alpha - q) / (1.0 - q))


def _color_model(
    graph: Multigraph, edges: Iterable[int], acts: Mapping[int, float], cfg: ListConfig
) -> tuple[HardCoreModel, tuple[int, ...]]:
    """The hard-core model on one color subgraph (all host vertices, the
    given edges in id order) under ``cfg``'s sampler, and its edges' host ids."""
    sub, kept = restrict_edges(graph, edges)
    return HardCoreModel(sub, [acts[h] for h in kept], cfg.sampler, cfg.chain_steps), kept


def init_iteration(
    graph: Multigraph,
    g_edges: dict[int, tuple[int, ...]],
    lists: ListMap,
    cfg: ListConfig,
    iteration: int,
    uncolored: Sequence[int],
    prev_activities: dict[int, dict[int, float]] | None = None,
    alpha: float | None = None,
    radius: int = 1,
) -> IterationContext:
    """Build the per-iteration context: activities (calibrated on the first
    iteration to per-edge targets 1/|L_e|, inherited afterwards), the
    marginal ledger, and the equalizer probabilities."""
    colors = tuple(sorted(c for c in g_edges if g_edges[c]))
    if alpha is None:
        alpha = cfg.alpha_override if cfg.alpha_override is not None else default_alpha(graph)
    acts: dict[int, dict[int, float]] = {}
    margs: dict[int, dict[int, float]] = {}
    k_hats: list[float] = []
    # Colors with the same edge set (e.g. identical lists everywhere) have the
    # same targets 1/|L_e|: they check chi* and calibrate once and share the
    # fitted model, whose compiled DAG then serves all their draws.
    calib_cache: dict[tuple[int, ...], tuple[tuple[int, ...], CalibrationResult]] = {}
    models: dict[int, tuple[HardCoreModel, tuple[int, ...], dict[int, int]]] = {}
    for c in colors:
        edges = g_edges[c]
        if prev_activities is None:
            got = calib_cache.get(edges)
            if got is None:
                sub, kept = restrict_edges(graph, edges)
                min_list = min(len(set(lists[h])) for h in kept)
                level = chi_star(sub).value
                if level >= min_list:
                    raise InfeasibleTargetError(
                        f"color {c}: subgraph has chi* = {level} but the shortest "
                        f"incident list has {min_list} colors; marginals 1/|L_e| "
                        "need chi* below the list size"
                    )
                targets = {j: Fraction(1, len(set(lists[h]))) for j, h in enumerate(kept)}
                calib = calibrate_activities(
                    sub,
                    targets,
                    max_iters=CALIBRATION_MAX_ITERS,
                    chain=ChainConfig(steps=cfg.chain_steps),
                    sampler=cfg.sampler,
                    rng=stream(cfg.master_seed, "iter", iteration, "calibrate", c),
                )
                got = calib_cache[edges] = (kept, calib)
            kept, calib = got
            model = calib.model
            acts[c] = {h: calib.activities[j] for j, h in enumerate(kept)}
            margs[c] = {h: calib.achieved[j] for j, h in enumerate(kept)}
            k_hats.append(calib.k_hat)
        else:
            acts[c] = {h: prev_activities[c][h] for h in edges}
            model, kept = _color_model(graph, edges, acts[c], cfg)
            rng = stream(cfg.master_seed, "iter", iteration, "marginals", c)
            local, _ = sampler_marginals(model, MARGINAL_SAMPLES, rng)
            margs[c] = {h: local[j] for j, h in enumerate(kept)}
        models[c] = (model, kept, {h: j for j, h in enumerate(kept)})
    ledger: dict[int, float] = {}
    colors_of: dict[int, list[int]] = {}
    for c in colors:
        for e in g_edges[c]:
            ledger[e] = ledger.get(e, 0.0) + margs[c][e]
            colors_of.setdefault(e, []).append(c)
    eq: dict[tuple[int, int], float] = {}
    for e, cs in colors_of.items():
        for c in cs:
            others = [margs[j][e] for j in cs if j != c]
            eq[(c, e)] = equalizer_probability(alpha, margs[c][e], others)
    return IterationContext(
        graph=graph,
        colors=colors,
        g_edges={c: g_edges[c] for c in colors},
        activities=acts,
        marginals=margs,
        ledger_total=ledger,
        eq=eq,
        alpha=alpha,
        k_hat=max(k_hats, default=1.0),
        radius=radius,
        cfg=cfg,
        iteration=iteration,
        uncolored=tuple(sorted(uncolored)),
        models=models,
    )


def sample_iteration(ctx: IterationContext) -> ColorState:
    """Draw every color's matching and bits from derived streams."""
    cfg = ctx.cfg
    ms, As, Hs = [], [], []
    for c in ctx.colors:
        edges = ctx.g_edges[c]
        model, kept, _ = ctx.models[c]
        rng_m = stream(cfg.master_seed, "iter", ctx.iteration, "color", c, "match")
        local = draw_matching(model, rng_m)
        ms.append(frozenset(kept[j] for j in local))
        rng_a = stream(cfg.master_seed, "iter", ctx.iteration, "color", c, "activate")
        As.append(frozenset(e for e in edges if rng_a.random() < ctx.alpha))
        rng_h = stream(cfg.master_seed, "iter", ctx.iteration, "color", c, "equalize")
        Hs.append(frozenset(e for e in edges if rng_h.random() < ctx.eq[(c, e)]))
    return ColorState(tuple(ms), tuple(As), tuple(Hs))


def claimed_edges(state: ColorState) -> list[frozenset[int]]:
    """F_i = M_i restricted to set activation bits, per color slot."""
    return [m & a for m, a in zip(state.matchings, state.active)]


def claims_by_edge(ctx: IterationContext, state: ColorState) -> dict[int, list[int]]:
    out: dict[int, list[int]] = {}
    for idx, f in enumerate(claimed_edges(state)):
        for e in f:
            out.setdefault(e, []).append(ctx.colors[idx])
    return {e: sorted(cs) for e, cs in out.items()}


def post_removal_edges(ctx: IterationContext, state: ColorState) -> dict[int, tuple[int, ...]]:
    """Next iteration's color subgraphs under the three removal rules."""
    f_sets = claimed_edges(state)
    v_sets = [matched_vertices(ctx.graph, f) for f in f_sets]
    claimed_any: dict[int, set[int]] = {}
    for idx, f in enumerate(f_sets):
        for e in f:
            claimed_any.setdefault(e, set()).add(idx)
    out: dict[int, tuple[int, ...]] = {}
    for idx, c in enumerate(ctx.colors):
        keep = []
        protected = (state.matchings[idx] - f_sets[idx])
        for e in ctx.g_edges[c]:
            u, v = ctx.graph.endpoints[e]
            if u in v_sets[idx] or v in v_sets[idx]:
                continue
            owners = claimed_any.get(e, set())
            if (owners - {idx}) and e not in protected:
                continue
            if e in state.held[idx]:
                continue
            keep.append(e)
        out[c] = tuple(keep)
    return out


def _sigma_post(
    ctx: IterationContext, gprime: dict[int, tuple[int, ...]], rng: np.random.Generator
) -> tuple[dict[int, float], bool]:
    totals: dict[int, float] = {}
    estimated = False
    for c in ctx.colors:
        edges = gprime.get(c, ())
        if not edges:
            continue
        model, kept = _color_model(ctx.graph, edges, ctx.activities[c], ctx.cfg)
        local, est = sampler_marginals(model, MARGINAL_SAMPLES, rng)
        estimated |= est
        for j, e in enumerate(kept):
            totals[e] = totals.get(e, 0.0) + local[j]
    return totals, estimated


def _fix_address(ctx: IterationContext, core: frozenset[int]):
    def address(state: ColorState, rng: np.random.Generator) -> ColorState:
        ms = list(state.matchings)
        As = list(state.active)
        Hs = list(state.held)
        for idx, c in enumerate(ctx.colors):
            # The color's own model, as drawn from by sample_iteration.
            model, kept, pos = ctx.models[c]
            region = ctx.region(c, core)
            if region is None:
                # No edge of G_i at the core: both balls are the core itself, and
                # a redraw there and its bits would change nothing and use no
                # random number.
                ctx.locality_audits += 1
                continue
            inner, outer, inside = region
            local_m = frozenset(pos[h] for h in state.matchings[idx])
            new_local = resample_matching(model, local_m, inner, outer, rng)
            ms[idx] = frozenset(kept[j] for j in new_local)
            # G_i's edges inside the outer ball re-flip both bits, in host-id
            # order, the active bit first: one call draws the same uniforms
            # as one call per bit.  Only the bits that flip are rebuilt.
            draws = rng.random(2 * len(inside)).tolist()
            a_in = {e for e, r in zip(inside, draws[::2]) if r < ctx.alpha}
            h_in = {e for e, r in zip(inside, draws[1::2]) if r < ctx.eq[(c, e)]}
            a_flip = a_in.symmetric_difference(As[idx].intersection(inside))
            h_flip = h_in.symmetric_difference(Hs[idx].intersection(inside))
            if a_flip:
                As[idx] = As[idx] ^ a_flip
            if h_flip:
                Hs[idx] = Hs[idx] ^ h_flip
            # Every repair audits its locality: what it changed lies inside
            # the outer ball.
            changed = (state.matchings[idx] ^ ms[idx]) | a_flip | h_flip
            for e in changed:
                u, v = ctx.graph.endpoints[e]
                if u not in outer or v not in outer:
                    raise RuntimeError(
                        f"repair touched edge {e} of color {c} outside its "
                        f"radius-{ctx.radius + 1} ball around {sorted(core)}"
                    )
            ctx.locality_audits += 1
        return ColorState(tuple(ms), tuple(As), tuple(Hs))

    return address


def make_iteration_selector(ctx: IterationContext):
    """Present flaw of highest priority: lagging vertices in id order, then
    drifted or mass-starved edges in id order.  The returned closure also
    memoizes the last flawless drift profile in ``selector.last_drift``."""
    cfg = ctx.cfg
    vthr = cfg.vertex_threshold if cfg.vertex_threshold is not None else ctx.alpha / 4.0
    probe_counter = [0]
    # Only edges still holding at least one color can be claimed, so the
    # vertex flaw measures the claimed fraction of those.
    live_now: set[int] = set()
    for edges in ctx.g_edges.values():
        live_now.update(edges)

    def footprint(core: frozenset[int]) -> frozenset[int]:
        return nested_balls(ctx.graph, core, (ctx.radius + 2,))[0]

    def select(state: ColorState) -> Flaw | None:
        claims = claims_by_edge(ctx, state)
        if vthr > 0.0:
            for v in range(ctx.graph.n):
                inc = [
                    e
                    for e in ctx.graph.incidence[v]
                    if e in select.uncolored_set and e in live_now
                ]
                if not inc:
                    continue
                claimed = sum(1 for e in inc if e in claims)
                if claimed / len(inc) < vthr:
                    core = frozenset([v])
                    return Flaw("vertex", ("vertex", v), footprint(core), _fix_address(ctx, core))
        if cfg.edge_threshold is not None or cfg.mass_floor > 0.0:
            gprime = post_removal_edges(ctx, state)
            probe_counter[0] += 1
            rng = stream(
                cfg.master_seed, "iter", ctx.iteration, "probe", probe_counter[0]
            )
            sigma, estimated = _sigma_post(ctx, gprime, rng)
            budget = ESTIMATION_BUDGET if estimated else 0.0
            live = set()
            for edges in gprime.values():
                live.update(edges)
            drift: dict[int, float] = {}
            for e in sorted(live):
                if e not in select.uncolored_set:
                    continue
                drift[e] = abs(sigma.get(e, 0.0) - ctx.ledger_total[e])
            select.last_drift = drift
            for e in sorted(drift):
                drifted = (
                    cfg.edge_threshold is not None
                    and drift[e] > cfg.edge_threshold - budget
                )
                starved = cfg.mass_floor > 0.0 and sigma.get(e, 0.0) < cfg.mass_floor
                if drifted or starved:
                    core = frozenset(ctx.graph.endpoints[e])
                    return Flaw("edge", ("edge", e), footprint(core), _fix_address(ctx, core))
        return None

    select.uncolored_set = set(ctx.uncolored)
    select.last_drift = None
    return select


def list_edge_color(
    graph: Multigraph, lists: ListMap, cfg: ListConfig | None = None
) -> tuple[dict[int, int], dict]:
    """Color every edge from its own list; returns (coloring, stats).

    ``lists`` maps exactly the edge ids 0..m-1 to their lists.  A list is a
    set of colors: repeated entries count once, in |L_e| and everywhere
    else.  Requires min |L_e| >= ceil((1+eps) chi*).  Stats carry alpha, the
    calibration stretch K, chi*, and per-iteration records of the claimed
    ("equalized") fraction, flaws addressed, ledger drift, and the maximum
    uncolored degree.  Raises a greedy-failure error when the final pass
    finds an edge with every remaining list color blocked.
    """
    cfg = cfg or ListConfig()
    g_edges = build_color_subgraphs(graph, lists)
    if graph.m == 0:
        return {}, {"iterations": [], "colors_used": 0, "chi_star": "0", "alpha": 1.0, "k_hat": 1.0}
    c_min = min(len(set(lists[e])) for e in range(graph.m))
    value = chi_star(graph).value
    need = math.ceil((1 + Fraction(str(cfg.epsilon))) * value)
    if c_min < need:
        raise ValueError(
            f"list sizes must reach ceil((1+eps) chi*) = {need}, shortest is {c_min}"
        )
    alpha = cfg.alpha_override if cfg.alpha_override is not None else default_alpha(graph)
    delta0 = graph.max_degree()
    coloring: dict[int, int] = {}
    prev_acts: dict[int, dict[int, float]] | None = None
    radius: int | None = None
    k_hat = 1.0
    iter_stats: list[dict] = []
    for iteration in range(1, cfg.max_iterations + 1):
        uncolored = [e for e in range(graph.m) if e not in coloring]
        if not uncolored or not any(g_edges.values()):
            break
        ctx = init_iteration(
            graph, g_edges, lists, cfg, iteration, uncolored,
            prev_activities=prev_acts, alpha=alpha, radius=radius or 1,
        )
        if radius is None:
            k_hat = max(ctx.k_hat, 1.0)
            radius = ctx.radius = repair_radius(graph, k_hat, cfg.epsilon, cfg.t_override)
        state = sample_iteration(ctx)
        select = make_iteration_selector(ctx)
        rng = stream(cfg.master_seed, "iter", iteration, "search")
        trace = run_with_selector(state, select, rng, step_cap=cfg.step_cap)
        final: ColorState = trace.final_state
        claims = claims_by_edge(ctx, final)
        live_pairs = 0
        hit_pairs = 0
        edge_live: dict[int, int] = {}
        edge_hits: dict[int, int] = {}
        for idx, c in enumerate(ctx.colors):
            for e in ctx.g_edges[c]:
                if e not in select.uncolored_set:
                    continue
                edge_live[e] = edge_live.get(e, 0) + 1
                live_pairs += 1
                if claims.get(e) == [c] or e in final.held[idx]:
                    edge_hits[e] = edge_hits.get(e, 0) + 1
                    hit_pairs += 1
        pre_commit = len(coloring)
        for e, cs in claims.items():
            if e not in coloring:
                coloring[e] = cs[0]
        newly = len(coloring) - pre_commit
        eligible = len(edge_live)
        if live_pairs:
            # Cluster-robust standard error of the claim rate: edges are the
            # independent units; claims for one edge across colors may disperse
            # beyond (or below) the Bernoulli bound.
            rate = hit_pairs / live_pairs
            resid_sq = sum(
                (edge_hits.get(e, 0) - rate * q_e) ** 2 for e, q_e in edge_live.items()
            )
            claim_se = math.sqrt(resid_sq) / live_pairs
        else:
            claim_se = 0.0
        g_edges = post_removal_edges(ctx, final)
        prev_acts = {c: {e: ctx.activities[c][e] for e in g_edges[c]} for c in g_edges}
        drift = select.last_drift
        deg = [0] * graph.n
        for e in range(graph.m):
            if e not in coloring:
                u, v = graph.endpoints[e]
                deg[u] += 1
                deg[v] += 1
        max_unc = max(deg, default=0)
        live_sizes: dict[int, int] = {}
        for c, edges in g_edges.items():
            for e in edges:
                live_sizes[e] = live_sizes.get(e, 0) + 1
        min_live = min(
            (live_sizes.get(e, 0) for e in range(graph.m) if e not in coloring),
            default=0,
        )
        iter_stats.append(
            {
                "colored_fraction": (newly / eligible) if eligible else 0.0,
                "eligible_edges": eligible,
                "claim_rate": (hit_pairs / live_pairs) if live_pairs else 0.0,
                "claim_se": claim_se,
                "live_pairs": live_pairs,
                "flaws_addressed": len(trace.addressed),
                "max_uncolored_degree": max_unc,
                "min_live_list": min_live,
                "ledger_max_drift": (max(drift.values()) if drift else None)
                if (cfg.edge_threshold is not None or cfg.mass_floor > 0.0)
                else None,
                "colored_total": len(coloring),
                "locality_audits": ctx.locality_audits,
            }
        )
        if max_unc < delta0 / (2.0 * k_hat):
            break
        if cfg.list_floor and min_live <= cfg.list_floor:
            break
    remaining = sorted(e for e in range(graph.m) if e not in coloring)
    if remaining:
        # The tail respects the original lists: a color is usable unless an
        # adjacent edge already committed it.  Since every list is at least
        # as long as its edge's degree, the pass cannot run out of colors.
        used_at: list[set[int]] = [set() for _ in range(graph.n)]
        for e, c in coloring.items():
            u, v = graph.endpoints[e]
            used_at[u].add(c)
            used_at[v].add(c)
        sub, kept = restrict_edges(graph, remaining)
        local_lists = {}
        for j in range(sub.m):
            u, v = graph.endpoints[kept[j]]
            blocked = used_at[u] | used_at[v]
            local_lists[j] = [c for c in lists[kept[j]] if c not in blocked]
        try:
            tail = greedy_edge_coloring(sub, lists=local_lists)
        except GreedyBlockedError as err:
            raise GreedyBlockedError(kept[err.edge]) from None
        for j, c in tail.items():
            coloring[kept[j]] = c
    stats = {
        "iterations": iter_stats,
        "colors_used": len(set(coloring.values())),
        "chi_star": str(value),
        "alpha": alpha,
        "k_hat": k_hat,
    }
    return coloring, stats
