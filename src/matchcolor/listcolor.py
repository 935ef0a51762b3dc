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
(in G_i's own metric) and re-flips the bits there.  Iterations stop when the
maximum uncolored degree falls below Delta/(2 K), and a list-greedy pass
finishes on the lists {i : e in G_i} that the removals left behind.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

import numpy as np

from .colorer import _draw, _graph_diameter, greedy_edge_coloring, resample_matching
from .errors import GreedyBlockedError, InfeasibleTargetError
from .fractional import chi_star
from .graphs import Multigraph, ball_vertices, matched_vertices, restrict_edges
from .hardcore import (
    EXACT_CAP,
    ChainConfig,
    HardCoreModel,
    calibrate_activities,
    estimate_marginals,
    exact_marginals,
)
from .localsearch import Flaw, run_with_selector
from .rng import stream

log = logging.getLogger(__name__)

ListMap = Mapping[int, Sequence[int]]


@dataclass(frozen=True)
class ListConfig:
    """List-coloring pipeline parameters.

    ``edge_threshold`` bounds the allowed ledger drift (None disables the
    edge flaw and the drift statistic); ``mass_floor`` additionally flags a
    live edge whose post-removal marginal sum falls below it, which keeps
    every uncolored edge holding usable colors; ``vertex_threshold`` is the
    minimum claimed fraction per vertex and iteration (None means alpha/4, 0
    disables).  ``estimation_budget`` loosens the drift bound when marginals
    are chain-estimated rather than exact.  ``list_floor`` stops iterating
    once some uncolored edge's remaining list shrinks to that size, leaving
    the rest to the greedy pass while its lists still beat its degrees.
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
    estimation_budget: float = 0.05
    marginal_samples: int = 100
    calibration_samples: int = 400
    calibration_max_iters: int = 4000
    list_floor: int = 0
    audit_locality: bool = False

    def __post_init__(self):
        if not 0.0 < self.epsilon <= 0.1:
            raise ValueError(f"epsilon must lie in (0, 0.1], got {self.epsilon}")
        if self.sampler not in ("auto", "exact", "chain"):
            raise ValueError(f"unknown sampler {self.sampler!r}")
        if self.alpha_override is not None and not 0.0 < self.alpha_override <= 1.0:
            raise ValueError("alpha_override must lie in (0, 1]")
        if self.t_override is not None and self.t_override < 1:
            raise ValueError("t_override must be at least 1")
        if self.max_iterations < 1 or self.step_cap < 1:
            raise ValueError("max_iterations and step_cap must be positive")
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
    estimated: bool
    radius: int
    cfg: ListConfig
    iteration: int
    uncolored: tuple[int, ...]
    locality_audits: int = 0
    # Per color: the hard-core model of G_i and the host ids of its edges,
    # built on first use and shared by the iteration's draw and every repair.
    models: dict[int, tuple[HardCoreModel, tuple[int, ...]]] = field(
        default_factory=dict, repr=False
    )

    def index_of(self, color: int) -> int:
        return self.colors.index(color)

    def color_model(self, color: int) -> tuple[HardCoreModel, tuple[int, ...]]:
        got = self.models.get(color)
        if got is None:
            got = _color_model(self.graph, self.g_edges[color], self.activities[color])
            self.models[color] = got
        return got


def build_color_subgraphs(graph: Multigraph, lists: ListMap) -> dict[int, tuple[int, ...]]:
    """Edge ids of each color's subgraph G_i, keyed by color."""
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
    graph: Multigraph, edges: Iterable[int], acts: Mapping[int, float]
) -> tuple[HardCoreModel, tuple[int, ...]]:
    """The hard-core model on one color subgraph (all host vertices, the
    given edges in id order) and the host ids of its edges."""
    sub, kept = restrict_edges(graph, edges)
    return HardCoreModel(sub, [acts[h] for h in kept]), kept


def _color_marginals(
    model: HardCoreModel,
    kept: tuple[int, ...],
    cfg: ListConfig,
    rng: np.random.Generator,
) -> tuple[dict[int, float], bool]:
    """Marginals of a color model's hard-core law, host-keyed.

    Returns (marginals, estimated) where estimated means chain frequencies
    rather than exact values.
    """
    exact_ok = cfg.sampler != "chain" and model.collapse().m <= EXACT_CAP
    if exact_ok:
        local = exact_marginals(model)
        return {h: local[j] for j, h in enumerate(kept)}, False
    local = estimate_marginals(
        model, ChainConfig(steps=cfg.chain_steps), cfg.marginal_samples, rng=rng
    )
    return {h: local[j] for j, h in enumerate(kept)}, True


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
    estimated = False
    exact_cap = -1 if cfg.sampler == "chain" else (10**9 if cfg.sampler == "exact" else None)
    # Colors with the same edge set and targets (e.g. identical lists
    # everywhere) calibrate once and share the result.
    calib_cache: dict[tuple, object] = {}
    models: dict[int, tuple[HardCoreModel, tuple[int, ...]]] = {}
    for c in colors:
        edges = g_edges[c]
        if prev_activities is None:
            sub, kept = restrict_edges(graph, edges)
            min_list = min(len(list(lists[h])) for h in kept)
            level = chi_star(sub).value
            if level >= min_list:
                raise InfeasibleTargetError(
                    f"color {c}: subgraph has chi* = {level} but the shortest "
                    f"incident list has {min_list} colors; marginals 1/|L_e| "
                    "need chi* below the list size"
                )
            targets = {j: Fraction(1, len(list(lists[kept[j]]))) for j in range(sub.m)}
            cache_key = (kept, tuple(sorted(targets.items())))
            calib = calib_cache.get(cache_key)
            if calib is None:
                calib = calibrate_activities(
                    sub,
                    targets,
                    max_iters=cfg.calibration_max_iters,
                    chain=ChainConfig(steps=cfg.chain_steps),
                    samples=cfg.calibration_samples,
                    exact_cap=exact_cap,
                    rng=stream(cfg.master_seed, "iter", iteration, "calibrate", c),
                )
                calib_cache[cache_key] = calib
            acts[c] = {kept[j]: calib.activities[j] for j in range(sub.m)}
            margs[c] = {kept[j]: calib.achieved[j] for j in range(sub.m)}
            k_hats.append(calib.k_hat)
            estimated |= calib.method == "mcmc"
        else:
            acts[c] = {h: prev_activities[c][h] for h in edges}
            models[c] = _color_model(graph, edges, acts[c])
            m_host, est = _color_marginals(
                *models[c], cfg, stream(cfg.master_seed, "iter", iteration, "marginals", c)
            )
            margs[c] = m_host
            estimated |= est
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
        estimated=estimated,
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
        model, kept = ctx.color_model(c)
        rng_m = stream(cfg.master_seed, "iter", ctx.iteration, "color", c, "match")
        local = _draw(model, cfg, rng_m)
        ms.append(frozenset(kept[j] for j in local))
        rng_a = stream(cfg.master_seed, "iter", ctx.iteration, "color", c, "activate")
        As.append(frozenset(e for e in edges if rng_a.random() < ctx.alpha))
        rng_h = stream(cfg.master_seed, "iter", ctx.iteration, "color", c, "equalize")
        Hs.append(frozenset(e for e in edges if rng_h.random() < ctx.eq[(c, e)]))
    return ColorState(tuple(ms), tuple(As), tuple(Hs))


def claimed_edges(ctx: IterationContext, state: ColorState) -> list[frozenset[int]]:
    """F_i = M_i restricted to set activation bits, per color slot."""
    return [m & a for m, a in zip(state.matchings, state.active)]


def claims_by_edge(ctx: IterationContext, state: ColorState) -> dict[int, list[int]]:
    out: dict[int, list[int]] = {}
    for idx, f in enumerate(claimed_edges(ctx, state)):
        for e in f:
            out.setdefault(e, []).append(ctx.colors[idx])
    return {e: sorted(cs) for e, cs in out.items()}


def equalized_event(ctx: IterationContext, state: ColorState, e: int, c: int) -> bool:
    """Edge e departs G_c this iteration the equalized way: uniquely claimed
    by c, or equalizer-removed."""
    claims = claims_by_edge(ctx, state)
    idx = ctx.index_of(c)
    return claims.get(e) == [c] or e in state.held[idx]


def post_removal_edges(ctx: IterationContext, state: ColorState) -> dict[int, tuple[int, ...]]:
    """Next iteration's color subgraphs under the three removal rules."""
    f_sets = claimed_edges(ctx, state)
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
        margs, est = _color_marginals(
            *_color_model(ctx.graph, edges, ctx.activities[c]), ctx.cfg, rng
        )
        estimated |= est
        for e, m in margs.items():
            totals[e] = totals.get(e, 0.0) + m
    return totals, estimated


def _fix_address(ctx: IterationContext, core: frozenset[int]):
    cfg = ctx.cfg

    def address(state: ColorState, rng: np.random.Generator) -> ColorState:
        ms = list(state.matchings)
        As = list(state.active)
        Hs = list(state.held)
        for idx, c in enumerate(ctx.colors):
            edges = ctx.g_edges[c]
            # The color's own model, as drawn from by sample_iteration; its
            # balls are taken in G_i's metric.
            model, kept = ctx.color_model(c)
            pos = {h: j for j, h in enumerate(kept)}
            inner = ball_vertices(model.graph, core, ctx.radius)
            outer = ball_vertices(model.graph, core, ctx.radius + 1)
            local_m = frozenset(pos[h] for h in state.matchings[idx])
            new_local = resample_matching(model, local_m, inner, outer, cfg, rng)
            ms[idx] = frozenset(kept[j] for j in new_local)
            a = set(As[idx])
            h = set(Hs[idx])
            for e in edges:
                u, v = ctx.graph.endpoints[e]
                if u in outer and v in outer:
                    a.discard(e)
                    if rng.random() < ctx.alpha:
                        a.add(e)
                    h.discard(e)
                    if rng.random() < ctx.eq[(c, e)]:
                        h.add(e)
            As[idx] = frozenset(a)
            Hs[idx] = frozenset(h)
            if cfg.audit_locality:
                changed = (
                    (state.matchings[idx] ^ ms[idx])
                    | (state.active[idx] ^ As[idx])
                    | (state.held[idx] ^ Hs[idx])
                )
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
        return ball_vertices(ctx.graph, core, ctx.radius + 2)

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
            budget = cfg.estimation_budget if estimated else 0.0
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

    Requires min |L_e| >= ceil((1+eps) chi*).  Stats carry alpha, the
    calibration stretch K, chi*, and per-iteration records of the claimed
    ("equalized") fraction, flaws addressed, ledger drift, and the maximum
    uncolored degree.  Raises a greedy-failure error when the final pass
    finds an edge with every remaining list color blocked.
    """
    cfg = cfg or ListConfig()
    if graph.m == 0:
        return {}, {"iterations": [], "colors_used": 0, "chi_star": "0", "alpha": 1.0, "k_hat": 1.0}
    g_edges = build_color_subgraphs(graph, lists)
    c_min = min(len(list(lists[e])) for e in range(graph.m))
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
            if cfg.t_override is not None:
                radius = cfg.t_override
            else:
                delta_frac = float(Fraction(str(cfg.epsilon)) / 4)
                radius = math.ceil(8.0 * (k_hat + 1.0) ** 2 / delta_frac) + 2
                radius = max(1, min(radius, _graph_diameter(graph)))
            ctx.radius = radius
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
        for c in ctx.colors:
            idx = ctx.index_of(c)
            for e in ctx.g_edges[c]:
                if e not in select.uncolored_set:
                    continue
                edge_live[e] = edge_live.get(e, 0) + 1
                live_pairs += 1
                if claims.get(e) == [c] or e in final.held[idx]:
                    edge_hits[e] = edge_hits.get(e, 0) + 1
                    hit_pairs += 1
        eligible_set = set(edge_live)
        pre_commit = len(coloring)
        for e, cs in claims.items():
            if e not in coloring:
                coloring[e] = cs[0]
        newly = len(coloring) - pre_commit
        eligible = len(eligible_set)
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
