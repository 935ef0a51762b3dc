"""Synchronized per-color matching machinery for list edge coloring."""

import math
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from matchcolor import InfeasibleTargetError, ListConfig, list_edge_color, stream
from matchcolor import hardcore, listcolor
from matchcolor.graphs import Multigraph, is_matching, validate_coloring
from matchcolor.hardcore import HardCoreModel, exact_marginals, sampler_marginals
from matchcolor.listcolor import (
    ColorState,
    IterationContext,
    build_color_subgraphs,
    claimed_edges,
    claims_by_edge,
    default_alpha,
    equalizer_probability,
    init_iteration,
    make_iteration_selector,
    post_removal_edges,
    sample_iteration,
)

from support import (
    cycle_graph,
    list_instance,
    list_size_for,
    path_graph,
    staggered_lists,
    star_multigraph,
    uniform_lists,
)


# ---------------------------------------------------------------------------
# Configuration and basic structure


@pytest.mark.parametrize(
    "kwargs",
    [
        {"epsilon": 0.0},
        {"epsilon": 0.2},
        {"sampler": "bogus"},
        {"alpha_override": 0.0},
        {"alpha_override": 1.5},
        {"t_override": 0},
        {"max_iterations": 0},
        {"step_cap": 0},
        {"mass_floor": 1.0},
        {"mass_floor": -0.1},
        {"list_floor": -1},
        {"chain_steps": -3},
    ],
)
def test_list_config_validation(kwargs):
    with pytest.raises(ValueError):
        ListConfig(**kwargs)


def test_build_color_subgraphs():
    g = cycle_graph(4)
    lists = {0: [0, 1], 1: [1, 2], 2: [0, 1], 3: [2, 1]}
    subs = build_color_subgraphs(g, lists)
    assert subs == {0: (0, 2), 1: (0, 1, 2, 3), 2: (1, 3)}


def test_build_color_subgraphs_requires_lists():
    g = cycle_graph(3)
    with pytest.raises(ValueError, match="no color list"):
        build_color_subgraphs(g, {0: [1], 1: [1]})
    with pytest.raises(ValueError, match="no color list"):
        build_color_subgraphs(g, {0: [1], 1: [1], 2: []})


def test_default_alpha():
    assert default_alpha(path_graph(2)) == 1.0  # log(2) < 1
    assert default_alpha(Multigraph(3, [])) == 1.0
    g = star_multigraph(40)
    assert default_alpha(g) == pytest.approx(1.0 / math.log(40))


# ---------------------------------------------------------------------------
# Equalizer probability


def test_equalizer_frozen_value():
    # q = 0.3*0.2 - 0.09*0.2*(0.1 + 0.15) = 0.0555
    # eq = (0.3 - 0.0555) / (1 - 0.0555)
    eq = equalizer_probability(0.3, 0.2, [0.1, 0.15])
    assert eq == pytest.approx(0.2445 / 0.9445, abs=1e-12)


def test_equalizer_disabled_when_claims_cover_alpha():
    # m_i = 1 with no competitors: q = alpha, nothing left to equalize.
    assert equalizer_probability(0.7, 1.0, []) == 0.0


@given(
    alpha=st.floats(0.01, 1.0),
    m_i=st.floats(0.0, 1.0),
    others=st.lists(st.floats(0.0, 1.0), max_size=4),
)
def test_equalizer_identity(alpha, m_i, others):
    """Departure chance q + (1 - q) * eq must equal alpha exactly."""
    eq = equalizer_probability(alpha, m_i, others)
    q = alpha * m_i - sum(alpha * alpha * m_i * m_j for m_j in others)
    assert 0.0 <= eq <= 1.0
    if q < 1.0:
        assert q + (1.0 - q) * eq == pytest.approx(alpha, abs=1e-9)


# ---------------------------------------------------------------------------
# Iteration context


@pytest.fixture(scope="module")
def c5_ctx():
    g = cycle_graph(5)
    lists = uniform_lists(g, 3)
    cfg = ListConfig(master_seed=11, alpha_override=0.4, t_override=1)
    subs = build_color_subgraphs(g, lists)
    ctx = init_iteration(g, subs, lists, cfg, 1, range(g.m))
    return g, cfg, ctx


def test_init_iteration_calibrates_to_list_reciprocals(c5_ctx):
    g, _, ctx = c5_ctx
    assert ctx.colors == (0, 1, 2)
    for c in ctx.colors:
        for e in range(g.m):
            assert ctx.marginals[c][e] == pytest.approx(1 / 3, abs=1e-6)
    # Ledger sums the three per-color marginals.
    for e in range(g.m):
        assert ctx.ledger_total[e] == pytest.approx(1.0, abs=5e-6)
    assert ctx.k_hat > 0.0


def test_init_iteration_targets_count_distinct_colors():
    g = cycle_graph(5)
    lists = {e: [0, 1, 2, 2, 0] for e in range(g.m)}
    cfg = ListConfig(master_seed=11)
    ctx = init_iteration(g, build_color_subgraphs(g, lists), lists, cfg, 1, range(g.m))
    for c in ctx.colors:
        for e in range(g.m):
            assert ctx.marginals[c][e] == pytest.approx(1 / 3, abs=1e-6)


def test_init_iteration_equalizer_table(c5_ctx):
    _, _, ctx = c5_ctx
    # alpha = 0.4, m = 1/3 everywhere:
    # q = 0.4/3 - 0.16 * (1/9) * 2, eq = (0.4 - q)/(1 - q).
    q = 0.4 / 3 - 0.16 * (1 / 9) * 2
    expect = (0.4 - q) / (1 - q)
    for key, val in ctx.eq.items():
        assert val == pytest.approx(expect, abs=1e-5)


def test_exact_sampler_marginals_beyond_exact_cap(monkeypatch):
    # ListConfig(sampler="exact") computes a color's marginals exactly at any
    # size: past the old 64-edge cap and past the "auto" node budget, without
    # falling back to chain estimates.
    monkeypatch.setattr(hardcore, "AUTO_NODE_BUDGET", 1)
    cfg = ListConfig(sampler="exact")
    g = path_graph(70)
    model = HardCoreModel(g, [1.0] * g.m, cfg.sampler, cfg.chain_steps)
    margs, estimated = sampler_marginals(model, 10, stream(0, "m"))
    assert not estimated
    assert margs == exact_marginals(model)


def test_list_repair_redraws_only_colors_with_an_edge_at_the_core(monkeypatch):
    # A color whose subgraph has no edge at the core has nothing to redraw:
    # one repair calls resample_matching once per color with an edge there,
    # and still counts every color as audited.
    g = list_instance(0)
    lists = staggered_lists(g, list_size_for(g))
    subs = build_color_subgraphs(g, lists)
    cfg = ListConfig(master_seed=0, t_override=2)
    ctx = init_iteration(g, subs, lists, cfg, 1, range(g.m), radius=2)
    state = sample_iteration(ctx)
    resampled = []
    resample = listcolor.resample_matching

    def counting(model, *args):
        resampled.append(model)
        return resample(model, *args)

    monkeypatch.setattr(listcolor, "resample_matching", counting)
    partial = 0
    for v in range(g.n):
        at_core = [c for c in ctx.colors if any(v in g.endpoints[e] for e in ctx.g_edges[c])]
        partial += len(at_core) < len(ctx.colors)
        resampled.clear()
        audits = ctx.locality_audits
        listcolor._fix_address(ctx, frozenset([v]))(state, stream(0, "repair", v))
        assert len(resampled) == len(at_core)
        assert ctx.locality_audits == audits + len(ctx.colors)
    assert partial > 0


def test_init_iteration_infeasible_lists():
    g = cycle_graph(3)  # chi* = 3
    for lists in (uniform_lists(g, 2), {e: [0, 0, 1, 1] for e in range(g.m)}):
        subs = build_color_subgraphs(g, lists)
        with pytest.raises(InfeasibleTargetError, match="chi[*] = 3"):
            init_iteration(g, subs, lists, ListConfig(), 1, range(g.m))


def test_sample_iteration_structure_and_determinism(c5_ctx):
    g, _, ctx = c5_ctx
    state = sample_iteration(ctx)
    assert len(state.matchings) == len(ctx.colors)
    for idx, c in enumerate(ctx.colors):
        assert is_matching(g, state.matchings[idx])
        assert state.active[idx] <= set(ctx.g_edges[c])
        assert state.held[idx] <= set(ctx.g_edges[c])
    again = sample_iteration(ctx)
    assert again == state
    claims = claimed_edges(state)
    for idx in range(len(ctx.colors)):
        assert claims[idx] == state.matchings[idx] & state.active[idx]


# ---------------------------------------------------------------------------
# Removal rules on a hand-built state


def hand_context():
    g = path_graph(4)
    cfg = ListConfig(master_seed=0)
    return IterationContext(
        graph=g,
        colors=(0, 1),
        g_edges={0: (0, 1, 2, 3), 1: (0, 1, 2, 3)},
        activities={},
        marginals={},
        ledger_total={},
        eq={},
        alpha=0.5,
        k_hat=1.0,
        radius=1,
        cfg=cfg,
        iteration=1,
        uncolored=(0, 1, 2, 3),
    )


def hand_state():
    # Color 0 claims edge 0; color 1 holds edge 0 in its matching unclaimed,
    # claims edge 3, and equalizer-removes edge 1.
    return ColorState(
        matchings=(frozenset({0, 2}), frozenset({0, 3})),
        active=(frozenset({0}), frozenset({3})),
        held=(frozenset(), frozenset({1})),
    )


def test_claims_by_edge_orders_colors():
    ctx = hand_context()
    assert claims_by_edge(ctx, hand_state()) == {0: [0], 3: [1]}


def test_post_removal_rules():
    ctx = hand_context()
    nxt = post_removal_edges(ctx, hand_state())
    # Color 0: edges 0, 1 touch the committed edge 0 (rule one); edge 3 was
    # claimed by color 1 and is not protected (rule two); edge 2 stays.
    assert nxt[0] == (2,)
    # Color 1: edge 0 was claimed by color 0 but sits unclaimed in M_1, so
    # protection keeps it; edge 1 was equalizer-removed (rule three); edges
    # 2 and 3 touch the committed edge 3 (rule one).
    assert nxt[1] == (0,)


def equalized(ctx, state, e, c):
    """Edge e departs G_c the equalized way: uniquely claimed by c, or
    equalizer-removed; ``list_edge_color`` counts these as claim hits."""
    return claims_by_edge(ctx, state).get(e) == [c] or e in state.held[ctx.colors.index(c)]


def test_equalized_event_cases():
    ctx = hand_context()
    state = hand_state()
    assert equalized(ctx, state, 0, 0)  # uniquely claimed by color 0
    assert not equalized(ctx, state, 3, 0)  # claimed by the other color
    assert equalized(ctx, state, 1, 1)  # equalizer removal
    assert not equalized(ctx, state, 2, 0)  # nothing happened to it


# ---------------------------------------------------------------------------
# Selector


def test_selector_vertex_flaw_on_empty_claims(c5_ctx):
    g, _, ctx = c5_ctx
    select = make_iteration_selector(ctx)
    empty = ColorState(
        matchings=(frozenset(),) * 3,
        active=(frozenset(),) * 3,
        held=(frozenset(),) * 3,
    )
    flaw = select(empty)
    assert flaw is not None
    assert flaw.kind == "vertex"
    assert flaw.key == ("vertex", 0)
    assert flaw.footprint  # nonempty ball


def test_selector_disabled_flaw_classes():
    g = cycle_graph(5)
    lists = uniform_lists(g, 3)
    cfg = ListConfig(
        master_seed=11,
        alpha_override=0.4,
        t_override=1,
        vertex_threshold=0.0,
        edge_threshold=None,
        mass_floor=0.0,
    )
    ctx = init_iteration(g, build_color_subgraphs(g, lists), lists, cfg, 1, range(g.m))
    select = make_iteration_selector(ctx)
    empty = ColorState(
        matchings=(frozenset(),) * 3,
        active=(frozenset(),) * 3,
        held=(frozenset(),) * 3,
    )
    assert select(empty) is None
    assert select.last_drift is None


# ---------------------------------------------------------------------------
# Departure frequency matches alpha


def test_departure_frequency_matches_alpha():
    """Over many seeds, the equalized departure of an edge from a color's
    subgraph happens with probability alpha by construction."""
    g = path_graph(1)
    lists = {0: [0, 1]}
    subs = build_color_subgraphs(g, lists)
    hits = 0
    trials = 1500
    for seed in range(trials):
        cfg = ListConfig(master_seed=seed, alpha_override=0.4)
        ctx = init_iteration(g, subs, lists, cfg, 1, [0])
        state = sample_iteration(ctx)
        if equalized(ctx, state, 0, 0):
            hits += 1
    freq = hits / trials
    # 3 sigma for p = 0.4 over 1500 trials is about 0.038.
    assert abs(freq - 0.4) < 0.04


# ---------------------------------------------------------------------------
# End-to-end


def test_list_edge_color_empty_graph():
    coloring, stats = list_edge_color(Multigraph(3, []), {})
    assert coloring == {}
    assert stats["colors_used"] == 0


def test_list_edge_color_rejects_short_lists():
    g = cycle_graph(5)
    with pytest.raises(ValueError, match="list sizes"):
        list_edge_color(g, uniform_lists(g, 2))


@pytest.mark.parametrize("entries", [[0, 0, 0, 0], [0, 1, 1, 1]])
def test_lists_count_distinct_colors(monkeypatch, entries):
    """Four entries naming one or two colors are lists of that many colors:
    on a triangle (chi* = 3, so lists need ceil(1.1 * 3) = 4 colors) the
    size check rejects them before any calibration."""
    monkeypatch.setattr(listcolor, "calibrate_activities", None)
    g = cycle_graph(3)
    with pytest.raises(ValueError, match="list sizes must reach"):
        list_edge_color(g, {e: entries for e in range(g.m)})


def test_lists_name_exactly_the_edge_ids():
    g = cycle_graph(3)
    lists = uniform_lists(g, 4)
    with pytest.raises(ValueError, match=r"edge ids \[3\] outside range\(3\)"):
        list_edge_color(g, {**lists, 3: [0, 1, 2, 3]})
    with pytest.raises(ValueError, match="outside"):
        list_edge_color(Multigraph(3, []), {0: [1]})


def test_list_edge_color_cycle():
    g = cycle_graph(5)
    lists = uniform_lists(g, 3)  # ceil(1.1 * 5/2) = 3
    cfg = ListConfig(master_seed=5, t_override=1)
    coloring, stats = list_edge_color(g, lists, cfg)
    rep = validate_coloring(g, coloring, lists=lists)
    assert rep.ok
    assert len(coloring) == g.m
    assert stats["chi_star"] == "5/2"
    assert stats["alpha"] == 1.0  # Delta = 2
    assert stats["iterations"]
    first = stats["iterations"][0]
    for key in (
        "colored_fraction",
        "eligible_edges",
        "claim_rate",
        "claim_se",
        "live_pairs",
        "flaws_addressed",
        "max_uncolored_degree",
        "min_live_list",
        "colored_total",
        "locality_audits",
    ):
        assert key in first
    assert 0.0 <= first["claim_rate"] <= 1.0


def test_list_edge_color_deterministic():
    g = cycle_graph(5)
    lists = uniform_lists(g, 3)
    cfg = ListConfig(master_seed=9, t_override=1)
    assert list_edge_color(g, lists, cfg) == list_edge_color(g, lists, cfg)


def test_first_iteration_compiles_one_dag_per_edge_set(monkeypatch):
    # Colors with one edge set share the model their calibration fitted,
    # compiled DAG included, for every draw and repair of the iteration.
    built = []

    class CountingDag(hardcore._ZDag):
        def __init__(self, *args):
            built.append(args)
            super().__init__(*args)

    monkeypatch.setattr(hardcore, "_ZDag", CountingDag)
    g = cycle_graph(6)
    lists = uniform_lists(g, 6)
    cfg = ListConfig(master_seed=3, t_override=1, max_iterations=1, edge_threshold=None)
    coloring, stats = list_edge_color(g, lists, cfg)
    assert validate_coloring(g, coloring, lists=lists).ok
    assert len(stats["iterations"]) == 1
    assert len(set(build_color_subgraphs(g, lists).values())) == 1
    assert len(built) == 1


def test_list_edge_color_offset_lists():
    """Color names need not start at zero or be contiguous."""
    g = cycle_graph(4)
    lists = {e: [7, 11, 13] for e in range(g.m)}
    coloring, _ = list_edge_color(g, lists, ListConfig(master_seed=2, t_override=1))
    rep = validate_coloring(g, coloring, lists=lists)
    assert rep.ok
    assert set(coloring.values()) <= {7, 11, 13}
