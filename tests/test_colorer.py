"""Round planner, matching resampler, round driver, greedy pass, and the
full matching-removal coloring pipeline."""

from fractions import Fraction

import pytest

from matchcolor import GsConfig, color_multigraph, estimate_charges_exact, plan_round, stream
from matchcolor.colorer import (
    greedy_edge_coloring,
    initial_state,
    make_selector,
    resample_matching,
    round_flaw_specs,
    round_measure,
    run_round,
)
from matchcolor import colorer, fractional, hardcore
from matchcolor.errors import CapacityError, GreedyBlockedError, LocalSearchError, RoundError
from matchcolor.graphs import Multigraph, is_matching, validate_coloring
from matchcolor.hardcore import HardCoreModel, exact_marginals

from support import (
    banded_multigraph,
    gs_instance,
    path_graph,
    shannon,
    star_multigraph,
    sweep_corpus,
)


# ---------------------------------------------------------------------------
# Configuration


def test_config_defaults_and_chi0():
    cfg = GsConfig()
    assert cfg.epsilon == 0.1
    # ceil((4/0.1)^4) = 40^4
    assert cfg.chi0 == 2_560_000
    assert GsConfig(epsilon=0.5).chi0 == 4096
    assert GsConfig(chi0_override=10).chi0 == 10


@pytest.mark.parametrize(
    "kwargs",
    [
        {"epsilon": 0.0},
        {"epsilon": 0.6},
        {"epsilon": -0.1},
        {"sampler": "magic"},
        {"retries": 0},
        {"chi0_override": 0},
        {"t_override": 0},
        {"step_cap": 0},
        {"step_cap": -4},
        {"chain_steps": -3},
    ],
)
def test_config_validation(kwargs):
    with pytest.raises(ValueError):
        GsConfig(**kwargs)


# ---------------------------------------------------------------------------
# Round planning


@pytest.fixture(scope="module")
def star_plan():
    g = star_multigraph(16)
    cfg = GsConfig(epsilon=0.1, master_seed=3, chi0_override=10)
    return g, cfg, plan_round(g, cfg)


def test_plan_round_star_parameters(star_plan):
    g, _, p = star_plan
    assert p.chi_star == Fraction(16)
    # floor(16^(3/4)) = 8
    assert p.n_matchings == 8
    assert p.c_star == Fraction(96, 11)  # 16 - 8/1.1
    assert p.delta == Fraction(1, 40)
    assert p.degree_threshold == Fraction(469, 55)
    # Delta/(delta N) = 80, stepped down to odd then clamped to n = 17.
    assert p.vertex_cap == 17
    # The theoretical radius is huge; the graph's diameter (2) caps it.
    assert p.radius == 2


def test_plan_round_star_calibration(star_plan):
    g, _, p = star_plan
    lams = list(p.model.activities)
    # Symmetry: all sixteen edges share one activity.
    assert max(lams) - min(lams) < 1e-12
    # Closed form lambda = 39/16 for marginal (1 - 1/40)/16 on a 16-star.
    assert lams[0] == pytest.approx(39 / 16, abs=5e-3)
    marg = exact_marginals(HardCoreModel(g, lams))
    target = float(Fraction(39, 640))
    assert max(abs(v - target) for v in marg.values()) <= 1e-6


def test_plan_round_below_threshold_returns_none():
    g = shannon(2)  # chi* = 6
    assert plan_round(g, GsConfig(epsilon=0.1)) is None  # chi0 = 2.56e6
    assert plan_round(g, GsConfig(chi0_override=7)) is None
    assert plan_round(Multigraph(3, []), GsConfig(chi0_override=1)) is None


def test_plan_round_rejects_sub_unit_target_level():
    g = path_graph(1)  # chi* = 1, N = 1, c* = eps/(1+eps) < 1
    with pytest.raises(ValueError, match="below 1"):
        plan_round(g, GsConfig(epsilon=0.5, chi0_override=1))


# ---------------------------------------------------------------------------
# Sampling and resampling


def test_initial_state_shape_and_determinism(star_plan):
    g, cfg, p = star_plan
    state = initial_state(p, cfg)
    assert len(state) == p.n_matchings
    assert all(is_matching(g, m) for m in state)
    assert initial_state(p, cfg) == state
    assert initial_state(p, cfg, attempt=1) != state


def test_resample_matching_preserves_frozen_edges():
    g = path_graph(8)
    model = HardCoreModel(g, {e: 1.0 for e in range(g.m)})
    inner = frozenset({3, 4, 5})  # distance < 2 from vertex 4
    outer = frozenset({2, 3, 4, 5, 6})
    rng = stream(7, "resample")
    for _ in range(25):
        new = resample_matching(model, frozenset({0, 7}), inner, outer, rng)
        assert is_matching(g, new)
        # Edges clear of the inner ball survive untouched.
        assert {0, 7} <= new
        # Fresh edges live inside the outer region.
        assert new - {0, 7} <= {2, 3, 4, 5}


def test_resample_matching_drops_inner_edges():
    g = path_graph(8)
    model = HardCoreModel(g, {e: 1.0 for e in range(g.m)})
    inner = frozenset({3, 4, 5})
    outer = frozenset({2, 3, 4, 5, 6})
    rng = stream(8, "resample")
    # Edge 4 = (4, 5) touches the inner ball, so it is redrawn, not kept;
    # the redraw may or may not reinstate it.  Edge 0 is always kept.
    seen_without = False
    for _ in range(40):
        new = resample_matching(model, frozenset({0, 4}), inner, outer, rng)
        assert 0 in new
        if 4 not in new:
            seen_without = True
    assert seen_without


# ---------------------------------------------------------------------------
# Round driver


@pytest.fixture(scope="module")
def shannon3_round():
    g = shannon(3)
    cfg = GsConfig(epsilon=0.5, master_seed=1, chi0_override=9, t_override=2, step_cap=3000)
    return g, cfg, plan_round(g, cfg)


def test_plan_round_shannon3(shannon3_round):
    _, _, p = shannon3_round
    assert p.chi_star == Fraction(9)
    assert p.n_matchings == 5
    assert p.c_star == Fraction(17, 3)
    assert p.degree_threshold == Fraction(121, 24)
    assert p.vertex_cap == 3

def test_run_round_reaches_flawless_state(shannon3_round):
    g, cfg, p = shannon3_round
    state, trace = run_round(p, cfg)
    assert trace.flawless
    assert len(state) == p.n_matchings
    assert make_selector(p)(state) is None
    # The driver exact-verified the residual level internally (n <= 10);
    # re-check the degree component here.
    union = set().union(*state)
    for v in range(g.n):
        resid = sum(
            1 for eid, (a, b) in enumerate(g.endpoints) if eid not in union and v in (a, b)
        )
        assert resid <= p.degree_threshold


def test_run_round_is_deterministic(shannon3_round):
    g, cfg, p = shannon3_round
    state1, _ = run_round(p, cfg)
    state2, _ = run_round(p, cfg)
    assert state1 == state2


def test_run_round_propagates_search_bugs(shannon3_round, monkeypatch):
    # Only step-cap exhaustion is retried; any other error is a bug and
    # must reach the caller as raised, not as a RoundError after retries.
    g, cfg, p = shannon3_round
    bug = ValueError("bug inside the search")
    calls = []

    def broken_search(*args, **kwargs):
        calls.append(1)
        raise bug

    monkeypatch.setattr(colorer, "run_with_selector", broken_search)
    with pytest.raises(ValueError) as info:
        run_round(p, cfg)
    assert info.value is bug
    assert len(calls) == 1


def test_run_round_retries_step_cap_exhaustion(shannon3_round, monkeypatch):
    g, cfg, p = shannon3_round

    def exhausted(*args, **kwargs):
        raise LocalSearchError("step cap reached", trace="last")

    monkeypatch.setattr(colorer, "run_with_selector", exhausted)
    with pytest.raises(RoundError) as info:
        run_round(p, cfg)
    assert info.value.trace == "last"


def test_color_multigraph_compiles_one_sampling_dag_per_round(monkeypatch):
    # Every draw of a round, repairs included, walks the DAG its exact
    # calibration compiled: a run builds one per round, calibrations
    # included, however many repairs its search makes.
    built = []
    exact_calibrations = []

    class CountingDag(hardcore._ZDag):
        def __init__(self, *args):
            built.append(args)
            super().__init__(*args)

    def counting_calibrate(*args, **kwargs):
        result = hardcore.calibrate_activities(*args, **kwargs)
        exact_calibrations.append(result.method == "exact")
        return result

    monkeypatch.setattr(hardcore, "_ZDag", CountingDag)
    monkeypatch.setattr(colorer, "calibrate_activities", counting_calibrate)
    g = gs_instance(0)
    cfg = GsConfig(epsilon=0.5, master_seed=0, chi0_override=10, t_override=2, step_cap=3000)
    coloring, stats = color_multigraph(g, cfg)
    assert validate_coloring(g, coloring).ok
    rounds = stats["rounds"]
    assert len(rounds) >= 2
    assert sum(r["steps"] for r in rounds) >= 10  # the searches repaired
    assert all(exact_calibrations)
    assert len(built) == len(rounds)


def test_color_multigraph_computes_chi_star_once_per_graph(monkeypatch):
    # Planning a round, calibrating it and certifying the previous round's
    # residual all need chi* of one graph; each graph is searched once.  A
    # search starts at level Delta, and only chi_star calls the Padberg-Rao
    # oracle (the flaw selector runs its own capped search).
    searched = []
    search = fractional.separate_odd_set

    def counting(graph, c):
        if c == graph.max_degree():
            searched.append(graph)
        return search(graph, c)

    monkeypatch.setattr(fractional, "separate_odd_set", counting)
    g = gs_instance(0)
    cfg = GsConfig(epsilon=0.5, master_seed=0, chi0_override=10, t_override=2, step_cap=3000)
    coloring, stats = color_multigraph(g, cfg)
    assert validate_coloring(g, coloring).ok
    assert len(stats["rounds"]) >= 2
    assert len(searched) == len(stats["rounds"]) + 1


def test_auto_colors_a_graph_over_64_edges_exactly(monkeypatch):
    # "auto" budgets the exact path by DAG nodes, not collapsed edges: this
    # banded graph has 83 collapsed edges but a DAG of a few hundred nodes,
    # so at criterion-8 settings every calibration is exact, no draw runs
    # the chain, and the coloring is sampler="exact"'s.
    g = banded_multigraph(5, 80, 80, 40, 8, 18)
    assert len(HardCoreModel(g, [1.0] * g.m).pairs) == 83
    methods = []

    def recording_calibrate(*args, **kwargs):
        result = hardcore.calibrate_activities(*args, **kwargs)
        methods.append(result.method)
        return result

    def no_chain(*args, **kwargs):
        raise AssertionError("a draw ran the chain sampler")

    monkeypatch.setattr(colorer, "calibrate_activities", recording_calibrate)
    monkeypatch.setattr(hardcore, "sample_matching", no_chain)
    cfg = GsConfig(epsilon=0.5, master_seed=5, chi0_override=10, t_override=2, step_cap=3000)
    coloring, stats = color_multigraph(g, cfg)
    assert validate_coloring(g, coloring).ok
    assert len(coloring) == g.m
    assert methods and set(methods) == {"exact"}
    exact_cfg = GsConfig(
        epsilon=0.5, master_seed=5, chi0_override=10, t_override=2, step_cap=3000, sampler="exact"
    )
    assert color_multigraph(g, exact_cfg) == (coloring, stats)


# ---------------------------------------------------------------------------
# Greedy completion


def test_greedy_matches_chromatic_index_on_shannon():
    g = shannon(2)
    coloring = greedy_edge_coloring(g)
    assert validate_coloring(g, coloring).ok
    assert len(set(coloring.values())) == 6


def test_greedy_first_color_offset():
    coloring = greedy_edge_coloring(shannon(2), first_color=10)
    assert min(coloring.values()) == 10
    assert max(coloring.values()) == 15


def test_greedy_respects_two_delta_bound():
    for g in sweep_corpus(55, 12):
        if g.m == 0:
            continue
        coloring = greedy_edge_coloring(g)
        assert validate_coloring(g, coloring).ok
        assert len(set(coloring.values())) <= 2 * g.max_degree() - 1


def test_greedy_with_lists_and_blocking():
    g = Multigraph(2, [(0, 1), (0, 1)])
    coloring = greedy_edge_coloring(g, lists={0: [4, 9], 1: [9, 4]})
    assert coloring == {0: 4, 1: 9}
    with pytest.raises(GreedyBlockedError) as err:
        greedy_edge_coloring(g, lists={0: [5], 1: [5]})
    assert err.value.edge == 1


# ---------------------------------------------------------------------------
# Full pipeline


def test_color_multigraph_empty():
    coloring, stats = color_multigraph(Multigraph(4, []))
    assert coloring == {}
    assert stats["colors_used"] == 0


def test_color_multigraph_greedy_only():
    # chi* = 9 sits below the default threshold, so no rounds run.
    coloring, stats = color_multigraph(shannon(3), GsConfig(epsilon=0.5, master_seed=0))
    assert stats["rounds"] == []
    assert validate_coloring(shannon(3), coloring).ok


def test_color_multigraph_with_rounds():
    g = shannon(3)
    cfg = GsConfig(epsilon=0.5, master_seed=1, chi0_override=9, t_override=2, step_cap=3000)
    coloring, stats = color_multigraph(g, cfg)
    rep = validate_coloring(g, coloring)
    assert rep.ok
    assert len(coloring) == g.m
    assert stats["chi_star"] == "9"
    assert len(stats["rounds"]) == 1
    assert stats["rounds"][0]["n_matchings"] == 5
    assert stats["rounds"][0]["c_star"] == "17/3"
    assert stats["colors_used"] <= 2 * g.max_degree() - 1
    assert stats["ratio"] == stats["colors_used"] / 9.0


def test_color_multigraph_deterministic():
    g = shannon(3)
    cfg = GsConfig(epsilon=0.5, master_seed=2, chi0_override=9, t_override=2, step_cap=3000)
    assert color_multigraph(g, cfg) == color_multigraph(g, cfg)


# ---------------------------------------------------------------------------
# Exact verification artifacts


@pytest.fixture(scope="module")
def path3_round():
    g = path_graph(3)
    cfg = GsConfig(epsilon=0.5, master_seed=0, chi0_override=2, t_override=1)
    return g, cfg, plan_round(g, cfg)


def test_round_measure_normalizes(path3_round):
    g, _, p = path3_round
    assert p.n_matchings == 1
    mu = round_measure(g, p)
    # Five matchings of a three-edge path, as one-tuples.
    assert len(mu) == 5
    assert sum(mu.values()) == pytest.approx(1.0, abs=1e-12)
    assert all(len(state) == 1 for state in mu)


def test_round_measure_capacity(path3_round):
    g, _, p = path3_round
    with pytest.raises(CapacityError):
        round_measure(path_graph(13), p, cap=12)


def test_flaw_specs_and_charge_identity(path3_round):
    g, _, p = path3_round
    specs = round_flaw_specs(g, p)
    assert [s.name for s in specs] == [
        "vertex:0",
        "vertex:1",
        "vertex:2",
        "vertex:3",
        "oddset:0-1-2",
        "oddset:1-2-3",
    ]
    mu = round_measure(g, p)
    rep = estimate_charges_exact(specs, mu)
    assert rep.identity_gap <= 1e-12
    # Leaf degrees never exceed the threshold 4/3 - 1/8.
    assert rep.charges["vertex:0"] == 0.0
    assert rep.charges["vertex:3"] == 0.0
    assert rep.charges["vertex:1"] > 0.0
