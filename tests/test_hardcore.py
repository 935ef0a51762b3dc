"""Hard-core matching distributions: exact computation, sampling, calibration."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from matchcolor import (
    InfeasibleTargetError,
    CalibrationError,
    ChainConfig,
    HardCoreModel,
    calibrate_activities,
    exact_marginals,
    log_partition_function,
    measure_correlation_decay,
    sample_matching,
    sample_matching_exact,
    sample_matching_recursive,
    stream,
)
from matchcolor.errors import CapacityError
from matchcolor.graphs import Multigraph, induced_subgraph, is_matching
from matchcolor.hardcore import (
    conditional_marginal,
    default_steps,
    estimate_marginals,
)
from matchcolor.oracle import enumerate_matchings, exact_distribution, tv_distance
from support import cycle_graph, double_edge, path_graph, shannon, star_multigraph, sweep_corpus


def random_activities(g, seed, lo=0.1, hi=10.0):
    rng = random.Random(seed)
    return [math.exp(rng.uniform(math.log(lo), math.log(hi))) for _ in range(g.m)]


# ---------------------------------------------------------------------------
# Model construction


def test_rejects_bad_activities():
    g = path_graph(2)
    with pytest.raises(ValueError):
        HardCoreModel(g, [1.0, 0.0])
    with pytest.raises(ValueError):
        HardCoreModel(g, [1.0, float("inf")])
    with pytest.raises(ValueError):
        HardCoreModel(g, [1.0])  # wrong length


def test_parallel_bundles_collapse():
    model = HardCoreModel(double_edge(), [2.0, 3.0])
    collapse = model.collapse()
    assert collapse.m == 1
    # A bundle's activity is the sum of its members'.
    assert math.isclose(collapse.lam[0], 5.0)


# ---------------------------------------------------------------------------
# Partition function


@pytest.mark.parametrize(
    "graph,acts,z",
    [
        (cycle_graph(3), [1.0] * 3, 4.0),
        (path_graph(3), [1.0] * 3, 5.0),
        (double_edge(), [2.0, 3.0], 6.0),
        (star_multigraph(3), [1.0] * 3, 4.0),
    ],
)
def test_partition_function_known_values(graph, acts, z):
    assert math.isclose(log_partition_function(HardCoreModel(graph, acts)), math.log(z))


def test_partition_function_matches_enumeration():
    for i, g in enumerate(sweep_corpus(seed=41, count=25, m_max=12)):
        acts = random_activities(g, 100 + i)
        model = HardCoreModel(g, acts)
        z = sum(
            math.prod(acts[e] for e in matching) for matching in enumerate_matchings(g)
        )
        assert math.isclose(log_partition_function(model), math.log(z), rel_tol=1e-12)


def test_partition_function_cap():
    g = path_graph(65)
    with pytest.raises(CapacityError):
        log_partition_function(HardCoreModel(g, [1.0] * g.m))


# ---------------------------------------------------------------------------
# Marginals


def test_marginals_known_values():
    p3 = exact_marginals(HardCoreModel(path_graph(3), [1.0] * 3))
    assert max(abs(p3[e] - t) for e, t in {0: 0.4, 1: 0.2, 2: 0.4}.items()) < 1e-12
    de = exact_marginals(HardCoreModel(double_edge(), [2.0, 3.0]))
    assert abs(de[0] - 1 / 3) < 1e-12
    assert abs(de[1] - 1 / 2) < 1e-12
    k3 = exact_marginals(HardCoreModel(cycle_graph(3), [1.0] * 3))
    assert all(abs(v - 0.25) < 1e-12 for v in k3.values())


def test_marginals_match_enumeration():
    for i, g in enumerate(sweep_corpus(seed=42, count=15, m_max=10)):
        acts = random_activities(g, 200 + i)
        model = HardCoreModel(g, acts)
        probs = exact_distribution(model).as_dict()
        for e in range(g.m):
            direct = sum(p for matching, p in probs.items() if e in matching)
            assert abs(exact_marginals(model)[e] - direct) < 1e-11


def _enumerated(g, acts):
    """log Z and per-edge marginals by brute-force enumeration."""
    weights = {m: math.prod(acts[e] for e in m) for m in enumerate_matchings(g)}
    z = sum(weights.values())
    margs = [sum(w for m, w in weights.items() if e in m) / z for e in range(g.m)]
    return math.log(z), margs


def _small_multigraph(draw) -> Multigraph:
    """Up to 8 vertices and 12 edges, where parallel bundles, isolated
    vertices and disconnected parts all occur."""
    n = draw(st.integers(min_value=0, max_value=8))
    edges: list[tuple[int, int]] = []
    if n >= 2:
        vertex = st.integers(min_value=0, max_value=n - 1)
        pair = st.tuples(vertex, vertex).filter(lambda p: p[0] != p[1])
        for (u, v), mult in draw(st.lists(st.tuples(pair, st.integers(1, 3)), max_size=8)):
            edges.extend([(u, v)] * mult)
    return Multigraph(n, edges[:12])


def _activities(g: Multigraph):
    return st.lists(st.floats(min_value=0.1, max_value=10.0), min_size=g.m, max_size=g.m)


@st.composite
def models_with_two_activity_vectors(draw):
    """A small multigraph (see ``_small_multigraph``) and two activity vectors."""
    g = _small_multigraph(draw)
    return g, draw(_activities(g)), draw(_activities(g))


@settings(max_examples=60, deadline=None)
@given(models_with_two_activity_vectors())
@example((Multigraph(7, [(0, 1), (0, 1), (1, 2), (4, 5), (5, 6), (4, 6), (4, 6)]),
          [0.5, 2.0, 1.0, 3.0, 0.2, 7.0, 1.5], [9.0, 0.1, 4.0, 0.3, 5.0, 1.0, 2.5]))
def test_compiled_dag_reevaluates_exactly(case):
    # One DAG, two activity vectors in turn, then the first again: a value
    # left stale by a sweep shows up as a mismatch against enumeration.
    g, first, second = case
    model = HardCoreModel(g, first)
    collapse = model.collapse()
    dag = model.dag()
    root = dag.node(dag.full)
    for acts in (first, second, first):
        lam = collapse.bundle_sums(acts)
        dag.evaluate(lam)
        log_z, margs = _enumerated(g, acts)
        assert math.isclose(dag.val[root], log_z, rel_tol=1e-10)
        got = collapse.edge_marginals(acts, lam, dag.bundle_marginals(root))
        for e in range(g.m):
            assert math.isclose(got[e], margs[e], rel_tol=1e-10)


@st.composite
def models_with_region(draw):
    """A small multigraph with activities, a random vertex region, whether
    to draw from the whole graph first, and a stream seed."""
    g = _small_multigraph(draw)
    acts = draw(_activities(g))
    region = draw(st.frozensets(st.integers(0, g.n - 1))) if g.n else frozenset()
    return g, acts, region, draw(st.booleans()), draw(st.integers(0, 2**16))


@settings(max_examples=80, deadline=None)
@given(models_with_region())
@example((Multigraph(7, [(0, 1), (0, 1), (1, 2), (2, 3), (4, 5), (5, 6), (4, 6), (4, 6)]),
          [0.5, 2.0, 1.0, 3.0, 0.2, 7.0, 1.5, 4.0], frozenset({0, 1, 2, 4, 6}), True, 5))
def test_region_draws_match_induced_submodel(case):
    # A walk from the region's node of the host DAG is the induced
    # submodel's exact draw: same matchings under identically seeded
    # streams, the same random numbers consumed, and the same log Z.
    g, acts, region, host_first, seed = case
    model = HardCoreModel(g, acts)
    dag = model.dag()
    if host_first:
        # Nodes compiled for the whole graph must not change the region's.
        sample_matching_recursive(model, stream(seed, "host"))
    sub = induced_subgraph(g, region)
    submodel = HardCoreModel(sub.graph, [acts[h] for h in sub.edge_ids])
    assert dag.log_z(dag.mask_of(region)) == log_partition_function(submodel)
    host_rng, sub_rng = stream(seed, "region"), stream(seed, "region")
    for _ in range(5):
        got = sample_matching_recursive(model, host_rng, region=region)
        want = sample_matching_recursive(submodel, sub_rng)
        assert got == frozenset(sub.edge_ids[j] for j in want)
    assert host_rng.random() == sub_rng.random()


def test_region_draw_cap_counts_region_edges():
    g = path_graph(21)
    model = HardCoreModel(g, [1.0] * g.m)
    with pytest.raises(CapacityError):
        sample_matching_recursive(model, stream(0, "x"), cap=20)
    region = frozenset(range(11))  # 10 edges
    assert is_matching(g, sample_matching_recursive(model, stream(0, "x"), cap=10, region=region))
    with pytest.raises(CapacityError):
        sample_matching_recursive(model, stream(0, "x"), cap=9, region=region)


@given(st.integers(min_value=0, max_value=500))
def test_vertex_occupancy_below_one(seed):
    rng = random.Random(seed)
    graphs = sweep_corpus(seed=rng.randrange(10**6), count=1, m_max=10)
    g = graphs[0]
    model = HardCoreModel(g, random_activities(g, seed + 1))
    mu = exact_marginals(model)
    for v in range(g.n):
        occupancy = sum(mu[e] for e in g.incidence[v])
        assert occupancy < 1.0 + 1e-12


def test_conditional_marginal_unconditioned_equals_exact():
    g = path_graph(3)
    model = HardCoreModel(g, [1.0] * 3)
    ball = range(g.n)
    assert abs(conditional_marginal(model, 1, [], ball) - 0.2) < 1e-12


def test_conditional_marginal_blocked_edge():
    g = path_graph(3)
    model = HardCoreModel(g, [1.0] * 3)
    # Freezing edge 0 saturates vertex 1, blocking the middle edge.
    assert conditional_marginal(model, 1, [0], range(g.n)) == 0.0


def test_conditional_marginal_requires_edge_in_ball():
    g = path_graph(5)
    model = HardCoreModel(g, [1.0] * 5)
    with pytest.raises(ValueError):
        conditional_marginal(model, 4, [], [0, 1, 2])


def test_conditional_marginal_on_restricted_region():
    # Conditioning a 5-path on its last edge leaves a 3-path for edges 0..2.
    g = path_graph(5)
    model = HardCoreModel(g, [1.0] * 5)
    got = conditional_marginal(model, 0, [4], range(g.n))
    sub = HardCoreModel(path_graph(3), [1.0] * 3)
    assert abs(got - exact_marginals(sub)[0]) < 1e-12


# ---------------------------------------------------------------------------
# Samplers


def test_default_steps_budget():
    assert default_steps(HardCoreModel(double_edge(), [2.0, 3.0])) == 50
    assert default_steps(HardCoreModel(cycle_graph(3), [1.0] * 3)) == 90


def test_chain_draws_are_matchings():
    g = cycle_graph(6)
    model = HardCoreModel(g, random_activities(g, 7))
    rng = stream(3, "chain-check")
    for _ in range(40):
        assert is_matching(g, sample_matching(model, ChainConfig(steps=60), rng=rng))


def test_chain_distribution_on_triangle():
    model = HardCoreModel(cycle_graph(3), [1.0] * 3)
    rng = stream(11, "chain-tv")
    counts: dict[frozenset, int] = {}
    for _ in range(8000):
        m = sample_matching(model, rng=rng)
        counts[m] = counts.get(m, 0) + 1
    assert tv_distance(counts, exact_distribution(model)) <= 0.03


def test_exact_sampler_distribution():
    model = HardCoreModel(path_graph(3), [1.0] * 3)
    rng = stream(12, "exact-tv")
    counts: dict[frozenset, int] = {}
    for _ in range(10000):
        m = sample_matching_exact(model, rng=rng)
        counts[m] = counts.get(m, 0) + 1
    assert tv_distance(counts, exact_distribution(model)) <= 0.025


def test_exact_sampler_cap():
    g = path_graph(21)
    with pytest.raises(CapacityError):
        sample_matching_exact(HardCoreModel(g, [1.0] * g.m), rng=stream(0, "x"))


def test_recursive_sampler_distribution():
    g = cycle_graph(6)
    acts = random_activities(g, 5, lo=0.5, hi=3.0)
    model = HardCoreModel(g, acts)
    rng = stream(13, "rec-tv")
    counts: dict[frozenset, int] = {}
    for _ in range(10000):
        m = sample_matching_recursive(model, rng)
        counts[m] = counts.get(m, 0) + 1
    assert tv_distance(counts, exact_distribution(model)) <= 0.03


def test_recursive_sampler_lifts_parallel_bundles():
    model = HardCoreModel(double_edge(), [2.0, 3.0])
    rng = stream(14, "rec-lift")
    counts = {frozenset(): 0, frozenset({0}): 0, frozenset({1}): 0}
    for _ in range(9000):
        counts[sample_matching_recursive(model, rng)] += 1
    assert abs(counts[frozenset()] / 9000 - 1 / 6) < 0.02
    assert abs(counts[frozenset({0})] / 9000 - 2 / 6) < 0.02
    assert abs(counts[frozenset({1})] / 9000 - 3 / 6) < 0.02


@pytest.mark.parametrize("graph", [double_edge(), path_graph(3)], ids=["double_edge", "path3"])
def test_recursive_sampler_after_reevaluation(graph):
    # Draw at other activities so the nodes' draw weights are cached, then
    # re-evaluate the same DAG at the model's own: draws must follow the
    # model's law, not the cached weights.
    acts = [2.0, 3.0, 0.5][: graph.m]
    model = HardCoreModel(graph, acts)
    collapse = model.collapse()
    dag = model.dag()
    dag.evaluate(collapse.bundle_sums([7.0] * graph.m))
    warm = stream(16, "rec-warm")
    for _ in range(50):
        dag.sample(dag.node(dag.full), warm)
    dag.evaluate(collapse.lam)
    rng = stream(16, "rec-reeval")
    counts: dict[frozenset, int] = {}
    for _ in range(10000):
        m = sample_matching_recursive(model, rng)
        counts[m] = counts.get(m, 0) + 1
    assert tv_distance(counts, exact_distribution(model)) <= 0.025


def test_recursive_sampler_on_multigraph():
    g = shannon(2)
    model = HardCoreModel(g, [1.0] * g.m)
    rng = stream(15, "rec-shannon")
    counts: dict[frozenset, int] = {}
    for _ in range(12000):
        m = sample_matching_recursive(model, rng)
        assert is_matching(g, m)
        counts[m] = counts.get(m, 0) + 1
    assert tv_distance(counts, exact_distribution(model)) <= 0.03


def test_samplers_deterministic_per_stream():
    g = cycle_graph(5)
    model = HardCoreModel(g, [1.0] * g.m)
    a = [sample_matching_recursive(model, stream(9, "det", i)) for i in range(10)]
    b = [sample_matching_recursive(model, stream(9, "det", i)) for i in range(10)]
    assert a == b


def test_estimate_marginals_close_to_exact():
    model = HardCoreModel(path_graph(3), [1.0] * 3)
    est = estimate_marginals(model, ChainConfig(steps=60), 800, rng=stream(21, "est"))
    exact = exact_marginals(model)
    assert max(abs(est[e] - exact[e]) for e in exact) < 0.06


# ---------------------------------------------------------------------------
# Calibration


def test_calibration_closed_form_triangle():
    r = calibrate_activities(cycle_graph(3), Fraction(1, 4), tol=1e-11)
    assert max(abs(v - 1.0) for v in r.activities.values()) < 1e-9
    assert abs(r.k_hat - 4.0) < 1e-6
    assert r.method == "exact"
    assert r.converged


def test_calibration_closed_form_single_edge():
    r = calibrate_activities(path_graph(1), Fraction(1, 2), tol=1e-11)
    assert abs(r.activities[0] - 1.0) < 1e-9
    assert r.k_hat == 2.0


def test_calibration_per_edge_targets():
    r = calibrate_activities(double_edge(), {0: Fraction(1, 3), 1: Fraction(1, 2)})
    assert abs(r.activities[0] - 2.0) < 1e-3
    assert abs(r.activities[1] - 3.0) < 1e-3
    assert r.max_error <= 1e-6


def test_calibration_achieves_uniform_targets_on_sweep():
    for i, g in enumerate(sweep_corpus(seed=43, count=8, m_max=10)):
        target = Fraction(1, 2 * g.max_degree())
        r = calibrate_activities(g, target)
        assert r.max_error <= 1e-6
        achieved = exact_marginals(HardCoreModel(g, [r.activities[e] for e in range(g.m)]))
        assert max(abs(achieved[e] - float(target)) for e in achieved) <= 2e-6


def test_calibration_warm_start_is_immediate():
    g = cycle_graph(3)
    cold = calibrate_activities(g, Fraction(1, 4))
    warm = calibrate_activities(g, Fraction(1, 4), initial=dict(cold.activities))
    assert warm.iterations <= 2


def test_calibration_rejects_bad_targets():
    g = path_graph(2)
    with pytest.raises(ValueError):
        calibrate_activities(g, {0: Fraction(1, 4)})  # missing edge 1
    with pytest.raises(ValueError):
        calibrate_activities(g, Fraction(3, 2))


def test_calibration_uniform_infeasible_target_detected_upfront():
    # Uniform marginals 1/c are achievable exactly when chi* < c, so 9/20 on
    # a triangle (chi* = 3) is rejected before any iteration.
    with pytest.raises(InfeasibleTargetError):
        calibrate_activities(cycle_graph(3), Fraction(45, 100), max_iters=80)


def test_calibration_saturated_vertex_stalls():
    # Edges 0 and 1 share a vertex, so targets of 1/2 each sit on the
    # boundary of the matching polytope; fitting cannot reach them.
    targets = {0: Fraction(1, 2), 1: Fraction(1, 2), 2: Fraction(1, 10)}
    with pytest.raises(CalibrationError):
        calibrate_activities(cycle_graph(3), targets, max_iters=60)


def test_calibration_chain_path():
    r = calibrate_activities(
        path_graph(1),
        Fraction(1, 2),
        exact_cap=-1,
        samples=400,
        chain=ChainConfig(steps=40),
        rng=stream(31, "mcmc-cal"),
        max_iters=60,
    )
    assert r.method == "mcmc"
    assert abs(r.activities[0] - 1.0) < 0.5


# ---------------------------------------------------------------------------
# Correlation decay


def test_decay_no_far_conditioning_is_zero():
    g = path_graph(4)
    model = HardCoreModel(g, [1.0] * g.m)
    assert measure_correlation_decay(model, 2, 10, 5, rng=stream(1, "d")) == 0.0


def test_decay_bounded_and_deterministic():
    g = path_graph(8)
    model = HardCoreModel(g, [1.0] * g.m)
    a = measure_correlation_decay(model, 4, 2, 30, rng=stream(2, "d"))
    b = measure_correlation_decay(model, 4, 2, 30, rng=stream(2, "d"))
    assert a == b
    assert 0.0 <= a <= 1.0


def test_decay_validates_arguments():
    model = HardCoreModel(path_graph(3), [1.0] * 3)
    with pytest.raises(ValueError):
        measure_correlation_decay(model, 0, 0, 5)
    with pytest.raises(ValueError):
        measure_correlation_decay(model, 0, 1, 0)
