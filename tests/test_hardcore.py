"""Hard-core matching distributions: exact computation, sampling, calibration."""

import hashlib
import math
import random
import sys
import time
import warnings
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from matchcolor import (
    InfeasibleTargetError,
    CalibrationError,
    ChainConfig,
    HardCoreModel,
    calibrate_activities,
    chi_star,
    exact_marginals,
    log_partition_function,
    measure_correlation_decay,
    sample_matching,
    sample_matching_recursive,
    stream,
)
from matchcolor import hardcore
from matchcolor.errors import CapacityError
from matchcolor.graphs import Multigraph, induced_subgraph, is_matching, restrict_edges
from matchcolor.hardcore import default_steps, draw_matching, estimate_marginals, sampler_marginals
from matchcolor.listcolor import build_color_subgraphs
from matchcolor.oracle import enumerate_matchings, exact_distribution, tv_distance
from support import (
    cubic_graph,
    cycle_graph,
    double_edge,
    gs_instance,
    list_instance,
    list_size_for,
    path_graph,
    petersen,
    reference_chain,
    reference_dag,
    shannon,
    staggered_lists,
    star_multigraph,
    sweep_corpus,
    sweep_multigraph,
)


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


def test_rejects_unknown_sampler():
    with pytest.raises(ValueError, match="unknown sampler"):
        HardCoreModel(path_graph(2), [1.0, 1.0], sampler="magic")


def test_rejects_negative_chain_steps():
    with pytest.raises(ValueError, match="chain_steps"):
        HardCoreModel(path_graph(2), [1.0, 1.0], chain_steps=-3)


def test_parallel_bundles_collapse():
    model = HardCoreModel(double_edge(), [2.0, 3.0])
    assert len(model.pairs) == 1
    # A bundle's activity is the sum of its members'.
    assert math.isclose(model.lam[0], 5.0)


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


def _no_chain(*args, **kwargs):
    raise AssertionError("the chain sampler ran")


def test_partition_function_cap(monkeypatch):
    # No edge cap: log Z of a 65-edge path, past the old 64-edge limit, is
    # exact, and a model under the default "exact" setting ignores the
    # "auto" node budget.
    monkeypatch.setattr(hardcore, "AUTO_NODE_BUDGET", 1)
    g = path_graph(65)  # 66 vertices: F(67) matchings
    a, b = 1, 1
    for _ in range(65):
        a, b = b, a + b
    assert math.isclose(
        log_partition_function(HardCoreModel(g, [1.0] * g.m)), math.log(b), rel_tol=1e-12
    )


def test_explicit_exact_calls_have_no_budget(monkeypatch):
    # Under sampler="exact" calibration, marginals and draws are exact at
    # any size and never fall back: not even with both "auto" budgets at
    # one node.
    monkeypatch.setattr(hardcore, "AUTO_NODE_BUDGET", 1)
    monkeypatch.setattr(hardcore, "AUTO_SWEEP_BUDGET", 1)
    monkeypatch.setattr(hardcore, "sample_matching", _no_chain)
    monkeypatch.setattr(hardcore, "estimate_marginals", _no_chain)
    g = path_graph(70)
    model = HardCoreModel(g, [1.0] * g.m, sampler="exact")
    assert calibrate_activities(g, Fraction(1, 4), sampler="exact").method == "exact"
    margs, estimated = sampler_marginals(model, 10, stream(0, "m"))
    assert not estimated
    assert margs == exact_marginals(model)
    region = frozenset(range(20, 40))
    for i in range(3):
        assert is_matching(g, draw_matching(model, stream(0, "d", i)))
        part = draw_matching(model, stream(0, "r", i), region)
        assert all(set(g.endpoints[e]) <= region for e in part)


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
    dag = HardCoreModel(g, first).dag()
    root = dag.node(dag.full)
    for acts in (first, second, first):
        view = HardCoreModel(g, acts)
        dag.evaluate(view.lam)
        log_z, margs = _enumerated(g, acts)
        assert math.isclose(dag.val[root], log_z, rel_tol=1e-10)
        got = view.edge_marginals(dag.bundle_marginals(root))
        for e in range(g.m):
            assert math.isclose(got[e], margs[e], rel_tol=1e-10)


def _assert_same_dag(dag, ref):
    assert dag.split == ref.split
    assert dag.kids == ref.kids
    assert dag.slots == ref.slots
    assert dag.index == ref.index
    assert [x.hex() for x in dag.val] == [x.hex() for x in ref.val]


@st.composite
def dag_cases(draw):
    """A sweep multigraph or a random cubic graph on up to 26 vertices,
    activities, and vertex masks to compile before and after the whole graph."""
    if draw(st.booleans()):
        g = sweep_multigraph(random.Random(draw(st.integers(0, 2**32))), n_max=12, m_max=24)
    else:
        g = cubic_graph(draw(st.integers(1, 10**6)), draw(st.sampled_from(range(4, 28, 2))))
    acts = random_activities(g, draw(st.integers(0, 2**32)))
    masks = draw(st.lists(st.integers(0, (1 << g.n) - 1), max_size=4))
    cut = draw(st.integers(0, len(masks)))
    return g, acts, masks[:cut], masks[cut:]


@settings(max_examples=60, deadline=None)
@given(dag_cases())
# Each branch of the child compile (``_ZDag._child``): a touched vertex left
# isolated (the star's leaves once its centre is matched) ...
@example((Multigraph(4, [(0, 2), (1, 2), (2, 3)]), [1.0, 2.0, 3.0], [], []))
# ... a child in three or more pieces ...
@example((Multigraph(8, [(0, 5), (1, 5), (1, 7), (2, 6), (3, 4), (3, 5), (5, 6)]),
          [0.5, 2.0, 1.0, 3.0, 0.2, 7.0, 1.5], [], []))
# ... pieces whose lowest vertex is not the first touched vertex's ...
@example((Multigraph(6, [(0, 4), (1, 3), (2, 4), (2, 5), (3, 4)]), [1.0, 0.5, 2.0, 4.0, 0.25], [], []))
# ... and a connected child with three touched vertices (K4 less a vertex).
@example((Multigraph(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]),
          [1.0, 2.0, 3.0, 4.0, 5.0, 6.0], [], []))
def test_dag_matches_reference_compile(case):
    # The compile builds the reference recursion's DAG node for node, with
    # bit-identical values, whether region masks come before or after the
    # root.
    g, acts, before, after = case
    model = HardCoreModel(g, acts)
    dag = model.dag()
    ref = reference_dag(g.n, model.pairs, model.lam, sys.maxsize)
    for mask in [*before, dag.full, *after]:
        assert dag.node(mask) == ref.node(mask)
    _assert_same_dag(dag, ref)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_dag_matches_reference_compile_on_34_vertices(seed):
    # Past the sizes the Hypothesis cases reach: DAGs of 7,000-10,000 nodes.
    g = cubic_graph(seed, 34)
    model = HardCoreModel(g, random_activities(g, seed))
    dag = model.dag()
    ref = reference_dag(g.n, model.pairs, model.lam, sys.maxsize)
    assert dag.node(dag.full) == ref.node(dag.full)
    _assert_same_dag(dag, ref)


def test_child_masks_skip_the_full_component_search(monkeypatch):
    # Only a mask entering through ``node`` (here the root) recounts all its
    # vertices; every child mask is compiled from its parent's degree
    # classes, recounting only the few vertices next to those removed.
    touched_sets = []
    compile_ = hardcore._ZDag._compile

    def counting_compile(self, child, ones, twos, touched):
        touched_sets.append(touched)
        return compile_(self, child, ones, twos, touched)

    monkeypatch.setattr(hardcore._ZDag, "_compile", counting_compile)
    g = cubic_graph(1, 34)
    dag = HardCoreModel(g, [1.0] * g.m).dag()
    dag.node(dag.full)
    assert len(dag.val) == 10_272
    assert touched_sets[0] == dag.full
    assert len(touched_sets) > 1
    assert max(t.bit_count() for t in touched_sets[1:]) <= 4


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 10**6), st.sampled_from([12, 16, 20]), st.floats(0.0, 1.0), st.booleans())
@example(1, 12, 1.0, False)
def test_budget_stopped_compile_matches_reference(seed, n, share, region_first):
    # A compile stopped by its node budget stops where the reference does,
    # with the same partial DAG, and fails again at its first new node.
    g = cubic_graph(seed, n)
    model = HardCoreModel(g, random_activities(g, seed))
    full = model.dag()
    full.node(full.full)
    # From node 0 alone up to one node short of the whole DAG.
    budget = 1 + int(share * (len(full.val) - 2))
    dag = hardcore._ZDag(g.n, model.pairs, model.lam, budget)
    ref = reference_dag(g.n, model.pairs, model.lam, budget)
    # With ``region_first``, the region of all vertices but the last two
    # compiles first.
    masks = [dag.full >> 2, dag.full] if region_first else [dag.full]
    for mask in masks:
        try:
            got = dag.node(mask)
        except CapacityError:
            got = None
        try:
            want = ref.node(mask)
        except CapacityError:
            want = None
        assert got == want
    assert len(dag.val) == budget
    _assert_same_dag(dag, ref)
    with pytest.raises(CapacityError):
        dag.node(dag.full)
    assert len(dag.val) == budget


@pytest.mark.parametrize(
    "graphs, nodes",
    [
        ([cubic_graph(1, 34)], 10_272),
        ([cubic_graph(2, 34)], 8_207),
        ([cubic_graph(3, 34)], 7_400),
        ([gs_instance(i) for i in range(12)], 1_010),
        ([list_instance(i) for i in range(12)], 715),
    ],
    ids=["cubic34-1", "cubic34-2", "cubic34-3", "gs0-11", "list0-11"],
)
def test_dag_node_counts(graphs, nodes):
    # The pivot rule fixes the DAG's size; a new rule moves these on purpose.
    total = 0
    for g in graphs:
        dag = HardCoreModel(g, [1.0] * g.m).dag()
        dag.node(dag.full)
        total += len(dag.val)
    assert total == nodes


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


def _enumerated_covariance(model, region=None):
    """Bundle-occupancy covariance by brute force over the matchings that lie
    inside ``region`` (all of them when it is None)."""
    g = model.graph
    slot_of = {e: s for s, mem in enumerate(model.members) for e in mem}
    inside = [
        m for m in enumerate_matchings(g)
        if region is None or all(set(g.endpoints[e]) <= region for e in m)
    ]
    weights = [math.prod(model.activities[e] for e in m) for m in inside]
    z = sum(weights)
    occupied = [{slot_of[e] for e in m} for m in inside]
    width = len(model.pairs)
    p = [sum(w for w, occ in zip(weights, occupied) if s in occ) / z for s in range(width)]
    return [
        [
            sum(w for w, occ in zip(weights, occupied) if s in occ and t in occ) / z - p[s] * p[t]
            for t in range(width)
        ]
        for s in range(width)
    ]


@pytest.mark.parametrize(
    "graph, region",
    [
        (Multigraph(6, [(0, 1)] * 3 + [(1, 2)] * 2 + [(2, 3), (3, 4), (4, 0), (4, 5)]), None),
        (Multigraph(8, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 6), (5, 6)]), None),
        (star_multigraph(6), None),
        (Multigraph(7, [(0, 1), (0, 1), (1, 2), (2, 3), (3, 0), (4, 5), (5, 6), (4, 6), (2, 4)]),
         frozenset({0, 1, 3, 4, 5, 6})),
    ],
    ids=["bundles", "disconnected", "star", "region"],
)
def test_bundle_covariance_matches_enumeration(graph, region):
    # Activities straddle 1, so terms of both signs of log lambda occur.
    model = HardCoreModel(graph, random_activities(graph, graph.m, lo=0.05, hi=20.0))
    dag = model.dag()
    root = dag.node(dag.full if region is None else dag.mask_of(region))
    nodes = len(dag.val)
    got = dag.bundle_covariance(root)
    assert len(dag.val) == nodes
    want = _enumerated_covariance(model, region)
    # The lower triangle, row s holding columns 0..s.
    assert [len(row) for row in got] == list(range(1, len(want) + 1))
    assert max(abs(a - b) for ra, rb in zip(got, want) for a, b in zip(ra, rb)) <= 1e-12


def test_auto_falls_back_to_the_chain_past_its_node_budget(monkeypatch):
    # With the "auto" budget below the DAG's size, calibration takes the
    # chain path, and full draws, region draws and marginals run the chain.
    # A failed compile keeps the nodes it made and never adds more, so the
    # DAG does not grow over repeated draws.
    chain_models = []
    chain = hardcore.sample_matching

    def counting_chain(model, *args, **kwargs):
        chain_models.append(model.graph.m)
        return chain(model, *args, **kwargs)

    monkeypatch.setattr(hardcore, "AUTO_NODE_BUDGET", 3)
    monkeypatch.setattr(hardcore, "sample_matching", counting_chain)
    g = cycle_graph(8)
    calib = calibrate_activities(
        g, Fraction(1, 4), samples=200, chain=ChainConfig(steps=60), rng=stream(1, "fit")
    )
    assert calib.method == "mcmc"
    model = calib.model
    dag = model.dag()
    region = frozenset(range(5))
    sizes = []
    for i in range(4):
        chain_models.clear()
        full = draw_matching(model, stream(2, "full", i))
        part = draw_matching(model, stream(2, "region", i), region)
        assert chain_models == [g.m, 4]  # the region's submodel is a 4-edge path
        assert is_matching(g, full) and is_matching(g, part)
        assert all(set(g.endpoints[e]) <= region for e in part)
        sizes.append(len(dag.val))
    assert sizes == [3] * 4
    margs, estimated = sampler_marginals(model, 20, stream(3, "m"))
    assert estimated
    assert set(margs) == set(range(g.m))
    assert len(dag.val) == 3


def test_calibration_budget_counts_nodes_times_slots(monkeypatch):
    # Calibration's tangent sweep keeps a slot-wide vector per node, so
    # "auto" calibrates exactly only while nodes x slots fits its sweep
    # budget; draws keep the node budget and stay exact.
    g = cycle_graph(8)
    dag = HardCoreModel(g, [1.0] * g.m).dag()
    dag.node(dag.full)
    cells = len(dag.val) * g.m
    monkeypatch.setattr(hardcore, "AUTO_SWEEP_BUDGET", cells)
    assert calibrate_activities(g, Fraction(1, 4)).method == "exact"
    monkeypatch.setattr(hardcore, "AUTO_SWEEP_BUDGET", cells - 1)
    calib = calibrate_activities(
        g, Fraction(1, 4), samples=200, chain=ChainConfig(steps=60), rng=stream(1, "fit")
    )
    assert calib.method == "mcmc"
    monkeypatch.setattr(hardcore, "sample_matching", _no_chain)
    assert is_matching(g, draw_matching(calib.model, stream(2, "d")))


def test_the_node_budget_is_the_models_on_every_call(monkeypatch):
    # An "auto" model's DAG never holds more nodes than its budget: direct
    # exact calls raise past it, draws and marginals run the chain, and
    # repeated full and region draws add no node.  A "chain" model compiles
    # no DAG at all.
    chain_models = []
    chain = hardcore.sample_matching

    def counting_chain(model, *args, **kwargs):
        chain_models.append(model.graph.m)
        return chain(model, *args, **kwargs)

    monkeypatch.setattr(hardcore, "AUTO_NODE_BUDGET", 3)
    monkeypatch.setattr(hardcore, "sample_matching", counting_chain)
    g = cycle_graph(8)
    model = HardCoreModel(g, [1.0] * g.m, sampler="auto", chain_steps=60)
    with pytest.raises(CapacityError):
        exact_marginals(model)
    with pytest.raises(CapacityError):
        sample_matching_recursive(model, stream(0, "x"))
    dag = model.dag()
    region = frozenset(range(5))
    for i in range(4):
        chain_models.clear()
        full = draw_matching(model, stream(1, "full", i))
        part = draw_matching(model, stream(1, "region", i), region)
        assert chain_models == [g.m, 4]
        assert is_matching(g, full) and is_matching(g, part)
        assert all(set(g.endpoints[e]) <= region for e in part)
        assert len(dag.val) <= 3
    margs, estimated = sampler_marginals(model, 5, stream(2, "m"))
    assert estimated and set(margs) == set(range(g.m))
    assert len(dag.val) <= 3

    chain_model = HardCoreModel(g, [1.0] * g.m, sampler="chain", chain_steps=60)
    chain_models.clear()
    draw_matching(chain_model, stream(3, "full"))
    draw_matching(chain_model, stream(3, "region"), region)
    _, estimated = sampler_marginals(chain_model, 5, stream(3, "m"))
    assert estimated
    assert chain_models == [g.m, 4] + [g.m] * 5
    with pytest.raises(CapacityError):
        chain_model.dag()


@pytest.mark.parametrize("region, bad", [({0, 99}, 99), ({-1, 0, 1}, -1)])
@pytest.mark.parametrize(
    "sampler, draw",
    [
        ("exact", lambda model, rng, region: sample_matching_recursive(model, rng, region)),
        ("exact", draw_matching),
        ("chain", draw_matching),
    ],
    ids=["exact-walk", "exact-draw", "chain-draw"],
)
def test_region_outside_the_graph_fails_typed(sampler, draw, region, bad):
    # A region vertex outside the graph raises ValueError naming it, on the
    # exact path and on the chain's, before any random number is taken.
    g = cycle_graph(3)
    model = HardCoreModel(g, [1.0] * g.m, sampler=sampler, chain_steps=60)
    rng = stream(0, "bad region")
    state = rng.bit_generator.state
    with pytest.raises(ValueError, match=f"vertex {bad} out of range"):
        draw(model, rng, region)
    assert rng.bit_generator.state == state


def test_chain_region_submodels_are_built_once(monkeypatch):
    # The chain fallback builds a region's induced submodel on its first
    # draw only, and its draws equal those of a submodel built per call.
    built = []
    induce = hardcore.induced_subgraph

    def counting_induce(graph, vertices):
        built.append(frozenset(vertices))
        return induce(graph, vertices)

    monkeypatch.setattr(hardcore, "induced_subgraph", counting_induce)
    g = cycle_graph(8)
    acts = random_activities(g, 8)
    model = HardCoreModel(g, acts, sampler="chain", chain_steps=60)
    region = frozenset(range(5))
    got_rng, want_rng = stream(4, "region"), stream(4, "region")
    sub = induce(g, region)
    for _ in range(6):
        want = sample_matching(
            HardCoreModel(sub.graph, [acts[h] for h in sub.edge_ids]), ChainConfig(steps=60), rng=want_rng
        )
        got = draw_matching(model, got_rng, region)
        assert got == frozenset(sub.edge_ids[j] for j in want)
    assert got_rng.random() == want_rng.random()
    assert built == [region]
    draw_matching(model, got_rng, frozenset(range(1, 6)))
    assert built == [region, frozenset(range(1, 6))]


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


# ---------------------------------------------------------------------------
# Samplers


def test_default_steps_budget():
    assert default_steps(HardCoreModel(double_edge(), [2.0, 3.0])) == 50
    assert default_steps(HardCoreModel(cycle_graph(3), [1.0] * 3)) == 90


def test_chain_samplers_require_a_generator():
    # A default stream would replay one draw on every call, so a loop of
    # calls without a generator would return one matching, not a sample.
    model = HardCoreModel(cycle_graph(4), [1.0] * 4)
    with pytest.raises(TypeError):
        sample_matching(model)
    with pytest.raises(TypeError):
        estimate_marginals(model, ChainConfig(), 10)


def test_chain_draws_are_matchings():
    g = cycle_graph(6)
    model = HardCoreModel(g, random_activities(g, 7))
    rng = stream(3, "chain-check")
    for _ in range(40):
        assert is_matching(g, sample_matching(model, ChainConfig(steps=60), rng=rng))


# Step counts on both sides of the chain's 8192-step batch boundaries.
KERNEL_STEPS = (0, 1, 8191, 8192, 8193, 3 * 8192 + 5)
KERNEL_CASES = {
    # Unequal bundles (the lift draws) with bundle activities on both sides
    # of 1, so every acceptance test and both slide ratios (< 1 and >= 1) run.
    "bundles": (
        Multigraph(
            6,
            [(0, 1)] * 3 + [(1, 2)] + [(2, 3)] * 2 + [(3, 4), (4, 0), (4, 5), (1, 4)],
        ),
        [0.2, 1.0, 2.5, 0.3, 0.05, 0.6, 3.0, 0.8, 1.7, 0.4],
    ),
    # Three components and an isolated vertex.
    "disconnected": (
        Multigraph(9, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (4, 5), (6, 7)]),
        [0.5, 2.0, 1.0, 0.1, 4.0, 0.25, 1.3],
    ),
    # No edges at all: the chain must consume no randomness.
    "empty": (Multigraph(3, []), []),
}


@pytest.mark.parametrize("case", sorted(KERNEL_CASES))
def test_chain_kernel_matches_reference_loop(case):
    """The chain's draws and its generator's state after every draw equal
    those of the reference per-step loop: the kernel's stream is pinned."""
    graph, acts = KERNEL_CASES[case]
    model = HardCoreModel(graph, acts)
    # Two chains fed the same numbers coalesce within tens of steps, so a
    # long run's draw shows only its last moves; many short runs show the rest.
    for steps, draws in [(steps, 3) for steps in KERNEL_STEPS] + [(20, 300)]:
        ours = stream(41, "kernel", case, steps)
        ref = stream(41, "kernel", case, steps)
        before = ref.bit_generator.state
        for _ in range(draws):
            draw = sample_matching(model, ChainConfig(steps=steps), rng=ours)
            assert draw == reference_chain(model, steps, ref)
            assert is_matching(graph, draw)
            assert ours.bit_generator.state == ref.bit_generator.state
        if case == "empty":
            assert ours.bit_generator.state == before


def test_chain_distribution_on_triangle():
    model = HardCoreModel(cycle_graph(3), [1.0] * 3)
    rng = stream(11, "chain-tv")
    counts: dict[frozenset, int] = {}
    for _ in range(8000):
        m = sample_matching(model, rng=rng)
        counts[m] = counts.get(m, 0) + 1
    assert tv_distance(counts, exact_distribution(model)) <= 0.03


def test_chain_distribution_lifts_parallel_bundles():
    # A bundle of three unequal parallel edges next to a single edge: the
    # chain's draws, thinned to host edges, follow the multigraph's law.
    model = HardCoreModel(Multigraph(3, [(0, 1)] * 3 + [(1, 2)]), [0.2, 1.0, 2.5, 0.7])
    rng = stream(12, "chain-lift")
    counts: dict[frozenset, int] = {}
    for _ in range(4000):
        m = sample_matching(model, rng=rng)
        counts[m] = counts.get(m, 0) + 1
    assert tv_distance(counts, exact_distribution(model)) <= 0.03


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
    dag = model.dag()
    dag.evaluate(HardCoreModel(graph, [7.0] * graph.m).lam)
    warm = stream(16, "rec-warm")
    for _ in range(50):
        dag.sample(dag.node(dag.full), warm)
    dag.evaluate(model.lam)
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


@st.composite
def calibration_cases(draw):
    """A small multigraph (see ``_small_multigraph``) with strictly feasible
    per-edge targets: 1/(2 * max endpoint degree), scaled per edge by one of
    a few factors, so a bundle's members can differ in target and form
    several activity classes."""
    g = _small_multigraph(draw)
    factors = st.sampled_from([1, Fraction(1, 2), Fraction(2, 3)])
    scales = draw(st.lists(factors, min_size=g.m, max_size=g.m))
    targets = {
        e: scales[e] / (2 * max(g.degree(u), g.degree(v))) for e, (u, v) in enumerate(g.endpoints)
    }
    return g, targets


@settings(max_examples=60, deadline=None)
@given(calibration_cases())
@example((Multigraph(5, [(0, 1)] * 3 + [(1, 2)] * 2 + [(2, 3), (3, 4), (4, 0)]),
          {0: Fraction(1, 10), 1: Fraction(1, 20), 2: Fraction(1, 10), 3: Fraction(1, 15),
           4: Fraction(1, 10), 5: Fraction(1, 6), 6: Fraction(1, 4), 7: Fraction(1, 8)}))
def test_calibration_classes_converge_exactly(case):
    # Members of a bundle with one target form a class and must end
    # bit-equal; the reported marginals are the model's own.
    g, targets = case
    r = calibrate_activities(g, targets)
    assert r.converged and r.max_error <= 1e-6
    classes: dict[tuple, float] = {}
    for e, (u, v) in enumerate(g.endpoints):
        key = (min(u, v), max(u, v), targets[e])
        assert classes.setdefault(key, r.activities[e]) == r.activities[e]
    if g.m:
        exact = exact_marginals(HardCoreModel(g, r.activities))
        assert all(abs(r.achieved[e] - exact[e]) <= 1e-12 for e in range(g.m))
        assert all(abs(r.achieved[e] - float(targets[e])) <= 1e-6 for e in range(g.m))


@pytest.mark.parametrize(
    "graph",
    [shannon(2), star_multigraph(5, 2), cycle_graph(7), path_graph(6)],
    ids=["shannon2", "star5x2", "cycle7", "path6"],
)
def test_calibrated_model_holds_a_fresh_compile(graph):
    # Draws read the DAG's node values, so the fit's re-evaluated DAG must
    # hold exactly what a fresh compile at the fitted activities computes.
    r = calibrate_activities(graph, Fraction(39, 40) / chi_star(graph).value)
    assert r.model.activities == tuple(r.activities[e] for e in range(graph.m))
    fresh = HardCoreModel(graph, r.activities).dag()
    fresh.node(fresh.full)
    dag = r.model.dag()
    assert (dag.kids, dag.slots, dag.val, dag.weight) == (
        fresh.kids, fresh.slots, fresh.val, fresh.weight
    )


@pytest.mark.parametrize(
    "graph", [cycle_graph(9), cycle_graph(12), petersen()], ids=["cycle9", "cycle12", "petersen"]
)
def test_calibration_keeps_edge_transitive_graphs_uniform(graph):
    # Every edge of these graphs has the same fitted activity, so a spread
    # measures how far the fit let non-uniform error modes grow.
    r = calibrate_activities(graph, Fraction(39, 40) / chi_star(graph).value, max_iters=4000)
    acts = list(r.activities.values())
    assert r.iterations <= 12
    assert max(acts) - min(acts) <= 1e-9


@pytest.mark.parametrize("seed", range(4))
def test_calibration_near_critical_cubic_takes_few_iterations(seed):
    g = cubic_graph(seed, 12)
    r = calibrate_activities(g, Fraction(39, 40) / chi_star(g).value, max_iters=4000)
    assert r.max_error <= 1e-6
    assert r.iterations <= 15


@st.composite
def saturating_targets(draw):
    """A small multigraph with non-uniform per-edge targets, those of one
    vertex's edges summing to at least one."""
    g = _small_multigraph(draw)
    hubs = [v for v in range(g.n) if g.degree(v) >= 2]
    assume(hubs)
    hub = draw(st.sampled_from(hubs))
    targets = {e: Fraction(draw(st.integers(1, 99)), 100) for e in range(g.m)}
    q = draw(st.integers(2, 60))
    for e in g.incidence[hub]:
        targets[e] = Fraction(draw(st.integers(1, q - 1)), q)
    assume(sum(targets[e] for e in g.incidence[hub]) >= 1)
    assume(len(set(targets.values())) > 1)
    return g, targets, hub


@settings(max_examples=60, deadline=None)
@given(saturating_targets())
@example((Multigraph(3, [(0, 1), (1, 2), (0, 2)]),
          {0: Fraction(1, 2), 1: Fraction(1, 2), 2: Fraction(1, 10)}, 1))
@example((Multigraph(4, [(0, 1), (0, 1), (0, 2), (2, 3)]),
          {0: Fraction(59, 60), 1: Fraction(59, 60), 2: Fraction(59, 60), 3: Fraction(1, 100)}, 0))
def test_calibration_outside_the_polytope_fails_typed(case):
    # Vertex sums of at least one leave no interior optimum: the dual runs
    # off to infinity and its Hessian degenerates.  Nothing untyped may
    # escape, not even a warning; a sum above one ends in CalibrationError
    # with a finite best point, and a sum of exactly one may converge only
    # where the boundary lies within tol.
    g, targets, hub = case
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            r = calibrate_activities(g, targets, max_iters=60)
        except CalibrationError as err:
            r = err.best
            assert not r.converged and r.max_error > 1e-6
        else:
            assert sum(targets[e] for e in g.incidence[hub]) == 1
            assert r.max_error <= 1e-6
    assert r.method == "exact"
    assert all(math.isfinite(x) and x > 0 for x in r.activities.values())
    assert all(math.isfinite(x) for x in r.achieved.values())


def test_calibration_without_iterations_reports_its_start():
    # Allowed no iteration, a fit stops at its start and reports the error
    # measured there, not an infinite one.
    g = cycle_graph(3)
    with pytest.raises(CalibrationError) as err:
        calibrate_activities(g, Fraction(1, 4), max_iters=0)
    best = err.value.best
    assert best.iterations == 0 and not best.converged
    start = exact_marginals(HardCoreModel(g, best.activities))
    assert math.isfinite(best.max_error)
    assert best.max_error == max(abs(start[e] - 0.25) for e in range(g.m))
    assert "inf" not in str(err.value)
    with pytest.raises(ValueError, match="max_iters"):
        calibrate_activities(g, Fraction(1, 4), max_iters=-1)


@pytest.mark.parametrize(
    "graph, target",
    [
        (star_multigraph(6), Fraction(1, 8)),
        (path_graph(5), Fraction(1, 3)),
        # A tree of bundles of 3, 1, 2, 4 and 1 edges, with targets that
        # differ within a bundle.
        (Multigraph(6, [(0, 1)] * 3 + [(1, 2)] + [(3, 1)] * 2 + [(3, 4)] * 4 + [(5, 3)]),
         {0: Fraction(1, 10), 1: Fraction(1, 20), 2: Fraction(1, 10), 3: Fraction(1, 5),
          4: Fraction(1, 12), 5: Fraction(1, 6), 6: Fraction(1, 16), 7: Fraction(1, 8),
          8: Fraction(1, 16), 9: Fraction(1, 10), 10: Fraction(1, 4)}),
    ],
    ids=["star", "path5", "bundled-tree"],
)
def test_forest_fits_converge_at_their_start(graph, target):
    # On a forest the tree-exact (Bethe) start t_e (1 - t_s) / ((1 - T_u)(1 - T_v))
    # has exactly the target marginals, so the fit ends at its first point.
    r = calibrate_activities(graph, target)
    assert r.iterations == 1
    assert r.max_error <= 1e-12


def test_calibration_rejects_a_zero_denominator():
    with pytest.raises(ValueError, match="zero denominator"):
        calibrate_activities(path_graph(2), "1/0")
    with pytest.raises(ValueError, match="zero denominator"):
        calibrate_activities(path_graph(2), {0: "1/4", 1: "1/0"})


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
        sampler="chain",
        samples=400,
        chain=ChainConfig(steps=40),
        rng=stream(31, "mcmc-cal"),
        max_iters=60,
    )
    assert r.method == "mcmc"
    assert abs(r.activities[0] - 1.0) < 0.5


def test_chain_calibration_ends_within_its_noise():
    # A 6-cycle with every edge tripled, plus a chord, at target 1/8: 400
    # samples carry a standard error of about 0.017 per edge, so a fixed tol
    # of 1e-2 was never met and the fit ran toward its iteration cap.  The
    # default tol now sits at three standard errors, and the fit ends.
    g = Multigraph(6, [(i, (i + 1) % 6) for i in range(6) for _ in range(3)] + [(0, 3)])
    start = time.process_time()
    try:
        r = calibrate_activities(
            g, Fraction(1, 8), max_iters=4000, chain=ChainConfig(steps=400), samples=400,
            sampler="chain",
        )
    except CalibrationError as err:
        r = err.best
    else:
        assert r.max_error <= 3.0 * math.sqrt(1 / 8 * 7 / 8 / 400)
    assert time.process_time() - start < 10.0
    assert r.method == "mcmc"


def tripled_hexagon() -> Multigraph:
    """A 6-cycle with every edge tripled, plus a chord."""
    return Multigraph(6, [(i, (i + 1) % 6) for i in range(6) for _ in range(3)] + [(0, 3)])


def test_chain_calibration_converges_on_tripled_bundles():
    # Pooling a bundle's three members into one class cuts the noise of
    # its marginal by sqrt(3), so the fit converges within the tol that
    # one edge's noise sets.  Per-edge proportional fitting took 10 passes
    # on this stream (4-11 over ten streams); Newton takes 2-4.
    g = tripled_hexagon()
    r = calibrate_activities(
        g, Fraction(1, 8), max_iters=4000, chain=ChainConfig(steps=400), samples=400,
        sampler="chain",
    )
    assert r.method == "mcmc" and r.converged
    assert r.max_error <= 3.0 * math.sqrt(1 / 8 * 7 / 8 / 400)
    assert r.iterations <= 5


def test_chain_calibration_reports_class_means():
    # Members of a bundle with one target and one start share a class: one
    # activity and one achieved marginal, the class's mean count per member.
    # The first pass draws what a chain estimate at the start draws.
    g = tripled_hexagon()
    chain = ChainConfig(steps=400)
    with pytest.raises(CalibrationError) as err:
        calibrate_activities(
            g, Fraction(1, 8), tol=1e-9, max_iters=1, chain=chain, samples=200,
            sampler="chain", rng=stream(5, "classes"),
        )
    r = err.value.best
    # At max_iters=1 the fit's best point is its start.
    est = estimate_marginals(HardCoreModel(g, r.activities), chain, 200, rng=stream(5, "classes"))
    model = HardCoreModel(g, r.activities)
    for mem in model.members:
        assert len({r.activities[e] for e in mem}) == 1
        assert len({r.achieved[e] for e in mem}) == 1
        assert math.isclose(r.achieved[mem[0]], sum(est[e] for e in mem) / len(mem), abs_tol=1e-12)


def test_chain_calibration_of_a_multigraph_takes_few_passes():
    # At 1/(1.25 chi*) with 4000-step draws, per-edge proportional fitting
    # took 13 passes on this stream (4-20 over five streams); Newton on
    # pooled classes takes 1 (1-4).
    g = list_instance(1)
    r = calibrate_activities(
        g, 1 / (Fraction(5, 4) * chi_star(g).value), chain=ChainConfig(steps=4000),
        samples=400, sampler="chain",
    )
    assert r.method == "mcmc" and r.converged
    assert r.iterations <= 3


def _list_color_fit():
    """Color 0's first-iteration subgraph of ``list_instance(0)`` under
    staggered lists, and its 1/|L_e| targets."""
    g = list_instance(0)
    lists = staggered_lists(g, list_size_for(g))
    sub, kept = restrict_edges(g, build_color_subgraphs(g, lists)[0])
    return sub, {j: Fraction(1, len(set(lists[h]))) for j, h in enumerate(kept)}


@pytest.mark.parametrize(
    "case, digest",
    [
        (lambda: (star_multigraph(6), Fraction(1, 8)),
         "a54bedf24ae71118e496a17e30f13488a4b107a3b1fddb0913455cc11aeb301b"),
        (lambda: (gs_instance(1), Fraction(7, 8) / chi_star(gs_instance(1)).value),
         "078748022d3f53d3c23d018c5a19d2bedb31a5c0084c2533e8e69797c92cc9d3"),
        (lambda: (cubic_graph(1, 12), Fraction(39, 40) / chi_star(cubic_graph(1, 12)).value),
         "6d513f87444c28a015f85726583bb8f85649ca5e20fadef3d052894768c08fc1"),
        (_list_color_fit, "e2226e6b5465c6febadaa964bdf2332efb00f3a45eddb38659c82fcd31266e76"),
    ],
    ids=["star", "gs1", "cubic12", "list0-color0"],
)
def test_exact_fits_are_pinned(case, digest):
    # The exact fit's activities, marginals and iteration count, bit for
    # bit: a change to the fitting loop must not move them by one ulp.
    graph, target = case()
    r = calibrate_activities(graph, target)
    text = repr((r.activities, r.achieved, r.iterations))
    assert hashlib.sha256(text.encode()).hexdigest() == digest


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


def test_decay_is_exact_up_to_the_exact_cap(monkeypatch):
    """Conditionings come from exact DAG walks at every size (here 30
    edges), never from the chain."""
    def no_chain(*args, **kwargs):
        raise AssertionError("correlation decay ran the chain sampler")

    monkeypatch.setattr(hardcore, "sample_matching", no_chain)
    model = HardCoreModel(path_graph(30), [1.0] * 30)
    a = measure_correlation_decay(model, 15, 3, 40, rng=stream(3, "d"))
    b = measure_correlation_decay(model, 15, 3, 40, rng=stream(3, "d"))
    assert a == b
    assert 0.0 < a <= 1.0


def test_decay_validates_arguments():
    model = HardCoreModel(path_graph(3), [1.0] * 3)
    with pytest.raises(ValueError):
        measure_correlation_decay(model, 0, 0, 5)
    with pytest.raises(ValueError):
        measure_correlation_decay(model, 0, 1, 0)
