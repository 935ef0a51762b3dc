"""Fractional chromatic index: exact values, certificates, dual checks."""

import math
import sys
from fractions import Fraction
from itertools import combinations

import networkx as nx
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from matchcolor import Multigraph, chi_star, find_violated_matching_constraint
from matchcolor import fractional
from matchcolor.fractional import (
    OddSetCertificate,
    connected_odd_sets,
    min_odd_cut,
    separate_odd_set,
)
from matchcolor.oracle import brute_force_chromatic_index, brute_force_gamma
from support import (
    cubic_graph,
    cycle_graph,
    double_edge,
    path_graph,
    petersen,
    reference_chi_star,
    shannon,
    star_multigraph,
    sweep_corpus,
)


# ---------------------------------------------------------------------------
# Known values


@pytest.mark.parametrize(
    "graph,value",
    [
        (cycle_graph(3), Fraction(3)),
        (cycle_graph(4), Fraction(2)),
        (cycle_graph(5), Fraction(5, 2)),
        (cycle_graph(7), Fraction(7, 3)),
        (double_edge(), Fraction(2)),
        (path_graph(6), Fraction(2)),
        (petersen(), Fraction(3)),
        (shannon(3), Fraction(9)),
        (star_multigraph(16), Fraction(16)),
    ],
)
def test_chi_star_known_values(graph, value):
    index = chi_star(graph)
    assert isinstance(index.value, Fraction)
    assert index.value == value
    assert index.exhaustive


def test_witness_kinds():
    assert chi_star(star_multigraph(4)).witness == "degree"
    cert = chi_star(cycle_graph(5)).witness
    assert isinstance(cert, OddSetCertificate)
    assert cert.vertices == (0, 1, 2, 3, 4)
    assert cert.ratio == Fraction(5, 2)


def test_certificate_validation():
    with pytest.raises(ValueError):
        OddSetCertificate((0, 1), 1, Fraction(1))
    with pytest.raises(ValueError):
        OddSetCertificate((0, 1, 2), 3, Fraction(2))
    ok = OddSetCertificate((0, 1, 2), 3, Fraction(3))
    assert ok.edge_count == 3


def test_edgeless_graph_rejected():
    with pytest.raises(ValueError):
        chi_star(Multigraph(3, []))


def bridged_cubic() -> Multigraph:
    """Two K4s, each with one edge subdivided, the two new vertices joined by
    a bridge: each side is 5 vertices and 7 edges, so chi* = 7/2 > Delta."""
    edges = []
    for base in (0, 5):
        a, b, c, d, x = range(base, base + 5)
        edges += [(a, b), (a, c), (a, d), (b, c), (b, d), (c, x), (x, d)]
    return Multigraph(10, edges + [(4, 9)])


def test_chi_star_above_delta_on_a_bridged_cubic_graph():
    index = chi_star(bridged_cubic())
    assert index.value == Fraction(7, 2)
    assert index.witness.vertices in ((0, 1, 2, 3, 4), (5, 6, 7, 8, 9))
    assert index.value == reference_chi_star(bridged_cubic()).value


# ---------------------------------------------------------------------------
# Violation search


def test_no_violation_at_the_index():
    for g in (cycle_graph(5), shannon(2), petersen()):
        level = chi_star(g).value
        cap = g.n if g.n % 2 else g.n - 1
        assert find_violated_matching_constraint(g, level, cap) is None


def test_violation_below_the_index():
    g = shannon(3)
    cert = find_violated_matching_constraint(g, Fraction(17, 2), 3)
    assert cert is not None
    assert cert.ratio == 9
    assert cert.edge_count == 9
    assert len(cert.vertices) == 3


def test_level_exact_at_large_denominators():
    g = shannon(3)
    cert = find_violated_matching_constraint(g, 9 - Fraction(1, 10**12), 3)
    assert cert == OddSetCertificate((0, 1, 2), 9, Fraction(9))
    assert find_violated_matching_constraint(g, Fraction(9), 3) is None


def test_separation_needs_a_level_of_at_least_delta():
    with pytest.raises(ValueError):
        separate_odd_set(shannon(3), Fraction(5))
    assert separate_odd_set(shannon(3), Fraction(6)).ratio == 9
    assert separate_odd_set(shannon(3), Fraction(9)) is None


def test_search_does_no_rational_arithmetic():
    """Levels are rationals, but the search compares integers: a search on a
    34-vertex cubic graph calls into ``fractions`` only at its boundary."""
    g = cubic_graph(34, 34)
    calls = 0

    def profile(frame, event, arg):
        nonlocal calls
        if event == "call" and frame.f_code.co_filename.endswith("fractions.py"):
            calls += 1

    level = Fraction(3)
    sys.setprofile(profile)
    try:
        cert = find_violated_matching_constraint(g, level, 33)
    finally:
        sys.setprofile(None)
    assert cert is None
    assert calls <= 20


def odd_sets(graph, cap):
    """Every connected odd vertex set H with 3 <= |H| <= cap, with |E(H)|."""
    for size in range(3, min(cap, graph.n) + 1, 2):
        for verts in combinations(range(graph.n), size):
            inside = [(u, v) for u, v in graph.endpoints if u in verts and v in verts]
            reached, before = {verts[0]}, 0
            while len(reached) > before:
                before = len(reached)
                reached |= {w for u, v in inside if u in reached or v in reached for w in (u, v)}
            if len(reached) == size:
                yield verts, len(inside)


@st.composite
def search_cases(draw):
    n = draw(st.integers(1, 9))
    # Edges fall on a random subset of the vertices; the rest stay isolated.
    used = draw(st.permutations(range(n)))[: draw(st.integers(min(n, 2), n))]
    pairs = [(u, v) for u in used for v in used if u < v]
    mult = {}
    if pairs:
        mult = dict(draw(st.lists(st.tuples(st.sampled_from(pairs), st.integers(1, 4)), max_size=14)))
    graph = Multigraph(n, [pair for pair, k in sorted(mult.items()) for _ in range(k)])
    cap = draw(st.sampled_from(range(3, max(3, n) + 1, 2)))
    attained = sorted({Fraction(2 * e, len(verts) - 1) for verts, e in odd_sets(graph, cap)})
    q = draw(st.integers(2, 7))
    kind = draw(st.sampled_from(("at", "below", "free"))) if attained else "free"
    if kind == "free":
        top = max(attained, default=Fraction(4))
        return graph, Fraction(draw(st.integers(q + 1, math.ceil(top * q) + q)), q), cap
    ratio = draw(st.sampled_from(attained))
    return graph, ratio if kind == "at" else max(Fraction(1), ratio - Fraction(1, q)), cap


@settings(max_examples=150)
@given(search_cases())
# A dense triangle above Delta whose pruning bound is tight: the leak is a
# banned pendant (first case) or a pendant below the root (second case).
@example((Multigraph(5, [(0, 1)] + [(0, 2)] * 2 + [(0, 3)] * 2 + [(2, 3)] * 4), Fraction(15, 2), 5))
@example((Multigraph(5, [(0, 1)] + [(1, 2)] * 2 + [(1, 3)] * 2 + [(2, 3)] * 4), Fraction(15, 2), 5))
def test_search_matches_brute_force(case):
    graph, level, cap = case
    violating = [
        (verts, e) for verts, e in odd_sets(graph, cap) if 2 * e > (len(verts) - 1) * level
    ]
    expect = None
    if violating:
        verts, e = min(violating)
        expect = OddSetCertificate(verts, e, Fraction(e, (len(verts) - 1) // 2))
    assert find_violated_matching_constraint(graph, level, cap) == expect


def profile_calls(fn, *names):
    """Run fn() and count the calls of the named functions, and the calls
    into ``fractions.py``."""
    counts = dict.fromkeys(names, 0)
    counts["fractions"] = 0

    def profile(frame, event, arg):
        if event != "call":
            return
        code = frame.f_code
        if code.co_filename.endswith("fractions.py"):
            counts["fractions"] += 1
        elif code.co_name in counts and code.co_filename.endswith("fractional.py"):
            counts[code.co_name] += 1

    sys.setprofile(profile)
    try:
        result = fn()
    finally:
        sys.setprofile(None)
    return result, counts


@pytest.mark.parametrize("make", [lambda: cubic_graph(240, 240), bridged_cubic], ids=["cubic240", "bridged"])
def test_oracle_work_counts(make):
    """Each level builds one cut tree from at most n + 1 max flows, and the
    oracle calls into ``fractions`` only at its boundary, a few times per level."""
    graph = make()  # a fresh graph, so the memo is empty
    index, counts = profile_calls(lambda: chi_star(graph), "min_odd_cut", "_max_flow")
    levels = counts["min_odd_cut"]
    assert levels == (1 if index.witness == "degree" else 2)
    assert counts["_max_flow"] <= levels * (graph.n + 1)
    assert counts["fractions"] <= 30 * levels


@st.composite
def small_multigraphs(draw, max_n=12, max_mult=6):
    n = draw(st.integers(1, max_n))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    mult = {}
    if pairs:
        mult = dict(
            draw(st.lists(st.tuples(st.sampled_from(pairs), st.integers(1, max_mult)), min_size=1, max_size=20))
        )
    return Multigraph(n, [pair for pair, k in sorted(mult.items()) for _ in range(k)])


@settings(max_examples=200, deadline=None)
@given(small_multigraphs())
@example(bridged_cubic())
@example(Multigraph(7, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 6), (6, 3)]))
def test_oracle_matches_the_enumeration(graph):
    """The Padberg-Rao oracle and the capped enumeration at a cap covering
    the graph (``reference_chi_star``) agree on chi*, and the oracle's
    witness is a connected odd set attaining it."""
    if graph.m == 0:
        return
    index = chi_star(graph)
    assert index.exhaustive
    assert index.value == reference_chi_star(graph).value
    if index.witness == "degree":
        assert index.value == graph.max_degree()
        return
    verts = set(index.witness.vertices)
    assert len(verts) % 2 == 1 and len(verts) >= 3
    inside = [(u, v) for u, v in graph.endpoints if u in verts and v in verts]
    assert len(inside) == index.witness.edge_count
    assert index.witness.ratio == index.value
    reached = {min(verts)}
    for _ in verts:
        reached |= {w for u, v in inside if u in reached or v in reached for w in (u, v)}
    assert reached == verts


@settings(max_examples=150, deadline=None)
@given(small_multigraphs(max_n=11), st.sampled_from([3, 5, 7, 9, 11]))
# Two triangles joined by a path, and an isolated vertex.
@example(Multigraph(8, [(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 5), (5, 6), (6, 4)]), 7)
def test_connected_odd_sets_match_networkx(graph, cap):
    """``connected_odd_sets`` lists exactly the connected odd sets of 3 to
    ``cap`` vertices, by size and then lexicographically."""
    simple = nx.Graph(graph.endpoints)
    simple.add_nodes_from(range(graph.n))
    expect = [
        combo
        for size in range(3, cap + 1, 2)
        for combo in combinations(range(graph.n), size)
        if nx.is_connected(simple.subgraph(combo))
    ]
    assert connected_odd_sets(graph, cap) == expect


def networkx_auxiliary(graph, c):
    """The auxiliary graph at level c = p/q as a networkx graph, with the
    slack vertex z = n."""
    p, q = c.numerator, c.denominator
    aux = nx.Graph()
    aux.add_nodes_from(range(graph.n + 1))
    z = graph.n
    for u, v in graph.endpoints:
        if aux.has_edge(u, v):
            aux[u][v]["capacity"] += q
        else:
            aux.add_edge(u, v, capacity=q)
    for v in range(graph.n):
        if p > graph.degree(v) * q:
            aux.add_edge(v, z, capacity=p - graph.degree(v) * q)
    return aux


def networkx_min_odd_cut(graph, c):
    """The minimum T-odd cut capacity of the auxiliary graph, from
    networkx's Gomory-Hu tree."""
    aux = networkx_auxiliary(graph, c)
    z = graph.n
    tree = nx.gomory_hu_tree(aux)
    best = None
    for u, v, data in tree.edges(data=True):
        cut = tree.copy()
        cut.remove_edge(u, v)
        side = nx.node_connected_component(cut, u)
        if z in side:
            side = set(aux) - side
        if len(side) % 2 and (best is None or data["weight"] < best):
            best = data["weight"]
    return best


@settings(max_examples=100, deadline=None)
@given(small_multigraphs(max_n=10), st.integers(0, 3), st.integers(1, 5))
def test_min_odd_cut_matches_networkx(graph, extra, q):
    """The oracle's minimum T-odd cut capacity equals the lightest T-odd
    fundamental cut of networkx's Gomory-Hu tree, at levels from Delta up,
    and its side has odd size and that capacity."""
    if graph.m == 0:
        return
    c = Fraction(graph.max_degree() * q + extra, q)
    weight, side = min_odd_cut(graph, c)
    assert weight == networkx_min_odd_cut(graph, c)
    assert weight <= c.numerator
    inside = sum(1 for u, v in graph.endpoints if u in side and v in side)
    assert len(side) % 2 == 1
    assert weight == c.numerator * len(side) - 2 * c.denominator * inside


@settings(max_examples=100, deadline=None)
@given(small_multigraphs(max_n=9), st.integers(0, 3), st.integers(1, 4))
# Without the parent swap this tree is only flow-equivalent.
@example(Multigraph(3, [(0, 1)] * 4 + [(0, 2)] * 11 + [(1, 2)] * 7), 2, 1)
def test_cut_tree_is_a_gomory_hu_cut_tree(graph, extra, q):
    """Every edge of the oracle's tree weighs the max flow between its ends,
    and the vertices below it form a cut of that capacity: a cut tree, not
    only a flow-equivalent one."""
    if graph.m == 0:
        return
    c = Fraction(graph.max_degree() * q + extra, q)
    p = c.numerator
    aux = networkx_auxiliary(graph, c)
    parent, weight = fractional._cut_tree(*fractional._auxiliary(graph, p, c.denominator), p)
    for v in range(graph.n):
        below = {v}
        while True:
            more = {u for u in range(graph.n) if parent[u] in below} - below
            if not more:
                break
            below |= more
        assert weight[v] == nx.cut_size(aux, below, weight="capacity")
        assert weight[v] == nx.maximum_flow_value(aux, v, parent[v])


# ---------------------------------------------------------------------------
# Dual route: agreement with exhaustive references


def test_agrees_with_brute_force_density_on_sweep():
    for g in sweep_corpus(seed=303, count=40):
        expect = max(brute_force_gamma(g), Fraction(g.max_degree()))
        assert chi_star(g).value == expect


def test_chromatic_index_sandwich_on_sweep():
    for g in sweep_corpus(seed=304, count=15):
        value = chi_star(g).value
        chromatic = brute_force_chromatic_index(g)
        assert math.ceil(value) <= chromatic <= max(2 * g.max_degree() - 1, 1)
