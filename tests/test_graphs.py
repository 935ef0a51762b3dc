"""Multigraph container, serialization, subgraph views, coloring checks."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from matchcolor import Multigraph, dump_multigraph, load_multigraph, validate_coloring
from matchcolor.errors import ParseError
from matchcolor.graphs import (
    ball_subgraph,
    distances_from,
    induced_subgraph,
    is_matching,
    matched_vertices,
    restrict_edges,
)
from support import cycle_graph, path_graph, petersen, sweep_corpus


def edge_lists(max_n: int = 7, max_m: int = 12):
    return st.integers(min_value=2, max_value=max_n).flatmap(
        lambda n: st.tuples(
            st.just(n),
            st.lists(
                st.tuples(
                    st.integers(min_value=0, max_value=n - 1),
                    st.integers(min_value=0, max_value=n - 1),
                ).filter(lambda p: p[0] != p[1]),
                max_size=max_m,
            ),
        )
    )


# ---------------------------------------------------------------------------
# Construction and validation


def test_rejects_loops_and_out_of_range():
    with pytest.raises(ValueError, match="loops"):
        Multigraph(3, [(1, 1)])
    with pytest.raises(ValueError, match="out of range"):
        Multigraph(3, [(0, 3)])
    with pytest.raises(ValueError, match="non-negative"):
        Multigraph(-1, [])


def test_parallel_edges_counted_separately():
    g = Multigraph(2, [(0, 1), (0, 1), (1, 0)])
    assert g.m == 3
    assert g.degree(0) == g.degree(1) == 3
    assert g.max_degree() == 3


def test_incidence_matches_endpoints():
    g = petersen()
    for v in range(g.n):
        for eid in g.incidence[v]:
            assert v in g.endpoints[eid]


# ---------------------------------------------------------------------------
# Serialization


@given(edge_lists())
def test_dump_load_roundtrip(spec):
    n, edges = spec
    g = Multigraph(n, edges)
    back = load_multigraph(dump_multigraph(g))
    assert back.n == g.n
    assert back.endpoints == g.endpoints


@pytest.mark.parametrize(
    "text",
    [
        "",  # no header
        "p 2 1\n",  # missing edge
        "e 0 1\np 2 1\n",  # edge before header
        "p 2 1\np 2 1\ne 0 1\n",  # duplicate header
        "p 2 1\ne 0 2\n",  # endpoint out of range
        "p 2 1\ne 1 1\n",  # loop
        "p 2 one\n",  # bad count
        "q 2 1\n",  # unknown record
    ],
)
def test_parse_errors(text):
    with pytest.raises(ParseError):
        load_multigraph(text)


def test_comments_and_blank_lines_ignored():
    g = load_multigraph("# header\n\np 3 2\n# edges\ne 0 1\n\ne 1 2\n")
    assert g.n == 3 and g.m == 2


# ---------------------------------------------------------------------------
# Distances and subgraph views


def test_distances_on_path():
    g = path_graph(5)
    assert distances_from(g, [0]) == [0, 1, 2, 3, 4, 5]
    assert distances_from(g, [0, 5]) == [0, 1, 2, 2, 1, 0]


def test_distances_unreachable():
    g = Multigraph(4, [(0, 1)])
    assert distances_from(g, [0]) == [0, 1, -1, -1]


def test_ball_subgraph_on_cycle():
    g = cycle_graph(8)
    # The ball holds vertices at distance strictly below the radius.
    ball, sub = ball_subgraph(g, [0], 2)
    assert ball == frozenset({7, 0, 1})
    # Only edges with both endpoints inside the ball survive.
    assert sub.graph.m == 2
    wider, _ = ball_subgraph(g, [0], 3)
    assert wider == frozenset({6, 7, 0, 1, 2})


def test_induced_subgraph_edge_map():
    g = cycle_graph(5)
    view = induced_subgraph(g, [0, 1, 2])
    assert view.graph.n == 3
    assert view.graph.m == 2
    for j, host in enumerate(view.edge_ids):
        u, v = g.endpoints[host]
        mapped = view.graph.endpoints[j]
        assert {view.vertices[a] for a in mapped} == {u, v}


def test_restrict_edges_keeps_order():
    g = cycle_graph(6)
    sub, kept = restrict_edges(g, [4, 1, 1, 2])
    assert kept == (1, 2, 4)
    assert sub.m == 3
    assert sub.n == g.n


@given(edge_lists())
def test_restricted_degrees_bounded(spec):
    n, edges = spec
    g = Multigraph(n, edges)
    keep = [e for e in range(g.m) if e % 2 == 0]
    sub, kept = restrict_edges(g, keep)
    assert len(kept) == len(keep)
    for v in range(n):
        assert sub.degree(v) <= g.degree(v)


# ---------------------------------------------------------------------------
# Matchings


def test_is_matching():
    g = path_graph(4)  # edges 0..3 along a path
    assert is_matching(g, [0, 2])
    assert is_matching(g, [])
    assert not is_matching(g, [0, 1])
    assert not is_matching(g, [0, 0, 2])  # repeated id saturates its endpoints


def test_matched_vertices():
    g = path_graph(4)
    assert matched_vertices(g, [0, 2]) == {0, 1, 2, 3}


# ---------------------------------------------------------------------------
# Coloring reports


def test_validate_coloring_proper():
    g = cycle_graph(4)
    rep = validate_coloring(g, {0: 0, 1: 1, 2: 0, 3: 1})
    assert rep.ok and rep.proper
    assert rep.colors_used == 2
    assert rep.uncolored == ()


def test_validate_coloring_conflict_and_partial():
    g = path_graph(3)
    rep = validate_coloring(g, {0: 5, 1: 5})
    assert not rep.proper
    assert rep.conflicts == ((0, 1),)
    assert rep.uncolored == (2,)
    assert not rep.ok


def test_validate_coloring_lists():
    g = path_graph(2)
    lists = {0: [1, 2], 1: [3]}
    good = validate_coloring(g, {0: 1, 1: 3}, lists=lists)
    assert good.ok
    bad = validate_coloring(g, {0: 3, 1: 3}, lists=lists)
    assert bad.list_violations == (0,)
    assert not bad.ok


def test_validate_coloring_rejects_unknown_edge():
    with pytest.raises(ValueError):
        validate_coloring(path_graph(1), {4: 0})


def test_validate_coloring_rejects_an_unknown_list_edge():
    # A list keyed outside 0..m-1 is rejected even though no colored edge
    # reads it.
    g = cycle_graph(3)
    with pytest.raises(ValueError, match="9"):
        validate_coloring(g, {0: 0, 1: 1, 2: 2}, lists={0: [0], 1: [1], 2: [2], 9: [1]})


def test_sweep_corpus_is_deterministic():
    a = sweep_corpus(11, 12)
    b = sweep_corpus(11, 12)
    assert [g.endpoints for g in a] == [g.endpoints for g in b]
    assert all(2 <= g.n <= 8 and g.m <= 14 for g in a)
