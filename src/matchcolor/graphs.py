"""Multigraph data model.

Vertices are ``0..n-1``.  Edges carry dense integer ids ``0..m-1`` in input
order; parallel edges are distinct ids with the same endpoint pair.  Loops are
rejected.  Graphs are immutable once built: restriction and induction return
new graphs together with their edge id maps.

Edge-list text format::

    p <n> <m>
    e <u> <v>        (one line per edge, 0-based endpoints)

Blank lines and lines starting with ``#`` are ignored.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

from .errors import ParseError


class Multigraph:
    """An undirected multigraph with dense edge ids."""

    __slots__ = ("n", "endpoints", "incidence", "__weakref__")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]]):
        if n < 0:
            raise ValueError("vertex count must be non-negative")
        endpoints = []
        # Parallel edges share one endpoint tuple: heavy multiplicities cost
        # one pointer per edge, not one tuple.
        shared: dict[tuple[int, int], tuple[int, int]] = {}
        incidence: list[list[int]] = [[] for _ in range(n)]
        for eid, (u, v) in enumerate(edges):
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge {eid}: endpoint out of range: ({u}, {v})")
            if u == v:
                raise ValueError(f"edge {eid}: loops are not allowed (vertex {u})")
            endpoints.append(shared.setdefault((u, v), (u, v)))
            incidence[u].append(eid)
            incidence[v].append(eid)
        self.n = n
        self.endpoints: tuple[tuple[int, int], ...] = tuple(endpoints)
        self.incidence: tuple[tuple[int, ...], ...] = tuple(tuple(ids) for ids in incidence)

    @property
    def m(self) -> int:
        return len(self.endpoints)

    def degree(self, v: int) -> int:
        return len(self.incidence[v])

    def max_degree(self) -> int:
        return max((len(ids) for ids in self.incidence), default=0)

    def __repr__(self) -> str:  # pragma: no cover
        return f"Multigraph(n={self.n}, m={self.m})"


def load_multigraph(text: str) -> Multigraph:
    """Parse the edge-list format; raise ParseError with a line number on bad input."""
    n = None
    declared_m = None
    edges: list[tuple[int, int]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        fields = line.split()
        if fields[0] == "p":
            if n is not None:
                raise ParseError("duplicate 'p' header", lineno)
            if len(fields) != 3:
                raise ParseError(f"expected 'p <n> <m>', got {line!r}", lineno)
            try:
                n, declared_m = int(fields[1]), int(fields[2])
            except ValueError:
                raise ParseError(f"non-integer counts in {line!r}", lineno) from None
            if n < 0 or declared_m < 0:
                raise ParseError("negative counts in 'p' header", lineno)
        elif fields[0] == "e":
            if n is None:
                raise ParseError("edge line before 'p' header", lineno)
            if len(fields) != 3:
                raise ParseError(f"expected 'e <u> <v>', got {line!r}", lineno)
            try:
                u, v = int(fields[1]), int(fields[2])
            except ValueError:
                raise ParseError(f"non-integer endpoints in {line!r}", lineno) from None
            if not (0 <= u < n and 0 <= v < n):
                raise ParseError(f"endpoint out of range: ({u}, {v})", lineno)
            if u == v:
                raise ParseError(f"loop at vertex {u} is not allowed", lineno)
            edges.append((u, v))
        else:
            raise ParseError(f"unrecognized line {line!r}", lineno)
    if n is None:
        raise ParseError("missing 'p' header")
    if declared_m != len(edges):
        raise ParseError(f"header declares {declared_m} edges, found {len(edges)}")
    return Multigraph(n, edges)


def dump_multigraph(graph: Multigraph) -> str:
    lines = [f"p {graph.n} {graph.m}"]
    lines.extend(f"e {u} {v}" for u, v in graph.endpoints)
    return "\n".join(lines) + "\n"


def distances_from(graph: Multigraph, sources: Iterable[int]) -> list[int]:
    """BFS distance from the nearest source; -1 for unreachable vertices."""
    dist = [-1] * graph.n
    queue: deque[int] = deque()
    for s in sources:
        if not (0 <= s < graph.n):
            raise ValueError(f"source vertex {s} out of range")
        if dist[s] != 0:
            dist[s] = 0
            queue.append(s)
    while queue:
        v = queue.popleft()
        for eid in graph.incidence[v]:
            u, w = graph.endpoints[eid]
            other = w if u == v else u
            if dist[other] < 0:
                dist[other] = dist[v] + 1
                queue.append(other)
    return dist


@dataclass(frozen=True)
class InducedSubgraph:
    """A vertex-induced subgraph with maps back to the host.

    ``vertices[i]`` is the host id of subgraph vertex ``i``; ``edge_ids[j]``
    is the host id of subgraph edge ``j``.
    """

    graph: Multigraph
    vertices: tuple[int, ...]
    edge_ids: tuple[int, ...]


def induced_subgraph(graph: Multigraph, vertices: Iterable[int]) -> InducedSubgraph:
    verts = sorted(set(vertices))
    for v in verts:
        if not (0 <= v < graph.n):
            raise ValueError(f"vertex {v} out of range")
    index = {v: i for i, v in enumerate(verts)}
    edges = []
    edge_ids = []
    for eid, (u, v) in enumerate(graph.endpoints):
        if u in index and v in index:
            edges.append((index[u], index[v]))
            edge_ids.append(eid)
    return InducedSubgraph(Multigraph(len(verts), edges), tuple(verts), tuple(edge_ids))


def nested_balls(
    graph: Multigraph, center: Iterable[int], radii: Sequence[int]
) -> tuple[frozenset[int], ...]:
    """For each radius r, the vertices at distance < r from the center set,
    all read off one breadth-first distance map."""
    center = list(center)
    if not center:
        raise ValueError("center set must be non-empty")
    if any(r < 0 for r in radii):
        raise ValueError("radius must be non-negative")
    dist = distances_from(graph, center)
    return tuple(frozenset(v for v in range(graph.n) if 0 <= dist[v] < r) for r in radii)


def ball_subgraph(graph: Multigraph, center: Iterable[int], radius: int) -> tuple[frozenset[int], InducedSubgraph]:
    """Vertices at distance < radius from the center set, and the induced multigraph."""
    inside = nested_balls(graph, center, (radius,))[0]
    return inside, induced_subgraph(graph, inside)


def restrict_edges(graph: Multigraph, edge_ids: Iterable[int]) -> tuple[Multigraph, tuple[int, ...]]:
    """Subgraph on the same vertex set keeping only the given edges (sorted by id)."""
    keep = sorted(set(edge_ids))
    for eid in keep:
        if not (0 <= eid < graph.m):
            raise ValueError(f"edge id {eid} not in graph")
    sub = Multigraph(graph.n, [graph.endpoints[eid] for eid in keep])
    return sub, tuple(keep)


def is_matching(graph: Multigraph, edge_ids: Iterable[int]) -> bool:
    seen: set[int] = set()
    for eid in edge_ids:
        if not (0 <= eid < graph.m):
            return False
        u, v = graph.endpoints[eid]
        if u in seen or v in seen:
            return False
        seen.add(u)
        seen.add(v)
    return True


def matched_vertices(graph: Multigraph, edge_ids: Iterable[int]) -> set[int]:
    verts: set[int] = set()
    for eid in edge_ids:
        u, v = graph.endpoints[eid]
        verts.add(u)
        verts.add(v)
    return verts


@dataclass(frozen=True)
class ColoringReport:
    proper: bool
    conflicts: tuple[tuple[int, int], ...]
    colors_used: int
    list_violations: tuple[int, ...]
    uncolored: tuple[int, ...]

    @property
    def ok(self) -> bool:
        return self.proper and not self.list_violations


def validate_coloring(
    graph: Multigraph,
    coloring: Mapping[int, int],
    lists: Mapping[int, Iterable[int]] | None = None,
) -> ColoringReport:
    """Check properness (no two incident edges share a color) and list membership."""
    for kind, ids in (("colored", coloring), ("list", lists or ())):
        for eid in ids:
            if not (0 <= eid < graph.m):
                raise ValueError(f"{kind} edge id {eid} not in graph")
    conflicts = []
    for v in range(graph.n):
        by_color: dict[int, int] = {}
        for eid in graph.incidence[v]:
            c = coloring.get(eid)
            if c is None:
                continue
            if c in by_color:
                pair = (min(by_color[c], eid), max(by_color[c], eid))
                conflicts.append(pair)
            else:
                by_color[c] = eid
    violations = []
    if lists is not None:
        for eid, c in coloring.items():
            allowed = lists.get(eid)
            if allowed is None or c not in set(allowed):
                violations.append(eid)
    uncolored = tuple(eid for eid in range(graph.m) if eid not in coloring)
    return ColoringReport(
        proper=not conflicts,
        conflicts=tuple(sorted(set(conflicts))),
        colors_used=len(set(coloring.values())),
        list_violations=tuple(sorted(violations)),
        uncolored=uncolored,
    )
