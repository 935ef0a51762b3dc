"""Fractional chromatic index, exact: rational levels, integer search.

By Edmonds' matching-polytope description, the fractional chromatic index of a
multigraph is

    chi* = max(Delta, max_H |E(H)| / floor(|H|/2))

over vertex sets H with |H| >= 2.  Even H and pairs never beat Delta (their
edge count is at most (|H|/2) * Delta), and a disconnected odd H is dominated
by its best component, so the search space is connected odd sets of size >= 3.
The search enumerates connected sets rooted at their minimum vertex with sound
upper-bound pruning, so it is exhaustive within the vertex cap.

Levels, chi* and certificate ratios are exact rationals (``Fraction``).  The
search writes its level as p/q once and compares cross-multiplied integers,
so it is exact at any denominator and does no rational arithmetic per set.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from fractions import Fraction

from .graphs import Multigraph


@dataclass(frozen=True)
class OddSetCertificate:
    """A connected odd vertex set witnessing |E(H)| / floor(|H|/2)."""

    vertices: tuple[int, ...]
    edge_count: int
    ratio: Fraction

    def __post_init__(self):
        k = len(self.vertices)
        if k < 3 or k % 2 == 0:
            raise ValueError("certificate needs an odd vertex set of size >= 3")
        if self.ratio != Fraction(self.edge_count, (k - 1) // 2):
            raise ValueError("certificate ratio does not match its edge count")


@dataclass(frozen=True)
class FractionalIndex:
    value: Fraction
    witness: OddSetCertificate | str  # "degree" when Delta attains the max
    exhaustive: bool


class _Skeleton:
    """Simple-graph view of a multigraph: degrees and, per vertex, its
    neighbors in increasing order, each with the pair's multiplicity."""

    def __init__(self, graph: Multigraph):
        self.deg = [graph.degree(v) for v in range(graph.n)]
        mult: dict[tuple[int, int], int] = {}
        for u, v in graph.endpoints:
            key = (u, v) if u < v else (v, u)
            mult[key] = mult.get(key, 0) + 1
        adj: list[list[tuple[int, int]]] = [[] for _ in range(graph.n)]
        for (u, v), k in mult.items():
            adj[u].append((v, k))
            adj[v].append((u, k))
        self.adj = [tuple(sorted(a)) for a in adj]
        self.max_mult = max(mult.values(), default=0)


def find_violated_matching_constraint(
    graph: Multigraph, c: Fraction, vertex_cap: int
) -> OddSetCertificate | None:
    """First (lexicographically by sorted vertex tuple) connected odd H with
    |E(H)| > ((|H| - 1) / 2) * c and |H| <= vertex_cap, or None.

    The enumeration grows connected sets from each root in increasing order and
    prunes a branch only when no odd superset within the cap can violate:
    for any H extending S inside the branch,
    2|E(H)| <= sum_deg(S) - leak(S) + (|H| - |S|) * Dmax, where leak counts
    multigraph edges from S to vertices permanently outside the branch.
    With c = p/q, every test compares cross-multiplied integers.
    """
    c = Fraction(c)
    if c < 1:
        raise ValueError(f"constraint level must be >= 1, got {c}")
    if vertex_cap < 3 or vertex_cap % 2 == 0:
        raise ValueError(f"vertex_cap must be odd and >= 3, got {vertex_cap}")
    if graph.n < 3 or graph.m == 0:
        return None
    sk = _Skeleton(graph)
    cap = min(vertex_cap, graph.n if graph.n % 2 else graph.n - 1)
    if cap < 3:
        return None
    adj, deg = sk.adj, sk.deg
    p, q = c.numerator, c.denominator
    dmax = max(deg)
    # A violating H of size k satisfies |E(H)| <= max_mult * k * (k-1) / 2,
    # hence k > c / max_mult: k_min is the smallest odd k >= 3 with that.
    k_min = max(3, p // (sk.max_mult * q) + 1)
    k_min += 1 - k_min % 2
    # The bound g(k) = sum_deg - leak + (k - size) * dmax - (k - 1) * c is
    # monotone in k with slope dmax - c, so one endpoint decides.
    slope_up = dmax * q > p

    def can_extend(size: int, sum_deg: int, leak: int) -> bool:
        lo = max(size + 1 + size % 2, k_min)  # smallest feasible odd size > size
        if lo > cap:
            return False
        probe = cap if slope_up else lo
        return (sum_deg - leak + (probe - size) * dmax) * q > (probe - 1) * p

    # Per root: 1 marks the growing set, 2 a vertex outside the branch (below
    # the root, or banned after its subtree was explored), 0 a free vertex.
    state = [0] * graph.n
    violations: list[tuple[tuple[int, ...], int]] = []

    def grow(members: list[int], ext: list[int], sum_deg: int, internal: int, leak: int) -> None:
        local_leak = leak
        processed: list[int] = []
        for idx, v in enumerate(ext):
            add_internal = v_leak = 0
            for w, k in adj[v]:
                s = state[w]
                if s == 1:
                    add_internal += k
                elif s == 2:
                    v_leak += k
            members.append(v)
            state[v] = 1
            size = len(members)
            new_sum = sum_deg + deg[v]
            new_internal = internal + add_internal
            new_leak = local_leak + v_leak
            if size % 2 and size >= 3 and 2 * new_internal * q > (size - 1) * p:
                violations.append((tuple(sorted(members)), new_internal))
            if size < cap and can_extend(size, new_sum, new_leak):
                tail = ext[idx + 1 :]
                seen = set(tail)
                new_ext = list(tail)
                for w, _ in adj[v]:
                    if state[w] == 0 and w not in seen:
                        new_ext.append(w)
                        seen.add(w)
                grow(members, new_ext, new_sum, new_internal, new_leak)
            members.pop()
            state[v] = 2
            processed.append(v)
            # The set is back to what it was when add_internal was counted.
            local_leak += add_internal
        for v in processed:
            state[v] = 0

    for root in range(graph.n):
        grow([], [root], 0, 0, 0)
        if violations:
            verts, edges = min(violations)
            return OddSetCertificate(verts, edges, Fraction(edges, (len(verts) - 1) // 2))
        state[root] = 2
    return None


# Exhaustive answers by graph object; graphs are immutable.
_MEMO: "weakref.WeakKeyDictionary[Multigraph, FractionalIndex]" = weakref.WeakKeyDictionary()


def chi_star(graph: Multigraph, size_cap: int | None = None) -> FractionalIndex:
    """Fractional chromatic index; exact when size_cap covers the whole graph,
    otherwise a lower bound flagged non-exhaustive.

    The odd-set maximum is located by iterating the violation search: start at
    c = Delta, and whenever a violating H is found raise c to its ratio.  The
    final level is achieved and unbeaten, so it equals the true maximum over
    sets within the cap.  With the default ``size_cap`` the result is
    memoized per graph object (weakly, so it goes with the graph): a
    pipeline that asks again about the same graph, to plan a round and then
    to check its calibration target, pays one search.
    """
    if size_cap is not None:
        return _search(graph, size_cap)
    got = _MEMO.get(graph)
    if got is None:
        got = _MEMO[graph] = _search(graph, None)
    return got


def _search(graph: Multigraph, size_cap: int | None) -> FractionalIndex:
    if graph.m == 0:
        raise ValueError("fractional chromatic index of an edgeless graph is undefined here")
    if size_cap is not None and not (1 <= size_cap <= graph.n):
        raise ValueError(f"size_cap must be in [1, {graph.n}], got {size_cap}")
    delta = graph.max_degree()
    cap = graph.n if size_cap is None else size_cap
    odd_cap = cap if cap % 2 else cap - 1
    reachable = graph.n if graph.n % 2 else graph.n - 1
    exhaustive = odd_cap >= reachable or graph.n < 3
    best: OddSetCertificate | None = None
    if odd_cap >= 3:
        level = Fraction(delta)
        while True:
            cert = find_violated_matching_constraint(graph, level, odd_cap)
            if cert is None:
                break
            best = cert
            level = cert.ratio
    if best is None:
        return FractionalIndex(Fraction(delta), "degree", exhaustive)
    return FractionalIndex(best.ratio, best, exhaustive)
