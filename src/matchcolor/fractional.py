"""Fractional chromatic index via exact rational arithmetic.

By Edmonds' matching-polytope description, the fractional chromatic index of a
multigraph is

    chi* = max(Delta, max_H |E(H)| / floor(|H|/2))

over vertex sets H with |H| >= 2.  Even H and pairs never beat Delta (their
edge count is at most (|H|/2) * Delta), and a disconnected odd H is dominated
by its best component, so the search space is connected odd sets of size >= 3.
The search enumerates connected sets rooted at their minimum vertex with sound
upper-bound pruning, so it is exhaustive within the vertex cap.
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
    """Simple-graph view of a multigraph: pair multiplicities and neighbor sets."""

    def __init__(self, graph: Multigraph):
        self.n = graph.n
        self.deg = [graph.degree(v) for v in range(graph.n)]
        mult: dict[tuple[int, int], int] = {}
        for u, v in graph.endpoints:
            key = (u, v) if u < v else (v, u)
            mult[key] = mult.get(key, 0) + 1
        self.mult = mult
        nbrs: list[set[int]] = [set() for _ in range(graph.n)]
        for u, v in mult:
            nbrs[u].add(v)
            nbrs[v].add(u)
        self.nbrs = [tuple(sorted(s)) for s in nbrs]
        self.max_mult = max(mult.values(), default=0)

    def pair_mult(self, u: int, v: int) -> int:
        key = (u, v) if u < v else (v, u)
        return self.mult.get(key, 0)


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
    dmax = max(sk.deg)
    # A violating H of size k satisfies |E(H)| <= max_mult * k * (k-1) / 2,
    # hence k > c / max_mult.
    k_mult_floor = c / sk.max_mult

    def smallest_odd_at_least(k: int) -> int:
        return k if k % 2 else k + 1

    def can_extend(size: int, sum_deg: int, leak: int) -> bool:
        lo = smallest_odd_at_least(max(size + 1, 3))
        while Fraction(lo) <= k_mult_floor:
            lo += 2
        if lo > cap:
            return False
        hi = cap
        base = Fraction(sum_deg - leak)

        def g(k: int) -> Fraction:
            return base + (k - size) * dmax - (k - 1) * c

        # g is monotone in k (slope dmax - c), so one endpoint decides.
        probe = lo if dmax <= c else hi
        return g(probe) > 0

    violations: list[tuple[tuple[int, ...], int, Fraction]] = []

    for root in range(graph.n):
        if not sk.nbrs[root]:
            continue
        banned: set[int] = set()
        in_set: set[int] = {root}

        def conn(v: int) -> int:
            return sum(sk.pair_mult(v, w) for w in sk.nbrs[v] if w in in_set)

        def grow(members: list[int], ext: list[int], sum_deg: int, internal: int, leak: int) -> None:
            local_leak = leak
            processed: list[int] = []
            for idx, v in enumerate(ext):
                add_internal = conn(v)
                v_leak = sum(
                    sk.pair_mult(v, w)
                    for w in sk.nbrs[v]
                    if w < root or w in banned
                )
                members.append(v)
                in_set.add(v)
                size = len(members)
                new_sum = sum_deg + sk.deg[v]
                new_internal = internal + add_internal
                new_leak = local_leak + v_leak
                if size % 2 and size >= 3 and size <= cap:
                    if 2 * new_internal > (size - 1) * c:
                        ratio = Fraction(new_internal, (size - 1) // 2)
                        violations.append((tuple(sorted(members)), new_internal, ratio))
                if size < cap and can_extend(size, new_sum, new_leak):
                    tail = ext[idx + 1 :]
                    seen = set(tail)
                    new_ext = list(tail)
                    for w in sk.nbrs[v]:
                        if w > root and w not in in_set and w not in banned and w not in seen:
                            new_ext.append(w)
                            seen.add(w)
                    grow(members, new_ext, new_sum, new_internal, new_leak)
                members.pop()
                in_set.remove(v)
                banned.add(v)
                processed.append(v)
                local_leak += conn(v)
            for v in processed:
                banned.remove(v)

        if can_extend(1, sk.deg[root], 0):
            grow([root], list(sk.nbrs[root]), sk.deg[root], 0, 0)
        if violations:
            verts, edges, ratio = min(violations)
            return OddSetCertificate(verts, edges, ratio)
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
