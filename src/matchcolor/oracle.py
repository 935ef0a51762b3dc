"""Exhaustive reference computations.

Everything here is deliberately brute force and size-capped; the caps are
hard errors, never silent truncation.  These oracles exist to check the
production paths, so they share no code with them.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import prod
from typing import Mapping

from .errors import CapacityError
from .graphs import Multigraph

ENUMERATION_CAP = 20
CHROMATIC_CAP = 16
GAMMA_CAP = 16


def enumerate_matchings(graph: Multigraph, cap: int = ENUMERATION_CAP) -> list[frozenset[int]]:
    """All matchings of the multigraph (including the empty one), as edge-id sets.

    Deterministic order: lexicographic in the inclusion pattern over edge ids.
    """
    if graph.m > cap:
        raise CapacityError(f"enumeration cap is {cap} edges, graph has {graph.m}")
    out: list[frozenset[int]] = []
    chosen: list[int] = []
    used: set[int] = set()

    def recurse(eid: int) -> None:
        if eid == graph.m:
            out.append(frozenset(chosen))
            return
        u, v = graph.endpoints[eid]
        if u not in used and v not in used:
            chosen.append(eid)
            used.add(u)
            used.add(v)
            recurse(eid + 1)
            used.remove(u)
            used.remove(v)
            chosen.pop()
        recurse(eid + 1)

    recurse(0)
    return out


@dataclass(frozen=True)
class ExactDistribution:
    """A finite distribution over matchings, aligned lists of support and mass."""

    support: tuple[frozenset[int], ...]
    probs: tuple[float, ...]

    def as_dict(self) -> dict[frozenset[int], float]:
        return dict(zip(self.support, self.probs))


def exact_distribution(model) -> ExactDistribution:
    """Hard-core distribution nu(M) proportional to the product of activities.

    ``model`` needs ``graph`` and ``activities`` attributes (see hardcore).
    """
    graph = model.graph
    activities = model.activities
    matchings = enumerate_matchings(graph)
    weights = [prod(activities[eid] for eid in m) for m in matchings]
    total = sum(weights)
    return ExactDistribution(tuple(matchings), tuple(w / total for w in weights))


def brute_force_gamma(graph: Multigraph, cap: int = GAMMA_CAP) -> Fraction:
    """Density: max over vertex sets H, |H| >= 2, of |E(H)| / floor(|H|/2).

    Enumerates every subset; 0 when the graph has under two vertices.
    """
    if graph.n > cap:
        raise CapacityError(f"density cap is {cap} vertices, graph has {graph.n}")
    best = Fraction(0)
    for size in range(2, graph.n + 1):
        for subset in combinations(range(graph.n), size):
            inside = set(subset)
            count = sum(1 for u, v in graph.endpoints if u in inside and v in inside)
            best = max(best, Fraction(count, size // 2))
    return best


def brute_force_chromatic_index(graph: Multigraph, cap: int = CHROMATIC_CAP) -> int:
    """Exact chromatic index by backtracking (edges in id order).

    Color classes are interchangeable, so each edge only tries colors up to
    one past the largest color already in use; this keeps infeasibility
    proofs (e.g. all-edges-conflicting multigraphs) linear instead of
    factorial in the color count.
    """
    if graph.m > cap:
        raise CapacityError(f"chromatic-index cap is {cap} edges, graph has {graph.m}")
    if graph.m == 0:
        return 0
    delta = graph.max_degree()

    def colorable(q: int) -> bool:
        vertex_colors: list[set[int]] = [set() for _ in range(graph.n)]

        def place(eid: int, used: int) -> bool:
            if eid == graph.m:
                return True
            u, v = graph.endpoints[eid]
            for c in range(min(q, used + 1)):
                if c not in vertex_colors[u] and c not in vertex_colors[v]:
                    vertex_colors[u].add(c)
                    vertex_colors[v].add(c)
                    if place(eid + 1, max(used, c + 1)):
                        return True
                    vertex_colors[u].remove(c)
                    vertex_colors[v].remove(c)
            return False

        return place(0, 0)

    q = delta
    while not colorable(q):
        q += 1
    return q


def _as_prob_dict(dist) -> dict[frozenset[int], float]:
    if isinstance(dist, ExactDistribution):
        return dist.as_dict()
    if isinstance(dist, Mapping):
        total = float(sum(dist.values()))
        if total <= 0:
            raise ValueError("distribution has no mass")
        return {frozenset(k): v / total for k, v in dist.items()}
    raise TypeError(f"cannot interpret {type(dist).__name__} as a distribution")


def tv_distance(a, b) -> float:
    """Total variation distance between two distributions over matchings.

    Accepts ExactDistribution instances or mappings from matchings to counts
    or probabilities (counts are normalized).
    """
    pa = _as_prob_dict(a)
    pb = _as_prob_dict(b)
    keys = set(pa) | set(pb)
    return 0.5 * sum(abs(pa.get(k, 0.0) - pb.get(k, 0.0)) for k in keys)
