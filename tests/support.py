"""Deterministic instance generators and named graphs shared by the tests.

Every generator is a pure function of its integer seed (stdlib ``random``
with an explicit ``Random`` instance), so test runs are reproducible and the
determinism checks can replay exact corpora.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction

from matchcolor import FractionalIndex, Multigraph, chi_star, find_violated_matching_constraint
from matchcolor.errors import CapacityError
from matchcolor.hardcore import _lift_bundle

# ---------------------------------------------------------------------------
# Named graphs


def path_graph(edges: int) -> Multigraph:
    """A path with the given number of edges (edge i joins i and i+1)."""
    return Multigraph(edges + 1, [(i, i + 1) for i in range(edges)])


def cycle_graph(n: int) -> Multigraph:
    return Multigraph(n, [(i, (i + 1) % n) for i in range(n)])


def double_edge() -> Multigraph:
    return Multigraph(2, [(0, 1), (0, 1)])


def shannon(mu: int) -> Multigraph:
    """Triangle with every edge repeated mu times: Delta = 2*mu, chi' = 3*mu."""
    return Multigraph(3, [(0, 1)] * mu + [(1, 2)] * mu + [(0, 2)] * mu)


def star_multigraph(leaves: int, mult: int = 1) -> Multigraph:
    return Multigraph(leaves + 1, [(0, i + 1) for i in range(leaves) for _ in range(mult)])


def petersen() -> Multigraph:
    outer = [(i, (i + 1) % 5) for i in range(5)]
    spokes = [(i, i + 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    return Multigraph(10, outer + spokes + inner)


# ---------------------------------------------------------------------------
# Random corpora


def sweep_multigraph(rng: random.Random, n_max: int = 8, m_max: int = 14) -> Multigraph:
    """A small connected multigraph: random tree, extra pairs, multiplicities."""
    n = rng.randint(2, n_max)
    edges = [(rng.randrange(v), v) for v in range(1, n)]
    extra = rng.randint(0, 4)
    while len(edges) < n - 1 + extra and len(edges) < m_max:
        u, v = rng.randrange(n), rng.randrange(n)
        if u != v:
            edges.append((min(u, v), max(u, v)))
    out: list[tuple[int, int]] = []
    for u, v in edges:
        mult = rng.choices([1, 2, 3], weights=[6, 3, 1])[0]
        out.extend([(u, v)] * mult)
    if len(out) > m_max:
        out = out[:m_max]
    return Multigraph(n, out)


def cubic_graph(seed: int, n: int) -> Multigraph:
    """A uniform random simple 3-regular graph: pair the 3n half-edges at
    random and reject pairings with loops or parallel edges."""
    rng = random.Random(seed)
    while True:
        points = [v for v in range(n) for _ in range(3)]
        rng.shuffle(points)
        edges = {tuple(sorted(points[i : i + 2])) for i in range(0, 3 * n, 2)}
        if len(edges) == 3 * n // 2 and all(u != v for u, v in edges):
            return Multigraph(n, sorted(edges))


def sweep_corpus(seed: int, count: int, n_max: int = 8, m_max: int = 14) -> list[Multigraph]:
    rng = random.Random(seed)
    return [sweep_multigraph(rng, n_max, m_max) for _ in range(count)]


def banded_multigraph(
    seed: int,
    n_lo: int,
    n_hi: int,
    delta_max: int,
    mult_lo: int,
    mult_hi: int,
    chords: int = 3,
) -> Multigraph:
    """A cycle skeleton with a few chords and heavy edge multiplicities.

    The number of distinct endpoint pairs stays at most n_hi + chords, and
    the compiled partition-function DAG a few nodes per vertex, so the exact
    path applies throughout, while the host edge count and the maximum
    degree scale with the multiplicities.  Degrees are
    clamped to delta_max by reducing the heaviest incident bundle.
    """
    rng = random.Random(seed)
    n = rng.randint(n_lo, n_hi)
    pairs: dict[tuple[int, int], int] = {}
    for i in range(n):
        key = tuple(sorted((i, (i + 1) % n)))
        pairs[key] = rng.randint(mult_lo, mult_hi)
    for _ in range(rng.randint(0, chords)):
        u, v = rng.sample(range(n), 2)
        key = tuple(sorted((u, v)))
        pairs[key] = pairs.get(key, 0) + 1

    def degree(v: int) -> int:
        return sum(m for (a, b), m in pairs.items() if v in (a, b))

    for v in range(n):
        while degree(v) > delta_max:
            key = max(
                (k for k in pairs if v in k),
                key=lambda k: (pairs[k], k),
            )
            pairs[key] -= 1
            if pairs[key] == 0:
                del pairs[key]
    edges: list[tuple[int, int]] = []
    for (u, v), mult in sorted(pairs.items()):
        edges.extend([(u, v)] * mult)
    return Multigraph(n, edges)


def gs_instance(seed: int) -> Multigraph:
    """Sweep instance for the full colorer: n alternates small and large so a
    fixed block of seeds lands in the exactly-verifiable n <= 10 range."""
    if seed % 4 == 0:
        return banded_multigraph(seed, 4, 10, 40, 8, 18, chords=2)
    return banded_multigraph(seed, 11, 60, 40, 8, 18, chords=3)


def list_instance(seed: int) -> Multigraph:
    return banded_multigraph(seed, 8, 40, 25, 4, 11, chords=3)


# ---------------------------------------------------------------------------
# Reference chain


def reference_chain(model, steps: int, rng) -> frozenset[int]:
    """The Metropolis chain of ``hardcore.sample_matching`` in its first,
    per-step numpy-scalar form, kept to pin the kernel's random stream: the
    same generator calls per batch, the same move tests, the same lift."""
    ms = len(model.pairs)
    if ms == 0:
        return frozenset()

    in_m = [False] * ms
    partner = [-1] * model.graph.n
    lam = model.lam
    pairs = model.pairs

    done = 0
    batch = 8192
    while done < steps:
        k = min(batch, steps - done)
        done += k
        move_r = rng.random(k)
        picks = rng.integers(0, ms, size=k)
        accept_r = rng.random(k)
        for j in range(k):
            e = int(picks[j])
            u, v = pairs[e]
            r = move_r[j]
            if r < 0.4:  # insert
                if not in_m[e] and partner[u] < 0 and partner[v] < 0:
                    a = lam[e]
                    if a >= 1.0 or accept_r[j] < a:
                        in_m[e] = True
                        partner[u] = e
                        partner[v] = e
            elif r < 0.8:  # delete
                if in_m[e]:
                    a = 1.0 / lam[e]
                    if a >= 1.0 or accept_r[j] < a:
                        in_m[e] = False
                        partner[u] = -1
                        partner[v] = -1
            else:  # slide
                if not in_m[e]:
                    pu, pv = partner[u], partner[v]
                    if (pu >= 0) != (pv >= 0):
                        f = pu if pu >= 0 else pv
                        a = lam[e] / lam[f]
                        if a >= 1.0 or accept_r[j] < a:
                            fu, fv = pairs[f]
                            in_m[f] = False
                            partner[fu] = -1
                            partner[fv] = -1
                            in_m[e] = True
                            partner[u] = e
                            partner[v] = e

    return frozenset(_lift_bundle(model, e, rng) for e in range(ms) if in_m[e])


# ---------------------------------------------------------------------------
# Reference DAG compile


class ReferenceDag:
    """``hardcore._ZDag``'s compile in its first, rescanning form, kept to pin
    the DAG node for node: ``node(mask)`` searches the components of every
    new mask, and ``_pivot`` scans each component for its minimum-degree
    vertex, the lowest-numbered on ties.  Only the compiled arrays
    (``split``, ``kids``, ``slots``, ``val``, ``index``) are kept."""

    def __init__(self, n, pairs, lam, budget):
        self.nbr = [[] for _ in range(n)]
        for s, (u, v) in enumerate(pairs):
            self.nbr[u].append((v, s))
            self.nbr[v].append((u, s))
        for lst in self.nbr:
            lst.sort()
        self.nbr_mask = [sum(1 << u for u, _ in lst) for lst in self.nbr]
        self.weight = [math.log(x) for x in lam] + [0.0]
        self.split = [True]
        self.kids = [()]
        self.slots = [()]
        self.val = [0.0]
        self.index = {}
        self.budget = budget

    def node(self, mask):
        got = self.index.get(mask)
        if got is not None:
            return got
        if mask & (mask - 1) == 0:
            return 0
        comps = self._components(mask)
        if len(comps) == 1:
            return self._component(mask)
        kids = []
        for comp in comps:
            if comp & (comp - 1):
                got = self.index.get(comp)
                kids.append(self._component(comp) if got is None else got)
        if len(kids) > 1:
            total = 0.0
            for k in kids:
                total += self.val[k]
            node = self._add(True, tuple(kids), (), total)
        else:
            node = kids[0] if kids else 0
        self.index[mask] = node
        return node

    def _add(self, split, kids, slots, value):
        node = len(self.val)
        if node >= self.budget:
            raise CapacityError(f"compiling would take the DAG past {self.budget} nodes")
        self.split.append(split)
        self.kids.append(kids)
        self.slots.append(slots)
        self.val.append(value)
        return node

    def _components(self, mask):
        remaining = mask
        comps = []
        while remaining:
            comp = remaining & -remaining
            new = comp
            while new:
                spread = 0
                bits = new
                while bits:
                    low = bits & -bits
                    spread |= self.nbr_mask[low.bit_length() - 1]
                    bits ^= low
                new = spread & remaining & ~comp
                comp |= new
            remaining &= ~comp
            comps.append(comp)
        return comps

    def _pivot(self, comp):
        best = -1
        best_deg = comp.bit_count()
        bits = comp
        while bits:
            low = bits & -bits
            v = low.bit_length() - 1
            deg = (self.nbr_mask[v] & comp).bit_count()
            if deg < best_deg:
                if deg == 1:
                    return v
                best, best_deg = v, deg
            bits ^= low
        return best

    def _component(self, comp):
        pivot = self._pivot(comp)
        rest = comp & ~(1 << pivot)
        k = self.node(rest)
        kids = [k]
        slots = [-1]
        terms = [self.val[k]]
        for u, s in self.nbr[pivot]:
            if comp >> u & 1:
                k = self.node(rest & ~(1 << u))
                kids.append(k)
                slots.append(s)
                terms.append(self.weight[s] + self.val[k])
        got = self._add(False, tuple(kids), tuple(slots), _logsumexp(terms))
        self.index[comp] = got
        return got


def _logsumexp(values):
    """log(sum(exp(values))), computed as the compile computes it."""
    hi = max(values)
    return hi + math.log(sum(math.exp(v - hi) for v in values))


def reference_dag(n: int, pairs, lam, budget: int) -> ReferenceDag:
    """An uncompiled reference DAG over the collapsed graph (``pairs``,
    bundle activities ``lam``); compile masks into it with ``node``."""
    return ReferenceDag(n, pairs, lam, budget)


# ---------------------------------------------------------------------------
# Reference chi*


def reference_chi_star(graph: Multigraph) -> FractionalIndex:
    """chi* by the capped enumeration at a cap covering the graph, kept to
    check the Padberg-Rao oracle: raise a level from Delta to the ratio of
    each odd set ``find_violated_matching_constraint`` finds violating."""
    cap = max(3, graph.n if graph.n % 2 else graph.n - 1)
    level = Fraction(graph.max_degree())
    best = None
    while (cert := find_violated_matching_constraint(graph, level, cap)) is not None:
        best = cert
        level = cert.ratio
    return FractionalIndex(level, best or "degree", True)


# ---------------------------------------------------------------------------
# Color lists


def uniform_lists(graph: Multigraph, q: int) -> dict[int, list[int]]:
    return {e: list(range(q)) for e in range(graph.m)}


def staggered_lists(graph: Multigraph, q: int, span: int | None = None) -> dict[int, list[int]]:
    """Non-uniform lists of exact size q: contiguous windows into a palette of
    q + span colors, with the offset driven by the endpoints so that color
    subgraphs are uneven, overlapping chunks of the host."""
    if span is None:
        span = max(1, q // 2)
    palette = q + span
    lists: dict[int, list[int]] = {}
    for e, (u, v) in enumerate(graph.endpoints):
        offset = (3 * u + 5 * v + e) % (span + 1)
        lists[e] = list(range(offset, offset + q))
    assert all(len(L) == q and max(L) < palette for L in lists.values())
    return lists


def list_size_for(graph: Multigraph) -> int:
    value = chi_star(graph).value
    return math.ceil(value * Fraction(6, 5))
