"""Hard-core distributions on matchings.

A model is a multigraph plus a positive activity per edge; it induces
nu(M) proportional to the product of activities over M.  Parallel edges
collapse into one simple edge whose activity is the bundle sum: the collapsed
partition function equals the multigraph one, and a sampled simple edge lifts
to a member of its bundle with probability proportional to the member
activity.

Exact work runs on one compiled DAG per collapsed graph.  It records the
deletion-contraction recursion, grouped per minimum-degree pivot v,

    Z(G) = Z(G - v) + sum_{e = vu} lambda(e) * Z(G - v - u),

memoized on live-vertex sets and factored over connected components, with
values in log domain filled in as nodes are created.  For new activities, a
forward sweep re-evaluates every node; a reverse sweep then gives every
bundle marginal d log Z / d log lambda at once; and an exact draw walks the
DAG from its root, or from the node of a vertex region for the law induced
there.  Calibration compiles once and sweeps on every iteration.

Approximate sampling is a Metropolis chain over matchings of the collapsed
graph with insert / delete / slide proposals.
"""
from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from numbers import Rational
from typing import Iterable, Mapping, Sequence

import numpy as np

from .errors import CalibrationError, CapacityError, InfeasibleTargetError
from .graphs import Multigraph, distances_from, matched_vertices, require_matching
from .rng import stream

EXACT_CAP = 64  # collapsed simple-edge cap for exact partition functions
EXACT_SAMPLE_CAP = 20  # collapsed-edge cap for enumeration-based exact draws


class HardCoreModel:
    """A multigraph with one strictly positive, finite activity per edge."""

    def __init__(self, graph: Multigraph, activities: Mapping[int, float] | Sequence[float]):
        if isinstance(activities, Mapping):
            if set(activities) != set(range(graph.m)):
                raise ValueError("activities must cover exactly the edge ids of the graph")
            values = [float(activities[eid]) for eid in range(graph.m)]
        else:
            values = [float(x) for x in activities]
            if len(values) != graph.m:
                raise ValueError(f"expected {graph.m} activities, got {len(values)}")
        for eid, lam in enumerate(values):
            if not math.isfinite(lam) or lam <= 0.0:
                raise ValueError(f"activity for edge {eid} must be positive and finite, got {lam}")
        self.graph = graph
        self.activities: tuple[float, ...] = tuple(values)
        self._collapse: _Collapse | None = None
        self._dag: _ZDag | None = None

    def collapse(self) -> "_Collapse":
        if self._collapse is None:
            self._collapse = _Collapse(self.graph, self.activities)
        return self._collapse

    def dag(self) -> "_ZDag":
        """The compiled partition-function DAG, evaluated at these activities."""
        if self._dag is None:
            collapse = self.collapse()
            self._dag = _ZDag(collapse.n, collapse.pairs, collapse.lam)
        return self._dag


class _Collapse:
    """Simple-graph view: one edge per vertex pair, activity = bundle sum."""

    def __init__(self, graph: Multigraph, activities: Sequence[float]):
        bundles: dict[tuple[int, int], list[int]] = {}
        for eid, (u, v) in enumerate(graph.endpoints):
            key = (u, v) if u < v else (v, u)
            bundles.setdefault(key, []).append(eid)
        self.pairs: list[tuple[int, int]] = sorted(bundles)
        self.members: list[list[int]] = [bundles[p] for p in self.pairs]
        self.lam: list[float] = self.bundle_sums(activities)
        self.n = graph.n
        self.max_lam = max(self.lam, default=0.0)

    @property
    def m(self) -> int:
        return len(self.pairs)

    def bundle_sums(self, activities: Sequence[float] | Mapping[int, float]) -> list[float]:
        return [sum(activities[eid] for eid in mem) for mem in self.members]

    def edge_marginals(
        self,
        activities: Sequence[float] | Mapping[int, float],
        lam: Sequence[float],
        bundle: Sequence[float],
    ) -> dict[int, float]:
        """Split each bundle's marginal over its members in proportion to activity."""
        out = [0.0] * sum(len(mem) for mem in self.members)
        for s, mem in enumerate(self.members):
            for eid in mem:
                out[eid] = bundle[s] * activities[eid] / lam[s]
        return dict(enumerate(out))


def _logsumexp(values: list[float]) -> float:
    hi = max(values)
    if hi == -math.inf:
        return -math.inf
    return hi + math.log(sum(math.exp(v - hi) for v in values))


class _ZDag:
    """The deletion-contraction recursion of one collapsed graph, compiled.

    Node ``node(mask)`` holds log Z of the subgraph induced on the live-vertex
    bitmask ``mask``.  Node 0 is the empty graph (log Z = 0).  A component
    node belongs to a connected mask and has one term per branch of its
    pivot p: p left unmatched (slot -1), or p matched to u through bundle
    slot s, each term pointing at the node of the vertices left over; its
    value is the log-sum-exp of the terms.  A split node sums the nodes of
    its connected components.  Nodes are numbered children first, and values
    are filled in while nodes are created, so compiling costs one memoized
    recursion.  After that, ``evaluate`` re-runs every node in id order at new
    bundle activities (the forward sweep), ``bundle_marginals`` passes outside
    weights down in reverse id order (the reverse sweep, which yields every
    d log Z / d log lambda at once), and ``sample`` walks down from a root
    choosing terms by weight.  Masks not yet compiled (conditioning regions,
    say) are added on demand.
    """

    def __init__(self, n: int, pairs: Sequence[tuple[int, int]], lam: Sequence[float]):
        self.nbr: list[list[tuple[int, int]]] = [[] for _ in range(n)]
        for s, (u, v) in enumerate(pairs):
            self.nbr[u].append((v, s))
            self.nbr[v].append((u, s))
        for lst in self.nbr:
            lst.sort()
        self.nbr_mask: list[int] = [0] * n
        for v, lst in enumerate(self.nbr):
            acc = 0
            for u, _ in lst:
                acc |= 1 << u
            self.nbr_mask[v] = acc
        self.full = (1 << n) - 1
        # Per-slot log activity; slot -1 (the pivot left unmatched) reads the
        # trailing 0.0.
        self.weight: list[float] = [math.log(x) for x in lam] + [0.0]
        self.split: list[bool] = [True]
        # Per node: child nodes and their bundle slots, as tuples of ints,
        # which the garbage collector stops scanning.
        self.kids: list[tuple[int, ...]] = [()]
        self.slots: list[tuple[int, ...]] = [()]
        self.val: list[float] = [0.0]
        self.index: dict[int, int] = {}
        self._cum: dict[int, tuple[float, list[float]]] = {}

    @staticmethod
    def mask_of(verts: Iterable[int]) -> int:
        acc = 0
        for v in verts:
            acc |= 1 << v
        return acc

    def edges_within(self, mask: int) -> int:
        total = 0
        bits = mask
        while bits:
            low = bits & -bits
            total += (self.nbr_mask[low.bit_length() - 1] & mask).bit_count()
            bits ^= low
        return total // 2

    def log_z(self, mask: int) -> float:
        return self.val[self.node(mask)]

    def node(self, mask: int) -> int:
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

    def _add(self, split: bool, kids: tuple[int, ...], slots: tuple[int, ...], value: float) -> int:
        node = len(self.val)
        self.split.append(split)
        self.kids.append(kids)
        self.slots.append(slots)
        self.val.append(value)
        return node

    def _components(self, mask: int) -> list[int]:
        nbr_mask = self.nbr_mask
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
                    spread |= nbr_mask[low.bit_length() - 1]
                    bits ^= low
                new = spread & remaining & ~comp
                comp |= new
            remaining &= ~comp
            comps.append(comp)
        return comps

    def _pivot(self, comp: int) -> int:
        # Pivot on a minimum-degree vertex, the lowest-numbered on ties:
        # linear on trees, and it keeps the reachable state family small on
        # sparse graphs.  A connected component has minimum degree at least
        # one, so the first degree-one vertex ends the scan.
        best = -1
        best_deg = comp.bit_count()
        nbr_mask = self.nbr_mask
        bits = comp
        while bits:
            low = bits & -bits
            v = low.bit_length() - 1
            deg = (nbr_mask[v] & comp).bit_count()
            if deg < best_deg:
                if deg == 1:
                    return v
                best, best_deg = v, deg
            bits ^= low
        return best

    def _component(self, comp: int) -> int:
        """Compile the node of a connected mask that has none yet."""
        pivot = self._pivot(comp)
        rest = comp & ~(1 << pivot)
        node, val, w = self.node, self.val, self.weight
        k = node(rest)
        kids = [k]
        slots = [-1]
        terms = [val[k]]
        for u, s in self.nbr[pivot]:
            if comp >> u & 1:
                k = node(rest & ~(1 << u))
                kids.append(k)
                slots.append(s)
                terms.append(w[s] + val[k])
        got = self._add(False, tuple(kids), tuple(slots), _logsumexp(terms))
        self.index[comp] = got
        return got

    def evaluate(self, lam: Sequence[float]) -> None:
        """Forward sweep: re-evaluate every compiled node at bundle activities ``lam``."""
        w = [math.log(x) for x in lam]
        w.append(0.0)
        if w == self.weight:
            return
        self.weight = w
        self._cum.clear()
        val, split, kids, slots = self.val, self.split, self.kids, self.slots
        for i in range(1, len(val)):
            if split[i]:
                total = 0.0
                for k in kids[i]:
                    total += val[k]
                val[i] = total
            else:
                val[i] = _logsumexp([w[s] + val[k] for k, s in zip(kids[i], slots[i])])

    def bundle_marginals(self, root: int) -> list[float]:
        """Reverse sweep: Pr[bundle s in M] = d log Z / d log lambda_s for every slot.

        ``outside[i]`` is the log of the summed weight of everything outside
        node i on the ways down from ``root`` to it: the matched terms above
        it and the sibling components beside it.  A term's probability is
        exp(outside + log lambda_s + inside - log Z).  In log domain a node
        reached along one way only gets its outside weight by additions, with
        no exp/log round trip: on a star every leaf edge's marginal comes out
        bit-identical, so calibration keeps symmetric activities symmetric.
        """
        val, w, split, kids, slots = self.val, self.weight, self.split, self.kids, self.slots
        exp, log1p, ninf = math.exp, math.log1p, -math.inf
        log_z = val[root]
        outside = [ninf] * (root + 1)
        outside[root] = 0.0
        grad = [0.0] * len(w)
        for i in range(root, 0, -1):
            o = outside[i]
            if o == ninf:
                continue
            ks = kids[i]
            if split[i]:
                terms = [(k, o + sum(val[j] for j in ks if j != k)) for k in ks]
            else:
                terms = [(k, o + w[s]) for k, s in zip(ks, slots[i])]
                for (k, c), s in zip(terms, slots[i]):
                    if s >= 0:
                        grad[s] += exp(c + val[k] - log_z)
            for k, c in terms:
                if k == 0:
                    continue
                prev = outside[k]
                if prev == ninf:
                    outside[k] = c
                elif prev >= c:
                    outside[k] = prev + log1p(exp(c - prev))
                else:
                    outside[k] = c + log1p(exp(prev - c))
        grad.pop()
        return grad

    def _cumulative(self, i: int) -> tuple[float, list[float]]:
        w, val = self.weight, self.val
        terms = [w[s] + val[k] for k, s in zip(self.kids[i], self.slots[i])]
        hi = max(terms)
        weights = [math.exp(t - hi) for t in terms]
        cum = []
        acc = 0.0
        for x in weights:
            acc += x
            cum.append(acc)
        got = (sum(weights), cum)
        self._cum[i] = got
        return got

    def sample(self, root: int, rng: np.random.Generator) -> list[int]:
        """Exact matching draw below ``root``, as the chosen bundle slots.

        Each component node's terms are the summands of its partition
        function, so descending with those probabilities samples the model
        exactly.  Components are visited depth first in order, one uniform
        draw per component node.
        """
        chosen: list[int] = []
        stack = [root]
        while stack:
            i = stack.pop()
            if self.split[i]:
                stack.extend(reversed(self.kids[i]))
                continue
            total, cum = self._cum.get(i) or self._cumulative(i)
            pos = min(bisect_right(cum, rng.random() * total), len(cum) - 1)
            s = self.slots[i][pos]
            if s >= 0:
                chosen.append(s)
            stack.append(self.kids[i][pos])
        return chosen


def _check_cap(count: int, cap: int | None) -> None:
    limit = EXACT_CAP if cap is None else cap
    if count > limit:
        raise CapacityError(
            f"exact computation over {count} collapsed edges exceeds the cap of "
            f"{limit}; use the sampling path instead"
        )


def log_partition_function(model: HardCoreModel, cap: int | None = None) -> float:
    """log Z, where Z sums the activity products of all matchings (incl. empty)."""
    _check_cap(model.collapse().m, cap)
    dag = model.dag()
    return dag.log_z(dag.full)


def exact_marginals(model: HardCoreModel, cap: int | None = None) -> dict[int, float]:
    """Pr[e in M] for every edge id, from one reverse sweep of the DAG."""
    collapse = model.collapse()
    _check_cap(collapse.m, cap)
    dag = model.dag()
    bundle = dag.bundle_marginals(dag.node(dag.full))
    return collapse.edge_marginals(model.activities, collapse.lam, bundle)


def conditional_marginal(
    model: HardCoreModel,
    eid: int,
    frozen: Iterable[int],
    ball: Iterable[int],
    cap: int | None = None,
) -> float:
    """Marginal of ``eid`` in the compatibility subgraph induced on
    ``ball`` minus the endpoints of the frozen matching.

    Returns 0.0 when the edge is blocked (an endpoint saturated or outside the
    compatibility region).
    """
    graph = model.graph
    frozen_ids = require_matching(graph, frozen, label="frozen")
    ball_set = set(ball)
    u, v = graph.endpoints[eid]
    if u not in ball_set or v not in ball_set:
        raise ValueError(f"edge {eid} does not lie inside the ball")
    region = frozenset(ball_set - matched_vertices(graph, frozen_ids))
    if u not in region or v not in region:
        return 0.0
    dag = model.dag()
    mask = dag.mask_of(region)
    _check_cap(dag.edges_within(mask), cap)
    log_num = math.log(model.activities[eid]) + dag.log_z(mask & ~(1 << u | 1 << v))
    return math.exp(log_num - dag.log_z(mask))


# ---------------------------------------------------------------------------
# Sampling


@dataclass(frozen=True)
class ChainConfig:
    """Metropolis chain parameters.

    ``steps=None`` uses the budget 10 * m^2 * ceil(max(lambda', 1)) on the
    collapsed graph with m simple edges and maximum bundle activity lambda'.
    """

    steps: int | None = None
    seed: int = 0
    moves: tuple[float, float, float] = (0.4, 0.4, 0.2)

    def __post_init__(self):
        if self.steps is not None and self.steps < 0:
            raise ValueError("steps must be non-negative")
        if len(self.moves) != 3 or any(p <= 0 for p in self.moves):
            raise ValueError("moves must be three positive probabilities")
        if abs(sum(self.moves) - 1.0) > 1e-9:
            raise ValueError("move probabilities must sum to 1")


def default_steps(model: HardCoreModel) -> int:
    collapse = model.collapse()
    return 10 * collapse.m * collapse.m * max(1, math.ceil(max(collapse.max_lam, 1.0)))


def sample_matching(
    model: HardCoreModel,
    cfg: ChainConfig | None = None,
    rng: np.random.Generator | None = None,
    initial: Iterable[int] | None = None,
) -> frozenset[int]:
    """Approximate sample from the model via the Metropolis chain.

    The chain runs on the collapsed simple graph and the result is lifted to
    host edge ids.  ``initial`` (host edge ids) seeds the chain state.
    """
    cfg = cfg or ChainConfig()
    if rng is None:
        rng = stream(cfg.seed, "chain")
    collapse = model.collapse()
    ms = collapse.m
    if ms == 0:
        return frozenset()
    steps = cfg.steps if cfg.steps is not None else default_steps(model)

    pair_index = {pair: i for i, pair in enumerate(collapse.pairs)}
    in_m = [False] * ms
    partner = [-1] * collapse.n
    if initial is not None:
        host = require_matching(model.graph, initial, label="initial")
        for eid in host:
            a, b = model.graph.endpoints[eid]
            key = (a, b) if a < b else (b, a)
            s = pair_index[key]
            in_m[s] = True
            partner[a] = s
            partner[b] = s

    p_ins, p_del, _ = cfg.moves
    c1 = p_ins
    c2 = p_ins + p_del
    ratio_ins = p_del / p_ins
    ratio_del = p_ins / p_del
    lam = collapse.lam
    pairs = collapse.pairs

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
            if r < c1:  # insert
                if not in_m[e] and partner[u] < 0 and partner[v] < 0:
                    a = lam[e] * ratio_ins
                    if a >= 1.0 or accept_r[j] < a:
                        in_m[e] = True
                        partner[u] = e
                        partner[v] = e
            elif r < c2:  # delete
                if in_m[e]:
                    a = ratio_del / lam[e]
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

    chosen: list[int] = []
    for e in range(ms):
        if not in_m[e]:
            continue
        members = collapse.members[e]
        if len(members) == 1:
            chosen.append(members[0])
            continue
        weights = [model.activities[eid] for eid in members]
        total = sum(weights)
        pick = rng.random() * total
        acc = 0.0
        for eid, w in zip(members, weights):
            acc += w
            if pick < acc:
                chosen.append(eid)
                break
        else:
            chosen.append(members[-1])
    return frozenset(chosen)


def _enumerate_matchings_of(endpoints: Sequence[tuple[int, int]]) -> list[list[int]]:
    out: list[list[int]] = []
    chosen: list[int] = []
    used: set[int] = set()

    def recurse(i: int) -> None:
        if i == len(endpoints):
            out.append(list(chosen))
            return
        u, v = endpoints[i]
        if u not in used and v not in used:
            chosen.append(i)
            used.add(u)
            used.add(v)
            recurse(i + 1)
            used.remove(u)
            used.remove(v)
            chosen.pop()
        recurse(i + 1)

    recurse(0)
    return out


def _enumerate_host_matchings(graph: Multigraph, allowed: Sequence[int]) -> list[list[int]]:
    ids = sorted(allowed)
    slots = _enumerate_matchings_of([graph.endpoints[e] for e in ids])
    return [[ids[i] for i in m] for m in slots]


def sample_matching_exact(
    model: HardCoreModel,
    rng: np.random.Generator,
    cap: int = EXACT_SAMPLE_CAP,
) -> frozenset[int]:
    """Exact draw by enumerating matchings of the collapsed view.

    Parallel edges are grouped per vertex pair before enumeration, so ``cap``
    bounds the number of distinct pairs; each pair picked by the draw is then
    thinned to one host edge in proportion to its activity.
    """
    collapse = model.collapse()
    if collapse.m > cap:
        raise CapacityError(
            f"exact draw supports at most {cap} collapsed edges, model has {collapse.m}"
        )
    matchings = _enumerate_matchings_of(collapse.pairs)
    weights = [math.prod(collapse.lam[s] for s in m) for m in matchings]
    total = sum(weights)
    pick = rng.random() * total
    acc = 0.0
    slots = matchings[-1]
    for m, w in zip(matchings, weights):
        acc += w
        if pick < acc:
            slots = m
            break
    return frozenset(_lift_bundle(model, collapse, s, rng) for s in slots)


def _lift_bundle(model: HardCoreModel, collapse: _Collapse, s: int, rng) -> int:
    """Thin a chosen bundle to one of its host edges, by activity weight."""
    members = collapse.members[s]
    if len(members) == 1:
        return members[0]
    sub = rng.random() * collapse.lam[s]
    acc = 0.0
    host = members[-1]
    for eid in members:
        acc += model.activities[eid]
        if sub < acc:
            host = eid
            break
    return host


def sample_matching_recursive(
    model: HardCoreModel,
    rng: np.random.Generator,
    cap: int | None = None,
    region: Iterable[int] | None = None,
) -> frozenset[int]:
    """Exact draw by walking the model's compiled partition-function DAG.

    Costs one compile on first use and cheap walks after, so it replaces
    enumeration whenever the collapsed view fits the exact cap.  With
    ``region`` (a set of the model's vertices) the draw comes from the law
    induced on those vertices, by a walk from the region's node; nodes not
    yet compiled are added on demand, and the cap applies to the collapsed
    edges inside the region.  The region's node orders pivots, components,
    neighbours and bundle members as the induced submodel's root would, so
    the draw equals that submodel's under the same stream.  Chosen pairs are
    thinned to host edges in proportion to their activities.
    """
    collapse = model.collapse()
    dag = model.dag()
    if region is None:
        _check_cap(collapse.m, cap)
        root = dag.node(dag.full)
    else:
        mask = dag.mask_of(region)
        _check_cap(dag.edges_within(mask), cap)
        root = dag.node(mask)
    slots = dag.sample(root, rng)
    return frozenset(_lift_bundle(model, collapse, s, rng) for s in slots)


def estimate_marginals(
    model: HardCoreModel,
    cfg: ChainConfig,
    samples: int,
    rng: np.random.Generator | None = None,
) -> dict[int, float]:
    """Per-edge occupancy frequencies over independent chain runs."""
    if samples <= 0:
        raise ValueError("samples must be positive")
    if rng is None:
        rng = stream(cfg.seed, "estimate")
    counts = [0] * model.graph.m
    for _ in range(samples):
        for eid in sample_matching(model, cfg, rng=rng):
            counts[eid] += 1
    return {eid: counts[eid] / samples for eid in range(model.graph.m)}


# ---------------------------------------------------------------------------
# Calibration


@dataclass
class CalibrationResult:
    activities: dict[int, float]
    achieved: dict[int, float]
    max_error: float
    iterations: int
    k_hat: float
    method: str
    converged: bool = True


def _as_fraction(x) -> Fraction:
    if isinstance(x, Rational):
        return Fraction(x)
    # Decimal reading of a float literal: 0.025 means 1/40, not its binary blob.
    return Fraction(str(x))


def calibrate_activities(
    graph: Multigraph,
    target,
    tol: float | None = None,
    max_iters: int = 500,
    chain: ChainConfig | None = None,
    samples: int = 400,
    exact_cap: int | None = None,
    rng: np.random.Generator | None = None,
    initial: Mapping[int, float] | None = None,
) -> CalibrationResult:
    """Iterative proportional fitting of activities to marginal targets.

    ``target`` is a single rational marginal for every edge, or a mapping from
    edge id to its target.  Updates are lambda <- lambda * (target/marginal)
    raised to a step size fit from the previous response on the exact path and
    damped by halving on the sampled path.  Marginals come from the exact path
    below the cap and from chain estimates above it.  ``initial`` warm-starts
    the activities (useful when recalibrating after small edits).
    """
    if graph.m == 0:
        return CalibrationResult({}, {}, 0.0, 0, 0.0, "exact")
    if isinstance(target, Mapping):
        targets = {eid: _as_fraction(t) for eid, t in target.items()}
        if set(targets) != set(range(graph.m)):
            raise ValueError("target mapping must cover exactly the edge ids")
        uniform = len(set(targets.values())) == 1
    else:
        t = _as_fraction(target)
        targets = {eid: t for eid in range(graph.m)}
        uniform = True
    for eid, t in targets.items():
        if not 0 < t < 1:
            raise ValueError(f"target for edge {eid} must lie in (0, 1), got {t}")

    if uniform:
        # Uniform marginals 1/c exist iff chi* < c (strictly inside the
        # matching polytope); the same bound certifies dominated targets.
        from .fractional import chi_star

        t_max = max(targets.values())
        value = chi_star(graph).value
        if value >= 1 / t_max:
            raise InfeasibleTargetError(
                f"marginal target {t_max} needs fractional chromatic index below "
                f"{1 / t_max}, but the graph has chi* = {value}; uniform marginals "
                "1/c are achievable exactly when chi* < c"
            )

    tf = {eid: float(t) for eid, t in targets.items()}
    lam = {eid: tf[eid] / (1.0 - tf[eid]) for eid in range(graph.m)}
    if initial is not None:
        for eid, val in initial.items():
            if eid in lam and math.isfinite(val) and val > 0.0:
                lam[eid] = float(val)

    collapse = _Collapse(graph, lam)
    exact = collapse.m <= (EXACT_CAP if exact_cap is None else exact_cap)
    method = "exact" if exact else "mcmc"
    if tol is None:
        tol = 1e-6 if exact else 1e-2
    chain = chain or ChainConfig()
    if not exact and rng is None:
        rng = stream(chain.seed, "calibrate")
    if exact:
        # Compiled once; each iteration is one forward and one reverse sweep.
        dag = _ZDag(collapse.n, collapse.pairs, collapse.lam)
        root = dag.node(dag.full)

    def marginals_of(acts: dict[int, float]) -> dict[int, float]:
        if not exact:
            return estimate_marginals(HardCoreModel(graph, acts), chain, samples, rng=rng)
        bundle_lam = collapse.bundle_sums(acts)
        dag.evaluate(bundle_lam)
        return collapse.edge_marginals(acts, bundle_lam, dag.bundle_marginals(root))

    exponent = 1.0
    prev_err = math.inf
    prev_prev_err = math.inf
    best_lam = dict(lam)
    best_ach = None
    best_err = math.inf
    iterations = 0
    converged = False
    prev_applied: dict[int, float] = {}
    prev_logmu: dict[int, float] = {}
    logt = {eid: math.log(t) for eid, t in tf.items()}
    for iterations in range(1, max_iters + 1):
        ach = marginals_of(lam)
        logmu = {eid: math.log(max(ach[eid], 1e-300)) for eid in lam}
        err = max(abs(ach[eid] - tf[eid]) for eid in lam)
        if err < best_err:
            best_err = err
            best_lam = dict(lam)
            best_ach = ach
        if err <= tol:
            converged = True
            break
        if exact:
            # Raw updates overshoot near criticality (the map's gain exceeds
            # one), so fit the scalar gain from the previous step's response
            # and take the secant-sized step instead.
            if prev_applied:
                num = sum(
                    (logmu[eid] - prev_logmu[eid]) * prev_applied[eid] for eid in lam
                )
                den = sum(a * a for a in prev_applied.values())
                if den > 0.0 and num / den > 1e-3:
                    exponent = min(4.0, max(1.0 / 64.0, den / num))
        elif err > prev_err > prev_prev_err:
            exponent = max(exponent * 0.5, 1.0 / 64.0)
        prev_prev_err, prev_err = prev_err, err
        applied: dict[int, float] = {}
        for eid in lam:
            # Clamp to four e-folds per pass; a vanishing marginal would
            # otherwise request an overflowing jump in one step.
            step = min(4.0, max(-4.0, exponent * (logt[eid] - logmu[eid])))
            lam[eid] *= math.exp(step)
            applied[eid] = step
        prev_applied = applied
        prev_logmu = logmu

    k_hat = max(best_lam[eid] / tf[eid] for eid in best_lam)
    if best_ach is None:
        best_ach = marginals_of(best_lam)
    result = CalibrationResult(
        activities=best_lam,
        achieved=dict(best_ach),
        max_error=best_err,
        iterations=iterations,
        k_hat=k_hat,
        method=method,
        converged=converged,
    )
    if not converged:
        raise CalibrationError(
            f"calibration stalled at max error {best_err:.3g} after "
            f"{iterations} iterations (tol {tol:.3g})",
            best=result,
        )
    return result


# ---------------------------------------------------------------------------
# Correlation decay


def measure_correlation_decay(
    model: HardCoreModel,
    eid: int,
    t: int,
    trials: int,
    rng: np.random.Generator | None = None,
) -> float:
    """Max over sampled t-distant conditionings Q of |Pr[e in M | Q]/Pr[e in M] - 1|.

    A conditioning freezes the sampled matching outside the t-ball of e's
    endpoints (edges whose endpoints are both at distance >= t).  The
    conditional marginal is computed exactly on the completion subgraph: the
    vertices within distance t minus those saturated by Q, keeping only edges
    with at least one endpoint strictly inside the ball.
    """
    if t < 1:
        raise ValueError("conditioning distance t must be >= 1")
    if trials <= 0:
        raise ValueError("trials must be positive")
    if rng is None:
        rng = stream(0, "decay")
    graph = model.graph
    u0, v0 = graph.endpoints[eid]
    dist = distances_from(graph, (u0, v0))
    far = [
        f
        for f, (a, b) in enumerate(graph.endpoints)
        if (dist[a] >= t or dist[a] < 0) and (dist[b] >= t or dist[b] < 0)
    ]
    base = exact_marginals(model)[eid]
    if not far:
        return 0.0

    far_set = set(far)
    exact_draw = graph.m <= EXACT_SAMPLE_CAP
    if exact_draw:
        # One enumeration serves every draw.
        matchings = _enumerate_host_matchings(graph, range(graph.m))
        weights = np.array(
            [math.prod(model.activities[f] for f in m) for m in matchings]
        )
        cum = np.cumsum(weights / weights.sum())
    worst = 0.0
    seen: set[frozenset[int]] = set()
    for _ in range(trials):
        if exact_draw:
            sample = matchings[int(np.searchsorted(cum, rng.random()))]
        else:
            sample = sample_matching(model, rng=rng)
        frozen = frozenset(f for f in sample if f in far_set)
        if frozen in seen:
            continue
        seen.add(frozen)
        blocked = matched_vertices(graph, frozen)
        region = [
            v for v in range(graph.n) if 0 <= dist[v] <= t and v not in blocked
        ]
        index = {v: i for i, v in enumerate(region)}
        sub_edges = []
        sub_lam = []
        new_eid = None
        for f, (a, b) in enumerate(graph.endpoints):
            if a in index and b in index and min(dist[a], dist[b]) <= t - 1:
                if f == eid:
                    new_eid = len(sub_edges)
                sub_edges.append((index[a], index[b]))
                sub_lam.append(model.activities[f])
        sub = HardCoreModel(Multigraph(len(region), sub_edges), sub_lam)
        assert new_eid is not None
        cond = exact_marginals(sub)[new_eid]
        worst = max(worst, abs(cond / base - 1.0))
    return worst
