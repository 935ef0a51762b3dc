"""Hard-core distributions on matchings.

A model is a multigraph plus a positive activity per edge; it induces
nu(M) proportional to the product of activities over M.  The model holds
its collapsed view: parallel edges form one simple edge whose activity is
the bundle sum.  The collapsed partition function equals the multigraph
one, and a sampled simple edge lifts to a member of its bundle with
probability proportional to the member activity.

Exact work runs on the one DAG a model compiles over its collapsed graph
(``HardCoreModel.dag``; nothing else builds one).  It records the
deletion-contraction recursion, grouped per minimum-degree pivot v,

    Z(G) = Z(G - v) + sum_{e = vu} lambda(e) * Z(G - v - u),

memoized on live-vertex sets and factored over connected components, with
values in log domain filled in as nodes are created.  For new activities, a
forward sweep re-evaluates every node; a reverse sweep then gives every
bundle marginal d log Z / d log lambda at once; a tangent pair of sweeps
gives their covariance, the second derivatives of log Z; and an exact draw
walks the DAG from its root, or from the node of a vertex region for the law
induced there.

Calibration is damped Newton on the convex max-entropy dual
log Z - sum_e t_e log lambda_e, over one activity per class of parallel
edges with a common target, on either path.  Both start at the
activities the tree-exact (Bethe) relation gives for the targets, so a fit
on a forest ends at its start.  The exact path compiles its starting model
once, takes the Hessian from those sweeps and a line search on log Z, and
needs a handful of iterations even near criticality; a target on or outside
the matching polytope's boundary ends it early with CalibrationError.  It
returns the model at the fitted activities, holding that DAG, so a pipeline
draws from the model it calibrated without a second compile.  The chain path takes the gradient
and Hessian from each pass's chain draws, the classes' edge counts, and
stops by default within three standard errors of its sampling noise.

Approximate sampling is a Metropolis chain over matchings of the collapsed
graph with insert / delete / slide proposals, driven by the generator the
caller passes.  How it reads that generator is part of its contract (see
``sample_matching``): the batch size and the order of generator calls within a
batch fix every chain draw, and with them every chain estimate and chain-path
calibration.

A model carries its sampler setting (``SAMPLERS``), and on every call its
DAG holds at most the setting's node budget (``_node_budget``): none under
"chain", ``AUTO_NODE_BUDGET`` under "auto", any number under "exact".  A
compile that would pass it raises CapacityError and keeps the nodes it made
(children first, so they stay valid), so a model that failed once fails
again at once; ``draw_matching``, ``sampler_marginals`` and
``calibrate_activities`` then run the chain.  Under "auto", calibration also
runs it once nodes x bundle slots pass ``AUTO_SWEEP_BUDGET``.
"""
from __future__ import annotations

import itertools
import math
import sys
from bisect import bisect_right
from dataclasses import dataclass, field
from fractions import Fraction
from numbers import Rational
from operator import mul
from typing import Collection, Iterable, Mapping, Sequence

import numpy as np

from .errors import CalibrationError, CapacityError, InfeasibleTargetError
from .fractional import chi_star
from .graphs import Multigraph, distances_from, induced_subgraph, matched_vertices, restrict_edges
from .rng import stream

# Budgets of the exact path under sampler="auto" (see the module docstring).
# On a 2-core x86-64 host under CPython 3.11, a compile costs about 3.7 us
# per node (348,335 nodes of 40 random cubic graphs on 34 vertices in 1.3 s
# of CPU), a covariance sweep about 1 us and 70 bytes per node x slot, and
# a chain draw on 60 collapsed edges 5-10 ms.  20,000 nodes keep random
# cubic graphs on 34 vertices (up to about 18,000 nodes) exact.
AUTO_NODE_BUDGET = 20_000
AUTO_SWEEP_BUDGET = 1_000_000

# Sampler settings; each one's node budget is ``_node_budget``'s.
SAMPLERS = ("auto", "exact", "chain")


class HardCoreModel:
    """A multigraph with one strictly positive, finite activity per edge.

    Parallel edges form bundles: ``pairs`` lists the distinct endpoint pairs
    in sorted order, ``members[s]`` the edge ids of pair s in id order, and
    ``lam[s]`` their summed activity, the activity of pair s in the collapsed
    simple graph.  ``sampler`` (one of ``SAMPLERS``) fixes the node budget of
    the model's DAG, and ``chain_steps`` the steps of any chain run on it.
    """

    def __init__(
        self,
        graph: Multigraph,
        activities: Mapping[int, float] | Sequence[float],
        sampler: str = "exact",
        chain_steps: int | None = None,
    ):
        if sampler not in SAMPLERS:
            raise ValueError(f"unknown sampler {sampler!r}")
        if chain_steps is not None and chain_steps < 0:
            raise ValueError("chain_steps must be non-negative")
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
        bundles: dict[tuple[int, int], list[int]] = {}
        for eid, (u, v) in enumerate(graph.endpoints):
            key = (u, v) if u < v else (v, u)
            bundles.setdefault(key, []).append(eid)
        self.pairs: list[tuple[int, int]] = sorted(bundles)
        self.members: list[list[int]] = [bundles[p] for p in self.pairs]
        self.lam: list[float] = [sum(values[eid] for eid in mem) for mem in self.members]
        # Per bundle, the running sums of its members' activities, left to
        # right: ``_lift_bundle`` bisects them.
        self.cumulative: list[list[float]] = [
            list(itertools.accumulate(values[eid] for eid in mem)) for mem in self.members
        ]
        self.sampler = sampler
        self.chain_steps = chain_steps
        self._dag: _ZDag | None = None
        # Per region the chain has drawn from: the host ids of the induced
        # submodel's edges, and that submodel (``draw_matching``).
        self._regions: dict[frozenset[int], tuple[tuple[int, ...], HardCoreModel]] = {}

    def dag(self) -> "_ZDag":
        """The compiled partition-function DAG, evaluated at these activities,
        under the sampler's node budget (CapacityError: "chain" has none)."""
        if self._dag is None:
            budget = _node_budget(self.sampler)
            if not budget:
                raise CapacityError("the chain sampler compiles no DAG")
            self._dag = _ZDag(self.graph.n, self.pairs, self.lam, budget)
        return self._dag

    def edge_marginals(self, bundle: Sequence[float]) -> dict[int, float]:
        """Split each bundle's marginal over its members in proportion to activity."""
        out = [0.0] * self.graph.m
        for s, mem in enumerate(self.members):
            for eid in mem:
                out[eid] = bundle[s] * self.activities[eid] / self.lam[s]
        return dict(enumerate(out))


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

    The pivot is a minimum-degree vertex of the component, the lowest-
    numbered on ties, so each component carries its degree-one and
    degree-two vertices (its classes) and most pivots cost no scan.  One
    search, ``_compile``, finds the components of every new mask.  A child
    mask (a component less its pivot p, or less p and a neighbour u) takes
    the parent's classes and recounts only its touched vertices, those
    adjacent to p or u; a mask entering through ``node`` (the root, a
    region) counts all its vertices as touched.  Every component holds a
    touched vertex, so one touched vertex means a connected mask, and
    otherwise balls grown from the touched vertices alone find the
    components.  They are compiled in order of their lowest vertex, as in
    ``tests/support.reference_dag``, which pins the DAG node for node.
    """

    def __init__(self, n: int, pairs: Sequence[tuple[int, int]], lam: Sequence[float], budget: int):
        # Keyed by a vertex's single-bit mask: its (neighbour bit, bundle
        # slot) pairs in neighbour order, and the mask of its neighbours.
        nbr: dict[int, list[tuple[int, int]]] = {1 << v: [] for v in range(n)}
        for s, (u, v) in enumerate(pairs):
            nbr[1 << u].append((1 << v, s))
            nbr[1 << v].append((1 << u, s))
        self.nbr: dict[int, tuple[tuple[int, int], ...]] = {}
        self.nbr_mask: dict[int, int] = {}
        for bit, lst in nbr.items():
            lst.sort()
            self.nbr[bit] = tuple(lst)
            self.nbr_mask[bit] = sum(u for u, _ in lst)
        # The bundle slot of each edge, keyed by the mask of its endpoints.
        self.slot_of: dict[int, int] = {(1 << u) | (1 << v): s for s, (u, v) in enumerate(pairs)}
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
        # The most nodes the DAG may hold, fixed for its life: ``_add``
        # raises CapacityError past it.
        self.budget = budget

    @staticmethod
    def mask_of(verts: Iterable[int]) -> int:
        acc = 0
        for v in verts:
            acc |= 1 << v
        return acc

    def log_z(self, mask: int) -> float:
        return self.val[self.node(mask)]

    def node(self, mask: int) -> int:
        got = self.index.get(mask)
        if got is not None:
            return got
        if mask & (mask - 1) == 0:
            return 0
        return self._compile(mask, 0, 0, mask)

    def _add(self, split: bool, kids: tuple[int, ...], slots: tuple[int, ...], value: float) -> int:
        # The budget check comes first, so a stopped compile leaves a valid
        # partial DAG that stops again at its first new node.
        node = len(self.val)
        if node >= self.budget:
            raise CapacityError(f"compiling would take the DAG past {self.budget} nodes")
        self.split.append(split)
        self.kids.append(kids)
        self.slots.append(slots)
        self.val.append(value)
        return node

    def _pivot(self, comp: int) -> int:
        # Minimum degree three or more (the degree classes found none lower):
        # the first degree-three vertex, else the lowest-numbered of least
        # degree.
        best = 0
        best_deg = comp.bit_count()
        nbr_mask = self.nbr_mask
        bits = comp
        while bits:
            low = bits & -bits
            deg = (nbr_mask[low] & comp).bit_count()
            if deg < best_deg:
                if deg == 3:
                    return low
                best, best_deg = low, deg
            bits ^= low
        return best

    def _component(self, comp: int, ones: int, twos: int) -> int:
        """Compile the node of a connected mask of two or more vertices that
        has none yet, given its vertices of degree one and of degree two."""
        index, val, w, nbr_mask = self.index, self.val, self.weight, self.nbr_mask
        # Pivot on a minimum-degree vertex, the lowest-numbered on ties:
        # linear on trees, and it keeps the reachable state family small on
        # sparse graphs.
        if ones:
            # A leaf p has two terms: p unmatched, and p matched to its one
            # neighbour u.
            p = ones & -ones
            u = nbr_mask[p] & comp
            rest = comp ^ p
            k = index.get(rest)
            if k is None:
                if rest & (rest - 1) == 0:
                    k = 0
                else:
                    # u is the one touched vertex, so ``rest`` is connected
                    # and only u is recounted: ``_compile`` without a search.
                    deg = (nbr_mask[u] & rest).bit_count()
                    rest_ones = (ones ^ p) & ~u
                    rest_twos = twos & ~u
                    if deg == 1:
                        rest_ones |= u
                    elif deg == 2:
                        rest_twos |= u
                    k = self._component(rest, rest_ones, rest_twos)
            left = rest ^ u
            k2 = index.get(left)
            if k2 is None:
                k2 = 0 if left & (left - 1) == 0 else self._compile(left, ones, twos, nbr_mask[u] & left)
            s = self.slot_of[p | u]
            kids: tuple[int, ...] = (k, k2)
            slots: tuple[int, ...] = (-1, s)
            # Log-sum-exp of the two terms, as ``evaluate`` computes it.
            a = val[k]
            b = w[s] + val[k2]
            hi = b if b > a else a
            value = hi + math.log(math.exp(a - hi) + math.exp(b - hi))
        else:
            p = twos & -twos if twos else self._pivot(comp)
            rest = comp ^ p
            near = nbr_mask[p] & rest
            k = index.get(rest)
            if k is None:
                k = self._compile(rest, ones, twos, near)
            kid_list = [k]
            slot_list = [-1]
            terms = [val[k]]
            for u, s in self.nbr[p]:
                if near & u:
                    left = rest ^ u
                    k = index.get(left)
                    if k is None:
                        if left & (left - 1):
                            k = self._compile(left, ones, twos, (near | nbr_mask[u]) & left)
                        else:
                            k = 0
                    kid_list.append(k)
                    slot_list.append(s)
                    terms.append(w[s] + val[k])
            kids, slots = tuple(kid_list), tuple(slot_list)
            # Log-sum-exp; the unmatched term is a log Z >= 0, so the
            # maximum is finite.
            hi = max(terms)
            value = hi + math.log(sum([math.exp(t - hi) for t in terms]))
        # ``_add`` inlined, budget check first.
        node = len(val)
        if node >= self.budget:
            raise CapacityError(f"compiling would take the DAG past {self.budget} nodes")
        self.split.append(False)
        self.kids.append(kids)
        self.slots.append(slots)
        val.append(value)
        index[comp] = node
        return node

    def _compile(self, child: int, ones: int, twos: int, touched: int) -> int:
        """Compile the node of ``child``, a mask of two or more vertices that
        has none yet, left by removing vertices from a component whose degree-
        one and degree-two vertices are ``ones`` and ``twos``; ``touched``
        holds the child's vertices adjacent to a removed one (all of a mask
        entering through ``node``, with no classes).  Nodes and index entries
        are ``tests/support.reference_dag``'s, made in the same order."""
        nbr_mask = self.nbr_mask
        keep = child & ~touched
        ones &= keep
        twos &= keep
        # Touched vertices left isolated: singleton components.
        lone = 0
        bits = touched
        while bits:
            low = bits & -bits
            deg = (nbr_mask[low] & child).bit_count()
            if deg == 1:
                ones |= low
            elif deg == 2:
                twos |= low
            elif not deg:
                lone |= low
            bits ^= low
        rest = child ^ lone
        seeds = touched ^ lone
        # Components with an edge, each holding at least one of ``seeds``.
        pieces = []
        while seeds & (seeds - 1):
            a = seeds & -seeds
            b = seeds ^ a
            if b & (b - 1) == 0:
                # Two seeds: grow both balls, the smaller frontier first,
                # until they touch (one component) or one runs out (it is a
                # component, and the other seed's the rest).
                ball_a = front_a = a
                ball_b = front_b = b
                while True:
                    if front_a.bit_count() > front_b.bit_count():
                        ball_a, front_a, ball_b, front_b = ball_b, front_b, ball_a, front_a
                    spread = 0
                    bits = front_a
                    while bits:
                        low = bits & -bits
                        spread |= nbr_mask[low]
                        bits ^= low
                    if spread & ball_b:
                        break
                    front_a = spread & rest & ~ball_a
                    if not front_a:
                        pieces.append(ball_a)
                        rest ^= ball_a
                        break
                    ball_a |= front_a
                break
            # Three or more seeds: grow the lowest one's ball until it holds
            # them all (one component) or runs out (a component).
            ball = front = a
            while seeds & ~ball:
                spread = 0
                bits = front
                while bits:
                    low = bits & -bits
                    spread |= nbr_mask[low]
                    bits ^= low
                front = spread & rest & ~ball
                if not front:
                    break
                ball |= front
            else:
                break
            pieces.append(ball)
            rest ^= ball
            seeds &= ~ball
        if rest:
            if not pieces and not lone:
                return self._component(child, ones, twos)
            pieces.append(rest)
        # Compiled in order of their lowest vertex, as
        # ``tests/support.reference_dag`` does; a split node sums several.
        if len(pieces) > 1:
            pieces.sort(key=lambda c: c & -c)
        index = self.index
        kids = []
        for comp in pieces:
            got = index.get(comp)
            kids.append(self._component(comp, ones & comp, twos & comp) if got is None else got)
        if len(kids) > 1:
            total = 0.0
            for k in kids:
                total += self.val[k]
            node = self._add(True, tuple(kids), (), total)
        else:
            node = kids[0] if kids else 0
        index[child] = node
        return node

    def evaluate(self, lam: Sequence[float]) -> None:
        """Forward sweep: re-evaluate every compiled node at bundle activities ``lam``."""
        w = [math.log(x) for x in lam]
        w.append(0.0)
        if w == self.weight:
            return
        self.weight = w
        self._cum.clear()
        val, split, kids, slots = self.val, self.split, self.kids, self.slots
        exp, log = math.exp, math.log
        for i in range(1, len(val)):
            if split[i]:
                total = 0.0
                for k in kids[i]:
                    total += val[k]
                val[i] = total
            else:
                # Log-sum-exp; the unmatched term is a log Z >= 0, so the
                # maximum is finite.
                ks, ss = kids[i], slots[i]
                if len(ks) == 2:
                    # Most nodes (a degree-one pivot): max and sum of two
                    # terms, as the general branch computes them.
                    a = w[ss[0]] + val[ks[0]]
                    b = w[ss[1]] + val[ks[1]]
                    hi = b if b > a else a
                    val[i] = hi + log(exp(a - hi) + exp(b - hi))
                else:
                    terms = [w[s] + val[k] for k, s in zip(ks, ss)]
                    hi = max(terms)
                    val[i] = hi + log(sum([exp(t - hi) for t in terms]))

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
            is_split = split[i]
            # A split node's term for a component carries its siblings'
            # weight; a component node's term carries its slot's activity.
            # Split nodes have no slots, so their kids stand in for them.
            for k, s in zip(ks, ks if is_split else slots[i]):
                if is_split:
                    c = o + sum([val[j] for j in ks if j != k])
                else:
                    c = o + w[s]
                    if s >= 0:
                        grad[s] += exp(c + val[k] - log_z)
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

    def bundle_covariance(self, root: int) -> list[list[float]]:
        """Cov[s in M, t in M] = d^2 log Z / d log lambda_s d log lambda_t for slots t <= s.

        The derivative of ``bundle_marginals``, by a tangent pair of sweeps
        that carry one vector over the slots per node (the differential
        approach); it adds no node.  A component node's term j has probability
        pi_j = exp(log lambda_{s_j} + val_{k_j} - val_i).  The forward sweep
        gives ``dval[i] = d val_i / d log lambda``: sum_j pi_j (e_{s_j} +
        dval_{k_j}) at a component node, the kids' sum at a split node.  The
        reverse sweep passes flows down from ``root``: node i is reached with
        probability F_i, and term j carries F_i pi_j, whose tangent
        dF_i pi_j + F_i pi_j (e_{s_j} + dval_{k_j} - dval_i) adds into row s_j.
        The sweep carries G_i = dF_i - F_i dval_i in place of dF_i, which
        makes that tangent pi_j G_i + F_i pi_j (e_{s_j} + dval_{k_j}) and a
        kid's share of it pi_j G_i + F_i pi_j e_{s_j}; a split node passes
        G_i + F_i (dval_i - dval_k) to kid k.  Row s is the gradient of
        Pr[s in M], cut to the lower triangle (its first s + 1 entries).
        """
        val, w, split, kids, slots = self.val, self.weight, self.split, self.kids, self.slots
        exp = math.exp
        width = len(w) - 1
        zero = [0.0] * width
        dval: list[list[float]] = [zero] * (root + 1)
        probs: list[list[float]] = [[]] * (root + 1)
        for i in range(1, root + 1):
            ks = kids[i]
            if split[i]:
                acc = dval[ks[0]]
                for k in ks[1:]:
                    acc = [a + b for a, b in zip(acc, dval[k])]
            else:
                v = val[i]
                pis = [exp(w[s] + val[k] - v) for k, s in zip(ks, slots[i])]
                probs[i] = pis
                if len(ks) == 2:
                    # Most nodes (a degree-one pivot): one pass over both kids.
                    p0, p1 = pis
                    acc = [p0 * b + p1 * c for b, c in zip(dval[ks[0]], dval[ks[1]])]
                else:
                    acc = zero
                    for pi, k in zip(pis, ks):
                        acc = [a + pi * b for a, b in zip(acc, dval[k])]
                for pi, s in zip(pis, slots[i]):
                    if s >= 0:
                        acc[s] += pi
            dval[i] = acc
        # Row s keeps columns t <= s: zip stops at its end.
        cov = [[0.0] * (s + 1) for s in range(width)]
        flow = [0.0] * (root + 1)
        outer: list[list[float] | None] = [None] * (root + 1)
        flow[root] = 1.0
        outer[root] = [-x for x in dval[root]]
        for i in range(root, 0, -1):
            g = outer[i]
            if g is None:
                continue
            f = flow[i]
            ks = kids[i]
            if split[i]:
                dv = dval[i]
                for k in ks:
                    flow[k] += f
                    got = outer[k]
                    if got is None:
                        got = zero
                    outer[k] = [a + b + f * (c - d) for a, b, c, d in zip(got, g, dv, dval[k])]
                continue
            for pi, k, s in zip(probs[i], ks, slots[i]):
                fp = f * pi
                if s >= 0:
                    cov[s] = [a + pi * b + fp * c for a, b, c in zip(cov[s], g, dval[k])]
                    cov[s][s] += fp
                if k:
                    flow[k] += fp
                    got = outer[k]
                    got = [pi * b for b in g] if got is None else [a + pi * b for a, b in zip(got, g)]
                    if s >= 0:
                        got[s] += fp
                    outer[k] = got
        return cov

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


def log_partition_function(model: HardCoreModel) -> float:
    """log Z, where Z sums the activity products of all matchings (incl. empty)."""
    dag = model.dag()
    return dag.log_z(dag.full)


def exact_marginals(model: HardCoreModel) -> dict[int, float]:
    """Pr[e in M] for every edge id, from one reverse sweep of the DAG."""
    dag = model.dag()
    return model.edge_marginals(dag.bundle_marginals(dag.node(dag.full)))


# ---------------------------------------------------------------------------
# Sampling


@dataclass(frozen=True)
class ChainConfig:
    """Metropolis chain parameters: the number of steps.

    ``steps=None`` uses the budget 10 * m^2 * ceil(max(lambda', 1)) on the
    collapsed graph with m simple edges and maximum bundle activity lambda'.
    The move mix is fixed (see ``sample_matching``).
    """

    steps: int | None = None

    def __post_init__(self):
        if self.steps is not None and self.steps < 0:
            raise ValueError("steps must be non-negative")


def default_steps(model: HardCoreModel) -> int:
    m = len(model.pairs)
    return 10 * m * m * max(1, math.ceil(max(model.lam, default=1.0)))


def _lift_bundle(model: HardCoreModel, s: int, rng) -> int:
    """Thin a chosen bundle to one of its host edges, by activity weight:
    the first member whose running activity sum exceeds a uniform draw
    scaled by the bundle's activity."""
    members = model.members[s]
    if len(members) == 1:
        return members[0]
    pos = bisect_right(model.cumulative[s], rng.random() * model.lam[s])
    return members[min(pos, len(members) - 1)]


def sample_matching(
    model: HardCoreModel,
    cfg: ChainConfig | None = None,
    *,
    rng: np.random.Generator,
) -> frozenset[int]:
    """Approximate sample from the model via the Metropolis chain.

    The chain starts from the empty matching on the collapsed simple graph
    and proposes insert, delete and slide moves with probabilities 0.4, 0.4
    and 0.2; the result is lifted to host edge ids.

    Stream contract: the steps run in batches of 8192 (the last one
    shorter), and each batch calls ``rng.random(k)`` for the moves,
    ``rng.integers(0, ms, size=k)`` for the proposed edges and
    ``rng.random(k)`` for the acceptance tests, in that order; then each
    chosen bundle with more than one member takes one ``rng.random()`` for
    its lift.  A model without edges consumes nothing.  Changing the batch
    size or the order of these calls changes every chain draw.
    """
    cfg = cfg or ChainConfig()
    ms = len(model.pairs)
    if ms == 0:
        return frozenset()
    steps = cfg.steps if cfg.steps is not None else default_steps(model)

    in_m = [False] * ms
    partner = [-1] * model.graph.n
    lam = model.lam
    inv = [1.0 / a for a in lam]
    us = [u for u, _ in model.pairs]
    vs = [v for _, v in model.pairs]

    done = 0
    batch = 8192
    while done < steps:
        k = min(batch, steps - done)
        done += k
        move_r = rng.random(k).tolist()
        picks = rng.integers(0, ms, size=k).tolist()
        accept_r = rng.random(k).tolist()
        for r, e, x in zip(move_r, picks, accept_r):
            if r < 0.4:  # insert
                if not in_m[e]:
                    u = us[e]
                    v = vs[e]
                    if partner[u] < 0 and partner[v] < 0:
                        a = lam[e]
                        if a >= 1.0 or x < a:
                            in_m[e] = True
                            partner[u] = e
                            partner[v] = e
            elif r < 0.8:  # delete
                if in_m[e]:
                    a = inv[e]
                    if a >= 1.0 or x < a:
                        in_m[e] = False
                        partner[us[e]] = -1
                        partner[vs[e]] = -1
            elif not in_m[e]:  # slide
                u = us[e]
                v = vs[e]
                pu = partner[u]
                pv = partner[v]
                if (pu >= 0) != (pv >= 0):
                    f = pu if pu >= 0 else pv
                    a = lam[e] / lam[f]
                    if a >= 1.0 or x < a:
                        in_m[f] = False
                        partner[us[f]] = -1
                        partner[vs[f]] = -1
                        in_m[e] = True
                        partner[u] = e
                        partner[v] = e

    return frozenset(_lift_bundle(model, e, rng) for e in range(ms) if in_m[e])


def sample_matching_recursive(
    model: HardCoreModel,
    rng: np.random.Generator,
    region: Collection[int] | None = None,
) -> frozenset[int]:
    """Exact draw by walking the model's compiled partition-function DAG.

    Costs one compile on first use and cheap walks after.  With
    ``region`` (a set of the model's vertices) the draw comes from the law
    induced on those vertices, by a walk from the region's node; nodes not
    yet compiled are added on demand.  The region's node orders pivots,
    components, neighbours and bundle members as the induced submodel's root
    would, so the draw equals that submodel's under the same stream.  Chosen
    pairs are thinned to host edges in proportion to their activities.  A
    region vertex outside the graph raises ValueError before any random
    number is taken.
    """
    dag = model.dag()
    if region is None:
        mask = dag.full
    else:
        try:
            mask = dag.mask_of(region)
        except ValueError:  # a negative shift: a negative vertex
            mask = -1
        if mask & ~dag.full:
            bad = next(v for v in region if not 0 <= v < model.graph.n)
            raise ValueError(f"vertex {bad} out of range")
    root = dag.node(mask)
    slots = dag.sample(root, rng)
    return frozenset(_lift_bundle(model, s, rng) for s in slots)


def _node_budget(sampler: str) -> int:
    """The most nodes a model's DAG may hold under its sampler setting: none
    for "chain", ``AUTO_NODE_BUDGET`` for "auto", any number for "exact"."""
    return {"chain": 0, "auto": AUTO_NODE_BUDGET}.get(sampler, sys.maxsize)


def draw_matching(
    model: HardCoreModel, rng: np.random.Generator, region: frozenset[int] | None = None
) -> frozenset[int]:
    """One hard-core draw from ``model``, or from its law induced on ``region``.

    The exact path walks the model's DAG from the region's node
    (``sample_matching_recursive``).  When compiling that node would pass the
    model's node budget, the chain runs ``model.chain_steps`` steps on the
    model itself, or on the submodel induced on the region, built once per
    model and region.  A failed walk takes no random number, because it
    starts only once its root is compiled.
    """
    try:
        return sample_matching_recursive(model, rng, region)
    except CapacityError:
        chain = ChainConfig(steps=model.chain_steps)
    if region is None:
        return sample_matching(model, chain, rng=rng)
    key = frozenset(region)
    got = model._regions.get(key)
    if got is None:
        sub = induced_subgraph(model.graph, key)
        submodel = HardCoreModel(sub.graph, [model.activities[h] for h in sub.edge_ids])
        got = model._regions[key] = (sub.edge_ids, submodel)
    edge_ids, submodel = got
    return frozenset(edge_ids[j] for j in sample_matching(submodel, chain, rng=rng))


def sampler_marginals(
    model: HardCoreModel, samples: int, rng: np.random.Generator
) -> tuple[dict[int, float], bool]:
    """Every edge's marginal and whether the values are chain estimates.

    Exact from the DAG's reverse sweep (``exact_marginals``) when the DAG fits
    the model's node budget; otherwise occupancy frequencies over ``samples``
    chain runs of ``model.chain_steps`` steps (``estimate_marginals``).
    """
    try:
        return exact_marginals(model), False
    except CapacityError:
        chain = ChainConfig(steps=model.chain_steps)
    return estimate_marginals(model, chain, samples, rng=rng), True


def estimate_marginals(
    model: HardCoreModel,
    cfg: ChainConfig,
    samples: int,
    *,
    rng: np.random.Generator,
) -> dict[int, float]:
    """Per-edge occupancy frequencies over independent chain runs."""
    if samples <= 0:
        raise ValueError("samples must be positive")
    counts = [0] * model.graph.m
    for _ in range(samples):
        for eid in sample_matching(model, cfg, rng=rng):
            counts[eid] += 1
    return {eid: counts[eid] / samples for eid in range(model.graph.m)}


# ---------------------------------------------------------------------------
# Calibration


@dataclass
class CalibrationResult:
    """A fit's per-edge activities and achieved marginals.

    ``model`` is the hard-core model at the fitted activities, under the
    fit's sampler setting.  On the exact path it holds the fit's compiled
    DAG, evaluated at those activities, so drawing from it or reading its
    marginals compiles nothing.
    """

    activities: dict[int, float]
    achieved: dict[int, float]
    max_error: float
    iterations: int
    k_hat: float
    method: str
    model: HardCoreModel = field(repr=False, compare=False)
    converged: bool = True


def _as_fraction(x) -> Fraction:
    if isinstance(x, Rational):
        return Fraction(x)
    # Decimal reading of a float literal: 0.025 means 1/40, not its binary blob.
    try:
        return Fraction(str(x))
    except ZeroDivisionError:
        raise ValueError(f"target {x!r} has a zero denominator") from None


# A fit's best activities, their marginals, its max error, its iteration
# count, and why it stopped short (None when it converged).  A fit allowed
# no iteration reports its start and the error measured there.
_Fit = tuple[list[float], list[float], float, int, str | None]
_CAP_REACHED = "the iteration cap was reached"
_SINGULAR = (
    "the dual's Hessian is not positive definite: the target lies on or outside "
    "the matching polytope's boundary"
)
_DIVERGED = "an activity would leave [1e-200, 1e200]: the target lies outside the matching polytope"
_NO_DESCENT = "no step along the Newton direction decreases the dual"


def _cholesky(h: list[list[float]]) -> list[list[float]] | None:
    """Lower Cholesky factor of a symmetric matrix given by its lower
    triangle, or None when a pivot is not positive (h not numerically
    positive definite)."""
    low: list[list[float]] = []
    for row in h:
        li: list[float] = []
        for lj, x in zip(low, row):
            li.append((x - sum(map(mul, li, lj))) / lj[-1])
        d = row[len(li)] - sum(map(mul, li, li))
        if not d > 0.0:
            return None
        li.append(math.sqrt(d))
        low.append(li)
    return low


def _cho_solve(low: list[list[float]], b: list[float]) -> list[float]:
    """Solve L L^T x = b by forward and back substitution."""
    y: list[float] = []
    for li, x in zip(low, b):
        y.append((x - sum(map(mul, li, y))) / li[-1])
    n = len(y)
    out = [0.0] * n
    for i in range(n - 1, -1, -1):
        out[i] = (y[i] - sum([low[j][i] * out[j] for j in range(i + 1, n)])) / low[i][i]
    return out


class _ExactDual:
    """The dual on the fit's compiled DAG: class marginals by a forward and a
    reverse sweep, log Z by a forward sweep, and the exact Hessian W C W^T +
    diag(W p) - (W o p) W^T, where W_cs = n_c a_c / lambda_s for s =
    slot[c], p holds the bundle marginals and C their covariance
    (``bundle_covariance``).  Classes are numbered in bundle order, so H's
    lower triangle reads C's, and ``seqs[s]`` lists bundle s's classes in
    member order, so bundle sums add the same floats as a per-edge sum."""

    def __init__(self, dag: _ZDag, root: int, seqs: list[list[int]], slot: list[int], counts: list[int]):
        self.dag, self.root, self.seqs, self.slot, self.counts = dag, root, seqs, slot, counts
        # Classes of each bundle, for the bundle-local terms of H.
        self.peers: list[list[int]] = [[] for _ in seqs]
        for c, s in enumerate(slot):
            self.peers[s].append(c)

    def log_z(self, acts: list[float]) -> float:
        self.lam = [sum(map(acts.__getitem__, seq)) for seq in self.seqs]
        self.dag.evaluate(self.lam)
        return self.dag.val[self.root]

    def measure(self, acts: list[float]) -> list[float]:
        self.log_z(acts)
        self.p = p = self.dag.bundle_marginals(self.root)
        return [p[s] * a / self.lam[s] for s, a in zip(self.slot, acts)]

    def hessian(self, acts: list[float]) -> list[list[float]]:
        slot, lam, p = self.slot, self.lam, self.p
        cov = self.dag.bundle_covariance(self.root)
        wc = [n * a / lam[s] for n, a, s in zip(self.counts, acts, slot)]
        hess = []
        for c, s in enumerate(slot):
            w = wc[c]
            cs = cov[s]
            row = [w * cs[sd] * wd for sd, wd in zip(slot[: c + 1], wc)]
            for d in self.peers[s]:
                if d <= c:
                    row[d] -= w * wc[d] * p[s]
            row[c] += w * p[s]
            hess.append(row)
        return hess


class _ChainDual:
    """The dual from ``samples`` chain draws per point, made by the calls
    ``estimate_marginals`` makes: a class's marginal is its mean count of
    drawn edges per member, and the Hessian is the counts' sample covariance
    plus a 1/samples ridge on its diagonal, so it is positive definite.
    log Z is unknown."""

    log_z = None

    def __init__(
        self, graph: Multigraph, cls: list[int], counts: list[int], chain: ChainConfig,
        samples: int, rng: np.random.Generator,
    ):
        self.graph, self.cls, self.counts = graph, cls, counts
        self.chain, self.samples, self.rng = chain, samples, rng

    def measure(self, acts: list[float]) -> list[float]:
        model = HardCoreModel(self.graph, [acts[c] for c in self.cls])
        self.drawn = np.zeros((self.samples, len(acts)))
        for row in self.drawn:
            for eid in sample_matching(model, self.chain, rng=self.rng):
                row[self.cls[eid]] += 1.0
        return (self.drawn.mean(axis=0) / self.counts).tolist()

    def hessian(self, acts: list[float]) -> list[list[float]]:
        dev = self.drawn - self.drawn.mean(axis=0)
        cov = (dev.T @ dev + np.eye(len(acts))) / self.samples
        return [row[: c + 1] for c, row in enumerate(cov.tolist())]


def _newton_fit(
    dual: _ExactDual | _ChainDual, acts: list[float], tc: list[float], tol: float, max_iters: int
) -> _Fit:
    """Damped Newton on the max-entropy dual over per-class activities.

    Class c holds ``dual.counts[c]`` host edges, each at activity a_c and
    target t_c.  With theta_c = log a_c the fit minimizes the convex F(theta)
    = log Z - sum_c n_c t_c theta_c, whose gradient is g_c = n_c (mu_c - t_c)
    and whose Hessian is the covariance of the classes' edge counts in the
    matching; ``dual`` measures both.  Each iteration solves H d = -g and
    scales d down to at most four e-folds per class.  Where ``dual`` knows
    log Z, d is halved until F falls by the Armijo fraction, and once within
    ``tol`` one more step on the last Cholesky factor (no new covariance)
    takes the fit close to round-off; the better of the two points is kept.
    Otherwise (the chain) d is taken whole, and the fit ends at ``tol``.

    The fit stops short, unconverged, when H is not numerically positive
    definite, no halving decreases F, or an activity would leave
    [1e-200, 1e200]: each means the target sits on or outside the matching
    polytope's boundary, where the optimum lies at infinity.  Iterations
    count the points whose marginals were measured; backtracking trials
    are not counted.
    """
    counts = dual.counts
    log, exp = math.log, math.exp
    lin = [n * t for n, t in zip(counts, tc)]
    best_acts = acts
    best_ach = None
    best_err = math.inf
    low = None
    iterations = 0

    def newton_step(low: list[list[float]], grad: list[float]) -> list[float]:
        step = _cho_solve(low, [-g for g in grad])
        big = max(map(abs, step))
        return [d * (4.0 / big) for d in step] if big > 4.0 else step

    def measure(acts: list[float]) -> tuple[list[float], float]:
        ach = dual.measure(acts)
        return ach, max([abs(a - t) for a, t in zip(ach, tc)])

    for iterations in range(1, max_iters + 1):
        ach, err = measure(acts)
        if err < best_err:
            best_err, best_acts, best_ach = err, acts, ach
        grad = [n * m - x for n, m, x in zip(counts, ach, lin)]
        if err <= tol:
            if dual.log_z is not None and low is not None and iterations < max_iters:
                iterations += 1
                acts = [a * exp(d) for a, d in zip(acts, newton_step(low, grad))]
                ach, err = measure(acts)
                if err < best_err:
                    best_err, best_acts, best_ach = err, acts, ach
            return best_acts, best_ach, best_err, iterations, None
        # ``hessian`` reads the sweeps or draws of the last ``measure``.
        low = _cholesky(dual.hessian(acts))
        if low is None:
            return best_acts, best_ach, best_err, iterations, _SINGULAR
        step = newton_step(low, grad)
        if any(not 1e-200 <= a * exp(d) <= 1e200 for a, d in zip(acts, step)):
            return best_acts, best_ach, best_err, iterations, _DIVERGED
        if dual.log_z is None:
            acts = [a * exp(d) for a, d in zip(acts, step)]
            continue
        theta = [log(a) for a in acts]
        log_z = dual.log_z(acts)
        f0 = log_z - sum([x * y for x, y in zip(lin, theta)])
        slope = sum([g * d for g, d in zip(grad, step)])
        # Round-off in F, which a nearly converged step can fall within.
        slack = 1e-13 * (log_z + sum([abs(x * y) for x, y in zip(lin, theta)]))
        t = 1.0
        for _ in range(40):
            trial = [a * exp(t * d) for a, d in zip(acts, step)]
            f = dual.log_z(trial) - sum([x * (y + t * d) for x, y, d in zip(lin, theta, step)])
            if f <= f0 + 1e-4 * t * slope + slack:
                acts = trial
                break
            t *= 0.5
        else:
            return best_acts, best_ach, best_err, iterations, _NO_DESCENT
    if best_ach is None:
        best_ach, best_err = measure(acts)
    return best_acts, best_ach, best_err, iterations, _CAP_REACHED


def calibrate_activities(
    graph: Multigraph,
    target,
    tol: float | None = None,
    max_iters: int = 500,
    chain: ChainConfig | None = None,
    samples: int = 400,
    sampler: str = "auto",
    rng: np.random.Generator | None = None,
) -> CalibrationResult:
    """Fit activities to marginal targets.

    ``target`` is a single rational marginal for every edge, or a mapping from
    edge id to its target.  Marginals come from the exact path when the
    starting model's DAG fits ``sampler``'s node budget (``_node_budget``)
    and, under "auto", its nodes times bundle slots fit ``AUTO_SWEEP_BUDGET``
    (the tangent sweep keeps a slot-wide vector per node); otherwise from
    chain estimates.  The fitted model carries ``sampler`` and ``chain``'s
    step count.

    Both paths start at the Bethe activities t_e (1 - t_s) / ((1 - T_u)(1 - T_v))
    for e = uv, where t_s is the summed target of e's bundle and T_u that
    of u's edges: the tree-exact relation between activities and marginals
    (Yedidia, Freeman & Weiss, IEEE Trans. Inf. Theory 2005).  On a forest
    the fit ends at its first point; on sparse graphs the start lands
    close.  Where some vertex load T_u is 1 or more, every edge starts at
    t_e / (1 - t_e), and a target on or outside the polytope still ends in
    CalibrationError.

    Both paths run damped Newton on the convex max-entropy dual
    log Z - sum_e t_e log lambda_e (``_newton_fit``) over classes: parallel
    edges with the same target, which start alike and whose marginals and
    updates agree, share one activity.  The exact path measures the dual on
    the compiled DAG (``_ExactDual``) and takes a handful of iterations, even
    near criticality.  The chain path measures it from ``samples`` chain
    draws per pass (``_ChainDual``) and reports each class's mean marginal;
    its default ``tol`` is three standard errors of one edge's estimate,
    3 max_e sqrt(t_e (1 - t_e) / samples), since a tighter tol is below the
    noise and is never met.  Either way ``iterations`` counts the points
    whose marginals were measured.

    Uniform targets are checked against chi* first (memoized, so a caller
    that just measured the graph pays nothing) and raise
    InfeasibleTargetError.  A fit that ends above ``tol`` raises
    CalibrationError carrying its best point and saying why it stopped; on
    the exact path a target on or outside the matching polytope's boundary
    ends it early, once the dual's Hessian degenerates.
    """
    if max_iters < 0:
        raise ValueError("max_iters must be non-negative")
    chain = chain or ChainConfig()
    if graph.m == 0:
        empty = HardCoreModel(graph, [], sampler, chain.steps)
        return CalibrationResult({}, {}, 0.0, 0, 0.0, "exact", empty)
    # ``common`` is the one target all edges share, or None.
    if isinstance(target, Mapping):
        targets = {eid: _as_fraction(t) for eid, t in target.items()}
        if set(targets) != set(range(graph.m)):
            raise ValueError("target mapping must cover exactly the edge ids")
        for eid, t in targets.items():
            if not 0 < t < 1:
                raise ValueError(f"target for edge {eid} must lie in (0, 1), got {t}")
        distinct = set(targets.values())
        common = distinct.pop() if len(distinct) == 1 else None
        tf = {eid: float(t) for eid, t in targets.items()}
    else:
        common = _as_fraction(target)
        if not 0 < common < 1:
            raise ValueError(f"target for edge 0 must lie in (0, 1), got {common}")
        tf = dict.fromkeys(range(graph.m), float(common))

    if common is not None:
        # Uniform marginals 1/c exist iff chi* < c (strictly inside the
        # matching polytope); the same bound certifies dominated targets.
        value = chi_star(graph).value
        if value >= 1 / common:
            raise InfeasibleTargetError(
                f"marginal target {common} needs fractional chromatic index below "
                f"{1 / common}, but the graph has chi* = {value}; uniform marginals "
                "1/c are achievable exactly when chi* < c"
            )

    lam = {eid: tf[eid] / (1.0 - tf[eid]) for eid in range(graph.m)}
    # The Bethe start needs every vertex load T_v, the summed target of v's
    # edges, below 1.
    load = [sum(map(tf.__getitem__, ids)) for ids in graph.incidence]
    if max(load) < 1.0:
        pairs = [(min(uv), max(uv)) for uv in graph.endpoints]
        bundle = dict.fromkeys(pairs, 0.0)
        for eid, pair in enumerate(pairs):
            bundle[pair] += tf[eid]
        for eid, (u, v) in enumerate(pairs):
            lam[eid] = tf[eid] * (1.0 - bundle[u, v]) / ((1.0 - load[u]) * (1.0 - load[v]))

    start = HardCoreModel(graph, lam, sampler, chain.steps)
    # Compiled once; each exact iteration sweeps it (``_ExactDual``).
    try:
        dag = start.dag()
        root = dag.node(dag.full)
        exact = sampler != "auto" or len(dag.val) * len(start.pairs) <= AUTO_SWEEP_BUDGET
    except CapacityError:
        exact = False
    method = "exact" if exact else "mcmc"
    if not exact and samples <= 0:
        raise ValueError("samples must be positive")
    if tol is None:
        tol = 1e-6 if exact else 3.0 * max(math.sqrt(t * (1.0 - t) / samples) for t in tf.values())
    if not exact and rng is None:
        rng = stream(0, "calibrate")

    # ``cls`` maps each host edge to its class, numbered in ``ids`` by
    # (bundle, target) in order of first member, whose start ``acts`` holds.
    cls = [0] * graph.m
    ids: dict[tuple[int, float], int] = {}
    acts: list[float] = []
    for s, mem in enumerate(start.members):
        for eid in mem:
            if (s, tf[eid]) not in ids:
                ids[s, tf[eid]] = len(acts)
                acts.append(lam[eid])
            cls[eid] = ids[s, tf[eid]]
    counts = np.bincount(cls).tolist()
    slot = [s for s, _ in ids]
    tc = [t for _, t in ids]
    if exact:
        # Each bundle's member classes, in member order: bundle sums add up
        # the same floats in the same order as a per-edge sum.
        seqs = [[cls[eid] for eid in mem] for mem in start.members]
        dual: _ExactDual | _ChainDual = _ExactDual(dag, root, seqs, slot, counts)
    else:
        dual = _ChainDual(graph, cls, counts, chain, samples, rng)
    fit = _newton_fit(dual, acts, tc, tol, max_iters)
    best_acts, best_ach, best_err, iterations, stall = fit
    converged = stall is None

    k_hat = max([a / t for a, t in zip(best_acts, tc)])
    model = HardCoreModel(graph, [best_acts[c] for c in cls], sampler, chain.steps)
    if exact:
        # The fit's DAG becomes the fitted model's.  The forward sweep (a no-op
        # when the last iteration was the best) gives a fresh compile's values.
        dag.evaluate(model.lam)
        model._dag = dag
    result = CalibrationResult(
        activities={eid: best_acts[c] for eid, c in enumerate(cls)},
        achieved={eid: best_ach[c] for eid, c in enumerate(cls)},
        max_error=best_err,
        iterations=iterations,
        k_hat=k_hat,
        method=method,
        model=model,
        converged=converged,
    )
    if not converged:
        raise CalibrationError(
            f"calibration stalled at max error {best_err:.3g} after "
            f"{iterations} iterations (tol {tol:.3g}): {stall}",
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
    with at least one endpoint strictly inside the ball.  Everything is
    exact, at any size: the matchings behind Q are walks of the model's
    compiled DAG.
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

    # The edges with an endpoint strictly inside the ball, which every
    # completion subgraph keeps between its unblocked vertices.
    near, near_ids = restrict_edges(
        graph, [f for f, (a, b) in enumerate(graph.endpoints) if 0 <= min(dist[a], dist[b]) < t]
    )
    far_set = set(far)
    worst = 0.0
    seen: set[frozenset[int]] = set()
    for _ in range(trials):
        sample = sample_matching_recursive(model, rng)
        frozen = frozenset(f for f in sample if f in far_set)
        if frozen in seen:
            continue
        seen.add(frozen)
        blocked = matched_vertices(graph, frozen)
        sub = induced_subgraph(
            near, [v for v in range(graph.n) if 0 <= dist[v] <= t and v not in blocked]
        )
        host = [near_ids[j] for j in sub.edge_ids]
        cond = exact_marginals(HardCoreModel(sub.graph, [model.activities[f] for f in host]))
        worst = max(worst, abs(cond[host.index(eid)] / base - 1.0))
    return worst
