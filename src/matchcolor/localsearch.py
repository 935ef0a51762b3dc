"""Flaw-driven local search with measure-based verification tools.

The search walks a state space: while any flaw is present, address the one of
highest fixed priority with its (randomized) repair action, up to a step cap.

For enumerable spaces the module can also evaluate, exactly, the quantities
that certify convergence of such walks against a background measure mu:

* the charge of a flaw f with action kernel rho,

      gamma_f = max_tau sum_{sigma in f} mu(sigma) * rho(sigma, tau) / mu(tau),

  together with its factorization gamma_f = d_f * mu(f) through the
  distortion d_f = max_tau nu_f(tau)/mu(tau) of the addressing distribution;
* the asymmetric condition gamma_i <= (1 - eps) x_i prod_{j in G(i)} (1 - x_j)
  over a causality graph G, and its symmetric surrogate;
* exact commutation of action operators A_i (rows rho_i(sigma, .) on f_i,
  zero elsewhere);
* the lopsidependency bound mu(f_i | intersection of complements) <= gamma_i
  for flaw sets outside G(i).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Any, Callable, Hashable, Mapping, Sequence

import numpy as np

from .errors import LocalSearchError

DEFAULT_STEP_CAP = 10**6
MATRIX_TOL = 1e-12


@dataclass(frozen=True)
class Flaw:
    """A present flaw instance: what it is, where it lives, how to repair it."""

    kind: str
    key: Hashable
    footprint: frozenset
    address: Callable[[Any, np.random.Generator], Any]


@dataclass(frozen=True)
class FlawSpec:
    """A member of a static flaw family, with optional exact action kernel."""

    name: str
    detect: Callable[[Any], bool]
    address: Callable[[Any, np.random.Generator], Any]
    footprint: frozenset = frozenset()
    kernel: Callable[[Any], Mapping[Any, float]] | None = None


@dataclass(frozen=True)
class TraceRecord:
    step: int
    kind: str
    key: Any
    footprint_size: int


@dataclass
class RunTrace:
    steps: int
    addressed: list[TraceRecord]
    flawless: bool
    final_state: Any

    def counts_by_kind(self) -> dict[str, int]:
        out: dict[str, int] = {}
        for rec in self.addressed:
            out[rec.kind] = out.get(rec.kind, 0) + 1
        return out

    def jsonl_records(self) -> list[dict]:
        return [
            {
                "step": rec.step,
                "flaw": str(rec.key),
                "kind": rec.kind,
                "footprint": rec.footprint_size,
            }
            for rec in self.addressed
        ]


def _resolve_cap(step_cap: int | None, report: "ChargeReport | None") -> int:
    if step_cap is not None:
        return step_cap
    if report is not None and report.t0 is not None and report.epsilon:
        return max(1, math.ceil((report.t0 + 64) / report.epsilon))
    return DEFAULT_STEP_CAP


def run_with_selector(
    initial: Any,
    select: Callable[[Any], Flaw | None],
    rng: np.random.Generator,
    step_cap: int | None = None,
    charge_report: "ChargeReport | None" = None,
) -> RunTrace:
    """Drive the search with a dynamic selector returning the top-priority flaw."""
    cap = _resolve_cap(step_cap, charge_report)
    state = initial
    addressed: list[TraceRecord] = []
    for step in range(1, cap + 1):
        flaw = select(state)
        if flaw is None:
            return RunTrace(step - 1, addressed, True, state)
        state = flaw.address(state, rng)
        addressed.append(TraceRecord(step, flaw.kind, flaw.key, len(flaw.footprint)))
    if select(state) is None:
        return RunTrace(cap, addressed, True, state)
    raise LocalSearchError(
        f"step cap {cap} exhausted with flaws remaining",
        trace=RunTrace(cap, addressed, False, state),
    )


def run_local_search(
    initial: Any,
    flaws: Sequence[FlawSpec],
    rng: np.random.Generator,
    step_cap: int | None = None,
    charge_report: "ChargeReport | None" = None,
    full_rescan_every: int = 1024,
) -> RunTrace:
    """Static-priority search over a fixed flaw list (priority = list order).

    After addressing flaw i only flaws whose footprints intersect i's are
    re-tested; a full rescan runs every ``full_rescan_every`` steps as a
    safety net.
    """
    cap = _resolve_cap(step_cap, charge_report)
    touches: list[list[int]] = [[] for _ in flaws]
    for i, a in enumerate(flaws):
        for j, b in enumerate(flaws):
            if i != j and (a.footprint & b.footprint):
                touches[i].append(j)
    status: list[bool | None] = [None] * len(flaws)
    state = initial
    addressed: list[TraceRecord] = []
    for step in range(1, cap + 1):
        if step % full_rescan_every == 0:
            status = [None] * len(flaws)
        hit = None
        for i, spec in enumerate(flaws):
            if status[i] is None:
                status[i] = bool(spec.detect(state))
            if status[i]:
                hit = i
                break
        if hit is None:
            return RunTrace(step - 1, addressed, True, state)
        spec = flaws[hit]
        state = spec.address(state, rng)
        addressed.append(TraceRecord(step, spec.name, spec.name, len(spec.footprint)))
        status[hit] = None
        for j in touches[hit]:
            status[j] = None
    if all(not spec.detect(state) for spec in flaws):
        return RunTrace(cap, addressed, True, state)
    raise LocalSearchError(
        f"step cap {cap} exhausted with flaws remaining",
        trace=RunTrace(cap, addressed, False, state),
    )


# ---------------------------------------------------------------------------
# Causality structure


@dataclass(frozen=True)
class CausalityGraph:
    """Symmetric flaw adjacency; neighborhoods exclude the flaw itself."""

    neighbors: Mapping[str, frozenset[str]]

    def __post_init__(self):
        for name, nbrs in self.neighbors.items():
            if name in nbrs:
                raise ValueError(f"flaw {name!r} listed in its own neighborhood")
            for other in nbrs:
                if name not in self.neighbors.get(other, frozenset()):
                    raise ValueError(f"asymmetric adjacency between {name!r} and {other!r}")

    def max_degree(self) -> int:
        return max((len(v) for v in self.neighbors.values()), default=0)


def causality_from_footprints(flaws: Sequence[FlawSpec]) -> CausalityGraph:
    """Adjacency by footprint intersection (a sound superset of true causality
    whenever actions only read and write inside their footprints)."""
    nbrs = {
        a.name: frozenset(
            b.name for b in flaws if b.name != a.name and (a.footprint & b.footprint)
        )
        for a in flaws
    }
    return CausalityGraph(nbrs)


# ---------------------------------------------------------------------------
# Charges


@dataclass
class ChargeReport:
    charges: dict[str, float]
    distortions: dict[str, float]
    flaw_mass: dict[str, float]
    identity_gap: float
    x: dict[str, float] | None = None
    epsilon: float | None = None
    t0: float | None = None
    condition_holds: bool | None = None


def estimate_charges_exact(
    flaws: Sequence[FlawSpec], mu: Mapping[Any, float]
) -> ChargeReport:
    """Exact charges on an enumerated space with explicit measure mu.

    Each charge is computed two ways: directly from the displayed formula, and
    as distortion times flaw mass; ``identity_gap`` is the worst disagreement.
    """
    total = sum(mu.values())
    if not math.isclose(total, 1.0, rel_tol=0, abs_tol=1e-9):
        raise ValueError(f"measure mass is {total}, expected 1")
    charges: dict[str, float] = {}
    distortions: dict[str, float] = {}
    masses: dict[str, float] = {}
    gap = 0.0
    for spec in flaws:
        if spec.kernel is None:
            raise ValueError(f"flaw {spec.name!r} has no exact kernel")
        flow: dict[Any, float] = {}
        mass = 0.0
        for sigma, p_sigma in mu.items():
            if not spec.detect(sigma):
                continue
            mass += p_sigma
            row = spec.kernel(sigma)
            row_sum = sum(row.values())
            if abs(row_sum - 1.0) > 1e-9:
                raise ValueError(
                    f"kernel row of {spec.name!r} at {sigma!r} sums to {row_sum}"
                )
            for tau, p in row.items():
                if p < 0:
                    raise ValueError(f"negative kernel entry for {spec.name!r}")
                if p > 0:
                    flow[tau] = flow.get(tau, 0.0) + p_sigma * p
        if mass == 0.0:
            charges[spec.name] = 0.0
            distortions[spec.name] = 1.0
            masses[spec.name] = 0.0
            continue
        gamma = 0.0
        distortion = 0.0
        for tau, f in flow.items():
            p_tau = mu.get(tau, 0.0)
            if p_tau <= 0.0:
                raise ValueError(
                    f"action of {spec.name!r} reaches a state outside the support of mu"
                )
            gamma = max(gamma, f / p_tau)
            distortion = max(distortion, (f / mass) / p_tau)
        charges[spec.name] = gamma
        distortions[spec.name] = distortion
        masses[spec.name] = mass
        gap = max(gap, abs(gamma - distortion * mass))
    return ChargeReport(charges, distortions, masses, gap)


@dataclass(frozen=True)
class ConditionCheck:
    holds: bool
    margin: float
    symmetric_holds: bool
    t0: float


def check_lll_condition(
    report: ChargeReport,
    graph: CausalityGraph,
    x: Mapping[str, float] | None = None,
    epsilon: float = 0.0,
    theta_mu_ratio: float = 1.0,
) -> ConditionCheck:
    """Evaluate gamma_i <= (1 - eps) x_i prod_{j in G(i)} (1 - x_j) and the
    symmetric surrogate gamma_max * (1 + max|G|) * e <= 1 - eps.

    Defaults: uniform x = 1/(1 + max degree).  Fills the report's x, epsilon,
    T0 = log2(theta/mu ratio) + sum_j log2(1/(1 - x_j)), and condition flag.
    """
    if x is None:
        uniform = 1.0 / (1.0 + graph.max_degree())
        x = {name: uniform for name in report.charges}
    for name, val in x.items():
        if not 0.0 < val < 1.0:
            raise ValueError(f"x[{name!r}] must lie in (0, 1), got {val}")
    margin = math.inf
    holds = True
    for name, gamma in report.charges.items():
        bound = (1.0 - epsilon) * x[name]
        for j in graph.neighbors.get(name, frozenset()):
            bound *= 1.0 - x[j]
        if gamma > bound:
            holds = False
        if gamma > 0:
            margin = min(margin, bound / gamma)
    gamma_max = max(report.charges.values(), default=0.0)
    symmetric = gamma_max * (1 + graph.max_degree()) * math.e <= 1.0 - epsilon
    t0 = math.log2(max(theta_mu_ratio, 1.0)) + sum(
        math.log2(1.0 / (1.0 - xv)) for xv in x.values()
    )
    report.x = dict(x)
    report.epsilon = epsilon
    report.t0 = t0
    report.condition_holds = holds
    return ConditionCheck(holds, margin, symmetric, t0)


# ---------------------------------------------------------------------------
# Operator checks


@dataclass(frozen=True)
class CommutationResult:
    commute: bool
    max_diff: float


def _operator(spec: FlawSpec, states: Sequence[Any]) -> dict[Any, dict[Any, float]]:
    rows: dict[Any, dict[Any, float]] = {}
    state_set = set(states)
    for sigma in states:
        if spec.detect(sigma):
            row = dict(spec.kernel(sigma))
            for tau in row:
                if tau not in state_set:
                    raise ValueError(
                        f"action of {spec.name!r} leaves the enumerated state set"
                    )
            rows[sigma] = row
        else:
            rows[sigma] = {}
    return rows


def _compose(
    a: dict[Any, dict[Any, float]], b: dict[Any, dict[Any, float]]
) -> dict[Any, dict[Any, float]]:
    out: dict[Any, dict[Any, float]] = {}
    for sigma, row in a.items():
        acc: dict[Any, float] = {}
        for mid, p in row.items():
            for tau, q in b.get(mid, {}).items():
                acc[tau] = acc.get(tau, 0.0) + p * q
        out[sigma] = acc
    return out


def check_commutativity(
    f: FlawSpec, g: FlawSpec, states: Sequence[Any], tol: float = MATRIX_TOL
) -> CommutationResult:
    """Compare A_f A_g and A_g A_f entrywise on an enumerated state space."""
    if f is g or f.name == g.name:
        raise ValueError("commutativity check needs two distinct flaws")
    if f.kernel is None or g.kernel is None:
        raise ValueError("both flaws need exact kernels")
    af = _operator(f, states)
    ag = _operator(g, states)
    fg = _compose(af, ag)
    gf = _compose(ag, af)
    diff = 0.0
    for sigma in states:
        keys = set(fg.get(sigma, {})) | set(gf.get(sigma, {}))
        for tau in keys:
            diff = max(diff, abs(fg[sigma].get(tau, 0.0) - gf[sigma].get(tau, 0.0)))
    return CommutationResult(diff <= tol, diff)


@dataclass
class LopsidependencyReport:
    holds: bool
    violations: list[tuple[str, tuple[str, ...], float, float]] = field(default_factory=list)
    skipped: list[tuple[str, tuple[str, ...]]] = field(default_factory=list)
    charges: dict[str, float] = field(default_factory=dict)


def verify_lopsidependency(
    flaws: Sequence[FlawSpec],
    mu: Mapping[Any, float],
    graph: CausalityGraph,
    max_flaws: int = 12,
) -> LopsidependencyReport:
    """Check mu(f_i | all of S absent) <= gamma_i for every S disjoint from
    G(i) and i itself.  Zero-probability conditionings are skipped, reported."""
    if len(flaws) > max_flaws:
        raise ValueError(f"subset audit supports at most {max_flaws} flaws")
    report = estimate_charges_exact(flaws, mu)
    present = {spec.name: {s for s in mu if spec.detect(s)} for spec in flaws}
    out = LopsidependencyReport(holds=True, charges=dict(report.charges))
    for spec in flaws:
        gamma = report.charges[spec.name]
        banned = graph.neighbors.get(spec.name, frozenset()) | {spec.name}
        eligible = [b.name for b in flaws if b.name not in banned]
        for size in range(len(eligible) + 1):
            for subset in itertools.combinations(eligible, size):
                avoid: set[Any] = set()
                for name in subset:
                    avoid |= present[name]
                denom = sum(p for s, p in mu.items() if s not in avoid)
                if denom <= 0.0:
                    out.skipped.append((spec.name, subset))
                    continue
                num = sum(
                    p for s, p in mu.items() if s in present[spec.name] and s not in avoid
                )
                cond = num / denom
                if cond > gamma + 1e-12:
                    out.holds = False
                    out.violations.append((spec.name, subset, cond, gamma))
    return out
