"""Flaw-driven search driver plus the exact verification tooling:
charges, causality, commutation, lopsidependency."""

import pytest

from matchcolor import (
    FlawSpec,
    LocalSearchError,
    causality_from_footprints,
    check_commutativity,
    check_lll_condition,
    estimate_charges_exact,
    stream,
    verify_lopsidependency,
)
from matchcolor.localsearch import Flaw, run_with_selector


# ---------------------------------------------------------------------------
# Driver


def countdown_selector(limit: int):
    """States are integers; any state below ``limit`` is flawed and a repair
    increments it.  Deterministic, so traces are exactly predictable."""

    def select(state: int) -> Flaw | None:
        if state >= limit:
            return None
        return Flaw(
            kind="low",
            key=("low", state),
            footprint=frozenset([0]),
            address=lambda s, rng: s + 1,
        )

    return select


def test_flawless_start_takes_no_steps():
    trace = run_with_selector(5, countdown_selector(3), stream(0, "a"))
    assert trace.flawless
    assert trace.steps == 0
    assert trace.addressed == []
    assert trace.final_state == 5


def test_driver_counts_steps_and_records():
    trace = run_with_selector(0, countdown_selector(3), stream(0, "a"))
    assert trace.flawless
    assert trace.steps == 3
    assert [rec.key for rec in trace.addressed] == [("low", 0), ("low", 1), ("low", 2)]
    assert trace.counts_by_kind() == {"low": 3}
    assert all(rec.footprint_size == 1 for rec in trace.addressed)


def test_driver_step_cap():
    with pytest.raises(LocalSearchError) as err:
        run_with_selector(0, countdown_selector(10), stream(0, "a"), step_cap=4)
    trace = err.value.trace
    assert not trace.flawless
    assert trace.steps == 4
    assert trace.final_state == 4


def test_driver_cap_boundary_succeeds():
    trace = run_with_selector(0, countdown_selector(4), stream(0, "a"), step_cap=4)
    assert trace.flawless
    assert trace.final_state == 4


def test_run_with_selector_addresses_first_present_flaw():
    # A selector scanning a fixed priority list, as both pipelines' do.
    priority = [
        ("a", lambda s: s < 2, lambda s, rng: s + 1),
        ("b", lambda s: s < 4, lambda s, rng: s + 2),
    ]

    def select(state: int) -> Flaw | None:
        for name, detect, address in priority:
            if detect(state):
                return Flaw(kind=name, key=name, footprint=frozenset(), address=address)
        return None

    trace = run_with_selector(0, select, stream(0, "b"))
    assert trace.flawless
    # a fires at 0 and 1, b finishes from 2 to 4.
    assert [rec.key for rec in trace.addressed] == ["a", "a", "b"]
    assert trace.final_state == 4


# ---------------------------------------------------------------------------
# Causality


def test_causality_from_footprints():
    specs = [
        FlawSpec(name="a", detect=bool, address=lambda s, r: s, footprint=frozenset({1, 2})),
        FlawSpec(name="b", detect=bool, address=lambda s, r: s, footprint=frozenset({2, 3})),
        FlawSpec(name="c", detect=bool, address=lambda s, r: s, footprint=frozenset({9})),
    ]
    g = causality_from_footprints(specs)
    assert g.neighbors["a"] == frozenset({"b"})
    assert g.neighbors["b"] == frozenset({"a"})
    assert g.neighbors["c"] == frozenset()
    assert g.max_degree() == 1


# ---------------------------------------------------------------------------
# Charges on a two-state space


def rare_flaw_setup():
    """mu puts mass 0.9 on the sound state 0 and 0.1 on the flawed state 1;
    the repair returns to 0 with certainty."""
    mu = {0: 0.9, 1: 0.1}
    spec = FlawSpec(
        name="bad",
        detect=lambda s: s == 1,
        address=lambda s, rng: 0,
        footprint=frozenset({0}),
        kernel=lambda s: {0: 1.0},
    )
    return mu, spec


def test_charges_identity_hand_computed():
    mu, spec = rare_flaw_setup()
    rep = estimate_charges_exact([spec], mu)
    # Flow into state 0 is 0.1, so the charge is 0.1 / mu(0) = 1/9, the
    # distortion is (flow/mass) / mu(0) = 10/9, and mass times distortion
    # reproduces the charge.
    assert abs(rep.charges["bad"] - 1 / 9) < 1e-12
    assert abs(rep.distortions["bad"] - 10 / 9) < 1e-12
    assert abs(rep.flaw_mass["bad"] - 0.1) < 1e-12
    assert rep.identity_gap < 1e-12


def test_charges_reject_unnormalized_measure():
    _, spec = rare_flaw_setup()
    with pytest.raises(ValueError):
        estimate_charges_exact([spec], {0: 0.5, 1: 0.1})


def test_charges_reject_leaky_kernel():
    mu = {0: 0.9, 1: 0.1}
    spec = FlawSpec(
        name="leaky",
        detect=lambda s: s == 1,
        address=lambda s, rng: 0,
        kernel=lambda s: {0: 0.5},
    )
    with pytest.raises(ValueError, match="sums to"):
        estimate_charges_exact([spec], mu)


def test_charges_require_support():
    mu = {0: 1.0, 1: 0.0}
    spec = FlawSpec(
        name="escape",
        detect=lambda s: s == 0,
        address=lambda s, rng: 1,
        kernel=lambda s: {1: 1.0},
    )
    with pytest.raises(ValueError, match="outside the support"):
        estimate_charges_exact([spec], mu)


def test_lll_condition_symmetric():
    mu, spec = rare_flaw_setup()
    rep = estimate_charges_exact([spec], mu)
    check = check_lll_condition(rep, causality_from_footprints([spec]), x={"bad": 0.5})
    # gamma * (1 + max degree) * e = e/9 < 1.
    assert check.symmetric_holds
    # gamma = 1/9 <= x = 1/2 with no neighbors to discount.
    assert check.holds
    assert check.margin == pytest.approx(4.5)
    assert rep.condition_holds is True
    assert rep.t0 == pytest.approx(1.0)  # log2(1 / (1 - 0.5))


def test_lll_condition_fails_for_heavy_charge():
    mu = {0: 0.5, 1: 0.5}
    spec = FlawSpec(
        name="heavy",
        detect=lambda s: s == 1,
        address=lambda s, rng: 0,
        kernel=lambda s: {0: 0.5, 1: 0.5},
    )
    rep = estimate_charges_exact([spec], mu)
    check = check_lll_condition(rep, causality_from_footprints([spec]), x={"heavy": 0.5})
    # gamma = 1/2: the symmetric surrogate gamma * e > 1 fails.
    assert not check.symmetric_holds


# ---------------------------------------------------------------------------
# Commutation on a two-bit space


def bit_flaw(name: str, coord: int) -> FlawSpec:
    """Present when the coordinate is 1; the repair clears it."""

    def detect(state):
        return state[coord] == 1

    def clear(state):
        out = list(state)
        out[coord] = 0
        return tuple(out)

    return FlawSpec(
        name=name,
        detect=detect,
        address=lambda s, rng: clear(s),
        footprint=frozenset({coord}),
        kernel=lambda s: {clear(s): 1.0},
    )


def all_states():
    return [(a, b) for a in (0, 1) for b in (0, 1)]


def test_disjoint_coordinates_commute():
    res = check_commutativity(bit_flaw("a", 0), bit_flaw("b", 1), all_states())
    assert res.commute
    assert res.max_diff == 0.0


def test_order_sensitive_pair_fails():
    f = bit_flaw("f", 0)

    def g_detect(state):
        return state[0] == 0

    def g_kernel(state):
        return {(state[0], 1 - state[1]): 1.0}

    g = FlawSpec(
        name="g",
        detect=g_detect,
        address=lambda s, rng: (s[0], 1 - s[1]),
        footprint=frozenset({0, 1}),
        kernel=g_kernel,
    )
    res = check_commutativity(f, g, all_states())
    assert not res.commute
    assert res.max_diff > 0.5


def test_commutativity_rejects_same_flaw():
    f = bit_flaw("same", 0)
    with pytest.raises(ValueError):
        check_commutativity(f, f, all_states())


# ---------------------------------------------------------------------------
# Lopsidependency


def test_lopsidependency_holds_on_rare_flaw():
    mu, spec = rare_flaw_setup()
    other = FlawSpec(
        name="other",
        detect=lambda s: False,
        address=lambda s, rng: s,
        footprint=frozenset({5}),
        kernel=lambda s: {s: 1.0},
    )
    graph = causality_from_footprints([spec, other])
    rep = verify_lopsidependency([spec, other], mu, graph)
    assert rep.holds
    assert not rep.violations
    assert abs(rep.charges["bad"] - 1 / 9) < 1e-12


def test_lopsidependency_flaw_count_cap():
    mu, spec = rare_flaw_setup()
    many = [spec] * 13
    with pytest.raises(ValueError):
        verify_lopsidependency(many, mu, causality_from_footprints([spec]))
