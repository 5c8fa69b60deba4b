"""Boiler dynamics against a hand-evaluated energy balance.

The frozen numbers were computed by walking the capacity and balance
expressions term by term in strict SI from the saturation record at
57 bar (independent of boiler.py's own arithmetic, which works from
the same property fits but is exercised as a black box here).
"""

import re

import pytest
from hypothesis import given, settings, strategies as st

from steamfleet.boiler import (BoilerInputs, BoilerState, ModelValidityError,
                               balance_gas, derivatives, phi, simulate)
from steamfleet.config import default_fleet
from steamfleet.properties import P_MAX, P_MIN, PressureRangeError, saturation

B1 = default_fleet()[0]
MID = BoilerState(p=57.0, V_w=0.5 * B1.V_T)
SAT_57 = saturation(57.0)

PHI_B1_57 = 63.995651555293286        # J/Pa
DPDT_ORACLE = 0.02208517928448084     # bar/s at (q_g=.4, q_f=.55, q_s=.6)
DVWDT_ORACLE = -2.4766786873546708e-05
BALANCE_GAS_06 = 0.37261340672232207  # kg/s holding 57 bar at q_s=0.6
# Captured from the plant before its float kernel and compared with ==,
# so a reordering of the plant arithmetic shows.  A rounding change in
# one rate is mostly absorbed when it is added to the state, so the
# rates are pinned as well as the end states.
# (phi, dp/dt, dV_w/dt) at (p, V_w / V_T) under (q_g=.4, q_f=.55, q_s=.6):
KERNEL_PINS = [
    ((20.0, 0.3), (116.07769690059025, 0.01040055535250091,
                   -9.017731999498168e-06)),
    ((57.0, 0.5), (63.995651555293286, 0.02208517928448086,
                   -2.476678687354673e-05)),
    ((90.0, 0.8), (54.64993039321311, 0.032326901904403314,
                   -7.261274371218502e-05)),
]
# (p, V_w) after simulate(B1, MID, inputs, 600.0, 1.0):
RK4_600S_PINS = [
    (BoilerInputs(BALANCE_GAS_06, 0.6, 0.6), (57.0, 0.605)),
    (BoilerInputs(0.4, 0.55, 0.6), (72.17023407580989, 0.5891760335194487)),
]


def test_capacity_matches_frozen_hand_evaluation():
    assert phi(B1, MID, SAT_57) == pytest.approx(PHI_B1_57, rel=1e-12)


def test_capacity_matches_independent_recomputation():
    # Same walk as the frozen oracle, written out against the raw
    # saturation record so a property regression cannot hide.
    s = saturation(MID.p)
    V_w = MID.V_w
    V_s = B1.V_T - V_w
    to_si = 1e3 / 1e5
    vapor = V_s * (s.h_s * 1e3 * s.drho_s_dp / 1e5 + s.rho_s * s.dh_s_dp * to_si)
    liquid = V_w * (s.h_w * 1e3 * s.drho_w_dp / 1e5 + s.rho_w * s.dh_w_dp * to_si)
    metal = B1.m_T * B1.c_p * 1e3 * s.dT_s_dp / 1e5
    slope = (s.drho_w_dp * V_w + s.drho_s_dp * V_s) / 1e5
    mix = slope * (s.rho_w * s.h_w - s.rho_s * s.h_s) * 1e3 / (s.rho_w - s.rho_s)
    expected = vapor + liquid + B1.V_T + metal - mix
    assert phi(B1, MID, SAT_57) == pytest.approx(expected, rel=1e-12)


def test_capacity_positive_across_fleet_and_pressure():
    for b in default_fleet():
        for p in (20.0, 40.0, 57.0, 75.0, 90.0):
            for frac in (0.1, 0.5, 0.9):
                st = BoilerState(p, frac * b.V_T)
                assert phi(b, st, saturation(p)) > 0.0


def test_capacity_drops_when_vapor_space_vanishes():
    # With V_w -> V_T the vapor storage term disappears.
    near_full = BoilerState(57.0, 0.999 * B1.V_T)
    assert phi(B1, near_full, SAT_57) != pytest.approx(
        phi(B1, MID, SAT_57), rel=1e-3)


def test_derivatives_match_frozen_oracle():
    dp, dvw = derivatives(B1, MID, BoilerInputs(q_g=0.4, q_f=0.55, q_s=0.6))
    assert dp == pytest.approx(DPDT_ORACLE, rel=1e-12)
    assert dvw == pytest.approx(DVWDT_ORACLE, rel=1e-12)


def test_balanced_flows_hold_pressure():
    q_s = 0.6
    q_g = balance_gas(B1, 57.0, q_s)
    assert q_g == pytest.approx(BALANCE_GAS_06, rel=1e-12)
    dp, dvw = derivatives(B1, MID, BoilerInputs(q_g=q_g, q_f=q_s, q_s=q_s))
    assert dp == pytest.approx(0.0, abs=1e-15)
    assert dvw == pytest.approx(0.0, abs=1e-15)
    end = simulate(B1, MID, BoilerInputs(q_g, q_s, q_s), 300.0, 1.0)
    assert end.p == pytest.approx(57.0, abs=1e-12)
    assert end.V_w == pytest.approx(MID.V_w, abs=1e-12)


def test_excess_heat_raises_pressure_and_shrinks_liquid():
    q_g = balance_gas(B1, 57.0, 0.6) + 0.05
    nxt = simulate(B1, MID, BoilerInputs(q_g, 0.6, 0.6), 60.0, 1.0)
    assert nxt.p > 57.0
    assert nxt.V_w < MID.V_w


def test_rk4_step_converges_on_refinement():
    inputs = BoilerInputs(q_g=0.5, q_f=0.55, q_s=0.6)
    coarse = simulate(B1, MID, inputs, 10.0, 1.0)
    fine = simulate(B1, MID, inputs, 10.0, 0.5)
    finer = simulate(B1, MID, inputs, 10.0, 0.25)
    assert coarse.p == pytest.approx(fine.p, abs=1e-9)
    assert fine.p == pytest.approx(finer.p, abs=1e-10)
    assert coarse.V_w == pytest.approx(fine.V_w, abs=1e-10)


def test_duration_must_be_multiple_of_dt():
    with pytest.raises(ValueError):
        simulate(B1, MID, BoilerInputs(0.4, 0.6, 0.6), 10.5, 1.0)


@pytest.mark.parametrize("v_w", [0.0, -0.1, 1.21, 1.3])
def test_liquid_volume_bounds_guarded(v_w):
    with pytest.raises(ModelValidityError):
        phi(B1, BoilerState(57.0, v_w), SAT_57)


@pytest.mark.parametrize("point, pinned", KERNEL_PINS,
                         ids=["20bar", "57bar", "90bar"])
def test_kernel_is_bit_exact(point, pinned):
    p, frac = point
    state = BoilerState(p, frac * B1.V_T)
    inputs = BoilerInputs(q_g=0.4, q_f=0.55, q_s=0.6)
    assert (phi(B1, state, saturation(p)),
            *derivatives(B1, state, inputs)) == pinned


@pytest.mark.parametrize("inputs, pinned", RK4_600S_PINS,
                         ids=["balanced", "unbalanced"])
def test_simulate_is_bit_exact_over_600s(inputs, pinned):
    end = simulate(B1, MID, inputs, 600.0, 1.0)
    assert (end.p, end.V_w) == pinned


def test_step_rejects_escape_from_validity_region():
    # Absurd steam draw with no feed swells V_w past V_T at an RK4 stage
    # of the second step; the message names the volume.
    tight = BoilerState(57.0, 0.999 * B1.V_T)
    msg = "V_w=1.2102061228623966 outside (0, 1.21) m3"
    with pytest.raises(ModelValidityError, match=re.escape(msg)):
        simulate(B1, tight, BoilerInputs(q_g=0.0, q_f=0.0, q_s=1.2), 600.0, 1.0)


def test_pressure_leaving_the_fits_inside_a_period_raises():
    # Heat in excess climbs past 100 bar at an RK4 stage, not at a
    # period boundary.
    with pytest.raises(PressureRangeError) as err:
        simulate(B1, MID, BoilerInputs(q_g=0.5, q_f=0.55, q_s=0.6), 600.0, 1.0)
    assert err.value.p > P_MAX


def test_static_gain_chain():
    # Steady gas per unit steady steam equals the enthalpy lift over
    # the released heat; feed at command makes the chain exact.
    for b in default_fleet():
        g = balance_gas(b, b.p_sp, 1.0)
        s = saturation(b.p_sp)
        assert g == pytest.approx(
            (s.h_s - b.h_f) / (b.eta * b.lambda_lhv), rel=1e-12)


@pytest.mark.parametrize("n", [1, 2, 60])
def test_idle_simulate_evaluates_one_stage(count_saturation, n):
    # zero rates leave every stage at its input: the first stage is the
    # only one evaluated and the state comes back unchanged
    for b in default_fleet():
        start = BoilerState(b.p_sp, 0.5 * b.V_T)
        before = count_saturation["calls"]
        end = simulate(b, start, BoilerInputs(0.0, 0.0, 0.0), n * 1.0, 1.0)
        assert count_saturation["calls"] - before == 1
        assert end == start
    # a state that moves still takes four stages per step
    before = count_saturation["calls"]
    simulate(B1, MID, BoilerInputs(q_g=0.4, q_f=0.55, q_s=0.6), n * 1.0, 1.0)
    assert count_saturation["calls"] - before == 4 * n


def _every_step(params, state, inputs, n, dt):
    # RK4 that runs all ``n`` steps, with simulate's arithmetic and checks
    p, V_w = state.p, state.V_w
    for _ in range(n):
        k1p, k1v = derivatives(params, BoilerState(p, V_w), inputs)
        k2p, k2v = derivatives(
            params, BoilerState(p + 0.5 * dt * k1p, V_w + 0.5 * dt * k1v),
            inputs)
        k3p, k3v = derivatives(
            params, BoilerState(p + 0.5 * dt * k2p, V_w + 0.5 * dt * k2v),
            inputs)
        k4p, k4v = derivatives(
            params, BoilerState(p + dt * k3p, V_w + dt * k3v), inputs)
        p = p + dt / 6.0 * (k1p + 2.0 * k2p + 2.0 * k3p + k4p)
        V_w = V_w + dt / 6.0 * (k1v + 2.0 * k2v + 2.0 * k3v + k4v)
        if not (0.0 < V_w < params.V_T):
            raise ModelValidityError(
                f"V_w={V_w!r} outside (0, {params.V_T}) m3")
    return BoilerState(p, V_w)


def _outcome(integrate, params, state, inputs, n, dt):
    # the end (p, V_w), or the type and message of what was raised
    try:
        end = integrate(params, state, inputs, n, dt)
    except (PressureRangeError, ModelValidityError) as err:
        return type(err), str(err)
    return end.p, end.V_w


def _simulate(params, state, inputs, n, dt):
    return simulate(params, state, inputs, n * dt, dt)


@st.composite
def _plant_calls(draw):
    b = draw(st.sampled_from(default_fleet()))
    p = draw(st.floats(P_MIN, P_MAX))
    V_w = draw(st.floats(0.0, b.V_T, exclude_min=True, exclude_max=True))
    kind = draw(st.sampled_from(["idle", "balanced", "random"]))
    if kind == "idle":
        inputs = BoilerInputs(0.0, 0.0, 0.0)
    elif kind == "balanced":
        q_s = draw(st.floats(b.q_s_min, b.q_s_max))
        inputs = BoilerInputs(balance_gas(b, p, q_s), q_s, q_s)
    else:
        inputs = BoilerInputs(draw(st.floats(0.0, b.q_g_max)),
                              draw(st.floats(0.0, b.q_s_max)),
                              draw(st.floats(0.0, b.q_s_max)))
    n = draw(st.sampled_from([0, 1, 2, 10, 60]))
    return b, BoilerState(p, V_w), inputs, n


@settings(derandomize=True, max_examples=300, deadline=None)
@given(_plant_calls())
def test_simulate_equals_rk4_that_runs_every_step(call):
    # The float kernel with its constants hoisted out of the loop
    # changes no bit of the end state and no exception.
    b, state, inputs, n = call
    assert (_outcome(_simulate, b, state, inputs, n, 1.0)
            == _outcome(_every_step, b, state, inputs, n, 1.0))


@pytest.mark.parametrize("state, inputs, n", [
    (BoilerState(0.5 * P_MIN, MID.V_w), BoilerInputs(0.0, 0.0, 0.0), 10),
    (BoilerState(57.0, 1.01 * B1.V_T), BoilerInputs(0.0, 0.0, 0.0), 10),
    (BoilerState(57.0, 0.999 * B1.V_T), BoilerInputs(0.0, 0.0, 1.2), 600),
], ids=["idle_pressure_out_of_range", "idle_volume_out_of_range",
        "escape_mid_call"])
def test_simulate_raises_as_rk4_that_runs_every_step(state, inputs, n):
    outcome = _outcome(_simulate, B1, state, inputs, n, 1.0)
    assert outcome[0] in (PressureRangeError, ModelValidityError)
    assert outcome == _outcome(_every_step, B1, state, inputs, n, 1.0)
