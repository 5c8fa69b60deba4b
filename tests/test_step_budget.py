"""The plant's RK4 step against an error budget.

``TimingConfig.dt`` is chosen from a measured error, not by habit
(Hairer, Norsett & Wanner, *Solving Ordinary Differential Equations I*,
sec. II.4): each test runs ``simulate`` at the configured step and at a
reference step ten times finer, and bounds the difference.

The budget is one percent of ``w_inf``, the certified bound on the
one-step gas mismatch that the tracking tube already absorbs.  The
tube margins grow linearly with ``w_inf``, so an integration error
inside the budget is covered by the design with 99 % of the bound left
for what it certifies.  The budget is fixed by that argument, not by
the error any step happens to make.  Errors are compared in gas units,
kg/s, as the loops would pass them on:

* a pressure error ``dp`` moves the R loop's next gas sample by its gain
  on one sample, ``(k_p + k_i * tau) * dp`` (see ``lowlevel.pi_step``);
* a liquid-volume error ``dV`` is ``rho_w * dV`` kg of water that the
  period's flows do not account for.  As a steam flow over one period
  it needs ``balance_gas(p, 1) * rho_w * dV / tau`` of gas.
"""

import pytest

from steamfleet.boiler import BoilerInputs, BoilerState, balance_gas, simulate
from steamfleet.config import default_config
from steamfleet.properties import saturation
from steamfleet.scenario import identification_experiment

CFG = default_config()
TAU, DT = CFG.timing.tau, CFG.timing.dt
FINE = DT / 10.0
BUDGET_FRAC = 0.01
IDS = [f"boiler{i + 1}" for i in range(len(CFG.boilers))]


@pytest.fixture(scope="module")
def budget(default_run):
    # the default run certifies its bound from models identified at DT
    assert default_run.w_certified > 0.0
    return BUDGET_FRAC * default_run.w_certified


def _box(b):
    # pressure across the fits' working range, the level across the
    # drum, and each flow at 0 and at its box corners
    flows = (0.0, b.q_s_min, b.q_s_max)
    for p in (20.0, b.p_sp, 90.0):
        for frac in (0.2, 0.5, 0.8):
            for q_g in (0.0, b.q_g_min, b.q_g_max):
                for q_s in flows:
                    for q_f in flows:
                        yield (BoilerState(p, frac * b.V_T),
                               BoilerInputs(q_g, q_f, q_s))


@pytest.mark.parametrize("i", range(len(CFG.boilers)), ids=IDS)
def test_one_period_state_error_within_budget(i, budget):
    b, r = CFG.boilers[i], CFG.pi_r[i]
    loop_gain = r.k_p + r.k_i * TAU
    worst = 0.0
    for state, inputs in _box(b):
        step = simulate(b, state, inputs, TAU, DT)
        ref = simulate(b, state, inputs, TAU, FINE)
        per_volume = (balance_gas(b, ref.p, 1.0) * saturation(ref.p).rho_w
                      / TAU)
        worst = max(worst, loop_gain * abs(step.p - ref.p),
                    per_volume * abs(step.V_w - ref.V_w))
    assert worst <= budget


@pytest.mark.parametrize("i", range(len(CFG.boilers)), ids=IDS)
def test_identification_gas_error_within_budget(i, budget):
    args = (CFG.boilers[i], CFG.pi_r[i], CFG.pi_c[i], CFG.ident, TAU)
    _, gas = identification_experiment(*args, DT, CFG.vw_frac)
    _, gas_ref = identification_experiment(*args, FINE, CFG.vw_frac)
    assert abs(gas - gas_ref).max() <= budget
