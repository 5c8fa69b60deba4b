"""Every name the per-layer tracer patches exists in the package.

``perfbench/spans.py`` wraps functions by module and name, so a rename
in the package breaks only a traced benchmark run.  These tests read
the tracer's table without installing it: ``spans.install`` patches the
package's modules for the whole process.
"""

import dataclasses
import importlib
import importlib.util
import inspect
from collections import Counter
from pathlib import Path

import pytest

SPANS_PY = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _spans_table():
    spec = importlib.util.spec_from_file_location("_traced_spans", SPANS_PY)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.SPANS


SPANS = _spans_table()


def _module(name):
    return importlib.import_module(f"steamfleet.{name}")


@pytest.mark.parametrize("owner, name, label", SPANS,
                         ids=[f"{o}.{n}" for o, n, _ in SPANS])
def test_traced_function_resolves(owner, name, label):
    assert callable(getattr(_module(owner), name))
    # a per-caller label is read off the importing module's own binding
    if isinstance(label, dict):
        original = getattr(_module(owner), name)
        for importer in label:
            assert getattr(_module(importer), name) is original


def test_counted_and_method_targets_resolve():
    assert callable(_module("properties").saturation)
    assert callable(_module("mpc").MpcController.solve)


def test_simulate_takes_duration_and_dt_fourth_and_fifth():
    # the RK4 step counter reads args[3] / args[4] of boiler.simulate
    params = list(inspect.signature(_module("boiler").simulate).parameters)
    assert params[3:5] == ["duration", "dt"]


def _set_point_saturation_calls(count_saturation, gas_factor):
    # ``saturation`` calls of ten 1 s steps of boiler 1 from its
    # set-point, with the gas at ``gas_factor`` times the gas that holds
    # the pressure there
    boiler = _module("boiler")
    params = _module("config").default_fleet()[0]
    start = boiler.BoilerState(params.p_sp, 0.5 * params.V_T)
    q_g = gas_factor * boiler.balance_gas(params, params.p_sp, 0.6)
    before = count_saturation["calls"]
    boiler.simulate(params, start, boiler.BoilerInputs(q_g, 0.6, 0.6),
                    10.0, 1.0)
    return count_saturation["calls"] - before


def test_simulate_calls_saturation_through_the_boiler_binding(
        count_saturation):
    # The saturation counter wraps ``boiler.saturation``; a plant kernel
    # that inlined the fits would leave it reading 0.  From its
    # equilibrium the boiler still takes four RK4 stages per step, ten
    # steps.
    assert _set_point_saturation_calls(count_saturation, 1.0) == 40


def test_simulate_takes_every_step_while_the_state_moves(count_saturation):
    # 10 % more gas than the balance: four RK4 stages per step, ten steps
    assert _set_point_saturation_calls(count_saturation, 1.1) == 40


NAMES = ("gas_update", "apply_period", "measured_state", "ensemble_state",
         "build_controller", "solve_shares")


def _traced_calls(monkeypatch, unheld_run, n):
    # A one- or two-boiler run at demand 0.5, which one boiler serves;
    # returns the calls it makes through ``scenario``'s bindings of the
    # traced names, and the station-periods of a station at its fixed
    # point, where the loop holds the station without calling
    # ``gas_update`` or ``apply_period``.
    scenario = _module("scenario")
    base = _module("config").default_config()
    cfg = dataclasses.replace(
        base, boilers=base.boilers[:n], pi_r=base.pi_r[:n],
        pi_c=base.pi_c[:n], demand=((0.0, 0.5),),
        timing=dataclasses.replace(base.timing, duration=300.0))
    idents = scenario.run_identification(cfg)
    unheld, no_gas, no_period = unheld_run(cfg, idents)
    calls = Counter()

    def counted(name):
        original = getattr(scenario, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)
        return wrapper

    for name in NAMES:
        monkeypatch.setattr(scenario, name, counted(name))
    report = scenario.run_scenario(cfg, idents=idents)
    assert list(map(repr, report.frames)) == list(map(repr, unheld.frames))
    n_fast = round(cfg.timing.duration / cfg.timing.tau)
    assert len(report.frames) == n_fast
    per_station = n_fast * n
    assert calls["gas_update"] + len(no_gas) == per_station
    assert calls["apply_period"] + len(no_period) == per_station
    for name in NAMES[2:]:
        assert calls[name] >= 1, name
    return report, calls, no_period


def test_run_loop_calls_the_traced_names_through_scenario(monkeypatch,
                                                          unheld_run):
    # The tracer wraps ``scenario``'s own bindings; a loop that reached
    # the layers another way would leave their time in ``scenario.self_s``.
    _, calls, no_period = _traced_calls(monkeypatch, unheld_run, 1)
    assert no_period == []
    assert calls["gas_update"] == calls["apply_period"] == 30


def test_run_loop_holds_a_parked_station_without_traced_calls(monkeypatch,
                                                              unheld_run):
    # The second boiler stays parked at steam 0 from its initial
    # equilibrium: every period after its first is held, and each
    # station-period either makes the traced calls or is held.
    report, calls, no_period = _traced_calls(monkeypatch, unheld_run, 2)
    assert no_period == [(k, 1) for k in range(1, len(report.frames))]
    assert all(f.delta == (1, 0) for f in report.frames)
    assert calls["gas_update"] == calls["apply_period"] == 31
