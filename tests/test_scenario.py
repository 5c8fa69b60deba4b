"""Orchestration layer: identification wiring, the closed loop, audits."""

import dataclasses
import random
import re
from collections import Counter

import numpy as np
import pytest

from steamfleet import (boiler, highlevel, lowlevel, mpc, properties, qp,
                        scenario)
from steamfleet.config import ConfigError, IdentConfig, default_config
from steamfleet.ensemble import estimate_disturbance_bound, make_reference
from steamfleet.lowlevel import init_station, station_step
from steamfleet.scenario import (IdentifiedStation, ScenarioError, demand_at,
                                 run_identification, run_scenario,
                                 select_template)
from steamfleet.sysid import ArxModel, IdentifiabilityError, free_run, realize

BASE = default_config()


def single_boiler(demand, duration):
    return dataclasses.replace(
        BASE, boilers=BASE.boilers[:1], pi_r=BASE.pi_r[:1],
        pi_c=BASE.pi_c[:1], demand=demand,
        timing=dataclasses.replace(BASE.timing, duration=duration))


def test_identical_plants_identify_identically():
    cfg = dataclasses.replace(
        BASE, boilers=(BASE.boilers[0], BASE.boilers[0]),
        pi_r=(BASE.pi_r[0], BASE.pi_r[0]),
        pi_c=(BASE.pi_c[0], BASE.pi_c[0]))
    a, b = (s.model for s in run_identification(cfg))
    assert max(abs(x - y) for x, y in zip(a.f, b.f)) <= 1e-3
    assert max(abs(x - y) for x, y in zip(a.b, b.b)) <= 1e-3
    assert abs(a.c - b.c) <= 1e-3


def test_fitted_model_tracks_plant_step():
    cfg = single_boiler(((0.0, 0.5),), 600.0)
    model = run_identification(cfg)[0].model
    params, cfg_r, cfg_c = BASE.boilers[0], BASE.pi_r[0], BASE.pi_c[0]
    tau, dt = BASE.timing.tau, BASE.timing.dt
    settle, hold = 200, 250
    cmds = np.array([0.5] * settle + [0.8] * hold)
    state = init_station(params, 0.5, BASE.vw_frac)
    ys = []
    for c in cmds:
        state, q_g, _ = station_step(params, cfg_r, cfg_c, state, c, tau, dt)
        ys.append(q_g)
    ys = np.array(ys)
    yhat = free_run(model, cmds, ys[:model.orders.max_lag])
    amplitude = abs(ys[-1] - ys[settle - 1])
    deviation = float(np.max(np.abs(ys[settle:] - yhat[settle:])))
    assert deviation <= 0.05 * amplitude


def test_empty_excitation_names_the_boiler():
    cfg = dataclasses.replace(
        BASE, ident=dataclasses.replace(IdentConfig(), n_levels=0))
    with pytest.raises(IdentifiabilityError, match="boiler 1"):
        run_identification(cfg)


def test_empty_demand_rejected_before_simulation():
    cfg = dataclasses.replace(BASE, demand=())
    with pytest.raises(ConfigError, match="demand"):
        run_scenario(cfg)


def test_single_boiler_constant_demand_offset_free():
    # 1800 s = 60 slow periods, past the 40-step settling contract
    report = run_scenario(single_boiler(((0.0, 0.5),), 1800.0))
    assert report.violations == []
    tail = report.frames[-1]
    assert abs(tail.r_hat - tail.r) <= 1e-6
    assert abs(tail.y_bar - tail.r_hat) <= 1e-3


def test_command_split_conserves_total_exactly(default_run):
    for f in default_run.frames:
        assert sum(f.qs) == f.u_bar


def test_frames_cover_every_fast_period(default_run):
    frames = default_run.frames
    assert len(frames) == int(BASE.timing.duration / BASE.timing.tau)
    gaps = {round(b.t - a.t, 9) for a, b in zip(frames, frames[1:])}
    assert gaps == {BASE.timing.tau}


def test_gas_target_carries_the_ensemble_level(default_run):
    # dispatch models each active station's gas as gain_i v_i + level_i,
    # so the target for a total u_ss includes the summed levels
    models = [s.model for s in default_run.idents]
    for f in default_run.frames:
        expected = sum(m.gain * a * f.u_ss + m.gamma
                       for m, a, d in zip(models, f.alpha, f.delta) if d)
        assert f.r == pytest.approx(expected, rel=1e-9, abs=0.0), f.t


def test_default_run_is_violation_free(default_run):
    assert default_run.violations == []
    assert default_run.max_w_obs <= default_run.w_certified


def test_adds_on_rises_removes_on_drop(default_run):
    changes = []
    prev = None
    for f in default_run.frames:
        n = sum(f.delta)
        if prev is not None and n != prev:
            changes.append((f.t, n - prev))
        prev = n
    adds = [t for t, dn in changes if dn > 0]
    drops = [t for t, dn in changes if dn < 0]
    assert adds and drops
    # a switch may only follow a demand move in the same direction; the
    # dispatcher reacts within one slow period plus its solve cadence
    lookback = 90.0
    for t, dn in changes:
        before = demand_at(BASE.demand, t - lookback)
        now = demand_at(BASE.demand, t)
        assert (now - before) * dn > 0


def test_same_seed_reproduces_the_run(default_run, default_rerun):
    again = default_rerun
    assert len(again.frames) == len(default_run.frames)
    for a, b in zip(again.frames, default_run.frames):
        assert a == b
    assert again.violations == default_run.violations
    assert again.hl_solves == default_run.hl_solves


def test_tracking_solves_start_from_the_last_working_set(count_qp_starts):
    calls = count_qp_starts(mpc)
    report = run_scenario(BASE)
    assert report.violations == []
    assert calls["solves"] == 120
    assert calls["cold"] <= 10          # 6 at seed 2214
    assert calls["iters"] <= 200        # 165 at seed 2214, 1 090 all cold


def test_dispatch_solves_start_from_the_last_working_sets(count_qp_starts):
    calls = count_qp_starts(highlevel)
    report = run_scenario(BASE)
    assert report.violations == []
    assert report.hl_solves == 25
    # bound and prune solves 32 of the 775 pattern QPs at seed 2214
    assert calls["solves"] == 32
    assert calls["cold"] <= 12          # 10 at seed 2214, 1 of them the first
    assert calls["iters"] <= 120        # 107 at seed 2214


def test_each_run_pays_its_own_factorizations(default_run, monkeypatch):
    # A tracking controller keeps the factors of every working set it
    # meets for its life; no factor survives it into the next run.
    calls = []
    factor = qp._factor

    def counted(*args):
        calls.append(1)
        return factor(*args)

    monkeypatch.setattr(qp, "_factor", counted)
    per_run = []
    for _ in range(2):
        before = len(calls)
        report = run_scenario(BASE, idents=default_run.idents)
        assert report.violations == []
        per_run.append(len(calls) - before)
    # 156 per run at seed 2214; 274 when every solve factored afresh
    assert per_run[0] == per_run[1] <= 170


@pytest.fixture
def plant_calls(monkeypatch):
    """The ``simulate`` calls a run makes, as (params, state, inputs,
    steps) in call order."""
    calls = []
    simulate = lowlevel.simulate

    def recorded(params, state, inputs, duration, dt):
        calls.append((params, state, inputs, round(duration / dt)))
        return simulate(params, state, inputs, duration, dt)

    monkeypatch.setattr(lowlevel, "simulate", recorded)
    return calls


def _held(params, state, inputs):
    # whether simulate's first stage returns exactly zero rates; it reads
    # properties.saturation, outside the counted boiler binding
    _, dp, dv = boiler._rates(properties.saturation(state.p), state.V_w,
                              *boiler._constants(params, inputs.q_g),
                              inputs.q_f, inputs.q_s)
    return dp == 0.0 and dv == 0.0


def _stages(calls):
    # one stage for a call the plant holds, four per RK4 step otherwise
    return sum(1 if _held(params, state, inputs) else 4 * n
               for params, state, inputs, n in calls)


def test_default_loop_takes_every_rk4_step(default_run, count_saturation,
                                           plant_calls):
    # plus the balance_gas call that sets each boiler's initial state:
    # 8 120 at seed 2214.  The run loop holds 783 of the 1 800
    # station-periods without a call; 3 of the 1 017 calls hold at zero
    # rates.
    report = run_scenario(BASE, idents=default_run.idents)
    assert report.violations == []
    assert count_saturation["calls"] == (_stages(plant_calls)
                                         + len(BASE.boilers))


def test_held_demand_loop_takes_every_rk4_step(
        default_run, count_saturation, plant_calls, workload_config):
    # 34 017 at seed 2214: the run loop holds 2 924 of the 7 200
    # station-periods without a call; 28 of the 4 276 calls hold at zero
    # rates
    cfg = workload_config("long_hold")
    report = run_scenario(cfg, idents=default_run.idents)
    assert report.violations == []
    assert count_saturation["calls"] == (_stages(plant_calls)
                                         + len(cfg.boilers))


def test_identification_takes_every_rk4_step(count_saturation, plant_calls,
                                             monkeypatch):
    # plus the two balance_gas calls of each experiment (its
    # steam-to-gas scale and its initial state): 30 150 at seed 2214,
    # 60 of the 3 820 calls held at a balanced equilibrium
    experiments = []
    run_station = scenario.run_station

    def counted(*args):
        experiments.append(1)
        return run_station(*args)

    monkeypatch.setattr(scenario, "run_station", counted)
    run_identification(BASE)
    assert len(experiments) == len(BASE.boilers)
    assert count_saturation["calls"] == (_stages(plant_calls)
                                         + 2 * len(BASE.boilers))


def _noise_probe(seed):
    # the default schedule plus Uniform(-0.1, 0.1) at each slow step: the
    # dispatch re-solves every step, parking and relighting stations
    step = BASE.timing.nu * BASE.timing.tau
    rng = random.Random(seed)
    demand = tuple((m * step, demand_at(BASE.demand, m * step)
                    + rng.uniform(-0.1, 0.1))
                   for m in range(round(BASE.timing.duration / step)))
    return dataclasses.replace(BASE, demand=demand)


@pytest.fixture(scope="module")
def hold_runs(default_run, workload_config, unheld_run):
    """``hold_runs(name)``: the run of case ``name`` with and without the
    station hold, as ``(held, calls, unheld, no_gas, no_period)``;
    ``calls`` counts the held run's ``gas_update`` and ``apply_period``
    calls, and the rest is what ``unheld_run`` returns."""
    cases = {"default": lambda: BASE,
             "long_hold": lambda: workload_config("long_hold"),
             "noise 1": lambda: _noise_probe(1)}
    runs = {}

    def get(name):
        if name not in runs:
            cfg = cases[name]()
            calls = Counter()
            with pytest.MonkeyPatch.context() as mp:
                for fn in ("gas_update", "apply_period"):
                    def counted(*args, _fn=getattr(scenario, fn), _name=fn):
                        calls[_name] += 1
                        return _fn(*args)
                    mp.setattr(scenario, fn, counted)
                held = run_scenario(cfg, idents=default_run.idents)
            runs[name] = (held, calls,
                          *unheld_run(cfg, default_run.idents))
        return runs[name]

    return get


@pytest.mark.parametrize("name", ["default", "long_hold", "noise 1"])
def test_station_hold_is_exact(hold_runs, name):
    held, _, unheld, _, no_period = hold_runs(name)
    assert no_period
    # repr tells -0.0 from 0.0, which == does not
    assert len(held.frames) == len(unheld.frames)
    for a, b in zip(held.frames, unheld.frames):
        assert repr(a) == repr(b)
    assert held.violations == unheld.violations
    assert repr(held.max_w_obs) == repr(unheld.max_w_obs)
    assert repr(held.total_gas) == repr(unheld.total_gas)
    assert repr(held.total_steam) == repr(unheld.total_steam)
    assert held.hl_solves == unheld.hl_solves


@pytest.mark.parametrize("name, gas_updates, periods",
                         [("default", 1015, 1017),
                          ("long_hold", 3770, 4276)])
def test_held_stations_skip_their_pi_and_plant_calls(hold_runs, name,
                                                     gas_updates, periods):
    # of 1 800 / 7 200 station-periods at seed 2214
    held, calls, _, no_gas, no_period = hold_runs(name)
    per_station = len(held.frames) * held.n_boilers
    assert calls["gas_update"] + len(no_gas) == per_station
    assert calls["apply_period"] + len(no_period) == per_station
    assert (calls["gas_update"], calls["apply_period"]) == (gas_updates,
                                                            periods)


def test_lit_stations_are_held_at_an_equilibrium(hold_runs):
    # a dispatched station whose period returns its state bit for bit:
    # 123 station-periods on long_hold at seed 2214
    held, _, _, _, no_period = hold_runs("long_hold")
    assert any(held.frames[k].delta[i] for k, i in no_period)


def test_a_signed_zero_counts_as_a_change():
    state = init_station(BASE.boilers[0], 0.0)
    flipped = state._replace(loop_c=state.loop_c._replace(output=-0.0))
    assert state == flipped
    assert scenario._unchanged(state, state._replace())
    assert not scenario._unchanged(state, flipped)
    assert not scenario._unchanged(0.0, -0.0)


def test_template_failure_names_the_boilers():
    # a second-order template cannot serve a first-order station
    fits = (ArxModel(f=(-0.5, 0.04), b=(0.3, 0.1), n_k=1, c=0.02, tau=10.0),
            ArxModel(f=(-0.5,), b=(0.3, 0.1), n_k=1, c=0.01, tau=10.0))
    idents = [IdentifiedStation(model=m, fit=99.0, spectral_radius=0.5)
              for m in fits]
    cfg = dataclasses.replace(
        BASE, boilers=BASE.boilers[:2], pi_r=BASE.pi_r[:2],
        pi_c=BASE.pi_c[:2])
    with pytest.raises(ScenarioError,
                       match=r"t=0s: boiler 2 on template boiler 1: "
                             r"template orders"):
        run_scenario(cfg, idents=idents)


def test_plant_drifting_from_its_fit_breaks_the_certificate(default_run):
    # boiler 1 loses a tenth of its efficiency after identification: the
    # run goes on and the audit names each breach of the certificate
    first = BASE.boilers[0]
    drifted = dataclasses.replace(first, eta=0.9 * first.eta)
    cfg = dataclasses.replace(BASE, boilers=(drifted,) + BASE.boilers[1:])
    report = run_scenario(cfg, idents=default_run.idents)
    assert report.violations       # 23 at seed 2214, the first at t = 1830 s
    for v in report.violations:
        assert re.fullmatch(r"t=\d+s observed mismatch \S+ exceeds "
                            r"certified bound \S+", v), v


def test_template_selection_returns_the_smallest_bound(default_run):
    models = [s.model for s in default_run.idents]
    args = (BASE.sets.delta_u, BASE.timing.nu)
    safety = BASE.mpc.w_safety
    actuals = [realize(m) for m in models]
    per_template = []
    for t in range(len(models)):
        refs = [make_reference(m, models[t]) for m in models]
        per_template.append(estimate_disturbance_bound(
            refs, actuals, *args, safety=safety))
    w = [b.w_inf for b in per_template]
    best = w.index(min(w))          # first minimum: ties to the lower index
    refs, bound = select_template(models, *args, safety)
    assert bound == per_template[best]
    for ref, expected in zip(refs, (make_reference(m, models[best])
                                    for m in models)):
        assert np.array_equal(ref.A, expected.A)
        assert np.array_equal(ref.B, expected.B)


def test_template_ties_break_to_the_lower_index(default_run, monkeypatch):
    models = [s.model for s in default_run.idents]
    real = scenario.estimate_disturbance_bound
    seen = []

    def flat(refs, *args, **kwargs):
        seen.append(refs)
        return dataclasses.replace(real(refs, *args, **kwargs), w_inf=1.0)

    monkeypatch.setattr(scenario, "estimate_disturbance_bound", flat)
    refs, bound = select_template(models, BASE.sets.delta_u, BASE.timing.nu,
                                  BASE.mpc.w_safety)
    assert len(seen) == len(models)
    assert refs is seen[0] and bound.w_inf == 1.0


def test_a_run_certifies_each_template_once(default_run, monkeypatch):
    real = scenario.estimate_disturbance_bound
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(scenario, "estimate_disturbance_bound", counted)
    report = run_scenario(BASE, idents=default_run.idents)
    assert len(calls) == len(BASE.boilers) == 5
    assert report.w_certified == default_run.w_certified
