"""Station-level regulation loops for a single generator.

Two discrete PI compensators run at the fast period ``tau``:

* R closes the pressure loop, mapping pressure error to gas flow.
* C shapes the steam command into feed water.  It has no plant
  feedback; its integrator tracks the command, so it acts as a
  reference filter whose output settles on ``q_s_cmd`` (the feed and
  steam mass flows must agree in steady state or the drum drifts).

Both use conditional anti-windup: the integrator freezes whenever the
unsaturated output already exceeds the active rail in the direction of
the error.

A :class:`StationState` carries the gas in force: R's output
``loop_r.output`` is the gas flow the boiler burns until R next ticks,
so :func:`gas_update` (R, at the period boundary) and
:func:`apply_period` (C and the plant, once the steam command is known)
hand each other one state and nothing else.
"""

from dataclasses import dataclass
from typing import NamedTuple

from .boiler import BoilerInputs, BoilerState, balance_gas, simulate


@dataclass(frozen=True)
class PIConfig:
    k_p: float
    k_i: float
    u_min: float
    u_max: float


class LoopState(NamedTuple):
    integrator: float
    output: float


def pi_step(cfg, loop, error, tau):
    """Advance one PI loop by one period, returning (output, new state)."""
    cand = cfg.k_p * error + loop.integrator + cfg.k_i * tau * error
    windup_hi = cand > cfg.u_max and error > 0.0
    windup_lo = cand < cfg.u_min and error < 0.0
    integ = loop.integrator
    if not (windup_hi or windup_lo):
        integ = integ + cfg.k_i * tau * error
    out = cfg.k_p * error + integ
    out = min(cfg.u_max, max(cfg.u_min, out))
    return out, LoopState(integ, out)


class StationState(NamedTuple):
    boiler: BoilerState
    loop_r: LoopState
    loop_c: LoopState


def init_station(params, q_s, vw_frac=0.5):
    """Equilibrium station state producing ``q_s`` at the set-point."""
    q_g = balance_gas(params, params.p_sp, q_s)
    boiler = BoilerState(params.p_sp, vw_frac * params.V_T)
    return StationState(boiler, LoopState(q_g, q_g), LoopState(q_s, q_s))


def gas_update(params, cfg_r, state, tau):
    """R-loop update at a period boundary, returning the station state
    whose ``loop_r.output`` is the gas for the coming period.

    The coming period's gas depends only on the measured pressure, so
    it is known before the steam command for the period is chosen; the
    supervisory layers sample it as their output measurement.
    """
    e_r = params.p_sp - state.boiler.p
    _, loop_r = pi_step(cfg_r, state.loop_r, e_r, tau)
    return StationState(state.boiler, loop_r, state.loop_c)


def apply_period(params, cfg_c, state, q_s_cmd, tau, dt):
    """Finish one fast period from the state :func:`gas_update` returned:
    step the C loop and integrate the boiler under the gas in force
    (``state.loop_r.output``).  Returns the new state and the feed q_f.
    """
    e_c = q_s_cmd - state.loop_c.integrator
    q_f, loop_c = pi_step(cfg_c, state.loop_c, e_c, tau)
    inputs = BoilerInputs(q_g=state.loop_r.output, q_f=q_f, q_s=q_s_cmd)
    boiler = simulate(params, state.boiler, inputs, tau, dt)
    return StationState(boiler, state.loop_r, loop_c), q_f


def station_step(params, cfg_r, cfg_c, state, q_s_cmd, tau, dt):
    """One fast period: update both loops, integrate the boiler.

    C's error is taken against its own integrator, which holds the
    previously tracked command.  Returns the new state and the applied
    (q_g, q_f).
    """
    state = gas_update(params, cfg_r, state, tau)
    new_state, q_f = apply_period(params, cfg_c, state, q_s_cmd, tau, dt)
    return new_state, state.loop_r.output, q_f


def run_station(params, cfg_r, cfg_c, state, commands, tau, dt):
    """Apply a steam command sequence; return per-period records.

    Returns (states, q_g, q_f) lists aligned with ``commands``; the
    boiler state in ``states[k]`` is the one reached after command k.
    """
    states, gases, feeds = [], [], []
    for cmd in commands:
        state, q_g, q_f = station_step(params, cfg_r, cfg_c, state, cmd, tau, dt)
        states.append(state)
        gases.append(q_g)
        feeds.append(q_f)
    return states, gases, feeds


def settling_time(times, pressures, p_sp, band_frac=0.02):
    """2% settling time of a pressure transient.

    Band is ``band_frac`` of the peak deviation from ``p_sp``; returns
    the earliest time after which the pressure stays inside it, or None
    if it never does.
    """
    dev = [abs(p - p_sp) for p in pressures]
    peak = max(dev)
    if peak == 0.0:
        return times[0]
    band = band_frac * peak
    settle = None
    for t, d in zip(times, dev):
        if d > band:
            settle = None
        elif settle is None:
            settle = t
    return settle


def static_map(params, cfg_r, cfg_c, levels, tau, dt, hold=2500.0):
    """Steady gas flow reached for each steam command level.

    Each level is held for ``hold`` seconds starting from the
    equilibrium of the previous one; returns (levels, gas) tuples.
    """
    out = []
    state = init_station(params, levels[0])
    n = round(hold / tau)
    for lvl in levels:
        states, gases, _ = run_station(params, cfg_r, cfg_c, state,
                                       [lvl] * n, tau, dt)
        state = states[-1]
        out.append((lvl, gases[-1]))
    return out
