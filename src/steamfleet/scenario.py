"""End-to-end orchestration: identification, then the three-layer loop.

Timing contract per slow period T = nu * tau: the fast PI loops step
every tau against the nonlinear plants; at every slow boundary the
measured per-station gas (known before the steam split is chosen,
because the pressure loop does not see the incoming command) feeds the
tracking controller; the share optimizer re-runs on demand moves or on
its fixed cycle and triggers an ensemble/controller rebuild plus a
rate-budgeted hand-off move.

The observed one-step ensemble mismatch is audited against the
certified bound the tube margins rest on, and every command and
measured flow is checked against its box at every fast period;
violations are recorded, never silently clipped.  A zero bound (every
station on its own dynamics, e.g. one boiler) covers no identification
residual and is not audited.

A station whose last fast period left its state unchanged bit for bit
is held at that fixed point: while its steam command stays bit-equal,
the loop makes neither PI step nor plant call for it (see
:func:`run_scenario`).

The loop keeps model-length histories: each station holds the newest
``n_f`` outputs and ``n_b_eff - 1`` inputs its canonical state reads,
and the state ``nu`` periods back is the one computed at the previous
slow step, so memory and per-step cost do not grow with the run length.
"""

import time
from collections import deque
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .boiler import ModelValidityError, balance_gas
from .config import ConfigError, validate_config
from .ensemble import (DegenerateTemplateError, TemplateOrderError, aggregate,
                       estimate_disturbance_bound, make_reference, resample)
from .highlevel import should_resolve, solve_shares, station_data
from .lowlevel import apply_period, gas_update, init_station, run_station
from .mpc import (build_controller, ensemble_state, first_move_cap,
                  measured_state, velocity_state)
from .properties import PressureRangeError
from .sysid import (ArxOrders, IdentifiabilityError, ModelQualityError,
                    excitation_levels, fit_arx, realize, split_validation,
                    validate_model)


class ScenarioError(RuntimeError):
    """A layer failed mid-run; carries the simulated time."""

    def __init__(self, t, message):
        super().__init__(f"t={t:.0f}s: {message}")
        self.t = t


@dataclass(frozen=True)
class IdentifiedStation:
    model: object
    fit: float
    spectral_radius: float


class Frame(NamedTuple):
    """One fast-period record; state values are at the period start."""
    t: float
    demand: float
    r: float
    r_hat: float
    u_bar: float
    y_bar: float
    u_ss: float
    alpha: tuple
    delta: tuple
    qs: tuple
    qg: tuple
    qf: tuple
    p: tuple
    vw: tuple


@dataclass
class RunReport:
    frames: list = field(default_factory=list)
    violations: list = field(default_factory=list)
    max_w_obs: float = 0.0
    w_certified: float = 0.0
    hl_solves: int = 0
    total_gas: float = 0.0
    total_steam: float = 0.0
    wall_ms: float = 0.0
    idents: list = field(default_factory=list)

    @property
    def n_boilers(self):
        return len(self.frames[0].qs) if self.frames else 0


def demand_at(profile, t):
    value = profile[0][1]
    for ts, v in profile:
        if t >= ts:
            value = v
        else:
            break
    return value


def identification_experiment(params, cfg_r, cfg_c, ident, tau, dt,
                              vw_frac=0.5):
    """Closed-loop excitation record for one station.

    Shuffled levels spanning the steam range the gas box admits, each
    held ``hold_s``, with transitions ramped at ``ramp_step`` per fast
    period: full-span jumps would rail the pressure loop and poison the
    linear fit, and operation is rate-limited anyway.  Samples are
    (commanded steam, gas in force) per fast period.
    """
    g_phys = balance_gas(params, params.p_sp, 1.0)
    lo = max(params.q_s_min, params.q_g_min / g_phys)
    levels = excitation_levels(lo, params.q_s_max, ident.n_levels, ident.seed)
    if not levels:
        raise IdentifiabilityError("empty excitation profile")
    hold = round(ident.hold_s / tau)
    cmds = []
    cur = levels[0]
    for lvl in levels:
        while abs(lvl - cur) > ident.ramp_step + 1e-12:
            cur += ident.ramp_step * (1.0 if lvl > cur else -1.0)
            cmds.append(cur)
        cur = lvl
        cmds.extend([lvl] * hold)
    state = init_station(params, levels[0], vw_frac)
    _, gases, _ = run_station(params, cfg_r, cfg_c, state, cmds, tau, dt)
    return np.array(cmds), np.array(gases)


def run_identification(cfg):
    """Fit and gate one model per configured boiler."""
    out = []
    orders = ArxOrders(cfg.ident.n_f, cfg.ident.n_b, cfg.ident.n_k)
    for i, params in enumerate(cfg.boilers):
        try:
            u, y = identification_experiment(params, cfg.pi_r[i], cfg.pi_c[i],
                                             cfg.ident, cfg.timing.tau,
                                             cfg.timing.dt, cfg.vw_frac)
            val_sl, train_sl = split_validation(len(u), cfg.ident.val_frac)
            model = fit_arx(u[train_sl], y[train_sl], orders, cfg.timing.tau)
            fit, rho = validate_model(model, u[val_sl], y[val_sl],
                                      cfg.ident.fit_min)
            if model.gain <= 1e-9:
                raise ModelQualityError(
                    f"static gain {model.gain!r} is not positive")
        except (IdentifiabilityError, ModelQualityError) as exc:
            raise type(exc)(f"boiler {i + 1}: {exc}") from exc
        except (PressureRangeError, ModelValidityError) as exc:
            raise ModelValidityError(f"boiler {i + 1}: {exc}") from exc
        out.append(IdentifiedStation(model=model, fit=fit,
                                     spectral_radius=rho))
    return out


def select_template(models, delta_u, nu, safety):
    """Reference models and certified mismatch bound of the template
    whose dynamics, shared across the fleet, give the smallest bound.

    The template fixes the common denominator of every reference model,
    so the relevant figure of merit is the disturbance bound the slow
    controller will have to absorb, not any property of the template in
    isolation.  Ties break to the lower index.  Returns ``(refs,
    bound)``: the winner's references, one per model, and its
    :class:`~steamfleet.ensemble.DisturbanceBound`.
    """
    actuals = [realize(m) for m in models]
    best = None
    for t in range(len(models)):
        refs = _references(models, t)
        bound = estimate_disturbance_bound(refs, actuals, delta_u, nu,
                                           safety=safety)
        if best is None or bound.w_inf < best[1].w_inf:
            best = refs, bound
    return best


def _references(models, template):
    """Every station's reference model on boiler ``template``'s
    dynamics; failures name both boilers."""
    refs = []
    for i, m in enumerate(models):
        try:
            refs.append(make_reference(m, models[template]))
        except (DegenerateTemplateError, TemplateOrderError) as exc:
            raise ScenarioError(0.0, f"boiler {i + 1} on template boiler "
                                     f"{template + 1}: {exc}") from exc
    return refs


def _distribute(u_bar, delta, alpha):
    """Per-station commands with exact conservation of the total."""
    active = [i for i, d in enumerate(delta) if d]
    u = [0.0] * len(delta)
    acc = 0.0
    for i in active[:-1]:
        u[i] = alpha[i] * u_bar
        acc += u[i]
    u[active[-1]] = u_bar - acc
    return u


def _audit(t, du, u_cmds, y_meas, delta, meas_delta, boilers, sets,
           tol=1e-9):
    """Constraint check at one fast period; ``du`` is the total command
    step, zero between slow boundaries.

    Steam commands are judged under the configuration issuing them;
    measured gas is judged only for stations that were already active
    when the sample was taken, so a light-off or shut-down transient is
    not counted against the operating box it is still entering/leaving.
    """
    bad = []
    y_bar = sum(y for y, d in zip(y_meas, delta) if d)
    u_tot = sum(u_cmds)
    if not (sets.y_min - tol <= y_bar <= sets.y_max + tol):
        bad.append(f"t={t:.0f}s total gas {y_bar:.6f} outside global set")
    if not (sets.u_min - tol <= u_tot <= sets.u_max + tol):
        bad.append(f"t={t:.0f}s total steam {u_tot:.6f} outside global set")
    if abs(du) > sets.delta_u + tol:
        bad.append(f"t={t:.0f}s command step {du:.6f} beyond rate cap")
    for i, (b, d, md) in enumerate(zip(boilers, delta, meas_delta)):
        if d and not (b.q_s_min - tol <= u_cmds[i] <= b.q_s_max + tol):
            bad.append(f"t={t:.0f}s boiler {i + 1} steam {u_cmds[i]:.6f} "
                       "outside box")
        if d and md and not (b.q_g_min - tol <= y_meas[i] <= b.q_g_max + tol):
            bad.append(f"t={t:.0f}s boiler {i + 1} gas {y_meas[i]:.6f} "
                       "outside box")
    return bad


def _unchanged(before, after):
    """Whether a fast period left a station state equal bit for bit to
    the one it started from.  ``==`` takes -0.0 for 0.0; ``repr``
    tells them apart and round-trips every float."""
    return before == after and repr(before) == repr(after)


def run_scenario(cfg, idents=None):
    """Simulate the full stack; returns a :class:`RunReport`.

    ``idents`` may carry pre-fitted models to skip the identification
    experiments.  Any layer failure raises :class:`ScenarioError` with
    the simulated time attached.

    A fast period is a pure function of a station's state and its steam
    command.  Once a period has returned the state it started from, bit
    for bit, the station is held: every later period under a bit-equal
    command would repeat that period exactly, so the loop reuses the
    state and its feed ``loop_c.output`` without calling
    :func:`~steamfleet.lowlevel.gas_update` or
    :func:`~steamfleet.lowlevel.apply_period`.  The R loop does not read
    the command, and the unchanged period shows that it maps the held
    state to itself; so when the command moves, ``apply_period`` starts
    from the held state directly.  The hold hides no fault: the
    identical call already ran every pressure, ``V_w`` and ``phi``
    check without raising.
    """
    t_start = time.perf_counter()
    issues = validate_config(cfg)
    if issues:
        raise ConfigError("; ".join(issues))
    if idents is None:
        idents = run_identification(cfg)
    models = [s.model for s in idents]
    refs, bound = select_template(models, cfg.sets.delta_u, cfg.timing.nu,
                                  cfg.mpc.w_safety)
    w_inf = bound.w_inf

    nu, tau, dt = cfg.timing.nu, cfg.timing.tau, cfg.timing.dt
    n_slow = int(round(cfg.timing.duration / (nu * tau)))
    hl_stations = [station_data(p, m) for p, m in zip(cfg.boilers, models)]

    report = RunReport(w_certified=w_inf, idents=list(idents))

    demand0 = demand_at(cfg.demand, 0.0)
    try:
        shares = solve_shares(hl_stations, demand0, cfg.sets, cfg.share)
    except Exception as exc:
        raise ScenarioError(0.0, f"initial dispatch failed: {exc}") from exc
    report.hl_solves = 1
    last_solve_step = 0
    ctrl = None     # built at the first slow boundary and on share changes

    states = [init_station(p, q, cfg.vw_frac)
              for p, q in zip(cfg.boilers, shares.flows)]
    # per station, the steam command under which its last computed
    # period returned its start state bit for bit, or None
    held = [None] * len(states)
    u_cmds = _distribute(shares.u_ss, shares.delta, shares.alpha)
    u_bar = shares.u_ss
    active = None   # optimal working set of the last tracking QP

    # station-grid histories of model length, seeded at equilibrium
    y_hists = [deque([st.loop_r.output] * ref.n_f, maxlen=ref.n_f)
               for st, ref in zip(states, refs)]
    u_hists = [deque([u] * max(1, ref.n_b_eff - 1),
                     maxlen=max(1, ref.n_b_eff - 1))
               for u, ref in zip(u_cmds, refs)]
    x_stations_prev = measured_state(refs, y_hists, u_hists)
    x_pred = None

    for k in range(n_slow * nu):
        m, j = divmod(k, nu)
        t = m * nu * tau
        tf = t + j * tau
        # R loops tick first; the gas they put in force is this
        # instant's measurement
        starts = states
        states = [st if kept is not None else gas_update(p, c, st, tau)
                  for p, c, st, kept in zip(cfg.boilers, cfg.pi_r, states,
                                            held)]
        y_meas = [st.loop_r.output for st in states]
        for h, q_g in zip(y_hists, y_meas):
            h.append(q_g)

        du, meas_delta = 0.0, shares.delta
        if j == 0:
            # u histories end at u(k-1): the new commands land only when
            # the period is applied
            x_stations = measured_state(refs, y_hists, u_hists)
            if x_pred is not None:
                w_obs = float(np.max(np.abs(
                    ensemble_state(x_stations, meas_delta) - x_pred)))
                report.max_w_obs = max(report.max_w_obs, w_obs)
                if w_inf > 0.0 and w_obs > w_inf:
                    report.violations.append(
                        f"t={t:.0f}s observed mismatch {w_obs:.6g} exceeds "
                        f"certified bound {w_inf:.6g}")

            demand = demand_at(cfg.demand, t)
            first_move = None
            if m > 0 and should_resolve(demand, shares, m - last_solve_step,
                                        cfg.share):
                try:
                    new_shares = solve_shares(hl_stations, demand, cfg.sets,
                                              cfg.share, previous=shares)
                except Exception as exc:
                    raise ScenarioError(t, f"dispatch failed: {exc}") from exc
                report.hl_solves += 1
                last_solve_step = m
                if (new_shares.delta != shares.delta
                        or any(abs(a - b) > 1e-12 for a, b in
                               zip(new_shares.alpha, shares.alpha))):
                    first_move = first_move_cap(shares.alpha, shares.delta,
                                                new_shares.alpha,
                                                new_shares.delta,
                                                cfg.sets.delta_u)
                    # input memory follows the surviving ensemble: a
                    # removed station takes its flow with it (diverted,
                    # not counted)
                    u_bar = sum(u for u, d in zip(u_cmds, new_shares.delta)
                                if d)
                    ctrl = None
                shares = new_shares
            if ctrl is None:
                slow = resample(aggregate(refs, shares.delta, shares.alpha),
                                nu)
                try:
                    ctrl = build_controller(slow, hl_stations, shares.alpha,
                                            cfg.sets, w_inf, cfg.mpc)
                except Exception as exc:
                    raise ScenarioError(
                        t, f"controller rebuild failed: {exc}") from exc
            r = slow.gain * shares.u_ss + slow.gamma

            x_now = ensemble_state(x_stations, shares.delta)
            xi0 = velocity_state(x_stations, x_stations_prev, y_meas,
                                 shares.delta)
            try:
                sol = ctrl.solve(xi0, u_bar, r, first_move=first_move,
                                 active=active)
            except Exception as exc:
                raise ScenarioError(t, f"tracking solve failed: {exc}") from exc
            du = sol.u_cmd - u_bar
            u_bar = sol.u_cmd
            r_hat = sol.r_hat
            active = sol.active
            x_pred = slow.A @ x_now + slow.B.reshape(-1) * u_bar
            x_stations_prev = x_stations
            u_cmds = _distribute(u_bar, shares.delta, shares.alpha)

        report.violations.extend(
            _audit(tf, du, u_cmds, y_meas, shares.delta, meas_delta,
                   cfg.boilers, cfg.sets))

        p_row = tuple(st.boiler.p for st in states)
        vw_row = tuple(st.boiler.V_w for st in states)
        qf_row = []
        for i, (p, c) in enumerate(zip(cfg.boilers, cfg.pi_c)):
            cmd = u_cmds[i]
            if held[i] is not None and _unchanged(held[i], cmd):
                q_f = states[i].loop_c.output
            else:
                try:
                    states[i], q_f = apply_period(p, c, states[i], cmd,
                                                  tau, dt)
                except (PressureRangeError, ModelValidityError) as exc:
                    raise ScenarioError(tf, f"boiler {i + 1}: {exc}") from exc
                held[i] = cmd if _unchanged(starts[i], states[i]) else None
            u_hists[i].append(cmd)
            qf_row.append(q_f)
        y_bar_acc = sum(g for g, d in zip(y_meas, shares.delta) if d)
        report.frames.append(Frame(
            t=tf, demand=demand_at(cfg.demand, tf), r=r, r_hat=r_hat,
            u_bar=u_bar, y_bar=y_bar_acc, u_ss=shares.u_ss,
            alpha=tuple(shares.alpha), delta=tuple(shares.delta),
            qs=tuple(u_cmds), qg=tuple(y_meas), qf=tuple(qf_row),
            p=p_row, vw=vw_row))
        report.total_gas += sum(y_meas) * tau
        report.total_steam += sum(u_cmds) * tau

    report.wall_ms = (time.perf_counter() - t_start) * 1e3
    return report
