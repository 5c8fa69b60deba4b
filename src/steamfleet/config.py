"""Configuration records for the three-layer plant controller.

Everything a run needs is collected in :class:`ScenarioConfig`, which
serializes to a versioned JSON document so experiments can be replayed
from a file.  ``default_config`` builds the five-generator fleet used
throughout; individual layers read only their own sub-record.
"""

import dataclasses
import json
import math
import typing
from dataclasses import dataclass, field

from .boiler import BoilerParams
from .lowlevel import PIConfig
from .properties import H_FEED_105C

CONFIG_VERSION = 2

# Shipped fleet: five generators of similar construction but unequal
# tube volume, metal mass, burner efficiency and fuel contract price.
_V_T = (1.21, 1.15, 1.28, 1.14, 1.32)
_M_T = (5499.0, 5220.0, 5830.0, 5060.0, 5995.0)
_ETA = (0.90, 0.92, 0.89, 0.95, 0.99)
_Q_S = ((0.1, 1.264), (0.092, 1.16), (0.089, 1.125), (0.095, 1.20), (0.099, 1.25))
_Q_G = ((0.1251, 0.8588), (0.1273, 0.8435), (0.1295, 0.8458),
        (0.1253, 0.8414), (0.1227, 0.8389))
_LAMBDA = (100.0, 130.0, 120.0, 70.0, 80.0)

# Pressure-loop gains were tuned on the nonlinear model for a uniform
# 120 s two-percent recovery with no overshoot across the whole fleet
# (scripts/calibrate_pressure_loop.py).  The feed filter gains give a
# one-period command tracker with a modest proportional kick.
R_GAINS = (0.1212, 3.5e-3)
C_GAINS = (0.31, 0.1)


class ConfigError(ValueError):
    """Configuration file or record failed validation."""


@dataclass(frozen=True)
class TimingConfig:
    # RK4 step, s; tests/test_step_budget.py bounds its error against a
    # step ten times finer
    dt: float = 5.0
    tau: float = 10.0        # fast control period, s
    nu: int = 3              # slow period = nu * tau
    duration: float = 3600.0


@dataclass(frozen=True)
class GlobalSets:
    """Plant-wide command and production intervals plus the rate cap."""
    u_min: float = 0.089
    u_max: float = 6.0
    y_min: float = 0.1227
    y_max: float = 4.220
    delta_u: float = 0.5     # per slow period, kg/s


@dataclass(frozen=True)
class IdentConfig:
    n_f: int = 3
    n_b: int = 2
    n_k: int = 1
    n_levels: int = 12
    hold_s: float = 600.0
    ramp_step: float = 0.1   # per-period command ramp between held levels
    val_frac: float = 0.2
    fit_min: float = 95.0    # free-run fit percent gate
    seed: int = 2214


@dataclass(frozen=True)
class ShareConfig:
    """Load-share optimizer settings."""
    lambda_bar: float | None = None   # None: 1e3 * max fleet cost weight
    trigger_threshold: float = 3e-2   # demand move that forces a re-solve
    period_slow_steps: int = 5        # forced re-solve cadence
    reg: float = 1e-9                 # curvature floor on share variables
    tie_tol: float = 1e-9
    # a split is usable only if the per-station boxes, mapped through
    # the fixed shares, leave the tracking layer this much total-command
    # room; narrower patterns are treated as infeasible
    min_headroom: float = 0.5


@dataclass(frozen=True)
class MpcConfig:
    horizon: int = 10
    q_y: float = 1.0
    r_du: float = 0.1
    rho: float = 1e4          # artificial reference attraction
    lqr_q_dx: float = 1e-6    # state-increment weight in the tube gain design
    tube_eps: float = 0.01    # spectral tail cutoff for the tube sum
    w_safety: float = 1.25
    margin_frac_max: float = 0.5   # reject tightenings past half the width


@dataclass(frozen=True)
class ScenarioConfig:
    boilers: tuple[BoilerParams, ...]
    pi_r: tuple[PIConfig, ...]
    pi_c: tuple[PIConfig, ...]
    timing: TimingConfig = field(default_factory=TimingConfig)
    sets: GlobalSets = field(default_factory=GlobalSets)
    ident: IdentConfig = field(default_factory=IdentConfig)
    share: ShareConfig = field(default_factory=ShareConfig)
    mpc: MpcConfig = field(default_factory=MpcConfig)
    demand: tuple[tuple[float, float], ...] = (
        (0.0, 2.0), (600.0, 2.2), (1200.0, 2.3),
        (1800.0, 3.2), (2450.0, 4.0), (3000.0, 3.3),
    )
    vw_frac: float = 0.5


def default_fleet(lambda_lhv=4200.0, c_p=0.5, p_sp=57.0):
    boilers = []
    for i in range(5):
        boilers.append(BoilerParams(
            V_T=_V_T[i], m_T=_M_T[i], c_p=c_p, eta=_ETA[i],
            lambda_lhv=lambda_lhv, h_f=H_FEED_105C,
            q_s_min=_Q_S[i][0], q_s_max=_Q_S[i][1],
            q_g_min=_Q_G[i][0], q_g_max=_Q_G[i][1],
            lambda_cost=_LAMBDA[i], p_sp=p_sp))
    return tuple(boilers)


def default_config():
    boilers = default_fleet()
    pi_r = tuple(PIConfig(R_GAINS[0], R_GAINS[1], 0.0, b.q_g_max)
                 for b in boilers)
    pi_c = tuple(PIConfig(C_GAINS[0], C_GAINS[1], 0.0, 1.5 * b.q_s_max)
                 for b in boilers)
    return ScenarioConfig(boilers=boilers, pi_r=pi_r, pi_c=pi_c)


def _type_issues(value, kind, name):
    """Leaves of ``value`` that do not match the annotation ``kind``.

    Records and tuples are walked field by field; ``int`` leaves must be
    ``int`` (not ``bool``), ``float`` leaves finite real numbers, and
    ``float | None`` leaves may also be ``None``.
    """
    if dataclasses.is_dataclass(kind):
        if not isinstance(value, kind):
            return [f"{name} must be a record"]
        return [issue for f in dataclasses.fields(kind)
                for issue in _type_issues(getattr(value, f.name), f.type,
                                          f"{name}.{f.name}" if name else f.name)]
    if typing.get_origin(kind) is tuple:
        if not isinstance(value, tuple):
            return [f"{name} must be a list"]
        args = typing.get_args(kind)
        kinds = (args[0],) * len(value) if args[-1] is Ellipsis else args
        if len(kinds) != len(value):
            return [f"{name} must have {len(kinds)} entries"]
        return [issue for i, (v, k) in enumerate(zip(value, kinds))
                for issue in _type_issues(v, k, f"{name}[{i}]")]
    if kind is int:
        return [] if type(value) is int else [f"{name} must be an integer"]
    if value is None and kind is not float:
        return []
    if (isinstance(value, (int, float)) and not isinstance(value, bool)
            and math.isfinite(value)):
        return []
    return [f"{name} must be a finite number"]


def validate_config(cfg):
    """Return a list of problems; empty means the record is usable."""
    issues = _type_issues(cfg, ScenarioConfig, "")
    if issues:
        return issues
    n = len(cfg.boilers)
    if n == 0:
        issues.append("no boilers")
    if len(cfg.pi_r) != n or len(cfg.pi_c) != n:
        issues.append("loop config count does not match boiler count")
    for i, b in enumerate(cfg.boilers):
        if b.V_T <= 0 or b.m_T <= 0 or b.c_p <= 0:
            issues.append(f"boiler {i + 1}: non-positive physical parameter")
        if not (0 < b.eta <= 1):
            issues.append(f"boiler {i + 1}: efficiency outside (0, 1]")
        if b.lambda_lhv <= 0:
            issues.append(f"boiler {i + 1}: non-positive heating value")
        if b.lambda_cost <= 0:
            issues.append(f"boiler {i + 1}: non-positive fuel cost")
        if not (0 <= b.q_s_min < b.q_s_max):
            issues.append(f"boiler {i + 1}: bad steam interval")
        if not (0 <= b.q_g_min < b.q_g_max):
            issues.append(f"boiler {i + 1}: bad gas interval")
        if not (10.0 < b.p_sp < 100.0):
            issues.append(
                f"boiler {i + 1}: set-point outside the property fits")
    t = cfg.timing
    if t.dt <= 0 or t.tau <= 0 or t.nu < 1:
        issues.append("non-positive timing entry")
    else:
        if abs(round(t.tau / t.dt) * t.dt - t.tau) > 1e-9:
            issues.append("tau must be a multiple of dt")
        periods = t.duration / (t.nu * t.tau)
        if round(periods) < 1 or abs(round(periods) - periods) > 1e-9:
            issues.append("duration must be a positive multiple of nu * tau")
    s = cfg.sets
    if not (s.u_min < s.u_max and s.y_min < s.y_max):
        issues.append("empty global interval")
    if s.delta_u <= 0:
        issues.append("rate cap must be positive")
    if cfg.ident.val_frac <= 0 or cfg.ident.val_frac >= 1:
        issues.append("validation fraction outside (0, 1)")
    if min(cfg.ident.n_f, cfg.ident.n_b, cfg.ident.n_k) < 1:
        issues.append("ARX orders must be at least 1")
    if cfg.ident.n_levels < 0:
        issues.append("identification level count must not be negative")
    if cfg.ident.seed < 0:
        issues.append("identification seed must not be negative")
    if cfg.ident.ramp_step <= 0:
        issues.append("identification ramp step must be positive")
    # identification holds each level for round(hold_s / tau) periods
    hold_s = cfg.ident.hold_s
    if hold_s <= 0 or (t.tau > 0 and round(hold_s / t.tau) < 1):
        issues.append("identification hold must cover a fast period")
    # dispatch divides the fuel cost by the demand weight
    if cfg.share.lambda_bar is not None and cfg.share.lambda_bar <= 0:
        issues.append("demand weight lambda_bar must be positive")
    # a negative curvature floor makes the pattern QP indefinite; a
    # negative tie window admits no pattern at all
    if cfg.share.reg < 0:
        issues.append("dispatch curvature floor reg must not be negative")
    if cfg.share.tie_tol < 0:
        issues.append("dispatch tie window tie_tol must not be negative")
    if cfg.mpc.horizon < 2:
        issues.append("horizon must be at least 2")
    if cfg.mpc.q_y < 0 or cfg.mpc.r_du < 0:
        issues.append("tracking weights q_y and r_du must not be negative")
    if not (0 < cfg.mpc.tube_eps < 1):
        issues.append("tube cutoff outside (0, 1)")
    if cfg.mpc.w_safety < 1:
        issues.append("certificate inflation w_safety must be at least 1")
    if not (0 < cfg.vw_frac < 1):
        issues.append("initial liquid fraction vw_frac outside (0, 1)")
    if not cfg.demand:
        issues.append("empty demand schedule")
    last = None
    for t_d, level in cfg.demand:
        if last is not None and t_d <= last:
            issues.append("demand schedule times must increase")
            break
        last = t_d
    return issues


def _as_dict(obj):
    if dataclasses.is_dataclass(obj):
        return {f.name: _as_dict(getattr(obj, f.name))
                for f in dataclasses.fields(obj)}
    if isinstance(obj, tuple):
        return [_as_dict(v) for v in obj]
    return obj


def to_json(cfg, indent=2):
    doc = {"version": CONFIG_VERSION, "scenario": _as_dict(cfg)}
    return json.dumps(doc, indent=indent)


def _tuple_of(cls, items):
    return tuple(cls(**d) for d in items)


def from_json(text):
    try:
        doc = json.loads(text)
    except ValueError as exc:
        # JSONDecodeError, or an integer too long to convert
        raise ConfigError(f"not valid JSON: {exc}") from exc
    except RecursionError as exc:
        raise ConfigError("JSON nested too deeply to parse") from exc
    if not isinstance(doc, dict) or doc.get("version") != CONFIG_VERSION:
        raise ConfigError(f"expected a version {CONFIG_VERSION} document")
    raw = doc.get("scenario")
    if not isinstance(raw, dict):
        raise ConfigError("missing scenario section")
    try:
        cfg = ScenarioConfig(
            boilers=_tuple_of(BoilerParams, raw["boilers"]),
            pi_r=_tuple_of(PIConfig, raw["pi_r"]),
            pi_c=_tuple_of(PIConfig, raw["pi_c"]),
            timing=TimingConfig(**raw["timing"]),
            sets=GlobalSets(**raw["sets"]),
            ident=IdentConfig(**raw["ident"]),
            share=ShareConfig(**raw["share"]),
            mpc=MpcConfig(**raw["mpc"]),
            demand=tuple((float(t), float(v)) for t, v in raw["demand"]),
            vw_frac=float(raw["vw_frac"]),
        )
        issues = validate_config(cfg)
    except (KeyError, TypeError, ValueError, ArithmeticError) as exc:
        raise ConfigError(f"malformed scenario section: {exc}") from exc
    if issues:
        raise ConfigError("; ".join(issues))
    return cfg
