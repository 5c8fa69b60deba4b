"""Lumped two-state model of a gas-fired once-through steam generator.

State is drum pressure ``p`` [bar] and liquid water volume ``V_w`` [m3].
The energy balance treats the tube bundle as a single saturated volume:
heat release from the burner plus the enthalpy deficit of the feed water
drives pressure, and the liquid volume follows the pressure rate through
the saturation density slopes.  Flows are gas ``q_g``, feed water ``q_f``
and steam draw ``q_s``, all in kg/s; the blowdown residue ``q_w`` is the
difference ``q_f - q_s`` (Eq. of mass split at the separator).

Internally the energy balance is evaluated in strict SI (Pa, J), which is
what makes the bare ``V_T`` pressure-work term in the capacity function
dimensionally consistent (J/Pa = m3).  The public interface stays in bar
and kJ/kg to match the parameter tables.

The arithmetic lives once, in the float kernel
``_rates(s, V_w, V_T, metal, h_f, burn, q_f, q_s)``: from the
saturation record ``s`` at ``p``, ``V_w`` and the feed and steam flows
it returns the capacity ``phi`` and both rates.  ``_constants`` gives
the arguments that stay fixed while the inputs are held: ``V_T``, the
metal heat capacity ``metal`` = m_T c_p 1e3 [J/K], ``h_f`` and the
burner power ``burn`` = eta lambda_lhv 1e3 q_g [W], each in the
association the kernel once used inline, so every float is unchanged.
``simulate`` computes them once per call and runs its RK4 steps on
``p`` and ``V_w`` as bare floats, building one :class:`BoilerState` at
the end; :func:`phi` and :func:`derivatives` are wrappers over the same
kernel.  The validity checks, in the order they run at every RK4 stage:

* ``saturation`` rejects a pressure outside [10, 100] bar
  (:class:`~steamfleet.properties.PressureRangeError`);
* the kernel rejects ``V_w`` outside ``(0, V_T)``, then ``phi <= 0``
  (:class:`ModelValidityError`).

After each step ``simulate`` checks ``V_w`` again; the end pressure is
checked by the next stage that reads it.

``simulate`` holds the state once a step's first stage returns exactly
zero rates, as an unlit boiler with gas, feed and steam all 0 does: that
stage maps its input to itself, so every later stage and step would
repeat it bit for bit, and it has already run every check they would.
"""

from dataclasses import dataclass
from typing import NamedTuple

from .properties import saturation

_BAR = 1.0e5  # Pa
_KJ = 1.0e3   # J


@dataclass(frozen=True)
class BoilerParams:
    """Physical and economic parameters of one generator.

    Attributes
    ----------
    V_T : float
        Total tube volume, m3.
    m_T : float
        Metal mass of the tube bundle, kg.
    c_p : float
        Metal specific heat, kJ/(kg K).
    eta : float
        Burner efficiency.
    lambda_lhv : float
        Effective lower heating value per unit of gas command, kJ/kg.
    h_f : float
        Feed water enthalpy, kJ/kg.
    q_s_min, q_s_max : float
        Admissible steam production interval, kg/s.
    q_g_min, q_g_max : float
        Admissible gas flow interval, kg/s.
    lambda_cost : float
        Relative gas cost weight used by the load-sharing layer.
    p_sp : float
        Operating pressure set-point, bar.
    """

    V_T: float
    m_T: float
    c_p: float
    eta: float
    lambda_lhv: float
    h_f: float
    q_s_min: float
    q_s_max: float
    q_g_min: float
    q_g_max: float
    lambda_cost: float
    p_sp: float


class BoilerState(NamedTuple):
    p: float    # bar
    V_w: float  # m3


class BoilerInputs(NamedTuple):
    q_g: float  # kg/s
    q_f: float  # kg/s
    q_s: float  # kg/s


class ModelValidityError(RuntimeError):
    """State left the region where the lumped model is meaningful."""


def _outside(V_T, V_w):
    return ModelValidityError(f"V_w={V_w!r} outside (0, {V_T}) m3")


def _constants(params, q_g):
    """The per-call arguments of :func:`_rates` after ``V_w``:
    ``(V_T, metal, h_f, burn)`` for the gas flow ``q_g``."""
    return (params.V_T, params.m_T * params.c_p * _KJ, params.h_f,
            params.eta * params.lambda_lhv * _KJ * q_g)


def _rates(s, V_w, V_T, metal, h_f, burn, q_f, q_s):
    """The plant kernel: ``(phi, dp/dt, dV_w/dt)`` on bare floats.

    ``s`` is the :class:`SaturationPoint` at the pressure; the caller
    takes it from ``saturation``, which checks the pressure range.
    ``V_T`` to ``burn`` come from :func:`_constants`.  This checks
    ``0 < V_w < V_T`` and ``phi > 0``, in that order.
    """
    if not (0.0 < V_w < V_T):
        raise _outside(V_T, V_w)
    p, _, rho_w, rho_s, h_w_kj, h_s_kj, dT_s_dp, drho_w_dp, drho_s_dp, \
        dh_w_dp, dh_s_dp = s
    V_s = V_T - V_w
    h_w = h_w_kj * _KJ
    h_s = h_s_kj * _KJ
    drho_w = drho_w_dp / _BAR
    drho_s = drho_s_dp / _BAR
    dh_w = dh_w_dp * _KJ / _BAR
    dh_s = dh_s_dp * _KJ / _BAR
    dT_s = dT_s_dp / _BAR
    drho = rho_w - rho_s
    cap = (
        V_s * (h_s * drho_s + rho_s * dh_s)
        + V_w * (h_w * drho_w + rho_w * dh_w)
        + V_T
        + metal * dT_s
        - (drho_w * V_w + drho_s * V_s) * (rho_w * h_w - rho_s * h_s) / drho
    )
    if cap <= 0.0:
        raise ModelValidityError(f"phi={cap!r} <= 0 at p={p!r} bar")
    power = (
        burn
        + q_f * (h_f - h_w_kj) * _KJ
        - q_s * (h_s_kj - h_w_kj) * _KJ
    )
    dp_dt = power / cap / _BAR
    dVw_dt = (drho_w_dp * V_w + drho_s_dp * V_s) / drho * dp_dt
    return cap, dp_dt, dVw_dt


def phi(params, state, s):
    """Energy capacity of the saturated volume, J/Pa.

    Sum of the vapor and liquid storage terms, the pressure-work volume
    V_T, the metal heat capacity referred to saturation temperature, and
    the mass-redistribution coupling term, evaluated from ``s``, the
    :class:`SaturationPoint` at ``state.p``.  Must be positive for the
    pressure dynamics to be well posed; raises
    :class:`ModelValidityError` otherwise.
    """
    return _rates(s, state.V_w, *_constants(params, 0.0), 0.0, 0.0)[0]


def derivatives(params, state, inputs):
    """Time derivatives (dp/dt [bar/s], dV_w/dt [m3/s])."""
    _, dp_dt, dVw_dt = _rates(saturation(state.p), state.V_w,
                              *_constants(params, inputs.q_g),
                              inputs.q_f, inputs.q_s)
    return dp_dt, dVw_dt


def simulate(params, state, inputs, duration, dt):
    """Integrate with zero-order-hold inputs over ``duration`` seconds.

    Fourth-order Runge-Kutta steps of length ``dt`` on ``p`` and ``V_w``
    as bare floats; ``duration`` must be an integer multiple of ``dt``.

    Each step checks, in order: the pressure range and then ``V_w`` and
    ``phi`` at each of its four stages, then ``V_w`` at the step's end.
    A step whose first stage returns rates of exactly 0 ends the loop:
    its later stages read the same input, so it and every step after it
    would leave ``(p, V_w)`` unchanged and raise nothing new.
    """
    n = round(duration / dt)
    if abs(n * dt - duration) > 1e-9:
        raise ValueError(f"duration {duration} not a multiple of dt {dt}")
    q_f, q_s = inputs.q_f, inputs.q_s
    V_T, metal, h_f, burn = _constants(params, inputs.q_g)
    half = 0.5 * dt
    sixth = dt / 6.0
    p, V_w = state.p, state.V_w
    for _ in range(n):
        _, k1p, k1v = _rates(saturation(p), V_w,
                             V_T, metal, h_f, burn, q_f, q_s)
        if k1p == 0.0 and k1v == 0.0:
            break
        _, k2p, k2v = _rates(saturation(p + half * k1p), V_w + half * k1v,
                             V_T, metal, h_f, burn, q_f, q_s)
        _, k3p, k3v = _rates(saturation(p + half * k2p), V_w + half * k2v,
                             V_T, metal, h_f, burn, q_f, q_s)
        _, k4p, k4v = _rates(saturation(p + dt * k3p), V_w + dt * k3v,
                             V_T, metal, h_f, burn, q_f, q_s)
        p = p + sixth * (k1p + 2.0 * k2p + 2.0 * k3p + k4p)
        V_w = V_w + sixth * (k1v + 2.0 * k2v + 2.0 * k3v + k4v)
        if not (0.0 < V_w < V_T):
            raise _outside(V_T, V_w)
    return BoilerState(p, V_w)


def balance_gas(params, p, q_s, q_f=None):
    """Gas flow that holds pressure steady at ``p`` for the given flows.

    With the feed loop converged (``q_f == q_s``) this reduces to
    ``q_s * (h_s - h_f) / (eta * lambda_lhv)``.
    """
    if q_f is None:
        q_f = q_s
    s = saturation(p)
    need = q_s * (s.h_s - s.h_w) - q_f * (params.h_f - s.h_w)
    return need / (params.eta * params.lambda_lhv)
