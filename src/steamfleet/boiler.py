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
"""

from dataclasses import dataclass, replace

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


@dataclass(frozen=True)
class BoilerState:
    p: float    # bar
    V_w: float  # m3


@dataclass(frozen=True)
class BoilerInputs:
    q_g: float  # kg/s
    q_f: float  # kg/s
    q_s: float  # kg/s

    @property
    def q_w(self):
        return self.q_f - self.q_s


class ModelValidityError(RuntimeError):
    """State left the region where the lumped model is meaningful."""


def _check_state(params, state):
    if not (0.0 < state.V_w < params.V_T):
        raise ModelValidityError(
            f"V_w={state.V_w!r} outside (0, {params.V_T}) m3"
        )


def phi(params, state, s):
    """Energy capacity of the saturated volume, J/Pa.

    Sum of the vapor and liquid storage terms, the pressure-work volume
    V_T, the metal heat capacity referred to saturation temperature, and
    the mass-redistribution coupling term, evaluated from ``s``, the
    :class:`SaturationPoint` at ``state.p``.  Must be positive for the
    pressure dynamics to be well posed; raises
    :class:`ModelValidityError` otherwise.
    """
    _check_state(params, state)
    V_w = state.V_w
    V_s = params.V_T - V_w
    h_w = s.h_w * _KJ
    h_s = s.h_s * _KJ
    drho_w = s.drho_w_dp / _BAR
    drho_s = s.drho_s_dp / _BAR
    dh_w = s.dh_w_dp * _KJ / _BAR
    dh_s = s.dh_s_dp * _KJ / _BAR
    dT_s = s.dT_s_dp / _BAR
    mass_slope = drho_w * V_w + drho_s * V_s
    val = (
        V_s * (h_s * drho_s + s.rho_s * dh_s)
        + V_w * (h_w * drho_w + s.rho_w * dh_w)
        + params.V_T
        + params.m_T * params.c_p * _KJ * dT_s
        - mass_slope * (s.rho_w * h_w - s.rho_s * h_s) / (s.rho_w - s.rho_s)
    )
    if val <= 0.0:
        raise ModelValidityError(f"phi={val!r} <= 0 at p={state.p!r} bar")
    return val


def derivatives(params, state, inputs):
    """Time derivatives (dp/dt [bar/s], dV_w/dt [m3/s])."""
    s = saturation(state.p)
    cap = phi(params, state, s)
    power = (
        params.eta * params.lambda_lhv * _KJ * inputs.q_g
        + inputs.q_f * (params.h_f - s.h_w) * _KJ
        - inputs.q_s * (s.h_s - s.h_w) * _KJ
    )
    dp_dt = power / cap / _BAR
    V_s = params.V_T - state.V_w
    mass_slope = s.drho_w_dp * state.V_w + s.drho_s_dp * V_s
    dVw_dt = mass_slope / (s.rho_w - s.rho_s) * dp_dt
    return dp_dt, dVw_dt


def step(params, state, inputs, dt):
    """One fourth-order Runge-Kutta step of length ``dt`` seconds."""

    def f(st):
        return derivatives(params, st, inputs)

    k1p, k1v = f(state)
    k2p, k2v = f(BoilerState(state.p + 0.5 * dt * k1p, state.V_w + 0.5 * dt * k1v))
    k3p, k3v = f(BoilerState(state.p + 0.5 * dt * k2p, state.V_w + 0.5 * dt * k2v))
    k4p, k4v = f(BoilerState(state.p + dt * k3p, state.V_w + dt * k3v))
    new = BoilerState(
        state.p + dt / 6.0 * (k1p + 2.0 * k2p + 2.0 * k3p + k4p),
        state.V_w + dt / 6.0 * (k1v + 2.0 * k2v + 2.0 * k3v + k4v),
    )
    _check_state(params, new)
    return new


def simulate(params, state, inputs, duration, dt):
    """Integrate with zero-order-hold inputs over ``duration`` seconds.

    ``duration`` must be an integer multiple of ``dt``.
    """
    n = round(duration / dt)
    if abs(n * dt - duration) > 1e-9:
        raise ValueError(f"duration {duration} not a multiple of dt {dt}")
    for _ in range(n):
        state = step(params, state, inputs, dt)
    return state


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
