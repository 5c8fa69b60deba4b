"""Saturated steam and water properties on the boiler operating range.

All thermodynamic data used by the boiler model comes from degree-5
polynomial fits to the IAPWS-IF97 saturation line over 10..100 bar, with
extra fitting weight around the 57 bar operating point.  The coefficients
are frozen constants produced by ``scripts/fit_saturation_polynomials.py``;
derivatives are the exact analytic derivatives of the fitted polynomials,
so every property curve is smooth and self-consistent by construction.
``saturation`` evaluates all ten fits in straight-line Horner form and
returns them as one :class:`SaturationPoint` named tuple, built by
``tuple.__new__`` directly rather than through the named tuple's
Python-level constructor.

Units: pressure in bar, temperature in K, density in kg/m3, specific
enthalpy in kJ/kg.  Derivatives are per bar.
"""

from typing import NamedTuple

P_MIN = 10.0
P_MAX = 100.0

# normalization u = (p - _P_CENTER) / _P_HALFSPAN maps [10, 100] to [-1, 1]
_P_CENTER = 55.0
_P_HALFSPAN = 45.0

# Coefficients in ascending powers of u.  Max relative fit error over the
# range is 2.1e-3 (saturation temperature at the 10 bar edge); at 57 bar
# every curve is within 1.1e-4 of IF97.
_TSAT_C = (
    543.0743375477697,
    52.4758789493219,
    -14.887009262355672,
    5.659305884664589,
    -8.91141310934196,
    7.169688694404892,
)
_RHO_W_C = (
    767.5434535440907,
    -87.11794733087066,
    12.175747214482081,
    -6.608809841625173,
    7.488225395880299,
    -5.327086077839236,
)
_RHO_S_C = (
    28.056475690482934,
    24.600011461436974,
    2.2551270412866504,
    0.454318549615506,
    -0.006768302066656727,
    0.10247591775333374,
)
_H_W_C = (
    1184.7379769040974,
    267.17388929568114,
    -59.04352071589747,
    22.203139285453485,
    -37.57333530453867,
    32.59114396440551,
)
_H_S_C = (
    2789.6538108656728,
    -43.415642382504565,
    -23.884390468373805,
    6.742270662177217,
    -13.386035263390525,
    10.3292054999487,
)

# Feed water enthalpy for liquid at 105 C (IF97 saturated liquid), kJ/kg.
H_FEED_105C = 440.2131268412942


class PressureRangeError(ValueError):
    """Pressure outside the fitted saturation range."""

    def __init__(self, p):
        self.p = p
        super().__init__(
            f"pressure {p!r} bar outside fitted range [{P_MIN}, {P_MAX}] bar"
        )


def _dcoef(c):
    return tuple((k + 1) * c[k + 1] for k in range(len(c) - 1))


_D_TSAT_C = _dcoef(_TSAT_C)
_D_RHO_W_C = _dcoef(_RHO_W_C)
_D_RHO_S_C = _dcoef(_RHO_S_C)
_D_H_W_C = _dcoef(_H_W_C)
_D_H_S_C = _dcoef(_H_S_C)

# du/dp: each slope in u is multiplied by it to give a slope per bar
_DU_DP = 1.0 / _P_HALFSPAN


class SaturationPoint(NamedTuple):
    """Saturation state and pressure slopes at one pressure.

    A named tuple, so the plant kernel can unpack it in one step.

    Attributes
    ----------
    p : float
        Pressure, bar.
    T_s : float
        Saturation temperature, K.
    rho_w, rho_s : float
        Saturated liquid / vapor density, kg/m3.
    h_w, h_s : float
        Saturated liquid / vapor enthalpy, kJ/kg.
    dT_s_dp, drho_w_dp, drho_s_dp, dh_w_dp, dh_s_dp : float
        Derivatives of the above with respect to pressure, per bar.
    """

    p: float
    T_s: float
    rho_w: float
    rho_s: float
    h_w: float
    h_s: float
    dT_s_dp: float
    drho_w_dp: float
    drho_s_dp: float
    dh_w_dp: float
    dh_s_dp: float


_new_tuple = tuple.__new__


def saturation(p):
    """Saturation properties at pressure ``p`` in bar.

    Each fit is written out in Horner form, innermost bracket on the
    highest power: ``(((c5*u + c4)*u + c3)*u + ...)*u + c0``.  That is
    the association of a loop over the coefficients from the top, so
    the unrolled form gives the same floats without a call per fit.

    Raises :class:`PressureRangeError` outside [10, 100] bar.
    """
    if not (P_MIN <= p <= P_MAX):
        raise PressureRangeError(p)
    u = (p - _P_CENTER) / _P_HALFSPAN
    c0, c1, c2, c3, c4, c5 = _TSAT_C
    T_s = ((((c5 * u + c4) * u + c3) * u + c2) * u + c1) * u + c0
    c0, c1, c2, c3, c4, c5 = _RHO_W_C
    rho_w = ((((c5 * u + c4) * u + c3) * u + c2) * u + c1) * u + c0
    c0, c1, c2, c3, c4, c5 = _RHO_S_C
    rho_s = ((((c5 * u + c4) * u + c3) * u + c2) * u + c1) * u + c0
    c0, c1, c2, c3, c4, c5 = _H_W_C
    h_w = ((((c5 * u + c4) * u + c3) * u + c2) * u + c1) * u + c0
    c0, c1, c2, c3, c4, c5 = _H_S_C
    h_s = ((((c5 * u + c4) * u + c3) * u + c2) * u + c1) * u + c0
    d0, d1, d2, d3, d4 = _D_TSAT_C
    dT_s = ((((d4 * u + d3) * u + d2) * u + d1) * u + d0) * _DU_DP
    d0, d1, d2, d3, d4 = _D_RHO_W_C
    drho_w = ((((d4 * u + d3) * u + d2) * u + d1) * u + d0) * _DU_DP
    d0, d1, d2, d3, d4 = _D_RHO_S_C
    drho_s = ((((d4 * u + d3) * u + d2) * u + d1) * u + d0) * _DU_DP
    d0, d1, d2, d3, d4 = _D_H_W_C
    dh_w = ((((d4 * u + d3) * u + d2) * u + d1) * u + d0) * _DU_DP
    d0, d1, d2, d3, d4 = _D_H_S_C
    dh_s = ((((d4 * u + d3) * u + d2) * u + d1) * u + d0) * _DU_DP
    return _new_tuple(SaturationPoint, (p, T_s, rho_w, rho_s, h_w, h_s,
                                        dT_s, drho_w, drho_s, dh_w, dh_s))
