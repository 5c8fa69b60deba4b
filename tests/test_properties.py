"""Saturation-property fits against frozen steam-table values.

The expected numbers at 57 bar were produced by the self-checked
steam-table implementation in scripts/fit_saturation_polynomials.py
(which asserts the published verification points before fitting);
they are frozen here so the test does not depend on that script.
"""

import math

import pytest
from hypothesis import given, strategies as st

from steamfleet import properties
from steamfleet.properties import (H_FEED_105C, P_MAX, P_MIN,
                                   PressureRangeError, saturation)

# Reference values at 57.0 bar (steam tables, not the fits).
REF_57 = {
    "T_s": 545.4097841445309,
    "rho_w": 763.6681778637766,
    "rho_s": 29.154271054098547,
    "h_w": 1196.6261507472746,
    "h_s": 2787.7283295209368,
}
# Central-difference slopes of the steam tables at 57.0 bar, per bar.
REF_57_SLOPES = {
    "dT_s_dp": 1.1309199226730016,
    "drho_w_dp": -1.9092223157031185,
    "drho_s_dp": 0.5510661351451063,
    "dh_w_dp": 5.789027278183312,
    "dh_s_dp": -1.019483001982735,
}


def test_operating_point_matches_steam_tables():
    s = saturation(57.0)
    for name, ref in REF_57.items():
        assert getattr(s, name) == pytest.approx(ref, rel=5e-4), name


def test_operating_point_slopes_match_steam_tables():
    # Derivatives of a fitted polynomial carry more error than the fit
    # itself; one percent is ample for the energy-balance terms.
    s = saturation(57.0)
    for name, ref in REF_57_SLOPES.items():
        assert getattr(s, name) == pytest.approx(ref, rel=1e-2), name


def test_feed_enthalpy_constant():
    # 105 degC saturated liquid; same frozen source as above.
    assert H_FEED_105C == pytest.approx(440.21, abs=0.01)


def test_derivatives_consistent_with_fit_differences():
    # The analytic slopes must match central differences of the fit
    # itself much more tightly than the fit matches the tables.
    for p in (20.0, 41.0, 57.0, 73.5, 90.0):
        s = saturation(p)
        d = 1e-4
        hi, lo = saturation(p + d), saturation(p - d)
        for name, attr in (("dT_s_dp", "T_s"), ("drho_w_dp", "rho_w"),
                           ("drho_s_dp", "rho_s"), ("dh_w_dp", "h_w"),
                           ("dh_s_dp", "h_s")):
            fd = (getattr(hi, attr) - getattr(lo, attr)) / (2 * d)
            assert getattr(s, name) == pytest.approx(fd, rel=1e-6, abs=1e-9), name


@pytest.mark.parametrize("p", [P_MIN - 1e-6, 5.0, 0.0, -3.0, P_MAX + 1e-6, 150.0])
def test_out_of_range_pressure_raises(p):
    with pytest.raises(PressureRangeError) as err:
        saturation(p)
    assert err.value.p == p


def test_range_endpoints_are_included():
    saturation(P_MIN)
    saturation(P_MAX)


@given(st.floats(min_value=20.0, max_value=90.0))
def test_phase_ordering_invariants(p):
    s = saturation(p)
    assert 0.0 < s.rho_s < s.rho_w
    assert s.h_s > s.h_w > 0.0
    assert s.T_s > 373.0


def test_monotone_trends_over_working_range():
    prev = None
    for k in range(201):
        p = 20.0 + 70.0 * k / 200
        s = saturation(p)
        assert s.dT_s_dp > 0.0
        assert s.drho_w_dp < 0.0
        assert s.drho_s_dp > 0.0
        if prev is not None:
            assert s.T_s > prev.T_s
            assert s.rho_s > prev.rho_s
            assert s.rho_w < prev.rho_w
        prev = s


def test_continuity_fine_grid():
    # Polynomials are smooth; adjacent samples 0.01 bar apart must not
    # jump by more than a linear bound on the local slope.
    last = saturation(30.0)
    for k in range(1, 1001):
        p = 30.0 + 0.01 * k
        s = saturation(p)
        assert abs(s.h_w - last.h_w) < 0.2
        assert abs(s.rho_w - last.rho_w) < 0.1
        last = s


def test_everything_finite_across_range():
    for k in range(101):
        p = P_MIN + (P_MAX - P_MIN) * k / 100
        s = saturation(p)
        for f in (s.T_s, s.rho_w, s.rho_s, s.h_w, s.h_s, s.dT_s_dp,
                  s.drho_w_dp, s.drho_s_dp, s.dh_w_dp, s.dh_s_dp):
            assert math.isfinite(f)


def _loop_horner(c, u):
    acc = 0.0
    for ck in reversed(c):
        acc = acc * u + ck
    return acc


def _loop_saturation(p):
    # The fits evaluated one coefficient at a time, from the highest
    # power down, with the slopes taken from the differentiated tuples.
    u = (p - properties._P_CENTER) / properties._P_HALFSPAN
    du_dp = 1.0 / properties._P_HALFSPAN
    fits = (properties._TSAT_C, properties._RHO_W_C, properties._RHO_S_C,
            properties._H_W_C, properties._H_S_C)
    values = [_loop_horner(c, u) for c in fits]
    slopes = [_loop_horner([(k + 1) * c[k + 1] for k in range(len(c) - 1)], u)
              * du_dp for c in fits]
    return (p, *values, *slopes)


def test_unrolled_fits_equal_loop_horner_bit_for_bit():
    grid = [P_MIN + (P_MAX - P_MIN) * k / 900 for k in range(901)]
    assert grid[0] == P_MIN and grid[-1] == P_MAX
    for p in grid:
        assert tuple(saturation(p)) == _loop_saturation(p), p
