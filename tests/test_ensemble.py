"""Reference construction, exact aggregation, resampling, mismatch bound."""

import numpy as np
import pytest

from steamfleet.ensemble import (DegenerateTemplateError, EnsembleModel,
                                 TemplateOrderError, aggregate,
                                 estimate_disturbance_bound, make_reference,
                                 resample)
from steamfleet.sysid import ArxModel, ModelQualityError, realize

TEMPLATE = ArxModel(f=(-1.1, 0.3, -0.02), b=(0.25, 0.1), n_k=1, c=0.0, tau=10.0)


def station(gain, gamma, f=None, b=None):
    """An ARX fit with prescribed static gain and level."""
    f = TEMPLATE.f if f is None else f
    den = 1.0 + sum(f)
    if b is None:
        b = (gain * den - 0.1, 0.1)
    return ArxModel(f=f, b=b, n_k=1, c=gamma * den, tau=10.0)


def test_reference_matches_station_gain_and_level():
    st = station(gain=0.62, gamma=0.003)
    ref = make_reference(st, TEMPLATE)
    assert ref.gain == pytest.approx(0.62, abs=1e-12)
    assert ref.gamma == pytest.approx(0.003, abs=1e-15)
    # denominator and trailing numerator are the template's
    assert ref.A[0, :3] == pytest.approx([1.1, -0.3, 0.02])
    assert ref.A[0, 3] == pytest.approx(0.1)
    # leading coefficient compensates: b1 = g*(1+sum f) - b2
    assert ref.B[0, 0] == pytest.approx(0.62 * TEMPLATE.denominator - 0.1)
    ss = realize(st)
    assert ref.gain == pytest.approx(ss.gain, abs=1e-12)


def test_reference_selection_matrix_reduced_orders():
    st = station(gain=0.6, gamma=0.0, f=(-1.2, 0.36, 0.0), b=(0.2, 0.1))
    small = ArxModel(f=(-0.7, 0.1), b=(0.3,), n_k=1, c=0.0, tau=10.0)
    ref = make_reference(st, small)
    # template state is 2 output lags; station state is 3 + 1
    assert ref.beta.shape == (2, 4)
    assert ref.beta[0].tolist() == [1.0, 0.0, 0.0, 0.0]
    assert ref.beta[1].tolist() == [0.0, 1.0, 0.0, 0.0]
    assert ref.gain == pytest.approx(st.gain, abs=1e-12)


def test_reference_selection_keeps_input_lags():
    st = station(gain=0.6, gamma=0.0, f=(-1.2, 0.36, 0.0), b=(0.2, 0.1))
    small = ArxModel(f=(-0.7, 0.1), b=(0.3, 0.05), n_k=1, c=0.0, tau=10.0)
    ref = make_reference(st, small)
    assert ref.beta.shape == (3, 4)
    assert ref.beta[2].tolist() == [0.0, 0.0, 0.0, 1.0]


def test_degenerate_template_rejected():
    bad = ArxModel(f=(-1.0,), b=(0.5,), n_k=1, c=0.0, tau=10.0)
    with pytest.raises(DegenerateTemplateError):
        make_reference(station(0.6, 0.0, f=(-0.5,), b=(0.3,)), bad)


def test_template_order_overflow_rejected():
    small_station = station(0.6, 0.0, f=(-0.5,), b=(0.3,))
    with pytest.raises(TemplateOrderError):
        make_reference(small_station, TEMPLATE)


REFS = [make_reference(station(g, c), TEMPLATE)
        for g, c in [(0.62, 0.001), (0.59, -0.002), (0.66, 0.0005)]]


def test_aggregate_combines_inputs_and_levels():
    ens = aggregate(REFS, delta=(1, 1, 1), alpha=(0.5, 0.3, 0.2))
    assert np.allclose(ens.B, 0.5 * REFS[0].B + 0.3 * REFS[1].B + 0.2 * REFS[2].B)
    assert ens.gamma == pytest.approx(0.001 - 0.002 + 0.0005)
    assert ens.gain == pytest.approx(0.5 * 0.62 + 0.3 * 0.59 + 0.2 * 0.66)
    assert np.array_equal(ens.A, REFS[0].A)


def test_aggregate_skips_inactive_levels():
    ens = aggregate(REFS, delta=(1, 0, 1), alpha=(0.7, 0.0, 0.3))
    assert ens.gamma == pytest.approx(0.001 + 0.0005)


@pytest.mark.parametrize("delta,alpha", [
    ((1, 1, 1), (0.5, 0.5, 0.5)),       # shares off the simplex
    ((1, 0, 1), (0.5, 0.2, 0.3)),       # inactive station with load
    ((0, 0, 0), (0.0, 0.0, 0.0)),       # nobody active
])
def test_aggregate_validates_shares(delta, alpha):
    with pytest.raises(ValueError):
        aggregate(REFS, delta=delta, alpha=alpha)


def test_aggregate_requires_common_template():
    other = make_reference(station(0.6, 0.0, f=(-0.5,), b=(0.3,)),
                           ArxModel(f=(-0.5,), b=(0.3,), n_k=1, c=0.0, tau=10.0))
    with pytest.raises(ValueError, match="template"):
        aggregate([REFS[0], other], delta=(1, 1), alpha=(0.5, 0.5))


def test_aggregation_reproduces_summed_stations_exactly():
    """The load-weighted ensemble must track the sum of the per-station
    references exactly when each receives its share of the total."""
    rng = np.random.default_rng(11)
    alpha = (0.5, 0.3, 0.2)
    ens = aggregate(REFS, delta=(1, 1, 1), alpha=alpha)
    n = REFS[0].n
    xs = [np.zeros((n, 1)) for _ in REFS]
    xe = np.zeros((n, 1))
    u = 0.0
    for _ in range(80):
        u += rng.uniform(-0.5, 0.5)
        y_sum = sum((r.C @ x).item() + r.gamma for r, x in zip(REFS, xs))
        y_ens = (ens.C @ xe).item() + ens.gamma
        assert y_ens == pytest.approx(y_sum, abs=1e-10)
        xs = [r.A @ x + r.B * (a * u) for r, x, a in zip(REFS, xs, alpha)]
        xe = ens.A @ xe + ens.B * u


def test_resample_preserves_static_gain():
    ens = aggregate(REFS, delta=(1, 1, 1), alpha=(0.4, 0.4, 0.2))
    slow = resample(ens, 3)
    fast_gain = (ens.C @ np.linalg.solve(np.eye(ens.n) - ens.A, ens.B)).item()
    slow_gain = (slow.C @ np.linalg.solve(np.eye(slow.n) - slow.A, slow.B)).item()
    assert slow_gain == pytest.approx(fast_gain, rel=1e-9)
    assert slow.tau == pytest.approx(3 * ens.tau)


def test_resample_matches_held_fast_rollout():
    ens = aggregate(REFS, delta=(1, 1, 1), alpha=(0.4, 0.4, 0.2))
    slow = resample(ens, 3)
    rng = np.random.default_rng(5)
    u_seq = rng.uniform(0.0, 2.0, size=15)
    xf = np.zeros((ens.n, 1))
    xs = np.zeros((ens.n, 1))
    for u in u_seq:
        for _ in range(3):
            xf = ens.A @ xf + ens.B * u
        xs = slow.A @ xs + slow.B * u
        assert np.allclose(xs, xf, atol=1e-12)


def test_resample_rejects_bad_rate():
    with pytest.raises(ValueError):
        resample(aggregate(REFS, (1, 1, 1), (0.4, 0.4, 0.2)), 0)


def _mismatch_coefficients(ref, actual, nu, n_terms):
    """Independent reconstruction of the slow-scale increment
    coefficients: literal matrix recursion, no shared code path."""
    A, B = actual.A, actual.B
    A_nu = np.linalg.matrix_power(A, nu)
    Ah_nu = np.linalg.matrix_power(ref.A, nu)
    S = sum(np.linalg.matrix_power(A, j) @ B for j in range(nu))
    Sh = sum(np.linalg.matrix_power(ref.A, j) @ ref.B for j in range(nu))
    dA = ref.beta @ A_nu - Ah_nu @ ref.beta
    dS = ref.beta @ S - Sh
    coeffs = [dS]
    X = np.zeros_like(S)
    for _ in range(n_terms - 1):
        X = A_nu @ X + S
        coeffs.append(dA @ X + dS)
    return coeffs


def test_zero_mismatch_for_exact_references():
    # station fits that ARE template-shaped: reference equals fit
    sts = [station(0.6, 0.0), station(0.7, 0.0)]
    refs = [make_reference(s, TEMPLATE) for s in sts]
    actuals = [realize(s) for s in sts]
    bound = estimate_disturbance_bound(refs, actuals, delta_u=0.5, nu=3)
    assert bound.w_inf == pytest.approx(0.0, abs=1e-12)


def test_bound_attained_by_sign_matched_extremal_input():
    """Dual route: drive the true station with the sign-matched
    full-rate increment sequence and confirm the realized mismatch
    reaches the certified per-station value."""
    st = ArxModel(f=(-1.05, 0.29, -0.01), b=(0.31, 0.08), n_k=1, c=0.0,
                  tau=10.0)
    ref = make_reference(st, TEMPLATE)
    actual = realize(st)
    nu, delta_u = 3, 0.5
    bound = estimate_disturbance_bound([ref], [actual], delta_u, nu,
                                       safety=1.0)
    K = bound.steps + 1
    coeffs = _mismatch_coefficients(ref, actual, nu, K)
    row_sums = np.sum(np.abs(np.hstack(coeffs)), axis=1)
    coord = int(np.argmax(row_sums))
    # certificate equals delta_u times the largest row-abs-sum
    assert bound.per_station[0] == pytest.approx(
        delta_u * row_sums[coord], rel=1e-9)
    # increments that align every coefficient at the final step
    incs = [delta_u * np.sign(coeffs[K - 1 - m][coord, 0]) for m in range(K)]
    levels = np.cumsum(incs)
    A_nu = np.linalg.matrix_power(actual.A, nu)
    Ah_nu = np.linalg.matrix_power(ref.A, nu)
    S = sum(np.linalg.matrix_power(actual.A, j) @ actual.B for j in range(nu))
    Sh = sum(np.linalg.matrix_power(ref.A, j) @ ref.B for j in range(nu))
    x = np.zeros((actual.n, 1))
    for u in levels[:-1]:
        x = A_nu @ x + S * u
    x_after = A_nu @ x + S * levels[-1]
    predicted = Ah_nu @ (ref.beta @ x) + Sh * levels[-1]
    w = ref.beta @ x_after - predicted
    assert abs(w[coord, 0]) == pytest.approx(bound.per_station[0], rel=1e-6)
    assert abs(w[coord, 0]) <= bound.per_station[0] * (1 + 1e-9)


def test_simplex_aggregation_greedy_fill():
    """Stations with unequal mismatch: with uncapped shares the bound
    loads the single worst station."""
    sts = [ArxModel(f=(-1.05, 0.29, -0.01), b=(0.31, 0.08), n_k=1, c=0.0, tau=10.0),
           ArxModel(f=(-0.95, 0.21, 0.0), b=(0.40, 0.02), n_k=1, c=0.0, tau=10.0),
           ArxModel(f=(-1.15, 0.35, -0.03), b=(0.22, 0.12), n_k=1, c=0.0, tau=10.0)]
    refs = [make_reference(s, TEMPLATE) for s in sts]
    actuals = [realize(s) for s in sts]
    free = estimate_disturbance_bound(refs, actuals, 0.5, 3, safety=1.0)
    per = list(free.per_station)
    assert all(m > 0 for m in per)
    assert free.w_inf == pytest.approx(max(per), rel=1e-12)


def test_non_decaying_mismatch_raises():
    # near-integrator station: coefficients shrink too slowly to
    # certify anything within the step budget
    st = ArxModel(f=(-0.99999,), b=(0.5,), n_k=1, c=0.0, tau=10.0)
    tmpl = ArxModel(f=(-0.5,), b=(0.3,), n_k=1, c=0.0, tau=10.0)
    ref = make_reference(st, tmpl)
    with pytest.raises(ModelQualityError, match="decaying"):
        estimate_disturbance_bound([ref], [realize(st)], 0.5, 3,
                                   hard_cap=150)
