"""Reference models sharing one template and their load-weighted sum.

Every station gets a reference model with the template's denominator
and input tail; only the leading input coefficient is adjusted so the
reference reproduces that station's identified static gain exactly.
Identical (A, C) across the fleet is what lets share-weighted combination
produce a single small model for the predictive layer: with shares
alpha on the simplex, the weighted sum of reference states obeys

    x+ = A x + (sum_i alpha_i B_i) u,   y = C x + sum_active gamma_i

when every active station receives u_i = alpha_i * u.  The price is a
per-station one-step mismatch w between reference and identified
dynamics; ``estimate_disturbance_bound`` turns the rate cap on u into
a certified box bound on w at the slow scale.  Shares carry no
per-station cap, so that bound is the worst single station's.
"""

from dataclasses import dataclass

import numpy as np

from .sysid import ArxModel, ModelQualityError, realize

# relative drift allowed between a reference model's realized static
# gain and the station gain it was built to reproduce
_GAIN_TOL = 1e-9


class DegenerateTemplateError(ValueError):
    """Template denominator 1 + sum(f) is numerically zero."""


class TemplateOrderError(ValueError):
    """Template orders exceed the station model's."""


@dataclass(frozen=True, eq=False)
class ReferenceModel:
    A: np.ndarray
    B: np.ndarray
    C: np.ndarray
    gamma: float
    gain: float
    beta: np.ndarray       # selection onto template coordinates
    tau: float
    n_f: int               # template output lags
    n_b_eff: int           # template input lags incl. delay padding

    @property
    def n(self):
        return self.A.shape[0]


@dataclass(frozen=True, eq=False)
class EnsembleModel:
    A: np.ndarray
    B: np.ndarray
    C: np.ndarray
    gamma: float
    gain: float
    tau: float

    @property
    def n(self):
        return self.A.shape[0]


def _selection(nf_t, nbe_t, nf_m, nbe_m):
    n_t = nf_t + nbe_t - 1
    n_m = nf_m + nbe_m - 1
    beta = np.zeros((n_t, n_m))
    for i in range(nf_t):
        beta[i, i] = 1.0
    for j in range(nbe_t - 1):
        beta[nf_t + j, nf_m + j] = 1.0
    return beta


def make_reference(model, template):
    """Reference model for one station from its fit and the template.

    ``model`` and ``template`` are affine ARX fits; the reference keeps
    the template's f and trailing b coefficients and sets the leading b
    so the static gain equals the station's.  The station's affine
    level is carried over unchanged.
    """
    den = template.denominator
    if abs(den) < 1e-12:
        raise DegenerateTemplateError(f"1 + sum(f) = {den!r}")
    nf_t = len(template.f)
    nbe_t = len(template.b) + template.n_k - 1
    nf_m = len(model.f)
    nbe_m = len(model.b) + model.n_k - 1
    if nf_t > nf_m or nbe_t > nbe_m:
        raise TemplateOrderError(
            f"template orders ({nf_t},{nbe_t}) exceed model ({nf_m},{nbe_m})")
    g_i = model.gain
    tail = sum(template.b[1:])
    b_lead = g_i * den - tail
    ref_arx = ArxModel(f=template.f, b=(b_lead,) + template.b[1:],
                       n_k=template.n_k, c=model.gamma * den, tau=model.tau)
    ss = realize(ref_arx)
    if abs(ss.gain - g_i) > _GAIN_TOL * max(1.0, abs(g_i)):
        raise ModelQualityError(
            f"reference gain {ss.gain!r} drifted from station gain {g_i!r}")
    beta = _selection(nf_t, nbe_t, nf_m, nbe_m)
    return ReferenceModel(A=ss.A, B=ss.B, C=ss.C, gamma=model.gamma,
                          gain=g_i, beta=beta, tau=model.tau,
                          n_f=nf_t, n_b_eff=nbe_t)


def aggregate(refs, delta, alpha):
    """Share-weighted ensemble of the active references."""
    if len(refs) != len(delta) or len(refs) != len(alpha):
        raise ValueError("length mismatch")
    active = [i for i, d in enumerate(delta) if d]
    if not active:
        raise ValueError("no active station")
    for i, (d, a) in enumerate(zip(delta, alpha)):
        if not d and abs(a) > 1e-12:
            raise ValueError(f"station {i} inactive but alpha={a!r}")
    if abs(sum(alpha[i] for i in active) - 1.0) > 1e-9:
        raise ValueError("active shares must sum to one")
    A0, C0 = refs[active[0]].A, refs[active[0]].C
    for i in active[1:]:
        if not (np.array_equal(refs[i].A, A0) and np.array_equal(refs[i].C, C0)):
            raise ValueError("references do not share one template")
    B = sum(alpha[i] * refs[i].B for i in active)
    gamma = sum(refs[i].gamma for i in active)
    gain = sum(alpha[i] * refs[i].gain for i in active)
    return EnsembleModel(A=A0.copy(), B=B, C=C0.copy(), gamma=gamma,
                         gain=gain, tau=refs[active[0]].tau)


def resample(model, nu):
    """Hold the input over ``nu`` fast periods.

    A_T = A^nu, B_T = sum_{j<nu} A^j B; the static gain is untouched.
    """
    if nu < 1:
        raise ValueError("nu must be at least 1")
    A_T = np.linalg.matrix_power(model.A, nu)
    B_T = np.zeros_like(model.B)
    P = np.eye(model.n)
    for _ in range(nu):
        B_T = B_T + P @ model.B
        P = P @ model.A
    return EnsembleModel(A=A_T, B=B_T, C=model.C.copy(), gamma=model.gamma,
                         gain=model.gain, tau=model.tau * nu)


@dataclass(frozen=True)
class DisturbanceBound:
    w_inf: float
    per_station: tuple
    raw: float
    safety: float
    steps: int


def _station_mismatch(ref, actual, delta_u, nu, tol, hard_cap):
    """Worst per-coordinate slow-scale mismatch for one station under
    rate-limited inputs.

    The mismatch at slow step k is a linear functional of the input
    increments applied so far; gain consistency kills its steady part,
    so the increment coefficients decay geometrically and the supremum
    over |increment| <= delta_u * share is the weighted l1 sum, attained
    by alternating full-rate moves.  Returned per unit share.
    """
    beta = ref.beta
    slow, slow_ref = resample(actual, nu), resample(ref, nu)
    A_nu, S = slow.A, slow.B
    dA = beta @ A_nu - slow_ref.A @ beta
    dS = beta @ S - slow_ref.B
    accum = np.abs(dS[:, 0]).copy()
    X = np.zeros_like(S)
    scale = max(1.0, float(np.max(accum)))
    r = 0
    while True:
        r += 1
        X = A_nu @ X + S
        c = dA @ X + dS
        mag = float(np.max(np.abs(c)))
        accum += np.abs(c[:, 0])
        # geometric decay is not monotone step to step; require a
        # little history before trusting a small coefficient
        if r >= 20 and mag < tol * scale:
            break
        scale = max(scale, mag)
        if r > hard_cap:
            raise ModelQualityError(
                f"mismatch coefficients not decaying after {hard_cap} steps")
    return delta_u * float(np.max(accum)), r


def estimate_disturbance_bound(refs, actuals, delta_u, nu, safety=1.25,
                               tol=1e-13, hard_cap=2000):
    """Certified box bound on the ensemble one-step mismatch.

    Per-station worst cases are per unit share and the shares lie on the
    simplex with no per-station cap, so the worst share vector puts all
    load on the worst station: the bound is the largest per-station
    mismatch, inflated by ``safety``.
    """
    per = []
    steps = 0
    for ref, act in zip(refs, actuals):
        m, r = _station_mismatch(ref, act, delta_u, nu, tol, hard_cap)
        per.append(m)
        steps = max(steps, r)
    raw = max(per)
    return DisturbanceBound(w_inf=safety * raw, per_station=tuple(per),
                            raw=raw, safety=safety, steps=steps)
