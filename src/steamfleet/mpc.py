"""Constraint-tightened velocity-form tracking of the total gas flow.

The slow ensemble model is lifted to velocity coordinates
xi = [x(k)-x(k-1); y(k)] for the nominal predictions, which bakes
integral action into the plan: re-measuring xi every period makes a
constant model error shift the realized increments but not the tracked
output, so steady offset dies without an explicit estimator.

Robustness is by margin back-off in the original state coordinates.
With the one-step ensemble mismatch certified inside the box
|w|_inf <= w_inf, an auxiliary gain K (discrete LQR on the state model)
defines error sets Z_j = sum_{l<j} A_cl^l W around the plan; every
constraint at prediction step j retreats by the support of Z_j in that
constraint's direction.  Re-solving each period from the measurement
then keeps the shifted plan feasible: the correction K A_cl^j w spent
at step j is exactly the margin growth from j to j+1.  Support sums are
truncated once |A_cl^p|_1 falls under ``tube_eps``; the tail is covered
by an explicit inflation term, and those asymptotic margins guard the
terminal rows, which must hold for every step past the horizon.

The tracked target is an internal variable r_hat pulled toward the
requested r by a large weight; when tightened bounds make r unreachable
the plan settles on the closest admissible point instead of going
infeasible.  The terminal equality (zero state increment, output at
r_hat) pins the tail of the plan to a steady point.

The QP over theta = [du_0 .. du_{N-1}; r_hat] is condensed once per
share configuration.  Its Hessian H, inequality rows G and terminal
equality rows A_eq are fixed; every datum that moves with the measured
velocity state xi0 is an affine map of it,

    f    = f_xi xi0 - 2 rho r e_N        b_eq = b_xi xi0
    h    = h0 + h_u u_prev + h_xi xi0    y    = y_rows theta + y_xi xi0

so each solve is these products and one QP.

On a held demand each QP is nearly the one before it, so every solve
hands the kernel the previous optimal working set as a guess
(``MpcController.solve(..., active=)``).  A guess that fits makes the
re-solve a one-iteration solve; one that does not falls back to the
cold start, so a guess moves the plan only at roundoff.
``tests/test_scenario.py`` holds the default run to at most 10 cold
starts and 200 active-set iterations over its 120 tracking QPs.

The controller also owns the kernel's ``factors`` dict, since H, G and
A_eq stay fixed for its life: H is checked once, and each working set
is factored (one SVD and one reduced-Hessian ``eigh``) only the first
time a solve meets it.  A solve whose guess holds then costs the
affine products above, one Newton step and one multiplier read from
stored factors, and the KKT check.  The dict goes with the controller,
so every rebuild, and every run, factors afresh.
"""

from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import solve_discrete_are, toeplitz

from .qp import solve_qp
from .sysid import canonical_state


class GainDesignError(RuntimeError):
    """State model not stabilizable by the Riccati design."""


class TubeTooLargeError(RuntimeError):
    """Tightening margins eat past the allowed fraction of a width."""

    def __init__(self, message, margins):
        super().__init__(message)
        self.margins = margins


class MpcInfeasibleError(RuntimeError):
    def __init__(self, message, diagnostics=None):
        super().__init__(message)
        self.diagnostics = diagnostics or {}


def velocity_model(A_T, B_T, C):
    """Lift (A_T, B_T, C) to increment-plus-output coordinates."""
    n = A_T.shape[0]
    A_v = np.zeros((n + 1, n + 1))
    A_v[:n, :n] = A_T
    A_v[n, :n] = C @ A_T
    A_v[n, n] = 1.0
    B_v = np.vstack([B_T.reshape(n, 1), (C @ B_T).reshape(1, 1)])
    return A_v, B_v


def design_feedback(A_T, B_T, C, cfg):
    """Auxiliary LQR gain for the error dynamics; returns (K, A_cl).

    Output-weighted with a small state floor so the Riccati pencil stays
    regular even when C misses modes.
    """
    n = A_T.shape[0]
    Q = cfg.q_y * np.outer(C, C) + cfg.lqr_q_dx * np.eye(n)
    R = np.array([[cfg.r_du]])
    B = B_T.reshape(n, 1)
    try:
        P = solve_discrete_are(A_T, B, Q, R)
    except Exception as exc:
        raise GainDesignError(f"Riccati solve failed: {exc}") from exc
    K = -np.linalg.solve(R + B.T @ P @ B, B.T @ P @ A_T)
    A_cl = A_T + B @ K
    rho = float(max(abs(np.linalg.eigvals(A_cl))))
    if rho >= 1.0 - 1e-9:
        raise GainDesignError(f"error loop not contractive (rho={rho:.6f})")
    return K.reshape(-1), A_cl


@dataclass(frozen=True, eq=False)
class TubeDesign:
    m_u: np.ndarray        # input-direction margins, index j = 0..N
    m_y: np.ndarray        # output-direction margins
    m_u_inf: float
    m_y_inf: float
    cutoff: int            # truncation power


def build_tube(A_cl, K, C, w_inf, horizon, eps, max_power=500):
    """Margins for every prediction step and the asymptotic tube.

    One walk over the powers A_cl^l gives the cutoff, the first power p
    with |A_cl^p|_1 <= eps, and both support tables: h_{Z_j}(q) =
    w_inf sum_{l<j} |(A_cl^l)' q|_1 for q = K and q = C, exact up to the
    cutoff.  Past it every margin saturates at the asymptote, which
    bounds the tail of m stacked copies of the truncated sum by the
    entry-sum constant times eps/(1-eps) scaled with the direction's max
    coefficient, so no margin ever sits below the true support.
    """
    dirs = (np.ravel(K), np.ravel(C))
    P = np.eye(A_cl.shape[0])
    terms, entry_sum = [np.zeros(2)], 0.0
    for cutoff in range(1, max_power + 1):
        terms.append([np.sum(np.abs(P.T @ q)) for q in dirs])
        entry_sum += float(np.sum(np.abs(P)))
        P = A_cl @ P
        if float(np.max(np.sum(np.abs(P), axis=0))) <= eps:
            break
    else:
        raise GainDesignError(
            f"error loop does not contract below {eps} within {max_power} powers")
    partial = np.cumsum(terms, axis=0)      # row j: sums over powers < j
    q_max = np.array([np.max(np.abs(q)) for q in dirs])
    m_inf = w_inf * (partial[cutoff] + entry_sum * q_max * (eps / (1.0 - eps)))
    steps = np.arange(horizon + 1)
    m = np.where((steps <= cutoff)[:, None],
                 w_inf * partial[np.minimum(steps, cutoff)], m_inf)
    return TubeDesign(m_u=m[:, 0], m_y=m[:, 1], m_u_inf=float(m_inf[0]),
                      m_y_inf=float(m_inf[1]), cutoff=cutoff)


def command_bounds(stations, alpha, sets):
    """Total-command interval implied by every active station's boxes.

    Station i receives alpha_i * u, which must lie in its steam interval
    (``StationData.steam_interval``), so each active station shrinks the
    plant-wide command box to that interval divided by its share.
    """
    lo, hi = sets.u_min, sets.u_max
    for st, a in zip(stations, alpha):
        if a <= 0.0:
            continue
        v_lo, v_hi = st.steam_interval
        lo, hi = max(lo, v_lo / a), min(hi, v_hi / a)
    return lo, hi


@dataclass(frozen=True, eq=False)
class MpcSolution:
    u_cmd: float
    r_hat: float
    du_seq: np.ndarray
    cost: float
    predicted_y: np.ndarray
    active: tuple          # optimal working set, row indices of G


@dataclass(frozen=True, eq=False)
class MpcController:
    """The tracking QP of one share configuration in parametric form.

    Every field but ``factors`` is fixed when the controller is built:
    the QP matrices ``H``, ``G`` and ``A_eq``, and the maps from the
    measured state ``xi0`` (and ``u_prev``) to the linear term, the
    right-hand sides and the predicted outputs (module docstring).  The
    first two rows of ``G`` bound |du_0|.  ``factors`` is the QP
    kernel's cache of the checked ``H`` and of each working set's
    factors (``solve_qp(..., factors=)``); it fills as solves meet
    working sets and goes with the controller.
    """
    tube: TubeDesign
    rho: float
    H: np.ndarray
    G: np.ndarray
    A_eq: np.ndarray
    h0: np.ndarray
    h_u: np.ndarray
    h_xi: np.ndarray
    f_xi: np.ndarray
    b_xi: np.ndarray
    y_rows: np.ndarray
    y_xi: np.ndarray
    factors: dict = field(default_factory=dict, repr=False)

    def solve(self, xi0, u_prev, r, first_move=None, active=None):
        """One receding-horizon step.

        ``xi0`` stacks the measured state increment and output;
        ``first_move`` optionally caps |du_0| tighter, used right after
        a share reconfiguration.  ``active`` guesses the optimal working
        set, normally the ``active`` of the previous solution, which may
        be ``()`` (only the terminal equalities held); None is no guess.
        The QP kernel starts from a guess when it fits and cold
        otherwise, so the guess moves the solution only at roundoff.
        Decision vector is the N nominal increments followed by the
        internal target r_hat.
        """
        xi0 = np.asarray(xi0, dtype=float).reshape(-1)
        h = self.h0 + self.h_u * u_prev + self.h_xi @ xi0
        if first_move is not None:
            h[:2] = min(h[0], first_move)
        if h[0] <= 0.0:
            raise MpcInfeasibleError(
                "rate cap exhausted by tube margins at step 0",
                {"cap": float(h[0]), "step": 0})
        f = self.f_xi @ xi0
        f[-1] -= 2.0 * self.rho * r
        res = solve_qp(self.H, f, self.G, h, self.A_eq, self.b_xi @ xi0,
                       active=active, factors=self.factors)
        if res.status != "optimal":
            raise MpcInfeasibleError(
                f"tracking problem {res.status}",
                {"u_prev": u_prev, "xi0": xi0.tolist(), "r": r,
                 "first_move": first_move})
        theta = res.x
        du = theta[:-1]
        return MpcSolution(u_cmd=float(u_prev + du[0]), r_hat=float(theta[-1]),
                           du_seq=du.copy(), cost=float(res.obj),
                           predicted_y=self.y_rows @ theta + self.y_xi @ xi0,
                           active=res.active)


def _tracking_qp(A_v, B_v, tube, lo_cmd, hi_cmd, sets, cfg):
    """Fixed data of the tracking QP over theta = [du; r_hat].

    Returns the :class:`MpcController` fields from ``H`` on.  Rows of G
    come in pairs (upper, lower bound): rate caps per step, the
    cumulative command per step, the predicted output at steps 1..N-1,
    and r_hat inside the asymptotically tightened output interval.
    Raises :class:`MpcInfeasibleError` when the tube margins exhaust the
    rate cap of a step.
    """
    N = cfg.horizon
    nv = N + 1
    nx = A_v.shape[0]
    powers = [np.eye(nx)]
    for _ in range(N):
        powers.append(A_v @ powers[-1])
    y_xi = np.array([P[-1] for P in powers])      # free outputs
    M = np.column_stack([P @ B_v for P in powers[:N]])  # column m: A_v^m B_v
    y_rows = np.zeros((N + 1, nv))
    y_rows[1:, :N] = toeplitz(M[-1], np.zeros(N))
    eye = np.eye(nv)
    e_r = eye[N]
    L = y_rows[1:] - e_r        # tracking errors y_j - r_hat less free part
    H = 2.0 * (cfg.q_y * L.T @ L
               + np.diag(np.append(np.full(N, cfg.r_du), cfg.rho)))
    A_eq = np.zeros((nx, nv))
    A_eq[:, :N] = M[:, ::-1]
    A_eq[-1, N] = -1.0

    rows, h0, h_u, h_xi = [], [], [], []

    def add_pair(row, upper, lower, u_coef=0.0, xi_row=np.zeros(nx)):
        """Rows ``row`` <= upper and -row <= -lower; the bounds shift by
        -u_coef u_prev and -xi_row xi0."""
        for sign, bound in ((1.0, upper), (-1.0, -lower)):
            rows.append(sign * row)
            h0.append(bound)
            h_u.append(-sign * u_coef)
            h_xi.append(-sign * xi_row)

    for l in range(N):
        cap = sets.delta_u - (tube.m_u[l] + (tube.m_u[l - 1] if l else 0.0))
        if cap <= 0.0:
            raise MpcInfeasibleError(
                f"rate cap exhausted by tube margins at step {l}",
                {"cap": cap, "step": l})
        add_pair(eye[l], cap, -cap)
    cum = np.tril(np.ones((N, nv)))
    for j in range(N):
        margin = tube.m_u_inf if j == N - 1 else tube.m_u[j]
        add_pair(cum[j], hi_cmd - margin, lo_cmd + margin, u_coef=1.0)
    for j in range(1, N):
        add_pair(y_rows[j], sets.y_max - tube.m_y[j],
                 sets.y_min + tube.m_y[j], xi_row=y_xi[j])
    add_pair(e_r, sets.y_max - tube.m_y_inf, sets.y_min + tube.m_y_inf)
    return dict(H=H, G=np.array(rows), A_eq=A_eq, h0=np.array(h0),
                h_u=np.array(h_u), h_xi=np.array(h_xi),
                f_xi=2.0 * cfg.q_y * L.T @ y_xi[1:], b_xi=-powers[N],
                y_rows=y_rows, y_xi=y_xi)


def build_controller(slow, stations, alpha, sets, w_inf, cfg):
    """Assemble the tracking controller for one share configuration.

    ``slow`` is the resampled ensemble model, ``stations`` the per-unit
    optimizer records, ``alpha`` the shares in force.  Raises
    :class:`TubeTooLargeError` when tightening would consume more than
    ``cfg.margin_frac_max`` of any half-width, and
    :class:`GainDesignError` when no contractive gain exists.
    """
    A_v, B_v = velocity_model(slow.A, slow.B, slow.C)
    K, A_cl = design_feedback(slow.A, slow.B, slow.C, cfg)
    tube = build_tube(A_cl, K, slow.C, w_inf, cfg.horizon, cfg.tube_eps)
    lo, hi = command_bounds(stations, alpha, sets)
    if hi - lo <= 0.0:
        raise MpcInfeasibleError("empty command interval before tightening",
                                 {"lo": lo, "hi": hi})
    m_du_inf = 2.0 * tube.m_u_inf
    margins = {"m_u_inf": tube.m_u_inf, "m_y_inf": tube.m_y_inf,
               "m_du_inf": m_du_inf, "cutoff": tube.cutoff}
    checks = [
        (tube.m_u_inf, 0.5 * (hi - lo), "command interval"),
        (tube.m_y_inf, 0.5 * (sets.y_max - sets.y_min), "production interval"),
        (m_du_inf, sets.delta_u, "rate cap"),
    ]
    for margin, half_width, what in checks:
        if margin > cfg.margin_frac_max * half_width:
            raise TubeTooLargeError(
                f"{what}: margin {margin:.4g} exceeds "
                f"{cfg.margin_frac_max:.0%} of {half_width:.4g}", margins)
    return MpcController(tube=tube, rho=cfg.rho,
                         **_tracking_qp(A_v, B_v, tube, lo, hi, sets, cfg))


def first_move_cap(prev_alpha, prev_delta, alpha, delta, du_cap):
    """Rate budget for the first move after shares change: survivors
    scale it by their old-to-new share ratio."""
    worst = 1.0
    for a_old, d_old, a_new, d_new in zip(prev_alpha, prev_delta, alpha, delta):
        if d_old and d_new and a_new > 1e-12:
            worst = min(worst, a_old / a_new)
    return du_cap * worst


def measured_state(refs, y_hists, u_hists):
    """Canonical state of every station, active or not, at the current
    instant from the newest ``n_f`` outputs and ``n_b_eff - 1`` inputs
    of its station-grid histories (last entry newest)."""
    return [canonical_state(ref.n_f, ref.n_b_eff, ref.gamma,
                            y, u).reshape(-1)
            for ref, y, u in zip(refs, y_hists, u_hists)]


def ensemble_state(states, delta):
    """Summed per-station states over the active set."""
    x = np.zeros_like(states[0])
    for x_i, d in zip(states, delta):
        if d:
            x += x_i
    return x


def velocity_state(states, states_back, y_now, delta):
    """Velocity state [x(k) - x(k-nu); y(k)] summed over the active set
    from per-station states and outputs; the summed production equals
    C x + gamma exactly in canonical coordinates."""
    dx = ensemble_state(states, delta) - ensemble_state(states_back, delta)
    y_tot = sum(y for y, d in zip(y_now, delta) if d)
    return np.concatenate([dx, [y_tot]])
