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
"""

from dataclasses import dataclass

import numpy as np
from scipy.linalg import solve_discrete_are

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
    K: np.ndarray
    A_cl: np.ndarray
    m_u: np.ndarray        # input-direction margins, index j = 0..N
    m_y: np.ndarray        # output-direction margins
    m_u_inf: float
    m_y_inf: float
    m_du_inf: float
    cutoff: int            # truncation power


def _support_table(A_cl, direction, w_inf, n_steps, cutoff, infl):
    """h_{Z_j}(q) for j = 0..n_steps plus the asymptotic bound.

    Exact partial sums up to the cutoff power; past it every entry
    saturates at the tail-inflated asymptote so no margin ever sits
    below the true support.
    """
    q = direction.reshape(-1)
    acc = []
    entry_sum = 0.0
    P = np.eye(A_cl.shape[0])
    for _ in range(cutoff):
        acc.append(float(np.sum(np.abs(P.T @ q))))
        entry_sum += float(np.sum(np.abs(P)))
        P = A_cl @ P
    partial = np.cumsum([0.0] + acc)
    h_inf = w_inf * (partial[cutoff]
                     + entry_sum * float(np.max(np.abs(q))) * infl)
    vals = np.empty(n_steps + 1)
    for j in range(n_steps + 1):
        vals[j] = w_inf * partial[j] if j <= cutoff else h_inf
    return vals, h_inf


def build_tube(A_cl, K, C, w_inf, horizon, eps, max_power=500):
    """Margins for every prediction step and the asymptotic tube.

    The cutoff power p satisfies |A_cl^p|_1 <= eps, so stacking m copies
    of the truncated sum bounds the tail by the entry-sum constant times
    eps/(1-eps) scaled with the direction's max coefficient.
    """
    P = A_cl.copy()
    cutoff = None
    for p in range(1, max_power + 1):
        if float(np.max(np.sum(np.abs(P), axis=0))) <= eps:
            cutoff = p
            break
        P = P @ A_cl
    if cutoff is None:
        raise GainDesignError(
            f"error loop does not contract below {eps} within {max_power} powers")
    infl = eps / (1.0 - eps)
    m_u, m_u_inf = _support_table(A_cl, K, w_inf, horizon, cutoff, infl)
    m_y, m_y_inf = _support_table(A_cl, C, w_inf, horizon, cutoff, infl)
    return TubeDesign(K=K, A_cl=A_cl, m_u=m_u, m_y=m_y, m_u_inf=m_u_inf,
                      m_y_inf=m_y_inf, m_du_inf=2.0 * m_u_inf, cutoff=cutoff)


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
    du0: float
    r_hat: float
    du_seq: np.ndarray
    cost: float
    predicted_y: np.ndarray


@dataclass(frozen=True, eq=False)
class MpcController:
    tube: TubeDesign
    lo_cmd: float
    hi_cmd: float
    y_lo: float
    y_hi: float
    horizon: int
    q_y: float
    rho: float
    n: int                  # ensemble state dimension (without output)
    # state-independent parts of the tracking QP, built once per controller
    powers: tuple           # A_v^j, j = 0..N, of the velocity model
    y_rows: np.ndarray      # y_j as linear forms over theta, less y_free[j]
    L: np.ndarray           # y_rows[j] - e_r: the tracking error forms
    H: np.ndarray
    A_eq: np.ndarray
    G: np.ndarray
    rate_caps: np.ndarray   # |du_l| bounds after tube back-off
    h0: np.ndarray          # G rows' bound is h0 + h_u u_prev + h_y y_free
    h_u: np.ndarray
    h_y: np.ndarray

    def solve(self, xi0, u_prev, r, first_move=None):
        """One receding-horizon step.

        ``xi0`` stacks the measured state increment and output;
        ``first_move`` optionally caps |du_0| tighter, used right after
        a share reconfiguration.  Decision vector is the N nominal
        increments followed by the internal target r_hat.
        """
        N = self.horizon
        nv = N + 1
        xi0 = np.asarray(xi0, dtype=float).reshape(self.n + 1)
        caps = self.rate_caps
        if first_move is not None:
            caps = caps.copy()
            caps[0] = min(caps[0], first_move)
        for l, cap in enumerate(caps.tolist()):
            if cap <= 0.0:
                raise MpcInfeasibleError(
                    f"rate cap exhausted by tube margins at step {l}",
                    {"cap": cap, "step": l})

        y_free = np.array([(P @ xi0)[-1] for P in self.powers])
        term_free = (self.powers[N] @ xi0)[:self.n]
        f = np.zeros(nv)
        for j in range(1, N + 1):
            f += 2.0 * self.q_y * y_free[j] * self.L[j]
        f[N] += -2.0 * self.rho * r
        b_eq = np.concatenate([-term_free, [-y_free[N]]])
        h = self.h0 + self.h_u * u_prev + self.h_y @ y_free
        h[:2] = caps[0]                 # the first two rows bound du_0

        res = solve_qp(self.H, f, self.G, h, self.A_eq, b_eq)
        if res.status != "optimal":
            raise MpcInfeasibleError(
                f"tracking problem {res.status}",
                {"u_prev": u_prev, "xi0": xi0.tolist(), "r": r,
                 "first_move": first_move})
        theta = res.x
        du = theta[:N]
        return MpcSolution(u_cmd=float(u_prev + du[0]), du0=float(du[0]),
                           r_hat=float(theta[N]), du_seq=du.copy(),
                           cost=float(res.obj),
                           predicted_y=self.y_rows @ theta + y_free)


def _tracking_qp(A_v, B_v, tube, n, lo_cmd, hi_cmd, sets, cfg):
    """State-independent matrices of the tracking QP over theta = [du; r_hat].

    Returns the :class:`MpcController` fields from ``powers`` on.  Rows
    of G come in pairs (upper, lower bound): rate caps per step, the
    cumulative command per step, the predicted output at steps 1..N-1,
    and r_hat inside the asymptotically tightened output interval.
    """
    N = cfg.horizon
    nv = N + 1
    y_lo, y_hi = sets.y_min, sets.y_max
    powers = [np.eye(n + 1)]
    for _ in range(N):
        powers.append(A_v @ powers[-1])
    pB = [(powers[m] @ B_v).reshape(-1) for m in range(N)]

    y_rows = np.zeros((N + 1, nv))
    for j in range(1, N + 1):
        for l in range(j):
            y_rows[j, l] = pB[j - 1 - l][-1]
    e_r = np.zeros(nv)
    e_r[N] = 1.0
    L = y_rows - e_r

    H = np.zeros((nv, nv))
    for j in range(1, N + 1):
        H += 2.0 * cfg.q_y * np.outer(L[j], L[j])
    for l in range(N):
        H[l, l] += 2.0 * cfg.r_du
    H += 2.0 * cfg.rho * np.outer(e_r, e_r)

    A_eq = np.zeros((n + 1, nv))
    for l in range(N):
        A_eq[:n, l] = pB[N - 1 - l][:n]
    A_eq[n] = L[N]

    rows, h0, h_u, h_y = [], [], [], []

    def add_pair(row, upper, lower, u_coef=0.0, y_j=None):
        """Rows ``row`` <= upper and -row <= -lower; the bounds shift by
        -u_prev and -y_free[y_j] when those coefficients are set."""
        for sign, bound in ((1.0, upper), (-1.0, -lower)):
            rows.append(sign * row)
            h0.append(bound)
            h_u.append(-sign * u_coef)
            y_row = np.zeros(N + 1)
            if y_j is not None:
                y_row[y_j] = -sign
            h_y.append(y_row)

    rate_caps = np.empty(N)
    for l in range(N):
        rate_caps[l] = sets.delta_u - (tube.m_u[l]
                                       + (tube.m_u[l - 1] if l else 0.0))
        e = np.zeros(nv)
        e[l] = 1.0
        add_pair(e, rate_caps[l], -rate_caps[l])
    for j in range(N):
        margin = tube.m_u_inf if j == N - 1 else tube.m_u[j]
        cum = np.zeros(nv)
        cum[:j + 1] = 1.0
        add_pair(cum, hi_cmd - margin, lo_cmd + margin, u_coef=1.0)
    for j in range(1, N):
        add_pair(y_rows[j], y_hi - tube.m_y[j], y_lo + tube.m_y[j], y_j=j)
    add_pair(e_r, y_hi - tube.m_y_inf, y_lo + tube.m_y_inf)
    return dict(powers=tuple(powers), y_rows=y_rows, L=L, H=H, A_eq=A_eq,
                G=np.array(rows), rate_caps=rate_caps, h0=np.array(h0),
                h_u=np.array(h_u), h_y=np.array(h_y))


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
    margins = {"m_u_inf": tube.m_u_inf, "m_y_inf": tube.m_y_inf,
               "m_du_inf": tube.m_du_inf, "cutoff": tube.cutoff}
    checks = [
        (tube.m_u_inf, 0.5 * (hi - lo), "command interval"),
        (tube.m_y_inf, 0.5 * (sets.y_max - sets.y_min), "production interval"),
        (tube.m_du_inf, sets.delta_u, "rate cap"),
    ]
    for margin, half_width, what in checks:
        if margin > cfg.margin_frac_max * half_width:
            raise TubeTooLargeError(
                f"{what}: margin {margin:.4g} exceeds "
                f"{cfg.margin_frac_max:.0%} of {half_width:.4g}", margins)
    return MpcController(tube=tube, lo_cmd=lo, hi_cmd=hi, y_lo=sets.y_min,
                         y_hi=sets.y_max, horizon=cfg.horizon, q_y=cfg.q_y,
                         rho=cfg.rho, n=slow.n,
                         **_tracking_qp(A_v, B_v, tube, slow.n, lo, hi, sets,
                                        cfg))


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
