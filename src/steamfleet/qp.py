"""Dense convex quadratic programming, deterministic and dependency-light.

    minimize    0.5 x' H x + f' x
    subject to  G x <= h,   A x = b

H must be symmetric positive semidefinite (zero is allowed, so pure
linear programs work too).  The method is a primal active-set iteration
with null-space steps; semidefinite reduced Hessians are handled by
splitting the reduced gradient into curved and flat directions, riding
the flat ones until a constraint blocks or the problem is certified
unbounded.  Feasibility comes from a strictly convex one-slack phase-1
problem, so the caller never supplies a starting point.

Each working set is factored once by a plain SVD (``numpy.linalg.svd``,
with the rank rule of ``scipy.linalg.null_space``), which yields both
the null-space basis and the least-squares multipliers; the factors are
kept until the working set changes.  Both ratio tests, along the Newton
step and along a flat ray, take one matrix-vector product over the rows
outside the working set, with the tie rules below unchanged.

Everything is deliberately boring: dense algebra, fixed tie-breaking
(most-blocking constraint first, lowest index on ties), no randomness,
so a given problem always returns the identical result.
"""

import bisect
from dataclasses import dataclass

import numpy as np

_EPS = np.finfo(float).eps


class NumericalFailureError(RuntimeError):
    """Active-set iteration exhausted its budget; problem is likely
    degenerate beyond the solver's tolerance handling."""


@dataclass(frozen=True, eq=False)
class QpResult:
    status: str                 # "optimal" | "infeasible" | "unbounded"
    x: np.ndarray | None
    obj: float | None
    lam: np.ndarray | None      # inequality multipliers, full length
    nu: np.ndarray | None       # equality multipliers
    active: tuple
    iterations: int
    kkt_residual: float | None


def _clean(M, name, n_cols=None):
    if M is None:
        return None
    M = np.atleast_2d(np.asarray(M, dtype=float))
    if n_cols is not None and M.shape[1] != n_cols:
        raise ValueError(f"{name} has {M.shape[1]} columns, expected {n_cols}")
    return M


def _check_hessian(H):
    n = H.shape[0]
    if H.shape != (n, n):
        raise ValueError("H must be square")
    scale = max(1.0, float(np.max(np.abs(H))))
    if float(np.max(np.abs(H - H.T))) > 1e-8 * scale:
        raise ValueError("H must be symmetric")
    Hs = 0.5 * (H + H.T)
    w = np.linalg.eigvalsh(Hs)
    if w[0] < -1e-8 * scale:
        raise ValueError(f"H must be positive semidefinite (min eig {w[0]:.3e})")
    return Hs


def _kkt_residual(H, f, G, h, A, b, x, lam, nu):
    g = H @ x + f
    if G is not None and lam is not None:
        g = g + G.T @ lam
    if A is not None and nu is not None:
        g = g + A.T @ nu
    res = float(np.max(np.abs(g)))
    if G is not None:
        slack = G @ x - h
        res = max(res, float(np.max(slack, initial=0.0)))
        if lam is not None:
            res = max(res, float(np.max(-lam, initial=0.0)))
            res = max(res, float(np.max(np.abs(lam * slack), initial=0.0)))
    if A is not None:
        res = max(res, float(np.max(np.abs(A @ x - b), initial=0.0)))
    return res


def _factor(M, n):
    """SVD factors of the working-set matrix ``M``: (U_r / s_r, V_r', Z).

    The rank r keeps singular values above sigma_max * eps * max(M.shape),
    the rule of scipy.linalg.null_space and numpy.linalg.lstsq.  Z is an
    orthonormal basis of ker M, and (U_r / s_r) @ (V_r' @ v) is the
    least-norm solution y of min |M' y - v|.
    """
    if not M.shape[0]:
        return np.zeros((0, 0)), np.zeros((0, n)), np.eye(n)
    u, sv, vt = np.linalg.svd(M, full_matrices=True)
    r = int(np.count_nonzero(sv > sv.max(initial=0.0) * _EPS * max(M.shape)))
    return u[:, :r] / sv[:r], vt[:r], vt[r:].T


def _ratio_test(G, h, x, d, free, alpha):
    """Step length along ``d`` and the row that blocks it (or None).

    Rows outside the working set (``free``) with G_i d > 1e-12 block at
    max((h_i - G_i x) / G_i d, 0).  Scanning them in index order from
    ``alpha`` (None: no cap), a row takes over only when it blocks more
    than 1e-12 earlier, so the most-blocking row wins and the lowest
    index wins ties.
    """
    if G is None:
        return alpha, None
    s = G @ d
    cand = (free & (s > 1e-12)).nonzero()[0]
    a = np.maximum((h - G @ x)[cand] / s[cand], 0.0)
    blocker = None
    for i, a_i in zip(cand.tolist(), a.tolist()):
        if alpha is None or a_i < alpha - 1e-12:
            alpha, blocker = a_i, i
    return alpha, blocker


def _active_set(H, f, G, h, A, b, x, work, tol, max_iter):
    """Iterate from a feasible ``x`` with starting working set ``work``.

    Returns (status, x, lam_full, nu, active, iterations).
    """
    n = x.size
    m = 0 if G is None else G.shape[0]
    me = 0 if A is None else A.shape[0]
    work = sorted(work)
    free = np.ones(m, dtype=bool)
    free[work] = False
    scale = max(1.0, float(np.max(np.abs(H))), float(np.max(np.abs(f), initial=0.0)))
    step_tol = 1e-11 * scale
    basis = None    # factors of the working set, rebuilt only when it changes
    for it in range(1, max_iter + 1):
        if basis is None:
            M = G[work] if work else np.zeros((0, n))
            if A is not None:
                M = np.concatenate((A, M))
            Ur, Vr, N = _factor(M, n)
            # eigenvectors of the reduced Hessian in full coordinates; flat
            # ones get an infinite curvature so that a Newton step moves
            # only along the curved ones
            NV = w_step = flat = None
            if N.shape[1]:
                Hr = N.T @ H @ N
                w, V = np.linalg.eigh(0.5 * (Hr + Hr.T))
                thresh = max(1e-12 * max(float(w[-1]), 1.0), 1e-14)
                NV = N @ V
                flat = (~(w > thresh)).nonzero()[0]
                w_step = w.copy()
                w_step[flat] = np.inf
            basis = Ur, Vr, NV, w_step, flat
        Ur, Vr, NV, w_step, flat = basis
        g = H @ x + f
        ray = None
        if NV is None:
            p = np.zeros(n)
        else:
            gr_v = NV.T @ g
            flat_grad = np.abs(gr_v[flat])
            if flat.size and float(flat_grad.max()) > 1e-10 * scale:
                j = flat[int(np.argmax(flat_grad))]
                ray = -np.sign(gr_v[j]) * NV[:, j]
            else:
                p = NV @ (-gr_v / w_step)

        if ray is not None:
            # flat descent direction: either blocked or unbounded
            alpha, blocker = _ratio_test(G, h, x, ray, free, None)
            if blocker is None:
                return "unbounded", x, None, None, tuple(work), it
            x = x + alpha * ray
        elif float(np.abs(p).max(initial=0.0)) <= step_tol:
            # stationary on the working set: least-squares multipliers
            mult = Ur @ (Vr @ -g)
            nu = mult[:me]
            lam_w = mult[me:]
            lam_full = np.zeros(m)
            lam_full[work] = lam_w
            if not np.any(lam_w < -tol):
                return "optimal", x, lam_full, nu, tuple(work), it
            # most negative multiplier leaves; argmin keeps the lowest
            # index on ties because ``work`` is sorted
            free[work.pop(int(np.argmin(lam_w)))] = True
            basis = None
            continue
        else:
            alpha, blocker = _ratio_test(G, h, x, p, free, 1.0)
            x = x + alpha * p
        if blocker is not None:
            bisect.insort(work, blocker)
            free[blocker] = False
            basis = None
    raise NumericalFailureError(f"no convergence in {max_iter} iterations")


def _initial_point(G, h, A, b, n, tol):
    """Feasible start via least-norm equalities plus a slack phase 1.

    Returns (status, x) where status is "ok" or "infeasible".
    """
    if A is not None:
        x0, *_ = np.linalg.lstsq(A, b, rcond=None)
        scale_b = max(1.0, float(np.max(np.abs(b), initial=0.0)))
        if float(np.max(np.abs(A @ x0 - b), initial=0.0)) > 1e-8 * scale_b:
            return "infeasible", None
    else:
        x0 = np.zeros(n)
    if G is None:
        return "ok", x0
    viol = float(np.max(G @ x0 - h, initial=0.0))
    scale_h = max(1.0, float(np.max(np.abs(h), initial=0.0)))
    if viol <= tol * scale_h:
        return "ok", x0
    # slack problem: min t^2  s.t.  Gx - t <= h, t >= 0.  The kernel's
    # flat-direction handling covers the x block's zero curvature, and
    # the unregularized optimum reaches the true minimal slack, so a
    # feasible problem hands back a point violating nothing.
    Hp = np.zeros((n + 1, n + 1))
    Hp[n, n] = 2.0
    fp = np.zeros(n + 1)
    Gp = np.hstack([G, -np.ones((G.shape[0], 1))])
    Gp = np.vstack([Gp, np.concatenate([np.zeros(n), [-1.0]])])
    hp = np.concatenate([h, [0.0]])
    Ap = np.hstack([A, np.zeros((A.shape[0], 1))]) if A is not None else None
    z0 = np.concatenate([x0, [viol * (1 + 1e-6) + 1e-9]])
    status, z, *_ = _active_set(Hp, fp, Gp, hp, Ap, b, z0, [],
                                tol, 50 * (n + G.shape[0] + 5))
    if status != "optimal":
        raise NumericalFailureError(f"phase 1 ended {status}")
    t_star = float(z[n])
    if t_star > 1e-7 * scale_h:
        return "infeasible", None
    return "ok", z[:n]


def solve_qp(H, f, G=None, h=None, A=None, b=None, *, tol=1e-9, max_iter=None):
    """Solve the QP; statuses are "optimal", "infeasible", "unbounded".

    Optimal results carry multipliers and a KKT residual; the residual
    is also re-checked against 1e-8 so a silently bad solve cannot be
    mistaken for success.
    """
    H = _check_hessian(np.asarray(H, dtype=float))
    f = np.asarray(f, dtype=float).ravel()
    n = f.size
    if H.shape[0] != n:
        raise ValueError("H and f sizes differ")
    G = _clean(G, "G", n)
    A = _clean(A, "A", n)
    h = None if G is None else np.asarray(h, dtype=float).ravel()
    b = None if A is None else np.asarray(b, dtype=float).ravel()
    if G is not None and h.size != G.shape[0]:
        raise ValueError("G and h sizes differ")
    if A is not None and b.size != A.shape[0]:
        raise ValueError("A and b sizes differ")

    status, x0 = _initial_point(G, h, A, b, n, tol)
    if status == "infeasible":
        return QpResult("infeasible", None, None, None, None, (), 0, None)
    if max_iter is None:
        max_iter = 50 * (n + (0 if G is None else G.shape[0]) + 5)
    status, x, lam, nu, active, it = _active_set(
        H, f, G, h, A, b, x0, [], tol, max_iter)
    if status != "optimal":
        return QpResult(status, None, None, None, None, active, it, None)
    res = _kkt_residual(H, f, G, h, A, b, x, lam, nu)
    if res > 1e-8 * max(1.0, float(np.max(np.abs(f), initial=0.0))):
        raise NumericalFailureError(f"KKT residual {res:.3e} after optimal exit")
    obj = float(0.5 * x @ H @ x + f @ x)
    return QpResult("optimal", x, obj, lam, nu, active, it, res)
