"""Dense convex quadratic programming, deterministic and dependency-light.

    minimize    0.5 x' H x + f' x
    subject to  G x <= h,   A x = b

H must be symmetric positive semidefinite (zero is allowed, so pure
linear programs work too).  An absent block (``G``/``h`` or ``A``/``b``
left None) becomes an empty (0, n) block at entry, so every helper
sees one problem form.  The method is a primal active-set iteration
with null-space steps; semidefinite reduced Hessians are handled by
splitting the reduced gradient into curved and flat directions, riding
the flat ones until a constraint blocks or the problem is certified
unbounded.

Every start is the least-norm point of the rows held as equalities,
taken from the same factors the iteration then uses (``_least_norm``).
A cold start holds the equalities alone and, if that point violates a
row of G, runs a strictly convex one-slack phase-1 problem.  A caller
that re-solves a similar problem may instead guess the optimal working
set (``active``, typically the previous solve's; ``()`` holds only the
equalities).  The kernel holds those rows of G with the equalities and
steps to their minimizer; if the rows are consistent, leave no flat
direction and that point violates no other row, the iteration starts
there with that working set and often only reads the multipliers.  Any
other guess falls back to the cold start unchanged, so a guess can
cost time but never the answer.

Each working set is factored by a plain SVD (``numpy.linalg.svd``,
with the rank rule of ``scipy.linalg.null_space``), which yields both
the null-space basis and the least-squares multipliers.  The factors of
a working set depend only on H, G, A and the set, so the kernel keeps
them in a dict keyed by the sorted row tuple, next to the checked,
symmetrised H.  A caller that solves many QPs with the same H, G and A
(a parametric QP whose f, h and b move) hands one such dict to every
solve (``factors``): H is then checked once and each working
set factored once for the life of the dict, not once per solve.  The
dict is keyed on the content of H, G and A, so handing it other
matrices, or a G changed in place, clears it rather than reuse a stale
factor.  Without a dict each solve keeps its own for its iterations.
Both ratio tests, along the Newton step and along a flat ray, take one
matrix-vector product over the rows outside the working set, with the
tie rules below unchanged.

Everything is deliberately boring: dense algebra, fixed tie-breaking
(most-blocking constraint first, lowest index on ties), no randomness,
so a given problem always returns the identical result.
"""

import bisect
import operator
from dataclasses import dataclass

import numpy as np

_EPS = np.finfo(float).eps

# multiplier sign and row feasibility tolerance, relative to the data
_TOL = 1e-9


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


def _block(M, v, n, name, rhs_name):
    """``M`` as a (k, n) matrix and ``v`` as its k right-hand sides; an
    absent ``M`` gives the empty (0, n) block."""
    if M is None:
        return np.zeros((0, n)), np.zeros(0)
    if v is None:
        raise ValueError(f"{name} given without {rhs_name}")
    M = np.atleast_2d(np.asarray(M, dtype=float))
    if M.shape[1] != n:
        raise ValueError(f"{name} has {M.shape[1]} columns, expected {n}")
    v = np.asarray(v, dtype=float).ravel()
    if v.size != M.shape[0]:
        raise ValueError(f"{name} and {rhs_name} sizes differ")
    return M, v


def _check_hessian(H):
    n = H.shape[0]
    if H.shape != (n, n):
        raise ValueError("H must be square")
    scale = max(1.0, float(np.abs(H).max()))
    if float(np.abs(H - H.T).max()) > 1e-8 * scale:
        raise ValueError("H must be symmetric")
    Hs = 0.5 * (H + H.T)
    w = np.linalg.eigvalsh(Hs)
    if w[0] < -1e-8 * scale:
        raise ValueError(f"H must be positive semidefinite (min eig {w[0]:.3e})")
    return Hs


def _kkt_residual(H, f, G, h, A, b, x, lam, nu):
    slack = G @ x - h
    return max(float(np.abs(H @ x + f + G.T @ lam + A.T @ nu).max()),
               float(slack.max(initial=0.0)),
               float((-lam).max(initial=0.0)),
               float(np.abs(lam * slack).max(initial=0.0)),
               float(np.abs(A @ x - b).max(initial=0.0)))


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
    s = G @ d
    cand = (free & (s > 1e-12)).nonzero()[0]
    a = np.maximum((h - G @ x)[cand] / s[cand], 0.0)
    blocker = None
    for i, a_i in zip(cand.tolist(), a.tolist()):
        if alpha is None or a_i < alpha - 1e-12:
            alpha, blocker = a_i, i
    return alpha, blocker


def _held(A, G, work):
    """[A; G[work]]: the rows held as equalities, or their right-hand
    sides when given b and h."""
    return np.concatenate((A, G[work])) if A.shape[0] else G[work]


def _basis(H, M):
    """Factors of the working-set matrix ``M`` for one Newton step.

    Returns (Ur, Vr, NV, w_step, flat): the :func:`_factor` multiplier
    factors, the eigenvectors NV of the reduced Hessian in full
    coordinates, their curvatures ``w_step`` and the indices ``flat`` of
    the flat ones, whose curvature is set infinite so that a Newton step
    moves only along the curved ones.  The last three are empty when M
    leaves no null space.
    """
    Ur, Vr, N = _factor(M, H.shape[0])
    if not N.shape[1]:
        return Ur, Vr, N, np.zeros(0), np.zeros(0, dtype=np.intp)
    Hr = N.T @ H @ N
    w, V = np.linalg.eigh(0.5 * (Hr + Hr.T))
    thresh = max(1e-12 * max(float(w[-1]), 1.0), 1e-14)
    flat = (~(w > thresh)).nonzero()[0]
    w_step = w.copy()
    w_step[flat] = np.inf
    return Ur, Vr, N @ V, w_step, flat


def _working_basis(H, A, G, work, bases):
    """The :func:`_basis` factors of the sorted working set ``work``,
    read from the dict ``bases`` or computed and stored there."""
    key = tuple(work)
    basis = bases.get(key)
    if basis is None:
        basis = bases[key] = _basis(H, _held(A, G, work))
    return basis


def _cached(factors, H, G, A):
    """``factors`` holding the checked, symmetrised H under "H", for
    these H, G and A: a dict last filled for other content is cleared
    first, so no factor outlives the matrices it was taken from."""
    key = tuple((M.shape, M.tobytes()) for M in (H, G, A))
    if factors.get("key") != key:
        Hs = _check_hessian(H)
        factors.clear()
        factors.update(key=key, H=Hs)
    return factors


def _least_norm(M, rhs, basis):
    """Least-norm solution x of ``M x = rhs`` from the :func:`_basis`
    factors of ``M``, or None when the rows are inconsistent, their
    residual above 1e-8 * max(1, |rhs|_inf)."""
    Ur, Vr = basis[:2]
    x = Vr.T @ (Ur.T @ rhs)
    scale_rhs = max(1.0, float(np.abs(rhs).max(initial=0.0)))
    if float(np.abs(M @ x - rhs).max(initial=0.0)) > 1e-8 * scale_rhs:
        return None
    return x


def _active_set(H, f, G, h, A, b, x, work, bases):
    """Iterate from a feasible ``x`` with starting working set ``work``.

    ``bases`` is the dict of :func:`_working_basis` factors, which this
    reads and fills.  The budget is 50 iterations per variable and row,
    plus 250.  Returns (status, x, lam_full, nu, active, iterations).
    """
    n = x.size
    m = G.shape[0]
    me = A.shape[0]
    max_iter = 50 * (n + m + 5)
    work = sorted(work)
    free = np.ones(m, dtype=bool)
    free[work] = False
    scale = max(1.0, float(np.abs(H).max()), float(np.abs(f).max(initial=0.0)))
    step_tol = 1e-11 * scale
    basis = None
    for it in range(1, max_iter + 1):
        if basis is None:
            # factors of the working set, looked up only when it changes
            basis = _working_basis(H, A, G, work, bases)
        Ur, Vr, NV, w_step, flat = basis
        g = H @ x + f
        ray = None
        if not w_step.size:
            p = np.zeros(n)         # the working set pins x
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
            if not np.any(lam_w < -_TOL):
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


def _initial_point(H, G, h, A, b, bases):
    """Cold start: the least-norm point of the equalities, moved by a
    slack phase 1 if it violates a row of G.

    Returns x0, or None when the problem is infeasible.  The factors of
    the empty working set go to ``bases``; phase 1 keeps its own.
    """
    x0 = _least_norm(A, b, _working_basis(H, A, G, [], bases))
    if x0 is None:
        return None
    viol = float((G @ x0 - h).max(initial=0.0))
    scale_h = max(1.0, float(np.abs(h).max(initial=0.0)))
    if viol <= _TOL * scale_h:
        return x0
    # slack problem: min t^2  s.t.  Gx - t <= h, t >= 0.  The kernel's
    # flat-direction handling covers the x block's zero curvature, and
    # the unregularized optimum reaches the true minimal slack, so a
    # feasible problem hands back a point violating nothing.
    n = x0.size
    Hp = np.zeros((n + 1, n + 1))
    Hp[n, n] = 2.0
    fp = np.zeros(n + 1)
    Gp = np.hstack([G, -np.ones((G.shape[0], 1))])
    Gp = np.vstack([Gp, np.concatenate([np.zeros(n), [-1.0]])])
    hp = np.concatenate([h, [0.0]])
    Ap = np.hstack([A, np.zeros((A.shape[0], 1))])
    z0 = np.concatenate([x0, [viol * (1 + 1e-6) + 1e-9]])
    status, z, *_ = _active_set(Hp, fp, Gp, hp, Ap, b, z0, [], {})
    if status != "optimal":
        raise NumericalFailureError(f"phase 1 ended {status}")
    if float(z[n]) > 1e-7 * scale_h:
        return None
    return z[:n]


def _warm_start(H, f, G, h, A, b, work, bases):
    """Minimizer of the QP with the rows ``work`` of G held as equalities.

    Takes the :func:`_least_norm` point of [A; G[work]] and a Newton
    step to the minimizer in its null space, with the factors of
    ``work`` from the dict ``bases``.  Returns x for
    :func:`_active_set`, or None when the rows are inconsistent, the
    reduced Hessian has a flat direction, or another row of G is
    violated by more than ``_TOL * scale_h``.
    """
    basis = _working_basis(H, A, G, work, bases)
    x = _least_norm(_held(A, G, work), _held(b, h, work), basis)
    if x is None:
        return None
    NV, w_step, flat = basis[2:]
    if flat.size:
        return None
    x = x + NV @ (-(NV.T @ (H @ x + f)) / w_step)
    free = np.ones(G.shape[0], dtype=bool)
    free[work] = False
    scale_h = max(1.0, float(np.abs(h).max(initial=0.0)))
    if float((G @ x - h)[free].max(initial=0.0)) > _TOL * scale_h:
        return None
    return x


def solve_qp(H, f, G=None, h=None, A=None, b=None, *, active=None,
             factors=None):
    """Solve the QP; statuses are "optimal", "infeasible", "unbounded".

    An absent ``G``/``h`` or ``A``/``b`` is an empty block; a matrix
    given without its right-hand side raises ValueError.  ``active``
    optionally guesses the optimal working set as row indices of G,
    typically the ``active`` of a previous solve of a similar problem;
    ``()`` is a guess too, holding only the equalities, and None is no
    guess.  A usable guess starts the iteration at the minimizer on
    those rows; any other guess, and None, starts cold from the
    phase-1 point.  The result does not depend on the guess beyond
    roundoff and, where optima are not unique, the choice among them.

    ``factors`` is an optional dict the kernel owns: it keeps the
    checked Hessian and the factors of every working set the solves
    meet, keyed on the content of H, G and A, and is cleared whenever
    a solve brings other content.  Handing one dict to every solve of
    a parametric QP checks H once and factors each working set once
    for the life of the dict; the results are bit-identical to solves
    without it.  None gives each solve a dict of its own.

    Optimal results carry multipliers and a KKT residual; the residual
    is also re-checked against 1e-8 so a silently bad solve cannot be
    mistaken for success.
    """
    H = np.asarray(H, dtype=float)
    f = np.asarray(f, dtype=float).ravel()
    n = f.size
    work = [] if active is None else sorted(operator.index(i) for i in active)
    if work and G is None:
        raise ValueError("a working-set guess needs inequality rows G")
    G, h = _block(G, h, n, "G", "h")
    A, b = _block(A, b, n, "A", "b")
    factors = _cached({} if factors is None else factors, H, G, A)
    H = factors["H"]
    if H.shape[0] != n:
        raise ValueError("H and f sizes differ")
    m = G.shape[0]
    if len(set(work)) != len(work):
        raise ValueError("working-set guess repeats a row")
    if work and not 0 <= work[0] <= work[-1] < m:
        raise ValueError(f"working-set guess outside rows 0..{m - 1}")

    x0 = None
    if active is not None:
        x0 = _warm_start(H, f, G, h, A, b, work, factors)
    if x0 is None:
        x0, work = _initial_point(H, G, h, A, b, factors), []
        if x0 is None:
            return QpResult("infeasible", None, None, None, None, (), 0, None)
    status, x, lam, nu, active, it = _active_set(
        H, f, G, h, A, b, x0, work, factors)
    if status != "optimal":
        return QpResult(status, None, None, None, None, active, it, None)
    res = _kkt_residual(H, f, G, h, A, b, x, lam, nu)
    if res > 1e-8 * max(1.0, float(np.abs(f).max(initial=0.0))):
        raise NumericalFailureError(f"KKT residual {res:.3e} after optimal exit")
    obj = float(0.5 * x @ H @ x + f @ x)
    return QpResult("optimal", x, obj, lam, nu, active, it, res)
