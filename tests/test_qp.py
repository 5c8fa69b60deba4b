"""QP kernel against hand cases and a combinatorial KKT oracle."""

from itertools import combinations

import numpy as np
import pytest
from scipy.linalg import null_space

from steamfleet.qp import (NumericalFailureError, QpResult, _factor,
                           _ratio_test, solve_qp)


def kkt_enumerate(H, f, G=None, h=None, A=None, b=None):
    """Brute-force optimum: try every active subset as equalities and
    keep the best KKT-consistent candidate.  Exponential, test-only."""
    n = len(f)
    m = 0 if G is None else G.shape[0]
    best = None
    for r in range(m + 1):
        for sub in combinations(range(m), r):
            rows = []
            rhs = []
            if A is not None:
                rows.append(A)
                rhs.append(b)
            if sub:
                rows.append(G[list(sub)])
                rhs.append(h[list(sub)])
            M = np.vstack(rows) if rows else np.zeros((0, n))
            rhs = np.concatenate(rhs) if rhs else np.zeros(0)
            K = np.block([[H, M.T], [M, np.zeros((M.shape[0], M.shape[0]))]])
            rv = np.concatenate([-f, rhs])
            sol, *_ = np.linalg.lstsq(K, rv, rcond=None)
            if np.linalg.norm(K @ sol - rv) > 1e-7:
                continue
            x = sol[:n]
            mult = sol[n:]
            lam = mult[0 if A is None else A.shape[0]:]
            if np.any(lam < -1e-8):
                continue
            if G is not None and np.any(G @ x - h > 1e-7):
                continue
            if A is not None and np.any(np.abs(A @ x - b) > 1e-7):
                continue
            obj = 0.5 * x @ H @ x + f @ x
            if best is None or obj < best[0] - 1e-12:
                best = (obj, x)
    return best


def random_problem(rng, with_eq=False):
    n = int(rng.integers(2, 7))
    R = rng.normal(size=(n, n))
    H = R.T @ R + 0.5 * np.eye(n)
    f = rng.normal(size=n)
    m = int(rng.integers(1, 7))
    G = rng.normal(size=(m, n))
    x_c = rng.normal(size=n)
    h = G @ x_c + rng.uniform(0.1, 2.0, size=m)
    A = b = None
    if with_eq:
        me = int(rng.integers(1, min(3, n)))
        A = rng.normal(size=(me, n))
        b = A @ x_c
    return H, f, G, h, A, b


def semidefinite_boxed_problem(rng):
    """Rank-deficient H (flat directions, so the flat-ray ratio test
    runs) with a box |x| <= 1 keeping the problem bounded."""
    n = int(rng.integers(2, 5))
    R = rng.normal(size=(int(rng.integers(0, n)), n))
    H = R.T @ R
    f = rng.normal(size=n)
    G = np.vstack([np.eye(n), -np.eye(n), rng.normal(size=(1, n))])
    h = np.concatenate([np.ones(2 * n), [0.5]])
    return H, f, G, h, None, None


@pytest.mark.parametrize("with_eq", [False, True])
def test_matches_kkt_enumeration_on_random_problems(with_eq):
    rng = np.random.default_rng(42 if with_eq else 24)
    for trial in range(25):
        H, f, G, h, A, b = random_problem(rng, with_eq)
        res = solve_qp(H, f, G, h, A, b)
        ref = kkt_enumerate(H, f, G, h, A, b)
        assert res.status == "optimal", f"trial {trial}"
        assert ref is not None, f"trial {trial}"
        assert res.obj == pytest.approx(ref[0], abs=1e-7), f"trial {trial}"
        assert res.x == pytest.approx(ref[1], abs=1e-5), f"trial {trial}"
        assert res.kkt_residual <= 1e-8


def test_matches_kkt_enumeration_on_semidefinite_boxed_problems():
    # optima need not be unique, so only objectives are compared
    rng = np.random.default_rng(7)
    for trial in range(20):
        H, f, G, h, A, b = semidefinite_boxed_problem(rng)
        res = solve_qp(H, f, G, h, A, b)
        ref = kkt_enumerate(H, f, G, h, A, b)
        assert res.status == "optimal", f"trial {trial}"
        assert ref is not None, f"trial {trial}"
        assert res.obj == pytest.approx(ref[0], abs=1e-7), f"trial {trial}"
        assert res.kkt_residual <= 1e-8


def test_unconstrained_quadratic():
    res = solve_qp(np.eye(1), [-1.0])
    assert res.status == "optimal"
    assert res.x[0] == pytest.approx(1.0)
    assert res.obj == pytest.approx(-0.5)


def test_active_box_with_multipliers():
    # min 0.5|x|^2 - 3.x  s.t. x <= (1, 2): both bounds bind
    res = solve_qp(np.eye(2), [-3.0, -3.0], np.eye(2), [1.0, 2.0])
    assert res.status == "optimal"
    assert res.x == pytest.approx([1.0, 2.0])
    assert res.lam == pytest.approx([2.0, 1.0])
    assert set(res.active) == {0, 1}


def test_equality_and_inequality_mix():
    # min 0.5(x1^2+x2^2) s.t. x1+x2=2, x1<=0.5
    res = solve_qp(np.eye(2), [0.0, 0.0],
                   np.array([[1.0, 0.0]]), [0.5],
                   np.array([[1.0, 1.0]]), [2.0])
    assert res.status == "optimal"
    assert res.x == pytest.approx([0.5, 1.5])
    assert res.obj == pytest.approx(1.25)
    assert res.nu == pytest.approx([-1.5])
    assert res.lam == pytest.approx([1.0])


def test_infeasible_inequalities():
    res = solve_qp(np.eye(1), [0.0], np.array([[1.0], [-1.0]]), [-1.0, -1.0])
    assert res.status == "infeasible"
    assert res.x is None


def test_infeasible_equalities():
    A = np.array([[1.0, 1.0], [1.0, 1.0]])
    res = solve_qp(np.eye(2), [0.0, 0.0], A=A, b=[1.0, 2.0])
    assert res.status == "infeasible"


def test_unbounded_linear_no_constraints():
    res = solve_qp(np.zeros((1, 1)), [-1.0])
    assert res.status == "unbounded"


def test_unbounded_ray_with_constraints():
    # min -x1 s.t. x1 >= 0: descends forever
    res = solve_qp(np.zeros((1, 1)), [-1.0], np.array([[-1.0]]), [0.0])
    assert res.status == "unbounded"


def test_pure_linear_program_vertex():
    # min -x1-2x2 on the unit box: vertex (1, 1)
    G = np.vstack([np.eye(2), -np.eye(2)])
    h = np.array([1.0, 1.0, 0.0, 0.0])
    res = solve_qp(np.zeros((2, 2)), [-1.0, -2.0], G, h)
    assert res.status == "optimal"
    assert res.x == pytest.approx([1.0, 1.0])
    assert res.obj == pytest.approx(-3.0)


def test_semidefinite_flat_optimum():
    # curvature only in x1; x2 pinned by a constraint
    H = np.diag([1.0, 0.0])
    res = solve_qp(H, [0.0, 0.0], np.array([[0.0, -1.0]]), [-3.0])
    assert res.status == "optimal"
    assert res.obj == pytest.approx(0.0, abs=1e-9)
    assert res.x[1] >= 3.0 - 1e-9


def test_semidefinite_flat_cost_towards_constraint():
    # flat direction with linear cost, blocked by a bound
    H = np.diag([2.0, 0.0])
    res = solve_qp(H, [0.0, -1.0], np.array([[0.0, 1.0]]), [4.0])
    assert res.status == "optimal"
    assert res.x == pytest.approx([0.0, 4.0])
    assert res.obj == pytest.approx(-4.0)


def test_redundant_duplicate_constraints():
    G = np.array([[1.0], [1.0], [1.0]])
    res = solve_qp(np.eye(1), [-5.0], G, [1.0, 1.0, 1.0])
    assert res.status == "optimal"
    assert res.x[0] == pytest.approx(1.0)


def test_exact_tie_between_blocking_rows_picks_lower_index():
    # rows 1 and 2 are identical and block the Newton step at once
    G = np.array([[0.0, 1.0], [1.0, 0.0], [1.0, 0.0]])
    res = solve_qp(np.eye(2), [-3.0, 0.0], G, [5.0, 1.0, 1.0])
    assert res.status == "optimal"
    assert res.active == (1,)
    assert res.lam == pytest.approx([0.0, 2.0, 0.0])


def test_rank_deficient_consistent_equalities():
    # the first two equality rows repeat each other
    A = np.array([[1.0, 1.0, 0.0], [1.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
    res = solve_qp(np.eye(3), np.zeros(3), np.array([[1.0, 0.0, 0.0]]),
                   [0.2], A, [1.0, 1.0, 0.5])
    assert res.status == "optimal"
    assert res.x == pytest.approx([0.2, 0.8, 0.5])
    assert res.kkt_residual <= 1e-8


def test_degenerate_vertex():
    # three constraints meet at the optimum of a 2-d problem
    G = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
    h = np.array([1.0, 1.0, 2.0])
    res = solve_qp(np.eye(2), [-4.0, -4.0], G, h)
    assert res.status == "optimal"
    assert res.x == pytest.approx([1.0, 1.0])


def test_deterministic_repeat():
    rng = np.random.default_rng(77)
    H, f, G, h, A, b = random_problem(rng, with_eq=True)
    r1 = solve_qp(H, f, G, h, A, b)
    r2 = solve_qp(H, f, G, h, A, b)
    assert np.array_equal(r1.x, r2.x)
    assert r1.active == r2.active
    assert r1.iterations == r2.iterations


def test_rejects_asymmetric_hessian():
    with pytest.raises(ValueError, match="symmetric"):
        solve_qp(np.array([[1.0, 1.0], [0.0, 1.0]]), [0.0, 0.0])


def test_rejects_indefinite_hessian():
    with pytest.raises(ValueError, match="semidefinite"):
        solve_qp(np.diag([1.0, -1.0]), [0.0, 0.0])


def test_rejects_shape_mismatch():
    with pytest.raises(ValueError):
        solve_qp(np.eye(2), [0.0, 0.0], np.eye(3), [0.0, 0.0, 0.0])


def test_tight_equality_start_not_declared_infeasible():
    # equalities already pin x; inequalities hold with zero slack
    A = np.array([[1.0, 0.0], [0.0, 1.0]])
    b = np.array([0.3, 0.7])
    G = np.array([[1.0, 1.0]])
    h = np.array([1.0])
    res = solve_qp(np.eye(2), [0.0, 0.0], G, h, A, b)
    assert res.status == "optimal"
    assert res.x == pytest.approx([0.3, 0.7])


def loop_ratio_test(G, h, x, d, work, alpha):
    """Row-by-row ratio test, the reference for the vectorized one."""
    blocker = None
    for i in range(G.shape[0]):
        if i in work:
            continue
        s = float(G[i] @ d)
        if s > 1e-12:
            a_i = max(float(h[i] - G[i] @ x) / s, 0.0)
            if alpha is None or a_i < alpha - 1e-12:
                alpha, blocker = a_i, i
    return alpha, blocker


def test_ratio_test_matches_row_loop():
    # small integers keep every product and sum exact, so both orders of
    # summation agree bit for bit and exact ties are frequent
    rng = np.random.default_rng(5)
    for trial in range(300):
        m, n = int(rng.integers(1, 9)), int(rng.integers(1, 5))
        G = rng.integers(-3, 4, size=(m, n)).astype(float)
        x = rng.integers(-2, 3, size=n).astype(float)
        h = G @ x + rng.integers(-1, 4, size=m)
        d = rng.integers(-2, 3, size=n).astype(float)
        work = sorted(set(rng.integers(0, m, size=int(rng.integers(0, m)))))
        free = np.ones(m, dtype=bool)
        free[work] = False
        for alpha in (None, 1.0):
            assert (_ratio_test(G, h, x, d, free, alpha)
                    == loop_ratio_test(G, h, x, d, work, alpha)), trial


def test_factor_matches_scipy_null_space_and_lstsq():
    rng = np.random.default_rng(9)
    for trial in range(100):
        k, n = int(rng.integers(1, 7)), int(rng.integers(1, 7))
        M = rng.normal(size=(k, n))
        if k > 1 and trial % 2:
            M[-1] = M[0]                        # rank deficient
        Ur, Vr, Z = _factor(M, n)
        ref = null_space(M)
        assert Z.shape == ref.shape, trial
        # same subspace: equal orthogonal projectors
        assert Z @ Z.T == pytest.approx(ref @ ref.T, abs=1e-12), trial
        v = rng.normal(size=n)
        mult, *_ = np.linalg.lstsq(M.T, v, rcond=None)
        assert Ur @ (Vr @ v) == pytest.approx(mult, abs=1e-10), trial
