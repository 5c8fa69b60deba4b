"""Velocity-form tracking layer: lift, gain, tube margins, closed loop.

Margin values are checked against an independent support-function
recursion and against extremal disturbance sequences that attain them.
Closed-loop properties (offset rejection, bound keeping under certified
disturbances) run the controller against a plant stepped outside the
controller's own matrices.
"""

from collections import deque

import numpy as np
import pytest

from steamfleet import mpc, qp
from steamfleet.config import GlobalSets, MpcConfig
from steamfleet.ensemble import EnsembleModel, make_reference
from steamfleet.highlevel import StationData
from steamfleet.mpc import (GainDesignError, MpcInfeasibleError,
                            TubeTooLargeError, build_controller, build_tube,
                            command_bounds, design_feedback, ensemble_state,
                            first_move_cap, measured_state, velocity_model,
                            velocity_state)
from steamfleet.sysid import ArxModel


A2 = np.array([[0.6, 0.1], [0.2, 0.3]])
B2 = np.array([[0.4], [0.1]])
C2 = np.array([1.0, 0.0])
GAMMA2 = 0.05
GAIN2 = (C2 @ np.linalg.solve(np.eye(2) - A2, B2)).item()


def two_state_model():
    return EnsembleModel(A=A2.copy(), B=B2.copy(), C=C2.copy(),
                         gamma=GAMMA2, gain=GAIN2, tau=30.0)


def wide_station():
    return StationData(gain=GAIN2, level=GAMMA2, u_min=0.1, u_max=5.0,
                       y_min=0.05, y_max=6.0, cost=1.0)


def make_controller(w_inf=0.02, **cfg_kw):
    cfg = MpcConfig(**cfg_kw)
    sets = GlobalSets(u_min=0.05, u_max=6.0, y_min=0.0, y_max=6.0,
                      delta_u=0.5)
    return build_controller(two_state_model(), [wide_station()], [1.0],
                            sets, w_inf, cfg), sets, cfg


def plant_loop(ctrl, r, n_steps, w_seq=None, u0=1.0, first_moves=None):
    """Run the controller against the true two-state plant."""
    x = np.linalg.solve(np.eye(2) - A2, B2 * u0).reshape(-1)
    x_prev = x.copy()
    u = u0
    ys, us, r_hats = [], [], []
    for k in range(n_steps):
        y = float(C2 @ x) + GAMMA2
        xi0 = np.concatenate([x - x_prev, [y]])
        fm = first_moves[k] if first_moves is not None else None
        sol = ctrl.solve(xi0, u, r, first_move=fm)
        u_new = sol.u_cmd
        w = w_seq[k] if w_seq is not None else np.zeros(2)
        x_next = A2 @ x + B2.reshape(-1) * u_new + w
        x_prev, x = x, x_next
        u = u_new
        ys.append(y)
        us.append(u)
        r_hats.append(sol.r_hat)
    return np.array(ys), np.array(us), np.array(r_hats)


# velocity lift ---------------------------------------------------------

def test_velocity_lift_reproduces_difference_trajectory():
    # the affine level cancels in the increment block and rides in y,
    # so the lift is exact along any input sequence
    A_v, B_v = velocity_model(A2, B2, C2)
    rng = np.random.default_rng(3)
    u_prev = 0.7
    x_prev = rng.normal(size=2)
    x = A2 @ x_prev + B2.reshape(-1) * u_prev
    xi = np.concatenate([x - x_prev, [float(C2 @ x) + GAMMA2]])
    for _ in range(25):
        du = float(rng.normal(scale=0.2))
        u = u_prev + du
        x_next = A2 @ x + B2.reshape(-1) * u
        xi = A_v @ xi + B_v.reshape(-1) * du
        assert np.allclose(xi[:2], x_next - x, atol=1e-12)
        assert np.isclose(xi[2], float(C2 @ x_next) + GAMMA2, atol=1e-12)
        x, u_prev = x_next, u


def test_velocity_lift_shapes():
    A_v, B_v = velocity_model(A2, B2, C2)
    assert A_v.shape == (3, 3)
    assert B_v.shape == (3, 1)
    assert A_v[2, 2] == 1.0
    assert np.allclose(A_v[2, :2], C2 @ A2)


# gain design -----------------------------------------------------------

def test_feedback_contracts():
    K, A_cl = design_feedback(A2, B2, C2, MpcConfig())
    assert K.shape == (2,)
    assert max(abs(np.linalg.eigvals(A_cl))) < 1.0


def test_feedback_rejects_uncontrollable_unstable_pair():
    with pytest.raises(GainDesignError):
        design_feedback(np.array([[1.5]]), np.array([[0.0]]),
                        np.array([1.0]), MpcConfig())


# tube margins ----------------------------------------------------------

def support_oracle(A_cl, q, w_inf, j):
    """Independent h_{Z_j}(q) recursion."""
    total = 0.0
    P = np.eye(A_cl.shape[0])
    for _ in range(j):
        total += w_inf * float(np.sum(np.abs(P.T @ q)))
        P = A_cl @ P
    return total


def test_margins_match_support_oracle():
    # exact partial sums up to the truncation power, then the margin
    # saturates at the asymptote and must dominate the true support
    cfg = MpcConfig()
    K, A_cl = design_feedback(A2, B2, C2, cfg)
    tube = build_tube(A_cl, K, C2, 0.02, cfg.horizon, cfg.tube_eps)
    for j in range(cfg.horizon + 1):
        hu = support_oracle(A_cl, K, 0.02, j)
        hy = support_oracle(A_cl, C2, 0.02, j)
        if j <= tube.cutoff:
            assert np.isclose(tube.m_u[j], hu, rtol=1e-12)
            assert np.isclose(tube.m_y[j], hy, rtol=1e-12)
        else:
            assert tube.m_u[j] == tube.m_u_inf
            assert tube.m_y[j] == tube.m_y_inf
            assert tube.m_u[j] >= hu
            assert tube.m_y[j] >= hy


def test_margins_monotone_and_below_asymptote():
    cfg = MpcConfig()
    K, A_cl = design_feedback(A2, B2, C2, cfg)
    tube = build_tube(A_cl, K, C2, 0.02, cfg.horizon, cfg.tube_eps)
    assert tube.m_u[0] == 0.0
    assert tube.m_y[0] == 0.0
    assert np.all(np.diff(tube.m_u) >= -1e-15)
    assert np.all(np.diff(tube.m_y) >= -1e-15)
    assert tube.m_u_inf >= tube.m_u[-1]
    assert tube.m_y_inf >= tube.m_y[-1]
    # the rate cap backs off twice the asymptotic input margin
    sets = GlobalSets(u_min=0.05, u_max=6.0, y_min=0.0, y_max=6.0,
                      delta_u=3.0 * tube.m_u_inf)
    with pytest.raises(TubeTooLargeError, match="rate cap") as err:
        build_controller(two_state_model(), [wide_station()], [1.0], sets,
                         0.02, cfg)
    assert err.value.margins["m_du_inf"] == pytest.approx(2.0 * tube.m_u_inf)


def test_margin_attained_by_extremal_disturbance():
    # sign-matched box-corner disturbances reach the certified support
    cfg = MpcConfig()
    K, A_cl = design_feedback(A2, B2, C2, cfg)
    w_inf = 0.03
    tube = build_tube(A_cl, K, C2, w_inf, cfg.horizon, cfg.tube_eps)
    j = min(6, tube.cutoff)
    z = np.zeros(2)
    # set sum over l < j of A_cl^l d_l; choose d_l per term
    for l in range(j):
        P = np.linalg.matrix_power(A_cl, l)
        d = w_inf * np.sign(P.T @ K)
        z += P @ d
    assert float(K @ z) == pytest.approx(tube.m_u[j], rel=1e-12)


def test_asymptotic_margin_covers_long_sum():
    cfg = MpcConfig()
    K, A_cl = design_feedback(A2, B2, C2, cfg)
    w_inf = 0.02
    tube = build_tube(A_cl, K, C2, w_inf, cfg.horizon, cfg.tube_eps)
    assert tube.m_u_inf >= support_oracle(A_cl, K, w_inf, 3000) - 1e-15
    assert tube.m_y_inf >= support_oracle(A_cl, C2, w_inf, 3000) - 1e-15


def test_noncontractive_loop_rejected():
    with pytest.raises(GainDesignError):
        build_tube(np.array([[1.0]]), np.array([0.5]), np.array([1.0]),
                   0.01, 10, 0.01, max_power=50)


# command interval ------------------------------------------------------

def test_command_bounds_intersection():
    sets = GlobalSets(u_min=0.1, u_max=6.0, y_min=0.0, y_max=6.0,
                      delta_u=0.5)
    stations = [
        StationData(gain=0.6, level=0.01, u_min=0.1, u_max=0.9,
                    y_min=0.12, y_max=0.85, cost=1.0),
        StationData(gain=0.55, level=-0.02, u_min=0.1, u_max=0.8,
                    y_min=0.11, y_max=0.80, cost=1.0),
    ]
    alpha = [0.6, 0.4]
    lo, hi = command_bounds(stations, alpha, sets)
    lo_hand = max(0.1, 0.1 / 0.6, (0.12 - 0.01) / (0.6 * 0.6),
                  0.1 / 0.4, (0.11 + 0.02) / (0.55 * 0.4))
    hi_hand = min(6.0, 0.9 / 0.6, (0.85 - 0.01) / (0.6 * 0.6),
                  0.8 / 0.4, (0.80 + 0.02) / (0.55 * 0.4))
    assert lo == pytest.approx(lo_hand)
    assert hi == pytest.approx(hi_hand)


def test_command_bounds_ignore_inactive():
    sets = GlobalSets(u_min=0.1, u_max=6.0, y_min=0.0, y_max=6.0,
                      delta_u=0.5)
    st = StationData(gain=0.6, level=0.0, u_min=0.5, u_max=0.9,
                     y_min=0.12, y_max=0.85, cost=1.0)
    lo, hi = command_bounds([st, st], [1.0, 0.0], sets)
    assert lo == pytest.approx(max(0.1, 0.5, 0.12 / 0.6))
    assert hi == pytest.approx(min(6.0, 0.9, 0.85 / 0.6))


# closed loop, exact model ----------------------------------------------

def test_tracks_reachable_target():
    ctrl, _, _ = make_controller()
    ys, us, r_hats = plant_loop(ctrl, 2.0, 50)
    assert abs(ys[-1] - 2.0) < 1e-7
    assert abs(r_hats[-1] - 2.0) < 1e-7
    assert np.all(np.abs(np.diff(us)) <= 0.5 + 1e-12)


def test_rate_cap_binds_on_large_move():
    ctrl, _, _ = make_controller()
    ys, us, _ = plant_loop(ctrl, 4.5, 60, u0=0.5)
    steps = np.abs(np.diff(np.concatenate([[0.5], us])))
    assert np.max(steps) <= 0.5 + 1e-12
    assert np.max(steps) > 0.45        # actually uses the budget
    assert abs(ys[-1] - 4.5) < 1e-6


def test_offset_free_under_constant_disturbance():
    ctrl, _, _ = make_controller()
    w = np.tile(np.array([0.015, -0.01]), (80, 1))
    ys, us, r_hats = plant_loop(ctrl, 2.0, 80, w_seq=w)
    assert abs(ys[-1] - 2.0) < 1e-7
    assert abs(r_hats[-1] - 2.0) < 1e-7


def test_unreachable_target_settles_at_tightened_edge():
    ctrl, sets, _ = make_controller()
    _, hi_cmd = command_bounds([wide_station()], [1.0], sets)
    ys, us, r_hats = plant_loop(ctrl, 10.0, 120)
    u_edge = hi_cmd - ctrl.tube.m_u_inf
    expected = min(sets.y_max - ctrl.tube.m_y_inf,
                   GAIN2 * u_edge + GAMMA2)
    assert abs(r_hats[-1] - expected) < 1e-7
    assert abs(ys[-1] - expected) < 1e-6
    assert us[-1] <= hi_cmd + 1e-9


def test_terminal_rows_hold_in_plan():
    ctrl, _, _ = make_controller()
    x = np.linalg.solve(np.eye(2) - A2, B2 * 1.0).reshape(-1)
    xi0 = np.concatenate([np.zeros(2), [float(C2 @ x) + GAMMA2]])
    sol = ctrl.solve(xi0, 1.0, 2.5)
    assert sol.predicted_y[-1] == pytest.approx(sol.r_hat, abs=1e-8)


def test_predicted_outputs_follow_the_velocity_model():
    # the plan's outputs are the lifted model rolled out from xi0 under
    # the planned increments, at every step of the horizon
    ctrl, _, cfg = make_controller()
    xi0 = np.array([0.01, -0.02, 1.3])
    sol = ctrl.solve(xi0, 1.0, 2.0)
    A_v, B_v = velocity_model(A2, B2, C2)
    xi, ys = xi0.copy(), [xi0[-1]]
    for du in sol.du_seq:
        xi = A_v @ xi + B_v.reshape(-1) * du
        ys.append(xi[-1])
    assert len(sol.predicted_y) == cfg.horizon + 1
    assert np.allclose(sol.predicted_y, ys, rtol=0.0, atol=1e-9)


def test_solve_is_deterministic():
    ctrl, _, _ = make_controller()
    xi0 = np.array([0.01, -0.02, 1.3])
    a = ctrl.solve(xi0, 1.0, 2.0)
    b = ctrl.solve(xi0, 1.0, 2.0)
    assert a.u_cmd == b.u_cmd
    assert np.array_equal(a.du_seq, b.du_seq)


def test_warm_started_solves_match_cold_ones():
    ctrl, _, _ = make_controller()
    # the same horizon under other shares and a tighter rate cap: G
    # keeps its shape, so this controller's working sets are valid, if
    # foreign, guesses
    other = build_controller(
        two_state_model(), [wide_station(), wide_station()], [0.3, 0.7],
        GlobalSets(u_min=0.05, u_max=6.0, y_min=0.0, y_max=6.0,
                   delta_u=0.3), 0.01, MpcConfig())
    x = np.linalg.solve(np.eye(2) - A2, B2).reshape(-1)
    x_prev, u, prev = x.copy(), 1.0, None
    n_warm = 0
    r_seq = [2.0, 2.0, 2.6, 2.6, 3.4, 3.4, 3.4, 1.2, 1.2, 1.5]
    for k, r in enumerate(r_seq):
        xi0 = np.concatenate([x - x_prev, [float(C2 @ x) + GAMMA2]])
        fm = 0.07 if k == 4 else None
        cold = ctrl.solve(xi0, u, r, first_move=fm)
        guesses = [other.solve(xi0, u, r, first_move=fm).active]
        if prev is not None:
            guesses.append(prev.active)
        for active in guesses:
            n_warm += 1
            warm = ctrl.solve(xi0, u, r, first_move=fm, active=active)
            assert warm.u_cmd == pytest.approx(cold.u_cmd, rel=0, abs=1e-10)
            assert warm.r_hat == pytest.approx(cold.r_hat, rel=0, abs=1e-10)
            assert np.allclose(warm.du_seq, cold.du_seq, rtol=0, atol=1e-10)
            assert warm.active == cold.active
        prev = cold
        x_prev, x = x, A2 @ x + B2.reshape(-1) * cold.u_cmd
        u = cold.u_cmd
    assert n_warm >= 12


def test_controller_factors_leave_every_solve_bit_identical(monkeypatch):
    # A chain of warm-started solves with a moving target and two
    # rebuilds.  Every tracking QP is solved twice: with the
    # controller's factors, as the controller does, and with none.
    factor_calls = []
    factor = qp._factor

    def counted_factor(*args):
        factor_calls.append(1)
        return factor(*args)

    pairs = []

    def both(*args, active=None, factors=None):
        before = len(factor_calls)
        cached = qp.solve_qp(*args, active=active, factors=factors)
        middle = len(factor_calls)
        fresh = qp.solve_qp(*args, active=active)
        pairs.append((cached, fresh, middle - before,
                      len(factor_calls) - middle))
        return cached

    monkeypatch.setattr(qp, "_factor", counted_factor)
    monkeypatch.setattr(mpc, "solve_qp", both)
    shares = [([wide_station()], [1.0], 0.5, 0.02),
              ([wide_station(), wide_station()], [0.3, 0.7], 0.3, 0.01),
              ([wide_station()], [1.0], 0.5, 0.02)]
    x = np.linalg.solve(np.eye(2) - A2, B2).reshape(-1)
    x_prev, u = x.copy(), 1.0
    for stations, alpha, delta_u, w_inf in shares:
        sets = GlobalSets(u_min=0.05, u_max=6.0, y_min=0.0, y_max=6.0,
                          delta_u=delta_u)
        ctrl = build_controller(two_state_model(), stations, alpha, sets,
                                w_inf, MpcConfig())
        prev = None
        for k in range(20):
            r = 2.2 + 1.1 * np.sin(0.4 * k) + 0.3 * (k % 3)
            xi0 = np.concatenate([x - x_prev, [float(C2 @ x) + GAMMA2]])
            sol = ctrl.solve(xi0, u, r, first_move=0.07 if k == 0 else None,
                             active=None if prev is None else prev.active)
            prev = sol
            x_prev, x = x, A2 @ x + B2.reshape(-1) * sol.u_cmd
            u = sol.u_cmd
    assert len(pairs) == 60
    for k, (cached, fresh, *_) in enumerate(pairs):
        assert cached.status == fresh.status == "optimal", k
        assert np.array_equal(cached.x, fresh.x), k
        assert cached.active == fresh.active, k
        assert cached.iterations == fresh.iterations, k
        assert cached.obj == fresh.obj, k
    # a controller factors a working set only on first meeting it; the
    # phase-1 problems of cold starts still factor theirs every time
    cached_calls, fresh_calls = np.sum([p[2:] for p in pairs], axis=0)
    assert cached_calls < 0.8 * fresh_calls


# closed loop, certified disturbances ------------------------------------

def test_bounds_kept_and_offset_dies_under_box_disturbance():
    w_inf = 0.02
    ctrl, sets, _ = make_controller(w_inf=w_inf)
    lo_cmd, hi_cmd = command_bounds([wide_station()], [1.0], sets)
    r = 2.0
    for trial in range(8):
        rng = np.random.default_rng(100 + trial)
        w = rng.uniform(-w_inf, w_inf, size=(60, 2))
        w[20:] = w[20]                  # freeze after 20 steps
        ys, us, r_hats = plant_loop(ctrl, r, 60, w_seq=w)
        assert np.all(ys >= sets.y_min - 1e-9)
        assert np.all(ys <= sets.y_max + 1e-9)
        assert np.all(us >= lo_cmd - 1e-9)
        assert np.all(us <= hi_cmd + 1e-9)
        steps = np.abs(np.diff(np.concatenate([[1.0], us])))
        assert np.max(steps) <= sets.delta_u + 1e-12
        assert np.all(np.abs(ys[40:] - r_hats[40:]) <= 1e-3)
        assert abs(r_hats[-1] - r) < 1e-6


def test_first_move_cap_respected():
    ctrl, _, _ = make_controller()
    fm = [0.07] + [None] * 29
    ys, us, _ = plant_loop(ctrl, 4.0, 30, u0=1.0, first_moves=fm)
    assert abs(us[0] - 1.0) <= 0.07 + 1e-12


# rejection paths --------------------------------------------------------

def test_oversized_tube_rejected():
    with pytest.raises(TubeTooLargeError) as err:
        make_controller(w_inf=2.0)
    assert "m_u_inf" in err.value.margins


def test_zero_first_move_exhausts_the_step_zero_cap():
    ctrl, _, _ = make_controller()
    with pytest.raises(MpcInfeasibleError, match="at step 0") as err:
        ctrl.solve(np.array([0.0, 0.0, 2.0]), 1.0, 2.0, first_move=0.0)
    assert err.value.diagnostics["step"] == 0


def test_rate_cap_exhausted_by_margins_fails_at_build():
    # margin_frac_max past 1 lets the tube eat a later step's whole cap,
    # which no measurement can restore
    with pytest.raises(MpcInfeasibleError,
                       match="rate cap exhausted by tube margins at step 1"):
        make_controller(w_inf=0.5, margin_frac_max=100.0)


def test_unrecoverable_command_infeasible():
    ctrl, _, _ = make_controller()
    xi0 = np.array([0.0, 0.0, 2.0])
    with pytest.raises(MpcInfeasibleError) as err:
        ctrl.solve(xi0, 30.0, 2.0)      # command far above range
    assert err.value.diagnostics["u_prev"] == 30.0


# reconfiguration helpers -------------------------------------------------

def test_first_move_cap_arithmetic():
    prev_a = (0.5, 0.5, 0.0)
    prev_d = (1, 1, 0)
    new_a = (0.25, 0.35, 0.4)
    new_d = (1, 1, 1)
    cap = first_move_cap(prev_a, prev_d, new_a, new_d, 0.5)
    assert cap == pytest.approx(0.5 * min(0.5 / 0.25, 0.5 / 0.35, 1.0))
    # shrinking shares leave the budget alone; full swap too
    assert first_move_cap((1.0,), (1,), (1.0,), (1,), 0.5) == 0.5
    assert first_move_cap((1.0, 0.0), (1, 0), (0.0, 1.0), (0, 1), 0.5) == 0.5


def test_measured_state_matches_reference_simulation():
    template = ArxModel(f=(-0.5, 0.04), b=(0.3, 0.1), n_k=1, c=0.0, tau=30.0)
    m1 = ArxModel(f=(-0.5, 0.04), b=(0.25, 0.05), n_k=1, c=0.02, tau=30.0)
    m2 = ArxModel(f=(-0.5, 0.04), b=(0.35, 0.02), n_k=1, c=-0.01, tau=30.0)
    refs = [make_reference(m1, template), make_reference(m2, template)]
    rng = np.random.default_rng(11)
    n_steps = 12
    u1 = rng.uniform(0.2, 1.0, size=n_steps)
    u2 = rng.uniform(0.2, 1.0, size=n_steps)
    xs = [np.zeros(r.n) for r in refs]
    y_hists = [[], []]
    u_hists = [[], []]
    x_hist = []
    for k in range(n_steps):
        for i, ref in enumerate(refs):
            y_hists[i].append((ref.C @ xs[i]).item() + ref.gamma)
        x_hist.append([x.copy() for x in xs])
        for i, (ref, u) in enumerate(zip(refs, (u1, u2))):
            xs[i] = ref.A @ xs[i] + ref.B.reshape(-1) * u[k]
            u_hists[i].append(float(u[k]))
    # close the record at the final state: y(n) known, inputs to u(n-1)
    for i, ref in enumerate(refs):
        y_hists[i].append((ref.C @ xs[i]).item() + ref.gamma)
    x_hist.append([x.copy() for x in xs])
    now = measured_state(refs, y_hists, u_hists)
    prev = measured_state(refs, [h[:-1] for h in y_hists],
                          [h[:-1] for h in u_hists])
    for i in range(2):
        assert np.allclose(now[i], x_hist[-1][i], atol=1e-12)
    xi = velocity_state(now, prev, [h[-1] for h in y_hists], (1, 1))
    x_bar = x_hist[-1][0] + x_hist[-1][1]
    x_bar_prev = x_hist[-2][0] + x_hist[-2][1]
    assert np.allclose(xi[:-1], x_bar - x_bar_prev, atol=1e-12)
    assert xi[-1] == pytest.approx(y_hists[0][-1] + y_hists[1][-1])
    # the summed production is C x + gamma in canonical coordinates
    x_now = ensemble_state(now, (1, 1))
    assert (refs[0].C @ x_now).item() + refs[0].gamma + refs[1].gamma == \
        pytest.approx(xi[-1])


def test_measured_state_skips_inactive():
    template = ArxModel(f=(-0.5,), b=(0.3,), n_k=1, c=0.0, tau=30.0)
    m = ArxModel(f=(-0.5,), b=(0.25,), n_k=1, c=0.0, tau=30.0)
    refs = [make_reference(m, template), make_reference(m, template)]
    y_h = [[0.1, 0.2], [9.9, 9.9]]
    u_h = [[0.5, 0.6], [9.9, 9.9]]
    now = measured_state(refs, y_h, u_h)
    prev = measured_state(refs, [h[:-1] for h in y_h], [h[:-1] for h in u_h])
    # every station's state is reconstructed; only the sums skip
    assert now[1][0] == pytest.approx(9.9)
    xi = velocity_state(now, prev, [h[-1] for h in y_h], (1, 0))
    assert xi[-1] == pytest.approx(0.2)
    assert xi[0] == pytest.approx(0.2 - 0.1)
    assert ensemble_state(now, (0, 0))[0] == 0.0


def test_slow_lookback_from_model_length_buffers():
    # nu = 3 fast periods per slow step, a transport delay so the input
    # buffer holds more than one lag, and histories no longer than the
    # model reads: x(k) - x(k - 3) must still match the simulation
    nu = 3
    template = ArxModel(f=(-0.6, 0.08), b=(0.2, 0.1), n_k=2, c=0.0, tau=10.0)
    m1 = ArxModel(f=(-0.6, 0.08), b=(0.15, 0.12), n_k=2, c=0.03, tau=10.0)
    m2 = ArxModel(f=(-0.6, 0.08), b=(0.3, 0.05), n_k=2, c=-0.02, tau=10.0)
    refs = [make_reference(m1, template), make_reference(m2, template)]
    assert refs[0].n_b_eff == 3
    rng = np.random.default_rng(5)
    u_seq = rng.uniform(0.2, 1.0, size=(2, 4 * nu + 2))
    xs = [np.zeros(r.n) for r in refs]
    # zero state: outputs at the level, no past input
    y_bufs = [deque([r.gamma] * r.n_f, maxlen=r.n_f) for r in refs]
    u_bufs = [deque([0.0] * (r.n_b_eff - 1), maxlen=r.n_b_eff - 1)
              for r in refs]
    sim, meas = [], []
    for k in range(u_seq.shape[1]):
        if k:
            for i, ref in enumerate(refs):
                y_bufs[i].append((ref.C @ xs[i]).item() + ref.gamma)
        sim.append(xs[0] + xs[1])
        meas.append(measured_state(refs, y_bufs, u_bufs))
        for i, ref in enumerate(refs):
            xs[i] = ref.A @ xs[i] + ref.B.reshape(-1) * u_seq[i, k]
            u_bufs[i].append(float(u_seq[i, k]))
    assert all(len(b) == r.n_f for b, r in zip(y_bufs, refs))
    for k in range(nu, len(sim)):
        dx = (ensemble_state(meas[k], (1, 1))
              - ensemble_state(meas[k - nu], (1, 1)))
        assert np.allclose(dx, sim[k] - sim[k - nu], rtol=0.0, atol=1e-12)
