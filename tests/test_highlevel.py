"""Share optimizer against a pattern-enumerating greedy-fill oracle and
against exhaustive enumeration of the pattern QPs."""

import dataclasses
import random
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings, strategies

from steamfleet import highlevel, qp, scenario
from steamfleet.config import GlobalSets, ShareConfig, default_config
from steamfleet.highlevel import (InfeasibleShareError, ShareSolution,
                                  StationData, _bound, _pattern_qp,
                                  _true_cost, should_resolve, solve_shares,
                                  station_data)
from steamfleet.mpc import command_bounds

CFG = ShareConfig()
# the headroom guard trades optimality for a usable command interval, so the
# pure-economics oracle comparison runs with it off
ECON_CFG = ShareConfig(min_headroom=0.0)
WIDE = GlobalSets(u_min=0.0, u_max=50.0, y_min=0.0, y_max=500.0, delta_u=0.5)


def make_station(gain, cost, u_min, u_max, level=0.0, y_slack=True):
    if y_slack:
        y_min, y_max = 0.0, 100.0
    else:
        y_min, y_max = gain * u_min + level, gain * u_max + level
    return StationData(gain=gain, level=level, u_min=u_min, u_max=u_max,
                       y_min=y_min, y_max=y_max, cost=cost)


def _bounds(st, u_ss, sets, previous, i):
    lo = max(st.u_min, (st.y_min - st.level) / st.gain, 0.0)
    hi = min(st.u_max, (st.y_max - st.level) / st.gain, u_ss)
    if previous is not None and previous.delta[i]:
        centre = previous.alpha[i] * previous.u_ss
        room = previous.alpha[i] * sets.delta_u
        lo = max(lo, centre - room)
        hi = min(hi, centre + room)
    return lo, hi


def greedy_split(stations, active, u_ss, sets, previous):
    """Exact split for fixed u_ss: fill cheapest gas first."""
    lows, highs = [], []
    for i in active:
        lo, hi = _bounds(stations[i], u_ss, sets, previous, i)
        if lo > hi + 1e-12:
            return None
        lows.append(lo)
        highs.append(hi)
    if sum(lows) > u_ss + 1e-12 or sum(highs) < u_ss - 1e-12:
        return None
    v = list(lows)
    rem = u_ss - sum(lows)
    merit = sorted(range(len(active)),
                   key=lambda j: stations[active[j]].cost * stations[active[j]].gain)
    for j in merit:
        take = min(highs[j] - lows[j], rem)
        v[j] += take
        rem -= take
    if rem > 1e-9:
        return None
    lev = sum(stations[i].level for i in active)
    gas = sum(stations[i].gain * vj for i, vj in zip(active, v)) + lev
    if not (sets.y_min - 1e-9 <= gas <= sets.y_max + 1e-9):
        return None
    return v


def oracle(stations, demand, sets, previous, lam_bar, grid=1e-3):
    best = None
    n = len(stations)
    for delta in product((0, 1), repeat=n):
        if not any(delta):
            continue
        active = [i for i in range(n) if delta[i]]
        lo = max(sets.u_min,
                 sum(_bounds(stations[i], sets.u_max, sets, previous, i)[0]
                     for i in active))
        hi = min(sets.u_max,
                 sum(_bounds(stations[i], sets.u_max, sets, previous, i)[1]
                     for i in active))
        if lo > hi:
            continue
        points = list(np.arange(lo, hi, grid)) + [hi]
        if lo <= demand <= hi:
            points.append(demand)
        for u_ss in points:
            v = greedy_split(stations, active, u_ss, sets, previous)
            if v is None:
                continue
            cost = (sum(stations[i].cost * (stations[i].gain * vj + stations[i].level)
                        for i, vj in zip(active, v))
                    + lam_bar * (u_ss - demand) ** 2)
            if best is None or cost < best[0]:
                best = (cost, delta, u_ss)
    return best


def random_instance(rng, gas_box=False):
    """Three stations and a demand; ``gas_box`` narrows each gas box
    inside the steam box so it binds: at most 0.7 of full steam, at
    least 0.1 above the steam floor."""
    n = 3
    stations = []
    for _ in range(n):
        gain = rng.uniform(0.3, 0.9)
        u_min = rng.uniform(0.05, 0.15)
        u_max = rng.uniform(0.8, 1.5)
        st = make_station(gain, rng.uniform(1.0, 10.0), u_min, u_max,
                          level=rng.uniform(-0.01, 0.01))
        if gas_box:
            st = dataclasses.replace(
                st, y_min=gain * (u_min + 0.1) + st.level,
                y_max=gain * 0.7 * u_max + st.level)
        stations.append(st)
    cap = sum(st.u_max for st in stations)
    demand = rng.uniform(0.3 * cap, 0.9 * cap)
    return stations, demand


def oracle_cases(seeds):
    """The slack-gas-box cases keep their plain seed ids."""
    return ([pytest.param(s, False, id=str(s)) for s in seeds]
            + [pytest.param(s, True, id=f"gas-box-{s}") for s in seeds])


@pytest.mark.parametrize("seed, gas_box", oracle_cases(range(10)))
def test_matches_grid_oracle(seed, gas_box):
    rng = np.random.default_rng(seed)
    stations, demand = random_instance(rng, gas_box)
    lam_bar = 1e3 * max(st.cost for st in stations)
    sol = solve_shares(stations, demand, WIDE, ECON_CFG)
    ref = oracle(stations, demand, WIDE, None, lam_bar)
    assert ref is not None
    # the solver can only beat the grid, never lose to it materially
    margin = lam_bar * (1e-3) ** 2 + sum(
        st.cost * st.gain for st in stations) * 1e-3 + 1e-9
    assert sol.cost <= ref[0] + 1e-7 * max(1.0, abs(ref[0]))
    assert ref[0] - sol.cost <= margin


@pytest.mark.parametrize("seed, gas_box", oracle_cases(range(10, 16)))
def test_matches_grid_oracle_with_rate_coupling(seed, gas_box):
    rng = np.random.default_rng(seed)
    stations, demand = random_instance(rng, gas_box)
    lam_bar = 1e3 * max(st.cost for st in stations)
    previous = solve_shares(stations, demand, WIDE, ECON_CFG)
    shifted = demand * rng.uniform(0.7, 1.3)
    sol = solve_shares(stations, shifted, WIDE, ECON_CFG, previous=previous)
    ref = oracle(stations, shifted, WIDE, previous, lam_bar)
    assert ref is not None
    margin = lam_bar * (1e-3) ** 2 + sum(
        st.cost * st.gain for st in stations) * 1e-3 + 1e-9
    assert sol.cost <= ref[0] + 1e-7 * max(1.0, abs(ref[0]))
    assert ref[0] - sol.cost <= margin


def test_merit_order_fill():
    cheap = make_station(0.5, 1.0, 0.1, 1.0)
    dear = make_station(0.5, 5.0, 0.1, 1.0)
    sol = solve_shares([cheap, dear], 1.5, WIDE, CFG)
    assert sol.delta == (1, 1)
    assert sol.flows[0] == pytest.approx(1.0, abs=1e-9)   # cheap at cap
    # the dear one serves the rest, short of the marginal-cost gap
    # cost*gain / (2 lambda_bar) = 2.5e-4
    assert sol.flows[1] == pytest.approx(0.5 - 2.5e-4, abs=1e-6)
    assert sol.u_ss == pytest.approx(1.5, abs=1e-3)
    assert sum(sol.alpha) == pytest.approx(1.0)


def test_tie_breaks_to_fewest_then_lex():
    twin_a = make_station(0.5, 2.0, 0.0, 1.0)
    twin_b = make_station(0.5, 2.0, 0.0, 1.0)
    sol = solve_shares([twin_a, twin_b], 0.5, WIDE, CFG)
    assert sum(sol.delta) == 1
    assert sol.delta == (0, 1)


def test_tracks_demand_when_interior():
    stations = [make_station(0.6, 2.0, 0.1, 1.0),
                make_station(0.5, 3.0, 0.1, 1.0)]
    sol = solve_shares(stations, 1.2, WIDE, CFG)
    assert sol.u_ss == pytest.approx(1.2, abs=1e-3)


def test_saturates_at_capacity_instead_of_failing():
    stations = [make_station(0.6, 2.0, 0.1, 1.0),
                make_station(0.5, 3.0, 0.1, 0.8)]
    sol = solve_shares(stations, 5.0, WIDE, CFG)
    assert sol.u_ss == pytest.approx(1.8, abs=1e-6)
    assert sol.delta == (1, 1)


def test_infeasible_demand_raises_with_diagnostics():
    # station floors above the plant-wide command ceiling
    tight = GlobalSets(u_min=0.0, u_max=0.4, y_min=0.0, y_max=100.0,
                       delta_u=0.5)
    stations = [make_station(0.6, 2.0, 0.5, 1.0),
                make_station(0.5, 3.0, 0.5, 1.0)]
    with pytest.raises(InfeasibleShareError) as err:
        solve_shares(stations, 0.3, tight, CFG)
    assert len(err.value.diagnostics) == 3
    assert all(why == "infeasible" for why in err.value.diagnostics.values())


def test_rate_coupling_limits_survivors_not_entrants():
    stations = [make_station(0.5, 1.0, 0.0, 3.0),
                make_station(0.5, 2.0, 0.0, 3.0),
                make_station(0.5, 3.0, 0.0, 3.0)]
    previous = ShareSolution(delta=(1, 1, 0), alpha=(0.5, 0.5, 0.0),
                             u_ss=2.0, flows=(1.0, 1.0, 0.0), cost=0.0,
                             demand=2.0)
    sol = solve_shares(stations, 6.0, WIDE, CFG, previous=previous)
    # survivors may move at most 0.5*0.5 = 0.25 each; the entrant is free
    assert sol.flows[0] <= 1.25 + 1e-6
    assert sol.flows[1] <= 1.25 + 1e-6
    assert sol.flows[2] > 1.25
    assert sol.u_ss > 2.5


def test_rate_coupling_vanishes_for_leavers():
    stations = [make_station(0.5, 1.0, 0.1, 3.0),
                make_station(0.5, 2.0, 0.1, 3.0)]
    previous = ShareSolution(delta=(1, 1), alpha=(0.5, 0.5), u_ss=3.0,
                             flows=(1.5, 1.5), cost=0.0, demand=3.0)
    sol = solve_shares(stations, 1.0, WIDE, CFG, previous=previous)
    # the expensive station is dropped whole; the survivor may shed at
    # most 0.25 this solve, pinning the total above demand
    assert sol.delta == (1, 0)
    assert sol.flows[0] == pytest.approx(1.25, abs=1e-6)
    assert sol.u_ss == pytest.approx(1.25, abs=1e-6)


def test_headroom_guard_rejects_pinned_splits():
    # the cheap station's box is a 0.1-wide sliver; alone or paired it pins
    # the total-command interval below the floor, so the optimizer must pay
    # for the expensive station instead
    sliver = make_station(0.5, 1.0, 0.5, 0.6)
    roomy = make_station(0.5, 5.0, 0.1, 3.0)
    sol = solve_shares([sliver, roomy], 0.55, WIDE, CFG)
    assert sol.delta == (0, 1)
    # with the guard off the sliver wins on cost
    econ = solve_shares([sliver, roomy], 0.55, WIDE, ECON_CFG)
    assert econ.delta == (1, 0)
    # no workable pattern at all: the failure names the guard
    with pytest.raises(InfeasibleShareError) as err:
        solve_shares([sliver], 0.55, WIDE, CFG)
    assert any("command headroom" in why
               for why in err.value.diagnostics.values())


def test_degenerate_zero_total():
    stations = [make_station(0.5, 1.0, 0.0, 1.0),
                make_station(0.5, 2.0, 0.0, 1.0)]
    sol = solve_shares(stations, 0.0, WIDE, CFG)
    assert sol.u_ss == pytest.approx(0.0, abs=1e-9)
    # a zero total splits evenly over the active stations
    assert sol.alpha == tuple(d / sum(sol.delta) for d in sol.delta)
    assert sum(sol.alpha) == pytest.approx(1.0)


def test_station_floors_start_every_shipped_pattern(default_run):
    # w = 0, every active flow at its floor, meets every row for each
    # pattern of the shipped fleet along the default schedule, so the
    # QP kernel starts there and never runs phase 1
    cfg = default_config()
    stations = [station_data(p, s.model)
                for p, s in zip(cfg.boilers, default_run.idents)]
    lam_bar = 1e3 * max(st.cost for st in stations)
    previous = None
    for _, demand in cfg.demand:
        for delta in product((0, 1), repeat=len(stations)):
            active = [i for i, d in enumerate(delta) if d]
            if not active:
                continue
            H, f, G, h, lo = _pattern_qp(stations, active, demand, cfg.sets,
                                         cfg.share, lam_bar, previous)
            m = len(active)
            assert H.shape == (m, m) and f.shape == lo.shape == (m,)
            assert G.shape == (2 * m + 4, m)
            assert min(h) >= 0.0, (demand, delta)
        previous = solve_shares(stations, demand, cfg.sets, cfg.share,
                                previous=previous)


def test_resolve_trigger_rules():
    cfg = ShareConfig(trigger_threshold=3e-2, period_slow_steps=5)
    prev = ShareSolution(delta=(1,), alpha=(1.0,), u_ss=1.0, flows=(1.0,),
                         cost=0.0, demand=1.0)
    assert should_resolve(1.5, None, 0, cfg)
    assert should_resolve(1.03, prev, 1, cfg)
    assert not should_resolve(1.029, prev, 1, cfg)
    assert should_resolve(1.0, prev, 5, cfg)
    assert not should_resolve(1.0, prev, 4, cfg)


def strip(solution):
    """``solution`` without its working sets, so a solve from it is cold."""
    return dataclasses.replace(solution, working_sets=())


def shipped_stations(idents):
    cfg = default_config()
    return [station_data(p, s.model) for p, s in zip(cfg.boilers, idents)]


def walk_demands(cfg):
    """The default schedule's levels, then a 40-step seeded walk."""
    rng = random.Random(100)
    demands = [d for _, d in cfg.demand]
    x = 2.5
    for _ in range(40):
        x = min(max(x + rng.uniform(-0.15, 0.15), 1.0), 4.0)
        demands.append(x)
    return demands


def test_warm_started_chain_matches_cold_chain(default_run, count_qp_starts):
    # the shipped fleet over the default schedule, then a seeded walk;
    # each solve couples rates to the one before it.  One chain hands
    # on the working sets, the other strips them.
    cfg = default_config()
    stations = shipped_stations(default_run.idents)
    n_patterns = 2 ** len(stations) - 1
    demands = walk_demands(cfg)
    calls = count_qp_starts(highlevel)
    warm = cold = None
    warm_qps = warm_cold_starts = 0
    for demand in demands:
        before = dict(calls)
        warm = solve_shares(stations, demand, cfg.sets, cfg.share,
                            previous=warm)
        warm_qps += calls["solves"] - before["solves"]
        warm_cold_starts += calls["cold"] - before["cold"]
        before = dict(calls)
        cold = solve_shares(stations, demand, cfg.sets, cfg.share,
                            previous=cold and strip(cold))
        # each QP the stripped chain evaluates starts cold
        assert (calls["cold"] - before["cold"]
                == calls["solves"] - before["solves"] > 0)
        assert warm.delta == cold.delta, demand
        assert warm.working_sets == cold.working_sets, demand
        assert len(warm.working_sets) == n_patterns
        assert warm.flows == pytest.approx(cold.flows, rel=0, abs=1e-12)
        assert warm.alpha == pytest.approx(cold.alpha, rel=0, abs=1e-12)
        assert warm.u_ss == pytest.approx(cold.u_ss, rel=0, abs=1e-12)
        assert warm.cost == pytest.approx(cold.cost, rel=0, abs=1e-12)
    # bound and prune solves 265 of the 1 426 pattern QPs at seed 2214,
    # and the guesses are taken, not only offered: 173 of the 265 start
    # cold, 117 of them without a guess (the first solve and patterns
    # the solve before pruned)
    assert warm_qps <= 290
    assert warm_cold_starts <= 190


def test_previous_without_this_fleets_working_sets_starts_cold(
        count_qp_starts):
    stations = [make_station(0.5, 1.0, 0.1, 3.0),
                make_station(0.6, 2.0, 0.1, 3.0),
                make_station(0.4, 3.0, 0.1, 3.0)]
    hand_built = ShareSolution(delta=(1, 1, 0), alpha=(0.5, 0.5, 0.0),
                               u_ss=2.0, flows=(1.0, 1.0, 0.0), cost=0.0,
                               demand=2.0)
    wider = solve_shares(stations + [make_station(0.5, 4.0, 0.1, 3.0)], 2.0,
                         WIDE, CFG)
    assert len(wider.working_sets) == 15
    calls = count_qp_starts(highlevel)
    for previous in (hand_built, wider):
        before = dict(calls)
        sol = solve_shares(stations, 2.5, WIDE, CFG, previous=previous)
        # each evaluated QP starts cold
        assert (calls["cold"] - before["cold"]
                == calls["solves"] - before["solves"] > 0)
        assert sol == solve_shares(stations, 2.5, WIDE, CFG,
                                   previous=strip(previous))


def test_guesses_never_hide_infeasibility():
    stations = [make_station(0.6, 2.0, 0.5, 1.0),
                make_station(0.5, 3.0, 0.5, 1.0)]
    previous = solve_shares(stations, 1.2, WIDE, CFG)
    # a guess for every pattern, the ones this solve pruned included
    lam_bar = 1e3 * max(st.cost for st in stations)
    previous = dataclasses.replace(previous, working_sets=tuple(
        qp.solve_qp(*_pattern_qp(stations, active, 1.2, WIDE, CFG, lam_bar,
                                 None)[:4]).active
        for active in ([1], [0], [0, 1])))
    assert None not in previous.working_sets
    # station floors above the plant-wide command ceiling
    tight = GlobalSets(u_min=0.0, u_max=0.4, y_min=0.0, y_max=100.0,
                       delta_u=0.5)
    with pytest.raises(InfeasibleShareError) as warm:
        solve_shares(stations, 0.3, tight, CFG, previous=previous)
    with pytest.raises(InfeasibleShareError) as cold:
        solve_shares(stations, 0.3, tight, CFG, previous=strip(previous))
    # with no feasible pattern there is no incumbent, so none is pruned
    assert list(warm.value.diagnostics) == [(0, 1), (1, 0), (1, 1)]
    assert warm.value.diagnostics == cold.value.diagnostics
    assert str(warm.value) == str(cold.value)
    assert set(warm.value.diagnostics.values()) == {"infeasible"}


def exhaustive(stations, demand, sets, cfg, previous):
    """Reference dispatch: every pattern QP built by ``_pattern_qp`` and
    solved cold by the kernel, under ``solve_shares``'s row check,
    headroom guard and tie rule.  Returns (pattern, flows)."""
    n = len(stations)
    lam_bar = cfg.lambda_bar
    if lam_bar is None:
        lam_bar = 1e3 * max(st.cost for st in stations)
    candidates = []
    for delta in product((0, 1), repeat=n):
        active = [i for i in range(n) if delta[i]]
        if not active:
            continue
        H, f, G, h, lo = _pattern_qp(stations, active, demand, sets, cfg,
                                     lam_bar, previous)
        res = qp.solve_qp(H, f, G, h)
        if res.status != "optimal" or max(G @ res.x - h) > 1e-7:
            continue
        flows = lo + res.x
        u_ss = float(flows.sum())
        full = [0.0] * n
        for j, i in enumerate(active):
            full[i] = float(flows[j])
        if cfg.min_headroom > 0.0 and u_ss > 1e-9:
            u_lo, u_hi = command_bounds(
                stations, [v / u_ss for v in full], sets)
            if u_hi - u_lo < cfg.min_headroom:
                continue
        cost = _true_cost(stations, active, flows, u_ss, demand, lam_bar)
        candidates.append((float(cost), delta, tuple(full)))
    best = min(cost for cost, _, _ in candidates)
    window = cfg.tie_tol * max(1.0, abs(best))
    _, delta, flows = min((sum(delta), delta, flows)
                          for cost, delta, flows in candidates
                          if cost <= best + window)
    return delta, flows


def assert_matches_exhaustive(sol, stations, demand, sets, cfg, previous):
    delta, flows = exhaustive(stations, demand, sets, cfg, previous)
    assert sol.delta == delta, demand
    assert sol.flows == pytest.approx(flows, rel=0, abs=1e-12), demand


@pytest.mark.parametrize("workload, n_solves", [("default", 25),
                                                ("long_hold", 4)])
def test_pruned_dispatch_matches_exhaustive_on_the_workloads(
        workload, n_solves, default_run, monkeypatch, workload_config):
    solves = []

    def recorded(*args, previous=None):
        sol = solve_shares(*args, previous=previous)
        solves.append((sol, args, previous))
        return sol

    monkeypatch.setattr(scenario, "solve_shares", recorded)
    report = scenario.run_scenario(workload_config(workload),
                                   idents=default_run.idents)
    assert report.violations == []
    assert report.hl_solves == len(solves) == n_solves
    for sol, args, previous in solves:
        assert_matches_exhaustive(sol, *args, previous)


def perturbed_fleet(idents, n, rng):
    """``n`` stations cycling through the shipped five, each gain scaled
    by U(0.8, 1.2) and cost by U(0.7, 1.3)."""
    return [dataclasses.replace(st, gain=st.gain * rng.uniform(0.8, 1.2),
                                cost=st.cost * rng.uniform(0.7, 1.3))
            for st in (shipped_stations(idents)[i % 5] for i in range(n))]


@pytest.mark.parametrize("fleet, n_solves", [
    pytest.param("walk", None, id="walk"), pytest.param(5, 30, id="n5"),
    pytest.param(8, 10, id="n8"), pytest.param(10, 3, id="n10")])
def test_pruned_dispatch_matches_exhaustive_along_a_chain(
        fleet, n_solves, default_run):
    # rate coupling to the solve before; "walk" is the shipped fleet
    # over walk_demands, the others perturbed fleets of that size with
    # plant boxes scaled with the fleet, at one seeded demand in each of
    # n_solves equal slices of [0, 1.1] times capacity, shuffled
    cfg = default_config()
    if fleet == "walk":
        stations, sets = shipped_stations(default_run.idents), cfg.sets
        demands = walk_demands(cfg)
    else:
        rng = random.Random(fleet)
        stations = perturbed_fleet(default_run.idents, fleet, rng)
        scale = fleet / 5
        sets = dataclasses.replace(cfg.sets, u_max=cfg.sets.u_max * scale,
                                   y_max=cfg.sets.y_max * scale)
        capacity = sum(st.u_max for st in stations)
        demands = [1.1 * capacity * (k + rng.random()) / n_solves
                   for k in range(n_solves)]
        rng.shuffle(demands)
    previous = None
    for demand in demands:
        sol = solve_shares(stations, demand, sets, cfg.share,
                           previous=previous)
        assert_matches_exhaustive(sol, stations, demand, sets, cfg.share,
                                  previous)
        previous = sol


def pattern_costs(stations, demand, sets, cfg, previous):
    """(bound, true cost at the QP solution) of every feasible pattern."""
    lam_bar = 1e3 * max(st.cost for st in stations)
    n = len(stations)
    for delta in product((0, 1), repeat=n):
        active = [i for i in range(n) if delta[i]]
        if not active:
            continue
        H, f, G, h, lo = _pattern_qp(stations, active, demand, sets, cfg,
                                     lam_bar, previous)
        res = qp.solve_qp(H, f, G, h)
        if res.status != "optimal":
            continue
        flows = lo + res.x
        yield (_bound(stations, active, demand, lam_bar),
               _true_cost(stations, active, flows, float(flows.sum()),
                          demand, lam_bar))


@settings(derandomize=True, max_examples=40, deadline=None)
@given(seed=strategies.integers(0, 2 ** 32 - 1),
       gas_box=strategies.booleans())
def test_bound_never_exceeds_the_pattern_cost(seed, gas_box):
    # the shipped reg, rate coupling to a previous solve and plant-wide
    # boxes that may bind all only raise the cost above the bound
    rng = np.random.default_rng(seed)
    stations, demand = random_instance(rng, gas_box)
    previous = solve_shares(stations, demand, WIDE, ECON_CFG)
    cap = sum(st.u_max for st in stations)
    sets = GlobalSets(u_min=rng.uniform(0.0, 0.5 * cap),
                      u_max=rng.uniform(0.5 * cap, 1.2 * cap),
                      y_min=0.0, y_max=rng.uniform(0.3, 1.0) * cap,
                      delta_u=rng.uniform(0.1, 1.0))
    shifted = demand * rng.uniform(0.5, 1.5)
    costs = list(pattern_costs(stations, shifted, sets, CFG, previous))
    for bound, cost in costs:
        assert bound <= cost + 1e-12 * max(1.0, abs(cost))


@settings(derandomize=True, max_examples=40, deadline=None)
@given(seed=strategies.integers(0, 2 ** 32 - 1),
       gas_box=strategies.booleans())
def test_bound_is_the_relaxed_pattern_optimum(seed, gas_box):
    # no reg, no coupling and slack plant-wide boxes: the bound is the
    # pattern QP's optimum
    rng = np.random.default_rng(seed)
    stations, demand = random_instance(rng, gas_box)
    demand *= rng.uniform(0.0, 1.5)
    cfg = ShareConfig(reg=0.0, min_headroom=0.0)
    costs = list(pattern_costs(stations, demand, WIDE, cfg, None))
    assert len(costs) == 7
    for bound, cost in costs:
        assert bound == pytest.approx(cost, rel=1e-9, abs=1e-9)
