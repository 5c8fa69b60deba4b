"""Economic load sharing across the fleet.

Chooses which stations burn and how the total steam command splits
among them.  Each activation pattern's continuous split solves a convex
QP in the active per-station flows v_i, with total u_ss = sum v:

    min  sum_i cost_i * (gain_i v_i + level_i) + lambda_bar (u_ss - demand)^2
    s.t. v_i in its steam interval [lo_i, hi_i], u_ss and total gas in box

A station's steam and gas boxes are one interval on v_i
(``StationData.steam_interval``); flows are nonnegative, so every share
is in [0, 1].  The QP's variables are w = v - lo, the flows above their
floors, so u_ss = sum(lo + w) and needs no variable or equality of its
own, and w = 0 is a feasible start whenever the floors fit the plant
boxes.  The demand weight lambda_bar is large, so u_ss tracks demand
unless a bound binds; dividing the objective through by it keeps the QP
kernel numerics flat.  Rate coupling
|v_i - alpha_i^prev u_ss^prev| <= alpha_i^prev delta_u narrows the
interval of stations active in both the previous and the candidate
pattern: an entrant has no previous share to move from, and a leaver's
flow is simply switched off.

The 2^N - 1 patterns are searched by bound and prune (branch-and-bound
unit commitment) rather than each solved.  A pattern's true cost at its
QP solution is at least ``_bound``: its merit-order fill of the steam
intervals plus the demand penalty, minimized in closed form with rate
coupling, the two total rows and ``reg`` dropped, since each of them can
only raise that cost.  Patterns are solved in ascending bound, and the
search stops at the first bound above the incumbent, the cheapest
candidate the headroom guard passed, plus its tie window.  True costs
are positive, so that window is never narrower than the final one, and
the pattern and split are those of solving every pattern.  With no
incumbent nothing is pruned, so an infeasible demand still reports
every pattern's reason.  ``tests/test_highlevel.py`` checks the choice
against exhaustive enumeration; the default run solves 32 dispatch QPs
where enumeration solves 775.

Dispatch re-solves as demand moves or its period comes round, and each
pattern QP is then nearly the one before it.  ``ShareSolution.working_sets``
keeps every pattern QP's optimal working set, in enumeration order, and
a solve handed that solution as ``previous`` guesses each pattern's
working set from it (``solve_qp(..., active=)``).  A guess that fits
skips phase 1 and most of the iteration; one that does not falls back
to the cold start, so a guess moves a result only at roundoff.  A
pruned pattern, a ``previous`` without working sets for this fleet's
patterns, hand-built or from a fleet of another size, starts cold.
``tests/test_scenario.py`` holds the default run to at most 12 cold
starts and 120 active-set iterations over its 32 dispatch QPs.
"""

import math
from dataclasses import dataclass, replace
from itertools import product

import numpy as np

from .mpc import command_bounds
from .qp import solve_qp


@dataclass(frozen=True)
class StationData:
    gain: float      # steady gas per unit steam command
    level: float     # affine gas offset of the identified loop
    u_min: float
    u_max: float
    y_min: float
    y_max: float
    cost: float

    @property
    def steam_interval(self):
        """Flows v >= 0 with v and gas gain*v + level in box; gain > 0."""
        return (max(self.u_min, (self.y_min - self.level) / self.gain, 0.0),
                min(self.u_max, (self.y_max - self.level) / self.gain))


def station_data(params, model):
    """Pack one station's optimizer view from its parameters and fit."""
    return StationData(gain=model.gain, level=model.gamma,
                       u_min=params.q_s_min, u_max=params.q_s_max,
                       y_min=params.q_g_min, y_max=params.q_g_max,
                       cost=params.lambda_cost)


@dataclass(frozen=True)
class ShareSolution:
    delta: tuple
    alpha: tuple
    u_ss: float
    flows: tuple       # per-station steam commands v_i
    cost: float        # true objective value
    demand: float
    # per pattern in enumeration order: its QP's optimal working set, or
    # None where the QP was pruned or not optimal; guesses for the next solve
    working_sets: tuple = ()


class InfeasibleShareError(RuntimeError):
    def __init__(self, demand, diagnostics):
        self.demand = demand
        self.diagnostics = diagnostics
        lines = ", ".join(f"{d}: {why}" for d, why in diagnostics.items())
        super().__init__(f"no feasible activation for demand {demand}: {lines}")


def _pattern_qp(stations, active, demand, sets, cfg, lam_bar, previous):
    """QP in w = v - lo, the active flows above their floors; returns
    (H, f, G, h, lo), and u_ss = sum(lo + w).  When the floors fit the
    plant boxes, w = 0 meets every row and the kernel starts there.
    """
    m = len(active)
    lo, hi = np.empty(m), np.empty(m)
    for j, i in enumerate(active):
        lo[j], hi[j] = stations[i].steam_interval
        if previous is not None and previous.delta[i]:
            centre = previous.alpha[i] * previous.u_ss
            room = previous.alpha[i] * sets.delta_u
            lo[j], hi[j] = max(lo[j], centre - room), min(hi[j], centre + room)
    gain = np.array([stations[i].gain for i in active])
    cost = np.array([stations[i].cost for i in active])
    u_lo = lo.sum()
    y_lo = gain @ lo + sum(stations[i].level for i in active)
    # (sum v - demand)^2 + reg |v|^2 + cost.gain v / lam_bar, less a constant
    H = 2.0 * cfg.reg * np.eye(m) + 2.0
    f = 2.0 * (cfg.reg * lo + u_lo - demand) + cost * gain / lam_bar
    box = np.stack([np.eye(m), -np.eye(m)], axis=1).reshape(2 * m, m)
    G = np.vstack([np.ones(m), -np.ones(m), gain, -gain, box])
    h = np.concatenate([[sets.u_max - u_lo, u_lo - sets.u_min,
                         sets.y_max - y_lo, y_lo - sets.y_min],
                        np.stack([hi - lo, np.zeros(m)], axis=1).ravel()])
    return H, f, G, h, lo


def _true_cost(stations, active, flows, u_ss, demand, lam_bar):
    gas_cost = sum(stations[i].cost * (stations[i].gain * v + stations[i].level)
                   for i, v in zip(active, flows))
    return gas_cost + lam_bar * (u_ss - demand) ** 2


def _bound(stations, active, demand, lam_bar):
    """Lower bound on the true cost at the pattern's QP solution.

    sum_P cost_i level_i + min over S of [F(S) + lam_bar (S - demand)^2],
    where F(S) is the cheapest fill of the steam intervals summing to S,
    in merit order of the slopes cost_i gain_i (an empty interval counts
    as its floor).  F is convex and piecewise linear, so the minimum is
    the least of one clip of demand - slope / (2 lam_bar) per segment.
    """
    segments = sorted((stations[i].cost * stations[i].gain,
                       *stations[i].steam_interval) for i in active)
    total = sum(lo for _, lo, _ in segments)
    fill = sum(stations[i].cost * stations[i].level for i in active)
    fill += sum(slope * lo for slope, lo, _ in segments)
    best = math.inf
    for slope, lo, hi in segments:
        width = max(hi - lo, 0.0)
        s = min(max(demand - slope / (2.0 * lam_bar), total), total + width)
        best = min(best, fill + slope * (s - total)
                   + lam_bar * (s - demand) ** 2)
        fill += slope * width
        total += width
    return best


def solve_shares(stations, demand, sets, cfg, previous=None):
    """Best activation pattern and split for the demanded total steam.

    Ties within ``cfg.tie_tol`` resolve toward fewer active stations,
    then the lexicographically smallest pattern.  Patterns are solved in
    ascending :func:`_bound` until a bound passes the best cost so far
    plus its tie window; the rest are pruned unsolved.  Raises
    :class:`InfeasibleShareError` when no pattern admits a feasible
    split, with per-pattern reasons attached.
    """
    n = len(stations)
    lam_bar = cfg.lambda_bar
    if lam_bar is None:
        lam_bar = 1e3 * max(st.cost for st in stations)
    patterns = [d for d in product((0, 1), repeat=n) if any(d)]
    guesses = (None,) * len(patterns)
    if previous is not None and len(previous.working_sets) == len(patterns):
        guesses = previous.working_sets
    actives = [[i for i in range(n) if delta[i]] for delta in patterns]
    bounds = [_bound(stations, active, demand, lam_bar) for active in actives]
    candidates = []
    incumbent = cutoff = math.inf   # cutoff: incumbent plus its tie window
    diagnostics = {}
    working_sets = [None] * len(patterns)
    for k in sorted(range(len(patterns)), key=bounds.__getitem__):
        if bounds[k] > cutoff:
            break
        delta, active = patterns[k], actives[k]
        H, f, G, h, lo = _pattern_qp(stations, active, demand, sets, cfg,
                                     lam_bar, previous)
        res = solve_qp(H, f, G, h, active=guesses[k])
        if res.status != "optimal":
            diagnostics[delta] = res.status
            continue
        working_sets[k] = res.active
        m = len(active)
        flows = lo + res.x
        u_ss = float(flows.sum())
        worst = max(float(np.max(G @ res.x - h)), 0.0)
        if worst > 1e-7:
            diagnostics[delta] = f"violated by {worst:.2e}"
            continue
        if abs(u_ss) < 1e-9:
            alpha = [1.0 / m if delta[i] else 0.0 for i in range(n)]
        else:
            alpha = [0.0] * n
            for j, i in enumerate(active):
                alpha[i] = float(flows[j]) / u_ss
        # the fixed shares must leave the tracking layer room on the
        # total command; a nonpositive floor disables the guard (width is
        # roundoff-noisy at vertex optima, where it is exactly zero)
        if cfg.min_headroom > 0.0 and u_ss > 1e-9:
            u_lo, u_hi = command_bounds(stations, alpha, sets)
            width = u_hi - u_lo
            if width < cfg.min_headroom:
                diagnostics[delta] = (f"command headroom {width:.4f} below "
                                      f"floor {cfg.min_headroom}")
                continue
        full_flows = [0.0] * n
        for j, i in enumerate(active):
            full_flows[i] = float(flows[j])
        cost = float(_true_cost(stations, active, flows, u_ss, demand,
                                lam_bar))
        incumbent = min(incumbent, cost)
        cutoff = incumbent + cfg.tie_tol * max(1.0, abs(incumbent))
        candidates.append(ShareSolution(
            delta=delta, alpha=tuple(alpha), u_ss=u_ss,
            flows=tuple(full_flows), cost=cost, demand=demand))
    if not candidates:
        # patterns were solved in bound order; report in enumeration order
        raise InfeasibleShareError(demand, dict(sorted(diagnostics.items())))
    near = [c for c in candidates if c.cost <= cutoff]
    near.sort(key=lambda c: (sum(c.delta), c.delta))
    return replace(near[0], working_sets=tuple(working_sets))


def should_resolve(demand, previous, slow_steps_since, cfg):
    """Re-optimize on a demand move past the threshold or periodically."""
    if previous is None:
        return True
    if abs(demand - previous.demand) >= cfg.trigger_threshold - 1e-12:
        return True
    return slow_steps_since >= cfg.period_slow_steps
