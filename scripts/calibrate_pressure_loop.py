"""Grid-search the pressure-loop PI gains against the nonlinear model.

Sweeps (k_p, k_i) around the analytic starting point (damping 0.9,
bandwidth 0.04 rad/s on the linearized integrator plant), simulates a
0.2 kg/s steam-draw step on every boiler in the default fleet, and
reports 2% settling times, peak deviation and overshoot.  The chosen
pair is pasted into config.py as the shipped default.

Run:  python3 scripts/calibrate_pressure_loop.py
"""

import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from steamfleet.config import TimingConfig, default_fleet
from steamfleet.lowlevel import (PIConfig, init_station, run_station,
                                 settling_time)

TAU, DT = TimingConfig().tau, TimingConfig().dt


def step_response(params, cfg_r, cfg_c, q0=0.5, dq=0.2, horizon=600.0):
    state = init_station(params, q0)
    n = round(horizon / TAU)
    cmds = [q0 + dq] * n
    states, _, _ = run_station(params, cfg_r, cfg_c, state, cmds, TAU, DT)
    times = [(k + 1) * TAU for k in range(n)]
    press = [s.boiler.p for s in states]
    return times, press


def evaluate(k_p, k_i):
    cfg_c = PIConfig(0.31, 0.1, 0.0, 2.0)
    rows = []
    for params in default_fleet():
        cfg_r = PIConfig(k_p, k_i, 0.0, params.q_g_max)
        times, press = step_response(params, cfg_r, cfg_c)
        ts = settling_time(times, press, params.p_sp)
        dev = [p - params.p_sp for p in press]
        peak = min(dev)           # steam step pulls pressure down
        over = max(dev)           # recovery overshoot above set-point
        rows.append((ts, peak, over, abs(press[-1] - params.p_sp)))
    return rows


def main():
    base_kp, base_ki = 0.1212, 2.694e-3
    print(f"{'k_p':>8} {'k_i':>9} | settle[s] per boiler | worst peak, overshoot")
    best = None
    for mp in (0.7, 0.85, 1.0, 1.15, 1.3):
        for mi in (0.7, 0.85, 1.0, 1.15, 1.3):
            k_p, k_i = base_kp * mp, base_ki * mi
            rows = evaluate(k_p, k_i)
            settles = [r[0] for r in rows]
            if any(s is None for s in settles):
                continue
            peak = min(r[1] for r in rows)
            over = max(r[2] for r in rows)
            resid = max(r[3] for r in rows)
            ok = all(90.0 <= s <= 150.0 for s in settles)
            mid = sum(settles) / len(settles)
            score = (0 if ok else 1, abs(mid - 115.0) + 50.0 * over)
            tag = " <=" if ok else ""
            print(f"{k_p:8.4f} {k_i:9.2e} | {settles} | {peak:+.3f} {over:+.3f}"
                  f" resid={resid:.2e}{tag}")
            if best is None or score < best[0]:
                best = (score, k_p, k_i, settles)
    print("\nbest:", best[1:])


if __name__ == "__main__":
    main()
