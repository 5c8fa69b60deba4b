"""One benchmark run of one workload in a fresh interpreter.

Runs the pipeline the CLI runs: config, ``run_identification``,
``run_scenario`` with the fitted models, ``emit_outputs``.  Each phase
is repeated until ``--seconds`` would be overrun: the closed loop every
round, identification every third round, and the artifact writers
several times per round.  Every loop repetition uses the models of the
first identification.  Untraced, the host speed probe of
``calibrate.py`` samples all the while.  Interpreter start-up and the
imports stay outside every timed phase.

    python3 perfbench/worker.py --workload default --seed 2214 \\
        --seconds 60 --out DIR [--trace]

The last stdout line is one JSON object: the time of every repetition of
every phase, plain and scaled to the reference host speed, the median
host slowdown of every phase, peak memory, the simulated statistics, the
sha256 of ``timeseries.csv``, failures and, with ``--trace``, the
per-layer figures of the fastest repetition of each phase.  ``run.py``
calls this with ``src`` on ``PYTHONPATH`` and single-threaded BLAS;
``DIR`` receives the artifacts and is left for the caller to remove.
"""

import argparse
import hashlib
import json
import math
import resource
import sys
import time
from pathlib import Path

import numpy  # noqa: F401  (imported before any timed phase)
import scipy.linalg  # noqa: F401

from steamfleet import outputs, scenario

import calibrate
import spans
from workloads import WORKLOADS

PHASE_KEYS = {"setup": "setup_s", "loop": "loop_s", "outputs": "outputs_s"}

# emit_outputs takes tens of milliseconds, so each round times it
# several times.
OUTPUT_REPEATS = 10


def simulated_stats(report, cfg):
    tau = cfg.timing.tau
    costs = [b.lambda_cost for b in cfg.boilers]
    fuel = sum(c * g * tau for f in report.frames for c, g in zip(costs, f.qg))
    err2 = sum((f.y_bar - f.r) ** 2 for f in report.frames)
    return {
        "fuel_cost": fuel,
        "track_rms": math.sqrt(err2 / len(report.frames)),
        "mismatch_ratio": report.max_w_obs / report.w_certified,
        "max_w_obs": report.max_w_obs,
        "w_certified": report.w_certified,
        "violations": len(report.violations),
        "hl_solves": report.hl_solves,
        "frames": len(report.frames),
    }


def gate(report, stats):
    """Why a finished closed-loop run does not count as correct, or None."""
    if report.violations:
        shown = "; ".join(report.violations[:3])
        return f"{len(report.violations)} violations: {shown}"
    if not stats["mismatch_ratio"] <= 1.0:
        return (f"observed mismatch {stats['max_w_obs']:.6g} exceeds the "
                f"certified bound {stats['w_certified']:.6g}")
    return None


def setup_layers(tr):
    total, counts = tr["total_s"], tr["counts"]
    return {
        "setup.boiler.simulate.s": total.get("boiler.simulate", 0.0),
        "setup.boiler.rk4_steps": counts.get("boiler.rk4_steps", 0),
        "setup.properties.saturation.calls":
            counts.get("properties.saturation.calls", 0),
        "sysid.experiment.s": total.get("sysid.experiment", 0.0),
        "sysid.fit_arx.s": total.get("sysid.fit_arx", 0.0),
        "sysid.validate_model.s": total.get("sysid.validate_model", 0.0),
    }


def loop_layers(tr, loop_s):
    """Loop-phase figures; the self times must cover ``loop_s``."""
    stray = sorted(set(tr["self_s"]) - spans.LOOP_LABELS)
    if stray:
        raise RuntimeError(f"unreported spans inside the loop: {stray}")
    covered = sum(tr["self_s"].values())
    if abs(covered - loop_s) > 0.01 * loop_s:
        raise RuntimeError(f"layer self times sum to {covered:.4f} s, "
                           f"loop took {loop_s:.4f} s")
    calls, self_s, total_s = tr["calls"], tr["self_s"], tr["total_s"]
    counts = {**tr["counts"], **tr["maxima"]}
    n_disp = calls.get("qp.dispatch", 0)
    m = {
        "boiler.simulate.calls": calls.get("boiler.simulate", 0),
        "boiler.simulate.s": total_s.get("boiler.simulate", 0.0),
        "boiler.rk4_steps": counts.get("boiler.rk4_steps", 0),
        "properties.saturation.calls":
            counts.get("properties.saturation.calls", 0),
        "lowlevel.self_s": self_s.get("lowlevel", 0.0),
        "highlevel.solve_shares.calls": calls.get("highlevel.solve_shares", 0),
        "highlevel.solve_shares.self_s":
            self_s.get("highlevel.solve_shares", 0.0),
        "highlevel.qp_optimal_ratio":
            counts.get("qp.dispatch.optimal", 0) / n_disp if n_disp else 0.0,
        "mpc.solve.calls": calls.get("mpc.solve", 0),
        "mpc.solve.self_s": self_s.get("mpc.solve", 0.0),
        "mpc.build_controller.calls": calls.get("mpc.build_controller", 0),
        "mpc.build_controller.s": total_s.get("mpc.build_controller", 0.0),
        "mpc.state.s": self_s.get("mpc.state", 0.0),
        "ensemble.cert.s": self_s.get("ensemble.cert", 0.0),
        "scenario.self_s": self_s.get("scenario", 0.0),
        "trace.loop_s": loop_s,
    }
    for label in ("qp.dispatch", "qp.mpc"):
        m[f"{label}.calls"] = calls.get(label, 0)
        m[f"{label}.s"] = total_s.get(label, 0.0)
        m[f"{label}.iters"] = counts.get(f"{label}.iters", 0)
        m[f"{label}.iters_max"] = counts.get(f"{label}.iters_max", 0)
    return m


def counts(layers):
    """Per-layer figures that must repeat exactly: all but the times."""
    return {k: v for k, v in layers.items()
            if not (k.endswith(".s") or k.endswith("_s"))}


class Run:
    """Repetitions of the pipeline phases for one workload and seed."""

    def __init__(self, workload, seed, out_dir, tracer):
        self.workload, self.seed, self.out_dir = workload, seed, out_dir
        self.tracer = tracer
        self.times = {"setup_s": [], "loop_s": [], "outputs_s": []}
        # The untraced run samples host speed during every phase and times
        # phases on a clock that leaves the samples out; it also keeps each
        # time scaled to the reference host speed, and the median host
        # slowdown of each phase.  The traced run measures plain time.
        self.probe = None if tracer else calibrate.Probe()
        self.clock = self.probe.now if self.probe else time.perf_counter
        self.scaled = {key: [] for key in self.times}
        self.slowdown = {key: [] for key in self.times}
        self.layers = {"setup": [], "loop": [], "outputs": []}
        self.attempted = 0
        self.errors = []      # failed repetitions
        self.problems = []    # results that did not repeat exactly
        self.cfg = self.idents = None
        self.result = None    # simulated statistics and csv digest
        self.report = None    # the last closed-loop run

    def _repeats(self, what, first, now):
        if first != now:
            self.problems.append(f"{what} differ between repetitions")

    def setup(self):
        self.attempted += 1
        t0 = self.clock()
        cfg = WORKLOADS[self.workload](self.seed)
        idents = scenario.run_identification(cfg)
        self.times["setup_s"].append(self.clock() - t0)
        if self.tracer:
            self.layers["setup"].append(setup_layers(self.tracer.take()))
        if self.idents is None:
            self.cfg, self.idents = cfg, idents
        else:
            self._repeats("fitted models", self.idents, idents)

    def loop(self):
        self.attempted += 1
        t0 = self.clock()
        self.report = scenario.run_scenario(self.cfg, idents=self.idents)
        loop_s = self.clock() - t0
        self.times["loop_s"].append(loop_s)
        if self.tracer:
            self.layers["loop"].append(loop_layers(self.tracer.take(), loop_s))

    def outputs(self):
        report = self.report
        for _ in range(1 if self.tracer else OUTPUT_REPEATS):
            self.attempted += 1
            t0 = self.clock()
            paths = outputs.emit_outputs(report, self.out_dir, self.cfg)
            self.times["outputs_s"].append(self.clock() - t0)
        if self.tracer:
            out = self.tracer.take()
            # summary.json holds the wall time, so its size varies
            self.layers["outputs"].append({
                "outputs.emit.s": out["total_s"].get("outputs.emit", 0.0),
                "outputs.bytes": sum(Path(p).stat().st_size
                                     for name, p in paths.items()
                                     if name != "summary")})
        stats = simulated_stats(report, self.cfg)
        csv = Path(paths["timeseries"]).read_bytes()
        result = {"stats": stats,
                  "csv_sha256": hashlib.sha256(csv).hexdigest()}
        if self.result is None:
            self.result = result
        else:
            self._repeats("simulated statistics or timeseries.csv",
                          self.result, result)
        why = gate(report, stats)
        if why:
            self.errors.append(why)

    def fastest_layers(self):
        """Per-layer figures of the fastest repetition of each phase."""
        out = {}
        for phase, key in (("setup", "setup_s"), ("loop", "loop_s"),
                           ("outputs", "outputs_s")):
            reps = self.layers[phase]
            for rep in reps[1:]:
                self._repeats(f"{phase} per-layer counts",
                              counts(reps[0]), counts(rep))
            best = min(range(len(reps)), key=lambda i: self.times[key][i])
            out.update(reps[best])
        return out


def measure(run, seconds):
    """Rounds of loop and outputs, with identification every third round,
    while the next round fits in ``seconds``; the first always runs."""
    deadline = time.perf_counter() + seconds
    longest = {}
    rounds = 0
    while not run.errors:
        plan = ("setup", "loop", "outputs") if rounds % 3 == 0 else \
            ("loop", "outputs")
        need = sum(longest.get(p, 0.0) for p in plan)
        if rounds and time.perf_counter() + need > deadline:
            break
        for phase in plan:
            t0 = time.perf_counter()
            key = PHASE_KEYS[phase]
            n = len(run.times[key])
            first = run.probe and len(run.probe.samples)
            getattr(run, phase)()
            if run.errors:
                return
            if run.probe:
                slowdown = run.probe.median_since(first)
                run.slowdown[key].append(slowdown)
                run.scaled[key] += [t / slowdown for t in run.times[key][n:]]
            longest[phase] = max(longest.get(phase, 0.0),
                                 time.perf_counter() - t0)
        rounds += 1


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--trace", action="store_true")
    args = ap.parse_args(argv)
    tracer = None
    if args.trace:
        tracer = spans.Tracer()
        spans.install(tracer)
    run = Run(args.workload, args.seed, args.out, tracer)
    layers = None
    if run.probe:
        run.probe.start()
    try:
        measure(run, args.seconds)
        if tracer and not run.errors:
            layers = run.fastest_layers()
    except Exception as exc:  # a failed repetition is reported, never fatal
        run.errors.append(f"{type(exc).__name__}: {exc}")
    finally:
        if run.probe:
            run.probe.stop()
    doc = {"attempted": run.attempted, "errors": run.errors,
           "problems": run.problems, **run.times, "scaled": run.scaled,
           "slowdown": run.slowdown, **(run.result or {}),
           "layers": layers, "counts": layers and counts(layers),
           "peak_rss_mb":
               resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}
    print(json.dumps(doc))
    return 0


if __name__ == "__main__":
    sys.exit(main())
