"""Benchmark of the steamfleet pipeline on one workload.

    python3 perfbench/run.py --workload default --seed 2214 --seconds 60 --trace 0

Run from the root of a checkout.  The measuring happens in ``worker.py``,
a fresh interpreter with single-threaded BLAS that repeats each pipeline
phase for about ``--seconds``.  With ``--trace 0`` the last stdout line
reports the end-to-end metrics; each timing is the median over the
repetitions of its phase, each scaled by the host speed sampled while it
ran (``calibrate.py``).  With ``--trace 1`` a traced worker and an
untraced one share the time, and the line reports the per-layer metrics
plus the tracing overhead: the fastest traced ``loop_s`` minus the fastest
untraced one, both unscaled.

A repetition fails when it raises, reports a constraint violation or
observes more model mismatch than was certified.  Simulated statistics,
the ``timeseries.csv`` digest and the per-layer counts must repeat
exactly: across the repetitions of one run, traced or not, and across
runs of the same source tree, workload and seed (kept in
``perfbench/out/ledger``).
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
SRC = ROOT / "src" / "steamfleet"
OUT = HERE / "out"
WORKLOADS = ("default", "long_hold")
PHASES = ("setup_s", "loop_s", "outputs_s")
STATS = {"fuel_cost": "cost", "track_rms": "kg/s", "mismatch_ratio": "ratio"}
UNITS = {"highlevel.qp_optimal_ratio": "ratio", "outputs.bytes": "B"}
# Every run must end within 180 s; workers are stopped at this point.
DEADLINE_S = 170.0


def child_env():
    env = dict(os.environ)
    env.update(OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    path = [str(ROOT / "src")]
    if env.get("PYTHONPATH"):
        path.append(env["PYTHONPATH"])
    env["PYTHONPATH"] = os.pathsep.join(path)
    return env


def worker(workload, seed, seconds, traced, timeout):
    """Run one worker process; returns its JSON document."""
    out_dir = OUT / f"{workload}-{seed}-{os.getpid()}"
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--out", str(out_dir)]
    if traced:
        cmd.append("--trace")
    failed = {"attempted": 1, "problems": [], "layers": None, "counts": None}
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=child_env(), text=True,
                              stdout=subprocess.PIPE, timeout=timeout)
    except subprocess.TimeoutExpired:
        return {**failed, "errors": [f"worker timed out after {timeout:.0f} s"]}
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {**failed, "errors": [f"worker exited {proc.returncode}"]}
    return json.loads(lines[-1])


def fingerprint(doc):
    return {"stats": doc["stats"], "csv_sha256": doc["csv_sha256"]}


def ledger_path(workload, seed):
    h = hashlib.sha256(f"{workload}:{seed}".encode())
    for path in sorted(SRC.glob("*.py")) + sorted(HERE.glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return OUT / "ledger" / f"{h.hexdigest()[:24]}.json"


def check_ledger(path, record):
    """Compare with earlier runs of this tree; returns mismatch messages."""
    if path.exists():
        old = json.loads(path.read_text())
        bad = [f"{key} differs from an earlier run of this tree: "
               f"{old[key]} != {record[key]}"
               for key in record if key in old and old[key] != record[key]]
        if bad:
            return bad
        record = {**old, **record}
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    return []


def report(doc, name):
    for key in PHASES:
        vals = doc.get(key) or []
        if vals:
            print(f"{name} {key}: {len(vals)} reps, min {min(vals):.4f} "
                  f"median {statistics.median(vals):.4f} max {max(vals):.4f}")
        if vals and doc["scaled"][key]:
            slow = statistics.median(doc["slowdown"][key])
            print(f"{name} {key}: scaled median "
                  f"{statistics.median(doc['scaled'][key]):.4f}, host "
                  f"slowdown {slow:.4f}")
    if doc.get("csv_sha256"):
        print(f"{name} timeseries.csv sha256 {doc['csv_sha256']}")
    for msg in doc["errors"]:
        print(f"{name} FAILED: {msg}")


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    return args


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "scenario.py").is_file():
        print(f"error: no steamfleet sources under {ROOT / 'src'}; run from "
              "the root of a checkout", file=sys.stderr)
        return 2
    start = time.perf_counter()
    plan = [("traced", True), ("untraced", False)] if args.trace else \
        [("untraced", False)]
    docs = {}
    for name, traced in plan:
        remaining = DEADLINE_S - (time.perf_counter() - start)
        docs[name] = worker(args.workload, args.seed,
                            args.seconds / len(plan), traced, remaining)
        report(docs[name], name)

    problems = [p for d in docs.values() for p in d["problems"]]
    good = [d for d in docs.values() if not d["errors"]]
    if any(fingerprint(d) != fingerprint(good[0]) for d in good[1:]):
        problems.append("traced and untraced runs simulate differently")
    traced = docs.get("traced")
    if good:
        record = fingerprint(good[0])
        if traced and traced["layers"]:
            record["counts"] = traced["counts"]
        problems += check_ledger(ledger_path(args.workload, args.seed), record)
    for msg in problems:
        print(f"consistency check failed: {msg}", file=sys.stderr)

    metrics = {}
    base = docs["untraced"]
    if len(good) == len(docs):
        if args.trace:
            layers = traced["layers"]
            layers["trace.overhead_s"] = (layers["trace.loop_s"]
                                          - min(base["loop_s"]))
            metrics = {k: {"value": v, "unit": UNITS.get(
                k, "count" if k in traced["counts"] else "s")}
                for k, v in layers.items()}
        else:
            mid = {k: statistics.median(base["scaled"][k]) for k in PHASES}
            mid["total_s"] = sum(mid.values())
            # outputs_s counts in total_s only: too unsteady on its own
            # (see README.md)
            metrics = {k: {"value": mid[k], "unit": "s"}
                       for k in ("setup_s", "loop_s", "total_s")}
            metrics["peak_rss_mb"] = {"value": base["peak_rss_mb"],
                                      "unit": "MB"}
            for k, unit in STATS.items():
                metrics[k] = {"value": base["stats"][k], "unit": unit}
    attempted = sum(d["attempted"] for d in docs.values())
    failed = sum(len(d["errors"]) for d in docs.values())
    correct = not failed and not problems and bool(metrics)
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
