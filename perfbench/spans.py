"""Per-layer spans and counts, recorded from outside the package.

Each traced function is replaced by a wrapper in its defining module and
in every module that imported it by name (``scenario.py`` does
``from .highlevel import solve_shares``, so patching ``highlevel`` alone
would miss every call ``run_scenario`` makes).  A span's self time is its
duration minus the time of the traced spans it encloses, so the self
times of all labels inside ``run_scenario`` add up to its duration.
"""

import importlib
import pkgutil
import time
from collections import defaultdict

import steamfleet

# (defining module, function, label); a dict label maps the importing
# module to a label, which splits the QP kernel by caller.
SPANS = (
    ("boiler", "simulate", "boiler.simulate"),
    ("lowlevel", "init_station", "lowlevel"),
    ("lowlevel", "gas_update", "lowlevel"),
    ("lowlevel", "apply_period", "lowlevel"),
    ("lowlevel", "station_step", "lowlevel"),
    ("scenario", "identification_experiment", "sysid.experiment"),
    ("sysid", "fit_arx", "sysid.fit_arx"),
    ("sysid", "validate_model", "sysid.validate_model"),
    ("highlevel", "solve_shares", "highlevel.solve_shares"),
    ("qp", "solve_qp", {"highlevel": "qp.dispatch", "mpc": "qp.mpc",
                        "qp": "qp.direct"}),
    ("mpc", "build_controller", "mpc.build_controller"),
    ("mpc", "ensemble_state", "mpc.state"),
    ("mpc", "measured_state", "mpc.state"),
    ("scenario", "select_template", "ensemble.cert"),
    ("ensemble", "estimate_disturbance_bound", "ensemble.cert"),
    ("outputs", "emit_outputs", "outputs.emit"),
    ("scenario", "run_scenario", "scenario"),
)

# Labels whose spans may run inside run_scenario; any other label seen
# there would leave loop time out of the reported per-layer metrics.
LOOP_LABELS = frozenset((
    "scenario", "boiler.simulate", "lowlevel", "highlevel.solve_shares",
    "qp.dispatch", "qp.mpc", "mpc.solve", "mpc.build_controller",
    "mpc.state", "ensemble.cert"))


class Tracer:
    """Accumulates spans and counts until :meth:`take` hands them over."""

    def __init__(self):
        self._stack = []
        self._depth = defaultdict(int)
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.total_s = defaultdict(float)
        self.counts = defaultdict(int)
        self.maxima = defaultdict(int)

    def take(self):
        """Return the figures gathered since the last call and clear them.

        The tables are cleared in place: wrappers hold references to them.
        """
        tables = ("calls", "self_s", "total_s", "counts", "maxima")
        out = {}
        for name in tables:
            table = getattr(self, name)
            out[name] = dict(table)
            table.clear()
        return out

    def span(self, label, fn, on_result=None):
        stack, depth = self._stack, self._depth
        calls, self_s, total_s = self.calls, self.self_s, self.total_s

        def wrapper(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            depth[label] += 1
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = time.perf_counter() - t0
                stack.pop()
                depth[label] -= 1
                self_s[label] += dur - frame[0]
                if not depth[label]:
                    total_s[label] += dur
                if stack:
                    stack[-1][0] += dur
                calls[label] += 1
            if on_result is not None:
                on_result(label, args, result)
            return result

        return wrapper

    def counter(self, name, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _rk4_steps(self, label, args, result):
        duration, dt = args[3], args[4]
        self.counts["boiler.rk4_steps"] += round(duration / dt)

    def _qp_result(self, label, args, result):
        self.counts[label + ".iters"] += result.iterations
        self.maxima[label + ".iters_max"] = max(
            self.maxima[label + ".iters_max"], result.iterations)
        if result.status == "optimal":
            self.counts[label + ".optimal"] += 1


def _package_modules():
    mods = {}
    for info in pkgutil.iter_modules(steamfleet.__path__):
        mods[info.name] = importlib.import_module(f"steamfleet.{info.name}")
    return mods


def install(tracer):
    """Wrap every binding of the traced functions in the package."""
    mods = _package_modules()
    hooks = {"simulate": tracer._rk4_steps, "solve_qp": tracer._qp_result}

    def rebind(owner, name, make):
        original = getattr(mods[owner], name)
        for mod_name, mod in mods.items():
            if getattr(mod, name, None) is original:
                setattr(mod, name, make(mod_name, original))

    for owner, name, label in SPANS:
        def make(mod_name, original, label=label, name=name):
            lab = label[mod_name] if isinstance(label, dict) else label
            return tracer.span(lab, original, hooks.get(name))
        rebind(owner, name, make)
    rebind("properties", "saturation",
           lambda mod_name, original: tracer.counter(
               "properties.saturation.calls", original))
    ctrl = mods["mpc"].MpcController
    ctrl.solve = tracer.span("mpc.solve", ctrl.solve)
