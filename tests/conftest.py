"""Fixtures shared by the test modules.

The full default scenario runs twice per session: once for every test
that reads its report, and once more, fresh, for the tests that check
a rerun reproduces it.
"""

import importlib.util
import struct
from pathlib import Path

import pytest

from steamfleet import boiler, qp, scenario
from steamfleet.config import default_config
from steamfleet.scenario import run_scenario


@pytest.fixture(scope="session")
def default_run():
    return run_scenario(default_config())


@pytest.fixture(scope="session")
def default_rerun():
    return run_scenario(default_config())


@pytest.fixture(scope="session")
def workload_config():
    """``workload_config(name, seed=2214)``: the benchmark's workload
    ``name`` (``perfbench/workloads.py``)."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("workloads", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return lambda name, seed=2214: module.WORKLOADS[name](seed)


@pytest.fixture
def count_qp_starts(monkeypatch):
    """Counter of the QP solves a module makes, their iterations and
    their cold starts: ``count_qp_starts(module)`` returns a dict whose
    "solves", "cold" and "iters" grow as ``module.solve_qp`` runs.  Only
    a cold start computes the phase-1 point, so a call of it inside one
    of those solves marks a solve whose guess went unused (or that had
    none)."""
    def start(module):
        calls = {"solves": 0, "cold": 0, "iters": 0}
        inside = []
        initial_point, solve_qp = qp._initial_point, module.solve_qp

        def counted_start(*args):
            calls["cold"] += bool(inside)
            return initial_point(*args)

        def counted_solve(*args, **kwargs):
            inside.append(True)
            try:
                res = solve_qp(*args, **kwargs)
            finally:
                inside.pop()
            calls["solves"] += 1
            calls["iters"] += res.iterations
            return res

        monkeypatch.setattr(qp, "_initial_point", counted_start)
        monkeypatch.setattr(module, "solve_qp", counted_solve)
        return calls

    return start


@pytest.fixture
def count_saturation(monkeypatch):
    """Counter of the plant's property evaluations: the dict's "calls"
    grows each time ``boiler.saturation`` runs, once per evaluated RK4
    stage: four times per step that ``simulate`` takes, or once for a
    call it holds at zero rates."""
    calls = {"calls": 0}
    original = boiler.saturation

    def counted(p):
        calls["calls"] += 1
        return original(p)

    monkeypatch.setattr(boiler, "saturation", counted)
    return calls


def _bits(*values):
    return struct.pack(f"{len(values)}d", *values)


@pytest.fixture(scope="session")
def unheld_run():
    """``unheld_run(cfg, idents)``: ``run_scenario`` with the run loop's
    station hold defeated, so every station calls ``gas_update`` and
    ``apply_period`` in every fast period.  Returns ``(report, no_gas,
    no_period)``: the station-periods ``(k, i)`` that start in the state,
    bit for bit, that station ``i`` started period ``k - 1`` in (where
    the hold skips ``gas_update``), and those of them whose steam
    command also equals period ``k - 1``'s bit for bit (where it skips
    ``apply_period`` too)."""
    def run(cfg, idents):
        starts = []
        gas_update = scenario.gas_update

        def recorded(params, cfg_r, state, tau):
            b, r, c = state
            starts.append(_bits(b.p, b.V_w, *r, *c))
            return gas_update(params, cfg_r, state, tau)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(scenario, "gas_update", recorded)
            mp.setattr(scenario, "_unchanged", lambda before, after: False)
            report = run_scenario(cfg, idents=idents)
        n = len(cfg.boilers)
        assert len(starts) == n * len(report.frames)
        no_gas, no_period = [], []
        for k in range(1, len(report.frames)):
            before, now = report.frames[k - 1], report.frames[k]
            for i in range(n):
                if starts[k * n + i] == starts[(k - 1) * n + i]:
                    no_gas.append((k, i))
                    if _bits(now.qs[i]) == _bits(before.qs[i]):
                        no_period.append((k, i))
        return report, no_gas, no_period

    return run
