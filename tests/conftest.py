"""Fixtures shared by the test modules.

The full default scenario runs twice per session: once for every test
that reads its report, and once more, fresh, for the tests that check
a rerun reproduces it.
"""

import importlib.util
from pathlib import Path

import pytest

from steamfleet import boiler, qp
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
