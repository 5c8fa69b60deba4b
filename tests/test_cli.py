"""Command-line contract: exit codes and artifact writing."""

import dataclasses
import json
import re
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from steamfleet import cli, scenario
from steamfleet.boiler import ModelValidityError
from steamfleet.config import default_config, to_json
from steamfleet.scenario import Frame, RunReport, ScenarioError

BASE = default_config()


def small_config(duration=300.0, demand=((0.0, 0.5),), n=1):
    return dataclasses.replace(
        BASE, boilers=BASE.boilers[:n], pi_r=BASE.pi_r[:n],
        pi_c=BASE.pi_c[:n], demand=demand,
        timing=dataclasses.replace(BASE.timing, duration=duration))


def fake_report(violations=()):
    frame = Frame(t=0.0, demand=2.0, r=1.2, r_hat=1.2, u_bar=2.0,
                  y_bar=1.2, u_ss=2.0, alpha=(1.0,), delta=(1,),
                  qs=(2.0,), qg=(1.2,), qf=(2.0,), p=(57.0,), vw=(0.6,))
    return RunReport(frames=[frame], violations=list(violations),
                     max_w_obs=0.01, w_certified=0.03, hl_solves=1,
                     total_gas=1.0, total_steam=2.0, wall_ms=1.0)


def test_validate_config_accepts_default(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(to_json(BASE))
    assert cli.main(["validate-config", str(path)]) == 0


def test_validate_config_rejects_bad_json(tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text("{not json")
    assert cli.main(["validate-config", str(path)]) == 1
    assert "error:" in capsys.readouterr().err


def test_validate_config_rejects_empty_demand(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(to_json(dataclasses.replace(BASE, demand=())))
    assert cli.main(["validate-config", str(path)]) == 1


DEFAULT_DOC = json.loads(to_json(BASE))


def _leaf_paths(node, prefix=()):
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        return [prefix]
    return [p for key, child in items
            for p in _leaf_paths(child, prefix + (key,))]


def _write_swapped(directory, path, value, base=DEFAULT_DOC):
    """The ``base`` document with the leaf at ``path`` set to ``value``."""
    doc = json.loads(json.dumps(base))
    node = doc
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    cfg_path = Path(directory) / "cfg.json"
    cfg_path.write_text(json.dumps(doc))
    return str(cfg_path)


@pytest.mark.parametrize("path, value", [
    # shorter than one slow period: no frame would be written
    (("scenario", "timing", "duration"), 10.0),
    # not a whole number of slow periods: would be rounded silently
    (("scenario", "timing", "duration"), 3615.0),
    # the identification ramp would never reach its next level
    (("scenario", "ident", "ramp_step"), 0.0),
    (("scenario", "ident", "n_f"), 0),
    (("scenario", "boilers", 0, "V_T"), "1.2"),
    (("scenario", "boilers", 0, "V_T"), None),
    (("scenario", "timing", "nu"), 2.5),
    # a float of the wrong type, a negative level count and a negative
    # seed each pass a count-only check, then break ``identify``
    (("scenario", "pi_r", 0, "k_p"), "x"),
    (("scenario", "ident", "n_levels"), -1),
    (("scenario", "ident", "seed"), -1),
    # a deflating safety factor shrinks the certificate the tube rests on
    (("scenario", "mpc", "w_safety"), 0.5),
    # no held level: identification would fit on the ramps alone; a
    # hold under half of tau rounds to no period as well
    (("scenario", "ident", "hold_s"), 0.0),
    (("scenario", "ident", "hold_s"), 4.0),
    # a full drum fails the first RK4 stage of the run
    (("scenario", "vw_frac"), 1.0),
    # dispatch divides the fuel cost by the demand weight: a zero weight
    # runs to gas outside its box, zero costs to a NaN pattern QP
    (("scenario", "share", "lambda_bar"), 0.0),
    (("scenario", "boilers", 0, "lambda_cost"), 0.0),
    # a negative tie window admits no pattern, so the initial dispatch
    # fails; a negative curvature floor makes the dispatch Hessian
    # indefinite; negative tracking weights surface as a rate-cap error
    (("scenario", "share", "tie_tol"), -1e-9),
    (("scenario", "share", "reg"), -1.0),
    (("scenario", "mpc", "q_y"), -1.0),
    (("scenario", "mpc", "r_du"), -0.1),
])
def test_validate_config_rejects_what_the_run_cannot_handle(
        tmp_path, capsys, path, value):
    cfg_path = _write_swapped(tmp_path, path, value)
    assert cli.main(["validate-config", cfg_path]) == 1
    assert capsys.readouterr().err.startswith("error: ")


@settings(derandomize=True, max_examples=300, deadline=None)
@given(st.sampled_from(_leaf_paths(DEFAULT_DOC)),
       st.sampled_from([None, "x", [], -1, 0, 2.5]))
def test_validate_config_never_raises_on_a_swapped_leaf(path, value):
    with tempfile.TemporaryDirectory() as tmp:
        cfg_path = _write_swapped(tmp, path, value)
        assert cli.main(["validate-config", cfg_path]) in (0, 1)


SHORT_DOC = json.loads(to_json(small_config()))


@settings(derandomize=True, max_examples=200, deadline=None)
@given(st.sampled_from(["run", "identify"]),
       st.sampled_from(_leaf_paths(SHORT_DOC)),
       st.sampled_from([None, "x", [], -1, 0, 2.5]))
def test_run_and_identify_never_raise_on_a_swapped_leaf(command, path, value):
    with tempfile.TemporaryDirectory() as tmp:
        cfg_path = _write_swapped(tmp, path, value, SHORT_DOC)
        out = str(Path(tmp) / "out")
        assert cli.main([command, "--config", cfg_path,
                         "--out", out]) in (0, 1, 2)


def test_missing_file_is_an_error(tmp_path):
    assert cli.main(["validate-config", str(tmp_path / "absent.json")]) == 1


@pytest.mark.parametrize("content", [
    b'{"version": 1, "scenario": "\xff"}', b"[" * 100_000 + b"]" * 100_000,
    b'{"version": 1, "scenario": ' + b"1" * 5_000 + b"}",
], ids=["not_utf8", "nested_too_deeply", "integer_too_long"])
@pytest.mark.parametrize("command", ["validate-config", "identify"])
def test_unreadable_config_is_an_error(tmp_path, capsys, content, command):
    path = tmp_path / "cfg.json"
    path.write_bytes(content)
    argv = ([command, str(path)] if command == "validate-config" else
            [command, "--config", str(path), "--out", str(tmp_path / "m")])
    assert cli.main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert "Traceback" not in err


def test_usage_error_exits_one():
    assert cli.main(["no-such-command"]) == 1
    assert cli.main(["run"]) == 1    # neither --config nor --default-scenario


def test_help_exits_zero():
    assert cli.main(["--help"]) == 0


def test_run_writes_artifacts_and_reports_clean(tmp_path, monkeypatch):
    monkeypatch.setattr(cli, "run_scenario", lambda cfg: fake_report())
    out = tmp_path / "out"
    assert cli.main(["run", "--default-scenario", "--out", str(out)]) == 0
    for name in ("timeseries.csv", "summary.json", "ensemble.svg",
                 "shares.svg", "boilers.svg"):
        assert (out / name).exists()


def test_run_exit_two_on_violations(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(
        cli, "run_scenario",
        lambda cfg: fake_report(violations=["t=0s boiler 1 gas outside box"]))
    rc = cli.main(["run", "--default-scenario", "--out", str(tmp_path / "o")])
    assert rc == 2
    assert "violation:" in capsys.readouterr().err


def test_run_exit_one_on_layer_failure(tmp_path, monkeypatch, capsys):
    def boom(cfg):
        raise ScenarioError(120.0, "dispatch failed: no feasible pattern")
    monkeypatch.setattr(cli, "run_scenario", boom)
    rc = cli.main(["run", "--default-scenario", "--out", str(tmp_path / "o")])
    assert rc == 1
    assert "t=120s" in capsys.readouterr().err


def test_run_from_config_file_end_to_end(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(to_json(small_config()))
    out = tmp_path / "out"
    assert cli.main(["run", "--config", str(path), "--out", str(out)]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["violations"] == 0
    header = (out / "timeseries.csv").read_text().splitlines()[0]
    assert header.endswith("alpha_1,delta_1,qs_1,qg_1,qf_1,p_1_bar,Vw_1_m3")


def test_demand_above_fleet_capacity_runs_every_boiler_at_its_cap(tmp_path):
    # 50 kg/s against a fleet that makes at most sum q_s_max = 5.999:
    # dispatch lights all five boilers at their caps and the run stays
    # clean
    cfg = dataclasses.replace(
        BASE, demand=((0.0, 50.0),),
        timing=dataclasses.replace(BASE.timing, duration=600.0))
    path = tmp_path / "cfg.json"
    path.write_text(to_json(cfg))
    out = tmp_path / "out"
    assert cli.main(["run", "--config", str(path), "--out", str(out)]) == 0
    assert json.loads((out / "summary.json").read_text())["violations"] == 0
    header, *rows = (out / "timeseries.csv").read_text().splitlines()
    cols = header.split(",")
    capacity = sum(b.q_s_max for b in BASE.boilers)
    assert capacity == pytest.approx(5.999, abs=1e-12)
    for row in rows:
        cells = dict(zip(cols, row.split(",")))
        assert [cells[f"delta_{i}"] for i in range(1, 6)] == ["1"] * 5
        assert float(cells["u_ss_kgps"]) == pytest.approx(capacity, abs=1e-9)


def test_identify_writes_models(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(to_json(small_config()))
    out = tmp_path / "fits" / "models.json"
    assert cli.main(["identify", "--config", str(path),
                     "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert len(doc) == 1
    assert doc[0]["fit_percent"] >= 95.0
    assert len(doc[0]["f"]) == 3 and len(doc[0]["b"]) == 2


def zero_gain_config():
    # without pressure feedback the gas stays at its starting level and
    # the drum pressure runs out of the property fits
    pi_r = tuple(dataclasses.replace(c, k_p=0.0, k_i=0.0) for c in BASE.pi_r)
    return dataclasses.replace(BASE, pi_r=pi_r)


@pytest.mark.parametrize("command", ["identify", "run"])
def test_plant_failure_exits_one_naming_the_boiler(tmp_path, capsys, command):
    path = tmp_path / "cfg.json"
    path.write_text(to_json(zero_gain_config()))
    rc = cli.main([command, "--config", str(path),
                   "--out", str(tmp_path / "o")])
    err = capsys.readouterr().err
    assert rc == 1
    assert err.startswith("error: boiler 1: ")


def test_negative_gain_exits_one_naming_the_boiler(tmp_path, monkeypatch,
                                                  capsys):
    # the steam intervals divide the gas box by the gain, so a fit whose
    # gas falls as steam rises must stop identification
    real = scenario.fit_arx

    def inverted(*args, **kwargs):
        model = real(*args, **kwargs)
        return dataclasses.replace(model, b=tuple(-b for b in model.b))

    monkeypatch.setattr(scenario, "fit_arx", inverted)
    monkeypatch.setattr(scenario, "validate_model", lambda *args: (99.0, 0.5))
    path = tmp_path / "cfg.json"
    path.write_text(to_json(small_config()))
    rc = cli.main(["identify", "--config", str(path),
                   "--out", str(tmp_path / "models.json")])
    err = capsys.readouterr().err
    assert rc == 1
    assert re.fullmatch(r"error: boiler 1: static gain -\S+ is not positive\n",
                        err)


def test_station_failure_mid_run_exits_one(tmp_path, monkeypatch, capsys):
    real = scenario.apply_period
    calls = []

    def failing(params, *args):
        calls.append(params)
        if len(calls) > 20:
            raise ModelValidityError("V_w left the drum")
        return real(params, *args)

    monkeypatch.setattr(scenario, "apply_period", failing)
    path = tmp_path / "cfg.json"
    path.write_text(to_json(small_config()))
    rc = cli.main(["run", "--config", str(path),
                   "--out", str(tmp_path / "o")])
    err = capsys.readouterr().err
    assert rc == 1
    # one boiler, so call 21 is fast period 20 at tau = 10 s: this run
    # never reaches a fixed point, so the loop holds no period
    assert err == "error: t=200s: boiler 1: V_w left the drum\n"


def test_broken_mismatch_certificate_exits_two(tmp_path, monkeypatch, capsys):
    # a certificate shrunk far below the observed one-step mismatch must
    # be caught by the run, not only by a test on the report
    real = scenario.estimate_disturbance_bound

    def shrunk(*args, **kwargs):
        bound = real(*args, **kwargs)
        return dataclasses.replace(bound, w_inf=bound.w_inf * 1e-6)

    monkeypatch.setattr(scenario, "estimate_disturbance_bound", shrunk)
    path = tmp_path / "cfg.json"
    path.write_text(to_json(small_config(demand=((0.0, 1.0),), n=2)))
    rc = cli.main(["run", "--config", str(path),
                   "--out", str(tmp_path / "o")])
    err = capsys.readouterr().err
    assert rc == 2
    found = re.findall(r"violation: t=(\d+)s observed mismatch (\S+) "
                       r"exceeds certified bound (\S+)", err)
    assert found
    for _, w_obs, w_cert in found:
        assert float(w_obs) > float(w_cert) > 0.0


def test_gas_breach_between_slow_boundaries_exits_two(tmp_path, monkeypatch,
                                                      capsys):
    # a gas sample outside boiler 1's box in fast period j = 1 of the
    # first slow period (t = 10 s) must be audited like one at j = 0;
    # the run holds no period, so call 2 is that period's
    real = scenario.gas_update
    calls = []

    def breach(params, *args):
        state = real(params, *args)
        calls.append(params)
        if len(calls) == 2:
            state = state._replace(loop_r=state.loop_r._replace(
                output=params.q_g_min - 0.01))
        return state

    monkeypatch.setattr(scenario, "gas_update", breach)
    path = tmp_path / "cfg.json"
    path.write_text(to_json(small_config()))
    rc = cli.main(["run", "--config", str(path),
                   "--out", str(tmp_path / "o")])
    err = capsys.readouterr().err
    assert rc == 2
    assert re.search(r"violation: t=10s boiler 1 gas \S+ outside box", err)
    assert re.findall(r"violation: t=(\d+)s", err) == ["10"] * err.count("\n")


def test_oversized_tube_exits_one_at_the_first_build(tmp_path, capsys):
    # a certificate inflated threefold widens the tube past the rate cap's
    # allowed fraction: the first controller build must fail cleanly
    cfg = dataclasses.replace(
        BASE, timing=dataclasses.replace(BASE.timing, duration=600.0),
        mpc=dataclasses.replace(BASE.mpc, w_safety=3.0))
    path = tmp_path / "cfg.json"
    path.write_text(to_json(cfg))
    rc = cli.main(["run", "--config", str(path),
                   "--out", str(tmp_path / "o")])
    err = capsys.readouterr().err
    assert rc == 1
    assert re.fullmatch(r"error: t=0s: controller rebuild failed: rate cap: "
                        r"margin \S+ exceeds 50% of 0\.5\n", err)
