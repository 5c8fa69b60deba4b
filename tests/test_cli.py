"""Command-line contract: exit codes and artifact writing."""

import dataclasses
import json
import re

import pytest

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


def test_missing_file_is_an_error(tmp_path):
    assert cli.main(["validate-config", str(tmp_path / "absent.json")]) == 1


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
    # one boiler, so call 21 is fast period 20 at tau = 10 s
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
