"""Artifact writer: schema, 17-digit round-trip, determinism, and the
SVG thinning contract."""

import csv
import hashlib
import json
import math
import re

import numpy as np
import pytest

from steamfleet import svgfig
from steamfleet.config import default_config
from steamfleet.outputs import (csv_header, emit_outputs, summary_dict,
                                timeseries_lines)
from steamfleet.scenario import Frame, RunReport
from steamfleet.svgfig import Band, Panel, Series, render

SUMMARY_KEYS = ["violations", "max_w_inf", "total_gas_kg",
                "total_steam_kg", "hl_solve_count", "wall_ms"]


def tiny_report(n_frames=4, n_boilers=2, seed=3):
    rng = np.random.default_rng(seed)
    frames = []
    for k in range(n_frames):
        def row():
            return tuple(float(v) for v in rng.uniform(0.05, 1.2, n_boilers))
        frames.append(Frame(
            t=10.0 * k, demand=float(rng.uniform(1, 3)),
            r=float(rng.uniform(1, 3)), r_hat=float(rng.uniform(1, 3)),
            u_bar=float(rng.uniform(1, 3)), y_bar=float(rng.uniform(1, 3)),
            u_ss=float(rng.uniform(1, 3)),
            alpha=row(), delta=tuple([1] * n_boilers),
            qs=row(), qg=row(), qf=row(),
            p=tuple(float(v) for v in rng.uniform(56, 58, n_boilers)),
            vw=row()))
    return RunReport(frames=frames, violations=[], max_w_obs=1 / 3,
                     w_certified=0.0357, hl_solves=2, total_gas=np.pi,
                     total_steam=np.e, wall_ms=5.25)


def test_header_matches_contract():
    assert csv_header(2) == (
        "t_s,demand_kgps,r_kgps,r_hat_kgps,u_bar_kgps,y_bar_kgps,u_ss_kgps,"
        "alpha_1,delta_1,qs_1,qg_1,qf_1,p_1_bar,Vw_1_m3,"
        "alpha_2,delta_2,qs_2,qg_2,qf_2,p_2_bar,Vw_2_m3")


def test_empty_report_gives_header_only_csv_and_zeroed_summary(tmp_path):
    paths = emit_outputs(RunReport(), tmp_path)
    assert paths["timeseries"].read_text() == csv_header(0) + "\n"
    summary = json.loads(paths["summary"].read_text())
    assert list(summary) == SUMMARY_KEYS
    assert all(summary[k] == 0 for k in SUMMARY_KEYS)
    for name in ("ensemble", "shares", "boilers"):
        text = paths[name].read_text()
        assert text.startswith("<svg")
        assert "<polyline" not in text and "<polygon" not in text
        assert "<rect" in text    # the empty axes frame is still drawn


def test_csv_round_trips_every_numeric_field(tmp_path):
    report = tiny_report()
    paths = emit_outputs(report, tmp_path)
    with open(paths["timeseries"], newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == csv_header(2).split(",")
    assert len(rows) == 1 + len(report.frames)
    for cells, f in zip(rows[1:], report.frames):
        back = [float(c) for c in cells]
        expected = [f.t, f.demand, f.r, f.r_hat, f.u_bar, f.y_bar, f.u_ss]
        for i in range(2):
            expected += [f.alpha[i], f.delta[i], f.qs[i], f.qg[i],
                         f.qf[i], f.p[i], f.vw[i]]
        assert back == expected    # exact, not approximate


def test_identical_reports_write_identical_bytes(tmp_path):
    report = tiny_report()
    a = emit_outputs(report, tmp_path / "a")
    b = emit_outputs(report, tmp_path / "b")
    for name in a:
        assert a[name].read_bytes() == b[name].read_bytes()


def test_summary_reflects_report():
    report = tiny_report()
    report.violations = ["x", "y"]
    doc = summary_dict(report)
    assert doc["violations"] == 2
    assert doc["max_w_inf"] == report.max_w_obs
    assert doc["hl_solve_count"] == 2
    assert doc["total_gas_kg"] == report.total_gas


def test_plots_contain_the_drawn_data(tmp_path):
    paths = emit_outputs(tiny_report(), tmp_path)
    assert paths["ensemble"].read_text().count("<polyline") == 6
    assert paths["shares"].read_text().count("<polygon") == 2
    assert paths["boilers"].read_text().count("<polyline") == 2


# sha256 of tiny_report()'s artifacts with every CSV cell formatted on
# its own (format(float(v), ".17g"), str(int(d))) and every SVG vertex
# drawn; the rest of the writer must reproduce them byte for byte
PINNED_SHA256 = {
    "timeseries":
        "c6753ebafa2878c9086199ff1fef92c019666307e9a2432791951433fa3404d3",
    "ensemble":
        "5af1c0013fb52097e259f3cdd1f9739ab125e4155770f7ce5231b7c23d02c14f",
    "shares":
        "a53a29737cab57508fa4885427463b0d8ec2a81923067289ee2cb08a84a4ddb5",
    "boilers":
        "60a72efe4c44af0fe110e8349dd0d8420cb6edb42d6fdf464d9b910d2e9dc6b3",
}


def _sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _unthinned(xs, ys, step=False):
    """Every vertex of a curve, none omitted: the reference the thinned
    vertices are checked against."""
    if not step:
        return list(zip(xs, ys))
    pts = [(xs[0], ys[0])]
    for k in range(1, len(xs)):
        pts += [(xs[k], ys[k - 1]), (xs[k], ys[k])]
    return pts


def _points(svg):
    """Each polyline's or polygon's vertices as (x, y-string) pairs,
    and the document with the point lists cut out."""
    shapes = [[(float(v.split(",")[0]), v.split(",")[1]) for v in pts.split()]
              for pts in re.findall(r'points="([^"]*)"', svg)]
    return shapes, re.sub(r'points="[^"]*"', "", svg)


def _thinned_from(kept, full):
    """Whether ``kept`` is ``full`` with vertices omitted only where each
    omitted one has both kept neighbours' y and an x between theirs.

    Equal vertices make the embedding ambiguous, so every position each
    kept vertex can take is followed."""
    def on_segment(a, b, v):
        return a[1] == b[1] == v[1] and min(a[0], b[0]) <= v[0] <= max(a[0],
                                                                       b[0])

    if kept[0] != full[0] or kept[-1] != full[-1]:
        return False
    reach = {0}
    for a, b in zip(kept, kept[1:]):
        nxt = set()
        for i in reach:
            for k in range(i + 1, len(full)):
                if full[k] == b:
                    nxt.add(k)
                if not on_segment(a, b, full[k]):
                    break
        reach = nxt
    return len(full) - 1 in reach


def _contract_panel(seed):
    """Line, step and band data with flat runs, equal-x duplicates and a
    reversal in x."""
    rng = np.random.default_rng(seed)
    n = 120
    xs = np.cumsum(rng.uniform(0.5, 2.0, n))
    xs[40:44] = xs[40]                       # equal-x duplicates
    xs[70:80] = xs[70:80][::-1]              # a reversal in x
    levels = rng.choice([0.0, 0.25, 0.5, 1.0], n)
    flat = np.repeat(levels[::8], 8)[:n]     # runs of eight equal values
    noisy = flat + np.where(rng.random(n) < 0.3, rng.normal(0, 0.1, n), 0.0)
    xs, flat, noisy = (tuple(float(v) for v in a) for a in (xs, flat, noisy))
    top = tuple(f + abs(v) for f, v in zip(flat, noisy))
    return Panel(series=[Series(xs, noisy), Series(xs, flat, step=True),
                         Series(xs, noisy, step=True, dash="4,2")],
                 bands=[Band(xs, flat, top), Band(xs, (0.0,) * n, flat)])


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_thinning_omits_only_vertices_inside_exact_flat_runs(seed,
                                                             monkeypatch):
    panel = _contract_panel(seed)
    # in the data, before any rounding: both band edges are thinned
    for b in panel.bands:
        for ys in (b.lo, b.hi):
            kept = svgfig._vertices(b.xs, ys, True)
            every = _unthinned(b.xs, ys, True)
            assert len(kept) < len(every)
            assert _thinned_from(kept, every)
    # in the drawing: the same document with fewer vertices
    thinned, rest = _points(render([panel]))
    monkeypatch.setattr(svgfig, "_vertices", _unthinned)
    full, rest_full = _points(render([panel]))
    assert rest == rest_full
    assert len(thinned) == len(full) == 5
    assert sum(map(len, thinned)) < 0.8 * sum(map(len, full))
    for kept, every in zip(thinned, full):
        assert _thinned_from(kept, every)


def test_tiny_report_svgs_are_the_parent_bytes(tmp_path, monkeypatch):
    # no series of tiny_report has equal neighbours, but the bottom share
    # band's lower edge is the flat line at 0: only shares.svg is thinned
    thinned = emit_outputs(tiny_report(), tmp_path / "thinned")
    for name in ("ensemble", "boilers"):
        assert _sha256(thinned[name]) == PINNED_SHA256[name]
    assert _sha256(thinned["shares"]) != PINNED_SHA256["shares"]
    monkeypatch.setattr(svgfig, "_vertices", _unthinned)
    full = emit_outputs(tiny_report(), tmp_path / "full")
    for name in ("ensemble", "shares", "boilers"):
        assert _sha256(full[name]) == PINNED_SHA256[name]


def test_csv_bytes_are_pinned_and_match_per_cell_formatting(tmp_path):
    paths = emit_outputs(tiny_report(), tmp_path)
    assert _sha256(paths["timeseries"]) == PINNED_SHA256["timeseries"]
    edge = (-0.0, 5e-324, 1e300, 0.1 + 0.2, math.inf, np.float64(-1 / 3),
            -math.inf)
    frame = Frame(t=edge[0], demand=edge[1], r=edge[2], r_hat=edge[3],
                  u_bar=edge[4], y_bar=edge[5], u_ss=edge[6],
                  alpha=(edge[3], edge[1]), delta=(np.bool_(True), False),
                  qs=(edge[0], edge[5]), qg=(edge[2], edge[4]),
                  qf=(np.float64(0.1), 7.0), p=(57.0, edge[6]),
                  vw=(edge[1], np.float64(1e-300)))
    report = RunReport(frames=[frame, frame._replace(
        delta=(True, np.bool_(False)))])
    for f, line in zip(report.frames, list(timeseries_lines(report))[1:]):
        expected = [format(float(v), ".17g") for v in (
            f.t, f.demand, f.r, f.r_hat, f.u_bar, f.y_bar, f.u_ss)]
        for i in range(2):
            expected += [format(float(f.alpha[i]), ".17g"),
                         str(int(f.delta[i]))]
            expected += [format(float(v[i]), ".17g")
                         for v in (f.qs, f.qg, f.qf, f.p, f.vw)]
        assert line.split(",") == expected


def test_default_run_svg_vertex_counts(default_run, tmp_path):
    # the seed-2214 default run drawn with flat runs thinned; every frame
    # drawn again would give 3 237 / 7 190 / 1 800 vertices
    paths = emit_outputs(default_run, tmp_path, default_config())
    counts = {name: sum(map(len, _points(paths[name].read_text())[0]))
              for name in ("ensemble", "shares", "boilers")}
    assert counts == {"ensemble": 916, "shares": 222, "boilers": 1018}
