"""Artifacts for a finished run: flat CSV trace, JSON summary, SVG plots.

Numeric CSV fields are printed with 17 significant digits (one
``%``-format per row, ``%.17g`` per float and ``%d`` for the on/off
flag) so a parsed file reproduces the in-memory floats exactly;
identical reports yield byte-identical files.  The SVG plots omit the
vertices inside exact flat runs (see :mod:`steamfleet.svgfig`); the
drawing is unchanged.
"""

import json
from itertools import chain
from pathlib import Path

from .svgfig import Band, Guide, PALETTE, Panel, Series, render

_ENSEMBLE_COLUMNS = ("t_s", "demand_kgps", "r_kgps", "r_hat_kgps",
                     "u_bar_kgps", "y_bar_kgps", "u_ss_kgps")
_STATION_COLUMNS = ("alpha_{i}", "delta_{i}", "qs_{i}", "qg_{i}",
                    "qf_{i}", "p_{i}_bar", "Vw_{i}_m3")


def csv_header(n_boilers):
    cols = list(_ENSEMBLE_COLUMNS)
    for i in range(1, n_boilers + 1):
        cols.extend(c.format(i=i) for c in _STATION_COLUMNS)
    return ",".join(cols)


def timeseries_lines(report):
    yield csv_header(report.n_boilers)
    row = ",".join(["%.17g"] * len(_ENSEMBLE_COLUMNS)
                   + ["%.17g,%d" + ",%.17g" * 5] * report.n_boilers)
    for f in report.frames:
        yield row % ((f.t, f.demand, f.r, f.r_hat, f.u_bar, f.y_bar, f.u_ss)
                     + tuple(chain.from_iterable(zip(
                         f.alpha, f.delta, f.qs, f.qg, f.qf, f.p, f.vw))))


def write_timeseries(report, path):
    Path(path).write_text("\n".join(timeseries_lines(report)) + "\n")


def summary_dict(report):
    return {
        "violations": len(report.violations),
        "max_w_inf": report.max_w_obs,
        "total_gas_kg": report.total_gas,
        "total_steam_kg": report.total_steam,
        "hl_solve_count": report.hl_solves,
        "wall_ms": report.wall_ms,
    }


def write_summary(report, path):
    Path(path).write_text(json.dumps(summary_dict(report), indent=2) + "\n")


def _column(frames, attr):
    return tuple(getattr(f, attr) for f in frames)


def ensemble_figure(report):
    fr = report.frames
    ts = _column(fr, "t")
    gas = Panel(title="ensemble gas production", ylabel="gas, kg/s")
    gas.series = [
        Series(ts, _column(fr, "y_bar"), "measured", PALETTE[0]),
        Series(ts, _column(fr, "r"), "dispatch target", "#777777",
               dash="6,4", step=True),
        Series(ts, _column(fr, "r_hat"), "tracked target", PALETTE[1],
               dash="2,3"),
    ]
    steam = Panel(title="ensemble steam command", ylabel="steam, kg/s")
    steam.series = [
        Series(ts, _column(fr, "demand"), "demand", "#222222",
               dash="6,4", step=True),
        Series(ts, _column(fr, "u_ss"), "dispatch total", PALETTE[2],
               step=True),
        Series(ts, _column(fr, "u_bar"), "applied total", PALETTE[0]),
    ]
    return render([gas, steam])


def shares_figure(report):
    fr = report.frames
    ts = _column(fr, "t")
    panel = Panel(title="load shares of the active stations",
                  ylabel="share", y_range=(0.0, 1.08))
    cum = [0.0] * len(fr)
    for i in range(report.n_boilers):
        top = [c + f.alpha[i] for c, f in zip(cum, fr)]
        panel.bands.append(Band(ts, tuple(cum), tuple(top),
                                label=f"boiler {i + 1}",
                                color=PALETTE[i % len(PALETTE)]))
        cum = top
    return render([panel])


def boilers_figure(report, cfg=None):
    fr = report.frames
    ts = _column(fr, "t")
    panels = []
    for i in range(max(report.n_boilers, 1)):
        panel = Panel(title=f"boiler {i + 1} gas flow", ylabel="kg/s")
        if i < report.n_boilers:
            panel.series = [Series(ts, tuple(f.qg[i] for f in fr), "",
                                   PALETTE[i % len(PALETTE)])]
        if cfg is not None and i < len(cfg.boilers):
            panel.guides = [Guide(cfg.boilers[i].q_g_min, "#b22222"),
                            Guide(cfg.boilers[i].q_g_max, "#b22222")]
        panels.append(panel)
    return render(panels, panel_height=170)


def emit_outputs(report, out_dir, cfg=None):
    """Write the full artifact set; returns the created paths."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    paths = {
        "timeseries": out / "timeseries.csv",
        "summary": out / "summary.json",
        "ensemble": out / "ensemble.svg",
        "shares": out / "shares.svg",
        "boilers": out / "boilers.svg",
    }
    write_timeseries(report, paths["timeseries"])
    write_summary(report, paths["summary"])
    paths["ensemble"].write_text(ensemble_figure(report))
    paths["shares"].write_text(shares_figure(report))
    paths["boilers"].write_text(boilers_figure(report, cfg))
    return paths
