"""Command-line front end.

Exit codes: 0 for a clean run, 2 when the constraint audit recorded
violations, 1 for any error (bad config, identification failure, a
layer aborting mid-run, unwritable output path).
"""

import argparse
import json
import sys
from pathlib import Path

from .boiler import ModelValidityError
from .config import ConfigError, default_config, from_json
from .outputs import emit_outputs
from .scenario import ScenarioError, run_identification, run_scenario
from .sysid import IdentifiabilityError, ModelQualityError


def _read_config(path):
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path} is not UTF-8 text: {exc}") from exc
    return from_json(text)


def _cmd_identify(args):
    cfg = _read_config(args.config)
    idents = run_identification(cfg)
    out = Path(args.out)
    if out.parent != Path("."):
        out.parent.mkdir(parents=True, exist_ok=True)
    doc = [{"f": list(s.model.f), "b": list(s.model.b),
            "n_k": s.model.n_k, "c": s.model.c, "tau": s.model.tau,
            "gain": s.model.gain, "fit_percent": s.fit,
            "spectral_radius": s.spectral_radius}
           for s in idents]
    out.write_text(json.dumps(doc, indent=2) + "\n")
    for i, s in enumerate(idents):
        print(f"boiler {i + 1}: fit {s.fit:.2f}%  gain {s.model.gain:.6f}  "
              f"rho {s.spectral_radius:.4f}")
    print(f"wrote {out}")
    return 0


def _cmd_run(args):
    cfg = default_config() if args.default_scenario else _read_config(args.config)
    report = run_scenario(cfg)
    paths = emit_outputs(report, args.out, cfg)
    print(f"simulated {report.frames[-1].t + cfg.timing.tau:.0f} s in "
          f"{report.wall_ms / 1e3:.1f} s wall: "
          f"{len(report.violations)} violations, "
          f"mismatch {report.max_w_obs:.4f} observed / "
          f"{report.w_certified:.4f} certified, "
          f"{report.hl_solves} dispatch solves")
    for line in report.violations:
        print(f"violation: {line}", file=sys.stderr)
    print("wrote " + ", ".join(str(p) for p in paths.values()))
    return 2 if report.violations else 0


def _cmd_validate(args):
    _read_config(args.path)
    print("ok")
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="steamfleet",
        description="Hierarchical load sharing and tracking control "
                    "for a fleet of steam generators.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_id = sub.add_parser("identify",
                          help="run the excitation experiments and fit "
                               "one model per boiler")
    p_id.add_argument("--config", required=True)
    p_id.add_argument("--out", required=True)
    p_id.set_defaults(func=_cmd_identify)

    p_run = sub.add_parser("run", help="simulate the closed loop and "
                                       "write the artifact set")
    src = p_run.add_mutually_exclusive_group(required=True)
    src.add_argument("--config")
    src.add_argument("--default-scenario", action="store_true")
    p_run.add_argument("--out", default="out")
    p_run.set_defaults(func=_cmd_run)

    p_val = sub.add_parser("validate-config",
                           help="parse and validate a scenario file")
    p_val.add_argument("path")
    p_val.set_defaults(func=_cmd_validate)
    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage problems; 2 is reserved for
        # constraint violations here
        return 0 if exc.code == 0 else 1
    try:
        return args.func(args)
    except (ConfigError, ScenarioError, IdentifiabilityError,
            ModelQualityError, ModelValidityError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
