"""Command-line entry point: `fwlab <subcommand> [--config path] [overrides]`.

Subcommands map onto the experiment kinds of the harness; flag overrides are
applied on top of the (optional) YAML config.  Exit code is 0 iff every
verdict of the run passes.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import yaml

from .harness import (
    RunConfig,
    load_config,
    output_dir_for,
    parse_config,
    run_experiment,
)

_KIND_BY_COMMAND = {
    "norm": "norm",
    "transport": "transport",
    "simulate": "simulate",
    "iterate": "iterate",
    "lifespan": "lifespan-sweep",
    "stability": "stability",
    "continuity": "continuity",
}


def _add_common_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", type=str, default=None, help="YAML config file")
    p.add_argument("--N", type=int, default=None, help="grid points")
    p.add_argument("--L", type=float, default=None, help="torus scale (domain 2*pi*L)")
    p.add_argument("--dt", type=float, default=None, help="time step")
    p.add_argument("--T", type=float, default=None, help="final time")
    p.add_argument("--t-cap", type=float, default=None, help="lifespan search cap")
    p.add_argument("--s", type=float, default=None, help="Besov regularity index")
    p.add_argument("--p", type=str, default=None, help="Besov integrability (or 'inf')")
    p.add_argument("--r", type=str, default=None, help="Besov summability (or 'inf')")
    p.add_argument("--C", type=float, default=None, help="lifespan constant")
    p.add_argument("--n-max", type=int, default=None, help="iteration count")
    p.add_argument("--seed", type=int, default=None, help="random seed")
    p.add_argument("--out", type=str, default=None, help="output directory")
    p.add_argument("--preset", type=str, default=None,
                   help="data preset: sine | gauss | zero")
    p.add_argument("--amplitude", type=float, default=None, help="data amplitude")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fwlab",
        description="Pseudo-spectral experiments for the two-component "
        "Fornberg-Whitham system in Besov spaces.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("norm", help="Besov norm of a field (CSV or preset)")
    _add_common_flags(p)
    p.add_argument("--field", type=str, default=None,
                   help="CSV file with columns x,value")

    p = sub.add_parser("transport", help="linear transport run and estimate check")
    _add_common_flags(p)
    p.add_argument("--velocity", type=str, default=None,
                   help="preset name or CSV path")
    p.add_argument("--forcing", type=str, default=None,
                   help="preset name or CSV path")
    p.add_argument("--fit-constant", action="store_true",
                   help="calibrate the estimate constant on a random family")

    p = sub.add_parser("simulate", help="direct nonlinear solve with diagnostics")
    _add_common_flags(p)

    p = sub.add_parser("iterate", help="run the mollified iteration scheme")
    _add_common_flags(p)

    p = sub.add_parser("lifespan", help="amplitude sweep of the empirical lifespan")
    _add_common_flags(p)
    p.add_argument("--amplitudes", type=float, nargs="+", default=None)

    p = sub.add_parser("stability", help="perturbation growth experiment")
    _add_common_flags(p)
    p.add_argument("--deltas", type=float, nargs="+", default=None)

    p = sub.add_parser("continuity", help="mollified-family continuity experiment")
    _add_common_flags(p)
    p.add_argument("--j-max", type=int, default=None)

    p = sub.add_parser("verify", help="fast built-in verification suite")
    _add_common_flags(p)

    return parser


#: (argparse dest, config section or None for top level, config key) of
#: every flag that overrides the config; unset flags are None or False
_OVERRIDES = (
    ("N", "grid", "N"),
    ("L", "grid", "L"),
    ("dt", "time", "dt"),
    ("T", "time", "T"),
    ("t_cap", "time", "t_cap"),
    ("s", "besov", "s"),
    ("p", "besov", "p"),
    ("r", "besov", "r"),
    ("C", "scheme", "C"),
    ("n_max", "scheme", "n_max"),
    ("seed", None, "seed"),
    ("out", None, "output_dir"),
    ("preset", "experiment", "preset"),
    ("amplitude", "experiment", "amplitude"),
    ("field", "experiment", "field_csv"),
    ("velocity", "experiment", "velocity"),
    ("forcing", "experiment", "forcing"),
    ("fit_constant", "experiment", "fit_constant"),
    ("amplitudes", "experiment", "amplitudes"),
    ("deltas", "experiment", "deltas"),
    ("j_max", "experiment", "j_max"),
)


def _config_from_args(args: argparse.Namespace, kind: str) -> RunConfig:
    if args.config:
        doc = yaml.safe_load(Path(args.config).read_text()) or {}
    else:
        doc = {}
    doc.setdefault("experiment", {})["kind"] = kind
    for dest, section, key in _OVERRIDES:
        value = getattr(args, dest, None)
        if value is not None and value is not False:
            target = doc if section is None else doc.setdefault(section, {})
            target[key] = value
    return parse_config(yaml.safe_dump(doc))


def _run_verify(args: argparse.Namespace) -> int:
    """Quick end-to-end health checks with one pass/fail line each."""
    ok = True
    for kind, overrides in (
        ("partition-check", {}),
        ("transport", {"velocity": "zero", "forcing": "sine"}),
        ("simulate", {"preset": "sine", "amplitude": 0.01}),
    ):
        cfg = _config_from_args(args, kind)
        exp = dict(cfg.experiment)
        exp.update(overrides)
        cfg = RunConfig(grid=cfg.grid, time=cfg.time, besov=cfg.besov,
                        scheme=cfg.scheme, experiment=exp,
                        output_dir=cfg.output_dir, seed=cfg.seed)
        report = run_experiment(cfg, write=False)
        for name, verdict in report.verdicts.items():
            print(f"verify {kind}/{name}: {'pass' if verdict else 'FAIL'}")
            ok = ok and verdict
    return 0 if ok else 1


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    if args.command == "verify":
        return _run_verify(args)

    kind = _KIND_BY_COMMAND[args.command]
    try:
        cfg = _config_from_args(args, kind)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    report = run_experiment(cfg)
    out = output_dir_for(cfg)
    for key, value in report.summary.items():
        print(f"{key} = {value}")
    for name, verdict in report.verdicts.items():
        print(f"{name}: {'pass' if verdict else 'FAIL'}")
    print(f"wrote {out}/")
    return 0 if report.passed else 1


if __name__ == "__main__":
    sys.exit(main())
