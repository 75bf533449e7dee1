"""Command-line entry point: `fwlab <subcommand> [--config path] [overrides]`.

Subcommands map onto the experiment kinds of the harness.  Argparse is the
one table of overrides: each flag's dest is the dotted config key it sets
(`--N` sets `grid.N`, `--out` sets `output_dir`), and each subcommand sets
`experiment.kind` by default, so a flag or kind is declared once.  The set
flags reach `parse_config` as dotted overrides of the (optional) YAML config.
The exit code is 0 when every verdict passes, 1 when one fails, and 2, with
one `error:` line on stderr, for a bad or unreadable config, an unwritable
output or a run that stopped with an error.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .harness import RunConfig, parse_config, run_experiment


def _add_common_flags(p: argparse.ArgumentParser) -> None:
    # flags left unset read None, the argparse default
    p.add_argument("--config", help="YAML config file")
    p.add_argument("--N", dest="grid.N", type=int, help="grid points")
    p.add_argument("--L", dest="grid.L", type=float, help="torus scale (domain 2*pi*L)")
    p.add_argument("--dt", dest="time.dt", type=float, help="time step")
    p.add_argument("--T", dest="time.T", type=float, help="final time")
    p.add_argument("--t-cap", dest="time.t_cap", type=float, help="lifespan search cap")
    p.add_argument("--s", dest="besov.s", type=float, help="Besov regularity index")
    p.add_argument("--p", dest="besov.p", help="Besov integrability (or 'inf')")
    p.add_argument("--r", dest="besov.r", help="Besov summability (or 'inf')")
    p.add_argument("--C", dest="scheme.C", type=float, help="lifespan constant")
    p.add_argument("--n-max", dest="scheme.n_max", type=int, help="iteration count")
    p.add_argument("--seed", dest="seed", type=int, help="random seed")
    p.add_argument("--out", dest="output_dir", help="output directory")
    p.add_argument("--preset", dest="experiment.preset",
                   help="data preset: sine | gauss | zero")
    p.add_argument("--amplitude", dest="experiment.amplitude", type=float,
                   help="data amplitude")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fwlab",
        description="Pseudo-spectral experiments for the two-component "
        "Fornberg-Whitham system in Besov spaces.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name: str, kind: str | None, help: str) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help)
        p.set_defaults(**{"experiment.kind": kind})
        _add_common_flags(p)
        return p

    p = command("norm", "norm", "Besov norm of a field (CSV or preset)")
    p.add_argument("--field", dest="experiment.field_csv",
                   help="CSV file with columns x,value")

    p = command("transport", "transport", "linear transport run and estimate check")
    p.add_argument("--velocity", dest="experiment.velocity",
                   help="preset name or CSV path")
    p.add_argument("--forcing", dest="experiment.forcing",
                   help="preset name or CSV path")
    p.add_argument("--fit-constant", dest="experiment.fit_constant",
                   action="store_true", default=None,
                   help="calibrate the estimate constant on a random family")

    command("simulate", "simulate", "direct nonlinear solve with diagnostics")
    command("iterate", "iterate", "run the mollified iteration scheme")

    p = command("lifespan", "lifespan-sweep",
                "amplitude sweep of the empirical lifespan")
    p.add_argument("--amplitudes", dest="experiment.amplitudes", type=float, nargs="+")

    p = command("stability", "stability", "perturbation growth experiment")
    p.add_argument("--deltas", dest="experiment.deltas", type=float, nargs="+")

    p = command("continuity", "continuity", "mollified-family continuity experiment")
    p.add_argument("--j-max", dest="experiment.j_max", type=int)

    command("verify", None, "fast built-in verification suite")
    return parser


def _config_from_args(args: argparse.Namespace, **overrides) -> RunConfig:
    """The config file, if any, under every set flag and then the dotted
    `section.key` overrides; unset flags are None."""
    text = Path(args.config).read_text() if args.config else ""
    return parse_config(text, {
        dest: value for dest, value in {**vars(args), **overrides}.items()
        if value is not None and dest not in ("command", "config")})


def _run_verify(args: argparse.Namespace) -> int:
    """Quick end-to-end health checks with one pass/fail line each."""
    ok = True
    for kind, overrides in (
        ("partition-check", {}),
        ("transport", {"experiment.velocity": "zero", "experiment.forcing": "sine"}),
        ("simulate", {"experiment.preset": "sine", "experiment.amplitude": 0.01}),
    ):
        cfg = _config_from_args(args, **{"experiment.kind": kind}, **overrides)
        report = run_experiment(cfg, write=False)
        for name, verdict in report.verdicts.items():
            print(f"verify {kind}/{name}: {'pass' if verdict else 'FAIL'}")
            ok = ok and verdict
    return 0 if ok else 1


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "verify":
            return _run_verify(args)
        cfg = _config_from_args(args)
        report = run_experiment(cfg)
    except (ValueError, RuntimeError, OSError) as exc:
        # a bad or unreadable config, a stopped run or an unwritable output is no verdict
        print(f"error: {exc}", file=sys.stderr)
        return 2
    for key, value in report.summary.items():
        print(f"{key} = {value}")
    for name, verdict in report.verdicts.items():
        print(f"{name}: {'pass' if verdict else 'FAIL'}")
    print(f"wrote {cfg.output_dir}/")
    return 0 if report.passed else 1


if __name__ == "__main__":
    sys.exit(main())
