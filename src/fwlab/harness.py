"""Run configuration, dataset presets, CSV emission and experiment dispatch.

Configs are YAML mappings with strict key checking (unknown keys are fatal:
silent typos corrupt sweeps).  Every experiment writes per-node CSV tables
plus a plain-text summary whose scalars are all traceable to a CSV column,
and returns an in-memory report carrying pass/fail verdicts.
"""

from __future__ import annotations

import csv
import io
import os
import time
from dataclasses import dataclass, field, asdict
from pathlib import Path
from typing import Any

import numpy as np
import yaml

from . import __version__
from .besov import (
    BesovParams,
    MollifierKernel,
    LPPartition,
    besov_norm,
    besov_norms_of_samples,
    build_partition,
    mollify,
)
from .fw import (
    FWState,
    SchemeConfig,
    empirical_lifespan,
    initial_norm,
    lifespan,
    run_scheme,
    solve_fw_direct,
    stability_experiment,
    continuity_experiment,
)
from .spectral import Grid, GridFunction, make_grid
from .transport import (
    TransportProblem,
    fit_transport_constant,
    make_time_grid,
    solve_transport,
    verify_transport_estimate,
)

__all__ = [
    "RunConfig",
    "ExperimentReport",
    "parse_config",
    "load_config",
    "run_experiment",
    "emit_field_csv",
    "read_field_csv",
    "make_preset",
    "random_band_limited",
    "random_transport_problem",
]

EXPERIMENT_KINDS = (
    "norm",
    "partition-check",
    "transport",
    "simulate",
    "iterate",
    "lifespan-sweep",
    "stability",
    "continuity",
)

_DEFAULTS: dict[str, dict[str, Any]] = {
    "grid": {"N": 256, "L": 8.0},
    "time": {"dt": 1e-3, "T": 1.0, "t_cap": None},
    "besov": {"s": 3.0, "p": 2.0, "r": 2.0},
    "scheme": {"C": 1.0, "n_max": 10},
    "experiment": {
        "kind": "simulate",
        "preset": "sine",
        "amplitude": 0.1,
        "amplitudes": [0.25, 0.5, 1.0, 2.0],
        "deltas": [1e-2, 1e-3, 1e-4],
        "j_max": 6,
        "n_problems": 10,
        "velocity": "sine",
        "forcing": "zero",
        "fit_constant": False,
        "field_csv": None,
    },
}
_TOP_KEYS = ("grid", "time", "besov", "scheme", "experiment", "output_dir", "seed")


@dataclass(frozen=True)
class RunConfig:
    """Validated, default-filled configuration for one experiment run."""

    grid: dict
    time: dict
    besov: dict
    scheme: dict
    experiment: dict
    output_dir: str = "fwlab_out"
    seed: int = 0

    def make_grid(self) -> Grid:
        return make_grid(self.grid["N"], self.grid["L"])

    def besov_params(self) -> BesovParams:
        return BesovParams(s=self.besov["s"], p=self.besov["p"], r=self.besov["r"])

    def scheme_config(self) -> SchemeConfig:
        return SchemeConfig(
            params=self.besov_params(),
            C=self.scheme["C"],
            n_max=self.scheme["n_max"],
            dt=self.time["dt"],
        )

    def echo(self) -> dict:
        return asdict(self)


def _merge_section(name: str, given: dict | None) -> dict:
    defaults = dict(_DEFAULTS[name])
    if given is None:
        return defaults
    if not isinstance(given, dict):
        raise ValueError(f"config section {name!r} must be a mapping")
    unknown = set(given) - set(defaults)
    if unknown:
        raise ValueError(f"unknown keys in config section {name!r}: {sorted(unknown)}")
    defaults.update(given)
    return defaults


def _coerce_extended(value):
    """Allow 'inf' for p and r."""
    if isinstance(value, str) and value.lower() in ("inf", "infinity"):
        return np.inf
    return float(value)


def parse_config(text: str) -> RunConfig:
    """Parse a YAML config document with strict key checking.

    Besov admissibility for scheme-style experiments (s > max(2 + 1/p, 5/2),
    r finite) is enforced here so a bad sweep fails before any solve.
    """
    doc = yaml.safe_load(text)
    if doc is None:
        doc = {}
    if not isinstance(doc, dict):
        raise ValueError("config must be a mapping")
    unknown = set(doc) - set(_TOP_KEYS)
    if unknown:
        raise ValueError(f"unknown top-level config keys: {sorted(unknown)}")

    grid = _merge_section("grid", doc.get("grid"))
    time_sec = _merge_section("time", doc.get("time"))
    besov = _merge_section("besov", doc.get("besov"))
    scheme = _merge_section("scheme", doc.get("scheme"))
    experiment = _merge_section("experiment", doc.get("experiment"))

    grid["N"] = int(grid["N"])
    grid["L"] = float(grid["L"])
    make_grid(grid["N"], grid["L"])

    besov["s"] = float(besov["s"])
    besov["p"] = _coerce_extended(besov["p"])
    besov["r"] = _coerce_extended(besov["r"])

    kind = experiment["kind"]
    if kind not in EXPERIMENT_KINDS:
        raise ValueError(f"unknown experiment kind {kind!r}; choose from {EXPERIMENT_KINDS}")

    params = BesovParams(s=besov["s"], p=besov["p"], r=besov["r"])
    if kind in ("simulate", "iterate", "lifespan-sweep", "stability", "continuity"):
        params.require_admissible()

    return RunConfig(
        grid=grid, time=time_sec, besov=besov, scheme=scheme,
        experiment=experiment,
        output_dir=str(doc.get("output_dir", "fwlab_out")),
        seed=int(doc.get("seed", 0)),
    )


def load_config(path: str | Path) -> RunConfig:
    return parse_config(Path(path).read_text())


# ---------------------------------------------------------------------------
# fields: presets, randomized families, CSV round-trip


def make_preset(grid: Grid, preset: str, amplitude: float = 1.0) -> GridFunction:
    """Named data presets: 'sine' (a*sin x), 'cosine' (a*cos x),
    'gauss' (periodic bump centered mid-domain), 'zero', 'const:<c>'."""
    x = grid.x
    if preset == "sine":
        return GridFunction.from_samples(grid, amplitude * np.sin(x))
    if preset == "cosine":
        return GridFunction.from_samples(grid, amplitude * np.cos(x))
    if preset == "gauss":
        center = np.pi * grid.L
        sigma = max(grid.L / 8.0, 0.5)
        length = 2.0 * np.pi * grid.L
        d = np.abs(x - center)
        d = np.minimum(d, length - d)
        return GridFunction.from_samples(grid, amplitude * np.exp(-0.5 * (d / sigma) ** 2))
    if preset == "zero":
        return GridFunction.from_samples(grid, np.zeros(grid.N))
    if preset.startswith("const:"):
        c = float(preset.split(":", 1)[1])
        return GridFunction.from_samples(grid, np.full(grid.N, amplitude * c))
    raise ValueError(f"unknown preset {preset!r}")


def random_band_limited(
    grid: Grid, rng: np.random.Generator, k_max: int = 8, amplitude: float = 1.0
) -> GridFunction:
    """Seeded random real field supported on integer modes 1..k_max."""
    coeffs = np.zeros(grid.N, dtype=complex)
    k_max = min(k_max, grid.N // 3)
    for k in range(1, k_max + 1):
        c = rng.standard_normal() + 1j * rng.standard_normal()
        coeffs[k] = c
        coeffs[-k] = np.conj(c)
    f = GridFunction.from_coefficients(grid, coeffs)
    peak = float(np.max(np.abs(f.samples)))
    if peak > 0:
        f = f * (amplitude / peak)
    return f


def random_transport_problem(
    grid: Grid, rng: np.random.Generator, T: float, dt: float, k_max: int = 6
) -> TransportProblem:
    """A smooth random (v, F, f0) triple, time-independent v and F."""
    time_grid = make_time_grid(T, dt)
    v = random_band_limited(grid, rng, k_max=k_max, amplitude=0.5)
    F = random_band_limited(grid, rng, k_max=k_max, amplitude=0.5)
    f0 = random_band_limited(grid, rng, k_max=k_max, amplitude=1.0)
    n = time_grid.size
    return TransportProblem.build(
        grid, time_grid,
        np.tile(v.samples, (n, 1)), np.tile(F.samples, (n, 1)), f0,
    )


def _fmt(x) -> str:
    if isinstance(x, (bool, np.bool_)):
        return "1" if x else "0"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return format(float(x), ".17g")


def emit_field_csv(f: GridFunction, path: str | Path) -> None:
    """Write a field as CSV with columns (x, value) at full precision."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["x", "value"])
        for xj, vj in zip(f.grid.x, f.samples):
            w.writerow([_fmt(xj), _fmt(vj)])


def read_field_csv(path: str | Path, grid: Grid) -> GridFunction:
    """Read a (x, value) CSV back onto the given grid.

    The x column must list the grid's nodes in order; row count, ordering or
    numeric errors are fatal.
    """
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    if not rows or [c.strip() for c in rows[0]] != ["x", "value"]:
        raise ValueError("field CSV must have header 'x,value'")
    body = rows[1:]
    if len(body) != grid.N:
        raise ValueError(f"field CSV has {len(body)} rows, grid expects {grid.N}")
    try:
        xs = np.array([float(r[0]) for r in body])
        vals = np.array([float(r[1]) for r in body])
    except (ValueError, IndexError) as exc:
        raise ValueError(f"non-numeric or malformed cell in field CSV: {exc}") from exc
    if not np.allclose(xs, grid.x, rtol=0.0, atol=1e-9 * max(grid.dx, 1.0)):
        raise ValueError("x column does not match the grid's nodes in order")
    return GridFunction.from_samples(grid, vals)


# ---------------------------------------------------------------------------
# reports


@dataclass
class ExperimentReport:
    """In-memory result of one experiment run."""

    kind: str
    config_echo: dict
    tables: dict[str, tuple[list[str], list[list]]] = field(default_factory=dict)
    summary: dict[str, Any] = field(default_factory=dict)
    verdicts: dict[str, bool] = field(default_factory=dict)
    wall_time: float = 0.0

    @property
    def passed(self) -> bool:
        return all(self.verdicts.values())

    def table_csv(self, name: str) -> str:
        header, rows = self.tables[name]
        buf = io.StringIO()
        w = csv.writer(buf)
        w.writerow(header)
        for row in rows:
            w.writerow([_fmt(c) for c in row])
        return buf.getvalue()

    def write(self, out_dir: str | Path) -> Path:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        for name in self.tables:
            (out / f"{name}.csv").write_text(self.table_csv(name))
        lines = [f"kind = {self.kind}", f"version = {__version__}",
                 f"wall_time_s = {self.wall_time:.3f}", ""]
        lines.append("[config]")
        lines.append(yaml.safe_dump(self.config_echo, sort_keys=True).rstrip())
        lines.append("")
        lines.append("[summary]")
        for k, v in self.summary.items():
            lines.append(f"{k} = {_fmt(v) if isinstance(v, (int, float, np.floating, np.integer, bool, np.bool_)) else v}")
        lines.append("")
        lines.append("[verdicts]")
        for k, v in self.verdicts.items():
            lines.append(f"{k} = {'pass' if v else 'FAIL'}")
        (out / "summary.txt").write_text("\n".join(lines) + "\n")
        return out


def output_dir_for(cfg: RunConfig) -> str:
    return os.environ.get("FWLAB_OUT", cfg.output_dir)


# ---------------------------------------------------------------------------
# experiment dispatch


def run_experiment(cfg: RunConfig, write: bool = True) -> ExperimentReport:
    """Execute the configured experiment, optionally writing CSVs + summary."""
    kind = cfg.experiment["kind"]
    runner = _RUNNERS.get(kind)
    if runner is None:
        raise ValueError(f"unknown experiment kind {kind!r}")
    start = time.perf_counter()
    try:
        report = runner(cfg)
    except Exception as exc:
        raise RuntimeError(f"experiment {kind!r} failed: {exc}") from exc
    report.wall_time = time.perf_counter() - start
    if write:
        report.write(output_dir_for(cfg))
    return report


def _load_initial_pair(cfg: RunConfig, grid: Grid, amplitude: float | None = None):
    a = cfg.experiment["amplitude"] if amplitude is None else amplitude
    preset = cfg.experiment["preset"]
    if preset == "sine":
        return make_preset(grid, "sine", a), make_preset(grid, "cosine", a)
    if preset == "gauss":
        u0 = make_preset(grid, "gauss", a)
        return u0, make_preset(grid, "gauss", 0.5 * a)
    if preset == "zero":
        zero = make_preset(grid, "zero")
        return zero, zero
    raise ValueError(f"unknown data preset {preset!r}")


def _run_norm(cfg: RunConfig) -> ExperimentReport:
    grid = cfg.make_grid()
    params = cfg.besov_params()
    part = build_partition(grid)
    path = cfg.experiment["field_csv"]
    if path:
        f = read_field_csv(path, grid)
    else:
        f, _ = _load_initial_pair(cfg, grid)
    value = besov_norm(part, f, params)
    masks_rows = []
    xi = grid.wavenumbers
    order = np.argsort(xi)
    for i in order:
        masks_rows.append([xi[i], part.chi_mask[i]] + [part.phi_masks[q][i] for q in range(part.q_max + 1)])
    header = ["xi", "chi"] + [f"phi_q{q}" for q in range(part.q_max + 1)]
    report = ExperimentReport(kind="norm", config_echo=cfg.echo())
    report.tables["masks"] = (header, masks_rows)
    report.summary["besov_norm"] = value
    report.summary["q_max"] = part.q_max
    report.verdicts["norm_finite"] = bool(np.isfinite(value))
    return report


def _run_partition_check(cfg: RunConfig) -> ExperimentReport:
    report = ExperimentReport(kind="partition-check", config_echo=cfg.echo())
    rows = []
    worst = 0.0
    for N in (128, 256, 1024):
        for L in (1.0, 8.0):
            grid = make_grid(N, L)
            part = build_partition(grid)
            total = part.chi_mask + part.phi_masks.sum(axis=0)
            resid = float(np.max(np.abs(total - 1.0)))
            rows.append([N, L, part.q_max, resid])
            worst = max(worst, resid)
    report.tables["partition"] = (["N", "L", "q_max", "max_residual"], rows)
    report.summary["max_residual"] = worst
    report.verdicts["telescoping_identity"] = worst <= 1e-12
    return report


def _run_transport(cfg: RunConfig) -> ExperimentReport:
    grid = cfg.make_grid()
    params = cfg.besov_params()
    part = build_partition(grid)
    T, dt = cfg.time["T"], cfg.time["dt"]
    time_grid = make_time_grid(T, dt)
    n = time_grid.size

    def field_from_spec(spec: str, default_amp: float) -> GridFunction:
        if spec.endswith(".csv"):
            return read_field_csv(spec, grid)
        return make_preset(grid, spec, default_amp)

    v = field_from_spec(cfg.experiment["velocity"], 0.5)
    F = field_from_spec(cfg.experiment["forcing"], 0.5)
    rng = np.random.default_rng(cfg.seed)
    f0 = random_band_limited(grid, rng, k_max=6)
    prob = TransportProblem.build(
        grid, time_grid, np.tile(v.samples, (n, 1)), np.tile(F.samples, (n, 1)), f0
    )
    traj = solve_transport(prob, params, part=part)

    report = ExperimentReport(kind="transport", config_echo=cfg.echo())
    C = cfg.scheme["C"]
    if cfg.experiment["fit_constant"]:
        n_prob = int(cfg.experiment["n_problems"])
        family = [random_transport_problem(grid, rng, T, dt) for _ in range(n_prob)]
        held_out = [random_transport_problem(grid, rng, T, dt) for _ in range(n_prob)]
        C = fit_transport_constant(family, params)
        report.summary["C_emp"] = C
        violations = 0
        for p_ in held_out:
            t_ = solve_transport(p_, params, part=part)
            rep = verify_transport_estimate(t_, params, C, part=part)
            violations += int(np.count_nonzero(~rep.holds))
        report.summary["held_out_violations"] = violations
        report.verdicts["held_out_estimate"] = violations == 0

    est = verify_transport_estimate(traj, params, C, part=part)
    rows = [
        [t, fn, V, lhs, rhs, (lhs / rhs if rhs > 0 else np.inf)]
        for t, fn, V, lhs, rhs in zip(
            est.time_grid, est.f_norms, est.V_profile, est.lhs, est.rhs
        )
    ]
    report.tables["transport"] = (["t", "besov_norm", "V", "lhs", "rhs", "ratio"], rows)
    report.summary["C"] = C
    report.summary["max_violation_ratio"] = est.max_violation_ratio
    report.verdicts["estimate_holds"] = bool(np.all(est.holds))
    return report


def _run_simulate(cfg: RunConfig) -> ExperimentReport:
    grid = cfg.make_grid()
    params = cfg.besov_params()
    part = build_partition(grid)
    u0, rho0 = _load_initial_pair(cfg, grid)
    traj = solve_fw_direct(FWState(u=u0, rho=rho0), cfg.time["T"], cfg.time["dt"])
    nu = besov_norms_of_samples(part, traj.u, params)
    nr = besov_norms_of_samples(part, traj.rho, params.shift(-1.0))
    rows = [
        [t, a, b, mu, mr]
        for t, a, b, mu, mr in zip(traj.time_grid, nu, nr, traj.mean_u, traj.mean_rho)
    ]
    report = ExperimentReport(kind="simulate", config_echo=cfg.echo())
    report.tables["trajectory"] = (
        ["t", "norm_u_Bs", "norm_rho_Bsm1", "mean_u", "mean_rho"], rows
    )
    drift_u = float(np.max(np.abs(traj.mean_u - traj.mean_u[0])))
    drift_rho = float(np.max(np.abs(traj.mean_rho - traj.mean_rho[0])))
    report.summary["mean_u_drift"] = drift_u
    report.summary["mean_rho_drift"] = drift_rho
    report.verdicts["means_conserved"] = max(drift_u, drift_rho) <= 1e-10
    return report


def _run_iterate(cfg: RunConfig) -> ExperimentReport:
    grid = cfg.make_grid()
    u0, rho0 = _load_initial_pair(cfg, grid)
    trace = run_scheme(u0, rho0, cfg.scheme_config())
    rows = []
    for n in range(trace.n_max + 1):
        ns = trace.norm_sum(n)
        dn = trace.d_n[n - 1] if n >= 1 else np.nan
        for i, t in enumerate(trace.time_grid):
            rows.append([n, t, ns[i], trace.bound_312[n], trace.bound_313[n], dn])
    report = ExperimentReport(kind="iterate", config_echo=cfg.echo())
    report.tables["scheme"] = (
        ["n", "t", "norm_sum", "bound_312", "bound_313", "d_n"], rows
    )
    ratios = trace.d_n[1:] / np.where(trace.d_n[:-1] > 0, trace.d_n[:-1], np.inf)
    report.summary["P0"] = trace.P0
    report.summary["T"] = trace.T
    report.summary["max_d_ratio_from_n2"] = (
        float(np.max(ratios[1:])) if ratios.size > 1 else np.nan
    )
    report.verdicts["differences_contract"] = bool(np.all(ratios[1:] < 1.0))
    return report


def _run_lifespan_sweep(cfg: RunConfig) -> ExperimentReport:
    grid = cfg.make_grid()
    part = build_partition(grid)
    scheme_cfg = cfg.scheme_config()
    t_cap = cfg.time["t_cap"] or cfg.time["T"]
    rows = []
    products = []
    for a in cfg.experiment["amplitudes"]:
        u0, rho0 = _load_initial_pair(cfg, grid, amplitude=float(a))
        P0 = initial_norm(part, u0, rho0, scheme_cfg.params)
        T_emp = empirical_lifespan(u0, rho0, scheme_cfg, t_cap, part=part)
        product = T_emp * P0**2
        rows.append([a, P0, T_emp, product])
        products.append(product)
    report = ExperimentReport(kind="lifespan-sweep", config_echo=cfg.echo())
    report.tables["lifespan"] = (["a", "P0", "T_emp", "product"], rows)
    products = np.array(products)
    geo = float(np.exp(np.mean(np.log(products)))) if np.all(products > 0) else 0.0
    report.summary["geometric_mean_product"] = geo
    within = bool(geo > 0 and np.all(np.abs(products / geo - 1.0) <= 0.3))
    report.summary["max_relative_spread"] = (
        float(np.max(np.abs(products / geo - 1.0))) if geo > 0 else np.inf
    )
    report.verdicts["product_within_30pct"] = within
    return report


def _run_stability(cfg: RunConfig) -> ExperimentReport:
    grid = cfg.make_grid()
    part = build_partition(grid)
    scheme_cfg = cfg.scheme_config()
    u0, rho0 = _load_initial_pair(cfg, grid)
    rng = np.random.default_rng(cfg.seed)
    shape_u = random_band_limited(grid, rng, k_max=4)
    shape_rho = random_band_limited(grid, rng, k_max=4)
    T = cfg.time["T"]
    rows = []
    betas = []
    bounds_ok = []
    for d in cfg.experiment["deltas"]:
        rep = stability_experiment(
            u0, rho0, float(d) * shape_u, float(d) * shape_rho,
            scheme_cfg, T, part=part,
        )
        betas.append(rep.beta_fit)
        bounds_ok.append(rep.bound_holds)
        for t, D in zip(rep.time_grid, rep.norm_curve):
            rows.append([d, t, D, rep.beta_fit])
    report = ExperimentReport(kind="stability", config_echo=cfg.echo())
    report.tables["stability"] = (["delta", "t", "D", "beta_fit"], rows)
    betas = np.array(betas)
    spread = float(np.max(np.abs(betas / betas.mean() - 1.0))) if betas.mean() != 0 else np.inf
    report.summary["beta_values"] = " ".join(_fmt(b) for b in betas)
    report.summary["beta_spread"] = spread
    report.verdicts["gronwall_bound"] = all(bounds_ok)
    report.verdicts["beta_agreement_10pct"] = spread <= 0.10
    return report


def _run_continuity(cfg: RunConfig) -> ExperimentReport:
    grid = cfg.make_grid()
    part = build_partition(grid)
    scheme_cfg = cfg.scheme_config()
    u0, rho0 = _load_initial_pair(cfg, grid)
    rep = continuity_experiment(
        u0, rho0, int(cfg.experiment["j_max"]), scheme_cfg, cfg.time["T"], part=part
    )
    rows = [[j, e, err] for j, (e, err) in enumerate(zip(rep.epsilons, rep.errors))]
    report = ExperimentReport(kind="continuity", config_echo=cfg.echo())
    report.tables["continuity"] = (["j", "epsilon", "error"], rows)
    report.summary["final_error"] = rep.final_error
    dx = grid.dx
    below = rep.epsilons < dx
    floor_err = float(np.min(rep.errors[below])) if np.any(below) else np.inf
    report.summary["floor_error"] = floor_err
    report.verdicts["errors_nonincreasing"] = rep.nonincreasing
    report.verdicts["floor_reached"] = floor_err <= 1e-5
    return report


_RUNNERS = {
    "norm": _run_norm,
    "partition-check": _run_partition_check,
    "transport": _run_transport,
    "simulate": _run_simulate,
    "iterate": _run_iterate,
    "lifespan-sweep": _run_lifespan_sweep,
    "stability": _run_stability,
    "continuity": _run_continuity,
}
