"""Run configuration, dataset presets, CSV emission and experiment dispatch.

README.md (fwlab.harness, CLI) tells how a config is checked and what each
kind writes.
"""

from __future__ import annotations

import csv
import io
import time
from dataclasses import dataclass, field, asdict
from functools import partial
from itertools import islice
from pathlib import Path
from typing import Any, Callable

import numpy as np
import yaml

from . import __version__
from .besov import BesovParams, _nodes_per_call, besov_norm, build_partition
from .fw import (
    SchemeConfig,
    _check_memory,
    _lifespans,
    _march_fw,
    _pair_norms,
    _stacked,
    lifespan,
    run_scheme,
    stability_experiment,
    continuity_experiment,
)
from .spectral import Grid, GridFunction, dealias_mask, make_grid
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
    "run_experiment",
    "emit_field_csv",
    "read_field_csv",
    "make_preset",
    "random_band_limited",
    "random_transport_problem",
]

@dataclass(frozen=True)
class RunConfig:
    """Validated, default-filled configuration for one experiment run."""

    grid: dict
    time: dict
    besov: dict
    scheme: dict
    experiment: dict
    output_dir: str
    seed: int

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


def _number(key: str, value, whole: bool = False):
    """A config value as a float ('inf' allowed), or as an int when whole;
    ValueError names the "section.key" otherwise.  YAML reads 1e-2 (no dot)
    as a string, so every number goes through here."""
    try:
        if isinstance(value, bool):  # float(True) is 1.0, yet no number
            raise TypeError
        number = float(value)
    except (TypeError, ValueError):
        raise ValueError(f"config key {key} must be a number, got {value!r}") from None
    if not whole:
        return number
    if not number.is_integer():
        raise ValueError(f"config key {key} must be a whole number, got {value!r}")
    # an int keeps every digit: a float holds 53 bits, a seed may hold more
    return int(value) if isinstance(value, int) else int(number)


def _positive(key: str, value) -> float:
    """A positive, finite number: a time or a step a run can count nodes of,
    a scale or a constant a run can divide by."""
    number = _number(key, value)
    if not 0 < number < np.inf:
        raise ValueError(f"config key {key} must be positive and finite, got {value!r}")
    return number


def _numbers(key: str, value) -> list:
    if not isinstance(value, list) or not value:
        raise ValueError(f"config key {key} must be a non-empty list of numbers")
    return [_number(key, v) for v in value]


def _checked(test: Callable[[Any], bool], wanted: str, first=lambda key, value: value):
    """The conversion first, kept when it passes test, with the key named
    otherwise."""
    def convert(key: str, value):
        if not test(converted := first(key, value)):
            raise ValueError(f"config key {key} must be {wanted}, got {value!r}")
        return converted
    return convert


_whole = partial(_number, whole=True)
_count = _checked(lambda v: v >= 1, "at least 1", _whole)  # the size of a family
_text = _checked(lambda v: isinstance(v, str), "a string")
_preset = _checked(lambda v: v in ("sine", "gauss", "zero"), "sine, gauss or zero")
_flag = _checked(lambda v: isinstance(v, bool), "true or false")

#: every config key, "section.key" or top-level, as (default, conversion);
#: a key whose default is null may be null (a null t_cap means T)
_KEYS: dict[str, tuple[Any, Callable[[str, Any], Any]]] = {
    "grid.N": (256, _whole), "grid.L": (8.0, _positive),
    "time.dt": (1e-3, _positive), "time.T": (1.0, _positive), "time.t_cap": (None, _positive),
    "besov.s": (3.0, _number), "besov.p": (2.0, _number), "besov.r": (2.0, _number),
    "scheme.C": (1.0, _positive), "scheme.n_max": (10, _whole),
    "experiment.kind": ("simulate", _text), "experiment.preset": ("sine", _preset),
    "experiment.amplitude": (0.1, _number),
    "experiment.amplitudes": ([0.25, 0.5, 1.0, 2.0], _numbers),
    "experiment.deltas": ([1e-2, 1e-3, 1e-4], _numbers),
    "experiment.j_max": (6, _whole), "experiment.n_problems": (10, _count),
    "experiment.velocity": ("sine", _text), "experiment.forcing": ("zero", _text),
    "experiment.fit_constant": (False, _flag), "experiment.field_csv": (None, _text),
    "output_dir": ("fwlab_out", lambda key, value: str(value)), "seed": (0, _whole),
}


class _UniqueKeyLoader(yaml.SafeLoader):
    """SafeLoader that refuses a mapping key given twice (PyYAML keeps the last)."""

    def construct_mapping(self, node, deep=False):
        seen = set()
        for key, _ in node.value:  # a non-scalar key node is only itself
            name = (key.tag, key.value) if isinstance(key, yaml.ScalarNode) else key
            if name in seen:
                raise yaml.constructor.ConstructorError(
                    None, None, f"found duplicate key {key.value!r}", key.start_mark)
            seen.add(name)
        return super().construct_mapping(node, deep=deep)


def parse_config(text: str, overrides: dict | None = None) -> RunConfig:
    """Parse a YAML config document under the dotted `section.key`
    overrides (the CLI's set flags).  An unknown key, a bad value or, for
    the kinds that solve the system, inadmissible Besov parameters raise a
    one-line ValueError before any solve."""
    try:
        doc = yaml.load(text, Loader=_UniqueKeyLoader)
    except yaml.YAMLError as exc:
        mark = getattr(exc, "problem_mark", None)  # a reader error has none
        why = (f"{exc.problem} at line {mark.line + 1}, column {mark.column + 1}"
               if mark else str(exc))
        raise ValueError("config is not valid YAML: " + " ".join(why.split())) from None
    doc = {} if doc is None else doc
    if not isinstance(doc, dict):
        raise ValueError("config must be a mapping")
    unknown = sorted(set(doc) - {key.split(".")[0] for key in _KEYS}, key=str)
    if unknown:
        raise ValueError(f"unknown top-level config keys: {unknown}")

    given = {}  # by "section.key"
    for name, value in doc.items():
        if name in _KEYS:
            given[name] = value
        elif value is not None:  # a null section takes its defaults
            if not isinstance(value, dict):
                raise ValueError(f"config section {name!r} must be a mapping")
            unknown = sorted((key for key in value if f"{name}.{key}" not in _KEYS), key=str)
            if unknown:
                raise ValueError(f"unknown keys in config section {name!r}: {unknown}")
            given.update((f"{name}.{key}", v) for key, v in value.items())
    given.update(overrides or {})
    if not given.keys() <= _KEYS.keys():  # only an override can miss
        raise ValueError(f"unknown config overrides: {sorted(given.keys() - _KEYS.keys())}")

    fields: dict[str, Any] = {}
    for key, (default, convert) in _KEYS.items():
        value = given.get(key, default)
        if value is not None or default is not None:
            value = convert(key, value)
        section, _, name = key.rpartition(".")
        (fields.setdefault(section, {}) if section else fields)[name] = value
    cfg = RunConfig(**fields)
    cfg.make_grid()
    kind = cfg.experiment["kind"]
    if kind not in EXPERIMENT_KINDS:
        raise ValueError(f"unknown experiment kind {kind!r}; choose from {EXPERIMENT_KINDS}")
    params = cfg.besov_params()  # a NaN p or r, or a non-finite s, fails every kind
    if kind in ("simulate", "iterate", "lifespan-sweep", "stability", "continuity"):
        params.require_admissible()
    if kind == "iterate" and cfg.scheme["n_max"] < 3:
        raise ValueError(
            f"iterate needs scheme.n_max >= 3, got {cfg.scheme['n_max']}: its "
            "differences_contract verdict reads the d_n ratios from n = 2"
        )
    return cfg


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
        try:
            c = float(preset.split(":", 1)[1])
        except ValueError:
            raise ValueError(f"preset {preset!r} must give a number after 'const:'") from None
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
    return f * (amplitude / peak) if peak > 0 else f


def random_transport_problem(
    grid: Grid, rng: np.random.Generator, T: float, dt: float
) -> TransportProblem:
    """A smooth random (v, F, f0) triple on modes 1..6, time-independent v and F."""
    time_grid = make_time_grid(T, dt)
    v = random_band_limited(grid, rng, k_max=6, amplitude=0.5)
    F = random_band_limited(grid, rng, k_max=6, amplitude=0.5)
    f0 = random_band_limited(grid, rng, k_max=6, amplitude=1.0)
    return TransportProblem.build(time_grid, v.samples, F.samples, f0)


def _fmt(x) -> str:
    if isinstance(x, (bool, np.bool_)):
        return "1" if x else "0"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return format(float(x), ".17g")


#: rows that a table's CSV is formatted and written in at once, so a table
#: of any length holds the formatted cells of one block
_CSV_BLOCK = 4096


def _fmt_column(values: np.ndarray) -> list[str]:
    """_fmt of every float of one table column, each distinct value (told
    apart by its bits, so -0.0 is not 0.0) formatted once."""
    _, first, inverse = np.unique(values.view(np.int64), return_index=True,
                                  return_inverse=True)
    texts = map("{:.17g}".format, values[first].tolist())
    return np.array(list(texts), dtype=object)[inverse].tolist()


def _write_csv(fh, header: list[str], table: np.ndarray) -> None:
    """Write a header and a 2-D float64 table as CSV to the text file fh,
    in blocks of _CSV_BLOCK rows; a whole-valued float below 2^53, a count
    or a flag, reads as _fmt writes the int or bool."""
    w = csv.writer(fh)
    w.writerow(header)
    for i in range(0, len(table), _CSV_BLOCK):
        w.writerows(zip(*map(_fmt_column, table[i:i + _CSV_BLOCK].T)))


def emit_field_csv(f: GridFunction, path: str | Path) -> None:
    """Write a field as CSV with columns (x, value) at full precision."""
    with open(path, "w", newline="") as fh:
        _write_csv(fh, ["x", "value"], np.column_stack([f.grid.x, f.samples]))


def read_field_csv(path: str | Path, grid: Grid) -> GridFunction:
    """Read a (x, value) CSV back onto the given grid.  ValueError for a
    wrong header or row count, a row that is not two cells, a non-numeric
    cell or an x column that is not the grid's nodes in order."""
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    if not rows or [c.strip() for c in rows[0]] != ["x", "value"]:
        raise ValueError("field CSV must have header 'x,value'")
    body = rows[1:]
    if len(body) != grid.N:
        raise ValueError(f"field CSV has {len(body)} rows, grid expects {grid.N}")
    try:
        xs, vals = np.array([[float(x), float(v)] for x, v in body]).T
    except ValueError as exc:  # a cell that is not a number, or a row not (x, value)
        raise ValueError(f"non-numeric cell or malformed row in field CSV: {exc}") from exc
    if not np.allclose(xs, grid.x, rtol=0.0, atol=1e-9 * max(grid.dx, 1.0)):
        raise ValueError("x column does not match the grid's nodes in order")
    return GridFunction.from_samples(grid, vals)


# ---------------------------------------------------------------------------
# reports


@dataclass
class ExperimentReport:
    """In-memory result of one experiment run: each table is a header and
    one 2-D float64 array, a row per line of its CSV."""

    kind: str
    config_echo: dict
    tables: dict[str, tuple[list[str], np.ndarray]] = field(default_factory=dict)
    summary: dict[str, Any] = field(default_factory=dict)
    verdicts: dict[str, bool] = field(default_factory=dict)
    wall_time: float = 0.0

    @property
    def passed(self) -> bool:
        return all(self.verdicts.values())

    def table_csv(self, name: str) -> str:
        buf = io.StringIO()
        _write_csv(buf, *self.tables[name])
        return buf.getvalue()

    def write(self, out_dir: str | Path) -> Path:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        for name in self.tables:  # streamed: the whole CSV text is never held
            with open(out / f"{name}.csv", "w", newline="") as fh:
                _write_csv(fh, *self.tables[name])
        lines = [f"kind = {self.kind}", f"version = {__version__}",
                 f"wall_time_s = {self.wall_time:.3f}", "", "[config]",
                 yaml.safe_dump(self.config_echo, sort_keys=True).rstrip(), "", "[summary]"]
        lines += [f"{k} = {_fmt(v) if isinstance(v, (int, float, np.floating, np.integer, bool, np.bool_)) else v}"
                  for k, v in self.summary.items()]
        lines += ["", "[verdicts]"] + [f"{k} = {'pass' if v else 'FAIL'}"
                                       for k, v in self.verdicts.items()]
        (out / "summary.txt").write_text("\n".join(lines) + "\n")
        return out


# ---------------------------------------------------------------------------
# experiment dispatch


def run_experiment(cfg: RunConfig, write: bool = True) -> ExperimentReport:
    """Run the configured experiment and, when write, write its CSVs and
    summary.txt; a runner's error is re-raised as RuntimeError."""
    kind = cfg.experiment["kind"]
    runner = _RUNNERS.get(kind)
    if runner is None:
        raise ValueError(f"unknown experiment kind {kind!r}")
    report = ExperimentReport(kind=kind, config_echo=cfg.echo())
    start = time.perf_counter()
    try:
        runner(cfg, report)
    except Exception as exc:
        raise RuntimeError(f"experiment {kind!r} failed: {exc}") from exc
    report.wall_time = time.perf_counter() - start
    if write:
        report.write(cfg.output_dir)
    return report


def _load_initial_pair(cfg: RunConfig, grid: Grid, amplitude: float | None = None):
    a = cfg.experiment["amplitude"] if amplitude is None else amplitude
    preset = cfg.experiment["preset"]
    if preset == "sine":
        return make_preset(grid, "sine", a), make_preset(grid, "cosine", a)
    if preset == "gauss":
        return make_preset(grid, "gauss", a), make_preset(grid, "gauss", 0.5 * a)
    if preset == "zero":
        zero = make_preset(grid, "zero")
        return zero, zero
    raise ValueError(f"unknown data preset {preset!r}")


def _run_norm(cfg: RunConfig, report: ExperimentReport) -> None:
    grid = cfg.make_grid()
    params = cfg.besov_params()
    path = cfg.experiment["field_csv"]
    f = read_field_csv(path, grid) if path else _load_initial_pair(cfg, grid)[0]
    value = besov_norm(f, params)
    part = build_partition(grid)
    order = np.argsort(grid.wavenumbers)
    header = ["xi", "chi"] + [f"phi_q{q}" for q in range(part.q_max + 1)]
    report.tables["masks"] = (header, np.column_stack([grid.wavenumbers[order],
                                                       part.masks[:, order].T]))
    report.summary["besov_norm"] = value
    report.summary["q_max"] = part.q_max
    report.verdicts["norm_finite"] = bool(np.isfinite(value))


def _run_partition_check(cfg: RunConfig, report: ExperimentReport) -> None:
    rows = []
    for N in (128, 256, 1024):
        for L in (1.0, 8.0):
            part = build_partition(make_grid(N, L))
            total = part.chi_mask + part.phi_masks.sum(axis=0)
            rows.append([N, L, part.q_max, float(np.max(np.abs(total - 1.0)))])
    worst = max(row[3] for row in rows)
    report.tables["partition"] = (["N", "L", "q_max", "max_residual"], np.array(rows, dtype=float))
    report.summary["max_residual"] = worst
    report.verdicts["telescoping_identity"] = worst <= 1e-12


def _run_transport(cfg: RunConfig, report: ExperimentReport) -> None:
    grid = cfg.make_grid()
    params = cfg.besov_params()
    # the states of its solve and, when it fits the constant, of one family
    # solve at a time; a table row for it and for each problem's profiles
    fit, n_prob = cfg.experiment["fit_constant"], cfg.experiment["n_problems"]
    _check_nodes(cfg, (1 + fit) * grid.N * 8 + (1 + fit * 2 * n_prob) * _TABLE_ROW_BYTES)
    T, dt = cfg.time["T"], cfg.time["dt"]
    time_grid = make_time_grid(T, dt)

    def field_from_spec(spec: str, default_amp: float) -> GridFunction:
        if spec.endswith(".csv"):
            return read_field_csv(spec, grid)
        return make_preset(grid, spec, default_amp)

    v = field_from_spec(cfg.experiment["velocity"], 0.5)
    F = field_from_spec(cfg.experiment["forcing"], 0.5)
    rng = np.random.default_rng(cfg.seed)
    f0 = random_band_limited(grid, rng, k_max=6)
    traj = solve_transport(TransportProblem.build(time_grid, v.samples, F.samples, f0))

    C = cfg.scheme["C"]
    if fit:
        family = [random_transport_problem(grid, rng, T, dt) for _ in range(n_prob)]
        held_out = [random_transport_problem(grid, rng, T, dt) for _ in range(n_prob)]
        C = fit_transport_constant(family, params)
        report.summary["C_emp"] = C
        violations = 0
        for p_ in held_out:
            rep = verify_transport_estimate(solve_transport(p_), params, C)
            violations += int(np.count_nonzero(~rep.holds))
        report.summary["held_out_violations"] = violations
        report.verdicts["held_out_estimate"] = violations == 0

    est = verify_transport_estimate(traj, params, C)
    report.tables["transport"] = (
        ["t", "besov_norm", "V", "lhs", "rhs", "ratio"],
        np.column_stack([est.time_grid, est.f_norms, est.V_profile, est.lhs, est.rhs,
                         est.ratio]),
    )
    report.summary["C"] = C
    report.summary["max_violation_ratio"] = est.max_violation_ratio
    report.verdicts["estimate_holds"] = bool(np.all(est.holds))


#: what simulate holds per node, with room to spare: its norms and means as
#: they are made, and its table row of five floats (tracemalloc reads about
#: 60 B); the CSV text is held per block of _CSV_BLOCK rows, not per row.
#: transport prices each of its per-node tables at this too
_TABLE_ROW_BYTES = 400

#: what stability and continuity hold per node and member: the member's
#: distances, as marched, as taken and summed, and its table row with the
#: columns it is stacked from (tracemalloc reads about 25 B)
_MEMBER_ROW_BYTES = 128


def _check_nodes(cfg: RunConfig, node_bytes: float) -> None:
    """Refuse, before its time grid is made, a run of T / dt + 1 nodes that
    holds node_bytes per node when physical memory cannot."""
    _check_memory((cfg.time["T"] / cfg.time["dt"] + 1.0) * node_bytes, "--dt or --T")


def _run_simulate(cfg: RunConfig, report: ExperimentReport) -> None:
    grid = cfg.make_grid()
    u0, rho0 = _load_initial_pair(cfg, grid)
    _check_nodes(cfg, _TABLE_ROW_BYTES)
    T, dt = cfg.time["T"], cfg.time["dt"]
    time_grid = make_time_grid(T, dt)
    part, params = build_partition(grid), cfg.besov_params()
    march = _march_fw(_stacked([(u0, rho0)])[0], grid, time_grid, dt)
    # the norms and means of chunks of nodes, two norm rows per node, as they
    # are made: no trajectory is stored.  A node's mean is its mode 0 over N.
    columns = []
    while chunk := list(islice(march, _nodes_per_call(params.p, 2))):
        y = np.array(chunk)
        columns.append(np.column_stack([*_pair_norms(part, y, params),
                                        y[..., 0].real / grid.N]))
    table = np.column_stack([time_grid, np.concatenate(columns)])
    report.tables["trajectory"] = (
        ["t", "norm_u_Bs", "norm_rho_Bsm1", "mean_u", "mean_rho"], table
    )
    drift_u, drift_rho = np.max(np.abs(table[:, 3:] - table[0, 3:]), axis=0).tolist()
    report.summary["mean_u_drift"] = drift_u
    report.summary["mean_rho_drift"] = drift_rho
    report.verdicts["means_conserved"] = max(drift_u, drift_rho) <= 1e-10


def _run_iterate(cfg: RunConfig, report: ExperimentReport) -> None:
    grid = cfg.make_grid()
    u0, rho0 = _load_initial_pair(cfg, grid)
    trace = run_scheme(u0, rho0, cfg.scheme_config(), keep_last=False)
    # one row per iterate n and node t
    norm_sums = trace.norm_u + trace.norm_rho
    n = np.repeat(np.arange(trace.n_max + 1), trace.time_grid.size)
    d_n = np.concatenate([[np.nan], trace.d_n])
    report.tables["scheme"] = (
        ["n", "t", "norm_sum", "bound_312", "bound_313", "d_n"],
        np.column_stack([n, np.tile(trace.time_grid, trace.n_max + 1), norm_sums.ravel(),
                         trace.bound_312[n], trace.bound_313[n], d_n[n]]),
    )
    ratios = trace.d_n[1:] / np.where(trace.d_n[:-1] > 0, trace.d_n[:-1], np.inf)
    report.summary["P0"] = trace.P0
    report.summary["T"] = trace.T
    report.summary["max_d_ratio_from_n2"] = float(np.max(ratios[1:]))
    # the bound (3.13), ||u^n|| + ||rho^n|| <= 2*P0, reported and not judged
    report.summary["max_norm_sum_over_P0"] = (
        float(np.max(norm_sums) / trace.P0) if trace.P0 > 0 else np.nan)
    broken = np.flatnonzero(~trace.bound_313)
    report.summary["first_iterate_over_2P0"] = int(broken[0]) if broken.size else "none"
    report.verdicts["differences_contract"] = bool(np.all(ratios[1:] < 1.0))


def _run_lifespan_sweep(cfg: RunConfig, report: ExperimentReport) -> None:
    grid = cfg.make_grid()
    scheme_cfg = cfg.scheme_config()
    t_cap = cfg.time["T"] if cfg.time["t_cap"] is None else cfg.time["t_cap"]
    amplitudes = cfg.experiment["amplitudes"]
    P0, T_emp = _lifespans([_load_initial_pair(cfg, grid, amplitude=a) for a in amplitudes],
                           scheme_cfg, t_cap)
    products = T_emp * P0**2
    report.tables["lifespan"] = (["a", "P0", "T_emp", "product"],
                                 np.column_stack([amplitudes, P0, T_emp, products]))
    # the theorem guarantees T_emp >= T = 3/(16 C P0^2) for some C; at the
    # configured C this ratio shows how far each amplitude is from that
    ratios = T_emp / np.array([lifespan(p, scheme_cfg.C) for p in P0])
    report.summary["T_emp_over_T_guaranteed"] = " ".join(_fmt(q) for q in ratios)
    report.summary["min_T_emp_over_T_guaranteed"] = float(np.min(ratios))
    # the smallest C whose T = 3/(16 C P0^2) is at most T_emp: inf where
    # T_emp or P0 is 0
    with np.errstate(divide="ignore"):
        C_consistent = 3.0 / (16.0 * P0**2 * T_emp)
    report.summary["C_consistent"] = " ".join(_fmt(c) for c in C_consistent)
    # a member still at or under 2*P0 at t_cap reports T_emp = t_cap, the
    # last node: a lower bound, and so are its product and ratios
    censored = [_fmt(a) for a, t in zip(amplitudes, T_emp) if t == t_cap]
    report.summary["censored_at_t_cap"] = " ".join(censored) or "none"
    geo = float(np.exp(np.mean(np.log(products)))) if np.all(products > 0) else 0.0
    report.summary["geometric_mean_product"] = geo
    within = bool(geo > 0 and np.all(np.abs(products / geo - 1.0) <= 0.3))
    report.summary["max_relative_spread"] = (
        float(np.max(np.abs(products / geo - 1.0))) if geo > 0 else np.inf
    )
    report.verdicts["product_within_30pct"] = within
    # criterion 10's mechanism: linearised about rest, mode xi grows at
    # |xi| sqrt(3 + 4 xi^2) / (2 (1 + xi^2)), which rises with |xi|
    xi = grid.wavenumbers[dealias_mask(grid)]
    report.summary["max_linear_growth_rate"] = float(
        np.max(np.abs(xi) * np.sqrt(3.0 + 4.0 * xi**2) / (2.0 * (1.0 + xi**2))))


def _run_stability(cfg: RunConfig, report: ExperimentReport) -> None:
    grid = cfg.make_grid()
    deltas = cfg.experiment["deltas"]
    _check_nodes(cfg, (1 + len(deltas)) * _MEMBER_ROW_BYTES)
    scheme_cfg = cfg.scheme_config()
    u0, rho0 = _load_initial_pair(cfg, grid)
    rng = np.random.default_rng(cfg.seed)
    shape_u = random_band_limited(grid, rng, k_max=4)
    shape_rho = random_band_limited(grid, rng, k_max=4)
    reports = stability_experiment(
        u0, rho0, [(d * shape_u, d * shape_rho) for d in deltas], scheme_cfg, cfg.time["T"],
    )
    betas = np.array([rep.beta_fit for rep in reports])
    # one row per delta and node
    time_grid = reports[0].time_grid
    report.tables["stability"] = (["delta", "t", "D", "beta_fit"], np.column_stack([
        np.repeat(deltas, time_grid.size), np.tile(time_grid, len(deltas)),
        np.concatenate([rep.norm_curve for rep in reports]), np.repeat(betas, time_grid.size)]))
    spread = float(np.max(np.abs(betas / betas.mean() - 1.0))) if betas.mean() != 0 else np.inf
    report.summary["beta_values"] = " ".join(_fmt(b) for b in betas)
    report.summary["beta_spread"] = spread
    report.verdicts["gronwall_bound"] = all(rep.bound_holds for rep in reports)
    report.verdicts["beta_agreement_10pct"] = spread <= 0.10


def _run_continuity(cfg: RunConfig, report: ExperimentReport) -> None:
    grid = cfg.make_grid()
    # the unmollified run and j_max + 1 mollified ones
    _check_nodes(cfg, (cfg.experiment["j_max"] + 2) * _MEMBER_ROW_BYTES)
    u0, rho0 = _load_initial_pair(cfg, grid)
    rep = continuity_experiment(
        u0, rho0, cfg.experiment["j_max"], cfg.scheme_config(), cfg.time["T"]
    )
    report.tables["continuity"] = (["j", "epsilon", "error"], np.column_stack(
        [np.arange(rep.errors.size), rep.epsilons, rep.errors]))
    report.summary["final_error"] = rep.final_error
    below = rep.epsilons < grid.dx
    floor_err = float(np.min(rep.errors[below])) if np.any(below) else np.inf
    report.summary["floor_error"] = floor_err
    report.verdicts["errors_nonincreasing"] = rep.nonincreasing
    report.verdicts["floor_reached"] = floor_err <= 1e-5


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
EXPERIMENT_KINDS = tuple(_RUNNERS)
