"""Acceptance suite: one test (and one printed verdict line) per criterion.

Run with -v for the per-criterion pass/fail lines, or -s to see the printed
verdicts and the measured numbers behind them.
"""

import numpy as np
import pytest

from fwlab import (
    BesovParams,
    GridFunction,
    MollifierKernel,
    SchemeConfig,
    TransportProblem,
    besov_norm,
    build_partition,
    dyadic_block,
    fit_transport_constant,
    lifespan,
    make_grid,
    mollify,
    run_scheme,
    scheme_direct_distance,
    solve_fw_direct,
    solve_transport,
    verify_transport_estimate,
)
from fwlab.fw import continuity_experiment, empirical_lifespan, stability_experiment
from fwlab.harness import parse_config, random_transport_problem, run_experiment
from fwlab.transport import make_time_grid

from conftest import random_field


def _verdict(num: int, name: str, ok: bool, detail: str = "") -> None:
    line = f"criterion {num:02d} {name}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  ({detail})"
    print(line)
    assert ok, line


def test_01_partition_identity():
    worst = 0.0
    for N in (128, 256, 1024):
        for L in (1.0, 8.0):
            part = build_partition(make_grid(N, L))
            residual = np.max(np.abs(part.masks.sum(axis=0) - 1.0))
            worst = max(worst, float(residual))
    _verdict(1, "partition identity", worst <= 1e-12, f"max residual {worst:.2e}")


def test_02_reconstruction_and_orthogonality(grid256, part256):
    rng = np.random.default_rng(0)
    worst_rec, worst_orth = 0.0, 0.0
    qs = range(-1, part256.q_max + 1)
    for _ in range(20):
        f = random_field(grid256, rng)
        norm = np.linalg.norm(f.samples)
        blocks = {q: dyadic_block(f, q) for q in qs}
        total = sum(b.samples for b in blocks.values())
        worst_rec = max(worst_rec, float(np.linalg.norm(total - f.samples) / norm))
        for p in qs:
            for q in qs:
                if abs(p - q) >= 2:
                    double = dyadic_block(blocks[q], p)
                    worst_orth = max(
                        worst_orth, float(np.linalg.norm(double.samples) / norm)
                    )
    ok = worst_rec <= 1e-10 and worst_orth <= 1e-12
    _verdict(2, "reconstruction / almost orthogonality", ok,
             f"rec {worst_rec:.2e}, orth {worst_orth:.2e}")


def test_03_single_mode_besov_norm():
    # chi/phi evaluated here from the glue-function definition, independently
    # of the partition code
    def glue(x):
        return np.where(x > 0, np.exp(-1.0 / np.maximum(x, 1e-300)), 0.0)

    def chi(t):
        t = np.abs(np.asarray(t, dtype=float))
        a, b = glue(4.0 / 3.0 - t), glue(t - 0.75)
        return a / (a + b)

    def phi(t):
        return chi(np.asarray(t) / 2.0) - chi(t)

    grid = make_grid(256, 1.0)
    samples = np.sin(8 * grid.x)
    f = GridFunction.from_samples(grid, samples)
    part = build_partition(grid)

    def lp(values, p):
        if np.isinf(p):
            return float(np.max(np.abs(values)))
        return float((grid.dx * np.sum(np.abs(values) ** p)) ** (1.0 / p))

    worst = 0.0
    for s, p, r in ((3.0, 2.0, 2.0), (2.6, 4.0, 1.0), (3.0, np.inf, 3.0)):
        terms = [
            (2.0 ** (s * q) * lp(float(phi(8.0 / 2**q)) * samples, p)) ** r
            for q in (2, 3)
        ]
        expected = float(np.sum(terms)) ** (1.0 / r)
        got = besov_norm(f, BesovParams(s, p, r))
        worst = max(worst, abs(got - expected) / expected)
    _verdict(3, "single-mode Besov norm", worst <= 1e-10, f"max rel err {worst:.2e}")


def test_04_r_and_s_monotonicity(grid256, part256):
    rng = np.random.default_rng(1)
    slack = 1.0 + 1e-12
    violations = 0
    for _ in range(50):
        f = random_field(grid256, rng)
        by_s = [besov_norm(f, BesovParams(s, 2.0, 2.0))
                for s in (2.6, 3.0, 3.5)]
        by_r = [besov_norm(f, BesovParams(3.0, 2.0, r))
                for r in (1.0, 2.0, 4.0)]
        if not all(a <= b * slack for a, b in zip(by_s, by_s[1:])):
            violations += 1
        if not all(a * slack >= b for a, b in zip(by_r, by_r[1:])):
            violations += 1
    _verdict(4, "r-/s-monotonicity", violations == 0, f"{violations} violations")


def test_05_transport_exactness(params322):
    grid = make_grid(256, 1.0)
    c = 0.7
    f0 = GridFunction.from_samples(grid, np.sin(3 * grid.x) + 0.2 * np.cos(5 * grid.x))

    def solve(dt, T=1.0):
        tg = make_time_grid(T, dt)
        n = tg.size
        prob = TransportProblem.build(
            tg, np.full((n, grid.N), c), np.zeros((n, grid.N)), f0
        )
        return solve_transport(prob).states[-1]

    def exact(T):
        return np.sin(3 * (grid.x - c * T)) + 0.2 * np.cos(5 * (grid.x - c * T))

    err_fine = float(np.max(np.abs(solve(1e-3) - exact(1.0))))
    e_coarse = float(np.max(np.abs(solve(8e-3) - exact(1.0))))
    e_half = float(np.max(np.abs(solve(4e-3) - exact(1.0))))
    ratio = e_coarse / e_half
    ok = err_fine <= 1e-8 and ratio >= 12.0
    _verdict(5, "transport exactness", ok,
             f"sup err {err_fine:.2e}, halving ratio {ratio:.1f}")


def test_06_transport_estimate(grid256, params322):
    # degenerate case: v = 0 makes the estimate a triangle inequality
    rng = np.random.default_rng(0)
    tg = make_time_grid(1.0, 1e-2)
    n = tg.size
    f0 = random_field(grid256, rng)
    F = random_field(grid256, rng, amplitude=0.5)
    prob = TransportProblem.build(
        tg, np.zeros((n, grid256.N)), np.tile(F.samples, (n, 1)), f0
    )
    traj = solve_transport(prob)
    degenerate_ok = bool(np.all(verify_transport_estimate(traj, params322, 1.0).holds))

    train = [random_transport_problem(grid256, rng, T=1.0, dt=5e-3) for _ in range(10)]
    C_emp = fit_transport_constant(train, params322)
    held_out = [random_transport_problem(grid256, rng, T=1.0, dt=5e-3) for _ in range(10)]
    violations = 0
    for p in held_out:
        t = solve_transport(p)
        rep = verify_transport_estimate(t, params322, C_emp)
        violations += int(not np.all(rep.holds))
    ok = degenerate_ok and np.isfinite(C_emp) and violations == 0
    _verdict(6, "transport a priori estimate", ok,
             f"C_emp {C_emp:.3g}, held-out violations {violations}")


def test_07_conservation_and_steady_states(grid256):
    const = solve_fw_direct(
        GridFunction.from_samples(grid256, np.full(grid256.N, 0.7)),
        GridFunction.from_samples(grid256, np.full(grid256.N, -0.3)),
        1.0, 1e-3,
    )
    steady_err = max(
        float(np.max(np.abs(const.u - 0.7))), float(np.max(np.abs(const.rho + 0.3)))
    )
    traj = solve_fw_direct(
        GridFunction.from_samples(grid256, 0.1 * np.sin(grid256.x)),
        GridFunction.from_samples(grid256, 0.1 * np.cos(grid256.x)),
        1.0, 1e-3,
    )
    mean_drift = max(
        float(np.max(np.abs(traj.mean_u - traj.mean_u[0]))),
        float(np.max(np.abs(traj.mean_rho - traj.mean_rho[0]))),
    )
    ok = steady_err <= 1e-12 and mean_drift <= 1e-10
    _verdict(7, "conservation / steady states", ok,
             f"steady {steady_err:.2e}, mean drift {mean_drift:.2e}")


def test_08_scheme_first_step(grid256, part256, params322):
    u0 = GridFunction.from_samples(grid256, 0.1 * np.sin(grid256.x))
    rho0 = GridFunction.from_samples(grid256, 0.1 * np.cos(grid256.x))
    cfg = SchemeConfig(params=params322, C=1.0, n_max=2, dt=1e-2)
    trace = run_scheme(u0, rho0, cfg)
    kern = MollifierKernel(1.0)
    err = max(
        float(np.max(np.abs(trace.first[:, 0] - mollify(u0, kern).samples[None, :]))),
        float(np.max(np.abs(trace.first[:, 1] - mollify(rho0, kern).samples[None, :]))),
    )
    _verdict(8, "scheme first-step closed form", err <= 1e-10, f"sup err {err:.2e}")


def test_09_iteration_convergence(grid256, part256, params322):
    u0 = GridFunction.from_samples(grid256, 0.1 * np.sin(grid256.x))
    rho0 = GridFunction.from_samples(grid256, 0.1 * np.cos(grid256.x))
    cfg = SchemeConfig(params=params322, C=1.0, n_max=10, dt=2e-3)
    trace = run_scheme(u0, rho0, cfg)
    ratios = trace.d_n[2:] / trace.d_n[1:-1]
    contracting = bool(np.all(ratios < 1.0))
    dt_actual = float(np.diff(trace.time_grid)[0])
    direct = solve_fw_direct(u0, rho0, trace.T, dt_actual)
    dist = scheme_direct_distance(trace, direct)
    ok = contracting and dist <= 1e-4
    _verdict(9, "iteration convergence", ok,
             f"max ratio {float(np.max(ratios)):.3f}, distance {dist:.2e}")


def test_10_lifespan_scaling(grid256, part256, params322):
    # Theorem-style prediction T proportional to P0^{-2}; the product
    # T_emp * P0^2 should be amplitude-independent.  The rest state of this
    # system is linearly unstable (the dispersion relation has growing modes
    # for every amplitude), so small data does not buy quadratically longer
    # survival under the 2*P0 threshold; this criterion records that finding.
    cfg = SchemeConfig(params=params322, C=1.0, dt=5e-3)
    products = []
    for a in (0.25, 0.5, 1.0, 2.0):
        u0 = GridFunction.from_samples(grid256, a * np.sin(grid256.x))
        rho0 = GridFunction.from_samples(grid256, a * np.cos(grid256.x))
        P0 = besov_norm(u0, params322) + besov_norm(rho0, params322.shift(-1.0))
        T_emp = empirical_lifespan(u0, rho0, cfg, t_cap=20.0)
        products.append(T_emp * P0**2)
    products = np.array(products)
    geo = float(np.exp(np.mean(np.log(products))))
    spread = float(np.max(np.abs(products / geo - 1.0)))
    _verdict(10, "lifespan scaling", spread <= 0.30,
             f"products {np.round(products, 3).tolist()}, spread {spread:.0%}")


def test_11_gronwall_stability(grid256, part256, params322):
    u0 = GridFunction.from_samples(grid256, 0.1 * np.sin(grid256.x))
    rho0 = GridFunction.from_samples(grid256, 0.1 * np.cos(grid256.x))
    shape_u = GridFunction.from_samples(grid256, np.sin(2 * grid256.x))
    shape_rho = GridFunction.from_samples(grid256, np.cos(3 * grid256.x))
    cfg = SchemeConfig(params=params322, dt=2e-3)
    reports = stability_experiment(
        u0, rho0, [(d * shape_u, d * shape_rho) for d in (1e-2, 1e-3, 1e-4)],
        cfg, T=1.0,
    )
    betas, bounds = [], []
    for rep in reports:
        betas.append(rep.beta_fit)
        bounds.append(rep.bound_holds)
    betas = np.array(betas)
    spread = float(np.max(np.abs(betas / betas.mean() - 1.0)))
    ok = all(bounds) and spread <= 0.10
    _verdict(11, "Gronwall stability", ok,
             f"betas {np.round(betas, 4).tolist()}, spread {spread:.1%}")


def test_12_continuity_of_data_to_solution(grid256, part256, params322):
    u0 = GridFunction.from_samples(grid256, 0.1 * np.sin(grid256.x))
    rho0 = GridFunction.from_samples(grid256, 0.1 * np.cos(grid256.x))
    cfg = SchemeConfig(params=params322, dt=2e-3)
    rep = continuity_experiment(u0, rho0, j_max=5, cfg=cfg, T=1.0)
    below = rep.epsilons < grid256.dx
    floor = float(np.min(rep.errors[below]))
    ok = rep.nonincreasing and floor <= 1e-5
    _verdict(12, "continuity of data-to-solution map", ok,
             f"floor {floor:.2e}, nonincreasing {rep.nonincreasing}")


def test_13_determinism(tmp_path):
    configs = [
        "experiment: {kind: norm}\nseed: 5\n",
        "experiment: {kind: partition-check}\nseed: 5\n",
        "experiment: {kind: transport, velocity: sine, forcing: sine}\n"
        "time: {T: 0.2, dt: 0.002}\nseed: 5\n",
        "experiment: {kind: simulate, amplitude: 0.05}\n"
        "time: {T: 0.2, dt: 0.002}\nseed: 5\n",
        "experiment: {kind: iterate, amplitude: 0.05}\n"
        "scheme: {n_max: 3}\ntime: {dt: 0.005}\nseed: 5\n",
        "experiment: {kind: lifespan-sweep, amplitudes: [0.5, 1.0]}\n"
        "time: {T: 2.0, dt: 0.005}\nseed: 5\n",
        "experiment: {kind: stability, deltas: [1e-2, 1e-3]}\n"
        "time: {T: 0.2, dt: 0.002}\nseed: 5\n",
        "experiment: {kind: continuity, j_max: 3}\n"
        "time: {T: 0.2, dt: 0.002}\nseed: 5\n",
    ]
    digests = []
    for run in ("first", "second"):
        blobs = []
        for i, text in enumerate(configs):
            out = tmp_path / run / str(i)
            cfg = parse_config(text + f"output_dir: {out}\n")
            run_experiment(cfg)
            for csv_path in sorted(out.glob("*.csv")):
                blobs.append(csv_path.read_bytes())
        digests.append(blobs)
    same = digests[0] == digests[1] and len(digests[0]) > 0
    _verdict(13, "determinism", same, f"{len(digests[0])} CSVs compared")
