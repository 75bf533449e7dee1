"""The two-component Fornberg-Whitham system: direct solver, mollified
transport iteration, and the lifespan / stability / continuity experiments.

The evolution is

    u_t + u u_x = Lambda^{-1} d/dx (rho - u)
    rho_t + u rho_x + rho u_x + u_x = 0

with Lambda = 1 - d^2/dx^2, discretized pseudo-spectrally with 2/3-rule
dealiasing of products and classical RK4 in time.  One right-hand-side kernel
acts on the stacked (u, rho) samples; the direct solver integrates it with
the RK4 integrator it shares with the transport solver, and fw_rhs wraps it
for single states.  The constructive scheme
iterates the pair of linear transport problems

    u^{n+1}_t + u^n u^{n+1}_x = Lambda^{-1} d/dx (rho^n - u^n)
    rho^{n+1}_t + u^n rho^{n+1}_x = -rho^n u^n_x - u^n_x

from (u^0, rho^0) = (0, 0), with mollified initial data of width 1/(n+1) for
iterate n+1, and monitors the per-iterate norm bounds

    ||u^n(t)||_{B^s} + ||rho^n(t)||_{B^{s-1}} <= P0 / sqrt(1 - 4 C P0^2 t)
                                              <= 2 P0

on the guaranteed lifespan T = 3 / (16 C P0^2).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .besov import (
    BesovParams,
    LPPartition,
    MollifierKernel,
    besov_norms_batch,
    besov_norms_of_samples,
    build_partition,
    mollify,
)
from .spectral import Grid, GridFunction, dealias_mask
from .transport import (
    BlowUpError,
    TransportProblem,
    integrate_rk4,
    make_time_grid,
    solve_transport,
)

__all__ = [
    "FWState",
    "SchemeConfig",
    "FWTrajectory",
    "IterationTrace",
    "StabilityReport",
    "ContinuityReport",
    "fw_rhs",
    "solve_fw_direct",
    "lifespan",
    "initial_norm",
    "run_scheme",
    "empirical_lifespan",
    "stability_experiment",
    "continuity_experiment",
    "scheme_direct_distance",
]

#: returned by lifespan() for identically zero data
LIFESPAN_CAP = 1e6


@dataclass(frozen=True)
class FWState:
    """A (u, rho) pair at one time instant."""

    u: GridFunction
    rho: GridFunction
    t: float = 0.0

    def __post_init__(self):
        if self.u.grid != self.rho.grid:
            raise ValueError("u and rho must share one grid")

    @property
    def grid(self) -> Grid:
        return self.u.grid


@dataclass(frozen=True)
class SchemeConfig:
    """Parameters of the mollified iteration scheme.

    C is the lifespan constant (the theory only asserts its existence, so it
    is a config input); the mollifier width schedule is eps_n = 1/(n+1) for
    the data of iterate n+1.
    """

    params: BesovParams
    C: float = 1.0
    n_max: int = 10
    dt: float = 1e-3

    def __post_init__(self):
        self.params.require_admissible()
        if self.C <= 0:
            raise ValueError("C must be positive")
        if self.n_max < 1:
            raise ValueError("n_max must be at least 1")
        if self.dt <= 0:
            raise ValueError("dt must be positive")


def _fw_symbols(grid: Grid):
    """The d/dx and Lambda^{-1} d/dx symbols and the 2/3-rule mask."""
    xi = grid.wavenumbers
    ik = 1j * xi
    return ik, ik / (1.0 + xi**2), dealias_mask(grid)


def _fw_rhs(y, ik, lam, mask):
    """Time derivative of the stacked (u, rho) samples y, shape (2, N)."""
    y_hat = np.fft.fft(y)
    u_hat, rho_hat = y_hat
    ux, rhox = np.fft.ifft(ik * y_hat).real
    nonlocal_term = np.fft.ifft(lam * (rho_hat - u_hat)).real
    u, rho = y
    adv = np.fft.ifft(mask * np.fft.fft(np.stack([u * ux, u * rhox + rho * ux]))).real
    return np.stack([-adv[0] + nonlocal_term, -adv[1] - ux])


def fw_rhs(state: FWState) -> tuple[GridFunction, GridFunction]:
    """Right-hand side of the system: (du/dt, drho/dt)."""
    y = np.stack([state.u.samples, state.rho.samples])
    du, drho = _fw_rhs(y, *_fw_symbols(state.grid))
    return (GridFunction.from_samples(state.grid, du),
            GridFunction.from_samples(state.grid, drho))


@dataclass(frozen=True)
class FWTrajectory:
    """Direct-solver output: states at every node plus mean diagnostics."""

    grid: Grid
    time_grid: np.ndarray
    u: np.ndarray = field(repr=False)  # (M+1, N) samples
    rho: np.ndarray = field(repr=False)
    mean_u: np.ndarray = field(repr=False)
    mean_rho: np.ndarray = field(repr=False)

    def state(self, i: int) -> FWState:
        return FWState(
            u=GridFunction.from_samples(self.grid, self.u[i]),
            rho=GridFunction.from_samples(self.grid, self.rho[i]),
            t=float(self.time_grid[i]),
        )


def solve_fw_direct(initial: FWState, T: float, dt: float) -> FWTrajectory:
    """Integrate the nonlinear system with RK4, storing every node.

    NaN/Inf mid-run raises BlowUpError with the offending node; the theory is
    local in time, so a blow-up is an outcome, not an artifact failure.
    """
    grid = initial.grid
    u0 = initial.u.samples
    bound = 0.5 * grid.dx / max(1.0, float(np.max(np.abs(u0))))
    if dt > bound:
        raise ValueError(
            f"dt = {dt} violates the stability bound {bound:.3e} "
            "(0.5*dx/max(1, max|u0|))"
        )
    time_grid = make_time_grid(T, dt)
    symbols = _fw_symbols(grid)
    states = integrate_rk4(
        lambda y, i, w: _fw_rhs(y, *symbols),
        np.stack([u0, initial.rho.samples]), time_grid, dt, "direct solve",
    )
    u_states, rho_states = states[:, 0], states[:, 1]
    return FWTrajectory(
        grid=grid, time_grid=time_grid, u=u_states, rho=rho_states,
        mean_u=u_states.mean(axis=-1), mean_rho=rho_states.mean(axis=-1),
    )


def lifespan(P0: float, C: float, cap: float = LIFESPAN_CAP) -> float:
    """Guaranteed common existence time T = 3 / (16 C P0^2).

    Zero data has unbounded lifespan; the configured cap is returned instead.
    """
    if P0 < 0:
        raise ValueError("P0 must be nonnegative")
    if C <= 0:
        raise ValueError("C must be positive")
    if P0 == 0.0:
        return cap
    return min(3.0 / (16.0 * C * P0**2), cap)


def initial_norm(part: LPPartition, u0: GridFunction, rho0: GridFunction,
                 params: BesovParams) -> float:
    """The size of the data, P0 = ||u0||_{B^s} + ||rho0||_{B^{s-1}}."""
    return float(
        besov_norms_batch(part, u0.coefficients, params)[0]
        + besov_norms_batch(part, rho0.coefficients, params.shift(-1.0))[0]
    )


def _sup_distance(part: LPPartition, du: np.ndarray, drho: np.ndarray,
                  params: BesovParams) -> float:
    """sup_t ||du||_{B^s} + sup_t ||drho||_{B^{s-1}} over sample rows."""
    return float(
        np.max(besov_norms_of_samples(part, du, params))
        + np.max(besov_norms_of_samples(part, drho, params.shift(-1.0)))
    )


@dataclass(frozen=True)
class IterationTrace:
    """Everything recorded while running the mollified iteration scheme.

    Iterate index n runs 0..n_max; iterate 0 is the zero pair.  Norm arrays
    have shape (n_max + 1, M + 1).
    """

    grid: Grid
    time_grid: np.ndarray
    params: BesovParams
    C: float
    P0: float
    T: float
    u_iterates: np.ndarray = field(repr=False)  # (n_max+1, M+1, N) samples
    rho_iterates: np.ndarray = field(repr=False)
    norm_u: np.ndarray = field(repr=False)  # ||u^n(t)||_{B^s}
    norm_rho: np.ndarray = field(repr=False)  # ||rho^n(t)||_{B^{s-1}}
    d_n: np.ndarray  # successive differences, length n_max
    bound_312: np.ndarray  # per-iterate flags for the sqrt bound
    bound_313: np.ndarray  # per-iterate flags for the 2*P0 bound

    @property
    def n_max(self) -> int:
        return self.u_iterates.shape[0] - 1

    def norm_sum(self, n: int) -> np.ndarray:
        return self.norm_u[n] + self.norm_rho[n]


def run_scheme(
    u0: GridFunction,
    rho0: GridFunction,
    cfg: SchemeConfig,
    part: LPPartition | None = None,
) -> IterationTrace:
    """Run the mollified transport iteration on [0, lifespan(P0, C)]."""
    grid = u0.grid
    if rho0.grid != grid:
        raise ValueError("u0 and rho0 must share one grid")
    if part is None:
        part = build_partition(grid)
    params = cfg.params
    sm1 = params.shift(-1.0)

    P0 = initial_norm(part, u0, rho0, params)
    T = lifespan(P0, cfg.C)
    if P0 > 0:
        # 4*C*P0^2*T = 3/4 by construction; guard against misuse
        assert 4.0 * cfg.C * P0**2 * T < 1.0
    # the lifespan is an awkward number; refine dt so the nodes land on T
    n_steps = max(1, int(np.ceil(T / cfg.dt - 1e-12)))
    time_grid = make_time_grid(T, T / n_steps)
    n_nodes = time_grid.size

    ik, lam, mask = _fw_symbols(grid)

    n_it = cfg.n_max + 1
    u_iter = np.zeros((n_it, n_nodes, grid.N))
    rho_iter = np.zeros((n_it, n_nodes, grid.N))

    for n in range(cfg.n_max):
        eps = 1.0 / (n + 1)
        kern = MollifierKernel(epsilon=eps)
        u_init = mollify(u0, kern)
        rho_init = mollify(rho0, kern)

        un = u_iter[n]  # (M+1, N)
        rhon = rho_iter[n]
        un_hat = np.fft.fft(un, axis=-1)
        rhon_hat = np.fft.fft(rhon, axis=-1)
        unx = np.fft.ifft(ik * un_hat, axis=-1).real
        forcing_u = np.fft.ifft(lam * (rhon_hat - un_hat), axis=-1).real
        prod = np.fft.ifft(mask * np.fft.fft(rhon * unx, axis=-1), axis=-1).real
        forcing_rho = -prod - unx

        # u^{n+1} and rho^{n+1} share the velocity u^n: one 2-row solve
        prob = TransportProblem.build(
            grid, time_grid, un, np.stack([forcing_u, forcing_rho], axis=1),
            (u_init, rho_init),
        )
        try:
            traj = solve_transport(prob, params, part=part)
        except (ValueError, BlowUpError) as exc:
            raise RuntimeError(f"transport solve failed at iterate {n + 1}: {exc}") from exc
        u_iter[n + 1] = traj.states[:, 0]
        rho_iter[n + 1] = traj.states[:, 1]

    norm_u = np.empty((n_it, n_nodes))
    norm_rho = np.empty((n_it, n_nodes))
    for n in range(n_it):
        norm_u[n] = besov_norms_of_samples(part, u_iter[n], params)
        norm_rho[n] = besov_norms_of_samples(part, rho_iter[n], sm1)

    d_n = np.array([
        _sup_distance(part, u_iter[n + 1] - u_iter[n],
                      rho_iter[n + 1] - rho_iter[n], sm1)
        for n in range(cfg.n_max)
    ])

    norm_sum = norm_u + norm_rho
    if P0 > 0:
        envelope = P0 / np.sqrt(1.0 - 4.0 * cfg.C * P0**2 * time_grid)
    else:
        envelope = np.zeros(n_nodes)
    slack = 1.0 + 1e-10
    bound_312 = np.all(norm_sum <= envelope[None, :] * slack + 1e-14, axis=1)
    bound_313 = np.all(norm_sum <= 2.0 * P0 * slack + 1e-14, axis=1)

    return IterationTrace(
        grid=grid, time_grid=time_grid, params=params, C=cfg.C, P0=P0, T=T,
        u_iterates=u_iter, rho_iterates=rho_iter, norm_u=norm_u,
        norm_rho=norm_rho, d_n=d_n,
        bound_312=bound_312, bound_313=bound_313,
    )


def scheme_direct_distance(
    trace: IterationTrace,
    direct: FWTrajectory,
    part: LPPartition | None = None,
) -> float:
    """sup-in-time distance of the last iterate to a direct solve, measured
    in B^{s-1} x B^{s-2} (the spaces where the iterates converge)."""
    if part is None:
        part = build_partition(trace.grid)
    if direct.time_grid.size != trace.time_grid.size:
        raise ValueError("trace and direct trajectory use different time grids")
    return _sup_distance(part, trace.u_iterates[-1] - direct.u,
                         trace.rho_iterates[-1] - direct.rho,
                         trace.params.shift(-1.0))


def empirical_lifespan(
    u0: GridFunction,
    rho0: GridFunction,
    cfg: SchemeConfig,
    t_cap: float,
    mode: str = "direct",
    part: LPPartition | None = None,
) -> float:
    """Largest time node at which ||u|| + ||rho|| still sits under 2*P0.

    mode "direct" integrates the nonlinear system on [0, t_cap]; mode
    "scheme" runs the iteration and uses its last iterate.  A numerical
    blow-up truncates the trajectory at the last finite node.
    """
    if part is None:
        part = build_partition(u0.grid)
    params = cfg.params
    P0 = initial_norm(part, u0, rho0, params)

    if mode == "direct":
        try:
            traj = solve_fw_direct(FWState(u=u0, rho=rho0), t_cap, cfg.dt)
            u, rho, time_grid = traj.u, traj.rho, traj.time_grid
        except BlowUpError as exc:
            if exc.node <= 1:
                raise
            # keep the finite prefix
            u, rho = exc.states[:, 0], exc.states[:, 1]
            time_grid = make_time_grid(t_cap, cfg.dt)[:exc.node]
    elif mode == "scheme":
        scaled = SchemeConfig(params=params, C=3.0 / (16.0 * t_cap * P0**2)
                              if P0 > 0 else cfg.C, n_max=cfg.n_max, dt=cfg.dt)
        trace = run_scheme(u0, rho0, scaled, part=part)
        u, rho = trace.u_iterates[-1], trace.rho_iterates[-1]
        time_grid = trace.time_grid
    else:
        raise ValueError(f"unknown mode {mode!r}")

    # near-blow-up nodes can overflow the L^p sums; inf counts as a violation
    with np.errstate(over="ignore"):
        norm_sum = (
            besov_norms_of_samples(part, u, params)
            + besov_norms_of_samples(part, rho, params.shift(-1.0))
        )
    ok = norm_sum <= 2.0 * P0 * (1.0 + 1e-10) + 1e-14
    if not ok[0]:
        raise RuntimeError(
            "norm bound violated at t = 0; mollification inflated the data"
        )
    violations = np.nonzero(~ok)[0]
    last = violations[0] - 1 if violations.size else time_grid.size - 1
    return float(time_grid[last])


@dataclass(frozen=True)
class StabilityReport:
    """Distance curve between two solutions and the fitted exponential rate."""

    time_grid: np.ndarray
    norm_curve: np.ndarray  # D(t) = ||w||_{B^{s-1}} + ||v||_{B^{s-2}}
    beta_fit: float
    bound_holds: bool

    @property
    def initial_distance(self) -> float:
        return float(self.norm_curve[0])


def stability_experiment(
    u0: GridFunction,
    rho0: GridFunction,
    delta_u: GridFunction,
    delta_rho: GridFunction,
    cfg: SchemeConfig,
    T: float,
    part: LPPartition | None = None,
    slack: float = 0.05,
) -> StabilityReport:
    """Perturb the data, solve both problems, and fit the exponential rate
    of the solution distance D(t) in B^{s-1} x B^{s-2}.

    beta is the least-squares slope of log D(t); the report asserts
    D(t) <= D(0) * exp(beta * t) * (1 + slack) at every node.
    """
    if part is None:
        part = build_partition(u0.grid)
    sm1 = cfg.params.shift(-1.0)
    sm2 = cfg.params.shift(-2.0)

    base = solve_fw_direct(FWState(u=u0, rho=rho0), T, cfg.dt)
    pert = solve_fw_direct(
        FWState(u=u0 + delta_u, rho=rho0 + delta_rho), T, cfg.dt
    )
    D = (besov_norms_of_samples(part, pert.u - base.u, sm1)
         + besov_norms_of_samples(part, pert.rho - base.rho, sm2))

    if D[0] == 0.0:
        return StabilityReport(
            time_grid=base.time_grid, norm_curve=D, beta_fit=0.0,
            bound_holds=bool(np.all(D == 0.0)),
        )

    beta = float(np.polyfit(base.time_grid, np.log(D), 1)[0])
    bound = D[0] * np.exp(beta * base.time_grid) * (1.0 + slack)
    return StabilityReport(
        time_grid=base.time_grid, norm_curve=D, beta_fit=beta,
        bound_holds=bool(np.all(D <= bound)),
    )


@dataclass(frozen=True)
class ContinuityReport:
    """Solution distances for the mollified-data family eps_j = 2^{-j}."""

    epsilons: np.ndarray
    errors: np.ndarray  # sup_t ||u^j - u||_{B^s} + ||rho^j - rho||_{B^{s-1}}
    nonincreasing: bool
    final_error: float


def continuity_experiment(
    u0: GridFunction,
    rho0: GridFunction,
    j_max: int,
    cfg: SchemeConfig,
    T: float,
    part: LPPartition | None = None,
) -> ContinuityReport:
    """Solve from mollified data of widths 2^{-j} and compare trajectories
    with the run from unmollified data.

    Once eps_j drops below the grid spacing the discrete mollifier is the
    identity and the distance hits the numerical floor.
    """
    if j_max < 3:
        raise ValueError("j_max must be at least 3")
    if part is None:
        part = build_partition(u0.grid)

    reference = solve_fw_direct(FWState(u=u0, rho=rho0), T, cfg.dt)
    epsilons = 2.0 ** (-np.arange(j_max + 1, dtype=float))
    errors = np.empty(j_max + 1)
    for j, eps in enumerate(epsilons):
        kern = MollifierKernel(epsilon=float(eps))
        try:
            traj = solve_fw_direct(
                FWState(u=mollify(u0, kern), rho=mollify(rho0, kern)),
                T, cfg.dt,
            )
        except BlowUpError as exc:
            raise RuntimeError(
                f"continuity family member j = {j} blew up: {exc}"
            ) from exc
        errors[j] = _sup_distance(part, traj.u - reference.u,
                                  traj.rho - reference.rho, cfg.params)

    nonincreasing = bool(np.all(np.diff(errors) <= 1e-12))
    return ContinuityReport(
        epsilons=epsilons, errors=errors, nonincreasing=nonincreasing,
        final_error=float(errors[-1]),
    )
