"""Linear transport solver and empirical verification of the a priori estimate.

The initial-value problem

    f_t + v f_x = F,   f(x, 0) = f0(x)

is integrated with classical four-stage RK4 in time and spectral derivatives
in space; the prescribed velocity and forcing are given at the time nodes and
linearly interpolated at half steps.  The advective product v * f_x is
dealiased with the 2/3 rule.  The RK4 integrator, integrate_rk4, is shared
with the direct Fornberg-Whitham solver and owns the blow-up check.

One problem may carry a batch of B rows (initial data and forcing) driven by
one shared velocity; they are integrated together, one FFT per stage for the
whole batch.  The mollified scheme solves its u and rho transport problems
this way.  The V(t) profile of a trajectory is computed when first read.

The companion checker evaluates, node by node,

    ||f(t)||_{B^s} <= e^{C V(t)} ( ||f0||_{B^s} + C int_0^t e^{-C V} ||F|| )

with V(t) the running time-integral of ||v_x||_{B^{s-1}}, and a calibration
routine bisects for the smallest constant C that makes the estimate hold over
a family of problems.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Sequence

import numpy as np

from .besov import BesovParams, LPPartition, besov_norms_of_samples, build_partition
from .spectral import Grid, GridFunction, dealias_mask

__all__ = [
    "TransportProblem",
    "TransportTrajectory",
    "TransportEstimateReport",
    "BlowUpError",
    "make_time_grid",
    "integrate_rk4",
    "solve_transport",
    "verify_transport_estimate",
    "fit_transport_constant",
]

#: advective stability margin: dt <= CFL_FACTOR * dx / max|v|
CFL_FACTOR = 0.5

#: calibration gives up above this constant
C_CAP = 1e6


class BlowUpError(RuntimeError):
    """NaN/Inf detected mid-run; carries the offending time node and the
    finite states at nodes 0..node-1."""

    def __init__(self, message: str, node: int, t: float, states: np.ndarray):
        super().__init__(message)
        self.node = node
        self.t = t
        self.states = states


def make_time_grid(T: float, dt: float) -> np.ndarray:
    """Uniform nodes 0 = t_0 < ... < t_M = T with step dt (dt must divide T)."""
    if T <= 0 or dt <= 0:
        raise ValueError("T and dt must be positive")
    M = int(round(T / dt))
    if M < 1 or abs(M * dt - T) > 1e-9 * max(T, 1.0):
        raise ValueError(f"dt = {dt} does not divide T = {T}")
    return np.linspace(0.0, T, M + 1)


def integrate_rk4(rhs, y0: np.ndarray, time_grid: np.ndarray, dt: float,
                  what: str) -> np.ndarray:
    """Classical RK4 from y0 over every node of time_grid with step dt.

    rhs(y, i, w) is the time derivative at state y and time t_i + w*dt for
    w in {0, 1/2, 1}.  Returns the states at every node, shape
    (nodes,) + y0.shape.  A non-finite state raises BlowUpError carrying the
    finite prefix; blow-up is an expected outcome, so overflow on the way
    to it is not warned about.
    """
    states = np.empty((time_grid.size,) + y0.shape)
    states[0] = y0
    y = y0
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(time_grid.size - 1):
            k1 = rhs(y, i, 0.0)
            k2 = rhs(y + 0.5 * dt * k1, i, 0.5)
            k3 = rhs(y + 0.5 * dt * k2, i, 0.5)
            k4 = rhs(y + dt * k3, i, 1.0)
            y = y + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            if not np.all(np.isfinite(y)):
                raise BlowUpError(
                    f"{what} lost finiteness at node {i + 1} "
                    f"(t = {time_grid[i + 1]:.6g})",
                    node=i + 1, t=float(time_grid[i + 1]), states=states[:i + 1],
                )
            states[i + 1] = y
    return states


def _as_sample_matrix(grid: Grid, fields: Sequence[GridFunction] | np.ndarray,
                      shape: tuple[int, ...], name: str) -> np.ndarray:
    if isinstance(fields, np.ndarray):
        arr = np.asarray(fields, dtype=float)
    else:
        for f in fields:
            if f.grid != grid:
                raise ValueError(f"{name} field grid mismatch")
        arr = np.array([f.samples for f in fields], dtype=float)
    if arr.shape != shape:
        raise ValueError(
            f"{name} must provide one field per time node: expected "
            f"{shape}, got {arr.shape}"
        )
    return arr


@dataclass(frozen=True)
class TransportProblem:
    """Velocity, forcing and initial data sharing one spatial and time grid.

    ``initial`` is one GridFunction, or a tuple of B of them solved as a
    batch: the rows share the velocity and the forcing has one row each.
    """

    grid: Grid
    time_grid: np.ndarray
    velocity: np.ndarray = field(repr=False)  # (M+1, N) samples
    forcing: np.ndarray = field(repr=False)  # (M+1, N) or (M+1, B, N) samples
    initial: GridFunction | tuple[GridFunction, ...]

    @classmethod
    def build(cls, grid: Grid, time_grid: np.ndarray, velocity, forcing,
              initial: GridFunction | Sequence[GridFunction]) -> "TransportProblem":
        time_grid = np.asarray(time_grid, dtype=float)
        n_nodes = time_grid.size
        steps = np.diff(time_grid)
        if n_nodes < 2 or not np.allclose(steps, steps[0], rtol=1e-9, atol=0.0):
            raise ValueError("time grid must be uniform with at least one step")
        if isinstance(initial, GridFunction):
            fields, rows = (initial,), ()
        else:
            initial = fields = tuple(initial)
            rows = (len(fields),)
        if any(f.grid != grid for f in fields):
            raise ValueError("initial field grid mismatch")
        v = _as_sample_matrix(grid, velocity, (n_nodes, grid.N), "velocity")
        F = _as_sample_matrix(grid, forcing, (n_nodes,) + rows + (grid.N,), "forcing")
        return cls(grid=grid, time_grid=time_grid, velocity=v, forcing=F,
                   initial=initial)

    @property
    def initial_samples(self) -> np.ndarray:
        """Initial data, shape (N,) or (B, N) for a batch."""
        if isinstance(self.initial, GridFunction):
            return self.initial.samples
        return np.stack([f.samples for f in self.initial])

    @property
    def dt(self) -> float:
        return float(self.time_grid[1] - self.time_grid[0])

    @property
    def T(self) -> float:
        return float(self.time_grid[-1])


@dataclass(frozen=True)
class TransportTrajectory:
    """Solution states at every node; the running V(t) integral is computed
    on first read of ``V_profile``."""

    problem: TransportProblem
    states: np.ndarray = field(repr=False)  # (M+1, N) or (M+1, B, N) samples
    params: BesovParams
    part: LPPartition | None = field(default=None, repr=False, compare=False)

    @property
    def time_grid(self) -> np.ndarray:
        return self.problem.time_grid

    def state(self, i: int) -> GridFunction:
        return GridFunction.from_samples(self.problem.grid, self.states[i])

    @cached_property
    def V_profile(self) -> np.ndarray:
        """V(t) = int_0^t ||v_x||_{B^{s-1}}, one profile for every row."""
        prob = self.problem
        part = self.part if self.part is not None else build_partition(prob.grid)
        ik = 1j * prob.grid.wavenumbers
        vx = np.fft.ifft(ik * np.fft.fft(prob.velocity, axis=-1), axis=-1).real
        return _cumtrapz(
            besov_norms_of_samples(part, vx, self.params.shift(-1.0)), prob.dt
        )


def _cumtrapz(values: np.ndarray, dt: float) -> np.ndarray:
    out = np.zeros_like(values)
    out[1:] = np.cumsum(0.5 * (values[1:] + values[:-1])) * dt
    return out


def _check_cfl(grid: Grid, velocity: np.ndarray, dt: float) -> None:
    vmax = float(np.max(np.abs(velocity)))
    if vmax > 0 and dt > CFL_FACTOR * grid.dx / vmax:
        raise ValueError(
            f"dt = {dt} violates the advective stability bound "
            f"{CFL_FACTOR * grid.dx / vmax:.3e} (max|v| = {vmax:.3e})"
        )


def solve_transport(
    prob: TransportProblem,
    params: BesovParams,
    part: LPPartition | None = None,
) -> TransportTrajectory:
    """Integrate the transport problem and record every intermediate state.

    A batched problem integrates its B rows together and returns states of
    shape (M+1, B, N); a one-row problem returns (M+1, N).  The Besov
    parameters fix the exponent of the V(t) profile, which uses
    ||v_x||_{B^{s-1}} as in the a priori estimate; the profile and the
    partition it needs (``part``, built if omitted) are only used when
    ``V_profile`` is read.
    """
    grid = prob.grid
    dt = prob.dt
    _check_cfl(grid, prob.velocity, dt)

    ik = 1j * grid.wavenumbers
    mask = dealias_mask(grid)
    v, F = prob.velocity, prob.forcing

    def rhs(f, i, w):
        if w == 0.5:
            vw, Fw = 0.5 * (v[i] + v[i + 1]), 0.5 * (F[i] + F[i + 1])
        else:
            vw, Fw = v[i + int(w)], F[i + int(w)]
        fx = np.fft.ifft(ik * np.fft.fft(f)).real
        adv = np.fft.ifft(mask * np.fft.fft(vw * fx)).real
        return -adv + Fw

    states = integrate_rk4(rhs, prob.initial_samples, prob.time_grid, dt,
                           "transport solution")
    return TransportTrajectory(problem=prob, states=states, params=params,
                               part=part)


@dataclass(frozen=True)
class TransportEstimateReport:
    """Per-node outcome of the a priori estimate at one constant C."""

    C: float
    time_grid: np.ndarray
    f_norms: np.ndarray
    F_norms: np.ndarray
    V_profile: np.ndarray
    lhs: np.ndarray
    rhs: np.ndarray
    holds: np.ndarray
    max_violation_ratio: float


def _check_estimate_admissible(params: BesovParams) -> None:
    inv_p = 0.0 if np.isinf(params.p) else 1.0 / params.p
    strict = params.s > 1.0 + inv_p and 1.0 < params.r < np.inf
    limiting = params.s >= 1.0 + inv_p and params.r == 1.0
    if not (strict or limiting):
        raise ValueError(
            f"(s, p, r) = ({params.s}, {params.p}, {params.r}) is outside the "
            "estimate's hypothesis: need s > 1 + 1/p with r in (1, inf), or "
            "s >= 1 + 1/p with r = 1"
        )


def _estimate_profiles(traj: TransportTrajectory, part: LPPartition):
    """Node-wise ||f||, ||F|| in B^s and the V profile, computed once."""
    f_norms = besov_norms_of_samples(part, traj.states, traj.params)
    F_norms = besov_norms_of_samples(part, traj.problem.forcing, traj.params)
    return f_norms, F_norms, traj.V_profile


def _evaluate_estimate(C: float, dt: float, f_norms, F_norms, V):
    expV = np.exp(C * V)
    integrand = np.exp(-C * V) * F_norms
    integral = _cumtrapz(integrand, dt)
    rhs = expV * (f_norms[0] + C * integral)
    lhs = f_norms
    holds = lhs <= rhs * (1.0 + 1e-10)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratios = np.where(rhs > 0, lhs / rhs, np.inf)
    return lhs, rhs, holds, float(np.max(ratios))


def verify_transport_estimate(
    traj: TransportTrajectory,
    params: BesovParams,
    C: float,
    part: LPPartition | None = None,
) -> TransportEstimateReport:
    """Evaluate both sides of the a priori estimate at every node."""
    if C <= 0:
        raise ValueError("C must be positive")
    if params != traj.params:
        raise ValueError(
            "trajectory was solved with different Besov parameters; its V "
            "profile would be inconsistent"
        )
    _check_estimate_admissible(params)
    if part is None:
        part = build_partition(traj.problem.grid)
    f_norms, F_norms, V = _estimate_profiles(traj, part)
    lhs, rhs, holds, max_ratio = _evaluate_estimate(
        C, traj.problem.dt, f_norms, F_norms, V
    )
    return TransportEstimateReport(
        C=C, time_grid=traj.time_grid, f_norms=f_norms, F_norms=F_norms,
        V_profile=V, lhs=lhs, rhs=rhs, holds=holds,
        max_violation_ratio=max_ratio,
    )


def fit_transport_constant(
    problems: Sequence[TransportProblem],
    params: BesovParams,
    rtol: float = 1e-3,
    cap: float = C_CAP,
) -> float:
    """Smallest C for which the estimate holds at every node of every problem.

    Bisection to the requested relative tolerance; raises if no constant
    below the cap works.
    """
    if len(problems) == 0:
        raise ValueError("problem family is empty")
    _check_estimate_admissible(params)

    parts: dict[Grid, LPPartition] = {}
    profiles = []
    for prob in problems:
        if prob.grid not in parts:
            parts[prob.grid] = build_partition(prob.grid)
        part = parts[prob.grid]
        traj = solve_transport(prob, params, part=part)
        profiles.append((prob.dt,) + _estimate_profiles(traj, part))

    def all_hold(C: float) -> bool:
        return all(
            bool(np.all(_evaluate_estimate(C, dt, fn, Fn, V)[2]))
            for dt, fn, Fn, V in profiles
        )

    hi = 1.0
    while not all_hold(hi):
        hi *= 2.0
        if hi > cap:
            raise RuntimeError(
                f"transport-constant calibration failed: no C below {cap:g}"
            )
    lo = 0.0
    # a problem whose norm profile never exceeds the C -> 0 limit of the
    # right-hand side admits every positive C; stop at an absolute floor
    # instead of bisecting into denormals
    while hi - lo > rtol * hi and hi > 1e-12:
        mid = 0.5 * (lo + hi)
        if mid > 0 and all_hold(mid):
            hi = mid
        else:
            lo = mid
    return hi
