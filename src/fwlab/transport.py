"""Linear transport solver and empirical verification of the a priori estimate.

The initial-value problem

    f_t + v f_x = F,   f(x, 0) = f0(x)

is integrated with classical RK4 in time and spectral derivatives in space,
the velocity and forcing given at the time nodes and linear at half steps,
the advective product dealiased with the 2/3 rule.  _rk4_step is the one
RK4 step of both solvers, and integrate_rk4 a loop over it that yields one
state per node; a state that is not finite raises BlowUpError.  A problem holds sample arrays only,
a field constant in time given once; solve_transport stores the given data
as node 0.  The companion checker evaluates, node by node,

    ||f(t)||_{B^s} <= e^{C V(t)} ( ||f0||_{B^s} + C int_0^t e^{-C V} ||F|| )

with V(t) the running time-integral of ||v_x||_{B^{s-1}}, and a calibration
routine bisects for the smallest constant C that makes the estimate hold over
a family of problems.  How the march carries and transforms its state, and
how the scheme's wave shares its kernel, is told in README.md (Library,
fwlab.transport).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain
from typing import Sequence

import numpy as np

from .besov import BesovParams, besov_norms_of_samples, build_partition
from .spectral import Grid, GridFunction, _half_symbols

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

#: calibration bisects to this relative tolerance
C_RTOL = 1e-3

#: calibration gives up above this constant
C_CAP = 1e6


class BlowUpError(RuntimeError):
    """NaN/Inf detected mid-run at time node ``node`` (time ``t``), in the
    ``rows`` of the state, the entries of its second-last axis (the members
    of a direct stack; ``()`` for a 1-D state)."""

    def __init__(self, message: str, node: int, t: float, rows: tuple):
        super().__init__(message)
        self.node = node
        self.t = t
        self.rows = rows


def make_time_grid(T: float, dt: float) -> np.ndarray:
    """Uniform nodes 0 = t_0 < ... < t_M = T with step dt (dt must divide T)."""
    if not 0 < T < np.inf:
        raise ValueError("T must be positive and finite")
    if not 0 < dt < np.inf:
        raise ValueError("dt must be positive and finite")
    M = int(round(T / dt))
    if M < 1 or abs(M * dt - T) > 1e-9 * max(T, 1.0):
        raise ValueError(f"dt = {dt} does not divide T = {T}")
    return np.linspace(0.0, T, M + 1)


def _rk4_step(rhs, y: np.ndarray, i: int, dt: float) -> np.ndarray:
    """One classical RK4 step of y from t_i to t_i + dt, with rhs as
    integrate_rk4 takes it.  Blow-up is an expected outcome, so overflow on
    the way to it is not warned about."""
    with np.errstate(over="ignore", invalid="ignore"):
        k1 = rhs(y, i, 0.0)
        k2 = rhs(y + 0.5 * dt * k1, i, 0.5)
        k3 = rhs(y + 0.5 * dt * k2, i, 0.5)
        k4 = rhs(y + dt * k3, i, 1.0)
        return y + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def _check_finite(y: np.ndarray, node: int, time_grid: np.ndarray, what: str) -> None:
    """Raise BlowUpError if the state y at time node `node` is not finite,
    naming the node, its time and the rows that lost finiteness: the entries
    of y's second-last axis, so the members of a field-major (2, K, ...)
    direct stack, not its fields, and none of a 1-D state."""
    finite = np.isfinite(y)
    if not finite.all():
        rows = ()
        if y.ndim > 1:
            lost = ~finite.all(axis=tuple(range(y.ndim - 2)) + (-1,))
            rows = tuple(np.flatnonzero(lost).tolist())
        raise _lost_finiteness(what, node, float(time_grid[node]), rows)


def _lost_finiteness(what: str, node: int, t: float, rows: tuple) -> BlowUpError:
    """The BlowUpError of a march, `what`, that lost finiteness at time node
    `node` (time t) in the `rows` (_check_finite)."""
    return BlowUpError(
        f"{what} lost finiteness at node {node} (t = {t:.6g})"
        + (f" in rows {rows}" if rows else ""),
        node=node, t=t, rows=rows)


def integrate_rk4(rhs, y0: np.ndarray, time_grid: np.ndarray, dt: float,
                  what: str):
    """Classical RK4 from y0 over the nodes of time_grid with step dt.

    rhs(y, i, w) is the time derivative at state y and time t_i + w*dt for
    w in {0, 1/2, 1}.  A generator: it yields y0, then the state at each
    later node, and stores nothing, so the caller keeps what it needs and
    may stop early; a state that is not finite, y0 included, raises
    BlowUpError.
    """
    y = y0
    _check_finite(y, 0, time_grid, what)
    yield y
    for i in range(time_grid.size - 1):
        y = _rk4_step(rhs, y, i, dt)
        _check_finite(y, i + 1, time_grid, what)
        yield y


def _as_sample_matrix(samples, shape: tuple[int, ...], name: str) -> np.ndarray:
    """The (M+1, N) samples; an (N,) row is viewed read-only over the nodes."""
    arr = np.asarray(samples, dtype=float)
    if arr.shape == shape[1:]:
        return np.broadcast_to(arr, shape)
    if arr.shape != shape:
        raise ValueError(
            f"{name} must provide one field per time node or one for all: "
            f"expected {shape} or {shape[1:]}, got {arr.shape}"
        )
    return arr


@dataclass(frozen=True)
class TransportProblem:
    """Velocity, forcing and initial data samples on one spatial and time grid.

    ``build`` takes the initial data as one GridFunction, whose grid is the
    problem's; velocity and forcing give one field per time node, (M+1, N),
    or one (N,) row for all.
    """

    grid: Grid
    time_grid: np.ndarray
    velocity: np.ndarray = field(repr=False)  # (M+1, N) samples or view
    forcing: np.ndarray = field(repr=False)  # (M+1, N) samples or view
    initial: np.ndarray = field(repr=False)  # (N,) samples

    @classmethod
    def build(cls, time_grid: np.ndarray, velocity, forcing,
              initial: GridFunction) -> "TransportProblem":
        time_grid = np.asarray(time_grid, dtype=float)
        n_nodes = time_grid.size
        steps = np.diff(time_grid)
        if n_nodes < 2 or not np.allclose(steps, steps[0], rtol=1e-9, atol=0.0):
            raise ValueError("time grid must be uniform with at least one step")
        grid = initial.grid
        v = _as_sample_matrix(velocity, (n_nodes, grid.N), "velocity")
        F = _as_sample_matrix(forcing, (n_nodes, grid.N), "forcing")
        return cls(grid=grid, time_grid=time_grid, velocity=v, forcing=F,
                   initial=initial.samples)

    @property
    def dt(self) -> float:
        return float(self.time_grid[1] - self.time_grid[0])


@dataclass(frozen=True)
class TransportTrajectory:
    """Solution states at every node."""

    problem: TransportProblem
    states: np.ndarray = field(repr=False)  # (M+1, N) samples

    @property
    def time_grid(self) -> np.ndarray:
        return self.problem.time_grid


def _cumtrapz(values: np.ndarray, dt: float) -> np.ndarray:
    out = np.zeros_like(values)
    out[1:] = np.cumsum(0.5 * (values[1:] + values[:-1])) * dt
    return out


def _cfl_violation(grid: Grid, velocity: np.ndarray, dt: float):
    """The first of the (K, N) velocity rows whose max|v| puts dt over the
    advective stability bound, as (row, reason), or None.  The bound falls
    as max|v| rises, in floating point too, so when the largest max|v| of
    the stack (NaN rows aside) passes it, no row fails."""
    vmax = np.abs(velocity).max(axis=-1)
    top = np.fmax.reduce(vmax, axis=None, initial=0.0)
    if top == 0 or not dt > CFL_FACTOR * grid.dx / top:
        return None
    with np.errstate(divide="ignore"):
        bound = CFL_FACTOR * grid.dx / vmax
    k = int(np.flatnonzero(dt > bound)[0])
    return k, (f"dt = {dt} violates the advective stability bound "
               f"{bound[k]:.3e} (max|v| = {vmax[k]:.3e})")


def _transport_workspace(shape: tuple[int, ...], N: int):
    """The workspace of _transport_rhs for half-spectrum rows of the given
    shape: a complex buffer of that shape and a real (..., N) one."""
    return np.empty(shape, dtype=complex), np.empty(shape[:-1] + (N,))


def _transport_rhs(f_hat, vw, Fw_hat, ik, mask, work, z):
    """-vw f_x + Fw for the (..., N//2 + 1) half-spectrum rows f_hat, the
    rfft of the samples, as half spectra, with the sample velocity vw and
    the half-spectrum forcing Fw_hat broadcast against the rows and the
    half-spectrum symbols ik and mask (_half_symbols).  work and z are the
    march's workspace (_transport_workspace): ik f_hat is written into work
    and its irfft into z, which _advection takes on; only the returned half
    spectra are new, and the call writes neither its inputs nor an earlier
    output.
    """
    np.fft.irfft(np.multiply(ik, f_hat, out=work), z.shape[-1], out=z)
    return _advection(z, vw, Fw_hat, mask)


def _advection(fx, vw, Fw_hat, mask):
    """Fw_hat - mask rfft(vw fx), the right-hand side of _transport_rhs from
    the samples fx of the rows' derivative, which it overwrites with vw fx.
    The dealiased advection is zero at the Nyquist mode, so the state's
    Nyquist mode moves with the forcing's alone."""
    adv = np.fft.rfft(np.multiply(vw, fx, out=fx))
    adv *= mask
    return np.subtract(Fw_hat, adv, out=adv)


def _march_transport(grid: Grid, time_grid: np.ndarray, velocity: np.ndarray,
                     forcing_hat: np.ndarray, f_hat: np.ndarray):
    """The RK4 march of the half spectra f_hat with the (M+1, N) velocity
    samples and the (M+1, N//2 + 1) forcing half spectra, both linearly
    interpolated at half steps; it yields the half spectra at every node."""
    ik, _, mask = _half_symbols(grid)
    v, F = velocity, forcing_hat
    work, z = _transport_workspace(f_hat.shape, grid.N)

    def rhs(f, i, w):
        if w == 0.5:
            vw, Fw = 0.5 * (v[i] + v[i + 1]), 0.5 * (F[i] + F[i + 1])
        else:
            vw, Fw = v[i + int(w)], F[i + int(w)]
        return _transport_rhs(f, vw, Fw, ik, mask, work, z)

    return integrate_rk4(rhs, f_hat, time_grid, float(time_grid[1] - time_grid[0]),
                         "transport solution")


def solve_transport(prob: TransportProblem) -> TransportTrajectory:
    """Integrate the transport problem and store the (M+1, N) states."""
    grid, time_grid = prob.grid, prob.time_grid
    hit = _cfl_violation(grid, prob.velocity, prob.dt)
    if hit:
        node, reason = hit
        raise ValueError(f"{reason} at node {node} (t = {time_grid[node]:.6g})")
    # a non-finite forcing is reported by the march, as a blow-up at the
    # node it is first reached
    with np.errstate(invalid="ignore"):
        forcing_hat = _per_node(np.fft.rfft, prob.forcing)
    march = _march_transport(grid, time_grid, prob.velocity, forcing_hat,
                             np.fft.rfft(prob.initial))
    return TransportTrajectory(problem=prob,
                               states=_stored(march, prob.initial, time_grid.size))


def _stored(march, y0: np.ndarray, n_nodes: int) -> np.ndarray:
    """The samples at every node of a half-spectrum march from the rfft of
    the samples y0: node 0 is y0 as given, not irfft(rfft(y0)), and each
    later node is one irfft."""
    next(march)
    return np.fromiter(chain([y0], (np.fft.irfft(y, y0.shape[-1]) for y in march)),
                       count=n_nodes, dtype=np.dtype((float, y0.shape)))


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
    ratio: np.ndarray  # lhs / rhs per node, inf where rhs is 0

    @property
    def max_violation_ratio(self) -> float:
        return float(np.max(self.ratio))


def _check_estimate_admissible(params: BesovParams) -> None:
    inv_p = 1.0 / params.p
    strict = params.s > 1.0 + inv_p and 1.0 < params.r < np.inf
    limiting = params.s >= 1.0 + inv_p and params.r == 1.0
    if not (strict or limiting):
        raise ValueError(
            f"(s, p, r) = ({params.s}, {params.p}, {params.r}) is outside the "
            "estimate's hypothesis: need s > 1 + 1/p with r in (1, inf), or "
            "s >= 1 + 1/p with r = 1"
        )


def _per_node(fn, samples: np.ndarray) -> np.ndarray:
    """fn of the (M+1, N) samples, one result per node.  A field given once,
    a view of one row over the nodes, is computed on that row and viewed the
    same way: fn acts row by row, so the values are those of the tiled field."""
    if samples.strides[0] == 0:
        one = fn(samples[:1])
        return np.broadcast_to(one, (len(samples),) + one.shape[1:])
    return fn(samples)


def _estimate_profiles(traj: TransportTrajectory, params: BesovParams):
    """Node-wise ||f||, ||F|| in B^s and V(t) = int_0^t ||v_x||_{B^{s-1}}."""
    prob = traj.problem
    part = build_partition(prob.grid)
    ik = _half_symbols(prob.grid)[0]

    def vx_norms(v):
        vx = np.fft.irfft(ik * np.fft.rfft(v), prob.grid.N)
        return besov_norms_of_samples(part, vx, params.shift(-1.0))

    V = _cumtrapz(_per_node(vx_norms, prob.velocity), prob.dt)
    f_norms = besov_norms_of_samples(part, traj.states, params)
    F_norms = _per_node(lambda F: besov_norms_of_samples(part, F, params), prob.forcing)
    return f_norms, F_norms, V


def _evaluate_estimate(C: float, dt: float, f_norms, F_norms, V):
    expV = np.exp(C * V)
    integrand = np.exp(-C * V) * F_norms
    integral = _cumtrapz(integrand, dt)
    rhs = expV * (f_norms[0] + C * integral)
    lhs = f_norms
    holds = lhs <= rhs * (1.0 + 1e-10)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(rhs > 0, lhs / rhs, np.inf)
    return lhs, rhs, holds, ratio


def verify_transport_estimate(
    traj: TransportTrajectory,
    params: BesovParams,
    C: float,
) -> TransportEstimateReport:
    """Evaluate both sides of the a priori estimate at every node."""
    if not 0 < C < np.inf:
        raise ValueError("C must be positive and finite")
    _check_estimate_admissible(params)
    f_norms, F_norms, V = _estimate_profiles(traj, params)
    lhs, rhs, holds, ratio = _evaluate_estimate(
        C, traj.problem.dt, f_norms, F_norms, V
    )
    return TransportEstimateReport(
        C=C, time_grid=traj.time_grid, f_norms=f_norms, F_norms=F_norms,
        V_profile=V, lhs=lhs, rhs=rhs, holds=holds, ratio=ratio,
    )


def fit_transport_constant(
    problems: Sequence[TransportProblem],
    params: BesovParams,
) -> float:
    """Smallest C for which the estimate holds at every node of every problem.

    Bisection to the relative tolerance C_RTOL; raises if no constant below
    C_CAP works.
    """
    if len(problems) == 0:
        raise ValueError("problem family is empty")
    _check_estimate_admissible(params)

    profiles = [(prob.dt,) + _estimate_profiles(solve_transport(prob), params)
                for prob in problems]

    def all_hold(C: float) -> bool:
        return all(
            bool(np.all(_evaluate_estimate(C, dt, fn, Fn, V)[2]))
            for dt, fn, Fn, V in profiles
        )

    hi = 1.0
    while not all_hold(hi):
        hi *= 2.0
        if hi > C_CAP:
            raise RuntimeError(
                f"transport-constant calibration failed: no C below {C_CAP:g}"
            )
    lo = 0.0
    # a problem whose norm profile never exceeds the C -> 0 limit of the
    # right-hand side admits every positive C; stop at an absolute floor
    # instead of bisecting into denormals
    while hi - lo > C_RTOL * hi and hi > 1e-12:
        mid = 0.5 * (lo + hi)
        if mid > 0 and all_hold(mid):
            hi = mid
        else:
            lo = mid
    return hi
