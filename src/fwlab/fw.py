"""The two-component Fornberg-Whitham system: direct solver, mollified
transport iteration, and the lifespan / stability / continuity experiments.

The evolution is

    u_t + (u^2 / 2)_x = Lambda^{-1} d/dx (rho - u)
    rho_t + (u rho)_x + u_x = 0

with Lambda = 1 - d^2/dx^2, discretized pseudo-spectrally in this
conservative form, with 2/3-rule dealiasing of the fluxes u^2 / 2 and
u rho, and classical RK4 in time, so the means of u and rho are constant to
the bit.  The constructive scheme
iterates the pair of linear transport problems

    u^{n+1}_t + u^n u^{n+1}_x = Lambda^{-1} d/dx (rho^n - u^n)
    rho^{n+1}_t + u^n rho^{n+1}_x = -rho^n u^n_x - u^n_x

from (u^0, rho^0) = (0, 0), with mollified initial data of width 1/(n+1) for
iterate n+1, and monitors the per-iterate norm bounds

    ||u^n(t)||_{B^s} + ||rho^n(t)||_{B^{s-1}} <= P0 / sqrt(1 - 4 C P0^2 t)
                                              <= 2 P0

on the guaranteed lifespan T = 3 / (16 C P0^2).

A pair is measured one way, in B^s x B^{s-1} on the partition of its grid,
and its norm depends only on its own bits, not on how rows are batched; the
size of the data, P0 (initial_norm), is that measure of the data.  A state
that is not finite raises BlowUpError.  The three marches, _march_fw,
transport._march_transport and _march_scheme (the scheme's wave), yield
their nodes and measure nothing; their consumers measure.  How the marches
step, batch and norm is told in README.md (Library, fwlab.fw).
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .besov import (
    BesovParams,
    LPPartition,
    MollifierKernel,
    _nodes_per_call,
    _norm_bounds,
    _norms,
    besov_norms_of_samples,
    build_partition,
    mollify,
)
from .spectral import Grid, GridFunction, _half_symbols
from .transport import (
    CFL_FACTOR,
    BlowUpError,
    _advection,
    _cfl_violation,
    _check_finite,
    _lost_finiteness,
    _rk4_step,
    _stored,
    _transport_rhs,
    _transport_workspace,
    integrate_rk4,
    make_time_grid,
)

__all__ = [
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

#: stability_experiment asserts D(t) <= D(0) exp(beta t) (1 + GRONWALL_SLACK)
GRONWALL_SLACK = 0.05

#: nodes _lifespans steps before it screens them in one bound call: a member
#: that crosses 2*P0 inside them steps on to their end
_SCREENED_NODES = 8

#: _lifespans takes a node whose norm-sum bound is at most 2*P0*(1 - this)
#: as under 2*P0 without norming it: far above the reductions' rounding,
#: about 1e-13, so the exact norm sum would pass _within too
_BOUND_MARGIN = 1e-8


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
        if not 0 < self.C < np.inf:
            raise ValueError("C must be positive and finite")
        if self.n_max < 1:
            raise ValueError("n_max must be at least 1")
        if not 0 < self.dt < np.inf:
            raise ValueError("dt must be positive and finite")


def _fw_rhs(y, ik, lam, flux, work, z):
    """Time derivative of the (u, rho) half spectra y, the rfft of the
    samples, field-major (2, ..., N//2 + 1), in conservative form, with ik
    and lam of _half_symbols and flux the conservative symbol negated,
    -[mask ik / 2, mask ik] (_direct_rhs).  work is a complex
    (..., N//2 + 1) workspace and z a real (2, ..., N) one: one irfft of the
    two rows into z, u^2 and u rho written over them, and one rfft of them,
    times flux; Lambda^{-1} d/dx (rho - u) and -u_x stay spectral.  Only the
    returned half spectra are new, and y is not written.

    The derivative is zero at mode 0, where ik and lam are, so the means are
    constant to the bit, and at the Nyquist mode, where the odd symbols'
    output is imaginary, which irfft drops, so the state's Nyquist mode
    stays real and fixed, as it does for a march of samples.
    """
    np.fft.irfft(y, z.shape[-1], out=z)
    u, rho = z
    np.multiply(rho, u, out=rho)
    np.multiply(u, u, out=u)
    dy = np.fft.rfft(z)
    dy *= flux
    coupling = np.subtract(y[1], y[0], out=work)
    dy[0] += np.multiply(lam, coupling, out=coupling)
    dy[1] -= np.multiply(ik, y[0], out=work)
    dy[..., -1] = 0.0
    return dy


def _direct_rhs(grid: Grid, shape: tuple[int, ...]):
    """The direct march's rhs(y, i, w), autonomous in time, for field-major
    (2, ..., N//2 + 1) half spectra of the given shape: it steps _fw_rhs
    over one workspace, with the conservative symbol built once."""
    ik, lam, mask = _half_symbols(grid)
    flux = np.multiply.outer([-0.5, -1.0], mask * ik).reshape(
        (2,) + (1,) * (len(shape) - 2) + (-1,))
    work = np.empty(shape[1:], dtype=complex)
    z = np.empty((2,) + shape[1:-1] + (grid.N,))

    def rhs(y, i, w):
        return _fw_rhs(y, ik, lam, flux, work, z)

    return rhs


def fw_rhs(u: GridFunction, rho: GridFunction) -> tuple[GridFunction, GridFunction]:
    """Right-hand side of the system at (u, rho): (du/dt, drho/dt).  u and
    rho must share one grid."""
    y = np.fft.rfft(_stacked([(u, rho)])[0])
    du, drho = np.fft.irfft(_direct_rhs(u.grid, y.shape)(y, 0, 0.0), u.grid.N)
    return GridFunction.from_samples(u.grid, du), GridFunction.from_samples(u.grid, drho)


@dataclass(frozen=True)
class FWTrajectory:
    """Direct-solver output: stacked (u, rho) states at every node plus mean
    diagnostics; u and rho are views of the states."""

    grid: Grid
    time_grid: np.ndarray
    states: np.ndarray = field(repr=False)  # (M+1, 2, N) samples
    mean_u: np.ndarray = field(repr=False)
    mean_rho: np.ndarray = field(repr=False)

    @property
    def u(self) -> np.ndarray:
        return self.states[:, 0]

    @property
    def rho(self) -> np.ndarray:
        return self.states[:, 1]


def _check_memory(n_bytes: float, flags: str) -> None:
    """Refuse, before allocating, a run that holds n_bytes when physical
    memory cannot."""
    present = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    if n_bytes > present:
        raise ValueError(
            f"the run needs {n_bytes / 1e9:.3g} GB but the machine "
            f"has {present / 1e9:.3g} GB; change {flags}"
        )


def _stacked(pairs: Sequence[tuple[GridFunction, GridFunction]]) -> np.ndarray:
    """The (K, 2, N) samples of K (u, rho) pairs: the one place a pair
    becomes an array.  ValueError unless every field of every pair is on one
    grid."""
    grid = pairs[0][0].grid
    if any(f.grid != grid for pair in pairs for f in pair):
        raise ValueError("u0 and rho0 must share one grid")
    return np.array([[u.samples, rho.samples] for u, rho in pairs])


def _node_blocks(nodes, block: np.ndarray, n_nodes: int):
    """Copy the first n_nodes arrays that nodes yields, in order, into the
    rows of block, a caller's (span, ...) buffer, and yield (first, filled):
    the index of the block's first node and its filled rows, when block is
    full and after the last node.  The next block overwrites the rows."""
    for first in range(0, n_nodes, len(block)):
        for row, y in zip(block[:n_nodes - first], nodes):
            np.copyto(row, y)
        yield first, block[:n_nodes - first]


def _march_fw(initial: np.ndarray, grid: Grid, time_grid: np.ndarray, dt: float):
    """The direct RK4 march from a (K, 2, N) stack of (u, rho) samples,
    yielding the state per node field-major, as (2, K, N//2 + 1) half
    spectra, the rfft of the samples; every member steps in the same batched
    call of one kernel (_direct_rhs)."""
    bound = CFL_FACTOR * grid.dx / max(1.0, float(np.max(np.abs(initial[..., 0, :]))))
    if dt > bound:
        raise ValueError(
            f"dt = {dt} violates the stability bound {bound:.3e} "
            f"({CFL_FACTOR:g}*dx/max(1, max|u0|))"
        )
    # data whose half spectra overflow are reported by the march, as a
    # blow-up at node 0
    with np.errstate(over="ignore"):
        y0 = np.fft.rfft(np.moveaxis(initial, -2, 0))
    return integrate_rk4(_direct_rhs(grid, y0.shape), y0, time_grid, dt, "direct solve")


def solve_fw_direct(u0: GridFunction, rho0: GridFunction, T: float,
                    dt: float) -> FWTrajectory:
    """Integrate the nonlinear system from (u0, rho0), which must share one
    grid, with RK4, storing every node.

    NaN/Inf mid-run raises BlowUpError with the offending node; the theory is
    local in time, so a blow-up is an outcome, not an artifact failure.
    """
    y0 = _stacked([(u0, rho0)])
    grid = u0.grid
    _check_memory((T / dt + 1.0) * 2 * grid.N * 8 if dt > 0 else 0.0, "--dt or --T")
    time_grid = make_time_grid(T, dt)
    march = (y[:, 0] for y in _march_fw(y0, grid, time_grid, dt))
    states = _stored(march, y0[0], time_grid.size)
    return FWTrajectory(
        grid=grid, time_grid=time_grid, states=states,
        mean_u=states[:, 0].mean(axis=-1), mean_rho=states[:, 1].mean(axis=-1),
    )


def lifespan(P0: float, C: float) -> float:
    """Guaranteed common existence time T = 3 / (16 C P0^2), at most
    LIFESPAN_CAP (which zero data, of unbounded lifespan, gets)."""
    if not 0 <= P0 < np.inf:
        raise ValueError("P0 must be nonnegative and finite")
    if not 0 < C < np.inf:
        raise ValueError("C must be positive and finite")
    if P0 == 0.0:
        return LIFESPAN_CAP
    return min(3.0 / (16.0 * C * P0**2), LIFESPAN_CAP)


def _within(norm_sum, bound):
    """norm_sum <= bound up to rounding (relative 1e-10, absolute 1e-14); NaN fails."""
    return norm_sum <= bound * (1.0 + 1e-10) + 1e-14


def initial_norm(u0: GridFunction, rho0: GridFunction, params: BesovParams) -> float:
    """The size of the data, P0 = ||u0||_{B^s} + ||rho0||_{B^{s-1}}, measured
    as a march measures its nodes (_pair_norms of the half spectra, on the
    partition of the data's grid), so it is a lifespan march's node-0 norm
    sum to the bit.  u0 and rho0 must share one grid."""
    norm_u, norm_rho = _pair_norms(
        build_partition(u0.grid), np.fft.rfft(_stacked([(u0, rho0)])[0]), params)
    return float(norm_u + norm_rho)


def _pair_smoothness(params: BesovParams) -> np.ndarray:
    """The smoothness indices (s, s-1) of the pair space B^s x B^{s-1}."""
    return np.array([params.s, params.shift(-1.0).s])


def _pair_norms(part: LPPartition, y: np.ndarray, params: BesovParams):
    """||u||_{B^s} and ||rho||_{B^{s-1}} of each row of a direct march state,
    stacked (..., 2, N//2 + 1) half spectra (the rfft of the samples), with
    (s, p, r) = params: the norm of the pair space, from one block-norm
    reduction of y, whose norms are divided by N (a row's norm scales with
    it), so y is not copied.  Its callers bound the rows they pass."""
    norms = _norms(part, y, params, _pair_smoothness(params)) / part.grid.N
    return norms[..., 0], norms[..., 1]


def _pair_norm_bounds(part: LPPartition, y: np.ndarray, params: BesovParams):
    """Upper bounds of _pair_norms(part, y, params), from the moduli of the
    modes alone (besov._norm_bounds); equal to them at p = 2, and inf on a
    row that is zero or not finite.  They only pick the rows that need
    _pair_norms, which stays the measure."""
    bounds = _norm_bounds(part, y, params, _pair_smoothness(params)) / part.grid.N
    return bounds[..., 0], bounds[..., 1]


def _sup_distance(part: LPPartition, d: np.ndarray, params: BesovParams) -> float:
    """sup_t ||du||_{B^s} + sup_t ||drho||_{B^{s-1}} over the rows of a
    stacked (..., 2, N) sample difference d = (du, drho), each field normed
    in bounded chunks."""
    return float(np.max(besov_norms_of_samples(part, d[..., 0, :], params))
                 + np.max(besov_norms_of_samples(part, d[..., 1, :], params.shift(-1.0))))


@dataclass(frozen=True)
class IterationTrace:
    """What the mollified iteration scheme records: the iterates it reads,
    the norms of every iterate, the successive differences and bound flags.

    Iterate index n runs 0..n_max; iterate 0 is the zero pair.  first and
    last are iterates 1 and n_max as stacked (u, rho) samples; first, which
    is constant in time, is a read-only view of iterate 1's data, and last
    is None when run_scheme was not asked to keep it.  norm_u and norm_rho
    (n_max + 1, M + 1) are views of the stacked norms.
    """

    grid: Grid
    time_grid: np.ndarray
    params: BesovParams
    C: float
    P0: float
    T: float
    first: np.ndarray = field(repr=False)  # (M+1, 2, N) samples of iterate 1
    last: np.ndarray | None = field(repr=False)  # (M+1, 2, N) samples of iterate n_max
    norms: np.ndarray = field(repr=False)  # ||u^n(t)||_{B^s}, ||rho^n(t)||_{B^{s-1}}
    d_n: np.ndarray  # successive differences, length n_max
    bound_312: np.ndarray  # per-iterate flags for the sqrt bound
    bound_313: np.ndarray  # per-iterate flags for the 2*P0 bound

    @property
    def n_max(self) -> int:
        return self.d_n.size

    @property
    def norm_u(self) -> np.ndarray:
        return self.norms[..., 0]

    @property
    def norm_rho(self) -> np.ndarray:
        return self.norms[..., 1]

    def norm_sum(self, n: int) -> np.ndarray:
        return self.norm_u[n] + self.norm_rho[n]


def _scheme_forcing(y_hat, z, ik, lam, mask, out):
    """Forcing of iterate n+1, as half spectra, from the stacked
    (..., 2, N//2 + 1) half spectra y_hat of iterate n and the samples z of
    the wave node, (..., 3 or 4, N), whose rows 1 and 2 are rho^n and u^n_x:
    Lambda^{-1} d/dx (rho^n - u^n) for u and -rho^n u^n_x - u^n_x for rho,
    with the symbols of _half_symbols, written into out.  Only the dealiased
    product is transformed; the Nyquist mode is zero, as the derivative of
    _fw_rhs is there."""
    u_hat, rho_hat = y_hat[..., 0, :], y_hat[..., 1, :]
    prod = np.fft.rfft(z[..., 1, :] * z[..., 2, :])
    prod *= mask
    coupling = np.subtract(rho_hat, u_hat, out=out[..., 0, :])
    np.multiply(lam, coupling, out=coupling)
    ux = np.multiply(ik, u_hat, out=out[..., 1, :])
    np.subtract(np.negative(prod, out=prod), ux, out=ux)
    out[..., -1] = 0.0
    return out


def _scheme_bytes(N: int, n_max: int, T: float, dt: float, p: float,
                  n_blocks: int, keep_last: bool) -> float:
    """What run_scheme holds at its peak: per node, the last iterate when
    keep_last asks for it and every iterate's norms (the first is a view of
    its data), and, while the bound flags are set, the norm sums and their
    comparisons and the time grids; besides, the wave march's buffers and
    RK4 stages, and the block of norm rows, read in row-bounded node blocks,
    with the temporaries of its reduction at p: the rows' moduli, six
    arrays of the norms of the n_blocks dyadic blocks of every row and the
    terms of their l^r sums, and, at p != 2, two real arrays of the samples
    of those blocks (the samples and their moduli, raised to p in place).
    There are 15 complex (n_max, 2, N//2 + 1) stacks: in _march_scheme the
    wave (1), its copy with its derivatives (2), two forcings and the half
    step's (3), the kernel's spectra (1) and RK4's k1..k4 with three
    temporaries (7), and in run_scheme the wave at the last node of the
    previous norm block, which its first node's differences read (1); and
    _march_scheme holds 11 real rows of N samples per iterate: two wave
    nodes (8), the half step's velocity (1) and the kernel's samples (2)."""
    stored = (T / dt + 1.0) * (2 * N * keep_last + 4 * (n_max + 1) + 4) * 8
    march = (15 * 2 * (N // 2 + 1) * 16 + 11 * N * 8) * n_max
    rows = 4 * n_max * _nodes_per_call(p, 4 * n_max)
    block = rows * ((N // 2 + 1) * (16 + 8) + 6 * n_blocks * 8)
    if p != 2:
        block += 2 * n_blocks * rows * N * 8
    return stored + march + block


def _march_scheme(initial: np.ndarray, grid: Grid, time_grid: np.ndarray, dt: float,
                  last: np.ndarray | None = None):
    """The scheme's wave march from the (n_max, 2, N) mollified data of
    iterates 1..n_max, yielding at each of its M + n_max wave nodes the
    rows' (n_max, 2, N//2 + 1) half spectra, a buffer that the next step
    overwrites.  Given last, an (M + 1, 2, N) buffer, it writes there the
    samples of iterate n_max at each of its nodes.

    Row r of the wave is iterate r + 1, one node behind row r - 1: at wave
    node i it sits at node clip(i - r, 0, M), and it steps on while
    0 <= i - r < M, reading iterate r at nodes i - r and i - r + 1, which
    row r - 1 reached at wave nodes i - 1 and i.  The same code runs on
    every row at every wave node from node 1 (at node 0 no row moves on):
    every row is stepped, and a row that does not move on keeps its bits,
    its stepped result discarded.  Row 0, advected by the zero pair, is its
    data at every node, so only rows 1.. march.  A velocity over the
    advective bound, or a row that is not finite after its step, raises
    RuntimeError naming the iterate and node.
    """
    n_rows, N, M = len(initial), grid.N, time_grid.size - 1
    ik, lam, mask = _half_symbols(grid)
    y = np.fft.rfft(initial)
    # at each wave node a copy of the wave and its derivatives is inverted
    # into the samples of that node, in two buffers taken in turn
    spectra = np.empty((n_rows, 4, N // 2 + 1), dtype=complex)
    samples = np.empty((2, n_rows, 4, N))
    # the forcing of this wave node and the last, and the half step's
    # velocity and forcing, for rows 1..; the transport kernel's workspace
    forcings = np.empty((2, n_rows - 1, 2, N // 2 + 1), dtype=complex)
    u_half, f_half = np.empty((n_rows - 1, 1, N)), np.empty_like(forcings[0])
    work, zk = _transport_workspace(forcings[0].shape, N)
    rows = np.arange(n_rows)
    f_now = None
    for i in range(M + n_rows):
        nodes = np.minimum(np.maximum(i - rows, 0), M)
        # one inverse transform of the wave and its derivatives: the velocity
        # of the successors, the samples of the forcing's product and stage
        # 1's derivative samples
        z, z_then = samples[i % 2], samples[(i - 1) % 2]
        np.copyto(spectra[:, :2], y)
        np.multiply(ik, y, out=spectra[:, 2:])
        np.fft.irfft(spectra, N, out=z)
        hit = _cfl_violation(grid, z[:-1, 0], dt)
        if hit:
            k, reason = hit
            raise RuntimeError(
                f"transport solve failed at iterate {k + 2}: velocity u^{k + 1} at "
                f"node {nodes[k]} (t = {time_grid[nodes[k]]:.6g}): {reason}")
        if last is not None:
            last[nodes[-1]] = z[-1, :2] if n_rows > 1 else initial[0]
        yield y
        if i == M + n_rows - 1:
            return
        # the forcing the wave exerts on the successors, but for the last
        # wave node's
        f_then, f_now = f_now, _scheme_forcing(y[:-1], z[:-1], ik, lam, mask,
                                               forcings[i % 2])
        if i == 0:
            continue

        # one RK4 step of rows 1.. to wave node i + 1, with the inputs at
        # w = 0, 1/2, 1 linear between those of wave nodes i - 1 and i;
        # stage 1 takes its derivative's samples from z, into the kernel's
        # contiguous real buffer
        u_then, u_now = z_then[:-1, :1], z[:-1, :1]
        np.multiply(0.5, np.add(u_then, u_now, out=u_half), out=u_half)
        np.multiply(0.5, np.add(f_then, f_now, out=f_half), out=f_half)

        def rhs(f, _, w):
            if w == 0.0:
                np.copyto(zk, z[1:, 2:])
                return _advection(zk, u_then, f_then, mask)
            vw, Fw = (u_half, f_half) if w == 0.5 else (u_now, f_now)
            return _transport_rhs(f, vw, Fw, ik, mask, work, zk)

        stepped = _rk4_step(rhs, y[1:], i, dt)
        go = (nodes[1:] == i - rows[1:]) & (nodes[1:] < M)  # the rows that move on
        np.copyto(y[1:], stepped, where=go[:, None, None])
        if not np.isfinite(y[1:]).all():
            r = int(np.flatnonzero(~np.isfinite(y[1:]).all(axis=(-2, -1)))[0]) + 1
            exc = _lost_finiteness("transport solution", i + 1 - r,
                                   float(time_grid[i + 1 - r]), ())
            raise RuntimeError(f"transport solve failed at iterate {r + 1}: {exc}") from exc


def run_scheme(u0: GridFunction, rho0: GridFunction, cfg: SchemeConfig, *,
               keep_last: bool = True) -> IterationTrace:
    """Run the mollified transport iteration on [0, lifespan(P0, C)]: one
    _march_scheme of the mollified data, whose wave nodes this measures.

    keep_last stores the samples of iterate n_max at every node as
    trace.last, (M + 1, 2, N) floats, which scheme_direct_distance reads;
    without it trace.last is None and the run holds only the norms, d_n and
    flags per node.  u0 and rho0 must share one grid (initial_norm).
    """
    grid = u0.grid
    part = build_partition(grid)
    params = cfg.params
    # the wave in B^s x B^{s-1}, its differences in B^{s-1} x B^{s-2}
    smoothness = np.stack([_pair_smoothness(params),
                           _pair_smoothness(params.shift(-1.0))])[:, None]

    P0 = initial_norm(u0, rho0, params)
    T = lifespan(P0, cfg.C)
    assert 4.0 * cfg.C * P0**2 * T < 1.0  # 3/4 by construction; guard against misuse
    # the lifespan is an awkward number; refine dt so the nodes land on T
    n_steps = max(1, int(np.ceil(T / cfg.dt - 1e-12)))
    _check_memory(_scheme_bytes(grid.N, cfg.n_max, T, cfg.dt, params.p, part.masks.shape[0],
                                keep_last),
                  f"--dt or --n-max; the run spans the lifespan T = 3/(16 C P0^2) = {T:.3g} "
                  f"(at most {LIFESPAN_CAP:g}) of P0 = {P0:.3g}, set by --amplitude and --C")
    time_grid = make_time_grid(T, T / n_steps)
    dt = float(time_grid[1] - time_grid[0])
    n_nodes, n_rows, N = time_grid.size, cfg.n_max, grid.N
    M = n_nodes - 1

    kernels = [MollifierKernel(epsilon=1.0 / (n + 1)) for n in range(n_rows)]
    initial = _stacked([(mollify(u0, k), mollify(rho0, k)) for k in kernels])
    first = np.broadcast_to(initial[0], (n_nodes, 2, N))
    last = np.empty((n_nodes, 2, N)) if keep_last else None
    norms = np.zeros((n_rows + 1, n_nodes, 2))  # iterate 0 is the zero pair
    d_max = np.full((n_rows, 2), -np.inf)
    rows = np.arange(n_rows)
    # each block of wave nodes' half spectra and their differences from the
    # previous iterate (row r at node k minus row r - 1 at node k - 1,
    # reading the previous block's last node from carry): normed in one call
    # per block, and the norms divided by N.  Row r sits at clip(i - r, 0, M)
    span = _nodes_per_call(params.p, 4 * n_rows)
    block = np.empty((span, 2, n_rows, 2, N // 2 + 1), dtype=complex)
    march = _march_scheme(initial, grid, time_grid, dt, last)
    for i, now in _node_blocks(march, block[:, 0], M + n_rows):
        if i == 0:  # the data: a row that has not started reads its predecessor's
            carry = now[0].copy()
        diff = block[:len(now), 1]
        np.subtract(now[0, 1:], carry[:-1], out=diff[0, 1:])
        np.subtract(now[1:, 1:], now[:-1, :-1], out=diff[1:, 1:])
        np.copyto(diff[:, 0], now[:, 0])  # row 0 minus the zero iterate
        np.copyto(carry, now[-1])
        wave = _norms(part, block[:len(now)], params, smoothness) / N
        norms[rows + 1, np.clip(np.arange(i, i + len(now))[:, None] - rows, 0, M)] = wave[:, 0]
        np.maximum(d_max, wave[:, 1].max(axis=0), out=d_max)

    norm_sum = norms[..., 0] + norms[..., 1]
    envelope = P0 / np.sqrt(1.0 - 4.0 * cfg.C * P0**2 * time_grid)  # zero for zero data
    return IterationTrace(
        grid=grid, time_grid=time_grid, params=params, C=cfg.C, P0=P0, T=T,
        first=first, last=last, norms=norms, d_n=d_max[:, 0] + d_max[:, 1],
        bound_312=np.all(_within(norm_sum, envelope[None, :]), axis=1),
        bound_313=np.all(_within(norm_sum, 2.0 * P0), axis=1),
    )


def scheme_direct_distance(trace: IterationTrace, direct: FWTrajectory) -> float:
    """sup-in-time distance of the last iterate to a direct solve, measured
    in B^{s-1} x B^{s-2} (the spaces where the iterates converge), from a
    trace that kept its last iterate (run_scheme(..., keep_last=True))."""
    if trace.last is None:
        raise ValueError("the trace has no last iterate; run run_scheme with keep_last=True")
    if direct.grid != trace.grid:
        raise ValueError("trace and direct trajectory live on different grids")
    if not np.array_equal(direct.time_grid, trace.time_grid):
        raise ValueError("trace and direct trajectory use different time grids")
    return _sup_distance(build_partition(trace.grid),
                         trace.last - direct.states,
                         trace.params.shift(-1.0))


def _lifespans(pairs: Sequence[tuple[GridFunction, GridFunction]],
               cfg: SchemeConfig, t_cap: float) -> tuple[np.ndarray, np.ndarray]:
    """P0 and the empirical lifespan of each (u0, rho0) pair, all on one
    grid (ValueError otherwise): one march of their (K, 2, N) stack.  P0 is
    each member's norm sum at node 0 (_pair_norms).  A member leaves the
    stack at its first later node that is over 2*P0 or not finite, and its
    lifespan is the node before; t_cap if it never leaves.  Data not finite
    at node 0, or a march not finite after its first step, raise
    BlowUpError.  Members step and are normed row by row, so a member's
    lifespan has the bits of a march of its own.
    """
    y = _stacked(pairs)
    grid = pairs[0][0].grid
    part = build_partition(grid)
    _check_memory((t_cap / cfg.dt + 1.0) * 8, "--dt or --t-cap")
    time_grid = make_time_grid(t_cap, cfg.dt)
    T_emp = np.full(len(pairs), time_grid[-1])
    live = np.arange(len(pairs))  # the pair of each member of the stack
    y = next(_march_fw(y, grid, time_grid, cfg.dt))
    rhs = _direct_rhs(grid, y.shape)
    # a node near blow-up can overflow its norm; inf counts as a violation,
    # and so does NaN
    with np.errstate(over="ignore"):
        P0 = np.add(*_pair_norms(part, np.moveaxis(y[None], 1, -2), cfg.params))[0]
    i = 0
    while live.size and i < time_grid.size - 1:
        # the field-major states of nodes i + 1 .. i + len(block), each
        # screened by _pair_norm_bounds; only the rows it cannot certify
        # under 2*P0 are normed, in calls of at most K rows, node 0's
        block = np.empty((min(_SCREENED_NODES, time_grid.size - 1 - i),) + y.shape,
                         dtype=y.dtype)
        for j in range(len(block)):
            block[j] = _rk4_step(rhs, y, i, cfg.dt)
            y, i = block[j], i + 1
            if i == 1:
                _check_finite(y, i, time_grid, "direct solve")
        pair = np.moveaxis(block, 1, -2)  # (node, member, field) view
        with np.errstate(over="ignore"):
            norm_sum = np.add(*_pair_norm_bounds(part, pair, cfg.params))
            exact = np.argwhere(~(norm_sum <= 2.0 * P0[live] * (1.0 - _BOUND_MARGIN)))
            for c in range(0, len(exact), len(pairs)):
                n, k = exact[c:c + len(pairs)].T
                norm_sum[n, k] = np.add(*_pair_norms(part, pair[n, k], cfg.params))
        leave = ~(np.isfinite(pair).all(axis=(-2, -1)) & _within(norm_sum, 2.0 * P0[live]))
        left = leave.any(axis=0)
        if left.any():  # members that cross inside a block step to its end
            T_emp[live[left]] = time_grid[i - len(block) + leave.argmax(axis=0)[left]]
            live, y = live[~left], y[:, ~left]
            rhs = _direct_rhs(grid, y.shape)
    return P0, T_emp


def empirical_lifespan(u0: GridFunction, rho0: GridFunction, cfg: SchemeConfig,
                       t_cap: float) -> float:
    """Largest time node in [0, t_cap] before the direct march from
    (u0, rho0) first goes over 2*P0 or loses finiteness, with P0 as
    initial_norm measures it: the one-member case of the lifespan sweep
    (_lifespans).  Data not finite at node 0, or a march not finite after
    its first step, raise BlowUpError.
    """
    return float(_lifespans([(u0, rho0)], cfg, t_cap)[1][0])


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


def _member_distances(members: np.ndarray, grid: Grid, time_grid: np.ndarray,
                      dt: float, params: BesovParams):
    """March the stacked (K+1, 2, N) members as one batch and return the
    (M+1, K) pair norms (_pair_norms) of members 1..K minus member 0 at every
    node, ||u_k - u_0|| and ||rho_k - rho_0||, from differences of their
    half spectra.

    Each distinct member marches once: members are grouped by their bytes
    (so -0.0 and 0.0 differ), the first of each group, in order, is one row
    of the march, and every member takes its row's distances; one equal to
    member 0 gets exact zeros, as the norm of its zero difference would be.
    Rows march and are normed independently, so every distance has the bits
    of a march of all the members; no trajectory is stored.  A BlowUpError
    names every member of the rows that blew up.
    """
    part = build_partition(grid)
    index: dict[bytes, int] = {}  # each distinct member's row, by its bytes
    row = np.array([index.setdefault(m.tobytes(), len(index)) for m in members])
    distinct = members[np.unique(row, return_index=True)[1]]
    dist = np.zeros((2, time_grid.size, len(distinct)))  # ||u_k - u_0||, ||rho_k - rho_0||
    # the member-major differences from member 0 of a block of nodes, 2 rows
    # per distinct member after the first, normed in one call per block from
    # contiguous rows (_norms copies a strided view)
    span = _nodes_per_call(params.p, 2 * (len(distinct) - 1))
    block = np.empty((span, len(distinct) - 1, 2, grid.N // 2 + 1), dtype=complex)
    diffs = ((y[:, 1:] - y[:, :1]).swapaxes(0, 1)
             for y in _march_fw(distinct, grid, time_grid, dt))
    try:
        for i, d in _node_blocks(diffs, block, time_grid.size):
            dist[:, i:i + len(d), 1:] = _pair_norms(part, d, params)
    except BlowUpError as exc:
        rows = tuple(np.flatnonzero(np.isin(row, exc.rows)).tolist())
        raise _lost_finiteness("direct solve", exc.node, exc.t, rows) from exc
    return tuple(dist[..., row[1:]])


def stability_experiment(
    u0: GridFunction,
    rho0: GridFunction,
    perturbations: Sequence[tuple[GridFunction, GridFunction]],
    cfg: SchemeConfig,
    T: float,
) -> list[StabilityReport]:
    """Perturb the data by each (delta_u, delta_rho) pair, march the base and
    every perturbed problem as one batch, and fit, per pair, the exponential
    rate of the solution distance D(t) in B^{s-1} x B^{s-2}.

    beta is the least-squares slope of log D(t) (0 when D(0) = 0); each
    report asserts D(t) <= D(0) * exp(beta * t) * (1 + GRONWALL_SLACK) at
    every node.  One report per pair, in order.
    """
    time_grid = make_time_grid(T, cfg.dt)
    members = _stacked([(u0, rho0)] + [(u0 + du, rho0 + drho) for du, drho in perturbations])
    dw, dv = _member_distances(members, u0.grid, time_grid, cfg.dt,
                               cfg.params.shift(-1.0))
    reports = []
    for D in (dw + dv).T:
        beta = float(np.polyfit(time_grid, np.log(D), 1)[0]) if D[0] != 0.0 else 0.0
        bound = D[0] * np.exp(beta * time_grid) * (1.0 + GRONWALL_SLACK)
        reports.append(StabilityReport(
            time_grid=time_grid, norm_curve=D, beta_fit=beta,
            bound_holds=bool(np.all(D <= bound)),
        ))
    return reports


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
) -> ContinuityReport:
    """March the run from unmollified data and the runs from mollified data
    of widths 2^{-j} as one batch, and take the sup-in-time distance of each
    mollified run to the unmollified one.

    Once eps_j drops to the grid spacing the discrete mollifier is the
    identity and the distance hits the numerical floor: every kernel of
    width at most dx samples to one delta, so those members have the same
    bits and march as one row (_member_distances).  A blow-up of member j
    raises RuntimeError naming j, the first member of the rows that blew
    up; one of the unmollified run re-raises.
    """
    if j_max < 3:
        raise ValueError("j_max must be at least 3")

    epsilons = 2.0 ** (-np.arange(j_max + 1, dtype=float))
    kernels = [MollifierKernel(epsilon=float(eps)) for eps in epsilons]
    members = _stacked([(u0, rho0)] + [(mollify(u0, k), mollify(rho0, k)) for k in kernels])
    try:
        du, drho = _member_distances(members, u0.grid, make_time_grid(T, cfg.dt),
                                     cfg.dt, cfg.params)
    except BlowUpError as exc:
        if 0 in exc.rows:
            raise
        raise RuntimeError(
            f"continuity family member j = {exc.rows[0] - 1} blew up: {exc}"
        ) from exc
    errors = du.max(axis=0) + drho.max(axis=0)

    nonincreasing = bool(np.all(np.diff(errors) <= 1e-12))
    return ContinuityReport(
        epsilons=epsilons, errors=errors, nonincreasing=nonincreasing,
        final_error=float(errors[-1]),
    )
