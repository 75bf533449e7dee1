"""Periodic grid, real grid functions and Fourier multipliers.

A grid samples the torus [0, 2*pi*L) at N points, with wavenumbers
xi_k = k/L; coefficients are mode amplitudes, the forward FFT divided by N.
README.md (Conventions) states these conventions and Parseval's identity.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cache
from typing import Callable

import numpy as np

__all__ = [
    "Grid",
    "GridFunction",
    "MultiplierSymbol",
    "make_grid",
    "apply_multiplier",
    "ddx",
    "lambda_inv_dx",
    "dealias",
    "lp_norm",
    "dx_symbol",
    "lambda_inv_dx_symbol",
]


@dataclass(frozen=True)
class Grid:
    """Uniform periodic grid of N samples (even, at least 8) on [0, 2*pi*L)."""

    N: int
    L: float

    @property
    def dx(self) -> float:
        return 2.0 * np.pi * self.L / self.N

    @property
    def x(self) -> np.ndarray:
        """Sample locations x_j = j*dx."""
        return np.arange(self.N) * self.dx

    @property
    def k(self) -> np.ndarray:
        """Integer mode indices in FFT order: 0,...,N/2-1, -N/2,...,-1."""
        return np.fft.fftfreq(self.N, d=1.0 / self.N)

    @property
    def wavenumbers(self) -> np.ndarray:
        """Physical wavenumbers xi_k = k/L in FFT order."""
        return self.k / self.L

    @property
    def xi_max(self) -> float:
        return (self.N // 2) / self.L


def make_grid(N: int, L: float) -> Grid:
    """Build a periodic grid, rejecting odd or tiny N and non-positive or
    non-finite L."""
    if N % 2 != 0:
        raise ValueError(f"N must be even, got {N}")
    if N < 8:
        raise ValueError(f"N must be at least 8, got {N}")
    if not 0 < L < np.inf:
        raise ValueError(f"L must be positive and finite, got {L}")
    return Grid(N=int(N), L=float(L))


def _hermitian_project(coefficients: np.ndarray) -> np.ndarray:
    """Project coefficient rows onto the conjugate-symmetric subspace: mode
    k pairs with -k, and k = 0 and Nyquist keep only their real part."""
    n = coefficients.shape[-1]
    rev = (-np.arange(n)) % n
    return 0.5 * (coefficients + np.conj(coefficients[..., rev]))


@dataclass(frozen=True)
class GridFunction:
    """A real periodic field: read-only samples and their coefficients, in
    FFT order under the amplitude normalization, kept in sync."""

    grid: Grid
    samples: np.ndarray = field(repr=False)
    coefficients: np.ndarray = field(repr=False)

    def __post_init__(self):
        self.samples.setflags(write=False)
        self.coefficients.setflags(write=False)

    @classmethod
    def from_samples(cls, grid: Grid, samples: np.ndarray) -> "GridFunction":
        samples = np.asarray(samples, dtype=float)
        if samples.shape != (grid.N,):
            raise ValueError(
                f"samples shape {samples.shape} does not match grid N={grid.N}"
            )
        if not np.all(np.isfinite(samples)):
            raise ValueError("samples contain NaN or Inf")
        coeffs = np.fft.fft(samples) / grid.N
        return cls(grid=grid, samples=samples.copy(), coefficients=coeffs)

    @classmethod
    def from_coefficients(cls, grid: Grid, coefficients: np.ndarray) -> "GridFunction":
        coefficients = np.asarray(coefficients, dtype=complex)
        if coefficients.shape != (grid.N,):
            raise ValueError(
                f"coefficient shape {coefficients.shape} does not match grid N={grid.N}"
            )
        coeffs = _hermitian_project(coefficients)
        samples = np.fft.ifft(coeffs * grid.N).real
        return cls(grid=grid, samples=samples, coefficients=coeffs)

    def mean(self) -> float:
        return float(self.coefficients[0].real)

    def __add__(self, other: "GridFunction") -> "GridFunction":
        _require_same_grid(self.grid, other.grid)
        return GridFunction.from_samples(self.grid, self.samples + other.samples)

    def __sub__(self, other: "GridFunction") -> "GridFunction":
        _require_same_grid(self.grid, other.grid)
        return GridFunction.from_samples(self.grid, self.samples - other.samples)

    def __mul__(self, other):
        if isinstance(other, GridFunction):
            _require_same_grid(self.grid, other.grid)
            return GridFunction.from_samples(self.grid, self.samples * other.samples)
        return GridFunction.from_samples(self.grid, self.samples * float(other))

    __rmul__ = __mul__

    def __neg__(self) -> "GridFunction":
        return GridFunction.from_samples(self.grid, -self.samples)


def _require_same_grid(a: Grid, b: Grid) -> None:
    if a != b:
        raise ValueError(f"grid mismatch: {a} vs {b}")


@dataclass(frozen=True)
class MultiplierSymbol:
    """A Fourier multiplier xi -> m(xi), applied mode-by-mode in spectral space."""

    name: str
    func: Callable[[np.ndarray], np.ndarray]

    def evaluate(self, grid: Grid) -> np.ndarray:
        values = np.asarray(self.func(grid.wavenumbers), dtype=complex)
        values = np.broadcast_to(values, (grid.N,)).copy()
        if not np.all(np.isfinite(values)):
            raise ValueError(f"symbol {self.name!r} is not finite on the grid")
        return values

    def __mul__(self, other: "MultiplierSymbol") -> "MultiplierSymbol":
        f, g = self.func, other.func
        return MultiplierSymbol(
            name=f"({self.name})*({other.name})",
            func=lambda xi: np.asarray(f(xi), dtype=complex)
            * np.asarray(g(xi), dtype=complex),
        )


def dx_symbol() -> MultiplierSymbol:
    """Symbol of d/dx: m(xi) = i*xi."""
    return MultiplierSymbol(name="d/dx", func=lambda xi: 1j * xi)


def lambda_inv_dx_symbol() -> MultiplierSymbol:
    """Symbol of (1 - d^2/dx^2)^{-1} d/dx: m(xi) = i*xi / (1 + xi^2)."""
    return MultiplierSymbol(name="Lambda^-1 d/dx", func=lambda xi: 1j * xi / (1.0 + xi**2))


def apply_multiplier(f: GridFunction, m: MultiplierSymbol) -> GridFunction:
    """Multiply the coefficients of f by m(xi) and re-symmetrize, so an odd
    imaginary symbol's Nyquist output is zero.  ValueError unless m(-xi) is
    conj(m(xi)) on the grid's paired modes."""
    values = m.evaluate(f.grid)
    rev = (-np.arange(f.grid.N)) % f.grid.N
    paired = rev != np.arange(f.grid.N)  # exclude k = 0 and the Nyquist mode
    if not np.allclose(values[paired], np.conj(values[rev][paired]),
                       rtol=1e-12, atol=1e-12):
        raise ValueError(f"symbol {m.name!r} lacks Hermitian symmetry on the grid")
    return GridFunction.from_coefficients(f.grid, values * f.coefficients)


def ddx(f: GridFunction) -> GridFunction:
    """Spectral derivative d/dx."""
    return apply_multiplier(f, dx_symbol())


def lambda_inv_dx(f: GridFunction) -> GridFunction:
    """The system's nonlocal operator (1 - d^2/dx^2)^{-1} d/dx; it
    annihilates constants."""
    return apply_multiplier(f, lambda_inv_dx_symbol())


def dealias_mask(grid: Grid) -> np.ndarray:
    """Boolean 2/3-rule mask: True on modes with |k| <= N/3."""
    return np.abs(grid.k) <= grid.N / 3.0


@cache
def _half_symbols(grid: Grid):
    """The d/dx and Lambda^{-1} d/dx symbols and the 2/3-rule mask, as
    complex 0/1, on the N//2 + 1 modes of an rfft: read-only, built once per
    grid (README.md, fwlab.transport)."""
    half = grid.N // 2 + 1
    symbols = (dx_symbol().evaluate(grid)[:half], lambda_inv_dx_symbol().evaluate(grid)[:half],
               dealias_mask(grid)[:half].astype(complex))
    for a in symbols:
        a.setflags(write=False)
    return symbols


def dealias(f: GridFunction) -> GridFunction:
    """Zero the coefficients with |k| > N/3 (2/3-rule truncation)."""
    mask = dealias_mask(f.grid)
    return GridFunction.from_coefficients(f.grid, np.where(mask, f.coefficients, 0.0))


def lp_norm(f: GridFunction, p: float) -> float:
    """Discrete L^p norm: (dx * sum |f_j|^p)^(1/p), or max |f_j| for p = inf."""
    return lp_norm_samples(f.samples, f.grid.dx, p)


def lp_norm_samples(samples: np.ndarray, dx: float, p: float) -> float:
    if p < 1:
        raise ValueError(f"p must be in [1, inf], got {p}")
    a = np.abs(samples)
    if np.isinf(p):
        return float(a.max(axis=-1)) if a.ndim == 1 else a.max(axis=-1)
    a **= p  # in place: a is the moduli np.abs has just made
    out = (dx * np.sum(a, axis=-1)) ** (1.0 / p)
    return float(out) if np.ndim(out) == 0 else out
