"""Littlewood-Paley partition, Besov norms, mollification and inequality checks.

The dyadic partition of unity uses a smooth low-pass profile chi equal to 1
for |xi| <= 3/4 and 0 for |xi| >= 4/3, glued with the standard exp(-1/x)
transition, and ring profiles phi(xi) = chi(xi/2) - chi(xi).  By construction

    chi(xi) + sum_{q>=0} phi(2^{-q} xi) = 1

telescopes exactly on any bounded set of wavenumbers, rings two or more
octaves apart have disjoint supports, and on a fixed grid only finitely many
rings are nonzero (blocks above the Nyquist ring vanish identically, so the
truncation of the l^r sum is exact).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .spectral import (
    Grid,
    GridFunction,
    lambda_inv_dx,
    lp_norm,
    lp_norm_samples,
)

__all__ = [
    "LPPartition",
    "BesovParams",
    "MollifierKernel",
    "chi_profile",
    "phi_profile",
    "build_partition",
    "dyadic_block",
    "low_cutoff",
    "besov_norm",
    "besov_norms_batch",
    "besov_norms_of_samples",
    "mollify",
    "check_product_estimate",
    "check_multiplier_bound",
]

_CHI_INNER = 0.75  # chi == 1 inside this radius
_CHI_OUTER = 4.0 / 3.0  # chi == 0 outside this radius


def _glue(x: np.ndarray) -> np.ndarray:
    """The C-infinity glue g(x) = exp(-1/x) for x > 0, 0 otherwise."""
    out = np.zeros_like(x, dtype=float)
    pos = x > 0
    out[pos] = np.exp(-1.0 / x[pos])
    return out


def chi_profile(xi) -> np.ndarray:
    """Smooth radial low-pass profile: 1 on |xi| <= 3/4, 0 on |xi| >= 4/3."""
    a = np.abs(np.asarray(xi, dtype=float))
    up = _glue(_CHI_OUTER - a)
    down = _glue(a - _CHI_INNER)
    out = np.empty_like(a)
    inner = a <= _CHI_INNER
    outer = a >= _CHI_OUTER
    band = ~(inner | outer)
    out[inner] = 1.0
    out[outer] = 0.0
    out[band] = up[band] / (up[band] + down[band])
    return out


def phi_profile(xi) -> np.ndarray:
    """Ring profile phi(xi) = chi(xi/2) - chi(xi), supported on 3/4 <= |xi| <= 8/3."""
    xi = np.asarray(xi, dtype=float)
    return chi_profile(xi / 2.0) - chi_profile(xi)


@dataclass(frozen=True)
class LPPartition:
    """Precomputed dyadic frequency masks on one grid.

    phi_masks[q] holds phi(2^{-q} xi) at every grid wavenumber, for
    q = 0,...,q_max; q_max is the last ring that meets the grid's
    wavenumber range.
    """

    grid: Grid
    chi_mask: np.ndarray = field(repr=False)
    phi_masks: np.ndarray = field(repr=False)
    q_max: int

    def __post_init__(self):
        self.chi_mask.setflags(write=False)
        self.phi_masks.setflags(write=False)

    def all_masks(self) -> np.ndarray:
        """Masks stacked in block order q = -1, 0, ..., q_max."""
        return np.vstack([self.chi_mask[None, :], self.phi_masks])

    def block_weights(self, s: float) -> np.ndarray:
        """The 2^{s q} weights for q = -1, 0, ..., q_max."""
        return 2.0 ** (s * np.arange(-1, self.q_max + 1))


def build_partition(grid: Grid) -> LPPartition:
    """Evaluate the dyadic partition of unity on the grid's wavenumbers."""
    xi = grid.wavenumbers
    chi_mask = chi_profile(xi)
    # last ring whose support [3/4 * 2^q, 8/3 * 2^q] meets (0, xi_max]
    q_max = int(np.floor(np.log2(grid.xi_max / _CHI_INNER)))
    phi_masks = np.vstack(
        [phi_profile(xi / 2.0**q) for q in range(q_max + 1)]
    )
    return LPPartition(grid=grid, chi_mask=chi_mask, phi_masks=phi_masks, q_max=q_max)


@dataclass(frozen=True)
class BesovParams:
    """The (s, p, r) triple selecting a Besov norm."""

    s: float
    p: float
    r: float

    def __post_init__(self):
        if self.p < 1:
            raise ValueError(f"p must be in [1, inf], got {self.p}")
        if self.r < 1:
            raise ValueError(f"r must be in [1, inf], got {self.r}")

    @property
    def admissible(self) -> bool:
        """Whether (s, p, r) satisfies the well-posedness hypothesis
        s > max(2 + 1/p, 5/2) with r finite."""
        inv_p = 0.0 if np.isinf(self.p) else 1.0 / self.p
        return self.s > max(2.0 + inv_p, 2.5) and not np.isinf(self.r)

    def require_admissible(self) -> None:
        """Raise ValueError naming the threshold unless ``admissible``."""
        if not self.admissible:
            inv_p = 0.0 if np.isinf(self.p) else 1.0 / self.p
            raise ValueError(
                f"inadmissible Besov parameters (s, p, r) = ({self.s}, "
                f"{self.p}, {self.r}): need s > max(2 + 1/p, 5/2) = "
                f"{max(2.0 + inv_p, 2.5)} and r finite"
            )

    def shift(self, ds: float) -> "BesovParams":
        return BesovParams(s=self.s + ds, p=self.p, r=self.r)


def dyadic_block(part: LPPartition, f: GridFunction, q: int) -> GridFunction:
    """The dyadic block Delta_q f.

    q = -1 applies the low-pass chi mask, q >= 0 the ring masks; q <= -2 and
    q > q_max return the zero field.
    """
    if f.grid != part.grid:
        raise ValueError("partition and field live on different grids")
    if q <= -2 or q > part.q_max:
        return GridFunction.from_samples(f.grid, np.zeros(f.grid.N))
    mask = part.chi_mask if q == -1 else part.phi_masks[q]
    return GridFunction.from_coefficients(f.grid, mask * f.coefficients)


def low_cutoff(part: LPPartition, f: GridFunction, q: int) -> GridFunction:
    """The low-frequency cutoff S_q f, realized as one chi(2^{-q} xi) mask."""
    if q < 0:
        raise ValueError(f"low_cutoff requires q >= 0, got {q}")
    if f.grid != part.grid:
        raise ValueError("partition and field live on different grids")
    mask = chi_profile(part.grid.wavenumbers / 2.0**q)
    return GridFunction.from_coefficients(f.grid, mask * f.coefficients)


def _block_lp_norms(part: LPPartition, coefficients: np.ndarray, p: float) -> np.ndarray:
    """L^p norms of every dyadic block for a batch of coefficient rows.

    coefficients: (..., N) complex in FFT order under the amplitude
    normalization.  Returns an array of shape (q_max + 2, ...), blocks in
    order q = -1, 0, ..., q_max.

    At p = 2, Parseval gives ||Delta_q f||_{L^2}^2 = 2 pi L sum |mask_q c|^2
    from the coefficients, with no inverse transform.
    """
    grid = part.grid
    masks = part.all_masks()  # (Q, N)
    batch_masks = masks[(slice(None),) + (None,) * (coefficients.ndim - 1)]
    if p == 2:
        modulus = np.abs(coefficients)
        power = modulus**2
        if np.all(np.isfinite(power)):
            sums = np.moveaxis(power @ (masks**2).T, -1, 0)
        else:
            # |c|^2 overflowed: square mask * |c| so that a zero mask gives 0,
            # not 0 * inf = NaN, and the row reads inf like the sample sum
            sums = np.sum((batch_masks * modulus) ** 2, axis=-1)
        return np.sqrt(2.0 * np.pi * grid.L * sums)
    blocks = batch_masks * coefficients[None]
    samples = np.fft.ifft(blocks * grid.N, axis=-1).real
    return lp_norm_samples(samples, grid.dx, p)


def _lr_combine(block_norms: np.ndarray, s: float, r: float) -> np.ndarray:
    """Weighted l^r sum over the block axis (axis 0)."""
    weights = 2.0 ** (s * np.arange(-1, block_norms.shape[0] - 1))
    w = weights[(slice(None),) + (None,) * (block_norms.ndim - 1)]
    terms = w * block_norms
    if np.isinf(r):
        return terms.max(axis=0)
    return (np.sum(terms**r, axis=0)) ** (1.0 / r)


def besov_norm(part: LPPartition, f: GridFunction, params: BesovParams) -> float:
    """The Besov norm ( sum_q (2^{sq} ||Delta_q f||_{L^p})^r )^{1/r}."""
    if f.grid != part.grid:
        raise ValueError("partition and field live on different grids")
    norms = _block_lp_norms(part, f.coefficients, params.p)
    return float(_lr_combine(norms, params.s, params.r))


def besov_norms_batch(
    part: LPPartition, coefficients: np.ndarray, params: BesovParams
) -> np.ndarray:
    """Besov norms of a batch of coefficient rows (shape (..., N))."""
    norms = _block_lp_norms(part, np.asarray(coefficients, dtype=complex), params.p)
    return np.atleast_1d(_lr_combine(norms, params.s, params.r))


def besov_norms_of_samples(
    part: LPPartition, samples: np.ndarray, params: BesovParams
) -> np.ndarray:
    """Besov norms of a batch of real sample rows (shape (..., N))."""
    coefficients = np.fft.fft(samples, axis=-1) / part.grid.N
    return besov_norms_batch(part, coefficients, params)


@dataclass(frozen=True)
class MollifierKernel:
    """Friedrichs mollifier of width epsilon.

    The profile is the standard bump c * exp(-1/(1 - x^2)) on (-1, 1); the
    normalization constant is fixed per grid so that the scaled kernel has
    discrete unit mass, which makes mollification preserve the spatial mean
    exactly.
    """

    epsilon: float

    def __post_init__(self):
        if self.epsilon <= 0:
            raise ValueError(f"epsilon must be positive, got {self.epsilon}")

    def samples_on(self, grid: Grid) -> np.ndarray:
        """The scaled kernel eps^{-1} phi(x/eps) on the grid, wrapped
        periodically and normalized to discrete unit mass."""
        if self.epsilon >= np.pi * grid.L:
            raise ValueError(
                f"kernel width {self.epsilon} does not fit inside the torus "
                f"(needs epsilon < pi*L = {np.pi * grid.L})"
            )
        x = grid.x
        length = 2.0 * np.pi * grid.L
        dist = np.minimum(x, length - x)  # distance to the nearest image of 0
        u = dist / self.epsilon
        vals = np.zeros_like(u)
        inside = u < 1.0
        vals[inside] = np.exp(-1.0 / (1.0 - u[inside] ** 2))
        mass = vals.sum() * grid.dx
        if mass <= 0:
            raise ValueError("kernel has no support on the grid")
        return vals / mass


def mollify(f: GridFunction, kernel: MollifierKernel) -> GridFunction:
    """Periodic convolution of f with the mollifier kernel, done spectrally.

    The zero mode of the normalized kernel is exactly 1/(2*pi*L), so the mean
    of f is preserved to machine precision.
    """
    k = kernel.samples_on(f.grid)
    k_hat = np.fft.fft(k) / f.grid.N
    factor = 2.0 * np.pi * f.grid.L
    return GridFunction.from_coefficients(
        f.grid, factor * k_hat * f.coefficients
    )


def check_product_estimate(
    part: LPPartition, f: GridFunction, g: GridFunction, params: BesovParams
) -> float:
    """Ratio ||f g||_{s-1} / (||f||_{s-1} ||g||_s) probing the product bound.

    A harness asserts this stays under one empirical constant across a
    randomized family; the bound itself is existential.
    """
    low = params.shift(-1.0)
    denom = besov_norm(part, f, low) * besov_norm(part, g, params)
    if denom == 0.0:
        raise ValueError("product-estimate ratio needs nonzero f and g")
    return besov_norm(part, f * g, low) / denom


def check_multiplier_bound(
    part: LPPartition, f: GridFunction, params: BesovParams
) -> float:
    """Ratio ||Lambda^{-1} d/dx f||_s / ||f||_{s-1} probing the S^2-multiplier
    bound (the nonlocal operator gains one derivative)."""
    denom = besov_norm(part, f, params.shift(-1.0))
    if denom == 0.0:
        raise ValueError("multiplier-bound ratio needs nonzero input")
    return besov_norm(part, lambda_inv_dx(f), params) / denom
