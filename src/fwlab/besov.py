"""Littlewood-Paley partition, Besov norms and mollification.

The dyadic partition of unity uses a smooth low-pass profile chi equal to 1
for |xi| <= 3/4 and 0 for |xi| >= 4/3, glued with the standard exp(-1/x)
transition, and ring profiles phi(xi) = chi(xi/2) - chi(xi), so

    chi(xi) + sum_{q>=0} phi(2^{-q} xi) = 1

on any bounded set of wavenumbers; on a fixed grid only finitely many rings
are nonzero, so the truncation of the l^r sum is exact.

Every Besov norm here comes from one reduction, and a row's norm depends only
on the row: not on its batch, its memory layout or its scale.  How the
reduction reads a row and how many rows one call takes is told in README.md
(Library, fwlab.besov).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cache

import numpy as np

from .spectral import Grid, GridFunction, lp_norm_samples

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
]

_CHI_INNER = 0.75  # chi == 1 inside this radius
_CHI_OUTER = 4.0 / 3.0  # chi == 0 outside this radius
#: the most rows one norm call takes at p = 2, and at p != 2, where the
#: reduction inverts every dyadic block of every row; read by _nodes_per_call
_NORM_CHUNK = 256
_GENERAL_P_CHUNK = 32


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

    masks is the read-only (q_max + 2, N) stack of the block masks at every
    grid wavenumber, in block order q = -1, 0, ..., q_max: chi(xi), then
    phi(2^{-q} xi).  q_max is the last ring that meets the grid's wavenumber
    range.  chi_mask and phi_masks are views of the stack.
    """

    grid: Grid
    masks: np.ndarray = field(repr=False)

    def __post_init__(self):
        self.masks.setflags(write=False)

    @property
    def q_max(self) -> int:
        return self.masks.shape[0] - 2

    @property
    def chi_mask(self) -> np.ndarray:
        return self.masks[0]

    @property
    def phi_masks(self) -> np.ndarray:
        return self.masks[1:]

    def block_weights(self, s) -> np.ndarray:
        """The 2^{s q} weights for q = -1, 0, ..., q_max, shape (q_max + 2,)
        + np.shape(s): one column per smoothness index in s."""
        return 2.0 ** np.multiply.outer(np.arange(-1, self.q_max + 1), s)


@cache
def build_partition(grid: Grid) -> LPPartition:
    """Evaluate the dyadic partition of unity on the grid's wavenumbers, once
    per grid: the grid alone fixes it, so every caller shares it."""
    xi = grid.wavenumbers
    # last ring whose support [3/4 * 2^q, 8/3 * 2^q] meets (0, xi_max]
    q_max = int(np.floor(np.log2(grid.xi_max / _CHI_INNER)))
    masks = np.vstack(
        [chi_profile(xi)] + [phi_profile(xi / 2.0**q) for q in range(q_max + 1)]
    )
    return LPPartition(grid=grid, masks=masks)


@dataclass(frozen=True)
class BesovParams:
    """The (s, p, r) triple selecting a Besov norm."""

    s: float
    p: float
    r: float

    def __post_init__(self):
        if not np.isfinite(self.s):
            raise ValueError(f"s must be finite, got {self.s}")
        if not self.p >= 1:
            raise ValueError(f"p must be in [1, inf], got {self.p}")
        if not self.r >= 1:
            raise ValueError(f"r must be in [1, inf], got {self.r}")

    @property
    def admissible(self) -> bool:
        """Whether (s, p, r) satisfies the well-posedness hypothesis
        s > max(2 + 1/p, 5/2) with r finite."""
        return self.s > max(2.0 + 1.0 / self.p, 2.5) and not np.isinf(self.r)

    def require_admissible(self) -> None:
        """Raise ValueError naming the threshold unless ``admissible``."""
        if not self.admissible:
            raise ValueError(
                f"inadmissible Besov parameters (s, p, r) = ({self.s}, "
                f"{self.p}, {self.r}): need s > max(2 + 1/p, 5/2) = "
                f"{max(2.0 + 1.0 / self.p, 2.5)} and r finite"
            )

    def shift(self, ds: float) -> "BesovParams":
        return BesovParams(s=self.s + ds, p=self.p, r=self.r)


def dyadic_block(f: GridFunction, q: int) -> GridFunction:
    """The dyadic block Delta_q f, on the partition of f's grid.

    q = -1 applies the low-pass chi mask, q >= 0 the ring masks; q <= -2 and
    q > q_max return the zero field.
    """
    part = build_partition(f.grid)
    if q <= -2 or q > part.q_max:
        return GridFunction.from_samples(f.grid, np.zeros(f.grid.N))
    mask = part.chi_mask if q == -1 else part.phi_masks[q]
    return GridFunction.from_coefficients(f.grid, mask * f.coefficients)


def low_cutoff(f: GridFunction, q: int) -> GridFunction:
    """The low-frequency cutoff S_q f, realized as one chi(2^{-q} xi) mask."""
    if q < 0:
        raise ValueError(f"low_cutoff requires q >= 0, got {q}")
    mask = chi_profile(f.grid.wavenumbers / 2.0**q)
    return GridFunction.from_coefficients(f.grid, mask * f.coefficients)


def _row_masks(part: LPPartition, half: np.ndarray) -> np.ndarray:
    """The (Q, 1, ..., 1, N//2 + 1) block masks against half-spectrum rows
    (..., N//2 + 1), one per block; N is even."""
    return part.masks[(slice(None),) + (None,) * (half.ndim - 1)
                      + (slice(None, half.shape[-1]),)]


def _parseval_norms(part: LPPartition, masks: np.ndarray, power: np.ndarray):
    """The L^2 norms of every dyadic block by Parseval, from the squared
    moduli of half-spectrum rows: ||Delta_q f||_{L^2}^2 =
    2 pi L sum_k w_k |mask_q c_k|^2 with weights (1, 2, ..., 2, 1), since each
    mode strictly between 0 and Nyquist stands for itself and its conjugate.
    One dot product per (block, row), not a matmul: BLAS picks its matmul
    kernel by row count, which moves the last bits."""
    weighted = 2.0 * masks**2
    weighted[..., [0, -1]] *= 0.5
    return np.sqrt(2.0 * np.pi * part.grid.L * np.vecdot(weighted, power))


def _block_lp_norms(part: LPPartition, half: np.ndarray, p: float):
    """L^p norms of every dyadic block for a batch of half-spectrum rows, each
    divided by its largest modulus before any power.

    half: (..., N//2 + 1) complex, the rfft of real sample rows under the
    amplitude normalization (divided by N).  Returns the block norms of the
    divided rows, shape (q_max + 2, ...) in block order q = -1, 0, ..., q_max,
    and each row's largest modulus, shape (...); a row whose largest modulus
    is 0, inf or NaN has NaN block norms.  At p = 2 they come by Parseval
    (_parseval_norms); otherwise one irfft of the masked blocks gives their
    samples.
    """
    grid = part.grid
    masks = _row_masks(part, half)
    modulus = np.abs(half)
    top = modulus.max(axis=-1, keepdims=True)
    with np.errstate(divide="ignore", invalid="ignore"):
        if p == 2:
            # the squared divided moduli overwrite the moduli
            power = np.square(np.multiply(modulus, 1.0 / top, out=modulus), out=modulus)
            return _parseval_norms(part, masks, power), top[..., 0]
        samples = np.fft.irfft(masks * (half * (grid.N / top)), grid.N)
        return lp_norm_samples(samples, grid.dx, p), top[..., 0]


def _block_norm_bounds(part: LPPartition, half: np.ndarray, p: float):
    """Upper bounds of _block_lp_norms(part, half, p), with its shapes and
    its division by each row's largest modulus, from the moduli of the modes
    alone: no block is inverted.

    With g = Delta_q f of a divided row, ||g||_2 is the Parseval value
    (_parseval_norms, the reduction's own at p = 2) and ||g||_inf <=
    sum_k w_k |mask_q c_k| with the same weights.  For p >= 2,
    ||g||_p <= ||g||_2^{2/p} ||g||_inf^{1 - 2/p} (Holder, sample by sample);
    for p < 2, ||g||_p <= (2 pi L)^{1/p - 1/2} ||g||_2.  So at p = 2 the
    bound is the reduction's value to the bit.  The one temporary as large
    as the rows is their moduli.
    """
    masks = _row_masks(part, half)
    modulus = np.abs(half)
    top = modulus.max(axis=-1, keepdims=True)
    with np.errstate(divide="ignore", invalid="ignore"):
        divided = np.multiply(modulus, 1.0 / top, out=modulus)
        if p > 2:  # the L^inf bound, read only there
            weighted = 2.0 * masks
            weighted[..., [0, -1]] *= 0.5
            sup = np.vecdot(weighted, divided)
        # the squared divided moduli overwrite the moduli
        two = _parseval_norms(part, masks, np.square(divided, out=divided))
    if p <= 2:  # (2 pi L)^0 = 1: at p = 2 the Parseval value itself
        return (2.0 * np.pi * part.grid.L) ** (1.0 / p - 0.5) * two, top[..., 0]
    if np.isinf(p):
        return sup, top[..., 0]
    return two ** (2.0 / p) * sup ** (1.0 - 2.0 / p), top[..., 0]


def _lr_sum(blocks: np.ndarray, weights: np.ndarray, r: float) -> np.ndarray:
    """The l^r sum over the leading block axis of blocks (Q, ...) weighted by
    weights (Q,) + shape(s), whose trailing axes broadcast over the trailing
    axes of the rows.  The sum runs block by block, in order, and is divided
    by its largest term before any power, so it neither underflows nor
    overflows; it is monotone in every block."""
    w = weights.reshape(weights.shape[:1] + (1,) * (blocks.ndim - weights.ndim)
                        + weights.shape[1:])
    # the trailing axis keeps a lone row an array: numpy scalars take powers
    # with other rounding than arrays do
    terms = (w * blocks)[..., None]
    out = terms.max(axis=0)
    if not np.isinf(r):
        # np.sum would sum a lone row pairwise
        out = out * sum((terms / out) ** r) ** (1.0 / r)
    return out[..., 0]


def _norms(part: LPPartition, half, params: BesovParams, s) -> np.ndarray:
    """Besov norms of half-spectrum rows (..., N//2 + 1), amplitude-normalized
    rfft of real samples, with p and r from params and smoothness s: a
    scalar, or an array that broadcasts over the trailing axes of the result,
    one index per entry.

    The rows are made C-contiguous, every sum runs within one row in a fixed
    order, and each row is divided by its largest modulus (and its l^r sum
    by its largest term) before any power and multiplied back after, so a
    row's norm depends only on the row: not on its batch, its memory layout
    or its scale.  A row whose largest modulus is 0, inf or NaN reads that.
    """
    blocks, top = _block_lp_norms(
        part, np.ascontiguousarray(half, dtype=complex), params.p)
    out = top * _lr_sum(blocks, part.block_weights(s), params.r)
    return np.where(np.isfinite(top) & (top > 0), out, top)


def _norm_bounds(part: LPPartition, half, params: BesovParams, s) -> np.ndarray:
    """Upper bounds of _norms(part, half, params, s), rows and shapes as
    there, from _block_norm_bounds: the l^r sum is monotone in every block,
    so it bounds the Besov norm.  At p = 2 a bound is the norm to the bit.
    A row whose largest modulus is 0, inf or NaN reads inf, and a bound
    that overflows reads inf."""
    blocks, top = _block_norm_bounds(
        part, np.ascontiguousarray(half, dtype=complex), params.p)
    with np.errstate(over="ignore"):
        out = top * _lr_sum(blocks, part.block_weights(s), params.r)
    return np.where(np.isfinite(top) & (top > 0), out, np.inf)


def besov_norm(f: GridFunction, params: BesovParams) -> float:
    """The Besov norm ( sum_q (2^{sq} ||Delta_q f||_{L^p})^r )^{1/r}, on the
    partition of f's grid."""
    part = build_partition(f.grid)
    return float(_norms(part, _half(part, f.coefficients), params, params.s))


def _half(part: LPPartition, coefficients) -> np.ndarray:
    """The first N//2 + 1 modes of full coefficient rows (..., N) of real
    fields, which are Hermitian: all the reduction reads."""
    return np.asarray(coefficients)[..., :part.grid.N // 2 + 1]


def besov_norms_batch(
    part: LPPartition, coefficients: np.ndarray, params: BesovParams
) -> np.ndarray:
    """Besov norms of a batch of coefficient rows of real fields (shape
    (..., N), Hermitian like GridFunction.coefficients); a row's norm depends
    only on the row, not on its batch, layout or scale."""
    return np.atleast_1d(_norms(part, _half(part, coefficients), params, params.s))


def _nodes_per_call(p: float, rows_per_node: int) -> int:
    """How many nodes, of rows_per_node norm rows each, one norm call at p
    takes: as many whole nodes as _NORM_CHUNK rows hold at p = 2, or
    _GENERAL_P_CHUNK rows otherwise, and at least one.  Every caller that
    norms rows in batches asks this."""
    budget = _NORM_CHUNK if p == 2 else _GENERAL_P_CHUNK
    return max(1, budget // max(1, rows_per_node))


def besov_norms_of_samples(
    part: LPPartition, samples: np.ndarray, params: BesovParams
) -> np.ndarray:
    """Besov norms of a batch of real sample rows (shape (..., N)), in
    chunks of the leading axis sized by _nodes_per_call, so a long batch
    needs bounded temporaries; a row's norm does not depend on its chunk."""
    samples = np.asarray(samples, dtype=float)
    step = _nodes_per_call(params.p, int(np.prod(samples.shape[1:-1])))

    def norms(rows):
        return _norms(part, np.fft.rfft(rows), params, params.s) / part.grid.N

    if samples.ndim == 1 or len(samples) <= step:
        return np.atleast_1d(norms(samples))
    return np.concatenate([norms(samples[i:i + step])
                           for i in range(0, len(samples), step)])


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
        if not self.epsilon > 0:
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
        # a width near the smallest float overflows the quotient to inf, off
        # the support, which is where those nodes lie
        with np.errstate(over="ignore"):
            u = dist / self.epsilon
        vals = np.zeros_like(u)
        inside = u < 1.0
        vals[inside] = np.exp(-1.0 / (1.0 - u[inside] ** 2))
        # x = 0 is a node inside the support, so the mass is positive
        return vals / (vals.sum() * grid.dx)


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
