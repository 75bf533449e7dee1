import numpy as np
import pytest

from fwlab import BesovParams, GridFunction, build_partition, make_grid


@pytest.fixture(scope="session")
def grid256():
    return make_grid(256, 8.0)


@pytest.fixture(scope="session")
def grid256_L1():
    return make_grid(256, 1.0)


@pytest.fixture(scope="session")
def part256(grid256):
    return build_partition(grid256)


@pytest.fixture(scope="session")
def part256_L1(grid256_L1):
    return build_partition(grid256_L1)


@pytest.fixture(scope="session")
def params322():
    return BesovParams(s=3.0, p=2.0, r=2.0)


def random_field(grid, rng, k_max=None, amplitude=1.0):
    """Seeded band-limited random real field used across the suite."""
    if k_max is None:
        k_max = grid.N // 4
    coeffs = np.zeros(grid.N, dtype=complex)
    for k in range(1, k_max + 1):
        c = rng.standard_normal() + 1j * rng.standard_normal()
        coeffs[k] = c
        coeffs[-k] = np.conj(c)
    coeffs[0] = rng.standard_normal()
    f = GridFunction.from_coefficients(grid, coeffs)
    peak = float(np.max(np.abs(f.samples)))
    return f * (amplitude / peak) if peak > 0 else f


def same_bits(a, b):
    """a and b have one shape and dtype and the same bits, signed zeros and
    NaN payloads included, as int64 views of float arrays compare them."""
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()
