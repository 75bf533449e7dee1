import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fwlab import (
    BesovParams,
    GridFunction,
    MollifierKernel,
    besov_norm,
    build_partition,
    dyadic_block,
    make_grid,
    mollify,
)
from fwlab.besov import (
    _block_lp_norms,
    besov_norms_batch,
    besov_norms_of_samples,
    chi_profile,
    phi_profile,
    check_multiplier_bound,
    check_product_estimate,
    low_cutoff,
)
from fwlab.spectral import lp_norm, lp_norm_samples

from conftest import random_field


class TestCutoffProfiles:
    def test_chi_plateau_and_support(self):
        xi = np.array([0.0, 0.5, 0.75, 4.0 / 3.0, 2.0, -0.3, -5.0])
        chi = chi_profile(xi)
        assert np.all(chi[np.abs(xi) <= 0.75] == 1.0)
        assert np.all(chi[np.abs(xi) >= 4.0 / 3.0] == 0.0)

    def test_chi_monotone_in_transition(self):
        xi = np.linspace(0.75, 4.0 / 3.0, 200)
        chi = chi_profile(xi)
        assert np.all(np.diff(chi) <= 1e-15)
        assert np.all((chi >= 0) & (chi <= 1))

    def test_phi_is_difference_of_dilates(self):
        xi = np.linspace(-6, 6, 400)
        assert np.allclose(phi_profile(xi), chi_profile(xi / 2) - chi_profile(xi))

    def test_phi_support(self):
        xi = np.array([0.5, 0.74, 2.7, 3.0, -2.8])
        assert np.all(phi_profile(xi) == 0.0)
        assert phi_profile(np.array([1.0]))[0] > 0.0

    def test_telescoping_exact(self):
        # chi(xi) + sum_q phi(2^-q xi) telescopes to chi(2^-Q xi), which is
        # identically one once 2^Q >= xi_max / 0.75.
        xi = np.linspace(-20, 20, 1001)
        total = chi_profile(xi)
        for q in range(0, 6):
            total = total + phi_profile(xi / 2**q)
        assert np.max(np.abs(total - 1.0)) <= 1e-15


class TestPartition:
    def test_q_max_example(self, part256):
        assert part256.q_max == 4

    @pytest.mark.parametrize("N,L,expected", [(128, 1.0, 6), (256, 1.0, 7), (1024, 8.0, 6)])
    def test_q_max_scaling(self, N, L, expected):
        part = build_partition(make_grid(N, L))
        assert part.q_max == expected

    @pytest.mark.parametrize("N", [128, 256, 1024])
    @pytest.mark.parametrize("L", [1.0, 8.0])
    def test_masks_sum_to_one(self, N, L):
        part = build_partition(make_grid(N, L))
        total = part.all_masks().sum(axis=0)
        assert np.max(np.abs(total - 1.0)) <= 1e-12

    def test_reconstruction(self, grid256, part256):
        rng = np.random.default_rng(23)
        f = random_field(grid256, rng)
        total = np.zeros(grid256.N)
        for q in range(-1, part256.q_max + 1):
            total = total + dyadic_block(part256, f, q).samples
        assert np.max(np.abs(total - f.samples)) <= 1e-10

    def test_blocks_outside_range_vanish(self, grid256, part256):
        rng = np.random.default_rng(29)
        f = random_field(grid256, rng)
        for q in (-3, -2, part256.q_max + 1, part256.q_max + 5):
            assert np.max(np.abs(dyadic_block(part256, f, q).samples)) == 0.0

    def test_almost_orthogonality(self, grid256_L1, part256_L1):
        # Blocks q and q' with |q - q'| >= 2 occupy disjoint annuli.
        rng = np.random.default_rng(31)
        f = random_field(grid256_L1, rng)
        blocks = [
            dyadic_block(part256_L1, f, q).coefficients
            for q in range(-1, part256_L1.q_max + 1)
        ]
        for i in range(len(blocks)):
            for j in range(i + 2, len(blocks)):
                overlap = np.sum(blocks[i] * np.conj(blocks[j]))
                assert abs(overlap) <= 1e-12

    def test_single_mode_block_assignment(self, grid256_L1, part256_L1):
        # sin(8x): xi = 8 has phi(8 / 2^q) nonzero only for q in {2, 3}.
        f = GridFunction.from_samples(grid256_L1, np.sin(8 * grid256_L1.x))
        w2 = phi_profile(np.array([8.0 / 4.0]))[0]
        w3 = phi_profile(np.array([8.0 / 8.0]))[0]
        b2 = dyadic_block(part256_L1, f, 2).samples
        b3 = dyadic_block(part256_L1, f, 3).samples
        assert np.max(np.abs(b2 - w2 * f.samples)) <= 1e-12
        assert np.max(np.abs(b3 - w3 * f.samples)) <= 1e-12
        for q in (-1, 0, 1, 4):
            assert np.max(np.abs(dyadic_block(part256_L1, f, q).samples)) <= 1e-13

    def test_low_cutoff_matches_partial_sum(self, grid256, part256):
        rng = np.random.default_rng(37)
        f = random_field(grid256, rng)
        for q in range(0, part256.q_max + 1):
            partial = dyadic_block(part256, f, -1).samples.copy()
            for j in range(-1 + 1, q):
                partial += dyadic_block(part256, f, j).samples
            direct = low_cutoff(part256, f, q).samples
            assert np.max(np.abs(direct - partial)) <= 1e-11

    def test_block_l2_bounded_by_total(self, grid256, part256):
        rng = np.random.default_rng(41)
        f = random_field(grid256, rng)
        for q in range(-1, part256.q_max + 1):
            assert lp_norm(dyadic_block(part256, f, q), 2) <= lp_norm(f, 2) * (1 + 1e-12)


class TestBesovParams:
    def test_admissibility_threshold(self):
        assert BesovParams(3.0, 2.0, 2.0).admissible
        assert BesovParams(2.6, 2.0, 2.0).admissible
        assert not BesovParams(2.5, 2.0, 2.0).admissible
        assert not BesovParams(2.9, 1.0, 2.0).admissible  # needs s > 2 + 1/p = 3
        assert not BesovParams(3.0, 2.0, np.inf).admissible

    def test_shift(self):
        p = BesovParams(3.0, 2.0, 2.0).shift(-1.0)
        assert (p.s, p.p, p.r) == (2.0, 2.0, 2.0)

    def test_rejects_bad_integrability(self):
        with pytest.raises(ValueError):
            BesovParams(3.0, 0.5, 2.0)
        with pytest.raises(ValueError):
            BesovParams(3.0, 2.0, 0.0)


class TestBesovNorm:
    def test_zero_field(self, grid256, part256, params322):
        f = GridFunction.from_samples(grid256, np.zeros(grid256.N))
        assert besov_norm(part256, f, params322) == 0.0

    def test_constant_field_closed_form(self, grid256_L1, part256_L1):
        # A constant sits entirely in the q = -1 block, so the norm is
        # 2^{-s} * ||f||_{L^2} regardless of r.
        f = GridFunction.from_samples(grid256_L1, np.ones(grid256_L1.N))
        got = besov_norm(part256_L1, f, BesovParams(2.0, 2.0, 2.0))
        assert got == pytest.approx(0.25 * np.sqrt(2 * np.pi), rel=1e-12)

    def test_single_mode_oracle(self, grid256_L1, part256_L1):
        # sin(8x) splits over blocks 2 and 3 with exact phi weights; its L^2
        # norm is sqrt(pi), so the norm is computable by hand.
        f = GridFunction.from_samples(grid256_L1, np.sin(8 * grid256_L1.x))
        s = 3.0
        w2 = phi_profile(np.array([2.0]))[0] * np.sqrt(np.pi)
        w3 = phi_profile(np.array([1.0]))[0] * np.sqrt(np.pi)
        expected = np.sqrt((2.0 ** (2 * s) * w2) ** 2 + (2.0 ** (3 * s) * w3) ** 2)
        got = besov_norm(part256_L1, f, BesovParams(s, 2.0, 2.0))
        assert got == pytest.approx(expected, rel=1e-12)

    def test_frozen_value(self, grid256, part256, params322):
        f = GridFunction.from_samples(grid256, np.sin(grid256.x))
        assert besov_norm(part256, f, params322) == pytest.approx(
            1.4239785866369687, rel=1e-12
        )

    def test_homogeneity(self, grid256, part256, params322):
        rng = np.random.default_rng(43)
        f = random_field(grid256, rng)
        n1 = besov_norm(part256, f, params322)
        n2 = besov_norm(part256, 3.5 * f, params322)
        assert n2 == pytest.approx(3.5 * n1, rel=1e-12)

    def test_triangle_inequality(self, grid256, part256, params322):
        rng = np.random.default_rng(47)
        for _ in range(5):
            f = random_field(grid256, rng)
            g = random_field(grid256, rng)
            lhs = besov_norm(part256, f + g, params322)
            rhs = besov_norm(part256, f, params322) + besov_norm(part256, g, params322)
            assert lhs <= rhs * (1 + 1e-12)

    def test_monotone_in_s(self, grid256, part256):
        rng = np.random.default_rng(53)
        f = random_field(grid256, rng)
        values = [
            besov_norm(part256, f, BesovParams(s, 2.0, 2.0)) for s in (2.6, 3.0, 3.5, 4.0)
        ]
        assert all(a <= b * (1 + 1e-12) for a, b in zip(values, values[1:]))

    def test_r_monotone_decreasing(self, grid256, part256):
        # l^r norms of a fixed sequence shrink as r grows.
        rng = np.random.default_rng(59)
        f = random_field(grid256, rng)
        values = [besov_norm(part256, f, BesovParams(3.0, 2.0, r)) for r in (1.0, 2.0, 4.0)]
        assert values[0] >= values[1] >= values[2]

    def test_batch_matches_scalar(self, grid256, part256, params322):
        rng = np.random.default_rng(61)
        fields = [random_field(grid256, rng) for _ in range(4)]
        rows = np.stack([f.coefficients for f in fields])
        batch = besov_norms_batch(part256, rows, params322)
        for f, b in zip(fields, batch):
            assert b == pytest.approx(besov_norm(part256, f, params322), rel=1e-13)


def _sample_block_norms(part, coefficients, p):
    """Block L^p norms by definition: masked coefficients -> ifft -> L^p."""
    masks = part.all_masks()[(slice(None),) + (None,) * (coefficients.ndim - 1)]
    samples = np.fft.ifft(masks * coefficients[None] * part.grid.N, axis=-1).real
    return lp_norm_samples(samples, part.grid.dx, p)


def _random_coefficients(grid, rng, shape, k_max):
    rows = np.stack([
        random_field(grid, rng, k_max=k_max).coefficients
        for _ in range(int(np.prod(shape)))
    ])
    return rows.reshape(shape + (grid.N,))


class TestParsevalBlocks:
    """At p = 2 the block norms come from the coefficients (Parseval)."""

    @pytest.mark.parametrize("shape", [(), (3,), (2, 3)])
    def test_matches_sample_definition(self, grid256, part256, shape):
        rng = np.random.default_rng(211)
        c = _random_coefficients(grid256, rng, shape, k_max=grid256.N // 2 - 1)
        got = _block_lp_norms(part256, c, 2.0)
        want = _sample_block_norms(part256, c, 2.0)
        assert got.shape == want.shape == (part256.q_max + 2,) + shape
        np.testing.assert_allclose(got, want, rtol=1e-13, atol=0.0)

    @settings(max_examples=100, deadline=None, database=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        k_max=st.integers(1, 127),
        s=st.floats(-1.0, 4.0),
        r=st.sampled_from([1.0, 1.5, 2.0, 3.0, np.inf]),
    )
    def test_property_band_limited_rows(self, grid256, part256, seed, k_max, s, r):
        rng = np.random.default_rng(seed)
        c = _random_coefficients(grid256, rng, (4,), k_max=k_max)
        want_blocks = _sample_block_norms(part256, c, 2.0)
        # the sample path's inverse FFT leaves an absolute roundoff floor in
        # blocks the rows barely reach; the weights 2^{sq} magnify it
        row = np.fft.ifft(c * grid256.N, axis=-1).real
        floor = 1e-14 * lp_norm_samples(row, grid256.dx, 2.0)
        got_blocks = _block_lp_norms(part256, c, 2.0)
        assert np.all(np.abs(got_blocks - want_blocks) <= 1e-13 * want_blocks + floor)
        weights = part256.block_weights(s)
        terms = weights[:, None] * want_blocks
        want = terms.max(axis=0) if np.isinf(r) else np.sum(terms**r, axis=0) ** (1 / r)
        got = besov_norms_batch(part256, c, BesovParams(s, 2.0, r))
        assert np.all(np.abs(got - want) <= 1e-13 * want + weights.sum() * floor)

    def test_overflowing_row_is_inf(self, grid256, part256, params322):
        # |c|^2 overflows on a huge finite row; the sample path gives inf and
        # so must Parseval, not NaN from 0 * inf outside a block's support
        row = 1e200 * np.sin(grid256.x)
        with np.errstate(over="ignore"):
            got = besov_norms_of_samples(part256, row, params322)
        assert np.array_equal(got, [np.inf])


class TestMollifier:
    def test_rejects_wide_kernel(self, grid256_L1):
        kern = MollifierKernel(epsilon=np.pi + 0.1)
        with pytest.raises(ValueError):
            kern.samples_on(grid256_L1)

    def test_unit_mass(self, grid256):
        for eps in (0.4, 0.1, 0.05):
            rho = MollifierKernel(eps).samples_on(grid256)
            assert grid256.dx * np.sum(rho) == pytest.approx(1.0, rel=1e-13)
            assert np.all(rho >= 0)

    def test_fixes_constants(self, grid256):
        f = GridFunction.from_samples(grid256, np.full(grid256.N, 2.0))
        out = mollify(f, MollifierKernel(0.3))
        assert np.max(np.abs(out.samples - 2.0)) <= 1e-12

    def test_preserves_mean(self, grid256):
        rng = np.random.default_rng(67)
        f = random_field(grid256, rng)
        out = mollify(f, MollifierKernel(0.25))
        assert out.mean() == pytest.approx(f.mean(), abs=1e-13)

    def test_monotone_convergence(self, grid256, part256, params322):
        rng = np.random.default_rng(71)
        f = random_field(grid256, rng, k_max=20)
        errs = []
        for eps in (0.4, 0.2, 0.1, 0.05):
            out = mollify(f, MollifierKernel(eps))
            errs.append(besov_norm(part256, out - f, params322))
        assert all(a >= b for a, b in zip(errs, errs[1:]))

    def test_identity_below_grid_scale(self, grid256, params322, part256):
        # Once the kernel support fits inside one cell only the center sample
        # survives, and unit-mass normalization makes it a discrete delta.
        rng = np.random.default_rng(73)
        f = random_field(grid256, rng)
        out = mollify(f, MollifierKernel(0.5 * grid256.dx))
        assert np.max(np.abs(out.samples - f.samples)) <= 1e-12


class TestEstimateProbes:
    def test_product_ratio_bounded_over_family(self, grid256, part256, params322):
        rng = np.random.default_rng(79)
        ratios = [
            check_product_estimate(
                part256, random_field(grid256, rng), random_field(grid256, rng), params322
            )
            for _ in range(20)
        ]
        assert max(ratios) <= 5.0

    def test_multiplier_ratio_bounded_over_family(self, grid256, part256, params322):
        rng = np.random.default_rng(83)
        ratios = [
            check_multiplier_bound(part256, random_field(grid256, rng), params322)
            for _ in range(20)
        ]
        assert max(ratios) <= 5.0

    def test_zero_input_rejected(self, grid256, part256, params322):
        z = GridFunction.from_samples(grid256, np.zeros(grid256.N))
        with pytest.raises(ValueError):
            check_multiplier_bound(part256, z, params322)
