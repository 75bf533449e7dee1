import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

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
import fwlab.besov
from fwlab.besov import (
    _block_lp_norms,
    _norm_bounds,
    _norms,
    besov_norms_batch,
    besov_norms_of_samples,
    chi_profile,
    phi_profile,
    low_cutoff,
)
from fwlab.spectral import lambda_inv_dx, lp_norm, lp_norm_samples

from conftest import random_field, same_bits


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
        total = part.masks.sum(axis=0)
        assert np.max(np.abs(total - 1.0)) <= 1e-12

    @settings(max_examples=60, deadline=None, database=None)
    @given(half_n=st.integers(4, 256), L=st.floats(0.05, 100.0))
    def test_property_masks_sum_to_one(self, half_n, L):
        part = build_partition(make_grid(2 * half_n, L))
        assert np.max(np.abs(part.masks.sum(axis=0) - 1.0)) <= 1e-12

    def test_masks_are_read_only_views_of_one_stack(self, part256):
        stack = part256.masks
        assert stack.flags.owndata
        assert stack.shape == (part256.q_max + 2, part256.grid.N)
        assert np.shares_memory(part256.chi_mask, stack)
        assert np.shares_memory(part256.phi_masks, stack)
        assert not any(m.flags.writeable
                       for m in (stack, part256.chi_mask, part256.phi_masks))

    def test_grid_inside_the_low_block(self):
        # xi_max = 0.5 < 3/4: no ring meets the grid, chi alone is one
        part = build_partition(make_grid(8, 8.0))
        assert part.q_max == -1
        assert np.array_equal(part.masks, np.ones((1, 8)))

    def test_built_once_per_grid(self):
        assert build_partition(make_grid(128, 2.0)) is build_partition(make_grid(128, 2.0))

    def test_reconstruction(self, grid256, part256):
        rng = np.random.default_rng(23)
        f = random_field(grid256, rng)
        total = np.zeros(grid256.N)
        for q in range(-1, part256.q_max + 1):
            total = total + dyadic_block(f, q).samples
        assert np.max(np.abs(total - f.samples)) <= 1e-10

    def test_blocks_outside_range_vanish(self, grid256, part256):
        rng = np.random.default_rng(29)
        f = random_field(grid256, rng)
        for q in (-3, -2, part256.q_max + 1, part256.q_max + 5):
            assert np.max(np.abs(dyadic_block(f, q).samples)) == 0.0

    def test_almost_orthogonality(self, grid256_L1, part256_L1):
        # Blocks q and q' with |q - q'| >= 2 occupy disjoint annuli.
        rng = np.random.default_rng(31)
        f = random_field(grid256_L1, rng)
        blocks = [
            dyadic_block(f, q).coefficients
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
        b2 = dyadic_block(f, 2).samples
        b3 = dyadic_block(f, 3).samples
        assert np.max(np.abs(b2 - w2 * f.samples)) <= 1e-12
        assert np.max(np.abs(b3 - w3 * f.samples)) <= 1e-12
        for q in (-1, 0, 1, 4):
            assert np.max(np.abs(dyadic_block(f, q).samples)) <= 1e-13

    def test_low_cutoff_matches_partial_sum(self, grid256, part256):
        rng = np.random.default_rng(37)
        f = random_field(grid256, rng)
        for q in range(0, part256.q_max + 1):
            partial = dyadic_block(f, -1).samples.copy()
            for j in range(-1 + 1, q):
                partial += dyadic_block(f, j).samples
            direct = low_cutoff(f, q).samples
            assert np.max(np.abs(direct - partial)) <= 1e-11

    def test_low_cutoff_rejects_negative_q(self, grid256):
        f = GridFunction.from_samples(grid256, np.sin(grid256.x))
        with pytest.raises(ValueError, match="q >= 0"):
            low_cutoff(f, -1)

    def test_block_l2_bounded_by_total(self, grid256, part256):
        rng = np.random.default_rng(41)
        f = random_field(grid256, rng)
        for q in range(-1, part256.q_max + 1):
            assert lp_norm(dyadic_block(f, q), 2) <= lp_norm(f, 2) * (1 + 1e-12)


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

    @pytest.mark.parametrize("s, p, r, name", [
        (3.0, np.nan, 2.0, "p"), (3.0, 2.0, np.nan, "r"),
        (np.nan, 2.0, 2.0, "s"), (np.inf, 2.0, 2.0, "s"), (-np.inf, 2.0, 2.0, "s"),
    ])
    def test_rejects_nan_and_infinite_smoothness(self, s, p, r, name):
        # NaN fails every comparison, so a check written as p < 1 lets it by
        with pytest.raises(ValueError, match=f"^{name} must be"):
            BesovParams(s, p, r)


class TestBesovNorm:
    def test_zero_field(self, grid256, part256, params322):
        f = GridFunction.from_samples(grid256, np.zeros(grid256.N))
        assert besov_norm(f, params322) == 0.0

    def test_constant_field_closed_form(self, grid256_L1, part256_L1):
        # A constant sits entirely in the q = -1 block, so the norm is
        # 2^{-s} * ||f||_{L^2} regardless of r.
        f = GridFunction.from_samples(grid256_L1, np.ones(grid256_L1.N))
        got = besov_norm(f, BesovParams(2.0, 2.0, 2.0))
        assert got == pytest.approx(0.25 * np.sqrt(2 * np.pi), rel=1e-12)

    def test_single_mode_oracle(self, grid256_L1, part256_L1):
        # sin(8x) splits over blocks 2 and 3 with exact phi weights; its L^2
        # norm is sqrt(pi), so the norm is computable by hand.
        f = GridFunction.from_samples(grid256_L1, np.sin(8 * grid256_L1.x))
        s = 3.0
        w2 = phi_profile(np.array([2.0]))[0] * np.sqrt(np.pi)
        w3 = phi_profile(np.array([1.0]))[0] * np.sqrt(np.pi)
        expected = np.sqrt((2.0 ** (2 * s) * w2) ** 2 + (2.0 ** (3 * s) * w3) ** 2)
        got = besov_norm(f, BesovParams(s, 2.0, 2.0))
        assert got == pytest.approx(expected, rel=1e-12)

    def test_frozen_value(self, grid256, part256, params322):
        f = GridFunction.from_samples(grid256, np.sin(grid256.x))
        assert besov_norm(f, params322) == pytest.approx(
            1.4239785866369687, rel=1e-12
        )

    def test_homogeneity(self, grid256, part256, params322):
        rng = np.random.default_rng(43)
        f = random_field(grid256, rng)
        n1 = besov_norm(f, params322)
        n2 = besov_norm(3.5 * f, params322)
        assert n2 == pytest.approx(3.5 * n1, rel=1e-12)

    def test_triangle_inequality(self, grid256, part256, params322):
        rng = np.random.default_rng(47)
        for _ in range(5):
            f = random_field(grid256, rng)
            g = random_field(grid256, rng)
            lhs = besov_norm(f + g, params322)
            rhs = besov_norm(f, params322) + besov_norm(g, params322)
            assert lhs <= rhs * (1 + 1e-12)

    def test_monotone_in_s(self, grid256, part256):
        rng = np.random.default_rng(53)
        f = random_field(grid256, rng)
        values = [
            besov_norm(f, BesovParams(s, 2.0, 2.0)) for s in (2.6, 3.0, 3.5, 4.0)
        ]
        assert all(a <= b * (1 + 1e-12) for a, b in zip(values, values[1:]))

    def test_r_monotone_decreasing(self, grid256, part256):
        # l^r norms of a fixed sequence shrink as r grows.
        rng = np.random.default_rng(59)
        f = random_field(grid256, rng)
        values = [besov_norm(f, BesovParams(3.0, 2.0, r)) for r in (1.0, 2.0, 4.0)]
        assert values[0] >= values[1] >= values[2]

    def test_batch_matches_scalar(self, grid256, part256, params322):
        rng = np.random.default_rng(61)
        fields = [random_field(grid256, rng) for _ in range(4)]
        rows = np.stack([f.coefficients for f in fields])
        batch = besov_norms_batch(part256, rows, params322)
        for f, b in zip(fields, batch):
            assert b == pytest.approx(besov_norm(f, params322), rel=1e-13)


def _sample_block_norms(part, coefficients, p):
    """Block L^p norms by definition: masked coefficients -> ifft -> L^p."""
    masks = part.masks[(slice(None),) + (None,) * (coefficients.ndim - 1)]
    samples = np.fft.ifft(masks * coefficients[None] * part.grid.N, axis=-1).real
    return lp_norm_samples(samples, part.grid.dx, p)


def _random_coefficients(grid, rng, shape, k_max):
    rows = np.stack([
        random_field(grid, rng, k_max=k_max).coefficients
        for _ in range(int(np.prod(shape)))
    ])
    return rows.reshape(shape + (grid.N,))


def _half(c):
    """The rfft half of full coefficient rows: the modes 0..N/2."""
    return c[..., :c.shape[-1] // 2 + 1]


class TestParsevalBlocks:
    """At p = 2 the block norms come from the half spectra (Parseval)."""

    @pytest.mark.parametrize("shape", [(), (3,), (2, 3)])
    def test_matches_sample_definition(self, grid256, part256, shape):
        rng = np.random.default_rng(211)
        c = _random_coefficients(grid256, rng, shape, k_max=grid256.N // 2 - 1)
        blocks, top = _block_lp_norms(part256, _half(c), 2.0)
        got = top * blocks
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
        blocks, top = _block_lp_norms(part256, _half(c), 2.0)
        got_blocks = top * blocks
        assert np.all(np.abs(got_blocks - want_blocks) <= 1e-13 * want_blocks + floor)
        weights = part256.block_weights(s)
        terms = weights[:, None] * want_blocks
        want = terms.max(axis=0) if np.isinf(r) else np.sum(terms**r, axis=0) ** (1 / r)
        got = besov_norms_batch(part256, c, BesovParams(s, 2.0, r))
        assert np.all(np.abs(got - want) <= 1e-13 * want + weights.sum() * floor)

    @settings(max_examples=60, deadline=None, database=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        lam=st.one_of(st.just(0.0), st.floats(1e-3, 1e3), st.floats(-1e3, -1e-3)),
        p=st.sampled_from([1.0, 2.0, 4.0, np.inf]),
        s=st.floats(-1.0, 4.0),
        r=st.sampled_from([1.0, 2.0, np.inf]),
    )
    def test_property_homogeneity(self, grid256, part256, seed, lam, p, s, r):
        rng = np.random.default_rng(seed)
        c = _random_coefficients(grid256, rng, (3,), k_max=64)
        params = BesovParams(s, p, r)
        np.testing.assert_allclose(
            besov_norms_batch(part256, lam * c, params),
            abs(lam) * besov_norms_batch(part256, c, params), rtol=1e-12, atol=0.0)

    @settings(max_examples=60, deadline=None, database=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        log_lam=st.floats(-250.0, 250.0),
        sign=st.sampled_from([1.0, -1.0]),
        p=st.sampled_from([1.0, 2.0, 4.0, np.inf]),
        s=st.floats(-1.0, 4.0),
        r=st.sampled_from([1.0, 2.0, np.inf]),
    )
    @example(seed=0, log_lam=np.log10(1.24e-205), sign=1.0, p=1.0, s=3.0, r=2.0)
    @example(seed=0, log_lam=250.0, sign=1.0, p=1.0, s=3.0, r=2.0)
    @example(seed=0, log_lam=-160.0, sign=1.0, p=2.0, s=3.0, r=2.0)
    @example(seed=0, log_lam=-80.0, sign=1.0, p=4.0, s=3.0, r=2.0)
    @example(seed=0, log_lam=-160.0, sign=1.0, p=4.0, s=3.0, r=2.0)
    @example(seed=0, log_lam=200.0, sign=1.0, p=2.0, s=3.0, r=2.0)
    @example(seed=0, log_lam=200.0, sign=1.0, p=4.0, s=3.0, r=2.0)
    def test_property_homogeneity_far_from_unit_scale(self, grid256, part256, seed,
                                                       log_lam, sign, p, s, r):
        # each row is divided by its largest modulus before any power, and
        # the l^r sum by its largest term, so no power underflows or overflows
        rng = np.random.default_rng(seed)
        c = _random_coefficients(grid256, rng, (3,), k_max=64)
        lam = sign * 10.0**log_lam
        params = BesovParams(s, p, r)
        np.testing.assert_allclose(
            besov_norms_batch(part256, lam * c, params),
            abs(lam) * besov_norms_batch(part256, c, params), rtol=1e-12, atol=0.0)

    @settings(max_examples=60, deadline=None, database=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n_rows=st.integers(1, 40),
        cuts=st.lists(st.integers(1, 39), max_size=6),
        L=st.sampled_from([1.0, 8.0]),
        p=st.sampled_from([1.0, 2.0, 4.0, np.inf]),
        s=st.floats(-1.0, 4.0),
        r=st.sampled_from([1.0, 1.5, 2.0, np.inf]),
    )
    def test_property_norms_independent_of_batching(self, seed, n_rows, cuts, L,
                                                     p, s, r):
        # any split of a batch gives each row the whole batch's norm bit for
        # bit, a lone (N,) row included; L = 1 has 9 blocks, L = 8 has 6
        grid = make_grid(256, L)
        part = build_partition(grid)
        rng = np.random.default_rng(seed)
        scale = 10.0 ** rng.uniform(-3.0, 3.0, (n_rows, 1))
        c = scale * _random_coefficients(grid, rng, (n_rows,), k_max=127)
        params = BesovParams(s, p, r)
        whole = besov_norms_batch(part, c, params)
        bounds = [0] + sorted({k for k in cuts if k < n_rows}) + [n_rows]
        for a, b in zip(bounds, bounds[1:]):
            assert np.array_equal(besov_norms_batch(part, c[a:b], params), whole[a:b])
        assert np.array_equal(besov_norms_batch(part, c[0], params), whole[:1])

    @settings(max_examples=60, deadline=None, database=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n_rows=st.integers(1, 12),
        p=st.sampled_from([1.0, 2.0, 4.0, np.inf]),
        s=st.floats(-1.0, 4.0),
        r=st.sampled_from([1.0, 1.5, 2.0, np.inf]),
    )
    def test_property_norms_independent_of_layout(self, grid256, part256, seed,
                                                   n_rows, p, s, r):
        # a row's norm depends only on the row: Fortran-ordered, reversed
        # and broadcast copies of a batch give the C-ordered batch's bits
        rng = np.random.default_rng(seed)
        scale = 10.0 ** rng.uniform(-3.0, 3.0, (n_rows, 1))
        c = scale * _random_coefficients(grid256, rng, (n_rows,), k_max=127)
        params = BesovParams(s, p, r)
        want = besov_norms_batch(part256, c, params)
        assert np.array_equal(besov_norms_batch(part256, np.asfortranarray(c), params),
                              want)
        assert np.array_equal(besov_norms_batch(part256, c[::-1], params)[::-1], want)
        wide = np.broadcast_to(c, (3,) + c.shape)
        assert np.array_equal(besov_norms_batch(part256, wide, params),
                              np.broadcast_to(want, (3, n_rows)))
        # one row viewed over many nodes, as a constant transport field is
        tall = np.broadcast_to(c[:1].T, (grid256.N, n_rows)).T
        assert np.array_equal(besov_norms_batch(part256, tall, params),
                              np.full(n_rows, want[0]))

    def test_overflowing_row_is_inf(self, grid256, part256, params322):
        # |c|^2 would overflow on 1e200 sin x unscaled; it reads its norm
        row = np.sin(grid256.x)
        got = besov_norms_of_samples(part256, 1e200 * row, params322)
        want = 1e200 * besov_norms_of_samples(part256, row, params322)
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=0.0)
        assert got[0] == pytest.approx(1.4239785866369687e200, rel=1e-12)
        # empirical_lifespan counts a node whose norm is not finite as over
        # its bound: a coefficient that overflowed reads inf, a NaN reads NaN,
        # and samples holding either read neither finite
        c = np.fft.fft(row) / grid256.N
        for p in (1.0, 2.0, 4.0, np.inf):
            params = BesovParams(3.0, p, 2.0)
            for bad, reads in ((np.inf, np.inf), (np.nan, np.nan)):
                coefficients = c.copy()
                coefficients[3] = bad
                got = besov_norms_batch(part256, coefficients, params)
                assert np.array_equal(got, [reads], equal_nan=True), (p, bad)
                samples = row.copy()
                samples[7] = bad
                with np.errstate(invalid="ignore"):
                    got = besov_norms_of_samples(part256, samples, params)
                assert not np.isfinite(got[0]), (p, bad)


    @pytest.mark.parametrize("p, chunk", [(1.0, 32), (2.0, 256), (4.0, 32), (np.inf, 32)])
    def test_sample_norms_chunked_by_p(self, grid256, part256, monkeypatch, p, chunk):
        # 1001 rows in chunks of 32 at p != 2, where a call inverts every
        # dyadic block of every row, and 256 at p = 2, with the bits of
        # chunks of 256 at every p
        rng = np.random.default_rng(443)
        rows = rng.standard_normal((1001, grid256.N))
        params = BesovParams(3.0, p, 2.0)
        monkeypatch.setattr(fwlab.besov, "_GENERAL_P_CHUNK", fwlab.besov._NORM_CHUNK)
        want = besov_norms_of_samples(part256, rows, params)
        monkeypatch.undo()
        sizes = []

        def counting(part, half, *args):
            sizes.append(len(half))
            return _norms(part, half, *args)

        monkeypatch.setattr(fwlab.besov, "_norms", counting)
        got = besov_norms_of_samples(part256, rows, params)
        assert sizes == [chunk] * (1001 // chunk) + [1001 % chunk]
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("p", [1.0, 2.0, 4.0, np.inf])
    def test_sample_norms_divided_by_N_not_the_spectra(self, p):
        # besov_norms_of_samples divides the norms by N, not the rfft of the
        # rows: a row's norm scales with it, to the bit where N is a power of
        # two and to rounding elsewhere.  A zero row and a row holding NaN
        # read what they read when the spectra are divided; a row holding
        # inf reads inf, where dividing its modes inf -/+ inf j by N made
        # them NaN (numpy divides a complex array by a real as by a complex)
        params = BesovParams(3.0, p, 2.0)
        for N, rtol in [(256, 0.0), (96, 2e-15)]:
            grid = make_grid(N, 8.0)
            part = build_partition(grid)
            rng = np.random.default_rng(449)
            rows = np.array([random_field(grid, rng, k_max=N // 4, amplitude=a).samples
                             for a in (1e-3, 0.1, 1.0, 50.0)] + [np.zeros(N)] * 3)
            rows[-2, 5], rows[-1, 3] = np.nan, np.inf
            with np.errstate(invalid="ignore"):  # the rfft of inf is inf - inf
                got = besov_norms_of_samples(part, rows, params)
                want = _norms(part, np.fft.rfft(rows) / N, params, params.s)
            if rtol == 0.0:
                assert same_bits(got[:-1], want[:-1])
            else:
                np.testing.assert_allclose(got[:-3], want[:-3], rtol=rtol, atol=0.0)
                assert same_bits(got[-3:-1], want[-3:-1])
            assert got[-1] == np.inf and np.isnan(want[-1])

class TestNormBounds:
    """_norm_bounds bounds _norms from the moduli of the modes alone."""

    @settings(max_examples=150, deadline=None, database=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        N=st.sampled_from([64, 256]),
        kind=st.sampled_from(["random", "single", "zero"]),
        decay=st.floats(0.0, 0.5),
        log2_scale=st.integers(-1000, 500),
        p=st.sampled_from([1.0, 1.5, 2.0, 3.0, 4.0, np.inf]),
        s=st.floats(-1.0, 4.0),
        r=st.sampled_from([1.0, 2.0, np.inf]),
    )
    @example(seed=0, N=256, kind="random", decay=0.0, log2_scale=-1000, p=4.0, s=3.0, r=2.0)
    @example(seed=0, N=64, kind="single", decay=0.0, log2_scale=500, p=np.inf, s=4.0, r=1.0)
    def test_property_bound_dominates_norm(self, seed, N, kind, decay, log2_scale,
                                           p, s, r):
        # an l^r sum that is not divided by its largest term underflows to
        # 0 at 2^-1000, r = 2; a zero row's bound is inf
        part = build_partition(make_grid(N, 8.0))
        rng = np.random.default_rng(seed)
        half = np.zeros((5, N // 2 + 1), dtype=complex)
        if kind == "random":
            half[:] = (rng.standard_normal(half.shape) + 1j * rng.standard_normal(half.shape)
                       ) * np.exp(-decay * np.arange(N // 2 + 1))
        elif kind == "single":
            k = rng.integers(0, N // 2 + 1, len(half))
            half[np.arange(len(half)), k] = rng.standard_normal(len(half)) + 1j
        half *= 2.0**log2_scale
        params = BesovParams(s, p, r)
        exact = _norms(part, half, params, s)
        bound = _norm_bounds(part, half, params, s)
        nonzero = np.isfinite(exact) & (exact > 0)
        assert np.array_equal(nonzero, np.abs(half).max(axis=-1) > 0)
        assert np.all(bound[nonzero] >= exact[nonzero] * (1.0 - 1e-12))
        assert np.all(bound[~nonzero] == np.inf)
        if p == 2:
            assert np.array_equal(bound, np.where(nonzero, exact, np.inf))

    def test_bound_of_a_row_not_finite_is_inf(self, part256):
        half = np.ones((3, 129), dtype=complex)
        half[0, 5], half[1, 7] = np.inf, np.nan
        for p in (1.0, 2.0, 4.0, np.inf):
            bound = _norm_bounds(part256, half, BesovParams(3.0, p, 2.0), 3.0)
            assert np.array_equal(bound[:2], [np.inf, np.inf]) and np.isfinite(bound[2])


def _full_spectrum_norms(part, c, params):
    """The reduction on full coefficient rows (..., N): Parseval over all N
    modes at p = 2, ifft(...).real of the masked blocks otherwise."""
    if params.p == 2:
        sums = np.sum(np.abs(part.masks[:, None, :] * c[None]) ** 2, axis=-1)
        blocks = np.sqrt(2.0 * np.pi * part.grid.L * sums)
    else:
        blocks = _sample_block_norms(part, c, params.p)
    terms = part.block_weights(params.s)[:, None] * blocks
    if np.isinf(params.r):
        return terms.max(axis=0)
    return np.sum(terms**params.r, axis=0) ** (1.0 / params.r)


@pytest.mark.parametrize("p", [1.0, 2.0, 4.0, np.inf])
class TestHalfSpectrumOracles:
    """The reduction reads the N//2 + 1 modes of an rfft: modes 0 and N/2
    stand for themselves, every other mode for itself and its conjugate."""

    def test_constant_row(self, grid256, part256, p):
        # only the low-pass block meets xi = 0, where chi = 1
        half = np.zeros(grid256.N // 2 + 1, dtype=complex)
        half[0] = -0.7
        params = BesovParams(3.0, p, 2.0)
        want = 2.0**-3.0 * 0.7 * (2.0 * np.pi * grid256.L) ** (1.0 / p)
        assert _norms(part256, half, params, params.s) == pytest.approx(want, rel=1e-14)

    def test_nyquist_row(self, grid256, part256, p):
        # a (-1)^j: the Nyquist mode is its own conjugate; each block is
        # its mask value there times the row
        a, N = 1.3, grid256.N
        half = np.zeros(N // 2 + 1, dtype=complex)
        half[-1] = a
        np.testing.assert_allclose(np.fft.irfft(half * N, N), a * (-1.0) ** np.arange(N),
                                   rtol=0.0, atol=1e-15)
        for r in (1.0, 2.0, np.inf):
            params = BesovParams(3.0, p, r)
            terms = (part256.block_weights(3.0) * part256.masks[:, N // 2]
                     * a * (2.0 * np.pi * grid256.L) ** (1.0 / p))
            want = terms.max() if np.isinf(r) else np.sum(terms**r) ** (1.0 / r)
            assert _norms(part256, half, params, 3.0) == pytest.approx(want, rel=1e-14)

    @pytest.mark.parametrize("m", [1, 5, 21, 40, 127])
    def test_single_mode(self, grid256, part256, p, m):
        # a cos(m x / L) has the half-spectrum mode a/2 at m; each block is
        # its mask value at xi_m times the row, normed by definition
        a = 0.9
        half = np.zeros(grid256.N // 2 + 1, dtype=complex)
        half[m] = a / 2
        row = a * np.cos(m * grid256.x / grid256.L)
        blocks = np.array([lp_norm_samples(mq * row, grid256.dx, p)
                           for mq in part256.masks[:, m]])
        if p == 2:
            np.testing.assert_allclose(blocks, a * part256.masks[:, m]
                                       * np.sqrt(np.pi * grid256.L), rtol=1e-13)
        params = BesovParams(3.0, p, 2.0)
        want = np.sqrt(np.sum((part256.block_weights(3.0) * blocks) ** 2))
        assert _norms(part256, half, params, 3.0) == pytest.approx(want, rel=1e-13)

    @pytest.mark.parametrize("r", [1.0, 2.0, np.inf])
    def test_random_rows_match_full_spectrum_formula(self, grid256, part256, p, r):
        rng = np.random.default_rng(523)
        c = _random_coefficients(grid256, rng, (6,), k_max=grid256.N // 2 - 1)
        params = BesovParams(3.0, p, r)
        got = besov_norms_batch(part256, c, params)
        np.testing.assert_allclose(got, _full_spectrum_norms(part256, c, params),
                                   rtol=1e-14, atol=0.0)
        assert np.array_equal(_norms(part256, _half(c), params, 3.0), got)


class TestMollifier:
    def test_rejects_wide_kernel(self, grid256_L1):
        kern = MollifierKernel(epsilon=np.pi + 0.1)
        with pytest.raises(ValueError):
            kern.samples_on(grid256_L1)

    @pytest.mark.parametrize("eps", [0.0, -0.1, np.nan, -np.inf])
    def test_rejects_width_not_positive(self, eps):
        with pytest.raises(ValueError, match="epsilon must be positive"):
            MollifierKernel(eps)

    def test_narrowest_width_is_a_delta(self, grid256):
        # node 0 lies inside every support, so every positive width has mass
        rho = MollifierKernel(1e-300).samples_on(grid256)
        assert np.array_equal(rho, np.eye(grid256.N)[0] / grid256.dx)

    def test_smallest_float_width_is_a_delta(self, grid256):
        # dist / eps overflows to inf off node 0, which lies outside the
        # support; under the suite's error::RuntimeWarning filter this
        # fails if the overflow is warned about
        rho = MollifierKernel(np.nextafter(0.0, 1.0)).samples_on(grid256)
        assert np.array_equal(rho, np.eye(grid256.N)[0] / grid256.dx)

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

    @settings(max_examples=60, deadline=None, database=None)
    @given(seed=st.integers(0, 2**32 - 1), L=st.floats(0.5, 16.0),
           frac=st.floats(1e-3, 0.999))
    def test_property_preserves_mean(self, seed, L, frac):
        grid = make_grid(128, L)
        f = random_field(grid, np.random.default_rng(seed))
        out = mollify(f, MollifierKernel(frac * np.pi * L))
        assert out.mean() == pytest.approx(f.mean(), abs=1e-13)

    def test_monotone_convergence(self, grid256, part256, params322):
        rng = np.random.default_rng(71)
        f = random_field(grid256, rng, k_max=20)
        errs = []
        for eps in (0.4, 0.2, 0.1, 0.05):
            out = mollify(f, MollifierKernel(eps))
            errs.append(besov_norm(out - f, params322))
        assert all(a >= b for a, b in zip(errs, errs[1:]))

    def test_identity_below_grid_scale(self, grid256, params322, part256):
        # Once the kernel support fits inside one cell only the center sample
        # survives, and unit-mass normalization makes it a discrete delta.
        rng = np.random.default_rng(73)
        f = random_field(grid256, rng)
        out = mollify(f, MollifierKernel(0.5 * grid256.dx))
        assert np.max(np.abs(out.samples - f.samples)) <= 1e-12


def check_product_estimate(f: GridFunction, g: GridFunction, params: BesovParams) -> float:
    """Ratio ||f g||_{s-1} / (||f||_{s-1} ||g||_s) probing the product bound.

    A harness asserts this stays under one empirical constant across a
    randomized family; the bound itself is existential.
    """
    low = params.shift(-1.0)
    denom = besov_norm(f, low) * besov_norm(g, params)
    if denom == 0.0:
        raise ValueError("product-estimate ratio needs nonzero f and g")
    return besov_norm(f * g, low) / denom


def check_multiplier_bound(f: GridFunction, params: BesovParams) -> float:
    """Ratio ||Lambda^{-1} d/dx f||_s / ||f||_{s-1} probing the S^2-multiplier
    bound (the nonlocal operator gains one derivative)."""
    denom = besov_norm(f, params.shift(-1.0))
    if denom == 0.0:
        raise ValueError("multiplier-bound ratio needs nonzero input")
    return besov_norm(lambda_inv_dx(f), params) / denom


class TestEstimateProbes:
    def test_product_ratio_bounded_over_family(self, grid256, part256, params322):
        rng = np.random.default_rng(79)
        ratios = [
            check_product_estimate(
                random_field(grid256, rng), random_field(grid256, rng), params322
            )
            for _ in range(20)
        ]
        assert max(ratios) <= 5.0

    def test_multiplier_ratio_bounded_over_family(self, grid256, part256, params322):
        rng = np.random.default_rng(83)
        ratios = [
            check_multiplier_bound(random_field(grid256, rng), params322)
            for _ in range(20)
        ]
        assert max(ratios) <= 5.0

    def test_zero_input_rejected(self, grid256, part256, params322):
        z = GridFunction.from_samples(grid256, np.zeros(grid256.N))
        with pytest.raises(ValueError):
            check_multiplier_bound(z, params322)
