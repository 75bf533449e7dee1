import numpy as np
import pytest

from fwlab import (
    GridFunction,
    MultiplierSymbol,
    apply_multiplier,
    ddx,
    dealias,
    lambda_inv_dx,
    lp_norm,
    make_grid,
)
from fwlab.spectral import (
    _half_symbols,
    dealias_mask,
    dx_symbol,
    lambda_inv_dx_symbol,
    lp_norm_samples,
)

from conftest import random_field


class TestMakeGrid:
    def test_basic_layout(self):
        g = make_grid(8, 1.0)
        assert g.dx == pytest.approx(2 * np.pi / 8)
        assert sorted(g.wavenumbers) == [-4, -3, -2, -1, 0, 1, 2, 3]
        assert g.dx * g.N == pytest.approx(2 * np.pi * g.L)

    def test_wavenumber_scaling(self):
        g = make_grid(8, 2.0)
        assert sorted(g.wavenumbers) == [-2.0, -1.5, -1.0, -0.5, 0.0, 0.5, 1.0, 1.5]

    @pytest.mark.parametrize("N,L", [(7, 1.0), (6, 1.0), (256, 0.0), (256, -2.0),
                                     (256, np.inf), (256, np.nan)])
    def test_rejects_bad_arguments(self, N, L):
        with pytest.raises(ValueError):
            make_grid(N, L)

    def test_wavenumbers_symmetric_except_nyquist(self):
        g = make_grid(64, 4.0)
        xi = np.sort(g.wavenumbers)
        assert np.allclose(xi[1:] + xi[1:][::-1], 0.0)  # drop the lone -N/2 mode


class TestGridFunction:
    def test_roundtrip(self):
        g = make_grid(128, 2.0)
        rng = np.random.default_rng(7)
        f = random_field(g, rng)
        back = np.fft.ifft(f.coefficients * g.N).real
        assert np.max(np.abs(back - f.samples)) <= 1e-12 * max(1, np.max(np.abs(f.samples)))

    def test_conjugate_symmetry(self):
        g = make_grid(64, 1.0)
        f = GridFunction.from_samples(g, np.sin(3 * g.x) + 0.5)
        c = f.coefficients
        rev = (-np.arange(g.N)) % g.N
        assert np.allclose(c, np.conj(c[rev]), atol=1e-14)

    def test_parseval(self):
        g = make_grid(256, 8.0)
        rng = np.random.default_rng(3)
        f = random_field(g, rng)
        physical = g.dx * np.sum(f.samples**2)
        spectral = 2 * np.pi * g.L * np.sum(np.abs(f.coefficients) ** 2)
        assert physical == pytest.approx(spectral, rel=1e-10)

    def test_shape_mismatch_rejected(self):
        g = make_grid(64, 1.0)
        with pytest.raises(ValueError):
            GridFunction.from_samples(g, np.zeros(32))

    def test_coefficient_shape_mismatch_rejected(self):
        g = make_grid(64, 1.0)
        with pytest.raises(ValueError, match="coefficient shape"):
            GridFunction.from_coefficients(g, np.zeros(33, dtype=complex))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_samples_not_finite_rejected(self, bad):
        g = make_grid(64, 1.0)
        samples = np.sin(g.x)
        samples[5] = bad
        with pytest.raises(ValueError, match="NaN or Inf"):
            GridFunction.from_samples(g, samples)

    def test_negation(self):
        g = make_grid(64, 1.0)
        f = GridFunction.from_samples(g, np.sin(g.x) + 0.25)
        minus = -f
        assert minus.grid == g
        assert np.array_equal(minus.samples, -f.samples)
        assert np.array_equal((f + minus).samples, np.zeros(g.N))


class TestApplyMultiplier:
    def test_derivative_of_cosine(self):
        g = make_grid(64, 1.0)
        f = GridFunction.from_samples(g, np.cos(g.x))
        out = apply_multiplier(f, dx_symbol())
        assert np.max(np.abs(out.samples + np.sin(g.x))) <= 1e-12

    def test_nonlocal_operator_single_mode(self):
        g = make_grid(64, 1.0)
        f = GridFunction.from_samples(g, np.sin(g.x))
        out = apply_multiplier(f, lambda_inv_dx_symbol())
        assert np.max(np.abs(out.samples - 0.5 * np.cos(g.x))) <= 1e-12

    def test_identity_multiplier(self):
        g = make_grid(64, 2.0)
        rng = np.random.default_rng(11)
        f = random_field(g, rng)
        one = MultiplierSymbol("1", lambda xi: np.ones_like(xi, dtype=complex))
        assert np.max(np.abs(apply_multiplier(f, one).samples - f.samples)) <= 1e-13

    def test_grid_mismatch(self):
        f = GridFunction.from_samples(make_grid(64, 1.0), np.zeros(64))
        g2 = make_grid(128, 1.0)
        bad = GridFunction.from_samples(g2, np.zeros(128))
        with pytest.raises(ValueError):
            f + bad

    def test_composition(self):
        g = make_grid(128, 2.0)
        rng = np.random.default_rng(5)
        f = random_field(g, rng)
        m1, m2 = dx_symbol(), lambda_inv_dx_symbol()
        a = apply_multiplier(apply_multiplier(f, m1), m2)
        b = apply_multiplier(f, m1 * m2)
        assert np.max(np.abs(a.samples - b.samples)) <= 1e-12 * max(1, np.max(np.abs(b.samples)))

    def test_derivative_exact_on_each_resolved_mode(self):
        g = make_grid(32, 1.0)
        for k in range(1, g.N // 3):
            f = GridFunction.from_samples(g, np.sin(k * g.x))
            expected = k * np.cos(k * g.x)
            assert np.max(np.abs(ddx(f).samples - expected)) <= 1e-12 * max(1, k)

    def test_symbol_not_finite_on_the_grid_rejected(self):
        # 1/xi is infinite at xi = 0
        g = make_grid(64, 1.0)
        f = GridFunction.from_samples(g, np.sin(g.x))
        with np.errstate(divide="ignore", invalid="ignore"):
            inverse = MultiplierSymbol("1/xi", lambda xi: 1.0 / xi)
            with pytest.raises(ValueError, match="not finite"):
                apply_multiplier(f, inverse)

    def test_non_hermitian_symbol_rejected(self):
        g = make_grid(64, 1.0)
        f = GridFunction.from_samples(g, np.sin(g.x))
        bad = MultiplierSymbol("i", lambda xi: 1j * np.ones_like(xi))
        with pytest.raises(ValueError, match="Hermitian"):
            apply_multiplier(f, bad)


class TestLambdaInvDx:
    def test_annihilates_constants(self):
        g = make_grid(64, 1.0)
        f = GridFunction.from_samples(g, np.full(g.N, 3.7))
        assert np.max(np.abs(lambda_inv_dx(f).samples)) <= 1e-14

    def test_mode_one(self):
        g = make_grid(64, 1.0)
        f = GridFunction.from_samples(g, np.sin(g.x))
        assert np.max(np.abs(lambda_inv_dx(f).samples - 0.5 * np.cos(g.x))) <= 1e-12

    def test_mode_two(self):
        g = make_grid(64, 1.0)
        f = GridFunction.from_samples(g, np.sin(2 * g.x))
        assert np.max(np.abs(lambda_inv_dx(f).samples - 0.4 * np.cos(2 * g.x))) <= 1e-12


class TestDealias:
    def test_low_modes_untouched(self):
        g = make_grid(64, 1.0)
        f = GridFunction.from_samples(g, np.sin(5 * g.x) + np.cos(21 * g.x))
        out = dealias(f)
        assert np.max(np.abs(out.samples - f.samples)) <= 1e-13

    def test_high_mode_removed(self):
        g = make_grid(64, 1.0)
        f = GridFunction.from_samples(g, np.cos(31 * g.x))
        assert np.max(np.abs(dealias(f).samples)) <= 1e-13

    def test_projection_contracts_l2(self):
        g = make_grid(128, 1.0)
        rng = np.random.default_rng(2)
        f = GridFunction.from_samples(g, rng.standard_normal(g.N))
        assert lp_norm(dealias(f), 2) <= lp_norm(f, 2) * (1 + 1e-12)


class TestHalfSymbols:
    def test_first_half_of_the_full_symbols(self):
        g = make_grid(64, 2.0)
        ik, lam, mask = _half_symbols(g)
        half = g.N // 2 + 1
        assert np.array_equal(ik, dx_symbol().evaluate(g)[:half])
        assert np.array_equal(lam, lambda_inv_dx_symbol().evaluate(g)[:half])
        assert np.array_equal(mask, dealias_mask(g)[:half])

    def test_built_once_per_grid_and_read_only(self):
        symbols = _half_symbols(make_grid(64, 2.0))
        assert _half_symbols(make_grid(64, 2.0)) is symbols
        assert not any(a.flags.writeable for a in symbols)


class TestLpNorm:
    def test_zero_field(self):
        g = make_grid(64, 1.0)
        f = GridFunction.from_samples(g, np.zeros(g.N))
        assert lp_norm(f, 2) == 0.0

    def test_constant_l2(self):
        g = make_grid(64, 1.0)
        f = GridFunction.from_samples(g, np.ones(g.N))
        assert lp_norm(f, 2) == pytest.approx(np.sqrt(2 * np.pi), rel=1e-12)

    def test_sine_sup(self):
        g = make_grid(256, 1.0)
        f = GridFunction.from_samples(g, np.sin(g.x))
        assert abs(lp_norm(f, np.inf) - 1.0) <= 1e-3

    def test_rejects_small_p(self):
        g = make_grid(64, 1.0)
        f = GridFunction.from_samples(g, np.ones(g.N))
        with pytest.raises(ValueError):
            lp_norm(f, 0.5)

    @pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 3.0, 4.0, np.inf])
    def test_samples_untouched_and_bits_of_the_formula(self, p):
        # the moduli are raised to p in place, on the array np.abs makes:
        # the caller's samples keep their bits, and the norm has those of
        # (dx sum |x|^p)^(1/p) computed out of place, zeros, subnormals and
        # an infinite row included
        rng = np.random.default_rng(5)
        samples = rng.standard_normal((3, 64))
        samples[0, :4] = [0.0, -0.0, 5e-324, -2.2e-308]
        samples[2, 7] = -np.inf
        before = samples.copy()
        dx = 2 * np.pi / 64
        got = lp_norm_samples(samples, dx, p)
        a = np.abs(samples)
        want = a.max(axis=-1) if np.isinf(p) else (dx * np.sum(a**p, axis=-1)) ** (1.0 / p)
        assert np.array_equal(samples.view(np.int64), before.view(np.int64))
        assert np.array_equal(got.view(np.int64), want.view(np.int64))
        assert lp_norm_samples(samples[1], dx, p) == want[1]

    @pytest.mark.parametrize("p", [1.0, 2.0, 3.5, np.inf])
    def test_norm_axioms_on_random_triples(self, p):
        g = make_grid(128, 2.0)
        rng = np.random.default_rng(17)
        for _ in range(10):
            f = random_field(g, rng)
            h = random_field(g, rng)
            c = rng.standard_normal()
            assert lp_norm(c * f, p) == pytest.approx(abs(c) * lp_norm(f, p), rel=1e-12, abs=1e-14)
            assert lp_norm(f + h, p) <= (lp_norm(f, p) + lp_norm(h, p)) * (1 + 1e-12)
