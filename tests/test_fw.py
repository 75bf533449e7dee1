import math
import sys
import tracemalloc
from collections import Counter

import numpy as np
import pytest

from fwlab import (
    GridFunction,
    MollifierKernel,
    SchemeConfig,
    besov_norm,
    continuity_experiment,
    empirical_lifespan,
    fw_rhs,
    lifespan,
    make_grid,
    mollify,
    run_scheme,
    scheme_direct_distance,
    solve_fw_direct,
    stability_experiment,
)
import fwlab.besov
import fwlab.fw
from fwlab.fw import LIFESPAN_CAP, _pair_norms, _sup_distance, initial_norm
from fwlab.besov import BesovParams, besov_norms_of_samples, build_partition
from fwlab.harness import parse_config, random_band_limited, run_experiment
from fwlab.spectral import _half_symbols, dealias_mask
from fwlab.transport import (
    BlowUpError,
    TransportProblem,
    _march_transport,
    integrate_rk4,
    make_time_grid,
    solve_transport,
)

from conftest import random_field, same_bits


def _gf(grid, values):
    return GridFunction.from_samples(grid, np.broadcast_to(values, (grid.N,)).copy())


class TestRhs:
    def test_constants_are_steady(self, grid256):
        du, drho = fw_rhs(_gf(grid256, 1.3), _gf(grid256, -0.4))
        assert np.max(np.abs(du.samples)) <= 1e-13
        assert np.max(np.abs(drho.samples)) <= 1e-13

    def test_zero_u_sine_rho(self):
        # With u = 0 only the nonlocal coupling acts: du = (1/2) cos, drho = 0.
        grid = make_grid(256, 1.0)
        du, drho = fw_rhs(_gf(grid, 0.0), GridFunction.from_samples(grid, np.sin(grid.x)))
        assert np.max(np.abs(du.samples - 0.5 * np.cos(grid.x))) <= 1e-12
        assert np.max(np.abs(drho.samples)) <= 1e-13

    def test_sine_u_zero_rho(self):
        grid = make_grid(256, 1.0)
        du, drho = fw_rhs(GridFunction.from_samples(grid, np.sin(grid.x)), _gf(grid, 0.0))
        expected_du = -np.sin(grid.x) * np.cos(grid.x) - 0.5 * np.cos(grid.x)
        assert np.max(np.abs(du.samples - expected_du)) <= 1e-12
        assert np.max(np.abs(drho.samples + np.cos(grid.x))) <= 1e-12

    @pytest.mark.parametrize("members", [1, 4, 7])
    def test_half_spectrum_rhs_equals_full_spectrum(self, grid256, members):
        # the full-spectrum formula on field-major (2, K, N) samples, with
        # complex transforms and ifft(...).real
        def full_rhs(y):
            xi = grid256.wavenumbers
            ik, mask = 1j * xi, dealias_mask(grid256)
            y_hat = np.fft.fft(y)
            u_hat, rho_hat = y_hat
            ux, rhox = np.fft.ifft(ik * y_hat).real
            nonlocal_term = np.fft.ifft(ik / (1.0 + xi**2) * (rho_hat - u_hat)).real
            u, rho = y
            prods = np.stack([u * ux, u * rhox + rho * ux])
            adv = np.fft.ifft(mask * np.fft.fft(prods)).real
            return np.stack([-adv[0] + nonlocal_term, -adv[1] - ux])

        rng = np.random.default_rng(311 + members)
        y = np.array([[random_field(grid256, rng, k_max=k_max).samples
                       for _ in range(members)] for k_max in (8, grid256.N // 2 - 1)])
        y_hat = np.fft.rfft(y)
        got = np.fft.irfft(fwlab.fw._direct_rhs(grid256, y_hat.shape)(y_hat, 0, 0.0),
                           grid256.N)
        assert got.shape == y.shape
        assert np.max(np.abs(got - full_rhs(y))) <= 1e-13

    @pytest.mark.parametrize("members", [1, 4])
    def test_direct_kernel_writes_neither_its_input_nor_its_outputs(self, grid256, members):
        # _rk4_step holds y and k1..k4 across the kernel's calls, which share
        # one workspace: a later call writes neither y nor an earlier output
        rng = np.random.default_rng(359 + members)
        y = np.fft.rfft([[random_field(grid256, rng, k_max=8).samples
                          for _ in range(members)] for _ in range(2)])
        rhs = fwlab.fw._direct_rhs(grid256, y.shape)
        y0, k1 = y.copy(), rhs(y, 0, 0.0)
        first = k1.copy()
        k2 = rhs(2.0 * y, 0, 0.5)
        assert same_bits(y, y0) and same_bits(k1, first)
        assert not np.shares_memory(k1, k2)

    @pytest.mark.parametrize("members", [1, 5])
    def test_kernel_transforms_two_rows_each_way(self, grid256, monkeypatch, members):
        # conservative form: per call the kernel makes one irfft of the
        # (u, rho) rows of every member and one rfft of (u^2, u rho), 2 K
        # rows each way, and no other transform
        calls, in_kernel = [], []
        real = fwlab.fw._fw_rhs

        def kernel(*args):
            calls.append([])
            in_kernel.append(True)
            try:
                return real(*args)
            finally:
                in_kernel.pop()

        def counting(name):
            transform = getattr(np.fft, name)

            def call(a, *args, **kwargs):
                if in_kernel:
                    calls[-1].append((name, int(np.prod(np.shape(a)[:-1]))))
                return transform(a, *args, **kwargs)
            return call

        monkeypatch.setattr(fwlab.fw, "_fw_rhs", kernel)
        for name in ("rfft", "irfft"):
            monkeypatch.setattr(np.fft, name, counting(name))
        rng = np.random.default_rng(367 + members)
        y = np.array([[random_field(grid256, rng, k_max=8, amplitude=0.1).samples
                       for _ in range(2)] for _ in range(members)])
        list(fwlab.fw._march_fw(y, grid256, make_time_grid(0.1, 1e-2), 1e-2))
        assert calls == [[("irfft", 2 * members), ("rfft", 2 * members)]] * (4 * 10)

    @pytest.mark.parametrize("spectrum, low, high", [
        pytest.param(lambda k: k <= 256 // 3, 0.0, 1e-13, id="two-thirds-band"),
        pytest.param(lambda k: np.exp(-k / 8.0), 1e-9, 1e-6, id="decaying"),
        pytest.param(lambda k: np.ones(k.size), 0.5, 2.0, id="flat"),
    ])
    def test_conservative_form_against_the_advective(self, grid256, spectrum, low, high):
        # the kernel's dealiased fluxes, (u^2/2)_x and (u rho)_x, against the
        # advective formula, u u_x and u rho_x + rho u_x dealiased, on
        # Gaussian modes 1..N/2-1 scaled by the given spectrum: the largest
        # gap relative to the largest advective term.  Data inside the 2/3
        # band have products the mask keeps whole, so the forms agree to
        # rounding; above it they alias differently, by about 5e-8 on modes
        # decaying like e^{-k/8} and at order one on a flat spectrum
        N, xi = grid256.N, grid256.wavenumbers
        ik, mask = 1j * xi, dealias_mask(grid256)
        k = np.arange(1, N // 2)
        rng = np.random.default_rng(373)
        gaps = []
        for _ in range(4):
            y_hat = np.zeros((2, N // 2 + 1), dtype=complex)
            y_hat[:, k] = spectrum(k) * (rng.standard_normal((2, k.size))
                                         + 1j * rng.standard_normal((2, k.size)))
            u, rho = y = np.fft.irfft(y_hat, N)
            full = np.fft.fft(y)
            ux, rhox = np.fft.ifft(ik * full).real
            linear = np.stack([np.fft.ifft(ik / (1.0 + xi**2) * (full[1] - full[0])).real,
                               -ux])
            advective = -np.fft.ifft(mask * np.fft.fft([u * ux, u * rhox + rho * ux])).real
            du, drho = fw_rhs(GridFunction.from_samples(grid256, u),
                              GridFunction.from_samples(grid256, rho))
            conservative = np.stack([du.samples, drho.samples]) - linear
            gaps.append(np.max(np.abs(conservative - advective)) / np.max(np.abs(advective)))
        assert low <= min(gaps) and max(gaps) <= high, gaps

    def test_grid_mismatch_rejected(self, grid256):
        u, rho = _gf(grid256, 0.0), _gf(make_grid(128, 8.0), 0.0)
        with pytest.raises(ValueError, match="u0 and rho0 must share one grid"):
            fw_rhs(u, rho)
        with pytest.raises(ValueError, match="u0 and rho0 must share one grid"):
            solve_fw_direct(u, rho, 1.0, 1e-2)


def _blowup_data():
    """Sine/cosine data of amplitude 2 on a coarse grid; at dt = 1e-2 the
    direct solve loses finiteness at node 648 (t = 6.48)."""
    grid = make_grid(64, 8.0)
    return (GridFunction.from_samples(grid, 2.0 * np.sin(grid.x)),
            GridFunction.from_samples(grid, 2.0 * np.cos(grid.x)))


def _overflowing(grid):
    """1e307 cos x: finite samples whose half spectrum overflows (32e307 at
    mode 1 at N = 64).  from_samples refuses it, so it is built with the
    constructor, to reach the marches' own node-0 check."""
    samples = 1e307 * np.cos(grid.x)
    with np.errstate(over="ignore", invalid="ignore"):
        coefficients = np.fft.fft(samples) / grid.N
    return GridFunction(grid=grid, samples=samples, coefficients=coefficients)


class TestDirectSolve:
    def test_frozen_node(self, grid256):
        u0 = GridFunction.from_samples(grid256, 0.1 * np.sin(grid256.x))
        rho0 = GridFunction.from_samples(grid256, 0.1 * np.cos(grid256.x))
        traj = solve_fw_direct(u0, rho0, 1.0, 2e-3)
        assert traj.u[500, 37] == pytest.approx(0.023834874475615296, rel=1e-12)
        assert traj.rho[500, 37] == pytest.approx(-0.0048525736681658055, rel=1e-12)

    def test_blowup_carries_finite_prefix(self, monkeypatch):
        yielded = []

        def recording(*args):
            for y in integrate_rk4(*args):
                yielded.append(y)
                yield y

        monkeypatch.setattr(fwlab.fw, "integrate_rk4", recording)
        u0, rho0 = _blowup_data()
        with pytest.raises(BlowUpError) as info:
            solve_fw_direct(u0, rho0, 20.0, 1e-2)
        exc = info.value
        assert exc.node == 648
        assert exc.t == pytest.approx(6.48, rel=1e-12)
        # the pair marches as a one-member stack, so its rows name members,
        # as the lifespan sweep's do
        assert exc.rows == (0,) and str(exc).endswith("in rows (0,)")
        assert len(yielded) == 648
        assert all(np.all(np.isfinite(y)) for y in yielded)
        assert np.array_equal(yielded[0],
                              np.fft.rfft(np.stack([u0.samples, rho0.samples])[:, None]))

    def test_peak_memory_at_scheme_sizes(self, scheme_peak):
        # below the 35 MB of a march that keeps two whole iterates live, and
        # the 9.6 MB of one that also stores iterate 1 at every node
        trace, peak = scheme_peak
        assert peak < 8e6

    def test_memory_guard_prices_what_is_live(self, scheme_peak):
        trace, peak = scheme_peak
        # priced with one dyadic block per row, under the run's own price
        priced = fwlab.fw._scheme_bytes(trace.grid.N, trace.n_max, trace.T, 2e-3, 2.0, 1, True)
        assert priced >= peak

    def test_memory_guard_before_allocating(self, grid256):
        zero = _gf(grid256, 0.0)
        with pytest.raises(ValueError, match=r"GB but the machine has .* GB; change --dt or --T"):
            solve_fw_direct(zero, zero, LIFESPAN_CAP, 1e-3)

    def test_constant_state_stays_put(self, grid256):
        traj = solve_fw_direct(_gf(grid256, 0.8), _gf(grid256, 0.2), 1.0, 1e-2)
        assert np.max(np.abs(traj.u - 0.8)) <= 1e-12
        assert np.max(np.abs(traj.rho - 0.2)) <= 1e-12

    def test_means_conserved(self, grid256):
        rng = np.random.default_rng(211)
        u0 = random_field(grid256, rng, k_max=8, amplitude=0.1)
        rho0 = random_field(grid256, rng, k_max=8, amplitude=0.1)
        traj = solve_fw_direct(u0, rho0, 1.0, 1e-3)
        assert np.max(np.abs(traj.mean_u - traj.mean_u[0])) <= 1e-10
        assert np.max(np.abs(traj.mean_rho - traj.mean_rho[0])) <= 1e-10

    def test_means_constant_to_the_bit(self, grid256):
        # in conservative form the derivative is zero at mode 0, where ik
        # and lam are, so each member's mode 0 keeps its node-0 bits at every
        # node, and simulate's mean drifts read 0.0
        u0 = GridFunction.from_samples(grid256, 0.1 * np.sin(grid256.x))
        rho0 = GridFunction.from_samples(grid256, 0.1 * np.cos(grid256.x))
        y0 = fwlab.fw._stacked([(u0, rho0), (u0 * 2.0, rho0 + _gf(grid256, 0.3))])
        means = np.array([y[..., 0] for y in fwlab.fw._march_fw(
            y0, grid256, make_time_grid(1.0, 2e-3), 2e-3)])
        assert means.shape == (501, 2, 2)
        assert same_bits(means, np.broadcast_to(means[0], means.shape))
        report = run_experiment(parse_config("time: {T: 1.0, dt: 2e-3}\n"), write=False)
        assert report.summary["mean_u_drift"] == report.summary["mean_rho_drift"] == 0.0

    def test_step_size_guard(self, grid256):
        u0 = _gf(grid256, 4.0)
        with pytest.raises(ValueError, match="stability"):
            solve_fw_direct(u0, _gf(grid256, 0.0), 1.0, 0.1)

    def test_fourth_order_in_time(self):
        grid = make_grid(64, 1.0)
        u0 = GridFunction.from_samples(grid, 0.05 * np.sin(grid.x))
        rho0 = GridFunction.from_samples(grid, 0.05 * np.cos(grid.x))

        def final(dt):
            traj = solve_fw_direct(u0, rho0, 0.5, dt)
            return np.concatenate([traj.u[-1], traj.rho[-1]])

        ref = final(0.5 / 2048)
        e1 = np.max(np.abs(final(0.025) - ref))
        e2 = np.max(np.abs(final(0.0125) - ref))
        assert e1 / e2 >= 12.0


class TestLifespan:
    def test_values(self):
        assert lifespan(1.0, 1.0) == pytest.approx(3.0 / 16.0, rel=1e-15)
        assert lifespan(2.0, 1.0) == pytest.approx(3.0 / 64.0, rel=1e-15)
        assert lifespan(1.0, 3.0) == pytest.approx(1.0 / 16.0, rel=1e-15)

    def test_zero_data_capped(self):
        assert lifespan(0.0, 1.0) == LIFESPAN_CAP

    def test_rejects_bad_arguments(self):
        for P0 in (-1.0, np.nan, np.inf):
            with pytest.raises(ValueError, match="P0 must be nonnegative and finite"):
                lifespan(P0, 1.0)
        for C in (0.0, np.nan, np.inf):
            with pytest.raises(ValueError, match="C must be positive and finite"):
                lifespan(0.1, C)


@pytest.fixture(scope="module")
def scheme_peak(grid256, params322):
    """The scheme at the benchmark sizes (N=256, n_max=10, dt=2e-3) and its
    tracemalloc peak in bytes."""
    u0 = GridFunction.from_samples(grid256, 0.1 * np.sin(grid256.x))
    rho0 = GridFunction.from_samples(grid256, 0.1 * np.cos(grid256.x))
    cfg = SchemeConfig(params=params322, C=1.0, n_max=10, dt=2e-3)
    tracemalloc.start()
    try:
        trace = run_scheme(u0, rho0, cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return trace, peak


class TestScheme:
    def test_inadmissible_params_rejected(self):
        with pytest.raises(ValueError):
            SchemeConfig(params=BesovParams(2.4, 2.0, 2.0))

    @pytest.mark.parametrize("C", [0.0, -1.0, np.inf, np.nan])
    def test_non_positive_or_non_finite_C_rejected(self, params322, C):
        with pytest.raises(ValueError, match="C must be positive and finite"):
            SchemeConfig(params=params322, C=C)

    @pytest.mark.parametrize("dt", [0.0, -1e-3, np.inf, np.nan])
    def test_non_positive_or_non_finite_dt_rejected(self, params322, dt):
        with pytest.raises(ValueError, match="dt must be positive and finite"):
            SchemeConfig(params=params322, dt=dt)

    def test_n_max_below_one_rejected(self, params322):
        with pytest.raises(ValueError, match="n_max must be at least 1"):
            SchemeConfig(params=params322, n_max=0)

    def test_data_on_two_grids_rejected(self, grid256, params322):
        grid = make_grid(64, 8.0)
        u0 = GridFunction.from_samples(grid256, 0.1 * np.sin(grid256.x))
        rho0 = GridFunction.from_samples(grid, 0.1 * np.cos(grid.x))
        with pytest.raises(ValueError, match="u0 and rho0 must share one grid"):
            run_scheme(u0, rho0, SchemeConfig(params=params322, n_max=2, dt=1e-2))

    def test_zero_data(self, grid256, params322):
        # P0 = 0 puts the lifespan at LIFESPAN_CAP: 10 steps of 1e5; every
        # iterate is zero, and so are its norms and differences
        zero = GridFunction.from_samples(grid256, np.zeros(grid256.N))
        trace = run_scheme(zero, zero, SchemeConfig(params=params322, n_max=3, dt=1e5))
        assert trace.P0 == 0.0 and trace.T == LIFESPAN_CAP
        assert trace.time_grid.size == 11
        assert not np.any(trace.norms) and not np.any(trace.d_n) and not np.any(trace.last)
        assert trace.bound_312.all() and trace.bound_313.all()

    def test_first_iterate_closed_form(self, grid256, part256, params322):
        # Iterate 0 is the zero pair, so iterate 1 solves a transport problem
        # with zero velocity and zero forcing: it is constant in time, equal
        # to the width-1 mollification of the data.
        u0 = GridFunction.from_samples(grid256, 0.1 * np.sin(grid256.x))
        rho0 = GridFunction.from_samples(grid256, 0.1 * np.cos(grid256.x))
        cfg = SchemeConfig(params=params322, C=1.0, n_max=2, dt=1e-2)
        trace = run_scheme(u0, rho0, cfg)
        kern = MollifierKernel(1.0)
        ju = mollify(u0, kern).samples
        jrho = mollify(rho0, kern).samples
        assert np.max(np.abs(trace.first[:, 0] - ju[None, :])) <= 1e-10
        assert np.max(np.abs(trace.first[:, 1] - jrho[None, :])) <= 1e-10

    def test_lifespan_matches_P0(self, grid256, part256, params322):
        u0 = GridFunction.from_samples(grid256, 0.1 * np.sin(grid256.x))
        rho0 = GridFunction.from_samples(grid256, 0.1 * np.cos(grid256.x))
        cfg = SchemeConfig(params=params322, C=1.0, n_max=2, dt=1e-2)
        trace = run_scheme(u0, rho0, cfg)
        P0 = besov_norm(u0, params322) + besov_norm(rho0, params322.shift(-1.0))
        assert trace.P0 == pytest.approx(P0, rel=1e-13)
        assert trace.T == pytest.approx(3.0 / (16.0 * P0**2), rel=1e-13)

    def test_frozen_d_n(self, grid256, part256, params322):
        u0 = GridFunction.from_samples(grid256, 0.1 * np.sin(grid256.x))
        rho0 = GridFunction.from_samples(grid256, 0.1 * np.cos(grid256.x))
        cfg = SchemeConfig(params=params322, C=1.0, n_max=3, dt=1e-2)
        trace = run_scheme(u0, rho0, cfg)
        np.testing.assert_allclose(
            trace.d_n, [0.3601685824450574, 0.6264793811114006, 0.4135604873038824],
            rtol=1e-12, atol=0.0,
        )

    def test_frozen_d_n_at_p4(self):
        # the general-p norms of the wave, pinned as test_frozen_d_n pins
        # p = 2: d_n and every iterate's norm sum at the last node, at
        # C = 4 (T = 2.909, 146 steps), where d_n falls from iterate 3 on
        grid = make_grid(64, 8.0)
        u0 = GridFunction.from_samples(grid, 0.1 * np.sin(grid.x))
        rho0 = GridFunction.from_samples(grid, 0.1 * np.cos(grid.x))
        cfg = SchemeConfig(params=BesovParams(3.0, 4.0, 2.0), C=4.0, n_max=4, dt=2e-2)
        trace = run_scheme(u0, rho0, cfg)
        assert trace.time_grid.size == 147
        np.testing.assert_allclose(
            trace.d_n, [0.14873295844359125, 0.3768408178710996, 0.35456814479647,
                        0.23315009992437208],
            rtol=1e-12, atol=0.0,
        )
        np.testing.assert_allclose(
            [trace.norm_sum(n)[-1] for n in range(cfg.n_max + 1)],
            [0.0, 0.11631896152434332, 0.21233443534919177, 0.2376159737661269,
             0.27432155718922335],
            rtol=1e-12, atol=0.0,
        )

    def test_one_transport_solve_per_iterate(self, grid256, part256, params322,
                                             monkeypatch):
        # iterates 2..n_max step in one wave march, _march_scheme, of
        # M + n_max - 2 RK4 steps (none at wave node 0, where no iterate
        # moves on), each one batched call of the transport kernel per stage
        # from the march's step: stage 1 calls its second half, _advection,
        # on the wave's own derivative samples; iterate 1, advected by the
        # zero pair, does not step
        calls = {"_transport_rhs": [], "_advection": []}
        callers = set()
        for name, shapes in calls.items():
            def counting(f, *args, real=getattr(fwlab.fw, name), shapes=shapes):
                shapes.append(f.shape)
                callers.add(sys._getframe(1).f_code.co_qualname)
                return real(f, *args)
            monkeypatch.setattr(fwlab.fw, name, counting)
        u0 = GridFunction.from_samples(grid256, 0.1 * np.sin(grid256.x))
        rho0 = GridFunction.from_samples(grid256, 0.1 * np.cos(grid256.x))
        cfg = SchemeConfig(params=params322, C=1.0, n_max=3, dt=1e-2)
        trace = run_scheme(u0, rho0, cfg)
        steps = trace.time_grid.size + cfg.n_max - 3  # M + n_max - 2
        assert len(calls["_transport_rhs"]) == 3 * steps
        assert len(calls["_advection"]) == steps
        assert set(calls["_transport_rhs"]) == {(cfg.n_max - 1, 2, grid256.N // 2 + 1)}
        assert set(calls["_advection"]) == {(cfg.n_max - 1, 2, grid256.N)}
        assert callers == {"_march_scheme.<locals>.rhs"}

    def test_each_iterate_transformed_once(self, grid256, part256, params322,
                                           monkeypatch):
        # a wave step makes 7 real transforms in the transport kernel, an
        # rfft per stage (in _advection) and an irfft for stages 2..4 (in
        # _transport_rhs), and 2 outside it: _march_scheme's one irfft of
        # the wave's (u, rho, u_x, rho_x), whose derivative samples stage 1
        # reads, and one rfft of the forcing's product (_scheme_forcing),
        # formed at every wave node but the last; the march state is never
        # transformed back.  Besides, _march_scheme's one rfft of the data
        # and initial_norm's one of P0's pair; run_scheme transforms nothing
        counts = Counter()

        def counting(name):
            real = getattr(np.fft, name)

            def transform(*args, **kwargs):
                counts[sys._getframe(1).f_code.co_name, name] += 1
                return real(*args, **kwargs)
            return transform

        for name in ("rfft", "irfft"):
            monkeypatch.setattr(np.fft, name, counting(name))
        u0 = GridFunction.from_samples(grid256, 0.1 * np.sin(grid256.x))
        rho0 = GridFunction.from_samples(grid256, 0.1 * np.cos(grid256.x))
        cfg = SchemeConfig(params=params322, C=1.0, n_max=3, dt=1e-2)
        trace = run_scheme(u0, rho0, cfg)
        nodes = trace.time_grid.size + cfg.n_max - 1  # M + n_max wave nodes
        steps = nodes - 2
        assert counts == {("_advection", "rfft"): 4 * steps,
                          ("_transport_rhs", "irfft"): 3 * steps,
                          ("_scheme_forcing", "rfft"): nodes - 1,
                          ("_march_scheme", "rfft"): 1, ("_march_scheme", "irfft"): nodes,
                          ("initial_norm", "rfft"): 1}

    def test_forcing_is_the_sample_formula(self, grid256):
        # the spectral forcing is the rfft of Lambda^{-1} d/dx (rho - u) and
        # -rho u_x - u_x formed from samples, with the product dealiased; at
        # the Nyquist mode, where the odd symbols' output is imaginary, it
        # is zero, so an iterate's Nyquist mode stays real
        rng = np.random.default_rng(353)
        N = grid256.N
        ik, lam, mask = _half_symbols(grid256)
        y = np.array([[random_field(grid256, rng, k_max=8).samples for _ in range(2)]
                      for _ in range(3)]) + 0.1 * (-1.0) ** np.arange(N)
        y_hat = np.fft.rfft(y)
        z = np.fft.irfft(np.concatenate([y_hat, ik * y_hat[:, :1]], axis=-2), N)
        got = fwlab.fw._scheme_forcing(y_hat, z, ik, lam, mask,
                                       np.empty(y_hat.shape, dtype=complex))
        u, rho, ux = z[:, 0], z[:, 1], z[:, 2]
        prod = np.fft.irfft(mask * np.fft.rfft(rho * ux), N)
        want = np.stack([np.fft.irfft(lam * (y_hat[:, 1] - y_hat[:, 0]), N),
                         -prod - ux], axis=1)
        assert np.all(got[..., -1] == 0.0)
        np.testing.assert_allclose(np.fft.irfft(got, N), want, rtol=0.0, atol=1e-14)
        np.testing.assert_allclose(got, np.fft.rfft(want), rtol=0.0, atol=1e-12)

    @pytest.mark.parametrize("n_max, dt, p", [
        pytest.param(3, 1e-2, 2.0, id="3-0.01"),
        pytest.param(8, 0.7, 2.0, id="8-0.7"),
        pytest.param(7, 0.2, 2.0, id="whole-blocks"),
        pytest.param(5, 0.1, 2.0, id="short-last-block"),
        pytest.param(3, 0.05, 4.0, id="p4"),
    ])
    def test_pipeline_equals_sequential_iterates(self, grid256, part256, n_max, dt, p):
        # the permanent guard on the wave march: build iterates 1..n_max one
        # after another, one run of the transport march per field from the
        # half spectra of its data, with the velocity u^n and the forcing
        # of iterate n, and compare bit for bit.  At dt = 0.7 there are
        # M = 3 steps, fewer than the n_max - 1 marching iterates, so the
        # wave's start, where later iterates wait at their data, overlaps
        # its end, where earlier ones hold at their last node.  The wave's
        # M + n_max nodes are normed in blocks of besov._nodes_per_call: at
        # n_max = 7, dt = 0.2 they fill two whole blocks, and the other
        # p = 2 cases end on a short block; at p = 4 a block is two nodes,
        # and the 236 wave nodes fill whole blocks
        params = BesovParams(3.0, p, 2.0)
        u0 = GridFunction.from_samples(grid256, 0.1 * np.sin(grid256.x))
        rho0 = GridFunction.from_samples(grid256, 0.1 * np.cos(grid256.x))
        cfg = SchemeConfig(params=params, C=1.0, n_max=n_max, dt=dt)
        trace = run_scheme(u0, rho0, cfg)
        M = trace.time_grid.size - 1
        assert (M + 1 < n_max) == (dt == 0.7)  # the ramps overlap
        span = fwlab.besov._nodes_per_call(p, 4 * n_max)
        assert ((M + n_max) % span == 0) == (dt == 0.2 or p == 4)
        tg, N = trace.time_grid, grid256.N
        ik, lam, mask = _half_symbols(grid256)
        prev = np.zeros((tg.size, 2, N // 2 + 1), dtype=complex)
        data, iterates, d_n = [], [], []
        for n in range(cfg.n_max):
            kern = MollifierKernel(epsilon=1.0 / (n + 1))
            data.append(np.stack([mollify(u0, kern).samples, mollify(rho0, kern).samples]))
            z = np.fft.irfft(np.concatenate([prev, ik * prev[:, :1]], axis=-2), N)
            forcing = fwlab.fw._scheme_forcing(prev, z, ik, lam, mask, np.empty_like(prev))
            cur = np.stack([
                np.array(list(_march_transport(grid256, tg, z[:, 0], forcing[:, k],
                                               np.fft.rfft(data[n][k]))))
                for k in range(2)], axis=1)
            du, drho = _pair_norms(part256, cur - prev, params.shift(-1.0))
            d_n.append(du.max() + drho.max())
            iterates.append(cur)
            prev = cur
        assert np.array_equal(trace.first, np.broadcast_to(data[0], trace.first.shape))
        assert np.array_equal(trace.last, np.fft.irfft(iterates[-1], N))
        for n, cur in enumerate(iterates, start=1):
            norm_u, norm_rho = _pair_norms(part256, cur, params)
            assert np.array_equal(trace.norm_u[n], norm_u)
            assert np.array_equal(trace.norm_rho[n], norm_rho)
        assert np.array_equal(trace.d_n, d_n)

    @pytest.mark.parametrize("p, chunk", [(2.0, 8), (2.0, 40), (2.0, fwlab.besov._NORM_CHUNK),
                                          (4.0, fwlab.besov._NORM_CHUNK)])
    def test_wave_normed_in_row_bounded_node_blocks(self, grid256, monkeypatch, p, chunk):
        # the wave's norm rows, 4 * n_max per node, are normed in blocks of
        # whole nodes, at least one, of at most _NORM_CHUNK rows at p = 2
        # and _GENERAL_P_CHUNK (two nodes here) otherwise: one _norms call
        # per block, the last, short block included, with the bits of the
        # default blocks; 8 rows hold less than one node
        u0 = GridFunction.from_samples(grid256, 0.1 * np.sin(grid256.x))
        rho0 = GridFunction.from_samples(grid256, 0.1 * np.cos(grid256.x))
        cfg = SchemeConfig(params=BesovParams(3.0, p, 2.0), C=1.0, n_max=3, dt=5e-2)
        want = run_scheme(u0, rho0, cfg)
        calls = []
        real = fwlab.fw._norms

        def counting(part, half, *args):
            calls.append(np.shape(half))
            return real(part, half, *args)

        monkeypatch.setattr(fwlab.besov, "_NORM_CHUNK", chunk)
        monkeypatch.setattr(fwlab.fw, "_norms", counting)
        trace = run_scheme(u0, rho0, cfg)
        span = fwlab.besov._nodes_per_call(p, 4 * cfg.n_max)
        assert span == (max(1, chunk // 12) if p == 2 else 2)
        budget = chunk if p == 2 else fwlab.besov._GENERAL_P_CHUNK
        waves = [shape for shape in calls if len(shape) == 5]  # P0's call is (2, N//2 + 1)
        M = trace.time_grid.size - 1
        assert len(waves) == len(calls) - 1 == math.ceil((M + cfg.n_max) / span)
        assert sum(shape[0] for shape in waves) == M + cfg.n_max
        assert all(np.prod(shape[:-1]) <= max(budget, 12) for shape in waves)
        assert np.array_equal(trace.norms, want.norms)
        assert np.array_equal(trace.d_n, want.d_n)
        assert np.array_equal(trace.last, want.last)

    def test_wave_norms_read_raw_half_spectra(self, grid256, params322, monkeypatch):
        # the wave's norm rows are its half spectra as the march carries
        # them, not divided by N (the norms are divided instead), so the
        # first block's node-0 rows of iterate 1 are the rfft of its data to
        # the bit; the differences are taken per block, which keeps one
        # _norms call per block of whole wave nodes
        shapes, first = [], []
        real = fwlab.fw._norms

        def recording(part, half, *args):
            shapes.append(np.shape(half))
            if len(shapes) == 2:  # P0's call, (2, N//2 + 1), comes first
                first.append(np.array(half))
            return real(part, half, *args)

        monkeypatch.setattr(fwlab.fw, "_norms", recording)
        u0 = GridFunction.from_samples(grid256, 0.1 * np.sin(grid256.x))
        rho0 = GridFunction.from_samples(grid256, 0.1 * np.cos(grid256.x))
        cfg = SchemeConfig(params=params322, C=1.0, n_max=3, dt=1e-2)
        trace = run_scheme(u0, rho0, cfg)
        assert same_bits(first[0][0, 0, 0], np.fft.rfft(trace.first[0]))
        M = trace.time_grid.size - 1
        span = fwlab.besov._nodes_per_call(params322.p, 4 * cfg.n_max)
        waves = [shape for shape in shapes if len(shape) == 5]
        assert len(waves) == len(shapes) - 1 == math.ceil((M + cfg.n_max) / span)

    def test_second_order_in_time(self):
        # report-only: the half step's velocity and forcing are the mean of
        # those at the two nodes, off by dt^2 v''/8, so an iterate whose
        # velocity varies in time is second-order accurate.  The last
        # iterate at T, at dt = T/50, T/100 and T/200 against T/3200, is off
        # by 4.61e-6, 1.15e-6 and 2.87e-7: ratios 4.003 and 4.012
        grid = make_grid(64, 1.0)
        u0 = GridFunction.from_samples(grid, 0.05 * np.sin(grid.x))
        rho0 = GridFunction.from_samples(grid, 0.05 * np.cos(grid.x))
        params = BesovParams(3.0, 2.0, 2.0)
        T = lifespan(initial_norm(u0, rho0, params), 20.0)
        assert T == pytest.approx(3.2163, rel=1e-4)

        def last(n):
            trace = run_scheme(u0, rho0, SchemeConfig(params=params, C=20.0, n_max=3,
                                                      dt=T / n))
            assert trace.time_grid.size == n + 1
            return trace.last[-1]

        ref = last(3200)
        err = [np.max(np.abs(last(n) - ref)) for n in (50, 100, 200)]
        ratios = np.array(err[:-1]) / np.array(err[1:])
        assert np.all(np.abs(ratios - 4.0) <= 0.2), (err, ratios)

    def test_sequential_public_solves_match_last(self, grid256, params322):
        # the same iterates from public transport solves, each given the
        # sample velocity u^n and the samples of the forcing of iterate n:
        # they differ from the wave march only by rfft(irfft(c)) != c
        u0 = GridFunction.from_samples(grid256, 0.1 * np.sin(grid256.x))
        rho0 = GridFunction.from_samples(grid256, 0.1 * np.cos(grid256.x))
        cfg = SchemeConfig(params=params322, C=1.0, n_max=3, dt=1e-2)
        trace = run_scheme(u0, rho0, cfg)
        tg, N = trace.time_grid, grid256.N
        ik, lam, mask = _half_symbols(grid256)
        prev = np.zeros((tg.size, 2, N))
        for n in range(cfg.n_max):
            kern = MollifierKernel(epsilon=1.0 / (n + 1))
            prev_hat = np.fft.rfft(prev)
            z = np.fft.irfft(np.concatenate([prev_hat, ik * prev_hat[:, :1]], axis=-2), N)
            forcing = np.fft.irfft(fwlab.fw._scheme_forcing(prev_hat, z, ik, lam, mask,
                                                            np.empty_like(prev_hat)), N)
            prev = np.stack([
                solve_transport(TransportProblem.build(
                    tg, prev[:, 0], forcing[:, k], mollify(f0, kern))).states
                for k, f0 in enumerate((u0, rho0))], axis=1)
        np.testing.assert_allclose(trace.last, prev, rtol=0.0, atol=1e-13)

    def test_velocity_node_over_cfl_names_iterate_and_node(
            self, grid256, params322, monkeypatch):
        # a forcing scaled up 100-fold makes u^2 grow until, at some node,
        # it breaks the advective bound as the velocity of iterate 3
        real = fwlab.fw._scheme_forcing
        monkeypatch.setattr(fwlab.fw, "_scheme_forcing", lambda *a: 100.0 * real(*a))
        u0 = GridFunction.from_samples(grid256, 0.1 * np.sin(grid256.x))
        rho0 = GridFunction.from_samples(grid256, 0.1 * np.cos(grid256.x))
        two = run_scheme(u0, rho0, SchemeConfig(params=params322, C=1.0, n_max=2, dt=1e-2))
        dt = two.time_grid[1] - two.time_grid[0]
        vmax = np.max(np.abs(two.last[:, 0]), axis=-1)
        node = int(np.flatnonzero(dt > 0.5 * grid256.dx / vmax)[0])
        assert node > 0
        with pytest.raises(RuntimeError,
                           match=rf"failed at iterate 3: velocity u\^2 at node {node} "
                                 r"\(t = .*\): dt = .* violates the advective "
                                 r"stability bound .* \(max\|v\| = "):
            run_scheme(u0, rho0, SchemeConfig(params=params322, C=1.0, n_max=3, dt=1e-2))

    def test_data_node_over_cfl_names_iterate_and_node(self, grid256, params322):
        # at dt = 1.5 (refined to the lifespan) the data of iterate 1, the
        # widest mollification, is under the advective bound and the data
        # of iterate 2 is over it: the run fails before any iterate steps,
        # naming iterate 3, which u^2 advects, and node 0
        u0 = GridFunction.from_samples(grid256, 0.1 * np.sin(grid256.x))
        rho0 = GridFunction.from_samples(grid256, 0.1 * np.cos(grid256.x))
        with pytest.raises(RuntimeError,
                           match=r"^transport solve failed at iterate 3: velocity u\^2 at "
                                 r"node 0 \(t = 0\): dt = .* violates the advective "
                                 r"stability bound "):
            run_scheme(u0, rho0, SchemeConfig(params=params322, C=1.0, n_max=10, dt=1.5))

    def test_blowup_in_wave_march_names_iterate_and_node(
            self, grid256, params322, monkeypatch):
        # a NaN in the forcing iterate 1 exerts at its node 5 reaches
        # iterate 2 at its step to node 5
        real = fwlab.fw._scheme_forcing
        waves = []

        def poisoned(y, *args):
            out = real(y, *args)
            waves.append(len(y))
            if len(waves) == 6:  # wave node 5: iterate 1 is the first row
                out[0, 0, 0] = np.nan
            return out

        monkeypatch.setattr(fwlab.fw, "_scheme_forcing", poisoned)
        u0 = GridFunction.from_samples(grid256, 0.1 * np.sin(grid256.x))
        rho0 = GridFunction.from_samples(grid256, 0.1 * np.cos(grid256.x))
        cfg = SchemeConfig(params=params322, C=1.0, n_max=3, dt=1e-2)
        with pytest.raises(RuntimeError,
                           match=r"failed at iterate 2: transport solution lost "
                                 r"finiteness at node 5 \(t = ") as info:
            run_scheme(u0, rho0, cfg)
        assert isinstance(info.value.__cause__, BlowUpError)

    def test_march_yields_its_nodes_before_a_failure(self, monkeypatch):
        # _march_scheme yields each wave node before it steps on, so a march
        # that fails has yielded every node before the failure, and written
        # the kept iterate's samples at the nodes it reached, with the bits
        # of a march that does not fail: a NaN in the forcing iterate 1
        # exerts at wave node 5 reaches iterate 2 at its step to node 5,
        # after wave nodes 0..5 are yielded (iterate 3 at nodes 0..3), and
        # the error reads as run_scheme's
        grid = make_grid(64, 8.0)
        u0 = GridFunction.from_samples(grid, 0.1 * np.sin(grid.x))
        rho0 = GridFunction.from_samples(grid, 0.1 * np.cos(grid.x))
        kernels = [MollifierKernel(epsilon=1.0 / (n + 1)) for n in range(3)]
        initial = fwlab.fw._stacked([(mollify(u0, k), mollify(rho0, k)) for k in kernels])
        time_grid = make_time_grid(1.0, 1e-2)

        def march():
            yielded, last = [], np.full((time_grid.size, 2, grid.N), np.nan)
            try:
                for y in fwlab.fw._march_scheme(initial, grid, time_grid, 1e-2, last):
                    yielded.append(y.copy())
            except RuntimeError as exc:
                return yielded, last, exc
            return yielded, last, None

        clean, clean_last, none = march()
        assert none is None and len(clean) == time_grid.size + 2  # M + n_max wave nodes
        assert np.isfinite(clean_last).all()
        real = fwlab.fw._scheme_forcing
        waves = []

        def poisoned(y, *args):
            out = real(y, *args)
            waves.append(len(y))
            if len(waves) == 6:  # wave node 5: iterate 1 is the first row
                out[0, 0, 0] = np.nan
            return out

        monkeypatch.setattr(fwlab.fw, "_scheme_forcing", poisoned)
        yielded, last, exc = march()
        assert len(yielded) == 6
        for y, y_clean in zip(yielded, clean):
            assert np.array_equal(y, y_clean)
        assert np.array_equal(last[:4], clean_last[:4]) and np.isnan(last[4:]).all()
        assert str(exc) == ("transport solve failed at iterate 2: transport solution "
                            "lost finiteness at node 5 (t = 0.05)")
        assert isinstance(exc.__cause__, BlowUpError)

    def test_prefix_runs_give_every_iterate(self, grid256, part256, params322):
        # iterates never depend on later ones, so the n_max = k run is the
        # first k iterates of a longer run: its norms and d_n bit for bit,
        # and its last iterate is iterate k, whose samples give its norms
        # and d_n to rounding
        u0 = GridFunction.from_samples(grid256, 0.1 * np.sin(grid256.x))
        rho0 = GridFunction.from_samples(grid256, 0.1 * np.cos(grid256.x))
        runs = {k: run_scheme(u0, rho0, SchemeConfig(params=params322, C=1.0, n_max=k, dt=1e-2))
                for k in (1, 2, 3)}
        trace = runs[3]
        sm1 = params322.shift(-1.0)
        assert np.array_equal(runs[1].last, trace.first)
        for k, run in runs.items():
            assert np.array_equal(trace.norms[:k + 1], run.norms)
            assert np.array_equal(trace.d_n[:k], run.d_n)
            np.testing.assert_allclose(
                trace.norm_u[k], besov_norms_of_samples(part256, run.last[:, 0], params322),
                rtol=1e-13)
            np.testing.assert_allclose(
                trace.norm_rho[k], besov_norms_of_samples(part256, run.last[:, 1], sm1),
                rtol=1e-13)
            before = runs[k - 1].last if k > 1 else np.zeros_like(run.last)
            assert trace.d_n[k - 1] == pytest.approx(
                _sup_distance(part256, run.last - before, sm1), rel=1e-12)

    def test_peak_memory_below_stored_iterates(self, grid256, params322):
        u0 = GridFunction.from_samples(grid256, 0.1 * np.sin(grid256.x))
        rho0 = GridFunction.from_samples(grid256, 0.1 * np.cos(grid256.x))
        cfg = SchemeConfig(params=params322, C=1.0, n_max=10, dt=1e-2)
        tracemalloc.start()
        try:
            trace = run_scheme(u0, rho0, cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # below n_max + 1 stored (M+1, 2, N) iterates
        assert peak < (cfg.n_max + 1) * trace.time_grid.size * 2 * grid256.N * 8

    def test_memory_guard_prices_what_is_live_at_p4(self):
        # at p != 2 the norm reduction inverts every dyadic block of every
        # norm row, and a long lifespan (T = 123, 1,231 nodes) makes the
        # flags' per-node arrays large: the guard reads 909,212 B for this
        # run against its 860,954 B peak, and without the reduction's sample
        # temporaries and the flags' arrays it would read 772,756 B
        grid = make_grid(32, 8.0)
        u0 = GridFunction.from_samples(grid, 0.05 * np.sin(grid.x / 8))
        rho0 = GridFunction.from_samples(grid, 0.05 * np.cos(grid.x / 8))
        cfg = SchemeConfig(params=BesovParams(3.0, 4.0, 2.0), C=1.0, n_max=3, dt=1e-1)
        tracemalloc.start()
        try:
            trace = run_scheme(u0, rho0, cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        Q = build_partition(grid).masks.shape[0]
        priced = fwlab.fw._scheme_bytes(grid.N, cfg.n_max, trace.T, cfg.dt, 4.0, Q, True)
        assert peak <= priced
        samples = 2 * Q * 4 * cfg.n_max * grid.N * 8
        flags = (trace.T / cfg.dt + 1.0) * (2 * (cfg.n_max + 1) + 4) * 8
        assert peak > priced - samples - flags

    def test_memory_guard_before_allocating(self, grid256, part256, params322):
        # P0 ~ 1e-8 puts the lifespan at LIFESPAN_CAP: about 1e9 nodes
        u0 = GridFunction.from_samples(grid256, 1e-8 * np.sin(grid256.x))
        rho0 = GridFunction.from_samples(grid256, 1e-8 * np.cos(grid256.x))
        cfg = SchemeConfig(params=params322, C=1.0, n_max=10, dt=1e-3)
        with pytest.raises(ValueError, match=r"GB but the machine has .* GB; change --dt or --n-max"):
            run_scheme(u0, rho0, cfg)

    def test_contraction_and_direct_agreement(self, grid256, part256, params322):
        u0 = GridFunction.from_samples(grid256, 0.1 * np.sin(grid256.x))
        rho0 = GridFunction.from_samples(grid256, 0.1 * np.cos(grid256.x))
        cfg = SchemeConfig(params=params322, C=1.0, n_max=8, dt=2e-3)
        trace = run_scheme(u0, rho0, cfg)
        ratios = trace.d_n[1:] / trace.d_n[:-1]
        assert np.all(ratios[1:] < 1.0)
        assert bool(np.all(trace.bound_313))
        direct = solve_fw_direct(u0, rho0, trace.T, float(np.diff(trace.time_grid)[0]))
        assert scheme_direct_distance(trace, direct) <= 1e-3

    def test_last_kept_only_when_asked(self, scheme_peak):
        # without the last iterate's samples, 4.1 MB at these sizes, the run
        # holds only norms, d_n and flags per node, with the bits of a run
        # that keeps them, and the guard prices what it holds
        want, peak_with_last = scheme_peak
        grid = want.grid
        u0 = GridFunction.from_samples(grid, 0.1 * np.sin(grid.x))
        rho0 = GridFunction.from_samples(grid, 0.1 * np.cos(grid.x))
        cfg = SchemeConfig(params=want.params, C=1.0, n_max=10, dt=2e-3)
        tracemalloc.start()
        try:
            trace = run_scheme(u0, rho0, cfg, keep_last=False)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert trace.last is None
        for name in ("time_grid", "first", "norms", "d_n", "bound_312", "bound_313"):
            assert np.array_equal(getattr(trace, name), getattr(want, name)), name
        assert (trace.P0, trace.T) == (want.P0, want.T)
        samples = want.time_grid.size * 2 * grid.N * 8
        assert peak < peak_with_last - 0.9 * samples
        priced = fwlab.fw._scheme_bytes(grid.N, cfg.n_max, trace.T, cfg.dt, 2.0, 1, False)
        assert peak <= priced
        assert priced == pytest.approx(
            fwlab.fw._scheme_bytes(grid.N, cfg.n_max, trace.T, cfg.dt, 2.0, 1, True)
            - (trace.T / cfg.dt + 1.0) * 2 * grid.N * 8, rel=1e-12)

    def test_direct_distance_needs_the_last_iterate(self, grid256, params322):
        u0 = GridFunction.from_samples(grid256, 0.1 * np.sin(grid256.x))
        rho0 = GridFunction.from_samples(grid256, 0.1 * np.cos(grid256.x))
        cfg = SchemeConfig(params=params322, C=1.0, n_max=3, dt=1e-2)
        trace = run_scheme(u0, rho0, cfg, keep_last=False)
        direct = solve_fw_direct(u0, rho0, trace.T,
                                 float(np.diff(trace.time_grid)[0]))
        with pytest.raises(ValueError, match="keep_last=True"):
            scheme_direct_distance(trace, direct)

    def test_direct_distance_refuses_another_problem(self):
        # a direct solve over another time span with as many nodes, or of
        # the same data on another grid, is another problem: both used to
        # return a distance, 0.235 over T = 1 and 0.544 on L = 4, where the
        # matching solve, over T = 2.01, reads 0.140
        grid = make_grid(64, 8.0)
        u0 = GridFunction.from_samples(grid, 0.1 * np.sin(grid.x))
        rho0 = GridFunction.from_samples(grid, 0.1 * np.cos(grid.x))
        cfg = SchemeConfig(params=BesovParams(3.0, 2.0, 2.0), C=1.0, n_max=3, dt=2e-2)
        trace = run_scheme(u0, rho0, cfg)
        dt, M = float(np.diff(trace.time_grid)[0]), trace.time_grid.size - 1
        direct = solve_fw_direct(u0, rho0, trace.T, dt)
        assert scheme_direct_distance(trace, direct) == pytest.approx(0.140, abs=1e-3)
        shorter = solve_fw_direct(u0, rho0, 1.0, 1.0 / M)
        assert shorter.time_grid.size == trace.time_grid.size
        with pytest.raises(ValueError, match="different time grids"):
            scheme_direct_distance(trace, shorter)
        other = make_grid(64, 4.0)
        moved = (GridFunction.from_samples(other, 0.1 * np.sin(other.x)),
                 GridFunction.from_samples(other, 0.1 * np.cos(other.x)))
        with pytest.raises(ValueError, match="different grids"):
            scheme_direct_distance(trace, solve_fw_direct(*moved, trace.T, dt))


class TestEmpiricalLifespan:
    def test_zero_data_survives_to_cap(self, grid256, params322):
        z = _gf(grid256, 0.0)
        cfg = SchemeConfig(params=params322, dt=1e-2)
        assert empirical_lifespan(z, z, cfg, t_cap=0.5) == pytest.approx(0.5)

    def test_constant_data_survives_to_cap(self, grid256, params322):
        cfg = SchemeConfig(params=params322, dt=1e-2)
        got = empirical_lifespan(_gf(grid256, 0.3), _gf(grid256, -0.1), cfg, t_cap=0.5)
        assert got == pytest.approx(0.5)

    def test_blowup_uses_finite_prefix(self, params322, monkeypatch):
        marches = []
        real = fwlab.fw._march_fw

        def counting(*args):
            marches.append(args)
            return real(*args)

        monkeypatch.setattr(fwlab.fw, "_march_fw", counting)
        u0, rho0 = _blowup_data()
        cfg = SchemeConfig(params=params322, dt=1e-2)
        got = empirical_lifespan(u0, rho0, cfg, t_cap=20.0)
        assert len(marches) == 1
        assert got == pytest.approx(0.35, rel=1e-12)

    def test_blowup_before_violation_returns_last_finite_node(self, params322,
                                                               monkeypatch):
        # with the bound never crossed, the march runs into the blow-up at
        # node 648 and the last finite node, 647, is the lifespan
        monkeypatch.setattr(fwlab.fw, "_pair_norms", lambda part, y, params: (
            np.zeros(y.shape[:-2]), np.zeros(y.shape[:-2])))
        u0, rho0 = _blowup_data()
        cfg = SchemeConfig(params=params322, dt=1e-2)
        assert empirical_lifespan(u0, rho0, cfg, t_cap=20.0) == pytest.approx(6.47, rel=1e-12)

    def test_march_stops_at_first_violation(self, grid256, monkeypatch):
        calls = []
        real = fwlab.fw._fw_rhs

        def counting(*args):
            calls.append(1)
            return real(*args)

        monkeypatch.setattr(fwlab.fw, "_fw_rhs", counting)
        u0 = GridFunction.from_samples(grid256, 2.0 * np.sin(grid256.x))
        rho0 = GridFunction.from_samples(grid256, 2.0 * np.cos(grid256.x))
        cfg = SchemeConfig(params=BesovParams(3.0, 4.0, 2.0), dt=5e-3)
        got = empirical_lifespan(u0, rho0, cfg, t_cap=20.0)
        # the first node over 2*P0 is node 32; the march ends there
        assert got == pytest.approx(31 * 5e-3, rel=1e-12)
        assert len(calls) == 4 * 32

    def test_first_step_blowup_raises(self, grid256, params322, monkeypatch):
        # a march that loses finiteness on its first step has no finite node
        # after t = 0 to give as its lifespan
        monkeypatch.setattr(fwlab.fw, "_fw_rhs", lambda y, *symbols: np.full_like(y, np.inf))
        u0, rho0 = _sine_cosine(grid256, 0.1)
        cfg = SchemeConfig(params=params322, dt=1e-2)
        with pytest.raises(BlowUpError) as info:
            empirical_lifespan(u0, rho0, cfg, t_cap=0.1)
        assert info.value.node == 1

    def test_data_not_finite_at_node_0_raises(self, params322):
        # rho0 = 1e307 cos x has finite samples and a half spectrum that
        # overflows (32e307 at mode 1): from_samples refuses it, and a field
        # built past that check makes the march raise at node 0, where a
        # member that left there would have no node before it
        grid = make_grid(64, 8.0)
        with pytest.raises(ValueError, match="coefficients contain NaN or Inf"):
            GridFunction.from_samples(grid, 1e307 * np.cos(grid.x))
        u0 = GridFunction.from_samples(grid, 0.1 * np.sin(grid.x))
        rho0 = _overflowing(grid)
        cfg = SchemeConfig(params=params322, dt=1e-2)
        with pytest.raises(BlowUpError) as info:
            empirical_lifespan(u0, rho0, cfg, t_cap=1.0)
        assert str(info.value) == "direct solve lost finiteness at node 0 (t = 0) in rows (0,)"
        with pytest.raises(BlowUpError, match=r"at node 0 \(t = 0\)") as info:
            solve_fw_direct(u0, rho0, 1.0, 1e-2)
        assert info.value.node == 0 and info.value.rows == (0,)

    @pytest.mark.parametrize("norms_zeroed, blowup_lifespan", [(False, 0.35), (True, 6.47)])
    def test_stacked_lifespans_equal_single_marches(self, params322, monkeypatch,
                                                    norms_zeroed, blowup_lifespan):
        # with the real norms each member leaves the stack at its first node
        # over 2*P0 and the others march on; with the norms zeroed the blow-up
        # member leaves at node 648 and the others re-step from node 647.
        # The suite turns any RuntimeWarning into an error.
        if norms_zeroed:
            monkeypatch.setattr(fwlab.fw, "_pair_norms", lambda part, y, params: (
                np.zeros(y.shape[:-2]), np.zeros(y.shape[:-2])))
        blowup = _blowup_data()
        grid = blowup[0].grid
        pairs = [blowup, (_gf(grid, 0.0), _gf(grid, 0.0)), _sine_cosine(grid, 0.5)]
        cfg = SchemeConfig(params=params322, dt=1e-2)
        P0, T_emp = fwlab.fw._lifespans(pairs, cfg, t_cap=8.0)
        singles = [empirical_lifespan(u0, rho0, cfg, t_cap=8.0) for u0, rho0 in pairs]
        assert np.array_equal(T_emp, singles)
        assert np.array_equal(P0, [initial_norm(u0, rho0, params322)
                                   for u0, rho0 in pairs])
        assert T_emp[0] == pytest.approx(blowup_lifespan, rel=1e-12)
        assert T_emp[1] == 8.0  # zero data survives to t_cap

    def test_sweep_refuses_pairs_on_two_grids(self, params322):
        # a stack has one grid: behind an L = 8 pair, a 64-point pair at
        # L = 4 was normed on the L = 8 partition, P0 = 0.940 and not 1.080
        pairs = [_sine_cosine(make_grid(64, L), 0.5) for L in (8.0, 4.0)]
        with pytest.raises(ValueError, match="u0 and rho0 must share one grid"):
            fwlab.fw._lifespans(pairs, SchemeConfig(params=params322, dt=1e-2), t_cap=0.1)

    @pytest.mark.parametrize("norms_zeroed", [False, True])
    def test_blocked_sweep_is_the_same_sweep(self, params322, monkeypatch, norms_zeroed):
        # every block after node 0 is screened in one bound call; a member
        # that leaves inside a block (over 2*P0 with the real norms, at its
        # blow-up with the norms zeroed) steps on to the block's end, and no
        # exact norm call holds more rows than node 0's.  With the norms
        # zeroed P0 is 0, no row is certified and every row is normed.
        if norms_zeroed:
            monkeypatch.setattr(fwlab.fw, "_pair_norms", lambda part, y, params: (
                np.zeros(y.shape[:-2]), np.zeros(y.shape[:-2])))
        exact, screened = [], []

        def recording(calls, real):
            def wrapper(part, y, params):
                calls.append(y.shape[:-2])
                return real(part, y, params)
            return wrapper

        grid = _blowup_data()[0].grid
        pairs = [_sine_cosine(grid, a) for a in (0.5, 1.0, 1.5, 2.0, 2.5, 3.0)]
        cfg = SchemeConfig(params=params322, dt=1e-2)
        with monkeypatch.context() as patch:
            patch.setattr(fwlab.fw, "_pair_norms", recording(exact, fwlab.fw._pair_norms))
            patch.setattr(fwlab.fw, "_pair_norm_bounds",
                          recording(screened, fwlab.fw._pair_norm_bounds))
            _, T_emp = fwlab.fw._lifespans(pairs, cfg, t_cap=8.0)
        singles = [empirical_lifespan(u0, rho0, cfg, t_cap=8.0) for u0, rho0 in pairs]
        assert np.array_equal(T_emp, singles)
        assert exact[0] == (1, len(pairs))
        assert all(len(b) == 1 for b in exact[1:])
        assert max(math.prod(b) for b in exact) == len(pairs)
        # every row after node 0 is screened once and normed at most once
        rows = sum(math.prod(b) for b in screened)
        assert sum(math.prod(b) for b in exact[1:]) == (rows if norms_zeroed else 30)
        assert {b[0] for b in screened[:-1]} == {fwlab.fw._SCREENED_NODES}
        # the node each member leaves at, and the first node of each block
        first_nodes = np.cumsum([1] + [b[0] for b in screened])[:-1]
        leave_nodes = np.rint(T_emp / cfg.dt).astype(int) + 1
        assert not np.isin(leave_nodes, first_nodes).all()
        if norms_zeroed:
            assert T_emp[0] == pytest.approx(7.93, rel=1e-12)  # a blow-up, not t_cap

    @pytest.mark.parametrize("p", [1.0, 2.0, 4.0, np.inf])
    def test_screen_keeps_the_bits_of_exact_norms(self, monkeypatch, p):
        # with a bound that certifies nothing every row is normed exactly;
        # the screened sweep gives the same bits.  The blow-up data are
        # amplitude 2, and the suite turns any RuntimeWarning into an error.
        grid = _blowup_data()[0].grid
        pairs = [_sine_cosine(grid, a) for a in (1e-150, 0.25)]
        pairs += [_blowup_data(), (_gf(grid, 0.0), _gf(grid, 0.0))]
        cfg = SchemeConfig(params=BesovParams(3.2, p, 2.0), dt=1e-2)
        want = fwlab.fw._lifespans(pairs, cfg, t_cap=8.0)
        monkeypatch.setattr(fwlab.fw, "_pair_norm_bounds", lambda part, y, params: (
            np.full(y.shape[:-2], np.inf), np.full(y.shape[:-2], np.inf)))
        got = fwlab.fw._lifespans(pairs, cfg, t_cap=8.0)
        assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])
        assert want[1][0] == want[1][3] == 8.0  # tiny and zero data reach t_cap
        assert want[1][2] < want[1][1] < 8.0

    @pytest.mark.parametrize("besov, P0, nodes", [
        ("{p: 1.0, s: 3.5}", [4.585017571924608, 9.170035143849216, 18.34007028769843,
                              36.68014057539686], [334, 185, 65, 28]),
        ("{p: .inf}", [0.15230195660377832, 0.30460391320755664, 0.6092078264151133,
                       1.2184156528302266], [325, 174, 60, 25]),
    ])
    def test_frozen_sweep_at_p1_and_pinf(self, besov, P0, nodes):
        # the lifespan-p4 benchmark workload's amplitudes, dt and t_cap at
        # p = 1 and p = inf: P0 and the node before each member leaves
        cfg = parse_config("experiment: {kind: lifespan-sweep, amplitudes: [0.25, 0.5, 1, 2]}\n"
                           f"time: {{dt: 5e-3, t_cap: 20.0}}\nbesov: {besov}\n")
        rows = run_experiment(cfg, write=False).tables["lifespan"][1]
        assert [row[1] for row in rows] == pytest.approx(P0, rel=1e-12)
        assert [row[2] for row in rows] == [float(t) for t in make_time_grid(20.0, 5e-3)[nodes]]

    def test_sweep_is_one_march_that_drops_members(self, monkeypatch):
        calls = {"_march_fw": 0, "_fw_rhs": 0, "_pair_norms": 0, "_pair_norm_bounds": 0}
        rows = {"_pair_norms": 0, "_pair_norm_bounds": 0}
        for name in calls:
            def counting(*args, real=getattr(fwlab.fw, name), name=name):
                calls[name] += 1
                if name in rows:
                    rows[name] += math.prod(args[1].shape[:-2])
                return real(*args)
            monkeypatch.setattr(fwlab.fw, name, counting)
        # the lifespan-p4 benchmark workload
        cfg = parse_config("experiment: {kind: lifespan-sweep, amplitudes: [0.25, 0.5, 1, 2]}\n"
                           "time: {dt: 5e-3, t_cap: 20.0}\nbesov: {p: 4.0}\n")
        report = run_experiment(cfg, write=False)
        # the members leave after 352, 210, 74 and 32 nodes; the stack steps
        # until the last of them leaves
        T_emp = [row[2] for row in report.tables["lifespan"][1]]
        assert T_emp == pytest.approx(5e-3 * np.array([351, 209, 73, 31]), rel=1e-12)
        # one bound call per block of 8 nodes after node 0, and the last
        # block ends at the last verdict; the bound certifies all but 65 of
        # the 680 node-member rows after node 0, which are normed in calls
        # of at most 4 rows, node 0's
        assert calls == {"_march_fw": 1, "_fw_rhs": 4 * 352, "_pair_norms": 19,
                         "_pair_norm_bounds": 44}
        assert rows == {"_pair_norms": 4 + 65, "_pair_norm_bounds": 680}
        # T_emp over T = 3/(16 C P0^2) at C = 1: below 1 at a = 0.25
        P0 = [row[1] for row in report.tables["lifespan"][1]]
        ratios = [float(q) for q in report.summary["T_emp_over_T_guaranteed"].split()]
        assert ratios == [t / lifespan(p, 1.0) for t, p in zip(T_emp, P0)]
        assert ratios == pytest.approx([0.9426, 2.2451, 3.1367, 5.3281], rel=1e-4)
        assert report.summary["min_T_emp_over_T_guaranteed"] == ratios[0]


class TestLinearGrowthOracle:
    """Linearised about rest, mode xi grows at
    Re lambda+ = |xi| sqrt(3 + 4 xi^2) / (2 (1 + xi^2))."""

    @pytest.mark.parametrize("xi", [0.5, 1.0, 2.0])
    @pytest.mark.parametrize("field", ["u", "rho"])
    def test_fitted_growth_rate(self, xi, field):
        grid = make_grid(32, 2.0)
        mode = GridFunction.from_samples(grid, 1e-6 * np.sin(xi * grid.x))
        zero = _gf(grid, 0.0)
        pair = (mode, zero) if field == "u" else (zero, mode)
        traj = solve_fw_direct(*pair, 12.0, 1e-2)
        t = traj.time_grid
        l2 = np.sqrt(np.sum(traj.u**2 + traj.rho**2, axis=-1))
        late = t >= 6.0
        rate = np.polyfit(t[late], np.log(l2[late]), 1)[0]
        expected = xi * np.sqrt(3.0 + 4.0 * xi**2) / (2.0 * (1.0 + xi**2))
        assert rate == pytest.approx(expected, rel=2e-3)

    def test_sweep_reports_largest_dealiased_rate(self, grid256):
        # the rate rises with |xi|, so the largest is the top dealiased mode's,
        # |k| = 85 at N = 256 and xi = 85/8 at L = 8
        cfg = parse_config("experiment: {kind: lifespan-sweep, amplitudes: [0.25]}\n"
                           "time: {dt: 5e-3, t_cap: 0.01}\n")
        got = run_experiment(cfg, write=False).summary["max_linear_growth_rate"]
        xi = np.arange(grid256.N // 3 + 1) / grid256.L
        rates = xi * np.sqrt(3.0 + 4.0 * xi**2) / (2.0 * (1.0 + xi**2))
        assert got == float(np.max(rates)) == float(rates[85])
        assert got == pytest.approx(0.9945, abs=1e-4)


class TestGalileanInvariance:
    """If (u, rho) solves the system, so does (u(x - ct) + c, rho(x - ct)):
    u u_x and u rho_x absorb the shift, and d/dx c = 0 removes it from the
    linear terms.  Data in the 2/3 band keep the dealiased modes zero in
    both frames, so the march obeys the symmetry up to RK4's time error,
    which falls at fourth order in dt down to rounding."""

    c = 0.3

    @staticmethod
    def _data(grid):
        rng = np.random.default_rng(3)
        return [random_band_limited(grid, rng, k_max=k_max, amplitude=a)
                for k_max, a in ((8, 0.2), (8, 0.2), (4, 1.0), (4, 1.0))]

    def _boosted(self, u0):
        return GridFunction.from_samples(u0.grid, u0.samples + self.c)

    @pytest.mark.parametrize("dt", [4e-3, 2e-3, 1e-3])
    def test_boosted_solve_is_translated_solve(self, grid256, dt):
        u0, rho0, _, _ = self._data(grid256)
        rest = solve_fw_direct(u0, rho0, 1.0, dt)
        moving = solve_fw_direct(self._boosted(u0), rho0, 1.0, dt)
        # the rest frame's solution moved by c t, a phase shift per mode,
        # and c added to u
        xi = np.arange(grid256.N // 2 + 1) / grid256.L
        shift = np.exp(-1j * self.c * np.outer(rest.time_grid, xi))[:, None, :]
        moved = np.fft.irfft(np.fft.rfft(rest.states) * shift, grid256.N)
        moved[:, 0] += self.c
        # measured on u: 3.0e-13 / 1.9e-14 / 1.5e-15, on rho: 5.7e-13 /
        # 3.6e-14 / 2.9e-15 at dt = 4e-3 / 2e-3 / 1e-3
        err = np.max(np.abs(moving.states - moved), axis=(0, 2))
        assert np.all(err <= 5e-3 * dt**4 + 2e-15), err

    @pytest.mark.parametrize("dt", [4e-3, 2e-3, 1e-3])
    def test_stability_distance_is_the_same_in_both_frames(self, grid256, params322, dt):
        # boosting both members translates their difference, and the p = 2
        # norm reads only Fourier moduli, so D(t) does not see the frame
        u0, rho0, shape_u, shape_rho = self._data(grid256)
        cfg = SchemeConfig(params=params322, dt=dt)
        pair = [(0.1 * shape_u, 0.1 * shape_rho)]
        rest = stability_experiment(u0, rho0, pair, cfg, 1.0)[0]
        moving = stability_experiment(self._boosted(u0), rho0, pair, cfg, 1.0)[0]
        # measured: 3.4e-13 / 2.2e-14 / 1.3e-15 relative
        rel = np.max(np.abs(moving.norm_curve / rest.norm_curve - 1.0))
        assert rel <= 3e-3 * dt**4 + 2e-15


class TestStability:
    def test_zero_perturbation(self, grid256, monkeypatch):
        # every member equals the base, so one row marches and no node has
        # a difference row to norm, at p = 2 and on the general-p path
        u0 = GridFunction.from_samples(grid256, 0.05 * np.sin(grid256.x))
        rho0 = GridFunction.from_samples(grid256, 0.05 * np.cos(grid256.x))
        z = _gf(grid256, 0.0)
        marched = []
        real = fwlab.fw._march_fw

        def counting(initial, *args):
            marched.append(len(initial))
            return real(initial, *args)

        monkeypatch.setattr(fwlab.fw, "_march_fw", counting)
        for p in (2.0, 4.0):
            cfg = SchemeConfig(params=BesovParams(3.0, p, 2.0), dt=5e-3)
            for report in stability_experiment(u0, rho0, [(z, z)] * 2, cfg, T=0.5):
                assert np.all(report.norm_curve == 0.0)
                assert report.beta_fit == 0.0
                assert report.bound_holds
        assert marched == [1, 1]

    def test_distance_scales_linearly_in_delta(self, grid256, params322):
        u0 = GridFunction.from_samples(grid256, 0.05 * np.sin(grid256.x))
        rho0 = GridFunction.from_samples(grid256, 0.05 * np.cos(grid256.x))
        d1 = GridFunction.from_samples(grid256, 1e-4 * np.sin(2 * grid256.x))
        z = _gf(grid256, 0.0)
        cfg = SchemeConfig(params=params322, dt=5e-3)
        r1, r2 = stability_experiment(u0, rho0, [(d1, z), (2.0 * d1, z)], cfg, T=0.5)
        assert r2.initial_distance == pytest.approx(2.0 * r1.initial_distance, rel=1e-12)
        ratio = r2.norm_curve[-1] / r1.norm_curve[-1]
        assert ratio == pytest.approx(2.0, rel=1e-2)
        assert r1.bound_holds and r2.bound_holds


class TestContinuity:
    def test_zero_data(self, grid256, params322):
        z = _gf(grid256, 0.0)
        cfg = SchemeConfig(params=params322, dt=1e-2)
        report = continuity_experiment(z, z, j_max=3, cfg=cfg, T=0.2)
        assert report.nonincreasing
        assert report.final_error == 0.0

    def test_errors_shrink_and_floor(self, grid256, params322):
        u0 = GridFunction.from_samples(grid256, 0.05 * np.sin(grid256.x))
        rho0 = GridFunction.from_samples(grid256, 0.05 * np.cos(grid256.x))
        cfg = SchemeConfig(params=params322, dt=5e-3)
        report = continuity_experiment(u0, rho0, j_max=4, cfg=cfg, T=0.5)
        assert report.nonincreasing
        assert report.errors[0] > report.final_error
        # widths 2^-3, 2^-4 sit below the grid spacing, so the mollifier is
        # the exact discrete identity there
        assert report.final_error <= 1e-10

    def test_small_j_max_rejected(self, grid256, params322):
        z = _gf(grid256, 0.0)
        cfg = SchemeConfig(params=params322, dt=1e-2)
        with pytest.raises(ValueError):
            continuity_experiment(z, z, j_max=2, cfg=cfg, T=0.2)


def _sine_cosine(grid, amplitude):
    return (GridFunction.from_samples(grid, amplitude * np.sin(grid.x)),
            GridFunction.from_samples(grid, amplitude * np.cos(grid.x)))


class TestMemberBatch:
    """The direct march carries a leading member axis; members step together
    and independently."""

    def test_rhs_of_stack_equals_single_calls(self, grid256):
        # a field-major (2, 4, N//2 + 1) stack, each member stepped alone
        # through a kernel of its own shape
        rng = np.random.default_rng(307)
        y = np.fft.rfft([[random_field(grid256, rng, k_max=8).samples for _ in range(4)]
                         for _ in range(2)])
        rhs = fwlab.fw._direct_rhs
        singles = np.stack([rhs(grid256, (2, y.shape[-1]))(y[:, k], 0, 0.0)
                            for k in range(4)], axis=1)
        assert same_bits(rhs(grid256, y.shape)(y, 0, 0.0), singles)

    def test_continuity_family_march_equals_single_marches(self, grid256):
        u0, rho0 = _sine_cosine(grid256, 0.1)
        kernels = [MollifierKernel(epsilon=2.0**-j) for j in range(6)]
        members = fwlab.fw._stacked(
            [(u0, rho0)] + [(mollify(u0, k), mollify(rho0, k)) for k in kernels])
        tg = make_time_grid(1.0, 2e-3)
        singles = [fwlab.fw._march_fw(m, grid256, tg, 2e-3) for m in members]
        nodes = 0
        for y in fwlab.fw._march_fw(members, grid256, tg, 2e-3):
            # field-major: member k is y[:, k]
            assert same_bits(y, np.stack([next(s) for s in singles], axis=1))
            nodes += 1
        assert nodes == tg.size

    def test_blowup_names_the_member(self):
        u0, rho0 = _blowup_data()
        calm = _sine_cosine(u0.grid, 0.1)
        members = fwlab.fw._stacked([calm, (u0, rho0), calm])
        march = fwlab.fw._march_fw(members, u0.grid, make_time_grid(20.0, 1e-2), 1e-2)
        with pytest.raises(BlowUpError) as info:
            for _ in march:
                pass
        # the node of the single solve in test_blowup_carries_finite_prefix
        assert info.value.node == 648
        assert info.value.rows == (1,)

    def test_stability_members_are_independent(self, grid256, params322):
        u0, rho0 = _sine_cosine(grid256, 0.05)
        d1 = GridFunction.from_samples(grid256, 1e-4 * np.sin(2 * grid256.x))
        z = _gf(grid256, 0.0)
        cfg = SchemeConfig(params=params322, dt=5e-3)
        zero, pert = stability_experiment(u0, rho0, [(z, z), (d1, z)], cfg, T=0.5)
        (solo,) = stability_experiment(u0, rho0, [(d1, z)], cfg, T=0.5)
        assert np.all(zero.norm_curve == 0.0)
        assert np.array_equal(pert.norm_curve, solo.norm_curve)
        assert pert.beta_fit == solo.beta_fit

    @pytest.mark.parametrize("experiment", ["stability", "continuity"])
    def test_one_march_and_no_direct_solve(self, grid256, params322, monkeypatch,
                                           experiment):
        marches, solves = [], []
        real = fwlab.fw._march_fw

        def counting(*args):
            marches.append(args)
            return real(*args)

        monkeypatch.setattr(fwlab.fw, "_march_fw", counting)
        monkeypatch.setattr(fwlab.fw, "solve_fw_direct", lambda *args: solves.append(args))
        u0, rho0 = _sine_cosine(grid256, 0.05)
        cfg = SchemeConfig(params=params322, dt=1e-2)
        if experiment == "stability":
            d = GridFunction.from_samples(grid256, 1e-4 * np.sin(2 * grid256.x))
            reports = stability_experiment(u0, rho0, [(d, d), (2.0 * d, d), (3.0 * d, d)],
                                           cfg, T=0.2)
            assert len(reports) == 3
        else:
            continuity_experiment(u0, rho0, j_max=4, cfg=cfg, T=0.2)
        assert len(marches) == 1
        assert solves == []

    @pytest.mark.parametrize("rows, raised", [((3,), RuntimeError), ((0, 3), BlowUpError)])
    def test_continuity_blowup_names_member(self, grid256, params322, monkeypatch,
                                            rows, raised):
        def exploding(*args):
            raise BlowUpError("direct solve lost finiteness", node=5, t=0.05, rows=rows)
            yield

        monkeypatch.setattr(fwlab.fw, "_march_fw", exploding)
        u0, rho0 = _sine_cosine(grid256, 0.05)
        cfg = SchemeConfig(params=params322, dt=1e-2)
        with pytest.raises(RuntimeError) as info:
            continuity_experiment(u0, rho0, j_max=4, cfg=cfg, T=0.2)
        assert type(info.value) is raised
        if raised is RuntimeError:
            assert "continuity family member j = 2 blew up" in str(info.value)

    @pytest.mark.parametrize("experiment", ["continuity", "stability"])
    def test_continuity_stores_no_trajectory(self, grid256, part256, params322,
                                             experiment):
        # the criteria 11-12 sizes
        u0, rho0 = _sine_cosine(grid256, 0.1)
        cfg = SchemeConfig(params=params322, dt=2e-3)
        shape_u = GridFunction.from_samples(grid256, np.sin(2 * grid256.x))
        shape_rho = GridFunction.from_samples(grid256, np.cos(3 * grid256.x))
        perturbations = [(d * shape_u, d * shape_rho) for d in (1e-2, 1e-3, 1e-4)]
        tracemalloc.start()
        try:
            if experiment == "continuity":
                continuity_experiment(u0, rho0, j_max=5, cfg=cfg, T=1.0)
            else:
                stability_experiment(u0, rho0, perturbations, cfg, T=1.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # below one stored (M+1, 2, N) trajectory: 501 nodes of 2 x 256 floats
        assert peak < 501 * 2 * 256 * 8

    @pytest.mark.parametrize("p", [2.0, 4.0])
    @pytest.mark.parametrize("nodes", [3, 47])
    def test_blocked_distances_equal_per_node_norms(self, grid256, part256, monkeypatch,
                                                    nodes, p):
        # 3 differences, 6 rows, per node: a block is 42 nodes at p = 2 and
        # 5 at p = 4, so 3 nodes fill less than one block and 47 leave a
        # short last block
        params = BesovParams(3.0, p, 2.0)
        rng = np.random.default_rng(431)
        members = np.array([[random_field(grid256, rng, k_max=40, amplitude=0.1).samples
                             for _ in range(2)] for _ in range(4)])
        dt = 5e-3
        tg = make_time_grid((nodes - 1) * dt, dt)
        calls = []
        real = fwlab.fw._pair_norms

        def counting(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(fwlab.fw, "_pair_norms", counting)
        du, drho = fwlab.fw._member_distances(members, grid256, tg, dt, params)
        span = fwlab.besov._nodes_per_call(p, 6)
        assert span == (42 if p == 2 else 5)
        assert len(calls) == math.ceil(nodes / span) and nodes % span
        assert du.shape == drho.shape == (nodes, 3)
        for i, y in enumerate(fwlab.fw._march_fw(members, grid256, tg, dt)):
            # the field-major march's differences, member-major
            norm_u, norm_rho = real(part256, np.moveaxis(y[:, 1:] - y[:, :1], 0, 1), params)
            assert same_bits(du[i], norm_u)
            assert same_bits(drho[i], norm_rho)


    def test_distinct_members_at_criterion_12_sizes_equal_a_march_of_all(self, grid256,
                                                                         part256, params322):
        # widths 2^-3..2^-5 sit below dx, so members j = 3, 4, 5 share one
        # row of the march; their distances have the bits of a march of all
        # 7 rows normed node by node
        u0, rho0 = _sine_cosine(grid256, 0.1)
        kernels = [MollifierKernel(epsilon=2.0**-j) for j in range(6)]
        members = fwlab.fw._stacked(
            [(u0, rho0)] + [(mollify(u0, k), mollify(rho0, k)) for k in kernels])
        tg = make_time_grid(1.0, 2e-3)
        du, drho = fwlab.fw._member_distances(members, grid256, tg, 2e-3, params322)
        assert du.shape == drho.shape == (tg.size, 6)
        for i, y in enumerate(fwlab.fw._march_fw(members, grid256, tg, 2e-3)):
            diff = np.moveaxis(y[:, 1:] - y[:, :1], 0, 1)  # member-major
            norm_u, norm_rho = _pair_norms(part256, diff, params322)
            assert same_bits(du[i], norm_u)
            assert same_bits(drho[i], norm_rho)

    @pytest.mark.parametrize("kind, extra, rows", [
        ("continuity", "j_max: 5", 5),  # the benchmark's direct-sweep
        ("continuity", "j_max: 6", 5),  # the CLI default
        ("stability", "deltas: [1.0e-2, 1.0e-3, 1.0e-4]", 4),  # the benchmark's direct-sweep
    ])
    def test_march_takes_each_distinct_member_once(self, monkeypatch, kind, extra, rows):
        marched = []
        real = fwlab.fw._march_fw

        def counting(initial, *args):
            marched.append(len(initial))
            return real(initial, *args)

        monkeypatch.setattr(fwlab.fw, "_march_fw", counting)
        run_experiment(parse_config(f"time: {{T: 1.0, dt: 2.0e-3}}\n"
                                    f"experiment: {{kind: {kind}, {extra}}}\n"), write=False)
        assert marched == [rows]

    def test_signed_zeros_are_distinct_members(self, grid256, params322, monkeypatch):
        # members are told apart by their bytes: -0.0 is not 0.0, and a
        # member equal to member 0 gets exact zeros
        marched = []
        real = fwlab.fw._march_fw

        def counting(initial, *args):
            marched.append(len(initial))
            return real(initial, *args)

        monkeypatch.setattr(fwlab.fw, "_march_fw", counting)
        zeros = np.zeros((2, grid256.N))
        members = np.array([zeros, -zeros, zeros])
        tg = make_time_grid(0.1, 1e-2)
        du, drho = fwlab.fw._member_distances(members, grid256, tg, 1e-2, params322)
        assert marched == [2]
        assert np.all(du == 0.0) and np.all(drho == 0.0)

    def test_member_not_finite_at_node_0_is_named(self, params322):
        # a perturbed rho0 of 1e307 cos x overflows its half spectrum: the
        # stability family refuses to build it, and the member march names
        # that member of a raw stack at node 0, before any step
        grid = make_grid(64, 8.0)
        u0, rho0 = _sine_cosine(grid, 0.1)
        z = _gf(grid, 0.0)
        d = GridFunction.from_samples(grid, 1e-4 * np.sin(2 * grid.x))
        huge = _overflowing(grid)
        cfg = SchemeConfig(params=params322, dt=1e-2)
        with pytest.raises(ValueError, match="coefficients contain NaN or Inf"):
            stability_experiment(u0, rho0, [(z, z), (z, huge), (d, z)], cfg, T=1.0)
        members = fwlab.fw._stacked([(u0, rho0), (u0, rho0), (u0, huge), (u0 + d, rho0)])
        with pytest.raises(BlowUpError) as info:
            fwlab.fw._member_distances(members, grid, make_time_grid(1.0, 1e-2), 1e-2,
                                       params322.shift(-1.0))
        assert str(info.value) == "direct solve lost finiteness at node 0 (t = 0) in rows (2,)"
        assert info.value.node == 0 and info.value.rows == (2,)

    def test_distinct_march_blowup_names_every_member(self, params322):
        u0, rho0 = _blowup_data()
        calm = _sine_cosine(u0.grid, 0.1)
        members = fwlab.fw._stacked([calm, (u0, rho0), calm, (u0, rho0)])
        with pytest.raises(BlowUpError) as info:
            fwlab.fw._member_distances(members, u0.grid, make_time_grid(20.0, 1e-2), 1e-2,
                                       params322)
        # the node of the single solve in test_blowup_carries_finite_prefix
        assert info.value.node == 648
        assert info.value.rows == (1, 3)
        assert "at node 648" in str(info.value) and "in rows (1, 3)" in str(info.value)


class TestPairNorms:
    def test_each_reduction_bounds_its_rows(self, grid256, part256, params322,
                                            monkeypatch):
        # _NORM_CHUNK counts rows: a (K, 2, N) pair stack has two per entry,
        # and simulate's chunks of nodes have two per node
        rows = []
        real = fwlab.besov._norms

        def counting(part, half, *args):
            rows.append(int(np.prod(np.shape(half)[:-1])))
            return real(part, half, *args)

        monkeypatch.setattr(fwlab.besov, "_norms", counting)
        monkeypatch.setattr(fwlab.fw, "_norms", counting)
        rng = np.random.default_rng(409)
        _sup_distance(part256, rng.standard_normal((601, 2, grid256.N)), params322)
        besov_norms_of_samples(part256, rng.standard_normal((601, grid256.N)), params322)
        run_experiment(parse_config("time: {T: 0.5, dt: 1e-3}\n"), write=False)
        assert sum(rows) == 2 * 601 + 601 + 2 * 501
        assert max(rows) <= fwlab.besov._NORM_CHUNK

    @pytest.mark.parametrize("p", [1.0, 2.0, 4.0, np.inf])
    def test_march_state_norms_equal_sample_norms(self, grid256, part256, p):
        rng = np.random.default_rng(419)
        members = np.array([[random_field(grid256, rng, k_max=40, amplitude=0.1).samples
                             for _ in range(2)] for _ in range(3)])
        # (node, field, member) half spectra, normed as (node, member) pairs
        y = np.array(list(fwlab.fw._march_fw(members, grid256,
                                             make_time_grid(0.5, 5e-3), 5e-3)))
        params = BesovParams(3.0, p, 2.0)
        norm_u, norm_rho = _pair_norms(part256, np.moveaxis(y, 1, -2), params)
        assert norm_u.shape == norm_rho.shape == (len(y), 3)
        samples = np.fft.irfft(y, grid256.N)
        want_u = besov_norms_of_samples(part256, samples[:, 0], params)
        want_rho = besov_norms_of_samples(part256, samples[:, 1], params.shift(-1.0))
        np.testing.assert_allclose(norm_u, want_u, rtol=1e-13, atol=0.0)
        np.testing.assert_allclose(norm_rho, want_rho, rtol=1e-13, atol=0.0)

    @pytest.mark.parametrize("p", [1.0, 2.0, 4.0, np.inf])
    def test_initial_norm_is_the_node0_pair_norm(self, grid256, part256, p):
        # P0 is measured as the lifespan sweep measures its node 0: one
        # _pair_norms call on the half spectra of the stacked data
        rng = np.random.default_rng(433)
        pairs = [(random_field(grid256, rng, k_max=40, amplitude=a),
                  random_field(grid256, rng, k_max=40, amplitude=a))
                 for a in rng.uniform(0.05, 2.0, size=20)]
        params = BesovParams(3.0, p, 2.0)
        y = np.fft.rfft(fwlab.fw._stacked(pairs))
        norm_u, norm_rho = _pair_norms(part256, y, params)
        P0 = [initial_norm(u0, rho0, params) for u0, rho0 in pairs]
        assert np.array_equal(P0, norm_u + norm_rho)

    @pytest.mark.parametrize("p", [1.0, 2.0, 4.0, np.inf])
    def test_norms_divided_by_N_not_the_block(self, p):
        # _pair_norms and _pair_norm_bounds divide the norms by N, not the
        # block: a row's norm scales with it, to the bit where N is a power
        # of two and to rounding elsewhere.  Zero, inf and NaN rows read what
        # they read when the block is divided
        params = BesovParams(3.0, p, 2.0)
        for N, rtol in [(256, 0.0), (96, 2e-15)]:
            grid = make_grid(N, 8.0)
            part = build_partition(grid)
            rng = np.random.default_rng(439)
            y = np.fft.rfft([[random_field(grid, rng, k_max=N // 4, amplitude=a).samples
                              for _ in range(2)] for a in (1e-3, 0.1, 1.0, 50.0)])
            odd = np.zeros((3, 2, N // 2 + 1), dtype=complex)
            odd[1, 0, 3], odd[2, 1, 5] = np.inf, np.nan
            y = np.concatenate([y, odd])
            smoothness = fwlab.fw._pair_smoothness(params)
            for got, reduction in [(_pair_norms(part, y, params), fwlab.besov._norms),
                                   (fwlab.fw._pair_norm_bounds(part, y, params),
                                    fwlab.besov._norm_bounds)]:
                with np.errstate(invalid="ignore"):  # inf / N is inf + nan j
                    want = reduction(part, y / N, params, smoothness)
                got = np.stack(got, axis=-1)
                if rtol == 0.0:
                    assert same_bits(got, want)
                else:
                    np.testing.assert_allclose(got, want, rtol=rtol, atol=0.0)
                    assert same_bits(got[-3:], want[-3:])

    def test_initial_norm_refuses_another_grids_partition(self, grid256, params322):
        # the partition is u0's grid's: rho0 on another grid is refused
        grid = make_grid(64, 8.0)
        u0 = GridFunction.from_samples(grid, 0.1 * np.sin(grid.x))
        on_256 = GridFunction.from_samples(grid256, 0.1 * np.sin(grid256.x))
        with pytest.raises(ValueError, match="u0 and rho0 must share one grid"):
            initial_norm(u0, on_256, params322)

    def test_long_stack_normed_in_bounded_chunks(self, grid256, part256):
        # a long stack of pair samples, as _sup_distance norms it, one field
        # at a time: at p = 4 the block temporaries of one whole-stack
        # reduction are many times the stack's 8.2 MB
        rng = np.random.default_rng(401)
        y = rng.standard_normal((2001, 2, grid256.N))
        params = BesovParams(3.0, 4.0, 2.0)
        spaces = [params, params.shift(-1.0)]
        tracemalloc.start()
        try:
            norms = [besov_norms_of_samples(part256, y[:, k], q) for k, q in enumerate(spaces)]
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64e6
        for k, q in enumerate(spaces):
            halves = [besov_norms_of_samples(part256, y[:1000, k], q),
                      besov_norms_of_samples(part256, y[1000:, k], q)]
            assert np.array_equal(norms[k], np.concatenate(halves))


class TestNodeBlocks:
    SPAN = 4

    @pytest.mark.parametrize("n_nodes", [1, SPAN - 1, SPAN, SPAN + 1, 2 * SPAN])
    def test_blocks_tile_the_nodes_with_their_bits(self, n_nodes):
        # each yielded (first, filled) is the next run of nodes, at most SPAN
        # of them, copied into the caller's buffer with each node's bits;
        # the nodes after the first n_nodes are not read
        rng = np.random.default_rng(41)
        nodes = rng.standard_normal((n_nodes + 1, 2, 3))
        block = np.full((self.SPAN, 2, 3), np.nan)
        given = iter(nodes)
        tiled = []
        for first, filled in fwlab.fw._node_blocks(given, block, n_nodes):
            assert first == len(tiled) and 1 <= len(filled) <= self.SPAN
            assert np.shares_memory(filled, block)
            assert same_bits(filled, nodes[first:first + len(filled)])
            tiled += range(first, first + len(filled))
        assert tiled == list(range(n_nodes))
        assert same_bits(next(given), nodes[-1])
