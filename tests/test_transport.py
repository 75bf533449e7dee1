import tracemalloc
from itertools import islice

import numpy as np
import pytest

import fwlab.transport

from fwlab import (
    BesovParams,
    GridFunction,
    TransportProblem,
    fit_transport_constant,
    make_grid,
    solve_transport,
    verify_transport_estimate,
)
from fwlab.spectral import _half_symbols
from fwlab.transport import BlowUpError, integrate_rk4, make_time_grid
from fwlab.harness import make_preset, random_band_limited, random_transport_problem

from conftest import random_field, same_bits


def _constant_problem(time_grid, v_value, forcing, initial):
    return TransportProblem.build(time_grid, np.full(initial.grid.N, v_value), forcing,
                                  initial)


class TestMakeTimeGrid:
    def test_uniform(self):
        tg = make_time_grid(1.0, 0.25)
        assert np.allclose(tg, [0.0, 0.25, 0.5, 0.75, 1.0])

    def test_rejects_nondivisor_step(self):
        with pytest.raises(ValueError):
            make_time_grid(1.0, 0.3)

    @pytest.mark.parametrize("T, dt, name", [
        (0.0, 0.1, "T"), (-1.0, 0.1, "T"), (np.inf, 0.1, "T"), (np.nan, 0.1, "T"),
        (1.0, 0.0, "dt"), (1.0, -0.1, "dt"), (1.0, np.inf, "dt"), (1.0, np.nan, "dt"),
    ])
    def test_rejects_non_positive_or_non_finite(self, T, dt, name):
        with pytest.raises(ValueError, match=f"^{name} must be positive and finite$"):
            make_time_grid(T, dt)


class TestIntegrateRK4:
    @staticmethod
    def _decay(calls):
        def rhs(y, i, w):
            calls.append(i)
            return -y
        return rhs

    def test_error_state_unchanged_between_yields(self):
        before = np.geterr()
        march = integrate_rk4(self._decay([]), np.ones(4), make_time_grid(1.0, 0.1),
                              0.1, "decay")
        next(march)
        next(march)
        assert np.geterr() == before
        march.close()

    def test_stopping_after_k_nodes_costs_k_minus_1_steps(self):
        calls = []
        tg = make_time_grid(1.0, 0.01)
        for k in (1, 2, 7):
            calls.clear()
            states = list(islice(integrate_rk4(self._decay(calls), np.ones(4), tg,
                                               0.01, "decay"), k))
            assert len(states) == k
            assert len(calls) == 4 * (k - 1)

    @pytest.mark.parametrize("shape, rows", [((4,), ()), ((2, 3, 4), (0, 2))])
    def test_blowup_names_nonfinite_rows(self, shape, rows):
        # the rate is infinite in the named rows only: in a field-major
        # (2, K, ...) stack the rows are its members, the second-last axis,
        # and only field 1 of each loses finiteness
        rate = np.zeros(shape)
        if rows:
            rate[1, list(rows), 0] = np.inf
        else:
            rate[0] = np.inf
        march = integrate_rk4(lambda y, i, w: rate, np.ones(shape),
                              make_time_grid(1.0, 0.1), 0.1, "batch")
        with pytest.raises(BlowUpError) as info:
            list(march)
        assert info.value.node == 1
        assert info.value.rows == rows
        assert (f"in rows {rows}" in str(info.value)) == bool(rows)

    @pytest.mark.parametrize("shape, rows", [((4,), ()), ((2, 3, 4), (0, 2))])
    def test_nonfinite_y0_raises_at_node_0(self, shape, rows):
        # y0 is checked as every later node is, before it is yielded and
        # before any step
        y0 = np.ones(shape)
        if rows:
            y0[1, list(rows), 0] = np.inf
        else:
            y0[0] = np.inf
        calls = []
        march = integrate_rk4(self._decay(calls), y0, make_time_grid(1.0, 0.1), 0.1, "batch")
        with pytest.raises(BlowUpError) as info:
            next(march)
        assert info.value.node == 0 and info.value.t == 0.0
        assert info.value.rows == rows
        assert (f"in rows {rows}" in str(info.value)) == bool(rows)
        assert calls == []


def _sine_half_spectrum(grid, m):
    """The rfft of sin(m x / L): -i N/2 at mode m."""
    f_hat = np.zeros(grid.N // 2 + 1, dtype=complex)
    f_hat[m] = -0.5j * grid.N
    return f_hat


def _kernel(f_hat, vw, Fw_hat, grid):
    """_transport_rhs over a workspace of its own, as a march of f_hat's
    shape calls it."""
    ik, _, mask = _half_symbols(grid)
    work = fwlab.transport._transport_workspace(np.shape(f_hat), grid.N)
    return fwlab.transport._transport_rhs(f_hat, vw, Fw_hat, ik, mask, *work)


class TestKernel:
    @pytest.mark.parametrize("m", [1, 5, 40, 64, 85])
    def test_advected_mode_oracle(self, grid256, m):
        # -c d/dx sin(m x / L) = -c (m / L) cos(m x / L) on every mode the
        # 2/3 rule keeps: its half spectrum is -c (m / L) N/2 at mode m
        c, N = 0.7, grid256.N
        F_hat = np.zeros(N // 2 + 1, dtype=complex)
        got = _kernel(_sine_half_spectrum(grid256, m), c, F_hat, grid256)
        want = np.zeros_like(got)
        want[m] = -c * (m / grid256.L) * 0.5 * N
        assert np.max(np.abs(got - want)) <= 1e-12 * 0.5 * N

    @pytest.mark.parametrize("m", [1, 5, 40, 64, 85])
    def test_advected_mode_march_oracle(self, grid256, m):
        # at constant velocity c the mode m evolves as f' = lam f with
        # lam = -i c m / L, so RK4 multiplies it by
        # R = 1 + z + z^2/2 + z^3/6 + z^4/24, z = lam dt, at every step
        c, N = 0.7, grid256.N
        tg = make_time_grid(0.2, 1e-3)
        dt = float(tg[1] - tg[0])
        f_hat = _sine_half_spectrum(grid256, m)
        states = np.array(list(fwlab.transport._march_transport(
            grid256, tg, np.full((tg.size, N), c), np.zeros((tg.size, N // 2 + 1), complex),
            f_hat)))
        z = -1j * c * (m / grid256.L) * dt
        R = 1 + z + z**2 / 2 + z**3 / 6 + z**4 / 24
        want = np.zeros_like(states)
        want[:, m] = f_hat[m] * R ** np.arange(tg.size)
        assert np.max(np.abs(states - want)) <= 1e-12 * 0.5 * N

    def test_nyquist_mode_has_zero_derivative(self, grid256):
        # the dealiased advection is zero at the Nyquist mode, and the
        # derivative's imaginary output there is dropped by irfft
        rng = np.random.default_rng(337)
        N = grid256.N
        nyquist = np.zeros(N // 2 + 1, dtype=complex)
        nyquist[-1] = 0.3 * N
        v = 0.3 * random_field(grid256, rng, k_max=8).samples
        assert np.all(_kernel(nyquist, v, 0.0, grid256) == 0.0)
        tg = make_time_grid(0.1, 0.01)
        f_hat = np.fft.rfft(random_field(grid256, rng).samples) + nyquist
        states = list(fwlab.transport._march_transport(
            grid256, tg, np.broadcast_to(v, (tg.size, N)),
            np.zeros((tg.size, N // 2 + 1), complex), f_hat))
        assert all(y[-1] == f_hat[-1] and y[-1].imag == 0.0 for y in states)
        assert not np.array_equal(states[-1], states[0])

    def test_rhs_of_stack_equals_single_calls(self, grid256):
        # the scheme's (K, 2, N//2 + 1) stack, with a velocity and forcing
        # per row, steps as its rows do one at a time in solve_transport
        rng = np.random.default_rng(331)

        def fields(*shape):
            return np.array([random_field(grid256, rng, k_max=8).samples
                             for _ in range(int(np.prod(shape)))]).reshape(shape + (-1,))

        f, v, F = np.fft.rfft(fields(4, 2)), 0.3 * fields(4, 1), np.fft.rfft(fields(4, 2))
        singles = np.array([[_kernel(f[k, c], v[k, 0], F[k, c], grid256) for c in range(2)]
                            for k in range(4)])
        assert np.array_equal(_kernel(f, v, F, grid256), singles)

    @pytest.mark.parametrize("shape, v_shape", [((), ()), ((3, 2), (3, 1))])
    def test_kernel_writes_neither_its_input_nor_its_outputs(self, grid256, shape, v_shape):
        # _rk4_step holds f and k1..k4 across the kernel's calls, which share
        # one workspace per march: a later call writes neither f, the
        # velocity and forcing, nor an earlier output
        rng = np.random.default_rng(367 + len(shape))

        def fields(*lead):
            return np.array([random_field(grid256, rng, k_max=8).samples
                             for _ in range(int(np.prod(lead)))]).reshape(lead + (-1,))

        f, v, F = np.fft.rfft(fields(*shape)), 0.3 * fields(*v_shape), np.fft.rfft(fields(*shape))
        given = [a.copy() for a in (f, v, F)]
        ik, _, mask = _half_symbols(grid256)
        work = fwlab.transport._transport_workspace(f.shape, grid256.N)
        k1 = fwlab.transport._transport_rhs(f, v, F, ik, mask, *work)
        first = k1.copy()
        k2 = fwlab.transport._transport_rhs(2.0 * f, v, F, ik, mask, *work)
        assert all(same_bits(a, b) for a, b in zip((f, v, F), given))
        assert same_bits(k1, first)
        assert not np.shares_memory(k1, k2)
        assert not any(np.shares_memory(k, w) for k in (k1, k2) for w in work)

    def test_blowup_carries_finite_prefix(self, grid256):
        # an infinite forcing from node 3 on is first reached at the half
        # step of step 2 -> 3; the march yields the finite nodes before it
        N = grid256.N
        tg = make_time_grid(0.1, 0.01)
        F_hat = np.zeros((tg.size, N // 2 + 1), dtype=complex)
        F_hat[3:, 1] = np.inf
        f_hat = np.fft.rfft(np.sin(grid256.x))
        yielded = []
        with pytest.raises(BlowUpError) as info:
            for y in fwlab.transport._march_transport(grid256, tg, np.full((tg.size, N), 0.5),
                                                      F_hat, f_hat):
                yielded.append(y)
        assert info.value.node == 3
        assert len(yielded) == 3
        assert all(np.all(np.isfinite(y)) for y in yielded)
        assert np.array_equal(yielded[0], f_hat)


class TestSolveTransport:
    def test_zero_velocity_zero_forcing_is_identity(self, grid256, params322):
        rng = np.random.default_rng(101)
        f0 = random_field(grid256, rng)
        tg = make_time_grid(1.0, 0.01)
        prob = _constant_problem(tg, 0.0, np.zeros(grid256.N), f0)
        traj = solve_transport(prob)
        assert np.max(np.abs(traj.states[-1] - f0.samples)) <= 1e-14
        report = verify_transport_estimate(traj, params322, C=1.0)
        assert np.max(np.abs(report.V_profile)) == 0.0

    def test_constant_velocity_is_translation(self):
        # f_t + c f_x = 0 transports the profile by c t; a band-limited field
        # can be shifted exactly for comparison.
        grid = make_grid(256, 1.0)
        c, T = 0.7, 1.0
        f0 = GridFunction.from_samples(grid, np.sin(3 * grid.x) + 0.2 * np.cos(5 * grid.x))
        tg = make_time_grid(T, 1e-3)
        prob = _constant_problem(tg, c, np.zeros(grid.N), f0)
        traj = solve_transport(prob)
        shifted = np.sin(3 * (grid.x - c * T)) + 0.2 * np.cos(5 * (grid.x - c * T))
        assert np.max(np.abs(traj.states[-1] - shifted)) <= 1e-8

    def test_pure_forcing_accumulates_linearly(self, grid256):
        # With v = 0 and time-independent F the solution is f0 + t F.
        rng = np.random.default_rng(103)
        f0 = random_field(grid256, rng)
        F = random_field(grid256, rng)
        tg = make_time_grid(0.5, 0.01)
        prob = _constant_problem(tg, 0.0, F.samples, f0)
        traj = solve_transport(prob)
        assert np.max(np.abs(traj.states[-1] - (f0.samples + 0.5 * F.samples))) <= 1e-10

    def test_frozen_node(self, grid256):
        x = grid256.x
        tg = make_time_grid(1.0, 2e-3)
        n = tg.size
        prob = TransportProblem.build(
            tg, np.tile(0.5 * np.sin(x), (n, 1)),
            np.tile(0.5 * np.cos(x), (n, 1)), GridFunction.from_samples(grid256, np.sin(x)),
        )
        traj = solve_transport(prob)
        assert traj.states[500, 37] == pytest.approx(0.9353624741856418, rel=1e-12)

    def test_blowup_carries_finite_prefix(self, grid256, monkeypatch):
        f0 = GridFunction.from_samples(grid256, np.sin(grid256.x))
        tg = make_time_grid(0.1, 0.01)
        forcing = np.zeros((tg.size, grid256.N))
        forcing[3:] = np.inf  # first reached at the half step of step 2 -> 3
        prob = _constant_problem(tg, 0.5, forcing, f0)
        yielded = []

        def recording(*args):
            for y in integrate_rk4(*args):
                yielded.append(y)
                yield y

        monkeypatch.setattr(fwlab.transport, "integrate_rk4", recording)
        with pytest.raises(BlowUpError) as info:
            solve_transport(prob)
        exc = info.value
        assert exc.node == 3
        assert exc.t == pytest.approx(0.03, rel=1e-12)
        assert len(yielded) == 3
        assert all(np.all(np.isfinite(y)) for y in yielded)
        assert np.array_equal(yielded[0], np.fft.rfft(f0.samples))

    @pytest.mark.parametrize("given_once", [False, True])
    def test_states_are_the_march_inverted(self, grid256, given_once):
        # solve_transport stores its data as node 0 and the irfft of the
        # march of its half spectra at every later node
        rng = np.random.default_rng(347)
        tg = make_time_grid(0.2, 5e-3)
        n, N = tg.size, grid256.N
        v = 0.3 * np.array([random_field(grid256, rng, k_max=4).samples for _ in range(n)])
        F = (random_field(grid256, rng).samples if given_once else
             np.array([random_field(grid256, rng).samples for _ in range(n)]))
        f0 = random_field(grid256, rng)
        prob = TransportProblem.build(tg, v, F, f0)
        states = solve_transport(prob).states
        F_hat = np.fft.rfft(np.broadcast_to(F, (n, N)))
        march = np.array(list(fwlab.transport._march_transport(
            grid256, tg, v, F_hat, np.fft.rfft(f0.samples))))
        assert np.array_equal(states[0], f0.samples)
        assert np.array_equal(states[1:], np.fft.irfft(march[1:], N))

    def test_batch_forcing_shape_checked(self, grid256):
        # a problem has one row: (M+1, 2, N) forcing is refused, not batched
        f0 = GridFunction.from_samples(grid256, np.sin(grid256.x))
        tg = make_time_grid(0.1, 0.01)
        v = np.zeros((tg.size, grid256.N))
        with pytest.raises(ValueError, match="forcing"):
            TransportProblem.build(tg, v, np.stack([v, v], axis=1), f0)
        with pytest.raises(ValueError, match="velocity"):
            TransportProblem.build(tg, v[:-1], v, f0)
        # a field given once must be one whole row
        with pytest.raises(ValueError, match="velocity"):
            TransportProblem.build(tg, v[0, :-1], v, f0)
        with pytest.raises(ValueError, match="forcing"):
            TransportProblem.build(tg, v, v[0, :-1], f0)

    @pytest.mark.parametrize("seed", list(range(12)) + [157])
    def test_rows_given_once_equal_tiled_fields(self, grid256, params322, seed):
        rng = np.random.default_rng(seed)
        v = random_field(grid256, rng, k_max=4, amplitude=0.3)
        F = random_field(grid256, rng, amplitude=0.5)
        f0 = random_field(grid256, rng)
        tg = make_time_grid(0.5, 5e-3)
        n = tg.size
        once = TransportProblem.build(tg, v.samples, F.samples, f0)
        tiled = TransportProblem.build(tg, np.tile(v.samples, (n, 1)),
                                       np.tile(F.samples, (n, 1)), f0)
        assert once.velocity.shape == once.forcing.shape == (n, grid256.N)
        assert not once.velocity.flags.writeable
        a, b = solve_transport(once), solve_transport(tiled)
        assert np.array_equal(a.states, b.states)
        ra = verify_transport_estimate(a, params322, C=1.0)
        rb = verify_transport_estimate(b, params322, C=1.0)
        for name in ("f_norms", "F_norms", "V_profile", "rhs", "holds"):
            assert np.array_equal(getattr(ra, name), getattr(rb, name)), name

    def test_row_given_once_is_normed_once(self, grid256, params322, monkeypatch):
        rows = []
        real = fwlab.transport.besov_norms_of_samples

        def recording(part, samples, params):
            rows.append(len(samples))
            return real(part, samples, params)

        monkeypatch.setattr(fwlab.transport, "besov_norms_of_samples", recording)
        rng = np.random.default_rng(163)
        tg = make_time_grid(0.5, 5e-3)
        prob = TransportProblem.build(
            tg, random_field(grid256, rng, k_max=4, amplitude=0.3).samples,
            random_field(grid256, rng).samples, random_field(grid256, rng))
        report = verify_transport_estimate(solve_transport(prob), params322, C=1.0)
        # v_x and F once each; the states at every node
        assert sorted(rows) == [1, 1, tg.size]
        assert report.F_norms.shape == report.V_profile.shape == (tg.size,)

    def test_row_given_once_is_not_copied_per_node(self, grid256):
        # two (M+1, N) copies at 100,001 nodes would take about 410 MB
        tg = make_time_grid(100.0, 1e-3)
        f0 = GridFunction.from_samples(grid256, np.sin(grid256.x))
        tracemalloc.start()
        try:
            prob = TransportProblem.build(tg, 0.5 * f0.samples, f0.samples, f0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert prob.forcing.shape == (tg.size, grid256.N)
        assert peak < 4e6

    def test_time_grid_must_be_uniform(self, grid256):
        f0 = GridFunction.from_samples(grid256, np.sin(grid256.x))
        v = np.zeros(grid256.N)
        for tg in ([0.0, 0.1, 0.3], [0.0]):
            with pytest.raises(ValueError, match="uniform with at least one step"):
                TransportProblem.build(np.array(tg), v, v, f0)

    def test_problem_holds_initial_samples(self, grid256):
        f0 = GridFunction.from_samples(grid256, np.sin(grid256.x))
        tg = make_time_grid(0.1, 0.01)
        v = np.zeros((tg.size, grid256.N))
        one = TransportProblem.build(tg, v, v, f0)
        assert one.initial.shape == (grid256.N,)
        assert np.array_equal(one.initial, f0.samples)

    def test_cfl_guard(self, grid256):
        f0 = GridFunction.from_samples(grid256, np.sin(grid256.x))
        tg = make_time_grid(1.0, 0.5)  # dt far above 0.5 dx / |v|
        prob = _constant_problem(tg, 2.0, np.zeros(grid256.N), f0)
        with pytest.raises(ValueError, match="stability"):
            solve_transport(prob)

    def test_cfl_names_first_failing_row(self, grid256):
        # several rows over the bound, between rows that are zero, NaN or
        # under it: the first failing row, and its message, are those of a
        # bound taken row by row
        dt = 1e-2
        vmax = np.array([0.0, 1.0, np.nan, 12.0, 3.0, 20.0, 0.5, 15.0])
        velocity = np.zeros((vmax.size, grid256.N))
        velocity[:, 5] = -vmax
        velocity[:, 9] = 0.5 * vmax
        bound = fwlab.transport.CFL_FACTOR * grid256.dx / vmax[3]
        assert fwlab.transport._cfl_violation(grid256, velocity, dt) == (
            3, f"dt = {dt} violates the advective stability bound {bound:.3e} "
               f"(max|v| = {vmax[3]:.3e})")
        for under in (velocity[:3], velocity[[0, 1, 2, 4, 6]], velocity[:0]):
            assert fwlab.transport._cfl_violation(grid256, under, dt) is None

    def test_linearity_in_data(self, grid256):
        rng = np.random.default_rng(107)
        v = random_field(grid256, rng, k_max=4, amplitude=0.3)
        tg = make_time_grid(0.5, 5e-3)
        f0, g0 = random_field(grid256, rng), random_field(grid256, rng)

        def run(init):
            prob = TransportProblem.build(tg, v.samples, np.zeros(grid256.N), init)
            return solve_transport(prob).states[-1]

        combined = run(GridFunction.from_samples(grid256, f0.samples + 2.0 * g0.samples))
        assert np.max(np.abs(combined - (run(f0) + 2.0 * run(g0)))) <= 1e-10

    def test_mean_conserved_without_forcing(self, grid256):
        # d/dt mean(f) = -mean(v f_x) vanishes only for divergence-free v in
        # 1d, i.e. constants; use one to check the conservative bookkeeping.
        rng = np.random.default_rng(109)
        f0 = random_field(grid256, rng)
        tg = make_time_grid(1.0, 5e-3)
        prob = _constant_problem(tg, 0.4, np.zeros(grid256.N), f0)
        traj = solve_transport(prob)
        final = GridFunction.from_samples(grid256, traj.states[-1])
        assert final.mean() == pytest.approx(f0.mean(), abs=1e-12)

    def test_fourth_order_convergence(self):
        grid = make_grid(64, 1.0)
        v = GridFunction.from_samples(grid, 0.3 * np.sin(grid.x))
        f0 = GridFunction.from_samples(grid, np.cos(2 * grid.x))
        F = 0.1 * np.cos(3 * grid.x)

        def err(dt):
            prob = TransportProblem.build(make_time_grid(0.5, dt), v.samples, F, f0)
            return solve_transport(prob).states[-1]

        ref = err(0.5 / 4096)
        e1 = np.max(np.abs(err(0.02) - ref))
        e2 = np.max(np.abs(err(0.01) - ref))
        assert e1 / e2 >= 12.0  # fourth order would give 16

    def test_second_order_with_a_velocity_varying_in_time(self):
        # RK4's half-step stages take the mean of the velocity at the two
        # nodes, off by dt^2 v''/8, so with a velocity that varies in time
        # the march is second order: halving dt divides the error by 4
        grid = make_grid(64, 1.0)
        f0 = GridFunction.from_samples(grid, np.cos(2 * grid.x))
        F = 0.1 * np.cos(3 * grid.x)

        def final(dt):
            tg = make_time_grid(0.5, dt)
            v = 0.3 * np.sin(grid.x) * np.cos(4 * tg)[:, None]
            return solve_transport(TransportProblem.build(tg, v, F, f0)).states[-1]

        ref = final(0.5 / 4096)
        errors = [np.max(np.abs(final(dt) - ref)) for dt in (0.02, 0.01, 0.005)]
        ratios = np.array(errors[:-1]) / errors[1:]
        assert np.all(np.abs(ratios - 4.0) <= 0.2), ratios


class TestEstimate:
    def test_zero_velocity_holds_at_C_one(self, grid256, params322):
        rng = np.random.default_rng(113)
        f0 = random_field(grid256, rng)
        F = random_field(grid256, rng, amplitude=0.5)
        tg = make_time_grid(1.0, 0.01)
        prob = _constant_problem(tg, 0.0, F.samples, f0)
        traj = solve_transport(prob)
        report = verify_transport_estimate(traj, params322, C=1.0)
        assert bool(np.all(report.holds))

    def test_equality_case(self, grid256, params322):
        # v = 0, f0 = 0 and F chosen with time-independent sign pattern make
        # the estimate an identity: f(t) = t F, V = 0, and both quadratures
        # are the same trapezoid sum.
        rng = np.random.default_rng(127)
        F = random_field(grid256, rng)
        zero = GridFunction.from_samples(grid256, np.zeros(grid256.N))
        tg = make_time_grid(1.0, 0.01)
        prob = _constant_problem(tg, 0.0, F.samples, zero)
        traj = solve_transport(prob)
        report = verify_transport_estimate(traj, params322, C=1.0)
        ratios = report.lhs[1:] / report.rhs[1:]
        assert np.max(np.abs(ratios - 1.0)) <= 1e-10

    def test_r_infinite_rejected(self, grid256):
        rng = np.random.default_rng(137)
        f0 = random_field(grid256, rng)
        tg = make_time_grid(0.5, 0.01)
        prob = _constant_problem(tg, 0.0, np.zeros(grid256.N), f0)
        params = BesovParams(3.0, 2.0, np.inf)
        traj = solve_transport(prob)
        with pytest.raises(ValueError):
            verify_transport_estimate(traj, params, C=1.0)

    @pytest.mark.parametrize("C", [0.0, -1.0, np.nan, np.inf])
    def test_non_positive_or_non_finite_C_rejected(self, grid256, params322, C):
        rng = np.random.default_rng(139)
        f0 = random_field(grid256, rng)
        tg = make_time_grid(0.5, 0.01)
        prob = _constant_problem(tg, 0.0, np.zeros(grid256.N), f0)
        traj = solve_transport(prob)
        with pytest.raises(ValueError, match="C must be positive and finite"):
            verify_transport_estimate(traj, params322, C=C)


class TestFitConstant:
    def test_velocity_free_family_needs_tiny_C(self, grid256, params322):
        # With v = 0 the estimate holds for any C > 0, so the fit should
        # return essentially the bisection floor.
        rng = np.random.default_rng(149)
        tg = make_time_grid(0.5, 0.01)
        probs = [
            _constant_problem(
                tg, 0.0, random_field(grid256, rng, amplitude=0.5).samples,
                random_field(grid256, rng),
            )
            for _ in range(3)
        ]
        C = fit_transport_constant(probs, params322)
        assert C <= 1.0 + 1e-3

    def test_random_family_generalizes(self, grid256, params322):
        rng = np.random.default_rng(151)
        train = [random_transport_problem(grid256, rng, T=0.5, dt=5e-3) for _ in range(8)]
        C = fit_transport_constant(train, params322)
        assert 0 < C < 1e6
        held_out = [random_transport_problem(grid256, rng, T=0.5, dt=5e-3) for _ in range(4)]
        for prob in held_out:
            traj = solve_transport(prob)
            report = verify_transport_estimate(traj, params322, C=2.0 * C)
            assert bool(np.all(report.holds))

    def test_empty_family_rejected(self, params322):
        with pytest.raises(ValueError):
            fit_transport_constant([], params322)

    @pytest.fixture(scope="class")
    def default_problem(self, grid256):
        # the transport kind's problem at defaults, which needs C = 1.0186
        v = make_preset(grid256, "sine", 0.5)
        f0 = random_band_limited(grid256, np.random.default_rng(0), k_max=6)
        return TransportProblem.build(make_time_grid(1.0, 1e-3), v.samples,
                                      np.zeros(grid256.N), f0)

    def test_constant_above_one_is_found_by_doubling(self, default_problem, params322):
        C = fit_transport_constant([default_problem], params322)
        assert C == pytest.approx(1.0186, rel=2e-3)
        report = verify_transport_estimate(solve_transport(default_problem), params322, C)
        assert bool(np.all(report.holds))

    def test_no_constant_below_the_cap_raises(self, default_problem, params322, monkeypatch):
        monkeypatch.setattr(fwlab.transport, "C_CAP", 1.5)
        with pytest.raises(RuntimeError, match="no C below 1.5"):
            fit_transport_constant([default_problem], params322)
