import numpy as np
import pytest

from fwlab import (
    BesovParams,
    GridFunction,
    TransportProblem,
    fit_transport_constant,
    make_grid,
    solve_transport,
    verify_transport_estimate,
)
from fwlab.transport import BlowUpError, make_time_grid
from fwlab.harness import random_transport_problem

from conftest import random_field


def _constant_problem(grid, time_grid, v_value, forcing, initial):
    n = time_grid.size
    v = np.full((n, grid.N), v_value)
    if np.ndim(forcing) == 1:
        forcing = np.tile(forcing, (n, 1))
    return TransportProblem.build(grid, time_grid, v, forcing, initial)


class TestMakeTimeGrid:
    def test_uniform(self):
        tg = make_time_grid(1.0, 0.25)
        assert np.allclose(tg, [0.0, 0.25, 0.5, 0.75, 1.0])

    def test_rejects_nondivisor_step(self):
        with pytest.raises(ValueError):
            make_time_grid(1.0, 0.3)


class TestSolveTransport:
    def test_zero_velocity_zero_forcing_is_identity(self, grid256, params322):
        rng = np.random.default_rng(101)
        f0 = random_field(grid256, rng)
        tg = make_time_grid(1.0, 0.01)
        prob = _constant_problem(grid256, tg, 0.0, np.zeros(grid256.N), f0)
        traj = solve_transport(prob, params322)
        assert np.max(np.abs(traj.states[-1] - f0.samples)) <= 1e-14
        assert np.max(np.abs(traj.V_profile)) == 0.0

    def test_constant_velocity_is_translation(self, params322):
        # f_t + c f_x = 0 transports the profile by c t; a band-limited field
        # can be shifted exactly for comparison.
        grid = make_grid(256, 1.0)
        c, T = 0.7, 1.0
        f0 = GridFunction.from_samples(grid, np.sin(3 * grid.x) + 0.2 * np.cos(5 * grid.x))
        tg = make_time_grid(T, 1e-3)
        prob = _constant_problem(grid, tg, c, np.zeros(grid.N), f0)
        traj = solve_transport(prob, params322)
        shifted = np.sin(3 * (grid.x - c * T)) + 0.2 * np.cos(5 * (grid.x - c * T))
        assert np.max(np.abs(traj.states[-1] - shifted)) <= 1e-8

    def test_pure_forcing_accumulates_linearly(self, grid256, params322):
        # With v = 0 and time-independent F the solution is f0 + t F.
        rng = np.random.default_rng(103)
        f0 = random_field(grid256, rng)
        F = random_field(grid256, rng)
        tg = make_time_grid(0.5, 0.01)
        prob = _constant_problem(grid256, tg, 0.0, F.samples, f0)
        traj = solve_transport(prob, params322)
        assert np.max(np.abs(traj.states[-1] - (f0.samples + 0.5 * F.samples))) <= 1e-10

    def test_frozen_node(self, grid256, params322):
        x = grid256.x
        tg = make_time_grid(1.0, 2e-3)
        n = tg.size
        prob = TransportProblem.build(
            grid256, tg, np.tile(0.5 * np.sin(x), (n, 1)),
            np.tile(0.5 * np.cos(x), (n, 1)), GridFunction.from_samples(grid256, np.sin(x)),
        )
        traj = solve_transport(prob, params322)
        assert traj.states[500, 37] == pytest.approx(0.9353624741856418, rel=1e-12)

    def test_blowup_carries_finite_prefix(self, grid256, params322):
        f0 = GridFunction.from_samples(grid256, np.sin(grid256.x))
        tg = make_time_grid(0.1, 0.01)
        forcing = np.zeros((tg.size, grid256.N))
        forcing[3:] = np.inf  # first reached at the half step of step 2 -> 3
        prob = _constant_problem(grid256, tg, 0.5, forcing, f0)
        with pytest.raises(BlowUpError) as info:
            solve_transport(prob, params322)
        exc = info.value
        assert exc.node == 3
        assert exc.t == pytest.approx(0.03, rel=1e-12)
        assert exc.states.shape == (3, grid256.N)
        assert np.all(np.isfinite(exc.states))
        assert np.array_equal(exc.states[0], f0.samples)

    def test_two_row_batch_equals_one_row_solves(self, grid256, params322):
        rng = np.random.default_rng(157)
        tg = make_time_grid(0.2, 2e-3)
        n = tg.size
        v = np.tile(random_field(grid256, rng, k_max=4, amplitude=0.3).samples, (n, 1))
        f0, g0 = random_field(grid256, rng), random_field(grid256, rng)
        F = np.tile(random_field(grid256, rng, amplitude=0.5).samples, (n, 1))
        G = np.tile(random_field(grid256, rng, amplitude=0.5).samples, (n, 1))
        batch = TransportProblem.build(grid256, tg, v, np.stack([F, G], axis=1), (f0, g0))
        traj = solve_transport(batch, params322)
        assert traj.states.shape == (n, 2, grid256.N)
        one_f = solve_transport(TransportProblem.build(grid256, tg, v, F, f0), params322)
        one_g = solve_transport(TransportProblem.build(grid256, tg, v, G, g0), params322)
        assert np.array_equal(traj.states[:, 0], one_f.states)
        assert np.array_equal(traj.states[:, 1], one_g.states)
        # one velocity, hence one V profile for the batch
        assert np.array_equal(traj.V_profile, one_f.V_profile)

    def test_batch_forcing_shape_checked(self, grid256):
        f0 = GridFunction.from_samples(grid256, np.sin(grid256.x))
        tg = make_time_grid(0.1, 0.01)
        v = np.zeros((tg.size, grid256.N))
        with pytest.raises(ValueError, match="forcing"):
            TransportProblem.build(grid256, tg, v, v, (f0, f0))
        other = GridFunction.from_samples(make_grid(128, 8.0), np.zeros(128))
        with pytest.raises(ValueError, match="initial"):
            TransportProblem.build(grid256, tg, v, np.stack([v, v], axis=1), (f0, other))

    def test_V_profile_computed_on_first_read(self, grid256, params322):
        f0 = GridFunction.from_samples(grid256, np.sin(grid256.x))
        tg = make_time_grid(0.1, 0.01)
        prob = _constant_problem(grid256, tg, 0.5, np.zeros(grid256.N), f0)
        traj = solve_transport(prob, params322)
        assert "V_profile" not in vars(traj)
        assert traj.V_profile.shape == (tg.size,)
        assert traj.V_profile is traj.V_profile

    def test_cfl_guard(self, grid256, params322):
        f0 = GridFunction.from_samples(grid256, np.sin(grid256.x))
        tg = make_time_grid(1.0, 0.5)  # dt far above 0.5 dx / |v|
        prob = _constant_problem(grid256, tg, 2.0, np.zeros(grid256.N), f0)
        with pytest.raises(ValueError, match="stability"):
            solve_transport(prob, params322)

    def test_linearity_in_data(self, grid256, params322):
        rng = np.random.default_rng(107)
        v = random_field(grid256, rng, k_max=4, amplitude=0.3)
        tg = make_time_grid(0.5, 5e-3)
        n = tg.size
        vmat = np.tile(v.samples, (n, 1))
        f0, g0 = random_field(grid256, rng), random_field(grid256, rng)
        zero = np.zeros((n, grid256.N))

        def run(init):
            prob = TransportProblem.build(grid256, tg, vmat, zero, init)
            return solve_transport(prob, params322).states[-1]

        combined = run(GridFunction.from_samples(grid256, f0.samples + 2.0 * g0.samples))
        assert np.max(np.abs(combined - (run(f0) + 2.0 * run(g0)))) <= 1e-10

    def test_mean_conserved_without_forcing(self, grid256, params322):
        # d/dt mean(f) = -mean(v f_x) vanishes only for divergence-free v in
        # 1d, i.e. constants; use one to check the conservative bookkeeping.
        rng = np.random.default_rng(109)
        f0 = random_field(grid256, rng)
        tg = make_time_grid(1.0, 5e-3)
        prob = _constant_problem(grid256, tg, 0.4, np.zeros(grid256.N), f0)
        traj = solve_transport(prob, params322)
        final = GridFunction.from_samples(grid256, traj.states[-1])
        assert final.mean() == pytest.approx(f0.mean(), abs=1e-12)

    def test_fourth_order_convergence(self, params322):
        grid = make_grid(64, 1.0)
        v = GridFunction.from_samples(grid, 0.3 * np.sin(grid.x))
        f0 = GridFunction.from_samples(grid, np.cos(2 * grid.x))
        F = 0.1 * np.cos(3 * grid.x)

        def err(dt):
            tg = make_time_grid(0.5, dt)
            n = tg.size
            prob = TransportProblem.build(
                grid, tg, np.tile(v.samples, (n, 1)), np.tile(F, (n, 1)), f0
            )
            return solve_transport(prob, params322).states[-1]

        ref = err(0.5 / 4096)
        e1 = np.max(np.abs(err(0.02) - ref))
        e2 = np.max(np.abs(err(0.01) - ref))
        assert e1 / e2 >= 12.0  # fourth order would give 16


class TestEstimate:
    def test_zero_velocity_holds_at_C_one(self, grid256, params322):
        rng = np.random.default_rng(113)
        f0 = random_field(grid256, rng)
        F = random_field(grid256, rng, amplitude=0.5)
        tg = make_time_grid(1.0, 0.01)
        prob = _constant_problem(grid256, tg, 0.0, F.samples, f0)
        traj = solve_transport(prob, params322)
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
        prob = _constant_problem(grid256, tg, 0.0, F.samples, zero)
        traj = solve_transport(prob, params322)
        report = verify_transport_estimate(traj, params322, C=1.0)
        ratios = report.lhs[1:] / report.rhs[1:]
        assert np.max(np.abs(ratios - 1.0)) <= 1e-10

    def test_params_mismatch_rejected(self, grid256, params322):
        rng = np.random.default_rng(131)
        f0 = random_field(grid256, rng)
        tg = make_time_grid(0.5, 0.01)
        prob = _constant_problem(grid256, tg, 0.0, np.zeros(grid256.N), f0)
        traj = solve_transport(prob, params322)
        with pytest.raises(ValueError):
            verify_transport_estimate(traj, BesovParams(3.5, 2.0, 2.0), C=1.0)

    def test_r_infinite_rejected(self, grid256):
        rng = np.random.default_rng(137)
        f0 = random_field(grid256, rng)
        tg = make_time_grid(0.5, 0.01)
        prob = _constant_problem(grid256, tg, 0.0, np.zeros(grid256.N), f0)
        params = BesovParams(3.0, 2.0, np.inf)
        traj = solve_transport(prob, params)
        with pytest.raises(ValueError):
            verify_transport_estimate(traj, params, C=1.0)

    def test_nonpositive_C_rejected(self, grid256, params322):
        rng = np.random.default_rng(139)
        f0 = random_field(grid256, rng)
        tg = make_time_grid(0.5, 0.01)
        prob = _constant_problem(grid256, tg, 0.0, np.zeros(grid256.N), f0)
        traj = solve_transport(prob, params322)
        with pytest.raises(ValueError):
            verify_transport_estimate(traj, params322, C=0.0)


class TestFitConstant:
    def test_velocity_free_family_needs_tiny_C(self, grid256, params322):
        # With v = 0 the estimate holds for any C > 0, so the fit should
        # return essentially the bisection floor.
        rng = np.random.default_rng(149)
        tg = make_time_grid(0.5, 0.01)
        probs = [
            _constant_problem(
                grid256, tg, 0.0, random_field(grid256, rng, amplitude=0.5).samples,
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
            traj = solve_transport(prob, params322)
            report = verify_transport_estimate(traj, params322, C=2.0 * C)
            assert bool(np.all(report.holds))

    def test_empty_family_rejected(self, params322):
        with pytest.raises(ValueError):
            fit_transport_constant([], params322)
