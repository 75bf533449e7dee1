import numpy as np
import pytest

from fwlab import (
    FWState,
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
import fwlab.fw
from fwlab.fw import LIFESPAN_CAP
from fwlab.besov import BesovParams, besov_norms_batch
from fwlab.transport import BlowUpError, solve_transport

from conftest import random_field


def _gf(grid, values):
    return GridFunction.from_samples(grid, np.broadcast_to(values, (grid.N,)).copy())


class TestRhs:
    def test_constants_are_steady(self, grid256):
        state = FWState(u=_gf(grid256, 1.3), rho=_gf(grid256, -0.4))
        du, drho = fw_rhs(state)
        assert np.max(np.abs(du.samples)) <= 1e-13
        assert np.max(np.abs(drho.samples)) <= 1e-13

    def test_zero_u_sine_rho(self):
        # With u = 0 only the nonlocal coupling acts: du = (1/2) cos, drho = 0.
        grid = make_grid(256, 1.0)
        state = FWState(u=_gf(grid, 0.0), rho=GridFunction.from_samples(grid, np.sin(grid.x)))
        du, drho = fw_rhs(state)
        assert np.max(np.abs(du.samples - 0.5 * np.cos(grid.x))) <= 1e-12
        assert np.max(np.abs(drho.samples)) <= 1e-13

    def test_sine_u_zero_rho(self):
        grid = make_grid(256, 1.0)
        state = FWState(u=GridFunction.from_samples(grid, np.sin(grid.x)), rho=_gf(grid, 0.0))
        du, drho = fw_rhs(state)
        expected_du = -np.sin(grid.x) * np.cos(grid.x) - 0.5 * np.cos(grid.x)
        assert np.max(np.abs(du.samples - expected_du)) <= 1e-12
        assert np.max(np.abs(drho.samples + np.cos(grid.x))) <= 1e-12

    def test_grid_mismatch_rejected(self, grid256):
        other = make_grid(128, 8.0)
        with pytest.raises(ValueError):
            FWState(u=_gf(grid256, 0.0), rho=_gf(other, 0.0))


def _blowup_data():
    """Sine/cosine data of amplitude 2 on a coarse grid; at dt = 1e-2 the
    direct solve loses finiteness at node 648 (t = 6.48)."""
    grid = make_grid(64, 8.0)
    return (GridFunction.from_samples(grid, 2.0 * np.sin(grid.x)),
            GridFunction.from_samples(grid, 2.0 * np.cos(grid.x)))


class TestDirectSolve:
    def test_frozen_node(self, grid256):
        u0 = GridFunction.from_samples(grid256, 0.1 * np.sin(grid256.x))
        rho0 = GridFunction.from_samples(grid256, 0.1 * np.cos(grid256.x))
        traj = solve_fw_direct(FWState(u=u0, rho=rho0), 1.0, 2e-3)
        assert traj.u[500, 37] == pytest.approx(0.023834874475615296, rel=1e-12)
        assert traj.rho[500, 37] == pytest.approx(-0.0048525736681658055, rel=1e-12)

    def test_blowup_carries_finite_prefix(self):
        u0, rho0 = _blowup_data()
        with pytest.raises(BlowUpError) as info:
            solve_fw_direct(FWState(u=u0, rho=rho0), 20.0, 1e-2)
        exc = info.value
        assert exc.node == 648
        assert exc.t == pytest.approx(6.48, rel=1e-12)
        assert exc.states.shape == (648, 2, 64)
        assert np.all(np.isfinite(exc.states))
        assert np.array_equal(exc.states[0], np.stack([u0.samples, rho0.samples]))

    def test_constant_state_stays_put(self, grid256):
        traj = solve_fw_direct(FWState(u=_gf(grid256, 0.8), rho=_gf(grid256, 0.2)), 1.0, 1e-2)
        assert np.max(np.abs(traj.u - 0.8)) <= 1e-12
        assert np.max(np.abs(traj.rho - 0.2)) <= 1e-12

    def test_means_conserved(self, grid256):
        rng = np.random.default_rng(211)
        u0 = random_field(grid256, rng, k_max=8, amplitude=0.1)
        rho0 = random_field(grid256, rng, k_max=8, amplitude=0.1)
        traj = solve_fw_direct(FWState(u=u0, rho=rho0), 1.0, 1e-3)
        assert np.max(np.abs(traj.mean_u - traj.mean_u[0])) <= 1e-10
        assert np.max(np.abs(traj.mean_rho - traj.mean_rho[0])) <= 1e-10

    def test_step_size_guard(self, grid256):
        u0 = _gf(grid256, 4.0)
        with pytest.raises(ValueError, match="stability"):
            solve_fw_direct(FWState(u=u0, rho=_gf(grid256, 0.0)), 1.0, 0.1)

    def test_fourth_order_in_time(self):
        grid = make_grid(64, 1.0)
        u0 = GridFunction.from_samples(grid, 0.05 * np.sin(grid.x))
        rho0 = GridFunction.from_samples(grid, 0.05 * np.cos(grid.x))
        state = FWState(u=u0, rho=rho0)

        def final(dt):
            traj = solve_fw_direct(state, 0.5, dt)
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
        assert lifespan(0.0, 1.0, cap=5.0) == 5.0

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            lifespan(-1.0, 1.0)
        with pytest.raises(ValueError):
            lifespan(1.0, 0.0)


class TestScheme:
    def test_inadmissible_params_rejected(self):
        with pytest.raises(ValueError):
            SchemeConfig(params=BesovParams(2.4, 2.0, 2.0))

    def test_first_iterate_closed_form(self, grid256, part256, params322):
        # Iterate 0 is the zero pair, so iterate 1 solves a transport problem
        # with zero velocity and zero forcing: it is constant in time, equal
        # to the width-1 mollification of the data.
        u0 = GridFunction.from_samples(grid256, 0.1 * np.sin(grid256.x))
        rho0 = GridFunction.from_samples(grid256, 0.1 * np.cos(grid256.x))
        cfg = SchemeConfig(params=params322, C=1.0, n_max=2, dt=1e-2)
        trace = run_scheme(u0, rho0, cfg, part=part256)
        kern = MollifierKernel(1.0)
        ju = mollify(u0, kern).samples
        jrho = mollify(rho0, kern).samples
        assert np.max(np.abs(trace.u_iterates[1] - ju[None, :])) <= 1e-10
        assert np.max(np.abs(trace.rho_iterates[1] - jrho[None, :])) <= 1e-10

    def test_lifespan_matches_P0(self, grid256, part256, params322):
        u0 = GridFunction.from_samples(grid256, 0.1 * np.sin(grid256.x))
        rho0 = GridFunction.from_samples(grid256, 0.1 * np.cos(grid256.x))
        cfg = SchemeConfig(params=params322, C=1.0, n_max=2, dt=1e-2)
        trace = run_scheme(u0, rho0, cfg, part=part256)
        P0 = besov_norm(part256, u0, params322) + besov_norm(
            part256, rho0, params322.shift(-1.0)
        )
        assert trace.P0 == pytest.approx(P0, rel=1e-13)
        assert trace.T == pytest.approx(3.0 / (16.0 * P0**2), rel=1e-13)

    def test_frozen_d_n(self, grid256, part256, params322):
        u0 = GridFunction.from_samples(grid256, 0.1 * np.sin(grid256.x))
        rho0 = GridFunction.from_samples(grid256, 0.1 * np.cos(grid256.x))
        cfg = SchemeConfig(params=params322, C=1.0, n_max=3, dt=1e-2)
        trace = run_scheme(u0, rho0, cfg, part=part256)
        np.testing.assert_allclose(
            trace.d_n, [0.3601685824450574, 0.6264793811114006, 0.4135604873038824],
            rtol=1e-12, atol=0.0,
        )

    def test_one_transport_solve_per_iterate(self, grid256, part256, params322,
                                             monkeypatch):
        trajectories = []

        def recording(*args, **kwargs):
            trajectories.append(solve_transport(*args, **kwargs))
            return trajectories[-1]

        monkeypatch.setattr(fwlab.fw, "solve_transport", recording)
        u0 = GridFunction.from_samples(grid256, 0.1 * np.sin(grid256.x))
        rho0 = GridFunction.from_samples(grid256, 0.1 * np.cos(grid256.x))
        cfg = SchemeConfig(params=params322, C=1.0, n_max=3, dt=1e-2)
        run_scheme(u0, rho0, cfg, part=part256)
        assert len(trajectories) == cfg.n_max
        # V(t) is computed on first read; the scheme never reads it
        assert all("V_profile" not in vars(t) for t in trajectories)

    def test_contraction_and_direct_agreement(self, grid256, part256, params322):
        u0 = GridFunction.from_samples(grid256, 0.1 * np.sin(grid256.x))
        rho0 = GridFunction.from_samples(grid256, 0.1 * np.cos(grid256.x))
        cfg = SchemeConfig(params=params322, C=1.0, n_max=8, dt=2e-3)
        trace = run_scheme(u0, rho0, cfg, part=part256)
        ratios = trace.d_n[1:] / trace.d_n[:-1]
        assert np.all(ratios[1:] < 1.0)
        assert bool(np.all(trace.bound_313))
        direct = solve_fw_direct(
            FWState(u=u0, rho=rho0), trace.T, float(np.diff(trace.time_grid)[0])
        )
        assert scheme_direct_distance(trace, direct, part=part256) <= 1e-3


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
        calls = []

        def counting(*args, **kwargs):
            calls.append(args)
            return solve_fw_direct(*args, **kwargs)

        monkeypatch.setattr(fwlab.fw, "solve_fw_direct", counting)
        u0, rho0 = _blowup_data()
        cfg = SchemeConfig(params=params322, dt=1e-2)
        got = empirical_lifespan(u0, rho0, cfg, t_cap=20.0)
        assert len(calls) == 1
        assert got == pytest.approx(0.35, rel=1e-12)

    def test_unknown_mode_rejected(self, grid256, params322):
        z = _gf(grid256, 0.0)
        cfg = SchemeConfig(params=params322, dt=1e-2)
        with pytest.raises(ValueError):
            empirical_lifespan(z, z, cfg, t_cap=0.5, mode="magic")


class TestStability:
    def test_zero_perturbation(self, grid256, params322):
        u0 = GridFunction.from_samples(grid256, 0.05 * np.sin(grid256.x))
        rho0 = GridFunction.from_samples(grid256, 0.05 * np.cos(grid256.x))
        z = _gf(grid256, 0.0)
        cfg = SchemeConfig(params=params322, dt=5e-3)
        report = stability_experiment(u0, rho0, z, z, cfg, T=0.5)
        assert report.initial_distance == 0.0
        assert report.bound_holds

    def test_distance_scales_linearly_in_delta(self, grid256, params322):
        u0 = GridFunction.from_samples(grid256, 0.05 * np.sin(grid256.x))
        rho0 = GridFunction.from_samples(grid256, 0.05 * np.cos(grid256.x))
        d1 = GridFunction.from_samples(grid256, 1e-4 * np.sin(2 * grid256.x))
        z = _gf(grid256, 0.0)
        cfg = SchemeConfig(params=params322, dt=5e-3)
        r1 = stability_experiment(u0, rho0, d1, z, cfg, T=0.5)
        r2 = stability_experiment(u0, rho0, 2.0 * d1, z, cfg, T=0.5)
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
