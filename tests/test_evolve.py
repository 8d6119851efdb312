"""Field and density-mode evolution tests."""

import warnings

import numpy as np
import pytest

import rqbm.cli
from rqbm.dispersion import build_polynomial
from rqbm.errors import InputError, NumericalFailureError, UnsupportedError
from rqbm.evolve import (
    DensityModeState,
    EvolutionConfig,
    FieldState,
    branch_amplitudes,
    conservative_mode_frequencies,
    evolve_density,
    evolve_field,
    fit_mode_frequency,
    gaussian_packet,
    particle_branch_project,
    plane_wave,
)
from rqbm.grid import ComplexField, Grid1D
from rqbm.units import (
    collisional,
    conservative,
    dalembert_diffusion,
    phase_diffusion,
    radiative,
)

from _oracles import (
    expm_density_mode,
    mpmath_density_mode,
    point_space_stepper,
    rk4_density_mode,
)


class TestModeFrequencies:
    def test_reference_value_at_k1(self):
        wp, wm = conservative_mode_frequencies(1.0)
        assert wp == pytest.approx(np.sqrt(2.0) - 1.0, rel=1e-15)
        assert wm == pytest.approx(-np.sqrt(2.0) - 1.0, rel=1e-15)

    def test_small_k_form_avoids_cancellation(self):
        # naive sqrt(1+k^2)-1 loses every significant digit at k=1e-8;
        # the rational form keeps full precision
        wp, _ = conservative_mode_frequencies(1e-8)
        assert wp == pytest.approx(0.5e-16, rel=1e-10)

    def test_branch_sum_is_minus_two(self):
        k = np.linspace(0.0, 10.0, 101)
        wp, wm = conservative_mode_frequencies(k)
        np.testing.assert_allclose(wp + wm, -2.0, rtol=0, atol=1e-15)

    def test_array_shape_and_scalar_type(self):
        wp, wm = conservative_mode_frequencies(np.ones((3,)))
        assert wp.shape == (3,) and wm.shape == (3,)
        wps, wms = conservative_mode_frequencies(2.0)
        assert isinstance(wps, float) and isinstance(wms, float)

    def test_rejects_non_finite(self):
        with pytest.raises(InputError):
            conservative_mode_frequencies(np.inf)
        with pytest.raises(InputError):
            conservative_mode_frequencies([0.0, np.nan])


class TestStatesAndConfig:
    def test_field_state_requires_matching_grids(self):
        g1 = Grid1D(16, 10.0)
        g2 = Grid1D(32, 10.0)
        a = ComplexField(g1, np.ones(16, dtype=complex))
        b = ComplexField(g2, np.ones(32, dtype=complex))
        with pytest.raises(InputError):
            FieldState(a, b, 0.0)
        st = FieldState(a, ComplexField(g1, np.zeros(16, dtype=complex)), 1.5)
        assert st.grid is g1 and st.t == 1.5

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(dt=0.0, steps=10),
            dict(dt=-0.1, steps=10),
            dict(dt=np.inf, steps=10),
            dict(dt=0.1, steps=0),
            dict(dt=0.1, steps=2.5),
            dict(dt=0.1, steps=10, method="rk4"),
            dict(dt=0.1, steps=10, snapshot_stride=0),
            dict(dt=0.1, steps=10, snapshot_stride=3),
            dict(dt=0.1, steps=True),  # a bool is not an integer here, as in Grid1D
            dict(dt=0.1, steps=2, snapshot_stride=True),
        ],
    )
    def test_config_rejects_bad_values(self, kwargs):
        with pytest.raises(InputError):
            EvolutionConfig(**kwargs)

    def test_config_accepts_numpy_ints(self):
        cfg = EvolutionConfig(dt=0.1, steps=np.int64(10), snapshot_stride=np.int64(5))
        assert cfg.steps == 10


class TestInitialConditions:
    def test_gaussian_packet_unit_norm(self):
        g = Grid1D(256, 200.0)
        psi = gaussian_packet(g, sigma=5.0, kbar=0.3)
        assert g.integrate(np.abs(psi.values) ** 2) == pytest.approx(1.0, rel=1e-12)

    def test_gaussian_packet_warns_when_box_too_small(self):
        g = Grid1D(64, 10.0)
        with pytest.warns(RuntimeWarning, match="clearance"):
            gaussian_packet(g, sigma=1.0, kbar=0.0)

    def test_gaussian_packet_rejects_bad_params(self):
        g = Grid1D(64, 100.0)
        with pytest.raises(InputError):
            gaussian_packet(g, sigma=-1.0, kbar=0.0)
        with pytest.raises(InputError):
            gaussian_packet(g, sigma=1.0, kbar=np.nan)

    def test_plane_wave_requires_grid_mode(self):
        g = Grid1D(64, 2.0 * np.pi)
        psi = plane_wave(g, 3.0, amplitude=2.0j)
        np.testing.assert_allclose(psi.values, 2.0j * np.exp(3j * g.x), atol=1e-14)
        with pytest.raises(InputError):
            plane_wave(g, 3.01)

    def test_plane_wave_rejects_out_of_band_mode(self):
        g = Grid1D(16, 2.0 * np.pi)
        with pytest.raises(InputError):
            plane_wave(g, 8.0)  # index n//2 is the ambiguous Nyquist mode
        plane_wave(g, 7.0)  # highest clean mode is fine

    def test_particle_branch_projection_is_pure(self):
        g = Grid1D(128, 100.0)
        psi = gaussian_packet(g, sigma=4.0, kbar=0.5)
        state = particle_branch_project(psi)
        a_plus, a_minus = branch_amplitudes(state)
        assert np.max(np.abs(a_minus)) < 1e-14 * np.max(np.abs(a_plus))

    def test_branch_amplitudes_identify_antiparticle_branch(self):
        g = Grid1D(64, 8.0 * np.pi)
        psi = plane_wave(g, 1.0)
        _, wm = conservative_mode_frequencies(1.0)
        state = FieldState(psi, ComplexField(g, -1j * wm * psi.values), 0.0)
        a_plus, a_minus = branch_amplitudes(state)
        assert np.max(np.abs(a_plus)) < 1e-13 * np.max(np.abs(a_minus))


class TestExactModeEvolution:
    def test_plane_wave_matches_analytic_phase(self):
        g = Grid1D(64, 8.0 * np.pi)
        k = 1.0
        state = particle_branch_project(plane_wave(g, k))
        cfg = EvolutionConfig(dt=0.25, steps=40, snapshot_stride=10)
        snaps = [s for s, _, _ in evolve_field(state, cfg)]
        wp, _ = conservative_mode_frequencies(k)
        assert len(snaps) == 5
        for s in snaps:
            expect = np.exp(1j * (k * g.x - wp * s.t))
            np.testing.assert_allclose(s.psi.values, expect, atol=1e-12)
            np.testing.assert_allclose(s.dpsi_dt.values, -1j * wp * expect, atol=1e-12)

    def test_snapshot_times_and_count(self):
        g = Grid1D(32, 10.0)
        state = particle_branch_project(gaussian_packet(g, sigma=0.8, kbar=0.0))
        snaps = [s for s, _, _ in evolve_field(state, EvolutionConfig(dt=0.5, steps=6,
                                                                      snapshot_stride=2))]
        assert [s.t for s in snaps] == [0.0, 1.0, 2.0, 3.0]

    def test_windows_bracket_each_snapshot(self):
        g = Grid1D(64, 8.0 * np.pi)
        k = 1.0
        state = particle_branch_project(plane_wave(g, k))
        cfg = EvolutionConfig(dt=0.2, steps=10, snapshot_stride=5)
        windows = list(evolve_field(state, cfg))
        wp, _ = conservative_mode_frequencies(k)
        assert len(windows) == 3
        for s, before, after in windows:
            np.testing.assert_allclose(
                before, np.exp(1j * (k * g.x - wp * (s.t - cfg.dt))), atol=1e-12
            )
            np.testing.assert_allclose(
                after, np.exp(1j * (k * g.x - wp * (s.t + cfg.dt))), atol=1e-12
            )

    def test_stride_1_levels_equal_stride_5_levels_bit_for_bit(self):
        # at stride 1 a window reuses its neighbour's phase factors; at
        # stride 5 every level computes its own from the same integer m
        g = Grid1D(128, 60.0)
        state = particle_branch_project(gaussian_packet(g, sigma=4.0, kbar=0.5))
        every = list(evolve_field(state, EvolutionConfig(dt=0.04, steps=20)))
        fifth = list(evolve_field(state, EvolutionConfig(dt=0.04, steps=20,
                                                         snapshot_stride=5)))
        assert len(fifth) == 5
        for (s, before, after), (s1, before1, after1) in zip(fifth, every[::5]):
            assert s.t == s1.t
            np.testing.assert_array_equal(s.psi.values, s1.psi.values)
            np.testing.assert_array_equal(s.dpsi_dt.values, s1.dpsi_dt.values)
            np.testing.assert_array_equal(before, before1)
            np.testing.assert_array_equal(after, after1)

    def test_rejects_nonzero_potential(self):
        g = Grid1D(32, 10.0)
        state = particle_branch_project(gaussian_packet(g, sigma=0.8, kbar=0.0))
        cfg = EvolutionConfig(dt=0.1, steps=2)
        with pytest.raises(UnsupportedError):
            evolve_field(state, cfg, potential=np.ones(g.n))
        # an identically zero potential is the free problem
        windows = list(evolve_field(state, cfg, potential=np.zeros(g.n)))
        assert len(windows) == 3

    def test_potential_validation(self):
        g = Grid1D(32, 10.0)
        state = particle_branch_project(gaussian_packet(g, sigma=0.8, kbar=0.0))
        cfg = EvolutionConfig(dt=0.1, steps=2)
        with pytest.raises(InputError):
            evolve_field(state, cfg, potential=np.ones(g.n + 1))
        with pytest.raises(InputError):
            evolve_field(state, cfg, potential=np.full(g.n, np.nan))


class TestStepperEvolution:
    def test_light_cone_limit_enforced(self):
        g = Grid1D(64, 8.0 * np.pi)  # dx ~ 0.39
        state = particle_branch_project(plane_wave(g, 1.0))
        with pytest.raises(InputError, match="light-cone"):
            evolve_field(state, EvolutionConfig(dt=0.3, steps=2, method="stepper"))

    def test_oscillation_limit_enforced(self):
        g = Grid1D(16, 32.0)  # dx = 2, so 0.1 <= dt < 1 trips only the second check
        state = particle_branch_project(plane_wave(g, 2.0 * np.pi / 32.0))
        with pytest.raises(InputError, match="oscillation"):
            evolve_field(state, EvolutionConfig(dt=0.15, steps=2, method="stepper"))

    def test_stepper_tracks_exact_solution(self):
        g = Grid1D(64, 8.0 * np.pi)
        k = 1.0
        state = particle_branch_project(plane_wave(g, k))
        cfg = EvolutionConfig(dt=0.01, steps=200, method="stepper", snapshot_stride=200)
        final = list(evolve_field(state, cfg))[-1][0]
        wp, _ = conservative_mode_frequencies(k)
        expect = np.exp(1j * (k * g.x - wp * final.t))
        assert np.max(np.abs(final.psi.values - expect)) < 1e-4

    def test_stepper_triples_are_consistent_three_level_stencils(self):
        g = Grid1D(64, 8.0 * np.pi)
        state = particle_branch_project(gaussian_packet(g, sigma=2.0, kbar=0.4))
        cfg = EvolutionConfig(dt=0.02, steps=20, method="stepper", snapshot_stride=10)
        for s, before, after in evolve_field(state, cfg):
            np.testing.assert_allclose(
                s.dpsi_dt.values, (after - before) / (2.0 * cfg.dt), atol=1e-13
            )

    def test_potential_shifts_phase(self):
        # constant U adds exp(-i U t) on the slow branch to leading order;
        # just check the run differs from the free one and stays bounded
        g = Grid1D(64, 8.0 * np.pi)
        state = particle_branch_project(plane_wave(g, 1.0))
        cfg = EvolutionConfig(dt=0.02, steps=100, method="stepper", snapshot_stride=100)
        free = list(evolve_field(state, cfg))[-1][0]
        held = list(evolve_field(state, cfg, potential=np.full(g.n, 0.05)))[-1][0]
        diff = np.max(np.abs(free.psi.values - held.psi.values))
        assert 1e-3 < diff < 1.0
        assert np.max(np.abs(held.psi.values)) < 2.0

    @pytest.mark.parametrize("potential,stride,n_fft,n_ifft", [
        # two forward transforms of the initial state; per snapshot an inverse
        # one for each of the three levels, except the t = 0 centre, the input
        (None, 1000, 2, 5),
        # each level is inverse-transformed once, however many windows hold it
        (None, 1, 2, 1002),
        # a potential adds fft(U psi) on every step and needs every level in
        # point space: two transforms a step at any stride
        ("harmonic", 1, 1003, 1002),
        ("harmonic", 1000, 1003, 1002),
    ])
    def test_transform_count(self, potential, stride, n_fft, n_ifft, monkeypatch):
        g = Grid1D(128, 32.0)
        u = None if potential is None else 0.5 * 0.05**2 * g.x**2
        state = particle_branch_project(gaussian_packet(g, sigma=2.0, kbar=0.4))
        calls = []

        def counted(transform):
            def call(*args, **kwargs):
                calls.append(transform.__name__)
                return transform(*args, **kwargs)
            return call

        monkeypatch.setattr(np.fft, "fft", counted(np.fft.fft))
        monkeypatch.setattr(np.fft, "ifft", counted(np.fft.ifft))
        cfg = EvolutionConfig(dt=0.02, steps=1000, method="stepper", snapshot_stride=stride)
        windows = list(evolve_field(state, cfg, potential=u))
        assert len(windows) == 1000 // stride + 1
        assert (calls.count("fft"), calls.count("ifft")) == (n_fft, n_ifft)

    @pytest.mark.parametrize("potential", [None, "constant", "harmonic"])
    def test_matches_point_space_recurrence(self, potential):
        g = Grid1D(128, 32.0)
        u = {None: None, "constant": np.full(g.n, 0.05),
             "harmonic": 0.5 * 0.05**2 * g.x**2}[potential]
        state = particle_branch_project(gaussian_packet(g, sigma=2.0, kbar=0.4))
        cfg = EvolutionConfig(dt=0.02, steps=400, method="stepper", snapshot_stride=100)
        windows = list(evolve_field(state, cfg, potential=u))
        ref = point_space_stepper(state.psi.values, state.dpsi_dt.values, g.wavenumbers,
                                  cfg.dt, cfg.steps, cfg.snapshot_stride, u)
        assert len(ref) == len(windows)
        peak = np.max(np.abs(state.psi.values))
        for (s, before, after), (r_prev, r_cur, r_next) in zip(windows, ref):
            for got, want in ((s.psi.values, r_cur), (before, r_prev), (after, r_next)):
                assert np.max(np.abs(got - want)) <= 1e-12 * peak

    @pytest.mark.parametrize("n,length,dt", [(64, 8.0 * np.pi, 0.02), (1024, 200.0, 0.05)])
    def test_rounding_no_worse_than_point_space(self, n, length, dt):
        if np.finfo(np.longdouble).eps == np.finfo(float).eps:
            pytest.skip("long double is double here; no wider reference")
        g = Grid1D(n, length)
        state = particle_branch_project(gaussian_packet(g, sigma=length / 24, kbar=0.5))
        psi0, phi0 = state.psi.values, state.dpsi_dt.values
        steps = 2000
        exact = point_space_stepper(psi0.astype(np.clongdouble), phi0.astype(np.clongdouble),
                                    g.wavenumbers.astype(np.longdouble), np.longdouble(dt),
                                    steps, steps)[-1][1]
        point = point_space_stepper(psi0, phi0, g.wavenumbers, dt, steps, steps)[-1][1]
        cfg = EvolutionConfig(dt=dt, steps=steps, method="stepper", snapshot_stride=steps)
        mode = list(evolve_field(state, cfg))[-1][0].psi.values
        peak = np.max(np.abs(exact))
        err_point = float(np.max(np.abs(point - exact)) / peak)
        err_mode = float(np.max(np.abs(mode - exact)) / peak)
        assert err_mode <= 2.0 * err_point, (err_mode, err_point)

    @pytest.mark.parametrize("constant_u", [0.0, 0.05])
    def test_initial_snapshot_is_a_copy_of_the_input(self, constant_u):
        g = Grid1D(64, 16.0)
        state = particle_branch_project(gaussian_packet(g, sigma=1.0, kbar=0.3))
        cfg = EvolutionConfig(dt=0.02, steps=10, method="stepper", snapshot_stride=5)
        first, _, _ = next(evolve_field(state, cfg, potential=np.full(g.n, constant_u)))
        assert first.t == state.t
        assert np.array_equal(first.psi.values, state.psi.values)
        assert not np.shares_memory(first.psi.values, state.psi.values)


class TestDensityModeState:
    def test_scalar_inputs_are_promoted(self):
        st = DensityModeState(k=0.5, derivs=np.array([1.0, 0.0, 0.0, 0.0]))
        assert st.k.shape == (1,) and st.derivs.shape == (1, 4)
        assert st.rho[0] == 1.0

    @pytest.mark.parametrize(
        "k,derivs",
        [
            (0.5, np.ones(3)),
            (0.5, np.ones((2, 4))),
            (-0.5, np.ones(4)),
            (np.nan, np.ones(4)),
            (0.5, np.array([1.0, np.inf, 0.0, 0.0])),
        ],
    )
    def test_rejects_malformed_input(self, k, derivs):
        with pytest.raises(InputError):
            DensityModeState(k=k, derivs=derivs)


class TestDensityEvolution:
    def test_conservative_model_is_rejected(self):
        st = DensityModeState(k=1.0, derivs=np.array([1.0, 0.0, 0.0, 0.0]))
        with pytest.raises(InputError):
            evolve_density(conservative(), st, 1.0)
        with pytest.raises(InputError):
            evolve_density(collisional(1.0), st, np.inf)

    def test_matches_rk4_oracle(self):
        params = collisional(1.0)
        y0 = np.array([1.0, 0.2 - 0.1j, -0.3, 0.05j])
        st = DensityModeState(k=0.7, derivs=y0)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            out = evolve_density(params, st, 2.0)
        ref = rk4_density_mode(params, 0.7, y0, 2.0, dt=0.0005)
        np.testing.assert_allclose(out.derivs[0], ref, rtol=1e-9, atol=1e-12)

    @pytest.mark.parametrize(
        "params",
        [
            radiative(1.0),
            phase_diffusion(1.0),
            dalembert_diffusion(0.3),
        ],
    )
    def test_matches_rk4_oracle_all_models(self, params):
        y0 = np.array([1.0, 0.0, -0.5, 0.1])
        st = DensityModeState(k=0.4, derivs=y0)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            out = evolve_density(params, st, 1.5)
        ref = rk4_density_mode(params, 0.4, y0, 1.5, dt=0.0005)
        np.testing.assert_allclose(out.derivs[0], ref, rtol=1e-8, atol=1e-12)

    def test_semigroup_property(self):
        params = phase_diffusion(0.8)
        st = DensityModeState(
            k=np.array([0.3, 1.2]),
            derivs=np.array([[1.0, 0.1, 0.0, 0.0], [0.5j, 0.0, 0.2, 0.0]]),
        )
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            once = evolve_density(params, st, 5.0)
            twice = evolve_density(params, evolve_density(params, st, 2.0), 3.0)
        np.testing.assert_allclose(twice.derivs, once.derivs, rtol=1e-10, atol=1e-12)
        assert twice.t == pytest.approx(once.t)

    def test_growing_modes_warn(self):
        st = DensityModeState(k=0.0, derivs=np.array([1.0, 0.0, 0.0, 0.0]))
        with pytest.warns(RuntimeWarning, match="growing"):
            evolve_density(radiative(1.0), st, 0.1)

    def test_fully_damped_model_does_not_warn(self):
        st = DensityModeState(k=0.5, derivs=np.array([1.0, 0.0, 0.0, 0.0]))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            out = evolve_density(dalembert_diffusion(1.0), st, 3.0)
        assert abs(out.rho[0]) < 1.0

    def test_overflow_raises_numerical_failure(self):
        st = DensityModeState(k=0.0, derivs=np.array([1.0, 0.0, 0.0, 0.0]))
        with pytest.warns(RuntimeWarning, match="growing"):
            with pytest.raises(NumericalFailureError):
                with np.errstate(over="ignore", invalid="ignore"):
                    evolve_density(radiative(100.0), st, 10.0)


#: Phase diffusion at k = 0.1 has its hydrodynamic pair coalesce at this D;
#: above it the pair splits along the imaginary axis by ~0.0141 sqrt(D - D_c),
#: so the offsets below walk the root separation from 1e-2 down to 1e-9.
PD_COALESCENCE_D = 1.0024999844531016
COALESCENCE_CASES = [
    pytest.param(phase_diffusion(PD_COALESCENCE_D + dd), 0.1, id=f"phase-Dc+{dd:g}")
    for dd in (0.5, 0.05, 1e-4, 1e-6, 1e-8, 1e-10, 1e-12, 1e-14)
] + [pytest.param(dalembert_diffusion(1.0), 0.3, id="dalembert-double")]


def _min_root_separation(params, k):
    r = np.roots(build_polynomial(params, k).coefficients[::-1])
    return min(abs(a - b) for i, a in enumerate(r) for b in r[i + 1:])


class TestDensityPropagatorBatch:
    def test_coalescence_sweep_spans_the_separations(self):
        seps = [_min_root_separation(*case.values) for case in COALESCENCE_CASES[:-1]]
        assert seps == sorted(seps, reverse=True)
        assert seps[0] >= 1e-2 and seps[-1] <= 2e-9

    @pytest.mark.parametrize("params,k", COALESCENCE_CASES)
    def test_exact_through_root_coalescence(self, params, k):
        y0 = np.array([1.0, 0.2 - 0.1j, -0.3, 0.05j])
        st = DensityModeState(k=k, derivs=y0)
        for t in (0.5, 5.0, 50.0):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RuntimeWarning)
                got = evolve_density(params, st, t).derivs[0]
            ref = expm_density_mode(params, k, y0, t)
            rel = np.max(np.abs(got - ref)) / np.max(np.abs(ref))
            assert rel <= 1e-12, f"t={t}: {rel:.2e} from expm"

    @pytest.mark.parametrize("params", [
        collisional(1.0), radiative(0.3), phase_diffusion(2.0), dalembert_diffusion(1.0),
    ])
    def test_array_of_times_matches_scalar_calls(self, params):
        st = DensityModeState(
            k=np.array([0.05, 0.4, 1.5]),
            derivs=np.array([[1.0, 0.0, 0.0, 0.0], [0.5j, 0.1, -0.2, 0.0],
                             [1.0, 0.2 - 0.1j, -0.3, 0.05j]]),
        )
        times = np.concatenate([[0.0], np.geomspace(1e-3, 20.0, 30), [-1.5]])
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            batch = evolve_density(params, st, times)
            assert isinstance(batch, list) and len(batch) == len(times)
            for t, got in zip(times, batch):
                one = evolve_density(params, st, t)
                assert got.t == one.t == st.t + t
                np.testing.assert_array_equal(got.k, st.k)
                scale = np.max(np.abs(one.derivs), axis=1, keepdims=True)
                assert np.all(np.abs(got.derivs - one.derivs) <= 1e-14 * scale)
        assert np.array_equal(batch[0].derivs, st.derivs)

    def test_rejects_times_of_higher_rank(self):
        st = DensityModeState(k=0.5, derivs=np.array([1.0, 0.0, 0.0, 0.0]))
        with pytest.raises(InputError):
            evolve_density(collisional(1.0), st, np.ones((2, 2)))

    def test_density_cli_solves_once_per_run(self, tmp_path, monkeypatch):
        calls = []

        def counted(params, init, t):
            calls.append(np.shape(t))
            return evolve_density(params, init, t)

        monkeypatch.setattr(rqbm.cli, "evolve_density", counted)
        argv = ["evolve", "--density", "--model", "collisional", "--gamma", "1",
                "--k", "0.3", "--dt", "0.01", "--steps", "400", "--snapshot-stride", "2"]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            assert rqbm.cli.main(argv + ["--out", str(tmp_path / "run")]) == 0
        assert calls == [(201,)]


@pytest.mark.parametrize("params", [
    collisional(1.0), radiative(1.0), phase_diffusion(1.0), dalembert_diffusion(1.0),
], ids=lambda p: p.model.value)
def test_density_is_exact_at_large_k(params):
    # the companion's last row grows like k^4; unbalanced, its squarings
    # cost up to 7e-5 of rho at k = 40
    pytest.importorskip("mpmath")
    y0 = np.array([1.0, 0.0, 0.0, 0.0])
    for k in (0.1, 1.0, 3.0, 10.0, 40.0):
        for t in (1.0, 5.0):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RuntimeWarning)
                got = evolve_density(params, DensityModeState(k=k, derivs=y0), t).rho[0]
            ref = mpmath_density_mode(params, k, y0, t)[0]
            assert abs(got - ref) <= 2e-12 * abs(ref), f"k={k}, t={t}"


class TestFrequencyFit:
    def test_recovers_complex_frequency(self):
        omega = 0.37 - 0.021j
        t = np.linspace(0.0, 40.0, 81)
        v = (1.3 - 0.4j) * np.exp(-1j * omega * t)
        fit = fit_mode_frequency(t, v)
        assert fit.omega == pytest.approx(omega, abs=1e-12)
        assert fit.amplitude == pytest.approx(1.3 - 0.4j, rel=1e-12)
        assert fit.residual < 1e-12
        assert not fit.poor_fit

    def test_flags_two_mode_mixture(self):
        t = np.linspace(0.0, 40.0, 81)
        v = np.exp(-0.4j * t) + 0.3 * np.exp(1.1j * t)
        fit = fit_mode_frequency(t, v)
        assert fit.poor_fit

    @pytest.mark.parametrize(
        "t,v",
        [
            ([0.0, 1.0, 2.0], [1.0, 1.0, 1.0]),
            ([0.0, 1.0, 2.0, 3.5], [1.0, 1.0, 1.0, 1.0]),
            ([0.0, 1.0, 2.0, 1.5], [1.0, 1.0, 1.0, 1.0]),
            ([0.0, 1.0, 2.0, 3.0], [1.0, 0.0, 1.0, 1.0]),
        ],
    )
    def test_rejects_bad_series(self, t, v):
        with pytest.raises(InputError):
            fit_mode_frequency(t, v)
