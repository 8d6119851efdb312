"""Fluid decomposition, quantum potential, residuals, conserved charges."""

import numpy as np
import pytest

from rqbm.dispersion import build_polynomial, solve_roots
from rqbm.errors import InputError
from rqbm.evolve import (
    EXACT_MODE,
    STEPPER,
    EvolutionConfig,
    conservative_mode_frequencies,
    evolve_field,
    gaussian_packet,
    particle_branch_project,
    plane_wave,
)
from rqbm.grid import ComplexField, Grid1D
from rqbm.madelung import (
    FLOOR,
    MadelungFields,
    conserved_charges,
    decompose,
    quantum_potential,
    quantum_potential_static,
    reconstruct,
    residuals,
)
from rqbm.units import (
    collisional,
    conservative,
    dalembert_diffusion,
    phase_diffusion,
    radiative,
)

from _oracles import gaussian_quantum_potential


def _gaussian_field(grid: Grid1D, sigma: float, kbar: float = 0.0) -> ComplexField:
    x = grid.x
    return ComplexField(grid, np.exp(-(x * x) / (4.0 * sigma * sigma) + 1j * kbar * x))


class TestDecompose:
    def test_density_is_modulus_squared(self):
        g = Grid1D(128, 40.0)
        psi = _gaussian_field(g, 2.0, kbar=0.5)
        f = decompose(psi, t=1.5)
        np.testing.assert_allclose(f.rho, np.abs(psi.values) ** 2, rtol=1e-14)
        assert f.t == 1.5
        assert not f.masked.any()

    def test_reconstruction_round_trip(self):
        g = Grid1D(128, 40.0)
        psi = _gaussian_field(g, 2.0, kbar=0.7)
        back = reconstruct(decompose(psi))
        np.testing.assert_allclose(back.values, psi.values, atol=1e-14)

    def test_plane_wave_phase_is_unwrapped(self):
        g = Grid1D(64, 8.0 * np.pi)
        k = 1.5  # winds 12 times around the box: raw angle jumps everywhere
        f = decompose(plane_wave(g, k))
        np.testing.assert_allclose(np.diff(f.S) / g.dx, k, rtol=1e-9)

    def test_node_points_are_masked_and_phase_extended(self):
        g = Grid1D(64, 10.0)
        v = np.exp(1j * 0.3 * np.ones(g.n))
        v[10:13] = 0.0
        f = decompose(ComplexField(g, v))
        assert f.masked[10:13].all() and f.masked.sum() == 3
        np.testing.assert_allclose(f.S, 0.3, atol=1e-12)  # extended from neighbors

    def test_zero_field_rejected(self):
        g = Grid1D(32, 10.0)
        with pytest.raises(InputError):
            decompose(ComplexField(g, np.zeros(g.n, dtype=complex)))

    @pytest.mark.parametrize("prior", [None, "zero"])
    def test_overflowing_density_rejected(self, prior):
        # |psi| = 1e200 is finite, |psi|^2 is not
        g = Grid1D(32, 10.0)
        psi = ComplexField(g, np.full(g.n, 1e200, dtype=complex))
        with pytest.raises(InputError, match="finite"), np.errstate(over="ignore"):
            decompose(psi, prior_S=None if prior is None else np.zeros(g.n))

    def test_prior_fixes_branch_of_two_pi(self):
        g = Grid1D(64, 20.0)
        psi = _gaussian_field(g, 2.0)
        base = decompose(psi)
        shifted = decompose(psi, prior_S=base.S - 6.0 * np.pi)
        np.testing.assert_allclose(shifted.S, base.S - 6.0 * np.pi, atol=1e-12)
        with pytest.raises(InputError):
            decompose(psi, prior_S=np.zeros(g.n + 1))

    def test_fields_validation(self):
        g = Grid1D(16, 10.0)
        ones = np.ones(g.n)
        with pytest.raises(InputError):
            MadelungFields(grid=g, rho=np.ones(g.n + 1), S=ones)
        with pytest.raises(InputError):
            MadelungFields(grid=g, rho=-ones, S=ones)
        with pytest.raises(InputError):
            MadelungFields(grid=g, rho=ones, S=np.full(g.n, np.nan))


class TestQuantumPotential:
    def test_static_gaussian_closed_form(self):
        sigma = 1.5
        g = Grid1D(512, 40.0)
        rho = np.exp(-g.x**2 / (2.0 * sigma**2))
        q = quantum_potential_static(g, rho)
        core = np.abs(g.x) <= 6.0 * sigma
        np.testing.assert_allclose(
            q[core], gaussian_quantum_potential(g.x[core], sigma), atol=1e-8
        )

    def test_static_is_scale_invariant(self):
        g = Grid1D(256, 20.0)
        rho = np.exp(-g.x**2 / 3.0)
        core = np.abs(g.x) <= 5.0  # tails are spectral-noise dominated
        np.testing.assert_allclose(
            quantum_potential_static(g, 1e6 * rho)[core],
            quantum_potential_static(g, rho)[core],
            rtol=1e-9,
        )

    def test_static_nan_below_floor(self):
        g = Grid1D(64, 10.0)
        rho = np.ones(g.n)
        rho[5] = 0.0
        q = quantum_potential_static(g, rho)
        assert np.isnan(q[5]) and np.isfinite(np.delete(q, 5)).all()

    def test_static_validation(self):
        g = Grid1D(32, 10.0)
        with pytest.raises(InputError):
            quantum_potential_static(g, np.ones(g.n + 1))
        with pytest.raises(InputError):
            quantum_potential_static(g, -np.ones(g.n))

    def test_time_term_from_three_levels(self):
        # rho = exp(-2t) g(x)^2 makes d2_t sqrt(rho) = sqrt(rho), shifting the
        # static answer by exactly +1/2
        sigma = 1.2
        g = Grid1D(512, 24.0)
        gau = np.exp(-g.x**2 / (4.0 * sigma**2))
        dt = 1e-3
        levels = [np.exp(-2.0 * s * dt) * gau**2 for s in (-1.0, 0.0, 1.0)]
        q = quantum_potential(g, levels, dt)
        core = np.abs(g.x) <= 5.0 * sigma
        np.testing.assert_allclose(
            q[core], 0.5 + gaussian_quantum_potential(g.x[core], sigma), atol=1e-6
        )

    def test_three_level_validation(self):
        g = Grid1D(32, 10.0)
        r = np.ones(g.n)
        with pytest.raises(InputError):
            quantum_potential(g, (r, r), 0.1)
        with pytest.raises(InputError):
            quantum_potential(g, (r, r, r), 0.0)
        with pytest.raises(InputError):
            quantum_potential(g, (r, r, np.ones(g.n + 1)), 0.1)
        with pytest.raises(InputError):
            quantum_potential(g, (r, -r, r), 0.1)


def _plane_wave_history(g: Grid1D, k: float, dt: float, t0: float = 0.0):
    """Three analytic fluid levels of the slow-branch plane wave."""
    wp, _ = conservative_mode_frequencies(k)
    rho = np.ones(g.n)
    out = []
    for s in (-1.0, 0.0, 1.0):
        t = t0 + s * dt
        out.append(MadelungFields(grid=g, rho=rho, S=k * g.x - wp * t, t=t))
    return out


class TestConservedCharges:
    def test_plane_wave_values(self):
        g = Grid1D(64, 8.0 * np.pi)
        k = 1.0
        wp, _ = conservative_mode_frequencies(k)
        n, n_mod, e = conserved_charges(_plane_wave_history(g, k, dt=0.01))
        assert n == pytest.approx(g.length, rel=1e-12)
        assert e == pytest.approx(wp * g.length, rel=1e-10)
        assert n_mod == pytest.approx((1.0 + wp) * g.length, rel=1e-10)

    def test_history_validation(self):
        g = Grid1D(32, 10.0)
        f = lambda t: MadelungFields(grid=g, rho=np.ones(g.n), S=np.zeros(g.n), t=t)
        with pytest.raises(InputError):
            conserved_charges([f(0.0), f(0.1)])
        with pytest.raises(InputError):
            conserved_charges([f(0.0), f(0.1), f(0.3)])
        with pytest.raises(InputError):
            conserved_charges([f(0.1), f(0.0), f(-0.1)])
        g2 = Grid1D(64, 10.0)
        mixed = MadelungFields(grid=g2, rho=np.ones(g2.n), S=np.zeros(g2.n), t=0.1)
        with pytest.raises(InputError):
            conserved_charges([f(0.0), mixed, f(0.2)])


class TestResiduals:
    def test_exact_plane_wave_run_has_tiny_residuals(self):
        g = Grid1D(64, 8.0 * np.pi)
        state = particle_branch_project(plane_wave(g, 1.0))
        snaps = [s for s, _, _ in evolve_field(state, EvolutionConfig(dt=0.01, steps=2))]
        hist = []
        prior = None
        for s in snaps:
            f = decompose(s.psi, prior_S=prior, t=s.t)
            hist.append(f)
            prior = f.S
        d = residuals(hist, conservative())
        assert d.continuity_residual < 1e-9
        assert d.hj_residual < 1e-9
        assert d.excluded_fraction == 0.0
        assert d.t == pytest.approx(snaps[1].t)

    def test_uniform_potential_needs_relativistic_frequency(self):
        # at k=0 in constant U the exact phase is S = -omega t with
        # omega = sqrt(1+2U) - 1; the nonrelativistic guess S = -U t leaves
        # exactly the U^2/2 correction in the Hamilton-Jacobi balance
        g = Grid1D(32, 10.0)
        u_val = 1e-5
        u = np.full(g.n, u_val)
        dt = 0.01
        rho = np.ones(g.n)

        def hist(omega):
            return [
                MadelungFields(grid=g, rho=rho, S=np.full(g.n, -omega * t), t=t)
                for t in (-dt, 0.0, dt)
            ]

        omega_exact = np.sqrt(1.0 + 2.0 * u_val) - 1.0
        d = residuals(hist(omega_exact), conservative(), potential=u)
        assert d.hj_residual < 1e-12
        d_naive = residuals(hist(u_val), conservative(), potential=u)
        assert d_naive.hj_residual == pytest.approx(u_val**2 / 2.0, rel=1e-4)

    def test_corrupted_phase_is_flagged(self):
        g = Grid1D(64, 8.0 * np.pi)
        hist = _plane_wave_history(g, 1.0, dt=0.01)
        bump = 0.1 * np.sin(2.0 * np.pi * g.x / g.length)
        bad = [
            MadelungFields(grid=g, rho=f.rho, S=f.S + bump, t=f.t) for f in hist
        ]
        clean = residuals(hist, conservative())
        broken = residuals(bad, conservative())
        assert clean.hj_residual < 1e-9
        assert broken.hj_residual > 1e-2

    def test_potential_shape_checked(self):
        g = Grid1D(32, 10.0)
        hist = _plane_wave_history(g, 2.0 * np.pi / 10.0, dt=0.01)
        with pytest.raises(InputError):
            residuals(hist, conservative(), potential=np.ones(g.n + 1))

    def test_all_masked_rejected(self):
        g = Grid1D(32, 10.0)
        mask = np.ones(g.n, bool)
        hist = [
            MadelungFields(
                grid=g, rho=np.ones(g.n), S=np.zeros(g.n), t=t, masked=mask
            )
            for t in (-0.1, 0.0, 0.1)
        ]
        with pytest.raises(InputError):
            residuals(hist, conservative())


def _packet_window(method: str, dt: float, kbar: float = 0.0):
    """The three levels at t = 5 of a Gaussian packet (n 1024, length 200,
    sigma 8), and that time."""
    g = Grid1D(1024, 200.0)
    steps = round(5.0 / dt)
    state = particle_branch_project(gaussian_packet(g, 8.0, kbar))
    *_, (s, prev, nxt) = evolve_field(state, EvolutionConfig(dt, steps, method, steps))
    return g, [prev, s.psi.values, nxt], s.t


def _window_residuals(g: Grid1D, levels, t: float, dt: float):
    hist, prior = [], None
    for level, tt in zip(levels, (t - dt, t, t + dt)):
        hist.append(decompose(ComplexField(g, level), prior_S=prior, t=tt))
        prior = hist[-1].S
    return residuals(hist, conservative())


class TestResidualsMeasureTheMethod:
    """The residuals of a real run read the O(dt^2) error of the three-level
    check, not round-off."""

    @pytest.mark.parametrize("method", [EXACT_MODE, STEPPER])
    def test_residuals_fall_as_the_step_halves(self, method):
        dts = (0.04, 0.02, 0.01)
        d = [_window_residuals(*_packet_window(method, dt), dt) for dt in dts]
        hj = [x.hj_residual for x in d]
        cont = [x.continuity_residual for x in d]
        assert hj[0] >= 3.0 * hj[1] and hj[1] >= 3.0 * hj[2], hj
        assert cont[0] >= 3.0 * cont[1], cont
        if method == EXACT_MODE:
            assert cont[1] >= 3.0 * cont[2], cont
        else:
            # the stepper's continuity residual, 4x below exact mode's at
            # dt 0.04, meets the eps/dt^2 round-off floor of its second time
            # difference of S at dt 0.01 (3e-14)
            assert cont[2] < cont[1] and cont[2] < 1e-13, cont

    def test_a_perturbed_level_stands_out(self):
        dt = 0.04
        g, levels, t = _packet_window(EXACT_MODE, dt)
        clean = _window_residuals(g, levels, t, dt)
        for i in range(3):
            for factor in (1.0 + 1e-6, np.exp(1e-6j)):
                planted = list(levels)
                planted[i] = planted[i] * factor
                d = _window_residuals(g, planted, t, dt)
                lift = max(d.continuity_residual / clean.continuity_residual,
                           d.hj_residual / clean.hj_residual)
                assert lift >= 100.0, (i, factor, lift)

    def test_a_drifting_packet_needs_no_grid_mode(self):
        # kbar 0.3 winds 200 * 0.3 / (2 pi) = 9.55 times across the box
        dt = 0.02
        d = _window_residuals(*_packet_window(EXACT_MODE, dt, kbar=0.3), dt)
        assert d.hj_residual < 1e-8 and d.continuity_residual < 1e-8


class TestModelIdentification:
    CANDIDATES = {
        "collisional": collisional(1.0),
        "radiative": radiative(1.0),
        "phase-diffusion": phase_diffusion(1.0),
        "dalembert-diffusion": dalembert_diffusion(1.0),
    }

    @staticmethod
    def _mode_history(params, k, eps, dt, g):
        """Three levels of a linearized fluid mode on the slowest root."""
        roots = solve_roots(build_polynomial(params, k))
        w = roots.roots[int(np.argmin(np.abs(roots.roots)))]
        amp_s = 1j * w * eps / (k * k - w * w)
        out = []
        for t in (-dt, 0.0, dt):
            ph = np.exp(1j * (w * t - k * g.x))
            out.append(
                MadelungFields(
                    grid=g,
                    rho=1.0 + eps * np.real(ph),
                    S=np.real(amp_s * ph),
                    t=t,
                )
            )
        return out

    @pytest.mark.parametrize("true_name", sorted(CANDIDATES))
    def test_identifies_generating_model(self, true_name):
        k, eps, dt = 0.5, 1e-6, 0.005
        g = Grid1D(64, 2.0 * (2.0 * np.pi / k))
        hist = self._mode_history(self.CANDIDATES[true_name], k, eps, dt, g)
        scores = {
            name: residuals(hist, params).hj_residual
            for name, params in self.CANDIDATES.items()
        }
        best = min(scores, key=scores.get)
        assert best == true_name
        rivals = [v for n, v in scores.items() if n != true_name]
        assert min(rivals) > 50.0 * scores[true_name]
