"""Eigenvalue solvers and the relativistic energy map."""

import numpy as np
import pytest
from scipy.linalg import eigh_tridiagonal

from rqbm import _tridiagonal
from rqbm._tridiagonal import lowest_eigenvalues
from rqbm.errors import DomainError, InputError, UnsupportedError
from rqbm.grid import Grid1D
from rqbm.spectrum import (
    Box,
    Free,
    Harmonic,
    Tabulated,
    _dirichlet_eigen,
    box_levels,
    harmonic_levels,
    nonrel_eigen,
    nonrel_eigen_richardson,
    relativistic_map,
)

U = 2.0**-53  # unit roundoff
EPS = 2 * U


def dirichlet_matrix(u, h):
    """Diagonal and off-diagonal of -lap/2 + U on the 3-point Dirichlet mesh h."""
    return 1.0 / (h * h) + u, np.full(len(u) - 1, -0.5 / (h * h))


def well(n, length, potential):
    g = Grid1D(n, length)
    return dirichlet_matrix(potential(g.x), g.dx)


def solver_cases():
    rng = np.random.default_rng(19)
    cases = {f"harmonic-{n}-{w}": (*well(n, 400.0, lambda x, w=w: 0.5 * w * w * x * x), 8)
             for n in (8192, 16384) for w in (0.008, 0.012)}
    cases["harmonic-256-0.5"] = (*well(256, 40.0, lambda x: 0.125 * x * x), 8)
    # the lowest pair of the deep well is split by about 2e-11, 4 eps ||T||
    cases["double-deep"] = (*well(2048, 20.0, lambda x: 2.55 * (x * x - 9) ** 2 / 8), 8)
    cases["double-shallow"] = (*well(2048, 20.0, lambda x: 0.5 * (x * x - 9) ** 2 / 8), 8)
    cases["random"] = (*well(1024, 100.0, lambda x: rng.uniform(-5, 5, len(x))), 16)
    cases["step"] = (*well(1000, 50.0, lambda x: np.where(x < 5, 0.0, 3.0)), 8)
    cases["n5"] = (*dirichlet_matrix(np.array([0.3, -0.2, 0.1, 0.5, 0.0]), 0.7), 5)
    # constant coefficients with n + 1 = 2^8: counts by cyclic reduction lose
    # accuracy within about 2e3 eps ||T|| of these eigenvalues
    cases["constant-255"] = (*dirichlet_matrix(np.ones(255), 0.1), 8)
    # 1/h^2 is 4e283: stebz overflows squaring the off-diagonal unless T is scaled
    cases["harmonic-extreme"] = (*well(64, 1e-140, lambda x: 0.5e300 * x * x), 16)
    return cases


SOLVER_CASES = solver_cases()


def norm1(diag, off):
    a = np.abs(off)
    return np.max(np.abs(diag) + np.concatenate(([0.0], a)) + np.concatenate((a, [0.0])))


def sturm_counts(diag, off, shifts):
    """Eigenvalues below each shift by the sequential LDL^T recurrence, the
    reference for the solver's cyclic-reduction counts (the entries must be
    scaled near 1, so that off^2 / q cannot overflow)."""
    pivmin = np.finfo(float).tiny * max(1.0, np.max(off * off))
    q = diag[0] - shifts
    neg = np.zeros(len(shifts), dtype=int)
    for i in range(len(diag)):
        if i:
            q = (diag[i] - shifts) - off[i - 1] ** 2 / q
        q = np.where(np.abs(q) < pivmin, -pivmin, q)
        neg += q < 0
    return neg


class TestAnalyticLevels:
    def test_harmonic_ladder(self):
        np.testing.assert_allclose(
            harmonic_levels(0.4, 4), [0.2, 0.6, 1.0, 1.4], rtol=1e-15
        )

    def test_box_ladder(self):
        w = 3.0
        expect = np.pi**2 * np.array([1, 4, 9]) / (2.0 * w * w)
        np.testing.assert_allclose(box_levels(w, 3), expect, rtol=1e-15)


class TestPotentialSpecs:
    def test_parameter_validation(self):
        with pytest.raises(InputError):
            Harmonic(0.0)
        with pytest.raises(InputError):
            Harmonic(np.inf)
        with pytest.raises(InputError):
            Box(-1.0)
        with pytest.raises(InputError):
            Tabulated(np.ones((2, 2)))
        with pytest.raises(InputError):
            Tabulated(np.array([1.0, np.nan]))


class TestNonrelEigen:
    def test_free_spectrum_is_exact_plane_waves(self):
        g = Grid1D(64, 10.0)
        eps = nonrel_eigen(Free(), g, 5)
        k1 = 2.0 * np.pi / g.length
        np.testing.assert_allclose(
            eps, [0.0, k1**2 / 2, k1**2 / 2, 2 * k1**2, 2 * k1**2], atol=1e-15
        )

    @pytest.mark.parametrize("omega0", [1e200, 1e152])
    def test_overflowing_harmonic_potential_is_input_error(self, omega0):
        # 1e200 overflows omega0**2 itself, 1e152 only its product with x^2
        with pytest.raises(InputError, match="overflows the harmonic potential"):
            nonrel_eigen(Harmonic(omega0), Grid1D(256, 1e6), 4)

    @pytest.mark.parametrize("potential,grid", [
        (Box(1e-160), Grid1D(256, 10.0)),
        (Harmonic(1.0), Grid1D(256, 1e-300)),
    ], ids=["box", "harmonic"])
    def test_mesh_whose_square_underflows_is_input_error(self, potential, grid):
        with pytest.raises(InputError, match="its square underflows to 0"):
            nonrel_eigen(potential, grid, 4)

    def test_harmonic_matches_analytic_ladder(self):
        g = Grid1D(512, 40.0)
        omega0 = 0.5
        eps = nonrel_eigen(Harmonic(omega0), g, 6)
        np.testing.assert_allclose(eps, harmonic_levels(omega0, 6), rtol=2e-3)

    def test_richardson_beats_plain_grid(self):
        g = Grid1D(256, 40.0)
        omega0 = 0.5
        exact = harmonic_levels(omega0, 4)
        plain = np.abs(nonrel_eigen(Harmonic(omega0), g, 4) - exact)
        refined = np.abs(nonrel_eigen_richardson(Harmonic(omega0), g, 4) - exact)
        assert np.all(refined < 1e-2 * plain)

    def test_box_richardson_is_fourth_order(self):
        # the fine box mesh must be exactly half the coarse one, width/(n+1);
        # closed-form levels keep the 16x fall going up to n = 1024, where an
        # iterative eigensolver's eps ||T|| error would already dominate
        w = 10.0
        exact = box_levels(w, 8)
        errs = [np.abs(nonrel_eigen_richardson(Box(w), Grid1D(n, w), 8) - exact)
                for n in (32, 64, 128, 256, 512, 1024)]
        for coarse, fine in zip(errs, errs[1:]):
            assert np.all(coarse / fine >= 12.0)

    @pytest.mark.parametrize("n", [7, 257, 4096, 8193])
    def test_zero_potential_levels_are_closed_form(self, n):
        # the box meshes of both Richardson levels (n and 2n + 1 points)
        h = 10.0 / (n + 1)
        count = min(8, n)
        eps = _dirichlet_eigen(np.zeros(n), h, count)
        ref = eigh_tridiagonal(np.full(n, 1.0 / (h * h)), np.full(n - 1, -0.5 / (h * h)),
                               select="i", select_range=(0, count - 1), eigvals_only=True)
        assert np.all(np.abs(eps - ref) <= 8 * U * 2 / h**2)

        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(40):
            exact = np.array([float(2 / mpmath.mpf(h) ** 2
                                    * mpmath.sin(m * mpmath.pi / (2 * (n + 1))) ** 2)
                              for m in range(1, count + 1)])
        assert np.all(np.abs(eps - exact) <= 4 * np.spacing(exact))

    def test_box_uses_its_own_mesh(self):
        w = 2.0
        eps_a = nonrel_eigen(Box(w), Grid1D(400, 10.0), 3)
        eps_b = nonrel_eigen(Box(w), Grid1D(400, 999.0), 3)
        np.testing.assert_allclose(eps_a, eps_b, rtol=1e-15)
        np.testing.assert_allclose(eps_a, box_levels(w, 3), rtol=1e-4)

    def test_tabulated_matches_harmonic(self):
        g = Grid1D(512, 40.0)
        omega0 = 0.5
        tab = Tabulated(0.5 * omega0**2 * g.x**2)
        np.testing.assert_allclose(
            nonrel_eigen(tab, g, 4), nonrel_eigen(Harmonic(omega0), g, 4), rtol=1e-13
        )

    def test_tabulated_length_checked(self):
        g = Grid1D(64, 10.0)
        with pytest.raises(InputError):
            nonrel_eigen(Tabulated(np.zeros(65)), g, 2)

    def test_tabulated_cannot_be_refined(self):
        g = Grid1D(64, 10.0)
        with pytest.raises(UnsupportedError):
            nonrel_eigen_richardson(Tabulated(np.zeros(64)), g, 2)

    def test_count_guards(self):
        g = Grid1D(64, 10.0)
        with pytest.raises(InputError):
            nonrel_eigen(Free(), g, 0)
        with pytest.raises(InputError):
            nonrel_eigen(Free(), g, 2.5)
        with pytest.raises(InputError):
            nonrel_eigen(Free(), g, 17)  # > n/4
        with pytest.raises(InputError):
            nonrel_eigen(Free(), g, True)  # True == 1 would return one level
        assert len(nonrel_eigen(Free(), g, 16)) == 16


class TestTridiagonalSolver:
    @pytest.mark.parametrize("case", SOLVER_CASES)
    def test_matches_lapack_bisection(self, case):
        diag, off, count = SOLVER_CASES[case]
        s = 2.0 ** -np.frexp(norm1(diag, off))[1]
        ref = eigh_tridiagonal(diag * s, off * s, select="i", select_range=(0, count - 1),
                               eigvals_only=True) / s
        vals = lowest_eigenvalues(diag, off, count)
        assert np.max(np.abs(vals - ref)) <= 4 * EPS * norm1(diag, off)

    @pytest.mark.parametrize("case", SOLVER_CASES)
    def test_levels_are_ascending_and_certified_by_counts(self, case):
        diag, off, count = SOLVER_CASES[case]
        with np.errstate(all="raise"):
            vals = lowest_eigenvalues(diag, off, count)
        assert np.all(np.diff(vals) >= 0)
        assert vals.tobytes() == lowest_eigenvalues(diag, off, count).tobytes()
        # level i lies within 4 eps ||T|| of its value: i eigenvalues lie below
        # the value's lower bound at most, and i + 1 below its upper one
        s = 2.0 ** -np.frexp(norm1(diag, off))[1]
        tol = 4 * EPS * norm1(diag, off) * s
        counts = sturm_counts(diag * s, off * s, np.concatenate((vals * s - tol, vals * s + tol)))
        i = np.arange(count)
        assert np.all(counts[:count] <= i) and np.all(counts[count:] >= i + 1)


    @pytest.mark.parametrize("matrix", [
        # the harmonic spectra of the benchmark, on their mesh and its Richardson mesh
        lambda: well(8192, 400.0, lambda x: 0.5 * 0.008**2 * x * x),
        lambda: well(16384, 400.0, lambda x: 0.5 * 0.012**2 * x * x),
        # a tabulated square well, of odd length
        lambda: dirichlet_matrix(np.where(np.abs(np.arange(16385) - 8192) < 800, 0.0, 0.05),
                                 400.0 / 16385),
    ], ids=["harmonic-8192", "harmonic-16384", "well-16385"])
    def test_values_do_not_depend_on_the_block_size(self, monkeypatch, matrix):
        diag, off = matrix()
        values = set()
        for block in (1 << 12, 1 << 16, 1 << 17):
            monkeypatch.setattr(_tridiagonal, "_BLOCK", block)
            values.add(lowest_eigenvalues(diag, off, 8).tobytes())
        assert len(values) == 1


class TestRelativisticMap:
    def test_values_and_series(self):
        res = relativistic_map([0.0, 0.04, 1.5])
        np.testing.assert_allclose(res.E, np.sqrt([1.0, 1.08, 4.0]), rtol=1e-15)
        np.testing.assert_allclose(
            res.E_series, [1.0, 1.0392, 1.375], rtol=1e-12
        )
        np.testing.assert_allclose(
            res.rel_gap, np.abs(res.E - res.E_series) / res.E, rtol=1e-13
        )

    def test_series_gap_shrinks_cubically(self):
        # E - E_series = eps^3/2 + O(eps^4)
        res = relativistic_map([1e-3])
        assert res.E[0] - res.E_series[0] == pytest.approx(0.5e-9, rel=1e-2)

    def test_scalar_input_promoted(self):
        res = relativistic_map(0.12)
        assert res.E.shape == (1,)

    def test_domain_error_names_offender(self):
        with pytest.raises(DomainError, match="index 2"):
            relativistic_map([0.0, 0.1, -0.6])
        with pytest.raises(DomainError):
            relativistic_map([-0.5])  # boundary itself is excluded

    def test_rejects_non_finite(self):
        with pytest.raises(InputError):
            relativistic_map([0.1, np.nan])

    def test_series_overflow_names_its_first_level(self):
        with pytest.warns(RuntimeWarning) as record:
            with np.errstate(all="raise"):
                res = relativistic_map([1.0, 1e154, 2e154, 1e300, 1e308])
        assert [str(w.message) for w in record] == [
            "E_series overflows from level 2 (epsilon = 2e+154); written as -inf"]
        assert np.all(np.isfinite(res.E_series[:2])) and np.all(res.E_series[2:] == -np.inf)
        assert np.all(res.rel_gap[2:] == np.inf)
        # 2 eps overflows at 1e308, but E = sqrt(2 eps) does not
        assert res.E[4] == pytest.approx(np.sqrt(2.0) * 1e154, rel=4e-16)
