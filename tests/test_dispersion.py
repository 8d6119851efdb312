import math
import re
import subprocess
import sys

import numpy as np
import pytest

from rqbm import dispersion
from rqbm.dispersion import (
    DEGENERACY_TOL,
    GAPPED,
    HYDRODYNAMIC,
    OTHER,
    RESIDUAL_TOL,
    BranchCurve,
    DispersionPoly,
    _match,
    asymptotic_omega,
    asymptotic_omega_candidates,
    build_polynomial,
    friction_equivalence,
    solve_roots,
    track_branches,
)
from rqbm.errors import (
    AmbiguousBranchError,
    InputError,
    NumericalFailureError,
    UnsupportedRegimeError,
)
from rqbm.units import (
    Model,
    ModelParams,
    collisional,
    conservative,
    dalembert_diffusion,
    phase_diffusion,
    radiative,
)

from _oracles import mpmath_roots


# ---------------------------------------------------------------- polynomials

def test_conservative_polynomial_and_roots():
    poly = build_polynomial(conservative(), 2.0)
    assert poly.degree == 2
    np.testing.assert_allclose(poly.coefficients, [-4.0, 2.0, 1.0, 0.0, 0.0])
    rs = solve_roots(poly)
    wp = math.sqrt(5.0) - 1.0
    np.testing.assert_allclose(sorted(rs.roots.real), [-2.0 - wp, wp], atol=1e-14)
    assert np.allclose(rs.roots.imag, 0.0, atol=1e-14)


@pytest.mark.parametrize("k", [6.8e153, 9.4e153])
def test_conservative_roots_where_the_discriminant_overflows(k):
    # 4 + 4 k^2 is beyond the float range, the roots -1 -+ sqrt(1 + k^2) are not
    with np.errstate(all="raise"):
        rs = solve_roots(build_polynomial(conservative(), k))
    np.testing.assert_allclose(sorted(rs.roots.real), [-k, k], rtol=1e-15)
    assert np.all(rs.roots.imag == 0)


@pytest.mark.parametrize(
    "params,k,expect",
    [
        (collisional(2.0), 3.0, [20.25, 2.0j, -5.5, 0.0, 0.25]),
        (radiative(2.0), 1.0, [0.25, 0.0, -1.5, 2.0j, 0.25]),
        (phase_diffusion(3.0), 2.0, [4.0, 12.0j, -3.0, 0.0, 0.25]),
        (dalembert_diffusion(3.0), 2.0, [4.0, 12.0j, -3.0, -3.0j, 0.25]),
    ],
)
def test_dissipative_coefficients_by_hand(params, k, expect):
    poly = build_polynomial(params, k)
    assert poly.degree == 4
    np.testing.assert_allclose(poly.coefficients, expect, atol=0)


def test_polynomial_evaluation_and_derivative():
    poly = build_polynomial(collisional(1.0), 0.5)
    w = 0.3 - 0.2j
    c = poly.coefficients
    direct = sum(c[j] * w**j for j in range(5))
    assert poly(w) == pytest.approx(direct, rel=1e-14)
    h = 1e-7
    fd = (poly(w + h) - poly(w - h)) / (2 * h)
    assert poly.derivative(w) == pytest.approx(fd, rel=1e-6)
    assert poly.residual_scale(w) == pytest.approx(
        sum(abs(c[j]) * abs(w) ** j for j in range(5)), rel=1e-14
    )


def test_polynomial_rejects_bad_inputs():
    with pytest.raises(InputError):
        DispersionPoly(coefficients=np.zeros(4, complex), k=0.0, model=conservative())
    with pytest.raises(InputError):
        build_polynomial(collisional(1.0), -0.5)
    with pytest.raises(InputError):
        build_polynomial(collisional(1.0), float("nan"))


@pytest.mark.parametrize("params,k", [
    (radiative(1.0), 1e100),         # k**4 is beyond the float range
    (conservative(), 1e200),         # k * k overflows
    (conservative(), 1e154),         # 2 k^2, which the certificates sum, overflows
    (phase_diffusion(1e300), 1e10),  # D k^2 overflows
], ids=["k4", "k-squared", "twice-k-squared", "diffusion"])
def test_coefficient_overflow_is_input_error(params, k):
    with pytest.raises(InputError, match=re.escape(f"k = {k!r} overflows the")):
        build_polynomial(params, k)


# ----------------------------------------------------------------- root solve

def test_exact_factorization_collisional_gamma_zero():
    rs = solve_roots(build_polynomial(collisional(0.0), 0.0))
    np.testing.assert_allclose(np.sort(rs.roots.real), [-2.0, 0.0, 0.0, 2.0], atol=1e-12)
    np.testing.assert_allclose(rs.roots.imag, 0.0, atol=1e-12)
    assert sorted(rs.multiplicities, reverse=True)[0] == 2  # double zero


def test_exact_factorization_radiative_k0():
    tau = 100.0
    rs = solve_roots(build_polynomial(radiative(tau), 0.0))
    s = math.sqrt(tau * tau - 1.0)
    expect = sorted([0.0, 0.0, 2.0 * (-tau + s), 2.0 * (-tau - s)])
    got = sorted(rs.roots.imag)
    np.testing.assert_allclose(got, expect, rtol=1e-12, atol=1e-15)
    assert np.allclose(rs.roots.real, 0.0, atol=1e-12)


def test_zero_root_stripping_is_exact():
    rs = solve_roots(build_polynomial(phase_diffusion(1.0), 0.0))
    assert np.sum(rs.roots == 0) == 2


def test_quadruple_root_detected():
    # d'Alembert D=1 factors as a perfect square; at k=1 all roots coalesce
    rs = solve_roots(build_polynomial(dalembert_diffusion(1.0), 1.0))
    assert rs.multiplicities == (4,)
    assert rs.unique_roots[0] == pytest.approx(1j, abs=1e-12)
    assert rs.vieta_sum_dev <= 1e-10 and rs.vieta_prod_dev <= 1e-10


@pytest.mark.parametrize("k", [0.01, 0.3, 0.9, 1.5, 7.0])
def test_dalembert_critical_damping_double_roots(k):
    # for D=1 the quartic is (y^2/2 - y + k^2/2)^2 in y = -i omega
    rs = solve_roots(build_polynomial(dalembert_diffusion(1.0), k))
    assert rs.multiplicities == (2, 2)
    expect = 1j * np.roots([0.5, -1.0, 0.5 * k * k])
    for e in expect:
        assert min(abs(rs.unique_roots - e)) <= 1e-9 * max(1.0, abs(e))


def test_random_quartics_certify():
    rng = np.random.default_rng(101)
    tag = collisional(1.0)  # any degree-4 model tag
    for _ in range(200):
        c = rng.standard_normal(5) + 1j * rng.standard_normal(5)
        while abs(c[4]) < 1e-3:
            c[4] = rng.standard_normal() + 1j * rng.standard_normal()
        poly = DispersionPoly(coefficients=c.astype(np.complex128), k=0.0, model=tag)
        rs = solve_roots(poly)
        assert rs.residuals.max() <= 1e-10
        assert rs.vieta_sum_dev <= 1e-10 and rs.vieta_prod_dev <= 1e-10
        assert len(rs.roots) == 4 and sum(rs.multiplicities) == 4


def test_engineered_near_double_roots_certify():
    rng = np.random.default_rng(555)
    tag = collisional(1.0)
    for _ in range(100):
        r1 = rng.standard_normal() + 1j * rng.standard_normal()
        r2 = rng.standard_normal() + 1j * rng.standard_normal()
        eps = 10.0 ** rng.uniform(-14, -7)
        c = np.polynomial.polynomial.polyfromroots([r1, r1 + eps, r2, r2 + 1.0])
        poly = DispersionPoly(coefficients=c.astype(np.complex128), k=0.0, model=tag)
        rs = solve_roots(poly)
        assert rs.residuals.max() <= 1e-10
        assert rs.vieta_sum_dev <= 1e-10 and rs.vieta_prod_dev <= 1e-10


def test_certification_failure_carries_the_base_interpretation():
    # d'Alembert D = 1 just off its quadruple root at k = 1: no clustering
    # width certifies, and the error keeps the base-width root set
    with pytest.raises(NumericalFailureError,
                       match=r"^root certification failed at k=1\.000001: ") as exc:
        solve_roots(build_polynomial(dalembert_diffusion(1.0), 1.000001))
    assert exc.value.rootset.multiplicities == (1, 1, 1, 1)
    assert exc.value.rootset.k == 1.000001


def test_stack_rows_equal_their_own_solves():
    polys = [build_polynomial(p, k) for p, k in [
        (collisional(1.0), 0.3),
        (radiative(100.0), 0.0),              # an exact double zero
        (dalembert_diffusion(1.0), 1.0001),   # two double roots
        (phase_diffusion(1.0), 1e-3),         # a pair 7e-10 apart: certified unclustered
        (radiative(1.0), 5.0),
        (dalembert_diffusion(2.0), 40.0),
    ]]
    stack = dispersion._solve_stack(polys)
    assert [rs.multiplicities for rs in stack[1:4]] == [(1, 1, 2), (2, 2), (1, 1, 1, 1)]
    w = stack[3].roots
    assert min(abs(a - b) for i, a in enumerate(w) for b in w[i + 1:]) < DEGENERACY_TOL
    for poly, got in zip(polys, stack):
        want = solve_roots(poly)
        for name in ("roots", "residuals", "unique_roots"):
            assert getattr(got, name).tobytes() == getattr(want, name).tobytes(), name
        assert (got.multiplicities, got.vieta_sum_dev, got.vieta_prod_dev, got.k) == (
            want.multiplicities, want.vieta_sum_dev, want.vieta_prod_dev, want.k)


def test_vanishing_leading_coefficient_rejected():
    tag = collisional(1.0)
    poly = DispersionPoly(
        coefficients=np.array([1.0, 1.0, 1.0, 1.0, 0.0], complex), k=0.0, model=tag
    )
    with pytest.raises(InputError):
        solve_roots(poly)


def test_growing_flag():
    # d'Alembert D=1 is critically damped everywhere: no growth
    rs = solve_roots(build_polynomial(dalembert_diffusion(1.0), 0.5))
    assert not rs.growing.any()
    # radiative runaways and the destabilized collisional gapped pair do grow
    assert solve_roots(build_polynomial(radiative(1.0), 0.5)).growing.any()
    assert solve_roots(build_polynomial(collisional(1.0), 0.5)).growing.any()
    assert not solve_roots(build_polynomial(conservative(), 0.5)).growing.any()


# ------------------------------------------------------------ branch tracking

def test_conservative_branch_labels_and_values():
    kg = np.linspace(0.1, 2.0, 20)
    bc = track_branches(conservative(), kg)
    assert sorted(bc.labels) == sorted([HYDRODYNAMIC, GAPPED])
    hyd = bc.branch(HYDRODYNAMIC)
    expect = np.sqrt(1.0 + kg * kg) - 1.0
    np.testing.assert_allclose(hyd.real, expect, rtol=1e-12)
    gap = bc.branch(GAPPED)
    np.testing.assert_allclose(gap.real, -2.0 - expect, rtol=1e-12)
    j = int(np.argmin(np.abs(kg - 1.0)))
    assert hyd[j] == pytest.approx(math.sqrt(1.0 + kg[j] ** 2) - 1.0, abs=1e-12)


def test_track_branches_validation():
    with pytest.raises(InputError):
        track_branches(conservative(), [1.0])
    with pytest.raises(InputError):
        track_branches(conservative(), [1.0, 0.5])


def test_labels_stable_under_grid_refinement():
    coarse = track_branches(collisional(1.0), np.geomspace(0.01, 10.0, 80))
    fine = track_branches(collisional(1.0), np.geomspace(0.01, 10.0, 240))
    assert coarse.labels == fine.labels
    # values at shared endpoints agree
    np.testing.assert_allclose(
        np.sort_complex(coarse.branches[:, -1]),
        np.sort_complex(fine.branches[:, -1]),
        rtol=1e-9,
    )


def test_hydrodynamic_accessor():
    bc = track_branches(collisional(1.0), np.geomspace(0.01, 1.0, 30))
    hyd = bc.hydrodynamic
    assert abs(hyd[0]) == min(abs(b[0]) for b in bc.branches)


@pytest.mark.parametrize(
    "params", [conservative(), collisional(1.0), radiative(0.5), dalembert_diffusion(2.0)]
)
def test_branch_curve_carries_certified_residuals(params):
    kg = np.geomspace(0.05, 5.0, 40)
    bc = track_branches(params, kg)
    assert bc.residuals.shape == bc.branches.shape
    for j, k in enumerate(kg):
        rs = solve_roots(build_polynomial(params, k))
        for i, w in enumerate(bc.branches[:, j]):
            same = np.flatnonzero(rs.roots == w)
            assert len(same) and np.all(rs.residuals[same] == bc.residuals[i, j])
    assert np.all(bc.residuals <= RESIDUAL_TOL)


def test_match_raises_on_genuine_near_tie():
    prev = np.array([0.0 + 0.0j, 1.0 + 0.0j])
    new = np.array([0.49 + 0.0j, 0.52 + 0.0j])
    with pytest.raises(AmbiguousBranchError):
        _match(prev, new)


def test_match_keeps_mirror_pair_sides():
    # a near-critically-damped mirror pair: tiny +/- real split, common drift
    prev = np.array([+1e-6 + 1.00j, -1e-6 + 1.00j])
    new = np.array([+1.1e-6 + 1.01j, -1.1e-6 + 1.01j])
    out = new[_match(prev, new)]
    assert out[0].real > 0 and out[1].real < 0


def test_match_tolerates_degenerate_parent_split():
    prev = np.array([0.5j, 0.5j])
    new = np.array([0.1 + 0.5j, -0.1 + 0.5j])
    out = new[_match(prev, new)]     # either assignment is acceptable
    assert set(np.round(out, 12)) == set(np.round(new, 12))


def test_phase_diffusion_default_sweep_tracks():
    # critically damped small-k pair: the mirror exemption must keep this
    # sweep from raising a spurious ambiguity
    bc = track_branches(phase_diffusion(1.0), np.geomspace(0.01, 10.0, 200))
    for row in bc.branches:
        re = row.real[np.abs(row.real) > 1e-12]
        if len(re):
            assert np.all(re > 0) or np.all(re < 0)


# ------------------------------------------------------ batched root engine

DISSIPATIVE = [collisional, radiative, phase_diffusion, dalembert_diffusion]


EPS = np.finfo(float).eps


def _exact_roots(poly):
    pytest.importorskip("mpmath")
    return mpmath_roots(poly.coefficients)


def test_simple_roots_match_mpmath():
    # every simple root lies within a few eps of the exact root of the
    # polynomial its coefficients define
    rng = np.random.default_rng(7)
    tag = collisional(1.0)
    polys = [
        DispersionPoly(coefficients=rng.standard_normal(5) + 1j * rng.standard_normal(5),
                       k=0.0, model=tag)
        for _ in range(300)
    ]
    polys += [build_polynomial(make(rate), k) for make in DISSIPATIVE
              for rate in (0.01, 0.5, 30.0) for k in np.geomspace(0.02, 20.0, 25)]
    checked = 0
    for poly in polys:
        rs = solve_roots(poly)
        if rs.multiplicities == (1, 1, 1, 1):
            exact = np.array([complex(r) for r in _exact_roots(poly)])
            for w in rs.roots:
                assert np.abs(exact - w).min() <= 8 * EPS * max(1.0, abs(w)), (poly, w)
            checked += 1
    assert checked >= 500


def test_multiple_roots_match_mpmath():
    # a certified m-fold root lies within a few tens of eps of the centroid of
    # the m exact roots it stands for
    mpmath = pytest.importorskip("mpmath")

    rng = np.random.default_rng(20)
    tag = collisional(1.0)
    polys = [build_polynomial(dalembert_diffusion(1.0), k)
             for k in np.concatenate([np.geomspace(0.01, 10.0, 40), [1.0]])]
    # radiative tau = 1 at k = 0 has a double root at -2i beside the double zero
    polys.append(build_polynomial(radiative(1.0), 0.0))
    for i in range(120):
        a, b, c = 10.0 ** rng.uniform(-2, 2, 3) * np.exp(2j * np.pi * rng.random(3))
        roots = [(a, a, b, c), (a, a, a, b), (a, a, b, b), (a, a, a, a)][i % 4]
        polys.append(DispersionPoly(coefficients=np.poly(roots)[::-1], k=0.0, model=tag))
    checked = 0
    for poly in polys:
        try:
            rs = solve_roots(poly)
        except NumericalFailureError:
            continue
        exact = _exact_roots(poly)
        for w, mult in zip(rs.unique_roots, rs.multiplicities):
            if mult > 1 and w != 0:
                near = sorted(exact, key=lambda r: abs(complex(r) - w))[:mult]
                with mpmath.workdps(60):
                    centroid = complex(sum(near) / mult)
                assert abs(w - centroid) <= 64 * EPS * max(1.0, abs(w)), (poly, w, mult)
                checked += 1
    assert checked >= 150


def test_mixed_stacks_equal_their_one_row_solves():
    # a stack polishes all its multiple clusters in one call, whatever their
    # number; each row keeps the bits of its own solve
    rng = np.random.default_rng(31)
    tag = collisional(1.0)
    pool = [build_polynomial(dalembert_diffusion(1.0), k) for k in np.geomspace(0.01, 10.0, 30)]
    pool += [build_polynomial(radiative(tau), 0.0) for tau in (0.5, 1.0, 100.0)]
    for i in range(40):
        a, b, c = 10.0 ** rng.uniform(-1, 1, 3) * np.exp(2j * np.pi * rng.random(3))
        roots = [(a, a, b, c), (a, a, b, b), (a, a, a, b), (a, a, a, a)][i % 4]
        pool.append(DispersionPoly(coefficients=np.poly(roots)[::-1], k=0.0, model=tag))
    pool += [build_polynomial(collisional(1.0), k) for k in (0.0, 0.3, 4.0)]
    alone = {}
    for i, poly in enumerate(pool):
        try:
            alone[i] = solve_roots(poly)
        except NumericalFailureError:
            pass
    assert sum(max(alone[i].multiplicities) > 1 for i in alone) >= 60
    keys = sorted(alone)
    for _ in range(60):
        pick = rng.choice(keys, size=rng.integers(2, 25))
        for i, got in zip(pick, dispersion._solve_stack([pool[i] for i in pick])):
            want = alone[i]
            for name in ("roots", "residuals", "unique_roots"):
                assert getattr(got, name).tobytes() == getattr(want, name).tobytes(), name
            assert (got.multiplicities, got.vieta_sum_dev, got.vieta_prod_dev) == (
                want.multiplicities, want.vieta_sum_dev, want.vieta_prod_dev)


def test_stack_of_mixed_degrees_rejected():
    with pytest.raises(InputError, match="one degree"):
        dispersion._solve_stack([build_polynomial(collisional(1.0), 0.5),
                                 build_polynomial(conservative(), 0.5)])


def test_dalembert_quadruple_root_sweep_keeps_its_columns():
    # the step across the quadruple root at k = 1 ties all 24 matchings, so the
    # tie rule, the first tied permutation, sets the mirror twin +-a + i each
    # column follows past it: these are the columns of
    # `rqbm dispersion --model dalembert-diffusion --diffusion 1 --k-steps 2000`
    k = np.geomspace(0.01, 10.0, 2000)
    curve = track_branches(dalembert_diffusion(1.0), k)
    past = k > 1.0
    assert past.sum() == 667
    assert np.all(curve.branches[:2, past].real < 0) and np.all(curve.branches[2:, past].real > 0)


@pytest.mark.parametrize("argv", [
    ["--model", "radiative", "--tau", "1", "--k-min", "0", "--k-scale", "linear"],
    ["--model", "dalembert-diffusion", "--diffusion", "1"],
])
def test_multiple_root_sweeps_leave_numpy_polynomial_unloaded(tmp_path, argv):
    # numpy.ma, which np.unique imports, would add about 1.3 MB to a sweep's peak RSS
    code = ("import sys; from rqbm import cli; rc = cli.main(sys.argv[1:]); "
            "print(rc, 'numpy.polynomial' in sys.modules, 'numpy.ma' in sys.modules)")
    r = subprocess.run([sys.executable, "-c", code, "dispersion", *argv,
                        "--out", str(tmp_path / "sweep.csv")], capture_output=True, text=True)
    assert r.returncode == 0, r.stderr
    assert r.stdout.split() == ["0", "False", "False"]


def _sorted_columns(curve, j):
    """Column j of a sweep in the order of `RootSet.roots`: by real, then
    imaginary part, a real part within _AXIS_TOL |w| of the axis read as 0."""
    col = curve.branches[:, j]
    re = np.where(np.abs(col.real) <= dispersion._AXIS_TOL * np.abs(col), 0.0, col.real)
    order = np.lexsort((col.imag, re))
    return col[order], curve.residuals[order, j]


@pytest.mark.parametrize("make", DISSIPATIVE)
def test_batched_sweep_equals_per_k_solves(make):
    params = make(0.7)
    kg = np.geomspace(0.01, 30.0, 500)
    bc = track_branches(params, kg)
    for j, k in enumerate(kg):
        rs = solve_roots(build_polynomial(params, k))
        roots, residuals = _sorted_columns(bc, j)
        assert roots.tobytes() == rs.roots.tobytes()
        assert residuals.tobytes() == rs.residuals.tobytes()


@pytest.mark.parametrize(
    "params,kg,multiple",
    [
        # k = 0 strips exact zero roots: one and a cubic, or two and a quadratic
        (collisional(1.0), np.linspace(0.0, 3.0, 31), []),
        (radiative(2.0), np.linspace(0.0, 3.0, 31), [0]),
        (phase_diffusion(1.0), np.linspace(0.0, 2.0, 41), [0]),
        # D = 1: every k is a pair of double roots
        (dalembert_diffusion(1.0), np.geomspace(0.01, 10.0, 50), range(50)),
    ],
)
def test_fallback_rows_keep_multiplicities(params, kg, multiple):
    bc = track_branches(params, kg)
    for j, k in enumerate(kg):
        rs = solve_roots(build_polynomial(params, k))
        assert (max(rs.multiplicities) > 1) == (j in multiple)
        roots, residuals = _sorted_columns(bc, j)
        assert roots.tobytes() == rs.roots.tobytes()
        assert residuals.tobytes() == rs.residuals.tobytes()


def test_random_sweeps_track_without_ambiguity():
    # rates log-uniform over 1e-3..1e3, k spans of 1-3 decades, 20-200 points:
    # a fuzz like this raised AmbiguousBranchError on about one sweep in ten
    # before ambiguous steps were bisected
    rng = np.random.default_rng(2026)
    for _ in range(100):
        make = DISSIPATIVE[rng.integers(4)]
        k_min = 10 ** rng.uniform(-2, 0)
        kg = np.geomspace(k_min, k_min * 10 ** rng.uniform(1, 3), rng.integers(20, 201))
        bc = track_branches(make(10 ** rng.uniform(-3, 3)), kg)
        assert bc.branches.shape == (4, len(kg))


@pytest.mark.parametrize("seed", [1, 2])
def test_rounding_cannot_move_branch_columns(monkeypatch, seed):
    # every polished root moved by a few ulps: each column follows the same
    # root, and a label moves only between roots whose |w0| tie.  The sweeps
    # have exactly tied matchings: d'Alembert D = 1 across its quadruple root,
    # sweeps from k = 0 (where the double zero root splits), and CI's sweeps
    sweeps = [(dalembert_diffusion(1.0), np.geomspace(0.01, 10.0, 2000)),
              (dalembert_diffusion(1.0), np.linspace(0.5, 1.5, 101)),
              (dalembert_diffusion(1.0025), np.geomspace(0.01, 10.0, 200)),
              (collisional(1.0025), np.linspace(0.0, 5.0, 100)),
              (dalembert_diffusion(2.0), np.geomspace(0.01, 75.0, 50)),
              (collisional(0.001), np.geomspace(0.01, 20.0, 20)),
              (radiative(0.001), np.geomspace(0.01, 40.0, 20))]
    sweeps += [(make(rate), np.linspace(0.0, 5.0, 100))
               for make in DISSIPATIVE for rate in (1e-3, 1.0, 1e3)]
    base = [track_branches(params, kg) for params, kg in sweeps]
    rng = np.random.default_rng(seed)
    newton = dispersion._newton

    def nudged(*args):
        out = newton(*args)
        return out * (1.0 + 2.0 * EPS * (rng.uniform(-1, 1, out.shape)
                                         + 1j * rng.uniform(-1, 1, out.shape)))

    monkeypatch.setattr(dispersion, "_newton", nudged)
    for (params, kg), want in zip(sweeps, base):
        got = track_branches(params, kg)
        assert np.all(np.abs(got.branches - want.branches)
                      <= 1e-6 * np.fmax(1.0, np.abs(want.branches))), (params, kg[0])
        size = np.abs(got.branches[:, 0])
        assert got.labels.index(HYDRODYNAMIC) == np.argmin(size)
        low = np.sort(size)
        if low[1] - low[0] > 1e-9 * low[1]:
            assert got.labels == want.labels, (params, kg[0])


def test_bisection_gives_up_past_its_depth(monkeypatch):
    def always_ambiguous(prev, new):
        raise AmbiguousBranchError("branch matching ambiguous: relative gap 1.00e-02")

    monkeypatch.setattr(dispersion, "_match", always_ambiguous)
    with pytest.raises(AmbiguousBranchError) as info:
        track_branches(collisional(1.0), [1.0, 2.0])
    message = str(info.value)
    assert "relative gap" in message and "12 halvings" in message
    low, high = (float(v) for v in re.findall(r"k = (\S+?)(?: and|,? after)", message))
    assert 1.0 <= low < high <= 2.0 and high / low == pytest.approx(2.0 ** (1 / 4096))


# ------------------------------------------------- friction equivalences

def _samples(n=100, seed=3):
    rng = np.random.default_rng(seed)
    w = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    k = rng.uniform(0.0, 3.0, n)
    return list(zip(w, k))


@pytest.mark.parametrize(
    "other",
    [radiative(0.7), phase_diffusion(1.3), dalembert_diffusion(0.4)],
)
def test_friction_equivalence_is_exact(other):
    dev = friction_equivalence(collisional(1.0), other, _samples())
    assert dev <= 1e-12


def test_friction_equivalence_rejects_unrelated_pair():
    with pytest.raises(InputError):
        friction_equivalence(radiative(1.0), phase_diffusion(1.0), _samples(4))


# ------------------------------------------------------------ asymptotes

def test_conservative_low_k_asymptote():
    assert asymptotic_omega(conservative(), 0.02, "low") == pytest.approx(2e-4, rel=1e-12)
    with pytest.raises(UnsupportedRegimeError):
        asymptotic_omega(conservative(), 5.0, "high")


def test_collisional_asymptotes_converge():
    p = collisional(1.0)
    devs = []
    for k in (0.05, 0.025, 0.0125):
        w = solve_roots(build_polynomial(p, k)).roots
        a = asymptotic_omega(p, k, "low")
        devs.append(min(abs(w - a)) / abs(a))
    assert devs[0] < 1e-2 and devs[2] < devs[1] < devs[0]
    # high-frequency gapped roots approach +/-2 as the friction gets weak
    weak = collisional(0.01)
    hi = solve_roots(build_polynomial(weak, 0.01)).roots
    for a in asymptotic_omega_candidates(weak, 0.01, "high"):
        assert min(abs(hi - a)) / abs(a) < 1e-2


def test_radiative_asymptotes_converge_in_regime():
    # low-k cube-root law needs tau^(2/3) k^(4/3) >> 1
    p = radiative(1e6)
    w = solve_roots(build_polynomial(p, 0.05)).roots
    cands = asymptotic_omega_candidates(p, 0.05, "low")
    dev = min(min(abs(w - a)) / abs(a) for a in cands)
    assert dev < 1e-2
    p = radiative(100.0)
    w = solve_roots(build_polynomial(p, 0.1)).roots
    a = asymptotic_omega(p, 0.1, "high")
    assert min(abs(w - a)) / abs(a) < 5e-3


def test_phase_diffusion_asymptotes_converge_in_regime():
    p = phase_diffusion(1e4)
    w = solve_roots(build_polynomial(p, 0.05)).roots
    a = asymptotic_omega(p, 0.05, "low")
    assert min(abs(w - a)) / abs(a) < 1e-4
    p = phase_diffusion(100.0)       # high-k law needs k << D
    w = solve_roots(build_polynomial(p, 5.0)).roots
    cands = asymptotic_omega_candidates(p, 5.0, "high")
    dev = min(min(abs(w - a)) / abs(a) for a in cands)
    assert dev < 5e-2


def test_dalembert_low_k_asymptote_converges_in_regime():
    p = dalembert_diffusion(100.0)
    devs = []
    for k in (0.02, 0.01):
        w = solve_roots(build_polynomial(p, k)).roots
        a = asymptotic_omega(p, k, "low")
        devs.append(min(abs(w - a)) / abs(a))
    assert devs[1] < devs[0] < 1e-3
    with pytest.raises(UnsupportedRegimeError):
        asymptotic_omega(p, 5.0, "high")


def test_asymptote_needs_positive_rate():
    with pytest.raises(UnsupportedRegimeError):
        asymptotic_omega(collisional(0.0), 0.1, "low")
    with pytest.raises(InputError):
        asymptotic_omega(collisional(1.0), 0.1, "sideways")
