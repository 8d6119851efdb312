"""Acceptance suite: the thirteen headline guarantees of the package.

Each test computes one criterion end to end at its stated tolerance and
reports a single CRITERION n: PASS/FAIL line (collected into a summary
section after the run).  The closed-form asymptotes (criteria 2 and 3) are
held to their tolerances only inside the validity domain each one states,
by walking that model's own validity parameter deeper into the domain.
Probes outside a domain are asserted against the law that holds there
instead.  The README lists each domain inequality and the deviation that
the formula then carries.
"""

import subprocess
import sys
import warnings

import numpy as np

from rqbm.dispersion import (
    DispersionPoly,
    asymptotic_omega,
    asymptotic_omega_candidates,
    build_polynomial,
    friction_equivalence,
    solve_roots,
    track_branches,
)
from rqbm.evolve import (
    DensityModeState,
    EvolutionConfig,
    evolve_density,
    evolve_field,
    fit_mode_frequency,
    gaussian_packet,
    particle_branch_project,
    plane_wave,
)
from rqbm.grid import ComplexField, Grid1D
from rqbm.madelung import (
    MadelungFields,
    conserved_charges,
    decompose,
    quantum_potential_static,
    residuals,
)
from rqbm.spectrum import Harmonic, nonrel_eigen_richardson, relativistic_map
from rqbm.units import (
    collisional,
    conservative,
    dalembert_diffusion,
    phase_diffusion,
    radiative,
)

from _oracles import gaussian_quantum_potential, nonrel_gaussian, rk4_density_mode

DISSIPATIVE = {
    "collisional": collisional,
    "radiative": radiative,
    "phase-diffusion": phase_diffusion,
    "dalembert-diffusion": dalembert_diffusion,
}


def _match_errors(computed, expected):
    """Per-expected-root distance to the nearest computed root."""
    comp = np.asarray(computed, dtype=complex)
    return [min(abs(comp - e)) for e in np.asarray(expected, dtype=complex)]


def test_criterion_01_dispersion_exact_at_k0(criterion):
    rs = solve_roots(build_polynomial(collisional(0.0), 0.0))
    err_col = max(_match_errors(rs.roots, [0.0, 0.0, 2.0, -2.0]))

    tau = 100.0
    rs = solve_roots(build_polynomial(radiative(tau), 0.0))
    expected = [0.0, 0.0, 2j * (-tau + np.sqrt(tau**2 - 1)), 2j * (-tau - np.sqrt(tau**2 - 1))]
    errs = _match_errors(rs.roots, expected)
    err_rad = max(e / max(abs(x), 1.0) for e, x in zip(errs, expected))

    ok = err_col < 1e-12 and err_rad < 1e-8
    criterion(1, ok, f"collisional abs err {err_col:.2e} (<1e-12), "
                     f"radiative rel err {err_rad:.2e} (<1e-8)")


LOW_K_GRID = np.geomspace(0.01, 0.1, 40)
HALVING_K = (0.05, 0.025, 0.0125)


def _hydro_roots(params, ks):
    """The tracked hydrodynamic root at each probe wavenumber in ks."""
    k_grid = np.unique(np.concatenate([LOW_K_GRID, ks]))
    hydro = track_branches(params, k_grid).hydrodynamic
    return [hydro[int(np.searchsorted(k_grid, kq))] for kq in ks]


def _rel_dev(w, cands):
    """Relative distance from w to the nearest closed-form candidate."""
    return min(abs(w - c) / abs(c) for c in cands)


def _walk(devs, bound):
    """Verdict and report for a walk into a domain: the deviation must fall
    strictly at every step and meet bound at the deepest point."""
    ok = all(a > b for a, b in zip(devs, devs[1:])) and devs[-1] < bound
    return ok, "/".join(f"{d:.2g}" for d in devs)


def test_criterion_02_low_frequency_asymptotes(criterion):
    # Each model walks its own validity parameter deeper into the domain the
    # README states for its formula.  The radiative error grows as k -> 0 and
    # the diffusive one levels off at 1/(4D^2), so only the collisional walk
    # can halve k.
    walks = {
        # k^4 << 4 gamma^2
        "collisional": [(collisional(1.0), k) for k in HALVING_K],
        # tau^(2/3) k^(4/3) >> 1
        "radiative": [(radiative(tau), 0.05) for tau in (1e6, 8e6, 6.4e7)],
        # D >> 1/2
        "phase-diffusion": [(phase_diffusion(d), 0.05) for d in (10.0, 20.0, 40.0)],
        "dalembert-diffusion": [(dalembert_diffusion(d), 0.05) for d in (10.0, 20.0, 40.0)],
    }
    parts, ok = [], True
    for name, walk in walks.items():
        devs = [_rel_dev(_hydro_roots(p, (k,))[0], asymptotic_omega_candidates(p, k, "low"))
                for p, k in walk]
        good, text = _walk(devs, 0.01)
        ok &= good and devs[0] < 0.01
        parts.append(f"{name}: {text}")

    # The rate-1 probes lie outside those domains; the law that holds there
    # is asserted instead.  At tau = 1, tau^(2/3) k^(4/3) <= 0.018 and the
    # pair is sound-like.
    devs = [_rel_dev(w, (k * k / 2 + 1j * k**4 / 8, -k * k / 2 + 1j * k**4 / 8))
            for w, k in zip(_hydro_roots(radiative(1.0), HALVING_K), HALVING_K)]
    good, text = _walk(devs, 0.01)
    ok &= good
    parts.append(f"radiative tau=1 vs +/-k^2/2+i tau k^4/8: {text}")
    # At D = 1 the pair is critically damped at i k^2/2, so i k^2/(4D) is
    # off by 100%.
    for name, make in (("phase-diffusion", phase_diffusion),
                       ("dalembert-diffusion", dalembert_diffusion)):
        params = make(1.0)
        roots = _hydro_roots(params, HALVING_K)
        devs = [_rel_dev(w, (0.5j * k * k,)) for w, k in zip(roots, HALVING_K)]
        off = [_rel_dev(w, asymptotic_omega_candidates(params, k, "low"))
               for w, k in zip(roots, HALVING_K)]
        good, text = _walk(devs, 0.01)
        ok &= good and all(abs(d - 1.0) < 0.01 for d in off)
        parts.append(f"{name} D=1 vs i k^2/2: {text}, vs i k^2/(4D): "
                     + "/".join(f"{d:.4g}" for d in off))
    criterion(2, ok, "; ".join(parts) + " (in-domain <0.01 at every step, "
                     "each walk strictly decreasing to <0.01; D=1 formula dev 1+-0.01)")


def test_criterion_03_high_frequency_asymptotes(criterion):
    rs = solve_roots(build_polynomial(radiative(100.0), 0.0))
    target = -400j
    dev_rad = min(abs(w - target) for w in rs.roots) / abs(target)

    # omega^3 = -4 i D k^2 needs k << sqrt(2) D: D = 1 breaks it at k = 5,
    # D = 100 and 1000 satisfy it.
    devs = []
    for d in (1.0, 100.0, 1000.0):
        params = phase_diffusion(d)
        rs = solve_roots(build_polynomial(params, 5.0))
        principal = asymptotic_omega(params, 5.0, "high")
        devs.append(min(abs(w - principal) for w in rs.roots) / abs(principal))
    good, text = _walk(devs, 0.05)

    ok = dev_rad < 0.005 and good and devs[1] < 0.05
    criterion(3, ok, f"radiative dev from -400i {dev_rad:.2e} (<0.005), "
                     f"phase-diffusion k=5 dev from principal cube root at "
                     f"D=1/100/1000 {text} (strictly decreasing, in-domain <0.05)")


def test_criterion_04_friction_equivalences(criterion):
    rng = np.random.default_rng(20260814)
    parts, worst_all = [], 0.0
    base = collisional(1.0)
    for name, partner in (("radiative", radiative(0.7)),
                          ("phase-diffusion", phase_diffusion(1.3)),
                          ("dalembert-diffusion", dalembert_diffusion(0.6))):
        samples = [
            (complex(rng.normal(), rng.normal()), rng.uniform(0.0, 3.0))
            for _ in range(100)
        ]
        worst = friction_equivalence(base, partner, samples)
        worst_all = max(worst_all, worst)
        parts.append(f"{name} {worst:.2e}")
    criterion(4, worst_all <= 1e-12, "max rel dev per pair: " + ", ".join(parts)
              + " (<=1e-12)")


def test_criterion_05_root_certification_random_quartics(criterion):
    rng = np.random.default_rng(7)
    tag = collisional(1.0)  # any quartic-degree tag; coefficients are overridden
    worst_res = worst_vieta = 0.0
    for _ in range(1000):
        c = rng.standard_normal(5) + 1j * rng.standard_normal(5)
        while abs(c[4]) < 0.05:
            c[4] = rng.standard_normal() + 1j * rng.standard_normal()
        rs = solve_roots(DispersionPoly(coefficients=c, k=1.0, model=tag))
        worst_res = max(worst_res, float(np.max(rs.residuals)))
        worst_vieta = max(worst_vieta, rs.vieta_sum_dev, rs.vieta_prod_dev)
    ok = worst_res <= 1e-10 and worst_vieta <= 1e-10
    criterion(5, ok, f"1000 quartics: worst residual {worst_res:.2e}, "
                     f"worst Vieta dev {worst_vieta:.2e} (both <=1e-10)")


def _fit_mode4(windows):
    snaps = [s for s, _, _ in windows]
    t = np.array([s.t for s in snaps])
    v = np.array([np.fft.fft(s.psi.values)[4] for s in snaps])
    return fit_mode_frequency(t, v).omega


def test_criterion_06_plane_wave_frequency(criterion):
    g = Grid1D(64, 8.0 * np.pi)
    target = np.sqrt(2.0) - 1.0
    state = particle_branch_project(plane_wave(g, 1.0))

    err_exact = abs(_fit_mode4(evolve_field(state, EvolutionConfig(dt=0.1, steps=100))) - target)

    errs = []
    for dt in (0.02, 0.01, 0.005):
        steps = round(10.0 / dt)
        cfg = EvolutionConfig(dt=dt, steps=steps, method="stepper",
                              snapshot_stride=steps // 100)
        errs.append(abs(_fit_mode4(evolve_field(state, cfg)) - target))
    ratios = [errs[0] / errs[1], errs[1] / errs[2]]
    second_order = all(3.5 < r < 4.5 for r in ratios)

    ok = err_exact <= 1e-8 and second_order and errs[-1] < 1e-4
    criterion(6, ok, f"exact_mode err {err_exact:.2e} (<=1e-8); stepper errs "
                     f"{errs[0]:.2e}/{errs[1]:.2e}/{errs[2]:.2e}, halving ratios "
                     f"{ratios[0]:.2f},{ratios[1]:.2f} (in 3.5..4.5), final <1e-4")


def test_criterion_07_nonrelativistic_limit(criterion):
    g = Grid1D(1024, 1000.0)
    sigma, kbar, t_final = 20.0, 0.01, 100.0
    state = particle_branch_project(gaussian_packet(g, sigma, kbar))
    final = list(evolve_field(
        state, EvolutionConfig(dt=1.0, steps=100, snapshot_stride=100)
    ))[-1][0]
    ref = nonrel_gaussian(g.x, t_final, sigma, kbar)
    linf = float(np.max(np.abs(final.psi.values - ref)))
    criterion(7, linf < 1e-5, f"L-inf deviation from spreading Gaussian "
                              f"{linf:.3e} (<1e-5) at T={t_final:g}")


def _charge_series(windows, dt):
    out = []
    prior = None
    for s, prev, nxt in windows:
        g = s.grid
        f0 = decompose(ComplexField(g, prev), prior_S=prior, t=s.t - dt)
        f1 = decompose(s.psi, prior_S=f0.S, t=s.t)
        f2 = decompose(ComplexField(g, nxt), prior_S=f1.S, t=s.t + dt)
        prior = f1.S
        out.append(conserved_charges((f0, f1, f2)))
    return out


def test_criterion_08_conservation(criterion):
    g = Grid1D(1024, 1000.0)
    state = particle_branch_project(gaussian_packet(g, 20.0, 0.1))
    dt = 0.05
    windows = evolve_field(state, EvolutionConfig(dt=dt, steps=2000, snapshot_stride=20))
    charges = _charge_series(windows, dt)
    e = np.array([c.E for c in charges])
    n = np.array([c.N for c in charges])
    n_mod = np.array([c.N_mod for c in charges])
    drift_e = float(np.max(np.abs(e - e[0])) / abs(e[0]))
    drift_nmod = float(np.max(np.abs(n_mod - n_mod[0])) / abs(n_mod[0]))
    drift_n = float(np.max(np.abs(n - n[0])) / abs(n[0]))
    ok = drift_e < 1e-8 and drift_nmod < 1e-8 and drift_n < 1e-4
    criterion(8, ok, f"T=100 drifts: E {drift_e:.2e} (<1e-8), "
                     f"N_mod {drift_nmod:.2e} (<1e-8), N {drift_n:.2e} (<1e-4)")


def test_criterion_09_madelung_residuals(criterion):
    g = Grid1D(64, 8.0 * np.pi)
    state = particle_branch_project(plane_wave(g, 1.0))
    dt = 0.005
    windows = evolve_field(
        state, EvolutionConfig(dt=dt, steps=2000, method="stepper", snapshot_stride=200)
    )
    worst_cont = worst_hj = 0.0
    prior = None
    last_hist = None
    for s, prev, nxt in windows:
        f0 = decompose(ComplexField(g, prev), prior_S=prior, t=s.t - dt)
        f1 = decompose(s.psi, prior_S=f0.S, t=s.t)
        f2 = decompose(ComplexField(g, nxt), prior_S=f1.S, t=s.t + dt)
        prior = f1.S
        d = residuals((f0, f1, f2), conservative())
        worst_cont = max(worst_cont, d.continuity_residual)
        worst_hj = max(worst_hj, d.hj_residual)
        last_hist = (f0, f1, f2)

    bump = 0.1 * np.sin(2.0 * np.pi * g.x / g.length)
    corrupted = [
        MadelungFields(grid=g, rho=f.rho, S=f.S + bump, t=f.t) for f in last_hist
    ]
    hj_bad = residuals(corrupted, conservative()).hj_residual

    ok = worst_cont < 1e-6 and worst_hj < 1e-6 and hj_bad > 1e-2
    criterion(9, ok, f"stepper trajectory: continuity {worst_cont:.2e}, "
                     f"hj {worst_hj:.2e} (both <1e-6); corrupted-S hj "
                     f"{hj_bad:.3g} (>1e-2)")


def test_criterion_10_quantum_potential_closed_form(criterion):
    g = Grid1D(512, 32.0 * np.sqrt(2.0))  # puts x = sqrt(2) exactly on-grid
    rho = np.exp(-g.x**2 / 2.0)
    q = quantum_potential_static(g, rho)
    i0 = int(np.argmin(np.abs(g.x)))
    i_node = int(np.argmin(np.abs(g.x - np.sqrt(2.0))))
    err0 = abs(q[i0] - 0.25)
    err_node = abs(q[i_node])
    core = np.abs(g.x) <= 8.0
    err_core = float(np.max(np.abs(q[core] - gaussian_quantum_potential(g.x[core], 1.0))))
    ok = err0 < 1e-6 and err_node < 1e-6 and err_core < 1e-6
    criterion(10, ok, f"|Q(0)-1/4| {err0:.2e}, |Q(sqrt 2)| {err_node:.2e}, "
                      f"closed-form L-inf on |x|<=8 {err_core:.2e} (all <1e-6)")


def test_criterion_11_spectrum_map(criterion):
    # box length matters more than dx here: walls at +/-200 leave the
    # omega0=0.001 ground state (width ~32) truly untruncated, and one
    # Richardson step then removes the O(dx^2) error to ~1e-14
    eps = nonrel_eigen_richardson(Harmonic(0.001), Grid1D(1024, 400.0), 1)
    res = relativistic_map(eps)
    err_eps = abs(eps[0] - 5e-4)
    err_e = abs(res.E[0] - np.sqrt(1.001))
    err_series = abs(res.E[0] - res.E_series[0])
    ok = err_eps < 1e-8 and err_e < 1e-12 and err_series < 1e-9
    criterion(11, ok, f"|eps0-5e-4| {err_eps:.2e} (<1e-8), |E0-sqrt(1.001)| "
                      f"{err_e:.2e} (<1e-12), |E0-E_series| {err_series:.2e} (<1e-9)")


def test_criterion_12_density_mode_propagator(criterion):
    k = 0.1
    y0 = np.array([1.0, 0.2 - 0.1j, -0.3, 0.05j])
    parts, ok = [], True
    for name, make in DISSIPATIVE.items():
        params = make(1.0)
        init = DensityModeState(k=k, derivs=y0)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            direct = evolve_density(params, init, 50.0)
            two_leg = evolve_density(params, evolve_density(params, init, 25.0), 25.0)
        ref = rk4_density_mode(params, k, y0, 50.0, dt=0.002)
        scale = float(np.max(np.abs(ref)))
        rel = float(np.max(np.abs(direct.derivs[0] - ref))) / scale
        semi = float(np.max(np.abs(two_leg.derivs - direct.derivs))) / scale
        good = rel <= 1e-6 and semi <= 1e-10
        ok &= good
        parts.append(f"{name}: vs RK4 {rel:.2e}, semigroup {semi:.2e}")
    criterion(12, ok, "; ".join(parts) + " (<=1e-6 / <=1e-10)")


def _cli(*argv):
    return subprocess.run(
        [sys.executable, "-m", "rqbm", *map(str, argv)],
        capture_output=True,
        text=True,
    )


def test_criterion_13_cli_determinism_and_exit_codes(criterion, tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    args = ("dispersion", "--model", "collisional", "--gamma", "1.0",
            "--k-steps", "60")
    ra = _cli(*args, "--out", a)
    rb = _cli(*args, "--out", b)
    identical = (
        ra.returncode == 0 and rb.returncode == 0 and a.read_bytes() == b.read_bytes()
    )

    misuse = _cli("dispersion", "--model", "radiative", "--tau", "1.0",
                  "--gamma", "0.5", "--out", tmp_path / "x.csv")
    overflow = _cli("evolve", "--out", tmp_path / "run", "--model", "radiative",
                    "--tau", "100", "--density", "--k", "0.1", "--dt", "1.0",
                    "--steps", "400", "--snapshot-stride", "400")

    ok = identical and misuse.returncode == 2 and overflow.returncode == 3
    criterion(13, ok, f"byte-identical reruns: {identical}; cross-rate misuse "
                      f"exit {misuse.returncode} (want 2); density overflow "
                      f"exit {overflow.returncode} (want 3)")
