"""Dispersion polynomials in complex omega at fixed real k: construction,
certified root solving, branch tracking over k-sweeps, closed-form asymptotes,
and the effective-friction substitution identities.

Sign conventions (documented once, never mixed):

* Dissipative models describe density perturbations ~ exp(i(omega t - k x)),
  so damping means Im(omega) > 0 and a root with Im(omega) < 0 grows.
  The quartic reads  (1/4)(k^2 - omega^2)^2 - omega^2 + friction = 0  with
  friction = i*gamma*omega          (collisional)
           = i*tau*omega^3          (radiative)
           = i*D*k^2*omega          (phase diffusion)
           = i*D*omega*(k^2-omega^2) (d'Alembert diffusion)

* The conservative field uses the quantum convention psi ~ exp(i(k x - omega t)),
  giving omega^2 + 2*omega - k^2 = 0 with the particle branch
  omega_plus = sqrt(1+k^2) - 1 and the gapped branch omega_minus = -2 - omega_plus.

All quantities are in Compton units.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    AmbiguousBranchError,
    InputError,
    NumericalFailureError,
    UnsupportedRegimeError,
)
from .units import Model, ModelParams

#: Certification threshold on the scaled backward-error residual of each root.
RESIDUAL_TOL = 1e-10
#: Roots closer than this (times the root-magnitude scale) merge into one
#: root with a multiplicity tag.
DEGENERACY_TOL = 1e-7
#: Vieta sum/product checks must hold to this relative tolerance.
VIETA_TOL = 1e-10
#: Roots sort with a real part of at most this times |w| read as 0.
_AXIS_TOL = 1e-12

HYDRODYNAMIC = "hydrodynamic"
GAPPED = "zitterbewegung-gapped"
OTHER = "other"


@dataclass(frozen=True)
class DispersionPoly:
    """Ascending coefficients c0..c4 of the dispersion polynomial P(omega)."""

    coefficients: np.ndarray = field(repr=False)
    k: float
    model: ModelParams

    def __post_init__(self) -> None:
        coef = np.asarray(self.coefficients, dtype=np.complex128)
        if coef.shape != (5,):
            raise InputError(f"expected 5 ascending coefficients, got {coef.shape}")
        object.__setattr__(self, "coefficients", coef)

    @property
    def degree(self) -> int:
        return 2 if self.model.model is Model.CONSERVATIVE else 4

    def __call__(self, omega):
        """Evaluate P(omega) by Horner's rule (vectorized over omega)."""
        out = _horner(self.coefficients, np.asarray(omega, dtype=np.complex128))
        return out if out.ndim else complex(out)

    def derivative(self, omega):
        out = _horner(_deriv_coef(self.coefficients, 1), np.asarray(omega, dtype=np.complex128))
        return out if out.ndim else complex(out)

    def residual_scale(self, omega):
        """Backward-error denominator: sum_j |c_j| |omega|^j."""
        a = np.abs(np.asarray(omega, dtype=np.complex128))
        out = _horner(np.abs(self.coefficients), a)
        return out if out.ndim else float(out)


def _horner(coefs, x):
    """sum_j coefs[j] x^j by Horner's rule, each coefficient broadcast
    against x: pass a coefficient vector, or the transposed columns
    `coef.T[:, :, None]` of an (n, m) stack to evaluate row i at x[i]."""
    out = np.zeros_like(x)
    for c in coefs[::-1]:
        out = out * x + c
    return out


def _coefficients(params: ModelParams, ks: np.ndarray) -> np.ndarray:
    """Ascending coefficients (len(ks), 5) at each k of ks, rounded as a one-k
    build rounds them; raises InputError at the first k that overflows."""
    c = np.zeros((len(ks), 5), dtype=np.complex128)
    with np.errstate(over="ignore", invalid="ignore"):
        if params.model is Model.CONSERVATIVE:
            # the roots lie near -+k, where the certificates sum |c_j| |w|^j ~ 2 k^2
            c[:, 0] = np.where(np.isfinite(2.0 * ks * ks), -ks * ks, np.inf)
            c[:, 1] = 2.0
            c[:, 2] = 1.0
        else:
            # (1/4)(k^2 - omega^2)^2 - omega^2 expanded in powers of omega; k**4
            # of a numpy scalar calls the C pow, as Python's does (array powers
            # round some k apart), and is inf where Python's overflows
            c[:, 0] = [0.25 * k**4 for k in ks]
            c[:, 2] = -(1.0 + 0.5 * ks * ks)
            c[:, 4] = 0.25
            if params.model is Model.COLLISIONAL:
                c[:, 1] += 1j * params.gamma
            elif params.model is Model.RADIATIVE:
                c[:, 3] += 1j * params.tau
            else:  # both diffusions
                c[:, 1].imag = params.diffusion * ks * ks
                if params.model is Model.DALEMBERT_DIFFUSION:
                    c[:, 3] += -1j * params.diffusion
    if not np.isfinite(c).all():
        k = float(ks[np.argmin(np.isfinite(c).all(axis=1))])
        raise InputError(f"k = {k!r} overflows the {params.model.value} dispersion polynomial")
    return c


def build_polynomial(params: ModelParams, k: float) -> DispersionPoly:
    """Dispersion polynomial of the model at real wavenumber k >= 0."""
    if not (np.isfinite(k) and k >= 0.0):
        raise InputError(f"k must be finite and >= 0, got {float(k)!r}")
    k = float(k)
    return DispersionPoly(coefficients=_coefficients(params, np.array([k]))[0], k=k, model=params)


@dataclass(frozen=True)
class RootSet:
    """Certified roots of one dispersion polynomial.

    `roots` has length equal to the polynomial degree, with degenerate roots
    repeated; `unique_roots`/`multiplicities` carry the clustered view.
    `residuals` are scaled backward errors |P(w)| / sum_j |c_j||w|^j.
    """

    roots: np.ndarray = field(repr=False)
    residuals: np.ndarray = field(repr=False)
    k: float
    model: ModelParams
    unique_roots: np.ndarray = field(repr=False)
    multiplicities: tuple
    vieta_sum_dev: float
    vieta_prod_dev: float

    @property
    def growing(self) -> np.ndarray:
        """Mask over roots that grow in time under the model's convention."""
        if self.model.model is Model.CONSERVATIVE:
            return np.zeros(len(self.roots), dtype=bool)
        return _growing(self.roots)


def _growing(roots: np.ndarray) -> np.ndarray:
    """Mask over dissipative roots (any shape) with Im w below -1e-12 max(1, |w|)."""
    return roots.imag < -1e-12 * np.maximum(1.0, np.abs(roots))


def _deriv_coef(coef: np.ndarray, order: int) -> np.ndarray:
    """Ascending coefficients of the order-th derivative (of each row)."""
    c = np.asarray(coef, dtype=np.complex128)
    for _ in range(order):
        c = c[..., 1:] * np.arange(1, c.shape[-1])
    return c


def _newton(coef: np.ndarray, w: np.ndarray, iters: int, reach=np.inf) -> np.ndarray:
    """Newton-polish each root w[i, j] of the polynomial with ascending
    coefficients coef[i], in numpy's array arithmetic.  A root keeps its best
    iterate by |P| and stops at its first step that does not lower |P|, at a
    vanishing derivative, or at its first step that lands farther than reach
    (broadcast against w) from its start, where it has wandered toward a
    different root.  numpy rounds an array element alike at any array
    length, so a row's bits do not depend on the stack it is polished in."""
    cols = coef.T[:, :, None]
    live = np.ones(w.shape, dtype=bool)
    with np.errstate(all="ignore"):
        dcols = _deriv_coef(coef, 1).T[:, :, None]
        start, best, pw = w, w, _horner(cols, w)
        best_res = np.abs(pw)
        for _ in range(iters):
            d = _horner(dcols, w)
            live &= ~(np.abs(d) < 1e-300)
            w = w - pw / d
            live &= ~(np.abs(w - start) > reach)
            pw = _horner(cols, w)
            res = np.abs(pw)
            live &= res < best_res
            best = np.where(live, w, best)
            best_res = np.where(live, res, best_res)
            if not live.any():
                break
    return best


def _companion_roots(coef: np.ndarray) -> np.ndarray:
    """Roots of each row of an (n, d + 1) ascending coefficient stack whose
    end coefficients are nonzero: the eigenvalues of the companion matrices
    np.roots builds, in one batched call.  Each row is backward stable on
    its own (Edelman & Murakami, Math. Comp. 64, 1995).  A row whose
    companion is not finite (a coefficient over the leading one overflows)
    gets NaN roots, which fail its certificates."""
    p = coef[:, ::-1]
    d = p.shape[1] - 1
    with np.errstate(over="ignore"):
        top = -p[:, 1:] / p[:, :1]
    finite = np.isfinite(top).all(axis=1)
    a = np.zeros((np.count_nonzero(finite), d, d), dtype=np.complex128)
    a[:, 1:, :-1] = np.eye(d - 1)
    a[:, 0, :] = top[finite]
    roots = np.full((len(p), d), np.nan, dtype=np.complex128)
    roots[finite] = np.linalg.eigvals(a)
    return roots


def _certificates(coef: np.ndarray, roots: np.ndarray):
    """Scaled residuals (n, deg) and Vieta sum and product deviations (n,)
    of sorted root rows roots (n, deg) of the polynomials coef (n, 5)."""
    deg = roots.shape[1]
    cols = coef.T[:, :, None]
    with np.errstate(over="ignore", invalid="ignore"):
        denom = _horner(np.abs(cols), np.abs(roots))
        pvals = np.abs(_horner(cols, roots))
        residuals = np.where(denom > 0, pvals / np.where(denom > 0, denom, 1.0), 0.0)
        # |P| / inf reads 0 without checking anything: such a row fails
        residuals[~np.isfinite(denom).all(axis=1)] = np.inf

        # Vieta: sum against -c_{d-1}/c_d, product against (+/-)c_0/c_d
        lead = coef[:, deg]
        sum_target = -coef[:, deg - 1] / lead
        prod_target = coef[:, 0] / lead * (1 if deg % 2 == 0 else -1)
        sum_dev = np.abs(roots.sum(axis=1) - sum_target) / np.maximum(
            np.maximum(np.abs(sum_target), np.abs(roots).sum(axis=1)), 1e-300
        )
        prod_dev = np.abs(np.prod(roots, axis=1) - prod_target) / np.maximum(
            np.maximum(np.abs(prod_target), np.prod(np.abs(roots), axis=1)), 1e-300
        )
    return residuals, sum_dev, prod_dev


def _interpret(coef, raw, tol):
    """Cluster each row of raw roots (n, deg) at width tol, polish the means
    and certify them: the arrays (roots, residuals, Vieta sum and product
    deviations, cluster label of each root) and the mask of certified rows.

    Root j joins the first cluster whose mean lies within tol * max(1, |w|,
    |mean|) (relative above magnitude 1, so root sets spanning many decades
    keep their small members distinct), or starts the next one.  Simple means
    take two Newton steps.  An m-fold mean, which carries the eigensolver's
    O(eps^(1/m)) splitting error that Vieta rejects, takes four on P^(m-1):
    the root is simple there, so Newton is not held at the ~sqrt(eps) noise
    floor of P near it, and sits at a near-degenerate cluster's centroid up
    to O(split^2).  A step landing beyond 4 tol max(1, |mean|) has wandered
    toward another root of P^(m-1).  All multiple clusters share one call.

    Roots sort by (Re w, Im w), both `roots` and `unique_roots`, with a real
    part within _AXIS_TOL |w| of the axis read as 0: an imaginary-axis root
    sorts by Im w alone, not by the sign of its rounding noise."""
    n, deg = raw.shape
    rows = np.arange(n)
    total = np.zeros((n, deg), dtype=np.complex128)
    count = np.zeros((n, deg), dtype=int)
    label = np.empty((n, deg), dtype=int)
    made = np.zeros(n, dtype=int)
    # an empty cluster's mean is 0 / 0, and a non-finite root makes inf - inf
    with np.errstate(invalid="ignore"):
        for j in range(deg):
            w = raw[:, j]
            size = np.abs(w)
            lab = made.copy()
            for c in range(j):
                m = total[:, c] / count[:, c]
                lab[(c < lab) & (np.abs(w - m) <= tol * np.fmax(np.fmax(1.0, size), np.abs(m)))] = c
            made += lab == made
            total[rows, lab] += w
            count[rows, lab] += 1
            label[:, j] = lab
        means = total / count
    polished = np.where(means == 0, means, _newton(coef, means, 2))
    r, c = np.nonzero((count > 1) & (means != 0))
    if len(r):  # P^(m-1) of each multiple cluster, zero-padded to one width
        m = count[r, c]
        q = np.zeros((len(r), deg + 1), dtype=np.complex128)
        for mult in set(m.tolist()):
            sel = m == mult
            q[sel, :deg + 2 - mult] = _deriv_coef(coef[r[sel], :deg + 1], mult - 1)
        start = means[r, c, None]
        polished[r, c] = _newton(q, start, 4, 4.0 * tol * np.fmax(1.0, np.abs(start)))[:, 0]

    def axis_real(w):
        return np.where(np.abs(w.real) <= _AXIS_TOL * np.abs(w), 0.0, w.real)

    # each root takes its cluster's mean; ties sort in cluster order, as the
    # sorted distinct means repeated by multiplicity would
    vals = np.take_along_axis(polished, label, 1)
    order = np.lexsort((label, vals.imag, axis_real(vals)), axis=-1)
    roots = np.take_along_axis(vals, order, 1)
    residuals, sum_dev, prod_dev = _certificates(coef, roots)
    ok = (np.all(residuals <= RESIDUAL_TOL, axis=1)
          & (sum_dev <= VIETA_TOL) & (prod_dev <= VIETA_TOL))
    return (roots, residuals, sum_dev, prod_dev, np.take_along_axis(label, order, 1)), ok


def _rootset(out, r: int, k: float, model: ModelParams) -> RootSet:
    """The RootSet of row r of `_interpret`'s arrays out: a cluster's equal
    roots sit side by side, so its first one is its unique root."""
    roots, residuals, sum_dev, prod_dev, label = (a[r] for a in out)
    first = np.flatnonzero(np.diff(label, prepend=-1))
    return RootSet(roots=roots, residuals=residuals, k=float(k), model=model,
                   unique_roots=roots[first],
                   multiplicities=tuple(np.diff(first, append=len(roots)).tolist()),
                   vieta_sum_dev=float(sum_dev), vieta_prod_dev=float(prod_dev))


def _solve_stack(params: ModelParams, ks, coef: np.ndarray):
    """`_interpret`'s arrays for the model's polynomials with ascending
    coefficients coef (n, 5) at the wavenumbers ks, batched by their exact
    zero roots.  Each row gets the bits of its own one-row solve.

    Near an m-fold root the eigensolver error grows like eps^(1/m), which can
    exceed the nominal clustering width (a coalescing pair split by ~sqrt(eps)
    reads as two simple roots with irreducible error), so a row that fails
    certification is clustered again, wider, until it certifies.  The last
    resort, factor 0, takes the polished roots unclustered: a genuine pair split
    by less than the clustering width (phase diffusion at D = 1 and k ~ 1e-3
    splits by ~1e-9) fails Vieta when merged but certifies as two simple roots.
    """
    deg = 2 if params.model is Model.CONSERVATIVE else 4
    if np.any(coef[:, deg] == 0):
        raise InputError("leading coefficient vanishes")
    # exact zero roots (k = 0 gives a double one) come off symbolically;
    # polished companion eigenvalues take the rest, at any degree (a bare
    # c_deg w^deg has no rest)
    zeros = np.argmax(coef[:, :deg + 1] != 0, axis=1)
    raw = np.zeros((len(coef), deg), dtype=np.complex128)
    for z in set(zeros.tolist()) - {deg}:  # np.unique would import numpy.ma
        rows = np.flatnonzero(zeros == z)
        raw[rows, z:] = _newton(coef[rows], _companion_roots(coef[rows, z:deg + 1]), 3)
    out, live = None, np.arange(len(coef))
    for factor in (1.0, 10.0, 100.0, 1e3, 1e4, 0.0):
        got, ok = _interpret(coef[live], raw[live], DEGENERACY_TOL * factor)
        # a row that never certifies keeps its base interpretation for the error
        out = got if out is None else out
        for a, g in zip(out, got):
            a[live[ok]] = g[ok]
        live = live[~ok]
        if not len(live):
            return out
    first = _rootset(out, live[0], ks[live[0]], params)
    err = NumericalFailureError(
        f"root certification failed at k={first.k}: residuals={first.residuals}, "
        f"vieta=({first.vieta_sum_dev:.3e}, {first.vieta_prod_dev:.3e})"
    )
    err.rootset = first
    raise err


def solve_roots(poly: DispersionPoly) -> RootSet:
    """All complex roots with multiplicity, certified by backward-error
    residuals and Vieta checks at the module's thresholds; raises
    NumericalFailureError (carrying the best-effort roots) when that fails."""
    out = _solve_stack(poly.model, [poly.k], poly.coefficients[None])
    return _rootset(out, 0, poly.k, poly.model)


@dataclass(frozen=True)
class BranchCurve:
    """Continuity-matched root curves over an ascending k grid, each root
    with the certified residual `solve_roots` gave it."""

    k_grid: np.ndarray = field(repr=False)
    branches: np.ndarray = field(repr=False)  # shape (degree, nk)
    residuals: np.ndarray = field(repr=False)  # shape (degree, nk)
    labels: tuple
    model: ModelParams

    def branch(self, label: str) -> np.ndarray:
        for i, lab in enumerate(self.labels):
            if lab == label:
                return self.branches[i]
        raise InputError(f"no branch labeled {label!r}; have {self.labels}")

    @property
    def hydrodynamic(self) -> np.ndarray:
        return self.branch(HYDRODYNAMIC)


#: Every permutation of range(n), one per row, for the root counts in use.
_PERMS = {n: np.array(list(itertools.permutations(range(n)))) for n in (2, 4)}
#: The pairings of range(n) into twins: the fixed-point-free involutions.
_PAIRINGS = {n: [p for p in perms if np.all(p[p] == np.arange(n)) and np.all(p != np.arange(n))]
             for n, perms in _PERMS.items()}
#: Halvings of one ambiguous k step before the tracker gives up.
_BISECT_DEPTH = 12
#: k points a sweep builds, solves and certifies at a time.
_BLOCK = 256


def _mirror_paired(vals: np.ndarray, tol: float) -> bool:
    """True when some pairing of vals into twins maps each w to -conj(w)
    within tol: vals is all off-axis mirror pairs (an odd count never is)."""
    return any(np.all(np.abs(vals[p] + np.conj(vals)) <= tol) for p in _PAIRINGS.get(len(vals), ()))


def _match(prev: np.ndarray, new: np.ndarray) -> np.ndarray:
    """Globally optimal assignment of new roots to previous ones: the
    permutation p with new[p[i]] continuing prev[i].

    Exhaustive over permutations (degree <= 4, so <= 24); raises if the best
    and a genuinely different pairing are within 10% of each other.  Costs
    within 1e-9 of the lowest tie exactly, and the first of them in _PERMS
    order wins, so rounding noise in the costs cannot pick the columns.
    """
    perms = _PERMS[len(prev)]
    costs = np.abs(new[perms] - prev).sum(axis=1)
    best = int(costs.argmin())
    best_cost = float(costs[best])
    near = costs < 1.1 * best_cost + 1e-300
    near[best] = False
    if not near.any():
        return perms[best]
    tie = 1e-9 * max(best_cost, 1e-30)
    near[best] = True
    best = int(np.argmax(costs - best_cost <= tie))
    near[best] = False
    assigned = new[perms[best]]
    scale = max(1.0, float(np.abs(new).max()), float(np.abs(prev).max()))
    tol = DEGENERACY_TOL * scale
    for r in np.flatnonzero(near):
        cost = float(costs[r])
        alt = new[perms[r]]
        differs = np.flatnonzero(np.abs(alt - assigned) > tol)
        if len(differs) == 0:
            continue
        # Exact ties come from symmetric configurations (a degenerate parent
        # splitting, or a mirror pair born on the imaginary axis); either
        # continuation is equally valid and no refinement can break the tie,
        # so the first tied permutation is kept deterministically.  Only
        # inexact near-ties signal an avoided crossing that a finer grid
        # would disambiguate.
        if cost - best_cost <= tie:
            continue
        parents = prev[differs]
        if np.all(np.abs(parents - parents[0]) <= tol):
            continue
        # The dissipative quartics satisfy P(-conj(w)) = conj(P(w)), so roots
        # are imaginary-axis singletons or exact mirror pairs +/-a + i*b.  If
        # the contested positions are mirror pairs on both sides of the step,
        # the minimal assignment provably keeps each curve on its own side of
        # the axis (|a'-a| < a'+a); the rival pairing just swaps the mirror
        # twins and no grid refinement is needed to reject it.
        if _mirror_paired(assigned[differs], tol) and _mirror_paired(parents, tol):
            continue
        raise AmbiguousBranchError(
            f"branch matching ambiguous: costs {best_cost:.6e} vs {cost:.6e}, "
            f"relative gap {(cost - best_cost) / best_cost:.2e}"
        )
    return perms[best]


def _continue(params: ModelParams, k0: float, prev: np.ndarray, k1: float,
              new: np.ndarray, depth: int = 0) -> np.ndarray:
    """The permutation p with new[p] continuing prev from k0 to k1.  A step
    the matcher finds ambiguous is matched through its midpoint (geometric
    when k0 > 0), recursively, down to _BISECT_DEPTH halvings; the midpoint
    roots only carry the match and are not kept."""
    try:
        return _match(prev, new)
    except AmbiguousBranchError as exc:
        if depth == _BISECT_DEPTH:
            raise AmbiguousBranchError(
                f"{exc}, between k = {k0:.17g} and k = {k1:.17g} after {depth} halvings "
                "of the grid step"
            ) from exc
    km = math.sqrt(k0 * k1) if k0 > 0 else 0.5 * (k0 + k1)
    mid = solve_roots(build_polynomial(params, km)).roots
    mid = mid[_continue(params, k0, prev, km, mid, depth + 1)]
    return _continue(params, km, mid, k1, new, depth + 1)


def track_branches(params: ModelParams, k_grid) -> BranchCurve:
    """Certified roots over an ascending k grid, solved _BLOCK k at a time into
    the returned arrays, then matched in place one column after another."""
    k_grid = np.asarray(k_grid, dtype=float)
    if k_grid.ndim != 1 or len(k_grid) < 2:
        raise InputError("k_grid must be a 1-D array with at least 2 points")
    if not np.all(np.diff(k_grid) > 0):
        raise InputError("k_grid must be strictly ascending")

    build_polynomial(params, k_grid[0])  # a negative k is an InputError
    try:
        deg = build_polynomial(params, k_grid[-1]).degree
    except InputError:  # name the first k that fails, as building every k in order would
        _coefficients(params, k_grid[:-1])
        raise
    branches = np.empty((deg, len(k_grid)), dtype=np.complex128)
    residuals = np.empty((deg, len(k_grid)))
    for j in range(0, len(k_grid), _BLOCK):
        ks = k_grid[j:j + _BLOCK]
        roots, res = _solve_stack(params, ks, _coefficients(params, ks))[:2]
        branches[:, j:j + len(ks)], residuals[:, j:j + len(ks)] = roots.T, res.T
    for j in range(1, len(k_grid)):
        perm = _continue(params, k_grid[j - 1], branches[:, j - 1], k_grid[j], branches[:, j])
        branches[:, j] = branches[perm, j]
        residuals[:, j] = residuals[perm, j]

    w0 = branches[:, 0]
    labels = [OTHER] * deg
    labels[int(np.argmin(np.abs(w0)))] = HYDRODYNAMIC
    for i in range(deg):
        if labels[i] is OTHER and abs(w0[i].real) > 1.0:
            labels[i] = GAPPED
    return BranchCurve(k_grid=k_grid, branches=branches, residuals=residuals,
                       labels=tuple(labels), model=params)


_EQUIV_PAIRS = {
    (Model.COLLISIONAL, Model.RADIATIVE),
    (Model.COLLISIONAL, Model.PHASE_DIFFUSION),
    (Model.COLLISIONAL, Model.DALEMBERT_DIFFUSION),
}


def friction_equivalence(params_a: ModelParams, params_b: ModelParams, samples) -> float:
    """Max relative deviation of the effective-friction substitution identity.

    The collisional polynomial with gamma replaced by tau*omega^2, D*k^2 or
    D*(k^2-omega^2) is algebraically the radiative, phase-diffusion or
    d'Alembert-diffusion polynomial; here both sides are evaluated through
    their own coefficient routes, so the result measures rounding only.
    """
    a, b = params_a, params_b
    if (b.model, a.model) in _EQUIV_PAIRS:
        a, b = b, a
    if (a.model, b.model) not in _EQUIV_PAIRS:
        raise InputError(
            f"no friction equivalence between {params_a.model.value} and "
            f"{params_b.model.value}"
        )
    worst = 0.0
    for omega, k in samples:
        omega = complex(omega)
        k = float(k)
        if b.model is Model.RADIATIVE:
            gamma_eff = b.tau * omega * omega
        elif b.model is Model.PHASE_DIFFUSION:
            gamma_eff = b.diffusion * k * k
        else:
            gamma_eff = b.diffusion * (k * k - omega * omega)
        base = build_polynomial(ModelParams(Model.COLLISIONAL, gamma=0.0), k)
        lhs = base(omega) + 1j * gamma_eff * omega
        pb = build_polynomial(b, k)
        rhs = pb(omega)
        scale = base.residual_scale(omega) + abs(gamma_eff * omega)
        worst = max(worst, abs(lhs - rhs) / max(scale, 1e-300))
    return worst


def _principal_cbrt(w: complex) -> complex:
    """Principal cube root (argument in (-pi/3, pi/3])."""
    return complex(w) ** (1.0 / 3.0)


def asymptotic_omega_candidates(params: ModelParams, k: float, regime: str) -> tuple:
    """All closed-form candidates for the asymptotic root (cube-root cases
    have three; which one is physical is deliberately not decided here)."""
    if regime not in ("low", "high"):
        raise InputError(f"regime must be 'low' or 'high', got {regime!r}")
    if not (np.isfinite(k) and k >= 0.0):
        raise InputError(f"k must be finite and >= 0, got {float(k)!r}")
    m, rate = params.model, params.rate
    if m is not Model.CONSERVATIVE and rate == 0.0:
        raise UnsupportedRegimeError(f"{m.value} asymptote needs a positive rate")
    turn = np.exp(2j * np.pi / 3)

    if m is Model.CONSERVATIVE:
        if regime == "low":
            return (complex(0.5 * k * k),)
    elif m is Model.COLLISIONAL:
        if regime == "low":
            return (1j * k**4 / (4.0 * rate),)
        return (2.0 + 0.0j, -2.0 + 0.0j)
    elif m is Model.RADIATIVE:
        if regime == "low":
            w = _principal_cbrt(1j * k**4 / (4.0 * rate))
            return (w, w * turn, w * turn**2)
        return (-4j * rate,)
    elif m is Model.PHASE_DIFFUSION:
        if regime == "low":
            return (1j * k * k / (4.0 * rate),)
        w = _principal_cbrt(-4j * rate * k * k)
        return (w, w * turn, w * turn**2)
    elif m is Model.DALEMBERT_DIFFUSION:
        # not written out in the source analysis; follows from gamma -> D k^2
        # in the collisional low-frequency formula since omega << k there
        if regime == "low":
            return (1j * k * k / (4.0 * rate),)
    raise UnsupportedRegimeError(f"no {regime}-frequency formula for {m.value}")


def asymptotic_omega(params: ModelParams, k: float, regime: str) -> complex:
    """The principal closed-form asymptotic root (first candidate)."""
    return asymptotic_omega_candidates(params, k, regime)[0]
