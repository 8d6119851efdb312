"""A numpy eigensolver for the lowest eigenvalues of a symmetric tridiagonal
matrix, accurate to eps ||T|| like LAPACK's stebz bisection.

Eigenvalue counts by odd-even cyclic reduction (Sylvester's law of inertia)
bracket each wanted eigenvalue, and inverse iteration refines it until a
Kato-Temple bound from its residual certifies it.  Every step is a few
vectorized numpy operations per reduction level, over several shifts at once.
"""

from __future__ import annotations

import numpy as np

from .errors import NumericalFailureError

# a pivot below this (times the largest squared coupling, if above 1) is
# replaced; see _reduce for why no intermediate can then overflow
_PIVMIN = 2.0**-500
# elements of one (rows, n) work array of the eigensolver: 512 KiB.  Its
# blocks partition shifts that are counted or refined independently, so
# the eigenvalues do not depend on it, only the work arrays' size does
_BLOCK = 1 << 16
_EPS = 2.0**-52


def _reduce(d: np.ndarray, e: np.ndarray, f: np.ndarray | None = None):
    """Odd-even cyclic reduction of the symmetric tridiagonal matrices with
    diagonals d[k] and off-diagonal e (shared, or e[k]): the number of
    negative eigenvalues of each and, given right-hand sides f, the solutions.

    The odd-indexed unknowns do not couple to each other, so eliminating them
    is a congruence that leaves a tridiagonal Schur complement on the even
    ones.  By Sylvester's law and Haynsworth's inertia additivity, the
    negative pivots of every level plus the last 1x1 pivot count the negative
    eigenvalues.  Each reduced diagonal is an original diagonal entry plus
    corrections, so replacing a pivot p with |p| < lim by -lim changes one
    diagonal entry of the matrix by at most 2 lim; while no coupling exceeds
    1, lim = _PIVMIN and, by Weyl's theorem, no eigenvalue moves by more than
    2^-499.  With every pivot at least lim = _PIVMIN max(1, max |e|)^2 in
    magnitude, no multiplier e/p, correction e^2/p or new coupling e e'/p
    exceeds 1/_PIVMIN = 2^500.  From entries of magnitude at most 4 no
    coupling can pass 2^500, no square 2^1000 and no diagonal 2^507, so the
    counts never overflow (the solutions can: the caller handles that).
    """
    neg = np.zeros(len(d), dtype=np.intp)
    levels = []
    while d.shape[1] > 1:
        m = d.shape[1] // 2
        el, er = e[..., 0::2], e[..., 1::2]  # odd unknowns' left and right couplings
        k = er.shape[-1]  # m, or m - 1 when the last unknown is odd
        lim = _PIVMIN * np.maximum(1.0, np.max(np.abs(e), axis=-1, keepdims=True)) ** 2
        p = d[:, 1::2]
        p = np.where(np.abs(p) < lim, -lim, p)
        neg += np.count_nonzero(p < 0, axis=1)
        tl, tr = el / p, er / p[:, :k]
        dn = d[:, 0::2].copy()
        dn[:, :m] -= el * tl
        dn[:, 1:k + 1] -= er * tr
        if f is not None:
            fo = f[:, 1::2]
            fn = f[:, 0::2].copy()
            fn[:, :m] -= tl * fo
            fn[:, 1:k + 1] -= tr * fo[:, :k]
            levels.append((p, el, er, fo))
            f = fn
        d, e = dn, -(tl[:, :k] * er)
    p = d[:, 0]
    p = np.where(np.abs(p) < _PIVMIN, -_PIVMIN, p)
    neg += p < 0
    if f is None:
        return neg
    x = f / p[:, None]
    for p, el, er, fo in reversed(levels):  # x holds the even unknowns of this level
        m, k = p.shape[1], er.shape[-1]
        xo = fo - el * x[:, :m]
        xo[:, :k] -= er * x[:, 1:k + 1]
        xo /= p
        full = np.empty((len(x), x.shape[1] + m))
        full[:, 0::2], full[:, 1::2] = x, xo
        x = full
    return neg, x


def _counts(d: np.ndarray, e: np.ndarray, shifts: np.ndarray) -> np.ndarray:
    """The number of eigenvalues below each shift."""
    rows = max(1, _BLOCK // len(d))
    return np.concatenate([_reduce(d - shifts[j:j + rows, None], e)
                           for j in range(0, len(shifts), rows)])


def _start(n: int) -> np.ndarray:
    """A fixed start vector for inverse iteration, in [-1/2, 1/2): splitmix64
    of the index.  It must not be smooth or symmetric, which would leave it
    nearly orthogonal to some eigenvectors."""
    z = np.arange(1, n + 1, dtype=np.uint64) * np.uint64(0x9E3779B97F4A7C15)
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    z ^= z >> np.uint64(31)
    return (z >> np.uint64(11)).astype(float) * 2.0**-53 - 0.5


def _tol(tnorm, x):
    """stebz's bisection tolerance at x: eps ||T||, or 2 eps relative."""
    return _EPS * np.maximum(tnorm, 2 * np.abs(x))


def _rayleigh(d, e, sigma, below, above, tnorm):
    """Rayleigh quotients rho of inverse iteration at the shifts sigma, NaN
    where none was certified.  The eigenvalue lambda sought at sigma is the
    only one between below and above, the bounds on its neighbours.  A rho is
    certified when it lies between them and r^2 / g, with r its residual and
    g its distance to those bounds, is at most a quarter of stebz's
    tolerance: then |rho - lambda| <= r^2 / g (Kato-Temple)."""
    rho = np.full(len(sigma), np.nan)
    todo = np.arange(len(sigma))
    y = np.tile(_start(len(d)), (len(sigma), 1))
    for _ in range(10):  # about 3 steps suffice at the brackets' 64x separation
        try:
            z = _reduce(d - sigma[todo, None], e, y)[1]
            z /= np.sqrt(np.sum(z * z, axis=1, keepdims=True))
        except FloatingPointError:  # a solve overflowed: bisection takes these
            break
        tz = d * z
        tz[:, :-1] += e * z[:, 1:]
        tz[:, 1:] += e * z[:, :-1]
        rq = np.sum(z * tz, axis=1)
        r2 = np.sum((tz - rq[:, None] * z) ** 2, axis=1)
        g = np.minimum(rq - below[todo], above[todo] - rq)
        tol = _tol(tnorm, rq)
        good = (g > tol) & (r2 <= 0.25 * g * tol)
        rho[todo[good]] = rq[good]
        todo, y = todo[~good], z[~good]
        if not len(todo):
            break
    return rho


def lowest_eigenvalues(diag: np.ndarray, off: np.ndarray, count: int) -> np.ndarray:
    """The lowest `count` eigenvalues, ascending, of the symmetric tridiagonal
    matrix T with diagonal `diag` and off-diagonal `off`, to the accuracy of
    LAPACK's stebz bisection: about eps ||T||.

    T is first scaled by a power of two to entries below 1, which is exact.
    Counts (`_reduce`) bracket each wanted eigenvalue, and the next one up
    for its gap: Gershgorin bounds, one geometric ladder of shifts
    gl + w 2^-j, then bisection until each bracket holds one eigenvalue and
    is narrower than 1/64 of the gap to its neighbours' brackets.  Inverse
    iteration at each bracket's midpoint refines the value (`_rayleigh`).
    Clusters narrower than stebz's tolerance, and values inverse iteration
    does not certify, are bisected to that tolerance instead.
    """
    scale = np.ldexp(1.0, -int(np.frexp(max(np.max(np.abs(diag)), np.max(np.abs(off))))[1]))
    with np.errstate(all="raise", under="ignore"):
        try:
            return _lowest_scaled(diag * scale, off * scale, count) / scale
        except FloatingPointError as exc:
            raise NumericalFailureError(f"tridiagonal eigensolver failed: {exc}") from exc


def _lowest_scaled(d: np.ndarray, e: np.ndarray, count: int) -> np.ndarray:
    """`lowest_eigenvalues` of T scaled to entries below 1."""
    n = len(d)
    rad = np.zeros(n)
    rad[:-1] += np.abs(e)
    rad[1:] += np.abs(e)
    gl, gu = np.min(d - rad), np.max(d + rad)
    tnorm = max(-gl, gu)  # max(|gl|, |gu|), as gl <= gu
    pad = 2 * n * _EPS * tnorm  # as stebz widens them
    gl, gu = gl - pad, gu + pad
    m = min(count + 1, n)
    idx = np.arange(m)
    lo, hi = np.full(m, gl), np.full(m, gu)
    nlo, nhi = np.zeros(m, dtype=np.intp), np.full(m, n, dtype=np.intp)

    def tol(a, b):  # at the larger end of each bracket
        return _tol(tnorm, np.maximum(np.abs(a), np.abs(b)))

    def observe(x, c):
        """Narrow each bracket by the shifts x that fall inside it, with counts c."""
        order = np.argsort(x, kind="stable")
        x, c = x[order], c[order]
        # the largest shift whose count, and that of every shift below it, is <= i
        j = np.searchsorted(np.maximum.accumulate(c), idx, side="right") - 1
        new = (j >= 0) & (lo < x[j]) & (x[j] < hi)
        lo[new], nlo[new] = x[j[new]], c[j[new]]
        # the smallest shift whose count, and that of every shift above it, is > i
        j = np.minimum(np.searchsorted(np.minimum.accumulate(c[::-1])[::-1], idx,
                                       side="right"), len(x) - 1)
        new = (c[j] > idx) & (lo < x[j]) & (x[j] < hi)
        hi[new], nhi[new] = x[j[new]], c[j[new]]

    def bisect(done):
        for _ in range(200):
            act = np.flatnonzero(~done())
            if not len(act):
                return
            mid = np.sort(0.5 * (lo[act] + hi[act]))
            mid = mid[np.concatenate(([True], mid[1:] != mid[:-1]))]
            observe(mid, _counts(d, e, mid))
        raise NumericalFailureError("tridiagonal eigensolver failed: bisection did not converge")

    def separated():
        width = hi - lo
        gap = np.full(m + 1, np.inf)  # lower bounds on the gaps between brackets
        gap[1:-1] = lo[1:] - hi[:-1]
        done = ((nlo == idx) & (nhi == idx + 1) & (64 * width <= np.minimum(gap[:-1], gap[1:]))
                | (width <= tol(lo, hi)))
        if m > count:  # the next level up only bounds the top one's gap
            done[-1] |= (nlo[-1] == count) & (width[-1] <= gap[-2])
        return done

    rows = max(1, _BLOCK // n)
    for j in range(1, 1200, rows):
        x = gl + (gu - gl) * np.ldexp(1.0, -np.arange(j, j + rows))
        x = x[x > gl]
        if not len(x):
            break
        c = _counts(d, e, x)
        observe(x, c)
        if c[-1] == 0:
            break
    bisect(separated)

    vals = 0.5 * (lo[:count] + hi[:count])
    todo = np.flatnonzero(hi[:count] - lo[:count] > tol(lo[:count], hi[:count]))
    below = np.concatenate(([-np.inf], hi))[todo]
    above = np.concatenate((lo[1:], [np.inf]))[todo]
    rho = np.empty(len(todo))
    # half a count's rows: an inverse iteration holds about 8 (rows, n) arrays
    rows = max(1, _BLOCK // (2 * n))
    for j in range(0, len(todo), rows):
        part = slice(j, j + rows)
        rho[part] = _rayleigh(d, e, vals[todo[part]], below[part], above[part], tnorm)
    vals[todo] = np.where(np.isnan(rho), vals[todo], rho)
    fail = np.zeros(m, dtype=bool)
    fail[todo[np.isnan(rho)]] = True
    if fail.any():
        bisect(lambda: ~fail | (hi - lo <= tol(lo, hi)))
        vals[fail[:count]] = 0.5 * (lo + hi)[fail]
    return np.sort(vals)
