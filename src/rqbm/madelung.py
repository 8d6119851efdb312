"""Madelung decomposition psi -> (rho, S), the relativistic quantum
potential, equation residuals, and the conserved charges.

Conventions: metric signature (+,-,-,-), so the wave operator is
d2_t - lap (c = 1) and the expanded continuity law reads
    d_t rho = d_t(rho d_t S) - div(rho grad S).
The quantum potential is Q = (d2_t sqrt(rho) - lap sqrt(rho)) / (2 sqrt(rho)).
The phase S is dimensionless (units of hbar = 1).

Time derivatives always come from three stored field levels (central
differences), never from the equation of motion, so the residuals are
genuine independent checks of a trajectory.  Spatial derivatives are taken
of the periodic psi, never of the unwrapped S, which need not be periodic.

Phase handling near density nodes is ill-conditioned: points with
rho < FLOOR are excluded from residual norms (the excluded fraction is
reported) and their S is extended from the nearest valid neighbor.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import InputError
from .grid import ComplexField, Grid1D
from .units import Model, ModelParams

#: Densities below this are treated as nodes: phase there is noise.
FLOOR = 1e-30


@dataclass(frozen=True)
class MadelungFields:
    """One time level of the fluid variables: rho = |psi|^2 and unwrapped S."""

    grid: Grid1D
    rho: np.ndarray = field(repr=False)
    S: np.ndarray = field(repr=False)
    t: float = 0.0
    masked: np.ndarray = field(repr=False, default=None)

    def __post_init__(self) -> None:
        rho = np.asarray(self.rho, dtype=float)
        s = np.asarray(self.S, dtype=float)
        if rho.shape != (self.grid.n,) or s.shape != (self.grid.n,):
            raise InputError("rho and S must match the grid size")
        if np.any(rho < 0) or not np.all(np.isfinite(rho)):
            raise InputError("rho must be finite and non-negative")
        if not np.all(np.isfinite(s)):
            raise InputError("S must be finite")
        masked = self.masked
        masked = np.zeros(self.grid.n, bool) if masked is None else np.asarray(masked, bool)
        object.__setattr__(self, "rho", rho)
        object.__setattr__(self, "S", s)
        object.__setattr__(self, "masked", masked)


def decompose(psi: ComplexField, prior_S=None, t: float = 0.0) -> MadelungFields:
    """rho = |psi|^2 and spatially unwrapped S = arg(psi).

    The unwrap is anchored at the density peak and runs outward both ways, so
    phase noise in near-node tails cannot corrupt the well-resolved core.
    Points with rho < FLOOR take the S of their nearest valid neighbor and
    are flagged in `masked`.  With prior_S given, S is shifted by the single
    multiple of 2 pi that minimizes the density-weighted distance to it.
    """
    v = psi.values
    rho = np.abs(v) ** 2
    if not np.all(np.isfinite(rho)):
        raise InputError("rho = |psi|^2 must be finite")
    valid = rho > FLOOR
    if not valid.any():
        raise InputError("cannot decompose a (numerically) zero field")

    raw = np.angle(v)
    c = int(np.argmax(rho))
    s = np.empty_like(raw)
    s[c:] = np.unwrap(raw[c:])
    s[: c + 1] = np.unwrap(raw[: c + 1][::-1])[::-1]

    if not valid.all():
        idx = np.flatnonzero(valid)
        pos = np.searchsorted(idx, np.flatnonzero(~valid))
        left = idx[np.clip(pos - 1, 0, len(idx) - 1)]
        right = idx[np.clip(pos, 0, len(idx) - 1)]
        bad = np.flatnonzero(~valid)
        nearest = np.where(np.abs(bad - left) <= np.abs(right - bad), left, right)
        s[bad] = s[nearest]

    if prior_S is not None:
        prior = np.asarray(prior_S, dtype=float)
        if prior.shape != s.shape:
            raise InputError("prior_S must match the grid size")
        w = rho / rho.sum()
        s -= 2.0 * np.pi * round(float(np.sum(w * (s - prior))) / (2.0 * np.pi))

    return MadelungFields(grid=psi.grid, rho=rho, S=s, t=t, masked=~valid)


def reconstruct(fields: MadelungFields) -> ComplexField:
    return ComplexField(fields.grid, np.sqrt(fields.rho) * np.exp(1j * fields.S))


def quantum_potential(grid: Grid1D, rho_levels, dt: float) -> np.ndarray:
    """Q from three consecutive rho fields; NaN where rho is below FLOOR."""
    if len(rho_levels) != 3:
        raise InputError("quantum_potential needs exactly three rho levels")
    if not (np.isfinite(dt) and dt > 0):
        raise InputError(f"dt must be positive and finite, got {dt!r}")
    r0, r1, r2 = (np.asarray(r, dtype=float) for r in rho_levels)
    for r in (r0, r1, r2):
        if r.shape != (grid.n,):
            raise InputError("rho level does not match the grid size")
        if np.any(r < 0):
            raise InputError("rho must be non-negative")
    a0, a1, a2 = np.sqrt(r0), np.sqrt(r1), np.sqrt(r2)
    att = (a2 - 2.0 * a1 + a0) / (dt * dt)
    axx = grid.deriv(a1, 2).real
    valid = (r0 > FLOOR) & (r1 > FLOOR) & (r2 > FLOOR)
    q = np.full(grid.n, np.nan)
    q[valid] = 0.5 * (att[valid] - axx[valid]) / a1[valid]
    return q


def quantum_potential_static(grid: Grid1D, rho) -> np.ndarray:
    """Static variant: the time term is taken as identically zero (three
    equal levels make it exactly zero)."""
    return quantum_potential(grid, (rho, rho, rho), 1.0)


@dataclass(frozen=True)
class Diagnostics:
    continuity_residual: float
    hj_residual: float
    E: float
    N: float
    N_mod: float
    t: float
    excluded_fraction: float
    #: the quantum potential of the centre level, which the HJ residual uses
    Q: np.ndarray = field(default=None, repr=False, compare=False)


class ChargeSet(NamedTuple):
    N: float
    N_mod: float
    E: float


def _check_history(history):
    if len(history) != 3:
        raise InputError("need exactly three consecutive MadelungFields")
    f0, f1, f2 = history
    if not (f0.grid == f1.grid == f2.grid):
        raise InputError("history levels must share one grid")
    d1, d2 = f1.t - f0.t, f2.t - f1.t
    if d1 <= 0 or abs(d2 - d1) > 1e-9 * abs(d1):
        raise InputError(f"levels must be equally spaced in time (got {d1}, {d2})")
    return f0, f1, f2, d1


def conserved_charges(history) -> ChargeSet:
    """(N, N_mod, E) at the center level.

    N = int rho dx; E = -int rho d_t S dx; N_mod = int rho (1 - d_t S) dx is
    the charge of the 4-continuity current (N and E in one package).
    """
    f0, f1, f2, dt = _check_history(history)
    st = (f2.S - f0.S) / (2.0 * dt)
    n = float(np.real(f1.grid.integrate(f1.rho)))
    e = -float(np.real(f1.grid.integrate(f1.rho * st)))
    return ChargeSet(N=n, N_mod=n + e, E=e)


def _rhs(params: ModelParams, s1, st, stt, sxx):
    m = params.model
    if m is Model.CONSERVATIVE:
        return 0.0
    if m is Model.COLLISIONAL:
        return -params.gamma * s1
    if m is Model.RADIATIVE:
        return params.tau * stt
    if m is Model.PHASE_DIFFUSION:
        return params.diffusion * sxx
    return -params.diffusion * (stt - sxx)


def residuals(history, params: ModelParams, potential=None) -> Diagnostics:
    """Continuity and Hamilton-Jacobi residuals (rho-weighted RMS over valid
    points) plus the conserved charges, all at the center level of a
    three-level history.

    continuity: d_t rho - [d_t rho * d_t S + rho d2_t S - div(rho grad S)]
    HJ:         d_t S - [(d_t S)^2 - (grad S)^2]/2 + U + Q - RHS(model)
    with RHS = 0, -gamma S, tau d2_t S, D lap S, or -D (d2_t - lap) S.
    Space derivatives are of the center psi: grad S = Im(psi_x/psi), rho grad
    S = Im(conj(psi) psi_x), lap S = Im(psi_xx/psi) - 2 Re(psi_x/psi) grad S.
    """
    f0, f1, f2, dt = _check_history(history)
    grid = f1.grid
    u = 0.0
    if potential is not None:
        u = np.asarray(potential, dtype=float)
        if u.shape != (grid.n,):
            raise InputError("potential does not match the grid size")

    rt = (f2.rho - f0.rho) / (2.0 * dt)
    st = (f2.S - f0.S) / (2.0 * dt)
    stt = (f2.S - 2.0 * f1.S + f0.S) / (dt * dt)
    psi = reconstruct(f1).values
    psi_x = grid.deriv(psi, 1)
    div = grid.deriv((np.conj(psi) * psi_x).imag, 1).real
    # the quotients are noise where rho is tiny (the rho weights of the norms
    # keep it out) and not finite only at masked points
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        v = psi_x / psi
        sxx = (grid.deriv(psi, 2) / psi).imag - 2.0 * v.real * v.imag
    sx = v.imag

    q = quantum_potential(grid, (f0.rho, f1.rho, f2.rho), dt)
    valid = np.isfinite(q)
    for f in (f0, f1, f2):
        valid &= ~f.masked
    if not valid.any():
        raise InputError("no valid points left after masking")

    r_cont = rt - (rt * st + f1.rho * stt - div)
    r_hj = st - (st * st - sx * sx) / 2.0 + u + q - _rhs(params, f1.S, st, stt, sxx)
    w = f1.rho[valid]
    cont = float(np.sqrt(np.sum(w * r_cont[valid] ** 2) / np.sum(w)))
    hj = float(np.sqrt(np.sum(w * r_hj[valid] ** 2) / np.sum(w)))

    charges = conserved_charges(history)
    return Diagnostics(
        continuity_residual=cont,
        hj_residual=hj,
        E=charges.E,
        N=charges.N,
        N_mod=charges.N_mod,
        t=f1.t,
        excluded_fraction=float(1.0 - valid.mean()),
        Q=q,
    )
