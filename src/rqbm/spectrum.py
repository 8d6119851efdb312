"""Nonrelativistic 1-D eigenvalues and the relativistic energy map.

The two-step scheme: solve the standard Hamiltonian -lap/2 + U for its
eigenvalues eps_n, then map each to a relativistic level
E_n = sqrt(1 + 2 eps_n) (Compton units), with the series approximant
E ~ 1 + eps - eps^2/2 tracked alongside.

Discretizations: the free particle uses the periodic spectral grid (exact
plane-wave eigenstates); everything else uses the symmetric 3-point
finite-difference Laplacian with Dirichlet walls, which is second order in
dx and Richardson-refinable.  With U = 0 (the box) that operator's levels
are closed form, (2/h^2) sin^2(m pi / (2(n + 1))) on n interior points.  A
nonzero potential goes through the numpy tridiagonal eigensolver of
`rqbm._tridiagonal`, accurate to about eps ||T|| like LAPACK's stebz.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from typing import Union

import numpy as np

from .errors import DomainError, InputError, UnsupportedError
from .grid import Grid1D


@dataclass(frozen=True)
class Free:
    pass


@dataclass(frozen=True)
class Harmonic:
    omega0: float

    def __post_init__(self) -> None:
        if not (np.isfinite(self.omega0) and self.omega0 > 0):
            raise InputError(f"omega0 must be positive and finite, got {self.omega0!r}")

    def on(self, x: np.ndarray) -> np.ndarray:
        """U = omega0^2 x^2 / 2 at the points x; an InputError where it overflows."""
        try:
            with np.errstate(over="ignore"):
                u = 0.5 * self.omega0**2 * x**2
            if np.all(np.isfinite(u)):
                return u
        except OverflowError:  # omega0**2 of a Python float
            pass
        raise InputError(f"omega0 = {self.omega0!r} overflows the harmonic potential "
                         "omega0^2 x^2 / 2 on this grid")


@dataclass(frozen=True)
class Box:
    width: float

    def __post_init__(self) -> None:
        if not (np.isfinite(self.width) and self.width > 0):
            raise InputError(f"width must be positive and finite, got {self.width!r}")


@dataclass(frozen=True)
class Tabulated:
    values: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        v = np.asarray(self.values, dtype=float)
        if v.ndim != 1 or not np.all(np.isfinite(v)):
            raise InputError("tabulated potential must be a finite 1-D array")
        object.__setattr__(self, "values", v)


PotentialSpec = Union[Free, Harmonic, Box, Tabulated]


def harmonic_levels(omega0: float, count: int) -> np.ndarray:
    """Analytic oscillator levels (n + 1/2) omega0."""
    return (np.arange(count) + 0.5) * omega0


def box_levels(width: float, count: int) -> np.ndarray:
    """Analytic infinite-well levels pi^2 m^2 / (2 width^2), m = 1..count."""
    m = np.arange(1, count + 1)
    return (np.pi * m / width) ** 2 / 2.0


def _dirichlet_eigen(u: np.ndarray, h: float, count: int) -> np.ndarray:
    if h * h == 0.0:
        raise InputError(f"mesh spacing {h!r} is too fine: its square underflows to 0")
    if 1.0 / (h * h) == np.inf:
        raise InputError(f"mesh spacing {h!r} is too fine: 1/h^2 overflows")
    if not np.any(u):
        # with U = 0 the discrete sine modes are exact eigenvectors of the
        # 3-point operator, so its levels are closed form
        m = np.arange(1, count + 1)
        return (2.0 / (h * h)) * np.sin(m * np.pi / (2 * (len(u) + 1))) ** 2
    # imported here, so that no other run compiles or holds the eigensolver
    # (about 4 ms of compiling where no .pyc is written)
    from ._tridiagonal import lowest_eigenvalues

    return lowest_eigenvalues(1.0 / (h * h) + u, np.full(len(u) - 1, -0.5 / (h * h)), count)


def nonrel_eigen(potential: PotentialSpec, grid: Grid1D, count: int) -> np.ndarray:
    """Lowest `count` eigenvalues of -lap/2 + U, ascending."""
    if not isinstance(count, (int, np.integer)) or isinstance(count, bool) or count < 1:
        raise InputError(f"count must be a positive integer, got {count!r}")
    if count > grid.n // 4:
        raise InputError(
            f"count={count} exceeds the resolution guard n/4 = {grid.n // 4}"
        )
    if isinstance(potential, Free):
        eps = np.sort(grid.wavenumbers**2) / 2.0
        return eps[:count]
    if isinstance(potential, Harmonic):
        return _dirichlet_eigen(potential.on(grid.x), grid.dx, count)
    if isinstance(potential, Box):
        # the well supplies its own interior mesh; grid.n sets the resolution
        h = potential.width / (grid.n + 1)
        return _dirichlet_eigen(np.zeros(grid.n), h, count)
    if isinstance(potential, Tabulated):
        if potential.values.shape != (grid.n,):
            raise InputError(
                f"tabulated potential length {len(potential.values)} != grid n={grid.n}"
            )
        return _dirichlet_eigen(potential.values, grid.dx, count)
    raise InputError(f"unknown potential spec {potential!r}")


def nonrel_eigen_richardson(potential: PotentialSpec, grid: Grid1D, count: int) -> np.ndarray:
    """One Richardson step: (4 eps_{2n} - eps_n) / 3 cancels the O(dx^2) error."""
    if isinstance(potential, Tabulated):
        raise UnsupportedError("tabulated potentials cannot be grid-refined")
    coarse = nonrel_eigen(potential, grid, count)
    if isinstance(potential, Box):
        # the box mesh is width/(n + 1); halving it takes 2n + 1 interior points
        h = potential.width / (grid.n + 1)
        fine = _dirichlet_eigen(np.zeros(2 * grid.n + 1), h / 2, count)
    else:
        fine = nonrel_eigen(potential, Grid1D(2 * grid.n, grid.length), count)
    return (4.0 * fine - coarse) / 3.0


@dataclass(frozen=True)
class SpectrumResult:
    epsilon: np.ndarray = field(repr=False)
    E: np.ndarray = field(repr=False)
    E_series: np.ndarray = field(repr=False)
    rel_gap: np.ndarray = field(repr=False)


def relativistic_map(epsilon) -> SpectrumResult:
    """E_n = sqrt(1 + 2 eps_n) with its quadratic series approximant, which
    overflows to -inf above eps of about 1.9e154 and then warns once."""
    eps = np.atleast_1d(np.asarray(epsilon, dtype=float))
    if eps.ndim != 1 or not np.all(np.isfinite(eps)):
        raise InputError("epsilon must be a finite 1-D array")
    bad = np.flatnonzero(eps <= -0.5)
    if len(bad):
        i = int(bad[0])
        raise DomainError(
            f"relativistic map undefined at index {i}: epsilon={eps[i]} <= -1/2"
        )
    with np.errstate(over="ignore"):
        e = np.sqrt(1.0 + 2.0 * eps)
        # 2 eps overflows above about 9e307, where E is sqrt(2 eps) to rounding
        big = np.flatnonzero(np.isinf(e))
        e[big] = np.sqrt(2.0) * np.sqrt(eps[big])
        e_series = 1.0 + eps - 0.5 * eps * eps
        rel_gap = np.abs(e - e_series) / e
    over = np.flatnonzero(~np.isfinite(e_series))
    if len(over):
        i = int(over[0])
        warnings.warn(f"E_series overflows from level {i} (epsilon = {float(eps[i])!r}); "
                      "written as -inf", RuntimeWarning, stacklevel=2)
    return SpectrumResult(epsilon=eps, E=e, E_series=e_series, rel_gap=rel_gap)
