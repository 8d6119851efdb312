"""Reference computations the benchmark checks rqbm's outputs against.

Nothing here imports rqbm.  Every formula is written from the documented
mathematics (README "Conventions", PAPER.md), so a fault in the package
cannot hide in its own reference.  Tolerances and where they come from are
listed in bench/README.md.
"""

from __future__ import annotations

import itertools

import numpy as np
from scipy.linalg import expm

U = np.finfo(float).eps / 2  # unit roundoff

PERMS = np.array(list(itertools.permutations(range(4))))


def quartic(model: str, rate: float, k: float) -> np.ndarray:
    """Ascending coefficients of (1/4)(k^2 - w^2)^2 - w^2 + friction(w)."""
    c = np.zeros(5, dtype=np.complex128)
    c[0] = k**4 / 4
    c[2] = -(1 + k * k / 2)
    c[4] = 1 / 4
    if model == "collisional":
        c[1] = 1j * rate
    elif model == "radiative":
        c[3] = 1j * rate
    elif model == "phase-diffusion":
        c[1] = 1j * rate * k * k
    elif model == "dalembert-diffusion":
        c[1] = 1j * rate * k * k
        c[3] = -1j * rate
    else:
        raise ValueError(model)
    return c


def quartics(model: str, rate: float, ks) -> np.ndarray:
    return np.array([quartic(model, rate, float(k)) for k in ks])


def scaled_residual(coef: np.ndarray, w: np.ndarray) -> np.ndarray:
    """|P(w)| / sum_j |c_j| |w|^j, rows of coef against rows of w."""
    p = np.zeros(w.shape, dtype=np.complex128)
    s = np.zeros(w.shape)
    for j in range(coef.shape[1] - 1, -1, -1):
        p = p * w + coef[:, j, None]
        s = s * np.abs(w) + np.abs(coef[:, j, None])
    return np.abs(p) / s


def companion_roots(coef: np.ndarray) -> np.ndarray:
    """Eigenvalues of the monic companion matrix of each coefficient row."""
    n = coef.shape[1] - 1
    m = np.zeros((len(coef), n, n), dtype=np.complex128)
    m[:, 1:, :-1] = np.eye(n - 1)
    m[:, :, -1] = -coef[:, :n] / coef[:, n, None]
    return np.linalg.eigvals(m)


def multiset_distance(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Per row, the smallest over pairings of the largest relative distance
    |a_i - b_p(i)| / max(|a_i|, |b_p(i)|) between two sets of four roots."""
    bb = b[:, PERMS]  # (rows, 24, 4)
    aa = a[:, None, :]
    rel = np.abs(aa - bb) / np.maximum(np.maximum(np.abs(aa), np.abs(bb)), 1e-300)
    return rel.max(axis=2).min(axis=1)


def vieta_devs(coef: np.ndarray, w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Relative deviations of the root sum and product from -c3/c4 and c0/c4."""
    lead = coef[:, 4]
    sum_t = -coef[:, 3] / lead
    prod_t = coef[:, 0] / lead
    sum_dev = np.abs(w.sum(axis=1) - sum_t) / np.maximum(
        np.maximum(np.abs(sum_t), np.abs(w).sum(axis=1)), 1e-300)
    prod_dev = np.abs(w.prod(axis=1) - prod_t) / np.maximum(
        np.maximum(np.abs(prod_t), np.abs(w).prod(axis=1)), 1e-300)
    return sum_dev, prod_dev


def low_k_candidates(model: str, rate: float, k: float) -> list[complex]:
    """Closed-form low-k hydrodynamic roots (README, asymptote list)."""
    if model == "collisional":
        return [1j * k**4 / (4 * rate)]
    if model == "radiative":
        w = complex(1j * k**4 / (4 * rate)) ** (1 / 3)  # principal cube root
        turn = np.exp(2j * np.pi / 3)
        return [w, w * turn, w * turn**2]
    return [1j * k * k / (4 * rate)]


# --- conservative field ----------------------------------------------------

def grid_x(n: int, length: float) -> np.ndarray:
    return (np.arange(n) - n // 2) * (length / n)


def grid_k(n: int, length: float) -> np.ndarray:
    return 2 * np.pi * np.fft.fftfreq(n, d=length / n)


def omega_plus(k: np.ndarray) -> np.ndarray:
    return k * k / (1 + np.sqrt(1 + k * k))


def gaussian(x: np.ndarray, sigma: float) -> np.ndarray:
    """Unit-norm packet at rest, (2 pi sigma^2)^(-1/4) exp(-x^2 / 4 sigma^2)."""
    return (2 * np.pi * sigma * sigma) ** -0.25 * np.exp(-x * x / (4 * sigma * sigma))


class FieldReference:
    """Particle-branch solution psi(t) = ifft(exp(-i w+ t) fft(psi0))."""

    def __init__(self, n: int, length: float, sigma: float):
        self.x = grid_x(n, length)
        self.k = grid_k(n, length)
        self.w = omega_plus(self.k)
        self.psi0_hat = np.fft.fft(gaussian(self.x, sigma))
        self.peak = float(np.abs(gaussian(self.x, sigma)).max())

    def at(self, t: float) -> np.ndarray:
        return np.fft.ifft(np.exp(-1j * self.w * t) * self.psi0_hat)

    def stepper_bound(self, dt: float, t: float, safety: float = 2.0) -> float:
        """Max-norm error bound of the three-level stepper at time t.

        Per mode the scheme's frequency is off by
        dt^2 w^3 (w + 4) / (24 (1 + w)) and its Taylor start level excites
        the gapped branch with relative amplitude
        dt^2 w^3 [1/6 + (w + 4)/(24 (1 + w))] / (2 (1 + w)); the point-space
        error is at most the mean of the per-mode errors (bench/README.md).
        """
        w = self.w
        drift = dt * dt * w**3 * (w + 4) / (24 * (1 + w))
        parasite = dt * dt * w**3 * (1 / 6 + (w + 4) / (24 * (1 + w))) / (2 * (1 + w))
        per_mode = np.abs(self.psi0_hat) * (t * drift + 2 * parasite)
        return safety * float(per_mode.sum()) / len(w)


# --- density modes -------------------------------------------------------

def density_reference(model: str, rate: float, k: float, times) -> np.ndarray:
    """rho(t) of the mode ODE sum_j c_j (-i)^j rho^(j) = 0 from
    rho(0) = 1, rho'(0) = rho''(0) = rho'''(0) = 0, by expm of its
    companion matrix."""
    c = quartic(model, rate, k)
    a = np.zeros((4, 4), dtype=np.complex128)
    a[0, 1] = a[1, 2] = a[2, 3] = 1
    a[3, :] = [-(c[j] * (-1j) ** j) / c[4] for j in range(4)]
    y0 = np.array([1, 0, 0, 0], dtype=np.complex128)
    return np.array([(expm(a * t) @ y0)[0] for t in times])


# --- spectra ---------------------------------------------------------------

def harmonic_levels(omega0: float, count: int) -> np.ndarray:
    return (np.arange(count) + 0.5) * omega0


def box_levels(width: float, count: int) -> np.ndarray:
    m = np.arange(1, count + 1)
    return (np.pi * m / width) ** 2 / 2
