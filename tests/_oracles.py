"""Independent reference computations used by the test suite.

Everything here deliberately avoids the package's own code paths: the ODE
integrator is a hand-rolled classical RK4 on the companion system, the mode
exponential is scipy's expm of that system, the field stepper is its
three-level recurrence written in point space, the spreading-packet formula
is written from the closed form, and polynomial roots come from mpmath at
60 digits.
"""

from __future__ import annotations

import numpy as np
from scipy.linalg import expm

from rqbm.dispersion import build_polynomial
from rqbm.units import ModelParams


def _mode_system(params: ModelParams, k: float) -> np.ndarray:
    """First-order system matrix of the model's fourth-order mode ODE.

    Modes follow exp(i omega t) over the roots of P(omega) = sum c_j omega^j,
    so omega = -i d/dt and the ODE is sum_j c_j (-i)^j rho^(j) = 0, acting on
    (rho, rho', rho'', rho''').
    """
    c = build_polynomial(params, k).coefficients
    a = np.zeros((4, 4), dtype=np.complex128)
    a[0, 1] = a[1, 2] = a[2, 3] = 1.0
    a[3, :] = [-(c[j] * (-1j) ** j) / c[4] for j in range(4)]
    return a


def expm_density_mode(params: ModelParams, k: float, y0, t: float) -> np.ndarray:
    """(rho, rho', rho'', rho''') at time t by scipy's expm of the mode system."""
    return expm(_mode_system(params, k) * t) @ np.asarray(y0, dtype=np.complex128)


def mpmath_density_mode(params: ModelParams, k: float, y0, t: float) -> np.ndarray:
    """(rho, rho', rho'', rho''') at time t by a 50-digit mpmath expm of the
    mode system."""
    import mpmath

    with mpmath.workdps(50):
        e = mpmath.expm(mpmath.matrix(_mode_system(params, k).tolist()) * t)
        y = e * mpmath.matrix([complex(v) for v in y0])
        return np.array([complex(y[i]) for i in range(4)])


def mpmath_roots(coefficients, dps: int = 60) -> list:
    """Roots (mpmath mpc) of the polynomial with these ascending coefficients,
    taken exactly as stored, at dps digits: Durand-Kerner, or, where that
    stalls on a multiple root, the eigenvalues of the companion matrix, whose
    cluster centroids stay accurate to about 10^-dps."""
    import mpmath

    c = np.asarray(coefficients, dtype=np.complex128)
    c = [mpmath.mpc(z.real, z.imag) for z in c[:np.flatnonzero(c)[-1] + 1]]
    d = len(c) - 1
    with mpmath.workdps(dps):
        try:
            return mpmath.polyroots(c[::-1], maxsteps=200, extraprec=dps)
        except mpmath.mp.NoConvergence:
            a = mpmath.zeros(d, d)
            for i in range(d):
                a[0, i] = -c[d - 1 - i] / c[d]
                if i:
                    a[i, i - 1] = 1
            return list(mpmath.eig(a, left=False, right=False))


def rk4_density_mode(
    params: ModelParams, k: float, y0, t_final: float, dt: float = 0.002
) -> np.ndarray:
    """Integrate the model's fourth-order mode ODE with classical RK4 and
    return (rho, rho', rho'', rho''') at t_final."""
    a = _mode_system(params, k)
    y = np.asarray(y0, dtype=np.complex128).copy()
    steps = int(round(t_final / dt))
    if abs(steps * dt - t_final) > 1e-12 * max(1.0, abs(t_final)):
        raise ValueError("t_final must be a multiple of dt")
    for _ in range(steps):
        k1 = a @ y
        k2 = a @ (y + 0.5 * dt * k1)
        k3 = a @ (y + 0.5 * dt * k2)
        k4 = a @ (y + dt * k3)
        y = y + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return y


def nonrel_gaussian(x, t: float, sigma: float, kbar: float) -> np.ndarray:
    """Free spreading Gaussian of i d_t psi = -lap psi / 2.

    Matches evolve.gaussian_packet at t=0: unit L2 norm on the real line,
    psi(x, 0) = (2 pi sigma^2)^(-1/4) exp(-x^2 / 4 sigma^2 + i kbar x).
    """
    x = np.asarray(x, dtype=float)
    beta = sigma * sigma + 0.5j * t
    amp = (2.0 * np.pi * sigma * sigma) ** (-0.25) * np.sqrt(sigma * sigma / beta)
    phase = kbar * x - 0.5 * kbar * kbar * t
    return amp * np.exp(-((x - kbar * t) ** 2) / (4.0 * beta) + 1j * phase)


def gaussian_quantum_potential(x, sigma: float) -> np.ndarray:
    """Static Bohm potential of rho = exp(-x^2 / 2 sigma^2), any amplitude."""
    x = np.asarray(x, dtype=float)
    return 0.25 / sigma**2 - x * x / (8.0 * sigma**4)


def point_space_stepper(psi0, phi0, k, dt, steps: int, stride: int, u=None):
    """The field stepper's semi-implicit three-level recurrence written in
    point space, with the Laplacian as a spectral derivative on every step:
        (1 - i dt) nxt = 2 cur + dt^2 (lap cur - 2 U cur) - (1 + i dt) prev.
    Carries the dtype of its inputs (np.clongdouble works) and returns the
    (prev, cur, nxt) levels of every stride-th step, the first included."""
    u = 0.0 if u is None else u

    def rhs(p):
        return np.fft.ifft(-(k * k) * np.fft.fft(p)) - 2.0 * u * p

    prev = psi0 - dt * phi0 + 0.5 * dt * dt * (rhs(psi0) + 2j * phi0)
    cur = psi0.copy()
    levels = []
    for n in range(steps + 1):
        nxt = (2.0 * cur + dt * dt * rhs(cur) - (1.0 + 1j * dt) * prev) / (1.0 - 1j * dt)
        if n % stride == 0:
            levels.append((prev, cur, nxt))
        prev, cur = cur, nxt
    return levels
