"""Time evolution.

Two dynamical layers share this module:

* The second-order complex field equation (Compton units)
      d2_t psi = lap psi + 2i d_t psi - 2 U psi
  evolved either exactly per Fourier mode (U = 0) through the two branch
  frequencies omega_plus/omega_minus, or by a semi-implicit central-difference
  stepper that treats the first-order term as the average of the newest and
  oldest levels (second-order accurate, explicitly solvable).

* The linearized per-mode density equations of the dissipative models,
  fourth order in time, advanced exactly through the characteristic roots of
  the dispersion quartic, with confluent (polynomial-in-t) terms when roots
  are degenerate.

States are immutable snapshots; evolution never mutates its input.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .dispersion import _solve_stack, build_polynomial
from .errors import InputError, NumericalFailureError, UnsupportedError
from .grid import ComplexField, Grid1D
from .units import Model, ModelParams

EXACT_MODE = "exact_mode"
STEPPER = "stepper"


def conservative_mode_frequencies(k):
    """Branch frequencies (omega_plus, omega_minus) of the conservative field.

    omega_plus = sqrt(1+k^2) - 1 evaluated in the cancellation-free form
    k^2/(1 + sqrt(1+k^2)); omega_minus = -2 - omega_plus.
    """
    k = np.asarray(k, dtype=float)
    if not np.all(np.isfinite(k)):
        raise InputError("k must be finite")
    wp = k * k / (1.0 + np.sqrt(1.0 + k * k))
    wm = -2.0 - wp
    if wp.ndim == 0:
        return float(wp), float(wm)
    return wp, wm


@dataclass(frozen=True)
class FieldState:
    psi: ComplexField
    dpsi_dt: ComplexField
    t: float

    def __post_init__(self) -> None:
        if self.psi.grid != self.dpsi_dt.grid:
            raise InputError("psi and dpsi_dt must live on the same grid")

    @property
    def grid(self) -> Grid1D:
        return self.psi.grid


@dataclass(frozen=True)
class EvolutionConfig:
    dt: float
    steps: int
    method: str = EXACT_MODE
    snapshot_stride: int = 1

    def __post_init__(self) -> None:
        if not (np.isfinite(self.dt) and self.dt > 0):
            raise InputError(f"dt must be positive and finite, got {self.dt!r}")
        if not (isinstance(self.steps, (int, np.integer)) and self.steps >= 1):
            raise InputError(f"steps must be a positive integer, got {self.steps!r}")
        if self.method not in (EXACT_MODE, STEPPER):
            raise InputError(
                f"method must be '{EXACT_MODE}' or '{STEPPER}', got {self.method!r}"
            )
        if not (
            isinstance(self.snapshot_stride, (int, np.integer))
            and self.snapshot_stride >= 1
        ):
            raise InputError(f"snapshot_stride must be >= 1, got {self.snapshot_stride!r}")
        if self.steps % self.snapshot_stride != 0:
            raise InputError(
                f"steps ({self.steps}) must be a multiple of snapshot_stride "
                f"({self.snapshot_stride})"
            )


def gaussian_packet(grid: Grid1D, sigma: float, kbar: float) -> ComplexField:
    """Unit-norm Gaussian packet exp(-x^2/4 sigma^2 + i kbar x), centered at 0.

    Normalized so the integral of |psi|^2 over the box is 1.  Warns when the
    box gives less than 6 sigma of clearance to the wrap point.
    """
    if not (np.isfinite(sigma) and sigma > 0):
        raise InputError(f"sigma must be positive and finite, got {sigma!r}")
    if not np.isfinite(kbar):
        raise InputError(f"kbar must be finite, got {kbar!r}")
    if grid.length < 12.0 * sigma:
        warnings.warn(
            f"packet sigma={sigma} has under 6 sigma of clearance in a box of "
            f"length {grid.length}; wrap-around will contaminate the tails",
            RuntimeWarning,
            stacklevel=2,
        )
    x = grid.x
    amp = (2.0 * np.pi * sigma * sigma) ** (-0.25)
    return ComplexField(grid, amp * np.exp(-(x * x) / (4.0 * sigma * sigma) + 1j * kbar * x))


def plane_wave(grid: Grid1D, k: float, amplitude: complex = 1.0) -> ComplexField:
    """exp(ikx) for a k that is exactly a grid mode (k L / 2 pi integer)."""
    m = k * grid.length / (2.0 * np.pi)
    mi = round(m)
    if abs(m - mi) > 1e-9 * max(1.0, abs(m)):
        raise InputError(f"k={k} is not a grid mode (k L / 2 pi = {m} not integer)")
    if abs(mi) > grid.n // 2 - 1:
        raise InputError(f"mode index {mi} exceeds the resolvable band for n={grid.n}")
    k_exact = 2.0 * np.pi * mi / grid.length
    return ComplexField(grid, amplitude * np.exp(1j * k_exact * grid.x))


def particle_branch_project(psi: ComplexField) -> FieldState:
    """Initial state with no gapped-branch content: d_t psi_j = -i w_plus psi_j."""
    wp, _ = conservative_mode_frequencies(psi.grid.wavenumbers)
    ph = np.fft.fft(psi.values)
    dphi = np.fft.ifft(-1j * wp * ph)
    return FieldState(psi, ComplexField(psi.grid, dphi), 0.0)


def branch_amplitudes(state: FieldState) -> tuple[np.ndarray, np.ndarray]:
    """Per-mode branch amplitudes (a_plus, a_minus), unitary-FFT normalized.

    psi_j = a+ + a-, d_t psi_j = -i(w+ a+ + w- a-); the 2x2 solve gives
    a+ = (i d_t psi_j - w- psi_j)/(w+ - w-).
    """
    wp, wm = conservative_mode_frequencies(state.grid.wavenumbers)
    ph = np.fft.fft(state.psi.values, norm="ortho")
    dh = np.fft.fft(state.dpsi_dt.values, norm="ortho")
    a_plus = (1j * dh - wm * ph) / (wp - wm)
    return a_plus, ph - a_plus


def _check_potential(potential, grid: Grid1D):
    if potential is None:
        return None
    u = np.asarray(potential, dtype=float)
    if u.shape != (grid.n,):
        raise InputError(f"potential shape {u.shape} does not match grid n={grid.n}")
    if not np.all(np.isfinite(u)):
        raise InputError("potential must be finite")
    if not np.any(u):
        return None
    return u


def evolve_field(state: FieldState, config: EvolutionConfig, potential=None,
                 return_triples: bool = False):
    """Evolve the field, returning snapshots every snapshot_stride steps
    (the initial state included; steps/stride + 1 snapshots in total).

    With return_triples=True also returns, per snapshot, the pair of raw
    psi arrays at t - dt and t + dt actually used by the method, so that
    downstream diagnostics can form three-level stencils without ever
    invoking the equation of motion.
    """
    grid = state.grid
    u = _check_potential(potential, grid)
    dt = config.dt

    if config.method == EXACT_MODE:
        if u is not None:
            raise UnsupportedError("exact_mode requires zero potential (mode decoupling)")
        snaps, trips = _evolve_exact(state, config)
    else:
        if dt >= 0.5 * grid.dx:
            raise InputError(
                f"stepper needs dt < 0.5 dx for light-cone resolution "
                f"(dt={dt}, dx={grid.dx})"
            )
        if dt >= 0.1:
            raise InputError(
                f"stepper needs dt < 0.1 to resolve the internal oscillation "
                f"(period pi), got dt={dt}"
            )
        snaps, trips = _evolve_stepper(state, config, u)

    return (snaps, trips) if return_triples else snaps


def _evolve_exact(state: FieldState, config: EvolutionConfig):
    grid = state.grid
    wp, wm = conservative_mode_frequencies(grid.wavenumbers)
    ph = np.fft.fft(state.psi.values)
    dh = np.fft.fft(state.dpsi_dt.values)
    a_plus = (1j * dh - wm * ph) / (wp - wm)
    a_minus = ph - a_plus

    snaps: list[FieldState] = []
    trips: list[tuple[np.ndarray, np.ndarray]] = []
    stride = config.snapshot_stride

    def fields_at(tau: float) -> tuple[np.ndarray, np.ndarray]:
        ep = np.exp(-1j * wp * tau)
        em = np.exp(-1j * wm * tau)
        psh = a_plus * ep + a_minus * em
        dsh = -1j * (wp * a_plus * ep + wm * a_minus * em)
        return np.fft.ifft(psh), np.fft.ifft(dsh)

    for j in range(config.steps // stride + 1):
        tau = j * stride * config.dt
        psi, dpsi = fields_at(tau)
        snaps.append(
            FieldState(ComplexField(grid, psi), ComplexField(grid, dpsi), state.t + tau)
        )
        trips.append((fields_at(tau - config.dt)[0], fields_at(tau + config.dt)[0]))
    return snaps, trips


def _evolve_stepper(state: FieldState, config: EvolutionConfig, u):
    grid = state.grid
    dt = config.dt
    stride = config.snapshot_stride
    u_arr = 0.0 if u is None else u

    def rhs_static(psi: np.ndarray) -> np.ndarray:
        # lap psi - 2 U psi, the time-derivative-free part of the acceleration
        return np.fft.ifft(-(grid.wavenumbers**2) * np.fft.fft(psi)) - 2.0 * u_arr * psi

    psi0 = state.psi.values
    phi0 = state.dpsi_dt.values
    acc0 = rhs_static(psi0) + 2j * phi0
    prev = psi0 - dt * phi0 + 0.5 * dt * dt * acc0
    cur = psi0.copy()

    denom = 1.0 - 1j * dt
    snaps: list[FieldState] = []
    trips: list[tuple[np.ndarray, np.ndarray]] = []
    for n in range(config.steps + 1):
        nxt = (2.0 * cur + dt * dt * rhs_static(cur) - (1.0 + 1j * dt) * prev) / denom
        if n % stride == 0:
            if not np.all(np.isfinite(cur)):
                raise NumericalFailureError(f"field became non-finite at step {n}")
            phi = (nxt - prev) / (2.0 * dt)
            snaps.append(
                FieldState(
                    ComplexField(grid, cur.copy()),
                    ComplexField(grid, phi),
                    state.t + n * dt,
                )
            )
            trips.append((prev.copy(), nxt.copy()))
        prev, cur = cur, nxt
    return snaps, trips


@dataclass(frozen=True)
class DensityModeState:
    """Per-mode density perturbation and its first three time derivatives.

    Convention: each mode evolves as exp(i omega t) over the characteristic
    roots omega of the model's dispersion quartic (so decay is Im omega > 0).
    """

    k: np.ndarray = field(repr=False)
    derivs: np.ndarray = field(repr=False)  # shape (n_modes, 4), complex
    t: float = 0.0

    def __post_init__(self) -> None:
        kk = np.atleast_1d(np.asarray(self.k, dtype=float))
        dv = np.asarray(self.derivs, dtype=np.complex128)
        if dv.ndim == 1:
            dv = dv[None, :]
        if kk.ndim != 1 or dv.shape != (len(kk), 4):
            raise InputError(
                f"need derivs of shape (n_modes, 4) matching k; got {dv.shape}"
            )
        if not (np.all(np.isfinite(kk)) and np.all(kk >= 0)):
            raise InputError("mode wavenumbers must be finite and >= 0")
        if not np.all(np.isfinite(dv)):
            raise InputError("initial derivatives must be finite")
        object.__setattr__(self, "k", kk)
        object.__setattr__(self, "derivs", dv)

    @property
    def rho(self) -> np.ndarray:
        return self.derivs[:, 0]


def _confluent_deriv(s: complex, p: int, d: int, t: float) -> complex:
    """d-th time derivative of t^p exp(s t)."""
    total = 0.0 + 0.0j
    for i in range(min(p, d) + 1):
        total += (
            math.comb(d, i)
            * (math.factorial(p) / math.factorial(p - i))
            * t ** (p - i)
            * s ** (d - i)
        )
    return total * np.exp(s * t)


def _mode_matrix(exponents, t: float) -> np.ndarray:
    """Rows d=0..3 of the d-th derivatives of the confluent basis at time t."""
    cols = [(s, p) for s, mult in exponents for p in range(mult)]
    m = np.empty((4, len(cols)), dtype=np.complex128)
    for j, (s, p) in enumerate(cols):
        for d in range(4):
            m[d, j] = _confluent_deriv(s, p, d, t)
    return m


def evolve_density(params: ModelParams, init: DensityModeState, t: float) -> DensityModeState:
    """Advance every mode exactly by time t through its characteristic roots."""
    if params.model is Model.CONSERVATIVE:
        raise InputError("density evolution is defined for the dissipative models")
    if not np.isfinite(t):
        raise InputError(f"t must be finite, got {t!r}")

    out = np.empty_like(init.derivs)
    warned = False
    sets = _solve_stack([build_polynomial(params, float(k)) for k in init.k])
    for j, (k, roots) in enumerate(zip(init.k, sets)):
        if t > 0 and not warned and np.any(roots.growing) and np.any(init.derivs[j]):
            warnings.warn(
                f"model {params.model.value} has growing modes at k={k} "
                f"(Im omega < 0); the run may diverge",
                RuntimeWarning,
                stacklevel=2,
            )
            warned = True
        exps = [(1j * w, m) for w, m in zip(roots.unique_roots, roots.multiplicities)]
        m0 = _mode_matrix(exps, 0.0)
        try:
            coeffs = np.linalg.solve(m0, init.derivs[j])
        except np.linalg.LinAlgError as exc:
            raise NumericalFailureError(
                f"confluent basis is singular at k={k}: {exc}"
            ) from exc
        out[j] = _mode_matrix(exps, float(t)) @ coeffs
    if not np.all(np.isfinite(out)):
        raise NumericalFailureError(
            f"density modes overflowed during evolution by t={t} "
            f"(model {params.model.value}); growing characteristic roots"
        )
    return DensityModeState(k=init.k.copy(), derivs=out, t=init.t + float(t))


@dataclass(frozen=True)
class FitResult:
    omega: complex
    amplitude: complex
    residual: float
    poor_fit: bool


def fit_mode_frequency(times, values) -> FitResult:
    """Least-squares fit of a single complex exponential a*exp(-i omega t).

    Works on the unwrapped complex logarithm, so it handles growth or decay
    (complex omega) directly.  Flags poor_fit when the relative residual
    exceeds 1e-3 (e.g. a two-exponential mixture).
    """
    t = np.asarray(times, dtype=float)
    v = np.asarray(values, dtype=np.complex128)
    if t.ndim != 1 or t.shape != v.shape or len(t) < 4:
        raise InputError("need >= 4 samples with matching times")
    steps = np.diff(t)
    if not np.all(steps > 0) or np.max(np.abs(steps - steps[0])) > 1e-9 * abs(steps[0]):
        raise InputError("times must be uniformly spaced ascending")
    if np.any(v == 0):
        raise InputError("degenerate series: zero amplitude sample")

    z = np.log(np.abs(v)) + 1j * np.unwrap(np.angle(v))
    slope, intercept = np.polyfit(t, z, 1)
    omega = 1j * slope
    amp = np.exp(intercept)
    model = amp * np.exp(-1j * omega * t)
    residual = float(np.linalg.norm(model - v) / np.linalg.norm(v))
    return FitResult(
        omega=complex(omega),
        amplitude=complex(amp),
        residual=residual,
        poor_fit=residual > 1e-3,
    )
