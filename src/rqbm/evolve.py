"""Time evolution.

Two dynamical layers share this module:

* The second-order complex field equation (Compton units)
      d2_t psi = lap psi + 2i d_t psi - 2 U psi
  evolved either exactly per Fourier mode (U = 0) through the two branch
  frequencies omega_plus/omega_minus, or by a semi-implicit central-difference
  stepper that treats the first-order term as the average of the newest and
  oldest levels (second-order accurate, explicitly solvable).  The stepper's
  levels live in mode space, where with U = 0 every mode's recurrence is
  diagonal, so a free run transforms only at snapshots; a potential costs
  one transform pair per step for U psi.

* The linearized per-mode density equations of the dissipative models,
  fourth order in time, advanced exactly as the matrix exponential of the
  dispersion quartic's companion matrix, whose eigenvalues are the
  characteristic roots; it stays exact when roots coalesce.

States are immutable snapshots; evolution never mutates its input.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from .dispersion import _coefficients, _growing, _solve_stack
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
        if (
            not isinstance(self.steps, (int, np.integer))
            or isinstance(self.steps, bool)
            or self.steps < 1
        ):
            raise InputError(f"steps must be a positive integer, got {self.steps!r}")
        if self.method not in (EXACT_MODE, STEPPER):
            raise InputError(
                f"method must be '{EXACT_MODE}' or '{STEPPER}', got {self.method!r}"
            )
        if (
            not isinstance(self.snapshot_stride, (int, np.integer))
            or isinstance(self.snapshot_stride, bool)
            or self.snapshot_stride < 1
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
    if sigma * sigma == 0.0:
        raise InputError(f"packet width sigma {sigma!r} is too fine: its square underflows to 0")
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
    if not np.isfinite(k):
        raise InputError(f"plane-wave k must be finite, got {k!r}")
    if not np.isfinite(amplitude):
        raise InputError(f"plane-wave amplitude must be finite, got {amplitude!r}")
    m = k * grid.length / (2.0 * np.pi)
    if abs(m) >= grid.n // 2 - 0.5:  # |index| <= n//2 - 1 needs |m| < n//2 - 1/2
        raise InputError(f"mode index {m:.6g} exceeds the resolvable band for n={grid.n}")
    mi = round(m)
    if abs(m - mi) > 1e-9 * max(1.0, abs(m)):
        raise InputError(f"k={k} is not a grid mode (k L / 2 pi = {m} not integer)")
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


def evolve_field(state: FieldState, config: EvolutionConfig, potential=None):
    """Check the inputs, then return an iterator of one three-level window
    (state, psi_prev, psi_next) per snapshot, every snapshot_stride steps
    (the initial state included; steps/stride + 1 windows in total).

    psi_prev and psi_next are the raw psi arrays at t - dt and t + dt that
    the method itself produced, so that downstream diagnostics can form
    three-level stencils without ever invoking the equation of motion.  The
    windows are computed as they are consumed.  Both methods hand each level
    out as one array, so neighbouring windows may share it (with stride 1
    the t + dt level of one window is the centre of the next); like the
    states, the arrays are read-only by contract.
    """
    grid = state.grid
    u = _check_potential(potential, grid)
    dt = config.dt

    if config.method == EXACT_MODE:
        if u is not None:
            raise UnsupportedError("exact_mode requires zero potential (mode decoupling)")
        return _evolve_exact(state, config)
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
    return _evolve_stepper(state, config, u)


def _evolve_exact(state: FieldState, config: EvolutionConfig):
    """Level m is psi at tau = m dt.  Each level is computed once and handed
    out as one array, so at stride 1 the t -+ dt levels of a window are the
    centres of its neighbours, as in the stepper, and a window computes only
    the phase factors of its t + dt level."""
    grid = state.grid
    wp, wm = conservative_mode_frequencies(grid.wavenumbers)
    ph = np.fft.fft(state.psi.values)
    dh = np.fft.fft(state.dpsi_dt.values)
    a_plus = (1j * dh - wm * ph) / (wp - wm)
    a_minus = ph - a_plus

    def phases(m: int) -> tuple[np.ndarray, np.ndarray]:
        tau = m * config.dt
        return np.exp(-1j * wp * tau), np.exp(-1j * wm * tau)

    def level(ep: np.ndarray, em: np.ndarray) -> np.ndarray:
        return np.fft.ifft(a_plus * ep + a_minus * em)

    stride, cur = config.snapshot_stride, None
    for m in range(0, config.steps + 1, stride):
        if stride > 1 or cur is None:
            ep, em = phases(m)
            prev, cur = level(*phases(m - 1)), level(ep, em)
        else:
            ep, em = ahead  # the last window's phases(m + 1): the same integer m
        ahead = phases(m + 1)
        nxt = level(*ahead)
        dpsi = np.fft.ifft(-1j * (wp * a_plus * ep + wm * a_minus * em))
        yield (FieldState(ComplexField(grid, cur), ComplexField(grid, dpsi),
                          state.t + m * config.dt), prev, nxt)
        prev, cur = cur, nxt


def _evolve_stepper(state: FieldState, config: EvolutionConfig, u):
    """The three-level recurrence on Fourier coefficients.  With c = dt^2 k^2,
    (1 - i dt) nxt = (2 - c) cur - (1 + i dt) prev is advanced through its
    increment d = cur - prev as
        d' = b d - g cur,  b = (1 + i dt)/(1 - i dt),  g = c/(1 - i dt),
    so the rounding of the constant b scales only the small increment (the
    form nxt = a cur - b prev would drift by it on every step).  A potential
    adds -(dt^2/(1 - i dt)) fft(2 U psi) to d'.  Point space is visited only
    for U psi and for snapshots, and each level is inverse-transformed at
    most once: x_prev and x_cur hold the point-space levels already known."""
    grid = state.grid
    dt = config.dt
    stride = config.snapshot_stride
    fft, ifft = np.fft.fft, np.fft.ifft
    k2 = grid.wavenumbers**2
    denom = 1.0 - 1j * dt
    b = (1.0 + 1j * dt) / denom
    g = dt * dt * k2 / denom
    h = 2.0 * dt * dt / denom

    x_prev, x_cur = None, state.psi.values.copy()
    cur = fft(x_cur)
    dh = fft(state.dpsi_dt.values)
    # psi(0) - psi(-dt) by Taylor, with psi'' = lap psi - 2 U psi + 2i psi'
    d = dt * dh - 0.5 * dt * dt * (2j * dh - k2 * cur)
    if u is not None:
        u_hat = fft(u * x_cur)
        d += dt * dt * u_hat
    prev = cur - d

    for n in range(config.steps + 1):
        step = b * d - g * cur
        if u is not None:
            if n > 0:
                if x_cur is None:
                    x_cur = ifft(cur)
                u_hat = fft(u * x_cur)
            step -= h * u_hat
        nxt = cur + step
        x_nxt = None
        if n % stride == 0:
            if x_cur is None:
                x_cur = ifft(cur)
            if not np.all(np.isfinite(x_cur)):
                raise NumericalFailureError(f"field became non-finite at step {n}")
            if x_prev is None:
                x_prev = ifft(prev)
            x_nxt = ifft(nxt)
            yield (FieldState(ComplexField(grid, x_cur),
                              ComplexField(grid, (x_nxt - x_prev) / (2.0 * dt)),
                              state.t + n * dt),
                   x_prev, x_nxt)
        prev, cur, d = cur, nxt, step
        x_prev, x_cur = x_cur, x_nxt


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
        if not (np.isfinite(kk).all() and (kk >= 0).all()):
            raise InputError("mode wavenumbers must be finite and >= 0")
        if not np.isfinite(dv).all():
            raise InputError("initial derivatives must be finite")
        object.__setattr__(self, "k", kk)
        object.__setattr__(self, "derivs", dv)

    @property
    def rho(self) -> np.ndarray:
        return self.derivs[:, 0]


#: [13/13] Pade coefficients of exp, and the 1-norm up to which they need no
#: scaling (Higham, SIAM J. Matrix Anal. Appl. 26, 2005).
_PADE13 = (64764752532480000.0, 32382376266240000.0, 7771770303897600.0,
           1187353796428800.0, 129060195264000.0, 10559470521600.0, 670442572800.0,
           33522128640.0, 1323241920.0, 40840800.0, 960960.0, 16380.0, 182.0, 1.0)
_THETA13 = 5.371920351148152


def _expm(a: np.ndarray) -> np.ndarray:
    """exp of every matrix of a (..., m, m) stack by Pade-13 scaling and
    squaring; each is scaled by 2^-s, s >= 0 from frexp, to a 1-norm < theta13."""
    s = np.maximum(np.frexp(np.abs(a).sum(axis=-2).max(axis=-1) / _THETA13)[1], 0)
    a = a / np.ldexp(1.0, s)[..., None, None]
    b, eye = _PADE13, np.eye(a.shape[-1])
    a2 = a @ a
    a4 = a2 @ a2
    a6 = a4 @ a2
    u = a @ (a6 @ (b[13] * a6 + b[11] * a4 + b[9] * a2)
             + b[7] * a6 + b[5] * a4 + b[3] * a2 + b[1] * eye)
    v = a6 @ (b[12] * a6 + b[10] * a4 + b[8] * a2) + b[6] * a6 + b[4] * a4 + b[2] * a2 + b[0] * eye
    r = np.linalg.solve(v - u, v + u)
    for j in range(s.max(initial=0)):
        r[s > j] = r[s > j] @ r[s > j]
    return r


def evolve_density(params: ModelParams, init: DensityModeState, t: float | np.ndarray):
    """Advance every mode exactly by time t through its characteristic roots.

    Each mode's quartic is certified once; its (rho, rho', rho'', rho''') at
    time t is exp(C t) @ derivs, C being the companion matrix of
    sum_j c_j (-i)^j rho^(j) = 0 (eigenvalues s = i omega), which stays exact
    through root coalescence.  A scalar t gives one DensityModeState, a 1-D
    array of times a list of them; t = 0 returns the initial derivatives."""
    if params.model is Model.CONSERVATIVE:
        raise InputError("density evolution is defined for the dissipative models")
    times = np.asarray(t, dtype=float)
    if times.ndim > 1 or not np.all(np.isfinite(times)):
        raise InputError(f"t must be finite, a scalar or a 1-D array; got {t!r}")

    coef = _coefficients(params, init.k)
    growing = init.k[_growing(_solve_stack(params, init.k, coef)[0]).any(axis=1)
                     & init.derivs.any(axis=1)]
    if len(growing) and np.any(times > 0):
        warnings.warn(f"model {params.model.value} has growing modes at k={growing[0]} "
                      f"(Im omega < 0); the run may diverge", RuntimeWarning, stacklevel=2)
    comp = np.tile(np.eye(4, k=1, dtype=np.complex128), (len(coef), 1, 1))
    comp[:, 3] = -coef[:, :4] * np.array([1.0, -1j, -1.0, 1j]) / coef[:, 4:]
    # balance by the exact similarity D = diag(1, r, r^2, r^3), r a power of two near k:
    # the last row grows like k^4, the eigenvalues like k, and _expm squares by the norm
    d = np.exp2(np.round(np.log2(np.maximum(1.0, init.k))))[:, None] ** np.arange(4)
    comp = comp * d[:, None, :] / d[:, :, None]
    ts = np.atleast_1d(times)
    with np.errstate(over="ignore", invalid="ignore"):  # growing modes overflow: checked below
        out = (_expm(ts[:, None, None, None] * comp) @ (init.derivs / d)[..., None])[..., 0] * d
    out[ts == 0] = init.derivs
    if not np.all(np.isfinite(out)):
        raise NumericalFailureError(f"density modes overflowed during evolution by t={ts.max()} "
                                    f"(model {params.model.value}); growing characteristic roots")
    states = [object.__new__(DensityModeState) for _ in ts]  # checked: skip __post_init__
    for st, tt, o in zip(states, ts, out):
        st.__dict__.update(k=init.k.copy(), derivs=o, t=init.t + float(tt))
    return states if times.ndim else states[0]


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
