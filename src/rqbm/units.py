"""Compton unit system and model parameter containers.

Everything downstream works in natural units where hbar = m = c = 1.  One
unit of length is the reduced Compton wavelength hbar/(m c), one unit of
time is hbar/(m c^2), energies are in units of the rest energy m c^2.  The
zitterbewegung angular frequency 2 m c^2 / hbar is exactly 2 in these units,
independent of the particle.

This module is the only place SI values appear.  The rest of the package
never sees a dimensionful number.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

from .errors import InputError

# CODATA 2018
HBAR = 1.054571817e-34        # J s
C_LIGHT = 299792458.0         # m / s, exact
ELECTRON_MASS = 9.1093837015e-31   # kg
FINE_STRUCTURE = 7.2973525693e-3

#: Angular frequency of the internal oscillation in Compton units.
ZITTERBEWEGUNG_OMEGA = 2.0


class Dimension(enum.Enum):
    LENGTH = "length"          # hbar / (m c)
    TIME = "time"              # hbar / (m c^2)
    ENERGY = "energy"          # m c^2
    FREQUENCY = "frequency"    # m c^2 / hbar
    WAVENUMBER = "wavenumber"  # m c / hbar
    DIFFUSION = "diffusion"    # hbar / m


@dataclass(frozen=True)
class UnitScales:
    """SI value of one Compton unit for each supported dimension."""

    mass: float  # kg

    @property
    def length(self) -> float:
        return HBAR / (self.mass * C_LIGHT)

    @property
    def time(self) -> float:
        return HBAR / (self.mass * C_LIGHT**2)

    @property
    def energy(self) -> float:
        return self.mass * C_LIGHT**2

    @property
    def frequency(self) -> float:
        return 1.0 / self.time

    @property
    def wavenumber(self) -> float:
        return 1.0 / self.length

    @property
    def diffusion(self) -> float:
        return HBAR / self.mass

    def scale(self, dim: Dimension) -> float:
        return getattr(self, dim.value)

    def to_compton(self, value: float, dim: Dimension) -> float:
        """SI -> Compton units."""
        return value / self.scale(dim)

    def from_compton(self, value: float, dim: Dimension) -> float:
        """Compton units -> SI."""
        return value * self.scale(dim)


def from_particle(mass_kg: float) -> UnitScales:
    if not (mass_kg > 0.0 and math.isfinite(mass_kg)):
        raise InputError(f"mass must be positive and finite, got {mass_kg!r}")
    return UnitScales(mass=mass_kg)


def electron() -> UnitScales:
    return UnitScales(mass=ELECTRON_MASS)


def electron_radiative_rate() -> float:
    """Classical radiation-reaction time of the electron, in Compton units.

    e^2 / (6 pi eps0 m c^3) divided by the Compton time collapses to
    (2/3) * alpha, with no explicit charge or mass left over.
    """
    return (2.0 / 3.0) * FINE_STRUCTURE


class Model(enum.Enum):
    """Which evolution law: the closed system or one of three open ones."""

    CONSERVATIVE = "conservative"
    COLLISIONAL = "collisional"
    RADIATIVE = "radiative"
    PHASE_DIFFUSION = "phase-diffusion"
    DALEMBERT_DIFFUSION = "dalembert-diffusion"


#: Physical dimension of each model's rate constant (Compton units of...).
RATE_DIMENSION = {
    Model.COLLISIONAL: Dimension.FREQUENCY,
    Model.RADIATIVE: Dimension.TIME,
    Model.PHASE_DIFFUSION: Dimension.DIFFUSION,
    Model.DALEMBERT_DIFFUSION: Dimension.DIFFUSION,
}

DISSIPATIVE_MODELS = (
    Model.COLLISIONAL,
    Model.RADIATIVE,
    Model.PHASE_DIFFUSION,
    Model.DALEMBERT_DIFFUSION,
)


#: Which ModelParams field carries each model's rate constant.
_RATE_FIELD = {
    Model.COLLISIONAL: "gamma",
    Model.RADIATIVE: "tau",
    Model.PHASE_DIFFUSION: "diffusion",
    Model.DALEMBERT_DIFFUSION: "diffusion",
}


@dataclass(frozen=True)
class ModelParams:
    """A model tag plus its rate constant, already in Compton units.

    Exactly the field matching the model may be set: gamma (1/time) for
    collisional, tau (time) for radiative, diffusion (length^2/time) for the
    two diffusion models.  The conservative model takes none.  Rates must be
    nonnegative; zero is allowed and reduces to the conservative dynamics.
    """

    model: Model
    gamma: float | None = None
    tau: float | None = None
    diffusion: float | None = None

    def __post_init__(self) -> None:
        if not isinstance(self.model, Model):
            raise InputError(f"model must be a Model enum member, got {self.model!r}")
        want = _RATE_FIELD.get(self.model)
        for name in ("gamma", "tau", "diffusion"):
            val = getattr(self, name)
            if name == want:
                if val is None:
                    raise InputError(f"{self.model.value} model requires {name}")
                if not (isinstance(val, (int, float)) and math.isfinite(val) and val >= 0.0):
                    raise InputError(f"{name} must be finite and >= 0, got {val!r}")
            elif val is not None:
                raise InputError(f"{self.model.value} model does not take {name}")

    @property
    def rate(self) -> float:
        """The model's single rate constant; 0 for conservative."""
        want = _RATE_FIELD.get(self.model)
        return 0.0 if want is None else float(getattr(self, want))

    @property
    def dissipative(self) -> bool:
        return self.model is not Model.CONSERVATIVE and self.rate > 0.0


def conservative() -> ModelParams:
    return ModelParams(Model.CONSERVATIVE)


def collisional(gamma: float) -> ModelParams:
    return ModelParams(Model.COLLISIONAL, gamma=gamma)


def radiative(tau: float) -> ModelParams:
    return ModelParams(Model.RADIATIVE, tau=tau)


def phase_diffusion(diffusion: float) -> ModelParams:
    return ModelParams(Model.PHASE_DIFFUSION, diffusion=diffusion)


def dalembert_diffusion(diffusion: float) -> ModelParams:
    return ModelParams(Model.DALEMBERT_DIFFUSION, diffusion=diffusion)


def make_params(model: Model, rate: float | None) -> ModelParams:
    """Build ModelParams from a model tag and a bare rate number."""
    if model is Model.CONSERVATIVE:
        if rate not in (None, 0, 0.0):
            raise InputError("conservative model takes no rate constant")
        return ModelParams(model)
    if rate is None:
        raise InputError(f"{model.value} model requires a rate constant")
    return ModelParams(model, **{_RATE_FIELD[model]: float(rate)})


def model_from_name(name: str) -> Model:
    key = name.strip().lower().replace("_", "-")
    for m in Model:
        if m.value == key:
            return m
    valid = ", ".join(m.value for m in Model)
    raise InputError(f"unknown model {name!r}; expected one of: {valid}")
