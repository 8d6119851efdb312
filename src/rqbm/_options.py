"""The command line's front end: option tables, config files, argv parsing.

Imports no numpy, so `--help`, `--version` and usage errors exit before the
compute stack loads.  `main` parses argv first, then imports `rqbm.cli`,
checks every option and config value, and calls the subcommand's runner,
which it looks up on `rqbm.cli` by name at call time.
"""

from __future__ import annotations

import argparse
import logging
import math
import numbers
import os
import re
import sys
import warnings

from . import __version__
from .errors import InputError, NumericalFailureError

log = logging.getLogger("rqbm.cli")

_SENTINEL = object()  # marks "flag not given" so config/file defaults can fill in

# ---------------------------------------------------------------------------
# options
#
# Each subcommand declares every option once, as a (name, kind, default, help)
# row.  The rows build the argparse flags, the config-key whitelist, the
# coercion of every resolved value and the "default name = value" log lines.
# A kind is str, int, float, POSITIVE (a float > 0), a tuple of choices,
# SWITCH (a flag without a value) or PATHS (exactly three paths).

REQUIRED = object()  # default of an option that must be given
POSITIVE, SWITCH, PATHS = "positive float", "switch", "three paths"

COMMON = [
    ("config", str, None, "YAML config file whose keys are the long flag names; "
                          "flags override it"),
    ("out", str, REQUIRED, "output path (directory for evolve)"),
    ("format", ("csv", "json"), "csv", "output format"),
]


def _model_rows(default) -> list:
    return [
        ("model", str, default, "conservative, collisional, radiative, phase-diffusion, "
                                "dalembert-diffusion"),
        ("gamma", float, None, "collision rate"),
        ("tau", float, None, "radiative memory time"),
        ("diffusion", float, None, "phase diffusion constant"),
    ]


DISPERSION = COMMON + _model_rows(REQUIRED) + [
    ("k-min", float, 0.01, "smallest k"),
    ("k-max", float, 10.0, "largest k"),
    ("k-steps", int, 200, "number of k points"),
    ("k-scale", ("log", "linear"), "log", "spacing of the k points"),
]

EVOLVE = COMMON + _model_rows("conservative") + [
    ("n", int, 256, "grid points"),
    ("length", POSITIVE, 100.0, "periodic box length"),
    ("dt", POSITIVE, 0.01, "time step"),
    ("steps", int, 100, "number of time steps"),
    ("method", ("exact-mode", "stepper"), "exact-mode", "field evolution method"),
    ("snapshot-stride", int, 1, "steps between written snapshots"),
    ("init", ("gaussian", "plane-wave", "zero"), "gaussian", "initial field"),
    ("sigma", POSITIVE, 8.0, "Gaussian packet width"),
    ("kbar", float, 0.0, "Gaussian packet mean wavenumber"),
    ("mode-k", float, None, "plane-wave wavenumber, a grid mode (--init plane-wave)"),
    ("amplitude", float, 1.0, "plane-wave amplitude"),
    ("density", SWITCH, False, "evolve a linearized density mode instead of the field"),
    ("k", float, 0.1, "density mode wavenumber"),
    ("potential", ("none", "harmonic"), "none", "external potential of the field"),
    ("omega0", POSITIVE, None, "harmonic frequency (--potential harmonic)"),
]

MADELUNG = COMMON + _model_rows("conservative") + [
    ("snapshots", PATHS, REQUIRED, "three consecutive snapshot files written by evolve"),
]

SPECTRUM = COMMON + [
    ("potential", ("free", "harmonic", "box", "tabulated"), REQUIRED, "confining potential"),
    ("omega0", POSITIVE, None, "harmonic frequency (--potential harmonic)"),
    ("width", POSITIVE, None, "box width (--potential box)"),
    ("potential-file", str, None, "text file of --n potential values (--potential tabulated)"),
    ("n", int, 1024, "grid points"),
    ("length", POSITIVE, 400.0, "domain length"),
    ("levels", int, 8, "number of levels"),
    ("richardson", SWITCH, False, "Richardson-extrapolate the levels on a halved mesh"),
]


def _load_config_file(path: str) -> dict:
    import yaml  # here, not at the top: only --config needs it, and it is slow to load

    try:
        with open(path) as f:
            doc = yaml.safe_load(f)
    except OSError as exc:
        raise InputError(f"cannot read config {path}: {exc}") from exc
    except yaml.YAMLError as exc:
        mark = getattr(exc, "problem_mark", None)
        where = f" (line {mark.line + 1}, column {mark.column + 1})" if mark else ""
        raise InputError(f"config parse error in {path}{where}: {exc}") from exc
    if doc is None:
        return {}
    if not isinstance(doc, dict):
        raise InputError(f"config {path} must be a mapping of flag names to values")
    return doc


def _coerce(name: str, kind, default, val):
    """Check one resolved value against its option's kind.  A null stays
    unset only for an option whose default is None; a switch takes only a
    boolean."""
    if val is None:
        if default is None:
            return None
        raise InputError(f"--{name} expects a value, got null")
    if kind is SWITCH:
        if not isinstance(val, bool):
            raise InputError(f"--{name} expects true or false, got {val!r}")
        return val
    if kind is str:
        if not isinstance(val, str):
            raise InputError(f"--{name} expects a string, got {val!r}")
        return val
    if kind is int:
        if isinstance(val, bool) or not (isinstance(val, numbers.Integral) or (
                isinstance(val, str) and re.fullmatch(r"[+-]?[0-9]+", val))):
            raise InputError(f"--{name} expects an integer, got {val!r}")
        return int(val)
    if isinstance(kind, tuple):
        if val not in kind:
            raise InputError(f"--{name} must be one of {', '.join(kind)}; got {val!r}")
        return val
    if kind is PATHS:
        if not (isinstance(val, (list, tuple)) and len(val) == 3):
            raise InputError(f"--{name} takes exactly three paths")
        return [str(p) for p in val]
    try:
        out = float(val)
    except (TypeError, ValueError):
        raise InputError(f"--{name} expects a number, got {val!r}")
    if kind is POSITIVE and not (math.isfinite(out) and out > 0):
        raise InputError(f"--{name} must be positive, got {out}")
    return out


def _resolve(args: argparse.Namespace, options: list) -> dict:
    """Typed values of every option, keyed by dest: flags beat config values
    beat defaults.  Echoes every default used, and checks every value, also
    those of options the run ignores."""
    file_cfg = {} if args.config is _SENTINEL else _load_config_file(args.config)
    known = [name for name, *_ in options]
    for key in file_cfg:
        if key not in known:
            raise InputError(f"unknown config key {key!r}; valid keys: {', '.join(sorted(known))}")
    cfg = {}
    for name, kind, default, _ in options:
        dest = name.replace("-", "_")
        val = getattr(args, dest)
        if val is not _SENTINEL:
            if name in file_cfg:
                log.info("flag --%s=%r overrides config value %r", name, val, file_cfg[name])
        elif name in file_cfg:
            val = file_cfg[name]
        else:
            val = default
            if default is not REQUIRED and name != "config":
                log.info("default %s = %r", name, default)
        if default is REQUIRED and (val is None or val is REQUIRED):
            raise InputError(f"missing required option --{name}")
        cfg[dest] = _coerce(name, kind, default, val)
    return cfg


# ---------------------------------------------------------------------------
# parser

def build_parser() -> argparse.ArgumentParser:
    """The argparse parser; each subcommand sets `runner`, the name of its
    function in `rqbm.cli`, and `options`, its option table."""
    parser = argparse.ArgumentParser(
        prog="rqbm",
        description="Relativistic quantum fluid workbench: dispersion roots, "
                    "field/density evolution, Madelung diagnostics, spectra.",
    )
    parser.add_argument("--version", action="version", version=f"rqbm {__version__}")
    subs = parser.add_subparsers(dest="command", required=True)
    for command, runner, options, text in (
        ("dispersion", "_run_dispersion", DISPERSION, "sweep k and write certified roots"),
        ("evolve", "_run_evolve", EVOLVE, "evolve the field or a density mode"),
        ("madelung", "_run_madelung", MADELUNG, "decompose three snapshots and report residuals"),
        ("spectrum", "_run_spectrum", SPECTRUM, "nonrelativistic levels and the energy map"),
    ):
        p = subs.add_parser(command, help=text)
        for name, kind, default, help_text in options:
            if kind in (int, float, POSITIVE):
                extra = {"type": int if kind is int else float}
            elif isinstance(kind, tuple):
                extra = {"choices": kind}
            elif kind is SWITCH:
                extra = {"action": "store_const", "const": True}
            elif kind is PATHS:
                extra = {"nargs": 3, "metavar": ("T0", "T1", "T2")}
            else:
                extra = {}
            note = "(required)" if default is REQUIRED else f"(default: {default})"
            p.add_argument(f"--{name}", default=_SENTINEL, help=f"{help_text} {note}", **extra)
        p.set_defaults(runner=runner, options=options)
    return parser


def _show_warning(message, category, filename, lineno, file=None, line=None) -> None:
    """A warning as one line of the CLI's own, without the source location."""
    print(f"rqbm: warning: {message}", file=sys.stderr)


def main(argv=None) -> int:
    """Run one rqbm command line; the exit code."""
    level = os.environ.get("RQBM_LOG", "WARNING").upper()
    logging.basicConfig(
        stream=sys.stderr,
        level=getattr(logging, level, logging.WARNING),
        format="%(levelname)s %(name)s: %(message)s",
    )
    args = build_parser().parse_args(argv)
    from . import cli

    try:
        with warnings.catch_warnings():
            warnings.showwarning = _show_warning
            return getattr(cli, args.runner)(_resolve(args, args.options))
    except InputError as exc:
        print(f"rqbm: input error: {exc}", file=sys.stderr)
        return 2
    except NumericalFailureError as exc:
        print(f"rqbm: numerical failure: {exc}", file=sys.stderr)
        return 3
    except Exception as exc:  # pragma: no cover - catch-all safety net
        print(f"rqbm: unexpected failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
