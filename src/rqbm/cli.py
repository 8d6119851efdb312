"""Batch command line: the subcommands' runners and their table writers.

Four subcommands (dispersion, evolve, madelung, spectrum) over a shared
config pipeline: a YAML file whose keys mirror the kebab-case long flags,
with explicit flags taking precedence and every defaulted value echoed to
the run log.  Outputs are CSV (17 significant digits, byte-stable for
identical configs) or JSON mirrors, written atomically.  The option tables,
the parser and `main` live in `rqbm._options`, which imports no numpy;
`main` and `build_parser` are re-exported here.

Exit codes: 0 success, 2 input/validation error, 3 numerical failure.
Set RQBM_LOG=INFO (or DEBUG, ...) for run logs on stderr.
"""

from __future__ import annotations

import json
import logging
import math
import os
import pickle
import re
import tempfile
from dataclasses import replace

# rqbm's BLAS calls are stacks of 4x4 matrices: a second OpenBLAS thread
# only spins on the other core.  Set before numpy loads OpenBLAS.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import numpy as np

from ._options import build_parser, main  # noqa: F401  (the command line's entry points)
from .dispersion import asymptotic_omega, track_branches
from .errors import InputError, NumericalFailureError, UnsupportedRegimeError
from .evolve import (
    DensityModeState,
    EvolutionConfig,
    evolve_density,
    evolve_field,
    gaussian_packet,
    particle_branch_project,
    plane_wave,
)
from .grid import ComplexField, Grid1D
from .madelung import FLOOR, MadelungFields, decompose, reconstruct, residuals
from .spectrum import (
    Box,
    Free,
    Harmonic,
    Tabulated,
    nonrel_eigen,
    nonrel_eigen_richardson,
    relativistic_map,
)
from .units import Model, ModelParams, model_from_name

log = logging.getLogger("rqbm.cli")


def _atomic_write(path: str, blocks) -> None:
    """Write the strings `blocks`, one `write` each, to a temp file beside
    `path`, and rename it over `path` once all are written."""
    path = os.path.abspath(path)
    fd, tmp = tempfile.mkstemp(dir=os.path.dirname(path), prefix=".rqbm-", suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as f:
            for block in blocks:
                f.write(block)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def _csv_cell(v) -> str:
    if v is None:
        return ""
    if isinstance(v, str):
        return v
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    return "%.17g" % float(v)


def _json_cell(v) -> str:
    if v is None or (isinstance(v, float) and math.isnan(v)):
        return "null"
    if isinstance(v, np.integer):
        return str(int(v))
    return json.dumps(v)


# rows formatted and written at a time, so that writing a table holds
# the text and the Python values of this many rows only
_ROWS = 256


def _is_floats(col) -> bool:
    return isinstance(col, np.ndarray) and col.dtype == np.float64


def _cells(col, fmt: str) -> list:
    """The values that fill a column's field of the line template, for one
    block of rows.  A float64 array is formatted by the template itself:
    "%.17g" in CSV, and in JSON "%s", which prints a float as its shortest
    repr as json does; only its non-finite values become JSON cell strings.
    Any other column becomes cell strings one value at a time."""
    if _is_floats(col):
        values = col.tolist()
        if fmt == "json":
            for i in np.flatnonzero(~np.isfinite(col)):
                values[i] = _json_cell(values[i])
        return values
    return list(map(_csv_cell if fmt == "csv" else _json_cell, col))


def _write_table(path: str, fmt: str, header: list[str], columns: list,
                 footer: dict | None = None) -> None:
    """Write equal-length columns (arrays or sequences) as CSV or its JSON mirror.

    CSV rows are `_csv_cell` cells ("%.17g", empty for None) joined by commas,
    then one `# key = value` line per footer entry.  JSON is exactly
    json.dumps({"rows": [...], "diagnostics": footer}, indent=2) with NaN
    written as null; each row fills one record template.  Both are built
    and written `_ROWS` rows at a time, each block formatted from its slice
    of every column, so the bytes do not depend on the block size.  Columns
    of unequal length raise ValueError before any file is made.
    """
    n = len(columns[0]) if columns else 0
    if any(len(col) != n for col in columns):
        raise ValueError(f"columns of unequal length: {[len(col) for col in columns]}")
    fields = ["%.17g" if fmt == "csv" and _is_floats(col) else "%s" for col in columns]

    def rows(j: int):
        return zip(*(_cells(col[j:j + _ROWS], fmt) for col in columns))

    def csv():
        yield ",".join(header) + "\n"
        line = ",".join(fields) + "\n"
        for j in range(0, n, _ROWS):
            yield "".join([line % row for row in rows(j)])
        yield "".join(f"# {k} = {_csv_cell(v)}\n" for k, v in (footer or {}).items())

    def json_doc():
        rec = "    {\n" + ",\n".join(
            f"      {json.dumps(h).replace('%', '%%')}: {field}"
            for h, field in zip(header, fields)) + "\n    }"
        yield '{\n  "rows": ' + ("[\n" if n else "[]")
        for j in range(0, n, _ROWS):
            yield (",\n" if j else "") + ",\n".join([rec % row for row in rows(j)])
        text = "\n  ]" if n else ""
        if footer:
            items = ",\n".join(f"    {json.dumps(k)}: {_json_cell(v)}"
                               for k, v in footer.items())
            text += f',\n  "diagnostics": {{\n{items}\n  }}'
        yield text + "\n}\n"

    _atomic_write(path, csv() if fmt == "csv" else json_doc())


class _SnapshotWriter:
    """`_write_table` for the snapshot files of one field run, with every
    other file (positions 0, 2, 4, ...) written by a child process forked
    once, so that formatting, the cost of these files, runs on a second core
    while this process computes.  Every field run writes at least two files
    (steps >= 1, and the stride divides them); only a platform without
    `os.fork` writes every file here.  Jobs go down a pipe as pickles, and
    the child runs the same `_write_table` on each, so every byte is as a
    serial run writes it.  A failure in the child comes back up a second
    pipe as the pickled exception and is raised here.

    Fork, not spawn: this process runs a single thread (no Python thread,
    and no OpenBLAS worker unless the user's OPENBLAS_NUM_THREADS asks for
    one; see the top of this module), and the child runs only pure-Python
    formatting and file writes, with no BLAS or FFT call and no logging.  A
    spawned worker would pay a second interpreter start and numpy import,
    about 0.15 s of CPU per run.  The child leaves only through `os._exit`,
    never into the caller.
    """

    def __init__(self):
        self.pid, self.count = None, 0
        if not hasattr(os, "fork"):
            return
        jobs_r, jobs_w = os.pipe()
        err_r, err_w = os.pipe()
        pid = os.fork()
        if pid == 0:
            status = 1
            try:
                os.close(jobs_w)
                os.close(err_r)
                status = self._serve(jobs_r, err_w)
            finally:
                os._exit(status)
        os.close(jobs_r)
        os.close(err_w)
        self.pid, self.jobs, self.err = pid, os.fdopen(jobs_w, "wb"), err_r

    @staticmethod
    def _serve(jobs_r: int, err_w: int) -> int:
        """The child: write each job until the pipe closes.  On a failure,
        report it and stop reading, which breaks the parent's next send."""
        try:
            with os.fdopen(jobs_r, "rb") as jobs:
                while True:
                    try:
                        job = pickle.load(jobs)
                    except EOFError:
                        return 0
                    _write_table(*job)
        except BaseException as exc:
            try:
                report = pickle.dumps(exc)
            except Exception:
                report = pickle.dumps(RuntimeError(f"{type(exc).__name__}: {exc}"))
            with os.fdopen(err_w, "wb") as err:
                err.write(report)
            return 1

    def __enter__(self):
        return self

    def write(self, *job) -> None:
        self.count += 1
        if self.pid is None or self.count % 2 == 0:  # the child takes positions 0, 2, ...
            _write_table(*job)
            return
        try:
            pickle.dump(job, self.jobs, pickle.HIGHEST_PROTOCOL)
            self.jobs.flush()
        except BrokenPipeError:
            self.close(check=True)  # raises the child's failure
            raise

    def close(self, check: bool) -> None:
        """Close the pipe, let the child write what it was sent, and reap it.
        With `check`, raise what failed in the child."""
        if self.pid is None:
            return
        try:
            self.jobs.close()
        except BrokenPipeError:
            pass
        with os.fdopen(self.err, "rb") as err:
            report = err.read()
        _, status = os.waitpid(self.pid, 0)
        self.pid = None
        if check and report:
            raise pickle.loads(report)
        if check and status:
            raise RuntimeError(f"snapshot writer exited with status "
                               f"{os.waitstatus_to_exitcode(status)}")

    def __exit__(self, exc_type, exc, tb) -> None:
        # on an error path the run's own exception wins over the child's
        self.close(check=exc_type is None)


def _check_out_file(path: str) -> None:
    """An output file the run could not create is an input error, found
    before the run rather than at its end."""
    folder = os.path.dirname(os.path.abspath(path))
    if not os.path.isdir(folder):
        raise InputError(f"--out {path}: directory {folder} does not exist")
    if os.path.isdir(path):
        raise InputError(f"--out {path} is a directory")


def _model_params(cfg: dict) -> ModelParams:
    model = model_from_name(str(cfg["model"]))
    return ModelParams(model, gamma=cfg["gamma"], tau=cfg["tau"], diffusion=cfg["diffusion"])


# ---------------------------------------------------------------------------
# subcommands: `rqbm._options.build_parser` names each runner, and `main`
# looks it up here by that name

def _run_dispersion(cfg: dict) -> int:
    _check_out_file(cfg["out"])
    params = _model_params(cfg)
    k_min, k_max, k_steps = cfg["k_min"], cfg["k_max"], cfg["k_steps"]
    if k_steps < 2:
        raise InputError("--k-steps must be an integer >= 2")
    if not (np.isfinite(k_min) and np.isfinite(k_max) and 0 <= k_min < k_max):
        raise InputError(f"need 0 <= k-min < k-max, got [{k_min}, {k_max}]")
    if cfg["k_scale"] == "log":
        if k_min <= 0:
            raise InputError("log-spaced sweeps need k-min > 0 (use --k-scale linear)")
        k_grid = np.geomspace(k_min, k_max, k_steps)
    else:
        k_grid = np.linspace(k_min, k_max, k_steps)

    curve = track_branches(params, k_grid)
    deg = curve.branches.shape[0]
    header = (["model", "k"]
              + [f"{p}_w{i}" for i in range(1, 5) for p in ("re", "im")]
              + [f"res{i}" for i in range(1, 5)]
              + [f"branch{i}" for i in range(1, 5)]
              + ["asym_low_re", "asym_low_im"])
    asym = []
    for k in k_grid:
        try:
            asym.append(asymptotic_omega(params, float(k), "low"))
        except UnsupportedRegimeError:
            asym.append(None)
    missing = [None] * len(k_grid)
    columns = [[params.model.value] * len(k_grid), k_grid]
    for i in range(4):
        columns += [curve.branches[i].real, curve.branches[i].imag] if i < deg else [missing] * 2
    columns += [curve.residuals[i] if i < deg else missing for i in range(4)]
    columns += [[curve.labels[i] if i < deg else ""] * len(k_grid) for i in range(4)]
    columns += [[None if a is None else a.real for a in asym],
                [None if a is None else a.imag for a in asym]]
    _write_table(cfg["out"], cfg["format"], header, columns)
    log.info("wrote %d rows to %s", len(k_grid), cfg["out"])
    return 0


def _snap_name(t: float, fmt: str) -> str:
    return f"snap_{t:.12g}.{fmt}"


def _window(grid: Grid1D, levels, times, params: ModelParams, potential=None, prior=None):
    """The Madelung fields and diagnostics of one window, for both `evolve`
    and `madelung`.  A level is a psi array, decomposed against the phase of
    the level before it (the first against `prior`), or the MadelungFields a
    previous window made of it, which is only re-stamped."""
    fields = []
    for level, t in zip(levels, times):
        if isinstance(level, MadelungFields):
            f = replace(level, t=t)
        else:
            f = decompose(ComplexField(grid, level), prior_S=prior, t=t)
        fields.append(f)
        prior = f.S
    return fields, residuals(fields, params, potential=potential)


def _run_evolve(cfg: dict) -> int:
    params = _model_params(cfg)
    fmt, dt, steps, stride = cfg["format"], cfg["dt"], cfg["steps"], cfg["snapshot_stride"]
    outdir = cfg["out"]
    if os.path.exists(outdir) and not os.path.isdir(outdir):
        raise InputError(f"--out {outdir} is a file; evolve writes a directory")

    def make_outdir():  # once every input has been checked
        try:
            os.makedirs(outdir, exist_ok=True)
        except OSError as exc:
            raise InputError(f"cannot create --out directory {outdir}: {exc.strerror}") from exc

    econf = EvolutionConfig(dt=dt, steps=steps, method=cfg["method"].replace("-", "_"),
                            snapshot_stride=stride)
    if cfg["density"]:
        if params.model is Model.CONSERVATIVE:
            raise InputError("--density needs a dissipative model")
        k = cfg["k"]
        if not (np.isfinite(k) and k >= 0):
            raise InputError(f"--k must be finite and >= 0, got {k!r}")
        make_outdir()
        init = DensityModeState(k=np.array([k]), derivs=np.array([[1.0, 0.0, 0.0, 0.0]]))
        ts = np.arange(steps // stride + 1) * stride * dt
        rho = np.array([s.rho[0] for s in evolve_density(params, init, ts)])
        path = os.path.join(outdir, f"density.{fmt}")
        _write_table(path, fmt, ["t", "k", "re_rho", "im_rho"],
                     [ts, [k] * len(ts), rho.real, rho.imag])
        log.info("wrote %d density samples to %s", len(ts), path)
        return 0

    if params.model is not Model.CONSERVATIVE:
        raise InputError(
            "field evolution integrates the conservative law; dissipative "
            "models evolve linearized densities (use --density)"
        )
    grid = Grid1D(cfg["n"], cfg["length"])

    if cfg["init"] == "gaussian":
        psi = gaussian_packet(grid, cfg["sigma"], cfg["kbar"])
    elif cfg["init"] == "plane-wave":
        if cfg["mode_k"] is None:
            raise InputError("--init plane-wave requires --mode-k")
        psi = plane_wave(grid, cfg["mode_k"], cfg["amplitude"])
    else:
        psi = ComplexField(grid, np.zeros(grid.n, dtype=np.complex128))

    potential = None
    if cfg["potential"] == "harmonic":
        if cfg["omega0"] is None:
            raise InputError("--potential harmonic requires --omega0")
        potential = Harmonic(cfg["omega0"]).on(grid.x)

    state = particle_branch_project(psi)
    # the equation is linear, so a zero field stays exactly zero
    zero_run = not np.any(state.psi.values)
    traj_rows = []
    fields = arrays = (None, None, None)  # the last window's
    windows = evolve_field(state, econf, potential=potential)
    make_outdir()
    # traj is written after the writer's child has been reaped, so a run
    # that fails in either process leaves no traj file
    with _SnapshotWriter() as writer:
        for s, prev, nxt in windows:
            if zero_run:
                q = rho = sph = np.zeros(grid.n)
                traj_rows.append([s.t, 0.0, 0.0, 0.0, 0.0, 0.0])
            else:
                # a level the last window decomposed (they share them at stride 1)
                # is reused; every level carries the time of its snapshot file
                # name, as `madelung` reads it, for residuals take dt from them
                levels = [fields[1] if prev is arrays[1] else prev,
                          fields[2] if s.psi.values is arrays[2] else s.psi.values, nxt]
                times = [float(f"{t:.12g}") for t in (s.t - dt, s.t, s.t + dt)]
                try:
                    with np.errstate(over="raise", invalid="raise"):
                        fields, diag = _window(grid, levels, times, params, potential,
                                               prior=None if fields[1] is None else fields[1].S)
                except (InputError, FloatingPointError) as exc:
                    # every input was checked before the run: an evolved window
                    # whose levels or residuals overflow has diverged
                    raise NumericalFailureError(
                        f"field overflowed near t={s.t:.12g}: {exc}") from exc
                q, rho, sph = diag.Q, fields[1].rho, fields[1].S
                traj_rows.append([s.t, diag.N, diag.N_mod, diag.E,
                                  diag.continuity_residual, diag.hj_residual])
            writer.write(os.path.join(outdir, _snap_name(s.t, fmt)), fmt,
                         ["x", "re_psi", "im_psi", "rho", "S", "Q"],
                         [grid.x, s.psi.values.real, s.psi.values.imag, rho, sph, q])
            arrays = (prev, s.psi.values, nxt)

    path = os.path.join(outdir, f"traj.{fmt}")
    _write_table(path, fmt,
                 ["t", "N", "N_mod", "E", "continuity_residual", "hj_residual"],
                 list(zip(*traj_rows)))
    log.info("wrote %d snapshots and %s", len(traj_rows), path)
    return 0


def _read_snapshot(path: str) -> tuple[np.ndarray, np.ndarray, float, np.ndarray | None]:
    m = re.search(r"snap_([^/\\]+)\.(csv|json)$", path)
    if not m:
        raise InputError(f"snapshot name {path!r} does not match snap_<t>.csv")
    try:
        t = float(m.group(1))
    except ValueError:
        raise InputError(f"cannot parse snapshot time from {path!r}")
    try:
        if m.group(2) == "json":
            with open(path) as f:
                doc = json.load(f)
            rows = doc["rows"]
            x = np.array([r["x"] for r in rows], dtype=float)
            psi = np.array([complex(r["re_psi"], r["im_psi"]) for r in rows])
            phase = np.array([r.get("S") for r in rows], dtype=float)
        else:
            data = np.genfromtxt(path, delimiter=",", names=True, comments="#")
            x = np.asarray(data["x"], dtype=float)
            psi = np.asarray(data["re_psi"]) + 1j * np.asarray(data["im_psi"])
            phase = np.asarray(data["S"], dtype=float) if "S" in data.dtype.names else None
    except OSError as exc:
        raise InputError(f"cannot read snapshot {path}: {exc}") from exc
    except (KeyError, TypeError, ValueError) as exc:
        raise InputError(f"snapshot {path} is malformed: {exc}") from exc
    if x.ndim != 1 or len(x) < 8:
        raise InputError(f"snapshot {path} holds too few points")
    if not np.all(np.isfinite(x)):
        raise InputError(f"snapshot {path} is malformed: x is not finite")
    return x, psi, t, phase


def _run_madelung(cfg: dict) -> int:
    _check_out_file(cfg["out"])
    params = _model_params(cfg)
    xs, psis, ts, phases = zip(*(_read_snapshot(p) for p in cfg["snapshots"]))
    x = xs[0]
    for other in xs[1:]:
        if len(other) != len(x) or np.max(np.abs(other - x)) > 1e-12 * max(1.0, np.max(np.abs(x))):
            raise InputError("snapshots live on different grids")
    dxs = np.diff(x)
    if np.max(np.abs(dxs - dxs[0])) > 1e-9 * abs(dxs[0]):
        raise InputError("snapshot x column is not uniformly spaced")
    grid = Grid1D(len(x), float(len(x) * dxs[0]))
    # the run's own phase branch, so S and the residuals equal what evolve wrote
    prior = phases[0] if phases[0] is not None and np.all(np.isfinite(phases[0])) else None
    fields, diag = _window(grid, psis, ts, params, prior=prior)
    f1 = fields[1]
    recon = reconstruct(f1)
    ok = f1.rho > FLOOR
    recon_err = float(np.max(np.abs(recon.values - psis[1])[ok])) if ok.any() else 0.0

    footer = {
        "t": diag.t,
        "N": diag.N,
        "N_mod": diag.N_mod,
        "E": diag.E,
        "continuity_residual": diag.continuity_residual,
        "hj_residual": diag.hj_residual,
        "excluded_fraction": diag.excluded_fraction,
        "reconstruction_error": recon_err,
    }
    _write_table(cfg["out"], cfg["format"], ["x", "rho", "S", "Q"], [x, f1.rho, f1.S, diag.Q],
                 footer=footer)
    log.info("wrote %s (hj_residual = %.3e)", cfg["out"], diag.hj_residual)
    return 0


def _run_spectrum(cfg: dict) -> int:
    _check_out_file(cfg["out"])
    grid = Grid1D(cfg["n"], cfg["length"])
    kind = cfg["potential"]
    if kind == "free":
        pot = Free()
    elif kind == "harmonic":
        if cfg["omega0"] is None:
            raise InputError("--potential harmonic requires --omega0")
        pot = Harmonic(cfg["omega0"])
    elif kind == "box":
        if cfg["width"] is None:
            raise InputError("--potential box requires --width")
        pot = Box(cfg["width"])
    else:
        pf = cfg["potential_file"]
        if pf is None:
            raise InputError("--potential tabulated requires --potential-file")
        try:
            vals = np.loadtxt(pf, ndmin=1)
        except OSError as exc:
            raise InputError(f"cannot read potential file {pf}: {exc}") from exc
        except ValueError as exc:
            raise InputError(f"potential file {pf} is malformed: {exc}") from exc
        pot = Tabulated(vals)

    if cfg["richardson"]:
        eps = nonrel_eigen_richardson(pot, grid, cfg["levels"])
    else:
        eps = nonrel_eigen(pot, grid, cfg["levels"])
    result = relativistic_map(eps)
    _write_table(cfg["out"], cfg["format"], ["n", "epsilon", "E", "E_series", "rel_gap"],
                 [list(range(len(eps))), result.epsilon, result.E, result.E_series,
                  result.rel_gap])
    log.info("wrote %d levels to %s", len(eps), cfg["out"])
    return 0
