"""The benchmark's workloads: inputs drawn from a seed, the rqbm invocations
of one pass, and the checks of what a pass writes.

Each workload is a fixed list of command lines.  The seed only moves the
rates, k-range ends, packet widths and probe points inside the ranges below,
which bench/README.md lists together with the asymptote validity domain
each range keeps to.
"""

from __future__ import annotations

import csv
import json
import math
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

import oracle

U = oracle.U
TINY = np.finfo(float).tiny
RATE_FLAG = {"collisional": "gamma", "radiative": "tau",
             "phase-diffusion": "diffusion", "dalembert-diffusion": "diffusion"}


@dataclass
class Step:
    """One rqbm invocation; `check` inspects its outputs and returns problems."""

    name: str
    argv: list[str]
    check: Callable[[], list[str]] | None = None
    needs: tuple[str, ...] = ()


@dataclass
class Workload:
    params: dict
    steps: list[Step]
    inputs: dict[Path, str] = field(default_factory=dict)  # written before each pass


def _draw(rng: random.Random, lo: float, hi: float, log: bool = False) -> float:
    """A value in [lo, hi] rounded to 4 significant digits, so that the
    command line carries it exactly."""
    v = lo * (hi / lo) ** rng.random() if log else rng.uniform(lo, hi)
    return float(f"{v:.4g}")


# --- reading outputs -------------------------------------------------------

def read_table(path: Path) -> tuple[dict[str, list], dict[str, float]]:
    """Columns and footer of a CSV or JSON table written by rqbm."""
    if path.suffix == ".json":
        doc = json.loads(path.read_text())
        rows = doc["rows"]
        cols = {key: [r[key] for r in rows] for key in (rows[0] if rows else {})}
        return cols, doc.get("diagnostics", {})
    lines = path.read_text().splitlines()
    footer = {}
    body = []
    for line in lines:
        if line.startswith("# "):
            key, val = line[2:].split(" = ")
            footer[key] = float(val)
        else:
            body.append(line)
    reader = csv.reader(body)
    header = next(reader)
    cols: dict[str, list] = {h: [] for h in header}
    for row in reader:
        for h, v in zip(header, row):
            cols[h].append(v)
    return cols, footer


def floats(values) -> np.ndarray:
    """Numeric column; empty CSV cells and JSON nulls read as NaN."""
    return np.array([math.nan if v in ("", None) else float(v) for v in values])


def read_psi(path: Path) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(x, psi, rho) columns of a snapshot file."""
    if path.suffix == ".json":
        cols, _ = read_table(path)
        x, re_, im, rho = (floats(cols[c]) for c in ("x", "re_psi", "im_psi", "rho"))
    else:
        a = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
        x, re_, im, rho = a[:, 0], a[:, 1], a[:, 2], a[:, 3]
    return x, re_ + 1j * im, rho


def snap_name(t: float, fmt: str) -> str:
    return f"snap_{t:.12g}.{fmt}"


def _close(a, b, rel: float) -> bool:
    return abs(a - b) <= rel * max(abs(a), abs(b))


# --- sweep -----------------------------------------------------------------

# model, rate range, log-uniform?, k_min range.  Each first k lies inside the
# low-k domain of its model's closed form (bench/README.md).
SWEEP_MODELS = (
    ("collisional", (0.5, 2.0), True, (0.01, 0.02)),
    ("radiative", (1e6, 4e6), True, (0.05, 0.1)),
    ("phase-diffusion", (8.0, 16.0), False, (0.01, 0.05)),
    ("dalembert-diffusion", (8.0, 16.0), False, (0.01, 0.05)),
)
SWEEP_K_MAX = (5.0, 10.0)
SWEEP_K_STEPS = 1000
SWEEP_JSON = "phase-diffusion"       # this sweep writes JSON
SWEEP_CONFIG = "dalembert-diffusion"  # this sweep reads its options from YAML

RESIDUAL_TOL = 1e-10   # certification threshold of every root
RES_AGREE = 5e-15      # written res columns against the recomputation (rounding)
COMPANION_TOL = 1e-6   # relative root distance to the companion eigenvalues
VIETA_TOL = 1e-10
ASYM_TOL = 0.01        # hydrodynamic root against its closed form at the first k


def sweep(seed: int, out: Path) -> Workload:
    rng = random.Random(f"sweep:{seed}")
    steps, inputs, params = [], {}, {}
    for model, (r0, r1), log, (k0, k1) in SWEEP_MODELS:
        rate = _draw(rng, r0, r1, log)
        k_min = _draw(rng, k0, k1)
        k_max = _draw(rng, *SWEEP_K_MAX)
        params[model] = {"rate": rate, "k_min": k_min, "k_max": k_max}
        fmt = "json" if model == SWEEP_JSON else "csv"
        path = out / f"{model}.{fmt}"
        opts = {"model": model, RATE_FLAG[model]: rate, "k-min": k_min, "k-max": k_max,
                "k-steps": SWEEP_K_STEPS, "k-scale": "log", "format": fmt}
        if model == SWEEP_CONFIG:
            cfg = out.parent / "inputs" / f"{model}.yaml"
            inputs[cfg] = "".join(f"{key}: {val!r}\n" if isinstance(val, float)
                                  else f"{key}: {val}\n" for key, val in opts.items())
            argv = ["dispersion", "--config", str(cfg), "--out", str(path)]
        else:
            argv = ["dispersion"]
            for key, val in opts.items():
                argv += [f"--{key}", str(val)]
            argv += ["--out", str(path)]
        steps.append(Step(model, argv, _sweep_check(path, model, rate, k_min, k_max)))
    return Workload(params, steps, inputs)


def _sweep_check(path: Path, model: str, rate: float, k_min: float, k_max: float):
    def check() -> list[str]:
        cols, _ = read_table(path)
        bad = []
        k = floats(cols["k"])
        want = np.geomspace(k_min, k_max, SWEEP_K_STEPS)
        if len(k) != len(want):
            return [f"{path.name}: {len(k)} rows, want {len(want)}"]
        if set(cols["model"]) != {model}:
            bad.append(f"{path.name}: model column {set(cols['model'])}")
        if np.max(np.abs(k - want) / want) > 4 * U:
            bad.append(f"{path.name}: k column is not the requested grid")
        w = np.stack([floats(cols[f"re_w{i}"]) + 1j * floats(cols[f"im_w{i}"])
                      for i in range(1, 5)], axis=1)
        coef = oracle.quartics(model, rate, k)
        res = oracle.scaled_residual(coef, w)
        if not np.all(res <= RESIDUAL_TOL):
            bad.append(f"{path.name}: backward error {np.nanmax(res):.2e} > {RESIDUAL_TOL}")
        written = np.stack([floats(cols[f"res{i}"]) for i in range(1, 5)], axis=1)
        if not np.all(np.abs(written - res) <= RES_AGREE):
            bad.append(f"{path.name}: res columns differ from the recomputation by "
                       f"{np.nanmax(np.abs(written - res)):.2e}")
        dist = oracle.multiset_distance(w, oracle.companion_roots(coef))
        if not np.all(dist <= COMPANION_TOL):
            j = int(np.nanargmax(dist))
            bad.append(f"{path.name}: roots at k={k[j]:.6g} are {dist[j]:.2e} from the "
                       "companion eigenvalues")
        sdev, pdev = oracle.vieta_devs(coef, w)
        if not (np.all(sdev <= VIETA_TOL) and np.all(pdev <= VIETA_TOL)):
            bad.append(f"{path.name}: Vieta deviation {max(sdev.max(), pdev.max()):.2e}")
        bad += _label_check(path.name, cols, w[0], model, rate, k[0])
        asym = np.array([oracle.low_k_candidates(model, rate, float(kk))[0] for kk in k])
        got = floats(cols["asym_low_re"]) + 1j * floats(cols["asym_low_im"])
        if not np.all(np.abs(got - asym) <= 4 * U * np.abs(asym)):
            bad.append(f"{path.name}: asym_low columns differ from the closed form")
        return bad
    return check


def _label_check(name: str, cols, w0: np.ndarray, model: str, rate: float,
                 k0: float) -> list[str]:
    labels = {tuple(cols[f"branch{i}"][j] for i in range(1, 5))
              for j in range(len(cols["k"]))}
    if len(labels) != 1:
        return [f"{name}: branch labels change along the sweep"]
    labels = labels.pop()
    if labels.count("hydrodynamic") != 1:
        return [f"{name}: labels {labels}"]
    bad = []
    h = labels.index("hydrodynamic")
    if int(np.argmin(np.abs(w0))) != h:
        bad.append(f"{name}: hydrodynamic branch is not the smallest root at k={k0}")
    dev = min(abs(w0[h] - c) / abs(c) for c in oracle.low_k_candidates(model, rate, k0))
    if dev > ASYM_TOL:
        bad.append(f"{name}: hydrodynamic root {w0[h]} is {dev:.2e} from its closed form")
    gapped = {i for i in range(4) if i != h and abs(w0[i].real) > 1}
    if {i for i, lab in enumerate(labels) if lab == "zitterbewegung-gapped"} != gapped:
        bad.append(f"{name}: gapped labels {labels} at roots {w0}")
    if any(lab not in ("hydrodynamic", "zitterbewegung-gapped", "other") for lab in labels):
        bad.append(f"{name}: unknown label in {labels}")
    return bad


# --- snapshots -------------------------------------------------------------

SNAP_N, SNAP_LENGTH, SNAP_DT, SNAP_STEPS = 1024, 200.0, 0.04, 125
SIGMA = (6.0, 12.0)       # packet widths: well resolved, 8 sigma inside the box
EXACT_TOL = 1e-12         # exact-mode snapshots, as a share of the packet peak
NORM_TOL = 1e-10          # traj N against 1
FOOTER_TOL = 1e-12        # madelung N, N_mod, E against the traj row
CONTINUITY_TOL = 1e-9     # madelung continuity_residual against the traj row
RECON_TOL = 1e-12


def _field_argv(method: str, n: int, length: float, dt: float, steps: int,
                stride: int, sigma: float, fmt: str, out: Path) -> list[str]:
    return ["evolve", "--method", method, "--n", str(n), "--length", str(length),
            "--dt", str(dt), "--steps", str(steps), "--snapshot-stride", str(stride),
            "--sigma", str(sigma), "--format", fmt, "--out", str(out)]


def snapshots(seed: int, out: Path) -> Workload:
    rng = random.Random(f"snapshots:{seed}")
    steps, params = [], {}
    for method, fmt in (("exact-mode", "csv"), ("stepper", "json")):
        sigma = _draw(rng, *SIGMA)
        centre = rng.randint(1, SNAP_STEPS - 1)
        params[method] = {"sigma": sigma, "centre": centre}
        run = out / method
        steps.append(Step(method, _field_argv(method, SNAP_N, SNAP_LENGTH, SNAP_DT, SNAP_STEPS,
                                              1, sigma, fmt, run),
                          _field_check(run, method, fmt, SNAP_N, SNAP_LENGTH, SNAP_DT,
                                       SNAP_STEPS, 1, sigma)))
        window = [run / snap_name(j * SNAP_DT, fmt) for j in (centre - 1, centre, centre + 1)]
        dest = out / f"{method}-madelung.{fmt}"
        steps.append(Step(f"{method}-madelung",
                          ["madelung", "--snapshots", *map(str, window), "--format", fmt,
                           "--out", str(dest)],
                          _madelung_check(dest, run, centre * SNAP_DT, SNAP_N),
                          needs=(method,)))
    return Workload(params, steps)


def _field_check(run: Path, method: str, fmt: str, n: int, length: float, dt: float,
                 steps: int, stride: int, sigma: float):
    def check() -> list[str]:
        bad = []
        ref = oracle.FieldReference(n, length, sigma)
        times = [j * stride * dt for j in range(steps // stride + 1)]
        names = {snap_name(t, fmt) for t in times}
        have = {p.name for p in run.glob("snap_*")}
        if have != names:
            return [f"{run.name}: snapshot files {sorted(have ^ names)[:4]} unexpected"]
        for t in times:
            x, psi, rho = read_psi(run / snap_name(t, fmt))
            err = float(np.max(np.abs(psi - ref.at(t))))
            allowed = EXACT_TOL * ref.peak
            if method == "stepper":
                allowed += ref.stepper_bound(dt, t)
            if not err <= allowed:
                bad.append(f"{run.name}: psi at t={t:.6g} is {err:.2e} from the reference "
                           f"(allowed {allowed:.2e})")
            if not np.array_equal(x, ref.x):
                bad.append(f"{run.name}: x column at t={t:.6g} is not the grid")
            # squares below the smallest normal float lose relative precision
            if not np.all(np.abs(rho - np.abs(psi) ** 2) <= 4 * U * np.abs(psi) ** 2 + TINY):
                bad.append(f"{run.name}: rho at t={t:.6g} is not |psi|^2")
        cols, _ = read_table(run / f"traj.{fmt}")
        tcol, nn, nmod, e = (floats(cols[c]) for c in ("t", "N", "N_mod", "E"))
        if len(tcol) != len(times) or np.any(np.abs(tcol - times) > 4 * U * tcol):
            bad.append(f"{run.name}: traj times differ from the snapshot times")
        if not np.all(np.abs(nn - 1) <= NORM_TOL):
            bad.append(f"{run.name}: traj N deviates from 1 by {np.max(np.abs(nn - 1)):.2e}")
        mis = np.abs(nmod - nn - e)
        if not np.all(mis <= 4 * U * np.maximum(np.abs(nmod), np.abs(nn))):
            bad.append(f"{run.name}: N_mod - N != E by {mis.max():.2e}")
        for c in ("continuity_residual", "hj_residual"):
            if not np.all(np.isfinite(floats(cols[c]))):
                bad.append(f"{run.name}: {c} not finite")
        return bad
    return check


def _madelung_check(dest: Path, run: Path, t: float, n: int):
    def check() -> list[str]:
        cols, foot = read_table(dest)
        fmt = dest.suffix[1:]
        tr, _ = read_table(run / f"traj.{fmt}")
        tcol = floats(tr["t"])
        j = int(np.argmin(np.abs(tcol - t)))
        bad = []
        if len(cols["x"]) != n:
            bad.append(f"{dest.name}: {len(cols['x'])} rows, want {n}")
        if not _close(float(foot["t"]), tcol[j], 4 * U):
            bad.append(f"{dest.name}: centre time {foot['t']} != {tcol[j]}")
        for key in ("N", "N_mod", "E"):
            if not _close(float(foot[key]), float(tr[key][j]), FOOTER_TOL):
                bad.append(f"{dest.name}: {key} {foot[key]} != traj {tr[key][j]}")
        if not _close(float(foot["continuity_residual"]),
                      float(tr["continuity_residual"][j]), CONTINUITY_TOL):
            bad.append(f"{dest.name}: continuity_residual differs from traj")
        if not float(foot["reconstruction_error"]) <= RECON_TOL:
            bad.append(f"{dest.name}: reconstruction_error {foot['reconstruction_error']}")
        return bad
    return check


# --- propagate -------------------------------------------------------------

PROP_N, PROP_LENGTH, PROP_DT = 8192, 1600.0, 0.05
PROP_STEPPER_STEPS = 2000
PROP_EXACT_STEPS, PROP_EXACT_STRIDE = 4000, 1000
# rate ranges keep every mode away from root coalescence (bench/README.md)
DENSITY_MODELS = (
    ("collisional", (0.5, 2.0), True),
    ("radiative", (0.05, 1.0), True),
    ("phase-diffusion", (3.0, 6.0), False),
    ("dalembert-diffusion", (3.0, 6.0), False),
)
DENSITY_K = (0.05, 0.5)
DENSITY_DT, DENSITY_STEPS = 0.01, 400
DENSITY_TOL = 1e-9
OMEGA0 = (0.008, 0.012)
HARMONIC_N, HARMONIC_LENGTH, LEVELS = 8192, 400.0, 8
BOX_WIDTH, BOX_N = (5.0, 15.0), 4096
HARMONIC_SAFETY = 2.0


def propagate(seed: int, out: Path) -> Workload:
    rng = random.Random(f"propagate:{seed}")
    steps, params = [], {}
    for method, n_steps, stride in (("stepper", PROP_STEPPER_STEPS, PROP_STEPPER_STEPS),
                                    ("exact-mode", PROP_EXACT_STEPS, PROP_EXACT_STRIDE)):
        sigma = _draw(rng, *SIGMA)
        params[method] = {"sigma": sigma}
        run = out / method
        steps.append(Step(method, _field_argv(method, PROP_N, PROP_LENGTH, PROP_DT, n_steps,
                                              stride, sigma, "csv", run),
                          _field_check(run, method, "csv", PROP_N, PROP_LENGTH, PROP_DT,
                                       n_steps, stride, sigma)))
    for model, (r0, r1), log in DENSITY_MODELS:
        rate = _draw(rng, r0, r1, log)
        k = _draw(rng, *DENSITY_K)
        params[f"density-{model}"] = {"rate": rate, "k": k}
        run = out / f"density-{model}"
        steps.append(Step(f"density-{model}",
                          ["evolve", "--density", "--model", model,
                           f"--{RATE_FLAG[model]}", str(rate), "--k", str(k),
                           "--dt", str(DENSITY_DT), "--steps", str(DENSITY_STEPS),
                           "--out", str(run)],
                          _density_check(run / "density.csv", model, rate, k)))
    omega0 = _draw(rng, *OMEGA0)
    width = _draw(rng, *BOX_WIDTH)
    params["harmonic"] = {"omega0": omega0}
    params["box"] = {"width": width}
    dest = out / "harmonic.csv"
    steps.append(Step("harmonic",
                      ["spectrum", "--potential", "harmonic", "--omega0", str(omega0),
                       "--n", str(HARMONIC_N), "--length", str(HARMONIC_LENGTH),
                       "--levels", str(LEVELS), "--richardson", "--out", str(dest)],
                      _spectrum_check(dest, "harmonic", omega0, HARMONIC_N)))
    dest = out / "box.json"
    steps.append(Step("box",
                      ["spectrum", "--potential", "box", "--width", str(width),
                       "--n", str(BOX_N), "--levels", str(LEVELS), "--format", "json",
                       "--out", str(dest)],
                      _spectrum_check(dest, "box", width, BOX_N)))
    return Workload(params, steps)


def _density_check(path: Path, model: str, rate: float, k: float):
    def check() -> list[str]:
        cols, _ = read_table(path)
        t = floats(cols["t"])
        want_t = np.arange(DENSITY_STEPS + 1) * DENSITY_DT
        if len(t) != len(want_t) or np.any(np.abs(t - want_t) > 4 * U * want_t):
            return [f"{path.parent.name}: sample times are not j * dt"]
        if np.any(floats(cols["k"]) != k):
            return [f"{path.parent.name}: k column is not {k}"]
        rho = floats(cols["re_rho"]) + 1j * floats(cols["im_rho"])
        ref = oracle.density_reference(model, rate, k, t)
        scale = np.maximum.accumulate(np.abs(ref))
        err = np.abs(rho - ref) / scale
        if not np.all(err <= DENSITY_TOL):
            return [f"{path.parent.name}: rho is {np.nanmax(err):.2e} from expm"]
        return []
    return check


def _spectrum_check(path: Path, kind: str, param: float, n: int):
    def check() -> list[str]:
        cols, _ = read_table(path)
        eps, e, es, gap = (floats(cols[c]) for c in ("epsilon", "E", "E_series", "rel_gap"))
        bad = []
        if [int(float(v)) for v in cols["n"]] != list(range(LEVELS)):
            bad.append(f"{path.name}: level index column")
        if kind == "harmonic":
            exact = oracle.harmonic_levels(param, LEVELS)
            h = HARMONIC_LENGTH / n
            u_max = 0.5 * param**2 * (HARMONIC_LENGTH / 2) ** 2
            allowed = (HARMONIC_SAFETY * (2 * exact) ** 3 * h**4 / 2880
                       + 8 * U * (8 / h**2 + u_max))
        else:
            exact = oracle.box_levels(param, LEVELS)
            h = param / (n + 1)
            q = np.pi * np.arange(1, LEVELS + 1) / param
            allowed = q**4 * h**2 / 24 + 8 * U * 2 / h**2
        err = np.abs(eps - exact)
        if not np.all(err <= allowed):
            j = int(np.argmax(err / allowed))
            bad.append(f"{path.name}: level {j} is {err[j]:.2e} from the closed form "
                       f"(allowed {allowed[j]:.2e})")
        if not np.all(np.abs(e - np.sqrt(1 + 2 * eps)) <= 4 * U * e):
            bad.append(f"{path.name}: E != sqrt(1 + 2 epsilon)")
        series = 1 + eps - eps * eps / 2
        if not np.all(np.abs(es - series) <= 4 * U * np.maximum(np.abs(series), 1)):
            bad.append(f"{path.name}: E_series != 1 + eps - eps^2/2")
        if not np.all(np.abs(gap - np.abs(e - es) / e) <= 4 * U):
            bad.append(f"{path.name}: rel_gap != |E - E_series| / E")
        return bad
    return check


WORKLOADS = {"sweep": sweep, "snapshots": snapshots, "propagate": propagate}
