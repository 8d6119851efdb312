"""End-to-end benchmark of the rqbm command line.

    python3 bench/run.py --workload sweep --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; rqbm is imported from src/ through
PYTHONPATH, nothing is installed.  One pass runs the workload's invocations
(bench/workloads.py) one at a time, each as `python -m rqbm ...` in a fresh
process: a closed loop with a single client.  The first pass's time sets
how many passes fill --seconds, with at least two.  The first pass's
outputs are checked against bench/oracle.py, and every later pass must
write byte-identical files.

--trace 0 prints the end-to-end metrics (medians over passes).  --trace 1
runs one untraced pass, then traced passes that call rqbm.cli.main in this
process with bench/spans.py wrappers installed; it prints the per-layer
metrics and writes every span to bench/trace/.  The last line of standard
output is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "bench" / "out"
TRACE = ROOT / "bench" / "trace"
SETUP_REPEATS = 5


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    env.pop("RQBM_LOG", None)
    return env


@dataclass
class Invocation:
    rc: int
    wall: float
    cpu: float
    rss_mb: float


class Spawner:
    """Runs `python -m rqbm ...` through bench/spawn.py, a small helper
    process, so the measured peak RSS is the child's own.  Start it before
    importing anything large."""

    def __init__(self, log: Path):
        self.log = str(log)
        self.env = child_env()
        self.proc = subprocess.Popen([sys.executable, str(Path(__file__).with_name("spawn.py"))],
                                     stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)

    def rqbm(self, argv: list[str]) -> Invocation:
        req = {"argv": [sys.executable, "-m", "rqbm", *argv], "cwd": str(ROOT),
               "env": self.env, "log": self.log}
        self.proc.stdin.write(json.dumps(req) + "\n")
        self.proc.stdin.flush()
        return Invocation(**json.loads(self.proc.stdout.readline()))

    def close(self) -> None:
        self.proc.stdin.close()
        self.proc.wait()
        self.proc.stdout.close()


def hash_tree(root: Path) -> dict[str, str]:
    return {str(p.relative_to(root)): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(root.rglob("*")) if p.is_file()}


def fresh(path: Path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def write_inputs(wl) -> None:
    for path, text in wl.inputs.items():
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)


def run_pass(wl, out: Path, spawner: Spawner) -> list[Invocation]:
    fresh(out)
    write_inputs(wl)
    return [spawner.rqbm(step.argv) for step in wl.steps]


def check_pass(wl, results: list[Invocation]) -> list[str]:
    """Problems found in the outputs of the steps that succeeded."""
    ok = {step.name for step, r in zip(wl.steps, results) if r.rc == 0}
    problems = []
    for step in wl.steps:
        if step.check is None or step.name not in ok or not set(step.needs) <= ok:
            continue
        try:
            problems += step.check()
        except (OSError, ValueError, TypeError, KeyError, IndexError) as exc:
            problems.append(f"{step.name}: unreadable output: {type(exc).__name__}: {exc}")
    return problems


def measure_setup(repeats: int, spawner: Spawner) -> float:
    return statistics.median(spawner.rqbm(["--version"]).wall for _ in range(repeats))


def measure_import(repeats: int) -> float:
    code = ("import time; t = time.perf_counter(); import rqbm.cli; "
            "print(time.perf_counter() - t)")
    times = []
    for _ in range(repeats):
        done = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=child_env(),
                              stdin=subprocess.DEVNULL, capture_output=True, text=True,
                              check=True)
        times.append(float(done.stdout))
    return statistics.median(times)


def more_passes(seconds: float, first_elapsed: float, one_pass) -> None:
    """After a first pass that took first_elapsed, run as many more as make
    the total closest to `seconds`, with at least two passes in all."""
    for _ in range(max(2, round(seconds / first_elapsed)) - 1):
        one_pass()


def untraced(wl, out: Path, seconds: float, spawner: Spawner):
    setup_s = measure_setup(SETUP_REPEATS, spawner)
    t0 = time.perf_counter()
    passes = [run_pass(wl, out, spawner)]
    elapsed = time.perf_counter() - t0
    problems = check_pass(wl, passes[0])
    want = hash_tree(out)

    def again() -> None:
        passes.append(run_pass(wl, out, spawner))
        if hash_tree(out) != want:
            problems.append(f"pass {len(passes)} wrote different bytes than pass 1")

    more_passes(seconds, elapsed, again)
    metrics = {
        "wall_s": (statistics.median(sum(r.wall for r in p) for p in passes), "s"),
        "cpu_s": (statistics.median(sum(r.cpu for r in p) for p in passes), "s"),
        "peak_rss_mb": (statistics.median(max(r.rss_mb for r in p) for p in passes), "MB"),
        "setup_s": (setup_s, "s"),
    }
    codes = [r.rc for p in passes for r in p]
    return metrics, problems, codes


def count_rows(out: Path) -> tuple[int, int]:
    """Table rows and bytes of every output file under out."""
    rows = nbytes = 0
    for p in out.rglob("*"):
        if not p.is_file():
            continue
        nbytes += p.stat().st_size
        if p.suffix == ".json":
            rows += len(json.loads(p.read_text())["rows"])
        else:
            rows += sum(1 for line in p.open() if line.strip() and not line.startswith("#")) - 1
    return rows, nbytes


def traced(wl, out: Path, seconds: float, spawner: Spawner, trace_file: Path):
    setup_s = measure_setup(SETUP_REPEATS, spawner)
    import_s = measure_import(3)
    base = run_pass(wl, out, spawner)
    problems = check_pass(wl, base)
    want = hash_tree(out)
    rows, nbytes = count_rows(out)
    net_wall = sum(r.wall for r in base) - len(base) * setup_s

    import spans
    sys.path.insert(0, str(SRC))
    from rqbm import cli

    per_pass, all_spans, codes = [], [], [r.rc for r in base]

    def one_pass() -> None:
        fresh(out)
        write_inputs(wl)
        tracer = spans.Tracer()
        tracer.install()
        try:
            for step in wl.steps:
                codes.append(tracer.call("cli.main", cli.main, step.argv))
        finally:
            tracer.uninstall()
        if hash_tree(out) != want:
            problems.append(f"traced pass {len(per_pass) + 1} wrote different bytes")
        per_pass.append(spans.layer_metrics(tracer.spans, rows, nbytes))
        all_spans.append(tracer.spans)

    t0 = time.perf_counter()
    one_pass()
    more_passes(seconds, time.perf_counter() - t0, one_pass)

    values = spans.median_metrics(per_pass)
    values["startup.import_s"] = import_s
    values["trace.overhead_s"] = values["cli.main_s"] - net_wall
    trace_file.parent.mkdir(parents=True, exist_ok=True)
    trace_file.write_text(json.dumps({"fields": ["id", "parent", "name", "start", "end",
                                                 "attrs"], "passes": all_spans}))
    metrics = {key: (round(values[key]) if unit in ("count", "bytes") else values[key], unit)
               for key, unit in spans.METRICS}
    return metrics, problems, codes


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=("sweep", "snapshots", "propagate"))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "rqbm" / "cli.py").is_file():
        print(f"bench: no rqbm sources under {SRC}", file=sys.stderr)
        return 2

    out = OUT / args.workload
    out.mkdir(parents=True, exist_ok=True)
    (out / "invocations.log").unlink(missing_ok=True)
    spawner = Spawner(out / "invocations.log")
    try:
        import workloads  # numpy and scipy: only after the spawner is up

        wl = workloads.WORKLOADS[args.workload](args.seed, out / "pass")
        if args.trace:
            metrics, problems, codes = traced(
                wl, out / "pass", args.seconds, spawner,
                TRACE / f"{args.workload}-seed{args.seed}.json")
        else:
            metrics, problems, codes = untraced(wl, out / "pass", args.seconds, spawner)
    finally:
        spawner.close()
    for p in problems[:20]:
        print(f"bench: {p}", file=sys.stderr)
    print(json.dumps({"workload": args.workload, "seed": args.seed, "params": wl.params}),
          file=sys.stderr)
    print(json.dumps({
        "correct": not problems,
        "attempted": len(codes),
        "failed": sum(c != 0 for c in codes),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
