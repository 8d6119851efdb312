"""Output hash manifest: the sha256 of every file every workload writes.

    python3 bench/manifest.py [--seed 1] [--out bench/out/manifest-seed1.json]

Runs one untimed pass of each workload with the sources of the current
checkout and records one hash per output file.  Run it on two commits and
diff the two manifests to show byte identity.  It is a report, not a gate:
a change that rightly corrects an output changes that file's hash.  It
exits 1 only when an invocation failed, since the manifest is then partial.
"""

from __future__ import annotations

import argparse
import json
import sys

import run
import workloads


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--out", default=None, help="manifest path")
    args = ap.parse_args(argv)
    if not (run.SRC / "rqbm" / "cli.py").is_file():
        print(f"manifest: no rqbm sources under {run.SRC}", file=sys.stderr)
        return 2

    files, failed = {}, []
    for name, make in workloads.WORKLOADS.items():
        out = run.OUT / name
        wl = make(args.seed, out / "pass")
        out.mkdir(parents=True, exist_ok=True)
        spawner = run.Spawner(out / "invocations.log")
        try:
            results = run.run_pass(wl, out / "pass", spawner)
        finally:
            spawner.close()
        failed += [f"{name}/{step.name}" for step, r in zip(wl.steps, results) if r.rc]
        files.update({f"{name}/{rel}": digest
                      for rel, digest in run.hash_tree(out / "pass").items()})

    path = run.OUT / f"manifest-seed{args.seed}.json" if args.out is None else args.out
    with open(path, "w") as f:
        json.dump({"seed": args.seed, "failed": failed, "files": files}, f, indent=1)
        f.write("\n")
    print(f"{len(files)} files hashed into {path}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
