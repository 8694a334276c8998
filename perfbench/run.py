"""polyfield benchmark: one command for the three workloads.

    python3 perfbench/run.py --workload noether_envelope --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 25 --trace 0

The program is imported from the ``src/`` directory beside ``perfbench/``.
Each workload runs in its own process (``bench.py``) on one thread:
OpenBLAS, OpenMP and MKL are pinned to one thread and the hash seed is
fixed by ``--seed``.  The last line of the output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics`` (for ``all``, one
such object per workload, keyed by name).  ``--trace 0`` reports the
end-to-end metrics, ``--trace 1`` the per-layer metrics.  Spans and raw
results go to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("noether_envelope", "bracket_algebra", "membership_points")
CHILD_TIMEOUT_S = 175

PINNED = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def run_workload(name, seed, seconds, trace):
    env = dict(os.environ, **PINNED, PYTHONHASHSEED=str(seed % 2 ** 32))
    cmd = [sys.executable, str(HERE / "bench.py"), "--workload", name, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
                              timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:  # run() has killed and reaped the child
        raise SystemExit(f"{name}: no result within {CHILD_TIMEOUT_S} s")
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{name}: exited with code {proc.returncode}")
    for line in lines[:-1]:
        print(line)
    return json.loads(lines[-1])


def main(argv=None):
    ap = argparse.ArgumentParser(description="polyfield benchmark")
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        ap.error("--seed must be >= 0 and --seconds >= 1")
    if not (ROOT / "src" / "polyfield" / "__init__.py").is_file():
        raise SystemExit(f"no polyfield sources under {ROOT / 'src'}; "
                         "run from the root of a polyfield checkout")

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    for name in names:
        res = results[name] = run_workload(name, args.seed, args.seconds, args.trace)
        print(f"{name}: correct={res['correct']} attempted={res['attempted']} "
              f"failed={res['failed']}")
        for key, m in res["metrics"].items():
            print(f"  {key} = {m['value']:.6g} {m['unit']}")
    print(json.dumps(results[args.workload] if args.workload != "all" else results))


if __name__ == "__main__":
    main()
