"""Benchmark of ballpoly: the verification campaign and the exact S^2 kernels.

Run from the root of a checkout:

    python3 perfbench/run.py --workload campaign-s2 --seed 1 --seconds 50 --trace 0

Each workload runs in a fresh worker process (``perfbench/worker.py``) with
the checkout's ``src`` on PYTHONPATH and the BLAS pinned to one thread.
With ``--trace 0`` two more workers only set up, and ``setup_s`` is the
median, over the three, of the wall time from starting the worker until
its first timed input is ready, scaled to the reference machine's speed
by the factor the worker prints after set-up (see ``calibration.py``).
The line before the result gives the set-up times as measured. The last
line of standard output is the result: ``correct``, ``attempted``,
``failed`` and the metrics by name with their units.
"""

from __future__ import annotations

import argparse
import json
import os
import select
import statistics
import subprocess
import sys
import time
from pathlib import Path

WORKLOADS = ("campaign-s2", "campaign-s3")
SETUP_ONLY_WORKERS = 2
RUN_LIMIT_S = 170.0
BLAS_THREADS = "1"


class WorkerError(RuntimeError):
    pass


def worker_env(root: Path) -> dict:
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = BLAS_THREADS
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_worker(cmd: list[str], env: dict, deadline: float) -> tuple[float, float, list[str]]:
    """Run one worker to its end. Returns the seconds from its start until
    it printed READY, the speed scale it printed next, and the lines it
    printed after that."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=env, text=True)
    try:
        while True:
            remaining = deadline - time.monotonic()
            if remaining <= 0 or not select.select([proc.stdout], [], [], remaining)[0]:
                raise WorkerError("worker did not finish set-up in time")
            line = proc.stdout.readline()
            if line == "":
                raise WorkerError(f"worker exited during set-up with code {proc.wait()}")
            if line.strip() == "READY":
                setup_s = time.perf_counter() - t0
                break
        out, _ = proc.communicate(timeout=max(deadline - time.monotonic(), 0.1))
        lines = out.splitlines()
        if not lines or not lines[0].startswith("SCALE "):
            raise WorkerError("worker printed no speed scale after set-up")
        scale = float(lines[0].split()[1])
    except subprocess.TimeoutExpired:
        raise WorkerError("worker did not finish in time") from None
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        proc.stdout.close()
    if proc.returncode != 0:
        raise WorkerError(f"worker exited with code {proc.returncode}")
    return setup_s, scale, lines[1:]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "ballpoly" / "__init__.py").is_file():
        print("perfbench: run from the root of a ballpoly checkout; src/ballpoly is missing",
              file=sys.stderr)
        return 2
    deadline = time.monotonic() + RUN_LIMIT_S
    env = worker_env(root)
    cmd = [sys.executable, str(Path(__file__).with_name("worker.py")),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    try:
        setups = [run_worker(cmd + ["--setup-only"], env, deadline)[:2]
                  for _ in range(SETUP_ONLY_WORKERS if args.trace == 0 else 0)]
        setup_s, scale, lines = run_worker(cmd, env, deadline)
    except WorkerError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    if not lines:
        print("perfbench: worker printed no result", file=sys.stderr)
        return 1
    result = json.loads(lines[-1])
    for line in lines[:-1]:
        print(line)
    if args.trace == 0:
        setups.append((setup_s, scale))
        print(json.dumps({"setup_wall_s": [s for s, _ in setups],
                          "setup_scale": [k for _, k in setups]}))
        result["metrics"]["setup_s"] = {"value": statistics.median(s * k for s, k in setups),
                                        "unit": "s"}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
