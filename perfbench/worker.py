"""One workload process of the ballpoly benchmark.

Started by ``perfbench/run.py`` with the checkout's ``src`` on PYTHONPATH
and the BLAS pinned to one thread. It imports ballpoly, warms up on inputs
disjoint from the timed ones and prints ``READY``, then the factor that
scales its set-up time to the reference speed; with ``--setup-only`` it
stops there. Otherwise it runs whole rounds until about ``--seconds``
of timed wall time have passed, checks every output apart from the
program, and prints an information line and then the result line.

A round evaluates a slice of the default cells, instance by instance,
with ``campaign.evaluate_instance``, the call ``campaign.run_campaign``
makes for each instance, and then writes its reports with
``campaign.write_reports``. The benchmark draws the instances itself, so
that every round holds the same generator counts: on S^3 an instance's
cost grows with its count. Each instance is timed from outside, around its
``instance_from_record`` and ``evaluate_instance`` calls.

With ``--trace 1`` every round runs twice, untraced and then with the
layers wrapped; the per-layer metrics come from the traced rounds and the
tracing overhead from the difference in instances per second.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import scipy

from ballpoly import ballbody, campaign

import calibration
import checks
import tracing

# workload -> (dimension, radii of the cells, generator counts of each
# cell's sampled instances in even rounds, warm-up radius outside the timed
# radii, calibration probes after each instance). Odd rounds give the cells
# the counts in reverse cell order, so that two rounds pair every count
# with every radius on S^3. The probes take about 6% of an instance's time.
WORKLOADS = {
    "campaign-s2": (2, (0.3, 0.7, math.pi / 2), ((3, 4, 5, 6, 7, 8),) * 3, 0.9, 1),
    "campaign-s3": (3, (0.8, math.pi / 2), ((3, 5, 7), (4, 6, 8)), 1.2, 4),
}
WARM_ROUND = 2 ** 32 - 1  # round key of the warm-up inputs
SETUP_CALIBRATION = 20  # calibration probes that scale the set-up time
# The program's Monte Carlo gates are two-sided 3-sigma tests, which a
# correct program fails in 0.27% of draws, so a miss proves nothing and
# which instances miss depends on the seed. They are counted apart; the
# benchmark checks the same quantities at 6 sigma itself.
PROGRAM_3SIGMA_GATES = frozenset({"area_mc_3sigma", "sentinel_volume_3sigma"})
END_TO_END_UNITS = {"instances_per_s": "1/s", "instance_ms_p50": "ms", "peak_rss_mb": "MB"}


@dataclass
class Outcome:
    """One timed instance: its wall time and its report, or the error that
    lost it."""

    instance_id: str
    ms: float
    report: campaign.VerificationReport | None = None
    error: str | None = None


def forget_cached_inputs() -> None:
    """Empty the program's process-wide minimax cache, where it has one.

    Each round repeats the sentinel bodies, which a real campaign evaluates
    once; clearing the cache before every round keeps a timed input from
    being served from an earlier round."""
    cache = getattr(ballbody, "_MINIMAX_CACHE", None)
    if cache is not None:
        cache.clear()


@dataclass
class Round:
    """One round: its config, and its instances as (id, campaign record)."""

    config: campaign.CampaignConfig
    instances: list


@dataclass
class Pass:
    """One timed run of a round: its outcomes, its seconds (instances and
    report writing, not the probes) and the calibration probe times taken
    between its instances."""

    outcomes: list[Outcome]
    seconds: float
    probes: list[float]

    @property
    def scale(self) -> float:
        """Factor that takes this pass's times to the reference speed."""
        return calibration.REFERENCE_S / statistics.median(self.probes)


class CampaignWorkload:
    def __init__(self, name: str, seed: int, out_dir: Path):
        self.dim, self.radii, self.counts, self.warm_radius, self.probes_per_instance = (
            WORKLOADS[name])
        self.key = list(WORKLOADS).index(name)
        self.seed = seed
        self.out_dir = out_dir

    def _seed(self, *path: int) -> int:
        state = np.random.SeedSequence([self.seed, self.key, *path]).generate_state(1)[0]
        return int(state) % (2 ** 31 - 1)

    def prepare(self, j: int) -> Round:
        """Round j: every cell with its sentinel first and then one sampled
        instance per generator count, default budgets, and seeds drawn from
        the run seed."""
        counts = self.counts if j % 2 == 0 else self.counts[::-1]
        cells, instances = [], []
        for c, (r, ns) in enumerate(zip(self.radii, counts)):
            cells.append(campaign.CampaignCell(self.dim, r, 1 + len(ns)))
            for k, n in enumerate((self.dim + 1, *ns)):
                instances.append((f"c{c}-{'sentinel' if k == 0 else f'{k:04d}'}", {
                    "dim": self.dim, "radius": r, "n_points": n, "seed": self._seed(j, c, k),
                    "generator": "sentinel" if k == 0 else "sampled"}))
        return Round(campaign.CampaignConfig(cells=tuple(cells), seed=self._seed(j)), instances)

    def warm_up(self) -> None:
        config = campaign.CampaignConfig(
            cells=(campaign.CampaignCell(self.dim, self.warm_radius, 1),),
            seed=self._seed(WARM_ROUND), volume_n=20_000)
        campaign.write_reports(campaign.run_campaign(config), config, self.out_dir / "warmup")

    def run(self, rnd: Round, on_instance=lambda: None) -> Pass:
        """Evaluate every instance of the round and write its reports,
        after emptying the program's cache; probe the machine's speed after
        each instance."""
        forget_cached_inputs()
        outcomes: list[Outcome] = []
        probes: list[float] = []
        for instance_id, record in rnd.instances:
            name = f"{rnd.config.seed}/{instance_id}"
            t0 = time.perf_counter()
            try:
                gens = campaign.instance_from_record(record)
                rep = campaign.evaluate_instance(gens, rnd.config, instance_id, record["seed"],
                                                 record["generator"] == "sentinel",
                                                 record["generator"])
            except Exception as exc:
                outcomes.append(Outcome(name, 0.0, error=f"{type(exc).__name__}: {exc}"))
            else:
                outcomes.append(Outcome(name, 1000.0 * (time.perf_counter() - t0), rep))
            on_instance()
            probes += [calibration.timed() for _ in range(self.probes_per_instance)]
        reports = [o.report for o in outcomes if o.error is None]
        t0 = time.perf_counter()
        campaign.write_reports(reports, rnd.config, self.out_dir / "reports")
        write_s = time.perf_counter() - t0
        self.last_round = (rnd.config, reports)
        return Pass(outcomes, sum(o.ms for o in outcomes) / 1000.0 + write_s, probes)

    def check_files(self) -> list[str]:
        """Compare the reports written for the last round with the ones in
        memory."""
        config, reports = self.last_round
        out = self.out_dir / "reports"
        lines = (out / "instances.jsonl").read_text(encoding="utf-8").splitlines()
        problems = []
        if len(lines) != len(reports):
            problems.append(f"instances.jsonl has {len(lines)} lines for {len(reports)} reports")
        for line, rep in zip(lines, reports):
            rec = json.loads(line)
            if rec["instance_id"] != rep.instance_id or rec["passed"] != rep.passed:
                problems.append(f"instances.jsonl record {rec['instance_id']} differs")
        written = json.loads((out / "config.json").read_text(encoding="utf-8"))
        if written != json.loads(json.dumps(config.to_json())):
            problems.append("config.json differs from the round's config")
        return problems


def measure(workload: CampaignWorkload, seconds: float, tracer: tracing.Tracer | None = None):
    """Run whole rounds until the timed wall time is within half a round of
    ``seconds``; rounds are built outside the timed region. Returns the
    untraced passes and the traced ones.

    With a tracer, each round runs twice, untraced and then traced on the
    same config, so that both sides of the overhead see the same work and
    the same stretch of machine time."""
    plain: list[Pass] = []
    traced: list[Pass] = []
    while True:
        rnd = workload.prepare(len(plain))
        plain.append(workload.run(rnd))
        if tracer is not None:
            with tracer.installed():
                traced.append(workload.run(rnd, tracer.end_instance))
        timed_s = sum(p.seconds for p in plain + traced)
        if timed_s * (1 + 0.5 / len(plain)) >= seconds:
            return plain, traced


def rates(passes: list[Pass], scaled: bool = True) -> tuple[float, list[float]]:
    """Completed instances per second, and the ms of each completed
    instance; scaled to the reference speed pass by pass, or as measured."""
    total_s, times = 0.0, []
    for p in passes:
        scale = p.scale if scaled else 1.0
        total_s += p.seconds * scale
        times += [o.ms * scale for o in p.outcomes if o.error is None]
    return len(times) / total_s, times


def completed(outcomes: list[Outcome]) -> int:
    return sum(o.error is None for o in outcomes)


def check_outcomes(outcomes: list[Outcome], seed: int):
    """Failed instance count, per-check worst margins, misses of the
    program's 3-sigma gates and failure notes."""
    worst: dict[str, float] = {}
    notes = []
    failed = misses = 0
    volume_n = campaign.CampaignConfig(cells=()).volume_n
    for k, o in enumerate(outcomes):
        if o.error is not None:
            failed += 1
            notes.append(f"{o.instance_id}: raised {o.error}")
            continue
        rep = o.report
        points = campaign.instance_from_record(rep.to_json()).points
        margins = checks.check_body(points, rep.radius, rep.metrics, rep.sentinel, volume_n,
                                    [seed, 7, k])
        bad = [name for name, m in margins.items() if not m >= 0.0]
        for name, m in margins.items():
            worst[name] = min(worst.get(name, math.inf), m)
        program_bad = [name for name in rep.failed_checks if name not in PROGRAM_3SIGMA_GATES]
        missed = [name for name in rep.failed_checks if name in PROGRAM_3SIGMA_GATES]
        misses += len(missed)
        if missed:
            notes.append(f"{o.instance_id}: missed the program's 3-sigma gate {missed}")
        if program_bad or bad:
            failed += 1
            notes.append(f"{o.instance_id}: program checks {program_bad}, benchmark checks {bad}")
    return failed, worst, misses, notes


def environment(root: Path) -> dict:
    digest = hashlib.sha256()
    for path in sorted((root / "src" / "ballpoly").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    commit = "unknown"
    if (root / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                                    text=True, timeout=10).stdout.strip() or commit
        except (OSError, subprocess.SubprocessError):
            pass
    threads = "unknown"
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            threads = next(int(line.split()[1]) for line in fh if line.startswith("Threads:"))
    except (OSError, StopIteration):
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "process_threads": threads,
        "commit": commit,
        "src_sha256": digest.hexdigest()[:16],
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    root = Path.cwd()
    out_dir = root / ".perfbench_out" / args.workload
    workload = CampaignWorkload(args.workload, args.seed, out_dir)
    workload.warm_up()
    print("READY", flush=True)
    probe_s = statistics.median([calibration.timed() for _ in range(SETUP_CALIBRATION)])
    print(f"SCALE {calibration.REFERENCE_S / probe_s!r}", flush=True)
    if args.setup_only:
        return 0

    tracer = tracing.Tracer() if args.trace else None
    plain, traced = measure(workload, args.seconds, tracer)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6

    outcomes = [o for p in plain + traced for o in p.outcomes]
    failed, worst, misses, notes = check_outcomes(outcomes, args.seed)
    file_problems = workload.check_files()
    for note in notes + file_problems:
        print(f"perfbench: {note}", file=sys.stderr)

    ips, times = rates(plain)
    wall_ips, wall_times = rates(plain, scaled=False)
    info = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "rounds": len(plain), "instances": len(outcomes),
        "timed_s": sum(p.seconds for p in plain + traced),
        "worst_check_margins": worst, "program_3sigma_misses": misses,
        "as_measured": {
            "instances_per_s": wall_ips,
            "instance_ms_p50": statistics.median(wall_times) if wall_times else 0.0,
            "probe_ms_p50": 1000.0 * statistics.median(t for p in plain for t in p.probes)},
        "env": environment(root),
    }
    if args.trace:
        metrics = tracer.layer_metrics(max(sum(completed(p.outcomes) for p in traced), 1))
        traced_ips, _ = rates(traced)
        metrics["trace.instances_per_s_untraced"] = ips
        metrics["trace.instances_per_s_traced"] = traced_ips
        metrics["trace.overhead_pct"] = 100.0 * (ips - traced_ips) / ips
        spans_path = out_dir / f"spans-seed{args.seed}.jsonl"
        tracer.write(spans_path)
        info["spans"] = str(spans_path.relative_to(root))
        units = tracing.metric_units()
    else:
        metrics = {
            "instances_per_s": ips,
            "instance_ms_p50": statistics.median(times) if times else 0.0,
            "peak_rss_mb": peak_rss_mb,
        }
        # a tail percentile only where at least ten samples lie beyond it
        if len(times) >= 100:
            info["instance_ms_p90"] = statistics.quantiles(times, n=10)[8]
        units = END_TO_END_UNITS
    print(json.dumps(info, sort_keys=True))
    print(json.dumps({"correct": failed == 0 and not file_problems,
                      "attempted": len(outcomes), "failed": failed,
                      "metrics": {name: {"value": metrics[name], "unit": unit}
                                  for name, unit in units.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
