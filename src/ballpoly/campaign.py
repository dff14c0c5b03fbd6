"""Verification campaign over sampled instances.

Each campaign cell fixes (dimension, radius, instance count); the first
instance of a cell is a sentinel with known closed-form values (Reuleaux
triangle for d = 2, regular simplex otherwise) and the rest are random
wide generator sets. Every instance is run through the full battery of
inequality checks with explicit margins; reports serialize to sorted-key
JSONL so repeated runs are byte-identical apart from the runtime fields.
"""

from __future__ import annotations

import csv
import json
import math
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .sphere import (
    GeneratorSet,
    jung_circumradius,
    sample_wide_generator,
)
from . import ballbody, diskpoly, oracles, proofreplay
from .proofreplay import _check

__all__ = [
    "CampaignCell",
    "CampaignConfig",
    "VerificationReport",
    "default_config",
    "evaluate_instance",
    "instance_from_record",
    "reports_all_passed",
    "run_campaign",
    "write_reports",
]


@dataclass(frozen=True)
class CampaignCell:
    dim: int
    radius: float
    n_instances: int

    def to_json(self) -> dict:
        return {"dim": self.dim, "radius": self.radius, "n_instances": self.n_instances}


@dataclass(frozen=True)
class CampaignConfig:
    """Campaign parameters. Budgets are sized so the default corpus runs in
    minutes while keeping every estimator inside its stated tolerance."""

    cells: tuple[CampaignCell, ...]
    seed: int = 20260821
    min_points: int = 3
    max_points: int = 8
    mc_area_n: int = 20_000
    volume_n: int = 200_000
    grid_dirs: int = 96
    replay_samples: int = 2400

    def to_json(self) -> dict:
        return {
            "cells": [c.to_json() for c in self.cells],
            "seed": self.seed,
            "min_points": self.min_points,
            "max_points": self.max_points,
            "mc_area_n": self.mc_area_n,
            "volume_n": self.volume_n,
            "grid_dirs": self.grid_dirs,
            "replay_samples": self.replay_samples,
        }

    @classmethod
    def from_json(cls, obj: dict) -> "CampaignConfig":
        cells = tuple(CampaignCell(int(c["dim"]), float(c["radius"]), int(c["n_instances"]))
                      for c in obj["cells"])
        kwargs = {k: obj[k] for k in (
            "seed", "min_points", "max_points", "mc_area_n", "volume_n",
            "grid_dirs", "replay_samples") if k in obj}
        return cls(cells=cells, **kwargs)


def default_config(quick: bool = False, seed: int = 20260821) -> CampaignConfig:
    """Default corpus: 3 x 200 instances on S^2 at r in {0.3, 0.7, pi/2}
    plus 15 each on S^3 at r in {0.8, pi/2}. ``quick`` shrinks everything
    for smoke tests and determinism comparisons."""
    if quick:
        cells = (
            CampaignCell(2, 0.7, 4),
            CampaignCell(2, math.pi / 2, 3),
            CampaignCell(3, math.pi / 2, 2),
        )
        return CampaignConfig(cells=cells, seed=seed, mc_area_n=4000, volume_n=20_000,
                              grid_dirs=48, replay_samples=600)
    cells = (
        CampaignCell(2, 0.3, 200),
        CampaignCell(2, 0.7, 200),
        CampaignCell(2, math.pi / 2, 200),
        CampaignCell(3, 0.8, 15),
        CampaignCell(3, math.pi / 2, 15),
    )
    return CampaignConfig(cells=cells, seed=seed)


@dataclass(frozen=True)
class VerificationReport:
    """Per-instance record: identity, scalar metrics, named checks."""

    instance_id: str
    dim: int
    radius: float
    n_points: int
    seed: int
    sentinel: bool
    generator: str
    metrics: dict
    checks: dict
    runtime_ms: float

    @property
    def passed(self) -> bool:
        return all(c["passed"] for c in self.checks.values())

    @property
    def failed_checks(self) -> list[str]:
        return sorted(name for name, c in self.checks.items() if not c["passed"])

    def to_json(self) -> dict:
        return {
            "instance_id": self.instance_id,
            "dim": self.dim,
            "radius": self.radius,
            "n_points": self.n_points,
            "seed": self.seed,
            "sentinel": self.sentinel,
            "generator": self.generator,
            "metrics": self.metrics,
            "checks": self.checks,
            "passed": self.passed,
            "runtime_ms": self.runtime_ms,
        }


def _instance_seed(campaign_seed: int, cell_idx: int, k: int) -> int:
    return (campaign_seed * 1_000_003 + cell_idx * 10_007 + k * 101 + 7) % (2 ** 31 - 1)


def _sentinel_instance(cell: CampaignCell) -> GeneratorSet:
    if cell.dim == 2:
        return diskpoly.reuleaux_triangle(cell.radius)
    return ballbody.simplex_body(cell.dim, cell.radius).generator_set()


def instance_from_record(record: dict) -> GeneratorSet:
    """Rebuild the exact generator set of a campaign record (for isolating
    a failed check outside the campaign loop)."""
    if record["generator"] == "sentinel":
        return _sentinel_instance(
            CampaignCell(int(record["dim"]), float(record["radius"]), 1))
    return sample_wide_generator(int(record["dim"]), float(record["radius"]),
                                 int(record["n_points"]), int(record["seed"]))


def evaluate_instance(gens: GeneratorSet, config: CampaignConfig,
                      instance_id: str, seed: int, sentinel: bool,
                      generator: str) -> VerificationReport:
    """Run every applicable check on one instance."""
    t0 = time.perf_counter()
    r = gens.radius
    d = gens.dim
    checks: dict[str, dict] = {}
    metrics: dict[str, float] = {}

    rj = jung_circumradius(d, r)
    rin, _ = ballbody.inradius_nd(gens)
    metrics["inradius"] = float(rin)
    checks["inradius_floor"] = _check(rin, r - rj, 1e-8)
    if sentinel:
        checks["sentinel_inradius_exact"] = _check(1e-8, abs(rin - (r - rj)), 0.0)

    if d == 2:
        boundary = diskpoly.boundary_structure(gens)
        hull_diam, _ = diskpoly.hull_diameter_2d(gens, boundary)
    else:
        hull_diam, _ = ballbody.hull_diameter(gens, seed=seed)
    hull_diam = float(hull_diam)
    metrics["hull_diameter"] = hull_diam
    checks["hull_diameter"] = _check(r, hull_diam, 5e-3)

    width, witness = ballbody.width_nd(gens)
    metrics["width"] = float(width)
    checks["width_floor"] = _check(width, r, 1e-6)
    if sentinel:
        checks["sentinel_width_exact"] = _check(1e-8, abs(width - r), 0.0)
    checks["width_plus_hull_diameter"] = _check(width + hull_diam, 2 * r, 1e-2)

    if d == 2:
        body_area = diskpoly.area(boundary)
        metrics["area"] = float(body_area)
        metrics["perimeter"] = float(diskpoly.perimeter(boundary))
        checks["area_floor"] = _check(body_area, diskpoly.reuleaux_area(r), 1e-9)
        if sentinel:
            checks["sentinel_area_exact"] = _check(
                1e-9, abs(body_area - diskpoly.reuleaux_area(r)), 0.0)

        area_mc = oracles.oracle_area_mc(gens, config.mc_area_n, seed=seed ^ 0x5A17)
        metrics["area_mc"] = float(area_mc.value)
        checks["area_mc_3sigma"] = _check(area_mc.error_bound,
                                          abs(body_area - area_mc.value), 0.0)

        width_grid = oracles.oracle_width_grid(gens, config.grid_dirs, boundary)
        metrics["width_grid"] = float(width_grid.value)
        checks["width_grid_agree"] = _check(width_grid.error_bound + 1e-5,
                                            abs(width - width_grid.value), 0.0)

        try:
            trace = proofreplay.replay_instance(gens, n_samples=config.replay_samples,
                                                seed=seed ^ 0x2E3D, boundary=boundary)
            metrics["replay_branch"] = trace.branch
            for name, chk in trace.checks.items():
                checks[f"replay_{name}"] = chk
        except Exception as exc:
            # a construction that cannot complete is itself a failed check
            checks["replay_completed"] = {
                "lhs": 0.0, "rhs": 1.0, "margin": -1.0, "tol": 0.0,
                "passed": False, "error": f"{type(exc).__name__}: {exc}"}
    else:
        if witness is not None:
            # the certificate bounds each pole's support margin from below,
            # so passing proves the witness lune contains the body and the
            # width is not overstated
            cert = min(ballbody.pole_margin_certificate(gens.points, r, pole)
                       for pole in (witness.u, witness.v))
            checks["width_witness_certified"] = _check(cert, 0.0, 1e-9)

        vol = ballbody.mc_volume(gens, config.volume_n, seed=seed ^ 0x1C9B)
        metrics["volume"] = float(vol.value)
        metrics["volume_std_error"] = float(vol.std_error)
        if sentinel and abs(r - math.pi / 2) < 1e-12:
            exact = ballbody.sphere_volume(d) / 2 ** (d + 1)
            checks["sentinel_volume_3sigma"] = _check(3 * vol.std_error,
                                                      abs(vol.value - exact), 0.0)

    runtime_ms = (time.perf_counter() - t0) * 1000.0
    return VerificationReport(instance_id, d, float(r), gens.n_points, int(seed),
                              sentinel, generator, metrics, checks, runtime_ms)


def run_campaign(config: CampaignConfig | None = None,
                 progress=None) -> list[VerificationReport]:
    """Evaluate the whole corpus. ``progress`` is an optional callable
    receiving each finished report."""
    if config is None:
        config = default_config()
    reports: list[VerificationReport] = []
    for cell_idx, cell in enumerate(config.cells):
        for k in range(cell.n_instances):
            seed = _instance_seed(config.seed, cell_idx, k)
            if k == 0:
                gens = _sentinel_instance(cell)
                generator = "sentinel"
            else:
                rng = np.random.default_rng(seed)
                n_pts = int(rng.integers(config.min_points, config.max_points + 1))
                gens = sample_wide_generator(cell.dim, cell.radius, n_pts, seed)
                generator = "sampled"
            instance_id = f"c{cell_idx}-{'sentinel' if k == 0 else f'{k:04d}'}"
            report = evaluate_instance(gens, config, instance_id, seed,
                                       k == 0, generator)
            reports.append(report)
            if progress is not None:
                progress(report)
    return reports


def reports_all_passed(reports: list[VerificationReport]) -> bool:
    return all(rep.passed for rep in reports)


def write_reports(reports: list[VerificationReport], config: CampaignConfig,
                  out_dir) -> dict:
    """Write instances.jsonl (sorted keys), summary.csv, and config.json.
    Returns the paths written."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)

    jsonl_path = out / "instances.jsonl"
    with open(jsonl_path, "w", encoding="utf-8") as fh:
        for rep in reports:
            fh.write(json.dumps(rep.to_json(), sort_keys=True) + "\n")

    summary: dict[tuple[str, str], list[float]] = {}
    fails: dict[tuple[str, str], int] = {}
    for rep in reports:
        cell = rep.instance_id.split("-")[0]
        for name, chk in rep.checks.items():
            key = (cell, name)
            summary.setdefault(key, []).append(chk["margin"])
            fails[key] = fails.get(key, 0) + (0 if chk["passed"] else 1)

    csv_path = out / "summary.csv"
    with open(csv_path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["cell", "check", "instances", "failures", "min_margin"])
        for (cell, name) in sorted(summary):
            margins = summary[(cell, name)]
            writer.writerow([cell, name, len(margins), fails[(cell, name)],
                             f"{min(margins):.12g}"])

    config_path = out / "config.json"
    with open(config_path, "w", encoding="utf-8") as fh:
        json.dump(config.to_json(), fh, sort_keys=True, indent=2)
        fh.write("\n")

    return {"jsonl": str(jsonl_path), "summary": str(csv_path), "config": str(config_path)}
