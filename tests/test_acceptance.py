"""End-to-end acceptance gate.

One test per shipping criterion, in order. Every test computes its full
verdict first, prints a single CRITERION line through the capture guard
so the verdict is visible in terminal output either way, and only then
asserts, so `pytest -v` shows one named pass/fail per criterion.
"""

import json
import math
import time

import numpy as np
import pytest

from ballpoly import ballbody, campaign, diskpoly, oracles, proofreplay
from ballpoly.sphere import jung_circumradius, sample_wide_generator

HALF_PI = math.pi / 2
RADII = (0.3, 0.7, HALF_PI)


@pytest.fixture(scope="module")
def full_reports():
    """The default 630-instance verification campaign, run once."""
    return campaign.run_campaign(campaign.default_config())


@pytest.fixture
def announce(capsys):
    def _announce(num: int, ok: bool, detail: str) -> None:
        with capsys.disabled():
            print(f"\nCRITERION {num:2d} {'PASS' if ok else 'FAIL'}: {detail}")
    return _announce


def test_criterion_01_reuleaux_area_closed_form(announce):
    gens = diskpoly.reuleaux_triangle(HALF_PI)
    value = diskpoly.area(diskpoly.boundary_structure(gens))
    err = abs(value - HALF_PI)

    def once() -> float:
        t0 = time.perf_counter()
        diskpoly.area(diskpoly.boundary_structure(gens))
        return time.perf_counter() - t0

    once()
    best = min(once() for _ in range(50))
    ok = err <= 1e-9 and best < 1e-3
    announce(1, ok, f"area(reuleaux(pi/2)) off by {err:.2e}, best runtime {best * 1e3:.3f} ms")
    assert err <= 1e-9
    assert best < 1e-3


def test_criterion_02_area_agrees_with_monte_carlo(announce):
    t0 = time.perf_counter()
    worst_ratio = 0.0
    bad = []
    for i in range(50):
        r = RADII[i % 3]
        seed = 7347 + 13 * i
        n_pts = int(np.random.default_rng(seed).integers(3, 9))
        gens = sample_wide_generator(2, r, n_pts, seed)
        exact = diskpoly.area(diskpoly.boundary_structure(gens))
        est = oracles.oracle_area_mc(gens, 1_000_000, seed=seed ^ 0x0A2E)
        gap = abs(exact - est.value)
        if gap > max(est.error_bound, 1e-12):
            bad.append((i, gap, est.error_bound))
        if est.error_bound > 0:
            worst_ratio = max(worst_ratio, 3.0 * gap / est.error_bound)
    elapsed = time.perf_counter() - t0
    ok = not bad and elapsed < 120.0
    announce(2, ok, f"50 instances, worst |exact-mc| = {worst_ratio:.2f} sigma, {elapsed:.1f} s")
    assert not bad, bad
    assert elapsed < 120.0


def test_criterion_03_campaign_area_floor(full_reports, announce):
    d2 = [rep for rep in full_reports if rep.dim == 2]
    floor_viol = [rep.instance_id for rep in d2
                  if not rep.checks["area_floor"]["passed"]]
    min_margin = min(rep.checks["area_floor"]["margin"] for rep in d2)
    sentinel_gap = max(abs(rep.metrics["area"] - diskpoly.reuleaux_area(rep.radius))
                       for rep in d2 if rep.sentinel)
    campaign_fail = [rep.instance_id for rep in full_reports if not rep.passed]
    ok = (len(full_reports) >= 600 and not floor_viol
          and sentinel_gap <= 1e-6 and not campaign_fail)
    announce(3, ok, f"{len(full_reports)} instances, area-floor margin >= {min_margin:.2e}, "
                    f"sentinel gap {sentinel_gap:.2e}, failing checks on {len(campaign_fail)}")
    assert len(full_reports) >= 600
    assert not floor_viol, floor_viol
    assert sentinel_gap <= 1e-6
    assert not campaign_fail, campaign_fail


def test_criterion_04_width_floor_and_grid_oracle(full_reports, announce):
    d2 = [rep for rep in full_reports if rep.dim == 2]
    floor_viol = [rep.instance_id for rep in d2
                  if rep.metrics["width"] < rep.radius - 1e-6]
    sentinel_gap = max(abs(rep.metrics["width"] - rep.radius)
                       for rep in d2 if rep.sentinel)
    grid_viol = [rep.instance_id for rep in d2
                 if not rep.checks["width_grid_agree"]["passed"]]
    ok = not floor_viol and sentinel_gap <= 1e-8 and not grid_viol
    announce(4, ok, f"width floor clean on {len(d2)} d2 instances, sentinel gap "
                    f"{sentinel_gap:.2e}, grid oracle disagreements {len(grid_viol)}")
    assert not floor_viol, floor_viol
    assert sentinel_gap <= 1e-8
    assert not grid_viol, grid_viol


def test_criterion_05_inradius_jung_floor(announce):
    worst = math.inf
    sentinel_gap = 0.0
    for d in (2, 3, 4):
        for i in range(100):
            r = RADII[i % 3]
            seed = 40_000 + 1000 * d + i
            n_pts = int(np.random.default_rng(seed).integers(d + 1, 9))
            gens = sample_wide_generator(d, r, n_pts, seed)
            rin, _ = ballbody.inradius_nd(gens)
            worst = min(worst, rin - (r - jung_circumradius(d, r)))
        for r in RADII:
            gens = ballbody.simplex_body(d, r).generator_set()
            rin, _ = ballbody.inradius_nd(gens)
            sentinel_gap = max(sentinel_gap, abs(rin - (r - jung_circumradius(d, r))))
    ok = worst >= -1e-8 and sentinel_gap <= 1e-8
    announce(5, ok, f"300 instances over d in (2,3,4), worst slack {worst:.2e}, "
                    f"simplex equality gap {sentinel_gap:.2e}")
    assert worst >= -1e-8
    assert sentinel_gap <= 1e-8


def test_criterion_06_hull_diameter_bound(full_reports, announce):
    viol = [rep.instance_id for rep in full_reports
            if rep.metrics["hull_diameter"] > rep.radius + 5e-3]
    reuleaux_gap = max(abs(rep.metrics["hull_diameter"] - rep.radius)
                       for rep in full_reports if rep.sentinel and rep.dim == 2)
    ok = not viol and reuleaux_gap <= 5e-3
    announce(6, ok, f"hull diameter <= r + 5e-3 on {len(full_reports)} instances, "
                    f"reuleaux fixed-point gap {reuleaux_gap:.2e}")
    assert not viol, viol
    assert reuleaux_gap <= 5e-3


def test_criterion_07_width_plus_hull_diameter(full_reports, announce):
    margins = [rep.metrics["width"] + rep.metrics["hull_diameter"] - 2 * rep.radius
               for rep in full_reports]
    worst = min(margins)
    ok = worst >= -1e-2
    announce(7, ok, f"width + hull diameter >= 2r - 1e-2 on {len(margins)} instances, "
                    f"worst slack {worst:.2e}")
    assert worst >= -1e-2


def test_criterion_08_schramm_bound_and_orthant_volume(announce):
    t0 = time.perf_counter()
    gaps = []
    for d in range(3, 11):
        bound, reference = ballbody.schramm_bound(d)
        gaps.append(reference - bound)
    strict = all(g > 0 for g in gaps)
    gens = ballbody.simplex_body(3, HALF_PI).generator_set()
    vol = ballbody.mc_volume(gens, 10_000_000, seed=20260821)
    target = math.pi ** 2 / 8
    dev = abs(vol.value - target)
    elapsed = time.perf_counter() - t0
    ok = strict and dev <= 3 * vol.std_error and elapsed < 180.0
    announce(8, ok, f"bound < volume for d=3..10, 1e7-sample volume off by "
                    f"{dev / vol.std_error:.2f} sigma, {elapsed:.1f} s")
    assert strict, gaps
    assert dev <= 3 * vol.std_error
    assert elapsed < 180.0


def test_criterion_09_proof_replay_chain(full_reports, announce):
    triangle = [rep for rep in full_reports
                if rep.dim == 2 and rep.metrics.get("replay_branch") == "triangle"]
    bad = []
    for rep in triangle:
        for name, chk in rep.checks.items():
            if name.startswith("replay_") and not chk["passed"]:
                bad.append((rep.instance_id, name, chk["margin"]))
        for link in ("replay_chain_body_vs_cap_domain",
                     "replay_chain_cap_domain_vs_symmetric",
                     "replay_chain_symmetric_vs_reuleaux",
                     "replay_caps_pairwise_disjoint"):
            assert link in rep.checks, (rep.instance_id, link)
    arm_ok = True
    for r in RADII:
        prof = proofreplay.cauchy_arm_profile(r, samples=100)
        arm_ok = arm_ok and bool(np.all(np.diff(prof.clearances) > 0))
    ok = len(triangle) > 0 and not bad and arm_ok
    announce(9, ok, f"{len(triangle)} triangle-contact replays clean, "
                    f"arm profile strictly increasing at 100 points for all radii")
    assert triangle
    assert not bad, bad
    assert arm_ok


def test_criterion_10_campaign_determinism(tmp_path, announce):
    cells = (campaign.CampaignCell(2, 0.3, 3), campaign.CampaignCell(2, 0.7, 3),
             campaign.CampaignCell(2, HALF_PI, 3), campaign.CampaignCell(3, 0.8, 2),
             campaign.CampaignCell(3, HALF_PI, 2))
    cfg = campaign.CampaignConfig(cells=cells, seed=97, mc_area_n=4000,
                                  volume_n=20_000, grid_dirs=48, replay_samples=600)

    def stripped(out_dir) -> bytes:
        reports = campaign.run_campaign(cfg)
        paths = campaign.write_reports(reports, cfg, out_dir)
        lines = []
        with open(paths["jsonl"], encoding="utf-8") as fh:
            for line in fh:
                rec = json.loads(line)
                rec.pop("runtime_ms", None)
                lines.append(json.dumps(rec, sort_keys=True))
        return "\n".join(lines).encode()

    first = stripped(tmp_path / "a")
    second = stripped(tmp_path / "b")
    ok = first == second
    announce(10, ok, f"two 13-instance campaigns byte-identical "
                     f"({len(first)} bytes, runtime stripped)")
    assert first == second
