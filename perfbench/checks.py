"""Output checks made apart from the program.

Every closed form here is computed from its formula, not by calling
ballpoly, and each check is one whose failure proves a fault: a floor or
ceiling that the paper proves for every wide generator set, an exact value
for a sentinel body, or agreement with the benchmark's own seeded
uniform-sphere Monte Carlo within ``SIGMAS`` standard errors.

Tolerances cover rounding only. The S^2 area is an exact Gauss-Bonnet sum,
so 1e-9 is far above its rounding error. Width, hull diameter and inradius
come from solvers that accept a candidate when its margin clears -1e-9
(support margins and certificates) or from the minimax centre, which the
program's own sentinel check holds to 1e-8.
"""

from __future__ import annotations

import math

import numpy as np

SIGMAS = 6.0
MC_SAMPLES = 100_000
AREA_TOL = 1e-9
INRADIUS_TOL = 1e-8
WIDTH_TOL = {2: 1e-7, 3: 1e-6}
HULL_TOL = {2: 1e-7, 3: 1e-6}
WIDE_TOL = 1e-12


def reuleaux_area(r: float) -> float:
    """Area of the spherical Reuleaux triangle of radius r: three sectors
    minus two triangles, 2 pi - 3 alpha (1 + cos r) with
    cos alpha = cos r / (1 + cos r)."""
    c = math.cos(r)
    alpha = math.acos(c / (1.0 + c))
    return 2.0 * math.pi - 3.0 * alpha * (1.0 + c)


def jung_radius(d: int, r: float) -> float:
    """Jung radius on S^d for sets of diameter r:
    arccos(sqrt((1 + d cos r) / (d + 1)))."""
    return math.acos(math.sqrt((1.0 + d * math.cos(r)) / (d + 1.0)))


def sphere_volume(d: int) -> float:
    """Volume of the unit sphere S^d: 2 pi^((d+1)/2) / Gamma((d+1)/2)."""
    return 2.0 * math.pi ** ((d + 1) / 2.0) / math.gamma((d + 1) / 2.0)


def cap_volume_s3(theta: float) -> float:
    """Volume of a cap of angular radius theta on S^3: the integral of
    4 pi sin^2 t over [0, theta]."""
    return math.pi * (2.0 * theta - math.sin(2.0 * theta))


def uniform_sphere_volume(points: np.ndarray, r: float, seed) -> tuple[float, float]:
    """Volume of the body of ``points`` at radius r by uniform sampling of
    the whole sphere, with its one-sigma standard error."""
    k = points.shape[1]
    rng = np.random.default_rng(seed)
    y = rng.standard_normal((MC_SAMPLES, k))
    y /= np.linalg.norm(y, axis=1)[:, None]
    lowest = np.full(MC_SAMPLES, np.inf)
    for x in points:
        np.minimum(lowest, y @ x, out=lowest)
    p = float(np.count_nonzero(lowest >= math.cos(r))) / MC_SAMPLES
    total = sphere_volume(k - 1)
    return p * total, total * math.sqrt(p * (1.0 - p) / MC_SAMPLES)


def check_body(points: np.ndarray, r: float, values: dict, sentinel: bool,
               volume_n: int, seed) -> dict[str, float]:
    """Margins of every check that applies to one body; a check passes when
    its margin is >= 0.

    ``values`` holds the program's outputs under the campaign's metric names
    (``area`` on S^2, ``volume`` on S^d otherwise, ``inradius``, ``width``,
    ``hull_diameter``). ``volume_n`` is the program's Monte Carlo sample count
    for ``volume``; the benchmark derives that estimate's standard error
    itself from the cap volume and the estimate."""
    d = points.shape[1] - 1
    margins: dict[str, float] = {}
    gram = np.clip(points @ points.T, -1.0, 1.0)
    margins["input_wide"] = r + WIDE_TOL - float(np.max(np.arccos(gram)))
    margins["inradius_floor"] = values["inradius"] - (r - jung_radius(d, r)) + INRADIUS_TOL
    margins["width_floor"] = values["width"] - r + WIDTH_TOL[d]
    margins["hull_ceiling"] = r - values["hull_diameter"] + HULL_TOL[d]
    mc, mc_se = uniform_sphere_volume(points, r, seed)
    if d == 2:
        area = values["area"]
        reuleaux = reuleaux_area(r)
        margins["area_floor"] = area - reuleaux + AREA_TOL
        if sentinel:
            margins["sentinel_area"] = AREA_TOL - abs(area - reuleaux)
        margins["area_mc"] = SIGMAS * mc_se - abs(area - mc)
    else:
        vol = values["volume"]
        cap = cap_volume_s3(r)
        p = min(max(vol / cap, 0.0), 1.0)
        vol_se = cap * math.sqrt(p * (1.0 - p) / volume_n)
        margins["volume_mc"] = SIGMAS * math.hypot(mc_se, vol_se) - abs(vol - mc)
        if sentinel and abs(r - math.pi / 2) < 1e-12:
            margins["sentinel_volume"] = SIGMAS * vol_se - abs(vol - sphere_volume(3) / 16.0)
    return margins
