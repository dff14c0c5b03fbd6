"""Independent estimators used to cross-check the exact computations.

These deliberately avoid the closed forms they check: the area oracle is
plain Monte Carlo in a proposal cap, and the width oracle never uses the
farthest-pair formula 2r - diam X. It traces the feasible-pole region by
bisection on exact support margins along adaptively refined azimuths and
brackets its diameter between the traced poles and an outer supporting
polygon. Each result carries an explicit error bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .sphere import GeneratorSet, tangent_basis
from .diskpoly import ArcBoundary, boundary_structure, circle_basis, support_margins_2d
from . import ballbody

__all__ = ["OracleResult", "oracle_area_mc", "oracle_width_grid"]


@dataclass(frozen=True)
class OracleResult:
    """Estimate with an explicit error bound.

    ``error_bound`` is three standard errors for the Monte Carlo oracle and
    the two-sided bracket gap (radians) for the width oracle.
    """

    quantity: str
    value: float
    error_bound: float
    method: str
    resolution: float

    def to_json(self) -> dict:
        return {
            "quantity": self.quantity,
            "value": self.value,
            "error_bound": self.error_bound,
            "method": self.method,
            "resolution": self.resolution,
        }


def oracle_area_mc(gens: GeneratorSet, n: int = 1_000_000, seed: int = 0) -> OracleResult:
    """Monte Carlo area of a 2-d body; error bound is three standard errors."""
    if gens.dim != 2:
        raise ValueError(f"area oracle requires sphere dimension 2, got {gens.dim}")
    if n < 1000:
        raise ValueError(f"need at least 1000 samples, got {n}")
    est = ballbody.mc_volume(gens, n, seed)
    return OracleResult("area", est.value, 3.0 * est.std_error, "monte-carlo", float(n))


def _farthest_boundary_points(poles: np.ndarray, boundary: ArcBoundary) -> np.ndarray:
    """Body boundary point farthest from each pole, one row per pole.

    Mirrors the closed form of the support margin: on every arc the inner
    product with a pole is base + A cos t + B sin t, so the minimizer (the
    farthest point) is an arc endpoint or the interior phase minimum."""
    r = boundary.radius
    sin_r, cos_r = math.sin(r), math.cos(r)
    if boundary.full_ball is not None:
        x = boundary.full_ball.center
        f0, f1 = circle_basis(x)
        a = sin_r * (poles @ f0)
        b = sin_r * (poles @ f1)
        t = np.where(np.hypot(a, b) > 1e-15, np.arctan2(-b, -a), 0.0)
        return (cos_r * x[None, :]
                + sin_r * (np.cos(t)[:, None] * f0[None, :]
                           + np.sin(t)[:, None] * f1[None, :]))

    centers, f0, f1, t0s, spans = boundary.arc_table
    base = cos_r * (centers @ poles.T)
    a_coef = sin_r * (f0 @ poles.T)
    b_coef = sin_r * (f1 @ poles.T)
    t0c = t0s[:, None]
    spanc = spans[:, None]
    t_int = np.arctan2(-b_coef, -a_coef)
    inside = (((t_int - t0c) % (2.0 * math.pi)) <= spanc) & (np.hypot(a_coef, b_coef) > 1e-15)
    cand_t = np.stack([
        np.broadcast_to(t0c, base.shape),
        np.broadcast_to(t0c + spanc, base.shape),
        t_int,
    ])
    cand_v = base[None] + a_coef[None] * np.cos(cand_t) + b_coef[None] * np.sin(cand_t)
    cand_v[2][~inside] = np.inf
    flat_v = cand_v.reshape(3 * len(boundary.arcs), -1)
    flat_t = cand_t.reshape(3 * len(boundary.arcs), -1)
    winner = np.argmin(flat_v, axis=0)
    cols = np.arange(poles.shape[0])
    t = flat_t[winner, cols]
    arc_idx = winner % len(boundary.arcs)
    return (cos_r * centers[arc_idx]
            + sin_r * (np.cos(t)[:, None] * f0[arc_idx]
                       + np.sin(t)[:, None] * f1[arc_idx]))


def _outer_pole_diameter(ys: np.ndarray) -> float:
    """Diameter of the outer region cut by the hemispheres about ``ys``.

    Every row of ``ys`` is a body point, so each hemisphere contains the
    whole feasible-pole region and this outer region's diameter bounds the
    feasible one's from above. The outer boundary consists of great-circle
    edges meeting at vertices, and a farthest pair is critical in each
    coordinate, so both its points appear among the vertices, the far
    crossings of an edge circle seen from a vertex, and the crossings of
    two edge circles with their common-perpendicular great circle; all are
    enumerated and kept under a small feasibility slack. Near-boundary
    extras only enlarge the result, and the hemisphere fallback pi covers
    the vertex-free degenerate cases."""
    uniq = np.unique(np.round(ys, 12), axis=0)
    uniq = uniq / np.linalg.norm(uniq, axis=1)[:, None]
    if len(uniq) < 2:
        return math.pi

    def keep_feasible(points: np.ndarray) -> np.ndarray:
        if len(points) == 0:
            return points.reshape(0, 3)
        return points[np.min(points @ uniq.T, axis=1) >= -1e-9]

    ii, jj = np.triu_indices(len(uniq), k=1)
    axis = np.cross(uniq[ii], uniq[jj])
    norms = np.linalg.norm(axis, axis=1)
    good = norms > 1e-12
    if not np.any(good):
        return math.pi
    axis = axis[good] / norms[good, None]
    verts = keep_feasible(np.vstack([axis, -axis]))
    if len(verts) == 0:
        return math.pi

    perp = []
    for y in (uniq[ii[good]], uniq[jj[good]]):
        q = np.cross(y, axis)
        qn = np.linalg.norm(q, axis=1)
        q = q[qn > 1e-12] / qn[qn > 1e-12, None]
        perp.extend([q, -q])
    proj = verts[:, None, :] - (verts @ uniq.T)[:, :, None] * uniq[None, :, :]
    pn = np.linalg.norm(proj, axis=2)
    far = -(proj[pn > 1e-12] / pn[pn > 1e-12][:, None])
    extra = keep_feasible(np.vstack(perp + [far]))
    pts = np.unique(np.round(np.vstack([verts, extra]), 10), axis=0)
    pts = pts / np.linalg.norm(pts, axis=1)[:, None]

    min_dot = 1.0
    for lo in range(0, len(pts), 256):
        min_dot = min(min_dot, float(np.min(pts[lo:lo + 256] @ pts.T)))
    return math.acos(max(-1.0, min(1.0, min_dot)))


def oracle_width_grid(gens: GeneratorSet, n_dirs: int = 96,
                      boundary: ArcBoundary | None = None) -> OracleResult:
    """Bracketing boundary trace of the feasible-pole region of a 2-d body.

    A hemisphere about a pole contains the body iff the pole's exact
    support margin is nonnegative, and the feasible poles form a
    geodesically convex region around the minimax center, so the width is
    pi minus that region's diameter. Along each azimuth the feasible
    stretch is an interval whose endpoint is bisected on the exact margin;
    azimuths are refined while adjacent boundary poles sit farther apart
    than the chord target. The diameter is then bracketed from both sides:
    every traced pole is feasible, so their largest pairwise distance is a
    lower bound, while the hemispheres through the body points farthest
    from the traced poles cut an outer polygon whose vertex diameter is an
    upper bound. The reported value is pi minus the lower bound and the
    error bound is the bracket gap, which stays honest even for sliver
    pole regions whose boundary jumps discontinuously in azimuth.
    ``resolution`` reports the number of boundary poles traced; a
    ``boundary`` already built for ``gens`` is reused.
    """
    if gens.dim != 2:
        raise ValueError(f"width oracle requires sphere dimension 2, got {gens.dim}")
    if n_dirs < 8:
        raise ValueError(f"need at least 8 grid directions, got {n_dirs}")
    if boundary is None:
        boundary = boundary_structure(gens)
    res = ballbody.minimax_center(gens.points)
    c = res.center
    b1 = tangent_basis(c)[0]
    b2 = np.cross(c, b1)

    def poles_at(phis: np.ndarray) -> np.ndarray:
        e = np.outer(np.cos(phis), b1) + np.outer(np.sin(phis), b2)
        lo = np.zeros(len(phis))
        hi = np.full(len(phis), math.pi)
        for _ in range(46):
            mid = 0.5 * (lo + hi)
            u = np.cos(mid)[:, None] * c[None, :] + np.sin(mid)[:, None] * e
            ok = support_margins_2d(gens, u, boundary) >= 0.0
            lo = np.where(ok, mid, lo)
            hi = np.where(ok, hi, mid)
        return np.cos(lo)[:, None] * c[None, :] + np.sin(lo)[:, None] * e

    chord_target = math.pi / n_dirs
    phis = np.linspace(0.0, 2 * math.pi, n_dirs, endpoint=False)
    poles = poles_at(phis)
    for _round in range(24):
        gaps_to_next = np.arccos(np.clip(
            np.sum(poles * np.roll(poles, -1, axis=0), axis=1), -1.0, 1.0))
        bad = np.flatnonzero(gaps_to_next > chord_target)
        if bad.size == 0 or len(phis) >= 8 * n_dirs:
            break
        nxt_phi = np.roll(phis, -1)
        step = (nxt_phi[bad] - phis[bad]) % (2 * math.pi)
        mids = (phis[bad] + 0.5 * step) % (2 * math.pi)
        phis = np.concatenate([phis, mids])
        poles = np.vstack([poles, poles_at(mids)])
        order = np.argsort(phis)
        phis, poles = phis[order], poles[order]

    gram = np.clip(poles @ poles.T, -1.0, 1.0)
    d_lo = float(np.max(np.arccos(gram)))
    far_i, far_j = np.unravel_index(np.argmin(gram), gram.shape)
    stride = max(1, len(poles) // 96)
    sub = np.unique(np.concatenate([np.arange(0, len(poles), stride),
                                    [far_i, far_j]]))
    d_hi = _outer_pole_diameter(_farthest_boundary_points(poles[sub], boundary))
    err = max(d_hi - d_lo, 0.0) + 1e-9
    return OracleResult("width", math.pi - d_lo, err,
                        "boundary-bracket", float(len(poles)))
