"""Exact boundary geometry of ball intersections on S^2.

The body of a 2-d generator set is a convex domain bounded by arcs of the
generator circles. This module computes that arc structure explicitly and
everything downstream of it: Gauss-Bonnet area, perimeter, exact support
margins, the hull diameter and inradius, and the minimal lune width by the
closed form 2r - diam X.

Orientation convention: every boundary cycle is traversed counterclockwise
as seen from outside the sphere, with the domain on the left. An arc's
span is the signed rotation angle about its carrier center; spans are
negative for arcs that bound the domain from inside their carrier disk's
complement (used by the tangent-cap constructions in the proof replay).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .sphere import (
    ALG_TOL,
    BallSpec,
    DegeneracyError,
    GeneratorSet,
    Lune,
    geo_tol,
    geodesic_point,
    jung_circumradius,
    spherical_distance,
    tangent_basis,
    tangent_toward,
    unit_vector,
)
from . import ballbody

__all__ = [
    "Arc",
    "ArcBoundary",
    "ArcPiece",
    "BodyMetrics",
    "arc_polygon_area",
    "area",
    "boundary_structure",
    "circle_intersection",
    "hull_diameter_2d",
    "inradius_2d",
    "metrics",
    "perimeter",
    "reuleaux_area",
    "reuleaux_triangle",
    "support_margin_2d",
    "support_margins_2d",
    "width_2d",
]

_VERTEX_CLUSTER_TOL = 1e-7
_CARRIER_TOL = 1e-6
_SPAN_DROP_TOL = 1e-9
_CHAIN_TOL = 1e-6


def _cross3(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Cross product of two 3-vectors by the same formula np.cross uses, so
    the result is bit-identical; on single vectors np.cross spends most of
    its time on axis handling rather than arithmetic."""
    a0, a1, a2 = a.tolist()
    b0, b1, b2 = b.tolist()
    return np.array([a1 * b2 - a2 * b1, a2 * b0 - a0 * b2, a0 * b1 - a1 * b0])


def circle_basis(center: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Right-handed tangent frame (u, v) at ``center`` with v = center x u,
    so increasing angle in cos(t) u + sin(t) v turns counterclockwise seen
    from outside the sphere at ``center``."""
    u = tangent_basis(center)[0]
    v = _cross3(center, u)
    return u, v


def circle_point(center: np.ndarray, radius: float, angle: float,
                 frame: tuple[np.ndarray, np.ndarray] | None = None) -> np.ndarray:
    u, v = frame if frame is not None else circle_basis(center)
    e = math.cos(angle) * u + math.sin(angle) * v
    return math.cos(radius) * center + math.sin(radius) * e


def circle_angle(center: np.ndarray, point: np.ndarray,
                 frame: tuple[np.ndarray, np.ndarray] | None = None) -> float:
    """Angle of ``point`` in the frame of the circle about ``center``."""
    u, v = frame if frame is not None else circle_basis(center)
    return math.atan2(float(point @ v), float(point @ u))


def signed_arc_angle(center: np.ndarray, a: np.ndarray, b: np.ndarray) -> float:
    """Signed rotation about ``center`` carrying a to b, in (-pi, pi]."""
    ea = a - float(a @ center) * center
    eb = b - float(b @ center) * center
    na, nb = float(np.linalg.norm(ea)), float(np.linalg.norm(eb))
    if na < 1e-14 or nb < 1e-14:
        raise DegeneracyError("arc endpoint coincides with the carrier axis")
    ea /= na
    eb /= nb
    return math.atan2(float(_cross3(ea, eb) @ center), float(ea @ eb))


def circle_intersection(c1: np.ndarray, r1: float, c2: np.ndarray, r2: float) -> np.ndarray:
    """Intersection points of two circles dist(., c1) = r1 and dist(., c2) = r2.

    Returns a (k, 3) array with k in {0, 2}; tangent circles return two
    nearly equal rows. Coincident or antipodal axes return k = 0.
    """
    c1 = unit_vector(c1)
    c2 = unit_vector(c2)
    dot = min(max(float(c1 @ c2), -1.0), 1.0)
    det = 1.0 - dot * dot
    if det < 1e-14:
        return np.empty((0, 3))
    q1, q2 = math.cos(r1), math.cos(r2)
    a = (q1 - q2 * dot) / det
    b = (q2 - q1 * dot) / det
    base = a * c1 + b * c2
    s2 = (1.0 - (a * q1 + b * q2)) / det
    if s2 < -1e-12:
        return np.empty((0, 3))
    s = math.sqrt(max(s2, 0.0))
    n = _cross3(c1, c2)
    pts = np.stack([base + s * n, base - s * n])
    return pts / np.linalg.norm(pts, axis=1)[:, None]


# ---------------------------------------------------------------------------
# Boundary structure


@dataclass(frozen=True)
class Arc:
    """Positively oriented boundary arc on the carrier circle about ``center``."""

    center: np.ndarray
    start: np.ndarray
    end: np.ndarray
    span: float

    def to_json(self) -> dict:
        return {
            "center": self.center.tolist(),
            "start": self.start.tolist(),
            "end": self.end.tolist(),
            "span": self.span,
        }


@dataclass(frozen=True)
class ArcPiece:
    """Signed-span circular piece used by the area integrator; radius is the
    piece's own circle radius, span < 0 means clockwise traversal."""

    center: np.ndarray
    radius: float
    start: np.ndarray
    end: np.ndarray
    span: float


@dataclass(frozen=True)
class ArcBoundary:
    """Boundary of a 2-d ball intersection: a closed chain of arcs, or a
    single full circle when one ball is the whole body."""

    radius: float
    arcs: tuple[Arc, ...]
    full_ball: BallSpec | None = None
    redundant: tuple[int, ...] = ()
    warnings: tuple[str, ...] = ()

    def vertices(self) -> np.ndarray:
        if not self.arcs:
            return np.empty((0, 3))
        return np.stack([a.start for a in self.arcs])

    @functools.cached_property
    def arc_table(self) -> tuple[np.ndarray, ...]:
        """Per-arc arrays (centers, f0, f1, t0, spans): arc k is the
        carrier point at angle t in [t0[k], t0[k] + spans[k]] of the frame
        (f0[k], f1[k]) about centers[k]. Built once per boundary."""
        centers = np.stack([a.center for a in self.arcs])
        f0 = np.empty_like(centers)
        f1 = np.empty_like(centers)
        t0s = np.empty(len(self.arcs))
        spans = np.empty(len(self.arcs))
        for i, arc in enumerate(self.arcs):
            frame = circle_basis(arc.center)
            f0[i], f1[i] = frame[0], frame[1]
            t0s[i] = circle_angle(arc.center, arc.start, frame)
            spans[i] = arc.span
        return centers, f0, f1, t0s, spans

    def to_json(self) -> dict:
        return {
            "radius": self.radius,
            "arcs": [a.to_json() for a in self.arcs],
            "full_ball": None if self.full_ball is None else self.full_ball.to_json(),
            "redundant": list(self.redundant),
            "warnings": list(self.warnings),
        }


def _cluster_vertices(cands: list[np.ndarray]) -> tuple[list[np.ndarray], list[int]]:
    """Merge candidate vertices within _VERTEX_CLUSTER_TOL; returns the
    representatives and per-cluster member counts."""
    reps: list[np.ndarray] = []
    members: list[list[np.ndarray]] = []
    for y in cands:
        hit = None
        for k, rep in enumerate(reps):
            if spherical_distance(y, rep) < _VERTEX_CLUSTER_TOL:
                hit = k
                break
        if hit is None:
            reps.append(y)
            members.append([y])
        else:
            members[hit].append(y)
            mean = np.mean(members[hit], axis=0)
            reps[hit] = mean / np.linalg.norm(mean)
    return reps, [len(m) for m in members]


def boundary_structure(gens: GeneratorSet) -> ArcBoundary:
    """Exact boundary of the body of a 2-d generator set.

    Candidate vertices come from pairwise circle intersections filtered by
    membership; each carrier circle is cut at its incident vertices and the
    surviving gaps are kept when their midpoints belong to the body. The
    arcs are stitched into one counterclockwise cycle. Raises
    DegeneracyError when the chain cannot be closed.
    """
    if gens.dim != 2:
        raise ValueError(f"boundary structure requires sphere dimension 2, got {gens.dim}")
    r = gens.radius
    tol = geo_tol()
    warnings: list[str] = []

    keep: list[int] = []
    for i in range(gens.n_points):
        dup = next((j for j in keep
                    if spherical_distance(gens.points[i], gens.points[j]) < tol), None)
        if dup is None:
            keep.append(i)
        else:
            warnings.append(f"generator {i} coincides with generator {dup}; dropped")
    pts = gens.points[keep]
    n = len(pts)

    if n == 1:
        return ArcBoundary(radius=r, arcs=(), full_ball=BallSpec(pts[0], r),
                           warnings=tuple(warnings))

    cos_thr = math.cos(min(r + tol, math.pi))

    def member(y: np.ndarray) -> bool:
        return bool(np.min(pts @ y) >= cos_thr)

    cands: list[np.ndarray] = []
    for i in range(n):
        for j in range(i + 1, n):
            for y in circle_intersection(pts[i], r, pts[j], r):
                if member(y):
                    cands.append(y)
    if not cands:
        raise DegeneracyError("no boundary vertices found; body is degenerate or empty")

    reps, counts = _cluster_vertices(cands)
    n_conc = sum(1 for cnt in counts if cnt > 2)
    if n_conc:
        warnings.append(f"{n_conc} vertex cluster(s) merged concurrent circles "
                        f"(within {_VERTEX_CLUSTER_TOL:g})")

    arcs: list[Arc] = []
    redundant: list[int] = []
    dropped_spans = 0
    for i in range(n):
        frame = circle_basis(pts[i])
        incident = [(circle_angle(pts[i], v, frame), v) for v in reps
                    if abs(spherical_distance(v, pts[i]) - r) <= _CARRIER_TOL]
        if len(incident) < 2:
            redundant.append(keep[i])
            continue
        incident.sort(key=lambda item: item[0])
        contributed = False
        for k in range(len(incident)):
            a0, v0 = incident[k]
            a1, v1 = incident[(k + 1) % len(incident)]
            span = (a1 - a0) % (2 * math.pi)
            if span < _SPAN_DROP_TOL:
                dropped_spans += 1
                continue
            mid = circle_point(pts[i], r, a0 + span / 2, frame)
            if member(mid):
                arcs.append(Arc(center=pts[i], start=v0, end=v1, span=span))
                contributed = True
        if not contributed:
            redundant.append(keep[i])
    if dropped_spans:
        warnings.append(f"dropped {dropped_spans} arc(s) below span {_SPAN_DROP_TOL:g}")

    if not arcs:
        raise DegeneracyError("no boundary arcs survived; body is degenerate or empty")

    ordered = [arcs[0]]
    used = {0}
    while len(ordered) < len(arcs):
        tail = ordered[-1].end
        best, best_d = None, math.inf
        for idx, arc in enumerate(arcs):
            if idx in used:
                continue
            d = spherical_distance(tail, arc.start)
            if d < best_d:
                best, best_d = idx, d
        if best is None or best_d > _CHAIN_TOL:
            raise DegeneracyError(
                f"boundary arcs do not chain (gap {best_d:.3e} exceeds {_CHAIN_TOL:g})")
        used.add(best)
        ordered.append(arcs[best])
    closure = spherical_distance(ordered[-1].end, ordered[0].start)
    if closure > _CHAIN_TOL:
        raise DegeneracyError(f"boundary cycle fails to close (gap {closure:.3e})")

    return ArcBoundary(radius=r, arcs=tuple(ordered), full_ball=None,
                       redundant=tuple(sorted(redundant)), warnings=tuple(warnings))


# ---------------------------------------------------------------------------
# Gauss-Bonnet area and perimeter


def _travel_tangent(piece: ArcPiece, point: np.ndarray) -> np.ndarray:
    w = _cross3(piece.center, point)
    nw = float(np.linalg.norm(w))
    if nw < 1e-14:
        raise DegeneracyError("tangent undefined: point on the carrier axis")
    t = w / nw
    return t if piece.span >= 0 else -t


def arc_polygon_area(pieces: list[ArcPiece] | tuple[ArcPiece, ...]) -> float:
    """Gauss-Bonnet area of the region enclosed by a chain of circle pieces.

    area = 2 pi - sum(exterior turning angles) - sum(cos(radius) * span).
    Pieces must chain end-to-start (within _CHAIN_TOL) and be traversed
    with the region on the left; a negative span encodes a piece running
    clockwise about its own center (concave w.r.t. that disk). A junction
    where travel reverses is a cusp where the region pinches to zero width
    (internal tangency); its turning angle counts as +pi, and the sign
    must be forced because atan2 is unstable there.
    """
    if not pieces:
        raise ValueError("need at least one piece")
    turning = 0.0
    curvature = 0.0
    m = len(pieces)
    for idx, pc in enumerate(pieces):
        curvature += math.cos(pc.radius) * pc.span
        nxt = pieces[(idx + 1) % m]
        gap = spherical_distance(pc.end, nxt.start)
        if gap > _CHAIN_TOL:
            raise DegeneracyError(f"pieces do not chain (gap {gap:.3e})")
        y = pc.end
        t_in = _travel_tangent(pc, y)
        t_out = _travel_tangent(nxt, nxt.start)
        turn = math.atan2(float(_cross3(t_in, t_out) @ y), float(t_in @ t_out))
        if abs(turn) > math.pi - 1e-7:
            turn = math.pi
        turning += turn
    return 2 * math.pi - turning - curvature


def area(boundary: ArcBoundary) -> float:
    """Area enclosed by the boundary. Raises DegeneracyError when the
    Gauss-Bonnet value falls outside the geometrically possible range."""
    if boundary.full_ball is not None:
        return 2 * math.pi * (1.0 - math.cos(boundary.full_ball.radius))
    pieces = [ArcPiece(a.center, boundary.radius, a.start, a.end, a.span)
              for a in boundary.arcs]
    val = arc_polygon_area(pieces)
    if not -1e-9 < val < 4 * math.pi:
        raise DegeneracyError(f"area {val:.6g} outside the valid range; bad orientation?")
    return max(val, 0.0)


def perimeter(boundary: ArcBoundary) -> float:
    if boundary.full_ball is not None:
        return 2 * math.pi * math.sin(boundary.full_ball.radius)
    return math.sin(boundary.radius) * sum(a.span for a in boundary.arcs)


# ---------------------------------------------------------------------------
# Named instances


def reuleaux_triangle(r: float) -> GeneratorSet:
    """Three generators at pairwise distance exactly r (spherical Reuleaux
    triangle), centered on the north pole."""
    theta = jung_circumradius(2, r)
    azim = np.array([0.0, 2 * math.pi / 3, 4 * math.pi / 3])
    pts = np.stack([
        math.sin(theta) * np.cos(azim),
        math.sin(theta) * np.sin(azim),
        math.cos(theta) * np.ones(3),
    ], axis=1)
    return GeneratorSet(dim=2, radius=float(r), points=pts)


def reuleaux_area(r: float) -> float:
    """Closed-form area of the spherical Reuleaux triangle of radius r:
    2 pi - 3 alpha (1 + cos r) with cos(alpha) = cos r / (1 + cos r).
    Equals pi/2 at r = pi/2."""
    if not 0.0 < r <= math.pi / 2 + ALG_TOL:
        raise ValueError(f"radius must lie in (0, pi/2], got {r}")
    alpha = math.acos(math.cos(r) / (1.0 + math.cos(r)))
    return 2 * math.pi - 3 * alpha * (1.0 + math.cos(r))


# ---------------------------------------------------------------------------
# Exact support margins and width


def support_margin_2d(gens: GeneratorSet, pole, boundary: ArcBoundary | None = None) -> float:
    """Exact min over the body of <pole, y> (support margin of the pole's
    hemisphere). Nonnegative iff the hemisphere about ``pole`` contains the
    body. Minimized in closed form over every boundary arc."""
    return float(support_margins_2d(gens, np.asarray(pole, dtype=float)[None, :], boundary)[0])


def support_margins_2d(gens: GeneratorSet, poles: np.ndarray,
                       boundary: ArcBoundary | None = None) -> np.ndarray:
    """Vectorized support_margin_2d over an (m, 3) array of poles.

    On every boundary arc the inner product with a fixed pole is
    base + A cos t + B sin t, so the minimum over the arc is attained at an
    endpoint or at the single interior phase minimum when that phase falls
    inside the span; all three candidates evaluate in closed form for all
    poles and arcs at once."""
    if boundary is None:
        boundary = boundary_structure(gens)
    poles = np.asarray(poles, dtype=float)
    poles = poles / np.linalg.norm(poles, axis=1)[:, None]
    r = boundary.radius
    if boundary.full_ball is not None:
        x = boundary.full_ball.center
        d = np.arccos(np.clip(poles @ x, -1.0, 1.0))
        return np.cos(np.minimum(d + r, math.pi))

    centers, f0, f1, t0s, spans = boundary.arc_table
    sin_r, cos_r = math.sin(r), math.cos(r)
    base = cos_r * (centers @ poles.T)
    a_coef = sin_r * (f0 @ poles.T)
    b_coef = sin_r * (f1 @ poles.T)
    t0c = t0s[:, None]
    spanc = spans[:, None]
    v_start = base + a_coef * np.cos(t0c) + b_coef * np.sin(t0c)
    v_end = base + a_coef * np.cos(t0c + spanc) + b_coef * np.sin(t0c + spanc)
    amp = np.hypot(a_coef, b_coef)
    t_min = np.arctan2(-b_coef, -a_coef)
    inside = ((t_min - t0c) % (2.0 * math.pi)) <= spanc
    v_int = np.where(inside & (amp > 1e-15), base - amp, np.inf)
    return np.minimum(np.minimum(v_start, v_end), v_int).min(axis=0)


def hull_diameter_2d(gens: GeneratorSet, boundary: ArcBoundary | None = None) -> tuple[float, np.ndarray]:
    """Diameter of the hull of the generators, with a realizing point pair.

    The hull is the set of centers whose radius-r ball contains the whole
    body; membership is the exact support test margin >= cos(r). Its
    boundary consists of arcs of radius-r circles centered at anchor points
    (generators and body vertices), so the diameter is realized among the
    anchors themselves, the pairwise far extensions and intersections of
    their circles; those finitely many candidates are enumerated exactly.
    """
    if gens.dim != 2:
        raise ValueError(f"hull_diameter_2d needs dim 2, got {gens.dim}")
    if boundary is None:
        boundary = boundary_structure(gens)
    r = gens.radius
    cos_r = math.cos(r)

    anchors = [gens.points[i] for i in range(gens.n_points)]
    anchors.extend(boundary.vertices())
    cand = list(anchors)
    for i, a in enumerate(anchors):
        for j, b in enumerate(anchors):
            if i == j:
                continue
            # skip on the chord norm tangent_toward tests, not on the arccos
            # distance, which reads points 1e-16 apart as 1.5e-8 apart
            if float(np.linalg.norm(b - (a @ b) * a)) < 1e-14:
                continue
            cand.append(geodesic_point(a, -tangent_toward(a, b), r))
            if i < j:
                cand.extend(circle_intersection(a, r, b, r))
    cand = np.stack(cand)
    keep = cand[support_margins_2d(gens, cand, boundary) >= cos_r - 1e-10]
    if len(keep) == 0:
        # always holds for the generators themselves; guard regardless
        center = ballbody.minimax_center(gens.points).center
        keep = center[None, :]
    if len(keep) == 1:
        return 0.0, np.stack([keep[0], keep[0]])

    gram = np.clip(keep @ keep.T, -1.0, 1.0)
    np.fill_diagonal(gram, 1.0)
    i, j = np.unravel_index(int(np.argmin(gram)), gram.shape)
    return float(np.arccos(gram[i, j])), keep[[i, j]]


def width_2d(gens: GeneratorSet) -> tuple[float, Lune | None]:
    """Minimal width over lunes containing a 2-d body, with a witness lune:
    the closed form 2r - diam X of ``ballbody.width_nd``."""
    if gens.dim != 2:
        raise ValueError(f"width_2d requires sphere dimension 2, got {gens.dim}")
    return ballbody.width_nd(gens)


def inradius_2d(gens: GeneratorSet) -> tuple[float, np.ndarray]:
    """Inradius and incenter of a 2-d body (radius minus the minimax
    circumradius of the generators)."""
    if gens.dim != 2:
        raise ValueError(f"inradius_2d requires sphere dimension 2, got {gens.dim}")
    return ballbody.inradius_nd(gens)


# ---------------------------------------------------------------------------
# Aggregate metrics


@dataclass(frozen=True)
class BodyMetrics:
    """Scalar summary of a 2-d body. ``hull_diameter`` is the diameter of
    the sampled second dual (dual applied twice)."""

    area: float
    perimeter: float
    width: float
    inradius: float
    circumradius: float
    hull_diameter: float

    def __post_init__(self):
        vals = (self.area, self.perimeter, self.width, self.inradius,
                self.circumradius, self.hull_diameter)
        if not all(math.isfinite(v) for v in vals):
            raise ValueError(f"non-finite metric in {vals}")
        if min(vals) < -ALG_TOL:
            raise ValueError(f"negative metric in {vals}")
        if self.width > math.pi + ALG_TOL:
            raise ValueError(f"width {self.width} exceeds pi")

    def to_json(self) -> dict:
        return {
            "area": self.area,
            "perimeter": self.perimeter,
            "width": self.width,
            "inradius": self.inradius,
            "circumradius": self.circumradius,
            "hull_diameter": self.hull_diameter,
        }

    @staticmethod
    def csv_header() -> list[str]:
        return ["area", "perimeter", "width", "inradius", "circumradius", "hull_diameter"]

    def csv_row(self) -> list[float]:
        return [self.area, self.perimeter, self.width, self.inradius,
                self.circumradius, self.hull_diameter]


def metrics(gens: GeneratorSet, boundary: ArcBoundary | None = None) -> BodyMetrics:
    """All scalar metrics of a 2-d body in one pass."""
    if boundary is None:
        boundary = boundary_structure(gens)
    w, _ = width_2d(gens)
    rin, _ = inradius_2d(gens)
    circ, _ = ballbody.circumradius_minimax(gens.points)
    hull_diam, _ = hull_diameter_2d(gens, boundary)
    return BodyMetrics(
        area=area(boundary),
        perimeter=perimeter(boundary),
        width=w,
        inradius=rin,
        circumradius=circ,
        hull_diameter=hull_diam,
    )
