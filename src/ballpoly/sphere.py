"""Metric primitives on the unit sphere S^d embedded in R^(d+1).

Points are unit vectors in R^(d+1) with d >= 2. Geodesic distance is
arccos of the inner product, clamped to [-1, 1] so coincident and
antipodal pairs never produce NaN; distances live in [0, pi].

Two tolerances are used throughout the package:

* ``ALG_TOL`` (1e-12) for plain arithmetic identities,
* ``geo_tol()`` for containment and incidence decisions that sit behind
  chained trigonometry. Default 1e-9, overridable through the
  ``SPHERE_TOL`` environment variable or :func:`set_geo_tol`.

A *generator set* is a finite family of unit vectors together with a
radius r in (0, pi/2], pairwise no farther apart than r. The body of
interest everywhere in this package is the intersection of the closed
balls of radius r about the generators (the r-dual of the set).
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass

import numpy as np

ALG_TOL = 1e-12
_DEFAULT_GEO_TOL = 1e-9


class DegeneracyError(RuntimeError):
    """Raised when a geometric construction is numerically ill-posed
    (boundary fails to close, tangent undefined, contact set ambiguous)."""


def _read_env_tol() -> float:
    raw = os.environ.get("SPHERE_TOL")
    if raw is None:
        return _DEFAULT_GEO_TOL
    try:
        value = float(raw)
    except ValueError as exc:
        raise ValueError(f"SPHERE_TOL must be a float, got {raw!r}") from exc
    if not 0.0 < value < 1.0:
        raise ValueError(f"SPHERE_TOL must lie in (0, 1), got {value}")
    return value


_geo_tol = _read_env_tol()


def geo_tol() -> float:
    """Current geometric tolerance for containment/incidence decisions."""
    return _geo_tol


def set_geo_tol(value: float) -> None:
    """Override the geometric tolerance process-wide (CLI --tol hook)."""
    global _geo_tol
    value = float(value)
    if not 0.0 < value < 1.0:
        raise ValueError(f"geometric tolerance must lie in (0, 1), got {value}")
    _geo_tol = value


def unit_vector(coords) -> np.ndarray:
    """Normalize ``coords`` to a unit vector in R^(d+1), d >= 2.

    Raises ValueError for zero-length input or ambient dimension < 3.
    """
    v = np.asarray(coords, dtype=float)
    if v.ndim != 1:
        raise ValueError(f"expected a 1-d coordinate array, got shape {v.shape}")
    if v.size < 3:
        raise ValueError(f"ambient dimension must be >= 3 (sphere dim >= 2), got {v.size}")
    n = float(np.linalg.norm(v))
    if n < 1e-12:
        raise ValueError("cannot normalize a (near-)zero vector")
    return v / n


def as_unit_rows(points) -> np.ndarray:
    """Normalize a (n, d+1) array of row vectors; validates like unit_vector."""
    p = np.asarray(points, dtype=float)
    if p.ndim == 1:
        p = p[None, :]
    if p.ndim != 2:
        raise ValueError(f"expected a 2-d point array, got shape {p.shape}")
    if p.shape[0] == 0:
        raise ValueError("point array must be nonempty")
    if p.shape[1] < 3:
        raise ValueError(f"ambient dimension must be >= 3, got {p.shape[1]}")
    norms = np.linalg.norm(p, axis=1)
    if np.any(norms < 1e-12):
        raise ValueError("point array contains a (near-)zero row")
    return p / norms[:, None]


def spherical_distance(a, b) -> float:
    """Geodesic distance arccos(<a, b>) in [0, pi]; dimensions must match."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape != b.shape:
        raise ValueError(f"dimension mismatch: {a.shape} vs {b.shape}")
    # builtin clamp: np.clip on a Python float costs more than the arccos;
    # x first so a NaN dot product still propagates
    return float(np.arccos(min(max(float(a @ b), -1.0), 1.0)))


def pairwise_distances(points) -> np.ndarray:
    p = np.asarray(points, dtype=float)
    g = np.clip(p @ p.T, -1.0, 1.0)
    return np.arccos(g)


def diameter(points) -> float:
    """Largest pairwise geodesic distance; 0.0 for a single point."""
    p = np.asarray(points, dtype=float)
    if p.ndim == 1 or p.shape[0] == 1:
        return 0.0
    d = pairwise_distances(p)
    return float(np.max(d))


def tangent_basis(p: np.ndarray) -> np.ndarray:
    """Deterministic orthonormal basis of the tangent space at ``p``.

    Returns a (k-1, k) array whose rows span the orthogonal complement.
    """
    p = np.asarray(p, dtype=float)
    # SVD of the 1 x k row recovers p (up to sign) plus a stable completion.
    _, _, vh = np.linalg.svd(p[None, :])
    return vh[1:]


def tangent_toward(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Unit tangent at ``a`` pointing along the geodesic toward ``b``."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    w = b - (a @ b) * a
    n = float(np.linalg.norm(w))
    if n < 1e-14:
        raise ValueError("tangent direction undefined for coincident or antipodal points")
    return w / n


def geodesic_point(p: np.ndarray, direction: np.ndarray, t: float) -> np.ndarray:
    """Point at arc length ``t`` from ``p`` along the unit tangent ``direction``."""
    return math.cos(t) * p + math.sin(t) * direction


@dataclass(frozen=True)
class BallSpec:
    """A closed ball on the sphere: center (unit vector) and radius in (0, pi/2]."""

    center: np.ndarray
    radius: float

    def __post_init__(self):
        object.__setattr__(self, "center", unit_vector(self.center))
        r = float(self.radius)
        if not 0.0 < r <= math.pi / 2 + ALG_TOL:
            raise ValueError(f"ball radius must lie in (0, pi/2], got {r}")
        object.__setattr__(self, "radius", r)

    def to_json(self) -> dict:
        return {"center": self.center.tolist(), "radius": self.radius}


@dataclass(frozen=True)
class Lune:
    """Intersection of two distinct, non-opposite closed hemispheres.

    Stored by the hemisphere poles u, v. Width is pi - dist(u, v).
    """

    u: np.ndarray
    v: np.ndarray

    def __post_init__(self):
        u = unit_vector(self.u)
        v = unit_vector(self.v)
        if u.shape != v.shape:
            raise ValueError("lune poles must share an ambient dimension")
        d = spherical_distance(u, v)
        if d < 1e-14:
            raise ValueError("lune poles must be distinct")
        if d > math.pi - 1e-14:
            raise ValueError("lune poles must not be antipodal")
        object.__setattr__(self, "u", u)
        object.__setattr__(self, "v", v)

    @property
    def width(self) -> float:
        return math.pi - spherical_distance(self.u, self.v)

    def to_json(self) -> dict:
        return {"u": self.u.tolist(), "v": self.v.tolist(), "width": self.width}


@dataclass(frozen=True, eq=False)
class GeneratorSet:
    """A wide family of ball centers: pairwise distances <= radius <= pi/2.

    ``points`` is a (n, dim+1) array of unit rows. The represented body is
    the intersection of the closed balls of ``radius`` about the rows.
    """

    dim: int
    radius: float
    points: np.ndarray

    def __post_init__(self):
        d = int(self.dim)
        if d < 2:
            raise ValueError(f"sphere dimension must be >= 2, got {d}")
        r = float(self.radius)
        if not 0.0 < r <= math.pi / 2 + ALG_TOL:
            raise ValueError(f"radius must lie in (0, pi/2], got {r}")
        pts = as_unit_rows(self.points)
        if pts.shape[1] != d + 1:
            raise ValueError(
                f"points have ambient dimension {pts.shape[1]}, expected {d + 1}"
            )
        dia = diameter(pts)
        if dia > r + 1e-12:
            raise ValueError(
                f"generator set is not wide: diameter {dia:.17g} exceeds radius {r:.17g}"
            )
        object.__setattr__(self, "dim", d)
        object.__setattr__(self, "radius", r)
        object.__setattr__(self, "points", pts)

    @property
    def n_points(self) -> int:
        return self.points.shape[0]

    def to_json(self) -> dict:
        return {
            "dim": self.dim,
            "radius": self.radius,
            "points": self.points.tolist(),
        }

    @classmethod
    def from_json(cls, obj: dict) -> "GeneratorSet":
        try:
            return cls(dim=int(obj["dim"]), radius=float(obj["radius"]), points=obj["points"])
        except KeyError as exc:
            raise ValueError(f"generator-set JSON missing key {exc}") from exc

    def save(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_json(), fh, sort_keys=True)
            fh.write("\n")

    @classmethod
    def load(cls, path) -> "GeneratorSet":
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_json(json.load(fh))


def dual_membership(y, gens: GeneratorSet, tol: float = ALG_TOL) -> bool:
    """True iff ``y`` lies within ``gens.radius + tol`` of every generator."""
    y = np.asarray(y, dtype=float)
    if y.shape != (gens.dim + 1,):
        raise ValueError(f"point has shape {y.shape}, expected {(gens.dim + 1,)}")
    dots = np.clip(gens.points @ y, -1.0, 1.0)
    return bool(np.arccos(np.min(dots)) <= gens.radius + tol)


def membership_mask(points: np.ndarray, gens: GeneratorSet, tol: float = ALG_TOL) -> np.ndarray:
    """Vectorized dual_membership over rows of ``points``.

    Decision is made on inner products against cos(radius + tol), which is
    the same predicate as the arccos comparison without per-row trig.
    """
    thresh = math.cos(min(gens.radius + tol, math.pi))
    dots = points @ gens.points.T
    return np.min(dots, axis=1) >= thresh


def membership_margin(y, gens: GeneratorSet) -> float:
    """radius - (largest distance to a generator); >= 0 inside the body."""
    dots = np.clip(gens.points @ np.asarray(y, dtype=float), -1.0, 1.0)
    return gens.radius - float(np.arccos(np.min(dots)))


def jung_circumradius(d: int, r: float) -> float:
    """Circumradius bound for sets of diameter <= r on S^d.

    Equals arccos(sqrt((1 + d cos r) / (d + 1))); any set of diameter <= r
    fits in a ball of this radius, with equality for the regular simplex
    of edge r.
    """
    d = int(d)
    if d < 2:
        raise ValueError(f"sphere dimension must be >= 2, got {d}")
    r = float(r)
    if not 0.0 < r <= math.pi / 2 + ALG_TOL:
        raise ValueError(f"radius must lie in (0, pi/2], got {r}")
    inner = (1.0 + d * math.cos(r)) / (d + 1.0)
    return math.acos(math.sqrt(inner))


def sample_uniform(d: int, n: int, seed: int) -> np.ndarray:
    """n points uniform on S^d, deterministic given seed. Shape (n, d+1)."""
    if d < 2:
        raise ValueError(f"sphere dimension must be >= 2, got {d}")
    if n < 1:
        raise ValueError(f"sample count must be >= 1, got {n}")
    rng = np.random.default_rng(seed)
    return _uniform_rows(rng, n, d + 1)


def _uniform_rows(rng: np.random.Generator, n: int, k: int) -> np.ndarray:
    g = rng.standard_normal((n, k))
    norms = np.linalg.norm(g, axis=1)
    # A zero row has probability zero but would poison the normalization.
    while np.any(norms < 1e-12):
        bad = norms < 1e-12
        g[bad] = rng.standard_normal((int(np.sum(bad)), k))
        norms = np.linalg.norm(g, axis=1)
    return g / norms[:, None]


def sample_cap(center: np.ndarray, ang_radius: float, n: int, rng: np.random.Generator) -> np.ndarray:
    """n points uniform on the cap of angular radius ``ang_radius`` about ``center``.

    The height t = <x, center> of a uniform point on S^d has density
    proportional to (1 - t^2)^((d-2)/2) on [-1, 1]. On S^2 that is uniform,
    so t is drawn uniform on [cos(ang_radius), 1]. For d >= 3 the depth
    h = 1 - t is drawn by exact rejection: proposals uniform on [0, h0],
    h0 = 2 sin^2(ang_radius / 2), accepted with probability
    (h (2 - h) / M)^((d-2)/2), where M is the largest h (2 - h) on [0, h0].
    Working in h keeps 1 - t^2 = h (2 - h) exact on tiny caps. The point is
    then t * center plus sqrt(1 - t^2) times an independent uniform tangent
    direction. Raises ValueError for a sphere dimension below 2.
    """
    center = np.asarray(center, dtype=float)
    k = center.shape[0]
    d = k - 1
    if d < 2:
        raise ValueError(f"sphere dimension must be >= 2, got {d}")
    if not 0.0 < ang_radius <= math.pi:
        raise ValueError(f"cap radius must lie in (0, pi], got {ang_radius}")
    if d == 2:
        c0 = math.cos(ang_radius)
        u = rng.random(n)
        t = 1.0 - u * (1.0 - c0)
        sin_t = np.sqrt(np.clip(1.0 - t * t, 0.0, None))
    else:
        h = _cap_depths(2.0 * math.sin(ang_radius / 2.0) ** 2, d, n, rng)
        t = 1.0 - h
        sin_t = np.sqrt(h * (2.0 - h))
    basis = tangent_basis(center)
    w = _uniform_rows(rng, n, d)
    return t[:, None] * center[None, :] + sin_t[:, None] * (w @ basis)


def _cap_depths(h0: float, d: int, n: int, rng: np.random.Generator) -> np.ndarray:
    """n depths h = 1 - t on [0, h0] with density proportional to
    (h (2 - h))^((d-2)/2), d >= 3, by rejection from the uniform law."""
    a = (d - 2) / 2.0
    # Acceptance odds h(2-h)/M in a form that cannot underflow on tiny caps:
    # with h = h0 u and h0 <= 1 they are u (2 - h) / (2 - h0) >= u, so the
    # acceptance rate is at least E[u^a] = 2/d. For h0 > 1 (M = 1) the odds
    # on [1, h0] mirror those on [2 - h0, 1], which exceed their mean over
    # [0, 1], so the rate stays above its value at h0 = 1. Each round
    # therefore proposes d/2 times the points still missing.
    out = np.empty(n)
    got = 0
    while got < n:
        m = int((n - got) * d / 2.0) + 16
        u = rng.random(m)
        h = h0 * u
        odds = u * (2.0 - h) / (2.0 - h0) if h0 <= 1.0 else h * (2.0 - h)
        keep = h[rng.random(m) < odds ** a][:n - got]
        out[got:got + keep.size] = keep
        got += keep.size
    return out


def sample_wide_generator(d: int, r: float, n_points: int, seed: int) -> GeneratorSet:
    """Random wide generator set: candidates drawn in a circumradius cap
    about a random pole, rejecting candidates that would break the pairwise
    distance bound. Always returns at least one point.
    """
    if n_points < 1:
        raise ValueError(f"n_points must be >= 1, got {n_points}")
    r = float(r)
    if not 0.0 < r <= math.pi / 2 + ALG_TOL:
        raise ValueError(f"radius must lie in (0, pi/2], got {r}")
    rng = np.random.default_rng(seed)
    pole = _uniform_rows(rng, 1, d + 1)[0]
    cap = jung_circumradius(d, r)
    cos_r = math.cos(r)
    accepted: list[np.ndarray] = []
    attempts = 0
    max_attempts = 60 * n_points + 200
    batch = max(8, n_points)
    while len(accepted) < n_points and attempts < max_attempts:
        cands = sample_cap(pole, cap, batch, rng)
        for cand in cands:
            attempts += 1
            if len(accepted) == n_points or attempts > max_attempts:
                break
            if not accepted:
                accepted.append(cand)
                continue
            if np.min(np.stack(accepted) @ cand) >= cos_r:
                accepted.append(cand)
    return GeneratorSet(dim=d, radius=r, points=np.stack(accepted))
