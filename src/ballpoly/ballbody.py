"""Bodies cut out by congruent balls on S^d.

The body of a generator set X with radius r is the intersection of the
closed balls B[x, r] over the generators x. This module provides the
dimension-generic operations: the exact minimax (Chebyshev) center of a
point set by one least-distance (NNLS) solve, inradius via the center
identity, regular simplex generator sets, Monte Carlo volume, the
dimension-dependent volume lower-bound constant, outer approximations of
the second dual (the hull obtained by dualizing twice), and the exact
minimal lune width 2r - diam X with its witness lune.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import optimize, special

from .sphere import (
    ALG_TOL,
    GeneratorSet,
    Lune,
    as_unit_rows,
    geo_tol,
    geodesic_point,
    jung_circumradius,
    membership_mask,
    pairwise_distances,
    sample_cap,
    spherical_distance,
    tangent_basis,
    tangent_toward,
    _uniform_rows,
)

__all__ = [
    "MinimaxResult",
    "SimplexBody",
    "VolumeEstimate",
    "boundary_sample_dual",
    "cap_volume",
    "circumradius_minimax",
    "hull_diameter",
    "inradius_nd",
    "jung_circumradius",
    "mc_volume",
    "minimax_center",
    "pole_margin_certificate",
    "r_hull",
    "schramm_bound",
    "simplex_body",
    "sphere_volume",
    "width_nd",
]


# ---------------------------------------------------------------------------
# Minimax (Chebyshev) center


@dataclass(frozen=True)
class MinimaxResult:
    """Solution of min over centers of the largest distance to a point set."""

    center: np.ndarray
    radius: float
    active: tuple[int, ...]
    weights: np.ndarray


def minimax_center(points) -> MinimaxResult:
    """Geodesic minimax center of a finite point set on a sphere.

    Maximizing min_i <p_i, c> over unit c is the least-distance program
    min |x| subject to P x >= 1, with c = x / |x|. Following Lawson and
    Hanson (Solving Least Squares Problems, 1974, ch. 23) it is solved
    exactly by one nonnegative least-squares problem: with E = [P^T; 1^T]
    and f = e_{k+1}, the NNLS solution u gives the residual E u - f, whose
    last entry is negative exactly when the program is feasible, and then
    x = -res[:k] / res[k]. The support of u indexes the farthest (active)
    points, and the center is proportional to the nonnegative combination
    u @ P. Raises ValueError when the points do not fit in an open
    hemisphere.
    """
    p = as_unit_rows(points)
    n, k = p.shape
    if n == 1:
        return MinimaxResult(p[0].copy(), 0.0, (0,), np.array([1.0]))

    e = np.vstack([p.T, np.ones((1, n))])
    f = np.zeros(k + 1)
    f[k] = 1.0
    u, _ = optimize.nnls(e, f)
    res = e @ u - f
    if not np.any(res) or res[k] >= 0.0:
        raise ValueError("points are not contained in an open hemisphere")
    x = -res[:k] / res[k]
    center = x / np.linalg.norm(x)
    radius = float(np.arccos(np.clip(p @ center, -1.0, 1.0)).max())
    if radius >= math.pi / 2 - 1e-9:
        raise ValueError("points are not contained in an open hemisphere")

    active = np.flatnonzero(u > 0.0)
    weights = u[active] / float(u.sum())
    return MinimaxResult(center, radius, tuple(int(i) for i in active), weights)


def circumradius_minimax(points) -> tuple[float, np.ndarray]:
    """Smallest enclosing-ball radius of a point set and its center."""
    res = minimax_center(points)
    return res.radius, res.center


def inradius_nd(gens: GeneratorSet) -> tuple[float, np.ndarray]:
    """Inradius and incenter of the body of ``gens``.

    A ball B[c, rho] sits inside every B[x, r] iff dist(c, x) <= r - rho,
    so the largest inscribed ball is centered at the minimax center of the
    generators with rho = r - minimax radius.
    """
    res = minimax_center(gens.points)
    rho = gens.radius - res.radius
    if rho < -geo_tol():
        raise ValueError("generator set has no inscribed ball (circumradius exceeds radius)")
    rho = max(rho, 0.0)
    # Spot-check the inscribed ball boundary against the ball constraints.
    if rho > 0:
        rng = np.random.default_rng(1234)
        dirs = _tangent_dirs(res.center, 16, rng)
        pts = math.cos(rho) * res.center[None, :] + math.sin(rho) * dirs
        if not bool(np.all(membership_mask(pts, gens, tol=geo_tol()))):
            raise RuntimeError("inscribed ball spot-check failed; numerical inconsistency")
    return rho, res.center


# ---------------------------------------------------------------------------
# Regular simplex bodies


@dataclass(frozen=True)
class SimplexBody:
    """Generator set of d+1 pairwise equidistant points (edge = radius)."""

    dim: int
    radius: float
    vertices: np.ndarray

    def generator_set(self) -> GeneratorSet:
        return GeneratorSet(dim=self.dim, radius=self.radius, points=self.vertices)


def simplex_body(d: int, r: float) -> SimplexBody:
    """Regular spherical simplex with all edges r, circumcenter at the
    normalized all-ones direction, circumradius jung_circumradius(d, r)."""
    theta = jung_circumradius(d, r)
    k = d + 1
    centroid = np.full(k, 1.0 / k)
    pole = np.full(k, 1.0 / math.sqrt(k))
    w = np.eye(k) - centroid[None, :]
    w /= np.linalg.norm(w, axis=1)[:, None]
    verts = math.cos(theta) * pole[None, :] + math.sin(theta) * w
    verts /= np.linalg.norm(verts, axis=1)[:, None]
    return SimplexBody(dim=d, radius=float(r), vertices=verts)


# ---------------------------------------------------------------------------
# Volumes


def sphere_volume(d: int) -> float:
    """d-dimensional volume of the unit sphere S^d."""
    if d < 1:
        raise ValueError(f"sphere dimension must be >= 1, got {d}")
    return 2.0 * math.pi ** ((d + 1) / 2.0) / math.gamma((d + 1) / 2.0)


def cap_volume(d: int, theta: float) -> float:
    """Volume of a closed cap of angular radius theta on S^d."""
    if not 0.0 <= theta <= math.pi:
        raise ValueError(f"cap radius must lie in [0, pi], got {theta}")
    frac = float(special.betainc(d / 2.0, d / 2.0, (1.0 - math.cos(theta)) / 2.0))
    return sphere_volume(d) * frac


@dataclass(frozen=True)
class VolumeEstimate:
    """Monte Carlo volume with its one-sigma standard error."""

    value: float
    std_error: float
    n_samples: int
    seed: int
    hit_fraction: float
    proposal_volume: float

    def to_json(self) -> dict:
        return {
            "value": self.value,
            "std_error": self.std_error,
            "n_samples": self.n_samples,
            "seed": self.seed,
            "hit_fraction": self.hit_fraction,
            "proposal_volume": self.proposal_volume,
        }


def mc_volume(gens: GeneratorSet, n: int, seed: int, chunk: int = 1_000_000) -> VolumeEstimate:
    """Monte Carlo volume of the body of ``gens``.

    Proposals are uniform in the cap B[c, r] about the minimax center c,
    which provably contains the body; the estimate is the hit fraction
    scaled by the cap volume.
    """
    if n < 100:
        raise ValueError(f"need at least 100 samples, got {n}")
    res = minimax_center(gens.points)
    c = res.center
    cos_thresh = math.cos(min(gens.radius + ALG_TOL, math.pi))
    rng = np.random.default_rng(seed)
    hits = 0
    done = 0
    while done < n:
        m = min(chunk, n - done)
        pts = sample_cap(c, gens.radius, m, rng)
        hits += int(np.count_nonzero(np.min(pts @ gens.points.T, axis=1) >= cos_thresh))
        done += m
    p_hat = hits / n
    vol_cap = cap_volume(gens.dim, gens.radius)
    value = p_hat * vol_cap
    se = vol_cap * math.sqrt(max(p_hat * (1.0 - p_hat), 0.0) / n)
    return VolumeEstimate(value, se, n, seed, p_hat, vol_cap)


def schramm_bound(d: int) -> tuple[float, float]:
    """Volume lower-bound constant for constant-width-pi/2 bodies on S^d.

    Returns (bound, reference) where reference is the exact volume of the
    regular simplex body at radius pi/2, namely vol(S^d) / 2^(d+1), and
    bound = sqrt(8^d / (2 pi (d+1) (d+4)^d)) * reference. Requires d >= 3.
    """
    if d < 3:
        raise ValueError(f"the volume bound applies for sphere dimension >= 3, got {d}")
    reference = sphere_volume(d) / 2.0 ** (d + 1)
    factor = math.sqrt(8.0 ** d / (2.0 * math.pi * (d + 1) * (d + 4.0) ** d))
    return factor * reference, reference


# ---------------------------------------------------------------------------
# Boundary sampling, second dual, width


def _tangent_dirs(c: np.ndarray, n: int, rng: np.random.Generator) -> np.ndarray:
    basis = tangent_basis(c)
    return _uniform_rows(rng, n, basis.shape[0]) @ basis


def _push_to_boundary(c: np.ndarray, dirs: np.ndarray, feasible, t_hi: float) -> np.ndarray:
    """Farthest feasible point from c along each tangent direction.

    ``feasible`` maps an (m, k) array to a boolean mask; feasibility along a
    ray from an interior center is monotone for convex bodies, so plain
    bisection applies (vectorized across all rays)."""
    lo = np.zeros(len(dirs))
    hi = np.full(len(dirs), t_hi)
    for _ in range(48):
        mid = 0.5 * (lo + hi)
        pts = np.cos(mid)[:, None] * c[None, :] + np.sin(mid)[:, None] * dirs
        ok = feasible(pts)
        lo = np.where(ok, mid, lo)
        hi = np.where(ok, hi, mid)
    return np.cos(lo)[:, None] * c[None, :] + np.sin(lo)[:, None] * dirs


def boundary_sample_dual(gens: GeneratorSet, n: int, seed: int) -> np.ndarray:
    """n points approximately on the boundary of the body of ``gens``.

    Rejection proposals in the proposal cap are pushed outward along rays
    from the minimax center; directions that fail rejection are replaced by
    fresh ray probes (which always succeed since the inradius is positive).
    """
    if n < 1:
        raise ValueError(f"sample count must be >= 1, got {n}")
    res = minimax_center(gens.points)
    c = res.center
    rng = np.random.default_rng(seed)

    def feasible(pts):
        return membership_mask(pts, gens, tol=ALG_TOL)

    cand = sample_cap(c, gens.radius, 2 * n, rng)
    keep = cand[feasible(cand)][:n]
    dirs = []
    for y in keep:
        w = y - float(c @ y) * c
        wn = float(np.linalg.norm(w))
        if wn > 1e-12:
            dirs.append(w / wn)
    if len(dirs) < n:
        extra = _tangent_dirs(c, n - len(dirs), rng)
        dirs = np.vstack([np.stack(dirs), extra]) if dirs else extra
    else:
        dirs = np.stack(dirs)
    t_hi = min(gens.radius, math.pi - 1e-9)
    return _push_to_boundary(c, dirs, feasible, t_hi)


def _hull_mask_fn(gens: GeneratorSet):
    """Certified membership test for the hull of the generators: the set
    of centers p with the body inside B[p, r], i.e. support margin of p at
    least cos(r). Exact arc margins in dimension 2, the nonnegative-weight
    certificate otherwise, so True is a proof in both cases."""
    cos_r = math.cos(gens.radius)
    if gens.dim == 2:
        from . import diskpoly

        boundary = diskpoly.boundary_structure(gens)

        def mask(pts: np.ndarray) -> np.ndarray:
            return diskpoly.support_margins_2d(gens, pts, boundary) >= cos_r - 1e-9

        return mask

    def mask(pts: np.ndarray) -> np.ndarray:
        return np.array([pole_margin_certificate(gens.points, gens.radius, p) >= cos_r - 1e-9
                         for p in pts])

    return mask


def r_hull(gens: GeneratorSet, n_support: int = 256, seed: int = 0) -> np.ndarray:
    """Certified point sample of the hull of the generator set.

    The hull (ball hull) is the intersection of every radius-r ball whose
    center ball contains all generators; equivalently the set of centers p
    with the whole body inside B[p, r]. Points are pushed outward from the
    minimax center against the certified membership test, the farthest
    pair from ``hull_diameter`` is appended, and the generators themselves
    (all hull members) are included, so pairwise distances of the result
    give sound lower estimates of the hull diameter.
    """
    if n_support < 8:
        raise ValueError(f"n_support must be >= 8, got {n_support}")
    res = minimax_center(gens.points)
    c = res.center
    hull_mask = _hull_mask_fn(gens)
    if not bool(hull_mask(c[None, :])[0]):
        # the minimax center is always a hull member; certification can
        # only fail by solver shortfall, in which case fall back to the
        # generators alone
        return gens.points.copy()

    rng = np.random.default_rng([seed, 977])
    n_dirs = n_support if gens.dim == 2 else min(n_support, 48)
    dirs = _tangent_dirs(c, n_dirs, rng)
    t_hi = min(gens.radius, math.pi - 1e-9)
    hull_pts = _push_to_boundary(c, dirs, hull_mask, t_hi)
    _, pair = hull_diameter(gens, seed=seed)
    return np.vstack([gens.points, hull_pts, pair])


def hull_diameter(gens: GeneratorSet, seed: int = 0) -> tuple[float, np.ndarray]:
    """Diameter of the hull of the generator set with a realizing pair.

    Dimension 2 enumerates the exact candidate structure. Higher
    dimensions maximize the pair distance jointly over certified hull
    members: poles carry their nonnegative-weight certificates as extra
    variables, every accepted pair is re-certified exactly, and the
    farthest generator pairs seed the solver (they are hull members with
    exact certificates), so the result is a sound lower estimate that is
    exact on the symmetric reference bodies.
    """
    if gens.dim == 2:
        from . import diskpoly

        return diskpoly.hull_diameter_2d(gens)

    g = gens.points
    n, k = g.shape
    r = gens.radius
    cos_r = math.cos(r)

    best = -1.0
    pair = None
    for i in range(n):
        for j in range(i + 1, n):
            d_ij = spherical_distance(g[i], g[j])
            if d_ij > best:
                best, pair = d_ij, np.stack([g[i], g[j]])
    if pair is None:
        return 0.0, np.stack([g[0], g[0]])

    def unpack(z):
        p, q = z[:k], z[k:2 * k]
        lp, lq = z[2 * k:2 * k + n], z[2 * k + n:]
        return p, q, lp, lq

    def cert_terms(p, lam):
        w = g.T @ lam - p
        s = math.sqrt(float(w @ w) + 1e-24)
        # smoothed norm only understates the bound, so feasibility of the
        # smoothed constraint still implies the exact certificate
        return cos_r * (float(lam.sum()) - 1.0) - s, w, s

    def cons_f(z):
        p, q, lp, lq = unpack(z)
        return np.array([cert_terms(p, lp)[0], cert_terms(q, lq)[0]])

    def cons_jac(z):
        p, q, lp, lq = unpack(z)
        out = np.zeros((2, z.size))
        _, wp, sp = cert_terms(p, lp)
        _, wq, sq = cert_terms(q, lq)
        out[0, :k] = wp / sp
        out[0, 2 * k:2 * k + n] = cos_r - (g @ wp) / sp
        out[1, k:2 * k] = wq / sq
        out[1, 2 * k + n:] = cos_r - (g @ wq) / sq
        return out

    def norm_f(z):
        p, q, _, _ = unpack(z)
        return np.array([p @ p - 1.0, q @ q - 1.0])

    def norm_jac(z):
        p, q, _, _ = unpack(z)
        out = np.zeros((2, z.size))
        out[0, :k] = 2.0 * p
        out[1, k:2 * k] = 2.0 * q
        return out

    def objective(z):
        p, q, _, _ = unpack(z)
        grad = np.zeros(z.size)
        grad[:k] = q
        grad[k:2 * k] = p
        return float(p @ q), grad

    bounds = [(None, None)] * (2 * k) + [(0.0, None)] * (2 * n)
    cons = ({"type": "ineq", "fun": cons_f, "jac": cons_jac},
            {"type": "eq", "fun": norm_f, "jac": norm_jac})

    for i, j in _top_pairs(g, 3):
        z0 = np.concatenate([g[i], g[j], np.eye(n)[i], np.eye(n)[j]])
        res = optimize.minimize(objective, z0, jac=True, method="SLSQP",
                                bounds=bounds, constraints=cons,
                                options={"maxiter": 200, "ftol": 1e-14})
        p, q, _, _ = unpack(np.asarray(res.x, dtype=float))
        np_, nq = float(np.linalg.norm(p)), float(np.linalg.norm(q))
        if np_ < 1e-9 or nq < 1e-9:
            continue
        p, q = p / np_, q / nq
        if (pole_margin_certificate(g, r, p) < cos_r - 1e-9
                or pole_margin_certificate(g, r, q) < cos_r - 1e-9):
            continue
        d_pq = spherical_distance(p, q)
        if d_pq > best:
            best, pair = d_pq, np.stack([p, q])
    return best, pair


def pole_margin_certificate(points: np.ndarray, radius: float, pole) -> float:
    """Certified lower bound on min over the body of <pole, y>.

    For any nonnegative weights lam, every body point y satisfies
    <pole, y> = lam . (G y) - (G^T lam - pole) . y
             >= cos(radius) * sum(lam) - |G^T lam - pole|
    by the ball constraints and Cauchy-Schwarz, so maximizing the bound
    over lam >= 0 (concave, solved by projected quasi-Newton) certifies
    the margin from below; the bound is re-evaluated exactly at the final
    weights, so the result is sound regardless of solver quality. Unlike
    sampled margins this can prove feasibility, not just refute it.

    The best weight on the generator x nearest the pole alone gives
    cos(d(x, pole) + radius), the margin over B[x, radius]. It is taken in
    closed form, since the solver stalls at the kink of the norm when that
    bound has a zero residual (a pole on a generator).
    """
    g = np.asarray(points, dtype=float)
    u = np.asarray(pole, dtype=float)
    b = math.cos(radius)
    n = g.shape[0]

    def neg_bound(lam):
        w = g.T @ lam - u
        s = math.sqrt(float(w @ w) + 1e-24)
        return -(b * float(lam.sum()) - s), (g @ w) / s - b

    def exact_at(lam):
        lam = np.clip(np.asarray(lam, dtype=float), 0.0, None)
        return b * float(lam.sum()) - float(np.linalg.norm(g.T @ lam - u))

    near = np.zeros(n)
    i = int(np.argmax(g @ u))
    c = float(g[i] @ u)
    near[i] = c + b * math.sqrt(max(1.0 - c * c, 0.0)) / math.sin(radius)
    sol0, *_ = np.linalg.lstsq(g.T, u, rcond=None)
    best = max(exact_at(np.zeros(n)), exact_at(sol0), exact_at(near))
    for s0 in (np.clip(sol0, 0.0, None), np.full(n, 1.0 / n)):
        res = optimize.minimize(neg_bound, s0, jac=True, method="L-BFGS-B",
                                bounds=[(0.0, None)] * n,
                                options={"maxiter": 200, "ftol": 1e-16, "gtol": 1e-14})
        best = max(best, exact_at(res.x))
    return best


def _top_pairs(points: np.ndarray, k: int) -> list[tuple[int, int]]:
    d = pairwise_distances(points)
    n = d.shape[0]
    pairs = [(float(d[i, j]), i, j) for i in range(n) for j in range(i + 1, n) if d[i, j] > 1e-12]
    pairs.sort(reverse=True)
    return [(i, j) for _, i, j in pairs[:k]]




# ---------------------------------------------------------------------------
# Width


def width_nd(gens: GeneratorSet) -> tuple[float, Lune | None]:
    """Minimal width over lunes containing the body, with a witness lune.

    Write K for the body, D = diam X, rho = pi/2 - r, and H = {z : K in
    B[z, r]} for the hull of X (it contains X). A lune with poles u, v has
    width pi - d(u, v) and contains K iff u and v lie in the polar body
    K* = {u : K in B[u, pi/2]}, so the minimal width is pi - diam K*.

    * K* is the set of points within rho of H. If d(u, z) <= rho for some
      z in H, then K lies in B[u, r + rho]. Conversely, let y be a point of
      K farthest from u, at delta <= pi/2. If delta <= r, u is in H.
      Otherwise the tangent t at y toward u is a nonnegative combination of
      the tangents toward the generators at distance r from y (optimality
      of y). For any y' in K, the spherical law of cosines with cos r >= 0
      makes the tangents s at y with d(exp_y(r s), y') <= r a cap of
      angular radius at most pi/2; it holds those generator tangents, so it
      holds t. Hence z = exp_y(r t), at delta - r <= rho from u, is in H.
    * diam H = D. Take x in X; as x is in K, H lies in B[x, r]. For z in
      B[x, r] outside B[x, D], the point c at r - D beyond x on the
      geodesic from z has X in B[c, r] and d(z, c) > r, so z is not in H:
      H lies in B[x, D]. Then X plus any z in H still has diameter D, and
      its hull, which contains H, lies in B[z, D].
    * So diam K* <= D + 2 rho, and pushing a farthest generator pair
      (a, b) apart by rho each along their great circle attains it, since
      D + 2 rho <= pi - r < pi.

    The width is therefore exactly 2r - D. Each witness pole is within rho
    of a generator, hence within pi/2 of every body point, so the lune
    soundly contains K. A single generator (or coincident ones) has every
    tangent direction farthest and gives 2r; at radius pi/2 that is a
    hemisphere, returned as (pi, None) since no lune has antipodal poles.
    """
    rho = max(math.pi / 2 - gens.radius, 0.0)
    pts = gens.points
    i, j = np.unravel_index(int(np.argmin(pts @ pts.T)), (gens.n_points,) * 2)
    a, b = pts[i], pts[j]
    if float(np.linalg.norm(b - (a @ b) * a)) < 1e-14:
        if rho < 1e-12:
            return math.pi, None
        e = tangent_basis(a)[0]
        u, v = geodesic_point(a, e, rho), geodesic_point(a, -e, rho)
    else:
        u = geodesic_point(a, -tangent_toward(a, b), rho)
        v = geodesic_point(b, -tangent_toward(b, a), rho)
    return math.pi - spherical_distance(u, v), Lune(u, v)
