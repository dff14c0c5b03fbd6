"""Step-by-step numerical replay of the minimal-area argument on S^2.

Among all bodies of a given radius r (intersections of balls of radius r
about a wide generator set), the Reuleaux triangle minimizes area. The
argument replayed here classifies the contact structure of the inscribed
disk, carves tangent-cap regions out of the body, compares them against a
symmetric cap domain, and descends to the Reuleaux triangle. Every
inequality in the chain is evaluated numerically with explicit margins;
ill-posed constructions raise instead of producing silent nonsense.

The moving-endpoint clearance profile at the bottom backs the monotone
sliding step of the argument: an arm pivoting between two circles of
radius r whose free endpoint strictly gains clearance from the pivot.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .sphere import (
    DegeneracyError,
    GeneratorSet,
    geo_tol,
    geodesic_point,
    jung_circumradius,
    membership_margin,
    sample_cap,
    spherical_distance,
    tangent_toward,
)
from .ballbody import minimax_center
from .diskpoly import (
    ArcBoundary,
    ArcPiece,
    arc_polygon_area,
    area,
    boundary_structure,
    circle_intersection,
    reuleaux_area,
    signed_arc_angle,
)

__all__ = [
    "ArmProfile",
    "CapDomain",
    "CapSpec",
    "ContactClassification",
    "ProofTrace",
    "VerificationFailure",
    "build_cap_domain",
    "build_symmetric_cap_domain",
    "cauchy_arm_profile",
    "classify_contact",
    "replay_instance",
]


class VerificationFailure(RuntimeError):
    """A replayed construction failed one of its own validity conditions."""


def _check(lhs: float, rhs: float, tol: float) -> dict:
    lhs, rhs, tol = float(lhs), float(rhs), float(tol)
    margin = lhs - rhs
    return {"lhs": lhs, "rhs": rhs, "margin": margin, "tol": tol,
            "passed": bool(margin >= -tol)}


# ---------------------------------------------------------------------------
# Contact classification


@dataclass(frozen=True)
class ContactClassification:
    """Contact structure of the inscribed disk against the generators.

    ``kind`` is 'diameter' when two contact directions are antipodal
    (the inscribed disk is pinched across a diameter), else 'triangle'
    when three contact directions positively span the tangent plane.
    ``support`` indexes the realizing pair/triple within ``directions``.
    """

    kind: str
    center: np.ndarray
    inradius: float
    directions: np.ndarray
    contacts: np.ndarray
    support: tuple[int, ...]


def classify_contact(gens: GeneratorSet) -> ContactClassification:
    """Classify the inscribed-disk contact structure of a 2-d body.

    Raises ValueError when the inscribed disk has diameter >= radius (the
    early-exit branch of the area argument, where no cap construction is
    needed), and DegeneracyError when the contact set is too ambiguous to
    classify.
    """
    if gens.dim != 2:
        raise ValueError(f"contact classification requires dimension 2, got {gens.dim}")
    res = minimax_center(gens.points)
    rin = gens.radius - res.radius
    if 2 * rin >= gens.radius:
        raise ValueError(
            f"inscribed disk diameter {2 * rin:.6g} >= radius {gens.radius:.6g}; "
            "early-exit branch applies")
    c = res.center
    dists = np.arccos(np.clip(gens.points @ c, -1.0, 1.0))
    act = np.flatnonzero(dists >= res.radius - 1e-7)
    raw = [tangent_toward(c, gens.points[i]) for i in act]

    dirs: list[np.ndarray] = []
    for d in raw:
        if all(spherical_distance(d, e) > 1e-5 for e in dirs):
            dirs.append(d)
    if len(dirs) < 2:
        raise DegeneracyError(
            f"only {len(dirs)} distinct contact direction(s); center not pinned")
    dmat = np.stack(dirs)
    contacts = np.stack([geodesic_point(c, -d, rin) for d in dirs])

    for i in range(len(dirs)):
        for j in range(i + 1, len(dirs)):
            if spherical_distance(dmat[i], dmat[j]) >= math.pi - 1e-5:
                return ContactClassification("diameter", c, rin, dmat, contacts, (i, j))

    if len(dirs) < 3:
        raise DegeneracyError(
            "two non-antipodal contact directions cannot pin the center; "
            "minimax solution is inconsistent")
    # pick the triple of directions that most robustly surrounds the center:
    # all cyclic gaps below pi, maximizing the worst-gap slack
    u_ref = dmat[0]
    v_ref = np.cross(c, u_ref)
    ang = np.arctan2(dmat @ v_ref, dmat @ u_ref)
    best_triple, best_slack = None, -math.inf
    idx = range(len(dirs))
    for i in idx:
        for j in idx:
            if j <= i:
                continue
            for k in idx:
                if k <= j:
                    continue
                a = np.sort(np.array([ang[i], ang[j], ang[k]]))
                gaps = np.array([a[1] - a[0], a[2] - a[1],
                                 2 * math.pi - (a[2] - a[0])])
                slack = math.pi - float(np.max(gaps))
                if slack > best_slack:
                    best_slack, best_triple = slack, (i, j, k)
    if best_triple is None or best_slack <= 1e-6:
        raise DegeneracyError(
            f"no contact triple surrounds the center (best slack {best_slack:.3e})")
    return ContactClassification("triangle", c, rin, dmat, contacts, best_triple)


# ---------------------------------------------------------------------------
# Tangent-cap construction


@dataclass(frozen=True)
class CapSpec:
    """One tangent cap: the region pinched between the inscribed circle and
    two circles of the body radius internally tangent to it, meeting at the
    apex. ``gamma`` is the angle at the center between the apex direction
    and either tangent-circle center; the cap hugs the inscribed circle
    over the angular range 2(pi - gamma) opposite the tangencies."""

    apex: np.ndarray
    z_plus: np.ndarray
    z_minus: np.ndarray
    touch_plus: np.ndarray
    touch_minus: np.ndarray
    gamma: float
    area: float
    pieces: tuple[ArcPiece, ...]

    def to_json(self) -> dict:
        return {
            "apex": self.apex.tolist(),
            "z_plus": self.z_plus.tolist(),
            "z_minus": self.z_minus.tolist(),
            "touch_plus": self.touch_plus.tolist(),
            "touch_minus": self.touch_minus.tolist(),
            "gamma": self.gamma,
            "area": self.area,
        }


@dataclass(frozen=True)
class CapDomain:
    """Inscribed disk plus tangent caps; the comparison domain of the area
    argument. ``kind`` is 'contact' (built from an instance) or 'symmetric'
    (three apexes at minimal distance, 120 degrees apart)."""

    kind: str
    center: np.ndarray
    inradius: float
    radius: float
    caps: tuple[CapSpec, ...]

    @property
    def area(self) -> float:
        disk = 2 * math.pi * (1.0 - math.cos(self.inradius))
        return disk + sum(cap.area for cap in self.caps)

    def to_json(self) -> dict:
        return {
            "kind": self.kind,
            "center": self.center.tolist(),
            "inradius": self.inradius,
            "radius": self.radius,
            "caps": [cap.to_json() for cap in self.caps],
            "area": self.area,
        }


def _build_cap(c: np.ndarray, rin: float, r: float, q: np.ndarray) -> CapSpec:
    """Cap at apex q over the inscribed circle S(c, rin), bounded by two
    radius-r circles through q internally tangent to the inscribed circle.

    Requires rin < dist(c, q) <= r. The boundary is traversed with the cap
    on the left: tangency -> apex on one circle, apex -> tangency on the
    mirror circle, then the inscribed circle clockwise across the apex
    azimuth. The two tangency junctions are cusps (turning +pi each).
    """
    dq = spherical_distance(c, q)
    if dq <= rin + 1e-12:
        raise VerificationFailure(f"apex at distance {dq:.6g} inside inscribed radius {rin:.6g}")
    if dq > r + 1e-9:
        raise VerificationFailure(f"apex at distance {dq:.6g} beyond the body radius {r:.6g}")

    zs = circle_intersection(c, r - rin, q, r)
    if len(zs) != 2 or spherical_distance(zs[0], zs[1]) < 1e-9:
        raise VerificationFailure("tangent-circle centers are degenerate for this apex")
    e_q = tangent_toward(c, q)
    side = np.cross(c, e_q)
    s0, s1 = float(zs[0] @ side), float(zs[1] @ side)
    if not (s0 > 1e-12) ^ (s1 > 1e-12):
        raise VerificationFailure("tangent-circle centers do not straddle the apex axis")
    z_plus, z_minus = (zs[0], zs[1]) if s0 > 0 else (zs[1], zs[0])

    t_plus = geodesic_point(c, -tangent_toward(c, z_plus), rin)
    t_minus = geodesic_point(c, -tangent_toward(c, z_minus), rin)
    # angle between the apex azimuth and the z_plus azimuth, at the center
    gamma = math.acos(np.clip(float(e_q @ tangent_toward(c, z_plus)), -1.0, 1.0))
    if not 1e-9 < gamma < math.pi - 1e-9:
        raise VerificationFailure(f"degenerate cap opening angle {gamma:.6g}")

    span_plus = signed_arc_angle(z_plus, t_plus, q)
    span_minus = signed_arc_angle(z_minus, q, t_minus)
    if span_plus <= 1e-12 or span_minus <= 1e-12:
        raise VerificationFailure(
            f"tangent arcs have non-positive spans ({span_plus:.3e}, {span_minus:.3e})")
    span_inner = -(2 * math.pi - 2 * gamma)

    pieces = (
        ArcPiece(z_plus, r, t_plus, q, span_plus),
        ArcPiece(z_minus, r, q, t_minus, span_minus),
        ArcPiece(c, rin, t_minus, t_plus, span_inner),
    )
    cap_area = arc_polygon_area(pieces)
    if cap_area < -1e-9:
        raise VerificationFailure(f"cap area {cap_area:.6g} is negative")
    return CapSpec(q, z_plus, z_minus, t_plus, t_minus, gamma,
                   max(cap_area, 0.0), pieces)


def _cap_membership(cap: CapSpec, c: np.ndarray, rin: float, r: float,
                    pts: np.ndarray, slack: float) -> np.ndarray:
    """Mask of points inside the cap region with signed ``slack``
    (negative slack selects the strict interior)."""
    cos_r = math.cos(r)
    cos_rin = math.cos(rin)
    in_plus = pts @ cap.z_plus >= cos_r - slack
    in_minus = pts @ cap.z_minus >= cos_r - slack
    outside_disk = pts @ c <= cos_rin + slack
    e_q = tangent_toward(c, cap.apex)
    v = np.cross(c, e_q)
    az = np.abs(np.arctan2(pts @ v, pts @ e_q))
    in_wedge = az <= (math.pi - cap.gamma) + slack
    return in_plus & in_minus & outside_disk & in_wedge


def _sample_cap_region(cap: CapSpec, c: np.ndarray, rin: float, r: float,
                       n: int, rng: np.random.Generator) -> np.ndarray:
    """Up to n rejection-sampled points strictly inside the cap region."""
    theta = min(2 * r - rin + 1e-9, math.pi - 1e-6)
    out: list[np.ndarray] = []
    got = 0
    for _attempt in range(60):
        props = sample_cap(c, theta, max(4 * n, 2000), rng)
        mask = _cap_membership(cap, c, rin, r, props, -1e-9)
        hits = props[mask]
        if len(hits):
            out.append(hits)
            got += len(hits)
        if got >= n:
            break
    if not out:
        return np.empty((0, 3))
    return np.vstack(out)[:n]


def _farthest_chord_point(gens: GeneratorSet, c: np.ndarray, rin: float,
                          e_contact: np.ndarray) -> tuple[np.ndarray, float]:
    """Apex point for one contact: the far endpoint of the chord cut from
    the body by the great circle orthogonal to the contact axis at
    distance r - rin behind the center (through the supporting generator
    position). Returns (q, chord feasibility margin at q).
    """
    r = gens.radius
    foot = geodesic_point(c, e_contact, rin - r)
    pole = geodesic_point(c, e_contact, rin - r + math.pi / 2)
    w = np.cross(pole, foot)
    w /= np.linalg.norm(w)

    def ymat(s: np.ndarray) -> np.ndarray:
        return np.cos(s)[:, None] * foot[None, :] + np.sin(s)[:, None] * w[None, :]

    def margins(s: np.ndarray) -> np.ndarray:
        return np.min(ymat(s) @ gens.points.T, axis=1) - math.cos(r)

    grid = np.linspace(-math.pi / 2, math.pi / 2, 4097)
    vals = margins(grid)
    k = int(np.argmax(vals))
    lo, hi = grid[max(k - 1, 0)], grid[min(k + 1, len(grid) - 1)]
    # golden-section polish of the best-margin parameter
    inv = (math.sqrt(5) - 1) / 2
    a, b = lo, hi
    x1 = b - inv * (b - a)
    x2 = a + inv * (b - a)
    f1, f2 = float(margins(np.array([x1]))[0]), float(margins(np.array([x2]))[0])
    for _ in range(80):
        if f1 < f2:
            a, x1, f1 = x1, x2, f2
            x2 = a + inv * (b - a)
            f2 = float(margins(np.array([x2]))[0])
        else:
            b, x2, f2 = x2, x1, f1
            x1 = b - inv * (b - a)
            f1 = float(margins(np.array([x1]))[0])
    s_star = 0.5 * (a + b)
    m_star = float(margins(np.array([s_star]))[0])
    if m_star < -geo_tol():
        raise VerificationFailure(
            f"support chord misses the body (best margin {m_star:.3e})")

    def endpoint(direction: float) -> float:
        s_in = s_star
        s_out = None
        step = 1e-3
        while step < math.pi:
            cand = s_star + direction * step
            if float(margins(np.array([cand]))[0]) < -1e-9:
                s_out = cand
                break
            s_in = cand
            step *= 2.0
        if s_out is None:
            return s_in
        for _ in range(60):
            mid = 0.5 * (s_in + s_out)
            if float(margins(np.array([mid]))[0]) >= -1e-12:
                s_in = mid
            else:
                s_out = mid
        return s_in

    s_lo = endpoint(-1.0)
    s_hi = endpoint(+1.0)
    s_q = s_hi if abs(s_hi) >= abs(s_lo) else s_lo
    q = ymat(np.array([s_q]))[0]
    q /= np.linalg.norm(q)
    return q, float(margins(np.array([s_q]))[0])


def build_cap_domain(gens: GeneratorSet,
                     classification: ContactClassification | None = None) -> CapDomain:
    """Comparison domain for a triangle-contact instance: the inscribed
    disk plus one tangent cap per supporting contact direction."""
    cls = classification if classification is not None else classify_contact(gens)
    if cls.kind != "triangle":
        raise ValueError(f"cap construction requires triangle contact, got {cls.kind!r}")
    c, rin, r = cls.center, cls.inradius, gens.radius
    caps = []
    for k in cls.support:
        e_contact = -cls.directions[k]
        q, _ = _farthest_chord_point(gens, c, rin, e_contact)
        caps.append(_build_cap(c, rin, r, q))
    return CapDomain("contact", c, rin, r, tuple(caps))


def build_symmetric_cap_domain(rin: float, r: float) -> CapDomain:
    """Symmetric comparison domain: three caps with apexes at the minimal
    distance r - rin from the center, 120 degrees apart. Valid for
    inradius(Reuleaux(r)) <= rin < r/2; at the lower endpoint this domain
    coincides with the Reuleaux triangle of radius r."""
    if not 0.0 < r <= math.pi / 2 + 1e-12:
        raise ValueError(f"radius must lie in (0, pi/2], got {r}")
    rin_min = r - jung_circumradius(2, r)
    if not rin_min - 1e-9 <= rin < r / 2:
        raise ValueError(
            f"inradius {rin:.6g} outside the valid range [{rin_min:.6g}, {r / 2:.6g})")
    c = np.array([0.0, 0.0, 1.0])
    caps = []
    for az in (0.0, 2 * math.pi / 3, 4 * math.pi / 3):
        e = np.array([math.cos(az), math.sin(az), 0.0])
        q = geodesic_point(c, e, r - rin)
        caps.append(_build_cap(c, rin, r, q))
    return CapDomain("symmetric", c, rin, r, tuple(caps))


# ---------------------------------------------------------------------------
# Full replay


@dataclass(frozen=True)
class ProofTrace:
    """Replay record: branch taken, named inequality checks with margins,
    and the constructed domains' scalar data."""

    branch: str
    radius: float
    inradius: float
    areas: dict
    checks: dict
    notes: tuple[str, ...]

    @property
    def passed(self) -> bool:
        return all(c["passed"] for c in self.checks.values())

    def to_json(self) -> dict:
        return {
            "branch": self.branch,
            "radius": self.radius,
            "inradius": self.inradius,
            "areas": self.areas,
            "checks": self.checks,
            "notes": list(self.notes),
            "passed": self.passed,
        }


def replay_instance(gens: GeneratorSet, n_samples: int = 4000, seed: int = 0,
                    boundary: ArcBoundary | None = None) -> ProofTrace:
    """Replay the area-minimality argument on one 2-d instance.

    Branches: 'early-exit' when the inscribed disk alone settles the bound
    (diameter >= radius), 'diameter' for pinched contact, 'triangle' for
    the full cap construction with the complete inequality chain, apex
    clearances, containment and disjointness sampling. A ``boundary``
    already built for ``gens`` is reused.
    """
    if gens.dim != 2:
        raise ValueError(f"replay requires sphere dimension 2, got {gens.dim}")
    r = gens.radius
    notes: list[str] = []
    checks: dict[str, dict] = {}
    areas: dict[str, float] = {}

    if boundary is None:
        boundary = boundary_structure(gens)
    area_body = area(boundary)
    area_floor = reuleaux_area(r)
    areas["body"] = area_body
    areas["reuleaux"] = area_floor
    checks["area_vs_reuleaux"] = _check(area_body, area_floor, 1e-9)

    res = minimax_center(gens.points)
    rin = r - res.radius

    if 2 * rin >= r:
        disk = 2 * math.pi * (1.0 - math.cos(rin))
        areas["inscribed_disk"] = disk
        checks["early_exit_disk_vs_reuleaux"] = _check(disk, area_floor, 1e-9)
        notes.append("inscribed disk diameter >= radius; no cap construction needed")
        return ProofTrace("early-exit", r, rin, areas, checks, tuple(notes))

    cls = classify_contact(gens)
    if cls.kind == "diameter":
        i, j = cls.support[0], cls.support[1]
        gap = spherical_distance(cls.directions[i], cls.directions[j])
        checks["diameter_contacts_antipodal"] = _check(gap, math.pi, 1e-5)
        notes.append("pinched contact: inscribed disk meets the boundary across a diameter")
        return ProofTrace("diameter", r, rin, areas, checks, tuple(notes))

    cap_dom = build_cap_domain(gens, cls)
    areas["cap_domain"] = cap_dom.area
    areas["inscribed_disk"] = 2 * math.pi * (1.0 - math.cos(rin))
    for k, cap in enumerate(cap_dom.caps):
        areas[f"cap_{k}"] = cap.area
        dq = spherical_distance(cap_dom.center, cap.apex)
        checks[f"apex_clearance_{k}"] = _check(dq, r - rin, 1e-9)
        checks[f"apex_in_body_{k}"] = _check(membership_margin(cap.apex, gens), 0.0, geo_tol())

    sym = build_symmetric_cap_domain(max(rin, r - jung_circumradius(2, r)), r)
    areas["symmetric_domain"] = sym.area

    checks["chain_body_vs_cap_domain"] = _check(area_body, cap_dom.area, 1e-9)
    checks["chain_cap_domain_vs_symmetric"] = _check(cap_dom.area, sym.area, 1e-9)
    checks["chain_symmetric_vs_reuleaux"] = _check(sym.area, area_floor, 1e-9)

    rng = np.random.default_rng([seed, 613])
    per_cap = max(n_samples // max(len(cap_dom.caps), 1), 200)
    samples = [_sample_cap_region(cap, cap_dom.center, rin, r, per_cap, rng)
               for cap in cap_dom.caps]
    contain_viol = 0
    for pts in samples:
        if len(pts):
            margins = np.min(pts @ gens.points.T, axis=1) - math.cos(r)
            contain_viol += int(np.count_nonzero(margins < -geo_tol()))
    checks["caps_inside_body"] = _check(0.0, float(contain_viol), 0.0)

    overlap_viol = 0
    for i_cap in range(len(cap_dom.caps)):
        for j_cap in range(len(cap_dom.caps)):
            if i_cap == j_cap or not len(samples[i_cap]):
                continue
            other = cap_dom.caps[j_cap]
            mask = _cap_membership(other, cap_dom.center, rin, r,
                                   samples[i_cap], -1e-9)
            overlap_viol += int(np.count_nonzero(mask))
    checks["caps_pairwise_disjoint"] = _check(0.0, float(overlap_viol), 0.0)

    return ProofTrace("triangle", r, rin, areas, checks, tuple(notes))


# ---------------------------------------------------------------------------
# Moving-arm clearance profile


@dataclass(frozen=True)
class ArmProfile:
    """Clearance profile of the pivoting-arm step: a point sliding along a
    circle of the body radius, with its distance to the fixed pivot minus
    the radius recorded at each step. Starts at zero and strictly grows."""

    arc_positions: np.ndarray
    clearances: np.ndarray
    radius: float
    inradius: float
    config: dict

    def to_json(self) -> dict:
        return {
            "arc_positions": self.arc_positions.tolist(),
            "clearances": self.clearances.tolist(),
            "radius": self.radius,
            "inradius": self.inradius,
            "config": self.config,
        }


def cauchy_arm_profile(r: float, samples: int = 100, rin: float | None = None) -> ArmProfile:
    """Build the pivoting-arm configuration and its clearance profile.

    Inside the symmetric picture at inradius ``rin`` (midrange by default),
    a circle of radius r is drawn through the shifted apex and the point of
    the inscribed circle opposite the pivot; the free endpoint traverses it
    from the crossing point toward the far axis point, and the clearance
    dist(pivot, x) - r starts at exactly zero and strictly increases. Each
    clearance is cross-checked against an independently constructed
    near-point on the pivot circle.
    """
    if not 0.0 < r <= math.pi / 2 + 1e-12:
        raise ValueError(f"radius must lie in (0, pi/2], got {r}")
    if samples < 2:
        raise ValueError(f"need at least 2 samples, got {samples}")
    theta = jung_circumradius(2, r)
    rin_min = r - theta
    if rin is None:
        rin = 0.5 * (rin_min + r / 2)
    if not rin_min - 1e-9 <= rin < r / 2:
        raise ValueError(
            f"inradius {rin:.6g} outside the valid range [{rin_min:.6g}, {r / 2:.6g})")

    c = np.array([0.0, 0.0, 1.0])

    def azdir(az_deg: float) -> np.ndarray:
        a = math.radians(az_deg)
        return np.array([math.cos(a), math.sin(a), 0.0])

    b1 = geodesic_point(c, azdir(0.0), theta)
    b3 = geodesic_point(c, azdir(240.0), theta)
    c1 = geodesic_point(c, azdir(0.0), r - rin)
    b12 = geodesic_point(c, azdir(60.0), rin_min)
    b3_opp = geodesic_point(c, azdir(60.0), rin)

    centers = circle_intersection(c1, r, b3_opp, r)
    if len(centers) != 2:
        raise VerificationFailure("no circle of the body radius through both anchor points")
    inside = [spherical_distance(z, b3) < r - 1e-9 for z in centers]
    if inside[0] == inside[1]:
        raise VerificationFailure("anchor circle does not separate the pivot")
    c_prime = centers[0] if inside[0] else centers[1]
    if spherical_distance(c_prime, b1) < r - 1e-9:
        raise VerificationFailure("first vertex fell inside the anchor circle")

    crossings = circle_intersection(b3, r, c_prime, r)
    if len(crossings) != 2:
        raise VerificationFailure("pivot and anchor circles do not cross")
    # select the crossing on the boundary arc between b1 and the arc midpoint
    u_ref = tangent_toward(b3, b1)
    v_ref = np.cross(b3, u_ref)

    def arc_angle(y: np.ndarray) -> float:
        return math.atan2(float(y @ v_ref), float(y @ u_ref))

    hi_ang = arc_angle(b12)
    picks = [y for y in crossings
             if -1e-9 <= arc_angle(y) <= hi_ang + 1e-9]
    if len(picks) != 1:
        raise VerificationFailure(
            f"expected one crossing on the boundary arc, found {len(picks)}")
    f = picks[0]

    t_pivot = tangent_toward(c_prime, b3)
    v = geodesic_point(c_prime, -t_pivot, r)
    u = geodesic_point(b3, -tangent_toward(b3, c_prime), r)
    if spherical_distance(v, b3) <= r or spherical_distance(u, c_prime) <= r:
        raise VerificationFailure("far axis points are not exterior to the opposite circle")

    span = signed_arc_angle(c_prime, f, v)
    ts = np.linspace(0.0, span, samples)
    ef = f - float(f @ c_prime) * c_prime
    ef /= np.linalg.norm(ef)
    g = np.cross(c_prime, ef)
    ring = (math.cos(r) * c_prime[None, :]
            + math.sin(r) * (np.cos(ts)[:, None] * ef[None, :]
                             + np.sin(ts)[:, None] * g[None, :]))
    dists = np.arccos(np.clip(ring @ b3, -1.0, 1.0))
    clearances = dists - r

    if abs(clearances[0]) > 1e-12:
        raise VerificationFailure(f"clearance does not start at zero ({clearances[0]:.3e})")
    steps = np.diff(clearances)
    if np.min(steps) <= 1e-12:
        raise VerificationFailure(
            f"clearance is not strictly increasing (worst step {np.min(steps):.3e})")

    # independent cross-check: nearest point of the pivot circle to x
    for k in range(1, samples):
        x = ring[k]
        y = geodesic_point(b3, tangent_toward(b3, x), r)
        err = abs(spherical_distance(x, y) - clearances[k])
        if err > 1e-12:
            raise VerificationFailure(f"clearance cross-check failed at step {k} ({err:.3e})")

    positions = np.abs(ts) * math.sin(r)
    config = {
        "pivot": b3.tolist(),
        "anchor_center": c_prime.tolist(),
        "crossing": f.tolist(),
        "far_point_moving": v.tolist(),
        "far_point_pivot": u.tolist(),
        "apex_shifted": c1.tolist(),
        "opposite_point": b3_opp.tolist(),
        "arc_midpoint": b12.tolist(),
        "span": float(span),
    }
    return ArmProfile(positions, clearances, float(r), float(rin), config)
