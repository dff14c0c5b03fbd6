"""Boundary structure, area, width, inradius, and hull diameter on S^2.

Sentinel bodies carry closed-form values; random bodies are checked against
independent estimates and cross-identities.
"""

import math

import numpy as np
import pytest

from ballpoly.diskpoly import (
    ArcPiece,
    _cross3,
    _travel_tangent,
    arc_polygon_area,
    area,
    boundary_structure,
    circle_angle,
    circle_basis,
    circle_intersection,
    circle_point,
    hull_diameter_2d,
    inradius_2d,
    metrics,
    perimeter,
    reuleaux_area,
    reuleaux_triangle,
    signed_arc_angle,
    support_margin_2d,
    support_margins_2d,
    width_2d,
)
from ballpoly.oracles import oracle_area_mc
from ballpoly.sphere import (
    DegeneracyError,
    GeneratorSet,
    geodesic_point,
    jung_circumradius,
    spherical_distance,
    tangent_toward,
    unit_vector,
)

from conftest import two_point_gens

HALF_PI = math.pi / 2


def reuleaux_perimeter(r: float) -> float:
    # three arcs of radius r, each spanning the equilateral vertex angle
    alpha = math.acos(math.cos(r) / (1.0 + math.cos(r)))
    return 3.0 * math.sin(r) * alpha


def lhuilier_area(a: np.ndarray, b: np.ndarray, c: np.ndarray) -> float:
    sa = spherical_distance(b, c)
    sb = spherical_distance(a, c)
    sc = spherical_distance(a, b)
    s = 0.5 * (sa + sb + sc)
    t = math.tan(s / 2) * math.tan((s - sa) / 2) * math.tan((s - sb) / 2) * math.tan((s - sc) / 2)
    return 4.0 * math.atan(math.sqrt(max(t, 0.0)))


def geodesic_triangle_pieces(a, b, c) -> list[ArcPiece]:
    """Great-circle pieces for a positively oriented spherical triangle."""
    pieces = []
    for u, v in ((a, b), (b, c), (c, a)):
        n = np.cross(u, v)
        n = n / np.linalg.norm(n)
        pieces.append(ArcPiece(center=n, radius=HALF_PI, start=u, end=v,
                               span=spherical_distance(u, v)))
    return pieces


class TestCircleHelpers:
    def test_circle_point_angle_roundtrip(self):
        center = unit_vector([0.3, -0.2, 0.93])
        frame = circle_basis(center)
        for t in (0.0, 1.2, 3.9, 6.1):
            p = circle_point(center, 0.6, t, frame)
            assert spherical_distance(center, p) == pytest.approx(0.6, abs=1e-12)
            got = circle_angle(center, p, frame)
            wrap = (got - t + math.pi) % (2 * math.pi) - math.pi
            assert abs(wrap) < 1e-9

    def test_intersection_points_lie_on_both_circles(self):
        c1 = unit_vector([0.0, 0.0, 1.0])
        c2 = unit_vector([math.sin(0.5), 0.0, math.cos(0.5)])
        pts = circle_intersection(c1, 0.7, c2, 0.7)
        assert pts.shape == (2, 3)
        for p in pts:
            assert spherical_distance(c1, p) == pytest.approx(0.7, abs=1e-12)
            assert spherical_distance(c2, p) == pytest.approx(0.7, abs=1e-12)

    def test_intersection_branches_are_mirror_images(self):
        c1 = unit_vector([0.0, 0.0, 1.0])
        c2 = unit_vector([math.sin(0.4), 0.0, math.cos(0.4)])
        pts = circle_intersection(c1, 0.5, c2, 0.5)
        flipped = pts[1].copy()
        flipped[1] = -flipped[1]
        assert np.allclose(pts[0], flipped, atol=1e-12)

    def test_disjoint_circles_yield_no_points(self):
        c1 = unit_vector([0.0, 0.0, 1.0])
        c2 = unit_vector([math.sin(0.9), 0.0, math.cos(0.9)])
        assert circle_intersection(c1, 0.2, c2, 0.2).shape == (0, 3)

    def test_nested_circles_yield_no_points(self):
        c1 = unit_vector([0.0, 0.0, 1.0])
        c2 = unit_vector([math.sin(0.05), 0.0, math.cos(0.05)])
        assert circle_intersection(c1, 0.8, c2, 0.1).shape == (0, 3)

    def test_intersection_clamp_matches_np_clip_bit_for_bit(self):
        def with_np_clip(c1, r1, c2, r2):
            c1, c2 = unit_vector(c1), unit_vector(c2)
            dot = float(np.clip(c1 @ c2, -1.0, 1.0))
            det = 1.0 - dot * dot
            q1, q2 = math.cos(r1), math.cos(r2)
            a, b = (q1 - q2 * dot) / det, (q2 - q1 * dot) / det
            s = math.sqrt(max((1.0 - (a * q1 + b * q2)) / det, 0.0))
            n = np.cross(c1, c2)
            pts = np.stack([a * c1 + b * c2 + s * n, a * c1 + b * c2 - s * n])
            return pts / np.linalg.norm(pts, axis=1)[:, None]

        rng = np.random.default_rng(4117)
        for _ in range(300):
            c1 = unit_vector(rng.normal(size=3))
            c2 = unit_vector(c1 + rng.uniform(0.05, 1.0) * rng.normal(size=3))
            r1, r2 = rng.uniform(0.3, HALF_PI, size=2)
            got = circle_intersection(c1, r1, c2, r2)
            if got.shape[0]:
                assert got.tobytes() == with_np_clip(c1, r1, c2, r2).tobytes()

    def test_intersection_with_a_nan_axis_is_nan(self):
        c1 = np.array([math.nan, 0.0, 1.0])
        pts = circle_intersection(c1, 0.5, unit_vector([0.3, 0.0, 1.0]), 0.5)
        assert pts.shape == (2, 3) and np.all(np.isnan(pts))


class TestCross3:
    """The scalar cross product must reproduce np.cross bit for bit, so the
    boundary and area values it feeds are unchanged by using it."""

    @staticmethod
    def assert_same_bits(a, b):
        assert _cross3(a, b).tobytes() == np.cross(a, b).tobytes()

    def test_matches_np_cross_on_random_vectors(self):
        rng = np.random.default_rng(2101)
        for _ in range(500):
            scale = 10.0 ** rng.integers(-8, 9, size=2)
            self.assert_same_bits(scale[0] * rng.normal(size=3), scale[1] * rng.normal(size=3))
        for _ in range(200):
            a, b = unit_vector(rng.normal(size=3)), unit_vector(rng.normal(size=3))
            self.assert_same_bits(a, b)

    def test_matches_np_cross_on_axis_aligned_vectors(self):
        axes = np.concatenate([np.eye(3), -np.eye(3)])
        for a in axes:
            for b in axes:
                self.assert_same_bits(a, b)

    def test_matches_np_cross_on_parallel_vectors(self):
        rng = np.random.default_rng(538)
        for _ in range(200):
            a = unit_vector(rng.normal(size=3))
            for k in (1.0, -1.0, 2.5, -1e-3):
                self.assert_same_bits(a, k * a)

    def test_signed_arc_angle_rejects_an_endpoint_on_the_axis(self):
        c = unit_vector([0.2, -0.4, 0.9])
        b = unit_vector([0.5, 0.1, 0.8])
        for endpoint in (c, -c):
            with pytest.raises(DegeneracyError, match="carrier axis"):
                signed_arc_angle(c, endpoint, b)
            with pytest.raises(DegeneracyError, match="carrier axis"):
                signed_arc_angle(c, b, endpoint)

    def test_travel_tangent_rejects_a_point_on_the_axis(self):
        c = unit_vector([0.2, -0.4, 0.9])
        for span in (1.0, -1.0):
            piece = ArcPiece(center=c, radius=0.5, start=c, end=c, span=span)
            for point in (c, -c):
                with pytest.raises(DegeneracyError, match="carrier axis"):
                    _travel_tangent(piece, point)


class TestAreaIntegrator:
    def test_octant_triangle_area(self):
        e = np.eye(3)
        pieces = geodesic_triangle_pieces(e[0], e[1], e[2])
        assert arc_polygon_area(pieces) == pytest.approx(HALF_PI, abs=1e-12)

    def test_random_geodesic_triangles_match_lhuilier(self):
        rng = np.random.default_rng(21)
        for _ in range(25):
            pts = rng.normal(size=(3, 3))
            pts /= np.linalg.norm(pts, axis=1)[:, None]
            if np.linalg.det(pts) < 0:
                pts = pts[::-1]
            if abs(np.linalg.det(pts)) < 1e-3:
                continue
            got = arc_polygon_area(geodesic_triangle_pieces(*pts))
            assert got == pytest.approx(lhuilier_area(*pts), abs=1e-10)


class TestBoundaryStructure:
    def test_reuleaux_has_three_arcs_at_generator_vertices(self, reuleaux_any):
        boundary = boundary_structure(reuleaux_any)
        assert boundary.full_ball is None
        assert len(boundary.arcs) == 3
        assert boundary.redundant == ()
        verts = boundary.vertices()
        # every vertex is a generator and every generator appears once
        dmat = np.arccos(np.clip(verts @ reuleaux_any.points.T, -1, 1))
        assert np.allclose(np.sort(np.min(dmat, axis=1)), 0.0, atol=1e-9)
        assert len({int(np.argmin(row)) for row in dmat}) == 3

    def test_reuleaux_arcs_chain_into_a_closed_cycle(self, reuleaux_07):
        # endpoints agree up to the vertex clustering tolerance
        arcs = boundary_structure(reuleaux_07).arcs
        for k, arc in enumerate(arcs):
            nxt = arcs[(k + 1) % len(arcs)]
            assert spherical_distance(arc.end, nxt.start) < 1e-7

    def test_reuleaux_spans_equal_the_vertex_angle(self, reuleaux_any):
        r = reuleaux_any.radius
        alpha = math.acos(math.cos(r) / (1.0 + math.cos(r)))
        for arc in boundary_structure(reuleaux_any).arcs:
            assert arc.span == pytest.approx(alpha, abs=1e-9)

    def test_single_generator_is_a_full_ball(self):
        gens = GeneratorSet(dim=2, radius=0.6, points=np.array([[0.0, 0.0, 1.0]]))
        boundary = boundary_structure(gens)
        assert boundary.full_ball is not None
        assert boundary.arcs == ()
        assert area(boundary) == pytest.approx(2 * math.pi * (1 - math.cos(0.6)), abs=1e-12)
        assert perimeter(boundary) == pytest.approx(2 * math.pi * math.sin(0.6), abs=1e-12)

    def test_redundant_generator_is_reported_and_ignored(self, reuleaux_07):
        # the circumcenter ball contains the whole body, so it cuts nothing
        pts = np.vstack([reuleaux_07.points, [0.0, 0.0, 1.0]])
        gens = GeneratorSet(dim=2, radius=0.7, points=pts)
        boundary = boundary_structure(gens)
        assert len(boundary.arcs) == 3
        assert 3 in boundary.redundant
        assert area(boundary) == pytest.approx(reuleaux_area(0.7), abs=1e-12)

    def test_lens_corners_are_the_circle_intersections(self):
        gens = two_point_gens(r=0.7, sep=0.5)
        boundary = boundary_structure(gens)
        assert len(boundary.arcs) == 2
        expected = circle_intersection(gens.points[0], 0.7, gens.points[1], 0.7)
        verts = boundary.vertices()
        d = np.arccos(np.clip(verts @ expected.T, -1, 1))
        assert np.min(d, axis=1).max() < 1e-9

    def test_hemisphere_pair_with_antipodal_corners(self):
        # at radius pi/2 two generators a quarter turn apart bound a lune
        gens = two_point_gens(r=HALF_PI, sep=HALF_PI)
        boundary = boundary_structure(gens)
        assert len(boundary.arcs) == 2
        assert area(boundary) == pytest.approx(math.pi, abs=1e-9)
        w, _ = width_2d(gens)
        assert w == pytest.approx(HALF_PI, abs=1e-9)


class TestSentinelMetrics:
    def test_reuleaux_area_closed_form(self, reuleaux_any):
        r = reuleaux_any.radius
        got = area(boundary_structure(reuleaux_any))
        assert got == pytest.approx(reuleaux_area(r), abs=1e-12)

    def test_quarter_sphere_octant_area(self, reuleaux_half):
        assert area(boundary_structure(reuleaux_half)) == pytest.approx(HALF_PI, abs=1e-12)
        assert reuleaux_area(HALF_PI) == pytest.approx(HALF_PI, abs=1e-15)

    def test_reuleaux_perimeter_closed_form(self, reuleaux_any):
        r = reuleaux_any.radius
        got = perimeter(boundary_structure(reuleaux_any))
        assert got == pytest.approx(reuleaux_perimeter(r), abs=1e-9)

    def test_octant_perimeter_is_three_quarter_circles(self, reuleaux_half):
        got = perimeter(boundary_structure(reuleaux_half))
        assert got == pytest.approx(3 * HALF_PI, abs=1e-12)

    def test_reuleaux_width_equals_radius(self, reuleaux_any):
        r = reuleaux_any.radius
        w, witness = width_2d(reuleaux_any)
        assert w == pytest.approx(r, abs=1e-8)
        assert witness is not None
        assert witness.width == pytest.approx(w, abs=1e-12)

    def test_reuleaux_inradius_complements_circumradius(self, reuleaux_any):
        r = reuleaux_any.radius
        rin, center = inradius_2d(reuleaux_any)
        assert rin == pytest.approx(r - jung_circumradius(2, r), abs=1e-9)
        assert spherical_distance(center, np.array([0.0, 0.0, 1.0])) < 1e-6

    def test_reuleaux_hull_diameter_equals_radius(self, reuleaux_any):
        r = reuleaux_any.radius
        dh, pair = hull_diameter_2d(reuleaux_any)
        assert dh == pytest.approx(r, abs=1e-9)
        assert spherical_distance(pair[0], pair[1]) == pytest.approx(dh, abs=1e-12)

    @pytest.mark.parametrize("r", [k / 10 for k in range(1, 16)] + [HALF_PI])
    def test_reuleaux_hull_diameter_over_a_radius_sweep(self, r):
        # at r = 0.6, 1.0, 1.1 and 1.2 a body vertex lands 1e-16 from a
        # generator, a pair the candidate enumeration must skip
        gens = reuleaux_triangle(r)
        dh, _ = hull_diameter_2d(gens)
        assert dh == pytest.approx(r, abs=1e-9)
        assert metrics(gens).hull_diameter == pytest.approx(r, abs=1e-9)

    def test_lens_width_hull_and_inradius(self):
        r, s = 0.7, 0.5
        gens = two_point_gens(r, s)
        w, _ = width_2d(gens)
        dh, _ = hull_diameter_2d(gens)
        rin, _ = inradius_2d(gens)
        assert w == pytest.approx(2 * r - s, abs=1e-9)
        assert dh == pytest.approx(s, abs=1e-9)
        assert rin == pytest.approx(r - s / 2, abs=1e-9)

    def test_metrics_bundle_matches_parts(self, reuleaux_07):
        m = metrics(reuleaux_07)
        assert m.area == pytest.approx(reuleaux_area(0.7), abs=1e-12)
        assert m.perimeter == pytest.approx(reuleaux_perimeter(0.7), abs=1e-9)
        assert m.width == pytest.approx(0.7, abs=1e-8)
        assert m.inradius == pytest.approx(0.7 - jung_circumradius(2, 0.7), abs=1e-9)
        assert m.circumradius == pytest.approx(jung_circumradius(2, 0.7), abs=1e-9)
        assert m.hull_diameter == pytest.approx(0.7, abs=1e-9)


class TestSupportMargins:
    def test_margin_at_a_generator_is_cos_radius(self, reuleaux_any):
        # the far side of the body sits at distance exactly r from each generator
        r = reuleaux_any.radius
        boundary = boundary_structure(reuleaux_any)
        for x in reuleaux_any.points:
            assert support_margin_2d(reuleaux_any, x, boundary) == pytest.approx(
                math.cos(r), abs=1e-12)

    def test_margin_at_the_circumcenter(self, reuleaux_any):
        r = reuleaux_any.radius
        got = support_margin_2d(reuleaux_any, np.array([0.0, 0.0, 1.0]))
        assert got == pytest.approx(math.cos(jung_circumradius(2, r)), abs=1e-12)

    def test_full_ball_margin_matches_geodesic_extreme_point(self):
        x = unit_vector([0.2, 0.3, 0.93])
        gens = GeneratorSet(dim=2, radius=0.5, points=x[None, :])
        pole = unit_vector([0.9, -0.4, 0.1])
        far = geodesic_point(x, -tangent_toward(x, pole), 0.5)
        assert support_margin_2d(gens, pole) == pytest.approx(float(pole @ far), abs=1e-12)

    def test_vectorized_margins_match_scalar_calls(self, random_gens_2d):
        rng = np.random.default_rng(3)
        poles = rng.normal(size=(40, 3))
        poles /= np.linalg.norm(poles, axis=1)[:, None]
        for gens in random_gens_2d[:4]:
            boundary = boundary_structure(gens)
            vec = support_margins_2d(gens, poles, boundary)
            for k in range(len(poles)):
                assert vec[k] == pytest.approx(
                    support_margin_2d(gens, poles[k], boundary), abs=1e-12)

    def test_margin_lower_bounds_dense_boundary_samples(self, reuleaux_07):
        # exact minimum can never exceed the value at any boundary point
        boundary = boundary_structure(reuleaux_07)
        samples = []
        for arc in boundary.arcs:
            frame = circle_basis(arc.center)
            t0 = circle_angle(arc.center, arc.start, frame)
            for t in np.linspace(0, arc.span, 200):
                samples.append(circle_point(arc.center, 0.7, t0 + t, frame))
        samples = np.stack(samples)
        rng = np.random.default_rng(8)
        for _ in range(10):
            pole = unit_vector(rng.normal(size=3))
            exact = support_margin_2d(reuleaux_07, pole, boundary)
            assert exact <= float(np.min(samples @ pole)) + 1e-12
            assert exact >= float(np.min(samples @ pole)) - 1e-4


class TestRandomBodies:
    def test_area_agrees_with_monte_carlo(self, random_gens_2d):
        for gens in random_gens_2d[:6]:
            exact = area(boundary_structure(gens))
            mc = oracle_area_mc(gens, n=40_000, seed=17)
            assert abs(exact - mc.value) <= mc.error_bound

    def test_width_plus_hull_diameter_is_twice_the_radius(self, random_gens_2d):
        for gens in random_gens_2d:
            w, _ = width_2d(gens)
            dh, _ = hull_diameter_2d(gens)
            assert w + dh == pytest.approx(2 * gens.radius, abs=1e-6)

    def test_width_witness_lune_contains_the_body(self, random_gens_2d):
        for gens in random_gens_2d[:6]:
            boundary = boundary_structure(gens)
            w, witness = width_2d(gens)
            assert witness is not None
            assert support_margin_2d(gens, witness.u, boundary) >= -1e-9
            assert support_margin_2d(gens, witness.v, boundary) >= -1e-9
            assert witness.width == pytest.approx(w, abs=1e-12)

    def test_width_never_below_the_radius(self, random_gens_2d):
        for gens in random_gens_2d:
            w, _ = width_2d(gens)
            assert w >= gens.radius - 1e-8

    def test_hull_pair_members_satisfy_hull_membership(self, random_gens_2d):
        for gens in random_gens_2d[:6]:
            boundary = boundary_structure(gens)
            dh, pair = hull_diameter_2d(gens, boundary)
            cos_r = math.cos(gens.radius)
            for p in pair:
                assert support_margin_2d(gens, p, boundary) >= cos_r - 1e-8

    def test_inradius_center_is_deep_inside(self, random_gens_2d):
        for gens in random_gens_2d:
            rin, center = inradius_2d(gens)
            dmax = float(np.max(np.arccos(np.clip(gens.points @ center, -1, 1))))
            assert rin == pytest.approx(gens.radius - dmax, abs=1e-9)
            assert rin > 0
