"""Spherical primitives: distances, tangents, sampling, generator sets."""

import math

import numpy as np
import pytest
from scipy import special, stats

from ballpoly.sphere import (
    GeneratorSet,
    Lune,
    as_unit_rows,
    diameter,
    dual_membership,
    geo_tol,
    geodesic_point,
    jung_circumradius,
    membership_margin,
    membership_mask,
    pairwise_distances,
    sample_cap,
    sample_uniform,
    sample_wide_generator,
    set_geo_tol,
    spherical_distance,
    tangent_basis,
    tangent_toward,
    unit_vector,
)

from conftest import two_point_gens

HALF_PI = math.pi / 2


class TestDistances:
    def test_distance_of_point_to_itself_is_zero(self):
        p = unit_vector([1.0, 2.0, -0.5])
        assert spherical_distance(p, p) == 0.0

    def test_distance_is_symmetric(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            a = unit_vector(rng.normal(size=4))
            b = unit_vector(rng.normal(size=4))
            assert spherical_distance(a, b) == spherical_distance(b, a)

    def test_antipodal_distance_is_pi_despite_rounding(self):
        # dot products slightly outside [-1, 1] must be clipped, not error
        p = unit_vector([0.6, 0.8, 0.0])
        assert spherical_distance(p, -p) == pytest.approx(math.pi, abs=1e-15)

    def test_clamp_matches_np_clip_bit_for_bit(self):
        rng = np.random.default_rng(2101)
        pairs = []
        for dim in (3, 4, 6):
            for _ in range(300):
                a = unit_vector(rng.normal(size=dim))
                b = unit_vector(rng.normal(size=dim))
                for other in (b, a, -a):
                    pairs.append((a, other))
        # dot products just outside [-1, 1], as rounding produces them
        e0 = np.eye(3)[0]
        for k in range(1, 6):
            over = np.array([1.0 + k * np.finfo(float).eps, 0.0, 0.0])
            pairs.extend([(over, e0), (-over, e0), (over, over), (over, -over)])
        for a, b in pairs:
            want = float(np.arccos(np.clip(float(a @ b), -1.0, 1.0)))
            got = spherical_distance(a, b)
            assert not math.isnan(got)
            assert np.float64(got).tobytes() == np.float64(want).tobytes()

    def test_coincident_and_antipodal_points_are_exactly_zero_and_pi(self):
        rng = np.random.default_rng(538)
        pts = [np.array([0.6, 0.8, 0.0]), np.eye(3)[2]]
        pts += [p for p in (unit_vector(rng.normal(size=3)) for _ in range(200))
                if float(p @ p) >= 1.0]
        for p in pts:
            assert spherical_distance(p, p) == 0.0
            assert spherical_distance(p, -p) == math.pi

    def test_nan_coordinates_propagate(self):
        p = np.array([math.nan, 0.0, 1.0])
        assert math.isnan(spherical_distance(p, np.eye(3)[2]))

    def test_dimension_mismatch_raises(self):
        with pytest.raises(ValueError, match="dimension mismatch"):
            spherical_distance(np.eye(3)[0], np.eye(4)[0])

    def test_orthogonal_axes_are_quarter_turn_apart(self):
        e = np.eye(3)
        assert spherical_distance(e[0], e[1]) == pytest.approx(HALF_PI, abs=1e-15)

    def test_pairwise_matrix_matches_scalar_calls(self):
        pts = sample_uniform(2, 5, seed=3)
        mat = pairwise_distances(pts)
        for i in range(5):
            for j in range(5):
                assert mat[i, j] == pytest.approx(
                    spherical_distance(pts[i], pts[j]), abs=1e-12)

    def test_diameter_picks_largest_pairwise_distance(self):
        pts = sample_uniform(2, 8, seed=11)
        assert diameter(pts) == pytest.approx(np.max(pairwise_distances(pts)), abs=0.0)

    def test_diameter_of_single_point_is_zero(self):
        assert diameter(np.array([[0.0, 0.0, 1.0]])) == 0.0


class TestUnitVectors:
    def test_unit_vector_normalizes(self):
        v = unit_vector([3.0, 4.0, 0.0])
        assert np.linalg.norm(v) == pytest.approx(1.0, abs=1e-15)

    def test_unit_vector_rejects_near_zero(self):
        with pytest.raises(ValueError):
            unit_vector([0.0, 0.0, 1e-30])

    def test_unit_vector_rejects_low_ambient_dimension(self):
        with pytest.raises(ValueError):
            unit_vector([3.0, 4.0])

    def test_as_unit_rows_normalizes_every_row(self):
        rows = as_unit_rows(np.array([[2.0, 0.0, 0.0], [0.0, 0.5, 0.0]]))
        assert np.allclose(np.linalg.norm(rows, axis=1), 1.0, atol=1e-15)


class TestTangents:
    def test_tangent_basis_is_orthonormal_and_orthogonal_to_base(self):
        p = unit_vector([0.2, -1.0, 0.4, 0.9])
        basis = tangent_basis(p)
        assert basis.shape == (3, 4)
        gram = basis @ basis.T
        assert np.allclose(gram, np.eye(3), atol=1e-12)
        assert np.allclose(basis @ p, 0.0, atol=1e-12)

    def test_tangent_toward_unit_and_orthogonal(self):
        a = unit_vector([1.0, 0.1, 0.0])
        b = unit_vector([0.0, 1.0, 0.3])
        t = tangent_toward(a, b)
        assert np.linalg.norm(t) == pytest.approx(1.0, abs=1e-12)
        assert abs(t @ a) < 1e-12

    def test_tangent_toward_rejects_coincident_points(self):
        a = unit_vector([0.0, 0.0, 1.0])
        with pytest.raises(ValueError):
            tangent_toward(a, a)

    def test_tangent_toward_rejects_antipodal_points(self):
        a = unit_vector([0.0, 1.0, 0.0])
        with pytest.raises(ValueError):
            tangent_toward(a, -a)

    def test_geodesic_point_travels_stated_distance(self):
        a = unit_vector([0.3, 0.4, 0.6])
        b = unit_vector([-0.2, 0.9, 0.1])
        t = tangent_toward(a, b)
        for dist in (0.1, 0.7, 1.4):
            q = geodesic_point(a, t, dist)
            assert np.linalg.norm(q) == pytest.approx(1.0, abs=1e-12)
            assert spherical_distance(a, q) == pytest.approx(dist, abs=1e-12)

    def test_geodesic_point_reaches_target(self):
        a = unit_vector([1.0, 0.0, 0.0])
        b = unit_vector([0.0, 0.0, 1.0])
        q = geodesic_point(a, tangent_toward(a, b), spherical_distance(a, b))
        assert np.allclose(q, b, atol=1e-12)


class TestLune:
    def test_width_is_pi_minus_pole_distance(self):
        u = unit_vector([0.0, 0.0, 1.0])
        v = unit_vector([math.sin(0.4), 0.0, math.cos(0.4)])
        assert Lune(u, v).width == pytest.approx(math.pi - 0.4, abs=1e-12)

    def test_rejects_equal_poles(self):
        u = unit_vector([0.0, 1.0, 0.0])
        with pytest.raises(ValueError):
            Lune(u, u.copy())

    def test_rejects_antipodal_poles(self):
        u = unit_vector([1.0, 0.0, 0.0])
        with pytest.raises(ValueError):
            Lune(u, -u)


class TestGeneratorSet:
    def test_wideness_is_enforced(self):
        # separation above the radius must be rejected
        with pytest.raises(ValueError):
            two_point_gens(r=0.5, sep=0.6)

    def test_wideness_boundary_is_accepted(self):
        gens = two_point_gens(r=0.5, sep=0.5)
        assert gens.n_points == 2

    def test_radius_above_half_pi_is_rejected(self):
        pts = np.eye(3)[:1]
        with pytest.raises(ValueError):
            GeneratorSet(dim=2, radius=2.0, points=pts)

    def test_dimension_mismatch_is_rejected(self):
        with pytest.raises(ValueError):
            GeneratorSet(dim=3, radius=1.0, points=np.eye(3))

    def test_json_roundtrip_is_exact(self):
        gens = sample_wide_generator(2, 0.7, 5, seed=2)
        again = GeneratorSet.from_json(gens.to_json())
        assert again.dim == gens.dim
        assert again.radius == gens.radius
        assert np.array_equal(again.points, gens.points)

    def test_save_load_roundtrip(self, tmp_path):
        gens = sample_wide_generator(3, 0.8, 4, seed=5)
        path = tmp_path / "gens.json"
        gens.save(path)
        again = GeneratorSet.load(path)
        assert np.array_equal(again.points, gens.points)


class TestMembership:
    def test_generators_belong_to_their_own_body(self, random_gens_2d):
        # wideness makes every generator a member of the intersection
        for gens in random_gens_2d:
            for p in gens.points:
                assert dual_membership(p, gens)
                assert membership_margin(p, gens) >= -1e-12

    def test_far_point_is_rejected(self):
        gens = two_point_gens(r=0.5, sep=0.4)
        outside = unit_vector([0.0, 0.0, -1.0])
        assert not dual_membership(outside, gens)
        assert membership_margin(outside, gens) < 0

    def test_mask_agrees_with_scalar_membership(self):
        gens = sample_wide_generator(2, 0.7, 4, seed=9)
        pts = sample_uniform(2, 200, seed=10)
        mask = membership_mask(pts, gens)
        for point, flag in zip(pts, mask):
            assert flag == dual_membership(point, gens)


class TestSampling:
    def test_sample_uniform_is_deterministic_per_seed(self):
        a = sample_uniform(3, 50, seed=4)
        b = sample_uniform(3, 50, seed=4)
        assert np.array_equal(a, b)
        c = sample_uniform(3, 50, seed=5)
        assert not np.array_equal(a, c)

    def test_sample_uniform_rows_are_unit(self):
        pts = sample_uniform(4, 100, seed=1)
        assert pts.shape == (100, 5)
        assert np.allclose(np.linalg.norm(pts, axis=1), 1.0, atol=1e-12)

    def test_sample_cap_stays_inside_cap(self):
        rng = np.random.default_rng(0)
        center = unit_vector([0.1, -0.4, 0.9])
        pts = sample_cap(center, 0.35, 300, rng)
        dots = pts @ center
        assert np.all(np.arccos(np.clip(dots, -1, 1)) <= 0.35 + 1e-12)

    @pytest.mark.parametrize("d", [3, 4, 6, 10])
    def test_sample_cap_heights_follow_the_truncated_beta_law(self, d):
        # P(t >= s) on the cap is I_{(1-s)/2}(d/2, d/2) / I_{h0/2}(d/2, d/2)
        center = unit_vector(np.arange(1.0, d + 2.0))
        for theta in (0.3, 0.8, HALF_PI, 2.5, math.pi):
            rng = np.random.default_rng([d, int(1000 * theta)])
            t = sample_cap(center, theta, 20_000, rng) @ center
            h0 = 2.0 * math.sin(theta / 2.0) ** 2
            tail = special.betainc(d / 2.0, d / 2.0, h0 / 2.0)

            def cdf(s):
                depth = np.clip((1.0 - s) / 2.0, 0.0, h0 / 2.0)
                return 1.0 - special.betainc(d / 2.0, d / 2.0, depth) / tail

            assert stats.kstest(t, cdf).pvalue > 1e-4, (d, theta)

    def test_sample_cap_tiny_cap_finishes_inside_the_cap(self):
        # d >= 3 only: the S^2 branch forms 1 - t^2 by cancellation
        theta = 1e-6
        for d in (3, 6, 10):
            center = unit_vector(np.linspace(-1.0, 2.0, d + 1))
            pts = sample_cap(center, theta, 5000, np.random.default_rng(d))
            assert pts.shape == (5000, d + 1)
            assert np.allclose(np.linalg.norm(pts, axis=1), 1.0, atol=1e-15)
            # arccos cannot resolve 1e-6 radians; compare the tangent part
            t = pts @ center
            off = np.linalg.norm(pts - t[:, None] * center[None, :], axis=1)
            assert np.all(t > 0.0)
            assert np.all(off <= math.sin(theta) * (1.0 + 1e-9))

    def test_sample_cap_on_s2_keeps_the_uniform_height_stream(self):
        center = unit_vector([0.3, -0.2, 0.9])
        for theta in (0.2, HALF_PI, math.pi):
            got = sample_cap(center, theta, 500, np.random.default_rng(11))
            rng = np.random.default_rng(11)
            t = 1.0 - rng.random(500) * (1.0 - math.cos(theta))
            g = rng.standard_normal((500, 2))
            w = g / np.linalg.norm(g, axis=1)[:, None]
            sin_t = np.sqrt(np.clip(1.0 - t * t, 0.0, None))
            want = t[:, None] * center[None, :] + sin_t[:, None] * (w @ tangent_basis(center))
            assert got.tobytes() == want.tobytes()

    def test_sample_cap_rejects_a_circle(self):
        with pytest.raises(ValueError, match="sphere dimension must be >= 2"):
            sample_cap(np.array([1.0, 0.0]), 0.5, 10, np.random.default_rng(0))

    def test_sample_wide_generator_is_wide_and_deterministic(self):
        for d, r in ((2, 0.3), (2, HALF_PI), (3, 0.8)):
            gens = sample_wide_generator(d, r, 6, seed=13)
            assert gens.dim == d
            assert diameter(gens.points) <= r + 1e-12
            again = sample_wide_generator(d, r, 6, seed=13)
            assert np.array_equal(gens.points, again.points)


class TestJungRadius:
    def test_known_right_angle_values(self):
        # at radius pi/2 the bound is arccos(1/sqrt(d+1))
        for d in (2, 3, 4):
            expect = math.acos(1.0 / math.sqrt(d + 1))
            assert jung_circumradius(d, HALF_PI) == pytest.approx(expect, abs=1e-12)

    def test_monotone_in_radius(self):
        vals = [jung_circumradius(2, r) for r in (0.2, 0.5, 1.0, HALF_PI)]
        assert all(a < b for a, b in zip(vals, vals[1:]))

    def test_bracketed_between_half_radius_and_radius(self):
        # two points at distance r force >= r/2; the bound never reaches r
        for d in (2, 3, 4):
            for r in (0.3, 0.7, 1.2, HALF_PI):
                rj = jung_circumradius(d, r)
                assert r / 2 - 1e-12 <= rj < r

    def test_small_radius_matches_flat_jung_constant(self):
        # shrinking caps look Euclidean: R ~ r sqrt(d / (2 (d + 1)))
        for d in (2, 3, 4):
            r = 1e-4
            expect = r * math.sqrt(d / (2.0 * (d + 1.0)))
            assert jung_circumradius(d, r) == pytest.approx(expect, rel=1e-6)


class TestTolerances:
    def test_geo_tol_round_trip(self):
        old = geo_tol()
        try:
            set_geo_tol(1e-7)
            assert geo_tol() == 1e-7
        finally:
            set_geo_tol(old)

    def test_rejects_nonpositive_tolerance(self):
        with pytest.raises(ValueError):
            set_geo_tol(0.0)
