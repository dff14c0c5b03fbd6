"""Any-dimension computations: minimax centers, inradius, simplex bodies,
volumes, feasibility certificates, width, and hull diameter."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ballpoly.ballbody import (
    boundary_sample_dual,
    cap_volume,
    circumradius_minimax,
    hull_diameter,
    inradius_nd,
    mc_volume,
    minimax_center,
    pole_margin_certificate,
    r_hull,
    schramm_bound,
    simplex_body,
    sphere_volume,
    width_nd,
)
from ballpoly.diskpoly import (
    boundary_structure,
    inradius_2d,
    support_margin_2d,
    support_margins_2d,
    width_2d,
)
from ballpoly.sphere import (
    GeneratorSet,
    diameter,
    geodesic_point,
    jung_circumradius,
    membership_margin,
    pairwise_distances,
    sample_uniform,
    sample_wide_generator,
    spherical_distance,
    tangent_toward,
    unit_vector,
)

from conftest import two_point_gens

HALF_PI = math.pi / 2


class TestMinimaxCenter:
    def test_two_points_give_the_midpoint(self):
        gens = two_point_gens(r=0.8, sep=0.6)
        res = minimax_center(gens.points)
        assert res.radius == pytest.approx(0.3, abs=1e-10)
        mid = unit_vector(gens.points.sum(axis=0))
        assert spherical_distance(res.center, mid) < 1e-8

    def test_active_distances_are_equalized(self, random_gens_2d, random_gens_3d):
        for gens in random_gens_2d + random_gens_3d:
            res = minimax_center(gens.points)
            d = np.arccos(np.clip(gens.points @ res.center, -1, 1))
            assert float(d.max()) == pytest.approx(res.radius, abs=1e-12)
            active_d = d[list(res.active)]
            assert np.ptp(active_d) < 1e-7

    def test_center_is_nonnegative_combination_of_active_points(self, random_gens_3d):
        for gens in random_gens_3d:
            res = minimax_center(gens.points)
            assert np.all(res.weights >= -1e-12)
            assert res.weights.sum() == pytest.approx(1.0, abs=1e-9)
            mix = res.weights @ gens.points[list(res.active)]
            mix = mix / np.linalg.norm(mix)
            assert spherical_distance(mix, res.center) < 1e-6

    def test_no_center_beats_the_reported_radius(self, random_gens_2d):
        rng = np.random.default_rng(5)
        for gens in random_gens_2d[:4]:
            res = minimax_center(gens.points)
            for _ in range(200):
                c = unit_vector(res.center + 0.05 * rng.normal(size=res.center.size))
                worst = float(np.max(np.arccos(np.clip(gens.points @ c, -1, 1))))
                assert worst >= res.radius - 1e-9

    def test_radius_respects_the_jung_bound(self, random_gens_2d, random_gens_3d):
        for gens in random_gens_2d + random_gens_3d:
            radius, _ = circumradius_minimax(gens.points)
            dia = diameter(gens.points)
            if dia > 1e-9:
                assert radius <= jung_circumradius(gens.dim, dia) + 1e-8

    def test_repeated_calls_are_byte_identical(self):
        pts = sample_uniform(2, 5, seed=77)
        pts = pts / np.linalg.norm(pts, axis=1)[:, None]
        # cluster the points into a hemisphere
        pts[pts[:, 2] < 0] *= -1
        a = minimax_center(pts)
        b = minimax_center(pts)
        assert a.center.tobytes() == b.center.tobytes()
        assert a.radius == b.radius
        assert a.active == b.active
        assert a.weights.tobytes() == b.weights.tobytes()

    @pytest.mark.parametrize("d", [2, 3, 4, 5])
    @pytest.mark.parametrize("r", [0.3, 1.0, HALF_PI])
    def test_simplex_radius_is_the_jung_radius(self, d, r):
        res = minimax_center(simplex_body(d, r).vertices)
        assert res.radius == pytest.approx(jung_circumradius(d, r), abs=1e-14)
        assert sorted(res.active) == list(range(d + 1))

    def test_single_point_is_its_own_center(self):
        p = unit_vector(np.array([0.3, -0.2, 0.9]))
        res = minimax_center(p[None, :])
        assert res.radius == 0.0
        assert res.center.tobytes() == p.tobytes()

    def test_spread_points_are_rejected(self):
        with pytest.raises(ValueError):
            minimax_center(np.vstack([np.eye(3), -np.eye(3)]))

    def test_points_on_a_closed_hemisphere_are_rejected(self):
        with pytest.raises(ValueError):
            minimax_center(np.array([[1.0, 0.0, 0.0], [-1.0, 0.0, 0.0], [0.0, 0.0, 1.0]]))


def _full_weights(res, n: int) -> np.ndarray:
    w = np.zeros(n)
    w[list(res.active)] = res.weights
    return w


_PROPERTY = settings(derandomize=True, deadline=None, max_examples=40, database=None)
_wide_gens = st.builds(
    sample_wide_generator,
    d=st.integers(2, 4),
    r=st.sampled_from([0.3, 0.7, 1.2, HALF_PI]),
    n_points=st.integers(2, 8),
    seed=st.integers(0, 2**31 - 2),
)


class TestMinimaxProperties:
    """Invariances of the exact minimax center."""

    @_PROPERTY
    @given(gens=_wide_gens, q_seed=st.integers(0, 2**31 - 2))
    def test_rotation_moves_the_center_with_the_points(self, gens, q_seed):
        k = gens.points.shape[1]
        q, _ = np.linalg.qr(np.random.default_rng(q_seed).normal(size=(k, k)))
        a = minimax_center(gens.points)
        b = minimax_center(gens.points @ q.T)
        assert b.radius == pytest.approx(a.radius, abs=1e-12)
        assert np.linalg.norm(b.center - q @ a.center) < 1e-9

    @_PROPERTY
    @given(gens=_wide_gens, data=st.data())
    def test_permutation_permutes_the_weights(self, gens, data):
        n = gens.n_points
        perm = np.array(data.draw(st.permutations(range(n))))
        a = minimax_center(gens.points)
        b = minimax_center(gens.points[perm])
        assert b.radius == pytest.approx(a.radius, abs=1e-12)
        assert np.abs(_full_weights(b, n) - _full_weights(a, n)[perm]).max() < 1e-9

    @_PROPERTY
    @given(gens=_wide_gens)
    def test_adding_the_center_as_a_generator_changes_nothing(self, gens):
        a = minimax_center(gens.points)
        b = minimax_center(np.vstack([gens.points, a.center]))
        assert b.radius == pytest.approx(a.radius, abs=1e-12)


class TestInradius:
    def test_matches_radius_minus_circumradius(self, random_gens_2d, random_gens_3d):
        for gens in random_gens_2d + random_gens_3d:
            rin, center = inradius_nd(gens)
            circ, ccenter = circumradius_minimax(gens.points)
            assert rin == pytest.approx(gens.radius - circ, abs=1e-12)
            assert np.array_equal(center, ccenter)

    def test_agrees_with_planar_incircle(self, reuleaux_any, random_gens_2d):
        for gens in [reuleaux_any] + random_gens_2d[:4]:
            rin_nd, c_nd = inradius_nd(gens)
            rin_2d, c_2d = inradius_2d(gens)
            assert rin_nd == pytest.approx(rin_2d, abs=1e-9)
            assert spherical_distance(c_nd, c_2d) < 1e-6

    def test_simplex_attains_the_jung_complement(self):
        for d, r in ((2, 0.7), (3, 0.8), (3, HALF_PI), (4, 1.1)):
            gens = simplex_body(d, r).generator_set()
            rin, _ = inradius_nd(gens)
            assert rin == pytest.approx(r - jung_circumradius(d, r), abs=1e-8)


class TestSimplexBody:
    def test_edges_all_equal_the_radius(self):
        for d, r in ((2, 0.3), (3, 0.8), (4, HALF_PI)):
            verts = simplex_body(d, r).vertices
            assert verts.shape == (d + 1, d + 1)
            dm = pairwise_distances(verts)
            off = dm[~np.eye(d + 1, dtype=bool)]
            assert np.allclose(off, r, atol=1e-12)

    def test_right_angle_simplex_is_the_standard_basis(self):
        verts = simplex_body(3, HALF_PI).vertices
        gram = verts @ verts.T
        assert np.allclose(gram, np.eye(4), atol=1e-12)


class TestVolumes:
    def test_sphere_volume_known_values(self):
        assert sphere_volume(2) == pytest.approx(4 * math.pi, abs=1e-12)
        assert sphere_volume(3) == pytest.approx(2 * math.pi ** 2, abs=1e-12)
        assert sphere_volume(4) == pytest.approx(8 * math.pi ** 2 / 3, abs=1e-11)

    def test_cap_volume_limits_and_halves(self):
        for d in (2, 3, 4):
            assert cap_volume(d, math.pi) == pytest.approx(sphere_volume(d), rel=1e-12)
            assert cap_volume(d, HALF_PI) == pytest.approx(sphere_volume(d) / 2, rel=1e-12)
        assert cap_volume(2, 0.4) == pytest.approx(2 * math.pi * (1 - math.cos(0.4)), rel=1e-10)

    def test_mc_volume_is_deterministic_per_seed(self):
        gens = sample_wide_generator(3, 0.8, 4, seed=2)
        a = mc_volume(gens, 50_000, seed=3)
        b = mc_volume(gens, 50_000, seed=3)
        assert a.value == b.value
        assert mc_volume(gens, 50_000, seed=4).value != a.value

    def test_mc_volume_recovers_a_cap(self):
        x = unit_vector([0.0, 0.0, 0.0, 1.0])
        gens = GeneratorSet(dim=3, radius=0.9, points=x[None, :])
        est = mc_volume(gens, 200_000, seed=5)
        exact = cap_volume(3, 0.9)
        assert abs(est.value - exact) <= 3 * est.std_error
        assert 0 < est.hit_fraction <= 1

    def test_mc_volume_of_the_orthant_body(self, simplex3_half):
        gens = simplex3_half.generator_set()
        est = mc_volume(gens, 300_000, seed=6)
        assert abs(est.value - math.pi ** 2 / 8) <= 3 * est.std_error

    def test_volume_bound_constant_for_three_sphere(self):
        bound, reference = schramm_bound(3)
        assert reference == pytest.approx(math.pi ** 2 / 8, abs=1e-12)
        assert bound / reference == pytest.approx(0.2437068, abs=1e-6)
        assert bound < reference

    def test_volume_bound_requires_dimension_three(self):
        with pytest.raises(ValueError):
            schramm_bound(2)


class TestPoleCertificate:
    def test_never_exceeds_the_exact_margin(self, random_gens_2d):
        rng = np.random.default_rng(11)
        for gens in random_gens_2d[:6]:
            boundary = boundary_structure(gens)
            for _ in range(8):
                pole = unit_vector(rng.normal(size=3))
                cert = pole_margin_certificate(gens.points, gens.radius, pole)
                exact = support_margin_2d(gens, pole, boundary)
                assert cert <= exact + 1e-9

    def test_tight_at_threshold_poles(self, reuleaux_any):
        # at a generator the body grazes distance r, so the exact margin sits
        # right at the hull-membership threshold and the bound must reach it
        r = reuleaux_any.radius
        for x in reuleaux_any.points:
            cert = pole_margin_certificate(reuleaux_any.points, r, x)
            assert cert == pytest.approx(math.cos(r), abs=1e-9)

    def test_interior_pole_still_clears_the_membership_threshold(self, reuleaux_any):
        # the bound may be loose far from the threshold, but it has to keep
        # certifying points that belong to the hull, like the incenter
        r = reuleaux_any.radius
        north = np.array([0.0, 0.0, 1.0])
        cert = pole_margin_certificate(reuleaux_any.points, r, north)
        assert cert >= math.cos(r) - 1e-9
        assert cert <= support_margin_2d(reuleaux_any, north) + 1e-12

    def test_grazing_pole_certifies_exactly_zero(self, reuleaux_07):
        # pole a quarter turn past the far arc: the body grazes its hemisphere
        r = 0.7
        a, b = reuleaux_07.points[0], reuleaux_07.points[1]
        pole = geodesic_point(b, -tangent_toward(b, a), HALF_PI - r)
        cert = pole_margin_certificate(reuleaux_07.points, r, pole)
        exact = support_margin_2d(reuleaux_07, pole)
        assert exact == pytest.approx(0.0, abs=1e-12)
        assert cert == pytest.approx(0.0, abs=1e-9)

    def test_pole_on_a_generator_certifies_its_exact_margin(self):
        # with more generators than dimensions the zero-residual weight sits
        # at the kink of the norm, where the quasi-Newton solve stalls
        for seed in range(6):
            gens = sample_wide_generator(3, HALF_PI, 5 + seed % 4, 900 + seed)
            for x in gens.points:
                cert = pole_margin_certificate(gens.points, HALF_PI, x)
                assert cert >= -1e-15

    def test_sampled_margin_upper_bounds_certificate(self, random_gens_3d):
        rng = np.random.default_rng(23)
        for gens in random_gens_3d[:2]:
            sample = boundary_sample_dual(gens, 128, seed=1)
            for _ in range(5):
                pole = unit_vector(rng.normal(size=4))
                cert = pole_margin_certificate(gens.points, gens.radius, pole)
                # the sample points are body points, so their smallest
                # inner product bounds the margin from above
                sampled = float(np.min(sample @ pole))
                assert cert <= sampled + 1e-9


class TestBoundarySampleDual:
    def test_samples_lie_on_the_body_boundary(self, random_gens_3d):
        gens = random_gens_3d[0]
        pts = boundary_sample_dual(gens, 64, seed=9)
        assert pts.shape == (64, 4)
        for p in pts:
            m = membership_margin(p, gens)
            assert m >= -1e-9
            assert m <= 1e-5


def _witness_margins(gens, witness) -> list[float]:
    """Exact support margins of both witness poles on S^2, certified lower
    bounds on them otherwise."""
    poles = np.stack([witness.u, witness.v])
    if gens.dim == 2:
        return list(support_margins_2d(gens, poles))
    return [pole_margin_certificate(gens.points, gens.radius, p) for p in poles]


class TestWidthNd:
    def test_simplex_width_at_right_angle_radius(self, simplex3_half):
        w, witness = width_nd(simplex3_half.generator_set())
        assert w == pytest.approx(HALF_PI, abs=1e-12)
        assert witness is not None
        assert witness.width == pytest.approx(w, abs=1e-12)

    def test_narrow_simplex_width_equals_radius(self):
        w, _ = width_nd(simplex_body(3, 0.8).generator_set())
        assert w == pytest.approx(0.8, abs=1e-12)

    def test_agrees_with_planar_width(self, random_gens_2d, simplex3_half):
        for gens in random_gens_2d[:3]:
            w, witness = width_nd(gens)
            w2, witness2 = width_2d(gens)
            assert w2 == w
            assert witness2.u.tobytes() == witness.u.tobytes()
        with pytest.raises(ValueError):
            width_2d(simplex3_half.generator_set())

    def test_width_floor_on_random_bodies(self, random_gens_3d):
        for gens in random_gens_3d:
            w, _ = width_nd(gens)
            assert w >= gens.radius - 1e-12
            assert w <= math.pi

    @pytest.mark.parametrize("d", [2, 3, 4])
    @pytest.mark.parametrize("r", [0.3, 0.8, HALF_PI])
    def test_equals_twice_radius_minus_diameter(self, d, r):
        for seed in range(4):
            gens = sample_wide_generator(d, r, d + 1 + seed, 300 + seed)
            w, witness = width_nd(gens)
            assert w == pytest.approx(2 * r - diameter(gens.points), abs=1e-13)
            assert witness.width == pytest.approx(w, abs=1e-12)

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_witness_poles_support_the_body(self, d):
        # exact margins on S^2 must clear -1e-12; the certificate is a lower
        # bound, so passing -1e-9 proves each hemisphere holds the body
        tol = 1e-12 if d == 2 else 1e-9
        for k, r in enumerate((0.3, 0.8, HALF_PI)):
            gens = sample_wide_generator(d, r, d + 2, 500 + k)
            _, witness = width_nd(gens)
            assert min(_witness_margins(gens, witness)) >= -tol

    @pytest.mark.parametrize("d", [2, 3])
    def test_single_and_coincident_generators(self, d):
        x = unit_vector(np.arange(1.0, d + 2.0))
        for pts in (x[None, :], np.stack([x, x])):
            gens = GeneratorSet(dim=d, radius=0.8, points=pts)
            w, witness = width_nd(gens)
            assert w == pytest.approx(1.6, abs=1e-13)
            assert witness.width == pytest.approx(w, abs=1e-12)
            assert min(_witness_margins(gens, witness)) >= -1e-9
            assert width_nd(GeneratorSet(dim=d, radius=HALF_PI, points=pts)) == (math.pi, None)

    def test_lens(self):
        r, s = 0.7, 0.5
        gens = two_point_gens(r, s)
        w, witness = width_nd(gens)
        assert w == pytest.approx(2 * r - s, abs=1e-13)
        assert min(_witness_margins(gens, witness)) >= -1e-12
        # the hemisphere pair at radius pi/2: the poles are the generators
        w, witness = width_nd(two_point_gens(HALF_PI, HALF_PI))
        assert w == pytest.approx(HALF_PI, abs=1e-13)
        assert spherical_distance(witness.u, witness.v) == pytest.approx(HALF_PI, abs=1e-13)


class TestWidthProperties:
    """Invariances of the closed-form width."""

    @_PROPERTY
    @given(gens=_wide_gens, q_seed=st.integers(0, 2**31 - 2))
    def test_rotation_leaves_the_width(self, gens, q_seed):
        k = gens.points.shape[1]
        q, _ = np.linalg.qr(np.random.default_rng(q_seed).normal(size=(k, k)))
        rotated = GeneratorSet(gens.dim, gens.radius, gens.points @ q.T)
        assert width_nd(rotated)[0] == pytest.approx(width_nd(gens)[0], abs=1e-12)

    @_PROPERTY
    @given(gens=_wide_gens, data=st.data())
    def test_permutation_leaves_the_width(self, gens, data):
        perm = np.array(data.draw(st.permutations(range(gens.n_points))))
        permuted = GeneratorSet(gens.dim, gens.radius, gens.points[perm])
        assert width_nd(permuted)[0] == pytest.approx(width_nd(gens)[0], abs=1e-12)

    @_PROPERTY
    @given(gens=_wide_gens)
    def test_adding_the_center_as_a_generator_leaves_the_width(self, gens):
        # the center is within the circumradius of every generator, so the
        # diameter, and with it the width, cannot change
        c = minimax_center(gens.points).center
        grown = GeneratorSet(gens.dim, gens.radius, np.vstack([gens.points, c]))
        assert width_nd(grown)[0] == pytest.approx(width_nd(gens)[0], abs=1e-12)


class TestHull:
    def test_two_point_hull_diameter_is_their_distance(self):
        gens = two_point_gens(r=0.8, sep=0.6)
        dh, pair = hull_diameter(gens, seed=0)
        assert dh == pytest.approx(0.6, abs=1e-9)
        assert spherical_distance(pair[0], pair[1]) == pytest.approx(dh, abs=1e-12)

    def test_simplex_hull_diameter_equals_radius(self, simplex3_half):
        dh, _ = hull_diameter(simplex3_half.generator_set(), seed=0)
        assert dh == pytest.approx(HALF_PI, abs=1e-9)

    def test_hull_points_pass_the_membership_certificate(self, random_gens_3d):
        gens = random_gens_3d[1]
        pts = r_hull(gens, n_support=24, seed=3)
        cos_r = math.cos(gens.radius)
        for p in pts[:10]:
            cert = pole_margin_certificate(gens.points, gens.radius, p)
            assert cert >= cos_r - 1e-8

    def test_hull_contains_the_generators(self, random_gens_2d):
        gens = random_gens_2d[0]
        pts = r_hull(gens, n_support=32, seed=4)
        d = np.arccos(np.clip(pts @ gens.points.T, -1, 1))
        assert float(np.min(d, axis=0).max()) < 1e-12

    def test_width_plus_hull_diameter_identity_3d(self, random_gens_3d):
        for gens in random_gens_3d[:2]:
            w, _ = width_nd(gens)
            dh, _ = hull_diameter(gens, seed=0)
            assert w + dh == pytest.approx(2 * gens.radius, abs=2e-3)
