"""Independent estimators used to cross-check the exact computations."""

import math

import numpy as np
import pytest

from ballpoly.diskpoly import (
    area,
    boundary_structure,
    reuleaux_area,
    reuleaux_triangle,
    width_2d,
)
from ballpoly.oracles import oracle_area_mc, oracle_width_grid
from ballpoly.sphere import GeneratorSet

from conftest import two_point_gens

HALF_PI = math.pi / 2


class TestAreaOracle:
    def test_recovers_a_cap_area(self):
        # one generator: the proposal cap IS the body, so the estimate is
        # exact with zero variance
        gens = GeneratorSet(dim=2, radius=0.8, points=np.array([[0.0, 0.0, 1.0]]))
        res = oracle_area_mc(gens, n=200_000, seed=3)
        exact = 2 * math.pi * (1 - math.cos(0.8))
        assert res.quantity == "area"
        assert res.value == pytest.approx(exact, rel=1e-12)
        assert res.error_bound == 0.0

    def test_recovers_the_octant(self, reuleaux_half):
        res = oracle_area_mc(reuleaux_half, n=200_000, seed=4)
        assert abs(res.value - HALF_PI) <= res.error_bound

    def test_deterministic_per_seed(self, reuleaux_07):
        a = oracle_area_mc(reuleaux_07, n=20_000, seed=5)
        b = oracle_area_mc(reuleaux_07, n=20_000, seed=5)
        assert a.value == b.value

    def test_error_bound_shrinks_with_samples(self, reuleaux_07):
        coarse = oracle_area_mc(reuleaux_07, n=10_000, seed=6)
        fine = oracle_area_mc(reuleaux_07, n=160_000, seed=6)
        assert fine.error_bound < coarse.error_bound
        assert fine.error_bound == pytest.approx(coarse.error_bound / 4, rel=0.35)

    def test_rejects_higher_dimensions_and_tiny_budgets(self, simplex3_half):
        with pytest.raises(ValueError):
            oracle_area_mc(simplex3_half.generator_set(), n=10_000, seed=0)
        with pytest.raises(ValueError):
            oracle_area_mc(two_point_gens(0.7, 0.5), n=10, seed=0)


class TestWidthOracle:
    def test_brackets_the_exact_width(self, reuleaux_any):
        # every traced pole is exactly feasible, so the estimate can only
        # overestimate, and by at most the claimed bound
        exact, _ = width_2d(reuleaux_any)
        res = oracle_width_grid(reuleaux_any, n_dirs=96)
        assert res.value >= exact - 1e-9
        assert res.value <= exact + res.error_bound

    def test_brackets_the_exact_width_on_random_bodies(self, random_gens_2d):
        for gens in random_gens_2d:
            exact, _ = width_2d(gens)
            res = oracle_width_grid(gens, n_dirs=96)
            assert res.value >= exact - 1e-9
            assert res.value <= exact + res.error_bound

    def test_tightens_with_more_directions(self, random_gens_2d):
        for gens in random_gens_2d[:3]:
            coarse = oracle_width_grid(gens, n_dirs=24)
            fine = oracle_width_grid(gens, n_dirs=192)
            assert fine.value <= coarse.value + 1e-9
            assert fine.error_bound < coarse.error_bound

    def test_grid_width_on_the_lens(self):
        gens = two_point_gens(r=0.7, sep=0.5)
        res = oracle_width_grid(gens, n_dirs=256)
        assert res.value == pytest.approx(0.9, abs=res.error_bound)


class TestCrossValidation:
    def test_exact_area_inside_oracle_band_on_corpus(self, random_gens_2d):
        for gens in random_gens_2d[6:]:
            exact = area(boundary_structure(gens))
            mc = oracle_area_mc(gens, n=30_000, seed=11)
            assert abs(exact - mc.value) <= mc.error_bound

    def test_reuleaux_area_from_both_sides(self):
        for r in (0.3, 0.7):
            gens = reuleaux_triangle(r)
            mc = oracle_area_mc(gens, n=150_000, seed=12)
            assert abs(mc.value - reuleaux_area(r)) <= mc.error_bound
