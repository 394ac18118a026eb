"""Pareto filter against a brute-force oracle on exact Python values."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from visioncost.search import FrontierPoint, best_compressed, pareto_front


def points_of(vectors, annotations=None):
    """Point i takes vectors[i] as its (flops, total_memory_bytes)."""
    return [
        FrontierPoint(
            config_id=f"p{i:05d}",
            flops=flops,
            peak_activation_bytes=0,
            model_bytes=0,
            total_memory_bytes=memory,
            annotations=annotations[i] if annotations is not None else {},
        )
        for i, (flops, memory) in enumerate(vectors)
    ]


def brute_force_ids(vectors):
    """Literal pairwise scan: i is dominated if some j is <= everywhere and
    < somewhere. Ids are zero-padded, so index order is id order."""
    return [
        f"p{i:05d}"
        for i, v in enumerate(vectors)
        if not any(w != v and all(a <= b for a, b in zip(w, v)) for w in vectors)
    ]


def front_ids(vectors):
    return [p.config_id for p in pareto_front(points_of(vectors))]


def random_vectors(rng, n, dup_fraction=0.3):
    vectors = [(rng.randrange(50), rng.randrange(50)) for _ in range(n)]
    for _ in range(int(n * dup_fraction)):
        vectors[rng.randrange(n)] = vectors[rng.randrange(n)]  # exact ties
    return vectors


NEAR_ZERO_OR_2_60 = st.one_of(st.integers(-20, 20), st.integers(2**60 - 20, 2**60 + 20))


class TestAgainstBruteForce:
    @pytest.mark.parametrize("seed", [1, 2, 3, 4])
    def test_random_sets_with_ties(self, seed):
        rng = random.Random(101 + seed)
        for _ in range(25):
            vectors = random_vectors(rng, rng.randrange(1, 120))
            front = pareto_front(points_of(vectors))
            assert [p.config_id for p in front] == brute_force_ids(vectors)
            assert pareto_front(front) == front

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.tuples(NEAR_ZERO_OR_2_60, NEAR_ZERO_OR_2_60), min_size=1, max_size=40))
    def test_property_near_zero_and_2_60(self, vectors):
        assert front_ids(vectors) == brute_force_ids(vectors)


class TestExactness:
    def test_neighbours_above_2_53_are_told_apart(self):
        # float64 rounds 2**60 + 1 to 2**60, which would keep both points
        assert front_ids([(2**60 + 1, 5), (2**60, 5)]) == ["p00001"]
        assert front_ids([(5, 2**60), (5, 2**60 + 1)]) == ["p00000"]

    def test_best_compressed_compares_exact_flops(self):
        points = points_of([(2**60 + 1, 5), (2**60, 5)], [{"top1": 0.5}] * 2)
        choice = best_compressed(points, "top1", 0.0, "flops", baseline_id="p00000")
        assert choice.config_id == "p00001"

    def test_anti_correlated_2d_keeps_every_point(self):
        n = 20_000
        vectors = [(i, n - i) for i in range(n)]
        assert front_ids(vectors) == [f"p{i:05d}" for i in range(n)]


class TestEdgeCases:
    def test_single_point_never_dominated(self):
        assert front_ids([(3, 4)]) == ["p00000"]

    def test_exact_duplicates_do_not_dominate_each_other(self):
        assert front_ids([(1, 1), (1, 1), (2, 2)]) == ["p00000", "p00001"]

    def test_partial_tie_needs_one_strict_improvement(self):
        assert front_ids([(1, 5), (1, 4)]) == ["p00001"]
