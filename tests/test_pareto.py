"""Pareto filter against a brute-force oracle on exact Python values."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from visioncost.search import AnnotationTable, FrontierPoint, best_compressed, pareto_front

KEYS = ("flops", "total_memory_bytes", "model_bytes", "peak_activation_bytes")


def objectives(m):
    return tuple((key, "min") for key in KEYS[:m])


def points_of(vectors, annotations=None):
    """Point i takes vectors[i] as its first len(vectors[i]) cost totals."""
    points = []
    for i, v in enumerate(vectors):
        totals = dict.fromkeys(KEYS, 0)
        totals.update(zip(KEYS, v))
        ann = annotations[i] if annotations is not None else {}
        points.append(FrontierPoint(config_id=f"p{i:05d}", annotations=ann, **totals))
    return points


def brute_force_ids(vectors):
    """Literal pairwise scan: i is dominated if some j is <= everywhere and
    < somewhere. Ids are zero-padded, so index order is id order."""
    return [
        f"p{i:05d}"
        for i, v in enumerate(vectors)
        if not any(w != v and all(a <= b for a, b in zip(w, v)) for w in vectors)
    ]


def front_ids(vectors):
    return [p.config_id for p in pareto_front(points_of(vectors), objectives(len(vectors[0])))]


def random_vectors(rng, n, m, dup_fraction=0.3):
    vectors = [tuple(rng.randrange(50) for _ in range(m)) for _ in range(n)]
    for _ in range(int(n * dup_fraction)):
        vectors[rng.randrange(n)] = vectors[rng.randrange(n)]  # exact ties
    return vectors


NEAR_ZERO_OR_2_60 = st.one_of(st.integers(-20, 20), st.integers(2**60 - 20, 2**60 + 20))


class TestAgainstBruteForce:
    @pytest.mark.parametrize("m", [1, 2, 3, 4])
    def test_random_sets_with_ties(self, m):
        rng = random.Random(101 + m)
        for _ in range(25):
            vectors = random_vectors(rng, rng.randrange(1, 120), m)
            front = pareto_front(points_of(vectors), objectives(m))
            assert [p.config_id for p in front] == brute_force_ids(vectors)
            assert pareto_front(front, objectives(m)) == front

    @settings(max_examples=200, deadline=None)
    @given(
        st.integers(1, 4).flatmap(
            lambda m: st.lists(st.tuples(*[NEAR_ZERO_OR_2_60] * m), min_size=1, max_size=40)
        )
    )
    def test_property_near_zero_and_2_60(self, vectors):
        assert front_ids(vectors) == brute_force_ids(vectors)


class TestExactness:
    @pytest.mark.parametrize("m", [2, 3])
    def test_neighbours_above_2_53_are_told_apart(self, m):
        # float64 rounds 2**60 + 1 to 2**60, which would keep both points
        vectors = [(2**60 + 1,) + (5,) * (m - 1), (2**60,) + (5,) * (m - 1)]
        assert front_ids(vectors) == ["p00001"]

    def test_best_compressed_compares_exact_flops(self):
        points = points_of([(2**60 + 1, 5), (2**60, 5)])
        table = AnnotationTable.from_rows((p.config_id, "top1", 0.5) for p in points)
        choice = best_compressed(points, table, "top1", 0.0, baseline_id="p00000")
        assert choice.config_id == "p00001"

    @pytest.mark.parametrize("m", [2, 3])
    def test_max_direction_with_float_annotations(self, m):
        rng = random.Random(7 + m)
        for _ in range(20):
            n = rng.randrange(1, 80)
            costs = random_vectors(rng, n, m - 1)
            top1 = [rng.choice([0.5, 0.7, 0.1 + 0.2, 0.3, 0.9]) for _ in range(n)]
            points = points_of(costs, [{"top1": t} for t in top1])
            objs = objectives(m - 1) + (("top1", "max"),)
            got = [p.config_id for p in pareto_front(points, objs)]
            assert got == brute_force_ids([c + (-t,) for c, t in zip(costs, top1)])

    def test_nan_objective_rejected(self):
        points = points_of([(1, 1), (2, 2)], [{"top1": 0.5}, {"top1": float("nan")}])
        with pytest.raises(ValueError, match="NaN"):
            pareto_front(points, (("flops", "min"), ("top1", "max")))

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
