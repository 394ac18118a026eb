"""The benchmark's oracles against brute force on small inputs.

    python3 -m pytest perfbench/test_oracles.py -q
"""

import random

import oracles as o
import workloads as w


def dominated_brute(points):
    return {p[0] for p in points
            if any(q[1] <= p[1] and q[2] <= p[2] and (q[1] < p[1] or q[2] < p[2]) for q in points)}


def test_pareto_matches_brute_force_with_ties_and_huge_values():
    rng = random.Random(0)
    for trial in range(400):
        offset = 2**60 if trial % 2 else 0  # beyond float64's 53-bit mantissa
        points = [(f"p{i}", offset + rng.randint(0, 12), offset + rng.randint(0, 12))
                  for i in range(rng.randint(1, 40))]
        assert o.pareto_ids(points) == {p[0] for p in points} - dominated_brute(points)


def test_pareto_separates_neighbours_above_2_53():
    points = [("a", 2**60 + 1, 5), ("b", 2**60, 5), ("c", 2**60, 5)]
    assert o.pareto_ids(points) == {"b", "c"}


def full_count_by_loops(v):
    """FLOPs of one image by counting every multiply-add and elementwise op."""
    t, d, k, m, p, c = v["N"] ** 2, v["hidden"], v["heads"], v["mlp"], v["patch"], o.IMAGE_CHANNELS
    macs = ops = 0

    def matmul(rows, inner, cols):
        nonlocal macs
        for _ in range(rows):
            for _ in range(cols):
                for _ in range(inner):
                    macs += 1

    matmul(t, c * p * p, d)  # patch embedding
    for _ in range(v["depth"]):
        ops += 5 * t * d  # norm1
        for _ in range(4):  # q, k, v and output projections
            matmul(t, d, d)
        for _ in range(k):  # scores and attention-weighted values, per head
            matmul(t, d // k, t)
            matmul(t, t, d // k)
        ops += 3 * k * t * t + t * d  # softmax, residual
        ops += 5 * t * d  # norm2
        matmul(t, d, m)
        ops += t * m  # activation
        matmul(t, m, d)
        ops += t * d  # residual
    ops += 5 * t * d + t * d  # final norm, token pooling
    matmul(1, d, o.NUM_CLASSES)
    return 2 * macs + ops


def test_full_count_matches_loop_count_and_bounds_closed_form():
    for n, d, k, m, p, depth in ((2, 4, 2, 8, 2, 1), (3, 6, 3, 4, 1, 2), (1, 2, 1, 2, 3, 3)):
        v = {"N": n, "hidden": d, "heads": k, "mlp": m, "patch": p, "depth": depth,
             "batch": 1, "bytes": 4}
        full = o.vit_full(v)["flops"]
        assert full == full_count_by_loops(v) == o.vit_flops(v, "full_count")
        assert full >= o.vit_flops(v, "closed_form")
        assert o.vit_flops({**v, "batch": 3}, "full_count") == 3 * full


def test_closed_form_is_the_readme_formula():
    v = {"N": 14, "hidden": 384, "heads": 6, "mlp": 1536, "depth": 12, "patch": 16,
         "batch": 2, "bytes": 2}
    n, d, k, m = 14, 384, 6, 1536
    cost = o.vit_closed(v)
    assert cost["flops"] == 2 * 12 * (4 * n**4 * d + 3 * k * n**4 + 2 * n**2 * d * d + 4 * n**2 * d * m)
    assert cost["model_bytes"] == 12 * d * (4 * d + 2 * m) * 2
    assert cost["peak_activation_bytes"] == (5 * n**2 * d + n**2 * m) * 2 * 2


def test_window_out_counts_window_positions():
    for side in range(1, 30):
        for kernel in (1, 3, 7):
            for stride in (1, 2, 3):
                for pad in range(kernel // 2 + 1):
                    if side + 2 * pad >= kernel:
                        starts = range(-pad, side + pad - kernel + 1, stride)
                        assert o.window_out(side, kernel, stride, pad) == len(starts)


def test_resnet50_table_gives_the_published_numbers():
    assert o.resnet50_table(224) == (o.RESNET50_CONV_MACS_224, o.RESNET50_PARAMS)
    assert o.resnet50_table(224, stem_resize=56)[1] == o.RESNET50_PARAMS
    assert o.resnet50_table(448)[0] > o.resnet50_table(224)[0]


def test_match_scan_is_closest_with_ties_to_the_smaller_value():
    plateau = {v: 10 * (v // 2) for v in range(1, 21)}  # 5 and 4 share FLOPs, and so on
    brute = lambda target: min(plateau, key=lambda v: (abs(plateau[v] - target), v))  # noqa: E731
    for target in range(0, 101):
        target = max(target, plateau[1])
        if target > plateau[20]:
            break
        scan = o.match_scan(plateau.__getitem__, range(1, 21), target)
        assert scan["value"] == brute(target)
        assert scan["upper"] == min(v for v in plateau if plateau[v] >= target)
    assert o.match_scan(lambda v: v * v, o.knob_range(1, 20, 6), 100)["value"] == 12


def test_knob_range_keeps_positive_multiples_of_the_step():
    for lo, hi, step in [(1, 20, 6), (0, 18, 6), (7, 7, 1), (1, 2048, 12), (13, 40, 12)]:
        brute = [v for v in range(lo, hi + 1) if v > 0 and v % step == 0]
        assert list(o.knob_range(lo, hi, step)) == brute


def test_best_choice_keeps_the_floor_and_breaks_ties_by_id():
    rows = [{"config_id": "b", "flops": 5, "top1": 70.0}, {"config_id": "a", "flops": 5, "top1": 69.0},
            {"config_id": "c", "flops": 4, "top1": 68.9}, {"config_id": "d", "flops": 9, "top1": 71.0}]
    assert o.best_choice(rows, "top1", 2.0, "flops", "d")["config_id"] == "a"
    assert o.best_choice(rows, "top1", 2.1, "flops", "d")["config_id"] == "c"
    assert o.best_choice(rows, "top1", 0.0, "flops", "d")["config_id"] == "d"


def test_config_ids_follow_the_readme():
    assert o.config_id("vit_small", [("hidden", 192), ("N", 9), ("dtype", "int8")]) == \
        "vit_small;hidden=192;N=9;dtype=int8"
    assert o.config_id("resnet50", [("width", 1.0), ("width", 0.375)]) == "resnet50;width=1;width=0.375"


def largest_objective(base, convention, pools):
    v = w.with_axes(w.base_params(base), [(kind, max(pool, key=lambda x: o.DTYPE_BYTES.get(x, x)))
                                          for kind, (pool, _) in pools.items()])
    cost = (o.vit_full if convention == "full_count" else o.vit_closed)(v)
    return max(cost["flops"], cost["total_memory_bytes"])


def test_objectives_stay_below_2_53():
    assert largest_objective("vit_small", "full_count", w.VIT_SWEEP) < 2**53
    assert largest_objective("vit_base", "closed_form", w.WIDE_SWEEP) < 2**53
