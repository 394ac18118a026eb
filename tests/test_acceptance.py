"""Acceptance suite: one criterion per test, one [PASS]/[FAIL] line each.

Run with ``pytest tests/test_acceptance.py -s`` to see the lines as they
pass; pytest shows them on failure regardless. Every expected value here
is produced by an oracle implemented independently of the code under
test (brute-force loops, exhaustive scans, literal re-derivations).
"""

import contextlib
import json
import random

import numpy as np
import pytest

from visioncost.arch import (
    BatchNorm,
    CnnSpec,
    Conv2d,
    EvalConfig,
    FlopConvention,
    GlobalPool,
    Linear,
    Pool,
    dtype_from_name,
)
from visioncost.cli import main
from visioncost.cost import (
    cost_report,
    vit_block_activation_elems_closed,
    vit_block_flops_closed,
)
from visioncost.presets import resnet50, vit_small
from visioncost.scaling import ScalingTransform, TransformKind, apply_transform, make_config
from visioncost.search import (
    AnnotationTable,
    FrontierPoint,
    NoFeasibleCandidate,
    SweepAxis,
    SweepSpace,
    TargetUnreachable,
    best_compressed,
    evaluate_space,
    match_flops_budget,
    pareto_front,
    point_from_report,
)

K = TransformKind


@contextlib.contextmanager
def criterion(number, description):
    try:
        yield
    except BaseException:
        print(f"[FAIL] criterion {number}: {description}")
        raise
    print(f"[PASS] criterion {number}: {description}")


# --------------------------------------------------------------------------


def test_criterion_1_closed_form_exactness():
    with criterion(1, "closed-form transformer block FLOPs match an independent "
                      "arbitrary-precision evaluation exactly"):
        # term-by-term re-derivation on plain Python integers
        def independent(n, d, k, mlp):
            t = n * n
            return (2 * t * t * d) + (2 * t * t * d) + (3 * k * t * t) \
                + (2 * t * d * d) + (2 * t * d * mlp) + (2 * t * d * mlp)

        assert vit_block_flops_closed(14, 384, 6, 1536) == independent(14, 384, 6, 1536) == 579_923_232
        assert vit_block_flops_closed(9, 384, 6, 1536) == independent(9, 384, 6, 1536) == 225_186_642


def test_criterion_2_walk_components_bridge_the_formula():
    with criterion(2, "graph-walk attention/softmax/MLP FLOPs equal the algebraic "
                      "terms at every token count; walk total >= closed form"):
        spec = vit_small()
        d, k, mlp = 384, 6, 1536
        for n in range(8, 16):
            rep = cost_report(
                spec,
                EvalConfig(input_resolution=n, flop_convention=FlopConvention.FULL_COUNT),
            )
            t = n * n
            groups = {"attn": 0, "softmax": 0, "mlp": 0}
            for c in rep.per_layer:
                op = c.name.split(".")[-1]
                if op in ("attn_scores", "attn_av"):
                    groups["attn"] += c.flops
                elif op == "attn_softmax":
                    groups["softmax"] += c.flops
                elif op in ("mlp_fc1", "mlp_fc2"):
                    groups["mlp"] += c.flops
            assert groups["attn"] == 12 * 4 * t * t * d
            assert groups["softmax"] == 12 * 3 * k * t * t
            assert groups["mlp"] == 12 * 4 * t * d * mlp
            closed = cost_report(spec, EvalConfig(input_resolution=n))
            assert rep.flops >= closed.flops


def test_criterion_3_quartic_token_asymptotics():
    with criterion(3, "block cost minus the quadratic terms equals (4D+3k)N^4 on "
                      "100 random shapes; activations quadruple when tokens double"):
        rng = random.Random(3)
        for _ in range(100):
            k = rng.randrange(1, 17)
            d = k * rng.randrange(1, 129)
            n = rng.randrange(1, 41)
            mlp = d * rng.randrange(1, 9)
            flops = vit_block_flops_closed(n, d, k, mlp)
            quadratic = 2 * n**2 * d**2 + 4 * n**2 * d * mlp
            assert flops - quadratic == (4 * d + 3 * k) * n**4
            assert vit_block_activation_elems_closed(2 * n, d, mlp) \
                == 4 * vit_block_activation_elems_closed(n, d, mlp)


def test_criterion_4_batch_and_dtype_laws():
    with criterion(4, "batch size multiplies FLOPs and peak activations exactly, "
                      "leaving weights alone; int8 quarters both memory terms "
                      "with FLOPs unchanged"):
        for convention in FlopConvention:
            base = EvalConfig(flop_convention=convention)
            one = cost_report(vit_small(), base)
            for b in (2, 3, 8):
                rb = cost_report(
                    vit_small(), EvalConfig(batch_size=b, flop_convention=convention)
                )
                assert rb.flops == b * one.flops
                assert rb.peak_activation_bytes == b * one.peak_activation_bytes
                assert rb.model_bytes == one.model_bytes
            quant = cost_report(
                vit_small(),
                EvalConfig(dtype=dtype_from_name("int8"), flop_convention=convention),
            )
            assert 4 * quant.model_bytes == one.model_bytes
            assert 4 * quant.peak_activation_bytes == one.peak_activation_bytes
            assert quant.flops == one.flops


def test_criterion_5_token_patch_tradeoff_structure():
    with criterion(5, "token/patch sweep: total memory strictly increases with "
                      "patch size at fixed tokens; FLOPs spread within each "
                      "token count is at most 8%"):
        space = SweepSpace(
            base_name="vit_small",
            base_spec=vit_small(),
            base_eval=EvalConfig(flop_convention=FlopConvention.FULL_COUNT),
            axes=(
                SweepAxis(K.RESOLUTION, (9, 11)),
                SweepAxis(K.PATCH, (8, 12, 16, 24, 32)),
            ),
        )
        skipped = []
        annotations = AnnotationTable().by_config()
        by_tokens = {}
        for config, report in evaluate_space(space, skipped):
            cid = config.config_id
            point = point_from_report(cid, report, annotations.get(cid))
            by_tokens.setdefault(config.eval.input_resolution, []).append(point)
        assert not skipped
        assert sorted(by_tokens) == [9, 11]
        for n, pts in by_tokens.items():
            mems = [p.total_memory_bytes for p in pts]  # patch-ordered
            assert all(a < b for a, b in zip(mems, mems[1:])), f"memory not increasing at N={n}"
            flops = [p.flops for p in pts]
            assert (max(flops) - min(flops)) * 100 <= 8 * min(flops), f"spread too wide at N={n}"


def test_criterion_6_residual_classifier_anchor():
    with criterion(6, "50-layer residual classifier: parameter count exact against "
                      "an independent per-layer summation; FLOPs at 224 within 2% "
                      "of the same script's matmul total"):
        spec = resnet50()

        # independent parameter summation
        params = 0
        for layer in spec.layers:
            if isinstance(layer, Conv2d):
                params += (layer.in_ch // layer.groups) * layer.out_ch * layer.kernel ** 2
                if layer.has_bias:
                    params += layer.out_ch
            elif isinstance(layer, BatchNorm):
                params += 2 * layer.ch
            elif isinstance(layer, Linear):
                params += layer.in_features * layer.out_features + layer.out_features
        assert params == 25_557_032
        rep = cost_report(spec, EvalConfig(input_resolution=224))
        assert sum(c.param_count for c in rep.per_layer) == params

        # independent matmul-only FLOP total (2 per multiply-accumulate)
        def out_side(r, k, s, p):
            return (r + 2 * p - k) // s + 1

        flops = 0
        side = 224
        sides = []
        for layer in spec.layers:
            if isinstance(layer, Conv2d):
                src = sides[layer.input_layer_index] if layer.input_layer_index is not None else side
                side = out_side(src, layer.kernel, layer.stride, layer.padding)
                flops += 2 * (layer.in_ch // layer.groups) * layer.out_ch * layer.kernel ** 2 * side * side
            elif isinstance(layer, Pool):
                side = out_side(side, layer.kernel, layer.stride, layer.padding)
            elif isinstance(layer, GlobalPool):
                side = 1
            elif isinstance(layer, Linear):
                flops += 2 * layer.in_features * layer.out_features
            sides.append(side)

        engine = cost_report(spec, EvalConfig(input_resolution=224)).flops
        assert abs(engine - flops) * 100 <= 2 * flops, (engine, flops)


def test_criterion_7_dominance_filter_equals_brute_force():
    with criterion(7, "non-dominated filtering equals an O(n^2) brute-force scan "
                      "on 1000 random point sets and is idempotent"):
        rng = np.random.default_rng(7)
        objectives2 = (("flops", "min"), ("total_memory_bytes", "min"))
        objectives3 = objectives2 + (("model_bytes", "min"),)
        for trial in range(1000):
            m = 2 if trial % 2 == 0 else 3
            n = int(rng.integers(1, 301))
            vals = rng.integers(0, 60, size=(n, m)).astype(np.int64)
            if n > 2:  # exact duplicates must survive together
                vals[rng.integers(0, n, n // 4)] = vals[rng.integers(0, n, n // 4)]
            points = [
                FrontierPoint(
                    config_id=f"p{i:03d}",
                    flops=int(v[0]),
                    peak_activation_bytes=1,
                    model_bytes=int(v[2]) if m == 3 else 1,
                    total_memory_bytes=int(v[1]),
                    annotations={},
                )
                for i, v in enumerate(vals)
            ]
            # brute force: vals[j] <= vals[i] everywhere and < somewhere
            le = (vals[None, :, :] <= vals[:, None, :]).all(axis=2)
            lt = (vals[None, :, :] < vals[:, None, :]).any(axis=2)
            dominated = (le & lt).any(axis=1)
            want = sorted(p.config_id for p, d in zip(points, dominated) if not d)

            front = pareto_front(points, objectives=objectives2 if m == 2 else objectives3)
            got = [p.config_id for p in front]
            assert got == want
            again = pareto_front(front, objectives=objectives2 if m == 2 else objectives3)
            assert again == front


def test_criterion_8_budget_matcher_vs_exhaustive_scan():
    with criterion(8, "budget matching on hidden/MLP/depth knobs returns the "
                      "exhaustive-scan optimum; unreachable budgets raise"):
        rng = random.Random(8)
        ranges = {K.DEPTH: (1, 48, 1), K.MLP: (1, 3072, 1), K.HIDDEN: (6, 1536, 6)}
        for knob, (lo, hi, step) in ranges.items():
            def flops_at(v):
                cfg = make_config(
                    "vit_small", vit_small(), EvalConfig(), [ScalingTransform(knob, v)]
                )
                return cost_report(cfg.spec, cfg.eval).flops

            grid = list(range(((lo + step - 1) // step) * step, hi + 1, step))
            table = {v: flops_at(v) for v in grid}
            f_lo, f_hi = table[grid[0]], table[grid[-1]]
            for _ in range(10):
                target = rng.randrange(f_lo, f_hi + 1)
                res = match_flops_budget(
                    vit_small(), EvalConfig(), knob, target, value_range=(lo, hi)
                )
                best = min(table, key=lambda v: (abs(table[v] - target), v))
                assert res.config.transforms[0].parameter == best
                assert res.deviation == abs(table[best] - target)
            for bad in (f_lo - 1, f_hi + 1):
                with pytest.raises(TargetUnreachable):
                    match_flops_budget(
                        vit_small(), EvalConfig(), knob, bad, value_range=(lo, hi)
                    )


def test_criterion_9_half_width_law():
    with criterion(9, "width ratio 0.5 on an even-channel conv stack: every "
                      "channel-to-channel conv costs exactly x0.25 FLOPs and "
                      "x0.5 activation elements; peak halves"):
        spec = CnnSpec(
            name="stack",
            input_channels=3,
            layers=(
                Conv2d(3, 16, kernel=3, padding=1),        # image-fed scaffold
                Conv2d(16, 32, kernel=3, padding=1),
                Conv2d(32, 64, kernel=3, stride=2, padding=1),
                Conv2d(64, 64, kernel=3, padding=1),
                Conv2d(64, 128, kernel=3, stride=2, padding=1),
            ),
        )
        cfg = EvalConfig(input_resolution=32)
        half, _ = apply_transform(spec, cfg, ScalingTransform(K.WIDTH, 0.5))
        base_rep = cost_report(spec, cfg)
        half_rep = cost_report(half, cfg)
        for i in range(1, 5):  # the channel-to-channel stack
            assert 4 * half_rep.per_layer[i].flops == base_rep.per_layer[i].flops, i
            assert 2 * half_rep.per_layer[i].activation_bytes == base_rep.per_layer[i].activation_bytes, i
        assert 2 * half_rep.peak_activation_bytes == base_rep.peak_activation_bytes


def test_criterion_10_selection_equals_filter_then_minimize():
    with criterion(10, "cheapest-within-drop selection equals brute-force "
                       "filter-then-minimize on 100 random annotated sweeps, "
                       "including a 0.75-point budget"):
        rng = random.Random(10)
        drops = [0.75] * 20 + [0.0, 0.25, 1.5, 5.0, 100.0] * 16
        for max_drop in drops:
            n = rng.randrange(2, 25)
            points = []
            rows = []
            for i in range(n):
                p = FrontierPoint(
                    config_id=f"c{i:02d}",
                    flops=rng.randrange(1, 500),
                    peak_activation_bytes=1,
                    model_bytes=1,
                    total_memory_bytes=rng.randrange(1, 500),
                    annotations={},
                )
                if rng.random() < 0.9:
                    metric = round(rng.uniform(70.0, 80.0), 2)
                    p.annotations["top1"] = metric
                    rows.append((p.config_id, "top1", metric))
                points.append(p)
            if not rows:
                continue
            table = AnnotationTable.from_rows(rows)
            baseline = rng.choice([cid for cid, _, _ in rows])
            base_val = table.get(baseline, "top1")
            feasible = [
                p for p in points
                if "top1" in p.annotations and p.annotations["top1"] >= base_val - max_drop
            ]
            if feasible:
                want = min(feasible, key=lambda p: (p.flops, p.config_id)).config_id
                got = best_compressed(
                    points, table, metric="top1", max_drop=max_drop,
                    objective="flops", baseline_id=baseline,
                )
                assert got.config_id == want
            else:
                with pytest.raises(NoFeasibleCandidate):
                    best_compressed(
                        points, table, metric="top1", max_drop=max_drop,
                        objective="flops", baseline_id=baseline,
                    )


def test_criterion_11_sweep_determinism(tmp_path):
    with criterion(11, "two sweep runs over the token/patch space write "
                       "byte-identical frontier.csv and pareto.csv"):
        space = tmp_path / "space.json"
        space.write_text(json.dumps({
            "base": "vit_small",
            "eval": {"flop_convention": "full_count"},
            "axes": [
                {"kind": "N", "values": [9, 11]},
                {"kind": "patch", "values": [8, 12, 16, 24, 32]},
            ],
        }))
        dirs = (tmp_path / "run_a", tmp_path / "run_b")
        for d in dirs:
            assert main(["sweep", str(space), "--out", str(d)]) == 0
        a, b = dirs
        assert (a / "frontier.csv").read_bytes() == (b / "frontier.csv").read_bytes()
        assert (a / "pareto.csv").read_bytes() == (b / "pareto.csv").read_bytes()
        # ten configs, none skipped
        assert len((a / "frontier.csv").read_text().splitlines()) == 11
