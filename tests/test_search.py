"""Sweep enumeration, frontier extraction, budget matching, selection.

Matching and selection are checked against exhaustive scans written
independently of the bisection/filter code under test.
"""

import itertools
import logging
import random
from fractions import Fraction

import pytest

import visioncost.scaling
from visioncost.arch import CnnSpec, Conv2d, EvalConfig, GlobalPool, Linear
from visioncost.cost import InfeasibleResolution, ShapeMismatch, cost_report
from visioncost.presets import grouped_seg_backbone, resnet50, vit_small
from visioncost.scaling import ScalingError, ScalingTransform, TransformKind, make_config
from visioncost.search import (
    AnnotationTable,
    FrontierPoint,
    NoFeasibleCandidate,
    SkippedConfig,
    SpaceTooLarge,
    SweepAxis,
    SweepSpace,
    TargetUnreachable,
    best_compressed,
    enumerate_space,
    evaluate_space,
    match_flops_budget,
    pareto_front,
    point_from_report,
)

K = TransformKind


def vit_space(axes, cap=None):
    kwargs = {"cap": cap} if cap is not None else {}
    return SweepSpace(
        base_name="vit_small",
        base_spec=vit_small(),
        base_eval=EvalConfig(),
        axes=tuple(axes),
        **kwargs,
    )


def pt(cid, flops, mem, **annotations):
    return FrontierPoint(
        config_id=cid,
        flops=flops,
        peak_activation_bytes=mem // 2,
        model_bytes=mem - mem // 2,
        total_memory_bytes=mem,
        annotations=annotations,
    )


class TestEnumerate:
    def test_product_order_first_axis_slowest(self):
        space = vit_space(
            [SweepAxis(K.RESOLUTION, (9, 11)), SweepAxis(K.DEPTH, (6, 12))]
        )
        enum = enumerate_space(space)
        ids = [c.config_id for c in enum.configs]
        assert ids == [
            "vit_small;N=9;depth=6",
            "vit_small;N=9;depth=12",
            "vit_small;N=11;depth=6",
            "vit_small;N=11;depth=12",
        ]

    def test_cap_enforced_before_any_work(self):
        space = vit_space([SweepAxis(K.DEPTH, tuple(range(1, 101)))], cap=50)
        with pytest.raises(SpaceTooLarge):
            enumerate_space(space)

    def test_invalid_combinations_are_skipped_with_reason(self):
        space = vit_space([SweepAxis(K.DEPTH, (0, 6))])  # depth 0 is invalid
        enum = enumerate_space(space)
        assert len(enum.configs) == 1
        assert len(enum.skipped) == 1
        assert enum.skipped[0].values == (0,)
        assert enum.skipped[0].reason

    def test_evaluate_costs_each_config_once_in_order(self):
        space = vit_space([SweepAxis(K.DEPTH, (0, 6, 12))])
        skipped = []
        pairs = list(evaluate_space(space, skipped))
        assert [c.config_id for c, _ in pairs] == ["vit_small;depth=6", "vit_small;depth=12"]
        for config, report in pairs:
            assert report == cost_report(config.spec, config.eval)
        assert [s.values for s in skipped] == [(0,)]

    def test_cnn_resolution_a_flattening_classifier_does_not_fit_is_skipped(self):
        # valid at the 64-pixel probe only: the linear layer reads 2*62*62 inputs
        spec = CnnSpec("flat", 3, (Conv2d(3, 2, kernel=3), Linear(2 * 62 * 62, 10)))
        space = SweepSpace("flat", spec, EvalConfig(), (SweepAxis(K.RESOLUTION, (64, 32)),))
        enum = enumerate_space(space)
        assert [c.config_id for c in enum.configs] == ["flat;N=64"]
        assert "does not match flattened input size 1800" in enum.skipped[0].reason

    @pytest.mark.parametrize(
        "space",
        [
            # group width 3 makes the grouped conv's 18 outputs indivisible by
            # its 4 groups: a failing first-axis prefix; N=4 is infeasible last
            SweepSpace(
                "grp",
                CnnSpec("grp", 3, (
                    Conv2d(3, 8, kernel=3), Conv2d(8, 12, kernel=3, groups=4),
                    GlobalPool(), Linear(12, 10),
                )),
                EvalConfig(),
                (SweepAxis(K.GROUP_WIDTH, (2, 3, 4)), SweepAxis(K.BATCH, (1, 2)),
                 SweepAxis(K.RESOLUTION, (4, 5, 16))),
            ),
            # depth 0 fails in the middle axis
            vit_space([SweepAxis(K.RESOLUTION, (6, 9)), SweepAxis(K.DEPTH, (0, 2)),
                       SweepAxis(K.DTYPE, ("fp32", "int8"))]),
            SweepSpace(
                "seg", grouped_seg_backbone(), EvalConfig(input_resolution=64),
                (SweepAxis(K.GROUP_WIDTH, (0, 8, 16)), SweepAxis(K.RESOLUTION, (32, 48))),
            ),
            SweepSpace(
                "r", resnet50(), EvalConfig(),
                (SweepAxis(K.WIDTH, (0.5, 1.0, -1.0)), SweepAxis(K.RESOLUTION, (32, 64)),
                 SweepAxis(K.BATCH, (1, 0))),
            ),
            vit_space([]),
        ],
        ids=["grouped", "vit-depth", "seg", "resnet", "no-axes"],
    )
    def test_evaluate_equals_make_config_per_combination(self, space, caplog):
        want, want_skipped = [], []
        for combo in itertools.product(*(axis.values for axis in space.axes)):
            chain = [ScalingTransform(a.kind, v) for a, v in zip(space.axes, combo)]
            try:
                config = make_config(space.base_name, space.base_spec, space.base_eval, chain)
                want.append((config, cost_report(config.spec, config.eval)))
            except (ScalingError, InfeasibleResolution, ShapeMismatch) as exc:
                want_skipped.append(SkippedConfig(combo, str(exc)))
        skipped = []
        with caplog.at_level(logging.WARNING):
            got = list(evaluate_space(space, skipped))
        assert got == want
        assert [c.config_id for c, _ in got] == [c.config_id for c, _ in want]
        assert skipped == want_skipped
        assert [r.getMessage() for r in caplog.records] == [
            f"skipping {s.values}: {s.reason}" for s in want_skipped
        ]

    def test_each_transform_runs_once_per_prefix(self, monkeypatch):
        calls = []
        real = visioncost.scaling.width_scale

        def counting(spec, ratio, *args):
            calls.append(ratio)
            return real(spec, ratio, *args)

        monkeypatch.setattr(visioncost.scaling, "width_scale", counting)
        space = SweepSpace(
            "r", resnet50(), EvalConfig(),
            (SweepAxis(K.WIDTH, (0.5, 0.75, 1.0)), SweepAxis(K.RESOLUTION, (32, 64)),
             SweepAxis(K.BATCH, (1, 2))),
        )
        assert len(list(evaluate_space(space, []))) == 12
        assert calls == [0.5, 0.75, 1.0]

    def test_size_property(self):
        space = vit_space(
            [SweepAxis(K.RESOLUTION, (9, 11, 13)), SweepAxis(K.DEPTH, (6, 12))]
        )
        assert space.size == 6

    def test_empty_axis_rejected(self):
        with pytest.raises(ValueError):
            SweepAxis(K.DEPTH, ())


class TestParetoFront:
    def test_semantics_on_known_points(self):
        points = [
            pt("a", 10, 10),
            pt("b", 5, 20),
            pt("c", 20, 5),
            pt("d", 10, 10),   # duplicate objectives, distinct id: kept
            pt("e", 11, 11),   # dominated by a
        ]
        front = pareto_front(points)
        assert [p.config_id for p in front] == ["a", "b", "c", "d"]

    def test_duplicate_config_ids_collapse_to_first(self):
        points = [pt("a", 10, 10, top1=1.0), pt("a", 99, 99), pt("b", 9, 50)]
        front = pareto_front(points)
        ids = [p.config_id for p in front]
        assert ids == ["a", "b"]
        assert front[0].annotations == {"top1": 1.0}

    def test_sorted_by_config_id(self):
        points = [pt("z", 1, 9), pt("a", 9, 1)]
        assert [p.config_id for p in pareto_front(points)] == ["a", "z"]

    def test_idempotent(self):
        rng = random.Random(5)
        points = [
            pt(f"c{i}", rng.randrange(100), rng.randrange(100)) for i in range(60)
        ]
        once = pareto_front(points)
        assert pareto_front(once) == once

    def test_max_objective_direction(self):
        points = [pt("a", 10, 10, top1=0.5), pt("b", 10, 10, top1=0.9)]
        front = pareto_front(points, objectives=(("flops", "min"), ("top1", "max")))
        assert [p.config_id for p in front] == ["b"]

    def test_empty_input_rejected(self):
        with pytest.raises(ValueError):
            pareto_front([])

    def test_missing_annotation_objective_rejected(self):
        with pytest.raises(KeyError):
            pareto_front([pt("a", 1, 1)], objectives=(("nope", "min"),))


class TestAnnotationTable:
    def test_round_trip_and_lookup(self, tmp_path):
        p = tmp_path / "ann.csv"
        p.write_text("config_id,metric,value\na,top1,0.7\na,top5,0.9\nb,top1,0.6\n")
        table = AnnotationTable.from_csv(p)
        assert table.get("a", "top1") == 0.7
        assert table.for_config("a") == {"top1": 0.7, "top5": 0.9}
        assert table.metrics() == ["top1", "top5"]
        assert len(table) == 3

    def test_header_must_match_exactly(self, tmp_path):
        p = tmp_path / "ann.csv"
        p.write_text("config,metric,value\na,top1,0.7\n")
        with pytest.raises(ValueError, match="header"):
            AnnotationTable.from_csv(p)

    def test_duplicate_key_reports_both_lines(self, tmp_path):
        p = tmp_path / "ann.csv"
        p.write_text("config_id,metric,value\na,top1,0.7\na,top1,0.8\n")
        with pytest.raises(ValueError, match="line 2 and line 3"):
            AnnotationTable.from_csv(p)

    def test_bad_float_reports_line(self, tmp_path):
        p = tmp_path / "ann.csv"
        p.write_text("config_id,metric,value\na,top1,high\n")
        with pytest.raises(ValueError, match="line 2"):
            AnnotationTable.from_csv(p)

    @pytest.mark.parametrize("raw", ["nan", "inf", "-inf", "NaN"])
    def test_non_finite_value_reports_line(self, tmp_path, raw):
        p = tmp_path / "ann.csv"
        p.write_text(f"config_id,metric,value\na,top1,0.7\nb,top1,{raw}\n")
        with pytest.raises(ValueError, match="line 3"):
            AnnotationTable.from_csv(p)

    def test_by_config_groups_in_metric_order(self):
        table = AnnotationTable.from_rows(
            [("b", "top5", 0.9), ("a", "top5", 0.8), ("b", "top1", 0.6), ("a", "top1", 0.7)]
        )
        grouped = table.by_config()
        assert list(grouped) == ["a", "b"]
        assert list(grouped["b"].items()) == [("top1", 0.6), ("top5", 0.9)]
        assert grouped["a"] == table.for_config("a")

    def test_empty_file_warns_and_yields_empty_table(self, tmp_path, caplog):
        p = tmp_path / "ann.csv"
        p.write_text("")
        with caplog.at_level("WARNING"):
            table = AnnotationTable.from_csv(p)
        assert len(table) == 0
        assert any("empty" in r.message for r in caplog.records)

    def test_wrong_column_count(self, tmp_path):
        p = tmp_path / "ann.csv"
        p.write_text("config_id,metric,value\na,top1\n")
        with pytest.raises(ValueError):
            AnnotationTable.from_csv(p)


class TestFrontierPoints:
    def test_reports_and_annotations_attached(self):
        space = vit_space([SweepAxis(K.RESOLUTION, (9, 14))])
        table = AnnotationTable.from_rows([("vit_small;N=9", "top1", 0.71)])
        annotations = table.by_config()
        points = [
            point_from_report(config.config_id, report, annotations.get(config.config_id))
            for config, report in evaluate_space(space, [])
        ]
        assert len(points) == 2
        assert points[0].flops == 2_702_239_704
        assert points[0].annotations == {"top1": 0.71}
        assert points[1].flops == 6_959_078_784
        assert points[1].annotations == {}

    def test_objective_value_lookup(self):
        p = pt("a", 5, 10, top1=0.5)
        assert p.objective_value("flops") == 5
        assert p.objective_value("top1") == 0.5
        with pytest.raises(KeyError):
            p.objective_value("nope")


class TestBudgetMatcher:
    def exhaustive_best(self, knob, lo, hi, step, target):
        """Independent scan of the aligned grid, same tie-break contract:
        smallest |flops - target|, then the smaller knob value."""
        best = None
        start = ((lo + step - 1) // step) * step
        for v in range(start, hi + 1, step):
            cfg = make_config(
                "vit_small", vit_small(), EvalConfig(), [ScalingTransform(knob, v)]
            )
            f = cost_report(cfg.spec, cfg.eval).flops
            key = (abs(f - target), v)
            if best is None or key < best[0]:
                best = (key, v, f)
        return best

    @pytest.mark.parametrize(
        "knob,lo,hi,step",
        [
            (K.DEPTH, 1, 48, 1),
            (K.MLP, 1, 4096, 1),
            (K.HIDDEN, 6, 1536, 6),
        ],
    )
    def test_matches_exhaustive_scan(self, knob, lo, hi, step):
        rng = random.Random(hash(knob.value) & 0xFFFF)
        f_lo = cost_report(
            make_config("vit_small", vit_small(), EvalConfig(), [ScalingTransform(knob, lo)]).spec,
            EvalConfig(),
        ).flops
        f_hi = cost_report(
            make_config("vit_small", vit_small(), EvalConfig(), [ScalingTransform(knob, hi)]).spec,
            EvalConfig(),
        ).flops
        for _ in range(6):
            target = rng.randrange(f_lo, f_hi + 1)
            res = match_flops_budget(
                vit_small(), EvalConfig(), knob, target, value_range=(lo, hi)
            )
            _, want_v, want_f = self.exhaustive_best(knob, lo, hi, step, target)
            got_v = res.config.transforms[0].parameter
            assert abs(res.flops - target) == abs(want_f - target)
            assert got_v == want_v
            assert res.deviation == abs(res.flops - target)

    def test_unreachable_above_and_below(self):
        for target in (1, 10**18):
            with pytest.raises(TargetUnreachable) as exc:
                match_flops_budget(
                    vit_small(), EvalConfig(), K.DEPTH, target, value_range=(1, 48)
                )
            lo, hi = exc.value.attainable
            assert lo == 579_923_232  # one block
            assert hi == 48 * 579_923_232
            assert not (lo <= target <= hi)

    def test_exact_target_has_zero_deviation(self):
        res = match_flops_budget(
            vit_small(), EvalConfig(), K.DEPTH, 6 * 579_923_232, value_range=(1, 48)
        )
        assert res.deviation == 0
        assert res.config.transforms[0].parameter == 6
        assert res.relaxed_value == 6.0
        assert res.bracket is None

    def test_tolerance_miss_attaches_bracket(self):
        # depth is the only knob: targets between two depths can miss a
        # tight tolerance; the bracket must straddle the target
        target = int(6.5 * 579_923_232)
        res = match_flops_budget(
            vit_small(), EvalConfig(), K.DEPTH, target, tol=1e-6, value_range=(1, 48)
        )
        assert not res.within_tol
        assert res.bracket is not None
        lo_cfg, hi_cfg = res.bracket
        f_lo = cost_report(lo_cfg.spec, lo_cfg.eval).flops
        f_hi = cost_report(hi_cfg.spec, hi_cfg.eval).flops
        assert f_lo <= target <= f_hi
        assert 6.4 < res.relaxed_value < 6.6

    def test_tolerance_is_exact_above_2_53(self):
        # deviation 1_000_002 exceeds tol * target by a sliver that the
        # float product (target rounded to 53 bits) rounds away
        target, tol = 6 * 2**24 * 579_923_232 + 1_000_002, 1.7130073055272696e-11
        res = match_flops_budget(
            vit_small(), EvalConfig(batch_size=2**24), K.DEPTH, target, tol=tol,
            value_range=(1, 48),
        )
        assert target > 2**53 and res.deviation == 1_000_002
        assert res.deviation <= tol * target  # what float arithmetic says
        assert res.deviation > Fraction(tol) * target
        assert res.within_tol is False
        assert res.bracket is not None

    def test_resolution_knob_on_cnn(self):
        base = cost_report(resnet50(), EvalConfig(input_resolution=224)).flops
        res = match_flops_budget(
            resnet50(),
            EvalConfig(input_resolution=224),
            K.RESOLUTION,
            base // 4,
            value_range=(32, 224),
        )
        v = res.config.transforms[0].parameter
        # quartering FLOPs needs roughly half the side length
        assert 96 <= v <= 128
        got = cost_report(res.config.spec, res.config.eval).flops
        assert got == res.flops

    def test_cnn_resolution_plateau_ties_go_to_smaller_value(self):
        # ResNet-50 has the same FLOPs at 195 and 196; a target just above
        # both must pick 195, as an exhaustive scan of 150..199 does.
        flops = {}
        for v in range(150, 200):
            cfg = make_config("r", resnet50(), EvalConfig(), [ScalingTransform(K.RESOLUTION, v)])
            flops[v] = cost_report(cfg.spec, cfg.eval).flops
        assert flops[195] == flops[196] == 6_971_715_496
        targets = [6_998_120_402] + sorted(set(flops.values()))
        targets += [f + 1 for f in targets] + [f - 1 for f in targets]
        for target in targets:
            if not flops[150] <= target <= flops[199]:
                continue
            res = match_flops_budget(
                resnet50(), EvalConfig(), K.RESOLUTION, target, value_range=(150, 199)
            )
            want = min(flops, key=lambda v: (abs(flops[v] - target), v))
            assert res.config.transforms[0].parameter == want, target
            assert res.flops == flops[want]

    def test_hidden_values_stay_on_head_multiples(self):
        res = match_flops_budget(
            vit_small(), EvalConfig(), K.HIDDEN, 3_000_000_000, value_range=(6, 1536)
        )
        assert res.config.transforms[0].parameter % 6 == 0


class TestBestCompressed:
    def oracle(self, points, metric, max_drop, objective, baseline_id):
        by_id = {}
        for p in points:
            by_id.setdefault(p.config_id, p)
        base = by_id[baseline_id].annotations[metric]
        feasible = [
            p
            for p in by_id.values()
            if metric in p.annotations and p.annotations[metric] >= base - max_drop
        ]
        if not feasible:
            return None
        return min(feasible, key=lambda p: (p.objective_value(objective), p.config_id))

    def test_matches_oracle_on_random_tables(self):
        rng = random.Random(99)
        for _ in range(100):
            n = rng.randrange(2, 30)
            points = []
            for i in range(n):
                annotations = {}
                if rng.random() < 0.85:
                    annotations["top1"] = round(rng.uniform(60, 80), 2)
                points.append(
                    pt(f"c{i:02d}", rng.randrange(1, 1000), rng.randrange(1, 1000), **annotations)
                )
            annotated = [p for p in points if "top1" in p.annotations]
            if not annotated:
                continue
            baseline = rng.choice(annotated).config_id
            max_drop = rng.choice([0.0, 0.5, 0.75, 2.0, 50.0])
            table = AnnotationTable.from_rows(
                (p.config_id, m, v) for p in points for m, v in p.annotations.items()
            )
            want = self.oracle(points, "top1", max_drop, "flops", baseline)
            if want is None:
                with pytest.raises(NoFeasibleCandidate):
                    best_compressed(
                        points, table, metric="top1", max_drop=max_drop,
                        objective="flops", baseline_id=baseline,
                    )
            else:
                got = best_compressed(
                    points, table, metric="top1", max_drop=max_drop,
                    objective="flops", baseline_id=baseline,
                )
                assert got.config_id == want.config_id

    def test_unannotated_points_excluded_with_warning(self, caplog):
        points = [
            pt("base", 100, 100, top1=75.0),
            pt("cheap_unknown", 1, 1),
            pt("ok", 50, 50, top1=74.9),
        ]
        table = AnnotationTable.from_rows(
            [("base", "top1", 75.0), ("ok", "top1", 74.9)]
        )
        with caplog.at_level("WARNING"):
            got = best_compressed(
                points, table, metric="top1", max_drop=0.75,
                objective="flops", baseline_id="base",
            )
        assert got.config_id == "ok"
        assert any("cheap_unknown" in r.message for r in caplog.records)

    def test_baseline_must_exist_and_be_annotated(self):
        points = [pt("a", 1, 1, top1=70.0)]
        table = AnnotationTable.from_rows([("a", "top1", 70.0)])
        with pytest.raises(ValueError):
            best_compressed(
                points, table, metric="top1", max_drop=0.5,
                objective="flops", baseline_id="missing",
            )

    def test_no_feasible_candidate(self):
        points = [pt("base", 10, 10, top1=75.0), pt("bad", 1, 1, top1=10.0)]
        table = AnnotationTable.from_rows(
            [("base", "top1", 75.0), ("bad", "top1", 10.0)]
        )
        # baseline itself is feasible, so the cheapest feasible is base
        got = best_compressed(
            points, table, metric="top1", max_drop=0.75,
            objective="flops", baseline_id="base",
        )
        assert got.config_id == "base"
