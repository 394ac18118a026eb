"""Sweep enumeration, frontier extraction, budget matching, selection.

Matching and selection are checked against exhaustive scans written
independently of the bisection/filter code under test.
"""

import contextlib
import csv
import io
import itertools
import logging
import random
import sys
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import visioncost.scaling
from visioncost import search
from visioncost.arch import (
    CnnSpec, Conv2d, EvalConfig, FlopConvention, GlobalPool, Linear, Pool,
)
from visioncost.cost import InfeasibleResolution, ShapeMismatch, cost_report
from visioncost.presets import grouped_seg_backbone, resnet50, vit_small
from visioncost.scaling import ScalingError, ScalingTransform, TransformKind, make_config
from visioncost.search import (
    FRONTIER_COLUMNS,
    AnnotationTable,
    FrontierPoint,
    MAX_BISECTION_ITERATIONS,
    NoFeasibleCandidate,
    SkippedConfig,
    SpaceTooLarge,
    SweepAxis,
    SweepSpace,
    TargetUnreachable,
    best_compressed,
    enumerate_space,
    match_flops_budget,
    pareto_front,
    point_from_report,
    read_frontier_csv,
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
        skipped = []
        ids = [c.config_id for c, _ in enumerate_space(space, skipped)]
        assert skipped == []
        assert ids == [
            "vit_small;N=9;depth=6",
            "vit_small;N=9;depth=12",
            "vit_small;N=11;depth=6",
            "vit_small;N=11;depth=12",
        ]

    def test_cap_enforced_before_any_work(self):
        space = vit_space([SweepAxis(K.DEPTH, tuple(range(1, 101)))], cap=50)
        skipped = []
        # at the call, not at the first next(): nothing here iterates it
        with pytest.raises(SpaceTooLarge, match="100 combinations, cap is 50"):
            enumerate_space(space, skipped)
        assert skipped == []

    def test_invalid_combinations_are_skipped_with_reason(self):
        space = vit_space([SweepAxis(K.DEPTH, (0, 6))])  # depth 0 is invalid
        skipped = []
        configs = [c for c, _ in enumerate_space(space, skipped)]
        assert [c.config_id for c in configs] == ["vit_small;depth=6"]
        assert len(skipped) == 1
        assert skipped[0].values == (0,)
        assert skipped[0].reason

    def test_skip_line_is_cut_but_the_record_is_whole(self, caplog):
        value = -int("1" * 2200)
        skipped = []
        with caplog.at_level(logging.WARNING):
            assert list(enumerate_space(vit_space([SweepAxis(K.HIDDEN, (value,))]), skipped)) == []
        assert skipped == [SkippedConfig((value,), f"hidden size must be >= 1, got {value}")]
        (message,) = [r.getMessage() for r in caplog.records]
        combo, reason = message.removeprefix("skipping ").split(": ", 1)
        assert (len(combo), len(reason)) == (200, 200)
        assert combo == repr((value,))[:199] + "\u2026"
        assert reason == skipped[0].reason[:199] + "\u2026"

    def test_evaluate_costs_each_config_once_in_order(self):
        space = vit_space([SweepAxis(K.DEPTH, (0, 6, 12))])
        skipped = []
        pairs = list(enumerate_space(space, skipped))
        assert [c.config_id for c, _ in pairs] == ["vit_small;depth=6", "vit_small;depth=12"]
        for config, report in pairs:
            assert report == cost_report(config.spec, config.eval)
        assert [s.values for s in skipped] == [(0,)]

    def test_cnn_resolution_a_flattening_classifier_does_not_fit_is_skipped(self):
        # the linear layer reads the 2*62*62 map of a 64-pixel input only
        spec = CnnSpec("flat", 3, (Conv2d(3, 2, kernel=3), Linear(2 * 62 * 62, 10)))
        space = SweepSpace("flat", spec, EvalConfig(), (SweepAxis(K.RESOLUTION, (64, 32)),))
        skipped = []
        assert [c.config_id for c, _ in enumerate_space(space, skipped)] == ["flat;N=64"]
        assert "does not match flattened input size 1800" in skipped[0].reason

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
            got = list(enumerate_space(space, skipped))
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
        assert len(list(enumerate_space(space, []))) == 12
        assert calls == [0.5, 0.75, 1.0]

    def test_size_property(self):
        space = vit_space(
            [SweepAxis(K.RESOLUTION, (9, 11, 13)), SweepAxis(K.DEPTH, (6, 12))]
        )
        assert space.size == 6


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

    def test_empty_input_rejected(self):
        with pytest.raises(ValueError):
            pareto_front([])


class TestAnnotationTable:
    def test_round_trip_and_lookup(self, tmp_path):
        p = tmp_path / "ann.csv"
        p.write_text("config_id,metric,value\na,top1,0.7\na,top5,0.9\nb,top1,0.6\n")
        table = AnnotationTable.from_csv(p)
        assert table.values[("a", "top1")] == 0.7
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

    @settings(max_examples=200, deadline=None)
    @given(
        values=st.dictionaries(
            st.tuples(
                st.sampled_from(["a", "b", "vit_small;N=9", "vit_small;N=09"]),
                st.sampled_from(["top1", "top5", "Top1", "miou"]),
            ),
            st.floats(-1e3, 1e3),
        ),
        cid=st.sampled_from(["a", "b", "vit_small;N=9", "absent", ""]),
    )
    @example(values={}, cid="a")
    @example(
        values={("b", "top5"): 0.9, ("a", "top5"): 0.8, ("b", "top1"): 0.6, ("a", "top1"): 0.7},
        cid="b",
    )
    def test_for_config_equals_filter_and_sort(self, values, cid):
        table = AnnotationTable(values)
        want = sorted((m, v) for (c, m), v in table.values.items() if c == cid)
        got = table.for_config(cid)
        assert list(got.items()) == want
        got["extra"] = 1.0  # a copy: the table's own stays as it was
        assert list(table.for_config(cid).items()) == want

    def test_empty_file_yields_empty_table(self, tmp_path):
        # The CLI warns of an empty table: test_empty_annotations_warn_once.
        p = tmp_path / "ann.csv"
        p.write_text("")
        assert len(AnnotationTable.from_csv(p)) == 0

    def test_wrong_column_count(self, tmp_path):
        p = tmp_path / "ann.csv"
        p.write_text("config_id,metric,value\na,top1\n")
        with pytest.raises(ValueError):
            AnnotationTable.from_csv(p)


class TestFrontierPoints:
    def test_reports_and_annotations_attached(self):
        space = vit_space([SweepAxis(K.RESOLUTION, (9, 14))])
        table = AnnotationTable({("vit_small;N=9", "top1"): 0.71})
        points = [
            point_from_report(config.config_id, report, table.for_config(config.config_id))
            for config, report in enumerate_space(space, [])
        ]
        assert len(points) == 2
        assert points[0].flops == 2_702_239_704
        assert points[0].annotations == {"top1": 0.71}
        assert points[1].flops == 6_959_078_784
        assert points[1].annotations == {}


# Frontier cells: well-formed ones, and ones the reader must refuse.
VALID_COUNT = st.integers(0, 10**12).map(str)
VALID_METRIC = st.floats(-1e6, 1e6).map(repr)
BAD_COUNTS = ["", "+1", " 1", "1_0", "\u0661", "\u00b2", "1" * 5000, "1.5", "-3", "0x1"]
BAD_METRICS = ["nan", "inf", "-inf", "1e400", "abc", "7_0", "\u0667\u0660", "1" * 5000]
BAD_COUNT = st.sampled_from(BAD_COUNTS)
BAD_METRIC = st.sampled_from(BAD_METRICS)
ODD_IDS = st.sampled_from(["c0", "x,y", "x\ny", '"q"', "", " c1"])
FAULTS = st.sampled_from(
    ["count", "metric", "unannotated", "id", "short", "long", "blank", "repeat"]
)
HEADER_FAULTS = st.sampled_from([None] * 8 + ["repeated", "short"])


def frontier_outcome(read, path):
    """What ``read`` makes of a frontier file: its metrics and its points,
    each with the types of its values, or its error's class and message."""
    try:
        points, metrics = read(path)
    except (ValueError, csv.Error) as exc:
        return type(exc), str(exc)
    return metrics, [
        (type(p), p, [type(v) for v in p[1:5]], [(m, type(v)) for m, v in p.annotations.items()])
        for p in points
    ]


class TestFrontierReader:
    """``read_frontier_csv`` checks a column at a time and hands any file
    that fails to the row loop; both must agree on every file."""

    @settings(max_examples=500, deadline=None, database=None)
    @given(data=st.data())
    def test_equals_the_row_loop(self, tmp_path_factory, data):
        metrics = data.draw(st.sampled_from([[], ["top1"], ["top1", "top5"]]))
        header = list(FRONTIER_COLUMNS) + metrics
        header_fault = data.draw(HEADER_FAULTS)
        if header_fault == "repeated":
            header.append(header[-1])
        elif header_fault == "short":
            del header[data.draw(st.integers(0, len(header) - 1)) :]
        rows = [
            [f"c{i}", *data.draw(st.lists(VALID_COUNT, min_size=4, max_size=4))]
            + data.draw(st.lists(VALID_METRIC, min_size=len(metrics), max_size=len(metrics)))
            for i in range(data.draw(st.integers(0, 8)))
        ]
        # At most two faulty rows, so that a fault is often a file's only one.
        faults = data.draw(st.lists(
            st.tuples(FAULTS, st.integers(0, max(len(rows) - 1, 0))),
            max_size=min(len(rows), 2), unique_by=lambda fault: fault[1],
        ))
        for fault, i in faults:
            row = rows[i]
            if fault == "count":
                row[data.draw(st.integers(1, 4))] = data.draw(BAD_COUNT)
            elif fault == "metric" and metrics:
                row[data.draw(st.integers(5, len(row) - 1))] = data.draw(BAD_METRIC)
            elif fault == "unannotated" and metrics:
                row[data.draw(st.integers(5, len(row) - 1))] = ""
            elif fault == "id":
                row[0] = data.draw(ODD_IDS)
            elif fault == "short":
                del row[data.draw(st.integers(0, len(row) - 1)) :]
            elif fault == "long":
                row.append("1")
            elif fault == "repeat":
                row[0] = f"c{data.draw(st.integers(0, len(rows) - 1))}"
        for fault, i in sorted(faults, key=lambda fault: -fault[1]):
            if fault == "blank":
                rows.insert(i, [])
        buf = io.StringIO(newline="")
        writer = csv.writer(buf, lineterminator=data.draw(st.sampled_from(["\n", "\r\n"])))
        writer.writerows([header, *rows])
        path = tmp_path_factory.mktemp("frontier") / "frontier.csv"
        path.write_bytes(buf.getvalue().encode("utf-8"))
        want = frontier_outcome(search._read_frontier_rows, path)
        assert frontier_outcome(read_frontier_csv, path) == want

    @pytest.mark.parametrize(
        "column, cell",
        [(4, cell) for cell in BAD_COUNTS] + [(6, cell) for cell in ["", *BAD_METRICS]],
    )
    def test_one_bad_cell_equals_the_row_loop(self, tmp_path, column, cell):
        # The sampled faults above reach each cell now and then; this reaches each every run.
        rows = [[f"c{i}", "1", "2", "3", "5", "70.5", "90"] for i in range(3)]
        rows[1][column] = cell
        buf = io.StringIO(newline="")
        csv.writer(buf).writerows([[*FRONTIER_COLUMNS, "top1", "top5"], *rows])
        path = tmp_path / "frontier.csv"
        path.write_text(buf.getvalue(), encoding="utf-8", newline="")
        want = frontier_outcome(search._read_frontier_rows, path)
        assert want[0] is ValueError or cell == ""
        assert frontier_outcome(read_frontier_csv, path) == want

    def test_well_formed_file_skips_the_row_loop(self, tmp_path, monkeypatch):
        lines = [",".join(FRONTIER_COLUMNS + ("top1", "top5"))]
        lines += [f"c{i},{i},{i + 1},{i + 2},{2 * i + 3},{70 + i / 8},{90 + i % 3}"
                  for i in range(600)]
        lines.insert(7, "")  # a blank line
        lines.insert(9, '"x,\r\ny",1,2,3,5,70,90')  # a quoted line break
        path = tmp_path / "frontier.csv"
        path.write_bytes("\r\n".join(lines).encode("utf-8") + b"\r\n")
        want = frontier_outcome(search._read_frontier_rows, path)
        monkeypatch.setattr(search, "_read_frontier_rows", None)
        assert frontier_outcome(read_frontier_csv, path) == want
        points, metrics = read_frontier_csv(path)
        assert metrics == ["top1", "top5"] and len(points) == 601
        assert points[7] == ("x,\ny", 1, 2, 3, 5, {"top1": 70.0, "top5": 90.0})
        assert points[0].annotations == {"top1": 70.0, "top5": 90.0}
        assert points[2].annotations == {"top1": 70.25, "top5": 92.0}
        # CRLF reads as LF, in a cell too.
        path.write_bytes(b"".join(line.encode() + b"\n" for line in lines).replace(b"\r", b""))
        assert read_frontier_csv(path) == (points, metrics)

    def test_undecodable_byte_names_its_position_in_the_file(self, tmp_path):
        # Past the first 8 KiB the file is decoded from, so a position
        # counted from the chunk that fails would be wrong.
        header = ",".join(FRONTIER_COLUMNS) + ",top1\n"
        rows = [f"vit_small;N={i},1000,2000,3000,5000,70.5\n" for i in range(600)]
        data = "".join([header, *rows[:500]]).encode() + b"\xff" + "".join(rows[500:]).encode()
        path = tmp_path / "frontier.csv"
        path.write_bytes(data)
        with pytest.raises(UnicodeDecodeError) as want:
            data.decode("utf-8")
        assert want.value.start > 16 * 1024
        with pytest.raises(UnicodeDecodeError) as got:
            read_frontier_csv(path)
        assert str(got.value) == str(want.value)


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

    def test_infeasible_resolutions_lift_the_range_by_bisection(self, monkeypatch):
        # a 100,000-pixel kernel fits no smaller input: the lift finds the
        # first feasible value in a few dozen walks, not one per value below
        spec = CnnSpec("wide", 3, (Conv2d(3, 1, kernel=100_000), GlobalPool(), Linear(1, 1)))
        walked = []

        def counting(spec, cfg=None, **kwargs):
            walked.append(cfg.input_resolution)
            return cost_report(spec, cfg, **kwargs)

        monkeypatch.setattr(visioncost.search, "cost_report", counting)
        first = cost_report(spec, EvalConfig(input_resolution=100_000)).flops
        res = match_flops_budget(spec, EvalConfig(), K.RESOLUTION, first, value_range=(1, 10**6))
        assert res.config.config_id == "base;N=100000" and res.flops == first
        assert len(walked) <= 2 * MAX_BISECTION_ITERATIONS + 4
        with pytest.raises(TargetUnreachable) as exc:
            match_flops_budget(spec, EvalConfig(), K.RESOLUTION, 1, value_range=(1, 10**6))
        assert exc.value.attainable[0] == first
        with pytest.raises(ValueError, match=r"no feasible knob value in \[1, 99999\]"):
            match_flops_budget(spec, EvalConfig(), K.RESOLUTION, first, value_range=(1, 99_999))

    @staticmethod
    def random_stack(rng):
        """1-4 conv/pool layers whose windows and strides make low resolutions
        infeasible and keep FLOPs flat over neighbouring resolutions."""
        layers, ch = [], 3
        for _ in range(rng.randint(1, 4)):
            if rng.random() < 0.6:
                out = rng.choice([2, 4])
                layers.append(Conv2d(
                    ch, out, kernel=rng.randint(3, 9), stride=rng.randint(2, 4),
                    padding=rng.randint(0, 1), dilation=rng.randint(1, 2),
                ))
                ch = out
            else:
                layers.append(Pool(
                    rng.choice(["max", "avg"]), kernel=rng.randint(2, 6), stride=rng.randint(2, 4)
                ))
        return CnnSpec("stack", 3, (*layers, GlobalPool(), Linear(ch, 10)))

    def test_random_cnn_stacks_match_an_exhaustive_scan(self):
        # Ranges that start among infeasible resolutions, targets at the
        # attainable FLOPs +-1 and midway between them: the scan takes the
        # closest feasible value, ties to the smaller, and brackets the
        # target with the first value reaching it and the one below.
        rng = random.Random(27)
        lifted = walked_back = tied = 0
        for _ in range(40):
            spec = self.random_stack(rng)
            lo = rng.randint(1, 8)
            hi = lo + rng.randint(0, 150)
            flops = {}
            for v in range(lo, hi + 1):
                try:
                    flops[v] = cost_report(spec, EvalConfig(input_resolution=v)).flops
                except InfeasibleResolution:
                    pass
            if not flops:
                with pytest.raises(ValueError, match=r"no feasible knob value"):
                    match_flops_budget(spec, EvalConfig(), K.RESOLUTION, 1, value_range=(lo, hi))
                continue
            first = min(flops)
            assert sorted(flops) == list(range(first, hi + 1))  # feasible run up to hi
            targets = {f + d for f in flops.values() for d in (-1, 0, 1)}
            steps = sorted(set(flops.values()))  # and midway, where the tie goes down
            targets = sorted(targets | {(a + b) // 2 for a, b in zip(steps, steps[1:])})
            for target in rng.sample(targets, min(len(targets), 12)):
                tol = rng.choice([None, 0.001, 0.05])
                if not flops[first] <= target <= flops[hi]:
                    with pytest.raises(TargetUnreachable) as exc:
                        match_flops_budget(
                            spec, EvalConfig(), K.RESOLUTION, target, tol, (lo, hi)
                        )
                    assert exc.value.attainable == (flops[first], flops[hi])
                    continue
                best = min(flops, key=lambda v: (abs(flops[v] - target), v))
                upper = min(v for v in flops if flops[v] >= target)
                lower = max(first, upper - 1)
                f_lower, f_upper = flops[lower], flops[upper]
                if f_upper != f_lower:
                    relaxed = lower + (target - f_lower) * (upper - lower) / (f_upper - f_lower)
                else:
                    relaxed = float(best)
                deviation = abs(flops[best] - target)
                within = None if tol is None else deviation <= Fraction(str(tol)) * target
                bracket = (f"base;N={lower}", f"base;N={upper}") if within is False else None
                res = match_flops_budget(spec, EvalConfig(), K.RESOLUTION, target, tol, (lo, hi))
                got_bracket = res.bracket and tuple(c.config_id for c in res.bracket)
                assert (
                    res.config.config_id, res.flops, res.deviation, res.relaxed_value,
                    res.within_tol, got_bracket,
                ) == (f"base;N={best}", flops[best], deviation, relaxed, within, bracket)
                lifted += first > lo
                walked_back += best < lower
                tied += target - f_lower == f_upper - target and lower < upper
        assert lifted and walked_back and tied  # the lift, the plateau walk and a tie ran

    def test_probe_economy(self, monkeypatch):
        # No knob value is costed twice in one match, and a ViT match costs
        # at most ceil(log2((hi - lo) / step)) + 4 values: the top, the
        # bottom, the bisection and the plateau probe.
        knob_value = {
            K.DEPTH: lambda spec, cfg: spec.depth,
            K.HIDDEN: lambda spec, cfg: spec.hidden_dim,
            K.MLP: lambda spec, cfg: spec.mlp_dim,
            K.RESOLUTION: lambda spec, cfg: cfg.input_resolution,
        }
        costed = []
        probes = []  # every report a probe returned

        def counting(spec, cfg=None, **kwargs):
            costed.append(knob_value[knob](spec, cfg))
            probes.append(cost_report(spec, cfg, **kwargs))
            return probes[-1]

        monkeypatch.setattr(visioncost.search, "cost_report", counting)
        rng = random.Random(5)
        for _ in range(120):
            knob = rng.choice(sorted(knob_value, key=lambda k: k.value))
            cfg = EvalConfig(flop_convention=rng.choice(list(FlopConvention)))
            step = 6 if knob is K.HIDDEN else 1  # vit_small's head count
            top = {K.DEPTH: 64, K.HIDDEN: 3072, K.MLP: 8192, K.RESOLUTION: 128}[knob] // step
            lo, hi = sorted(step * rng.randint(1, top) for _ in range(2))

            def at(v):
                config = make_config("base", vit_small(), cfg, [ScalingTransform(knob, v)])
                return cost_report(config.spec, config.eval).flops

            target = rng.randint(at(lo), at(hi))
            costed.clear()
            match_flops_budget(vit_small(), cfg, knob, target, value_range=(lo, hi))
            assert len(costed) == len(set(costed)), (knob, lo, hi, target, costed)
            assert len(costed) <= (max((hi - lo) // step, 1) - 1).bit_length() + 4
        knob = K.RESOLUTION
        for _ in range(20):
            spec = self.random_stack(rng)
            costed.clear()
            with contextlib.suppress(ValueError):  # no feasible value, or unreachable
                match_flops_budget(spec, EvalConfig(), knob, rng.randint(1, 10**6), None, (1, 200))
            assert len(costed) == len(set(costed)), costed
        # A probe reads only the totals: it builds no per-layer row.
        assert probes and all(report.per_layer == () for report in probes)

    def test_hidden_values_stay_on_head_multiples(self):
        res = match_flops_budget(
            vit_small(), EvalConfig(), K.HIDDEN, 3_000_000_000, value_range=(6, 1536)
        )
        assert res.config.transforms[0].parameter % 6 == 0

    def test_range_past_the_largest_float_refused_before_any_probe(self, monkeypatch):
        top = int(sys.float_info.max)  # exactly the largest float
        cfg = EvalConfig()

        def flops(n):
            return cost_report(vit_small(), cfg._replace(input_resolution=n)).flops

        # the range may end at the largest float, where relaxed_value still fits
        res = match_flops_budget(
            vit_small(), cfg, K.RESOLUTION, flops(top - 32), value_range=(top - 64, top)
        )
        assert res.deviation == 0 and res.relaxed_value == sys.float_info.max

        def no_probe(*args):
            raise AssertionError("probed a range past the largest float")

        monkeypatch.setattr(visioncost.search, "cost_report", no_probe)
        for lo, hi in [(top - 63, top + 1), (10**400, 10**400 + 64)]:
            with pytest.raises(ValueError, match="past the largest float"):
                match_flops_budget(vit_small(), cfg, K.RESOLUTION, 10**9, value_range=(lo, hi))


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
        return min(feasible, key=lambda p: (getattr(p, objective), p.config_id))

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
            want = self.oracle(points, "top1", max_drop, "flops", baseline)
            if want is None:
                with pytest.raises(NoFeasibleCandidate):
                    best_compressed(
                        points, metric="top1", max_drop=max_drop,
                        objective="flops", baseline_id=baseline,
                    )
            else:
                got = best_compressed(
                    points, metric="top1", max_drop=max_drop,
                    objective="flops", baseline_id=baseline,
                )
                assert got.config_id == want.config_id

    def test_unannotated_points_excluded_with_warning(self, caplog):
        points = [
            pt("base", 100, 100, top1=75.0),
            pt("cheap_unknown", 1, 1),
            pt("ok", 50, 50, top1=74.9),
        ]
        with caplog.at_level("WARNING"):
            got = best_compressed(
                points, metric="top1", max_drop=0.75,
                objective="flops", baseline_id="base",
            )
        assert got.config_id == "ok"
        assert any("cheap_unknown" in r.message for r in caplog.records)

    def test_exclusions_share_one_warning(self, caplog):
        points = [pt("base", 100, 100, top1=75.0)]
        points += [pt(f"c{i}", i + 1, i + 1) for i in range(1999)]
        with caplog.at_level("WARNING"):
            got = best_compressed(
                points, metric="top1", max_drop=0.75,
                objective="flops", baseline_id="base",
            )
        assert got.config_id == "base"
        assert [r.getMessage() for r in caplog.records] == [
            "1999 config(s) have no 'top1' annotation; excluded from selection: "
            "c0, c1, c2, c3, c4, ..."
        ]
        caplog.clear()
        with caplog.at_level("WARNING"):
            best_compressed(
                points[:3], metric="top1", max_drop=0.75,
                objective="flops", baseline_id="base",
            )
        assert [r.getMessage() for r in caplog.records] == [
            "2 config(s) have no 'top1' annotation; excluded from selection: c0, c1"
        ]

    def test_baseline_must_exist_and_be_annotated(self):
        points = [pt("a", 1, 1, top1=70.0)]
        with pytest.raises(ValueError):
            best_compressed(
                points, metric="top1", max_drop=0.5,
                objective="flops", baseline_id="missing",
            )

    def test_no_feasible_candidate(self):
        points = [pt("base", 10, 10, top1=75.0), pt("bad", 1, 1, top1=10.0)]
        # baseline itself is feasible, so the cheapest feasible is base
        got = best_compressed(
            points, metric="top1", max_drop=0.75,
            objective="flops", baseline_id="base",
        )
        assert got.config_id == "base"
