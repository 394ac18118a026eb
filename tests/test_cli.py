"""End-to-end CLI behavior: exit codes, stdout payloads, written files."""

import contextlib
import csv
import dataclasses
import io
import json
import logging
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import visioncost.cli
import visioncost.search
from visioncost.arch import (
    CnnSpec, Conv2d, EvalConfig, FlopConvention, GlobalPool, Linear, save_spec, spec_to_dict,
)
from visioncost.cli import main
from visioncost.cost import cost_report, report_to_dict
from visioncost.presets import PRESETS, resnet50, vit_small
from visioncost.scaling import parse_config_id


@pytest.fixture
def run(capsys):
    def _run(*argv):
        code = main([str(a) for a in argv])
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    return _run


@pytest.fixture
def vit_file(tmp_path):
    p = tmp_path / "vit_small.json"
    save_spec(vit_small(), p)
    return p


@pytest.fixture
def space_file(tmp_path):
    p = tmp_path / "space.json"
    p.write_text(
        json.dumps(
            {
                "base": "vit_small",
                "eval": {"flop_convention": "full_count", "input_resolution": 9},
                "axes": [
                    {"kind": "N", "values": [9, 11]},
                    {"kind": "patch", "values": [8, 16]},
                ],
            }
        )
    )
    return p


def write_space(path, base, *axes, **extra):
    """A space file over a preset with the given (kind, values) axes."""
    axes = [{"kind": kind, "values": list(values)} for kind, values in axes]
    path.write_text(json.dumps({"base": base, "axes": axes, **extra}))
    return path


@pytest.fixture
def annotations_file(tmp_path):
    p = tmp_path / "ann.csv"
    p.write_text(
        "config_id,metric,value\n"
        "vit_small;N=9;patch=8,top1,70.5\n"
        "vit_small;N=9;patch=16,top1,71.0\n"
        "vit_small;N=11;patch=16,top1,72.2\n"
    )
    return p


class TestCost:
    def test_json_output(self, run, vit_file):
        code, out, _ = run("cost", vit_file, "--resolution", 9)
        assert code == 0
        payload = json.loads(out)
        assert payload["flops"] == 2_702_239_704
        assert payload["convention"] == "closed_form"
        assert payload["per_layer"][0]["name"] == "block0"

    def test_csv_output(self, run, vit_file):
        code, out, _ = run("cost", vit_file, "--format", "csv")
        assert code == 0
        header = out.splitlines()[0]
        assert header == "layer_index,name,out_shape,flops,activation_bytes,param_count"

    def test_eval_flags(self, run, vit_file):
        code, out, _ = run(
            "cost", vit_file, "--resolution", 9, "--batch", 2,
            "--dtype", "int8", "--convention", "full_count",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["convention"] == "full_count"
        assert payload["batch_size"] == 2
        assert payload["dtype"] == {"name": "int8", "bytes_per_element": 1}

    def test_missing_file_is_io_error(self, run, tmp_path):
        code, _, err = run("cost", tmp_path / "absent.json")
        assert code == 1
        assert json.loads(err)["error"] == "io"

    def test_bad_json_reports_position(self, run, tmp_path):
        p = tmp_path / "broken.json"
        p.write_text('{"kind": "cnn",')
        code, _, err = run("cost", p)
        assert code == 2
        payload = json.loads(err)
        assert payload["error"] == "parse"
        assert payload["line"] == 1 and payload["column"] > 1

    def test_validation_failure_lists_violations(self, run, tmp_path):
        spec = CnnSpec(
            name="bad",
            input_channels=3,
            layers=(Conv2d(3, 8, kernel=3), Conv2d(99, 8, kernel=3)),
        )
        p = tmp_path / "bad.json"
        save_spec(spec, p)
        code, _, err = run("cost", p)
        assert code == 2
        payload = json.loads(err)
        assert payload["error"] == "validation"
        assert payload["violations"][0]["layer_index"] == 1

    def test_infeasible_resolution(self, run, tmp_path):
        spec = CnnSpec(
            name="strict",
            input_channels=3,
            layers=(Conv2d(3, 8, kernel=9), GlobalPool(), Linear(8, 2)),
        )
        p = tmp_path / "strict.json"
        save_spec(spec, p)
        code, _, err = run("cost", p, "--resolution", 4)
        assert code == 3
        assert json.loads(err)["error"] == "infeasible_resolution"

    @pytest.mark.parametrize(
        "base, path, value, message",
        [
            ("vit_small", ["patch_size"], "16", 'patch_size must be an integer, got "16"'),
            ("vit_small", ["patch_size"], 16.5, "patch_size must be an integer, got 16.5"),
            ("vit_small", ["depth"], True, "depth must be an integer, got true"),
            ("vit_small", ["num_classes"], None, "num_classes must be an integer, got null"),
            ("resnet50", ["input_channels"], 3.0, "input_channels must be an integer, got 3.0"),
            ("resnet50", ["layers", 0, "kernel"], "7", 'layer 0: kernel must be an integer, got "7"'),
            ("resnet50", ["layers", 4, "input_layer_index"], 3.5,
             "layer 4: input_layer_index must be an integer, got 3.5"),
            ("resnet50", ["layers", 1, "ch"], False, "layer 1: ch must be an integer, got false"),
            ("resnet50", ["layers", 0, "has_bias"], "false",
             'layer 0: has_bias must be true or false, got "false"'),
        ],
    )
    def test_wrong_spec_field_type(self, run, tmp_path, base, path, value, message):
        data = spec_to_dict(PRESETS[base].build())
        target = data
        for key in path[:-1]:
            target = target[key]
        target[path[-1]] = value
        p = tmp_path / "spec.json"
        p.write_text(json.dumps(data))
        code, out, err = run("cost", p)
        assert code == 2
        assert out == ""
        assert len(err.splitlines()) == 1
        payload = json.loads(err)
        assert payload["error"] == "spec"
        assert payload["message"] == message

    def test_bad_batch_is_usage_error(self, run, vit_file):
        code, _, err = run("cost", vit_file, "--batch", 0)
        assert code == 64
        assert "usage error" in err


def _leaf_paths(node, path=()):
    """Key paths of every scalar in a spec dict, layer fields included."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, value in items:
        if isinstance(value, (dict, list)):
            yield from _leaf_paths(value, path + (key,))
        else:
            yield path + (key,)


_MUTANTS = st.one_of(
    st.sampled_from([None, True, False, "16", "", 16.5, 2.0, -1, 0, [], {}]),
    st.integers(-2, 40),
)


class TestSpecFuzz:
    """A preset spec with a few fields replaced is either costed with every
    count an int, or refused with one JSON line: never a traceback."""

    @settings(max_examples=150, deadline=None)
    @given(
        base=st.sampled_from(["vit_small", "resnet50", "seg_backbone_gw16"]),
        convention=st.sampled_from(["closed_form", "full_count"]),
        data=st.data(),
    )
    def test_mutated_spec(self, tmp_path_factory, base, convention, data):
        spec = spec_to_dict(PRESETS[base].build())
        paths = sorted(_leaf_paths(spec), key=repr)
        for path in data.draw(st.lists(st.sampled_from(paths), min_size=1, max_size=3)):
            target = spec
            for key in path[:-1]:
                target = target[key]
            target[path[-1]] = data.draw(_MUTANTS)
        p = tmp_path_factory.mktemp("fuzz") / "spec.json"
        p.write_text(json.dumps(spec))
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["cost", str(p), "--convention", convention])
        if code == 0:
            report = json.loads(out.getvalue())
            counts = [report[k] for k in ("flops", "peak_activation_bytes", "model_bytes",
                                          "total_memory_bytes", "batch_size", "resolution")]
            for row in report["per_layer"]:
                counts += [row[k] for k in ("layer_index", "flops", "activation_bytes",
                                            "param_count")]
            assert all(type(c) is int for c in counts)
            assert err.getvalue() == ""
        else:
            # 3: a well-formed spec that is infeasible at the default resolution
            assert code in (2, 3)
            assert out.getvalue() == ""
            lines = err.getvalue().splitlines()
            assert len(lines) == 1
            assert "error" in json.loads(lines[0])


class TestUsage:
    def test_no_command(self, run):
        code, _, err = run()
        assert code == 64

    def test_unknown_command(self, run):
        code, _, err = run("costs")
        assert code == 64

    def test_unknown_flag(self, run, vit_file):
        code, _, _ = run("cost", vit_file, "--turbo")
        assert code == 64

    def test_negative_max_drop(self, run, tmp_path):
        code, _, err = run("best", tmp_path, "--metric", "top1", "--max-drop", -1)
        assert code == 64
        assert "max-drop" in err

    @pytest.mark.parametrize(
        "command, value",
        # best's -1 is test_negative_max_drop
        [("match", "nan"), ("match", "inf"), ("match", "-1"), ("best", "nan"), ("best", "inf")],
    )
    def test_tolerances_must_be_finite_and_non_negative(self, run, vit_file, command, value):
        if command == "match":
            argv = ("match", vit_file, "--knob", "depth", "--target-flops", 10**9, "--tol")
        else:
            argv = ("best", vit_file.parent, "--metric", "top1", "--max-drop")
        code, out, err = run(*argv, value)
        assert code == 64
        assert out == ""
        assert err.startswith("usage error: argument ")
        assert argv[-1] in err


class TestSweep:
    def test_writes_all_outputs(self, run, tmp_path, space_file, annotations_file):
        out_dir = tmp_path / "out"
        code, out, _ = run(
            "sweep", space_file, "--out", out_dir, "--annotations", annotations_file
        )
        assert code == 0
        for name in ("frontier.csv", "pareto.csv", "plot.tsv", "manifest.json"):
            assert (out_dir / name).is_file(), name
        assert len(list((out_dir / "reports").glob("*.json"))) == 4
        header = (out_dir / "frontier.csv").read_text().splitlines()[0]
        assert header == "config_id,flops,peak_activation_bytes,model_bytes,total_memory_bytes,top1"
        manifest = json.loads((out_dir / "manifest.json").read_text())
        assert manifest["configs"] == 4
        assert str(space_file) in manifest["inputs"]
        assert manifest["eval"]["flop_convention"] == "full_count"

    def test_runs_are_byte_identical(self, run, tmp_path, space_file, annotations_file):
        a, b = tmp_path / "a", tmp_path / "b"
        assert run("sweep", space_file, "--out", a, "--annotations", annotations_file)[0] == 0
        assert run("sweep", space_file, "--out", b, "--annotations", annotations_file)[0] == 0
        for name in ("frontier.csv", "pareto.csv", "plot.tsv"):
            assert (a / name).read_bytes() == (b / name).read_bytes(), name
        for ra in sorted((a / "reports").glob("*.json")):
            rb = b / "reports" / ra.name
            assert ra.read_bytes() == rb.read_bytes()
        ma = json.loads((a / "manifest.json").read_text())
        mb = json.loads((b / "manifest.json").read_text())
        ma.pop("generated_at"), mb.pop("generated_at")
        ma["command"].remove(str(a)), mb["command"].remove(str(b))
        assert ma == mb

    def test_pareto_subset_of_frontier(self, run, tmp_path, space_file):
        out_dir = tmp_path / "out"
        assert run("sweep", space_file, "--out", out_dir)[0] == 0
        frontier = (out_dir / "frontier.csv").read_text().splitlines()
        pareto = (out_dir / "pareto.csv").read_text().splitlines()
        assert set(pareto[1:]) <= set(frontier[1:])
        ids = [row.split(",")[0] for row in pareto[1:]]
        assert ids == sorted(ids)

    def test_plot_series_come_from_leading_axes(self, run, tmp_path, space_file):
        out_dir = tmp_path / "out"
        assert run("sweep", space_file, "--out", out_dir)[0] == 0
        rows = (out_dir / "plot.tsv").read_text().splitlines()[1:]
        series = [r.split("\t")[0] for r in rows]
        assert series == ["N=9", "N=9", "N=11", "N=11"]

    def test_spec_file_base_resolves_relative(self, run, tmp_path):
        save_spec(resnet50(), tmp_path / "net.json")
        space = tmp_path / "space.json"
        space.write_text(
            json.dumps(
                {
                    "spec_file": "net.json",
                    "eval": {"input_resolution": 64},
                    "axes": [{"kind": "width", "values": [1.0, 0.5]}],
                }
            )
        )
        out_dir = tmp_path / "out"
        code, _, _ = run("sweep", space, "--out", out_dir)
        assert code == 0
        rows = (out_dir / "frontier.csv").read_text().splitlines()[1:]
        assert [r.split(",")[0] for r in rows] == ["resnet50;width=1", "resnet50;width=0.5"]

    @pytest.mark.parametrize("name", ["nope.json", "."])
    def test_unreadable_spec_file_is_named(self, run, tmp_path, name):
        space = tmp_path / "s.json"
        space.write_text(json.dumps({"spec_file": name, "axes": [{"kind": "N", "values": [4]}]}))
        code, out, err = run("sweep", space, "--out", tmp_path / "out")
        assert code == 1
        assert out == ""
        assert len(err.splitlines()) == 1
        payload = json.loads(err)
        assert payload["error"] == "io"
        assert payload["message"].startswith(f"cannot read {tmp_path / name}: ")
        assert "s.json" not in payload["message"]

    def test_spec_file_parse_error_names_the_spec(self, run, tmp_path):
        (tmp_path / "net.json").write_text("{")
        space = tmp_path / "s.json"
        space.write_text(
            json.dumps({"spec_file": "net.json", "axes": [{"kind": "N", "values": [4]}]})
        )
        code, _, err = run("sweep", space, "--out", tmp_path / "out")
        assert code == 2
        payload = json.loads(err)
        assert payload["error"] == "space"
        assert payload["message"].startswith(f"spec {tmp_path / 'net.json'}: Expecting")

    @pytest.mark.parametrize(
        "key, value",
        [(k, v) for k in ("spec_file", "base", "dtype", "kind") for v in (5, ["vit_small"], None)],
    )
    def test_wrong_string_field_type(self, run, tmp_path, key, value):
        space = {"axes": [{"kind": "N", "values": [9]}]}
        if key == "dtype":
            space.update(base="vit_small", eval={"dtype": value})
        elif key == "kind":
            space.update(base="vit_small", axes=[{"kind": value, "values": [9]}])
        else:
            space[key] = value
        (tmp_path / "s.json").write_text(json.dumps(space))
        code, _, err = run("sweep", tmp_path / "s.json", "--out", tmp_path / "out")
        assert code == 2
        assert len(err.splitlines()) == 1
        payload = json.loads(err)
        assert payload["error"] == "space"
        assert payload["message"].endswith(f"{key} must be a string, got {json.dumps(value)}")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("cap", [0, -1])
    def test_cap_must_be_positive(self, run, tmp_path, cap):
        space = write_space(tmp_path / "s.json", "vit_small", ("depth", [6]), cap=cap)
        code, _, err = run("sweep", space, "--out", tmp_path / "out")
        assert code == 2
        payload = json.loads(err)
        assert payload["error"] == "space"
        assert payload["message"] == f"space file: cap must be >= 1, got {cap}"

    def test_unknown_preset_in_space(self, run, tmp_path):
        space = tmp_path / "space.json"
        space.write_text(json.dumps({"base": "nope", "axes": [{"kind": "N", "values": [9]}]}))
        code, _, err = run("sweep", space, "--out", tmp_path / "out")
        assert code == 2
        assert json.loads(err)["error"] == "space"

    def test_unknown_axis_kind(self, run, tmp_path):
        space = tmp_path / "space.json"
        space.write_text(
            json.dumps({"base": "vit_small", "axes": [{"kind": "magic", "values": [1]}]})
        )
        code, _, err = run("sweep", space, "--out", tmp_path / "out")
        assert code == 2

    def test_space_over_cap(self, run, tmp_path):
        space = tmp_path / "space.json"
        space.write_text(
            json.dumps(
                {
                    "base": "vit_small",
                    "cap": 3,
                    "axes": [{"kind": "depth", "values": [1, 2, 3, 4]}],
                }
            )
        )
        code, _, err = run("sweep", space, "--out", tmp_path / "out")
        assert code == 2
        assert json.loads(err)["error"] == "space_too_large"

    def test_all_combinations_rejected(self, run, tmp_path):
        space = tmp_path / "space.json"
        space.write_text(
            json.dumps({"base": "vit_small", "axes": [{"kind": "depth", "values": [0, -1]}]})
        )
        code, _, err = run("sweep", space, "--out", tmp_path / "out")
        assert code == 3

    def test_each_config_is_costed_once(self, run, tmp_path, space_file, monkeypatch):
        calls = []
        real = visioncost.search.cost_report

        def counting(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(visioncost.search, "cost_report", counting)
        monkeypatch.setattr(visioncost.cli, "cost_report", counting)
        assert run("sweep", space_file, "--out", tmp_path / "out")[0] == 0
        assert len(calls) == 4

    def test_rerun_leaves_only_its_own_reports(self, run, tmp_path, space_file):
        out_dir = tmp_path / "out"
        assert run("sweep", space_file, "--out", out_dir)[0] == 0
        small = write_space(tmp_path / "small.json", "vit_small", ("depth", [6, 12]))
        assert run("sweep", small, "--out", out_dir)[0] == 0
        names = sorted(p.name for p in (out_dir / "reports").iterdir())
        assert len(names) == 2
        assert all(n.startswith("vit_small_depth_") for n in names)
        assert sorted(p.name for p in out_dir.iterdir()) == [
            "frontier.csv", "manifest.json", "pareto.csv", "plot.tsv", "reports",
        ]
        # The swapped-in directory has the mode a plain mkdir gives.
        (tmp_path / "probe").mkdir()
        assert (out_dir / "reports").stat().st_mode == (tmp_path / "probe").stat().st_mode

    def test_stale_staging_directories_are_removed(self, run, tmp_path, space_file, caplog):
        out_dir = tmp_path / "out"
        stale = [".reports-0123456789ab", ".reports-fedcba987654.old"]
        for name in stale:
            (out_dir / name / "sub").mkdir(parents=True)
            (out_dir / name / "sub" / "x.json").write_text("{}")
        kept = {
            ".reports-0123456789AB": "upper-case hex",
            ".reports-0123456789abc": "13 digits",
            ".reports-0123456789ab.older": "other suffix",
            "reports-0123456789ab": "no dot",
            "notes.txt": "a user's file",
        }
        for name, text in kept.items():
            (out_dir / name).write_text(text)
        (out_dir / ".reports-00000000000f").write_text("a file, not a staging directory")
        with caplog.at_level(logging.WARNING):
            assert run("sweep", space_file, "--out", out_dir)[0] == 0
        names = {p.name for p in out_dir.iterdir()}
        assert not names & set(stale)
        assert {name: (out_dir / name).read_text() for name in kept} == kept
        assert ".reports-00000000000f" in names
        removed = [r.getMessage() for r in caplog.records if "stale staging" in r.getMessage()]
        assert sorted(removed) == sorted(
            f"removed stale staging directory {out_dir / name}" for name in stale
        )

    def test_rejected_run_leaves_earlier_output_untouched(self, run, tmp_path, space_file):
        out_dir = tmp_path / "out"
        assert run("sweep", space_file, "--out", out_dir)[0] == 0
        before = {p: p.read_bytes() for p in out_dir.rglob("*") if p.is_file()}
        bad = write_space(tmp_path / "bad.json", "vit_small", ("depth", [0, -1]))
        assert run("sweep", bad, "--out", out_dir)[0] == 3
        assert {p: p.read_bytes() for p in out_dir.rglob("*") if p.is_file()} == before
        assert run("sweep", bad, "--out", tmp_path / "fresh")[0] == 3
        assert not (tmp_path / "fresh").exists()

    def test_each_skip_is_logged_once(self, run, tmp_path, caplog):
        space = write_space(tmp_path / "s.json", "vit_small", ("depth", [0, 6, -1]))
        with caplog.at_level(logging.WARNING):
            assert run("sweep", space, "--out", tmp_path / "out")[0] == 0
        warnings = [r.getMessage() for r in caplog.records if r.levelno == logging.WARNING]
        assert len(warnings) == 2
        assert "(0,)" in warnings[0] and "(-1,)" in warnings[1]

    def test_overflowing_width_is_skipped(self, run, tmp_path, caplog):
        space = write_space(tmp_path / "s.json", "resnet50", ("width", [1e308, 0.5]))
        code, out, _ = run("sweep", space, "--out", tmp_path / "out")
        assert code == 0
        assert "(1 skipped)" in out
        assert "skipping (1e+308,): width ratio 1e+308 overflows a channel count" in caplog.text

    @pytest.mark.parametrize(
        "name, axis",
        [("a" * 300, ("N", [9])), ("vit_small", ("hidden", [10**400]))],
        ids=["long-name", "huge-hidden"],
    )
    def test_long_config_id_gets_a_short_file_name(self, run, tmp_path, name, axis):
        save_spec(dataclasses.replace(vit_small(), name=name), tmp_path / "net.json")
        space = tmp_path / "space.json"
        kind, values = axis
        space.write_text(
            json.dumps({"spec_file": "net.json", "axes": [{"kind": kind, "values": values}]})
        )
        out_dir = tmp_path / "out"
        assert run("sweep", space, "--out", out_dir)[0] == 0
        (report,) = (out_dir / "reports").iterdir()
        assert len(report.name) == 100 + len("-12345678.json")
        assert json.loads(report.read_text())["config_id"].startswith(name + ";")

    def test_infeasible_cnn_resolution_is_skipped(self, run, tmp_path, caplog):
        spec = CnnSpec(
            name="strict",
            input_channels=3,
            layers=(Conv2d(3, 8, kernel=9), GlobalPool(), Linear(8, 2)),
        )
        save_spec(spec, tmp_path / "strict.json")
        space = tmp_path / "space.json"
        space.write_text(
            json.dumps({"spec_file": "strict.json", "axes": [{"kind": "N", "values": [4, 32]}]})
        )
        out_dir = tmp_path / "out"
        code, out, _ = run("sweep", space, "--out", out_dir)
        assert code == 0
        assert "(1 skipped)" in out
        assert "skipping (4,): layer 0: conv output side" in caplog.text
        assert json.loads((out_dir / "manifest.json").read_text())["skipped"] == 1
        reports = [p.name for p in (out_dir / "reports").iterdir()]
        assert len(reports) == 1 and reports[0].startswith("strict_N_32-")

    @pytest.mark.parametrize(
        "kind, value",
        [
            ("depth", None), ("depth", [1]), ("depth", True), ("depth", 6.5),
            ("dtype", "fp8"), ("width", float("nan")), ("width", 10**400),
        ],
        ids=["null", "list", "bool", "fraction", "unknown-dtype", "nan-width", "huge-width"],
    )
    def test_wrong_axis_value_type(self, run, tmp_path, kind, value):
        base = "resnet50" if kind == "width" else "vit_small"
        space = write_space(tmp_path / "s.json", base, ("N", [9]), (kind, [value]))
        code, _, err = run("sweep", space, "--out", tmp_path / "out")
        assert code == 2
        assert len(err.splitlines()) == 1
        payload = json.loads(err)
        assert payload["error"] == "space"
        assert payload["message"].startswith("axis 1:")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "field, value",
        [(f, v) for f in ("cap", "batch_size") for v in (None, True, 4.0, "4")]
        # a null input_resolution means the spec default
        + [("input_resolution", v) for v in (True, 4.0, "4")],
    )
    def test_wrong_int_field_type(self, run, tmp_path, field, value):
        extra = {"cap": value} if field == "cap" else {"eval": {field: value}}
        space = write_space(tmp_path / "s.json", "vit_small", ("depth", [6]), **extra)
        code, _, err = run("sweep", space, "--out", tmp_path / "out")
        assert code == 2
        assert len(err.splitlines()) == 1
        payload = json.loads(err)
        assert payload["error"] == "space"
        assert f"{field} must be an integer, got {json.dumps(value)}" in payload["message"]
        assert not (tmp_path / "out").exists()

    def test_null_input_resolution_is_the_spec_default(self, run, tmp_path):
        space = write_space(
            tmp_path / "s.json", "vit_small", ("depth", [6]), eval={"input_resolution": None}
        )
        assert run("sweep", space, "--out", tmp_path / "out")[0] == 0
        manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
        assert manifest["eval"]["input_resolution"] is None

    def test_reports_are_one_line_of_compact_json(
        self, run, tmp_path, space_file, annotations_file
    ):
        out_dir = tmp_path / "out"
        assert run("sweep", space_file, "--out", out_dir, "--annotations", annotations_file)[0] == 0
        base_eval = EvalConfig(input_resolution=9, flop_convention=FlopConvention.FULL_COUNT)
        paths = sorted((out_dir / "reports").iterdir())
        assert len(paths) == 4
        for path in paths:
            text = path.read_text()
            assert text.count("\n") == 1 and text.endswith("\n")
            payload = json.loads(text)
            assert text == json.dumps(payload, separators=(",", ":")) + "\n"
            config = parse_config_id(payload["config_id"], base_eval=base_eval)
            want = report_to_dict(cost_report(config.spec, config.eval))
            # Same keys in the same order, and every count still an int.
            assert json.dumps(payload["report"]) == json.dumps(want)
            assert type(payload["report"]["flops"]) is int
        assert not list(out_dir.glob(".reports-*"))

    def test_failed_run_leaves_earlier_reports(self, run, tmp_path, space_file, monkeypatch):
        out_dir = tmp_path / "out"
        assert run("sweep", space_file, "--out", out_dir)[0] == 0
        before = {p: p.read_bytes() for p in out_dir.rglob("*") if p.is_file()}
        real, calls = visioncost.search.cost_report, []

        def failing_third(*args, **kwargs):
            calls.append(args)
            if len(calls) == 3:
                raise RuntimeError("boom")
            return real(*args, **kwargs)

        monkeypatch.setattr(visioncost.search, "cost_report", failing_third)
        small = write_space(tmp_path / "small.json", "vit_small", ("depth", [2, 4, 6, 8]))
        with pytest.raises(RuntimeError, match="boom"):
            run("sweep", small, "--out", out_dir)
        assert {p: p.read_bytes() for p in out_dir.rglob("*") if p.is_file()} == before
        assert not list(out_dir.glob(".reports-*"))

    @pytest.mark.parametrize("failing", ["report", "frontier.csv.tmp"])
    def test_write_failure_is_io_error(self, run, tmp_path, space_file, monkeypatch, failing):
        out_dir = tmp_path / "out"
        assert run("sweep", space_file, "--out", out_dir)[0] == 0
        reports = {p.name: p.read_bytes() for p in (out_dir / "reports").iterdir()}
        real = Path.write_text

        def write_text(path, *args, **kwargs):
            kind = "report" if path.parent.name.startswith(".reports-") else path.name
            if kind == failing:
                raise OSError(28, "No space left on device", str(path))
            return real(path, *args, **kwargs)

        monkeypatch.setattr(Path, "write_text", write_text)
        code, out, err = run("sweep", space_file, "--out", out_dir)
        assert code == 1
        assert out == ""
        assert len(err.splitlines()) == 1
        payload = json.loads(err)
        assert payload["error"] == "io"
        assert "No space left on device" in payload["message"]
        assert {p.name: p.read_bytes() for p in (out_dir / "reports").iterdir()} == reports
        assert not list(out_dir.glob(".reports-*"))

    def test_duplicate_annotation_rejected(self, run, tmp_path, space_file):
        ann = tmp_path / "dup.csv"
        ann.write_text("config_id,metric,value\na,m,1\na,m,2\n")
        code, _, err = run("sweep", space_file, "--out", tmp_path / "out", "--annotations", ann)
        assert code == 2
        assert json.loads(err)["error"] == "annotations"

    def test_non_finite_annotation_rejected(self, run, tmp_path, space_file):
        ann = tmp_path / "nan.csv"
        ann.write_text("config_id,metric,value\nvit_small;N=9;patch=8,top1,nan\n")
        code, out, err = run("sweep", space_file, "--out", tmp_path / "out", "--annotations", ann)
        assert code == 2
        assert len(err.splitlines()) == 1
        payload = json.loads(err)
        assert payload["error"] == "annotations"
        assert "line 2" in payload["message"]
        assert not (tmp_path / "out").exists()


    @pytest.mark.parametrize(
        "metric", ["flops", "config_id", "total_memory_bytes", "", " ", '"a\nb"'],
        ids=["flops", "config_id", "total_memory_bytes", "empty", "blank", "quoted-newline"],
    )
    def test_bad_annotation_metric_rejected(self, run, tmp_path, space_file, metric):
        ann = tmp_path / "ann.csv"
        ann.write_text(
            f"config_id,metric,value\nvit_small;N=9;patch=8,top1,70\n"
            f"vit_small;N=9;patch=16,{metric},1\n"
        )
        code, out, err = run("sweep", space_file, "--out", tmp_path / "out", "--annotations", ann)
        assert code == 2
        assert out == ""
        assert len(err.splitlines()) == 1
        payload = json.loads(err)
        assert payload["error"] == "annotations"
        assert payload["message"].startswith("line 3: metric ")
        assert not (tmp_path / "out").exists()


def _all_paths(node, path=()):
    """Key paths of every value in a JSON tree, containers included."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, value in items:
        yield path + (key,)
        if isinstance(value, (dict, list)):
            yield from _all_paths(value, path + (key,))


_DELETE = object()

_SPACE_MUTANTS = st.one_of(
    st.integers(-2, 40),
    # values valid somewhere in a space file
    st.sampled_from(
        [1, 2, 8, 0.5, 1.0, "N", "width", "gw", "batch", "depth", "dtype", "fp16", "int8",
         "full_count", "closed_form", "vit_base", "resnet50", "net.json"]
    ),
    _MUTANTS,
    st.sampled_from([_DELETE, "hybrid", 1e300, {"kind": "N", "values": [4]}]),
)

_SPACES = {
    "vit_small": {
        "base": "vit_small",
        "eval": {"flop_convention": "full_count", "input_resolution": 9, "dtype": "fp16"},
        "axes": [{"kind": "N", "values": [6, 9]}, {"kind": "depth", "values": [1, 2]}],
        "cap": 100,
    },
    "resnet50": {
        "base": "resnet50",
        "eval": {"batch_size": 2, "input_resolution": 32},
        "axes": [{"kind": "width", "values": [0.5, 1.0]}, {"kind": "N", "values": [16, 32]}],
    },
    "spec_file": {
        "spec_file": "net.json",
        "axes": [{"kind": "gw", "values": [8, 16]}, {"kind": "N", "values": [16, 32]},
                 {"kind": "batch", "values": [1, 2]}],
    },
}


def _sweep_quietly(*argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([str(a) for a in argv])
    return code, out.getvalue(), err.getvalue()


def _assert_one_error_line(code, out, err):
    # 3: every combination of a well-formed space rejected
    assert code in (2, 3)
    assert out == ""
    lines = err.splitlines()
    assert len(lines) == 1
    assert "error" in json.loads(lines[0])


_UNDECODABLE = {
    "not-utf8": b'{"kind": "\xff"}',
    "5000-digit-int": b'{"kind": "cnn", "input_channels": ' + b"9" * 5000 + b"}",
    "deep-array": b"[" * 200_000 + b"]" * 200_000,
}


class TestUndecodableInput:
    """An input file that JSON cannot decode is one error line, exit 2."""

    @pytest.mark.parametrize("command", ["cost", "match", "sweep"])
    @pytest.mark.parametrize("content", sorted(_UNDECODABLE))
    def test_spec_or_space_file(self, run, tmp_path, command, content):
        path = tmp_path / "input.json"
        path.write_bytes(_UNDECODABLE[content])
        extra = {"match": ["--knob", "depth", "--target-flops", 10**9],
                 "sweep": ["--out", tmp_path / "out"]}.get(command, [])
        code, out, err = run(command, path, *extra)
        _assert_one_error_line(code, out, err)
        assert code == 2
        payload = json.loads(err)
        assert payload["error"] == ("space" if command == "sweep" else "spec")
        assert payload["path"] == str(path)

    @pytest.mark.parametrize("content", sorted(_UNDECODABLE))
    def test_spec_file_of_a_space(self, run, tmp_path, content):
        (tmp_path / "net.json").write_bytes(_UNDECODABLE[content])
        space = tmp_path / "space.json"
        space.write_text(
            json.dumps({"spec_file": "net.json", "axes": [{"kind": "N", "values": [4]}]})
        )
        code, out, err = run("sweep", space, "--out", tmp_path / "out")
        _assert_one_error_line(code, out, err)
        assert code == 2
        payload = json.loads(err)
        assert payload["error"] == "space"
        assert payload["message"].startswith(f"spec {tmp_path / 'net.json'}: ")
        assert not (tmp_path / "out").exists()


class TestCountTooLarge:
    """A count with more digits than Python may write is refused (exit 2 from
    cost and match) or skipped (sweep), never a traceback. The interpreter's
    limit itself stays as it is."""

    BIG = 10**1100  # parses; its vit_small FLOPs have about 4400 digits

    @pytest.mark.parametrize("command", ["cost", "match"])
    def test_cost_and_match_exit_2(self, run, vit_file, command):
        extra = ["--knob", "depth", "--target-flops", 10**9] if command == "match" else []
        code, out, err = run(command, vit_file, "--resolution", self.BIG, *extra)
        _assert_one_error_line(code, out, err)
        assert code == 2
        payload = json.loads(err)
        assert payload["error"] == "count_too_large"
        assert "decimal digits" in payload["message"]

    def test_sweep_skips_the_config(self, run, tmp_path, caplog):
        space = write_space(tmp_path / "s.json", "vit_small", ("N", [9, self.BIG]))
        with caplog.at_level(logging.WARNING):
            code, out, _ = run("sweep", space, "--out", tmp_path / "out")
        assert code == 0
        assert out.startswith("wrote 1 configs (1 skipped)")
        assert [p.name for p in (tmp_path / "out" / "reports").iterdir()] == [
            visioncost.cli._safe_filename("vit_small;N=9")
        ]
        skips = [r.getMessage() for r in caplog.records if "skipping" in r.getMessage()]
        assert len(skips) == 1 and "decimal digits" in skips[0]
        manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
        assert (manifest["configs"], manifest["skipped"]) == (1, 1)

    @settings(max_examples=60, deadline=None)
    @given(
        command=st.sampled_from(["cost", "match"]),
        base=st.sampled_from(["vit_small", "resnet50"]),
        convention=st.sampled_from(["closed_form", "full_count"]),
        # any value argparse can parse: 1 to 4300 digits, uniform in length
        knobs=st.lists(
            st.integers(1, 4300).flatmap(lambda d: st.integers(10 ** (d - 1), 10**d - 1)),
            min_size=2,
            max_size=2,
        ),
    )
    def test_any_parsable_resolution_and_batch(
        self, tmp_path_factory, command, base, convention, knobs
    ):
        spec = tmp_path_factory.mktemp("big") / "spec.json"
        save_spec(PRESETS[base].build(), spec)
        resolution, batch = knobs
        extra = ["--knob", "depth", "--target-flops", 10**12] if command == "match" else []
        code, out, err = _sweep_quietly(
            command, spec, "--resolution", resolution, "--batch", batch,
            "--convention", convention, *extra,
        )
        assert code in (0, 2, 3)
        if code == 0:
            assert type(json.loads(out)["flops"]) is int
            assert err == ""
        else:
            _assert_one_error_line(code, out, err)


class TestSpaceAndAnnotationFuzz:
    """A valid space or annotation file with a few fields replaced, removed
    or added is swept, or refused with one JSON line: never a traceback."""

    @settings(max_examples=120, deadline=None)
    @given(base=st.sampled_from(sorted(_SPACES)), data=st.data())
    def test_mutated_space(self, tmp_path_factory, base, data):
        space = json.loads(json.dumps(_SPACES[base]))
        for _ in range(data.draw(st.integers(1, 3))):
            paths = sorted(_all_paths(space), key=lambda p: (-len(p), repr(p)))  # leaves first
            if not paths:
                break
            path = data.draw(st.sampled_from(paths))
            target = space
            for key in path[:-1]:
                target = target[key]
            mutant = data.draw(_SPACE_MUTANTS)
            if mutant is _DELETE:
                del target[path[-1]]
            else:  # a copy: the strategy's own containers stay as drawn
                target[path[-1]] = json.loads(json.dumps(mutant))
        tmp = tmp_path_factory.mktemp("space")
        save_spec(PRESETS["seg_backbone_gw16"].build(), tmp / "net.json")
        (tmp / "s.json").write_text(json.dumps(space))
        code, out, err = _sweep_quietly("sweep", tmp / "s.json", "--out", tmp / "out")
        if code == 0:
            assert out.startswith("wrote ")
            assert (tmp / "out" / "frontier.csv").exists()
        elif code == 1:  # a spec_file string naming no readable file
            assert out == "" and len(err.splitlines()) == 1
            assert json.loads(err)["message"].startswith(
                f"cannot read {tmp / space['spec_file']}: "
            )
        else:
            _assert_one_error_line(code, out, err)

    @settings(max_examples=120, deadline=None)
    @given(data=st.data(), quoted=st.booleans())
    def test_mutated_annotations(self, tmp_path_factory, data, quoted):
        rows = [
            ["config_id", "metric", "value"],
            ["vit_small;N=9;patch=8", "top1", "70.5"],
            ["vit_small;N=11;patch=16", "top1", "72.2"],
            ["vit_small;N=9;patch=16", "top5", "90"],
        ]
        cells = st.one_of(
            st.sampled_from(["", " ", "flops", "config_id", "top1", "top5", "nan", "-inf",
                             "1e400", "1e-400", "7", "a\nb", "x,y", '"', "model_bytes",
                             "vit_small;N=9;patch=8"]),
            st.text(alphabet='a1.,"\n e-\r', max_size=6),
        )
        for _ in range(data.draw(st.integers(1, 3))):
            i = data.draw(st.integers(0, len(rows) - 1))
            op = data.draw(st.sampled_from(["set", "drop_cell", "add_cell", "dup_row", "drop_row"]))
            if op == "set" and rows[i]:
                rows[i][data.draw(st.integers(0, len(rows[i]) - 1))] = data.draw(cells)
            elif op == "drop_cell" and rows[i]:
                rows[i].pop()
            elif op == "add_cell":
                rows[i].append(data.draw(cells))
            elif op == "dup_row":
                rows.insert(i, list(rows[i]))
            elif op == "drop_row" and len(rows) > 1:
                rows.pop(i)
        tmp = tmp_path_factory.mktemp("ann")
        buf = io.StringIO()
        if quoted:
            csv.writer(buf, lineterminator="\n").writerows(rows)
        else:
            buf.write("".join(",".join(row) + "\n" for row in rows))
        (tmp / "ann.csv").write_text(buf.getvalue())
        space = write_space(tmp / "s.json", "vit_small", ("N", [9, 11]), ("patch", [8, 16]))
        out_dir = tmp / "out"
        code, out, err = _sweep_quietly(
            "sweep", space, "--out", out_dir, "--annotations", tmp / "ann.csv"
        )
        if code == 0:
            header = next(csv.reader(io.StringIO((out_dir / "frontier.csv").read_text())))
            assert len(set(header)) == len(header) and all(header)
            points, metrics = visioncost.search.read_frontier_csv(out_dir / "frontier.csv")
            assert header == list(visioncost.search.FRONTIER_COLUMNS) + metrics
            assert len(points) == 4
        else:
            _assert_one_error_line(code, out, err)


class TestMatch:
    def test_depth_knob(self, run, vit_file):
        code, out, _ = run(
            "match", vit_file, "--knob", "depth",
            "--target-flops", 6_959_078_784, "--resolution", 9, "--tol", 0.05,
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["value"] == 31
        assert payload["within_tol"] is True
        assert payload["config_id"] == "vit_small;depth=31"

    def test_unreachable_reports_attainable_range(self, run, vit_file):
        code, _, err = run(
            "match", vit_file, "--knob", "depth", "--target-flops", 10**18,
        )
        assert code == 3
        payload = json.loads(err)
        assert payload["error"] == "target_unreachable"
        assert len(payload["attainable"]) == 2

    def test_missing_target_is_usage(self, run, vit_file):
        code, _, _ = run("match", vit_file, "--knob", "depth")
        assert code == 64

    def test_bracket_on_missed_tolerance(self, run, vit_file):
        code, out, _ = run(
            "match", vit_file, "--knob", "depth",
            "--target-flops", int(6.5 * 579_923_232), "--tol", "1e-9",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["within_tol"] is False
        assert len(payload["bracket"]) == 2

    def test_range_too_wide_to_bisect(self, run, vit_file):
        code, out, err = run(
            "match", vit_file, "--knob", "hidden", "--target-flops", 10**9,
            "--min-value", 1, "--max-value", 10**400,
        )
        assert code == 2 and out == ""
        assert len(err.splitlines()) == 1
        payload = json.loads(err)
        assert payload["error"] == "match"
        assert "too wide to bisect" in payload["message"]

    def test_flattening_classifier_shape_mismatch(self, run, tmp_path):
        # The classifier fits only the 64-pixel grid: 4 * 62 * 62 features.
        spec = CnnSpec(
            name="flat", input_channels=3, layers=(Conv2d(3, 4, kernel=3), Linear(15376, 10))
        )
        p = tmp_path / "flat.json"
        save_spec(spec, p)
        code, out, err = run(
            "match", p, "--knob", "resolution", "--target-flops", 1_000_000,
        )
        assert code == 2 and out == ""
        assert len(err.splitlines()) == 1
        payload = json.loads(err)
        assert payload["error"] == "shape_mismatch"
        assert payload["layer_index"] == 1


class TestBest:
    @pytest.fixture
    def sweep_dir(self, run, tmp_path, space_file, annotations_file):
        out_dir = tmp_path / "sweepout"
        assert run("sweep", space_file, "--out", out_dir, "--annotations", annotations_file)[0] == 0
        return out_dir

    def test_explicit_baseline(self, run, sweep_dir):
        code, out, _ = run(
            "best", sweep_dir, "--metric", "top1", "--max-drop", 0.75,
            "--baseline", "vit_small;N=11;patch=16",
        )
        assert code == 0
        payload = json.loads(out)
        # 72.2 - 0.75 leaves only the N=11 point itself
        assert payload["config_id"] == "vit_small;N=11;patch=16"

    def test_default_baseline_is_highest_metric(self, run, sweep_dir):
        code, out, err = run("best", sweep_dir, "--metric", "top1", "--max-drop", 2.0)
        assert code == 0
        payload = json.loads(out)
        assert payload["baseline"] == "vit_small;N=11;patch=16"
        assert payload["config_id"] == "vit_small;N=9;patch=8"

    def test_unknown_metric(self, run, sweep_dir):
        code, _, err = run("best", sweep_dir, "--metric", "miou", "--max-drop", 1)
        assert code == 2

    def test_infeasible_budget(self, run, sweep_dir):
        code, _, err = run(
            "best", sweep_dir, "--metric", "top1", "--max-drop", 0.1,
            "--baseline", "vit_small;N=11;patch=16", "--objective", "memory",
        )
        # only the baseline survives a 0.1 drop; it is feasible, so this passes
        assert code == 0

    def test_non_finite_metric_rejected(self, run, sweep_dir):
        frontier = sweep_dir / "frontier.csv"
        lines = frontier.read_text().splitlines()
        lines[1] = lines[1].rsplit(",", 1)[0] + ",nan"
        frontier.write_text("\n".join(lines) + "\n")
        code, _, err = run("best", sweep_dir, "--metric", "top1", "--max-drop", "1")
        assert code == 2
        payload = json.loads(err)
        assert payload["error"] == "frontier"
        assert "line 2" in payload["message"]

    @pytest.mark.parametrize(
        "keep_header, rows, fragment",
        [
            (True, "x,1\n", "line 2"),
            (False, "", "line 1"),
            (True, '"' + "a" * 200_000 + '",1,1,1,1,70\n', "field limit"),
            (
                False,
                "config_id,flops,peak_activation_bytes,model_bytes,total_memory_bytes,top1,top1\n",
                "line 1: duplicate column 'top1'",
            ),
        ],
        ids=["short_row", "empty_file", "huge_cell", "duplicate_column"],
    )
    def test_malformed_frontier_is_one_error(self, run, sweep_dir, keep_header, rows, fragment):
        frontier = sweep_dir / "frontier.csv"
        header = frontier.read_text().splitlines(keepends=True)[0]
        frontier.write_text((header if keep_header else "") + rows)
        code, out, err = run("best", sweep_dir, "--metric", "top1", "--max-drop", "1")
        assert code == 2 and out == ""
        assert len(err.splitlines()) == 1
        payload = json.loads(err)
        assert payload["error"] == "frontier"
        assert fragment in payload["message"]

    def test_config_id_with_line_break(self, run, tmp_path):
        save_spec(dataclasses.replace(vit_small(), name="a\nb"), tmp_path / "net.json")
        space = tmp_path / "space.json"
        space.write_text(
            json.dumps({"spec_file": "net.json", "axes": [{"kind": "N", "values": [4, 6]}]})
        )
        ann = tmp_path / "ann.csv"
        buf = io.StringIO()
        csv.writer(buf, lineterminator="\n").writerows(
            [["config_id", "metric", "value"], ["a\nb;N=4", "top1", "70"], ["a\nb;N=6", "top1", "71"]]
        )
        ann.write_text(buf.getvalue())
        out_dir = tmp_path / "out"
        assert run("sweep", space, "--out", out_dir, "--annotations", ann)[0] == 0
        rows = list(csv.reader(io.StringIO((out_dir / "frontier.csv").read_text())))
        ids = {row[0] for row in rows[1:]}
        assert ids == {"a\nb;N=4", "a\nb;N=6"}
        code, out, _ = run("best", out_dir, "--metric", "top1", "--max-drop", "2")
        assert code == 0
        payload = json.loads(out)
        assert payload["baseline"] == "a\nb;N=6"
        assert payload["config_id"] == "a\nb;N=4"

    def test_missing_dir(self, run, tmp_path):
        code, _, err = run("best", tmp_path / "nowhere", "--metric", "m", "--max-drop", 1)
        assert code == 1


class TestPresets:
    def test_list(self, run):
        code, out, _ = run("presets")
        assert code == 0
        for name in ("resnet50", "vit_small", "vit_base", "seg_backbone_gw16"):
            assert name in out
