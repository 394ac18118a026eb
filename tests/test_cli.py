"""End-to-end CLI behavior: exit codes, stdout payloads, written files."""

import contextlib
import csv
import hashlib
import io
import json
import logging
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import visioncost.cli
import visioncost.cost
import visioncost.search
from visioncost.arch import (
    CnnSpec, Conv2d, EvalConfig, FlopConvention, GlobalPool, Linear, ResidualAdd, save_spec,
    spec_to_dict,
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


def fail_writes(monkeypatch, failing):
    """Make opening sweep output ``failing`` for writing fail with ENOSPC:
    a file of that name, or any report file for "report"."""
    real = Path.open

    def open_(path, mode="r", *args, **kwargs):
        name = "report" if path.parent.name == "reports" else path.name
        if "w" in mode and name == failing:
            raise OSError(28, "No space left on device", str(path))
        return real(path, mode, *args, **kwargs)

    monkeypatch.setattr(Path, "open", open_)


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

    def test_flattening_classifier_costs_at_the_resolution_it_fits(self, run, tmp_path):
        # a VGG-style head: it flattens the 8x112x112 map of a 224-pixel input
        spec = CnnSpec(
            "flat", 3, (Conv2d(3, 8, kernel=3, stride=2, padding=1), Linear(100352, 10))
        )
        p = tmp_path / "flat.json"
        save_spec(spec, p)
        code, out, err = run("cost", p, "--resolution", 224)
        assert (code, err) == (0, "")
        assert json.loads(out)["per_layer"][1]["flops"] == 2 * 100352 * 10 + 10
        code, out, err = run("cost", p, "--resolution", 128)
        assert (code, out) == (2, "")
        assert json.loads(err) == {
            "error": "shape_mismatch",
            "message": "layer 1: in_features 100352 does not match flattened input size 32768",
            "layer_index": 1,
        }

    def test_kernel_wider_than_the_default_input(self, run, tmp_path):
        spec = CnnSpec("k5000", 3, (Conv2d(3, 8, kernel=5000), GlobalPool(), Linear(8, 10)))
        p = tmp_path / "k5000.json"
        save_spec(spec, p)
        code, out, err = run("cost", p, "--resolution", 9000)
        assert (code, err) == (0, "")
        assert json.loads(out)["per_layer"][0]["out_shape"] == "8x4001x4001"
        code, out, err = run("cost", p)
        assert (code, out) == (3, "")
        payload = json.loads(err)
        assert (payload["error"], payload["layer_index"]) == ("infeasible_resolution", 0)

    @pytest.mark.parametrize("resolution, code", [(224, 0), (225, 2)])
    def test_residual_grids_checked_at_the_costed_resolution(
        self, run, tmp_path, resolution, code
    ):
        # a 3x3 stride-2 pad-1 conv halves a side rounding up, a 2x2
        # stride-2 one rounding down: the two branches agree on even sides
        spec = CnnSpec("res", 3, (
            Conv2d(3, 8, kernel=3, padding=1),
            Conv2d(8, 8, kernel=3, stride=2, padding=1),
            Conv2d(8, 8, kernel=2, stride=2, input_layer_index=0),
            ResidualAdd(source_layer_index=1),
        ))
        p = tmp_path / "res.json"
        save_spec(spec, p)
        got, out, err = run("cost", p, "--resolution", resolution)
        assert got == code
        if code:
            assert out == ""
            assert json.loads(err) == {
                "error": "shape_mismatch",
                "message": "layer 3: residual source layer 1 shape (8, 113, 113) "
                "does not match current shape (8, 112, 112)",
                "layer_index": 3,
            }

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
            ("vit_small", ["name"], ["x", 1], 'name must be a string, got ["x", 1]'),
            ("resnet50", ["name"], 7, "name must be a string, got 7"),
            ("resnet50", ["layers", 3, "kind"], ["max"],
             'layer 3: kind must be a string, got ["max"]'),
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

    @pytest.mark.parametrize(
        "base, path, message",
        [
            ("vit_small", ["depth"], "vit spec is missing key 'depth'"),
            ("resnet50", ["name"], "cnn spec is missing key 'name'"),
            ("resnet50", ["input_channels"], "cnn spec is missing key 'input_channels'"),
            ("resnet50", ["layers", 0, "kernel"], "layer 0: conv2d is missing key 'kernel'"),
            ("resnet50", ["layers", 1, "ch"], "layer 1: batch_norm is missing key 'ch'"),
        ],
    )
    def test_missing_spec_key(self, run, tmp_path, base, path, message):
        data = spec_to_dict(PRESETS[base].build())
        target = data
        for key in path[:-1]:
            target = target[key]
        del target[path[-1]]
        p = tmp_path / "spec.json"
        p.write_text(json.dumps(data))
        code, out, err = run("cost", p)
        assert (code, out) == (2, "")
        assert json.loads(err) == {"error": "spec", "message": message, "path": str(p)}

    def test_bad_batch_is_usage_error(self, run, vit_file):
        code, _, err = run("cost", vit_file, "--batch", 0)
        assert code == 64
        assert "usage error" in err


def test_cli_import_loads_neither_dataclasses_nor_inspect():
    """Records are named tuples: importing the CLI pulls in neither module
    (each costs start-up time on every command)."""
    code = (
        "import sys, visioncost.cli; "
        "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(visioncost.cli.__file__).parents[1])}
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    ).stdout
    assert out == "[]\n"


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

    def test_plot_series_use_config_id_tokens(self, run, tmp_path):
        space = tmp_path / "space.json"
        space.write_text(json.dumps({"base": "resnet50", "axes": [
            {"kind": "dtype", "values": ["FP16", "fp32"]},
            {"kind": "width", "values": [1.0, 0.5]},
            {"kind": "N", "values": [32]},
        ]}))
        out_dir = tmp_path / "out"
        assert run("sweep", space, "--out", out_dir)[0] == 0
        rows = [r.split("\t") for r in (out_dir / "plot.tsv").read_text().splitlines()[1:]]
        assert [series for series, *_ in rows] == [
            "dtype=fp16;width=1", "dtype=fp16;width=0.5", "dtype=fp32;width=1", "dtype=fp32;width=0.5",
        ]
        assert [f"resnet50;{series};N=32" for series, *_ in rows] == [r[1] for r in rows]

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
        # the manifest hashes the spec file under the path it was read from
        inputs = json.loads((out_dir / "manifest.json").read_text())["inputs"]
        assert inputs == {
            str(p): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in (space, tmp_path / "net.json")
        }

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
        stale = [".sweep-0123456789ab", ".sweep-fedcba987654"]
        kept = {
            ".sweep-0123456789AB": "upper-case hex",
            ".sweep-0123456789abc": "13 digits",
            ".sweep-0123456789ab.old": "other suffix",
            "sweep-0123456789ab": "no dot",
            ".reports-0123456789ab": "an older version's staging name",
        }
        for name in [*stale, *kept]:
            (out_dir / name / "sub").mkdir(parents=True)
            (out_dir / name / "sub" / "x.json").write_text(kept.get(name, "{}"))
        (out_dir / "notes.txt").write_text("a user's file")
        (out_dir / ".sweep-00000000000f").write_text("a file, not a staging directory")
        with caplog.at_level(logging.WARNING):
            assert run("sweep", space_file, "--out", out_dir)[0] == 0
        names = {p.name for p in out_dir.iterdir()}
        assert not names & set(stale)
        assert {name: (out_dir / name / "sub" / "x.json").read_text() for name in kept} == kept
        assert (out_dir / "notes.txt").read_text() == "a user's file"
        assert ".sweep-00000000000f" in names
        removed = [r.getMessage() for r in caplog.records if "stale staging" in r.getMessage()]
        assert sorted(removed) == sorted(
            f"removed stale staging directory {out_dir / name}" for name in stale
        )

    def test_stale_directory_that_cannot_be_removed_is_left(
        self, run, tmp_path, space_file, caplog, monkeypatch
    ):
        out_dir = tmp_path / "out"
        stuck = out_dir / ".sweep-aaaaaaaaaaaa"
        (stuck / "sub").mkdir(parents=True)
        real_rmtree = shutil.rmtree

        def rmtree(path, *args, **kwargs):
            if Path(path) == stuck:
                raise PermissionError(13, "Permission denied", str(path))
            return real_rmtree(path, *args, **kwargs)

        monkeypatch.setattr(shutil, "rmtree", rmtree)
        with caplog.at_level(logging.WARNING):
            code, out, err = run("sweep", space_file, "--out", out_dir)
        # The run had committed: it exits 0 and says what it wrote.
        assert code == 0 and out.startswith("wrote 4 configs") and "{" not in err
        assert {p.name for p in out_dir.iterdir()} == {
            stuck.name, "reports", "frontier.csv", "pareto.csv", "plot.tsv", "manifest.json"
        }
        assert (stuck / "sub").is_dir()
        warnings = [r.getMessage() for r in caplog.records if "stale staging" in r.getMessage()]
        assert warnings == [
            f"cannot remove stale staging directory {stuck}: "
            f"[Errno 13] Permission denied: '{stuck}'"
        ]

    def test_own_staging_that_cannot_be_removed_is_left(
        self, run, tmp_path, space_file, caplog, monkeypatch
    ):
        out_dir = tmp_path / "out"
        assert run("sweep", space_file, "--out", out_dir)[0] == 0  # an old reports/ to move
        real_rmtree = shutil.rmtree

        def rmtree(path, ignore_errors=False, *args, **kwargs):
            if Path(path).name.startswith(".sweep-"):
                if ignore_errors:
                    return None
                raise PermissionError(13, "Permission denied", str(path))
            return real_rmtree(path, ignore_errors, *args, **kwargs)

        monkeypatch.setattr(shutil, "rmtree", rmtree)
        with caplog.at_level(logging.WARNING):
            code, out, err = run("sweep", space_file, "--out", out_dir)
        # Every output was committed: the run exits 0 and says what it wrote.
        assert code == 0 and out.startswith("wrote 4 configs") and "{" not in err
        (staging,) = out_dir.glob(".sweep-*")
        assert {p.name for p in out_dir.iterdir()} == {
            staging.name, "reports", "frontier.csv", "pareto.csv", "plot.tsv", "manifest.json"
        }
        assert [p.name for p in staging.iterdir()] == ["reports.old"]
        warnings = [r.getMessage() for r in caplog.records if "stale staging" in r.getMessage()]
        assert warnings == [
            f"cannot remove stale staging directory {staging}: "
            f"[Errno 13] Permission denied: '{staging}'"
        ]

    def test_rejected_run_leaves_earlier_output_untouched(self, run, tmp_path, space_file):
        out_dir = tmp_path / "out"
        assert run("sweep", space_file, "--out", out_dir)[0] == 0
        before = {p: p.read_bytes() for p in out_dir.rglob("*") if p.is_file()}
        bad = write_space(tmp_path / "bad.json", "vit_small", ("depth", [0, -1]))
        assert run("sweep", bad, "--out", out_dir)[0] == 3
        assert {p: p.read_bytes() for p in out_dir.rglob("*") if p.is_file()} == before
        assert run("sweep", bad, "--out", tmp_path / "fresh")[0] == 3
        assert not (tmp_path / "fresh").exists()

    def test_empty_axis_rejected(self, run, tmp_path):
        space = write_space(tmp_path / "s.json", "vit_small", ("depth", []))
        code, _, err = run("sweep", space, "--out", tmp_path / "out")
        assert code == 2
        payload = json.loads(err)
        assert payload["error"] == "space"
        assert payload["message"] == "axis 0: values must be a non-empty array"
        assert not (tmp_path / "out").exists()

    def test_non_string_spec_name_is_a_space_error(self, run, tmp_path):
        data = spec_to_dict(vit_small())
        data["name"] = ["x", 1]
        (tmp_path / "net.json").write_text(json.dumps(data))
        space = tmp_path / "s.json"
        space.write_text(
            json.dumps({"spec_file": "net.json", "axes": [{"kind": "N", "values": [4]}]})
        )
        code, out, err = run("sweep", space, "--out", tmp_path / "out")
        assert (code, out) == (2, "")
        assert len(err.splitlines()) == 1
        payload = json.loads(err)
        assert payload["error"] == "space"
        assert payload["message"] == (
            f"spec {tmp_path / 'net.json'}: name must be a string, got [\"x\", 1]"
        )
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "text", ["", "config_id,metric,value\n"], ids=["zero-byte", "header-only"]
    )
    def test_empty_annotations_warn_once(self, run, tmp_path, space_file, caplog, text):
        ann = tmp_path / "empty.csv"
        ann.write_text(text)
        with caplog.at_level(logging.WARNING):
            code, _, _ = run("sweep", space_file, "--out", tmp_path / "out", "--annotations", ann)
        assert code == 0
        warnings = [r.getMessage() for r in caplog.records if "empty" in r.getMessage()]
        assert warnings == [f"annotation table {ann} is empty"]

    def test_annotations_naming_no_config_warn_once(self, run, tmp_path, caplog):
        space = write_space(tmp_path / "s.json", "vit_small", ("N", [9, 11]))
        ann = tmp_path / "ann.csv"
        ann.write_text(
            "config_id,metric,value\n"
            "vit_small;N=9,top1,0.7\n"
            "vit_small;N=09,top1,0.6\n"  # ids are matched as written
            "vit_small;n=11,top1,0.8\n"
        )
        out_dir = tmp_path / "out"
        with caplog.at_level(logging.WARNING):
            code, _, _ = run("sweep", space, "--out", out_dir, "--annotations", ann)
        assert code == 0
        assert [r.getMessage() for r in caplog.records] == [
            "2 annotation(s) name no config of the sweep; ignored: "
            "vit_small;N=09, vit_small;n=11"
        ]
        manifest = json.loads((out_dir / "manifest.json").read_text())
        assert (manifest["annotations_matched"], manifest["annotations_unmatched"]) == (1, 2)
        rows = (out_dir / "frontier.csv").read_text().splitlines()[1:]
        assert [row.rsplit(",", 1)[1] for row in rows] == ["0.7", ""]

    def test_unmatched_annotation_warning_names_five_ids(self, run, tmp_path, caplog):
        space = write_space(tmp_path / "s.json", "vit_small", ("N", [9]))
        ann = tmp_path / "ann.csv"
        rows = [f"x{i},{metric},0.5" for metric in ("a", "b") for i in (3, 1, 4, 5, 9, 2)]
        ann.write_text("config_id,metric,value\n" + "\n".join(rows) + "\n")
        with caplog.at_level(logging.WARNING):
            assert run("sweep", space, "--out", tmp_path / "out", "--annotations", ann)[0] == 0
        # every row is counted; each id is named once, in file order
        assert [r.getMessage() for r in caplog.records] == [
            "12 annotation(s) name no config of the sweep; ignored: x3, x1, x4, x5, x9, ..."
        ]

    def test_each_skip_is_logged_once(self, run, tmp_path, caplog):
        space = write_space(tmp_path / "s.json", "vit_small", ("depth", [0, 6, -1]))
        with caplog.at_level(logging.WARNING):
            assert run("sweep", space, "--out", tmp_path / "out")[0] == 0
        warnings = [r.getMessage() for r in caplog.records if r.levelno == logging.WARNING]
        assert len(warnings) == 2
        assert "(0,)" in warnings[0] and "(-1,)" in warnings[1]

    def test_vast_width_is_costed(self, run, tmp_path):
        space = write_space(tmp_path / "s.json", "resnet50", ("width", [1e308, 0.5]))
        out_dir = tmp_path / "out"
        code, out, _ = run("sweep", space, "--out", out_dir)
        assert code == 0
        assert "wrote 2 configs (0 skipped)" in out
        rows = list(csv.reader(io.StringIO((out_dir / "frontier.csv").read_text())))
        config = parse_config_id("resnet50;width=1e+308")
        want = cost_report(config.spec, config.eval).flops
        assert rows[1][:2] == ["resnet50;width=1e+308", str(want)]

    @pytest.mark.parametrize(
        "name, axis",
        [("a" * 300, ("N", [9])), ("vit_small", ("hidden", [10**400]))],
        ids=["long-name", "huge-hidden"],
    )
    def test_long_config_id_gets_a_short_file_name(self, run, tmp_path, name, axis):
        save_spec(vit_small()._replace(name=name), tmp_path / "net.json")
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

    def test_flattening_classifier_skips_the_resolutions_it_does_not_fit(
        self, run, tmp_path, caplog
    ):
        spec = CnnSpec(
            "flat", 3, (Conv2d(3, 8, kernel=3, stride=2, padding=1), Linear(100352, 10))
        )
        save_spec(spec, tmp_path / "flat.json")
        space = tmp_path / "space.json"
        space.write_text(
            json.dumps({"spec_file": "flat.json", "axes": [{"kind": "N", "values": [224, 112]}]})
        )
        out_dir = tmp_path / "out"
        code, out, _ = run("sweep", space, "--out", out_dir)
        assert code == 0
        assert "wrote 1 configs (1 skipped)" in out
        assert "skipping (112,): layer 1: in_features 100352 does not match" in caplog.text
        rows = (out_dir / "frontier.csv").read_text().splitlines()[1:]
        assert [r.split(",")[0] for r in rows] == ["flat;N=224"]

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

    def test_space_eval_overrides_only_the_keys_it_names(self, run, tmp_path):
        # seg_backbone_gw16's preset eval is 768 px; an eval without
        # input_resolution keeps it, so one config id names one cost.
        outputs = {}
        for name, extra in [
            ("plain", {}),
            ("noop", {"eval": {"batch_size": 1}}),
            ("fp16", {"eval": {"dtype": "FP16"}}),
        ]:
            space = write_space(
                tmp_path / f"{name}.json", "seg_backbone_gw16", ("batch", [1, 2]), **extra
            )
            assert run("sweep", space, "--out", tmp_path / name)[0] == 0
            outputs[name] = (tmp_path / name / "frontier.csv").read_text()
        assert outputs["noop"] == outputs["plain"]
        manifest = json.loads((tmp_path / "fp16" / "manifest.json").read_text())
        assert manifest["eval"] == {
            "batch_size": 1, "dtype": "fp16", "input_resolution": 768,
            "flop_convention": "closed_form",
        }
        rows = list(csv.reader(io.StringIO(outputs["plain"])))[1:]
        assert [row[0] for row in rows] == [f"seg_backbone_gw16;batch={b}" for b in (1, 2)]
        for config_id, *counts in rows:
            config = parse_config_id(config_id)
            report = cost_report(config.spec, config.eval)
            assert report.resolution == 768
            assert counts == [
                str(report.flops), str(report.peak_activation_bytes), str(report.model_bytes),
                str(report.total_memory_bytes),
            ]

    @pytest.mark.parametrize("field", ["batch_size", "input_resolution"])
    def test_eval_constructor_fault_names_the_eval(self, run, tmp_path, field):
        space = write_space(tmp_path / "s.json", "vit_small", ("depth", [6]), eval={field: 0})
        code, out, err = run("sweep", space, "--out", tmp_path / "out")
        assert (code, out) == (2, "")
        payload = json.loads(err)
        assert payload["error"] == "space"
        assert payload["message"] == f"eval: {field} must be >= 1, got 0"
        assert not (tmp_path / "out").exists()

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
        assert not list(out_dir.glob(".sweep-*"))

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
        assert not list(out_dir.glob(".sweep-*"))

    @pytest.mark.parametrize("failing", ["report", "frontier.csv"])
    def test_write_failure_is_io_error(self, run, tmp_path, space_file, monkeypatch, failing):
        out_dir = tmp_path / "out"
        assert run("sweep", space_file, "--out", out_dir)[0] == 0
        reports = {p.name: p.read_bytes() for p in (out_dir / "reports").iterdir()}
        fail_writes(monkeypatch, failing)
        code, out, err = run("sweep", space_file, "--out", out_dir)
        assert code == 1
        assert out == ""
        assert len(err.splitlines()) == 1
        payload = json.loads(err)
        assert payload["error"] == "io"
        assert "No space left on device" in payload["message"]
        assert {p.name: p.read_bytes() for p in (out_dir / "reports").iterdir()} == reports
        assert not list(out_dir.glob(".sweep-*"))

    @pytest.mark.parametrize(
        "failing", ["report", "frontier.csv", "pareto.csv", "plot.tsv", "manifest.json"]
    )
    def test_write_failure_leaves_previous_output(
        self, run, tmp_path, space_file, monkeypatch, failing
    ):
        out_dir = tmp_path / "out"
        assert run("sweep", space_file, "--out", out_dir)[0] == 0
        before = {p: p.read_bytes() for p in out_dir.rglob("*") if p.is_file()}
        # Other configs, so output mixed from the two runs would show.
        other = write_space(tmp_path / "other.json", "vit_small", ("depth", [2, 4, 6]))
        fail_writes(monkeypatch, failing)
        assert run("sweep", other, "--out", out_dir)[0] == 1
        assert {p: p.read_bytes() for p in out_dir.rglob("*") if p.is_file()} == before
        assert not list(out_dir.glob(".sweep-*"))
        assert not list(out_dir.rglob("*.tmp"))

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
        "base, kind, values, repeated",
        [
            ("vit_small", "N", [9, 9], "9"),
            ("resnet50", "width", [1, 0.5, 1.0], "1.0"),
            ("vit_small", "dtype", ["FP16", "fp16"], "'fp16'"),
        ],
        ids=["int", "width-int-and-float", "dtype-case"],
    )
    def test_repeated_axis_value_rejected(self, run, tmp_path, base, kind, values, repeated):
        # Both values have one config-id token: the run would write one
        # config twice, and its second report over the first.
        space = write_space(tmp_path / "s.json", base, ("batch", [1]), (kind, values))
        code, out, err = run("sweep", space, "--out", tmp_path / "out")
        assert code == 2
        assert out == ""
        assert len(err.splitlines()) == 1
        payload = json.loads(err)
        assert payload["error"] == "space"
        assert payload["message"].startswith(f"axis 1: {kind} value {repeated} repeats")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("value", ["7_0.5", "\u0667\u0660"], ids=["underscore", "arabic-indic"])
    def test_loose_annotation_value_rejected(self, run, tmp_path, space_file, value):
        ann = tmp_path / "ann.csv"
        ann.write_text(
            f"config_id,metric,value\nvit_small;N=9;patch=8,top1,70\n"
            f"vit_small;N=9;patch=16,top1,{value}\n", encoding="utf-8"
        )
        code, out, err = run("sweep", space_file, "--out", tmp_path / "out", "--annotations", ann)
        assert code == 2
        assert out == ""
        payload = json.loads(err)
        assert payload["error"] == "annotations"
        assert payload["message"] == f"line 3: value {value!r} is not a number"
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

    @pytest.mark.parametrize("command", ["cost", "match"])
    def test_deep_spec_exits_2_before_any_row_is_built(self, tmp_path, command):
        # depth 2**70: building its rows would end in a MemoryError, so the
        # child's address space is capped at 1 GiB in case the cap fails.
        save_spec(vit_small()._replace(depth=2**70), tmp_path / "deep.json")
        extra = ["--knob", "hidden", "--target-flops", "1000"] if command == "match" else []
        code = (
            "import resource, sys; from visioncost.cli import main; "
            "resource.setrlimit(resource.RLIMIT_AS, (2**30, 2**30)); "
            "sys.exit(main(sys.argv[1:]))"
        )
        env = {**os.environ, "PYTHONPATH": str(Path(visioncost.cli.__file__).parents[1])}
        done = subprocess.run(
            [sys.executable, "-c", code, command, str(tmp_path / "deep.json"), *extra],
            env=env, capture_output=True, text=True, timeout=60,
        )
        _assert_one_error_line(done.returncode, done.stdout, done.stderr)
        assert done.returncode == 2
        assert json.loads(done.stderr) == {
            "error": "count_too_large",
            "message": "the report would have more than 1000000 rows",
        }

    @pytest.mark.parametrize(
        "convention, cap", [("closed_form", 6), ("full_count", 14 * 6 + 4)]
    )
    def test_rows_past_the_cap_are_refused(
        self, run, tmp_path, monkeypatch, caplog, convention, cap
    ):
        monkeypatch.setattr(visioncost.cost, "MAX_REPORT_ROWS", cap)
        space = write_space(
            tmp_path / "s.json", "vit_small", ("depth", [6, 7]),
            eval={"flop_convention": convention},
        )
        with caplog.at_level(logging.WARNING):
            code, out, _ = run("sweep", space, "--out", tmp_path / "out")
        assert (code, out.split(",")[0]) == (0, "wrote 1 configs (1 skipped)")
        skips = [r.getMessage() for r in caplog.records if "skipping" in r.getMessage()]
        assert skips == [f"skipping (7,): the report would have more than {cap} rows"]
        spec = tmp_path / "deep.json"
        save_spec(vit_small()._replace(depth=7), spec)
        code, out, err = run("cost", spec, "--convention", convention)
        _assert_one_error_line(code, out, err)
        assert json.loads(err)["error"] == "count_too_large"

    def test_cnn_rows_past_the_cap_are_refused(self, run, tmp_path, monkeypatch):
        spec = resnet50()
        monkeypatch.setattr(visioncost.cost, "MAX_REPORT_ROWS", len(spec.layers) - 1)
        save_spec(spec, tmp_path / "r50.json")
        code, out, err = run("cost", tmp_path / "r50.json")
        _assert_one_error_line(code, out, err)
        assert json.loads(err)["error"] == "count_too_large"

    def test_hidden_axis_past_the_limit_is_skipped(self, run, tmp_path, caplog):
        # hidden 10**2200: its FLOPs (a hidden**2 term) have about 4400 digits
        space = write_space(tmp_path / "s.json", "vit_small", ("hidden", [10**2200]))
        with caplog.at_level(logging.WARNING):
            code, out, err = run("sweep", space, "--out", tmp_path / "out")
        assert code == 3
        assert out == ""
        assert json.loads(err.splitlines()[-1])["error"] == "infeasible"
        skips = [r.getMessage() for r in caplog.records if "skipping" in r.getMessage()]
        assert len(skips) == 1 and "decimal digits" in skips[0]

    def test_n_axis_writes_the_config_that_prints(self, run, tmp_path):
        space = write_space(tmp_path / "s.json", "vit_small", ("N", [self.BIG, 9]))
        code, out, _ = run("sweep", space, "--out", tmp_path / "out")
        assert code == 0
        assert out.startswith("wrote 1 configs (1 skipped)")
        rows = list(csv.reader(io.StringIO((tmp_path / "out" / "frontier.csv").read_text())))
        assert [row[0] for row in rows[1:]] == ["vit_small;N=9"]

    def test_match_batch_past_the_limit(self, run, vit_file):
        code, out, err = run(
            "match", vit_file, "--knob", "depth", "--target-flops", 10**9, "--batch", 10**4290
        )
        _assert_one_error_line(code, out, err)
        assert code == 2
        assert json.loads(err)["error"] == "count_too_large"

    def test_match_target_of_4300_digits(self, run, vit_file):
        target = int("9" * 4300)  # the longest integer argparse may read
        code, out, err = run("match", vit_file, "--knob", "depth", "--target-flops", target)
        _assert_one_error_line(code, out, err)
        assert code == 3
        payload = json.loads(err)
        assert payload["error"] == "target_unreachable"
        assert payload["target"] == target
        low, high = payload["attainable"]
        assert low < high < target

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


# Values of the wrong JSON type for each field type of a space file.
_WRONG_TYPED = {
    "int": [None, True, 4.0, "4", [4], {}],
    "int or null": [True, 4.0, "4", [4], {}],  # null: the spec default
    "string": [None, False, 4, ["x"], {}],
    "array": [None, 4, "x", {}, []],  # [] is not a non-empty array
    "object": [None, 4, "x", [{}]],
}

# (where, field, field type) of every key a space file may hold.
_SPACE_FIELDS = [
    ("", "axes", "array"), ("", "base", "string"), ("", "spec_file", "string"),
    ("", "eval", "object"), ("", "cap", "int"),
    ("eval: ", "batch_size", "int"), ("eval: ", "dtype", "string"),
    ("eval: ", "input_resolution", "int or null"), ("eval: ", "flop_convention", "string"),
    ("axis {}: ", "kind", "string"), ("axis {}: ", "values", "array"),
]


class TestSpaceSchema:
    """Every key of a space file, its eval and its axes is checked by its
    field's type."""

    @settings(max_examples=150, deadline=None)
    @given(base=st.sampled_from(sorted(_SPACES)), field=st.sampled_from(_SPACE_FIELDS),
           data=st.data())
    def test_wrong_typed_field_is_named(self, tmp_path_factory, base, field, data):
        where, name, kind = field
        space = json.loads(json.dumps(_SPACES[base]))
        value = data.draw(st.sampled_from(_WRONG_TYPED[kind]))
        if where == "eval: ":
            space.setdefault("eval", {})[name] = value
        elif where:
            i = data.draw(st.integers(0, len(space["axes"]) - 1))
            space["axes"][i][name] = value
            where = where.format(i)
        else:
            space[name] = value
        tmp = tmp_path_factory.mktemp("space")
        (tmp / "s.json").write_text(json.dumps(space))
        code, out, err = _sweep_quietly("sweep", tmp / "s.json", "--out", tmp / "out")
        assert (code, out) == (2, "")
        payload = json.loads(err)
        assert payload["error"] == "space"
        assert payload["message"].startswith(f"{where}{name} must be ")
        assert not (tmp / "out").exists()

    @settings(max_examples=30, deadline=None)
    @given(kind=st.sampled_from(["width", "gw"]), value=st.integers(2**53 + 1, 2**80))
    def test_int_widths_survive_the_config_id(self, tmp_path_factory, kind, value):
        base = "resnet50" if kind == "width" else "seg_backbone_gw16"
        tmp = tmp_path_factory.mktemp("wide")
        space = write_space(tmp / "s.json", base, (kind, [value]))
        assert _sweep_quietly("sweep", space, "--out", tmp / "out")[0] == 0
        (config_id, *counts), = list(csv.reader(io.StringIO(
            (tmp / "out" / "frontier.csv").read_text()
        )))[1:]
        assert config_id == f"{base};{kind}={value}"
        config = parse_config_id(config_id)
        report = cost_report(config.spec, config.eval)
        assert config.config_id == config_id
        assert counts == [
            str(report.flops), str(report.peak_activation_bytes), str(report.model_bytes),
            str(report.total_memory_bytes),
        ]


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

    def test_tolerance_is_the_decimal_written(self, run, vit_file):
        # depth 1 misses the target by 248,538,528: exactly 3/10 of it
        code, out, _ = run(
            "match", vit_file, "--knob", "depth", "--target-flops", 828_461_760, "--tol", "0.3",
        )
        assert code == 0
        payload = json.loads(out)
        assert (payload["value"], payload["deviation"]) == (1, 248_538_528)
        assert payload["within_tol"] is True and payload["bracket"] is None

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

    def test_range_past_the_largest_float(self, run, vit_file):
        # relaxed_value, a float, cannot be written for knob values this large
        lo, hi = 10**400, 10**400 + 64
        target = cost_report(vit_small(), EvalConfig(input_resolution=lo + 32)).flops
        code, out, err = run(
            "match", vit_file, "--knob", "resolution", "--target-flops", target,
            "--min-value", lo, "--max-value", hi,
        )
        assert code == 2 and out == ""
        assert len(err.splitlines()) == 1
        payload = json.loads(err)
        assert payload["error"] == "match"
        assert "past the largest float" in payload["message"]

    def test_non_string_spec_name_is_a_spec_error(self, run, tmp_path):
        data = spec_to_dict(vit_small())
        data["name"] = ["x", 1]
        p = tmp_path / "net.json"
        p.write_text(json.dumps(data))
        code, out, err = run("match", p, "--knob", "depth", "--target-flops", 10**9)
        assert (code, out) == (2, "")
        assert json.loads(err) == {
            "error": "spec", "message": 'name must be a string, got ["x", 1]', "path": str(p),
        }

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
            # Read as one config, b could pass a budget on one row's top1
            # and be reported with the other's.
            (
                True,
                "a,10,1,1,2,0.9\nb,1,1,1,2,0.1\nb,1,1,1,2,0.85\n",
                "duplicate config id 'b' on line 3 and line 4",
            ),
        ],
        ids=["short_row", "empty_file", "huge_cell", "duplicate_column", "repeated_config_id"],
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

    @pytest.mark.parametrize(
        "column, cell",
        [
            (1, "1_000"), (1, "\u0661\u0662"), (1, "-3"), (2, " 5"), (4, "+5"),
            (5, "7_0.5"), (5, "\u0667\u0660"),
        ],
        ids=["underscore", "arabic-indic", "negative", "space", "plus",
             "metric-underscore", "metric-arabic-indic"],
    )
    def test_loose_number_in_frontier_rejected(self, run, sweep_dir, column, cell):
        # int() and float() take all of these; a count cell holds ASCII
        # digits only, a metric cell no "_" and no non-ASCII text.
        frontier = sweep_dir / "frontier.csv"
        rows = list(csv.reader(io.StringIO(frontier.read_text())))
        row = ["vit_small;N=5", "1", "1", "1", "1", "70"]
        row[column] = cell
        buf = io.StringIO()
        csv.writer(buf, lineterminator="\n").writerows(rows + [row])
        frontier.write_text(buf.getvalue(), encoding="utf-8")
        code, out, err = run("best", sweep_dir, "--metric", "top1", "--max-drop", "5")
        assert code == 2 and out == ""
        assert len(err.splitlines()) == 1
        payload = json.loads(err)
        assert payload["error"] == "frontier"
        assert payload["message"].startswith(f"line {len(rows) + 1}: ")

    @pytest.mark.parametrize(
        "metrics, rows, message",
        [
            ("top1", "a,1,1,1,1,70\nb,1\n", "line 3: expected 6 columns, got 2"),
            ("top1", "a,1,1,1,1,70\n\nb,1\n", "line 4: expected 6 columns, got 2"),
            (
                "top1",
                "a,1,1,1,1,70\nb,1,1,1,1,70\na,2,2,2,2,71\n",
                "duplicate config id 'a' on line 2 and line 4",
            ),
            ("top1", "a,1.5,1,1,1,70\n", "line 2: cost '1.5' is not a decimal count"),
            ("top1", "a,1,-3,1,1,70\n", "line 2: cost '-3' is not a decimal count"),
            ("top1", "a,1,1, 5,1,70\n", "line 2: cost ' 5' is not a decimal count"),
            ("top1", "a,1,1,1,,70\n", "line 2: cost '' is not a decimal count"),
            ("top1", "a,1,1,1,1,abc\n", "line 2: could not convert string to float: 'abc'"),
            ("top1", "a,1,1,1,1,٧٠\n", "line 2: '٧٠' is not a number"),
            ("top1", "a,1,1,1,1,inf\n", "line 2: metric values must be finite"),
            ("top1", "a,-3,1,1,1,nan\n", "line 2: cost '-3' is not a decimal count"),
            ("top1", "a,1,1,1,1,70\na,-3,1,1\n", "line 3: expected 6 columns, got 4"),
            (
                "top1,top5",
                "a,1,1,1,1,nan,abc\n",
                "line 2: could not convert string to float: 'abc'",
            ),
            (
                "top1",
                '"x\ny",1,1,1,1,70\nc,1,1,x,1,70\n',
                "line 4: cost 'x' is not a decimal count",
            ),
        ],
        ids=[
            "short_row", "short_row_after_blank_line", "repeated_config_id", "bad_flops",
            "bad_peak_activation_bytes", "bad_model_bytes", "empty_total_memory_bytes",
            "metric_not_a_number", "metric_not_ascii", "metric_not_finite",
            "bad_count_and_nan", "repeated_id_and_short_row", "nan_then_bad_metric",
            "after_multi_line_config_id",
        ],
    )
    def test_frontier_error_messages(self, run, tmp_path, metrics, rows, message):
        frontier = tmp_path / "frontier.csv"
        frontier.write_text(
            "config_id,flops,peak_activation_bytes,model_bytes,total_memory_bytes,"
            f"{metrics}\n{rows}",
            encoding="utf-8",
        )
        code, out, err = run("best", tmp_path, "--metric", "top1", "--max-drop", "1")
        assert (code, out) == (2, "")
        assert json.loads(err) == {"error": "frontier", "message": message, "path": str(frontier)}

    def test_count_too_long_to_read_names_its_line(self, run, tmp_path):
        digits = "1" * 5000
        with pytest.raises(ValueError) as limit:
            int(digits)
        frontier = tmp_path / "frontier.csv"
        frontier.write_text(
            "config_id,flops,peak_activation_bytes,model_bytes,total_memory_bytes,top1\n"
            f"a,1,1,1,1,70\nb,{digits},1,1,1,abc\nc,{digits},1,1,1,70\n"
        )
        code, _, err = run("best", tmp_path, "--metric", "top1", "--max-drop", "1")
        assert code == 2
        # Row b: its metric fault is reported before its count's.
        assert json.loads(err)["message"] == "line 3: could not convert string to float: 'abc'"
        frontier.write_text(frontier.read_text().replace("abc", "70"))
        code, _, err = run("best", tmp_path, "--metric", "top1", "--max-drop", "1")
        assert code == 2
        assert json.loads(err)["message"] == f"line 3: {limit.value}"

    def test_unknown_baseline_is_a_validation_error(self, run, sweep_dir):
        code, out, err = run(
            "best", sweep_dir, "--metric", "top1", "--max-drop", "1", "--baseline", "nope"
        )
        assert (code, out) == (2, "")
        assert json.loads(err) == {
            "error": "baseline",
            "message": "baseline 'nope' is not a config of the frontier",
            "path": str(sweep_dir / "frontier.csv"),
        }

    def test_unannotated_baseline_is_infeasible(self, run, sweep_dir):
        code, out, err = run(
            "best", sweep_dir, "--metric", "top1", "--max-drop", "1",
            "--baseline", "vit_small;N=11;patch=8",
        )
        assert (code, out) == (3, "")
        assert json.loads(err) == {
            "error": "no_feasible_candidate",
            "message": "baseline 'vit_small;N=11;patch=8' has no annotation for metric 'top1'",
        }

    def test_config_id_with_line_break(self, run, tmp_path):
        save_spec(vit_small()._replace(name="a\nb"), tmp_path / "net.json")
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


class TestSharedParser:
    """``main`` parses every call with one parser; no call leaks into the next."""

    def test_one_parser_per_process(self):
        assert visioncost.cli.build_parser() is visioncost.cli.build_parser()

    def test_annotations_do_not_carry_over(self, run, tmp_path, space_file, annotations_file):
        first, second = tmp_path / "first", tmp_path / "second"
        assert run("sweep", space_file, "--out", first, "--annotations", annotations_file)[0] == 0
        assert run("sweep", space_file, "--out", second)[0] == 0
        header = (second / "frontier.csv").read_text().splitlines()[0]
        assert header == "config_id,flops,peak_activation_bytes,model_bytes,total_memory_bytes"
        assert "--annotations" not in (second / "manifest.json").read_text()

    def test_usage_error_then_valid_command(self, run, vit_file):
        assert run("cost", vit_file, "--bogus")[0] == 64
        assert run("cost", vit_file, "--batch", "0")[0] == 64
        code, out, _ = run("cost", vit_file)
        assert code == 0
        assert json.loads(out)["batch_size"] == 1

    def test_baseline_does_not_carry_over(self, run, tmp_path, space_file, annotations_file):
        out_dir = tmp_path / "out"
        assert run("sweep", space_file, "--out", out_dir, "--annotations", annotations_file)[0] == 0
        code, out, _ = run(
            "best", out_dir, "--metric", "top1", "--max-drop", "5",
            "--baseline", "vit_small;N=9;patch=8",
        )
        assert code == 0 and json.loads(out)["baseline"] == "vit_small;N=9;patch=8"
        code, out, _ = run("best", out_dir, "--metric", "top1", "--max-drop", "5")
        assert code == 0 and json.loads(out)["baseline"] == "vit_small;N=11;patch=16"


class TestPresets:
    def test_list(self, run):
        code, out, _ = run("presets")
        assert code == 0
        for name in ("resnet50", "vit_small", "vit_base", "seg_backbone_gw16"):
            assert name in out

    def test_takes_no_argument(self, run):
        code, out, err = run("presets", "list")
        assert (code, out) == (64, "")
        assert err == "usage error: unrecognized arguments: list\n"


def _pairs(text):
    """JSON ``text`` with each object read as its list of (key, value)
    pairs, in the order the text writes them."""
    return json.loads(text, object_pairs_hook=list)


def _keys(pairs):
    return [key for key, _ in pairs]


class TestOutputKeyOrder:
    """The order of the keys each JSON output writes, read from its text:
    each follows the field order of the record it is built from. The CSV
    headers are pinned as text by TestCost::test_csv_output and
    TestSweep::test_writes_all_outputs."""

    def test_sweep_outputs(self, run, tmp_path, space_file, annotations_file):
        out_dir = tmp_path / "out"
        assert run("sweep", space_file, "--out", out_dir, "--annotations", annotations_file)[0] == 0
        manifest = _pairs((out_dir / "manifest.json").read_text())
        assert _keys(manifest) == [
            "tool", "version", "command", "inputs", "eval", "generated_at",
            "configs", "skipped", "annotations_matched", "annotations_unmatched",
        ]
        assert dict(manifest)["eval"] == [
            ("batch_size", 1), ("dtype", "fp32"), ("input_resolution", 9),
            ("flop_convention", "full_count"),
        ]

    def test_best_payload(self, run, tmp_path, space_file, annotations_file):
        out_dir = tmp_path / "out"
        assert run("sweep", space_file, "--out", out_dir, "--annotations", annotations_file)[0] == 0
        code, out, _ = run("best", out_dir, "--metric", "top1", "--max-drop", 2.0)
        assert code == 0
        assert _keys(_pairs(out)) == [
            "config_id", "flops", "peak_activation_bytes", "model_bytes", "total_memory_bytes",
            "annotations", "baseline", "metric", "max_drop", "objective",
        ]

    def test_violations(self, run, tmp_path):
        spec = CnnSpec(
            name="bad",
            input_channels=3,
            layers=(Conv2d(3, 8, kernel=3), Conv2d(99, 8, kernel=3), Conv2d(98, 8, kernel=3)),
        )
        save_spec(spec, tmp_path / "bad.json")
        code, _, err = run("cost", tmp_path / "bad.json")
        assert code == 2
        violations = dict(_pairs(err))["violations"]
        assert len(violations) >= 2
        assert all(_keys(v) == ["layer_index", "message"] for v in violations)
