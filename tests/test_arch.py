"""Spec records (named tuples), validation, and JSON (de)serialization."""

import subprocess
import sys
from typing import NamedTuple

import pytest

from visioncost import arch
from visioncost.arch import (
    Activation,
    BatchNorm,
    CnnSpec,
    Conv2d,
    DTYPES,
    EvalConfig,
    FlopConvention,
    GlobalPool,
    Linear,
    Pool,
    ResidualAdd,
    Resize,
    ViTSpec,
    dtype_from_name,
    save_spec,
    spec_from_dict,
    spec_from_json,
    spec_to_dict,
    spec_to_json,
    validate_cnn,
    validate_spec,
    validate_vit,
)
from visioncost.cli import _SpaceFile
from visioncost.cost import InfeasibleResolution, ShapeMismatch, cost_report
from visioncost.presets import resnet50
from visioncost.scaling import TransformKind
from visioncost.search import SweepAxis


def tiny_cnn(**overrides):
    kwargs = dict(
        name="tiny",
        input_channels=3,
        layers=(
            Conv2d(3, 8, kernel=3, stride=1, padding=1),
            BatchNorm(8),
            Activation(),
            Conv2d(8, 16, kernel=3, stride=2, padding=1),
            GlobalPool(),
            Linear(16, 10),
        ),
    )
    kwargs.update(overrides)
    return CnnSpec(**kwargs)


class TestDtypes:
    def test_registry_sizes(self):
        assert {n: d.bytes_per_element for n, d in DTYPES.items()} == {
            "fp64": 8,
            "fp32": 4,
            "fp16": 2,
            "bf16": 2,
            "int8": 1,
        }

    def test_lookup_is_case_insensitive(self):
        assert dtype_from_name("FP32") is DTYPES["fp32"]

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError, match="unknown dtype"):
            dtype_from_name("fp8")


class TestCnnValidation:
    def test_valid_spec_has_no_violations(self):
        assert validate_cnn(tiny_cnn()) == []

    def test_channel_mismatch_reported_with_layer_index(self):
        spec = tiny_cnn(
            layers=(
                Conv2d(3, 8, kernel=3, padding=1),
                Conv2d(16, 32, kernel=3, padding=1),  # expects 8 in
            )
        )
        violations = validate_cnn(spec)
        assert any(v.layer_index == 1 for v in violations)

    def test_first_layer_must_match_input_channels(self):
        spec = tiny_cnn(layers=(Conv2d(4, 8, kernel=3, padding=1),))
        assert any(v.layer_index == 0 for v in validate_cnn(spec))

    def test_groups_must_divide_both_channel_counts(self):
        spec = tiny_cnn(
            layers=(
                Conv2d(3, 8, kernel=3, padding=1),
                Conv2d(8, 9, kernel=3, padding=1, groups=4),
            )
        )
        assert any(v.layer_index == 1 for v in validate_cnn(spec))

    def test_batchnorm_channel_mismatch(self):
        spec = tiny_cnn(layers=(Conv2d(3, 8, kernel=3, padding=1), BatchNorm(16)))
        assert any(v.layer_index == 1 for v in validate_cnn(spec))

    def test_residual_must_point_backwards(self):
        spec = tiny_cnn(
            layers=(Conv2d(3, 8, kernel=3, padding=1), ResidualAdd(source_layer_index=5))
        )
        assert any(v.layer_index == 1 for v in validate_cnn(spec))

    def test_nonpositive_fields_rejected(self):
        spec = tiny_cnn(layers=(Conv2d(3, 8, kernel=0),))
        assert validate_cnn(spec)
        spec = tiny_cnn(layers=(Conv2d(3, 8, kernel=3, stride=0),))
        assert validate_cnn(spec)

    def test_kernel_wider_than_the_input_is_left_to_the_cost_walk(self):
        # a 9999-pixel kernel fits an input of 9999 pixels or more: the spec
        # is valid, and the walk rejects the resolutions it does not fit
        spec = tiny_cnn(layers=(Conv2d(3, 8, kernel=9999),))
        assert validate_cnn(spec) == []
        with pytest.raises(InfeasibleResolution) as exc:
            cost_report(spec, EvalConfig(input_resolution=224))
        assert exc.value.layer_index == 0
        assert cost_report(spec, EvalConfig(input_resolution=9999)).flops > 0

    def test_violations_in_layer_order(self):
        # the spec's own fault first, then each layer's, its field faults
        # and its channel faults together
        spec = CnnSpec("bad", 0, (
            Conv2d(3, 8, kernel=0),
            BatchNorm(16),
            Conv2d(8, 8, kernel=3, padding=-1),
        ))
        assert [tuple(v) for v in validate_cnn(spec)] == [
            (None, "input_channels must be >= 1, got 0"),
            (0, "kernel must be >= 1, got 0"),
            (0, "in_ch 3 does not match input channels 0"),
            (1, "ch 16 does not match input channels 8"),
            (2, "padding must be >= 0, got -1"),
        ]
        # every bound of every kind: a conv's in field order with padding
        # last, then its back-reference and channels; a pool's kind first
        spec = CnnSpec("bad", 3, (
            Conv2d(0, 0, kernel=0, stride=0, padding=-1, groups=0, dilation=0, input_layer_index=5),
            Pool("min", kernel=0),
            Conv2d(0, 6, kernel=1, groups=4),
            Linear(0, -1),
            BatchNorm(0),
            Resize(0),
        ))
        assert [tuple(v) for v in validate_cnn(spec)] == [
            (0, "in_ch must be >= 1, got 0"),
            (0, "out_ch must be >= 1, got 0"),
            (0, "kernel must be >= 1, got 0"),
            (0, "stride must be >= 1, got 0"),
            (0, "dilation must be >= 1, got 0"),
            (0, "groups must be >= 1, got 0"),
            (0, "padding must be >= 0, got -1"),
            (0, "input_layer_index 5 must point at an earlier layer"),
            (0, "in_ch 0 does not match input channels 3"),
            (1, "pool kind must be 'max' or 'avg', got 'min'"),
            (1, "kernel must be >= 1, got 0"),
            (2, "in_ch must be >= 1, got 0"),
            (2, "out_ch 6 not divisible by groups 4"),
            (3, "in_features must be >= 1, got 0"),
            (3, "out_features must be >= 1, got -1"),
            (4, "ch must be >= 1, got 0"),
            (4, "ch 0 does not match input channels -1"),
            (5, "target_hw must be >= 1, got 0"),
        ]

    @pytest.mark.parametrize(
        "widen, side", [(Resize(2), 2), (Pool("max", kernel=1, padding=1), 3)]
    )
    def test_fan_in_after_widening_the_pooled_map(self, widen, side):
        # a resize or a padded pool widens the pooled 1x1 map at any input
        # resolution: the classifier reads side * side * 16 inputs
        fan_in = side * side * 16
        spec = tiny_cnn(layers=tiny_cnn().layers[:-1] + (widen, Linear(fan_in, 10)))
        assert validate_cnn(spec) == []
        assert cost_report(spec).per_layer[-1].flops == 2 * fan_in * 10 + 10

    def test_residual_grids_are_left_to_the_cost_walk(self):
        # stride 2 on one branch only: the grids differ at every resolution
        # above 1, which the walk reports; the channels agree
        spec = tiny_cnn(layers=(
            Conv2d(3, 8, kernel=3, padding=1),
            Conv2d(8, 8, kernel=1, stride=2),
            ResidualAdd(source_layer_index=0),
        ))
        assert validate_cnn(spec) == []
        with pytest.raises(ShapeMismatch) as exc:
            cost_report(spec)
        assert exc.value.layer_index == 2

    def test_validation_runs_without_the_rest_of_the_package(self, tmp_path):
        """arch.py imports nothing from the package, so a process that loads
        it alone validates resnet50 without loading visioncost.cost."""
        save_spec(resnet50(), tmp_path / "r50.json")
        code = (
            "import importlib.util, sys\n"
            "module_spec = importlib.util.spec_from_file_location('arch', sys.argv[1])\n"
            "arch = sys.modules['arch'] = importlib.util.module_from_spec(module_spec)\n"
            "module_spec.loader.exec_module(arch)\n"
            "print(arch.validate_spec(arch.load_spec(sys.argv[2])))\n"
            "print(sorted(m for m in sys.modules if m.startswith('visioncost')))\n"
        )
        out = subprocess.run(
            [sys.executable, "-c", code, arch.__file__, str(tmp_path / "r50.json")],
            capture_output=True, text=True, check=True,
        ).stdout
        assert out == "[]\n[]\n"


class TestViTValidation:
    def test_valid(self):
        spec = ViTSpec(
            name="v", patch_size=16, hidden_dim=384, num_heads=6,
            mlp_dim=1536, depth=12, tokens_per_side=14,
        )
        assert validate_vit(spec) == []

    def test_head_divisibility(self):
        spec = ViTSpec(
            name="v", patch_size=16, hidden_dim=384, num_heads=7,
            mlp_dim=1536, depth=12, tokens_per_side=14,
        )
        msgs = [v.message for v in validate_vit(spec)]
        assert any("hidden_dim 384 not divisible by num_heads 7" in m for m in msgs)

    def test_nonpositive_fields(self):
        spec = ViTSpec(
            name="v", patch_size=16, hidden_dim=384, num_heads=6,
            mlp_dim=1536, depth=0, tokens_per_side=14,
        )
        assert validate_vit(spec)
        # every size at 0: one violation each, in field order
        spec = ViTSpec("v", 0, 0, 0, 0, 0, 0, 0, 0)
        assert [tuple(v) for v in validate_vit(spec)] == [
            (None, f"{field} must be >= 1, got 0") for field in (
                "patch_size", "hidden_dim", "num_heads", "mlp_dim", "depth",
                "tokens_per_side", "input_channels", "num_classes",
            )
        ]


def assert_same_spec(got, want):
    """Records equal any tuple with the same values, so ``==`` alone cannot
    tell a GlobalPool from an Activation (both ``()``): compare the types and
    the JSON form too."""
    assert got == want
    assert type(got) is type(want)
    assert [type(layer) for layer in getattr(got, "layers", ())] == [
        type(layer) for layer in getattr(want, "layers", ())
    ]
    assert spec_to_dict(got) == spec_to_dict(want)


class TestJsonRoundTrip:
    def test_cnn_round_trip(self):
        spec = tiny_cnn(
            layers=(
                Conv2d(3, 8, kernel=7, stride=2, padding=3),
                Pool("max", kernel=3, stride=2, padding=1),
                Conv2d(8, 8, kernel=3, padding=2, dilation=2, groups=2, has_bias=True),
                Resize(target_hw=14),
                ResidualAdd(source_layer_index=1),
                Activation(),
                BatchNorm(8),
                GlobalPool(),
                Linear(8, 10),
            )
        )
        assert_same_spec(spec_from_json(spec_to_json(spec)), spec)

    def test_vit_round_trip(self):
        spec = ViTSpec(
            name="v", patch_size=8, hidden_dim=192, num_heads=3,
            mlp_dim=768, depth=6, tokens_per_side=9, num_classes=100,
        )
        assert_same_spec(spec_from_json(spec_to_json(spec)), spec)

    def test_records_of_equal_values_are_told_apart(self):
        # The hazard assert_same_spec guards against.
        assert GlobalPool() == Activation() == ()
        assert BatchNorm(8) == ResidualAdd(8)
        pooled, activated = tiny_cnn(layers=(GlobalPool(),)), tiny_cnn(layers=(Activation(),))
        assert pooled == activated
        assert spec_to_dict(pooled) != spec_to_dict(activated)
        with pytest.raises(AssertionError):
            assert_same_spec(pooled, activated)

    def test_unknown_layer_key_rejected_with_index(self):
        d = spec_to_dict(tiny_cnn())
        d["layers"][2]["sneaky"] = 1
        with pytest.raises(ValueError, match="layer 2"):
            spec_from_dict(d)

    def test_unknown_top_level_key_rejected(self):
        d = spec_to_dict(tiny_cnn())
        d["extra"] = True
        with pytest.raises(ValueError, match="extra"):
            spec_from_dict(d)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="kind"):
            spec_from_dict({"kind": "rnn", "name": "x"})

    def test_schema_checks_every_loaded_field(self):
        assert arch._FIELD_CHECKS[ViTSpec]["name"] is arch.checked_str
        assert arch._FIELD_CHECKS[Pool]["kind"] is arch.checked_str
        assert list(arch._FIELD_CHECKS[CnnSpec]) == ["name", "input_channels"]
        # A space file's eval, its axes and its top level: each checked
        # value is stored as its field's type.
        checks = arch._FIELD_CHECKS[EvalConfig]
        assert list(checks) == ["batch_size", "dtype", "input_resolution", "flop_convention"]
        assert checks["batch_size"] is arch.checked_int
        assert checks["dtype"]("FP16", "dtype") is DTYPES["fp16"]
        assert checks["flop_convention"]("full_count", "f") is FlopConvention.FULL_COUNT
        with pytest.raises(ValueError, match="f must be one of .*, got \"full\""):
            checks["flop_convention"]("full", "f")
        checks = arch._field_checks(SweepAxis)
        assert list(checks) == ["kind", "values"]
        assert checks["kind"]("gw", "kind") is TransformKind.GROUP_WIDTH
        assert checks["values"]([1, 2], "values") == (1, 2)
        checks = arch._field_checks(_SpaceFile)
        assert list(checks) == ["axes", "base", "spec_file", "eval", "cap"]
        assert checks["eval"]({}, "eval") == {}
        assert checks["cap"] is arch.checked_int

    def test_schema_refuses_a_field_type_it_cannot_check(self):
        class Odd(NamedTuple):
            ratio: float

        with pytest.raises(TypeError, match="Odd.ratio: no load check for <class 'float'>"):
            arch._field_checks(Odd)

    def test_layer_type_tag_is_first_key(self):
        d = spec_to_dict(tiny_cnn())
        for layer in d["layers"]:
            assert next(iter(layer)) == "type"

    def test_json_is_deterministic(self):
        spec = tiny_cnn()
        assert spec_to_json(spec) == spec_to_json(spec)
        # and survives a parse cycle byte-for-byte
        assert spec_to_json(spec_from_json(spec_to_json(spec))) == spec_to_json(spec)


class TestEvalConfig:
    def test_defaults(self):
        cfg = EvalConfig()
        assert cfg.batch_size == 1
        assert cfg.dtype.name == "fp32"
        assert cfg.input_resolution is None
        assert cfg.flop_convention is FlopConvention.CLOSED_FORM

    def test_resolution_fallbacks(self):
        cfg = EvalConfig()
        vit = ViTSpec(
            name="v", patch_size=16, hidden_dim=384, num_heads=6,
            mlp_dim=1536, depth=12, tokens_per_side=14,
        )
        assert cfg.resolution_for(vit) == 14
        assert cfg.resolution_for(tiny_cnn()) == 224
        assert EvalConfig(input_resolution=9).resolution_for(vit) == 9

    def test_validate_spec_dispatches(self):
        assert validate_spec(tiny_cnn()) == []
        bad = ViTSpec(
            name="v", patch_size=16, hidden_dim=385, num_heads=6,
            mlp_dim=1536, depth=12, tokens_per_side=14,
        )
        assert validate_spec(bad)

    def test_bad_batch_rejected(self):
        with pytest.raises(ValueError):
            EvalConfig(batch_size=0)
