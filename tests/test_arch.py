"""Spec dataclasses, validation, and JSON (de)serialization."""

import pytest

from visioncost.arch import (
    Activation,
    BatchNorm,
    CnnSpec,
    Conv2d,
    DTYPES,
    DTypeDesc,
    EvalConfig,
    FlopConvention,
    GlobalPool,
    Linear,
    Pool,
    ResidualAdd,
    Resize,
    TensorShape,
    ViTSpec,
    dtype_from_name,
    spec_from_dict,
    spec_from_json,
    spec_to_dict,
    spec_to_json,
    validate_cnn,
    validate_spec,
    validate_vit,
)


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

    @pytest.mark.parametrize("nbytes", [0, 3, 16, -1])
    def test_bad_width_rejected(self, nbytes):
        with pytest.raises(ValueError):
            DTypeDesc("weird", nbytes)


class TestTensorShape:
    def test_str_uses_x_separator(self):
        assert str(TensorShape((64, 112, 112))) == "64x112x112"
        assert str(TensorShape((196, 384))) == "196x384"

    def test_empty_and_nonpositive_rejected(self):
        with pytest.raises(ValueError):
            TensorShape(())
        with pytest.raises(ValueError):
            TensorShape((4, 0))


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

    def test_infeasible_at_all_probe_sizes_is_a_violation(self):
        # kernel too large for any probe resolution, no padding
        spec = tiny_cnn(layers=(Conv2d(3, 8, kernel=9999),))
        assert validate_cnn(spec)


class TestViTValidation:
    def test_valid(self):
        spec = ViTSpec(
            name="v", patch_size=16, hidden_dim=384, num_heads=6,
            mlp_dim=1536, depth=12, tokens_per_side=14,
        )
        assert validate_vit(spec) == []
        assert spec.image_side == 224

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


class TestJsonRoundTrip:
    def test_cnn_round_trip(self):
        spec = tiny_cnn(
            layers=(
                Conv2d(3, 8, kernel=7, stride=2, padding=3),
                Pool("max", kernel=3, stride=2, padding=1),
                Conv2d(8, 8, kernel=3, padding=2, dilation=2, groups=2, has_bias=True),
                Resize(target_hw=14),
                ResidualAdd(source_layer_index=1),
                GlobalPool(),
                Linear(8, 10),
            )
        )
        again = spec_from_json(spec_to_json(spec))
        assert again == spec

    def test_vit_round_trip(self):
        spec = ViTSpec(
            name="v", patch_size=8, hidden_dim=192, num_heads=3,
            mlp_dim=768, depth=6, tokens_per_side=9, num_classes=100,
        )
        assert spec_from_json(spec_to_json(spec)) == spec

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
