"""Built-in specs: structure, registry wiring, frozen cost anchors."""

import json

import pytest

from visioncost.arch import Conv2d, EvalConfig, FlopConvention, validate_spec
from visioncost.cli import main
from visioncost.cost import cost_report
from visioncost.presets import (
    PRESETS,
    grouped_seg_backbone,
    resnet50,
    resnet50_fcr,
    vit_base,
    vit_small,
)
from visioncost.scaling import TransformKind
from visioncost.search import SweepAxis, SweepSpace, evaluate_space


def evaluate(base_name, base_spec, base_eval, *axes):
    """(space, configs, skipped) of a sweep over ``axes`` of (kind, values)."""
    space = SweepSpace(
        base_name=base_name,
        base_spec=base_spec,
        base_eval=base_eval,
        axes=tuple(SweepAxis(kind, values) for kind, values in axes),
    )
    skipped = []
    configs = [config for config, _ in evaluate_space(space, skipped)]
    return space, configs, skipped


class TestRegistry:
    def test_expected_names(self):
        assert set(PRESETS) == {
            "resnet50",
            "resnet50_fcr112",
            "vit_small",
            "vit_base",
            "seg_backbone_gw16",
        }

    def test_every_preset_validates_clean(self):
        for name in PRESETS:
            spec = PRESETS[name].build()
            assert validate_spec(spec) == [], name

    def test_default_eval_is_costable(self):
        for name, entry in PRESETS.items():
            rep = cost_report(entry.build(), entry.default_eval)
            assert rep.flops > 0, name

    def test_unknown_name(self, tmp_path, capsys):
        space = tmp_path / "space.json"
        space.write_text(
            json.dumps({"base": "resnet51", "axes": [{"kind": "N", "values": [224]}]})
        )
        assert main(["sweep", str(space), "--out", str(tmp_path / "out")]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1
        payload = json.loads(lines[0])
        assert payload["error"] == "space"
        known = ", ".join(sorted(PRESETS))
        assert payload["message"] == f"unknown preset 'resnet51' (known: {known})"
        assert not (tmp_path / "out").exists()


class TestFrozenAnchors:
    """Totals at default eval, frozen from the recount oracles."""

    CASES = {
        "resnet50": (8_215_928_296, 9_633_792, 102_228_128),
        "resnet50_fcr112": (2_342_548_712, 4_014_080, 102_228_128),
        "vit_small": (6_959_078_784, 2_709_504, 84_934_656),
        "vit_base": (26_403_552_000, 5_419_008, 339_738_624),
        "seg_backbone_gw16": (8_790_147_072, 75_497_472, 3_883_648),
    }

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_totals(self, name):
        entry = PRESETS[name]
        rep = cost_report(entry.build(), entry.default_eval)
        flops, peak, model = self.CASES[name]
        assert rep.flops == flops
        assert rep.peak_activation_bytes == peak
        assert rep.model_bytes == model


class TestResnet:
    def test_param_count(self):
        rep = cost_report(resnet50())
        assert sum(c.param_count for c in rep.per_layer) == 25_557_032

    def test_stage_shapes(self):
        rep = cost_report(resnet50(), EvalConfig(input_resolution=224))
        shapes = [str(c.out_shape) for c in rep.per_layer]
        assert "64x112x112" in shapes   # stem
        assert "256x56x56" in shapes    # stage 1
        assert "2048x7x7" in shapes     # stage 4
        assert shapes[-1] == "1000"

    def test_fcr_variant_shrinks_compute_and_peak_but_not_params(self):
        base = cost_report(resnet50(), EvalConfig(input_resolution=224))
        fcr = cost_report(resnet50_fcr(112), EvalConfig(input_resolution=224))
        assert fcr.flops < base.flops
        assert fcr.peak_activation_bytes < base.peak_activation_bytes
        assert fcr.model_bytes == base.model_bytes

    def test_fcr_resize_lands_on_equivalent_stem_output(self):
        # at a 112 input the stem conv yields 56x56 maps; the resized
        # variant must hit the same grid so later stages are unchanged
        rep = cost_report(resnet50_fcr(112), EvalConfig(input_resolution=224))
        shapes = [str(c.out_shape) for c in rep.per_layer]
        assert "64x56x56" in shapes
        small = cost_report(resnet50(), EvalConfig(input_resolution=112))
        # identical cost from the resize onward: totals differ only by the
        # stem conv (224 vs 112 input) plus the resize op itself
        stem_224 = rep.per_layer[0].flops
        stem_112 = small.per_layer[0].flops
        resize = rep.per_layer[1].flops
        assert rep.flops - stem_224 - resize == small.flops - stem_112

    def test_fcr_name_carries_resolution(self):
        assert resnet50_fcr(112).name == "resnet50_fcr112"
        assert resnet50_fcr(56).name == "resnet50_fcr56"


class TestSegBackbone:
    def test_grouped_convs_and_dilations(self):
        spec = grouped_seg_backbone(group_width=16, dilations=(1, 1, 2, 4))
        grouped = [l for l in spec.layers if isinstance(l, Conv2d) and l.groups > 1]
        assert grouped, "expected grouped convolutions"
        assert {l.in_ch // l.groups for l in grouped} == {16}
        assert {l.dilation for l in grouped} == {1, 2, 4}
        # dilated convs keep their grid: padding equals dilation
        for l in grouped:
            assert l.padding == l.dilation

    def test_stem_is_twice_group_width(self):
        spec = grouped_seg_backbone(group_width=16)
        first = spec.layers[0]
        assert isinstance(first, Conv2d)
        assert first.out_ch == 32


class TestVit:
    def test_small_and_base_cards(self):
        s = vit_small()
        assert (s.hidden_dim, s.num_heads, s.mlp_dim, s.depth) == (384, 6, 1536, 12)
        assert s.tokens_per_side == 14 and s.patch_size == 16
        b = vit_base()
        assert (b.hidden_dim, b.num_heads, b.mlp_dim, b.depth) == (768, 12, 3072, 12)

    def test_token_override(self):
        assert vit_small(tokens_per_side=9).tokens_per_side == 9


class TestSpaceBuilders:
    """Small token x patch, token, width and resolution grids over the
    presets, evaluated whole: every combination costs."""

    def test_token_patch_space_enumerates_fully(self):
        space, configs, skipped = evaluate(
            "vit_small",
            vit_small(),
            EvalConfig(flop_convention=FlopConvention.FULL_COUNT),
            (TransformKind.RESOLUTION, (9, 11)),
            (TransformKind.PATCH, (8, 12, 16, 24, 32)),
        )
        assert space.size == 10
        assert space.base_eval.flop_convention is FlopConvention.FULL_COUNT
        assert len(configs) == 10 and not skipped

    def test_resolution_space(self):
        _, configs, _ = evaluate(
            "vit_small", vit_small(), EvalConfig(),
            (TransformKind.RESOLUTION, (8, 11, 12, 13, 14, 15)),
        )
        assert [c.eval.input_resolution for c in configs] == [8, 11, 12, 13, 14, 15]

    def test_width_space_on_resnet(self):
        _, configs, _ = evaluate(
            "resnet50", resnet50(), EvalConfig(input_resolution=224),
            (TransformKind.WIDTH, (1.0, 0.5, 0.25)),
        )
        assert [c.config_id for c in configs] == [
            "resnet50;width=1",
            "resnet50;width=0.5",
            "resnet50;width=0.25",
        ]

    def test_resolution_space_on_resnet(self):
        _, configs, skipped = evaluate(
            "resnet50", resnet50(), EvalConfig(input_resolution=224),
            (TransformKind.RESOLUTION, (64, 128, 160, 176, 224)),
        )
        assert len(configs) == 5 and not skipped
