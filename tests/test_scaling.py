"""Scaling transforms, their fixed rounding, and the config-id grammar."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from visioncost.arch import (
    Activation,
    BatchNorm,
    CnnSpec,
    Conv2d,
    EvalConfig,
    GlobalPool,
    Linear,
    validate_spec,
)
from visioncost.cost import InfeasibleResolution, cost_report
from visioncost.presets import grouped_seg_backbone, resnet50, vit_small
from visioncost.scaling import (
    InvalidGroupWidth,
    RoundingBreaksGroups,
    ScalingError,
    ScalingTransform,
    TransformKind,
    apply_transform,
    config_id_of,
    make_config,
    parse_config_id,
    width_scale,
)

K = TransformKind


def arch_apply(spec, t):
    """Apply one transform to a spec at default eval; return the new spec."""
    new_spec, _ = apply_transform(spec, EvalConfig(), t)
    return new_spec


def conv_stack():
    return CnnSpec(
        name="stack",
        input_channels=3,
        layers=(
            Conv2d(3, 64, kernel=3, padding=1),
            BatchNorm(64),
            Activation(),
            Conv2d(64, 128, kernel=3, stride=2, padding=1),
            Conv2d(128, 128, kernel=3, padding=1),
            GlobalPool(),
            Linear(128, 10),
        ),
    )


def width_of(channels, ratio):
    """The rounded width of one image-fed conv with ``channels`` outputs."""
    spec = CnnSpec(name="one", input_channels=3, layers=(Conv2d(3, channels, kernel=1),))
    return width_scale(spec, ratio).layers[0].out_ch


class TestRounding:
    def test_nearest_rounds_half_up(self):
        # A hidden size rounds to the nearest multiple of the 6 heads.
        def hidden(h):
            return arch_apply(vit_small(), ScalingTransform(K.HIDDEN, h)).hidden_dim

        assert hidden(201) == 204  # 33.5 heads' worth rounds up
        assert hidden(200) == 198
        assert hidden(2) == 6  # clamped to one per head

    def test_multiple_of_eight_default(self):
        assert width_of(100, 0.6) == 64  # 60
        assert width_of(1000, 0.0599) == 56  # 59.9
        assert width_of(100, 0.03) == 8  # 3 clamps up to one full multiple

    def test_width_rounds_the_written_decimal_exactly(self):
        # 720 * 0.35 is 252, halfway between 248 and 256: half up gives 256
        # (in floats the product is 251.99999999999997).
        assert width_of(720, 0.35) == 256
        # Past 2**53 every channel stays exact.
        assert width_of(2**60 + 16, 0.5) == 2**59 + 8


class TestWidth:
    def test_half_quarters_channel_to_channel_convs(self):
        spec = conv_stack()
        out = arch_apply(spec, ScalingTransform(K.WIDTH, 0.5))
        assert out.layers[0].in_ch == 3  # image-fed input is kept
        assert out.layers[0].out_ch == 32
        assert out.layers[3].in_ch == 32 and out.layers[3].out_ch == 64
        assert out.layers[1].ch == 32
        assert out.layers[6].in_features == 64
        assert validate_spec(out) == []

    def test_identity_ratio_returns_equal_spec(self):
        spec = conv_stack()
        assert arch_apply(spec, ScalingTransform(K.WIDTH, 1.0)) == spec

    def test_default_rounding_snaps_to_multiples_of_eight(self):
        spec = conv_stack()
        out = arch_apply(spec, ScalingTransform(K.WIDTH, 0.3))
        # 64*0.3=19.2 -> 16, 128*0.3=38.4 -> 40
        assert out.layers[0].out_ch == 16
        assert out.layers[3].out_ch == 40

    def test_rounding_that_breaks_groups_is_an_error(self):
        spec = CnnSpec(
            name="g",
            input_channels=3,
            layers=(
                Conv2d(3, 48, kernel=3, padding=1),
                Conv2d(48, 48, kernel=3, padding=1, groups=48),
            ),
        )
        with pytest.raises(RoundingBreaksGroups) as exc:
            arch_apply(spec, ScalingTransform(K.WIDTH, 0.5))
        assert exc.value.layer_index == 1
        assert "multiple" in str(exc.value)

    def test_width_on_vit_is_an_error(self):
        with pytest.raises(ScalingError):
            arch_apply(vit_small(), ScalingTransform(K.WIDTH, 0.5))

    def test_nonpositive_ratio_rejected(self):
        with pytest.raises(ScalingError):
            arch_apply(conv_stack(), ScalingTransform(K.WIDTH, 0.0))

    @pytest.mark.parametrize("ratio", [float("nan"), float("inf")], ids=["nan", "inf"])
    def test_non_finite_or_overflowing_ratio_rejected(self, ratio):
        with pytest.raises(ScalingError):
            width_scale(resnet50(), ratio)

    @pytest.mark.parametrize(
        "ratio, exact", [(1e308, 10**308), (10**400, 10**400)], ids=["1e308", "10**400"]
    )
    def test_vast_ratio_scales_exactly(self, ratio, exact):
        assert width_of(64, ratio) == 64 * exact

    @pytest.mark.parametrize("ratio", [10**400, 10**5000], ids=["10**400", "10**5000"])
    def test_vast_int_ratio_through_make_config(self, ratio):
        # Past the float range, and past the 4300 digits str() writes.
        base = resnet50()
        config = make_config("resnet50", base, EvalConfig(), [ScalingTransform(K.WIDTH, ratio)])
        # every learned count is a multiple of 8, so it scales without rounding
        want = []
        for i, layer in enumerate(base.layers):
            if isinstance(layer, Conv2d):
                in_ch = layer.in_ch * ratio if i else layer.in_ch  # layer 0 reads the image
                layer = layer._replace(in_ch=in_ch, out_ch=layer.out_ch * ratio)
            elif isinstance(layer, BatchNorm):
                layer = layer._replace(ch=layer.ch * ratio)
            elif isinstance(layer, Linear):
                layer = layer._replace(in_features=layer.in_features * ratio)
            want.append(layer)
        assert config.spec == base._replace(layers=tuple(want))
        assert config.spec.layers[0].out_ch == 64 * ratio

    def test_vast_int_in_a_message_is_abridged(self):
        # str() refuses an int past 4300 digits; the message gives its size.
        vast = "<int of 16610 bits>"
        with pytest.raises(ScalingError) as exc:
            width_scale(resnet50(), -(10**5000))
        assert str(exc.value) == f"width ratio must be > 0, got -{vast}"
        config = make_config(
            "resnet50", resnet50(), EvalConfig(), [ScalingTransform(K.WIDTH, 10**5000)]
        )
        with pytest.raises(ScalingError) as exc:
            config.config_id
        assert str(exc.value) == f"parameter {vast} has too many digits for a config id"
        with pytest.raises(ScalingError) as exc:
            arch_apply(vit_small(), ScalingTransform(K.DEPTH, -(10**5000)))
        assert str(exc.value) == f"depth must be >= 1, got -{vast}"
        # An int that str() writes is written whole.
        with pytest.raises(ScalingError) as exc:
            width_scale(resnet50(), -(10**4299))
        assert str(exc.value) == f"width ratio must be > 0, got {-(10**4299)}"

    @pytest.mark.parametrize("value", ["inf", "nan"])
    def test_config_id_with_unusable_width_rejected(self, value):
        with pytest.raises(ScalingError):
            parse_config_id(f"resnet50;width={value}")

    def test_config_id_with_vast_width_parses(self):
        config = parse_config_id("resnet50;width=1e308")
        assert config.config_id == "resnet50;width=1e+308"
        assert config.spec.layers[0].out_ch == 64 * 10**308

    @pytest.mark.parametrize("width", [2**60 + 1, 10**400], ids=["past-2**53", "past-float"])
    def test_config_id_with_int_width_round_trips(self, width):
        config = make_config(
            "resnet50", resnet50(), EvalConfig(), [ScalingTransform(K.WIDTH, width)]
        )
        assert config.config_id == f"resnet50;width={width}"
        rebuilt = parse_config_id(config.config_id, base_eval=EvalConfig())
        assert rebuilt.transforms[0].parameter == width
        assert type(rebuilt.transforms[0].parameter) is int
        assert (rebuilt.config_id, rebuilt.spec) == (config.config_id, config.spec)


class TestGroupWidth:
    def test_halving_group_width_is_exact(self):
        spec = grouped_seg_backbone()
        out = arch_apply(spec, ScalingTransform(K.GROUP_WIDTH, 8))
        grouped = [l for l in out.layers if isinstance(l, Conv2d) and l.groups > 1]
        assert grouped
        assert all(l.in_ch // l.groups == 8 for l in grouped)
        assert validate_spec(out) == []
        # every learned channel count halves, stems included
        base_convs = [l for l in spec.layers if isinstance(l, Conv2d)]
        new_convs = [l for l in out.layers if isinstance(l, Conv2d)]
        for b, n in zip(base_convs, new_convs):
            assert n.out_ch * 2 == b.out_ch

    def test_group_width_that_breaks_groups_is_an_error(self):
        # group width 2 -> 1 halves out_ch to 1, which 2 groups cannot split
        spec = CnnSpec(name="g", input_channels=4, layers=(Conv2d(4, 2, kernel=1, groups=2),))
        with pytest.raises(InvalidGroupWidth) as exc:
            arch_apply(spec, ScalingTransform(K.GROUP_WIDTH, 1))
        assert str(exc.value) == (
            "layer 0: group width 1 gives 1 channels, not divisible by groups 2"
        )

    def test_group_width_must_be_positive(self):
        with pytest.raises(InvalidGroupWidth):
            arch_apply(grouped_seg_backbone(), ScalingTransform(K.GROUP_WIDTH, 0))

    def test_seg_backbone_rescales_integrally_at_any_group_width(self):
        # stems are twice the group width, stage widths are group multiples,
        # so every integer target keeps the channel chain integral
        spec = grouped_seg_backbone()
        for gw in (1, 3, 5, 8, 24):
            out = arch_apply(spec, ScalingTransform(K.GROUP_WIDTH, gw))
            assert validate_spec(out) == []

    def test_fractional_rescale_that_is_not_integral_fails(self):
        spec = CnnSpec(
            name="odd",
            input_channels=3,
            layers=(
                Conv2d(3, 24, kernel=3, padding=1),
                Conv2d(24, 24, kernel=3, padding=1, groups=3),  # group width 8
                Conv2d(24, 20, kernel=3, padding=1),
                GlobalPool(),
            ),
        )
        # 20 * 3/8 is not an integer
        with pytest.raises(ScalingError):
            arch_apply(spec, ScalingTransform(K.GROUP_WIDTH, 3))

    def test_no_grouped_convs_is_an_error(self):
        with pytest.raises(ScalingError):
            arch_apply(conv_stack(), ScalingTransform(K.GROUP_WIDTH, 8))


class TestHidden:
    def test_adjust_hidden_snaps_to_head_multiple(self):
        out = arch_apply(vit_small(), ScalingTransform(K.HIDDEN, 200))
        assert out.hidden_dim == 198  # nearest multiple of 6
        assert out.num_heads == 6

    @pytest.mark.parametrize(
        "h", [2**60 + 3, 2**60 + 4, 10**400], ids=["2**60+3", "2**60+4", "10**400"]
    )
    def test_rounding_is_exact_past_float_precision(self, h):
        out = arch_apply(vit_small(), ScalingTransform(K.HIDDEN, h))
        assert out.hidden_dim % 6 == 0
        assert abs(out.hidden_dim - h) <= 3  # the nearest multiple, half up
        assert out.hidden_dim - h != -3

    def test_hidden_on_cnn_is_an_error(self):
        with pytest.raises(ScalingError):
            arch_apply(conv_stack(), ScalingTransform(K.HIDDEN, 192))


class TestOtherKnobs:
    def test_mlp_and_depth(self):
        out = arch_apply(vit_small(), ScalingTransform(K.MLP, 768))
        assert out.mlp_dim == 768
        out = arch_apply(vit_small(), ScalingTransform(K.DEPTH, 6))
        assert out.depth == 6
        with pytest.raises(ScalingError):
            arch_apply(vit_small(), ScalingTransform(K.DEPTH, 0))

    def test_patch_keep_tokens(self):
        out = arch_apply(vit_small(), ScalingTransform(K.PATCH, 32))
        assert out.patch_size == 32
        assert out.tokens_per_side == 14  # image grows instead


class TestEvalKnobs:
    def test_resolution_produces_new_eval(self):
        cfg = make_config(
            "vit_small", vit_small(), EvalConfig(), [ScalingTransform(K.RESOLUTION, 9)]
        )
        assert cfg.eval.input_resolution == 9
        assert cfg.spec == vit_small()

    def test_cnn_resolution_infeasible_surfaces(self):
        # Feasibility comes from the cost walk, not from building the config.
        spec = CnnSpec(
            name="strict",
            input_channels=3,
            layers=(Conv2d(3, 8, kernel=9),),
        )
        cfg = make_config("strict", spec, EvalConfig(), [ScalingTransform(K.RESOLUTION, 4)])
        assert cfg.eval.input_resolution == 4
        with pytest.raises(InfeasibleResolution) as exc:
            cost_report(cfg.spec, cfg.eval)
        assert exc.value.layer_index == 0

    def test_dtype_and_batch(self):
        cfg = make_config(
            "vit_small",
            vit_small(),
            EvalConfig(),
            [ScalingTransform(K.DTYPE, "int8"), ScalingTransform(K.BATCH, 8)],
        )
        assert cfg.eval.dtype.name == "int8"
        assert cfg.eval.batch_size == 8


class TestKnobMessages:
    @pytest.mark.parametrize(
        "base, kind, value, message",
        [
            *[
                (vit_small, kind, 0, f"{noun} must be >= 1, got 0")
                for kind, noun in [
                    (K.HIDDEN, "hidden size"),
                    (K.MLP, "mlp size"),
                    (K.DEPTH, "depth"),
                    (K.PATCH, "patch size"),
                    (K.BATCH, "batch size"),
                ]
            ],
            *[
                (resnet50, kind, 64, f"{noun} applies to transformer specs")
                for kind, noun in [
                    (K.HIDDEN, "hidden size"),
                    (K.MLP, "mlp size"),
                    (K.DEPTH, "depth"),
                    (K.PATCH, "patch size"),
                ]
            ],
            (vit_small, K.WIDTH, 0.5, "width applies to conv specs"),
            (vit_small, K.GROUP_WIDTH, 8, "group width applies to conv specs"),
        ],
    )
    def test_exact_error_text(self, base, kind, value, message):
        with pytest.raises(ScalingError) as exc:
            apply_transform(base(), EvalConfig(), ScalingTransform(kind, value))
        assert str(exc.value) == message


class TestConfigId:
    def test_exact_strings(self):
        assert config_id_of("base", [ScalingTransform(K.WIDTH, 0.5)]) == "base;width=0.5"
        assert config_id_of("b", [ScalingTransform(K.RESOLUTION, 12), ScalingTransform(K.DTYPE, "int8")]) == "b;N=12;dtype=int8"
        assert config_id_of("b", [ScalingTransform(K.PATCH, 28)]) == "b;patch=28"
        assert config_id_of("b", [ScalingTransform(K.HIDDEN, 192)]) == "b;hidden=192"
        assert config_id_of("b", [ScalingTransform(K.GROUP_WIDTH, 8)]) == "b;gw=8"
        assert config_id_of("b", []) == "b"
        assert config_id_of("b", [ScalingTransform(K.DTYPE, "FP16")]) == "b;dtype=fp16"

    def test_integral_floats_print_as_ints(self):
        assert config_id_of("b", [ScalingTransform(K.WIDTH, 1.0)]) == "b;width=1"

    def test_parse_round_trip_with_explicit_base(self):
        bases = {"stack": conv_stack()}
        cid = "stack;width=0.5;N=64;dtype=fp16"
        cfg = parse_config_id(cid, bases=bases)
        assert cfg.config_id == cid
        assert cfg.eval.input_resolution == 64
        assert cfg.eval.dtype.name == "fp16"

    def test_parse_uses_preset_registry_by_default(self):
        cfg = parse_config_id("vit_small;N=9")
        assert cfg.spec == vit_small()
        assert cfg.eval.input_resolution == 9

    def test_parse_rejects_unknown_base_and_key(self):
        with pytest.raises(ValueError, match="unknown"):
            parse_config_id("no_such_base;width=0.5")
        with pytest.raises(ValueError):
            parse_config_id("vit_small;bogus=3")
        with pytest.raises(ValueError, match="bad value"):
            parse_config_id("resnet50;width=0.5:floor")

    def test_config_cost_matches_direct_application(self):
        cid = "vit_small;hidden=192;N=9;dtype=int8"
        cfg = parse_config_id(cid)
        direct = arch_apply(vit_small(), ScalingTransform(K.HIDDEN, 192))
        assert cfg.spec == direct
        rep = cost_report(cfg.spec, cfg.eval)
        assert rep.flops == cost_report(direct, EvalConfig(input_resolution=9)).flops


# Dtype names in any letter case: a config id writes the canonical one.
DTYPE_NAMES = st.sampled_from(["fp64", "fp32", "fp16", "bf16", "int8"]).flatmap(
    lambda name: st.sampled_from([name, name.upper(), name.capitalize()])
)


@st.composite
def vit_chains(draw):
    chain = []
    if draw(st.booleans()):
        chain.append(ScalingTransform(K.DEPTH, draw(st.integers(1, 24))))
    if draw(st.booleans()):
        chain.append(ScalingTransform(K.HIDDEN, 6 * draw(st.integers(8, 128))))
    if draw(st.booleans()):
        chain.append(ScalingTransform(K.MLP, draw(st.integers(64, 2048))))
    if draw(st.booleans()):
        chain.append(ScalingTransform(K.RESOLUTION, draw(st.integers(1, 32))))
    if draw(st.booleans()):
        chain.append(ScalingTransform(K.DTYPE, draw(DTYPE_NAMES)))
    if draw(st.booleans()):
        chain.append(ScalingTransform(K.BATCH, draw(st.integers(1, 64))))
    return chain


@st.composite
def cnn_chains(draw):
    chain = []
    if draw(st.booleans()):
        chain.append(ScalingTransform(K.WIDTH, draw(st.floats(0.01, 4.0))))
    if draw(st.booleans()):
        chain.append(ScalingTransform(K.RESOLUTION, draw(st.integers(32, 512))))
    if draw(st.booleans()):
        chain.append(ScalingTransform(K.DTYPE, draw(DTYPE_NAMES)))
    return chain


BASES = {"vit_small": vit_small(), "resnet50": resnet50()}


class TestRoundTripProperty:
    @settings(max_examples=80, deadline=None)
    @given(
        base_chain=st.one_of(
            st.tuples(st.just("vit_small"), vit_chains()),
            st.tuples(st.just("resnet50"), cnn_chains()),
        )
    )
    def test_id_parse_rebuilds_identical_config(self, base_chain):
        base, chain = base_chain
        cfg = make_config(base, BASES[base], EvalConfig(), chain)
        again = parse_config_id(cfg.config_id, base_eval=EvalConfig())
        assert again.config_id == cfg.config_id
        assert again.spec == cfg.spec
        assert again.eval == cfg.eval
