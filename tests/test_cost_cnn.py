"""CNN cost engine against independent recount oracles.

The oracles below never call the engine's arithmetic: convolution FLOPs
are accumulated by literally looping over output positions, and the
whole-network recount walks the layer list with its own shape algebra.
"""

import pytest

from visioncost.arch import (
    Activation,
    BatchNorm,
    CnnSpec,
    Conv2d,
    EvalConfig,
    GlobalPool,
    Linear,
    Pool,
    ResidualAdd,
    Resize,
)
from visioncost.cost import (
    InfeasibleResolution,
    ShapeMismatch,
    conv_flops,
    conv_out_side,
    cost_report,
    report_to_csv,
)
from visioncost.presets import resnet50


# --------------------------------------------------------------------------
# oracles


def oracle_out_side(r: int, k: int, s: int, p: int, d: int) -> int:
    return (r + 2 * p - d * (k - 1) - 1) // s + 1


def oracle_conv_flops_by_looping(
    in_ch: int, out_ch: int, k: int, out_h: int, out_w: int,
    groups: int = 1, batch: int = 1, bias: bool = False,
) -> int:
    """Accumulate 2 FLOPs per multiply-accumulate, one output element at a time."""
    total = 0
    per_element_macs = (in_ch // groups) * k * k
    for _ in range(batch):
        for _ in range(out_ch):
            per_map = 0
            for _ in range(out_h):
                per_map += out_w * 2 * per_element_macs
            total += per_map + (out_h * out_w if bias else 0)
    return total


def oracle_recount(spec: CnnSpec, resolution: int, batch: int = 1):
    """Independent walk. Returns (flops, peak_elems, params) using the
    documented conventions: 2/MAC for conv and linear, 1/elem for pool,
    activation, resize, residual and global pool, 2/elem for batch norm;
    a layer's activation footprint is every input tensor plus its output."""
    flops = 0
    params = 0
    peak = 0
    outputs: list[tuple[int, ...]] = []
    cur: tuple[int, ...] = (spec.input_channels, resolution, resolution)

    def elems(shape):
        n = 1
        for d in shape:
            n *= d
        return n

    for idx, layer in enumerate(spec.layers):
        ins = [cur]
        if isinstance(layer, Conv2d):
            if layer.input_layer_index is not None:
                ins = [outputs[layer.input_layer_index]]
            c, h, w = ins[0]
            oh = oracle_out_side(h, layer.kernel, layer.stride, layer.padding, layer.dilation)
            ow = oracle_out_side(w, layer.kernel, layer.stride, layer.padding, layer.dilation)
            if oh < 1 or ow < 1:
                raise AssertionError(f"oracle hit infeasible layer {idx}")
            out = (layer.out_ch, oh, ow)
            flops += batch * 2 * (layer.in_ch // layer.groups) * layer.out_ch * layer.kernel ** 2 * oh * ow
            if layer.has_bias:
                flops += batch * layer.out_ch * oh * ow
            params += (layer.in_ch // layer.groups) * layer.out_ch * layer.kernel ** 2
            if layer.has_bias:
                params += layer.out_ch
        elif isinstance(layer, Pool):
            c, h, w = cur
            oh = oracle_out_side(h, layer.kernel, layer.stride, layer.padding, 1)
            ow = oracle_out_side(w, layer.kernel, layer.stride, layer.padding, 1)
            out = (c, oh, ow)
            flops += batch * elems(out)
        elif isinstance(layer, GlobalPool):
            c = cur[0]
            out = (c,)
            flops += batch * c
        elif isinstance(layer, BatchNorm):
            out = cur
            flops += batch * 2 * elems(out)
            params += 2 * layer.ch
        elif isinstance(layer, Activation):
            out = cur
            flops += batch * elems(out)
        elif isinstance(layer, ResidualAdd):
            ins = [cur, outputs[layer.source_layer_index]]
            out = cur
            flops += batch * elems(out)
        elif isinstance(layer, Resize):
            c = cur[0]
            out = (c, layer.target_hw, layer.target_hw)
            flops += batch * elems(out)
        elif isinstance(layer, Linear):
            out = (layer.out_features,)
            flops += batch * (2 * layer.in_features * layer.out_features + layer.out_features)
            params += layer.in_features * layer.out_features + layer.out_features
        else:  # pragma: no cover
            raise AssertionError(f"oracle does not know {layer!r}")
        peak = max(peak, batch * (sum(elems(s) for s in ins) + elems(out)))
        outputs.append(out)
        cur = out
    return flops, peak, params


# --------------------------------------------------------------------------
# conv primitives


class TestConvPrimitives:
    @pytest.mark.parametrize(
        "r,k,s,p,d,expected",
        [
            (224, 7, 2, 3, 1, 112),   # classifier stem
            (112, 3, 2, 1, 1, 56),    # stride-2 3x3, padded
            (56, 3, 1, 2, 2, 56),     # dilation 2 with matching padding
            (28, 3, 1, 0, 1, 26),     # valid conv shrinks
            (1, 1, 1, 0, 1, 1),
        ],
    )
    def test_out_side(self, r, k, s, p, d, expected):
        assert oracle_out_side(r, k, s, p, d) == expected
        assert conv_out_side(r, k, stride=s, padding=p, dilation=d) == expected

    def test_dense_conv_worked_example(self):
        # 64->64 k=3 over a 4x4 output: 2 * 64 * 64 * 9 * 16
        expected = oracle_conv_flops_by_looping(64, 64, 3, 4, 4)
        assert expected == 1_179_648
        assert conv_flops(Conv2d(64, 64, kernel=3), out_h=4, out_w=4, batch=1) == expected

    def test_depthwise_conv_worked_example(self):
        expected = oracle_conv_flops_by_looping(64, 64, 3, 4, 4, groups=64)
        assert expected == 18_432
        layer = Conv2d(64, 64, kernel=3, groups=64)
        assert conv_flops(layer, out_h=4, out_w=4, batch=1) == expected

    def test_bias_adds_one_flop_per_output_element(self):
        base = Conv2d(8, 16, kernel=3)
        biased = Conv2d(8, 16, kernel=3, has_bias=True)
        delta = conv_flops(biased, 10, 10, batch=3) - conv_flops(base, 10, 10, batch=3)
        assert delta == 3 * 16 * 10 * 10

    def test_grouped_conv_matches_loop_oracle(self):
        for groups in (1, 2, 4, 8):
            layer = Conv2d(16, 32, kernel=5, groups=groups)
            assert conv_flops(layer, 7, 9, batch=2) == oracle_conv_flops_by_looping(
                16, 32, 5, 7, 9, groups=groups, batch=2
            )


# --------------------------------------------------------------------------
# whole-network walks


def stack(*layers, in_ch=3, name="stack"):
    return CnnSpec(name=name, input_channels=in_ch, layers=tuple(layers))


class TestWalk:
    def test_small_net_matches_recount_oracle(self):
        spec = stack(
            Conv2d(3, 8, kernel=3, stride=2, padding=1, has_bias=True),
            BatchNorm(8),
            Activation(),
            Pool("max", kernel=3, stride=2, padding=1),
            Conv2d(8, 16, kernel=3, padding=1),
            Conv2d(8, 16, kernel=1, input_layer_index=3),
            ResidualAdd(source_layer_index=4),
            Resize(target_hw=7),
            GlobalPool(),
            Linear(16, 10),
        )
        for resolution, batch in ((32, 1), (64, 2), (97, 3)):
            want_flops, want_peak, want_params = oracle_recount(spec, resolution, batch)
            rep = cost_report(spec, EvalConfig(batch_size=batch, input_resolution=resolution))
            assert rep.flops == want_flops
            assert rep.peak_activation_bytes == want_peak * 4
            assert rep.model_bytes == want_params * 4
            assert sum(c.param_count for c in rep.per_layer) == want_params

    def test_param_count_needs_no_feasible_resolution(self):
        # a 5000-pixel kernel fits none of the probe resolutions (up to 4096);
        # the rows' parameter counts are the same at any input it does fit
        spec = stack(Conv2d(3, 8, kernel=5000), GlobalPool(), Linear(8, 10))
        with pytest.raises(InfeasibleResolution):
            cost_report(spec, EvalConfig(input_resolution=4096))
        for resolution in (5000, 9000):
            rep = cost_report(spec, EvalConfig(input_resolution=resolution))
            assert sum(c.param_count for c in rep.per_layer) == 3 * 8 * 5000**2 + 8 * 10 + 10

    def test_resnet50_matches_recount_oracle(self):
        spec = resnet50()
        want_flops, want_peak, want_params = oracle_recount(spec, 224)
        rep = cost_report(spec, EvalConfig(input_resolution=224))
        assert rep.flops == want_flops == 8_215_928_296
        assert rep.peak_activation_bytes == want_peak * 4
        assert want_peak == 2_408_448  # widest residual join in the first stage
        assert rep.model_bytes == want_params * 4
        assert want_params == 25_557_032

    def test_projection_branch_reads_earlier_layer(self):
        spec = stack(
            Conv2d(3, 4, kernel=3, padding=1),
            Conv2d(4, 8, kernel=3, stride=2, padding=1),
            Conv2d(4, 8, kernel=1, stride=2, input_layer_index=0),
            ResidualAdd(source_layer_index=1),
        )
        rep = cost_report(spec, EvalConfig(input_resolution=16))
        # projection output matches the main path: 8 x 8 x 8
        assert str(rep.per_layer[2].out_shape) == "8x8x8"
        want = oracle_recount(spec, 16)
        assert rep.flops == want[0]

    def test_residual_counts_three_tensors(self):
        spec = stack(
            Conv2d(3, 4, kernel=3, padding=1),
            Conv2d(4, 4, kernel=3, padding=1),
            ResidualAdd(source_layer_index=0),
        )
        rep = cost_report(spec, EvalConfig(input_resolution=10))
        add = rep.per_layer[2]
        assert add.activation_bytes == 3 * 4 * 10 * 10 * 4

    def test_total_memory_is_model_plus_peak(self):
        rep = cost_report(resnet50(), EvalConfig(input_resolution=224))
        assert rep.total_memory_bytes == rep.model_bytes + rep.peak_activation_bytes

    def test_fp16_halves_model_bytes(self):
        from visioncost.arch import dtype_from_name

        rep = cost_report(
            resnet50(), EvalConfig(input_resolution=224, dtype=dtype_from_name("fp16"))
        )
        assert rep.model_bytes == 25_557_032 * 2

    def test_infeasible_resolution_carries_layer_index(self):
        spec = stack(Conv2d(3, 8, kernel=3, padding=1), Conv2d(8, 8, kernel=9))
        with pytest.raises(InfeasibleResolution) as exc:
            cost_report(spec, EvalConfig(input_resolution=6))
        assert exc.value.layer_index == 1

    def test_flatten_mismatch_raises(self):
        spec = stack(Conv2d(3, 8, kernel=3, padding=1), Linear(999, 10))
        with pytest.raises(ShapeMismatch) as exc:
            cost_report(spec, EvalConfig(input_resolution=8))
        assert exc.value.layer_index == 1

    def test_linear_accepts_flattened_map(self):
        spec = stack(Conv2d(3, 8, kernel=3, padding=1), Linear(8 * 8 * 8, 10))
        rep = cost_report(spec, EvalConfig(input_resolution=8))
        assert rep.per_layer[-1].flops == 2 * 8 * 8 * 8 * 10 + 10

    def test_resize_changes_only_spatial_dims(self):
        spec = stack(Conv2d(3, 8, kernel=3, padding=1), Resize(target_hw=50))
        rep = cost_report(spec, EvalConfig(input_resolution=20))
        assert str(rep.per_layer[1].out_shape) == "8x50x50"
        assert rep.per_layer[1].flops == 8 * 50 * 50

    def test_csv_report_shape(self):
        rep = cost_report(
            stack(Conv2d(3, 4, kernel=3, padding=1), GlobalPool(), Linear(4, 2)),
            EvalConfig(input_resolution=8),
        )
        lines = report_to_csv(rep).splitlines()
        assert lines[0] == "layer_index,name,out_shape,flops,activation_bytes,param_count"
        assert len(lines) == 4
