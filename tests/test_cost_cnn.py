"""CNN cost engine against independent recount oracles.

The oracles below never call the engine's arithmetic: convolution FLOPs
are accumulated by literally looping over output positions, and the
whole-network recount walks the layer list with its own shape algebra.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from visioncost.arch import (
    DTYPES,
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


def oracle_recount(spec: CnnSpec, resolution: int, batch: int = 1, bytes_per_element: int = 1):
    """Independent walk. Yields ``(name, out_dims, flops, activation_bytes,
    params)`` per layer, using the documented conventions: 2/MAC for conv and
    linear, 1/elem for pool, activation, resize, residual and global pool,
    2/elem for batch norm; a layer's activation footprint is every input
    tensor plus its output. A linear output feeds later layers as a 1x1 map.

    Raises InfeasibleResolution at a window whose output side falls below 1,
    and ShapeMismatch at a channel count, residual grid or flattened size
    that does not match, each with that layer's index and no message."""
    outputs: list[tuple[int, int, int]] = []
    cur = (spec.input_channels, resolution, resolution)

    def elems(shape):
        n = 1
        for d in shape:
            n *= d
        return n

    def window(idx, side, k, s, p, d):
        out = oracle_out_side(side, k, s, p, d)
        if out < 1:
            raise InfeasibleResolution(idx, "")
        return out

    for idx, layer in enumerate(spec.layers):
        ins = [cur]
        params = 0
        if isinstance(layer, Conv2d):
            if layer.input_layer_index is not None:
                ins = [outputs[layer.input_layer_index]]
            c, h, w = ins[0]
            if c != layer.in_ch:
                raise ShapeMismatch(idx, "")
            args = (layer.kernel, layer.stride, layer.padding, layer.dilation)
            oh, ow = window(idx, h, *args), window(idx, w, *args)
            out = dims = (layer.out_ch, oh, ow)
            name = "conv2d"
            flops = oracle_conv_flops_by_looping(
                layer.in_ch, layer.out_ch, layer.kernel, oh, ow,
                groups=layer.groups, batch=batch, bias=layer.has_bias,
            )
            params = (layer.in_ch // layer.groups) * layer.out_ch * layer.kernel ** 2
            if layer.has_bias:
                params += layer.out_ch
        elif isinstance(layer, Pool):
            c, h, w = cur
            args = (layer.kernel, layer.stride, layer.padding, 1)
            out = dims = (c, window(idx, h, *args), window(idx, w, *args))
            name = "pool_" + layer.kind
            flops = batch * elems(out)
        elif isinstance(layer, GlobalPool):
            out = dims = (cur[0], 1, 1)
            name = "global_pool"
            flops = batch * cur[0]
        elif isinstance(layer, BatchNorm):
            if cur[0] != layer.ch:
                raise ShapeMismatch(idx, "")
            out = dims = cur
            name = "batch_norm"
            flops = batch * 2 * elems(out)
            params = 2 * layer.ch
        elif isinstance(layer, Activation):
            out = dims = cur
            name = "activation"
            flops = batch * elems(out)
        elif isinstance(layer, ResidualAdd):
            source = outputs[layer.source_layer_index]
            if source != cur:
                raise ShapeMismatch(idx, "")
            ins = [cur, source]
            out = dims = cur
            name = "residual_add"
            flops = batch * elems(out)
        elif isinstance(layer, Resize):
            out = dims = (cur[0], layer.target_hw, layer.target_hw)
            name = "resize"
            flops = batch * elems(out)
        elif isinstance(layer, Linear):
            if elems(cur) != layer.in_features:
                raise ShapeMismatch(idx, "")
            dims = (layer.out_features,)
            out = (layer.out_features, 1, 1)
            name = "linear"
            flops = batch * (2 * layer.in_features * layer.out_features + layer.out_features)
            params = layer.in_features * layer.out_features + layer.out_features
        else:  # pragma: no cover
            raise AssertionError(f"oracle does not know {layer!r}")
        act = batch * bytes_per_element * (sum(elems(s) for s in ins) + elems(dims))
        yield name, dims, flops, act, params
        outputs.append(out)
        cur = out


def oracle_totals(spec: CnnSpec, resolution: int, batch: int = 1):
    """``(flops, peak_elems, params)`` summed from the oracle's rows."""
    rows = list(oracle_recount(spec, resolution, batch))
    return (
        sum(r[2] for r in rows),
        max((r[3] for r in rows), default=0),
        sum(r[4] for r in rows),
    )


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


@st.composite
def cnn_cases(draw):
    """A random channel-consistent stack with a resolution, batch and dtype.

    Channel counts always chain, so the only faults left are the ones that
    depend on the resolution: a window that does not fit, residual grids
    that differ, and a flattened map that does not fit a linear layer."""
    resolution = draw(st.integers(1, 40))
    cfg = EvalConfig(
        batch_size=draw(st.integers(1, 3)),
        dtype=draw(st.sampled_from(sorted(DTYPES.values()))),
        input_resolution=resolution,
    )
    in_ch = draw(st.integers(1, 4))
    layers: list = []
    channels: list[int] = []  # output channels per layer
    cur = in_ch
    for _ in range(draw(st.integers(0, 12))):
        i = len(layers)
        kind = draw(st.sampled_from(
            ["conv", "conv", "pool", "global_pool", "batch_norm", "activation",
             "residual_add", "resize", "linear"]
        ))
        if kind == "conv":
            source = None
            if i and draw(st.booleans()):
                source = draw(st.integers(0, i - 1))
            c = cur if source is None else channels[source]
            groups = draw(st.sampled_from([g for g in range(1, c + 1) if c % g == 0]))
            cur = groups * draw(st.integers(1, 4))
            layer = Conv2d(
                c, cur, kernel=draw(st.integers(1, 5)), stride=draw(st.integers(1, 3)),
                padding=draw(st.integers(0, 2)), groups=groups,
                dilation=draw(st.integers(1, 3)), has_bias=draw(st.booleans()),
                input_layer_index=source,
            )
        elif kind == "pool":
            kernel = draw(st.integers(1, 4))
            layer = Pool(
                draw(st.sampled_from(["max", "avg"])), kernel,
                stride=draw(st.integers(1, 3)), padding=draw(st.integers(0, kernel // 2)),
            )
        elif kind == "global_pool":
            layer = GlobalPool()
        elif kind == "batch_norm":
            layer = BatchNorm(cur)
        elif kind == "activation":
            layer = Activation()
        elif kind == "residual_add":
            sources = [j for j in range(i) if channels[j] == cur]
            if not sources:
                continue
            layer = ResidualAdd(draw(st.sampled_from(sources)))
        elif kind == "resize":
            layer = Resize(draw(st.integers(1, 8)))
        else:
            # the flattened size of the map so far, or one off it
            prefix = stack(*layers, in_ch=in_ch)
            try:
                rows = list(oracle_recount(prefix, resolution))
            except (InfeasibleResolution, ShapeMismatch):
                rows = []
            flat = cur
            for d in rows[-1][1][1:] if rows else (resolution, resolution):
                flat *= d
            cur = draw(st.integers(1, 6))
            layer = Linear(flat + draw(st.sampled_from([0, 0, 0, 1])), cur)
        layers.append(layer)
        channels.append(cur)
    return stack(*layers, in_ch=in_ch), cfg


@settings(max_examples=300, deadline=None)
@given(case=cnn_cases())
def test_every_row_matches_the_oracle(case):
    """Each row and the three totals equal the oracle's; where the oracle
    finds a fault, the walk raises the same class at the same layer."""
    spec, cfg = case
    e = cfg.dtype.bytes_per_element
    try:
        want = list(oracle_recount(spec, cfg.input_resolution, cfg.batch_size, e))
    except (InfeasibleResolution, ShapeMismatch) as fault:
        with pytest.raises((InfeasibleResolution, ShapeMismatch)) as exc:
            cost_report(spec, cfg)
        assert type(exc.value) is type(fault)
        assert exc.value.layer_index == fault.layer_index
        return
    rep = cost_report(spec, cfg)
    got = [
        (c.layer_index, c.name, c.out_shape, c.flops, c.activation_bytes, c.param_count)
        for c in rep.per_layer
    ]
    assert got == [(i, *row) for i, row in enumerate(want)]
    assert rep.flops == sum(row[2] for row in want)
    assert rep.peak_activation_bytes == max((row[3] for row in want), default=0)
    assert rep.model_bytes == e * sum(row[4] for row in want)


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
            want_flops, want_peak, want_params = oracle_totals(spec, resolution, batch)
            rep = cost_report(spec, EvalConfig(batch_size=batch, input_resolution=resolution))
            assert rep.flops == want_flops
            assert rep.peak_activation_bytes == want_peak * 4
            assert rep.model_bytes == want_params * 4
            assert sum(c.param_count for c in rep.per_layer) == want_params

    def test_param_count_needs_no_feasible_resolution(self):
        # a 5000-pixel kernel fits no input below 5000 pixels;
        # the rows' parameter counts are the same at any input it does fit
        spec = stack(Conv2d(3, 8, kernel=5000), GlobalPool(), Linear(8, 10))
        with pytest.raises(InfeasibleResolution):
            cost_report(spec, EvalConfig(input_resolution=4096))
        for resolution in (5000, 9000):
            rep = cost_report(spec, EvalConfig(input_resolution=resolution))
            assert sum(c.param_count for c in rep.per_layer) == 3 * 8 * 5000**2 + 8 * 10 + 10

    def test_resnet50_matches_recount_oracle(self):
        spec = resnet50()
        want_flops, want_peak, want_params = oracle_totals(spec, 224)
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
        assert rep.per_layer[2].out_shape == (8, 8, 8)
        want = oracle_totals(spec, 16)
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
        assert rep.per_layer[1].out_shape == (8, 50, 50)
        assert rep.per_layer[1].flops == 8 * 50 * 50

    def test_csv_report_shape(self):
        rep = cost_report(
            stack(Conv2d(3, 4, kernel=3, padding=1), GlobalPool(), Linear(4, 2)),
            EvalConfig(input_resolution=8),
        )
        lines = report_to_csv(rep).splitlines()
        assert lines[0] == "layer_index,name,out_shape,flops,activation_bytes,param_count"
        assert len(lines) == 4
