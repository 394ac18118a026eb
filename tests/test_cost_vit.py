"""Transformer cost engine against an op-by-op summation oracle.

The closed-form block cost is re-derived here term by term (scores,
attention-times-values, softmax, projection, MLP) and frozen at a few
anchor sizes; the graph-walk convention is checked op name by op name.
"""

import dataclasses
import json
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from visioncost.arch import DTYPES, EvalConfig, FlopConvention, ViTSpec, save_spec
from visioncost.cli import main
from visioncost.cost import (
    cost_report,
    vit_block_activation_elems_closed,
    vit_block_flops_closed,
    vit_block_params_closed,
)
from visioncost.presets import vit_base, vit_small


# --------------------------------------------------------------------------
# oracles


def oracle_block_flops(n: int, d: int, k: int, mlp: int) -> int:
    tokens = n * n
    scores = 2 * tokens * tokens * d          # Q @ K^T across all heads
    weighted_sum = 2 * tokens * tokens * d    # softmax(S) @ V
    softmax = 3 * k * tokens * tokens         # exp, accumulate, divide per logit
    projection = 2 * tokens * d * d           # combined projection cost, this convention
    feedforward = 2 * tokens * d * mlp * 2    # two matmuls through the hidden layer
    return scores + weighted_sum + softmax + projection + feedforward


def oracle_block_activation_elems(n: int, d: int, mlp: int) -> int:
    tokens = n * n
    return 5 * tokens * d + tokens * mlp


def oracle_block_params(d: int, mlp: int) -> int:
    return d * (4 * d) + d * (2 * mlp)


SMALL = dict(d=384, k=6, mlp=1536)


class TestClosedForm:
    def test_frozen_anchors(self):
        assert oracle_block_flops(14, 384, 6, 1536) == 579_923_232
        assert oracle_block_flops(9, 384, 6, 1536) == 225_186_642
        assert oracle_block_flops(13, 384, 6, 1536) == 492_944_946
        for n in (9, 13, 14):
            assert vit_block_flops_closed(n, 384, 6, 1536) == oracle_block_flops(
                n, **SMALL
            )

    def test_activation_anchors(self):
        assert oracle_block_activation_elems(14, 384, 1536) == 677_376
        assert oracle_block_activation_elems(9, 384, 1536) == 279_936
        for n in (9, 14):
            assert vit_block_activation_elems_closed(
                n, 384, 1536
            ) == oracle_block_activation_elems(n, 384, 1536)

    def test_param_anchors(self):
        assert oracle_block_params(384, 1536) == 1_769_472
        assert oracle_block_params(768, 3072) == 7_077_888
        assert vit_block_params_closed(384, 1536) == 1_769_472
        assert vit_block_params_closed(768, 3072) == 7_077_888

    def test_whole_model_totals(self):
        rep = cost_report(vit_small(), EvalConfig())
        assert rep.flops == 12 * 579_923_232 == 6_959_078_784
        assert rep.peak_activation_bytes == 677_376 * 4
        assert rep.model_bytes == 12 * 1_769_472 * 4
        rep9 = cost_report(vit_small(), EvalConfig(input_resolution=9))
        assert rep9.flops == 12 * 225_186_642 == 2_702_239_704

    def test_token_shrink_ratio(self):
        # 13 tokens per side vs 14: exact rational ratio of the closed form
        lo = vit_block_flops_closed(13, 384, 6, 1536)
        hi = vit_block_flops_closed(14, 384, 6, 1536)
        assert (lo * 100_000 + hi // 2) // hi == 85_002  # ~0.85002

    def test_depth_scales_model_but_not_peak(self):
        shallow = cost_report(vit_small(), EvalConfig())
        spec = vit_small()
        deep = ViTSpec(
            name="x", patch_size=spec.patch_size, hidden_dim=spec.hidden_dim,
            num_heads=spec.num_heads, mlp_dim=spec.mlp_dim, depth=24,
            tokens_per_side=spec.tokens_per_side,
        )
        rep = cost_report(deep, EvalConfig())
        assert rep.model_bytes == 2 * shallow.model_bytes
        assert rep.flops == 2 * shallow.flops
        assert rep.peak_activation_bytes == shallow.peak_activation_bytes

    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(1, 40),
        k=st.integers(1, 16),
        head_dim=st.integers(1, 128),
        mlp_mult=st.integers(1, 8),
    )
    def test_quartic_identity(self, n, k, head_dim, mlp_mult):
        d = k * head_dim
        mlp = d * mlp_mult
        flops = vit_block_flops_closed(n, d, k, mlp)
        assert flops - (2 * n**2 * d**2 + 4 * n**2 * d * mlp) == (4 * d + 3 * k) * n**4

    @settings(max_examples=40, deadline=None)
    @given(n=st.integers(1, 32), k=st.integers(1, 8), head_dim=st.integers(1, 64))
    def test_doubling_tokens_quadruples_activations(self, n, k, head_dim):
        d = k * head_dim
        assert vit_block_activation_elems_closed(
            2 * n, d, 4 * d
        ) == 4 * vit_block_activation_elems_closed(n, d, 4 * d)


# --------------------------------------------------------------------------
# graph-walk convention


class TestPrintLimit:
    def test_flops_just_under_the_limit(self, tmp_path, capsys):
        """The largest token count whose FLOPs Python may still write costs
        exactly; one more exits 2."""
        limit = sys.get_int_max_str_digits()

        def flops(n):
            return 12 * oracle_block_flops(n, **SMALL)

        lo, hi = 1, 10 ** (limit // 4)  # flops(lo) prints, flops(hi) does not
        while hi - lo > 1:
            mid = (lo + hi) // 2
            lo, hi = (mid, hi) if flops(mid) < 10**limit else (lo, mid)
        spec = tmp_path / "vit_small.json"
        save_spec(vit_small(), spec)
        assert main(["cost", str(spec), "--resolution", str(lo)]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["flops"] == flops(lo)
        assert len(str(report["flops"])) == limit
        assert main(["cost", str(spec), "--resolution", str(hi)]) == 2
        assert "decimal digits" in json.loads(capsys.readouterr().err)["message"]


def per_op(spec, n):
    rep = cost_report(
        spec, EvalConfig(input_resolution=n, flop_convention=FlopConvention.FULL_COUNT)
    )
    flat = {}
    for c in rep.per_layer:
        flat[c.name] = c
    return rep, flat


class TestFullCount:
    def test_op_level_components(self):
        spec = vit_small()
        d, k, mlp = 384, 6, 1536
        for n in range(8, 16):
            rep, ops = per_op(spec, n)
            t = n * n
            scores_av = sum(
                ops[f"block{i}.attn_scores"].flops + ops[f"block{i}.attn_av"].flops
                for i in range(12)
            )
            assert scores_av == 12 * 4 * t * t * d
            softmax = sum(ops[f"block{i}.attn_softmax"].flops for i in range(12))
            assert softmax == 12 * 3 * k * t * t
            feedforward = sum(
                ops[f"block{i}.mlp_fc1"].flops + ops[f"block{i}.mlp_fc2"].flops
                for i in range(12)
            )
            assert feedforward == 12 * 4 * t * d * mlp

    def test_walk_exceeds_closed_form_everywhere(self):
        spec = vit_small()
        for n in range(8, 16):
            full = cost_report(
                spec,
                EvalConfig(input_resolution=n, flop_convention=FlopConvention.FULL_COUNT),
            )
            closed = cost_report(spec, EvalConfig(input_resolution=n))
            assert full.flops >= closed.flops

    def test_excess_is_exactly_the_uncounted_ops(self):
        # per block the walk adds the separate qkv/out projections (6 t d^2
        # beyond the combined 2 t d^2), two norms (10 t d), the GELU (t mlp)
        # and two residuals (2 t d); plus embedding, final norm and head.
        spec = vit_small()
        n, d, k, mlp = 9, 384, 6, 1536
        t = n * n
        full = cost_report(
            spec, EvalConfig(input_resolution=n, flop_convention=FlopConvention.FULL_COUNT)
        )
        closed = cost_report(spec, EvalConfig(input_resolution=n))
        per_block_extra = 6 * t * d * d + 12 * t * d + t * mlp
        embed = 2 * t * 3 * spec.patch_size**2 * d
        final_norm = 5 * t * d
        head = t * d + 2 * d * spec.num_classes
        assert full.flops - closed.flops == 12 * per_block_extra + embed + final_norm + head

    def test_patch_size_only_moves_the_embedding(self):
        n, d = 9, 384
        t = n * n
        base = vit_small()
        fat = ViTSpec(
            name="p32", patch_size=32, hidden_dim=384, num_heads=6,
            mlp_dim=1536, depth=12, tokens_per_side=9,
        )
        f16 = cost_report(
            base, EvalConfig(input_resolution=n, flop_convention=FlopConvention.FULL_COUNT)
        )
        f32 = cost_report(
            fat, EvalConfig(input_resolution=n, flop_convention=FlopConvention.FULL_COUNT)
        )
        assert f32.flops - f16.flops == 2 * t * 3 * (32**2 - 16**2) * d

    def test_embedding_op_present_and_sized(self):
        spec = vit_small()
        _, ops = per_op(spec, 14)
        t = 14 * 14
        assert ops["patch_embed"].flops == 2 * t * 3 * 16**2 * 384
        assert ops["patch_embed"].param_count == 3 * 16**2 * 384
        assert ops["head_linear"].param_count == 384 * 1000

    def test_softmax_footprint_is_logits_in_and_out(self):
        _, ops = per_op(vit_small(), 14)
        t = 14 * 14
        assert ops["block0.attn_softmax"].activation_bytes == 2 * 6 * t * t * 4

    def test_param_count_matches_closed_model(self):
        # walk params = block params + embedding + classifier + the norm
        # scale/shift pairs the closed block formula leaves out (25 x 2D)
        spec = vit_small()
        blocks = 12 * vit_block_params_closed(384, 1536)
        extras = 3 * 16**2 * 384 + 384 * 1000 + 25 * 2 * 384
        rep = cost_report(spec, EvalConfig(flop_convention=FlopConvention.FULL_COUNT))
        assert sum(c.param_count for c in rep.per_layer) == blocks + extras

    def test_vit_base_anchor(self):
        rep = cost_report(vit_base(), EvalConfig())
        assert rep.model_bytes == 12 * 7_077_888 * 4


# --------------------------------------------------------------------------
# full_count rows against a per-operator loop


def oracle_full_rows(spec: ViTSpec, n: int, batch: int, bytes_per_element: int):
    """(name, shape, flops, activation_bytes, params) per operator, built
    one operator at a time from what each operator reads and writes."""
    t, d, k, mlp = n * n, spec.hidden_dim, spec.num_heads, spec.mlp_dim
    rows = []

    def op(name, ins, out, flops, params=0):
        # ins / out: per-sample tensor shapes; footprint = inputs + output
        elems = [1] * (len(ins) + 1)
        for j, shape in enumerate([*ins, out]):
            for dim in shape:
                elems[j] *= dim
        rows.append(
            (name, "x".join(map(str, out)), batch * flops,
             batch * bytes_per_element * sum(elems), params)
        )

    def linear(name, fan_in, fan_out):
        op(name, [(t, fan_in)], (t, fan_out), 2 * t * fan_in * fan_out, fan_in * fan_out)

    def layer_norm(name):
        op(name, [(t, d)], (t, d), 5 * t * d, 2 * d)

    patch = spec.input_channels * spec.patch_size**2
    side = n * spec.patch_size
    op("patch_embed", [(spec.input_channels, side, side)], (t, d), 2 * t * patch * d, patch * d)
    for i in range(spec.depth):
        b = f"block{i}."
        layer_norm(b + "norm1")
        for proj in ("q_proj", "k_proj", "v_proj"):
            linear(b + proj, d, d)
        op(b + "attn_scores", [(t, d), (t, d)], (k, t, t), 2 * t * t * d)
        op(b + "attn_softmax", [(k, t, t)], (k, t, t), 3 * k * t * t)
        op(b + "attn_av", [(k, t, t), (t, d)], (t, d), 2 * t * t * d)
        linear(b + "out_proj", d, d)
        op(b + "attn_residual", [(t, d), (t, d)], (t, d), t * d)
        layer_norm(b + "norm2")
        linear(b + "mlp_fc1", d, mlp)
        op(b + "mlp_act", [(t, mlp)], (t, mlp), t * mlp)
        linear(b + "mlp_fc2", mlp, d)
        op(b + "mlp_residual", [(t, d), (t, d)], (t, d), t * d)
    layer_norm("final_norm")
    op("head_pool", [(t, d)], (d,), t * d)
    classes = spec.num_classes
    op("head_linear", [(d,)], (classes,), 2 * d * classes, d * classes)
    return rows


class TestFullCountRows:
    @pytest.mark.parametrize("preset", [vit_small, vit_base])
    @pytest.mark.parametrize("depth", [0, 1, 12])
    def test_every_row_matches_the_operator_loop(self, preset, depth):
        spec = dataclasses.replace(preset(), depth=depth)
        for n in (6, 14, 24):
            for batch in (1, 3):
                for dtype in DTYPES.values():
                    rep = cost_report(spec, EvalConfig(
                        batch_size=batch, dtype=dtype, input_resolution=n,
                        flop_convention=FlopConvention.FULL_COUNT,
                    ))
                    want = oracle_full_rows(spec, n, batch, dtype.bytes_per_element)
                    got = [
                        (c.name, str(c.out_shape), c.flops, c.activation_bytes, c.param_count)
                        for c in rep.per_layer
                    ]
                    assert got == want
                    assert [c.layer_index for c in rep.per_layer] == list(range(len(want)))
                    assert rep.flops == sum(row[2] for row in want)
                    assert rep.peak_activation_bytes == max(row[3] for row in want)
                    assert rep.model_bytes == sum(row[4] for row in want) * dtype.bytes_per_element
                    assert rep.total_memory_bytes == rep.model_bytes + rep.peak_activation_bytes

    def test_rows_are_immutable(self):
        rep = cost_report(vit_small(), EvalConfig(flop_convention=FlopConvention.FULL_COUNT))
        row = rep.per_layer[0]
        with pytest.raises(AttributeError):
            row.flops = 0
        assert rep.per_layer[0].flops == row.flops > 0
