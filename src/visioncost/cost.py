"""Operator-level cost accounting.

Every report is built from exact integer arithmetic (Python ints, so wide
intermediate products cannot overflow) and is therefore bit-reproducible.

Counting conventions, fixed and recorded on each report:

- one multiply-accumulate = 2 FLOPs, everywhere
- softmax = 3 FLOPs per logit
- folded batch norm = 2 FLOPs per element; layer norm = 5 FLOPs per element
- pooling, activations, resizes and elementwise adds = 1 FLOP per output
  element
- a layer's activation footprint is the sum of its input tensor sizes plus
  its output tensor size (a residual add therefore counts three tensors);
  the report's peak is the maximum footprint over layers
- total memory = model bytes + peak activation bytes

Transformer configurations additionally have closed-form per-block formulas
(``closed_form`` convention): block bodies only, embedding and classifier
excluded, and a fused-attention activation footprint that never
materializes the token-by-token score matrix. The ``full_count`` convention
walks every operator instead, including the patch embedding, all four
attention projections, the score and attention-value matmuls, softmax,
norms, and the classifier head.
"""

from __future__ import annotations

import csv
import io
import json
import sys
from dataclasses import dataclass
from json.encoder import encode_basestring_ascii
from typing import Any, NamedTuple

from .arch import (
    Activation,
    ArchSpec,
    BatchNorm,
    CnnLayer,
    CnnSpec,
    Conv2d,
    EvalConfig,
    FlopConvention,
    GlobalPool,
    Linear,
    Pool,
    ResidualAdd,
    Resize,
    TensorShape,
    ViTSpec,
)

class InfeasibleResolution(Exception):
    """A layer's output spatial size fell below 1 at the given resolution."""

    def __init__(self, layer_index: int, message: str):
        super().__init__(f"layer {layer_index}: {message}")
        self.layer_index = layer_index
        self.message = message


class ShapeMismatch(Exception):
    """Tensor shapes disagree in a way no input resolution can fix."""

    def __init__(self, layer_index: int, message: str):
        super().__init__(f"layer {layer_index}: {message}")
        self.layer_index = layer_index
        self.message = message


class CountTooLarge(ValueError):
    """A report total has more decimal digits than Python may write out."""


class LayerCost(NamedTuple):
    layer_index: int
    name: str
    out_shape: TensorShape
    flops: int
    activation_bytes: int
    param_count: int


@dataclass(frozen=True, slots=True)
class CostReport:
    spec_name: str
    convention: FlopConvention
    batch_size: int
    dtype_name: str
    bytes_per_element: int
    resolution: int
    flops: int
    peak_activation_bytes: int
    model_bytes: int
    total_memory_bytes: int
    per_layer: tuple[LayerCost, ...]


def conv_out_side(
    in_side: int, kernel: int, stride: int, padding: int, dilation: int = 1
) -> int:
    """Output side length of a conv/pool window; may be < 1 (caller checks)."""
    return (in_side + 2 * padding - dilation * (kernel - 1) - 1) // stride + 1


def conv_flops(layer: Conv2d, out_h: int, out_w: int, batch: int = 1) -> int:
    """2 * batch * (in_ch/groups) * out_ch * kernel^2 * H_out * W_out.

    Dilation widens the window but does not change work per output element.
    Bias, when present, adds one FLOP per output element.
    """
    macs = (
        batch
        * (layer.in_ch // layer.groups)
        * layer.out_ch
        * layer.kernel
        * layer.kernel
        * out_h
        * out_w
    )
    flops = 2 * macs
    if layer.has_bias:
        flops += batch * layer.out_ch * out_h * out_w
    return flops


def _layer_params(layer: CnnLayer) -> int:
    """Learned parameters of one CNN layer, at any input resolution."""
    if isinstance(layer, Conv2d):
        params = (layer.in_ch // layer.groups) * layer.out_ch * layer.kernel ** 2
        return params + (layer.out_ch if layer.has_bias else 0)
    if isinstance(layer, BatchNorm):
        return 2 * layer.ch
    if isinstance(layer, Linear):
        return layer.in_features * layer.out_features + layer.out_features
    return 0


def _cnn_walk(spec: CnnSpec, cfg: EvalConfig) -> list[LayerCost]:
    res = cfg.resolution_for(spec)
    b = cfg.batch_size
    e = cfg.dtype.bytes_per_element
    input_shape = (spec.input_channels, res, res)
    shapes: list[tuple[int, int, int]] = []  # (c, h, w) per layer output
    tensor_shapes: dict[tuple[int, ...], TensorShape] = {}  # one per distinct shape
    costs: list[LayerCost] = []

    def elems(shape: tuple[int, int, int]) -> int:
        return shape[0] * shape[1] * shape[2]

    for i, layer in enumerate(spec.layers):
        prev = shapes[i - 1] if i > 0 else input_shape
        in_shapes = [prev]
        flops = 0
        name = ""

        if isinstance(layer, Conv2d):
            src = prev
            if layer.input_layer_index is not None:
                src = shapes[layer.input_layer_index]
            in_shapes = [src]
            c, h, w = src
            if c != layer.in_ch:
                raise ShapeMismatch(
                    i, f"in_ch {layer.in_ch} does not match input channels {c}"
                )
            oh = conv_out_side(h, layer.kernel, layer.stride, layer.padding, layer.dilation)
            ow = conv_out_side(w, layer.kernel, layer.stride, layer.padding, layer.dilation)
            if oh < 1 or ow < 1:
                raise InfeasibleResolution(
                    i, f"conv output side {min(oh, ow)} < 1 at input {h}x{w}"
                )
            out = (layer.out_ch, oh, ow)
            flops = conv_flops(layer, oh, ow, b)
            name = "conv2d"
        elif isinstance(layer, Pool):
            c, h, w = prev
            oh = conv_out_side(h, layer.kernel, layer.stride, layer.padding)
            ow = conv_out_side(w, layer.kernel, layer.stride, layer.padding)
            if oh < 1 or ow < 1:
                raise InfeasibleResolution(
                    i, f"pool output side {min(oh, ow)} < 1 at input {h}x{w}"
                )
            out = (c, oh, ow)
            flops = b * elems(out)
            name = f"pool_{layer.kind}"
        elif isinstance(layer, GlobalPool):
            c, h, w = prev
            out = (c, 1, 1)
            flops = b * c
            name = "global_pool"
        elif isinstance(layer, BatchNorm):
            c, h, w = prev
            if c != layer.ch:
                raise ShapeMismatch(i, f"ch {layer.ch} does not match input channels {c}")
            out = prev
            flops = 2 * b * elems(prev)
            name = "batch_norm"
        elif isinstance(layer, Activation):
            out = prev
            flops = b * elems(prev)
            name = "activation"
        elif isinstance(layer, ResidualAdd):
            src = shapes[layer.source_layer_index]
            if src != prev:
                raise ShapeMismatch(
                    i,
                    f"residual source layer {layer.source_layer_index} shape "
                    f"{src} does not match current shape {prev}",
                )
            in_shapes = [prev, src]
            out = prev
            flops = b * elems(prev)
            name = "residual_add"
        elif isinstance(layer, Resize):
            c, h, w = prev
            out = (c, layer.target_hw, layer.target_hw)
            flops = b * elems(out)
            name = "resize"
        elif isinstance(layer, Linear):
            c, h, w = prev
            flat = c * h * w
            if flat != layer.in_features:
                raise ShapeMismatch(
                    i,
                    f"in_features {layer.in_features} does not match flattened "
                    f"input size {flat}",
                )
            out = (layer.out_features, 1, 1)
            flops = 2 * b * layer.in_features * layer.out_features + b * layer.out_features
            name = "linear"
        else:  # pragma: no cover - vocabulary is closed
            raise TypeError(f"unsupported layer type {type(layer).__name__}")

        shapes.append(out)
        act_elems = sum(elems(s) for s in in_shapes) + elems(out)
        dims = (layer.out_features,) if isinstance(layer, Linear) else out
        out_shape = tensor_shapes.get(dims)
        if out_shape is None:
            out_shape = tensor_shapes[dims] = TensorShape(dims)
        costs.append(
            LayerCost(
                layer_index=i,
                name=name,
                out_shape=out_shape,
                flops=flops,
                activation_bytes=act_elems * b * e,
                param_count=_layer_params(layer),
            )
        )
    return costs


def propagate_shapes(spec: CnnSpec, cfg: EvalConfig) -> list[TensorShape]:
    """Per-layer output shapes; raises InfeasibleResolution / ShapeMismatch."""
    return [c.out_shape for c in _cnn_walk(spec, cfg)]


# --------------------------------------------------------------------------
# Transformer closed forms. Arguments are plain ints; results are exact.


def vit_block_flops_closed(
    tokens_per_side: int, hidden_dim: int, num_heads: int, mlp_dim: int
) -> int:
    n2 = tokens_per_side * tokens_per_side
    n4 = n2 * n2
    return (
        4 * n4 * hidden_dim
        + 3 * num_heads * n4
        + 2 * n2 * hidden_dim * hidden_dim
        + 4 * n2 * hidden_dim * mlp_dim
    )


def vit_block_activation_elems_closed(
    tokens_per_side: int, hidden_dim: int, mlp_dim: int
) -> int:
    n2 = tokens_per_side * tokens_per_side
    return 5 * n2 * hidden_dim + n2 * mlp_dim


def vit_block_params_closed(hidden_dim: int, mlp_dim: int) -> int:
    return hidden_dim * (4 * hidden_dim + 2 * mlp_dim)


def vit_cost_closed(spec: ViTSpec, cfg: EvalConfig) -> CostReport:
    """Closed-form block-body report: embedding and classifier excluded."""
    n = cfg.resolution_for(spec)
    b = cfg.batch_size
    e = cfg.dtype.bytes_per_element
    block_flops = vit_block_flops_closed(n, spec.hidden_dim, spec.num_heads, spec.mlp_dim)
    block_act = vit_block_activation_elems_closed(n, spec.hidden_dim, spec.mlp_dim)
    block_params = vit_block_params_closed(spec.hidden_dim, spec.mlp_dim)
    out_shape = TensorShape((n * n, spec.hidden_dim)) if spec.depth > 0 else None
    per_layer = tuple(
        LayerCost(
            layer_index=i,
            name=f"block{i}",
            out_shape=out_shape,
            flops=b * block_flops,
            activation_bytes=block_act * b * e,
            param_count=block_params,
        )
        for i in range(spec.depth)
    )
    flops = b * block_flops * spec.depth
    peak = block_act * b * e if spec.depth > 0 else 0
    model = block_params * spec.depth * e
    return CostReport(
        spec_name=spec.name,
        convention=FlopConvention.CLOSED_FORM,
        batch_size=b,
        dtype_name=cfg.dtype.name,
        bytes_per_element=e,
        resolution=n,
        flops=flops,
        peak_activation_bytes=peak,
        model_bytes=model,
        total_memory_bytes=model + peak,
        per_layer=per_layer,
    )


_LAYER_NORM_FLOPS_PER_ELEM = 5


def vit_cost_full(spec: ViTSpec, cfg: EvalConfig) -> CostReport:
    """Walk every transformer operator, embedding and classifier included.

    Linear operators carry no bias terms, matching the closed-form parameter
    formula; the score matrix is materialized, so the activation footprint
    here is the unfused one. Every block has the same operators, so one
    block's 14 rows are costed once and repeated ``depth`` times under the
    ``block{i}.`` prefixes; the totals take the block sums times ``depth``.
    """
    n = cfg.resolution_for(spec)
    b = cfg.batch_size
    e = cfg.dtype.bytes_per_element
    be = b * e
    d = spec.hidden_dim
    k = spec.num_heads
    mlp = spec.mlp_dim
    n2 = n * n
    n4 = n2 * n2
    p = spec.patch_size
    r = n * p
    in_ch = spec.input_channels
    classes = spec.num_classes

    token_shape = TensorShape((n2, d))
    score_shape = TensorShape((k, n2, n2))
    mlp_shape = TensorShape((n2, mlp))
    norm = (_LAYER_NORM_FLOPS_PER_ELEM * n2 * d, 2 * n2 * d, 2 * d)
    # (name, out_shape, flops, activation_elems, params) per sample
    block = [
        ("norm1", token_shape, *norm),
        ("q_proj", token_shape, 2 * n2 * d * d, 2 * n2 * d, d * d),
        ("k_proj", token_shape, 2 * n2 * d * d, 2 * n2 * d, d * d),
        ("v_proj", token_shape, 2 * n2 * d * d, 2 * n2 * d, d * d),
        ("attn_scores", score_shape, 2 * n4 * d, 2 * n2 * d + k * n4, 0),
        ("attn_softmax", score_shape, 3 * k * n4, 2 * k * n4, 0),
        ("attn_av", token_shape, 2 * n4 * d, k * n4 + 2 * n2 * d, 0),
        ("out_proj", token_shape, 2 * n2 * d * d, 2 * n2 * d, d * d),
        ("attn_residual", token_shape, n2 * d, 3 * n2 * d, 0),
        ("norm2", token_shape, *norm),
        ("mlp_fc1", mlp_shape, 2 * n2 * d * mlp, n2 * d + n2 * mlp, d * mlp),
        ("mlp_act", mlp_shape, n2 * mlp, 2 * n2 * mlp, 0),
        ("mlp_fc2", token_shape, 2 * n2 * mlp * d, n2 * mlp + n2 * d, mlp * d),
        ("mlp_residual", token_shape, n2 * d, 3 * n2 * d, 0),
    ]
    # patch_embed runs before the blocks, the other three after them
    edges = [
        (
            "patch_embed",
            token_shape,
            2 * n2 * (in_ch * p * p) * d,
            in_ch * r * r + n2 * d,
            in_ch * p * p * d,
        ),
        ("final_norm", token_shape, *norm),
        ("head_pool", TensorShape((d,)), n2 * d, n2 * d + d, 0),
        ("head_linear", TensorShape((classes,)), 2 * d * classes, d + classes, d * classes),
    ]
    # With batch and element width folded in, each op is a LayerCost row
    # without its index: (name, out_shape, flops, activation_bytes, params).
    block = [(name, s, b * f, be * a, w) for name, s, f, a, w in block]
    edges = [(name, s, b * f, be * a, w) for name, s, f, a, w in edges]

    depth = spec.depth
    ops = edges[:1]
    for i in range(depth):
        pre = f"block{i}."
        ops += [(pre + name, s, f, a, w) for name, s, f, a, w in block]
    ops += edges[1:]
    per_layer = tuple([LayerCost._make((i, *op)) for i, op in enumerate(ops)])

    flops = sum(op[2] for op in edges) + depth * sum(op[2] for op in block)
    model = (sum(op[4] for op in edges) + depth * sum(op[4] for op in block)) * e
    peak = max(op[3] for op in (edges + block if depth else edges))
    return CostReport(
        spec_name=spec.name,
        convention=FlopConvention.FULL_COUNT,
        batch_size=b,
        dtype_name=cfg.dtype.name,
        bytes_per_element=e,
        resolution=n,
        flops=flops,
        peak_activation_bytes=peak,
        model_bytes=model,
        total_memory_bytes=model + peak,
        per_layer=per_layer,
    )


def cost_report(spec: ArchSpec, cfg: EvalConfig | None = None) -> CostReport:
    """Full cost report for a spec under the given evaluation settings.

    Raises CountTooLarge when a total has too many digits to be written.
    """
    cfg = cfg or EvalConfig()
    if isinstance(spec, ViTSpec):
        if cfg.flop_convention is FlopConvention.FULL_COUNT:
            report = vit_cost_full(spec, cfg)
        else:
            report = vit_cost_closed(spec, cfg)
    else:
        per_layer = tuple(_cnn_walk(spec, cfg))
        flops = sum(c.flops for c in per_layer)
        peak = max((c.activation_bytes for c in per_layer), default=0)
        model = sum(c.param_count for c in per_layer) * cfg.dtype.bytes_per_element
        report = CostReport(
            spec_name=spec.name,
            convention=cfg.flop_convention,
            batch_size=cfg.batch_size,
            dtype_name=cfg.dtype.name,
            bytes_per_element=cfg.dtype.bytes_per_element,
            resolution=cfg.resolution_for(spec),
            flops=flops,
            peak_activation_bytes=peak,
            model_bytes=model,
            total_memory_bytes=model + peak,
            per_layer=per_layer,
        )
    _check_printable(report)
    return report


# The most decimal digits ``str`` writes an int with; 0, or a Python
# without the limit (before 3.10.7), means no limit.
_max_str_digits = getattr(sys, "get_int_max_str_digits", lambda: 0)


def _check_printable(report: CostReport) -> None:
    """Raise CountTooLarge if ``flops`` or ``total_memory_bytes`` has more
    decimal digits than ``str`` may write. Every other count of the report
    is a term or factor of one of the two, or was itself parsed."""
    limit = _max_str_digits()
    # Up to 3 * limit bits, a count is below 8**limit < 10**limit.
    if limit and max(report.flops, report.total_memory_bytes).bit_length() > 3 * limit:
        for name in ("flops", "total_memory_bytes"):
            if getattr(report, name) >= 10**limit:
                raise CountTooLarge(
                    f"{name} has more than {limit} decimal digits, past the "
                    "interpreter's limit for writing an integer"
                )


# --------------------------------------------------------------------------
# Report serialization.


def _shape_text(report: CostReport) -> list[str]:
    """``str(c.out_shape)`` per row, each distinct shape formatted once (keyed
    by its dims tuple, which hashes in C; a TensorShape hashes in Python)."""
    text: dict[tuple[int, ...], str] = {}
    for c in report.per_layer:
        if c.out_shape.dims not in text:
            text[c.out_shape.dims] = str(c.out_shape)
    return [text[c.out_shape.dims] for c in report.per_layer]


def _report_header(report: CostReport) -> dict[str, Any]:
    return {
        "spec_name": report.spec_name,
        "convention": report.convention.value,
        "batch_size": report.batch_size,
        "dtype": {"name": report.dtype_name, "bytes_per_element": report.bytes_per_element},
        "resolution": report.resolution,
        "flops": report.flops,
        "peak_activation_bytes": report.peak_activation_bytes,
        "model_bytes": report.model_bytes,
        "total_memory_bytes": report.total_memory_bytes,
    }


def report_to_dict(report: CostReport) -> dict[str, Any]:
    out = _report_header(report)
    out["per_layer"] = [
        {
            "layer_index": i,
            "name": name,
            "out_shape": shape,
            "flops": flops,
            "activation_bytes": act,
            "param_count": params,
        }
        for (i, name, _, flops, act, params), shape in zip(
            report.per_layer, _shape_text(report)
        )
    ]
    return out


# One per_layer row of report_to_dict, as compact JSON.
_ROW_JSON = (
    '{"layer_index":%d,"name":%s,"out_shape":%s,'
    '"flops":%d,"activation_bytes":%d,"param_count":%d}'
)


def report_to_json(report: CostReport, indent: int | None = 2) -> str:
    """``report_to_dict`` as JSON text, indented by ``indent`` spaces.

    With ``indent=None`` the text is compact, equal to ``json.dumps`` of the
    dict with ``separators=(",", ":")``: the header goes through
    ``json.dumps`` and each layer row through one ``%`` template (every
    count an int, strings escaped by the encoder's own ASCII escaper), so
    no per-row dict is built.
    """
    if indent is not None:
        return json.dumps(report_to_dict(report), indent=indent)
    enc = encode_basestring_ascii
    rows = ",".join([
        _ROW_JSON % (i, enc(name), enc(shape), flops, act, params)
        for (i, name, _, flops, act, params), shape in zip(
            report.per_layer, _shape_text(report)
        )
    ])
    header = json.dumps(_report_header(report), separators=(",", ":"))
    return f'{header[:-1]},"per_layer":[{rows}]}}'


CSV_HEADER = ("layer_index", "name", "out_shape", "flops", "activation_bytes", "param_count")


def report_to_csv(report: CostReport) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_HEADER)
    writer.writerows(
        (i, name, shape, flops, act, params)
        for (i, name, _, flops, act, params), shape in zip(
            report.per_layer, _shape_text(report)
        )
    )
    return buf.getvalue()
