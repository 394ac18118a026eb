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
from json.encoder import encode_basestring_ascii
from typing import Any, NamedTuple

from .arch import (
    Activation,
    ArchSpec,
    BatchNorm,
    CnnSpec,
    Conv2d,
    EvalConfig,
    FlopConvention,
    GlobalPool,
    Linear,
    Pool,
    ResidualAdd,
    Resize,
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
    """A report would have more than MAX_REPORT_ROWS rows, or a total with
    more decimal digits than Python may write out."""


# The most rows a report may have, checked before any row is built. A row
# costs about 0.8 KiB at the peak of ``cost``, JSON text included (measured
# on vit_small: 0.79 KiB at depth 20,000 under full_count, 0.75 KiB at depth
# 200,000 under closed_form), so a report at the cap peaks near 0.8 GiB. The
# largest preset report has 175 rows.
MAX_REPORT_ROWS = 1_000_000


class LayerCost(NamedTuple):
    layer_index: int
    name: str
    out_shape: tuple[int, ...]  # per sample: the batch is tracked on the report
    flops: int
    activation_bytes: int
    param_count: int


class CostReport(NamedTuple):
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


# Builds a LayerCost from a tuple of its fields in C, without the Python-level
# NamedTuple ``__new__`` (a fifth of the CNN walk's time on ResNet-50). All
# three walks build their rows with it.
_new_tuple = tuple.__new__


def _cnn_walk(
    spec: CnnSpec, cfg: EvalConfig
) -> tuple[tuple[LayerCost, ...], int, int, int]:
    """Walk the layers once, building the rows and the totals together:
    ``(per_layer, flops, peak_activation_bytes, param_count)``.

    Raises InfeasibleResolution where a window does not fit the input, and
    ShapeMismatch where channels, residual grids or a flattened map do not
    match, at the first such layer. Branches are ordered by how often the
    kinds occur in the presets.
    """
    res = cfg.resolution_for(spec)
    b = cfg.batch_size
    be = b * cfg.dtype.bytes_per_element
    shape = (spec.input_channels, res, res)  # (c, h, w) of the current map
    size = spec.input_channels * res * res  # its element count
    shapes: list[tuple[int, int, int]] = []  # per layer output
    sizes: list[int] = []
    rows: list[LayerCost] = []
    flops = params = 0
    peak = float("-inf")  # the largest row, even a negative one of an unvalidated spec

    for i, layer in enumerate(spec.layers):
        kind = type(layer)
        out, out_size, w = shape, size, 0  # what the shape-keeping kinds leave
        if kind is Conv2d:
            in_ch, out_ch, k, stride, pad, groups, dil, bias, src = layer
            c, h, wd = shape if src is None else shapes[src]
            in_size = size if src is None else sizes[src]
            if c != in_ch:
                raise ShapeMismatch(i, f"in_ch {in_ch} does not match input channels {c}")
            oh = conv_out_side(h, k, stride, pad, dil)
            ow = conv_out_side(wd, k, stride, pad, dil)
            if oh < 1 or ow < 1:
                raise InfeasibleResolution(
                    i, f"conv output side {min(oh, ow)} < 1 at input {h}x{wd}"
                )
            out = (out_ch, oh, ow)
            out_size = out_ch * oh * ow
            f = conv_flops(layer, oh, ow, b)
            w = (in_ch // groups) * out_ch * k * k + (out_ch if bias else 0)
            act = in_size + out_size
            name = "conv2d"
        elif kind is BatchNorm:
            if shape[0] != layer.ch:
                raise ShapeMismatch(i, f"ch {layer.ch} does not match input channels {shape[0]}")
            f = 2 * b * size
            w = 2 * layer.ch
            act = 2 * size
            name = "batch_norm"
        elif kind is Activation:
            f = b * size
            act = 2 * size
            name = "activation"
        elif kind is ResidualAdd:
            j = layer.source_layer_index
            if shapes[j] != shape:
                raise ShapeMismatch(
                    i, f"residual source layer {j} shape {shapes[j]} does not match "
                    f"current shape {shape}"
                )
            f = b * size
            act = 3 * size
            name = "residual_add"
        elif kind is Pool:
            c, h, wd = shape
            oh = conv_out_side(h, layer.kernel, layer.stride, layer.padding)
            ow = conv_out_side(wd, layer.kernel, layer.stride, layer.padding)
            if oh < 1 or ow < 1:
                raise InfeasibleResolution(
                    i, f"pool output side {min(oh, ow)} < 1 at input {h}x{wd}"
                )
            out = (c, oh, ow)
            out_size = c * oh * ow
            f = b * out_size
            act = size + out_size
            name = f"pool_{layer.kind}"
        elif kind is GlobalPool:
            c = shape[0]
            out, out_size = (c, 1, 1), c
            f = b * c
            act = size + c
            name = "global_pool"
        elif kind is Linear:
            fan_in, fan_out = layer
            if size != fan_in:
                raise ShapeMismatch(
                    i, f"in_features {fan_in} does not match flattened input size {size}"
                )
            out, out_size = (fan_out, 1, 1), fan_out
            f = 2 * b * fan_in * fan_out + b * fan_out
            w = fan_in * fan_out + fan_out
            act = size + fan_out
            name = "linear"
        elif kind is Resize:
            c, t = shape[0], layer.target_hw
            out = (c, t, t)
            out_size = c * t * t
            f = b * out_size
            act = size + out_size
            name = "resize"
        else:  # pragma: no cover - vocabulary is closed
            raise TypeError(f"unsupported layer type {kind.__name__}")

        shapes.append(out)
        sizes.append(out_size)
        shape, size = out, out_size
        dims = (out[0],) if kind is Linear else out
        act *= be
        rows.append(_new_tuple(LayerCost, (i, name, dims, f, act, w)))
        flops += f
        params += w
        if act > peak:
            peak = act
    return tuple(rows), flops, peak if rows else 0, params


# No src/ caller; perfbench/spans.py patches it, so --trace 1 needs it.
def propagate_shapes(spec: CnnSpec, cfg: EvalConfig) -> list[tuple[int, ...]]:
    """Per-layer output shapes; raises InfeasibleResolution / ShapeMismatch."""
    return [c.out_shape for c in _cnn_walk(spec, cfg)[0]]


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


def vit_cost_closed(
    spec: ViTSpec, cfg: EvalConfig
) -> tuple[tuple[LayerCost, ...], int, int, int]:
    """Closed-form block-body costs, embedding and classifier excluded:
    ``(per_layer, flops, peak_activation_bytes, param_count)``."""
    n = cfg.resolution_for(spec)
    b = cfg.batch_size
    e = cfg.dtype.bytes_per_element
    block_flops = vit_block_flops_closed(n, spec.hidden_dim, spec.num_heads, spec.mlp_dim)
    block_act = vit_block_activation_elems_closed(n, spec.hidden_dim, spec.mlp_dim)
    block_params = vit_block_params_closed(spec.hidden_dim, spec.mlp_dim)
    row = ((n * n, spec.hidden_dim), b * block_flops, block_act * b * e, block_params)
    per_layer = tuple(_new_tuple(LayerCost, (i, f"block{i}", *row)) for i in range(spec.depth))
    peak = block_act * b * e if spec.depth > 0 else 0
    return per_layer, b * block_flops * spec.depth, peak, block_params * spec.depth


_LAYER_NORM_FLOPS_PER_ELEM = 5


def vit_cost_full(
    spec: ViTSpec, cfg: EvalConfig
) -> tuple[tuple[LayerCost, ...], int, int, int]:
    """Walk every transformer operator, embedding and classifier included:
    ``(per_layer, flops, peak_activation_bytes, param_count)``.

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

    token_shape = (n2, d)
    score_shape = (k, n2, n2)
    mlp_shape = (n2, mlp)
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
        ("head_pool", (d,), n2 * d, n2 * d + d, 0),
        ("head_linear", (classes,), 2 * d * classes, d + classes, d * classes),
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
    per_layer = tuple([_new_tuple(LayerCost, (i, *op)) for i, op in enumerate(ops)])

    flops = sum(op[2] for op in edges) + depth * sum(op[2] for op in block)
    params = sum(op[4] for op in edges) + depth * sum(op[4] for op in block)
    peak = max(op[3] for op in (edges + block if depth else edges))
    return per_layer, flops, peak, params


def cost_report(spec: ArchSpec, cfg: EvalConfig | None = None) -> CostReport:
    """Full cost report for a spec under the given evaluation settings.

    Raises CountTooLarge when the report would have more than
    MAX_REPORT_ROWS rows, or a total has too many digits to be written.
    """
    cfg = cfg or EvalConfig()
    is_vit = isinstance(spec, ViTSpec)
    full = cfg.flop_convention is FlopConvention.FULL_COUNT
    # full_count: 14 operators per block, plus patch embed, final norm, pool, head
    rows = (14 * spec.depth + 4 if full else spec.depth) if is_vit else len(spec.layers)
    if rows > MAX_REPORT_ROWS:
        raise CountTooLarge(f"the report would have more than {MAX_REPORT_ROWS} rows")
    walk = (vit_cost_full if full else vit_cost_closed) if is_vit else _cnn_walk
    per_layer, flops, peak, params = walk(spec, cfg)
    e = cfg.dtype.bytes_per_element
    model = params * e
    report = CostReport(
        spec_name=spec.name,
        convention=cfg.flop_convention,
        batch_size=cfg.batch_size,
        dtype_name=cfg.dtype.name,
        bytes_per_element=e,
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
    """Each row's ``out_shape`` as text, its dims joined by ``x``
    (``64x112x112``), each distinct shape formatted once."""
    text: dict[tuple[int, ...], str] = {}
    for c in report.per_layer:
        if c.out_shape not in text:
            text[c.out_shape] = "x".join(map(str, c.out_shape))
    return [text[c.out_shape] for c in report.per_layer]


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


# One per_layer row of report_to_dict, as compact JSON and as JSON indented
# by 2 at the depth of a row; the ``%s`` fields take encoded strings.
_ROW_JSON = (
    '{"layer_index":%d,"name":%s,"out_shape":%s,'
    '"flops":%d,"activation_bytes":%d,"param_count":%d}'
)
_ROW_JSON_INDENTED = (
    '    {\n      "layer_index": %d,\n      "name": %s,\n      "out_shape": %s,\n'
    '      "flops": %d,\n      "activation_bytes": %d,\n      "param_count": %d\n    }'
)


def report_to_json(report: CostReport, indent: int | None = 2) -> str:
    """``report_to_dict`` as JSON text: compact with ``indent=None``, else
    indented by 2 spaces, the only two layouts served.

    The text equals ``json.dumps`` of the dict, with ``separators=(",",
    ":")`` or ``indent=2``: the header goes through ``json.dumps`` and each
    layer row through one ``%`` template (every count an int, strings
    escaped by the encoder's own ASCII escaper), so no per-row dict is built.
    """
    header = _report_header(report)
    if indent is None:
        head = json.dumps(header, separators=(",", ":"))[:-1]  # up to the "}"
        row, sep, open_rows, close = _ROW_JSON, ",", ',"per_layer":[', "]}"
    elif indent == 2:
        head = json.dumps(header, indent=2)[:-2]  # up to the "\n}"
        row, sep, open_rows, close = _ROW_JSON_INDENTED, ",\n", ',\n  "per_layer": [\n', "\n  ]\n}"
    else:
        raise ValueError(f"indent must be None or 2, got {indent!r}")
    if not report.per_layer:  # json.dumps writes an empty list as [] in either layout
        return f"{head}{open_rows.rstrip()}{close.lstrip()}"
    enc = encode_basestring_ascii
    rows = sep.join([
        row % (i, enc(name), enc(shape), flops, act, params)
        for (i, name, _, flops, act, params), shape in zip(
            report.per_layer, _shape_text(report)
        )
    ])
    return f"{head}{open_rows}{rows}{close}"


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
