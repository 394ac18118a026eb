"""Costs and selections computed apart from the program.

Everything here follows the conventions the README states (2 FLOPs per
multiply-accumulate, 1 per elementwise output, 5 per layer-norm element,
3 per softmax logit; a layer's activation footprint is its inputs plus its
output) and published model cards. Nothing here imports ``visioncost``, so
a fault in the program cannot hide in its own oracle. All arithmetic is on
Python ints.
"""

from __future__ import annotations

DTYPE_BYTES = {"fp64": 8, "fp32": 4, "fp16": 2, "bf16": 2, "int8": 1}

IMAGE_CHANNELS = 3
NUM_CLASSES = 1000

# Transformer cards: width, heads, MLP width, blocks, patch, tokens per side.
VIT_CARDS = {
    "vit_small": {"hidden": 384, "heads": 6, "mlp": 1536, "depth": 12, "patch": 16, "N": 14},
    "vit_base": {"hidden": 768, "heads": 12, "mlp": 3072, "depth": 12, "patch": 16, "N": 14},
}

# ResNet-50 (He et al. 2016, table 1): (blocks, bottleneck width, first stride).
RESNET50_STAGES = ((3, 64, 1), (4, 128, 2), (6, 256, 2), (3, 512, 2))
RESNET50_PARAMS = 25_557_032  # torchvision's published count
RESNET50_CONV_MACS_224 = 4_087_136_256
RESNET50_CONV_LAYERS = 53


def format_value(value: object) -> str:
    """How an axis value is spelled in a config id (``1.0`` is ``1``)."""
    if isinstance(value, float):
        return str(int(value)) if value == int(value) else repr(value)
    return str(value)


def config_id(base: str, axes: list[tuple[str, object]]) -> str:
    return ";".join([base] + [f"{kind}={format_value(v)}" for kind, v in axes])


# --------------------------------------------------------------------------
# Transformers. ``v`` is a dict with hidden, heads, mlp, depth, patch, N,
# batch and bytes (element width).


def vit_closed(v: dict) -> dict:
    """Closed form: ``4N⁴D + 3kN⁴ + 2N²D² + 4N²D·D_mlp`` per block."""
    n2, d, k, m, b, e = v["N"] ** 2, v["hidden"], v["heads"], v["mlp"], v["batch"], v["bytes"]
    block = 4 * n2 * n2 * d + 3 * k * n2 * n2 + 2 * n2 * d * d + 4 * n2 * d * m
    act = (5 * n2 * d + n2 * m) * b * e
    params = d * (4 * d + 2 * m)
    rows = [(f"block{i}", f"{n2}x{d}", b * block, act, params) for i in range(v["depth"])]
    return _totals(rows, e)


def vit_full(v: dict) -> dict:
    """Every operator of a pre-norm transformer, embedding and head included.

    Linear maps carry no bias. Attention materialises the k score matrices;
    per head the score and attention-value matmuls each take T·T·(D/k)
    multiply-accumulates, T·T·D over all heads.
    """
    t, d, k, m, p = v["N"] ** 2, v["hidden"], v["heads"], v["mlp"], v["patch"]
    side = v["N"] * p
    tok, scores = t * d, k * t * t
    rows: list[tuple] = []

    def op(name, shape, flops, inputs, out, params=0):
        rows.append((name, shape, flops, sum(inputs) + out, params))

    def linear(name, fan_in, fan_out):
        op(name, f"{t}x{fan_out}", 2 * t * fan_in * fan_out, [t * fan_in], t * fan_out,
           fan_in * fan_out)

    def layer_norm(name):
        op(name, f"{t}x{d}", 5 * tok, [tok], tok, 2 * d)

    patch_pixels = IMAGE_CHANNELS * p * p
    op("patch_embed", f"{t}x{d}", 2 * t * patch_pixels * d,
       [IMAGE_CHANNELS * side * side], tok, patch_pixels * d)
    for i in range(v["depth"]):
        pre = f"block{i}."
        layer_norm(pre + "norm1")
        for proj in ("q_proj", "k_proj", "v_proj"):
            linear(pre + proj, d, d)
        op(pre + "attn_scores", f"{k}x{t}x{t}", 2 * t * t * d, [tok, tok], scores)
        op(pre + "attn_softmax", f"{k}x{t}x{t}", 3 * scores, [scores], scores)
        op(pre + "attn_av", f"{t}x{d}", 2 * t * t * d, [scores, tok], tok)
        linear(pre + "out_proj", d, d)
        op(pre + "attn_residual", f"{t}x{d}", tok, [tok, tok], tok)
        layer_norm(pre + "norm2")
        linear(pre + "mlp_fc1", d, m)
        op(pre + "mlp_act", f"{t}x{m}", t * m, [t * m], t * m)
        linear(pre + "mlp_fc2", m, d)
        op(pre + "mlp_residual", f"{t}x{d}", tok, [tok, tok], tok)
    layer_norm("final_norm")
    op("head_pool", f"{d}", tok, [tok], d)
    op("head_linear", f"{NUM_CLASSES}", 2 * d * NUM_CLASSES, [d], NUM_CLASSES, d * NUM_CLASSES)
    b, e = v["batch"], v["bytes"]
    return _totals([(n, s, b * f, a * b * e, w) for n, s, f, a, w in rows], e)


def vit_flops(v: dict, convention: str) -> int:
    """Total FLOPs without building every block: blocks are identical, so the
    total is f(0 blocks) + depth * (f(1 block) - f(0 blocks))."""
    cost = vit_full if convention == "full_count" else vit_closed
    none = cost({**v, "depth": 0})["flops"]
    return none + v["depth"] * (cost({**v, "depth": 1})["flops"] - none)


def _totals(rows: list[tuple], e: int) -> dict:
    peak = max((r[3] for r in rows), default=0)
    model = sum(r[4] for r in rows) * e
    return {
        "rows": rows,
        "flops": sum(r[2] for r in rows),
        "peak_activation_bytes": peak,
        "model_bytes": model,
        "total_memory_bytes": model + peak,
    }


# --------------------------------------------------------------------------
# ResNet-50 at width 1.0, from its stage table.


def window_out(side: int, kernel: int, stride: int, padding: int) -> int:
    return (side + 2 * padding - kernel) // stride + 1


def resnet50_table(resolution: int, stem_resize: int | None = None) -> tuple[int, int]:
    """(conv multiply-accumulates per image, parameters) of ResNet-50.

    Bottlenecks stride on their 3x3 conv; the first block of each stage has
    a strided 1x1 projection. Batch norms hold a scale and a shift per
    channel. ``stem_resize`` resizes the stem output to that side.
    """
    side = window_out(resolution, 7, 2, 3)
    macs = IMAGE_CHANNELS * 64 * 49 * side * side
    params = IMAGE_CHANNELS * 64 * 49 + 2 * 64
    if stem_resize is not None:
        side = stem_resize
    side = window_out(side, 3, 2, 1)  # max pool
    c_in = 64
    for blocks, width, first_stride in RESNET50_STAGES:
        c_out = 4 * width
        for i in range(blocks):
            stride = first_stride if i == 0 else 1
            out = window_out(side, 3, stride, 1)
            macs += c_in * width * side * side + 9 * width * width * out * out
            macs += width * c_out * out * out
            params += c_in * width + 9 * width * width + width * c_out
            params += 2 * (width + width + c_out)
            if i == 0:
                macs += c_in * c_out * out * out
                params += c_in * c_out + 2 * c_out
            side, c_in = out, c_out
    params += c_in * NUM_CLASSES + NUM_CLASSES
    return macs, params


# --------------------------------------------------------------------------
# Selection.


def pareto_ids(points: list[tuple[str, int, int]]) -> set[str]:
    """Ids of the (id, a, b) points that no other point dominates, both minimised.

    Sort by (a, b) and sweep: a point survives when its b is the least among
    points with its a, and below every b seen at a smaller a. Equal points
    are all kept. Exact on ints of any size.
    """
    ordered = sorted(points, key=lambda p: (p[1], p[2]))
    kept: set[str] = set()
    best_b = None
    i = 0
    while i < len(ordered):
        j = i
        while j < len(ordered) and ordered[j][1] == ordered[i][1]:
            j += 1
        group_min = ordered[i][2]
        if best_b is None or group_min < best_b:
            kept.update(p[0] for p in ordered[i:j] if p[2] == group_min)
            best_b = group_min
        i = j
    return kept


def knob_range(lo: int, hi: int, step: int) -> range:
    """The knob values in [lo, hi] that are positive multiples of ``step``."""
    return range(-(-max(lo, step) // step) * step, hi // step * step + 1, step)


def match_scan(flops_at, values: range, target: int) -> dict:
    """Exhaustive scan of ``values`` for the one whose FLOPs are closest to
    ``target``; ties go to the smaller value. Also gives the bracketing pair
    around the target."""
    lo, hi, step = values[0], values[-1], values.step
    flops = {value: flops_at(value) for value in values}
    best = min(values, key=lambda value: (abs(flops[value] - target), value))
    upper = min(value for value in values if flops[value] >= target)
    lower = max(lo, upper - step)
    return {"value": best, "flops": flops[best], "lower": lower, "upper": upper,
            "f_lower": flops[lower], "f_upper": flops[upper], "f_lo": flops[lo],
            "f_hi": flops[hi]}


def best_choice(rows: list[dict], metric: str, max_drop: float, objective: str,
                baseline: str) -> dict:
    """Cheapest row whose metric is at least the baseline's minus max_drop;
    ties on the objective go to the smaller config id."""
    by_id = {r["config_id"]: r for r in rows}
    floor = by_id[baseline][metric] - max_drop
    feasible = [r for r in rows if r[metric] >= floor]
    return min(feasible, key=lambda r: (r[objective], r["config_id"]))
