"""Architecture descriptions used by the cost model.

A model is either a convolutional stack (``CnnSpec``: a linear layer list
with explicit residual back-references) or a transformer configuration
(``ViTSpec``). Specs are immutable value objects. Validation returns
violation records instead of raising, so callers can collect every problem
in one pass; cost evaluation assumes a spec that validated cleanly.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, fields
from enum import Enum
from pathlib import Path
from typing import Any, Union

@dataclass(frozen=True, slots=True)
class DTypeDesc:
    """Numeric storage format: a name and its element width in bytes."""

    name: str
    bytes_per_element: int

    def __post_init__(self) -> None:
        if self.bytes_per_element not in (1, 2, 4, 8):
            raise ValueError(
                f"bytes_per_element must be 1, 2, 4 or 8, got {self.bytes_per_element}"
            )


FP64 = DTypeDesc("fp64", 8)
FP32 = DTypeDesc("fp32", 4)
FP16 = DTypeDesc("fp16", 2)
BF16 = DTypeDesc("bf16", 2)
INT8 = DTypeDesc("int8", 1)

DTYPES: dict[str, DTypeDesc] = {d.name: d for d in (FP64, FP32, FP16, BF16, INT8)}


def dtype_from_name(name: str) -> DTypeDesc:
    try:
        return DTYPES[name.lower()]
    except KeyError:
        known = ", ".join(sorted(DTYPES))
        raise ValueError(f"unknown dtype {name!r} (known: {known})") from None


class FlopConvention(str, Enum):
    """How FLOPs are counted for transformer configurations.

    ``CLOSED_FORM`` uses the per-block closed formulas (block bodies only,
    embedding and classifier excluded, fused-attention activation footprint).
    ``FULL_COUNT`` walks every operator: patch embedding, all four attention
    projections, score and attention-value matmuls, softmax, norms, MLP and
    the classifier head. Convolutional stacks are always walked operator by
    operator; for them the convention is recorded but changes nothing.
    """

    CLOSED_FORM = "closed_form"
    FULL_COUNT = "full_count"


@dataclass(frozen=True, slots=True)
class TensorShape:
    """Per-sample tensor shape; the batch dimension is tracked separately."""

    dims: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "dims", tuple(int(d) for d in self.dims))
        if not self.dims:
            raise ValueError("TensorShape needs at least one dimension")
        if any(d < 1 for d in self.dims):
            raise ValueError(f"all dims must be >= 1, got {self.dims}")

    def __str__(self) -> str:
        return "x".join(str(d) for d in self.dims)


# --------------------------------------------------------------------------
# CNN layer vocabulary.
#
# Constructors accept any integers; semantic problems (zero kernels, group
# mismatches, bad back-references) are reported by validate_cnn as data.


@dataclass(frozen=True, slots=True)
class Conv2d:
    in_ch: int
    out_ch: int
    kernel: int
    stride: int = 1
    padding: int = 0
    groups: int = 1
    dilation: int = 1
    has_bias: bool = False
    # Input normally comes from the previous layer. A back-reference here
    # feeds this conv from an earlier layer's output instead, which is how
    # projection shortcuts (a conv on the block input) are expressed in an
    # otherwise linear sequence.
    input_layer_index: int | None = None


@dataclass(frozen=True, slots=True)
class Pool:
    kind: str  # "max" or "avg"
    kernel: int
    stride: int = 1
    padding: int = 0


@dataclass(frozen=True, slots=True)
class GlobalPool:
    pass


@dataclass(frozen=True, slots=True)
class BatchNorm:
    ch: int


@dataclass(frozen=True, slots=True)
class Activation:
    pass


@dataclass(frozen=True, slots=True)
class ResidualAdd:
    source_layer_index: int


@dataclass(frozen=True, slots=True)
class Resize:
    target_hw: int


@dataclass(frozen=True, slots=True)
class Linear:
    in_features: int
    out_features: int


CnnLayer = Union[
    Conv2d, Pool, GlobalPool, BatchNorm, Activation, ResidualAdd, Resize, Linear
]


@dataclass(frozen=True, slots=True)
class CnnSpec:
    name: str
    input_channels: int
    layers: tuple[CnnLayer, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "layers", tuple(self.layers))


@dataclass(frozen=True, slots=True)
class ViTSpec:
    """Square-grid vision transformer without a class token.

    The token grid is ``tokens_per_side ** 2`` patches; the classifier
    consumes a mean-pooled token. The implied image side is
    ``tokens_per_side * patch_size``.
    """

    name: str
    patch_size: int
    hidden_dim: int
    num_heads: int
    mlp_dim: int
    depth: int
    tokens_per_side: int
    input_channels: int = 3
    num_classes: int = 1000

    @property
    def image_side(self) -> int:
        return self.tokens_per_side * self.patch_size


ArchSpec = Union[CnnSpec, ViTSpec]


@dataclass(frozen=True, slots=True)
class EvalConfig:
    """Evaluation-time settings: batch, storage format, resolution, counting.

    ``input_resolution`` is pixels per side for a CNN and tokens per side
    for a ViT. ``None`` means the spec default: a ViT's own
    ``tokens_per_side``, or 224 pixels for a CNN.
    """

    batch_size: int = 1
    dtype: DTypeDesc = FP32
    input_resolution: int | None = None
    flop_convention: FlopConvention = FlopConvention.CLOSED_FORM

    def __post_init__(self) -> None:
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.input_resolution is not None and self.input_resolution < 1:
            raise ValueError(
                f"input_resolution must be >= 1, got {self.input_resolution}"
            )

    def resolution_for(self, spec: ArchSpec) -> int:
        if self.input_resolution is not None:
            return self.input_resolution
        if isinstance(spec, ViTSpec):
            return spec.tokens_per_side
        return 224


@dataclass(frozen=True, slots=True)
class Violation:
    """One validation problem, tied to a layer where that makes sense."""

    layer_index: int | None
    message: str

    def __str__(self) -> str:
        if self.layer_index is None:
            return self.message
        return f"layer {self.layer_index}: {self.message}"


def _check_positive(
    out: list[Violation], index: int | None, value: int, what: str
) -> None:
    if value < 1:
        out.append(Violation(index, f"{what} must be >= 1, got {value}"))


def _static_layer_checks(spec: CnnSpec) -> list[Violation]:
    out: list[Violation] = []
    for i, layer in enumerate(spec.layers):
        if isinstance(layer, Conv2d):
            _check_positive(out, i, layer.in_ch, "in_ch")
            _check_positive(out, i, layer.out_ch, "out_ch")
            _check_positive(out, i, layer.kernel, "kernel")
            _check_positive(out, i, layer.stride, "stride")
            _check_positive(out, i, layer.dilation, "dilation")
            _check_positive(out, i, layer.groups, "groups")
            if layer.padding < 0:
                out.append(Violation(i, f"padding must be >= 0, got {layer.padding}"))
            if layer.groups >= 1:
                if layer.in_ch % layer.groups != 0:
                    out.append(
                        Violation(
                            i,
                            f"in_ch {layer.in_ch} not divisible by groups {layer.groups}",
                        )
                    )
                if layer.out_ch % layer.groups != 0:
                    out.append(
                        Violation(
                            i,
                            f"out_ch {layer.out_ch} not divisible by groups {layer.groups}",
                        )
                    )
            if layer.input_layer_index is not None and not (
                0 <= layer.input_layer_index < i
            ):
                out.append(
                    Violation(
                        i,
                        f"input_layer_index {layer.input_layer_index} must point at an earlier layer",
                    )
                )
        elif isinstance(layer, Pool):
            if layer.kind not in ("max", "avg"):
                out.append(Violation(i, f"pool kind must be 'max' or 'avg', got {layer.kind!r}"))
            _check_positive(out, i, layer.kernel, "kernel")
            _check_positive(out, i, layer.stride, "stride")
            if layer.padding < 0:
                out.append(Violation(i, f"padding must be >= 0, got {layer.padding}"))
        elif isinstance(layer, BatchNorm):
            _check_positive(out, i, layer.ch, "ch")
        elif isinstance(layer, ResidualAdd):
            if not 0 <= layer.source_layer_index < i:
                out.append(
                    Violation(
                        i,
                        f"source_layer_index {layer.source_layer_index} must point at an earlier layer",
                    )
                )
        elif isinstance(layer, Resize):
            _check_positive(out, i, layer.target_hw, "target_hw")
        elif isinstance(layer, Linear):
            _check_positive(out, i, layer.in_features, "in_features")
            _check_positive(out, i, layer.out_features, "out_features")
    return out


def _channel_chain_checks(spec: CnnSpec) -> list[Violation]:
    """Resolution-independent channel consistency along the sequence."""
    out: list[Violation] = []
    channels: list[int] = []  # output channels per layer
    cur = spec.input_channels
    collapsed = False  # spatial dims known to be 1x1 (after GlobalPool)
    for i, layer in enumerate(spec.layers):
        if isinstance(layer, Conv2d):
            src = cur
            if layer.input_layer_index is not None and 0 <= layer.input_layer_index < i:
                src = channels[layer.input_layer_index]
            if layer.in_ch != src:
                out.append(
                    Violation(i, f"in_ch {layer.in_ch} does not match input channels {src}")
                )
            cur = layer.out_ch
            collapsed = False
        elif isinstance(layer, BatchNorm):
            if layer.ch != cur:
                out.append(Violation(i, f"ch {layer.ch} does not match input channels {cur}"))
        elif isinstance(layer, ResidualAdd):
            if 0 <= layer.source_layer_index < i:
                src_ch = channels[layer.source_layer_index]
                if src_ch != cur:
                    out.append(
                        Violation(
                            i,
                            f"residual source layer {layer.source_layer_index} has "
                            f"{src_ch} channels, current stream has {cur}",
                        )
                    )
        elif isinstance(layer, GlobalPool):
            collapsed = True
        elif isinstance(layer, Linear):
            if collapsed and layer.in_features != cur:
                out.append(
                    Violation(
                        i,
                        f"in_features {layer.in_features} does not match input channels {cur}",
                    )
                )
            cur = layer.out_features
        channels.append(cur)
    return out


_PROBE_RESOLUTIONS = (64, 256, 1024, 4096)


def validate_cnn(spec: CnnSpec) -> list[Violation]:
    """Return every invariant violation; empty means the spec is well formed
    and shape propagation will succeed at some input resolution."""
    out = _static_layer_checks(spec)
    if spec.input_channels < 1:
        out.append(Violation(None, f"input_channels must be >= 1, got {spec.input_channels}"))
    out.extend(_channel_chain_checks(spec))
    if out:
        return out

    # Structural checks that need spatial arithmetic (residual grids, linear
    # fan-in) run through a trial propagation at a probe resolution.
    from .cost import InfeasibleResolution, ShapeMismatch, propagate_shapes

    for res in _PROBE_RESOLUTIONS:
        try:
            propagate_shapes(spec, EvalConfig(input_resolution=res))
            return []
        except InfeasibleResolution:
            continue
        except ShapeMismatch as exc:
            out.append(Violation(exc.layer_index, exc.message))
            return out
    out.append(
        Violation(None, f"no feasible input resolution up to {_PROBE_RESOLUTIONS[-1]}")
    )
    return out


def validate_vit(spec: ViTSpec) -> list[Violation]:
    out: list[Violation] = []
    _check_positive(out, None, spec.patch_size, "patch_size")
    _check_positive(out, None, spec.hidden_dim, "hidden_dim")
    _check_positive(out, None, spec.num_heads, "num_heads")
    _check_positive(out, None, spec.mlp_dim, "mlp_dim")
    _check_positive(out, None, spec.depth, "depth")
    _check_positive(out, None, spec.tokens_per_side, "tokens_per_side")
    _check_positive(out, None, spec.input_channels, "input_channels")
    _check_positive(out, None, spec.num_classes, "num_classes")
    if spec.num_heads >= 1 and spec.hidden_dim % spec.num_heads != 0:
        out.append(
            Violation(
                None,
                f"hidden_dim {spec.hidden_dim} not divisible by num_heads {spec.num_heads}",
            )
        )
    return out


def validate_spec(spec: ArchSpec) -> list[Violation]:
    if isinstance(spec, ViTSpec):
        return validate_vit(spec)
    return validate_cnn(spec)


# --------------------------------------------------------------------------
# JSON form. Keys are emitted in dataclass definition order so serialization
# is deterministic; unknown keys are rejected on the way in.

_LAYER_TAGS: dict[type, str] = {
    Conv2d: "conv2d",
    Pool: "pool",
    GlobalPool: "global_pool",
    BatchNorm: "batch_norm",
    Activation: "activation",
    ResidualAdd: "residual_add",
    Resize: "resize",
    Linear: "linear",
}
_TAG_TO_LAYER = {tag: cls for cls, tag in _LAYER_TAGS.items()}


def checked_int(value: Any, field: str) -> int:
    """``value`` when it is an int; a bool, float, string or null is not."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{field} must be an integer, got {json.dumps(value)}")
    return value


def _check_types(cls: type, values: dict[str, Any], where: str) -> None:
    """Check the values given for ``cls``'s ``int``, ``int | None`` and
    ``bool`` fields (annotations are strings here); missing keys are left
    to the constructor."""
    for f in fields(cls):
        if f.name not in values:
            continue
        value = values[f.name]
        if f.type == "int" or (f.type == "int | None" and value is not None):
            checked_int(value, where + f.name)
        elif f.type == "bool" and not isinstance(value, bool):
            raise ValueError(f"{where}{f.name} must be true or false, got {json.dumps(value)}")


def _layer_to_dict(layer: CnnLayer) -> dict[str, Any]:
    d: dict[str, Any] = {"type": _LAYER_TAGS[type(layer)]}
    for f in fields(layer):
        d[f.name] = getattr(layer, f.name)
    return d


def _layer_from_dict(i: int, d: dict[str, Any]) -> CnnLayer:
    if not isinstance(d, dict):
        raise ValueError(f"layer {i}: expected an object, got {type(d).__name__}")
    work = dict(d)
    tag = work.pop("type", None)
    if not isinstance(tag, str) or tag not in _TAG_TO_LAYER:
        raise ValueError(f"layer {i}: unknown layer type {tag!r}")
    cls = _TAG_TO_LAYER[tag]
    allowed = {f.name for f in fields(cls)}
    unknown = set(work) - allowed
    if unknown:
        raise ValueError(f"layer {i}: unknown key(s) {sorted(unknown)} for {tag}")
    _check_types(cls, work, f"layer {i}: ")
    try:
        return cls(**work)
    except TypeError as exc:
        raise ValueError(f"layer {i}: {exc}") from None


def spec_to_dict(spec: ArchSpec) -> dict[str, Any]:
    if isinstance(spec, ViTSpec):
        d: dict[str, Any] = {"kind": "vit"}
        for f in fields(spec):
            d[f.name] = getattr(spec, f.name)
        return d
    d = {"kind": "cnn", "name": spec.name, "input_channels": spec.input_channels}
    d["layers"] = [_layer_to_dict(layer) for layer in spec.layers]
    return d


def spec_from_dict(d: dict[str, Any]) -> ArchSpec:
    if not isinstance(d, dict):
        raise ValueError(f"expected a JSON object, got {type(d).__name__}")
    kind = d.get("kind")
    if kind == "vit":
        work = {k: v for k, v in d.items() if k != "kind"}
        allowed = {f.name for f in fields(ViTSpec)}
        unknown = set(work) - allowed
        if unknown:
            raise ValueError(f"unknown key(s) {sorted(unknown)} for vit spec")
        _check_types(ViTSpec, work, "")
        try:
            return ViTSpec(**work)
        except TypeError as exc:
            raise ValueError(str(exc)) from None
    if kind == "cnn":
        work = {k: v for k, v in d.items() if k != "kind"}
        layers_raw = work.pop("layers", None)
        unknown = set(work) - {"name", "input_channels"}
        if unknown:
            raise ValueError(f"unknown key(s) {sorted(unknown)} for cnn spec")
        if not isinstance(layers_raw, list):
            raise ValueError("cnn spec needs a 'layers' array")
        layers = tuple(_layer_from_dict(i, ld) for i, ld in enumerate(layers_raw))
        _check_types(CnnSpec, work, "")
        try:
            return CnnSpec(name=work["name"], input_channels=work["input_channels"], layers=layers)
        except KeyError as exc:
            raise ValueError(f"cnn spec is missing key {exc}") from None
    raise ValueError(f"spec kind must be 'cnn' or 'vit', got {kind!r}")


def spec_to_json(spec: ArchSpec, indent: int | None = 2) -> str:
    return json.dumps(spec_to_dict(spec), indent=indent)


def spec_from_json(text: str) -> ArchSpec:
    return spec_from_dict(json.loads(text))


def load_spec(path: str | Path) -> ArchSpec:
    return spec_from_json(Path(path).read_text(encoding="utf-8"))


def save_spec(spec: ArchSpec, path: str | Path) -> None:
    Path(path).write_text(spec_to_json(spec) + "\n", encoding="utf-8")
