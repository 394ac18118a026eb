"""Architecture descriptions used by the cost model.

A model is either a convolutional stack (``CnnSpec``: a linear layer list
with explicit residual back-references) or a transformer configuration
(``ViTSpec``). Specs and the other records are immutable named tuples;
like any tuple, a record equals a plain tuple or another record with the
same values, so compare types too where that matters. Validation returns
violation records instead of raising, so callers can collect every problem
in one pass; cost evaluation assumes a spec that validated cleanly. A CNN
spec is validated for what holds at any input resolution; the cost walk
reports what depends on the resolution it is costed at.
"""

from __future__ import annotations

import json
from enum import Enum
from pathlib import Path
from typing import Any, Callable, NamedTuple, Union, get_type_hints


class _DTypeDesc(NamedTuple):
    name: str
    bytes_per_element: int


class DTypeDesc(_DTypeDesc):
    """Numeric storage format: a name and its element width in bytes."""

    __slots__ = ()

    def __new__(cls, name: str, bytes_per_element: int) -> DTypeDesc:
        if bytes_per_element not in (1, 2, 4, 8):
            raise ValueError(
                f"bytes_per_element must be 1, 2, 4 or 8, got {bytes_per_element}"
            )
        return super().__new__(cls, name, bytes_per_element)


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


# --------------------------------------------------------------------------
# CNN layer vocabulary.
#
# Constructors accept any integers; semantic problems (zero kernels, group
# mismatches, bad back-references) are reported by validate_cnn as data.


class Conv2d(NamedTuple):
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


class Pool(NamedTuple):
    kind: str  # "max" or "avg"
    kernel: int
    stride: int = 1
    padding: int = 0


class GlobalPool(NamedTuple):
    pass


class BatchNorm(NamedTuple):
    ch: int


class Activation(NamedTuple):
    pass


class ResidualAdd(NamedTuple):
    source_layer_index: int


class Resize(NamedTuple):
    target_hw: int


class Linear(NamedTuple):
    in_features: int
    out_features: int


CnnLayer = Union[
    Conv2d, Pool, GlobalPool, BatchNorm, Activation, ResidualAdd, Resize, Linear
]


class CnnSpec(NamedTuple):
    name: str
    input_channels: int
    layers: tuple[CnnLayer, ...]


class ViTSpec(NamedTuple):
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


ArchSpec = Union[CnnSpec, ViTSpec]


class _EvalConfig(NamedTuple):
    batch_size: int = 1
    dtype: DTypeDesc = FP32
    input_resolution: int | None = None
    flop_convention: FlopConvention = FlopConvention.CLOSED_FORM


class EvalConfig(_EvalConfig):
    """Evaluation-time settings: batch, storage format, resolution, counting.

    ``input_resolution`` is pixels per side for a CNN and tokens per side
    for a ViT. ``None`` means the spec default: a ViT's own
    ``tokens_per_side``, or 224 pixels for a CNN. The constructor checks
    both; ``_replace`` does not, so its callers check what they set.
    """

    __slots__ = ()

    def __new__(cls, *args: Any, **kwargs: Any) -> EvalConfig:
        self = super().__new__(cls, *args, **kwargs)
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.input_resolution is not None and self.input_resolution < 1:
            raise ValueError(
                f"input_resolution must be >= 1, got {self.input_resolution}"
            )
        return self

    def resolution_for(self, spec: ArchSpec) -> int:
        if self.input_resolution is not None:
            return self.input_resolution
        if isinstance(spec, ViTSpec):
            return spec.tokens_per_side
        return 224


class Violation(NamedTuple):
    """One validation problem, tied to a layer where that makes sense."""

    layer_index: int | None
    message: str

    def __str__(self) -> str:
        if self.layer_index is None:
            return self.message
        return f"layer {self.layer_index}: {self.message}"


# Each record's field bounds, in the order they are reported: sizes and
# counts are at least 1, padding at least 0.
_LEAST: dict[type, tuple[tuple[str, int], ...]] = {
    CnnSpec: (("input_channels", 1),),
    Conv2d: (
        ("in_ch", 1), ("out_ch", 1), ("kernel", 1), ("stride", 1), ("dilation", 1),
        ("groups", 1), ("padding", 0),
    ),
    Pool: (("kernel", 1), ("stride", 1), ("padding", 0)),
    BatchNorm: (("ch", 1),),
    Resize: (("target_hw", 1),),
    Linear: (("in_features", 1), ("out_features", 1)),
    ViTSpec: tuple((field, 1) for field in ViTSpec._fields if field != "name"),
}


def _check_bounds(out: list[Violation], index: int | None, record: Any) -> None:
    for field, least in _LEAST.get(type(record), ()):
        value = getattr(record, field)
        if value < least:
            out.append(Violation(index, f"{field} must be >= {least}, got {value}"))


def validate_cnn(spec: CnnSpec) -> list[Violation]:
    """Return every violation that holds at any input resolution, in one pass:
    field bounds, back-references, group divisibility and the channel chain.
    The spec's own violation comes first, then each layer's in layer order.
    Empty means the cost walk can run. Whether a window fits, residual grids
    agree or a flattened map fits a classifier depends on the resolution;
    the walk reports those when it is costed."""
    out: list[Violation] = []
    _check_bounds(out, None, spec)
    channels: list[int] = []  # output channels per layer
    cur = spec.input_channels
    collapsed = False  # spatial dims 1x1 at any resolution (after GlobalPool)
    for i, layer in enumerate(spec.layers):
        if isinstance(layer, Pool) and layer.kind not in ("max", "avg"):
            out.append(Violation(i, f"pool kind must be 'max' or 'avg', got {layer.kind!r}"))
        _check_bounds(out, i, layer)
        if isinstance(layer, Conv2d):
            if layer.groups >= 1:
                for field in ("in_ch", "out_ch"):
                    if getattr(layer, field) % layer.groups != 0:
                        out.append(Violation(
                            i, f"{field} {getattr(layer, field)} not divisible by groups {layer.groups}"
                        ))
            src = cur
            if layer.input_layer_index is not None:
                if 0 <= layer.input_layer_index < i:
                    src = channels[layer.input_layer_index]
                else:
                    out.append(Violation(
                        i, f"input_layer_index {layer.input_layer_index} must point at an earlier layer"
                    ))
            if layer.in_ch != src:
                out.append(Violation(i, f"in_ch {layer.in_ch} does not match input channels {src}"))
            cur = layer.out_ch
            collapsed = False
        elif isinstance(layer, (Pool, Resize)):
            collapsed = False  # a padded window or a resize can widen a 1x1 map
        elif isinstance(layer, GlobalPool):
            collapsed = True
        elif isinstance(layer, BatchNorm):
            if layer.ch != cur:
                out.append(Violation(i, f"ch {layer.ch} does not match input channels {cur}"))
        elif isinstance(layer, ResidualAdd):
            source = layer.source_layer_index
            if not 0 <= source < i:
                out.append(Violation(i, f"source_layer_index {source} must point at an earlier layer"))
            elif channels[source] != cur:
                out.append(Violation(
                    i, f"residual source layer {source} has {channels[source]} channels, "
                    f"current stream has {cur}"
                ))
        elif isinstance(layer, Linear):
            if collapsed and layer.in_features != cur:
                out.append(Violation(
                    i, f"in_features {layer.in_features} does not match input channels {cur}"
                ))
            cur = layer.out_features
        channels.append(cur)
    return out


def validate_vit(spec: ViTSpec) -> list[Violation]:
    out: list[Violation] = []
    _check_bounds(out, None, spec)
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
# JSON form. Keys are emitted in field definition order so serialization
# is deterministic. On the way in, one schema read from the records' own
# annotations, for spec and space files alike, rejects unknown keys, names
# missing ones and checks the type of every value.

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


def checked_str(value: Any, field: str) -> str:
    """``value`` when it is a string; a number, list or null is not."""
    if not isinstance(value, str):
        raise ValueError(f"{field} must be a string, got {json.dumps(value)}")
    return value


def _checked_bool(value: Any, field: str) -> bool:
    if not isinstance(value, bool):
        raise ValueError(f"{field} must be true or false, got {json.dumps(value)}")
    return value


def _checked_array(value: Any, field: str) -> tuple:
    if not isinstance(value, list) or not value:
        raise ValueError(f"{field} must be a non-empty array")
    return tuple(value)


def _checked_object(value: Any, field: str) -> dict:
    if not isinstance(value, dict):
        raise ValueError(f"{field} must be an object")
    return value


def _member_check(kind: type[Enum]) -> Callable[[Any, str], Enum]:
    """The check of a str Enum field: one of its values, stored as its member."""
    members = {member.value: member for member in kind}

    def check(value: Any, field: str) -> Enum:
        if checked_str(value, field) not in members:
            raise ValueError(f"{field} must be one of {list(members)}, got {json.dumps(value)}")
        return members[value]

    return check


# The check of each field type a spec or space file holds: (value, field)
# -> the value to store; a str Enum is checked by _field_checks.
_CHECKS: dict[Any, Callable[[Any, str], Any]] = {
    int: checked_int,
    int | None: lambda value, field: value if value is None else checked_int(value, field),
    bool: _checked_bool,
    str: checked_str,
    tuple: _checked_array,
    dict: _checked_object,
    DTypeDesc: lambda value, field: dtype_from_name(checked_str(value, field)),
}


def _field_checks(cls: type) -> dict[str, Callable[[Any, str], Any]]:
    """Field name -> check, for each field of record ``cls`` in definition
    order. A field whose type has no check fails at once, so none goes
    unchecked; a CnnSpec's layers are walked by spec_from_dict."""
    checks = {}
    for name, kind in get_type_hints(cls).items():
        if cls is CnnSpec and name == "layers":
            continue
        if isinstance(kind, type) and issubclass(kind, Enum):
            checks[name] = _member_check(kind)
        elif kind in _CHECKS:
            checks[name] = _CHECKS[kind]
        else:
            raise TypeError(f"{cls.__name__}.{name}: no load check for {kind}")
    return checks


_FIELD_CHECKS = {cls: _field_checks(cls) for cls in (*_LAYER_TAGS, ViTSpec, CnnSpec, EvalConfig)}


def _record_from_dict(cls: type, values: Any, where: str, noun: str) -> Any:
    """``cls(**values)`` once ``values`` is an object, every key names a
    field of ``cls``, every field without a default has a key and every
    value has its field's type. Each checked value is stored back into
    ``values``: a dtype name as its DTypeDesc, say. A fault, or a ValueError
    from ``cls`` itself, raises ValueError, its message prefixed by ``where``."""
    try:
        unknown = values.keys() - cls._fields
    except AttributeError:
        raise ValueError(f"{where}{noun} must be an object") from None
    if unknown:
        raise ValueError(f"{where}unknown key(s) {sorted(unknown)} for {noun}")
    if cls not in _FIELD_CHECKS:  # a record defined outside this module
        _FIELD_CHECKS[cls] = _field_checks(cls)
    for name, check in _FIELD_CHECKS[cls].items():
        if name in values:
            values[name] = check(values[name], where + name)
    if len(values) < len(cls._fields):  # every key is a field: else none is missing
        for name in cls._fields:
            if name not in values and name not in cls._field_defaults:
                raise ValueError(f"{where}{noun} is missing key {name!r}")
    try:
        return cls(**values)
    except ValueError as exc:
        raise ValueError(f"{where}{exc}") from None


def _layer_to_dict(layer: CnnLayer) -> dict[str, Any]:
    return {"type": _LAYER_TAGS[type(layer)], **layer._asdict()}


def _layer_from_dict(i: int, d: dict[str, Any]) -> CnnLayer:
    if not isinstance(d, dict):
        raise ValueError(f"layer {i}: expected an object, got {type(d).__name__}")
    work = dict(d)
    tag = work.pop("type", None)
    if not isinstance(tag, str) or tag not in _TAG_TO_LAYER:
        raise ValueError(f"layer {i}: unknown layer type {tag!r}")
    return _record_from_dict(_TAG_TO_LAYER[tag], work, f"layer {i}: ", tag)


def spec_to_dict(spec: ArchSpec) -> dict[str, Any]:
    if isinstance(spec, ViTSpec):
        return {"kind": "vit", **spec._asdict()}
    d = {"kind": "cnn", **spec._asdict()}
    d["layers"] = [_layer_to_dict(layer) for layer in spec.layers]
    return d


def spec_from_dict(d: dict[str, Any]) -> ArchSpec:
    if not isinstance(d, dict):
        raise ValueError(f"expected a JSON object, got {type(d).__name__}")
    kind = d.get("kind")
    work = {k: v for k, v in d.items() if k != "kind"}
    if kind == "vit":
        return _record_from_dict(ViTSpec, work, "", "vit spec")
    if kind == "cnn":
        layers = work.get("layers")
        if not isinstance(layers, list):
            raise ValueError("cnn spec needs a 'layers' array")
        work["layers"] = tuple(_layer_from_dict(i, ld) for i, ld in enumerate(layers))
        return _record_from_dict(CnnSpec, work, "", "cnn spec")
    raise ValueError(f"spec kind must be 'cnn' or 'vit', got {kind!r}")


def spec_to_json(spec: ArchSpec, indent: int | None = 2) -> str:
    return json.dumps(spec_to_dict(spec), indent=indent)


def spec_from_json(text: str) -> ArchSpec:
    return spec_from_dict(json.loads(text))


def load_spec(path: str | Path) -> ArchSpec:
    return spec_from_json(Path(path).read_text(encoding="utf-8"))


def save_spec(spec: ArchSpec, path: str | Path) -> None:
    Path(path).write_text(spec_to_json(spec) + "\n", encoding="utf-8")
