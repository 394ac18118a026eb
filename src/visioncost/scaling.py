"""Model and evaluation scaling transforms.

Structural transforms (width, group width, hidden size, MLP size, depth,
patch size) rewrite the spec; evaluation transforms (resolution, batch,
dtype) rewrite the EvalConfig and leave the spec untouched. A transform is a
knob and its value; the policies are fixed: width rounds each channel
count half up to a multiple of 8, a hidden size keeps the head count, and
a patch size keeps the token grid. A transform chain applied to a named
base produces a ``ScaledConfig`` whose ``config_id`` is a canonical
compact string such as ``"vit_small;hidden=192;N=9;dtype=int8"``, one
``key=value`` token per transform; parsing that string against a base
registry reproduces the same spec.
"""

from __future__ import annotations

import math
from enum import Enum
from fractions import Fraction
from typing import Callable, Iterable, Mapping, NamedTuple

from .arch import (
    ArchSpec,
    BatchNorm,
    CnnLayer,
    CnnSpec,
    Conv2d,
    DTypeDesc,
    EvalConfig,
    Linear,
    ViTSpec,
    dtype_from_name,
)


class ScalingError(ValueError):
    pass


class RoundingBreaksGroups(ScalingError):
    def __init__(self, layer_index: int, channels: int, groups: int):
        super().__init__(
            f"layer {layer_index}: rounded channel count {_abridged(channels)} is not divisible "
            f"by groups {groups}; pick a width that keeps it a multiple of {groups}"
        )
        self.layer_index = layer_index
        self.channels = channels
        self.groups = groups


class InvalidGroupWidth(ScalingError):
    pass


WIDTH_MULTIPLE = 8


def _abridged(v: object) -> str:
    """``str(v)``, or for an int past the interpreter's digit limit, which
    ``str`` refuses, its size in bits."""
    try:
        return str(v)
    except ValueError:
        return f"{'-' if v < 0 else ''}<int of {abs(v).bit_length()} bits>"


class TransformKind(str, Enum):
    WIDTH = "width"
    GROUP_WIDTH = "gw"
    DEPTH = "depth"
    HIDDEN = "hidden"
    MLP = "mlp"
    RESOLUTION = "N"
    PATCH = "patch"
    BATCH = "batch"
    DTYPE = "dtype"


class ScalingTransform(NamedTuple):
    """One scaling step: a knob and its value."""

    kind: TransformKind
    parameter: object


# --------------------------------------------------------------------------
# Structural transforms.


def _rescale_channels(spec: CnnSpec, scale: Callable[[int, int], int]) -> CnnSpec:
    """Replace every learned channel count ``c`` of layer ``i`` by
    ``scale(c, i)``; channels fed by the raw image stay. Group counts stay
    too, so a grouped conv whose new channels its groups no longer divide
    raises RoundingBreaksGroups."""
    # Per layer: does its output come from a learned layer, not the image?
    derived: list[bool] = []
    new_layers: list[CnnLayer] = []
    for i, layer in enumerate(spec.layers):
        src = i - 1
        if isinstance(layer, Conv2d) and layer.input_layer_index is not None:
            src = layer.input_layer_index
        src_derived = src >= 0 and derived[src]
        derived.append(isinstance(layer, (Conv2d, Linear)) or (i > 0 and derived[-1]))
        if isinstance(layer, Conv2d):
            new_in = scale(layer.in_ch, i) if src_derived else layer.in_ch
            new_out = scale(layer.out_ch, i)
            for channels in (new_in, new_out):
                if channels % layer.groups != 0:
                    raise RoundingBreaksGroups(i, channels, layer.groups)
            layer = layer._replace(in_ch=new_in, out_ch=new_out)
        elif isinstance(layer, BatchNorm) and src_derived:
            layer = layer._replace(ch=scale(layer.ch, i))
        elif isinstance(layer, Linear) and src_derived:
            layer = layer._replace(in_features=scale(layer.in_features, i))
        new_layers.append(layer)
    return spec._replace(layers=tuple(new_layers))


def width_scale(spec: CnnSpec, ratio: float) -> CnnSpec:
    """Scale every learned channel count by ``ratio`` (image input stays),
    rounding half up to a multiple of WIDTH_MULTIPLE, never below it. A
    float ratio is read as the shortest decimal that round-trips it (0.35
    is 7/20), an int as itself, and the product is rounded exactly, at any
    size.

    Group counts are preserved; if rounding makes a grouped conv's channels
    indivisible by its groups, RoundingBreaksGroups is raised.
    """
    if not ratio > 0:  # NaN too
        raise ScalingError(f"width ratio must be > 0, got {_abridged(ratio)}")
    if ratio == math.inf:
        raise ScalingError("width ratio must be finite, got inf")
    if ratio == 1.0:
        return spec
    # An int exactly, at any size; a float as the decimal its config-id token shows.
    ratio_q = Fraction(ratio) if isinstance(ratio, int) else Fraction(str(ratio))
    p, q, m = ratio_q.numerator, ratio_q.denominator, WIDTH_MULTIPLE
    return _rescale_channels(
        spec, lambda c, _: max(m, m * ((2 * c * p + q * m) // (2 * q * m)))
    )


def group_width_scale(spec: CnnSpec, group_width: int) -> CnnSpec:
    """Resize every grouped conv to ``groups * group_width`` channels, keeping
    group counts fixed, and rescale the surrounding channel chain by the same
    exact ratio so pointwise convs, norms and residuals stay consistent.
    """
    if group_width < 1:
        raise InvalidGroupWidth(f"group width must be >= 1, got {_abridged(group_width)}")
    old_widths = {
        layer.in_ch // layer.groups
        for layer in spec.layers
        if isinstance(layer, Conv2d) and layer.groups > 1
    }
    if not old_widths:
        raise ScalingError("spec has no grouped convolutions to rescale")
    if len(old_widths) != 1:
        raise ScalingError(
            f"grouped convolutions disagree on group width: {sorted(old_widths)}"
        )
    ratio = Fraction(group_width, old_widths.pop())
    if ratio == 1:
        return spec

    def scale(c: int, where: int) -> int:
        v = c * ratio
        if v.denominator != 1:
            raise ScalingError(
                f"layer {where}: channel count {_abridged(c)} does not scale exactly by "
                f"{_abridged(ratio.numerator)}/{_abridged(ratio.denominator)}"
            )
        return int(v)

    try:
        return _rescale_channels(spec, scale)
    except RoundingBreaksGroups as exc:
        raise InvalidGroupWidth(
            f"layer {exc.layer_index}: group width {_abridged(group_width)} gives "
            f"{_abridged(exc.channels)} channels, not divisible by groups {exc.groups}"
        ) from None


# --------------------------------------------------------------------------
# Evaluation transforms: the spec is untouched.


def resolution_scale(cfg: EvalConfig, new_resolution: int) -> EvalConfig:
    """A CNN resolution too small for its windows is left for the cost walk
    to reject with InfeasibleResolution."""
    if new_resolution < 1:
        raise ScalingError(f"resolution must be >= 1, got {_abridged(new_resolution)}")
    return cfg._replace(input_resolution=new_resolution)


# --------------------------------------------------------------------------
# Transform application and canonical ids.


# The knobs that set one field: kind -> (noun in messages, the spec type the
# knob applies to or None for the eval config, field).
_FIELD_KNOBS: dict[TransformKind, tuple[str, type | None, str]] = {
    TransformKind.HIDDEN: ("hidden size", ViTSpec, "hidden_dim"),
    TransformKind.MLP: ("mlp size", ViTSpec, "mlp_dim"),
    TransformKind.DEPTH: ("depth", ViTSpec, "depth"),
    TransformKind.PATCH: ("patch size", ViTSpec, "patch_size"),
    TransformKind.BATCH: ("batch size", None, "batch_size"),
}


def apply_transform(
    spec: ArchSpec, cfg: EvalConfig, t: ScalingTransform
) -> tuple[ArchSpec, EvalConfig]:
    kind = t.kind
    if kind in _FIELD_KNOBS:
        noun, spec_type, name = _FIELD_KNOBS[kind]
        if spec_type is not None and not isinstance(spec, spec_type):
            raise ScalingError(f"{noun} applies to transformer specs")
        value = int(t.parameter)
        if value < 1:
            raise ScalingError(f"{noun} must be >= 1, got {_abridged(value)}")
        if kind is TransformKind.HIDDEN:
            # Keep the head count: round half up to a multiple of it, exactly.
            k = spec.num_heads
            value = max(k, k * ((2 * value + k) // (2 * k)))
        if spec_type is None:
            return spec, cfg._replace(**{name: value})
        return spec._replace(**{name: value}), cfg
    if kind is TransformKind.WIDTH:
        if not isinstance(spec, CnnSpec):
            raise ScalingError("width applies to conv specs")
        return width_scale(spec, t.parameter), cfg
    if kind is TransformKind.GROUP_WIDTH:
        if not isinstance(spec, CnnSpec):
            raise ScalingError("group width applies to conv specs")
        return group_width_scale(spec, int(t.parameter)), cfg
    if kind is TransformKind.RESOLUTION:
        return spec, resolution_scale(cfg, int(t.parameter))
    if kind is TransformKind.DTYPE:
        return spec, cfg._replace(dtype=_dtype_of(t.parameter))
    raise ScalingError(f"unknown transform kind {kind!r}")


class ScaledConfig(NamedTuple):
    """A base spec plus an applied transform chain and its evaluation config."""

    base_name: str
    transforms: tuple[ScalingTransform, ...]
    spec: ArchSpec
    eval: EvalConfig

    @property
    def config_id(self) -> str:
        return config_id_of(self.base_name, self.transforms)


def make_config(
    base_name: str,
    base_spec: ArchSpec,
    base_eval: EvalConfig,
    chain: Iterable[ScalingTransform],
) -> ScaledConfig:
    chain = tuple(chain)
    spec, cfg = base_spec, base_eval
    for t in chain:
        spec, cfg = apply_transform(spec, cfg, t)
    return ScaledConfig(base_name=base_name, transforms=chain, spec=spec, eval=cfg)


def _format_number(v: object) -> str:
    if isinstance(v, bool):
        raise ScalingError("boolean is not a transform parameter")
    if isinstance(v, int):
        try:
            return str(v)
        except ValueError:  # past the interpreter's digit limit
            raise ScalingError(
                f"parameter {_abridged(v)} has too many digits for a config id"
            ) from None
    f = float(v)
    if f == int(f) and abs(f) < 1e15:
        return str(int(f))
    return repr(f)


def _dtype_of(param: object) -> DTypeDesc:
    return param if isinstance(param, DTypeDesc) else dtype_from_name(str(param))


def transform_token(t: ScalingTransform) -> str:
    """The transform's ``key=value`` token in a config id; a dtype is written
    by its canonical (lower-case) name."""
    if t.kind is TransformKind.DTYPE:
        return f"dtype={_dtype_of(t.parameter).name}"
    return f"{t.kind.value}={_format_number(t.parameter)}"


def config_id_of(base_name: str, chain: Iterable[ScalingTransform]) -> str:
    return ";".join([base_name, *map(transform_token, chain)])


# Sweep axis and config id keys.
KIND_BY_KEY = {k.value: k for k in TransformKind}


def _parse_one(token: str) -> ScalingTransform:
    key, sep, raw = token.partition("=")
    if not sep:
        raise ScalingError(f"malformed transform token {token!r}")
    if key not in KIND_BY_KEY:
        raise ScalingError(f"unknown transform key {key!r} in {token!r}")
    kind = KIND_BY_KEY[key]
    if kind is TransformKind.DTYPE:
        return ScalingTransform(kind, dtype_from_name(raw))
    try:
        value = float(raw) if kind is TransformKind.WIDTH else int(raw)
    except ValueError:
        raise ScalingError(f"bad value {raw!r} in {token!r}") from None
    return ScalingTransform(kind, value)


def parse_config_id(
    config_id: str,
    bases: Mapping[str, ArchSpec] | None = None,
    base_eval: EvalConfig | None = None,
) -> ScaledConfig:
    """Rebuild a ScaledConfig from its canonical id.

    ``bases`` maps base names to specs; by default the preset registry is
    used. The evaluation config starts from ``base_eval`` (defaults apply
    when omitted); resolution/batch/dtype tokens then rewrite it.
    """
    parts = config_id.split(";")
    if not parts or not parts[0]:
        raise ScalingError(f"config id {config_id!r} has no base name")
    base_name = parts[0]
    if bases is None:
        from .presets import PRESETS

        if base_name not in PRESETS:
            raise ScalingError(f"unknown base {base_name!r} in config id")
        base_spec = PRESETS[base_name].build()
        if base_eval is None:
            base_eval = PRESETS[base_name].default_eval
    else:
        if base_name not in bases:
            raise ScalingError(f"unknown base {base_name!r} in config id")
        base_spec = bases[base_name]
    chain = tuple(_parse_one(tok) for tok in parts[1:] if tok)
    return make_config(base_name, base_spec, base_eval or EvalConfig(), chain)
