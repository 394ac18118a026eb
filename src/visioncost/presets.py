"""Built-in architecture specs.

Builders return plain specs; nothing here is required to use the rest of
the package. The transformer cards (``vit_small``, ``vit_base``) use the
community-standard hyperparameters for those model sizes; they are
reference configurations for this cost model, not an official card.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from .arch import (
    Activation,
    ArchSpec,
    BatchNorm,
    CnnLayer,
    CnnSpec,
    Conv2d,
    EvalConfig,
    GlobalPool,
    Linear,
    Pool,
    ResidualAdd,
    Resize,
    ViTSpec,
)

_RESNET50_STAGES = ((3, 64, 1), (4, 128, 2), (6, 256, 2), (3, 512, 2))
_BOTTLENECK_EXPANSION = 4


def _bottleneck(
    layers: list[CnnLayer], block_input: int, in_ch: int, width: int, stride: int
) -> int:
    """Append one bottleneck block; returns the index of its output layer."""
    out_ch = width * _BOTTLENECK_EXPANSION
    project = stride != 1 or in_ch != out_ch
    layers.append(Conv2d(in_ch, width, kernel=1))
    layers.append(BatchNorm(width))
    layers.append(Activation())
    layers.append(Conv2d(width, width, kernel=3, stride=stride, padding=1))
    layers.append(BatchNorm(width))
    layers.append(Activation())
    layers.append(Conv2d(width, out_ch, kernel=1))
    layers.append(BatchNorm(out_ch))
    main_end = len(layers) - 1
    if project:
        layers.append(
            Conv2d(in_ch, out_ch, kernel=1, stride=stride, input_layer_index=block_input)
        )
        layers.append(BatchNorm(out_ch))
        layers.append(ResidualAdd(source_layer_index=main_end))
    else:
        layers.append(ResidualAdd(source_layer_index=block_input))
    layers.append(Activation())
    return len(layers) - 1


def _resnet50_layers(num_classes: int, resize_after_stem: int | None) -> tuple[CnnLayer, ...]:
    layers: list[CnnLayer] = [Conv2d(3, 64, kernel=7, stride=2, padding=3)]
    if resize_after_stem is not None:
        layers.append(Resize(resize_after_stem))
    layers.append(BatchNorm(64))
    layers.append(Activation())
    layers.append(Pool("max", kernel=3, stride=2, padding=1))
    prev = len(layers) - 1
    in_ch = 64
    for blocks, width, first_stride in _RESNET50_STAGES:
        for b in range(blocks):
            prev = _bottleneck(layers, prev, in_ch, width, first_stride if b == 0 else 1)
            in_ch = width * _BOTTLENECK_EXPANSION
    layers.append(GlobalPool())
    layers.append(Linear(in_ch, num_classes))
    return tuple(layers)


def resnet50(num_classes: int = 1000) -> CnnSpec:
    """50-layer bottleneck residual classifier (7x7 stem, four stages)."""
    return CnnSpec(
        name="resnet50", input_channels=3, layers=_resnet50_layers(num_classes, None)
    )


def resnet50_fcr(match_input_resolution: int = 112, num_classes: int = 1000) -> CnnSpec:
    """resnet50 with the stem output resized down to the feature-map size a
    ``match_input_resolution`` input would have produced, so everything after
    the stem runs at that lower resolution regardless of the actual input.
    """
    if match_input_resolution < 1:
        raise ValueError("match_input_resolution must be >= 1")
    # Stem is a 7x7 stride-2 pad-3 conv: output side for input s is (s-1)//2 + 1.
    target = (match_input_resolution - 1) // 2 + 1
    return CnnSpec(
        name=f"resnet50_fcr{match_input_resolution}",
        input_channels=3,
        layers=_resnet50_layers(num_classes, target),
    )


def vit_small(tokens_per_side: int = 14, patch_size: int = 16) -> ViTSpec:
    """Small transformer card: 384 wide, 6 heads, 1536 MLP, 12 blocks."""
    return ViTSpec(
        name="vit_small",
        patch_size=patch_size,
        hidden_dim=384,
        num_heads=6,
        mlp_dim=1536,
        depth=12,
        tokens_per_side=tokens_per_side,
    )


def vit_base(tokens_per_side: int = 14, patch_size: int = 16) -> ViTSpec:
    """Base transformer card: 768 wide, 12 heads, 3072 MLP, 12 blocks."""
    return ViTSpec(
        name="vit_base",
        patch_size=patch_size,
        hidden_dim=768,
        num_heads=12,
        mlp_dim=3072,
        depth=12,
        tokens_per_side=tokens_per_side,
    )


def grouped_seg_backbone(
    group_width: int = 16,
    dilations: tuple[int, ...] = (1, 1, 2, 4),
    stages: tuple[tuple[int, int, int], ...] = ((1, 4, 2), (2, 8, 2), (4, 16, 2), (1, 16, 1)),
) -> CnnSpec:
    """Dilated grouped-conv segmentation backbone.

    ``stages`` is a tuple of (num_blocks, groups, first_stride); each stage
    runs at ``groups * group_width`` channels and its grouped 3x3 convs use
    the matching entry of ``dilations``. The stem is a stride-2 3x3 conv at
    ``2 * group_width`` channels, so every channel count in the spec scales
    exactly with the group width.
    """
    if group_width < 1:
        raise ValueError("group_width must be >= 1")
    if len(dilations) != len(stages):
        raise ValueError("need one dilation per stage")
    stem_ch = 2 * group_width
    layers: list[CnnLayer] = [
        Conv2d(3, stem_ch, kernel=3, stride=2, padding=1),
        BatchNorm(stem_ch),
        Activation(),
    ]
    prev = len(layers) - 1
    in_ch = stem_ch
    for (blocks, groups, first_stride), dilation in zip(stages, dilations):
        ch = groups * group_width
        for b in range(blocks):
            stride = first_stride if b == 0 else 1
            project = stride != 1 or in_ch != ch
            layers.append(Conv2d(in_ch, ch, kernel=1))
            layers.append(BatchNorm(ch))
            layers.append(Activation())
            layers.append(
                Conv2d(
                    ch,
                    ch,
                    kernel=3,
                    stride=stride,
                    padding=dilation,
                    groups=groups,
                    dilation=dilation,
                )
            )
            layers.append(BatchNorm(ch))
            layers.append(Activation())
            layers.append(Conv2d(ch, ch, kernel=1))
            layers.append(BatchNorm(ch))
            main_end = len(layers) - 1
            if project:
                layers.append(
                    Conv2d(in_ch, ch, kernel=1, stride=stride, input_layer_index=prev)
                )
                layers.append(BatchNorm(ch))
                layers.append(ResidualAdd(source_layer_index=main_end))
            else:
                layers.append(ResidualAdd(source_layer_index=prev))
            layers.append(Activation())
            prev = len(layers) - 1
            in_ch = ch
    return CnnSpec(
        name=f"seg_backbone_gw{group_width}", input_channels=3, layers=tuple(layers)
    )


@dataclass(frozen=True)
class PresetEntry:
    name: str
    build: Callable[[], ArchSpec]
    default_eval: EvalConfig
    summary: str


PRESETS: dict[str, PresetEntry] = {
    "resnet50": PresetEntry(
        "resnet50",
        resnet50,
        EvalConfig(input_resolution=224),
        "50-layer bottleneck residual classifier",
    ),
    "resnet50_fcr112": PresetEntry(
        "resnet50_fcr112",
        lambda: resnet50_fcr(112),
        EvalConfig(input_resolution=224),
        "resnet50 with stem output resized to the 112-input feature size",
    ),
    "vit_small": PresetEntry(
        "vit_small",
        vit_small,
        EvalConfig(input_resolution=14),
        "384-wide 12-block transformer, 16px patches",
    ),
    "vit_base": PresetEntry(
        "vit_base",
        vit_base,
        EvalConfig(input_resolution=14),
        "768-wide 12-block transformer, 16px patches",
    ),
    "seg_backbone_gw16": PresetEntry(
        "seg_backbone_gw16",
        grouped_seg_backbone,
        EvalConfig(input_resolution=768),
        "dilated grouped-conv segmentation backbone, group width 16",
    ),
}
