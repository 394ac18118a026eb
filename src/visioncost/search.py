"""Sweep enumeration, Pareto filtering, budget matching and selection.

A ``SweepSpace`` is a base configuration plus value axes, one per transform
kind; enumeration walks the cross product in deterministic order (first
axis slowest), applying each transform once per prefix of the axes,
costing each combination once and skipping -- and
recording -- those the transforms or the cost walk reject. Evaluated
configurations become ``FrontierPoint`` rows that flow into the Pareto
filter over (FLOPs, total memory), the FLOPs budget matcher, and the
selection of the cheapest configuration whose accuracy annotation, carried
on the point itself, stays within a drop of the baseline's.
"""

from __future__ import annotations

import csv
import io
import logging
import math
from collections import Counter
from fractions import Fraction
from itertools import groupby, product
from pathlib import Path
from typing import Callable, Iterator, Mapping, NamedTuple, Sequence

from .arch import ArchSpec, EvalConfig, ViTSpec
from .cost import (
    CostReport,
    CountTooLarge,
    InfeasibleResolution,
    ShapeMismatch,
    cost_report,
)
from .scaling import (
    ScaledConfig,
    ScalingError,
    ScalingTransform,
    TransformKind,
    apply_transform,
    make_config,
)

logger = logging.getLogger(__name__)

ENUMERATION_CAP = 1_000_000


class SpaceTooLarge(ValueError):
    pass


class SweepAxis(NamedTuple):
    kind: TransformKind
    values: tuple


class SweepSpace(NamedTuple):
    base_name: str
    base_spec: ArchSpec
    base_eval: EvalConfig
    axes: tuple[SweepAxis, ...]
    cap: int = ENUMERATION_CAP

    @property
    def size(self) -> int:
        n = 1
        for axis in self.axes:
            n *= len(axis.values)
        return n


class SkippedConfig(NamedTuple):
    values: tuple
    reason: str


# Returned only by enumerate_space, which perfbench/spans.py patches; ROADMAP item 2 deletes both.
class EnumeratedSweep(NamedTuple):
    configs: tuple[ScaledConfig, ...]
    skipped: tuple[SkippedConfig, ...]


def _cut(text: str) -> str:
    """``text``, or its first 199 characters and an ellipsis when longer
    than 200: a skip line stays short however large an axis value is."""
    return text if len(text) <= 200 else text[:199] + "\u2026"


def evaluate_space(
    space: SweepSpace, skipped: list[SkippedConfig]
) -> Iterator[tuple[ScaledConfig, CostReport]]:
    """Build and cost each combination of the axes, in order (first axis
    slowest), yielding every config with its one cost report.

    The product is walked depth first: axis k's transform is applied once to
    the spec and eval that each prefix of the first k - 1 axes produced, so
    a transform runs once per prefix, not once per combination, and only
    the leaves are costed. The configs equal ``make_config`` of each
    combination's chain.

    A combination that a transform or the cost walk rejects (a CNN
    resolution too small for a window, one a flattening classifier does
    not fit, or a total too long to write) is appended to ``skipped`` and
    logged once, its values and reason each cut to 200 characters; a
    transform that rejects a prefix skips every combination under it, in
    product order.
    SpaceTooLarge is raised here, before anything is costed.
    """
    if space.size > space.cap:
        raise SpaceTooLarge(
            f"sweep space has {space.size} combinations, cap is {space.cap}"
        )
    axes = space.axes

    def skip(combo: tuple, exc: Exception) -> None:
        reason = str(exc)
        skipped.append(SkippedConfig(values=combo, reason=reason))
        logger.warning("skipping %s: %s", _cut(repr(combo)), _cut(reason))

    def walk(
        level: int, spec: ArchSpec, cfg: EvalConfig, combo: tuple, chain: tuple
    ) -> Iterator[tuple[ScaledConfig, CostReport]]:
        if level == len(axes):
            try:
                report = cost_report(spec, cfg)
            except (InfeasibleResolution, ShapeMismatch, CountTooLarge) as exc:
                skip(combo, exc)
                return
            yield ScaledConfig(space.base_name, chain, spec, cfg), report
            return
        kind = axes[level].kind
        for value in axes[level].values:
            transform = ScalingTransform(kind, value)
            try:
                next_spec, next_cfg = apply_transform(spec, cfg, transform)
            except ScalingError as exc:
                for rest in product(*(axis.values for axis in axes[level + 1 :])):
                    skip(combo + (value,) + rest, exc)
                continue
            yield from walk(
                level + 1, next_spec, next_cfg, combo + (value,), chain + (transform,)
            )

    return walk(0, space.base_spec, space.base_eval, (), ())


# No src/ caller; perfbench/spans.py patches it, so --trace 1 needs it. ROADMAP item 2 deletes it.
def enumerate_space(space: SweepSpace) -> EnumeratedSweep:
    """Every config of the space that costs, in order; rejected combos are
    recorded."""
    skipped: list[SkippedConfig] = []
    configs = tuple(config for config, _ in evaluate_space(space, skipped))
    return EnumeratedSweep(configs=configs, skipped=tuple(skipped))


# --------------------------------------------------------------------------
# Frontier points and the Pareto filter.


class FrontierPoint(NamedTuple):
    config_id: str
    flops: int
    peak_activation_bytes: int
    model_bytes: int
    total_memory_bytes: int
    annotations: Mapping[str, float]


def point_from_report(
    config_id: str, report: CostReport, annotations: Mapping[str, float] | None = None
) -> FrontierPoint:
    return FrontierPoint(
        config_id=config_id,
        flops=report.flops,
        peak_activation_bytes=report.peak_activation_bytes,
        model_bytes=report.model_bytes,
        total_memory_bytes=report.total_memory_bytes,
        annotations=dict(annotations or {}),
    )


def pareto_front(points: Sequence[FrontierPoint]) -> list[FrontierPoint]:
    """Non-dominated subset under (flops, total_memory_bytes), both minimized.

    Dominance is non-strict on both objectives with at least one strict
    improvement; points with identical objective pairs are all kept.
    Duplicate config ids collapse to their first occurrence, the result is
    ordered by config id, and the filter is idempotent.

    Both objectives are exact ints, so the filter is exact at any size: a
    sort and a sweep, O(n log n) (Kung, Luccio & Preparata, J. ACM 1975).
    Within a group of equal FLOPs the leading members hold the group's
    least memory; they survive only when it is strictly below every
    cheaper group's.
    """
    if not points:
        raise ValueError("pareto_front needs at least one point")
    seen: dict[str, FrontierPoint] = {}
    for p in points:
        seen.setdefault(p.config_id, p)
    ordered = sorted(seen.values(), key=lambda p: (p.flops, p.total_memory_bytes))
    kept: list[FrontierPoint] = []
    best = None
    for _, group in groupby(ordered, key=lambda p: p.flops):
        members = list(group)
        least = members[0].total_memory_bytes
        if best is None or least < best:
            best = least
            kept.extend(p for p in members if p.total_memory_bytes == least)
    return sorted(kept, key=lambda p: p.config_id)


# --------------------------------------------------------------------------
# Accuracy annotations (never predicted -- always supplied by the caller),
# and the frontier.csv that carries them along with the costs.


ANNOTATION_HEADER = ("config_id", "metric", "value")


def _ascii_float(text: str) -> float:
    """``float(text)`` without the non-ASCII digits and ``_`` separators that
    ``float`` also accepts."""
    if not text.isascii() or "_" in text:
        raise ValueError(f"{text!r} is not a number")
    return float(text)


class AnnotationTable:
    """(config id, metric) -> value table, typically loaded from CSV."""

    def __init__(self, values: dict[tuple[str, str], float] | None = None) -> None:
        self.values = {} if values is None else values

    @classmethod
    def from_csv(cls, path: str | Path) -> "AnnotationTable":
        text = Path(path).read_text(encoding="utf-8")
        if not text.strip():  # the CLI warns of an empty table
            return cls()
        # Not splitlines(): a quoted line break stays inside its cell.
        reader = csv.reader(io.StringIO(text))
        header = next(reader)
        if tuple(h.strip() for h in header) != ANNOTATION_HEADER:
            raise ValueError(
                f"annotation header must be {','.join(ANNOTATION_HEADER)}, "
                f"got {','.join(header)}"
            )
        table = cls()
        first_line: dict[tuple[str, str], int] = {}
        last = reader.line_num
        for row in reader:
            lineno, last = last + 1, reader.line_num  # the row's first line
            if not row:
                continue
            if len(row) != 3:
                raise ValueError(f"line {lineno}: expected 3 columns, got {len(row)}")
            cid, metric, raw = row[0].strip(), row[1].strip(), row[2].strip()
            # The metric heads a frontier.csv column: one header line, and no
            # second column of a cost's name.
            if not metric or metric in FRONTIER_COLUMNS or "\n" in metric:
                raise ValueError(
                    f"line {lineno}: metric {metric!r} is empty, a cost column "
                    "or holds a line break"
                )
            key = (cid, metric)
            if key in first_line:
                raise ValueError(
                    f"duplicate annotation for ({cid}, {metric}) on line "
                    f"{first_line[key]} and line {lineno}"
                )
            try:
                value = _ascii_float(raw)
            except ValueError:
                raise ValueError(f"line {lineno}: value {raw!r} is not a number") from None
            if not math.isfinite(value):
                raise ValueError(f"line {lineno}: value {raw!r} is not finite")
            first_line[key] = lineno
            table.values[key] = value
        return table

    # No src/ caller; perfbench/spans.py patches it, so --trace 1 needs it. ROADMAP item 2 deletes it.
    def for_config(self, config_id: str) -> dict[str, float]:
        return dict(
            sorted((m, value) for (cid, m), value in self.values.items() if cid == config_id)
        )

    def by_config(self) -> dict[str, dict[str, float]]:
        """Every config's annotations, each ordered by metric, in one pass."""
        grouped: dict[str, dict[str, float]] = {}
        for (cid, metric), value in sorted(self.values.items()):
            grouped.setdefault(cid, {})[metric] = value
        return grouped

    def metrics(self) -> list[str]:
        return sorted({metric for _, metric in self.values})

    def __len__(self) -> int:
        return len(self.values)


FRONTIER_COLUMNS = (
    "config_id",
    "flops",
    "peak_activation_bytes",
    "model_bytes",
    "total_memory_bytes",
)


def read_frontier_csv(path: str | Path) -> tuple[list[FrontierPoint], list[str]]:
    """Re-ingest a frontier.csv; returns (points, metric column names)."""
    text = Path(path).read_text(encoding="utf-8")
    # Not splitlines(): a quoted line break stays inside its cell.
    reader = csv.reader(io.StringIO(text))
    header = next(reader, [])
    if tuple(header[: len(FRONTIER_COLUMNS)]) != FRONTIER_COLUMNS:
        raise ValueError(
            f"line 1: frontier header must start with {','.join(FRONTIER_COLUMNS)}"
        )
    repeated = [name for name, count in Counter(header).items() if count > 1]
    if repeated:
        raise ValueError(f"line 1: duplicate column {repeated[0]!r}")
    metrics = header[len(FRONTIER_COLUMNS) :]
    width = len(header)
    points: list[FrontierPoint] = []
    first_line: dict[str, int] = {}
    last = reader.line_num
    # One plain pass per row, checks in a fixed order: the column count, the
    # id, each count cell, each metric cell, the counts' size, finiteness.
    for row in reader:
        lineno, last = last + 1, reader.line_num  # the row's first line
        if not row:
            continue
        if len(row) != width:
            raise ValueError(f"line {lineno}: expected {width} columns, got {len(row)}")
        config_id = row[0]
        if config_id in first_line:
            raise ValueError(
                f"duplicate config id {config_id!r} on line "
                f"{first_line[config_id]} and line {lineno}"
            )
        first_line[config_id] = lineno
        # int() would also take a sign, spaces, "_" and non-ASCII digits.
        for cell in row[1:5]:
            if not (cell.isascii() and cell.isdigit()):
                raise ValueError(f"line {lineno}: cost {cell!r} is not a decimal count")
        annotations = {}
        try:
            for metric, cell in zip(metrics, row[5:]):
                if cell:
                    annotations[metric] = _ascii_float(cell)
            # int() raises past the interpreter's digit limit.
            points.append(
                FrontierPoint(
                    config_id, int(row[1]), int(row[2]), int(row[3]), int(row[4]), annotations
                )
            )
        except ValueError as exc:
            raise ValueError(f"line {lineno}: {exc}") from None
        for value in annotations.values():
            if not math.isfinite(value):
                raise ValueError(f"line {lineno}: metric values must be finite")
    return points, metrics


# --------------------------------------------------------------------------
# FLOPs budget matching over a monotone knob.


class TargetUnreachable(ValueError):
    def __init__(self, target: int, attainable: tuple[int, int]):
        lo, hi = attainable
        super().__init__(
            f"target {target} FLOPs is outside the attainable range [{lo}, {hi}]"
        )
        self.target = target
        self.attainable = attainable


class MatchResult(NamedTuple):
    config: ScaledConfig
    flops: int
    target: int
    deviation: int
    relaxed_value: float
    within_tol: bool | None
    bracket: tuple[ScaledConfig, ScaledConfig] | None


MATCH_RANGES: dict[TransformKind, tuple[int, int]] = {
    TransformKind.DEPTH: (1, 256),
    TransformKind.HIDDEN: (1, 8192),
    TransformKind.MLP: (1, 32768),
    TransformKind.RESOLUTION: (1, 4096),
}

MAX_BISECTION_ITERATIONS = 64


def _knob_step(spec: ArchSpec, knob: TransformKind) -> int:
    if knob is TransformKind.HIDDEN and isinstance(spec, ViTSpec):
        return spec.num_heads  # keep the head count dividing the hidden size
    return 1


def match_flops_budget(
    base_spec: ArchSpec,
    base_eval: EvalConfig,
    knob: TransformKind,
    target_flops: int,
    tol: float | None = None,
    value_range: tuple[int, int] | None = None,
    base_name: str = "base",
) -> MatchResult:
    """Find the discrete knob value whose FLOPs are closest to the target.

    The knob must be one FLOPs-monotone transform kind (depth, hidden, mlp,
    resolution). Each bisection over the discrete range takes at most 64
    steps: one lifts a CNN resolution range to its first feasible value,
    the others find the target. Ties between equally-close values resolve
    to the smaller knob value.
    ``tol`` is relative, read as the shortest decimal that round-trips it
    (0.3 is 3/10); when given and missed, the bracketing pair around the
    target is attached. ``relaxed_value`` is the interpolated continuous
    knob value that would hit the target exactly.
    """
    if knob not in MATCH_RANGES:
        raise ValueError(f"knob {knob.value!r} is not supported for budget matching")
    if target_flops < 1:
        raise ValueError(f"target FLOPs must be >= 1, got {target_flops}")
    lo, hi = value_range if value_range is not None else MATCH_RANGES[knob]
    step = _knob_step(base_spec, knob)
    lo = max(lo, step)
    lo = ((lo + step - 1) // step) * step
    hi = (hi // step) * step
    if hi < lo:
        raise ValueError(f"empty knob range for {knob.value}")
    # Each bisection step halves the steps left: 64 settle at most 2**64.
    if hi - lo > step << MAX_BISECTION_ITERATIONS:
        raise ValueError(
            f"knob range [{lo}, {hi}] is too wide to bisect in "
            f"{MAX_BISECTION_ITERATIONS} steps"
        )

    def build(value: int) -> ScaledConfig:
        return make_config(
            base_name, base_spec, base_eval, (ScalingTransform(knob, value),)
        )

    cache: dict[int, tuple[ScaledConfig, int]] = {}

    def flops_at(value: int) -> tuple[ScaledConfig, int]:
        if value not in cache:
            config = build(value)
            cache[value] = (config, cost_report(config.spec, config.eval).flops)
        return cache[value]

    def first_meeting(meets: Callable[[int], bool], lo_v: int, hi_v: int) -> int:
        """Smallest value in [lo_v, hi_v] that ``meets``, which ``hi_v``
        does; every value above one that meets it must meet it too."""
        if meets(lo_v):
            return lo_v
        for _ in range(MAX_BISECTION_ITERATIONS):
            if hi_v - lo_v <= step:
                break
            mid = lo_v + ((hi_v - lo_v) // (2 * step)) * step
            if meets(mid):
                hi_v = mid
            else:
                lo_v = mid
        return hi_v

    def feasible(value: int) -> bool:
        try:
            flops_at(value)
        except InfeasibleResolution:
            return False
        return True

    # For CNN resolution knobs, small values can be infeasible. No window's
    # output shrinks as its input grows, so the feasible values run up to
    # hi: lift the lower bound to the first of them.
    if not feasible(hi):
        raise ValueError(f"no feasible knob value in [{lo}, {hi}]")
    lo = first_meeting(feasible, lo, hi)

    _, f_lo = flops_at(lo)
    _, f_hi = flops_at(hi)
    if target_flops < f_lo or target_flops > f_hi:
        raise TargetUnreachable(target_flops, (f_lo, f_hi))

    def first_reaching(flops: int, hi_v: int) -> int:
        """Smallest value in [lo, hi_v] whose FLOPs reach ``flops``, which
        those of ``hi_v`` do (FLOPs are monotone increasing)."""
        return first_meeting(lambda v: flops_at(v)[1] >= flops, lo, hi_v)

    upper = first_reaching(target_flops, hi)
    lower = max(lo, upper - step)

    candidates = sorted({lower, upper})
    best_value = min(
        candidates, key=lambda v: (abs(flops_at(v)[1] - target_flops), v)
    )
    best_config, best_flops = flops_at(best_value)
    # CNN FLOPs can stay flat over neighbouring resolutions, so a value below
    # the target may share its FLOPs with smaller ones; ties go to the
    # smallest. ViT FLOPs rise strictly, so one probe settles it there.
    if (
        best_flops < target_flops
        and best_value > lo
        and flops_at(best_value - step)[1] == best_flops
    ):
        best_value = first_reaching(best_flops, best_value - step)
        best_config = flops_at(best_value)[0]
    deviation = abs(best_flops - target_flops)

    config_lower, f_lower = flops_at(lower)
    config_upper, f_upper = flops_at(upper)
    if f_upper != f_lower:
        relaxed = lower + (target_flops - f_lower) * (upper - lower) / (f_upper - f_lower)
    else:
        relaxed = float(best_value)

    within_tol: bool | None = None
    bracket: tuple[ScaledConfig, ScaledConfig] | None = None
    if tol is not None:
        within_tol = deviation <= Fraction(str(tol)) * target_flops  # exact past 2**53
        if not within_tol:
            bracket = (config_lower, config_upper)
    return MatchResult(
        config=best_config,
        flops=best_flops,
        target=target_flops,
        deviation=deviation,
        relaxed_value=relaxed,
        within_tol=within_tol,
        bracket=bracket,
    )


# --------------------------------------------------------------------------
# Cheapest configuration within an accuracy-drop budget.


class NoFeasibleCandidate(ValueError):
    pass


def best_compressed(
    points: Sequence[FrontierPoint],
    metric: str,
    max_drop: float,
    objective: str,
    baseline_id: str,
) -> FrontierPoint:
    """Cheapest point by the ``objective`` cost column whose metric is within
    ``max_drop`` of the baseline's.

    Points without an annotation for the metric are excluded (with a
    warning). Ties on the objective resolve by config id. A ``baseline_id``
    that names no point raises ValueError; a baseline without the metric,
    NoFeasibleCandidate.
    """
    baseline = next((p for p in points if p.config_id == baseline_id), None)
    if baseline is None:
        raise ValueError(f"baseline {baseline_id!r} is not a config of the frontier")
    baseline_value = baseline.annotations.get(metric)
    if baseline_value is None:
        raise NoFeasibleCandidate(
            f"baseline {baseline_id!r} has no annotation for metric {metric!r}"
        )
    floor_value = baseline_value - max_drop
    feasible: list[FrontierPoint] = []
    for p in points:
        value = p.annotations.get(metric)
        if value is None:
            logger.warning(
                "config %s has no %r annotation; excluded from selection",
                p.config_id,
                metric,
            )
            continue
        if value >= floor_value:
            feasible.append(p)
    if not feasible:
        raise NoFeasibleCandidate(
            f"no candidate keeps {metric} within {max_drop} of baseline "
            f"{baseline_id!r} ({baseline_value})"
        )
    return min(feasible, key=lambda p: (getattr(p, objective), p.config_id))
