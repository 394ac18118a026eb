"""Command-line interface.

Subcommands: ``cost`` (report one spec), ``sweep`` (enumerate a space and
write frontier/pareto/plot files), ``match`` (FLOPs budget matching),
``best`` (cheapest config within an accuracy-drop budget), ``presets``
(built-in specs). Exit codes: 0 success, 1 I/O failure, 2 validation or
parse failure, 3 infeasible request, 64 usage error.

A command raises a ``CliError`` where it finds a failure; an input file is
read inside ``_reading``, which turns any failure to read or decode it into
one. ``main`` reports each error once: one JSON line on stderr.

Outputs are byte-deterministic for identical inputs (the run manifest's
timestamp aside). ``sweep`` writes all of its output into one staging
directory inside ``--out`` and commits it by renames once everything is
written, ``manifest.json`` last; a run that fails before the renames leaves
the previous output whole.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import functools
import hashlib
import json
import logging
import math
import os
import re
import shutil
import sys
from datetime import datetime, timezone
from pathlib import Path
from typing import Any, Iterable, Iterator, NamedTuple, Sequence

from . import __version__
from .arch import (
    ArchSpec,
    DTYPES,
    EvalConfig,
    FlopConvention,
    _record_from_dict,
    dtype_from_name,
    load_spec,
    validate_spec,
)
from .cost import (
    CountTooLarge,
    InfeasibleResolution,
    ShapeMismatch,
    cost_report,
    report_to_csv,
    report_to_json,
)
from .presets import PRESETS
from .scaling import ScalingTransform, TransformKind, transform_token
from .search import (
    ENUMERATION_CAP,
    FRONTIER_COLUMNS,
    MATCH_RANGES,
    AnnotationTable,
    FrontierPoint,
    NoFeasibleCandidate,
    SkippedConfig,
    SpaceTooLarge,
    SweepAxis,
    SweepSpace,
    TargetUnreachable,
    _cut,
    best_compressed,
    enumerate_space,
    match_flops_budget,
    pareto_front,
    point_from_report,
    read_frontier_csv,
)

EXIT_OK = 0
EXIT_IO = 1
EXIT_VALIDATION = 2
EXIT_INFEASIBLE = 3
EXIT_USAGE = 64

logger = logging.getLogger(__name__)


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # type: ignore[override]
        raise UsageError(message)


class CliError(Exception):
    """A failure that ``main`` reports as one JSON line and exit ``code``."""

    def __init__(self, code: int, kind: str, message: str, **extra: Any):
        super().__init__(message)
        self.code = code
        self.payload = {"error": kind, "message": message, **extra}


@contextlib.contextmanager
def _reading(kind: str, path: str | Path) -> Iterator[None]:
    """Turn a failure to read or decode input file ``path`` into a CliError:
    exit 1 if it cannot be read, else exit 2 with error ``kind``."""
    try:
        yield
    except OSError as exc:  # the file that failed: a space file's spec_file too
        raise CliError(EXIT_IO, "io", f"cannot read {exc.filename or path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise CliError(
            EXIT_VALIDATION, "parse", str(exc), line=exc.lineno, column=exc.colno, path=str(path)
        ) from None
    except (ValueError, csv.Error, RecursionError) as exc:
        raise CliError(EXIT_VALIDATION, kind, str(exc), path=str(path)) from None


def _load_valid_spec(path: str) -> ArchSpec:
    with _reading("spec", path):
        spec = load_spec(path)
    violations = validate_spec(spec)
    if violations:
        raise CliError(
            EXIT_VALIDATION,
            "validation",
            f"{len(violations)} violation(s) in {path}",
            violations=[
                {"layer_index": v.layer_index, "message": v.message} for v in violations
            ],
        )
    return spec


def _add_eval_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--resolution",
        type=int,
        default=None,
        help="pixels per side (CNN) or tokens per side (ViT); spec default when omitted",
    )
    parser.add_argument("--batch", type=int, default=1, help="batch size (default 1)")
    parser.add_argument(
        "--dtype",
        choices=sorted(DTYPES),
        default="fp32",
        help="storage format (default fp32)",
    )
    parser.add_argument(
        "--convention",
        choices=[c.value for c in FlopConvention],
        default=FlopConvention.CLOSED_FORM.value,
        help="FLOP counting convention for transformer specs (default closed_form)",
    )


def _finite_non_negative(text: str) -> float:
    """argparse type of ``--tol`` and ``--max-drop``."""
    value = float(text)  # argparse reports a ValueError as a usage error
    if not 0 <= value < math.inf:  # NaN fails both comparisons
        raise argparse.ArgumentTypeError(f"must be a finite number >= 0, got {text!r}")
    return value


def _eval_from_args(args: argparse.Namespace) -> EvalConfig:
    if args.batch < 1:
        raise UsageError(f"--batch must be >= 1, got {args.batch}")
    if args.resolution is not None and args.resolution < 1:
        raise UsageError(f"--resolution must be >= 1, got {args.resolution}")
    return EvalConfig(
        batch_size=args.batch,
        dtype=dtype_from_name(args.dtype),
        input_resolution=args.resolution,
        flop_convention=FlopConvention(args.convention),
    )


# --------------------------------------------------------------------------
# cost


def _cmd_cost(args: argparse.Namespace) -> int:
    spec = _load_valid_spec(args.spec)
    report = cost_report(spec, _eval_from_args(args))
    if args.format == "csv":
        sys.stdout.write(report_to_csv(report))
    else:
        sys.stdout.write(report_to_json(report) + "\n")
    return EXIT_OK


# --------------------------------------------------------------------------
# sweep


class _SpaceFile(NamedTuple):
    """A space file's top level as loaded: each key it holds has its
    field's type, and one it leaves out is None (``cap``: the default cap)."""

    axes: tuple
    base: str = None  # type: ignore[assignment]
    spec_file: str = None  # type: ignore[assignment]
    eval: dict = None  # type: ignore[assignment]
    cap: int = ENUMERATION_CAP


def _check_axis_values(i: int, kind: TransformKind, values: tuple) -> None:
    """Width values are numbers finite as floats, dtype values known dtype
    names and all other values ints; a bool is none of these."""
    for value in values:
        if kind is TransformKind.DTYPE:
            ok = isinstance(value, str) and value.lower() in DTYPES
        elif kind is TransformKind.WIDTH:  # NaN fails the comparison
            ok = isinstance(value, (int, float)) and abs(value) <= sys.float_info.max
        else:
            ok = isinstance(value, int)
        if isinstance(value, bool) or not ok:
            raise ValueError(f"axis {i}: {value!r} is not a valid {kind.value} value")


def _load_space(path: str) -> tuple[SweepSpace, Path | None]:
    """The space in JSON file ``path``, and the path of the spec file it
    names, if any. Every key, and each axis's values, is checked before
    the base is read. An OSError names the file it could not read: the
    space file or the spec file; a ValueError about the spec file starts
    ``spec <its path>:``."""
    data = json.loads(Path(path).read_text(encoding="utf-8"))
    space = _record_from_dict(_SpaceFile, data, "", "space file")
    if (space.base is None) == (space.spec_file is None):
        raise ValueError("space file needs exactly one of 'base' or 'spec_file'")
    if space.cap < 1:
        raise ValueError(f"space file: cap must be >= 1, got {space.cap}")
    if space.eval is not None:  # its keys override the base's, below
        _record_from_dict(EvalConfig, space.eval, "eval: ", "eval")
    axes = []
    for i, raw in enumerate(space.axes):
        axis = _record_from_dict(SweepAxis, raw, f"axis {i}: ", "axis")
        _check_axis_values(i, axis.kind, axis.values)
        # Two values with one config-id token would write one config twice.
        tokens: set[str] = set()
        for value in axis.values:
            token = transform_token(ScalingTransform(axis.kind, value))
            if token in tokens:
                raise ValueError(
                    f"axis {i}: {axis.kind.value} value {value!r} "
                    f"repeats an earlier value ({token})"
                )
            tokens.add(token)
        axes.append(axis)
    spec_path = None
    if space.base is not None:
        if space.base not in PRESETS:
            known = ", ".join(sorted(PRESETS))
            raise ValueError(f"unknown preset {space.base!r} (known: {known})")
        preset = PRESETS[space.base]
        base_name, base_spec, base_eval = space.base, preset.build(), preset.default_eval
    else:
        spec_path = Path(path).parent / space.spec_file
        try:
            base_spec = load_spec(spec_path)
        # A JSONDecodeError too: its position is the spec's, not the space's.
        except (ValueError, RecursionError) as exc:
            raise ValueError(f"spec {spec_path}: {exc}") from None
        violations = validate_spec(base_spec)
        if violations:
            raise ValueError(
                f"spec {spec_path} has violations: "
                + "; ".join(str(v) for v in violations)
            )
        base_name, base_eval = base_spec.name, EvalConfig()
    base_eval = base_eval._replace(**(space.eval or {}))
    return SweepSpace(base_name, base_spec, base_eval, tuple(axes), space.cap), spec_path


# The staging directory of a _cmd_sweep run, inside --out.
_STAGING_NAME = re.compile(r"\.sweep-[0-9a-f]{12}")


def _remove_stale_staging(out_dir: Path) -> None:
    """Remove staging directories that a run killed before its commit left."""
    with os.scandir(out_dir) as entries:
        stale = [
            entry.path
            for entry in entries
            if _STAGING_NAME.fullmatch(entry.name) and entry.is_dir(follow_symlinks=False)
        ]
    for path in stale:
        shutil.rmtree(path)
        logger.warning("removed stale staging directory %s", path)


def _write_table(
    path: Path, header: Sequence[str], rows: Iterable[Sequence[Any]], delimiter: str = ","
) -> None:
    with path.open("w", encoding="utf-8", newline="") as f:
        writer = csv.writer(f, delimiter=delimiter, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def _frontier_rows(
    points: Iterable[FrontierPoint], metrics: Sequence[str]
) -> Iterator[list[Any]]:
    """Each point's FRONTIER_COLUMNS, then its value of each metric (blank
    when it has none)."""
    for p in points:
        values = p.annotations
        yield [*p[:-1], *(repr(values[m]) if m in values else "" for m in metrics)]


def _safe_filename(config_id: str) -> str:
    """A readable prefix of the id, cut to fit a file name; the hash tells
    ids apart."""
    digest = hashlib.sha256(config_id.encode("utf-8")).hexdigest()[:8]
    safe = re.sub(r"[^A-Za-z0-9._-]+", "_", config_id).strip("_")[:100]
    return f"{safe}-{digest}.json"


def _eval_to_dict(cfg: EvalConfig) -> dict[str, Any]:
    return {
        "batch_size": cfg.batch_size,
        "dtype": cfg.dtype.name,
        "input_resolution": cfg.input_resolution,
        "flop_convention": cfg.flop_convention.value,
    }


def _manifest(
    command: Sequence[str], inputs: Sequence[Path], cfg: EvalConfig
) -> dict[str, Any]:
    return {
        "tool": "visioncost",
        "version": __version__,
        "command": list(command),
        "inputs": {str(p): hashlib.sha256(p.read_bytes()).hexdigest() for p in inputs},
        "eval": _eval_to_dict(cfg),
        "generated_at": datetime.now(timezone.utc).isoformat(),
    }


def _cmd_sweep(args: argparse.Namespace, argv: Sequence[str]) -> int:
    with _reading("space", args.space):
        space, spec_path = _load_space(args.space)

    table = AnnotationTable()
    input_files = [Path(args.space)]
    if spec_path is not None:
        input_files.append(spec_path)
    if args.annotations:
        with _reading("annotations", args.annotations):
            table = AnnotationTable.from_csv(args.annotations)
        input_files.append(Path(args.annotations))
        if not len(table):
            logger.warning("annotation table %s is empty", args.annotations)

    skipped: list[SkippedConfig] = []
    try:
        evaluated = enumerate_space(space, skipped)
    except SpaceTooLarge as exc:
        raise CliError(EXIT_VALIDATION, "space_too_large", str(exc)) from None

    # Each config is costed once and its report written at once; only its
    # frontier point stays in memory. Every output is written into a staging
    # directory, made once a config is costed (a run that rejects every
    # combination leaves an earlier run's output as it was), and committed
    # by renames after the last write: a run that fails before them leaves
    # the previous output whole.
    out_dir = Path(args.out)
    staging: Path | None = None
    points: list[FrontierPoint] = []
    try:
        for config, report in evaluated:
            if staging is None:
                # Not mkdtemp: reports/ keeps the umask's mode, not 0o700.
                staging = out_dir / f".sweep-{os.urandom(6).hex()}"
                (staging / "reports").mkdir(parents=True)
            cid = config.config_id
            point = point_from_report(cid, report, table.for_config(cid))
            points.append(point)
            head = json.dumps(
                {"config_id": cid, "annotations": point.annotations}, separators=(",", ":")
            )
            text = f'{head[:-1]},"report":{report_to_json(report, indent=None)}}}\n'
            (staging / "reports" / _safe_filename(cid)).write_text(text, encoding="utf-8")
        if staging is None:
            raise CliError(
                EXIT_INFEASIBLE, "infeasible", "every combination in the space was rejected"
            )
        swept = {p.config_id for p in points}
        unmatched = [cid for cid, _ in table.values if cid not in swept]
        if unmatched:
            ids = list(dict.fromkeys(unmatched))
            logger.warning(
                "%d annotation(s) name no config of the sweep; ignored: %s%s",
                len(unmatched),
                ", ".join(map(_cut, ids[:5])),
                ", ..." if len(ids) > 5 else "",
            )

        metrics = table.metrics()
        pareto = pareto_front(points)
        header = list(FRONTIER_COLUMNS) + metrics
        _write_table(staging / "frontier.csv", header, _frontier_rows(points, metrics))
        _write_table(staging / "pareto.csv", header, _frontier_rows(pareto, metrics))
        # A plot series is labelled by the config-id tokens of every axis but
        # the last (a base name may hold ";", a token never does), or, with
        # one axis, by its kind.
        n, kind = len(space.axes), space.axes[0].kind.value
        plot_rows = ([";".join(p.config_id.rsplit(";", n)[1:-1]) or kind, *p[:-1]] for p in points)
        _write_table(staging / "plot.tsv", ["series", *FRONTIER_COLUMNS], plot_rows, delimiter="\t")
        manifest = _manifest(argv, input_files, space.base_eval)
        manifest.update(
            configs=len(points),
            skipped=len(skipped),
            annotations_matched=len(table) - len(unmatched),
            annotations_unmatched=len(unmatched),
        )
        manifest_text = json.dumps(manifest, indent=2) + "\n"
        (staging / "manifest.json").write_text(manifest_text, encoding="utf-8")

        # POSIX cannot rename onto a non-empty directory: the old reports/
        # moves into the staging directory and goes with it.
        if (out_dir / "reports").is_dir():
            (out_dir / "reports").rename(staging / "reports.old")
        # The manifest last: once it is in place, so is what it describes.
        for name in ("reports", "frontier.csv", "pareto.csv", "plot.tsv", "manifest.json"):
            os.replace(staging / name, out_dir / name)
        shutil.rmtree(staging)
        _remove_stale_staging(out_dir)  # after the removal: this run's is not stale
    except OSError as exc:
        raise CliError(EXIT_IO, "io", f"cannot write to {out_dir}: {exc}") from None
    finally:
        if staging is not None:  # already gone after a commit
            shutil.rmtree(staging, ignore_errors=True)

    print(
        f"wrote {len(points)} configs ({len(skipped)} skipped), "
        f"{len(pareto)} on the frontier -> {out_dir}"
    )
    return EXIT_OK


# --------------------------------------------------------------------------
# match


_KNOB_CHOICES = {k.name.lower(): k for k in MATCH_RANGES}


def _cmd_match(args: argparse.Namespace) -> int:
    spec = _load_valid_spec(args.spec)
    cfg = _eval_from_args(args)
    if args.target_flops < 1:
        raise UsageError(f"--target-flops must be >= 1, got {args.target_flops}")
    value_range = None
    if args.min_value is not None or args.max_value is not None:
        if args.min_value is None or args.max_value is None:
            raise UsageError("--min-value and --max-value must be given together")
        value_range = (args.min_value, args.max_value)
    try:
        result = match_flops_budget(
            spec,
            cfg,
            _KNOB_CHOICES[args.knob],
            args.target_flops,
            tol=args.tol,
            value_range=value_range,
            base_name=spec.name,
        )
    except TargetUnreachable as exc:
        raise CliError(
            EXIT_INFEASIBLE,
            "target_unreachable",
            str(exc),
            target=exc.target,
            attainable=list(exc.attainable),
        ) from None
    except CountTooLarge:
        raise  # reported by main, as for cost
    except ValueError as exc:  # a ScalingError too
        raise CliError(EXIT_VALIDATION, "match", str(exc)) from None
    payload = {
        "config_id": result.config.config_id,
        "knob": args.knob,
        "value": result.config.transforms[0].parameter,
        "flops": result.flops,
        "target": result.target,
        "deviation": result.deviation,
        "relaxed_value": result.relaxed_value,
        "within_tol": result.within_tol,
        "bracket": (
            [c.config_id for c in result.bracket] if result.bracket else None
        ),
    }
    print(json.dumps(payload, indent=2))
    return EXIT_OK


# --------------------------------------------------------------------------
# best


_OBJECTIVE_ALIASES = {
    "flops": "flops",
    "memory": "total_memory_bytes",
    "total_memory_bytes": "total_memory_bytes",
    "peak_activation_bytes": "peak_activation_bytes",
    "model_bytes": "model_bytes",
}


def _cmd_best(args: argparse.Namespace) -> int:
    frontier = Path(args.sweep_dir) / "frontier.csv"
    with _reading("frontier", frontier):
        points, metrics = read_frontier_csv(frontier)
    if args.metric not in metrics:
        raise CliError(
            EXIT_VALIDATION,
            "metric",
            f"frontier has no metric column {args.metric!r} (has: {metrics})",
        )
    baseline = args.baseline
    if baseline is None:
        annotated = [p for p in points if args.metric in p.annotations]
        if not annotated:
            raise CliError(
                EXIT_INFEASIBLE, "infeasible", f"no config carries a {args.metric!r} annotation"
            )
        baseline = max(
            annotated, key=lambda p: (p.annotations[args.metric], p.config_id)
        ).config_id
        logger.warning("--baseline not given; using highest-%s config %s", args.metric, baseline)
    try:
        choice = best_compressed(
            points,
            metric=args.metric,
            max_drop=args.max_drop,
            objective=_OBJECTIVE_ALIASES[args.objective],
            baseline_id=baseline,
        )
    except NoFeasibleCandidate as exc:
        raise CliError(EXIT_INFEASIBLE, "no_feasible_candidate", str(exc)) from None
    except ValueError as exc:  # a baseline that names no row
        raise CliError(EXIT_VALIDATION, "baseline", str(exc), path=str(frontier)) from None
    payload = {
        "config_id": choice.config_id,
        "flops": choice.flops,
        "peak_activation_bytes": choice.peak_activation_bytes,
        "model_bytes": choice.model_bytes,
        "total_memory_bytes": choice.total_memory_bytes,
        "annotations": dict(sorted(choice.annotations.items())),
        "baseline": baseline,
        "metric": args.metric,
        "max_drop": args.max_drop,
        "objective": _OBJECTIVE_ALIASES[args.objective],
    }
    print(json.dumps(payload, indent=2))
    return EXIT_OK


# --------------------------------------------------------------------------
# presets


def _cmd_presets(args: argparse.Namespace) -> int:
    if args.action != "list":
        raise UsageError(f"unknown presets action {args.action!r}")
    for name in sorted(PRESETS):
        entry = PRESETS[name]
        spec = entry.build()
        report = cost_report(spec, entry.default_eval)
        print(
            f"{name:<18} flops={report.flops:<14} "
            f"peak_act={report.peak_activation_bytes:<12} "
            f"model={report.model_bytes:<12} "
            f"total={report.total_memory_bytes:<12} {entry.summary}"
        )
    return EXIT_OK


# --------------------------------------------------------------------------
# entry point


@functools.cache
def build_parser() -> _Parser:
    """The one parser of the process, built on first use: building it costs
    more than parsing a short command. ``parse_args`` keeps no state in it."""
    parser = _Parser(
        prog="visioncost",
        description="FLOPs/memory cost reports and scaling-tradeoff search "
        "for CNN and ViT architecture specs",
    )
    sub = parser.add_subparsers(dest="command", metavar="command")

    p_cost = sub.add_parser("cost", help="cost report for one spec file")
    p_cost.add_argument("spec", help="architecture spec JSON file")
    _add_eval_flags(p_cost)
    p_cost.add_argument(
        "--format", choices=("json", "csv"), default="json", help="output format"
    )

    p_sweep = sub.add_parser("sweep", help="enumerate a sweep space and write results")
    p_sweep.add_argument("space", help="sweep space JSON file")
    p_sweep.add_argument("--out", required=True, help="output directory")
    p_sweep.add_argument(
        "--annotations", default=None, help="optional config_id,metric,value CSV"
    )

    p_match = sub.add_parser("match", help="match a FLOPs budget with one knob")
    p_match.add_argument("spec", help="architecture spec JSON file")
    p_match.add_argument(
        "--knob", required=True, choices=sorted(_KNOB_CHOICES), help="knob to bisect"
    )
    p_match.add_argument("--target-flops", type=int, required=True)
    p_match.add_argument("--tol", type=_finite_non_negative, help="relative tolerance")
    p_match.add_argument("--min-value", type=int, default=None)
    p_match.add_argument("--max-value", type=int, default=None)
    _add_eval_flags(p_match)

    p_best = sub.add_parser(
        "best", help="cheapest config within an accuracy-drop budget"
    )
    p_best.add_argument("sweep_dir", help="directory written by 'sweep'")
    p_best.add_argument("--metric", required=True)
    p_best.add_argument("--max-drop", type=_finite_non_negative, required=True)
    p_best.add_argument(
        "--objective", choices=sorted(_OBJECTIVE_ALIASES), default="flops"
    )
    p_best.add_argument("--baseline", default=None, help="baseline config id")

    p_presets = sub.add_parser("presets", help="built-in architecture specs")
    p_presets.add_argument("action", nargs="?", default="list", help="'list'")

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    argv = list(argv)
    logging.basicConfig(
        stream=sys.stderr, level=logging.WARNING, format="%(levelname)s: %(message)s"
    )
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command is None:
            raise UsageError("a command is required (cost, sweep, match, best, presets)")
        if args.command == "cost":
            return _cmd_cost(args)
        if args.command == "sweep":
            return _cmd_sweep(args, ["visioncost"] + argv)
        if args.command == "match":
            return _cmd_match(args)
        if args.command == "best":
            return _cmd_best(args)
        if args.command == "presets":
            return _cmd_presets(args)
        raise UsageError(f"unknown command {args.command!r}")
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except InfeasibleResolution as exc:
        error = CliError(
            EXIT_INFEASIBLE, "infeasible_resolution", str(exc), layer_index=exc.layer_index
        )
    except ShapeMismatch as exc:
        error = CliError(EXIT_VALIDATION, "shape_mismatch", str(exc), layer_index=exc.layer_index)
    except CountTooLarge as exc:
        error = CliError(EXIT_VALIDATION, "count_too_large", str(exc))
    except CliError as exc:
        error = exc
    print(json.dumps(error.payload), file=sys.stderr)
    return error.code


if __name__ == "__main__":
    sys.exit(main())
