"""The four workloads: inputs made from a seed, one round of CLI commands,
and a check of every output against ``oracles`` and the method's properties.

A workload gives the files of its inputs as text, and names the presets
whose specs the program itself exports beside them (``prepare.py`` writes
both). A round is the same list of commands every time. Sweeps write into a
fresh, empty directory per round; queries write nothing but stdout.
"""

from __future__ import annotations

import csv
import io
import json
import random
from collections import defaultdict
from dataclasses import dataclass
from itertools import pairwise, product
from pathlib import Path
from typing import Callable

import oracles as o

FRONTIER_COLUMNS = ["config_id", "flops", "peak_activation_bytes", "model_bytes",
                    "total_memory_bytes"]
REPORT_CSV_HEADER = ["layer_index", "name", "out_shape", "flops", "activation_bytes",
                     "param_count"]
TOTALS = ("flops", "peak_activation_bytes", "model_bytes", "total_memory_bytes")
PRESET_NAMES = ("resnet50", "resnet50_fcr112", "seg_backbone_gw16", "vit_base", "vit_small")
# The fcr variant resizes its stem output to what a 112-pixel input gives.
FCR_STEM_SIDE = o.window_out(112, 7, 2, 3)

# Value pools. A seed picks values from them and shuffles each axis. Depth
# sets the rows per config, so every seed takes all ten depths.
VIT_SWEEP = {"N": (range(6, 31), 10), "patch": ((4, 8, 12, 14, 16, 20, 24, 28, 32), 5),
             "depth": (range(3, 22, 2), 10), "dtype": (("fp32", "fp16", "bf16"), 3)}
CNN_SWEEP = {"width": ((0.25, 0.375, 0.5, 0.625, 0.75, 0.875, 1.0), 7),
             "N": (range(64, 321, 16), 8), "batch": ((1, 2, 4, 8, 16, 32), 3)}
WIDE_SWEEP = {"N": (range(4, 41), 20), "hidden": (range(96, 1921, 12), 17),
              "depth": (range(3, 22, 2), 10), "dtype": (("fp32", "fp16", "bf16"), 3)}
ANNOTATED_SHARE = 0.9
QUERY_RESOLUTIONS = {"vit_small": (6, 24), "vit_base": (6, 24), "resnet50": (64, 320),
                     "resnet50_fcr112": (64, 320), "seg_backbone_gw16": (128, 768)}
MATCH_RANGES = {"depth": (1, 32), "hidden": (1, 2048), "mlp": (64, 2048), "resolution": (2, 48)}
KNOB_AXIS = {"depth": "depth", "hidden": "hidden", "mlp": "mlp", "resolution": "N"}
BEST_FRONTIER = {"N": range(6, 41), "depth": range(1, 25)}  # x all dtypes: 20 x 10 x 5
BEST_OBJECTIVES = {"flops": "flops", "memory": "total_memory_bytes",
                   "total_memory_bytes": "total_memory_bytes",
                   "peak_activation_bytes": "peak_activation_bytes", "model_bytes": "model_bytes"}
BEST_COMMANDS = 12


@dataclass
class Inputs:
    """What one set-up writes into the input directory, by relative name."""
    files: dict[str, str]  # name -> text
    specs: dict[str, str]  # name -> preset, exported by the program


@dataclass
class Command:
    argv: list[str]
    check: Callable[[str], tuple[int, list[str]]]  # stdout -> (configs, errors)
    out: Path | None = None  # the directory the command writes, if any


# --------------------------------------------------------------------------
# What one config should cost.


def base_params(base: str) -> dict:
    card = o.VIT_CARDS.get(base, {"width": 1.0, "N": 224})
    return {**card, "batch": 1, "dtype": "fp32", "bytes": o.DTYPE_BYTES["fp32"]}


def with_axes(params: dict, axes: list[tuple[str, object]]) -> dict:
    v = dict(params)
    for kind, value in axes:
        v[kind] = value
        if kind == "dtype":
            v["bytes"] = o.DTYPE_BYTES[value]
    return v


def expected_rows(base: str, convention: str, v: dict) -> list[tuple] | None:
    if base not in o.VIT_CARDS:
        return None
    return (o.vit_full if convention == "full_count" else o.vit_closed)(v)["rows"]


# Hashes of the oracle's rows, keyed by a hash of the config, so that later
# rounds re-check every output without recomputing the rows or holding them
# in memory.
_ROW_HASHES: dict[int, int | None] = {}


def rows_differ(base: str, convention: str, v: dict, got: list[tuple]) -> bool:
    key = hash((base, convention, tuple(sorted(v.items()))))
    if key not in _ROW_HASHES:
        expected = expected_rows(base, convention, v)
        _ROW_HASHES[key] = hash(tuple(expected)) if expected is not None else None
    return _ROW_HASHES[key] is not None and hash(tuple(got)) != _ROW_HASHES[key]


def check_rows(base: str, convention: str, v: dict, rows: list[tuple]) -> list[str]:
    """rows are (layer_index, name, out_shape, flops, activation_bytes, param_count)."""
    errors = []
    if [r[0] for r in rows] != list(range(len(rows))):
        errors.append("layer_index is not 0..n-1")
    if rows_differ(base, convention, v, [r[1:] for r in rows]):
        expected = expected_rows(base, convention, v)
        first = next((i for i, (a, b) in enumerate(zip(rows, expected)) if a[1:] != b),
                     min(len(rows), len(expected)))
        errors.append(f"{len(rows)} rows vs {len(expected)} expected; row {first} is "
                      f"{rows[first][1:] if first < len(rows) else None}, expected "
                      f"{expected[first] if first < len(expected) else None}")
    if base in ("resnet50", "resnet50_fcr112") and v.get("width", 1.0) == 1.0:
        macs, params = o.resnet50_table(v["N"], FCR_STEM_SIDE if base != "resnet50" else None)
        convs = [r for r in rows if r[1] == "conv2d"]
        if len(convs) != o.RESNET50_CONV_LAYERS or sum(r[3] for r in convs) != 2 * v["batch"] * macs:
            errors.append(f"conv FLOPs {sum(r[3] for r in convs)} over {len(convs)} convs, "
                          f"stage table gives {2 * v['batch'] * macs} over {o.RESNET50_CONV_LAYERS}")
        if sum(r[5] for r in rows) != params:
            errors.append(f"{sum(r[5] for r in rows)} parameters, published {params}")
    return errors


def check_report(report: dict, base: str, convention: str, v: dict) -> list[str]:
    rows = [(r["layer_index"], r["name"], r["out_shape"], r["flops"], r["activation_bytes"],
             r["param_count"]) for r in report["per_layer"]]
    errors = check_rows(base, convention, v, rows)
    e = v["bytes"]
    model = sum(r[5] for r in rows) * e
    peak = max((r[4] for r in rows), default=0)
    totals = {"flops": sum(r[3] for r in rows), "peak_activation_bytes": peak,
              "model_bytes": model, "total_memory_bytes": model + peak}
    header = {"batch_size": v["batch"], "dtype": {"name": v["dtype"], "bytes_per_element": e},
              "resolution": v["N"], "convention": convention}
    for key, want in {**totals, **header}.items():
        if report[key] != want:
            errors.append(f"report {key} is {report[key]!r}, rows and settings give {want!r}")
    if convention == "full_count" and base in o.VIT_CARDS and report["flops"] < o.vit_flops(v, "closed_form"):
        errors.append("full_count FLOPs below the closed form")
    return errors


# --------------------------------------------------------------------------
# Sweeps.


@dataclass
class Config:
    config_id: str
    combo: tuple
    params: dict


@dataclass
class Sweep:
    base: str
    convention: str
    axes: list[tuple[str, list]]
    annotations: dict[str, float] | None
    configs: list[Config]

    @property
    def header(self) -> list[str]:
        return FRONTIER_COLUMNS + (["top1"] if self.annotations is not None else [])


def pick_axes(rng: random.Random, pools: dict) -> list[tuple[str, list]]:
    return [(kind, rng.sample(list(pool), count)) for kind, (pool, count) in pools.items()]


def make_sweep(base: str, convention: str, axes: list[tuple[str, list]],
               rng: random.Random | None) -> Sweep:
    """rng, when given, draws a top1 annotation for most configs."""
    params = base_params(base)
    configs = []
    for combo in product(*(values for _, values in axes)):
        pairs = [(kind, value) for (kind, _), value in zip(axes, combo)]
        configs.append(Config(o.config_id(base, pairs), combo, with_axes(params, pairs)))
    annotations = None
    if rng is not None:
        annotations = {c.config_id: round(rng.uniform(55.0, 85.0), 3) for c in configs
                       if rng.random() < ANNOTATED_SHARE}
    return Sweep(base, convention, axes, annotations, configs)


def sweep_inputs(sweep: Sweep, directory: Path) -> tuple[Inputs, list[str]]:
    """The base spec, the space and any annotations, and the sweep's input
    arguments."""
    spec = f"{sweep.base}.json"
    space = {"spec_file": spec, "eval": {"flop_convention": sweep.convention},
             "axes": [{"kind": kind, "values": values} for kind, values in sweep.axes]}
    inputs = Inputs({"space.json": json.dumps(space, indent=1) + "\n"}, {spec: sweep.base})
    args = [str(directory / "space.json")]
    if sweep.annotations is not None:
        lines = ["config_id,metric,value"]
        lines += [f"{cid},top1,{value!r}" for cid, value in sweep.annotations.items()]
        # Rows for configs outside the space, which the sweep must ignore.
        lines += [f"{sweep.base};N={n};depth=1000,top1,50.0" for n in range(50)]
        inputs.files["top1.csv"] = "\n".join(lines) + "\n"
        args += ["--annotations", str(directory / "top1.csv")]
    return inputs, args


def read_table(path: Path, delimiter: str = ",") -> list[list[str]]:
    return list(csv.reader(io.StringIO(path.read_text(encoding="utf-8")), delimiter=delimiter))


def check_sweep(sweep: Sweep, out: Path) -> tuple[int, list[str]]:
    frontier = read_table(out / "frontier.csv")
    if frontier[0] != sweep.header:
        return 0, [f"frontier header {frontier[0]}, expected {sweep.header}"]
    rows = frontier[1:]
    if [r[0] for r in rows] != [c.config_id for c in sweep.configs]:
        return 0, ["frontier.csv is not one row per combination, in axis order, "
                   "with canonical ids"]
    errors: list[str] = []
    values = {r[0]: tuple(int(x) for x in r[1:5]) for r in rows}
    for config, row in zip(sweep.configs, rows):
        flops, peak, model, total = values[config.config_id]
        if total != model + peak:
            errors.append(f"{config.config_id}: total {total} != model {model} + peak {peak}")
        if sweep.annotations is not None:
            want = sweep.annotations.get(config.config_id)
            if (row[5] == "") != (want is None) or (want is not None and float(row[5]) != want):
                errors.append(f"{config.config_id}: top1 cell {row[5]!r}, annotated {want!r}")
    errors += check_reports(sweep, out / "reports", values)
    errors += check_properties(sweep, values)

    keep = o.pareto_ids([(r[0], values[r[0]][0], values[r[0]][3]) for r in rows])
    want = [sweep.header] + sorted((r for r in rows if r[0] in keep), key=lambda r: r[0])
    if read_table(out / "pareto.csv") != want:
        errors.append(f"pareto.csv differs from the {len(want) - 1}-row non-dominated set")
    plot = read_table(out / "plot.tsv", "\t")
    if plot[0] != ["series"] + FRONTIER_COLUMNS or [p[1:] for p in plot[1:]] != [r[:5] for r in rows]:
        errors.append("plot.tsv does not hold the frontier's rows")
    manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
    if (manifest["configs"], manifest["skipped"]) != (len(rows), 0):
        errors.append(f"manifest counts {manifest['configs']} configs, "
                      f"{manifest['skipped']} skipped")
    return len(rows), errors


def check_reports(sweep: Sweep, reports: Path, values: dict) -> list[str]:
    params = {c.config_id: c.params for c in sweep.configs}
    files = list(reports.iterdir())
    errors = []
    if len(files) != len(params):
        errors.append(f"reports/ holds {len(files)} files for {len(params)} rows")
    seen = set()
    for path in files:
        payload = json.loads(path.read_text(encoding="utf-8"))
        cid = payload["config_id"]
        if cid not in params or cid in seen:
            errors.append(f"{path.name}: config {cid!r} is unknown or repeated")
            continue
        seen.add(cid)
        want = {}
        if sweep.annotations is not None and cid in sweep.annotations:
            want = {"top1": sweep.annotations[cid]}
        if payload["annotations"] != want:
            errors.append(f"{path.name}: annotations {payload['annotations']}, expected {want}")
        report = payload["report"]
        errors += [f"{cid}: {e}" for e in
                   check_report(report, sweep.base, sweep.convention, params[cid])]
        if tuple(report[k] for k in TOTALS) != values[cid]:
            errors.append(f"{cid}: report totals differ from its frontier row")
        if len(errors) > 20:
            break
    return errors


def check_properties(sweep: Sweep, values: dict) -> list[str]:
    """Laws of the method that hold for any base."""
    kinds = [kind for kind, _ in sweep.axes]

    def groups(varying: set[str]):
        out = defaultdict(list)
        for c in sweep.configs:
            key = tuple(v for kind, v in zip(kinds, c.combo) if kind not in varying)
            out[key].append(c)
        return out.values()

    errors = []
    strict = sweep.base in o.VIT_CARDS
    if "N" in kinds:
        for group in groups({"N"}):
            flops = [values[c.config_id][0] for c in sorted(group, key=lambda c: c.params["N"])]
            if any(b < a or (strict and b == a) for a, b in pairwise(flops)):
                errors.append(f"FLOPs not {'strictly ' if strict else ''}increasing in N "
                              f"from {group[0].config_id}")
    if "batch" in kinds:
        for group in groups({"batch"}):
            ref = group[0]
            for c in group:
                if values[c.config_id][0] * ref.params["batch"] != values[ref.config_id][0] * c.params["batch"]:
                    errors.append(f"FLOPs of {c.config_id} not linear in batch")
    for group in groups({"N", "batch", "dtype"}):
        per_element = {divmod(values[c.config_id][2], c.params["bytes"]) for c in group}
        if len(per_element) != 1 or next(iter(per_element))[1] != 0:
            errors.append(f"weights of {group[0].config_id} vary with N or batch, or do not "
                          f"scale with dtype width")
    return errors


def sweep_workload(base: str, convention: str, pools: dict, annotated: bool):
    def generate(rng: random.Random, directory: Path):
        sweep = make_sweep(base, convention, pick_axes(rng, pools), rng if annotated else None)
        inputs, args = sweep_inputs(sweep, directory)

        def commands(out: Path) -> list[Command]:
            return [Command(["sweep", *args, "--out", str(out)],
                            lambda stdout: check_sweep(sweep, out), out)]

        return inputs, commands

    return generate


# --------------------------------------------------------------------------
# Queries.


def cost_commands(rng: random.Random, specs: dict[str, Path]) -> list[Command]:
    commands = []
    for name in PRESET_NAMES:
        for fmt in ("json", "csv"):
            for convention in ("closed_form", "full_count"):
                dtype = rng.choice(sorted(o.DTYPE_BYTES))
                v = with_axes(base_params(name), [("N", rng.randint(*QUERY_RESOLUTIONS[name])),
                                                  ("batch", rng.randint(1, 8)), ("dtype", dtype)])
                argv = ["cost", str(specs[name]), "--format", fmt, "--convention", convention,
                        "--resolution", str(v["N"]), "--batch", str(v["batch"]), "--dtype", dtype]
                commands.append(Command(argv, cost_check(name, fmt, convention, v)))
    return commands


def cost_check(name: str, fmt: str, convention: str, v: dict):
    def check(stdout: str) -> tuple[int, list[str]]:
        if fmt == "json":
            return 1, check_report(json.loads(stdout), name, convention, v)
        table = list(csv.reader(io.StringIO(stdout)))
        if table[0] != REPORT_CSV_HEADER:
            return 1, [f"csv header {table[0]}"]
        rows = [(int(r[0]), r[1], r[2], int(r[3]), int(r[4]), int(r[5])) for r in table[1:]]
        return 1, check_rows(name, convention, v, rows)

    return check


def match_commands(rng: random.Random, specs: dict[str, Path]) -> list[Command]:
    commands = []
    for name in ("vit_small", "vit_base"):
        for knob in MATCH_RANGES:
            for convention in ("closed_form", "full_count"):
                v = with_axes(base_params(name), [("N", rng.randint(6, 24)),
                                                  ("batch", rng.randint(1, 4))])
                values = o.knob_range(*MATCH_RANGES[knob], v["heads"] if knob == "hidden" else 1)
                lo, hi, step = values[0], values[-1], values.step

                def flops_at(value, v=v, knob=knob, convention=convention):
                    return o.vit_flops({**v, KNOB_AXIS[knob]: value}, convention)

                value = rng.randrange(lo, hi, step)
                f1, f2 = flops_at(value), flops_at(value + step)
                if rng.random() < 0.25 and (f1 + f2) % 2 == 0:
                    target = (f1 + f2) // 2  # equally close to both: the smaller wins
                else:
                    target = rng.randint(f1, f2)
                tol = rng.choice([None, 0.001, 0.05])
                argv = ["match", str(specs[name]), "--knob", knob, "--target-flops", str(target),
                        "--min-value", str(lo), "--max-value", str(hi),
                        "--convention", convention, "--batch", str(v["batch"])]
                if knob != "resolution":
                    argv += ["--resolution", str(v["N"])]
                if tol is not None:
                    argv += ["--tol", repr(tol)]
                commands.append(Command(argv, match_check(name, knob, flops_at, values, target,
                                                          tol)))
    return commands


def match_check(name, knob, flops_at, values, target, tol):
    expected: dict = {}

    def check(stdout: str) -> tuple[int, list[str]]:
        if not expected:
            scan = o.match_scan(flops_at, values, target)
            ident = lambda value: f"{name};{KNOB_AXIS[knob]}={value}"  # noqa: E731
            deviation = abs(scan["flops"] - target)
            within = None if tol is None else deviation <= tol * target
            f_lower, f_upper = scan["f_lower"], scan["f_upper"]
            relaxed = (scan["lower"] + (target - f_lower) * (scan["upper"] - scan["lower"])
                       / (f_upper - f_lower)) if f_upper != f_lower else float(scan["value"])
            expected.update(config_id=ident(scan["value"]), knob=knob, value=scan["value"],
                            flops=scan["flops"], target=target, deviation=deviation,
                            relaxed_value=relaxed, within_tol=within,
                            bracket=[ident(scan["lower"]), ident(scan["upper"])]
                            if within is False else None)
        got = json.loads(stdout)
        errors = [f"{key} is {got.get(key)!r}, exhaustive scan gives {want!r}"
                  for key, want in expected.items()
                  if key != "relaxed_value" and got.get(key) != want]
        if abs(got["relaxed_value"] - expected["relaxed_value"]) > 1e-9 * max(1.0, abs(expected["relaxed_value"])):
            errors.append(f"relaxed_value {got['relaxed_value']}, expected {expected['relaxed_value']}")
        return 1, errors

    return check


def best_frontier(rng: random.Random) -> tuple[list[dict], str]:
    """A frontier.csv of vit_small closed-form configs with a top1 column,
    costed by the oracle, so best can be checked against it: its rows and
    its text."""
    n_values = sorted(rng.sample(list(BEST_FRONTIER["N"]), 20))
    depths = sorted(rng.sample(list(BEST_FRONTIER["depth"]), 10))
    rows = []
    for n, depth, dtype in product(n_values, depths, sorted(o.DTYPE_BYTES)):
        axes = [("N", n), ("depth", depth), ("dtype", dtype)]
        totals = o.vit_closed(with_axes(base_params("vit_small"), axes))
        rows.append({"config_id": o.config_id("vit_small", axes),
                     **{k: totals[k] for k in TOTALS}, "top1": round(rng.uniform(50.0, 85.0), 3)})
    lines = [",".join(FRONTIER_COLUMNS + ["top1"])]
    lines += [",".join(str(r[k]) for k in FRONTIER_COLUMNS) + f",{r['top1']!r}" for r in rows]
    return rows, "\n".join(lines) + "\n"


def best_commands(rows: list[dict], rng: random.Random, directory: Path) -> list[Command]:
    top = max(rows, key=lambda r: (r["top1"], r["config_id"]))["config_id"]
    commands = []
    for _ in range(BEST_COMMANDS):
        alias = rng.choice(sorted(BEST_OBJECTIVES))
        max_drop = round(rng.uniform(0.0, 8.0), 3)
        baseline = top if rng.random() < 0.5 else rng.choice(rows)["config_id"]
        argv = ["best", str(directory), "--metric", "top1", "--max-drop", repr(max_drop),
                "--objective", alias, "--baseline", baseline]
        commands.append(Command(argv, best_check(rows, max_drop, BEST_OBJECTIVES[alias], baseline)))
    return commands


def best_check(rows, max_drop, objective, baseline):
    def check(stdout: str) -> tuple[int, list[str]]:
        choice = o.best_choice(rows, "top1", max_drop, objective, baseline)
        want = {**{k: choice[k] for k in FRONTIER_COLUMNS}, "annotations": {"top1": choice["top1"]},
                "baseline": baseline, "metric": "top1", "max_drop": max_drop, "objective": objective}
        got = json.loads(stdout)
        return 1, [f"{k} is {got.get(k)!r}, expected {w!r}" for k, w in want.items() if got.get(k) != w]

    return check


def queries(rng: random.Random, directory: Path):
    specs = {name: directory / f"{name}.json" for name in PRESET_NAMES}
    rows, frontier = best_frontier(rng)
    inputs = Inputs({"sweep/frontier.csv": frontier},
                    {path.name: name for name, path in specs.items()})
    commands = (cost_commands(rng, specs) + match_commands(rng, specs)
                + best_commands(rows, rng, directory / "sweep"))
    rng.shuffle(commands)
    return inputs, lambda out: commands


WORKLOADS = {
    "vit_sweep": sweep_workload("vit_small", "full_count", VIT_SWEEP, annotated=True),
    "cnn_sweep": sweep_workload("resnet50", "closed_form", CNN_SWEEP, annotated=False),
    "wide_frontier": sweep_workload("vit_base", "closed_form", WIDE_SWEEP, annotated=False),
    "queries": queries,
}
