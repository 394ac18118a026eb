#!/usr/bin/env python3
"""Benchmark of visioncost: four workloads through ``visioncost.cli.main``.

    python3 perfbench/run.py --workload vit_sweep --seed 1 --seconds 10 --trace 0

Runs from the root of a checkout. It makes the workload's inputs from
``--seed``, then times five set-ups, each a child process (``prepare.py``)
that imports the package from ``src/`` and writes the inputs. It then
imports the package itself and repeats whole rounds of CLI commands in this
one process, with no extra threads, until ``--seconds`` have passed,
checking every output against ``oracles.py``. The last line of stdout is one
JSON object: ``correct``, ``attempted``, ``failed`` and the end-to-end
metrics, or with ``--trace 1`` the per-layer metrics. Scratch files live
under ``.perfbench_work/`` and are removed.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import io
import json
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import spans
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PREPARE = Path(__file__).resolve().parent / "prepare.py"
WORK = ROOT / ".perfbench_work"
SETUPS = 5  # set-ups per run; setup_s is their median
MAX_REPORTED_FAILURES = 5


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def written(directory: Path | None) -> tuple[int, int]:
    """(files, bytes) under a command's output directory."""
    if directory is None or not directory.exists():
        return 0, 0
    sizes = [p.stat().st_size for p in directory.rglob("*") if p.is_file()]
    return len(sizes), sum(sizes)


def plan(workload: str, seed: int, inputs: Path, plan_path: Path):
    """Makes the workload's inputs for ``inputs`` and writes them as a plan
    for ``prepare.py``; returns the workload's commands."""
    generate = workloads.WORKLOADS[workload]
    made, commands_for = generate(random.Random(f"{workload}:{seed}"), inputs)
    plan_path.write_text(json.dumps(dataclasses.asdict(made)), encoding="utf-8")
    return commands_for


def set_up(plan_path: Path, inputs: Path) -> float:
    """Seconds from the start of a ``prepare.py`` process to its exit."""
    shutil.rmtree(inputs, ignore_errors=True)
    tic = time.perf_counter()
    subprocess.run([sys.executable, str(PREPARE), str(plan_path), str(inputs)],
                   stdin=subprocess.DEVNULL, check=True)
    return time.perf_counter() - tic


def import_cli():
    sys.path.insert(0, str(SRC))
    import visioncost.cli as cli

    if Path(cli.__file__).resolve().parent != (SRC / "visioncost").resolve():
        raise RuntimeError(f"imported {cli.__file__}, not the checkout's source")
    return cli


def run(args, work: Path) -> dict:
    inputs = work / "inputs"
    commands_for = plan(args.workload, args.seed, inputs, work / "plan.json")
    setups = [set_up(work / "plan.json", inputs) for _ in range(SETUPS)]

    main = import_cli().main
    tracer = None
    if args.trace:
        tracer = spans.Tracer()
        tracer.install()
    latencies: list[float] = []
    configs = files = out_bytes = attempted = failed = rounds = 0
    begin = time.perf_counter()
    while rounds == 0 or time.perf_counter() - begin < args.seconds:
        for command in commands_for(work / "out"):
            attempted += 1
            stdout = io.StringIO()
            tic = time.perf_counter()
            with contextlib.redirect_stdout(stdout):
                try:
                    code = tracer.command(main, command.argv) if tracer else main(command.argv)
                except Exception as exc:  # a crash is a failed operation, not the end of the run
                    code = f"raised {exc!r}"
            latencies.append(time.perf_counter() - tic)
            text = stdout.getvalue()
            n_files, n_bytes = written(command.out)
            files += n_files
            out_bytes += n_bytes + len(text.encode("utf-8"))
            errors = [] if code == 0 else [f"exit {code}"]
            if not errors:
                try:
                    n_configs, errors = command.check(text)
                except Exception as exc:  # malformed output
                    errors = [f"check raised {exc!r}"]
                else:
                    configs += 0 if errors else n_configs
            if errors:
                failed += 1
                if failed <= MAX_REPORTED_FAILURES:
                    print(f"FAILED {' '.join(command.argv)}: " + "; ".join(errors[:5]),
                          file=sys.stderr)
            if command.out is not None:
                shutil.rmtree(command.out, ignore_errors=True)
        if rounds == 0:
            # Later rounds repeat these commands; reading the peak here keeps
            # it apart from how many rounds fit in the window.
            peak_rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        rounds += 1

    command_s = sum(latencies)
    print(f"{args.workload} seed {args.seed}: {rounds} rounds, {attempted} commands, "
          f"{command_s / rounds:.4f} s of commands per round, set-ups "
          f"{', '.join(f'{s:.4f}' for s in setups)} s", file=sys.stderr)
    if tracer is None:
        metrics = {
            "setup_s": (statistics.median(setups), "s"),
            "configs_per_s": (configs / command_s, "1/s"),
            "op_p50_ms": (statistics.median(latencies) * 1e3, "ms"),
            "peak_rss_mib": (peak_rss_kib / 1024, "MiB"),
            "output_mib": (out_bytes / rounds / 2**20, "MiB"),
        }
    else:
        metrics = tracer.metrics(rounds, configs, files, out_bytes)
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "visioncost" / "cli.py").is_file():
        print(f"no visioncost source at {SRC / 'visioncost'}; run from a checkout",
              file=sys.stderr)
        return 2
    WORK.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(dir=WORK))
    try:
        result = run(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.rmdir()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
