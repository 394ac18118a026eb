#!/usr/bin/env python3
"""One set-up of a benchmark run: import visioncost and its CLI, then write
a workload's inputs.

    python3 perfbench/prepare.py PLAN DIRECTORY

PLAN is the JSON of a ``workloads.Inputs``: ``files`` maps a name under
DIRECTORY to its text, and ``specs`` maps a name to the preset whose spec
the program exports there. ``run.py`` times this whole process, from its
start to its exit, as one set-up, so every set-up pays for the interpreter
and for every import the CLI pulls in.
"""

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import visioncost.cli  # noqa: E402,F401
from visioncost.arch import spec_to_json  # noqa: E402
from visioncost.presets import PRESETS  # noqa: E402


def main(plan_path: str, directory: str) -> None:
    plan = json.loads(Path(plan_path).read_text(encoding="utf-8"))
    root = Path(directory)
    texts = {name: spec_to_json(PRESETS[preset].build()) + "\n"
             for name, preset in plan["specs"].items()}
    for name, text in {**plan["files"], **texts}.items():
        path = root / name
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text, encoding="utf-8")


if __name__ == "__main__":
    main(*sys.argv[1:])
