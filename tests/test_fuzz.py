"""Mutated specs and space files through ``cost``, ``match`` and ``sweep``.

The property runs in a child process that caps its own address space with
``RLIMIT_AS``, so a mutation that would build a vast report ends in the
child's ``MemoryError``, not in the host's memory. Every exit is 0, 1, 2, 3
or 64, and a failing command prints exactly one line on stderr: a JSON
error for 1-3, a usage line for 64. Log records go to their own buffer, so
a sweep's skip warnings are not counted as that line.
"""

import contextlib
import io
import json
import logging
import os
import resource
import subprocess
import sys
import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

import visioncost
from visioncost.arch import (
    Activation,
    BatchNorm,
    CnnSpec,
    Conv2d,
    GlobalPool,
    Linear,
    Pool,
    ResidualAdd,
    spec_to_dict,
)
from visioncost.cli import main
from visioncost.presets import PRESETS

ADDRESS_SPACE = 2**30  # 1 GiB for the child
EXAMPLES = 150


def small_residual_cnn() -> CnnSpec:
    return CnnSpec("small_res", 3, (
        Conv2d(3, 8, kernel=3, stride=2, padding=1),
        BatchNorm(8),
        Activation(),
        Conv2d(8, 8, kernel=3, padding=1, has_bias=True),
        BatchNorm(8),
        ResidualAdd(source_layer_index=2),
        Activation(),
        Pool("max", kernel=3, stride=2, padding=1),
        Conv2d(8, 16, kernel=1, input_layer_index=6),
        GlobalPool(),
        Linear(16, 10),
    ))


SPECS = {
    "vit_small": spec_to_dict(PRESETS["vit_small"].build()),
    "seg_backbone_gw16": spec_to_dict(PRESETS["seg_backbone_gw16"].build()),
    "small_res": spec_to_dict(small_residual_cnn()),
}

# Spaces over a preset and over the small CNN's spec file (written beside it).
SPACES = [
    {
        "base": "vit_small",
        "eval": {"flop_convention": "full_count", "input_resolution": 7},
        "axes": [{"kind": "depth", "values": [2, 4]}, {"kind": "N", "values": [5, 7]}],
    },
    {
        "spec_file": "small_res.json",
        "eval": {"batch_size": 2, "dtype": "fp16"},
        "axes": [{"kind": "width", "values": [0.5, 1.0]}, {"kind": "N", "values": [16, 33]}],
    },
]

# Mostly counts that load, some vast, some of the wrong type.
MUTANTS = st.one_of(
    st.integers(-2, 40),
    st.integers(1, 64),
    st.sampled_from([2**70, 10**30, 0.5, 2.0]),
    st.sampled_from([None, True, "16", "", "fp16", [], {}, 16.5]),
)


def leaf_paths(node, path=()):
    """Key paths of every scalar in a JSON document."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, value in items:
        if isinstance(value, (dict, list)):
            yield from leaf_paths(value, path + (key,))
        else:
            yield path + (key,)


def mutate(data, doc):
    """A copy of ``doc`` with up to two leaves replaced."""
    doc = json.loads(json.dumps(doc))
    paths = sorted(leaf_paths(doc), key=repr)
    for path in data.draw(st.lists(st.sampled_from(paths), max_size=2)):
        target = doc
        for key in path[:-1]:
            target = target[key]
        target[path[-1]] = data.draw(MUTANTS)
    return doc


def run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


@settings(max_examples=EXAMPLES, deadline=None, database=None)
@given(
    command=st.sampled_from(["cost", "match", "sweep"]),
    base=st.sampled_from(sorted(SPECS)),
    space=st.sampled_from(SPACES),
    knob=st.sampled_from(["depth", "hidden", "mlp", "resolution"]),
    target=st.sampled_from([10**6, 10**9, 10**12]),
    convention=st.sampled_from(["closed_form", "full_count"]),
    data=st.data(),
)
def fuzz_commands(command, base, space, knob, target, convention, data):
    with tempfile.TemporaryDirectory(dir=os.environ.get("FUZZ_TMP")) as tmp:
        tmp = Path(tmp)
        (tmp / "small_res.json").write_text(json.dumps(SPECS["small_res"]))
        if command == "sweep":
            (tmp / "space.json").write_text(json.dumps(mutate(data, space)))
            argv = ["sweep", str(tmp / "space.json"), "--out", str(tmp / "out")]
        else:
            (tmp / "spec.json").write_text(json.dumps(mutate(data, SPECS[base])))
            argv = [command, str(tmp / "spec.json"), "--convention", convention]
            if command == "match":
                knob = knob if base == "vit_small" else "resolution"
                argv += ["--knob", knob, "--target-flops", str(target)]
        code, out, err = run_cli(argv)
    assert code in (0, 1, 2, 3, 64), (argv, code, err)
    if code == 0:
        assert out and not err, (argv, err)
        return
    assert out == "", argv
    lines = err.splitlines()
    assert len(lines) == 1, (argv, code, err)
    if code == 64:
        assert lines[0].startswith("usage error: "), (argv, err)
    else:
        assert "error" in json.loads(lines[0]), (argv, err)


def test_mutated_inputs_in_a_capped_child(tmp_path):
    env = {
        **os.environ,
        "PYTHONPATH": os.pathsep.join(
            [str(Path(visioncost.__file__).parents[1]), os.environ.get("PYTHONPATH", "")]
        ),
        "FUZZ_TMP": str(tmp_path),
    }
    done = subprocess.run(
        [sys.executable, __file__], env=env, capture_output=True, text=True, timeout=300
    )
    assert done.returncode == 0, done.stdout[-4000:] + done.stderr[-4000:]


if __name__ == "__main__":
    resource.setrlimit(resource.RLIMIT_AS, (ADDRESS_SPACE, ADDRESS_SPACE))
    # Log records (a sweep's skip warnings) go to their own buffer, not stderr.
    logging.getLogger().addHandler(logging.StreamHandler(io.StringIO()))
    fuzz_commands()
