"""The README's Python examples run as written against the top-level API,
and its space file sweeps as written."""

import contextlib
import io
import re
from pathlib import Path

import visioncost
from visioncost.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"
TEXT = README.read_text(encoding="utf-8")
BLOCKS = re.findall(r"^```python\n(.*?)^```$", TEXT, re.M | re.S)
(SPACE,) = [b for b in re.findall(r"^```json\n(.*?)^```$", TEXT, re.M | re.S) if '"axes"' in b]


def run_block(source):
    namespace = {}
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(source, str(README), "exec"), namespace)
    return namespace, out.getvalue()


def test_every_block_runs(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert len(BLOCKS) >= 2
    for source in BLOCKS:
        run_block(source)
    assert (tmp_path / "resnet50.json").is_file() and (tmp_path / "vit_small.json").is_file()


def test_library_example(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (library,) = [b for b in BLOCKS if "make_config" in b]
    namespace, out = run_block(library)
    assert out.splitlines()[-1] == "vit_small;N=9;dtype=int8"
    cfg = namespace["cfg"]
    rebuilt = visioncost.parse_config_id(cfg.config_id)
    assert rebuilt.config_id == cfg.config_id
    assert (rebuilt.spec, rebuilt.eval) == (cfg.spec, cfg.eval)


def test_space_example_sweeps(tmp_path, capsys):
    (tmp_path / "space.json").write_text(SPACE)
    assert main(["sweep", str(tmp_path / "space.json"), "--out", str(tmp_path / "out")]) == 0
    assert capsys.readouterr().out.startswith("wrote 10 configs (0 skipped)")
    assert len((tmp_path / "out" / "frontier.csv").read_text().splitlines()) == 11
