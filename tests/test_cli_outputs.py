"""Replay every recorded CLI output byte for byte.

``cli_outputs.json`` lists command lines (config paths relative to the
repository root, ``{out}`` standing for an ``--out`` file) with the exact
stdout and, for ``--out``, the exact file they produce.  A record that
fails also gives its exit code and stderr; every other one exits 0 with
nothing on stderr.  It covers every command in both formats, the empty
window, a table without its window, the ``in_omega`` block,
``monomial-sigma`` in one, two and three dimensions, with its ranges as
separate words or joined by commas, and ranges and generators that are
not plain ASCII integers.
"""
import json
from pathlib import Path

import pytest

from toricsheaf.cli import main

ROOT = Path(__file__).resolve().parent.parent
CASES = json.loads(Path(__file__).with_name("cli_outputs.json").read_text())


@pytest.mark.parametrize("case", CASES, ids=[" ".join(c["args"]) for c in CASES])
def test_cli_output_replays(case, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(ROOT)
    out_file = tmp_path / "out.txt"
    code = main([str(out_file) if a == "{out}" else a for a in case["args"]])
    captured = capsys.readouterr()
    assert code == case.get("exit", 0)
    assert captured.out == case["stdout"]
    assert captured.err == case.get("stderr", "")
    if "out" in case:
        assert out_file.read_text() == case["out"]
