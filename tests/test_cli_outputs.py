"""Replay every recorded CLI output byte for byte.

``cli_outputs.json`` lists command lines (config paths relative to the
repository root, ``{out}`` standing for an ``--out`` file) with the exact
stdout and, for ``--out``, the exact file they produce.  It covers every
command in both formats, the empty window, the ``in_omega`` block and
``monomial-sigma`` in one, two and three dimensions.
"""
import io
import json
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from toricsheaf.cli import main

ROOT = Path(__file__).resolve().parent.parent
CASES = json.loads(Path(__file__).with_name("cli_outputs.json").read_text())


@pytest.mark.parametrize("case", CASES, ids=[" ".join(c["args"]) for c in CASES])
def test_cli_output_replays(case, tmp_path, monkeypatch):
    monkeypatch.chdir(ROOT)
    out_file = tmp_path / "out.txt"
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main([str(out_file) if a == "{out}" else a for a in case["args"]])
    assert code == 0
    assert buf.getvalue() == case["stdout"]
    if "out" in case:
        assert out_file.read_text() == case["out"]
