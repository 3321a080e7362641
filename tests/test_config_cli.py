"""Tests for configuration parsing and the command-line interface."""
import argparse
import io
import json
import re
import subprocess
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from copy import deepcopy
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from toricsheaf import load_config, parse_config
from toricsheaf.cli import build_parser, main
from toricsheaf.errors import ConfigError
from toricsheaf.filtration import validate as validate_sheaf

from conftest import SHIPPED_CONFIGS, rank3_example_sheaf, tangent_sheaf_h3

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def run_cli(args, tmp_path=None):
    """Run the CLI in-process, capturing stdout."""
    import io
    from contextlib import redirect_stdout

    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main(args)
    return code, buf.getvalue()


def test_load_rank3_config():
    cfg = load_config(CONFIGS / "rank3_h3.json")
    assert cfg.sheaf == rank3_example_sheaf()


def test_load_tangent_config():
    cfg = load_config(CONFIGS / "tangent_h3.json")
    assert cfg.sheaf == tangent_sheaf_h3()


def test_config_rational_strings():
    data = {
        "variety": {"family": "projective", "n": 1},
        "sheaf": {
            "rank": 2,
            "filtrations": [
                {"jumps": [-1, 0], "spaces": [[["1/2", 1]]]},
                {"jumps": [0, 0]},
            ],
        },
    }
    cfg = parse_config(data)
    space = cfg.sheaf.filtrations[0].spaces[0]
    assert space.contains((1, 2))


def test_config_error_messages():
    base = {
        "variety": {"family": "projective", "n": 1},
        "sheaf": {"rank": 1, "filtrations": [{"jumps": [0]}, {"jumps": [0]}]},
    }
    bad = json.loads(json.dumps(base))
    bad["sheaf"]["filtrations"][1] = {"jumps": [0], "spaces": [[[1, 0]]]}
    with pytest.raises(ConfigError, match="rho1"):
        parse_config(bad)
    with pytest.raises(ConfigError, match="family"):
        parse_config({"variety": {}, "sheaf": {}})
    with pytest.raises(ConfigError, match="0.3"):
        parse_config({
            "variety": {"family": "projective", "n": 1},
            "sheaf": {"rank": 1, "filtrations": [
                {"jumps": [0], "spaces": [[[0.3]]]}, {"jumps": [0]}]},
        })


P1 = {"family": "projective", "n": 1}


@pytest.mark.parametrize("variety, rank, jump", [
    ({"family": "projective", "n": 2.9}, 1, 0),
    ({"family": "projective", "n": True}, 1, 0),
    ({"family": "projective", "n": "2"}, 1, 0),
    ({"family": "hirzebruch", "a": 1.0}, 1, 0),
    ({"family": "split_bundle", "s": 1.5, "a": [1]}, 1, 0),
    ({"family": "split_bundle", "s": 1, "a": [False]}, 1, 0),
    ({"family": "split_bundle", "s": 1, "a": 3}, 1, 0),
    (P1, True, 0),
    (P1, 1.0, 0),
    (P1, 1, -2.5),
    (P1, 1, True),
], ids=["n-float", "n-bool", "n-string", "a-float", "s-float", "a-entry-bool",
        "a-not-list", "rank-bool", "rank-float", "jump-float", "jump-bool"])
def test_config_integers_are_strict(variety, rank, jump, tmp_path):
    cfg = {"variety": variety,
           "sheaf": {"rank": rank, "filtrations": [{"jumps": [jump]}, {"jumps": [0]}]}}
    with pytest.raises(ConfigError, match="integer"):
        parse_config(cfg)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(cfg))
    code, out = run_cli(["validate", "--config", str(path)])
    assert code == 1 and out == ""


@pytest.mark.parametrize("spaces, message", [
    ([{"a": 1}], "rows must be a sequence, got dict"),
    (["12"], "rows must be a sequence, got str"),
    ([None], "rows must be a sequence, got NoneType"),
    ([[{"a": 1}]], "row must be a sequence, got dict"),
    ([["12"]], "row must be a sequence, got str"),
    ([[7]], "row must be a sequence, got int"),
    ([[[1, 0]]], "row must have length 1, got 2"),
])
def test_config_generators_are_refused_by_the_library_rule(spaces, message):
    """A generator list or vector that is no JSON list is refused by
    ``Subspace``'s reader, under the name of the ray and the space."""
    cfg = {"variety": P1, "sheaf": {"rank": 1, "filtrations": [
        {"jumps": [0], "spaces": spaces}, {"jumps": [0]}]}}
    with pytest.raises(ConfigError, match=f"^filtration for ray rho0, space 1: {re.escape(message)}$"):
        parse_config(cfg)


def test_cli_validate_ok():
    code, out = run_cli(["validate", "--config", str(CONFIGS / "rank3_h3.json")])
    assert code == 0 and out.strip() == "ok"


def test_cli_validate_decreasing_jumps(tmp_path):
    cfg = {
        "variety": {"family": "hirzebruch", "a": 1},
        "sheaf": {"rank": 2, "filtrations": [
            {"jumps": [0, -1]}, {"jumps": [0, 0]}, {"jumps": [0, 0]}, {"jumps": [0, 0]}]},
    }
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(cfg))
    code, out = run_cli(["validate", "--config", str(path)])
    assert code == 1
    assert "rho0" in out and "weakly increasing" in out


def test_cli_validate_json_lists_the_problems(tmp_path):
    """``validate --format json`` writes the problems as JSON; exit codes
    stay 0 for a valid sheaf and 1 otherwise."""
    code, out = run_cli(["validate", "--config", str(CONFIGS / "rank3_h3.json"),
                         "--format", "json"])
    assert code == 0 and json.loads(out) == {"problems": []}
    cfg = {
        "variety": {"family": "hirzebruch", "a": 1},
        "sheaf": {"rank": 2, "filtrations": [
            {"jumps": [0, -1]}, {"jumps": [0, 0]}, {"jumps": [0, 0]}, {"jumps": [0, 0]}]},
    }
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(cfg))
    code, out = run_cli(["validate", "--config", str(path), "--format", "json"])
    problems = json.loads(out)["problems"]
    assert code == 1 and problems == validate_sheaf(load_config(path).sheaf)
    assert "rho0" in problems[0] and "weakly increasing" in problems[0]


def test_cli_validate_wrong_ambient(tmp_path):
    cfg = {
        "variety": {"family": "hirzebruch", "a": 1},
        "sheaf": {"rank": 2, "filtrations": [
            {"jumps": [0, 0], "spaces": [[[1, 0, 0]]]},
            {"jumps": [0, 0]}, {"jumps": [0, 0]}, {"jumps": [0, 0]}]},
    }
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(cfg))
    code, _ = run_cli(["validate", "--config", str(path)])
    assert code == 1


def test_cli_unknown_family_is_input_error(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"variety": {"family": "fano"}, "sheaf": {}}))
    code, _ = run_cli(["validate", "--config", str(path)])
    assert code == 1


def test_cli_h0_table_binomial_row():
    code, out = run_cli([
        "h0-table", "--config", str(CONFIGS / "line_bundle_p2.json"), "--p=0:4",
    ])
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "q\\p,0,1,2,3,4"
    assert lines[1] == "h,6,10,15,21,28"


def test_cli_cohomology_table_degree_zero_binomials():
    code, out = run_cli([
        "cohomology-table", "--i", "0",
        "--config", str(CONFIGS / "line_bundle_p2.json"), "--p=0:4",
    ])
    assert code == 0
    assert out.strip().splitlines()[1] == "h,6,10,15,21,28"


def test_cli_cohomology_table_csv_golden():
    code, out = run_cli([
        "cohomology-table", "--i", "1",
        "--config", str(CONFIGS / "rank3_h3.json"), "--p=2:10", "--q=-4:4",
    ])
    assert code == 0
    golden = (CONFIGS / "golden" / "rank3_h3_h1_table.csv").read_text()
    assert out == golden


@pytest.mark.parametrize("command", [
    ["h0-table"], ["cohomology-table", "--i", "1"], ["euler-table"], ["hilbert-table"],
])
def test_cli_table_commands_load_the_config_once(command, monkeypatch):
    from toricsheaf import cli

    loads = []

    def counting(path):
        loads.append(path)
        return load_config(path)

    monkeypatch.setattr(cli, "load_config", counting)
    code, out = run_cli(command + [
        "--config", str(CONFIGS / "rank3_h3.json"), "--p=5:6", "--q=0:1",
    ])
    assert code == 0 and out.startswith("q\\p,5,6\n")
    assert len(loads) == 1


def test_cli_cohomology_degree_out_of_range_exit_code():
    code, out = run_cli([
        "cohomology-table", "--i", "3",
        "--config", str(CONFIGS / "rank3_h3.json"), "--p=0:1", "--q=0:1",
    ])
    assert code == 2 and out == ""


def test_cli_empty_window():
    code, out = run_cli([
        "h0-table", "--config", str(CONFIGS / "line_bundle_p2.json"), "--p=3:2",
    ])
    assert code == 0


@pytest.mark.parametrize("command", [
    ["h0-table"], ["cohomology-table", "--i", "0"], ["euler-table"], ["hilbert-table"],
])
@pytest.mark.parametrize("config, window, missing", [
    ("rank3_h3.json", ["--p=0:1"], "--q"),
    ("rank3_h3.json", ["--q=0:1"], "--p"),
    ("line_bundle_p2.json", [], "--p"),
])
def test_cli_table_without_its_window_is_refused(command, config, window, missing, capsys):
    """A table needs its p range, and its q range on a rank-2 class group;
    leaving one out is an input error, not an empty table."""
    code = main(command + ["--config", str(CONFIGS / config)] + window)
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert captured.err.startswith(f"error: {missing} is required")


# arguments on which each subcommand runs to its writer
RUNNABLE = {
    "validate": ["--config", str(CONFIGS / "rank3_h3.json")],
    "h0-table": ["--config", str(CONFIGS / "line_bundle_p2.json"), "--p=0:1"],
    "cohomology-table": ["--i", "1", "--config", str(CONFIGS / "rank3_h3.json"),
                         "--p=0:1", "--q=0:1"],
    "euler-table": ["--config", str(CONFIGS / "rank3_h3.json"), "--p=0:1", "--q=0:1"],
    "hilbert-table": ["--config", str(CONFIGS / "rank3_h3.json"), "--p=5:6", "--q=0:1"],
    "bounds": ["--config", str(CONFIGS / "rank3_h3.json"), "--format", "json"],
    "hilbert-poly": ["--config", str(CONFIGS / "rank3_h3.json")],
    "monomial-sigma": ["--n", "1", "--generators", "1,0", "--d=0:1"],
}
SUBCOMMANDS = next(
    list(action.choices) for action in build_parser()._actions
    if isinstance(action, argparse._SubParsersAction)
)


@pytest.mark.parametrize("command", SUBCOMMANDS)
def test_cli_out_into_missing_directory_is_input_error(command, tmp_path, capsys):
    """An ``--out`` path that cannot be written ends in an error line and
    exit 1, not a traceback, on every subcommand the parser has."""
    target = tmp_path / "missing" / "x.txt"
    code = main([command, *RUNNABLE[command], "--out", str(target)])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert captured.err.startswith(f"error: cannot write {target}: ")
    assert not target.parent.exists()


@pytest.mark.parametrize("command", [
    ["h0-table"], ["cohomology-table", "--i", "0"], ["euler-table"], ["hilbert-table"],
])
def test_cli_q_window_on_rank_one_class_group_is_refused(command, capsys):
    """P^2 has a rank-1 class group, so a q range cannot apply to it."""
    code = main(command + [
        "--config", str(CONFIGS / "line_bundle_p2.json"), "--p=0:1", "--q=5:6",
    ])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert captured.err.startswith("error: ") and "--q" in captured.err


def test_cli_json_roundtrip(tmp_path):
    out_file = tmp_path / "table.json"
    code, _ = run_cli([
        "euler-table", "--config", str(CONFIGS / "rank3_h3.json"),
        "--p=0:2", "--q=-1:1", "--format", "json", "--out", str(out_file),
    ])
    assert code == 0
    payload = json.loads(out_file.read_text())
    assert payload["p"] == [0, 1, 2]
    assert payload["q"] == [1, 0, -1]
    sheaf = rank3_example_sheaf()
    from toricsheaf import euler_characteristic

    for qi, q in enumerate(payload["q"]):
        for pi, p in enumerate(payload["p"]):
            assert payload["values"][qi][pi] == euler_characteristic(sheaf, (p, q))


def test_cli_csv_roundtrip():
    code, out = run_cli([
        "hilbert-table", "--config", str(CONFIGS / "rank3_h3.json"),
        "--p=5:7", "--q=-1:1",
    ])
    assert code == 0
    blocks = out.strip().split("\n\n")
    lines = blocks[0].splitlines()
    header = lines[0].split(",")
    assert header[0] == "q\\p"
    sheaf = rank3_example_sheaf()
    from toricsheaf import hilbert_function

    for line in lines[1:]:
        cells = line.split(",")
        q = int(cells[0])
        for pi, cell in enumerate(cells[1:]):
            p = int(header[1 + pi])
            assert int(cell) == hilbert_function(sheaf, (p, q))
    assert blocks[1].splitlines()[0] == "in_omega"


def test_cli_bounds_text():
    code, out = run_cli(["bounds", "--config", str(CONFIGS / "rank3_h3.json")])
    assert code == 0
    assert "omega: p >= 5 and q >= -1" in out
    assert "L: q >= -6 and p + 3*q >= -24" in out


def test_cli_bounds_unsupported_family_exit_code():
    code, _ = run_cli(["bounds", "--config", str(CONFIGS / "line_bundle_p2.json")])
    assert code == 2


def test_cli_hilbert_poly_text():
    code, out = run_cli(["hilbert-poly", "--config", str(CONFIGS / "rank3_h3.json")])
    assert code == 0
    assert out.strip() == "P(p, q) = 3*p*q + 9/2*q^2 + 11*p + 77/2*q + 56"


def test_cli_hilbert_poly_json():
    code, out = run_cli([
        "hilbert-poly", "--config", str(CONFIGS / "rank3_h3.json"), "--format", "json",
    ])
    assert code == 0
    payload = json.loads(out)
    assert payload["variables"] == ["p", "q"]
    assert {"exponents": [1, 1], "coefficient": "3"} in payload["terms"]


def test_cli_monomial_sigma_grid():
    code, out = run_cli([
        "monomial-sigma", "--n", "2", "--generators", "0,0,2;1,0,1;1,1,0",
        "--cone", "rho1,rho2", "--d=-2:2",
    ])
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "d2\\d1,-2,-1,0,1,2"
    # row d2 = 0: condition (d1 >= 1) only
    row0 = next(line for line in lines if line.startswith("0,"))
    assert row0 == "0,0,0,0,1,1"


def test_cli_monomial_sigma_ranges_joined_by_commas():
    """``--d=lo:hi,lo:hi`` gives one range per coordinate, a negative bound
    included, and the same output as the ranges given as separate words."""
    base = ["monomial-sigma", "--n", "2", "--generators", "0,0,2;1,0,1;1,1,0", "--cone", "rho1,rho2"]
    assert run_cli(base + ["--d=0:1,0:2"]) == run_cli(base + ["--d", "0:1", "0:2"])
    code, out = run_cli(base + ["--d=-2:0,-1:2"])
    _, shared = run_cli(base + ["--d=-2:2"])
    # the cells d1 in -2..0 and d2 in -1..2 of the window shared by both coordinates
    rows = [line.split(",") for line in shared.splitlines()]
    assert code == 0
    assert [line.split(",") for line in out.splitlines()] == [row[:4] for row in rows[:5]]


@pytest.mark.parametrize("args, message", [
    (["--n", "2", "--generators", "1,2"], "generator exponents must have length 3"),
    (["--n", "2", "--generators=-1,0,0"], "generator exponent must be at least 0, got -1"),
    (["--n", "0", "--generators", "1"], "projective dimension must be at least 1, got 0"),
    (["--n", "2", "--generators", "1,0,0", "--cone", "rho0,rho0"], "cone rays must be distinct"),
    (["--n", "2", "--generators", "0,0,2", "--cone", "rho0,rho1,rho2"], "is not a cone of the fan"),
])
def test_cli_monomial_sigma_bad_input(args, message, capsys):
    """Bad generators, dimensions and cones end in an error line and exit 1."""
    code = main(["monomial-sigma", *args, "--d=0:1"])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err


def test_cli_internal_consistency_exit_code(monkeypatch):
    from toricsheaf import cli
    from toricsheaf.errors import InternalConsistencyError

    def broken(sheaf):
        raise InternalConsistencyError("forced by the test")

    monkeypatch.setattr(cli.hilbert, "hilbert_polynomial", broken)
    code = cli.main(["hilbert-poly", "--config", str(CONFIGS / "rank3_h3.json")])
    assert code == 3


def test_cli_installed_entry_point():
    result = subprocess.run(
        [sys.executable, "-m", "toricsheaf.cli", "validate",
         "--config", str(CONFIGS / "tangent_h3.json")],
        capture_output=True, text=True,
    )
    assert result.returncode == 0
    assert result.stdout.strip() == "ok"


@pytest.mark.parametrize("args, message", [
    (["validate"], "the following arguments are required: --config"),
    (["cohomology-table", "--i", "x", "--config", str(CONFIGS / "rank3_h3.json"), "--p=0:1"],
     "argument --i: invalid int value: 'x'"),
    (["frobnicate"], "invalid choice: 'frobnicate'"),
    ([], "the following arguments are required: command"),
    (["cohomology-table", "--i", "\u0661", "--config", str(CONFIGS / "rank3_h3.json"), "--p=0:1"],
     "argument --i: invalid int value: '\u0661'"),
    (["monomial-sigma", "--n", "1_0", "--generators", "1,0", "--d=0:1"],
     "argument --n: invalid int value: '1_0'"),
    (["monomial-sigma", "--n= 2", "--generators", "1,0,0", "--d=0:1"],
     "argument --n: invalid int value: ' 2'"),
])
def test_cli_usage_error_exits_one(args, message, capsys):
    """argparse exits 2 on a usage error, but here 2 means an unsupported
    computation: a usage error is invalid input, exit 1, with the usage and
    an error line on stderr.  An integer option takes only a plain ASCII
    integer: '1_0', ' 2' and non-ASCII digits, which ``int`` accepts, are
    usage errors."""
    with pytest.raises(SystemExit) as exc:
        main(args)
    captured = capsys.readouterr()
    assert exc.value.code == 1 and captured.out == ""
    assert captured.err.startswith("usage: toricsheaf")
    assert "error: " in captured.err and message in captured.err


def test_cli_usage_error_and_help_exit_codes_of_the_process():
    def run(*args):
        return subprocess.run(
            [sys.executable, "-m", "toricsheaf.cli", *args], capture_output=True, text=True
        )

    usage = run("validate")
    assert usage.returncode == 1 and "error: " in usage.stderr
    for args in (["--help"], ["h0-table", "--help"]):
        shown = run(*args)
        assert shown.returncode == 0 and shown.stdout.startswith("usage: toricsheaf")
    unsupported = run("bounds", "--config", str(CONFIGS / "line_bundle_p2.json"))
    assert unsupported.returncode == 2


P1_SHEAF = {"rank": 1, "filtrations": [{"jumps": [0]}, {"jumps": [0]}]}


@pytest.mark.parametrize("config, message", [
    ({"variety": P1, "sheaf": P1_SHEAF, "twist": [1]},
     "unknown key 'twist' in the configuration"),
    ({"variety": {"family": "hirzebruch", "a": 1, "b": 2}, "sheaf": P1_SHEAF},
     "unknown key 'b' in the hirzebruch variety"),
    ({"variety": {"family": "projective", "n": 1, "a": [1]}, "sheaf": P1_SHEAF},
     "unknown key 'a' in the projective variety"),
    ({"variety": P1, "sheaf": {**P1_SHEAF, "rnk": 1}},
     "unknown key 'rnk' in the sheaf section"),
    ({"variety": P1, "sheaf": {"rnk": 1, "filtrations": P1_SHEAF["filtrations"]}},
     "unknown key 'rnk' in the sheaf section"),
    ({"variety": P1, "sheaf": {"rank": 1, "filtrations": [
        {"jumps": [0]}, {"jumps": [0], "space": [[[1]]], "note": "x"}]}},
     "unknown keys 'space', 'note' in the filtration for ray rho1"),
], ids=["top-level", "variety", "variety-of-another-family", "sheaf", "sheaf-misspelt",
        "filtration"])
def test_config_refuses_unknown_keys(config, message, tmp_path, capsys):
    """An unknown key is refused where it sits, not ignored: a misspelt
    'spaces' would otherwise surface as a jump/space coincidence error."""
    with pytest.raises(ConfigError, match=message):
        parse_config(config)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(config))
    code = main(["validate", "--config", str(path)])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert captured.err.startswith(f"error: {message}")


def test_bundled_configs_use_only_known_keys():
    for path in SHIPPED_CONFIGS.values():
        load_config(path)


# values a mutant puts in place of a config value: integers stay in
# [-4, 4], so that no mutant asks for an unbounded walk
_SCALARS = st.one_of(
    st.integers(-4, 4), st.booleans(), st.none(), st.sampled_from([0.5, 2.0, -1.0]),
    st.sampled_from(["", "2", "1/2", "-1/3", "1/0", "x", "projective", "hirzebruch",
                     "split_bundle"]),
)
_KEYS = st.sampled_from(["variety", "sheaf", "family", "n", "a", "s", "rank", "filtrations",
                         "jumps", "spaces", "extra"])
_VALUES = st.recursive(
    _SCALARS,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(_KEYS, inner, max_size=2),
    max_leaves=6,
)
_BUNDLED = {path.name: json.loads(path.read_text()) for path in SHIPPED_CONFIGS.values()}


def _paths(node, prefix=()):
    """The path of every value in a JSON tree, the root first."""
    yield prefix
    if isinstance(node, (dict, list)):
        for key, child in node.items() if isinstance(node, dict) else enumerate(node):
            yield from _paths(child, prefix + (key,))


def _mutated(data, draw):
    """One mutation of a JSON tree: a value replaced by an integer or by a
    value of another type or shape, wrapped in a list, or unwrapped from
    one, a list entry dropped or repeated, a key dropped or an unknown key
    added."""
    data = deepcopy(data)
    # the root last: hypothesis leans to the first entries
    root, *paths = _paths(data)
    path = draw(st.sampled_from(paths + [root]))
    if not path:
        return draw(_VALUES)
    parent = data
    for key in path[:-1]:
        parent = parent[key]
    key, value = path[-1], parent[path[-1]]
    kinds = ["integer", "integer", "replace", "wrap"]
    if isinstance(value, list):
        kinds += ["unwrap", "drop", "repeat"] if value else []
    if isinstance(value, dict):
        kinds += ["drop_key", "add_key"] if value else ["add_key"]
    kind = draw(st.sampled_from(kinds))
    if kind == "integer":
        parent[key] = draw(st.integers(-4, 4))
    elif kind == "replace":
        parent[key] = draw(_VALUES)
    elif kind == "wrap":
        parent[key] = [value]
    elif kind == "unwrap":
        parent[key] = value[0]
    elif kind == "drop":
        del value[draw(st.integers(0, len(value) - 1))]
    elif kind == "repeat":
        value.append(deepcopy(value[draw(st.integers(0, len(value) - 1))]))
    elif kind == "drop_key":
        del value[draw(st.sampled_from(sorted(value)))]
    else:
        value[draw(_KEYS)] = draw(_VALUES)
    return data


def _run_main(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.sampled_from(sorted(_BUNDLED)), st.integers(1, 3), st.data())
def test_mutated_configs_never_crash_the_cli(name, mutations, data):
    """A config mutated in its types, list lengths, keys and nesting ends
    every command in exit 0, exit 1 with one 'error:' line (or, for
    validate, the problem list) or exit 2 with one 'unsupported:' line:
    never a traceback and never exit 3."""
    config = _BUNDLED[name]
    for _ in range(mutations):
        config = _mutated(config, data.draw)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / name
        path.write_text(json.dumps(config))
        try:
            window = ["--p=0:0"] + ["--q=0:0"] * (load_config(path).variety.class_rank == 2)
        except ConfigError:
            window = ["--p=0:0"]
        for argv in (["validate"], ["bounds"], ["h0-table", *window]):
            code, out, err = _run_main([argv[0], "--config", str(path), *argv[1:]])
            lines = err.splitlines()
            if code == 0:
                assert out and not err
            elif code == 1 and argv[0] == "validate" and not err:
                assert out.splitlines() == validate_sheaf(load_config(path).sheaf) != []
            elif code == 1:
                assert not out and lines[0].startswith("error: ")
                assert not any(line.startswith("error:") for line in lines[1:])
                # only the invalid-sheaf error goes on, one indented problem a line
                assert all(line.startswith("  ray ") for line in lines[1:])
            else:
                assert code == 2, (argv, code, err)
                assert not out and len(lines) == 1 and lines[0].startswith("unsupported: ")


@pytest.mark.parametrize("argv", [["bounds"], ["h0-table", "--p=0:0", "--q=0:0"]])
def test_cli_refuses_an_invalid_sheaf_before_it_computes(argv, tmp_path):
    """A config that loads but breaks a filtration rule ends in one
    'error: invalid sheaf:' line and the problems, one indented line each."""
    config = deepcopy(_BUNDLED["rank3_h3.json"])
    config["sheaf"]["filtrations"][0]["jumps"] = [-1, -3, 0]
    path = tmp_path / "unsorted.json"
    path.write_text(json.dumps(config))
    code, out, err = _run_main([argv[0], "--config", str(path), *argv[1:]])
    problems = validate_sheaf(load_config(path).sheaf)
    assert problems and code == 1 and out == ""
    assert err.splitlines() == ["error: invalid sheaf:", *(f"  {p}" for p in problems)]
