"""Command-line front end.

The command table, ``COMMANDS``, declares every subcommand with its own
options and the options they share.  Tables are indexed by the twisting
class: rows run over q descending, columns over p ascending.  ``--p`` is
required, and so is ``--q`` on a rank-2 class group; varieties with a rank-1
class group produce a single row over p and refuse ``--q``.  Ranges and
integer options take plain ASCII integers.  Every command ends in one
writer, which prints the CSV or text form, or the JSON payload under
``--format json``, to stdout or to the ``--out`` file.  Exit codes: 0
success, 1 validation or input failure (a usage error and an unwritable
``--out`` too), 2 unsupported computation, 3 internal consistency failure.
"""
from __future__ import annotations

import argparse
import json
import sys
from collections.abc import Callable
from functools import partial
from itertools import product
from pathlib import Path

from . import hilbert
from .cohomology import SheafCohomology
from .config import JobConfig, load_config
from .errors import ConfigError, InternalConsistencyError, UnsupportedVarietyError
from .filtration import validate as validate_sheaf
from .polynomials import format_polynomial, graded_exponents
from .monomial import MonomialIdeal, sigma_piece_dim
from .toric import Cone, FrozenValue, projective_space


def _int(text: str) -> int:
    """A plain ASCII integer, an optional '-' then digits; ``int`` alone
    would also take '1_0', ' 3' and non-ASCII digits."""
    digits = text[1:] if text.startswith("-") else text
    if not (digits.isascii() and digits.isdigit()):
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")
    return int(text)


def _parse_span(text: str) -> list[int]:
    lo, _, hi = text.partition(":")
    try:
        return list(range(_int(lo), _int(hi) + 1))
    except argparse.ArgumentTypeError:
        raise ConfigError(f"range {text!r} must look like lo:hi") from None


def _emit(args, text: str, payload) -> int:
    """Write a command's result: ``payload`` as JSON under ``--format json``,
    ``text`` otherwise, to the ``--out`` file or to stdout."""
    if args.format == "json":
        text = json.dumps(payload, indent=2) + "\n"
    if args.out:
        try:
            Path(args.out).write_text(text)
        except OSError as exc:
            raise ConfigError(f"cannot write {args.out}: {exc.strerror}") from None
    else:
        sys.stdout.write(text if text.endswith("\n") else text + "\n")
    return 0


def _grid(corner: str, columns, labels, rows) -> str:
    """CSV grid: ``corner`` and the column values, then one labelled line per row."""
    lines = [f"{corner}," + ",".join(map(str, columns))]
    lines += [f"{label}," + ",".join(map(str, row)) for label, row in zip(labels, rows)]
    return "\n".join(lines) + "\n"


def _load_validated(args) -> JobConfig:
    cfg = load_config(args.config)
    problems = validate_sheaf(cfg.sheaf)
    if problems:
        raise ConfigError("invalid sheaf:\n" + "\n".join(f"  {p}" for p in problems))
    return cfg


def _class_axes(cfg: JobConfig, args) -> tuple[list[int], list[int | None]]:
    if args.p is None:
        raise ConfigError("--p is required: give the p range as --p=lo:hi")
    p_list = _parse_span(args.p)
    if cfg.variety.class_rank == 1:
        if args.q is not None:
            raise ConfigError("--q needs a variety whose class group has rank 2")
        return p_list, [None]
    if args.q is None:
        raise ConfigError("--q is required on a rank-2 class group: give the q range as --q=lo:hi")
    return p_list, list(reversed(_parse_span(args.q)))


def _cmd_validate(args) -> int:
    problems = validate_sheaf(load_config(args.config).sheaf)
    _emit(args, "\n".join(problems) or "ok", {"problems": problems})
    return 1 if problems else 0


def _table(command: _Command, args) -> int:
    """Load the config once, make the command's cell function from it and
    write the table over the twist window, with the regularity-corner mask
    when the command has ``in_omega``."""
    cfg = _load_validated(args)
    p_list, q_list = _class_axes(cfg, args)
    cell = command.cell(cfg, args)
    rows = [[cell((p,) if q is None else (p, q)) for p in p_list] for q in q_list]
    labels = ["h" if q is None else q for q in q_list]
    text = _grid("q\\p", p_list, labels, rows)
    payload = {
        "command": args.command,
        "p": p_list,
        "q": None if cfg.variety.class_rank == 1 else q_list,
        "values": rows,
    }
    if command.in_omega and cfg.variety.is_split_bundle:
        region = hilbert.regularity_region(cfg.sheaf)
        mask = [[region.contains(p, q) for p in p_list] for q in q_list]
        text += "\nin_omega\n" + _grid("q\\p", p_list, labels, [map(int, m) for m in mask])
        payload["in_omega"] = mask
    return _emit(args, text, payload)


def _cohomology_cell(cfg: JobConfig, args):
    if not 0 <= args.i <= cfg.variety.dim:
        raise UnsupportedVarietyError(f"cohomology degree {args.i} out of range "
                                      f"0..{cfg.variety.dim}")
    engine = SheafCohomology(cfg.sheaf)
    return lambda c: engine.cech_twisted(c)[args.i]


def _region_json(region) -> dict:
    return {
        "kind": region.kind,
        "index": region.index,
        "planes": [[pl.p_coeff, pl.q_coeff, pl.bound] for pl in region.planes],
    }


def _cmd_bounds(args) -> int:
    cfg = _load_validated(args)
    lower = hilbert.lower_support_region(cfg.sheaf)
    uppers = hilbert.upper_support_regions(cfg.sheaf)
    omega = hilbert.regularity_region(cfg.sheaf)
    payload = {
        "L": _region_json(lower),
        "upper_components": [_region_json(r) for r in uppers],
        "omega": _region_json(omega),
    }
    return _emit(args, "\n".join(map(str, [lower, *uppers, omega])) + "\n", payload)


def _cmd_hilbert_poly(args) -> int:
    poly = hilbert.hilbert_polynomial(_load_validated(args).sheaf)
    text = format_polynomial(poly, ("p", "q"))
    payload = {
        "variables": ["p", "q"],
        "terms": [{"exponents": list(exps), "coefficient": str(poly.coeffs[exps])}
                  for exps in graded_exponents(poly)],
        "text": text,
    }
    return _emit(args, f"P(p, q) = {text}\n", payload)


def _cmd_monomial_sigma(args) -> int:
    blocks = [block.split(",") for block in args.generators.split(";") if block.strip()]
    try:
        generators = [tuple(map(_int, block)) for block in blocks]
    except argparse.ArgumentTypeError:
        raise ConfigError("generators must look like '0,0,2;1,0,1;1,1,0'") from None
    names = [name.strip() for name in args.cone.split(",")] if args.cone else []
    try:
        ideal = MonomialIdeal(args.n, tuple(generators))
        variety = projective_space(args.n)
        indices = tuple(variety.ray_index(name) for name in names)
        cone = variety.check_cone(Cone(indices, variety.dim - len(indices)))
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    # one word per range, or ranges joined by commas, as in --d=-1:0,0:1
    spans = [_parse_span(text) for word in args.d for text in word.split(",")]
    if len(spans) == 1:
        spans *= variety.dim
    if len(spans) != variety.dim:
        raise ConfigError(f"need a character range per coordinate ({variety.dim})")
    if variety.dim == 2:
        d1_list, d2_list = spans[0], spans[1][::-1]
        rows = [[sigma_piece_dim(ideal, cone, (d1, d2)) for d1 in d1_list] for d2 in d2_list]
        payload = {"d1": d1_list, "d2": d2_list, "values": rows}
        return _emit(args, _grid("d2\\d1", d1_list, d2_list, rows), payload)
    records = [{"character": list(m), "value": sigma_piece_dim(ideal, cone, m)}
               for m in product(*spans)]
    lines = [",".join(map(str, [*rec["character"], rec["value"]])) for rec in records]
    return _emit(args, "\n".join(lines) + "\n", records)


class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors exit 1, the code of invalid
    input, rather than argparse's 2, which here means unsupported."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


# an option: its flag and the keywords of ``add_argument``
_CONFIG = ("--config", {"required": True, "help": "JSON job configuration"})
_OUTPUT = (
    ("--out", {"help": "write output to this file instead of stdout"}),
    ("--format", {"choices": ("csv", "json"), "default": "csv"}),
)
_WINDOW = (
    ("--p", {"help": "p range lo:hi, required (use --p=lo:hi for negatives)"}),
    ("--q", {"help": "q range lo:hi, required on a rank-2 class group"}),
)


class _Command(FrozenValue):
    """A subcommand: ``run`` handles its arguments, or, for a table, ``cell``
    makes the cell function from the config and the arguments and
    ``in_omega`` adds the regularity-corner mask.  Its options are
    ``inputs``, then the output options every command shares, then ``options``."""

    name: str
    help: str
    run: Callable[[argparse.Namespace], int] | None = None
    cell: Callable[[JobConfig, argparse.Namespace], Callable] | None = None
    in_omega: bool = False
    inputs: tuple = (_CONFIG,)
    options: tuple = ()


COMMANDS = (
    _Command("validate", "check the filtration invariants", run=_cmd_validate),
    _Command("h0-table", "global-section dimensions over a twist window", options=_WINDOW,
             cell=lambda cfg, args: SheafCohomology(cfg.sheaf).h0_twisted),
    _Command("cohomology-table", "h^i from the fan's cone complex over a twist window",
             cell=_cohomology_cell, options=(
                 *_WINDOW, ("--i", {"type": _int, "required": True, "help": "cohomology degree"}))),
    _Command("euler-table", "Euler characteristics over a twist window", options=_WINDOW,
             cell=lambda cfg, args: SheafCohomology(cfg.sheaf).chi_twisted),
    _Command("hilbert-table", "Hilbert function from Mobius-weighted section counts",
             options=_WINDOW, in_omega=True,
             cell=lambda cfg, args: partial(hilbert.hilbert_function, cfg.sheaf)),
    _Command("bounds", "support bounds and the regularity corner", run=_cmd_bounds),
    _Command("hilbert-poly", "interpolated Hilbert polynomial", run=_cmd_hilbert_poly),
    _Command("monomial-sigma", "0/1 cone pieces of a monomial ideal on P^n",
             run=_cmd_monomial_sigma, inputs=(
                 ("--n", {"type": _int, "required": True, "help": "projective dimension"}),
                 ("--generators", {"required": True, "help": "exponents like '0,0,2;1,0,1'"}),
                 ("--cone", {"default": "", "help": "comma-separated ray names; empty = zero cone"}),
                 ("--d", {"nargs": "+", "required": True, "help": "character range(s) lo:hi[,lo:hi...]"}),
             )),
)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="toricsheaf",
        description="cohomology and Hilbert data of reflexive sheaves on toric varieties",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command in COMMANDS:
        p = sub.add_parser(command.name, help=command.help)
        for flag, keywords in (*command.inputs, *_OUTPUT, *command.options):
            p.add_argument(flag, **keywords)
        p.set_defaults(func=command.run or partial(_table, command))
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except UnsupportedVarietyError as exc:
        print(f"unsupported: {exc}", file=sys.stderr)
        return 2
    except InternalConsistencyError as exc:
        print(f"internal consistency failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
