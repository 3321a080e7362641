"""Command-line front end.

Commands: validate, h0-table, cohomology-table, euler-table, hilbert-table,
bounds, hilbert-poly, monomial-sigma.  Tables are indexed by the twisting
class: rows run over q descending, columns over p ascending.  ``--p`` is
required, and so is ``--q`` on a rank-2 class group; varieties with a rank-1
class group produce a single row over p and refuse ``--q``.  Every
command ends in one writer, which prints the CSV or text form, or the JSON
payload under ``--format json``, to stdout or to the ``--out`` file.  Exit
codes: 0 success, 1 validation or input failure (a usage error and an
unwritable ``--out`` too), 2 unsupported computation, 3 internal
consistency failure.
"""
from __future__ import annotations

import argparse
import json
import sys
from functools import partial
from itertools import product
from pathlib import Path

from . import hilbert
from .cohomology import SheafCohomology
from .config import JobConfig, load_config
from .errors import ConfigError, InternalConsistencyError, UnsupportedVarietyError
from .filtration import validate as validate_sheaf
from .hilbert import format_polynomial, graded_exponents
from .monomial import MonomialIdeal, sigma_piece_dim
from .toric import Cone, projective_space


def _parse_span(text: str) -> list[int]:
    try:
        lo, hi = text.split(":")
        lo, hi = int(lo), int(hi)
    except ValueError:
        raise ConfigError(f"range {text!r} must look like lo:hi") from None
    return list(range(lo, hi + 1))


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


def _class_of(p: int, q: int | None) -> tuple[int, ...]:
    return (p,) if q is None else (p, q)


def _cmd_validate(args) -> int:
    cfg = load_config(args.config)
    problems = validate_sheaf(cfg.sheaf)
    _emit(args, "\n".join(problems) or "ok", {"problems": problems})
    return 1 if problems else 0


def _table_command(args, make_cell, omega: bool = False) -> int:
    """Load the config once, build the cell function from it, and write the
    table over the twist window; ``omega`` adds the regularity-corner mask
    on split-bundle varieties."""
    cfg = _load_validated(args)
    p_list, q_list = _class_axes(cfg, args)
    cell = make_cell(cfg)
    rows = [[cell(_class_of(p, q)) for p in p_list] for q in q_list]
    labels = ["h" if q is None else q for q in q_list]
    text = _grid("q\\p", p_list, labels, rows)
    payload = {
        "command": args.command,
        "p": p_list,
        "q": None if cfg.variety.class_rank == 1 else q_list,
        "values": rows,
    }
    if omega and cfg.variety.is_split_bundle:
        region = hilbert.regularity_region(cfg.sheaf)
        mask = [[region.contains(p, q) for p in p_list] for q in q_list]
        text += "\nin_omega\n" + _grid("q\\p", p_list, labels, [map(int, m) for m in mask])
        payload["in_omega"] = mask
    return _emit(args, text, payload)


def _cmd_h0_table(args) -> int:
    return _table_command(args, lambda cfg: SheafCohomology(cfg.sheaf).h0_twisted)


def _cmd_cohomology_table(args) -> int:
    def make_cell(cfg):
        if not 0 <= args.i <= cfg.variety.dim:
            raise UnsupportedVarietyError(
                f"cohomology degree {args.i} out of range 0..{cfg.variety.dim}"
            )
        engine = SheafCohomology(cfg.sheaf)
        return lambda c: engine.cech_twisted(c)[args.i]

    return _table_command(args, make_cell)


def _cmd_euler_table(args) -> int:
    return _table_command(args, lambda cfg: SheafCohomology(cfg.sheaf).chi_twisted)


def _cmd_hilbert_table(args) -> int:
    return _table_command(
        args, lambda cfg: partial(hilbert.hilbert_function, cfg.sheaf), omega=True
    )


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
    cfg = _load_validated(args)
    poly = hilbert.hilbert_polynomial(cfg.sheaf)
    text = format_polynomial(poly, ("p", "q"))
    payload = {
        "variables": ["p", "q"],
        "terms": [
            {"exponents": list(exps), "coefficient": str(poly.coeffs[exps])}
            for exps in graded_exponents(poly)
        ],
        "text": text,
    }
    return _emit(args, f"P(p, q) = {text}\n", payload)


def _cmd_monomial_sigma(args) -> int:
    try:
        generators = [
            tuple(int(x) for x in block.split(","))
            for block in args.generators.split(";")
            if block.strip()
        ]
    except ValueError:
        raise ConfigError("generators must look like '0,0,2;1,0,1;1,1,0'") from None
    names = [name.strip() for name in args.cone.split(",")] if args.cone else []
    try:
        ideal = MonomialIdeal(args.n, tuple(generators))
        variety = projective_space(args.n)
        indices = tuple(variety.ray_index(name) for name in names)
        cone = variety.check_cone(Cone(indices, variety.dim - len(indices)))
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    spans = [_parse_span(text) for text in args.d]
    if len(spans) == 1 and variety.dim > 1:
        spans = spans * variety.dim
    if len(spans) != variety.dim:
        raise ConfigError(f"need a character range per coordinate ({variety.dim})")
    if variety.dim == 2:
        d1_list = spans[0]
        d2_list = list(reversed(spans[1]))
        rows = [
            [sigma_piece_dim(ideal, cone, (d1, d2)) for d1 in d1_list]
            for d2 in d2_list
        ]
        payload = {"d1": d1_list, "d2": d2_list, "values": rows}
        return _emit(args, _grid("d2\\d1", d1_list, d2_list, rows), payload)
    records = [
        {"character": list(m), "value": sigma_piece_dim(ideal, cone, m)}
        for m in product(*spans)
    ]
    lines = [",".join(map(str, [*rec["character"], rec["value"]])) for rec in records]
    return _emit(args, "\n".join(lines) + "\n", records)


class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors exit 1, the code of invalid
    input, rather than argparse's 2, which here means unsupported."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="toricsheaf",
        description="cohomology and Hilbert data of reflexive sheaves on toric varieties",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_config(p):
        p.add_argument("--config", required=True, help="JSON job configuration")
        p.add_argument("--out", help="write output to this file instead of stdout")
        p.add_argument("--format", choices=("csv", "json"), default="csv")

    def add_window(p):
        p.add_argument("--p", help="p range lo:hi, required (use --p=lo:hi for negatives)")
        p.add_argument("--q", help="q range lo:hi, required on a rank-2 class group")

    p = sub.add_parser("validate", help="check the filtration invariants")
    add_config(p)
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("h0-table", help="global-section dimensions over a twist window")
    add_config(p)
    add_window(p)
    p.set_defaults(func=_cmd_h0_table)

    p = sub.add_parser("cohomology-table", help="h^i from the fan's cone complex over a twist window")
    add_config(p)
    add_window(p)
    p.add_argument("--i", type=int, required=True, help="cohomology degree")
    p.set_defaults(func=_cmd_cohomology_table)

    p = sub.add_parser("euler-table", help="Euler characteristics over a twist window")
    add_config(p)
    add_window(p)
    p.set_defaults(func=_cmd_euler_table)

    p = sub.add_parser("hilbert-table", help="Hilbert function by polytope counting")
    add_config(p)
    add_window(p)
    p.set_defaults(func=_cmd_hilbert_table)

    p = sub.add_parser("bounds", help="support bounds and the regularity corner")
    add_config(p)
    p.set_defaults(func=_cmd_bounds)

    p = sub.add_parser("hilbert-poly", help="interpolated Hilbert polynomial")
    add_config(p)
    p.set_defaults(func=_cmd_hilbert_poly)

    p = sub.add_parser("monomial-sigma", help="0/1 cone pieces of a monomial ideal on P^n")
    p.add_argument("--n", type=int, required=True, help="projective dimension")
    p.add_argument("--generators", required=True, help="exponents like '0,0,2;1,0,1'")
    p.add_argument("--cone", default="", help="comma-separated ray names; empty = zero cone")
    p.add_argument("--d", nargs="+", required=True, help="character range(s) lo:hi")
    p.add_argument("--out", help="write output to this file instead of stdout")
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.set_defaults(func=_cmd_monomial_sigma)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
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
