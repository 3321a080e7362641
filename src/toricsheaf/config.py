"""Loading of variety and sheaf descriptions from JSON configuration files.

A job configuration looks like::

    {
      "variety": {"family": "hirzebruch", "a": 3},
      "sheaf": {
        "rank": 3,
        "filtrations": [
          {"jumps": [-3, -1, 0],
           "spaces": [[[3, 3, 1]], [[3, 3, 1], [4, 0, 2]]]},
          ...
        ]
      }
    }

One filtration entry per ray, in fan ray order.  Each entry of ``spaces`` is
a generator list for one filtration step; vector entries are integers or
exact fraction strings like "1/3".  The final space may be omitted, in which
case it is the full ambient space.  Generator lists need not be echelonized;
canonicalization happens on load.  A key not shown here, at any level, is
refused.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

from .errors import ConfigError
from .filtration import EquivariantReflexiveSheaf, KlyachkoFiltration
from .rational_linalg import Subspace
from .toric import ToricVariety, hirzebruch, projective_space, split_bundle, strict_int, strict_ints


def config_keys(data: dict, known: tuple[str, ...], where: str) -> None:
    """Refuse a configuration object with a key outside ``known``."""
    unknown = [key for key in data if key not in known]
    if unknown:
        raise ConfigError(
            f"unknown key{'s' if len(unknown) > 1 else ''} {', '.join(map(repr, unknown))} "
            f"in {where}; expected {', '.join(map(repr, known))}"
        )


# the keys of a variety descriptor beside "family", per family
_FAMILY_KEYS = {"projective": ("n",), "hirzebruch": ("a",), "split_bundle": ("s", "a")}


def build_variety(descriptor: dict) -> ToricVariety:
    """Build a variety from a configuration mapping.

    Accepted forms: {"family": "projective", "n": 2},
    {"family": "hirzebruch", "a": 3},
    {"family": "split_bundle", "s": 1, "a": [3]}.
    """
    try:
        family = descriptor["family"]
    except (KeyError, TypeError):
        raise ConfigError("variety descriptor needs a 'family' key") from None
    if not isinstance(family, str) or family not in _FAMILY_KEYS:
        raise ConfigError(f"unknown variety family {family!r}")
    config_keys(descriptor, ("family", *_FAMILY_KEYS[family]), f"the {family} variety")
    try:
        if family == "projective":
            return projective_space(strict_int(descriptor["n"], "variety 'n'"))
        if family == "hirzebruch":
            return hirzebruch(strict_int(descriptor["a"], "variety 'a'"))
        weights = descriptor["a"]
        if not isinstance(weights, list):
            raise ConfigError(f"variety 'a' must be a list of integers, got {weights!r}")
        return split_bundle(
            strict_int(descriptor["s"], "variety 's'"),
            [strict_int(x, "variety 'a' entry") for x in weights],
        )
    except KeyError as exc:
        raise ConfigError(f"variety descriptor for {family!r} misses key {exc}") from None
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


@dataclass(frozen=True)
class JobConfig:
    sheaf: EquivariantReflexiveSheaf

    @property
    def variety(self) -> ToricVariety:
        return self.sheaf.variety


def _parse_space(generators, rank: int, where: str) -> Subspace:
    if not isinstance(generators, list):
        raise ConfigError(f"{where}: expected a list of generator vectors")
    for gi, gen in enumerate(generators):
        if not isinstance(gen, list):
            raise ConfigError(f"{where}, generator {gi}: expected a vector")
    try:
        return Subspace(rank, generators)
    except ValueError as exc:
        raise ConfigError(f"{where}: {exc}") from None


def parse_sheaf(variety: ToricVariety, data: dict) -> EquivariantReflexiveSheaf:
    """The sheaf section on this variety; a value the library refuses is
    refused as a ConfigError with the library's message."""
    try:
        return _sheaf_section(variety, data)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


def _sheaf_section(variety: ToricVariety, data: dict) -> EquivariantReflexiveSheaf:
    if not isinstance(data, dict):
        raise ConfigError("sheaf section must be an object with 'rank' and 'filtrations'")
    config_keys(data, ("rank", "filtrations"), "the sheaf section")
    try:
        rank = data["rank"]
        entries = data["filtrations"]
    except KeyError as exc:
        raise ConfigError(f"sheaf section needs 'rank' and 'filtrations': {exc}") from None
    rank = strict_int(rank, "sheaf 'rank'")
    if rank < 1:
        raise ConfigError("sheaf rank must be at least 1")
    if not isinstance(entries, list) or len(entries) != variety.ray_count:
        raise ConfigError(
            f"need one filtration per ray ({variety.ray_count}), got "
            f"{len(entries) if isinstance(entries, list) else type(entries).__name__}"
        )
    filtrations = []
    for k, entry in enumerate(entries):
        where = f"filtration for ray {variety.ray_names[k]}"
        if not isinstance(entry, dict):
            raise ConfigError(f"{where}: expected an object with 'jumps'")
        config_keys(entry, ("jumps", "spaces"), f"the {where}")
        if "jumps" not in entry:
            raise ConfigError(f"{where}: expected an object with 'jumps'")
        jumps = entry["jumps"]
        if not isinstance(jumps, list) or len(jumps) != rank:
            raise ConfigError(f"{where}: 'jumps' must list {rank} integers")
        jumps = strict_ints(jumps, f"{where}: jump")
        raw_spaces = entry.get("spaces", [])
        if not isinstance(raw_spaces, list) or len(raw_spaces) > rank:
            raise ConfigError(f"{where}: 'spaces' must list at most {rank} generator lists")
        spaces = [
            _parse_space(gens, rank, f"{where}, space {i + 1}")
            for i, gens in enumerate(raw_spaces)
        ]
        while len(spaces) < rank:
            spaces.append(Subspace.full(rank))
        filtrations.append(KlyachkoFiltration(jumps, tuple(spaces)))
    return EquivariantReflexiveSheaf(variety, tuple(filtrations))


def parse_config(data: dict) -> JobConfig:
    if not isinstance(data, dict):
        raise ConfigError("configuration must be a JSON object")
    config_keys(data, ("variety", "sheaf"), "the configuration")
    if "variety" not in data or "sheaf" not in data:
        raise ConfigError("configuration needs 'variety' and 'sheaf' sections")
    variety = build_variety(data["variety"])
    sheaf = parse_sheaf(variety, data["sheaf"])
    return JobConfig(sheaf)


def load_config(path: str | Path) -> JobConfig:
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read {path}: {exc}") from None
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: invalid JSON at line {exc.lineno}, column {exc.colno}") from None
    return parse_config(data)
