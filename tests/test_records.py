"""The record classes are immutable values, and a cold import stays small.

Each of the twelve record classes is built, compared, hashed, refused and
printed as a frozen dataclass with the same fields would be."""
import re
import subprocess
import sys
from collections import namedtuple
from pathlib import Path

import pytest

from toricsheaf import (
    CharacterBox,
    Cone,
    EquivariantReflexiveSheaf,
    HalfPlane,
    IntervalConstraintSystem,
    JobConfig,
    KlyachkoFiltration,
    MonomialIdeal,
    PresentationDegrees,
    Subspace,
    SupportRegion,
    ToricVariety,
    projective_space,
    structure_sheaf,
)
from toricsheaf.cli import _CONFIG, _Command

P2 = projective_space(2)
PLANES = (HalfPlane(0, 1, 0), HalfPlane(1, 1, 0))

# each record class, the values of its fields in order, and the values of
# the fields it defaults when they are left out
RECORDS = {
    "Cone": (Cone, ((0, 1), 0), {}),
    "ToricVariety": (ToricVariety, (P2.rays, P2.ray_names, None), {"split_s": None}),
    "KlyachkoFiltration": (KlyachkoFiltration, ((0,), (Subspace.full(1),)), {}),
    "EquivariantReflexiveSheaf": (
        EquivariantReflexiveSheaf, (P2, structure_sheaf(P2).filtrations), {}),
    "PresentationDegrees": (PresentationDegrees, (((0, 0, 0),), ((1, 0, 0),)), {}),
    "CharacterBox": (CharacterBox, ((0, -1), (2, 1)), {}),
    "IntervalConstraintSystem": (IntervalConstraintSystem, (((1, 0),), (0,), (None,)), {}),
    "HalfPlane": (HalfPlane, (1, 0, 5), {}),
    "SupportRegion": (SupportRegion, ("L", None, PLANES), {}),
    "MonomialIdeal": (MonomialIdeal, (2, ((1, 0, 0),)), {}),
    "JobConfig": (JobConfig, (structure_sheaf(P2),), {}),
    # the default inputs hold an option's keyword dict, so a command built
    # with them has no hash
    "_Command": (
        _Command, ("name", "help", None, None, True, (), ()),
        {"run": None, "cell": None, "in_omega": False,
         "inputs": (_CONFIG,), "options": ()}),
}


@pytest.mark.parametrize("name", RECORDS)
def test_each_record_class_is_a_frozen_value(name):
    cls, values, defaults = RECORDS[name]
    fields = cls.__match_args__
    assert len(fields) == len(values)
    a, b = cls(*values), cls(*values)
    assert a == b and a is not b and hash(a) == hash(b)
    assert cls(**dict(zip(fields, values))) == a
    assert tuple(getattr(a, f) for f in fields) == values
    required = len(fields) - len(defaults)
    assert fields[required:] == tuple(defaults)
    defaulted = cls(*values[:required])
    assert {f: getattr(defaulted, f) for f in defaults} == defaults
    assert defaulted == cls(*values[:required], **defaults)

    # another class with the same field values is another value, and so
    # is a value of another record class
    same_fields = namedtuple(name.lstrip("_"), fields)(*values)
    assert a.__eq__(same_fields) is NotImplemented
    assert a != same_fields and same_fields != a
    other_cls, other_values, _ = RECORDS["Cone" if cls is not Cone else "HalfPlane"]
    assert a.__eq__(other_cls(*other_values)) is NotImplemented

    for field in fields:
        with pytest.raises(AttributeError, match=f"^cannot assign to field '{field}'$"):
            setattr(a, field, getattr(a, field))
        with pytest.raises(AttributeError, match=f"^cannot delete field '{field}'$"):
            delattr(a, field)
    with pytest.raises(AttributeError, match="^cannot assign to field 'extra'$"):
        a.extra = 1
    assert a == b

    shown = ", ".join(f"{f}={v!r}" for f, v in zip(fields, values))
    assert repr(a) == f"{cls.__qualname__}({shown})"


def test_the_repr_of_a_record_lists_its_fields():
    assert repr(CharacterBox((0, -1), (2, 1))) == "CharacterBox(lower=(0, -1), upper=(2, 1))"
    assert repr(HalfPlane(1, 0, 5)) == "HalfPlane(p_coeff=1, q_coeff=0, bound=5)"
    assert repr(Cone((1, 0), 1)) == "Cone(ray_indices=(0, 1), codim=1)"


def test_a_record_hashes_its_field_tuple():
    box = CharacterBox((0, -1), (2, 1))
    assert hash(box) == hash(((0, -1), (2, 1)))
    assert hash(JobConfig(structure_sheaf(P2))) == hash((structure_sheaf(P2),))
    # the sheaf keeps its own hash, taken once, of the same tuple
    sheaf = structure_sheaf(P2)
    assert hash(sheaf) == hash((sheaf.variety, sheaf.filtrations))


@pytest.mark.parametrize("call, message", [
    (lambda: HalfPlane(1, 0),
     "HalfPlane.__init__() missing 1 required positional argument: 'bound'"),
    (lambda: HalfPlane(1), "HalfPlane.__init__() missing 2 required positional arguments: "
                           "'q_coeff' and 'bound'"),
    (lambda: HalfPlane(), "HalfPlane.__init__() missing 3 required positional arguments: "
                          "'p_coeff', 'q_coeff', and 'bound'"),
    (lambda: HalfPlane(1, 0, 5, 6),
     "HalfPlane.__init__() takes 4 positional arguments but 5 were given"),
    (lambda: ToricVariety(P2.rays, P2.ray_names, None, 1),
     "ToricVariety.__init__() takes from 3 to 4 positional arguments but 5 were given"),
    (lambda: HalfPlane(1, 0, bound=5, offset=1),
     "HalfPlane.__init__() got an unexpected keyword argument 'offset'"),
    (lambda: HalfPlane(1, 0, 5, p_coeff=1),
     "HalfPlane.__init__() got multiple values for argument 'p_coeff'"),
    (lambda: HalfPlane(1, 0, 5, 6, offset=1),
     "HalfPlane.__init__() got an unexpected keyword argument 'offset'"),
])
def test_a_record_call_is_refused_in_python_s_words(call, message):
    with pytest.raises(TypeError, match=f"^{re.escape(message)}$"):
        call()


def test_the_post_init_checks_run_after_the_fields_are_set():
    assert Cone((2, 0), 1).ray_indices == (0, 2)
    assert CharacterBox(lower=[0, -1], upper=[2, 1]).lower == (0, -1)
    with pytest.raises(ValueError, match="^lower bound exceeds upper bound$"):
        CharacterBox((1,), upper=(0,))


def test_a_cached_property_is_kept_with_the_value():
    variety = ToricVariety(P2.rays, P2.ray_names)
    assert "degrees" not in vars(variety)
    assert variety.degrees is variety.degrees == ((1,), (1,), (1,))
    assert variety == P2 and hash(variety) == hash(P2)


def test_a_cold_import_loads_no_dataclasses_inspect_or_typing():
    """Every command-line call and benchmark repetition imports the package
    in a fresh interpreter; ``-S`` keeps ``site`` from loading ``typing``
    first."""
    src = Path(__file__).resolve().parents[1] / "src"
    code = (
        f"import sys; sys.path.insert(0, {str(src)!r}); "
        "import toricsheaf, toricsheaf.cli; "
        "print(toricsheaf.__file__); "
        "print(*sorted({'dataclasses', 'inspect', 'typing'} & set(sys.modules)))"
    )
    out = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True,
                         check=True).stdout.splitlines()
    assert Path(out[0]).resolve().parent == src / "toricsheaf"
    assert out[1:] == [""]
