"""Every public name that reads an integer refuses a float, a bool and a
numeric string, by the name of the argument, never coercing them.

``CALLS`` holds one valid call for each function and class of
``toricsheaf.__all__`` that takes an integer or a sequence of integers,
and for each public method of an exported class that does, keyed by
``name`` or ``Class.method``: the callable, its arguments, and for each
integer argument its position and the ``where`` text of its refusal,
"<where> must be an integer, got <value>".  In a sequence, and in a
sequence of sequences, the first integer is the one replaced.  A
non-integral ``Fraction`` and ``None`` are refused the same way, but where
``None`` is documented.  Every integer sequence of the table is classed by
its length: fixed, free, or free but tied to another argument.
"""
import re
from fractions import Fraction

import pytest

import toricsheaf
from toricsheaf import (
    CharacterBox,
    Cone,
    EquivariantReflexiveSheaf,
    HalfPlane,
    IntervalConstraintSystem,
    KlyachkoFiltration,
    MonomialIdeal,
    PresentationDegrees,
    RationalPolynomial,
    SheafCohomology,
    Subspace,
    SupportRegion,
    ToricVariety,
    assemble_slices,
    bernoulli_number,
    bernoulli_polynomial,
    enumeration_box,
    euler_characteristic,
    faulhaber_sum,
    feasible_metasystem,
    feasible_system1,
    format_polynomial,
    hilbert_function,
    hirzebruch,
    in_support_lower_bound,
    in_support_upper_bound,
    intersect,
    line_bundle,
    omega_system,
    parse_config,
    projective_space,
    psi_m_sliced,
    psi_n,
    sigma_piece,
    sigma_piece_dim,
    simplex_sum,
    span,
    split_bundle,
    structure_sheaf,
    subspace_sum,
    twist,
)
from toricsheaf.rational_linalg import as_vector, matrix_rank, solve_square
from toricsheaf.toric import strict_int, strict_ints

from conftest import rank3_example_sheaf

P2 = projective_space(2)
H0 = hirzebruch(0)
SHEAF = rank3_example_sheaf()     # rank 3 on H_3: four rays, characters and classes in Z^2
ENGINE = SheafCohomology(SHEAF)
LEVELS = (3, 1, 3, 3)             # a level tuple of SHEAF: one level in 0..3 per ray
FILTRATION = KlyachkoFiltration((0, 2), (span([(1, 0)], 2), Subspace.full(2)))
HALF = HalfPlane(1, 0, 0)
X = RationalPolynomial.variable(0, 2)
P2_PLUS_Q = X ** 2 + RationalPolynomial.variable(1, 2)

CALLS = {
    "CharacterBox": (CharacterBox, ((0, 0), (2, 2)), {0: "box bound", 1: "box bound"}),
    "CharacterBox.__contains__": (
        CharacterBox((0, 0), (2, 2)).__contains__, ((1, 1),), {0: "character entry"}),
    "Cone": (Cone, ((0,), 1), {0: "cone ray index", 1: "cone codimension"}),
    "HalfPlane": (HalfPlane, (1, 0, 0), {0: "p_coeff", 1: "q_coeff", 2: "bound"}),
    "HalfPlane.contains": (HALF.contains, (1, 0), {0: "p", 1: "q"}),
    "IntervalConstraintSystem": (
        IntervalConstraintSystem, (((1, 0), (0, 1)), (0, 0), (2, None)),
        {0: "constraint row entry", 1: "lower bound", 2: "upper bound"}),
    "IntervalConstraintSystem.satisfied_by": (
        IntervalConstraintSystem(((1, 0), (0, 1)), (0, 0), (2, 2)).satisfied_by, ((1, 1),),
        {0: "point entry"}),
    "KlyachkoFiltration": (KlyachkoFiltration, ((0, 2), FILTRATION.spaces), {0: "jump"}),
    "KlyachkoFiltration.level": (FILTRATION.level, (1,), {0: "filtration position"}),
    "KlyachkoFiltration.evaluate": (FILTRATION.evaluate, (1,), {0: "filtration position"}),
    "KlyachkoFiltration.space_at_level": (FILTRATION.space_at_level, (1,), {0: "filtration level"}),
    "KlyachkoFiltration.shifted": (FILTRATION.shifted, (1,), {0: "offset"}),
    "MonomialIdeal": (
        MonomialIdeal, (2, ((0, 0, 2), (1, 0, 1))), {0: "projective dimension", 1: "generator exponent"}),
    "PresentationDegrees": (
        PresentationDegrees, (((0, 1),), ((2, 3),)), {0: "presentation degree", 1: "presentation degree"}),
    "RationalPolynomial": (RationalPolynomial, (2,), {0: "number of variables"}),
    "RationalPolynomial.constant": (RationalPolynomial.constant, (1, 2), {1: "number of variables"}),
    "RationalPolynomial.variable": (
        RationalPolynomial.variable, (0, 2), {0: "variable index", 1: "number of variables"}),
    "RationalPolynomial.degree_in": (X.degree_in, (0,), {0: "variable index"}),
    "RationalPolynomial.__pow__": (X.__pow__, (2,), {0: "power"}),
    "SheafCohomology.levels": (ENGINE.levels, ((1, 0), (0, 0, 0, 0)), {0: "character entry", 1: "shift"}),
    **{
        f"SheafCohomology.{method}": (getattr(ENGINE, method), (LEVELS,), {0: "level tuple entry"})
        for method in ("h0", "hn", "chi", "cech")
    },
    "SheafCohomology.piece": (
        ENGINE.piece, ((0, 2), LEVELS), {0: "ray index", 1: "level tuple entry"}),
    **{
        f"SheafCohomology.{method}": (getattr(ENGINE, method), ((1, 0),), {0: "class element entry"})
        for method in ("histogram", "h0_twisted", "hn_twisted", "chi_twisted", "cech_twisted",
                       "h1_identity_twisted")
    },
    "Subspace": (Subspace, (2, ((1, 0),)), {0: "ambient dimension"}),
    "Subspace.zero": (Subspace.zero, (2,), {0: "ambient dimension"}),
    "Subspace.full": (Subspace.full, (2,), {0: "ambient dimension"}),
    "SupportRegion": (SupportRegion, ("I", 1, (HALF, HALF)), {1: "index"}),
    "SupportRegion.contains": (SupportRegion("I", 1, (HALF, HALF)).contains, (1, 0), {0: "p", 1: "q"}),
    "ToricVariety": (
        ToricVariety,
        (H0.rays, H0.ray_names, H0.split_s),
        {0: "ray entry", 2: "split bundle s"}),
    "ToricVariety.pairing": (P2.pairing, ((1, 0), 1), {0: "character entry", 1: "ray index"}),
    "ToricVariety.character_embedding": (P2.character_embedding, ((1, 0),), {0: "character entry"}),
    "ToricVariety.check_class": (H0.check_class, ((1, 0),), {0: "class element entry"}),
    "ToricVariety.divisor_class": (H0.divisor_class, ((1, 0, 0, 0),), {0: "divisor coefficient"}),
    "ToricVariety.twist_divisor": (H0.twist_divisor, ((1, 0),), {0: "class element entry"}),
    "assemble_slices": (
        assemble_slices, (SHEAF, (3, 1, 3, 3), 30, 3), {1: "multi-index entry", 2: "p", 3: "q"}),
    "bernoulli_number": (bernoulli_number, (3,), {0: "index"}),
    "bernoulli_polynomial": (bernoulli_polynomial, (3,), {0: "index"}),
    "enumeration_box": (enumeration_box, (SHEAF, (0, 0, 0, 0)), {1: "shift"}),
    "euler_characteristic": (euler_characteristic, (SHEAF, (1, 0)), {1: "class element entry"}),
    "faulhaber_sum": (faulhaber_sum, (2,), {0: "exponent"}),
    "feasible_metasystem": (
        feasible_metasystem, ((1, 2), (0, 0), (0, 0, 0)), {0: "twist weight", 1: "lambda", 2: "mu"}),
    "feasible_system1": (feasible_system1, ((1, 2), 1, 1), {0: "twist weight", 1: "A", 2: "B"}),
    "hilbert_function": (hilbert_function, (SHEAF, (4, 0)), {1: "class element entry"}),
    "hirzebruch": (hirzebruch, (3,), {0: "Hirzebruch parameter"}),
    "in_support_lower_bound": (in_support_lower_bound, (SHEAF, 30, 3), {1: "p", 2: "q"}),
    "in_support_upper_bound": (in_support_upper_bound, (SHEAF, 30, 3), {1: "p", 2: "q"}),
    "line_bundle": (line_bundle, (P2, (1, 0, 0)), {1: "divisor coefficient"}),
    "omega_system": (
        omega_system, (SHEAF, (3, 1, 3, 3), (0, 0)), {1: "multi-index entry", 2: "class element entry"}),
    "projective_space": (projective_space, (2,), {0: "projective space n"}),
    "psi_m_sliced": (
        psi_m_sliced, (SHEAF, (3, 1), 30, (0,)),
        {1: "rho multi-index entry", 2: "p", 3: "slice vector entry"}),
    "psi_n": (psi_n, (SHEAF, (3, 3), 3), {1: "eta multi-index entry", 2: "q"}),
    "sigma_piece": (sigma_piece, (SHEAF, Cone((0,), 1), (1, 0)), {2: "character entry"}),
    "sigma_piece_dim": (
        sigma_piece_dim, (MonomialIdeal(2, ((0, 0, 2),)), Cone((0,), 1), (1, 0)), {2: "character entry"}),
    "simplex_sum": (simplex_sum, (X, 1), {1: "number of summation variables"}),
    "span": (span, (((1, 0),), 2), {1: "ambient dimension"}),
    "split_bundle": (split_bundle, (1, (1, 2)), {0: "split bundle s", 1: "twist weight"}),
    "twist": (twist, (SHEAF, (1, 0)), {1: "class element entry"}),
}

# the public names that take no integer: errors, configs, and functions of
# sheaves, filtrations, subspaces, systems or polynomials alone
NO_INTEGER = {
    "ConfigError", "EquivariantReflexiveSheaf", "InternalConsistencyError", "JobConfig",
    "UnboundedSystemError", "UnsupportedVarietyError", "build_variety", "delta_normalization",
    "format_polynomial",
    "hilbert_polynomial", "intersect", "jump_bounds_from_presentation", "load_config",
    "lower_support_region", "mobius_weights", "parse_config", "psi_points",
    "rank1_hilbert_polynomial", "regularity_region", "regularity_thresholds", "split_data",
    "structure_sheaf", "subspace_sum", "upper_support_regions", "validate",
}


def with_first_integer(value, bad):
    """The value with its first integer, depth first, replaced by ``bad``."""
    if isinstance(value, int):
        return bad
    return (with_first_integer(value[0], bad), *value[1:])


def test_the_table_covers_every_public_name():
    covered = {key.partition(".")[0] for key in CALLS}
    assert not covered & NO_INTEGER
    assert sorted(covered | NO_INTEGER) == toricsheaf.__all__


@pytest.mark.parametrize("key", CALLS)
def test_each_call_of_the_table_is_valid(key):
    call, args, _ = CALLS[key]
    call(*args)


@pytest.mark.parametrize("bad", [2.0, True, "2"])
@pytest.mark.parametrize("key, position", [
    (key, position) for key, (_, _, integers) in CALLS.items() for position in integers
])
def test_each_integer_argument_refuses_a_float_a_bool_and_a_string(key, position, bad):
    call, args, integers = CALLS[key]
    args = list(args)
    args[position] = with_first_integer(args[position], bad)
    message = f"{integers[position]} must be an integer, got {bad!r}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call(*args)


@pytest.mark.parametrize("call, message", [
    (lambda: P2.pairing((1, 0), -1), "ray index must lie in 0..2, got -1"),
    (lambda: P2.pairing((1, 0), 3), "ray index must lie in 0..2, got 3"),
    (lambda: RationalPolynomial.variable(2, 2), "variable index must lie in 0..1, got 2"),
    (lambda: RationalPolynomial.variable(-1, 2), "variable index must lie in 0..1, got -1"),
    (lambda: IntervalConstraintSystem(((1, 0),), (0,), (2,)).satisfied_by((1,)),
     "point must have length 2"),
    (lambda: ToricVariety(((-1,), (1, 0)), ("rho0", "rho1")), "ray must have length 1"),
    (lambda: IntervalConstraintSystem(((1, 0), (1,)), (0, 0), (1, 1)), "constraint row must have length 2"),
    (lambda: line_bundle(P2, (1, 0)), "divisor coefficients must have length 3"),
    (lambda: omega_system(SHEAF, (3, 1, 3), (0, 0)), "multi-index must have length 4"),
    (lambda: omega_system(SHEAF, (3, 1, 3, 4), (0, 0)), "multi-index entry must lie in 1..3, got 4"),
    (lambda: psi_n(SHEAF, (3,), 3), "eta multi-index must have length 2"),
    (lambda: psi_n(SHEAF, (4, 3), 3), "eta multi-index entry must lie in 1..3, got 4"),
    (lambda: psi_m_sliced(SHEAF, (3, 1, 1), 30, (0,)), "rho multi-index must have length 2"),
    (lambda: psi_m_sliced(SHEAF, (0, 1), 30, (0,)), "rho multi-index entry must lie in 1..3, got 0"),
    (lambda: psi_m_sliced(SHEAF, (3, 1), 30, (0, 0)), "slice vector must have length 1"),
    (lambda: feasible_metasystem((1, 2), (0, 0), (0, 0)), "mus must have length 3"),
    (lambda: feasible_system1((), 1, 1), "need at least one twist weight"),
    (lambda: feasible_metasystem((2, 1), (0,), (0, 0, 0)),
     "twist weights must satisfy 0 <= a1 <= ... <= ar"),
    (lambda: split_bundle(1, ()), "need at least one twist weight"),
    (lambda: split_bundle(0, (1,)), "split bundle s must be at least 1, got 0"),
    (lambda: ENGINE.piece((0, -1), LEVELS), "ray index must lie in 0..3, got -1"),
    (lambda: ENGINE.piece((4,), LEVELS), "ray index must lie in 0..3, got 4"),
    (lambda: ENGINE.piece((), (3, 1, 3, 4)), "level tuple entry must lie in 0..3, got 4"),
])
def test_shapes_that_do_not_fit_are_refused_in_one_form(call, message):
    """A negative or too large ray or variable index reads no other ray or
    variable, and a point, ray or degree of the wrong length is not cut to
    fit by ``zip``.  Every sequence of the wrong length is refused as
    "<name> must have length <n>", every multi-index out of range as
    "<name> entry must lie in 1..<rank>, got <value>", and twist weights
    by one rule wherever they are read."""
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()


@pytest.mark.parametrize("poly", [P2_PLUS_Q, RationalPolynomial(2)], ids=["p^2 + q", "zero"])
@pytest.mark.parametrize("index", [-1, -2, 2])
def test_degree_in_refuses_an_index_outside_its_variables(poly, index):
    """On p^2 + q, degree_in(-1) answered 1 and degree_in(-2) answered 2,
    counting from the end, and degree_in(2) raised IndexError; on the zero
    polynomial every index answered 0.  It is refused as ``variable`` refuses it."""
    with pytest.raises(ValueError, match=f"^variable index must lie in 0..1, got {index}$"):
        poly.degree_in(index)


@pytest.mark.parametrize("method", ["h0", "hn", "chi", "cech"])
@pytest.mark.parametrize("levels, message", [
    ((3, 3, 3), "level tuple must have length 4"),
    ((3, 3, 3, 3, 9), "level tuple must have length 4"),
    ((3, 3, 3, 4), "level tuple entry must lie in 0..3, got 4"),
    ((-1, 3, 3, 3), "level tuple entry must lie in 0..3, got -1"),
])
def test_level_tuples_that_do_not_fit_are_refused_and_never_cached(method, levels, message):
    """A level tuple is checked on every call: a wrong length is not cut
    by ``zip`` or read past its end, and a second call meets the same
    refusal.  The check comes before any cache is read or written, so the
    fresh engine's caches, of local numbers and of cone pieces, stay empty
    whatever the form of their keys."""
    engine = SheafCohomology(SHEAF)
    for _ in range(2):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            getattr(engine, method)(levels)
    assert not any(engine._local.values()) and not engine._pieces


@pytest.mark.parametrize("method, args, bad", [
    *[(method, ((0, 1, 3, 3),), ((False, 1, 3, 3),)) for method in ("h0", "hn", "chi", "cech")],
    ("piece", ((1,), LEVELS), ((True,), LEVELS)),
])
def test_a_bool_is_refused_also_where_its_int_twin_is_cached(method, args, bad):
    """False == 0 and True == 1, with equal hashes, so a cache hit alone
    would answer a bool level for level 0 and a bool ray index for ray 1."""
    engine = SheafCohomology(SHEAF)
    getattr(engine, method)(*args)
    where = "ray index" if method == "piece" else "level tuple entry"
    message = f"{where} must be an integer, got {bad[0][0]!r}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        getattr(engine, method)(*bad)


# the integer positions where None is documented: an unbounded side of a
# constraint row, a region without an index, a variety that is no split
# bundle; the value is the refusal that None then meets, if any (H_0 has
# four rays, and a surface without split s has three)
NONE_ALLOWED = {
    ("IntervalConstraintSystem", 1): None, ("IntervalConstraintSystem", 2): None,
    ("SupportRegion", 1): None,
    ("ToricVariety", 2): "a variety without split s of dimension 2 needs 3 rays, got 4",
}


@pytest.mark.parametrize("bad", [Fraction(1, 2), None])
@pytest.mark.parametrize("key, position", [
    (key, position) for key, (_, _, integers) in CALLS.items() for position in integers
])
def test_each_integer_argument_refuses_a_fraction_and_none(key, position, bad):
    call, args, integers = CALLS[key]
    args = list(args)
    args[position] = with_first_integer(args[position], bad)
    if bad is None and (key, position) in NONE_ALLOWED:
        refusal = NONE_ALLOWED[key, position]
        if refusal is None:
            call(*args)
        else:
            with pytest.raises(ValueError, match=f"^{re.escape(refusal)}$"):
                call(*args)
        return
    message = f"{integers[position]} must be an integer, got {bad!r}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call(*args)


# the integer sequences of the table, by the length they take: a fixed
# length, refused as "<name> must have length <n>" ...
FIXED_LENGTH = {
    ("CharacterBox.__contains__", 0): ("character", 2),
    ("MonomialIdeal", 1): ("generator exponents", 3),
    ("IntervalConstraintSystem.satisfied_by", 0): ("point", 2),
    ("SheafCohomology.levels", 0): ("character", 2),
    ("SheafCohomology.levels", 1): ("shifts", 4),
    **{(f"SheafCohomology.{method}", 0): ("level tuple", 4) for method in ("h0", "hn", "chi", "cech")},
    ("SheafCohomology.piece", 1): ("level tuple", 4),
    **{(f"SheafCohomology.{method}", 0): ("class element", 2)
       for method in ("histogram", "h0_twisted", "hn_twisted", "chi_twisted", "cech_twisted",
                      "h1_identity_twisted")},
    ("ToricVariety.pairing", 0): ("character", 2),
    ("ToricVariety.character_embedding", 0): ("character", 2),
    ("ToricVariety.check_class", 0): ("class element", 2),
    ("ToricVariety.divisor_class", 0): ("divisor coefficients", 4),
    ("ToricVariety.twist_divisor", 0): ("class element", 2),
    ("assemble_slices", 1): ("multi-index", 4),
    ("enumeration_box", 1): ("shifts", 4),
    ("euler_characteristic", 1): ("class element", 2),
    ("feasible_metasystem", 2): ("mus", 3),
    ("hilbert_function", 1): ("class element", 2),
    ("line_bundle", 1): ("divisor coefficients", 3),
    ("omega_system", 1): ("multi-index", 4),
    ("omega_system", 2): ("class element", 2),
    ("psi_m_sliced", 1): ("rho multi-index", 2),
    ("psi_m_sliced", 3): ("slice vector", 1),
    ("psi_n", 1): ("eta multi-index", 2),
    ("sigma_piece", 2): ("character", 2),
    ("sigma_piece_dim", 2): ("character", 2),
    ("twist", 1): ("class element", 2),
}
# ... a free length that another argument, or the rest of its own, must
# match, refused by the rule that ties them ({n}: the new length) ...
TIED = {
    ("CharacterBox", 0): "bound tuples must have equal length",
    ("CharacterBox", 1): "bound tuples must have equal length",
    ("IntervalConstraintSystem", 0): "constraint row must have length {n}",
    ("IntervalConstraintSystem", 1): "rows, lower and upper must have equal lengths",
    ("IntervalConstraintSystem", 2): "rows, lower and upper must have equal lengths",
    ("KlyachkoFiltration", 0): "need one subspace per jump",
    ("PresentationDegrees", 0): "all degree vectors must have the same length",
    ("PresentationDegrees", 1): "all degree vectors must have the same length",
    ("ToricVariety", 0): "ray must have length {n}",    # the first ray gives the dimension
}
# ... or any length: a cone's rays, a piece's rays, twist weights and lambdas
FREE_LENGTH = {
    ("Cone", 0), ("SheafCohomology.piece", 0), ("feasible_metasystem", 0),
    ("feasible_metasystem", 1), ("feasible_system1", 0), ("split_bundle", 1),
}


def with_first_sequence(value, change):
    """The value with its first integer sequence, depth first, replaced by
    ``change`` of it."""
    if isinstance(value[0], int):
        return change(value)
    return (with_first_sequence(value[0], change), *value[1:])


SEQUENCES = [
    (key, position) for key, (_, args, integers) in CALLS.items()
    for position in integers if not isinstance(args[position], int)
]


def test_every_integer_sequence_has_its_length_class():
    classes = [set(FIXED_LENGTH), set(TIED), FREE_LENGTH]
    assert sorted(set().union(*classes)) == sorted(SEQUENCES)
    assert sum(map(len, classes)) == len(SEQUENCES)


@pytest.mark.parametrize("step", [1, -1], ids=["longer", "shorter"])
@pytest.mark.parametrize("key, position", [
    pair for pair in SEQUENCES if pair not in FREE_LENGTH
])
def test_each_sequence_of_a_fixed_or_tied_length_refuses_another(key, position, step):
    call, args, _ = CALLS[key]
    args = list(args)
    # one entry longer, its last repeated, or one shorter
    args[position] = with_first_sequence(
        args[position], lambda value: value + (value[-1],) if step > 0 else value[:-1])
    if (key, position) in FIXED_LENGTH:
        name, n = FIXED_LENGTH[key, position]
        message = f"{name} must have length {n}"
    else:
        resized = args[position]
        while not isinstance(resized[0], int):
            resized = resized[0]
        message = TIED[key, position].format(n=len(resized))
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call(*args)


# every sequence must come in one: a mapping, a set and an iterator give an
# order the caller did not write, and bytes and text give items, byte
# values or characters, that the caller did not
UNORDERED = {
    "dict": dict.fromkeys,
    "set": set,
    "generator": lambda values: (x for x in values),
    "bytes": lambda values: bytes(len(values)),
    "str": lambda values: "12",
}
# the integer sequences whose refusal names them otherwise than by the
# length class or as "<where> values"
NAMED = {("IntervalConstraintSystem", 0): "constraint row", ("ToricVariety", 0): "ray"}


@pytest.mark.parametrize("kind", UNORDERED)
@pytest.mark.parametrize("key, position", SEQUENCES)
def test_each_integer_sequence_refuses_a_mapping_a_set_an_iterator_and_bytes(key, position, kind):
    call, args, integers = CALLS[key]
    args = list(args)
    args[position] = with_first_sequence(args[position], UNORDERED[kind])
    if (key, position) in FIXED_LENGTH:
        name = FIXED_LENGTH[key, position][0]
    else:
        name = NAMED.get((key, position), f"{integers[position]} values")
    with pytest.raises(ValueError, match=f"^{re.escape(name)} must be a sequence, got {kind}$"):
        call(*args)


# the sequences of other values that a variety, a filtration, a sheaf and a
# constraint system are built from, by the name of their refusal
CONTAINERS = {
    "rays": (lambda rays: ToricVariety(rays, H0.ray_names, H0.split_s), H0.rays),
    "ray names": (lambda names: ToricVariety(H0.rays, names, H0.split_s), H0.ray_names),
    "filtration spaces": (lambda spaces: KlyachkoFiltration((0, 2), spaces), FILTRATION.spaces),
    "filtrations": (lambda filts: EquivariantReflexiveSheaf(SHEAF.variety, filts), SHEAF.filtrations),
    "constraint rows": (lambda rows: IntervalConstraintSystem(rows, (0, 0), (2, 2)), ((1, 0), (0, 1))),
}


@pytest.mark.parametrize("kind", ["dict", "set", "generator"])
@pytest.mark.parametrize("name", CONTAINERS)
def test_each_container_refuses_a_mapping_a_set_and_an_iterator(name, kind):
    build, values = CONTAINERS[name]
    build(values)
    with pytest.raises(ValueError, match=f"^{name} must be a sequence, got {kind}$"):
        build(UNORDERED[kind](values))


LINE = span([(1, 2)], 2)
# the readers of exact vectors, and the other containers read by the one
# rule, by the name of their refusal: a call of one sequence, that
# sequence, and the call's result on it
READERS = {
    "span: rows": (lambda rows: span(rows, 2).rows, ((2, 4), ("1/2", 0)), ((1, 0), (0, 1))),
    "span: row": (lambda row: span([row], 2).rows, (2, "1/3"), ((6, 1),)),
    "Subspace: rows": (lambda rows: Subspace(2, rows).rows, ((2, 4),), ((1, 2),)),
    "Subspace: row": (lambda row: Subspace(2, [row]).rows, ("-1/2", 1), ((1, -2),)),
    "Subspace.contains: vector": (LINE.contains, ("1/2", 1), True),
    "Subspace.coordinates: vector": (LINE.coordinates, ("1/2", 1), (Fraction(1, 2),)),
    "as_vector: vector": (as_vector, (2, "1/3"), (Fraction(2), Fraction(1, 3))),
    "matrix_rank: rows": (lambda rows: matrix_rank(rows, 2), ((1, 2), (2, 4)), 1),
    "matrix_rank: row": (lambda row: matrix_rank([row], 2), (0, "1/3"), 1),
    "solve_square: rows": (
        lambda rows: solve_square(rows, (5, 6)), ((1, 2), (3, 4)), (Fraction(-4), Fraction(9, 2))),
    "solve_square: row": (
        lambda row: solve_square([row, (3, 4)], (5, 6)), ("1/2", 1), (Fraction(-14), Fraction(12))),
    "solve_square: right-hand side": (
        lambda rhs: solve_square([(1, 2), (3, 4)], rhs), (5, "1/2"), (Fraction(-19, 2), Fraction(29, 4))),
    "RationalPolynomial.evaluate: point": (P2_PLUS_Q.evaluate, ("1/2", 3), Fraction(13, 4)),
    "intersect: subspaces": (intersect, (LINE, Subspace.full(2)), LINE),
    "subspace_sum: subspaces": (subspace_sum, (LINE, span([(1, 0)], 2)), Subspace.full(2)),
    "PresentationDegrees: generator degrees": (
        lambda degrees: PresentationDegrees(degrees, ()).generator_degrees, ((0, 1), (2, 3)),
        ((0, 1), (2, 3))),
    "PresentationDegrees: relation degrees": (
        lambda degrees: PresentationDegrees(((0, 1),), degrees).relation_degrees, ((2, 3),), ((2, 3),)),
    "MonomialIdeal: generators": (
        lambda generators: MonomialIdeal(2, generators).generators, ((0, 0, 2), (1, 0, 1)),
        ((0, 0, 2), (1, 0, 1))),
    "format_polynomial: names": (lambda names: format_polynomial(P2_PLUS_Q, names), ("p", "q"), "p^2 + q"),
}


@pytest.mark.parametrize("kind", UNORDERED)
@pytest.mark.parametrize("key", READERS)
def test_each_reader_refuses_a_mapping_a_set_an_iterator_bytes_and_text(key, kind):
    """A dict's keys, a set's or a generator's order and a string's
    characters were read as the caller's vector, and a set of subspaces or
    names crashed; each now meets the one rule of ``ordered``."""
    call, values, _ = READERS[key]
    name = key.partition(": ")[2]
    with pytest.raises(ValueError, match=f"^{re.escape(name)} must be a sequence, got {kind}$"):
        call(UNORDERED[kind](values))


@pytest.mark.parametrize("container", [tuple, list])
@pytest.mark.parametrize("key", READERS)
def test_each_reader_reads_a_list_and_a_tuple_alike(key, container):
    call, values, expected = READERS[key]
    assert call(container(values)) == expected


P1 = projective_space(1)


def p1_sheaf(rank):
    """A sheaf of the given rank on P^1 from its configuration section."""
    section = {"rank": rank, "filtrations": [{"jumps": [0] * rank}] * 2}
    return parse_config({"variety": {"family": "projective", "n": 1}, "sheaf": section}).sheaf


# every range an integer argument must lie in, one per site: a call of the
# checked value, a value outside the range and its refusal, and a value at
# an end of the range with the result the call has always given there
RANGES = {
    "ToricVariety: split s": (
        lambda s: ToricVariety(H0.rays, H0.ray_names, s) == H0, 0,
        "split bundle s must be at least 1, got 0", 1, True),
    "ToricVariety.pairing": (
        lambda k: P2.pairing((1, 2), k), 3, "ray index must lie in 0..2, got 3", 2, 2),
    "projective_space": (
        lambda n: projective_space(n).rays, 0, "projective space n must be at least 1, got 0",
        1, ((-1,), (1,))),
    "split_bundle": (
        lambda s: split_bundle(s, (0,)) == H0, 0, "split bundle s must be at least 1, got 0", 1, True),
    "hirzebruch": (
        lambda a: hirzebruch(a).rays, -1, "Hirzebruch parameter must be at least 0, got -1",
        0, ((-1, 0), (1, 0), (0, -1), (0, 1))),
    "SheafCohomology: level tuple": (
        ENGINE.cech, (0, 1, 3, 4), "level tuple entry must lie in 0..3, got 4", (0, 1, 3, 3), (0, 2, 0)),
    "SheafCohomology.piece": (
        lambda rays: ENGINE.piece(rays, LEVELS).rows, (1, 4), "ray index must lie in 0..3, got 4",
        (1, 3), ((9, 4, 8),)),
    "KlyachkoFiltration.space_at_level": (
        FILTRATION.space_at_level, 3, "filtration level must lie in 0..2, got 3", 0, Subspace.zero(2)),
    "omega_system: multi-index": (
        lambda idx: omega_system(SHEAF, idx, (0, 0)), (1, 1, 0, 1),
        "multi-index entry must lie in 1..3, got 0", (1, 1, 1, 1),
        IntervalConstraintSystem(((-1, 3), (1, 0), (0, -1), (0, 1)), (-3, -9, -4, -2), (-1, -3, -1, -1))),
    "Subspace": (
        lambda n: Subspace(n).ambient_dim, -1, "ambient dimension must be at least 0, got -1", 0, 0),
    "RationalPolynomial: nvars": (
        lambda n: RationalPolynomial(n).coeffs, -1, "number of variables must be at least 0, got -1",
        0, {}),
    "RationalPolynomial: exponents": (
        lambda exps: RationalPolynomial(2, {exps: 1}) == X, (1, -1),
        "exponent must be at least 0, got -1", (1, 0), True),
    "RationalPolynomial.variable": (
        lambda index: RationalPolynomial.variable(index, 2).coeffs, 2,
        "variable index must lie in 0..1, got 2", 1, {(0, 1): 1}),
    "RationalPolynomial.degree_in": (
        P2_PLUS_Q.degree_in, -1, "variable index must lie in 0..1, got -1", 0, 2),
    "RationalPolynomial.__pow__": (
        X.__pow__, -1, "power must be at least 0, got -1", 0, RationalPolynomial.constant(1, 2)),
    "bernoulli_number": (bernoulli_number, -1, "index must be at least 0, got -1", 0, 1),
    "bernoulli_polynomial": (
        bernoulli_polynomial, -1, "index must be at least 0, got -1", 0, RationalPolynomial.constant(1)),
    "faulhaber_sum": (
        faulhaber_sum, -1, "exponent must be at least 0, got -1", 0,
        RationalPolynomial(1, {(0,): 1, (1,): 1})),
    "simplex_sum": (
        lambda k: simplex_sum(RationalPolynomial.constant(1, 2), k), 0,
        "number of summation variables must be at least 1, got 0", 1,
        RationalPolynomial(1, {(0,): 1, (1,): 1})),
    "MonomialIdeal: n": (
        lambda n: MonomialIdeal(n, ((1,) * (n + 1),)).generators, 0,
        "projective dimension must be at least 1, got 0", 1, ((1, 1),)),
    "MonomialIdeal: generator": (
        lambda g: MonomialIdeal(2, (g,)).generators, (0, -1, 2),
        "generator exponent must be at least 0, got -1", (0, 0, 2), ((0, 0, 2),)),
    "config: sheaf rank": (
        lambda rank: p1_sheaf(rank) == structure_sheaf(P1), 0,
        "sheaf 'rank' must be at least 1, got 0", 1, True),
}

# every sequence whose items must be of one type, one per site, in the same
# form: a sequence with one item of another type, and a valid one
ITEMS = {
    "ToricVariety: ray names": (
        lambda names: ToricVariety(H0.rays, names, 1) == H0, ("rho0", "rho1", 2, "eta1"),
        "ray names must hold str values, got int", H0.ray_names, True),
    "KlyachkoFiltration: spaces": (
        lambda spaces: KlyachkoFiltration((0, 2), spaces) == FILTRATION,
        (FILTRATION.spaces[0], [(1, 0), (0, 1)]),
        "filtration spaces must hold Subspace values, got list", FILTRATION.spaces, True),
    "EquivariantReflexiveSheaf: filtrations": (
        lambda filtrations: EquivariantReflexiveSheaf(SHEAF.variety, filtrations) == SHEAF,
        (*SHEAF.filtrations[:3], "x"),
        "filtrations must hold KlyachkoFiltration values, got str", SHEAF.filtrations, True),
    "intersect: subspaces": (
        intersect, (LINE, (1, 0)), "subspaces must hold Subspace values, got tuple",
        (LINE, Subspace.full(2)), LINE),
    "subspace_sum: subspaces": (
        subspace_sum, (LINE, None), "subspaces must hold Subspace values, got NoneType",
        (LINE, Subspace.zero(2)), LINE),
    "format_polynomial: names": (
        lambda names: format_polynomial(P2_PLUS_Q, names), ("p", b"q"),
        "names must hold str values, got bytes", ("p", "q"), "p^2 + q"),
}


@pytest.mark.parametrize("site", [*RANGES, *ITEMS])
def test_each_range_and_item_type_is_refused_in_the_readers_wording(site):
    """Each site words no refusal of its own: a range is refused by
    ``strict_int`` or ``strict_ints`` and an item type by ``ordered``, in
    one of their three forms, naming the value or type it met."""
    call, bad, message, _, _ = RANGES[site] if site in RANGES else ITEMS[site]
    forms = r"(must be at least -?\d+|must lie in -?\d+\.\.-?\d+), got -?\d+" if site in RANGES \
        else r"must hold \w+ values, got \w+"
    assert re.fullmatch(f".+ {forms}", message)
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call(bad)


@pytest.mark.parametrize("site", [*RANGES, *ITEMS])
def test_each_range_and_item_type_site_answers_a_valid_call_as_before(site):
    call, _, _, good, expected = RANGES[site] if site in RANGES else ITEMS[site]
    assert call(good) == expected


@pytest.mark.parametrize("lo, hi, value, message", [
    (0, None, -1, "x must be at least 0, got -1"),
    (1, None, -5, "x must be at least 1, got -5"),
    (1, 3, 0, "x must lie in 1..3, got 0"),
    (1, 3, 4, "x must lie in 1..3, got 4"),
    (0, -1, 0, "x must lie in 0..-1, got 0"),      # an empty range refuses everything
])
def test_the_range_rule_words_a_lower_end_alone_and_both_ends(lo, hi, value, message):
    """A range is ``lo`` alone or ``lo`` and ``hi``, both included; a
    sequence is refused at its first entry outside it."""
    for call in (lambda: strict_int(value, "x", lo, hi),
                 lambda: strict_ints((lo, value, value + 9), "x", lo=lo, hi=hi)):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            call()
    top = lo if hi is None else hi
    if lo <= top:
        assert strict_int(top, "x", lo, hi) == top
        assert strict_ints((lo, top), "x", lo=lo, hi=hi) == (lo, top)


# inputs the range and item-type rules refuse that got through before: the
# first six raised AttributeError or TypeError, and the last was accepted
# as a polynomial ring of -1 variables
NEWLY_REFUSED = [
    (lambda: intersect([(1, 0)]), "subspaces must hold Subspace values, got tuple"),
    (lambda: subspace_sum([span([(1, 0)], 2), [(0, 1)]]), "subspaces must hold Subspace values, got list"),
    (lambda: KlyachkoFiltration((0,), ([(1,)],)), "filtration spaces must hold Subspace values, got list"),
    (lambda: EquivariantReflexiveSheaf(projective_space(1), ["x", "y"]),
     "filtrations must hold KlyachkoFiltration values, got str"),
    (lambda: EquivariantReflexiveSheaf("P1", []), "variety must be a ToricVariety, got str"),
    (lambda: format_polynomial(RationalPolynomial.variable(0, 2), (1, None)), "names must hold str values, got int"),
    (lambda: RationalPolynomial(-1), "number of variables must be at least 0, got -1"),
]


@pytest.mark.parametrize("call, message", NEWLY_REFUSED)
def test_items_of_the_wrong_type_and_a_negative_ring_are_refused(call, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()
