"""Unit tests for filtrations, sheaves, twisting and normalization."""
import random
import re

import pytest

from toricsheaf import (
    Cone,
    EquivariantReflexiveSheaf,
    KlyachkoFiltration,
    PresentationDegrees,
    SheafCohomology,
    Subspace,
    delta_normalization,
    hirzebruch,
    jump_bounds_from_presentation,
    line_bundle,
    projective_space,
    span,
    structure_sheaf,
    twist,
    validate,
)
from toricsheaf import rational_linalg
from toricsheaf.cohomology import sigma_piece
from toricsheaf.errors import UnsupportedVarietyError
from toricsheaf.monomial import MonomialIdeal, sigma_piece_dim
from toricsheaf.polytopes import feasible_system1, omega_system

from conftest import random_sheaf, rank3_example_sheaf, tangent_sheaf_h3


def test_evaluate_line_bundle_rule():
    h = hirzebruch(2)
    sheaf = line_bundle(h, (3, 0, -1, 0))
    for k, a in enumerate((3, 0, -1, 0)):
        f = sheaf.filtrations[k]
        assert f.evaluate(-a - 1).is_zero
        assert f.evaluate(-a).is_full
        assert f.evaluate(-a + 5).is_full


def test_evaluate_tangent_example(tangent_sheaf):
    f1 = tangent_sheaf.filtrations[1]
    assert f1.evaluate(-1) == span([(0, 1)], 2)
    assert f1.evaluate(-2).is_zero
    assert f1.evaluate(0).is_full


def test_evaluate_monotone():
    rng = random.Random(7)
    sheaf = random_sheaf(rng, hirzebruch(2), 3)
    for f in sheaf.filtrations:
        previous = f.evaluate(-10)
        for i in range(-9, 4):
            current = f.evaluate(i)
            assert current.contains_subspace(previous)
            previous = current


def test_line_bundle_examples():
    p2 = projective_space(2)
    o = structure_sheaf(p2)
    assert all(f.jumps == (0,) for f in o.filtrations)
    o2 = line_bundle(p2, (2, 0, 0))
    assert o2.filtrations[0].jumps == (-2,)
    h = hirzebruch(1)
    om = line_bundle(h, (0, 0, -1, 0))
    assert om.filtrations[2].jumps == (1,)
    for sheaf in (o, o2, om):
        for f in sheaf.filtrations:
            assert all(s.is_zero or s.is_full for s in f.spaces)


def test_twist_zero_is_identity(rank3_sheaf):
    assert twist(rank3_sheaf, (0, 0)) == rank3_sheaf


def test_twist_shifts_only_basis_rays(rank3_sheaf):
    t = twist(rank3_sheaf, (5, -2))
    assert t.filtrations[0].jumps == tuple(j - 5 for j in rank3_sheaf.filtrations[0].jumps)
    assert t.filtrations[1] == rank3_sheaf.filtrations[1]
    assert t.filtrations[2].jumps == tuple(j + 2 for j in rank3_sheaf.filtrations[2].jumps)
    assert t.filtrations[3] == rank3_sheaf.filtrations[3]
    for a, b in zip(t.filtrations, rank3_sheaf.filtrations):
        assert a.spaces == b.spaces


def test_twist_is_group_action(rank3_sheaf):
    assert twist(twist(rank3_sheaf, (3, -4)), (-3, 4)) == rank3_sheaf
    one = twist(rank3_sheaf, (1, 1))
    two = twist(twist(rank3_sheaf, (1, 0)), (0, 1))
    assert one == two


def test_delta_normalization_final_example(rank3_sheaf):
    delta, normalized = delta_normalization(rank3_sheaf)
    assert delta == (0, 0)
    assert normalized == rank3_sheaf


def test_delta_normalization_line_bundle():
    h = hirzebruch(2)
    sheaf = line_bundle(h, (4, 0, -3, 0))   # O(4 D_rho0 - 3 D_eta0)
    delta, normalized = delta_normalization(sheaf)
    assert delta == (-4, 3)
    assert all(f.jumps == (0,) for f in normalized.filtrations)


def test_delta_normalization_formula():
    rng = random.Random(3)
    sheaf = random_sheaf(rng, hirzebruch(3), 3)
    delta, normalized = delta_normalization(sheaf)
    i_top = [js[-1] for js in sheaf.jumps[:2]]
    j_top = [js[-1] for js in sheaf.jumps[2:]]
    assert delta == (i_top[0] + i_top[1] - 3 * j_top[1], j_top[0] + j_top[1])
    assert all(f.jumps[-1] == 0 for f in normalized.filtrations)
    for f in normalized.filtrations:
        assert f.evaluate(0).is_full
        if f.jumps[0] < 0:
            assert not f.evaluate(-1).is_full
    again, fixed_point = delta_normalization(normalized)
    assert again == (0, 0) and fixed_point == normalized


def test_delta_normalization_unsupported():
    with pytest.raises(UnsupportedVarietyError):
        delta_normalization(structure_sheaf(projective_space(2)))


def test_jump_bounds_tangent_presentation():
    pres = PresentationDegrees(
        ((0, 0, 1, 1), (0, 1, 0, 0), (1, 0, 0, 0)),
        ((0, 0, 0, 0),),
    )
    bounds = jump_bounds_from_presentation(pres)
    assert bounds[0] == (-1, 0)
    sheaf = tangent_sheaf_h3()
    for (lo, hi), f in zip(bounds, sheaf.filtrations):
        assert lo <= f.jumps[0] and f.jumps[-1] <= hi


def test_jump_bounds_free_module():
    pres = PresentationDegrees(((0, 0, 0),), ())
    assert jump_bounds_from_presentation(pres) == [(0, 0), (0, 0), (0, 0)]


def test_jump_bounds_two_generators():
    pres = PresentationDegrees(((1, 0), (0, 0)), ())
    assert jump_bounds_from_presentation(pres)[0] == (-1, 0)


def test_jump_bounds_empty_generators():
    with pytest.raises(ValueError):
        jump_bounds_from_presentation(PresentationDegrees((), ()))


def test_validate_ok(rank3_sheaf, tangent_sheaf):
    assert validate(rank3_sheaf) == []
    assert validate(tangent_sheaf) == []


def test_validate_decreasing_jumps():
    h = hirzebruch(1)
    full = Subspace.full(2)
    line = span([(1, 0)], 2)
    bad = KlyachkoFiltration((0, -1), (line, full))
    ok = KlyachkoFiltration((0, 0), (full, full))
    sheaf = EquivariantReflexiveSheaf(h, (bad, ok, ok, ok))
    problems = validate(sheaf)
    assert any("not weakly increasing" in p and "rho0" in p for p in problems)


def test_validate_jump_space_coincidence():
    h = hirzebruch(1)
    full = Subspace.full(2)
    line = span([(1, 0)], 2)
    # equal jumps with different spaces
    bad1 = KlyachkoFiltration((0, 0), (line, full))
    # different jumps with equal spaces
    bad2 = KlyachkoFiltration((-1, 0), (full, full))
    ok = KlyachkoFiltration((0, 0), (full, full))
    sheaf = EquivariantReflexiveSheaf(h, (bad1, bad2, ok, ok))
    problems = validate(sheaf)
    assert sum("coincidence" in p for p in problems) == 2


def test_validate_chain_inclusion():
    h = hirzebruch(1)
    full = Subspace.full(2)
    sheaf = EquivariantReflexiveSheaf(h, (
        KlyachkoFiltration((-1, 0), (span([(1, 0)], 2), full)),
        KlyachkoFiltration((-1, 0), (span([(0, 1)], 2), full)),
        KlyachkoFiltration((-2, 0), (span([(1, 1)], 2), full)),
        KlyachkoFiltration((0, 0), (full, full)),
    ))
    assert validate(sheaf) == []
    broken = EquivariantReflexiveSheaf(h, (
        KlyachkoFiltration((-1, 0), (full, span([(1, 0)], 2))),
        KlyachkoFiltration((0, 0), (full, full)),
        KlyachkoFiltration((0, 0), (full, full)),
        KlyachkoFiltration((0, 0), (full, full)),
    ))
    problems = validate(broken)
    assert any("not contained" in p for p in problems)
    assert any("full ambient" in p for p in problems)


def test_structural_errors():
    h = hirzebruch(1)
    full = Subspace.full(2)
    f = KlyachkoFiltration((0, 0), (full, full))
    with pytest.raises(ValueError):
        EquivariantReflexiveSheaf(h, (f, f, f))         # one filtration short
    with pytest.raises(ValueError):
        KlyachkoFiltration((0,), (full, full))          # length mismatch
    # the rank is the first filtration's: each other one needs as many
    # jumps, and each one an ambient of that dimension
    line = KlyachkoFiltration((0,), (Subspace.full(1),))
    for filtrations in [(f, f, f, line), (line, f, f, f), (KlyachkoFiltration((0,), (full,)),) * 4]:
        with pytest.raises(ValueError, match="^filtration length and ambient must equal the rank$"):
            EquivariantReflexiveSheaf(h, filtrations)


@pytest.mark.parametrize("bad", [2.9, 1.0, True, "2"])
@pytest.mark.parametrize("entry_point", ["twist class", "divisor", "divisor class", "jump"])
def test_library_integers_are_strict(entry_point, bad):
    p2 = projective_space(2)
    full = Subspace.full(1)
    build = {
        "twist class": lambda: SheafCohomology(structure_sheaf(p2)).h0_twisted((bad,)),
        "divisor": lambda: line_bundle(p2, [bad, 0, 0]),
        "divisor class": lambda: p2.divisor_class([0, bad, 0]),
        "jump": lambda: KlyachkoFiltration((bad,), (full,)),
    }[entry_point]
    with pytest.raises(ValueError, match=f"must be an integer, got {bad!r}"):
        build()


@pytest.mark.parametrize("entry_point, bad, message", [
    ("shifts", (1,), "shifts must have length 4"),
    ("shifts", (0, 0, 0, 0, 1), "shifts must have length 4"),
    ("shifts", (), "shifts must have length 4"),
    ("shifts", (0.5, 0, True, 0), "shift must be an integer, got 0.5"),
    ("shifts", (0, 0, True, 0), "shift must be an integer, got True"),
    ("divisor class", (1, 0, 0), "divisor coefficients must have length 4"),
    ("multi-index", (1.9, True, 1, 1.2), "must be an integer, got 1.9"),
    ("multi-index", (1, True, 1, 1), "must be an integer, got True"),
    ("multi-index", (1, 1, "2", 1), "must be an integer, got '2'"),
    ("monomial", (1.0, 0, 1), "must be an integer, got 1.0"),
    ("monomial", (0, False, 2), "must be an integer, got False"),
    ("projective dimension", 2.0, "must be an integer, got 2.0"),
    ("sigma character", (-0.5, 0), "must be an integer, got -0.5"),
    ("levels character", (0.5, 0), "character entry must be an integer, got 0.5"),
    ("levels character", (0, True), "character entry must be an integer, got True"),
    ("projective space", True, "must be an integer, got True"),
    ("projective space", 2.0, "must be an integer, got 2.0"),
    ("projective space", "2", "must be an integer, got '2'"),
    ("hirzebruch", "2", "must be an integer, got '2'"),
    ("pairing", (0.5, 1), "character entry must be an integer, got 0.5"),
    ("pairing", ("1", 0), "character entry must be an integer, got '1'"),
    ("monomial character", (0.5, 0), "character entry must be an integer, got 0.5"),
    ("monomial character", (0, True), "character entry must be an integer, got True"),
    ("monomial character", (1.0, 0), "character entry must be an integer, got 1.0"),
    ("feasible A", 1.5, "A must be an integer, got 1.5"),
    ("feasible A", "1", "A must be an integer, got '1'"),
    ("feasible B", True, "B must be an integer, got True"),
    ("feasible B", 2.0, "B must be an integer, got 2.0"),
    ("generator degrees", ((1.5, 0),), "presentation degree must be an integer, got 1.5"),
    ("generator degrees", (("1", 0),), "presentation degree must be an integer, got '1'"),
    ("generator degrees", ((0, 0), (0,)), "all degree vectors must have the same length"),
    ("relation degrees", ((True, 0),), "presentation degree must be an integer, got True"),
    ("relation degrees", ((0, 0, 0),), "all degree vectors must have the same length"),
    ("cone codimension", 1.0, "cone codimension must be an integer, got 1.0"),
    ("cone codimension", True, "cone codimension must be an integer, got True"),
    ("cone ray index", 0.0, "cone ray index must be an integer, got 0.0"),
    ("cone ray index", True, "cone ray index must be an integer, got True"),
    ("cone ray index", "0", "cone ray index must be an integer, got '0'"),
    ("sigma piece cone", 1.0, "cone codimension must be an integer, got 1.0"),
])
def test_more_library_input_is_strict(entry_point, bad, message):
    """Wrong-length shifts and degrees and non-integer indices, exponents,
    characters, bounds, degrees and cone fields are refused, not
    truncated or coerced: Cone((0,), 1.0) would compare equal to
    Cone((0,), 1) and pass as a cone of the fan."""
    p2 = projective_space(2)
    build = {
        "shifts": lambda: SheafCohomology(rank3_example_sheaf()).levels((0, 0), bad),
        "divisor class": lambda: hirzebruch(3).divisor_class(bad),
        "multi-index": lambda: omega_system(rank3_example_sheaf(), bad, (0, 0)),
        "monomial": lambda: MonomialIdeal(2, ((0, 0, 2), bad)),
        "projective dimension": lambda: MonomialIdeal(bad, ((0, 0, 2),)),
        "projective space": lambda: projective_space(bad),
        "hirzebruch": lambda: hirzebruch(bad),
        "sigma character": lambda: sigma_piece(
            structure_sheaf(projective_space(2)), Cone((0,), 1), bad
        ),
        "levels character": lambda: SheafCohomology(
            structure_sheaf(projective_space(2))
        ).levels(bad),
        "pairing": lambda: projective_space(2).pairing(bad, 0),
        "monomial character": lambda: sigma_piece_dim(
            MonomialIdeal(2, ((0, 0, 2),)), Cone((0,), 1), bad
        ),
        "feasible A": lambda: feasible_system1([1, 2], bad, 1),
        "feasible B": lambda: feasible_system1([1, 2], 1, bad),
        "generator degrees": lambda: PresentationDegrees(bad, ()),
        "relation degrees": lambda: PresentationDegrees(((0, 0),), bad),
        "cone codimension": lambda: Cone((0,), bad),
        "cone ray index": lambda: Cone((bad,), 1),
        "sigma piece cone": lambda: sigma_piece(structure_sheaf(p2), Cone((0,), bad), (0, 0)),
    }[entry_point]
    with pytest.raises(ValueError, match=message):
        build()


@pytest.mark.parametrize("cone", [
    Cone((-1,), 1),     # a negative index, which would read the last ray
    Cone((7,), 1),      # no such ray
    Cone((0, 1), 0),    # rho0 and rho1: a primitive collection, not a cone
    Cone((0,), 0),      # a ray with the wrong codimension
])
def test_sigma_piece_refuses_a_cone_outside_the_fan(cone):
    sheaf = structure_sheaf(hirzebruch(1))
    with pytest.raises(ValueError, match="is not a cone of the fan"):
        sigma_piece(sheaf, cone, (0, 0))


def test_sigma_piece_takes_every_cone_of_the_fan():
    sheaf = structure_sheaf(hirzebruch(1))
    for cone in sheaf.variety.cones():
        assert sigma_piece(sheaf, cone, (0, 0)).dim == 1


def test_equal_sheaves_built_apart_hash_equal():
    built = [random_sheaf(random.Random("hash-twins"), hirzebruch(2), 3, -4, 0) for _ in range(2)]
    assert built[0] is not built[1] and built[0].filtrations[0] is not built[1].filtrations[0]
    assert built[0] == built[1] and hash(built[0]) == hash(built[1])
    assert {built[0]: 1}[built[1]] == 1


def test_sheaf_hash_is_computed_once(monkeypatch):
    """A sheaf keys every per-sheaf cache; its hash reads no filtration again."""
    sheaf = rank3_example_sheaf()
    first = hash(sheaf)
    calls = []
    original = KlyachkoFiltration.__hash__

    def counted(self):
        calls.append(self)
        return original(self)

    monkeypatch.setattr(KlyachkoFiltration, "__hash__", counted)
    hash(sheaf.filtrations[0])
    assert len(calls) == 1  # the count sees a filtration's hash
    assert hash(sheaf) == first
    assert len(calls) == 1


def test_filtration_refuses_levels_outside_its_range():
    """Levels run over 0..rank: -1 is not E_rank by negative indexing, and
    rank + 1 is not a bare IndexError."""
    f = KlyachkoFiltration((-1, 0), (span([(1, 0)], 2), Subspace.full(2)))
    assert f.space_at_level(0).is_zero and f.space_at_level(2).is_full
    for level in (-1, -2, 3, 10):
        with pytest.raises(ValueError, match=r"filtration level must lie in 0\.\.2"):
            f.space_at_level(level)
    for level in (1.0, True, "1"):
        with pytest.raises(ValueError, match="filtration level must be an integer"):
            f.space_at_level(level)


@pytest.mark.parametrize("position", [-0.5, 0.5, -1.0, True, "0"])
def test_filtration_refuses_positions_that_are_not_integers(position):
    f = KlyachkoFiltration((-1, 0), (span([(1, 0)], 2), Subspace.full(2)))
    for call in (f.evaluate, f.level):
        with pytest.raises(ValueError, match="filtration position must be an integer"):
            call(position)


def test_filtration_with_unsorted_jumps_refuses_level_and_evaluate():
    """Jumps (0, -1), a line then the plane, once gave level(-1) == 2: the
    bisection reads the jumps as sorted."""
    f = KlyachkoFiltration((0, -1), (span([(1, 0)], 2), Subspace.full(2)))
    for call in (f.level, f.evaluate):
        with pytest.raises(ValueError, match=re.escape("jumps not weakly increasing: (0, -1)")):
            call(-1)


def test_filtration_that_is_not_a_full_nested_chain_refuses_evaluate():
    """A chain <(1, 0)>, then <(0, 1)> once gave the line <(0, 1)> from
    evaluate(5), past its top jump, where the whole plane belongs."""
    f = KlyachkoFiltration((-1, 0), (span([(1, 0)], 2), span([(0, 1)], 2)))
    message = "last space is not the full ambient space; space 1 not contained in space 2"
    for call in (f.level, f.evaluate):
        with pytest.raises(ValueError, match=re.escape(message)):
            call(5)
    # the rank-1 chain that is a single line of the plane
    line = KlyachkoFiltration((0,), (span([(1, 0)], 2),))
    with pytest.raises(ValueError, match="^last space is not the full ambient space$"):
        line.evaluate(5)


def test_sheaf_jumps_are_the_validated_view():
    sheaf = rank3_example_sheaf()
    assert sheaf.jumps == tuple(f.jumps for f in sheaf.filtrations)
    unsorted = EquivariantReflexiveSheaf(projective_space(2), [
        KlyachkoFiltration(js, (span([(1, 0)], 2), Subspace.full(2)))
        for js in [(-1, 0), (0, -1), (-1, 0)]
    ])
    with pytest.raises(ValueError, match=re.escape("ray rho1: jumps not weakly increasing: (0, -1)")):
        unsorted.jumps


def test_each_filtration_is_checked_once(monkeypatch):
    """validate, then the engine, then the validated view: only the first
    ranks a pair of spaces."""
    calls = []
    original = rational_linalg.matrix_rank

    def counted(rows, width):
        calls.append(width)
        return original(rows, width)

    monkeypatch.setattr(rational_linalg, "matrix_rank", counted)
    sheaf = rank3_example_sheaf()
    assert validate(sheaf) == []
    checked = len(calls)
    assert checked
    SheafCohomology(sheaf)
    assert validate(sheaf) == [] and sheaf.jumps
    assert len(calls) == checked


def test_a_shift_of_a_valid_filtration_is_not_checked_again(monkeypatch):
    """A shift keeps every filtration rule: the twists of a validated sheaf
    rank no pair of spaces (4 ranks for the twist by (1, 1) once did)."""
    calls = []
    original = rational_linalg.matrix_rank

    def counted(rows, width):
        calls.append(width)
        return original(rows, width)

    monkeypatch.setattr(rational_linalg, "matrix_rank", counted)
    sheaf = rank3_example_sheaf()
    assert validate(sheaf) == []
    assert calls
    calls.clear()
    assert validate(twist(sheaf, (1, 1))) == []
    assert validate(twist(sheaf, (-2, 3))) == []
    assert validate(delta_normalization(sheaf)[1]) == []
    assert calls == []


def test_a_shift_of_a_faulty_filtration_names_its_own_jumps():
    f = KlyachkoFiltration((0, -1), (span([(1, 0)], 2), Subspace.full(2)))
    assert validate(EquivariantReflexiveSheaf(projective_space(1), (f, f))) != []
    with pytest.raises(ValueError, match=re.escape("jumps not weakly increasing: (-2, -3)")):
        f.shifted(2).level(0)
