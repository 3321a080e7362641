"""The level-tuple histogram, walked line by line through its cut points,
against a visit of every character."""
from __future__ import annotations

import random
from bisect import bisect_right
from collections import Counter
from math import ceil, floor, prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from toricsheaf import (
    CharacterBox,
    EquivariantReflexiveSheaf,
    IntervalConstraintSystem,
    KlyachkoFiltration,
    SheafCohomology,
    euler_characteristic,
    hirzebruch,
    projective_space,
    sigma_piece,
    span,
    split_bundle,
)
from toricsheaf.cohomology import _engine, _support_box

from conftest import (
    chain_filtration,
    random_filtration,
    random_invertible_rows,
    random_sheaf,
    rank3_example_sheaf,
)
from vertex_oracle import fraction_vertices

# V_1(1, 2) and V_1(1, 3) give the last coordinate slopes 2 and 3
VARIETIES = {
    "P1": (projective_space(1), (-4, 0, 5)),
    "P2": (projective_space(2), (-3, 0, 4)),
    "P3": (projective_space(3), (-2, 0, 2)),
    "H0": (hirzebruch(0), ((-2, 1), (0, 0), (3, 2))),
    "H3": (hirzebruch(3), ((1, -2), (0, 0), (4, 2))),
    "V1_12": (split_bundle(1, (1, 2)), ((-1, 1), (0, 0), (2, 1))),
    "V1_13": (split_bundle(1, (1, 3)), ((1, -1), (0, 0), (2, 2))),
    "V2_1": (split_bundle(2, (1,)), ((-1, 0), (0, 0), (1, 1))),
}


def per_character_histogram(engine: SheafCohomology, c) -> Counter:
    box, shifts = engine._twist_setup(c)
    return Counter(engine.levels(m, shifts) for m in box.points())


@pytest.mark.parametrize("name", sorted(VARIETIES))
@pytest.mark.parametrize("rank", [1, 2, 3])
def test_histogram_matches_per_character_count(name, rank):
    variety, twists = VARIETIES[name]
    rng = random.Random(f"{name}-{rank}")
    for c in twists:
        c = c if isinstance(c, tuple) else (c,)
        engine = SheafCohomology(random_sheaf(rng, variety, rank, -3, 0))
        hist = engine.histogram(c)
        assert hist == per_character_histogram(engine, c)
        box, _ = engine._twist_setup(c)
        assert sum(hist.values()) == prod(hi - lo + 1 for lo, hi in zip(box.lower, box.upper))


def twists_of(name):
    return [c if isinstance(c, tuple) else (c,) for c in VARIETIES[name][1]]


def lines_cut_at_the_ends(engine: SheafCohomology, c) -> tuple[int, int]:
    """How many lines of the twisted box change level tuple between lo - 1
    and lo, and between hi and hi + 1: cut points that land exactly on lo
    (already in the start tuple) and on hi + 1 (past the line)."""
    box, shifts = engine._twist_setup(c)
    lo, hi = box.lower[-1], box.upper[-1]
    at_lo = at_end = 0
    for prefix in CharacterBox(box.lower[:-1], box.upper[:-1]).points():
        def at(t):
            return engine.levels(prefix + (t,), shifts)
        at_lo += at(lo - 1) != at(lo)
        at_end += at(hi) != at(hi + 1)
    return at_lo, at_end


@pytest.mark.parametrize("name", ["P2", "V1_12", "V1_13"])
@pytest.mark.parametrize("rank", [2, 3])
def test_histogram_with_cuts_on_the_line_ends(name, rank):
    engine = SheafCohomology(
        random_sheaf(random.Random(f"ends-{name}-{rank}"), VARIETIES[name][0], rank, -3, 0)
    )
    for c in twists_of(name):
        at_lo, at_end = lines_cut_at_the_ends(engine, c)
        assert at_lo and at_end
        assert engine.histogram(c) == per_character_histogram(engine, c)


def repeated_jump_filtration(rng: random.Random, rank: int) -> KlyachkoFiltration:
    """A filtration with one jump of multiplicity at least 2."""
    j = rng.randint(-3, 0)
    jumps = sorted([j, j] + [rng.randint(-3, 0) for _ in range(rank - 2)])
    rows = random_invertible_rows(rng, rank)
    spaces = tuple(span(rows[:bisect_right(jumps, i)], rank) for i in jumps)
    return KlyachkoFiltration(tuple(jumps), spaces)


def double_steps(engine: SheafCohomology, c) -> int:
    """How many characters of the twisted box, past the start of their line,
    have some ray's level 2 or more away from the previous character's."""
    box, shifts = engine._twist_setup(c)
    return sum(
        any(abs(x - y) >= 2 for x, y in zip(
            engine.levels(m, shifts), engine.levels(m[:-1] + (m[-1] - 1,), shifts)
        ))
        for m in box.points() if m[-1] > box.lower[-1]
    )


@pytest.mark.parametrize("name", ["P1", "V1_12", "V1_13"])
@pytest.mark.parametrize("rank", [2, 3])
def test_histogram_with_repeated_jumps_on_sloped_rays(name, rank):
    """Slopes -1 and 1 on P^1 (one line, empty prefix), and -1, 1 and 2 or 3
    on V_1(1, 2) and V_1(1, 3): each sloped ray crosses two jumps at one
    cut point."""
    variety = VARIETIES[name][0]
    rng = random.Random(f"repeated-{name}-{rank}")
    filtrations = tuple(
        repeated_jump_filtration(rng, rank) if ray[-1] else random_filtration(rng, rank, -3, 0)
        for ray in variety.rays
    )
    engine = SheafCohomology(EquivariantReflexiveSheaf(variety, rank, filtrations))
    for c in twists_of(name):
        assert double_steps(engine, c)
        assert engine.histogram(c) == per_character_histogram(engine, c)


def test_module_functions_share_one_engine_per_sheaf():
    sheaf = rank3_example_sheaf()
    assert _engine(sheaf) is _engine(rank3_example_sheaf())
    for _ in range(2):
        for c in [(2, 0), (5, -3), (-1, 1)]:
            assert euler_characteristic(sheaf, c) == SheafCohomology(sheaf).chi_twisted(c)
        for m in [(0, 0), (-3, 1), (2, -1)]:
            fresh = SheafCohomology(sheaf)
            levels = fresh.levels(m)
            for cone in sheaf.variety.cones():
                assert sigma_piece(sheaf, cone, m) == fresh.piece(cone.ray_indices, levels)


def test_character_box_rejects_a_character_of_the_wrong_length():
    box = CharacterBox((0, 0), (1, 1))
    assert (1, 0) in box and (2, 0) not in box
    for m in [(0, 0, 5), (0,), ()]:
        with pytest.raises(ValueError, match="character must have length 2"):
            m in box


# twists on both sides of the jumps: the support polytopes of h^0 and h^n
# run from empty to wide, with vertices off the lattice on the sloped fans
SUPPORT_VARIETIES = {
    "P1": (projective_space(1), [(-6,), (-2,), (0,), (3,)]),
    "P2": (projective_space(2), [(-6,), (-2,), (0,), (3,)]),
    "P3": (projective_space(3), [(-6,), (-1,), (2,)]),
    **{
        f"H{a}": (hirzebruch(a), [(-4, -3), (0, 0), (2, 1), (-1, 3), (3, -2)])
        for a in range(4)
    },
    "V1_12": (split_bundle(1, (1, 2)), [(-3, -2), (0, 0), (2, 1), (1, -2)]),
    "V2_1": (split_bundle(2, (1,)), [(-3, -3), (0, 0), (1, 1)]),
}


def structure_sheaf(variety) -> EquivariantReflexiveSheaf:
    return EquivariantReflexiveSheaf(
        variety, 1, tuple(chain_filtration((0,), [], 1) for _ in variety.rays)
    )


def support_cases():
    """(engine, twist) for seeded sheaves of ranks 1-3 on every support
    variety, and O on P^2 at twist 0, whose h^0 polytope is one point."""
    yield SheafCohomology(structure_sheaf(projective_space(2))), (0,)
    for name, (variety, twists) in SUPPORT_VARIETIES.items():
        for rank in (1, 2, 3):
            engine = SheafCohomology(
                random_sheaf(random.Random(f"support-{name}-{rank}"), variety, rank, -3, 0)
            )
            for c in twists:
                yield engine, c


def support_systems(engine: SheafCohomology, c):
    """The h^0 system (every level >= 1, lower bounds only) and the h^n
    system (no level at the top, upper bounds only), each with the rows and
    bounds the engine hands to ``_support_box``."""
    shifts = engine.variety.twist_divisor(c)
    rays = engine.variety.rays
    none = (None,) * len(rays)
    lower = tuple(f.jumps[0] - sh for f, sh in zip(engine.sheaf.filtrations, shifts))
    upper = tuple(f.jumps[-1] - sh for f, sh in zip(engine.sheaf.filtrations, shifts))
    negated = tuple(tuple(-a for a in ray) for ray in rays)
    return [
        (IntervalConstraintSystem(rays, lower, none), rays, lower),
        (IntervalConstraintSystem(rays, none, upper), negated, [1 - up for up in upper]),
    ]


def full_box_total(engine: SheafCohomology, c, local) -> int:
    return sum(n * local(lv) for lv, n in engine.histogram(c).items())


def test_support_totals_match_full_box_totals():
    kinds = set()
    for engine, c in support_cases():
        h0, hn = engine.h0_twisted(c), engine.hn_twisted(c)
        cech = engine.cech_twisted(c)
        assert h0 == full_box_total(engine, c, engine.h0) == cech[0]
        assert hn == full_box_total(engine, c, engine.hn) == cech[-1]
        for system, _, _ in support_systems(engine, c):
            vertices = set(fraction_vertices(system))
            if not vertices:
                kinds.add("empty")
            elif len(vertices) == 1:
                kinds.add("point")
            if any(x.denominator != 1 for v in vertices for x in v):
                kinds.add("non-integral")
    assert kinds == {"empty", "point", "non-integral"}


def test_structure_sheaf_of_p2_has_a_one_point_h0_polytope():
    engine = SheafCohomology(structure_sheaf(projective_space(2)))
    (system, rows, bounds), _ = support_systems(engine, (0,))
    assert fraction_vertices(system) == [(0, 0)] * 3
    assert _support_box(rows, bounds) == CharacterBox((0, 0), (0, 0))
    assert engine.h0_twisted((0,)) == 1


SURFACE_SHEAVES = [
    rank3_example_sheaf(),
    random_sheaf(random.Random("support-hypothesis-V1_12"), split_bundle(1, (1, 2)), 2, -3, 0),
]


@settings(max_examples=40, deadline=None)
@given(
    st.sampled_from(range(len(SURFACE_SHEAVES))),
    st.tuples(st.integers(-12, 12), st.integers(-12, 12)),
)
def test_support_totals_match_full_box_totals_on_any_twist(which, c):
    engine = _engine(SURFACE_SHEAVES[which])
    assert engine.h0_twisted(c) == full_box_total(engine, c, engine.h0)
    assert engine.hn_twisted(c) == full_box_total(engine, c, engine.hn)


def test_support_box_is_the_box_of_the_polytope_vertices():
    """The box floors the least and ceils the largest coordinate of the
    feasible vertices, with no margin, and is None when there are none."""
    for engine, c in support_cases():
        for system, rows, bounds in support_systems(engine, c):
            vertices = fraction_vertices(system)
            box = _support_box(rows, bounds)
            if not vertices:
                assert box is None
                continue
            columns = list(zip(*vertices))
            assert box == CharacterBox(
                tuple(floor(min(x)) for x in columns), tuple(ceil(max(x)) for x in columns)
            )
