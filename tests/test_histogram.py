"""The level-tuple histogram, walked line by line through its cut points,
against a visit of every character."""
from __future__ import annotations

import random
from bisect import bisect_right
from collections import Counter
from fractions import Fraction
from itertools import product
from math import prod
from operator import mul
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from toricsheaf import (
    CharacterBox,
    EquivariantReflexiveSheaf,
    IntervalConstraintSystem,
    KlyachkoFiltration,
    SheafCohomology,
    Subspace,
    euler_characteristic,
    hirzebruch,
    line_bundle,
    load_config,
    projective_space,
    psi_points,
    sigma_piece,
    span,
    split_bundle,
    structure_sheaf,
)
from toricsheaf.cohomology import _engine
from toricsheaf.errors import UnboundedSystemError
from toricsheaf import polytopes
from toricsheaf.polytopes import (
    _box_plan,
    _chain,
    _compiled_chain,
    _cuts,
    _planes,
    _polytope_box,
    _walk_order,
    _walk_plan,
)
from toricsheaf.toric import ToricVariety

from conftest import (
    SHIPPED_CONFIGS,
    random_invertible_rows,
    random_sheaf,
    rank3_example_sheaf,
    shipped_sheaf,
    shipped_twists,
    twisted_box,
    walked,
)
from vertex_oracle import (
    box_points,
    fraction_box,
    fraction_vertices,
    homogeneous_bounds,
    support_polytopes,
    widened,
)

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
    box, shifts = twisted_box(engine.sheaf, c)
    return Counter(engine.levels(m, shifts) for m in box_points(box))


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
        box, _ = twisted_box(engine.sheaf, c)
        assert sum(hist.values()) == prod(hi - lo + 1 for lo, hi in zip(box.lower, box.upper))


def twists_of(name):
    return [c if isinstance(c, tuple) else (c,) for c in VARIETIES[name][1]]


def at_coordinate(m: tuple[int, ...], axis: int, t: int) -> tuple[int, ...]:
    return m[:axis] + (t,) + m[axis + 1:]


def wide_setup(engine: SheafCohomology, c) -> tuple[CharacterBox, tuple[int, ...]]:
    """The twisted box widened by 1, and the twist's shifts.  The engine's
    box holds every arrangement vertex and nothing more, so on some twists
    no level changes just past the ends of its lines; in the wider box the
    jump hyperplanes through the outermost vertices cross there."""
    box, shifts = twisted_box(engine.sheaf, c)
    return widened(box, 1), shifts


def lines_cut_at_the_ends(
    engine: SheafCohomology, box: CharacterBox, shifts: tuple[int, ...]
) -> tuple[int, int]:
    """How many lines of the box, along the walk's line axis, change level
    tuple between lo - 1 and lo, and between hi and hi + 1: cut points that
    land exactly on lo (already in the start tuple) and on hi + 1 (past the
    line)."""
    axis = _walk_order(box)[-1]
    lo, hi = box.lower[axis], box.upper[axis]
    at_lo = at_end = 0
    for m in box_points(box):
        if m[axis] == lo:
            def at(t):
                return engine.levels(at_coordinate(m, axis, t), shifts)
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
        box, shifts = wide_setup(engine, c)
        at_lo, at_end = lines_cut_at_the_ends(engine, box, shifts)
        assert at_lo and at_end
        check_walk(engine, box, shifts)
        assert engine.histogram(c) == per_character_histogram(engine, c)


def repeated_jump_filtration(rng: random.Random, rank: int) -> KlyachkoFiltration:
    """A filtration with one jump of multiplicity at least 2."""
    j = rng.randint(-3, 0)
    jumps = sorted([j, j] + [rng.randint(-3, 0) for _ in range(rank - 2)])
    rows = random_invertible_rows(rng, rank)
    spaces = tuple(span(rows[:bisect_right(jumps, i)], rank) for i in jumps)
    return KlyachkoFiltration(tuple(jumps), spaces)


def repeated_jump_sheaf(rng: random.Random, variety, rank: int) -> EquivariantReflexiveSheaf:
    """A sheaf with a repeated jump on every ray.  The jumps move the box and
    the box picks the line axis, so every ray gets one: the rays sloped along
    whichever axis the walk picks have theirs."""
    return EquivariantReflexiveSheaf(
        variety, tuple(repeated_jump_filtration(rng, rank) for _ in variety.rays)
    )


def double_steps(
    engine: SheafCohomology, box: CharacterBox, shifts: tuple[int, ...], axis: int
) -> int:
    """How many characters of the box, past the start of their line along
    the axis, have some ray's level 2 or more away from the previous
    character's."""
    return sum(
        any(abs(x - y) >= 2 for x, y in zip(
            engine.levels(m, shifts), engine.levels(at_coordinate(m, axis, m[axis] - 1), shifts)
        ))
        for m in box_points(box) if m[axis] > box.lower[axis]
    )


@pytest.mark.parametrize("name", ["P1", "V1_12", "V1_13"])
@pytest.mark.parametrize("rank", [2, 3])
def test_histogram_with_repeated_jumps_on_sloped_rays(name, rank):
    """Slopes -1 and 1 on P^1 (one line, empty prefix), and -1, 1 and 2 or 3
    on V_1(1, 2) and V_1(1, 3): each ray sloped along the line axis crosses
    two jumps at one cut point."""
    variety = VARIETIES[name][0]
    rng = random.Random(f"repeated-{name}-{rank}")
    engine = SheafCohomology(repeated_jump_sheaf(rng, variety, rank))
    for c in twists_of(name):
        box, shifts = wide_setup(engine, c)
        assert double_steps(engine, box, shifts, _walk_order(box)[-1])
        check_walk(engine, box, shifts)
        assert engine.histogram(c) == per_character_histogram(engine, c)


# box shapes for the walk: one axis strictly longest, every extent tied, two
# axes tied for the longest, one line, one point, and a longest axis whose
# every other side, the stepping axis among them, has extent 0 or 1, so the
# planes hold one line or two
SHAPES = ["longest", "tied", "two-tied", "line", "point", "thin-step"]


def shaped_box(shape: str, axis: int, lower: list[int], sizes: list[int]) -> CharacterBox:
    """A box of the shape at lower, whose extents (upper - lower) come from
    sizes, each in 0..4, and whose named axis is longest where the shape
    has one."""
    dim = len(lower)
    top = max(sizes) + 1
    if shape == "longest":
        extents = [min(s, top - 1) for s in sizes]
        extents[axis] = top
    elif shape == "tied":
        extents = [sizes[0]] * dim
    elif shape == "two-tied":
        extents = list(sizes)
        extents[axis] = extents[(axis + 1) % dim] = top
    elif shape == "line":
        extents = [0] * dim
        extents[axis] = sizes[axis]
    elif shape == "point":
        extents = [0] * dim
    else:  # thin-step
        extents = [s % 2 for s in sizes]
        extents[axis] = top
    return CharacterBox(tuple(lower), tuple(lo + e for lo, e in zip(lower, extents)))


def check_walk(engine: SheafCohomology, box: CharacterBox, shifts: tuple[int, ...]) -> None:
    assert walked(engine, _box_plan(box), shifts) == Counter(engine.levels(m, shifts) for m in box_points(box))


@pytest.mark.parametrize("shape", SHAPES)
@pytest.mark.parametrize("name", sorted(VARIETIES))
def test_walk_matches_per_character_count_on_every_box_shape(name, shape):
    """Every shape with every axis as the named one, on every variety: the
    slopes -1, 1, 2 and 3 of H_3, V_1(1, 2) and V_1(1, 3) lie along the line
    for one axis and along the stepping axis for another."""
    variety = VARIETIES[name][0]
    rng = random.Random(f"walk-{name}-{shape}")
    for axis in range(variety.dim):
        for rank in (1, 2, 3):
            engine = SheafCohomology(random_sheaf(rng, variety, rank, -3, 0))
            box = shaped_box(
                shape, axis,
                [rng.randint(-5, 3) for _ in range(variety.dim)],
                [rng.randint(0, 4) for _ in range(variety.dim)],
            )
            extents = [hi - lo for lo, hi in zip(box.lower, box.upper)]
            longest = [i for i, e in enumerate(extents) if e == max(extents)]
            if shape in ("longest", "thin-step"):
                assert longest == [axis]
            # the walk's lines run along the longest axis, the highest on a tie
            assert _walk_order(box)[-1] == longest[-1]
            shifts = tuple(rng.randint(-5, 5) for _ in variety.rays)
            check_walk(engine, box, shifts)


@settings(max_examples=150, deadline=None)
@given(
    st.sampled_from(sorted(VARIETIES)),
    st.integers(1, 3),
    st.sampled_from(SHAPES),
    st.integers(0, 2**32),
    st.data(),
)
def test_walk_matches_per_character_count_on_any_box(name, rank, shape, seed, data):
    variety = VARIETIES[name][0]
    dim = variety.dim
    engine = SheafCohomology(random_sheaf(random.Random(seed), variety, rank, -3, 0))
    box = shaped_box(
        shape,
        data.draw(st.integers(0, dim - 1)),
        data.draw(st.lists(st.integers(-6, 4), min_size=dim, max_size=dim)),
        data.draw(st.lists(st.integers(0, 4), min_size=dim, max_size=dim)),
    )
    shifts = data.draw(st.tuples(*[st.integers(-6, 6)] * variety.ray_count))
    check_walk(engine, box, shifts)


def box_bounds(box: CharacterBox) -> list[tuple[int, ...]]:
    """The box's 2n bounds m_i >= lower_i and m_i <= upper_i, each as
    h = (constant, row) with h . (1, m) >= 0."""
    n = len(box.lower)
    units = [tuple(int(k == i) for k in range(n)) for i in range(n)]
    return [(-lo,) + e for lo, e in zip(box.lower, units)] + [
        (hi,) + tuple(-x for x in e) for hi, e in zip(box.upper, units)
    ]


@settings(max_examples=100, deadline=None)
@given(
    st.sampled_from(sorted(VARIETIES)),
    st.integers(1, 3),
    st.sampled_from(SHAPES),
    st.integers(0, 2**32),
    st.data(),
)
def test_box_plan_and_polytope_plan_walk_a_box_alike(name, rank, shape, seed, data):
    """The box plan and the polytope plan of the box's own bounds give the
    same order, the same planes and the same histogram."""
    variety = VARIETIES[name][0]
    dim = variety.dim
    engine = SheafCohomology(random_sheaf(random.Random(seed), variety, rank, -3, 0))
    box = shaped_box(
        shape,
        data.draw(st.integers(0, dim - 1)),
        data.draw(st.lists(st.integers(-6, 4), min_size=dim, max_size=dim)),
        data.draw(st.lists(st.integers(0, 4), min_size=dim, max_size=dim)),
    )
    shifts = data.draw(st.tuples(*[st.integers(-6, 6)] * variety.ray_count))
    bounds = box_bounds(box)

    def listed(plan):
        order, planes = plan
        return order, [(tuple(start), list(ends)) for start, ends in planes]

    assert listed(_walk_plan(bounds, (1,))) == listed(_box_plan(box))
    assert walked(engine, _box_plan(box), shifts) == walked(engine, _walk_plan(bounds, (1,)), shifts)


def box_of_extents(extents) -> CharacterBox:
    return CharacterBox((0,) * len(extents), tuple(extents))


@pytest.mark.parametrize("extents, order", [
    ((5, 1, 7, 3), [1, 3, 0, 2]),
    ((4,), [0]),
    ((2, 2, 2), [0, 1, 2]),
    ((3, 0, 3), [1, 0, 2]),
    ((1, 6, 6, 0), [3, 0, 1, 2]),
])
def test_walk_order_sorts_the_axes_by_side_length(extents, order):
    """Shortest first and index order on a tie: the line axis, last, is the
    longest side with the highest index, and the stepping axis before it
    the next-longest side."""
    assert _walk_order(box_of_extents(extents)) == order


@given(st.lists(st.integers(0, 6), min_size=1, max_size=5))
def test_walk_order_is_a_permutation_by_rising_extent(extents):
    order = _walk_order(box_of_extents(extents))
    assert sorted(order) == list(range(len(extents)))
    assert all(extents[i] <= extents[j] for i, j in zip(order, order[1:]))
    assert order[-1] == max(i for i, e in enumerate(extents) if e == max(extents))


@pytest.mark.parametrize("shape", SHAPES)
@pytest.mark.parametrize("name", sorted(VARIETIES))
def test_walk_makes_one_levels_call_per_walk(name, shape, monkeypatch):
    """A plane fixes every side but the two longest, so the walk visits
    (extent + 1) multiplied over the other sides planes; it makes one
    levels call in all, and every later start tuple bisects its pairings."""
    variety = VARIETIES[name][0]
    rng = random.Random(f"planes-{name}-{shape}")
    engine = SheafCohomology(random_sheaf(rng, variety, 2, -3, 0))
    calls, planes = [], []
    levels = engine.levels

    def counting(m, shifts=None):
        calls.append(m)
        return levels(m, shifts)

    monkeypatch.setattr(engine, "levels", counting)
    for axis in range(variety.dim):
        box = shaped_box(
            shape, axis,
            [rng.randint(-5, 3) for _ in range(variety.dim)],
            [rng.randint(0, 4) for _ in range(variety.dim)],
        )
        extents = sorted(hi - lo for lo, hi in zip(box.lower, box.upper))
        calls.clear()
        planes.clear()
        order, walked = _box_plan(box)
        plan = order, (planes.append(p) or p for p in walked)
        engine._walk(plan, tuple(rng.randint(-5, 5) for _ in variety.rays))
        assert len(planes) == prod(e + 1 for e in extents[:-2])
        assert len(calls) == 1


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


@pytest.mark.parametrize("lower, upper", [((0.5,), (2,)), ((True,), (2,)), ((0,), (2.0,))])
def test_character_box_rejects_bounds_that_are_not_integers(lower, upper):
    with pytest.raises(ValueError, match="box bound must be an integer"):
        CharacterBox(lower, upper)


def test_character_box_stores_its_bounds_as_tuples():
    box = CharacterBox([0, -1], [2, 1])
    assert box.lower == (0, -1) and box.upper == (2, 1)
    assert {box: 1}[CharacterBox((0, -1), (2, 1))] == 1


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
    system (no level at the top, upper bounds only), each with its bounds in
    the homogeneous form the engine hands to ``_polytope_box`` and the
    integer ranges of its vertex box."""
    return [
        (system, homogeneous_bounds(system), fraction_box(system))
        for system in support_polytopes(engine.sheaf, c)
    ]


def histogram_total(counts: dict, local) -> int:
    return sum(n * local(lv) for lv, n in counts.items())


def full_box_total(engine: SheafCohomology, c, local) -> int:
    return histogram_total(engine.histogram(c), local)


def assert_support_totals(engine: SheafCohomology, c) -> None:
    """h^0 and h^n over their support polytopes equal their totals over the
    box of the whole jump arrangement and Cech's first and last numbers."""
    counts, cech = engine.histogram(c), engine.cech_twisted(c)
    assert engine.h0_twisted(c) == histogram_total(counts, engine.h0) == cech[0], c
    assert engine.hn_twisted(c) == histogram_total(counts, engine.hn) == cech[-1], c


def test_support_totals_match_full_box_totals():
    kinds = set()
    for engine, c in support_cases():
        assert_support_totals(engine, c)
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
    (system, bounds, _), _ = support_systems(engine, (0,))
    assert fraction_vertices(system) == [(0, 0)] * 3
    assert _polytope_box(bounds, (1,)) == CharacterBox((0, 0), (0, 0))
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


def test_a_support_total_checks_its_class_once(monkeypatch):
    """h^0 and h^n check the class once, in ``twist_divisor``, and read the
    class coordinates of the support bounds back from its divisor."""
    engine = SheafCohomology(rank3_example_sheaf())
    engine._support_bounds  # built once per engine, from the unit classes
    checks = []
    check = ToricVariety.check_class
    monkeypatch.setattr(ToricVariety, "check_class", lambda v, c: checks.append(c) or check(v, c))
    for total, c in [(engine.h0_twisted, [2, 1]), (engine.hn_twisted, [-12, -9])]:
        checks.clear()
        assert total(c) > 0
        assert checks == [c]


# the packed keys: varieties with 3 to 6 rays, one of them with a slope-3 ray
PACKING_VARIETIES = {
    "P2": projective_space(2),
    "H3": hirzebruch(3),
    "V1_12": split_bundle(1, (1, 2)),
    "V2_12": split_bundle(2, (1, 2)),
}


@pytest.mark.parametrize("name", sorted(PACKING_VARIETIES))
@pytest.mark.parametrize("rank", [1, 2, 3, 4])
def test_packed_keys_number_the_level_tuples_once_each(name, rank):
    """The (rank + 1)^rays level tuples in [0..rank]^rays pack to the keys
    0 .. (rank + 1)^rays - 1, one each, and unpack to themselves: 5^6 =
    15,625 of them for rank 4 on V_2(1, 2)."""
    variety = PACKING_VARIETIES[name]
    engine = SheafCohomology(random_sheaf(random.Random(f"pack-{name}-{rank}"), variety, rank, -3, 0))
    grid = list(product(range(rank + 1), repeat=variety.ray_count))
    keys = [engine._pack(lv) for lv in grid]
    assert sorted(keys) == list(range(len(grid)))
    assert [engine._unpack(key) for key in keys] == grid


@settings(max_examples=40, deadline=None)
@given(
    st.sampled_from(["P2", "H3", "V1_12"]),
    st.integers(1, 4),
    st.integers(0, 2**32),
    st.data(),
)
def test_twisted_totals_are_public_local_sums_over_the_public_histogram(name, rank, seed, data):
    """Every total read from the caches by key equals the public local
    number, which packs its own tuple on a fresh engine, summed over the
    public histogram, which unpacks the walk's keys."""
    variety = PACKING_VARIETIES[name]
    c = data.draw(st.tuples(*[st.integers(-5, 5)] * variety.class_rank))
    sheaf = random_sheaf(random.Random(seed), variety, rank, -3, 0)
    engine, fresh = SheafCohomology(sheaf), SheafCohomology(sheaf)
    hist = engine.histogram(c)
    assert engine.chi_twisted(c) == histogram_total(hist, fresh.chi)
    assert engine.h0_twisted(c) == histogram_total(hist, fresh.h0)
    assert engine.hn_twisted(c) == histogram_total(hist, fresh.hn)
    assert engine.cech_twisted(c) == tuple(
        histogram_total(hist, lambda lv: fresh.cech(lv)[i]) for i in range(variety.dim + 1)
    )


def test_polytope_box_is_the_inward_box_of_the_polytope_vertices():
    """The box ceils the least and floors the largest coordinate of the
    feasible vertices, with no margin, and is None when there are none or
    some coordinate's range holds no integer; every integer point of the
    h^0 polytope lies in it."""
    kinds = set()
    for engine, c in support_cases():
        for system, bounds, oracle in support_systems(engine, c):
            assert _polytope_box(bounds, (1,)) == oracle
            vertices = fraction_vertices(system)
            if not vertices:
                kinds.add("empty")
            elif any(min(x) % 1 or max(x) % 1 for x in zip(*vertices)):
                kinds.add("rounded inward")
            if system.upper == (None,) * len(system.upper):
                assert all(m in oracle for m in psi_points(system))
    assert kinds == {"empty", "rounded inward"}


def test_polytope_box_is_none_when_a_coordinate_range_holds_no_integer():
    """On P^n and V_s(a) a non-empty support polytope holds a lattice point,
    a vertex cut out by rays that form a lattice basis, so this takes a
    simplicial complete fan with singular cones: rays (1, 2), (1, -2) and
    (-1, 0).  O(D) with jumps (1, -1, 0) has the one-point h^0 polytope
    (0, 1/2), and jumps (0, 2, 1) the one-point h^n polytope (0, -1/2): each
    is non-empty over the reals, but no integer lies in its m_2 range."""
    for coeffs, which in (((-1, 1, 0), 0), ((0, -2, -1), 1)):
        engine = SheafCohomology(line_bundle(SINGULAR_FAN, coeffs))
        system = support_polytopes(engine.sheaf, (0,))[which]
        assert set(fraction_vertices(system)) == {(0, Fraction(1, 2) * (-1) ** which)}
        assert _polytope_box(homogeneous_bounds(system), (1,)) is None
        assert fraction_box(system) is None
        for c in [(-2,), (-1,), (0,), (1,), (2,)]:
            cech = engine.cech_twisted(c)
            assert engine.h0_twisted(c) == cech[0]
            assert engine.hn_twisted(c) == cech[-1]


def test_polytope_box_is_none_on_an_empty_polytope_with_wide_ranges():
    """0 <= m_1 <= 5 and 1 <= m_2 - m_1 <= 0: the pair on m_2 - m_1 leaves a
    negative constant that no single coordinate's cut reads, and the shadows
    on m_1 and m_2 alone would give [0, 5] and [1, 5]."""
    bounds = [(0, 1, 0), (5, -1, 0), (-1, -1, 1), (0, 1, -1)]
    assert _polytope_box(bounds, (1,)) is None


@pytest.mark.parametrize("bounds", [
    [(0, 1, 0), (0, 0, 1)],                 # the quadrant m >= 0
    [(3, 1, 0), (3, -1, 0), (0, 0, 1)],     # a half strip, unbounded in m_2
])
def test_polytope_box_refuses_rows_that_do_not_positively_span(bounds):
    with pytest.raises(UnboundedSystemError, match="bounded polytope"):
        _polytope_box(bounds, (1,))


# the polytope walk of h^0 and h^n: surfaces, threefolds and fourfolds, the
# V_s(a) with s + r <= 4, and twists from empty polytopes to wide ones
WALK_VARIETIES = {
    "P1": (projective_space(1), [(-9,), (-7,), (-2,), (0,), (4,)]),
    "P2": (projective_space(2), [(-10,), (-8,), (-1,), (0,), (3,)]),
    "P3": (projective_space(3), [(-12,), (0,), (2,)]),
    **{
        f"H{a}": (hirzebruch(a), [(-6, -9), (-3, -8), (-4, -3), (0, 0), (2, 1), (-1, 3), (3, -2)])
        for a in range(5)
    },
    "V1_1": (split_bundle(1, (1,)), [(-2, -11), (-5, -5), (-3, -3), (0, 0), (2, 1), (-1, 2)]),
    "V1_12": (split_bundle(1, (1, 2)), [(-8, -8), (-6, -5), (-3, -2), (0, 0), (2, 1), (1, -2)]),
    "V1_13": (split_bundle(1, (1, 3)), [(-8, -9), (-1, -7), (0, 0), (1, 2)]),
    "V1_012": (split_bundle(1, (0, 1, 2)), [(-3, -11), (-3, -3), (0, 0), (1, 1)]),
    "V2_1": (split_bundle(2, (1,)), [(-2, -12), (-5, -5), (-3, -3), (0, 0), (1, 1)]),
    "V2_12": (split_bundle(2, (1, 2)), [(-3, -8), (-3, -6), (-3, -3), (0, 0), (1, 1)]),
    "V3_1": (split_bundle(3, (1,)), [(-1, -12), (-5, -5), (-3, -3), (0, 0), (1, 1)]),
}

# rays (1, 2), (1, -2) and (-1, 0): a complete simplicial fan with singular
# cones, whose support polytopes can be non-empty over the reals and still
# hold no integer point
SINGULAR_FAN = ToricVariety(((1, 2), (1, -2), (-1, 0)), ("a", "b", "c"))


def test_the_singular_fan_walks_but_has_no_ray_classes():
    """Its cone off the class basis, rays (1, -2) and (-1, 0), has
    determinant -2, so the exact sequence gives no integral class of a
    ray: before the classes were derived, its given degrees (1,) each made
    the principal divisor of chi^(1, 0) a divisor of class (1,).  The
    twists that the walks read place a class on the basis ray alone."""
    message = "^the rays off the class basis must form a lattice basis$"
    with pytest.raises(ValueError, match=message):
        SINGULAR_FAN.degrees
    with pytest.raises(ValueError, match=message):
        SINGULAR_FAN.divisor_class(SINGULAR_FAN.character_embedding((1, 0)))
    assert SINGULAR_FAN.twist_divisor((3,)) == (3, 0, 0)


def as_lower_bounds(bounds) -> IntervalConstraintSystem:
    """The system row . m >= k, one row per homogeneous bound h = (-k, row),
    which psi_points can list."""
    return IntervalConstraintSystem(
        tuple(h[1:] for h in bounds), tuple(-h[0] for h in bounds), (None,) * len(bounds)
    )


def walk_kinds(bounds, system) -> set[str]:
    """What the polytope shows the walk: empty, one point, non-integral
    vertices, no integer point at all, a line with no integer point, or a
    line that ends where a bound whose coefficient of the line axis is not
    -1 or 1 is rounded."""
    kinds = set()
    vertices = set(fraction_vertices(system))
    if not vertices:
        kinds.add("empty")
    elif len(vertices) == 1:
        kinds.add("point")
    if any(x.denominator != 1 for v in vertices for x in v):
        kinds.add("non-integral")
    box = _polytope_box(bounds, (1,))
    if box is None:
        if vertices:
            kinds.add("integer-free")
        return kinds
    order = _walk_order(box)
    cuts = _cuts(_chain([(h[0],) + tuple(h[i + 1] for i in order) for h in bounds], len(order)), (1,))
    rising, falling = cuts[-1]
    lines = [
        (start[:-1] + (start[-1] + j,) if start else (), lo, hi)
        for start, ends in _planes(cuts) for j, (lo, hi) in enumerate(ends)
    ]
    if any(lo > hi for _, lo, hi in lines):
        kinds.add("integer-free line")
    for prefix, lo, hi in lines:
        point = (1,) + prefix
        ends = [(-(v // a), v % a) for v, a in
                ((sum(map(mul, rest, point)), a) for rest, a in rising if a > 1)]
        ends += [(v // a, v % a) for v, a in
                 ((sum(map(mul, rest, point)), a) for rest, a in falling if a > 1)]
        if lo <= hi and any(rounded and end in (lo, hi) for end, rounded in ends):
            kinds.add("rounded non-unit end")
    return kinds


def jump_kinds(engine: SheafCohomology, crossable, bounds) -> set[str]:
    """What a non-empty support polytope's crossable jumps show the walk: no
    level that moves, a repeated first or top jump left out (more than one
    jump of a ray that no line crosses), and whether the walk's first line
    holds no point."""
    kinds = set()
    if not any(crossable):
        kinds.add("levels fixed")
    if any(len(js) - len(kept) > 1 for js, kept in zip(engine._jumps, crossable)):
        kinds.add("repeated end jump")
    _, planes = _walk_plan(bounds, (1,))
    lo, hi = next(planes)[1][0]
    if lo > hi:
        kinds.add("empty first line")
        if not any(crossable):
            kinds.add("empty first line, levels fixed")
    return kinds


def check_support_walk(engine: SheafCohomology, c) -> set[str]:
    """The engine's polytope-walk histograms of h^0 and h^n at the twist,
    cut only at the jumps that ``_support_total`` passes as crossable,
    against a count of each character psi_points lists; what the two
    polytopes showed the walk."""
    shifts = engine.variety.twist_divisor(c)
    kinds = set()
    for which, (system, crossable) in enumerate(zip(support_polytopes(engine.sheaf, c), engine._crossable)):
        bounds = homogeneous_bounds(system)
        points = psi_points(as_lower_bounds(bounds))
        plan = _walk_plan(bounds, (1,))
        hist = {} if plan is None else walked(engine, plan, shifts, which)
        assert hist == Counter(engine.levels(m, shifts) for m in points)
        kinds |= walk_kinds(bounds, system)
        if points:
            kinds |= jump_kinds(engine, crossable, bounds)
    return kinds


@pytest.mark.parametrize("name", sorted(WALK_VARIETIES))
def test_support_walk_matches_per_character_count(name):
    variety, twists = WALK_VARIETIES[name]
    for rank in (1, 2, 3):
        engine = SheafCohomology(
            random_sheaf(random.Random(f"support-walk-{name}-{rank}"), variety, rank, -3, 0)
        )
        for c in twists:
            check_support_walk(engine, c)


def test_support_walk_cases_cover_every_kind():
    kinds = set()
    for name, (variety, twists) in WALK_VARIETIES.items():
        engine = SheafCohomology(
            random_sheaf(random.Random(f"support-walk-{name}-2"), variety, 2, -3, 0)
        )
        for c in twists:
            kinds |= check_support_walk(engine, c)
    kinds |= check_support_walk(SheafCohomology(structure_sheaf(projective_space(2))), (0,))
    # (-1, 1, 7) at twist 0: m_1 + 2 m_2 >= 1, m_1 - 2 m_2 >= -1, m_1 <= 7,
    # whose lines run along m_2; the first, m_1 = 0, is the point m_2 = 1/2
    for coeffs in ((-1, 1, 0), (0, -2, -1), (2, 1, 3), (-1, 1, 7)):
        engine = SheafCohomology(line_bundle(SINGULAR_FAN, coeffs))
        for c in [(-2,), (0,), (1,), (3,)]:
            kinds |= check_support_walk(engine, c)
    # rank 2 with equal jumps on every ray: O(D) + O(D), no level moves
    full = Subspace.full(2)
    doubled = EquivariantReflexiveSheaf(hirzebruch(1), tuple(
        KlyachkoFiltration((j, j), (full, full)) for j in (-1, 0, -2, 1)
    ))
    for c in [(0, 0), (2, 1), (-1, 3)]:
        kinds |= check_support_walk(SheafCohomology(doubled), c)
    assert kinds == {
        "empty", "point", "non-integral", "integer-free", "integer-free line",
        "rounded non-unit end", "levels fixed", "repeated end jump", "empty first line",
        "empty first line, levels fixed",
    }


def test_a_cut_support_walk_makes_one_levels_call_and_a_constant_one_none(monkeypatch):
    """Like the box walk, a support polytope's walk, cut at its crossable
    jumps, makes one checked levels call when the polytope holds a
    character, and none or one when it holds none.  Where no level moves,
    as on a rank-1 sheaf, the walk makes none: the bound rule puts every
    ray at its top level in the h^0 polytope and at level 0 in the h^n one,
    so its one key is the top tuple or the zero tuple."""
    cases = [
        SheafCohomology(random_sheaf(random.Random(f"one-call-{name}-{rank}"), variety, rank, -3, 0))
        for name, variety in PACKING_VARIETIES.items() for rank in (1, 2, 3)
    ] + [SheafCohomology(line_bundle(hirzebruch(3), (1, 0, 2, 1)))]
    kinds = set()
    for engine in cases:
        calls = []
        levels = engine.levels
        monkeypatch.setattr(engine, "levels", lambda m, shifts=None: calls.append(m) or levels(m, shifts))
        variety = engine.variety
        fixed = ((engine.rank,) * variety.ray_count, (0,) * variety.ray_count)
        for c in product(range(-3, 3), repeat=variety.class_rank):
            shifts = variety.twist_divisor(c)
            for which, (total, system) in enumerate(zip(
                (engine.h0_twisted, engine.hn_twisted), support_polytopes(engine.sheaf, c)
            )):
                calls.clear()
                total(c)
                bounds = homogeneous_bounds(system)
                points = psi_points(as_lower_bounds(bounds))
                if not any(engine._crossable[which]):
                    assert calls == [], (c, which)
                    if points:
                        kinds.add("constant")
                        plan = _walk_plan(bounds, (1,))
                        assert walked(engine, plan, shifts, which) == {fixed[which]: len(points)}
                elif points:
                    assert len(calls) == 1, (c, which)
                    kinds.add("cut")
                else:
                    assert len(calls) <= 1
    assert kinds == {"cut", "constant"}


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from(sorted(WALK_VARIETIES)),
    st.integers(1, 3),
    st.integers(0, 2**32),
    st.data(),
)
def test_support_walk_matches_per_character_count_on_any_twist(name, rank, seed, data):
    variety = WALK_VARIETIES[name][0]
    top = 2 if variety.dim == 4 else 4
    c = data.draw(st.tuples(*[st.integers(-10, top)] * variety.class_rank))
    engine = SheafCohomology(random_sheaf(random.Random(seed), variety, rank, -3, 0))
    check_support_walk(engine, c)


def in_order(bounds, order, forms=1):
    """The bounds with their coordinates taken in this order, after the
    first ``forms`` entries, the form of their constant."""
    return [h[:forms] + tuple(h[forms + i] for i in order) for h in bounds]


def assert_compiled_support_bounds(engine: SheafCohomology, c) -> None:
    """At the twist, the box of each numeric support polytope is its
    Fraction vertex box, and the compiled bounds give that box, the
    emptiness and the lines of the numeric bounds."""
    dim, params = engine.variety.dim, (1,) + c
    for compiled, system in zip(engine._support_bounds, support_polytopes(engine.sheaf, c)):
        numeric = homogeneous_bounds(system)
        box = _polytope_box(numeric, (1,))
        assert box == fraction_box(system), c
        assert _polytope_box(compiled, params) == box, c
        order = _walk_order(box) if box else list(range(dim))
        cuts = _cuts(_chain(in_order(compiled, order, len(params)), dim), params)
        expected = _cuts(_chain(in_order(numeric, order), dim), (1,))
        assert (cuts is None) == (expected is None), c
        if expected is not None:
            assert list(_planes(cuts)) == list(_planes(expected)), c


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from(sorted(WALK_VARIETIES)),
    st.integers(1, 3),
    st.integers(0, 2**32),
    st.data(),
)
def test_compiled_support_bounds_match_the_numeric_bounds_at_the_twist(name, rank, seed, data):
    """The engine's support bounds, each constant a form over (1, c), give
    at c the box, the emptiness and the lines of the numeric bounds of the
    twisted support polytopes."""
    variety = WALK_VARIETIES[name][0]
    top = 2 if variety.dim == 4 else 4
    c = data.draw(st.tuples(*[st.integers(-10, top)] * variety.class_rank))
    assert_compiled_support_bounds(
        SheafCohomology(random_sheaf(random.Random(seed), variety, rank, -3, 0)), c
    )


@pytest.mark.parametrize("name", SHIPPED_CONFIGS)
def test_support_bounds_and_totals_on_shipped_configs(name):
    engine = SheafCohomology(shipped_sheaf(name))
    for c in shipped_twists(engine.variety):
        assert_compiled_support_bounds(engine, c)
        assert_support_totals(engine, c)


def test_a_repeat_twist_eliminates_nothing(monkeypatch):
    """The support chains are compiled once per bounds tuple and walk order,
    so a second pass of h^0 and h^n over a window of the V_2(1, 2) line
    bundle runs no Fourier-Motzkin step."""
    config = Path(__file__).resolve().parent.parent / "configs" / "line_bundle_v2_12.json"
    engine = SheafCohomology(load_config(config).sheaf)
    steps = []
    eliminate = polytopes._eliminate_last
    monkeypatch.setattr(polytopes, "_eliminate_last", lambda bounds: steps.append(1) or eliminate(bounds))
    _compiled_chain.cache_clear()
    window = list(product(range(-1, 4), repeat=2))
    first = [(engine.h0_twisted(c), engine.hn_twisted(c)) for c in window]
    assert steps and any(h0 for h0, _ in first)
    steps.clear()
    assert [(engine.h0_twisted(c), engine.hn_twisted(c)) for c in window] == first
    assert not steps
