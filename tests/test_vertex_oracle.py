"""Cached integer vertex enumeration and lattice points against per-vertex
Fraction solves."""
from __future__ import annotations

import random
from math import comb
from operator import mul

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from toricsheaf import (
    IntervalConstraintSystem,
    enumeration_box,
    hirzebruch,
    projective_space,
    psi_points,
    split_bundle,
    twist,
)
from toricsheaf.errors import UnboundedSystemError
from toricsheaf import polytopes, rational_linalg
from toricsheaf.polytopes import _polytope_box, _rowset_extremes, _rowset_inverses

from conftest import (
    SHIPPED_CONFIGS, counted_fractions, random_sheaf, rank3_example_sheaf, shipped_sheaf,
    shipped_twists, twisted_box,
)
from vertex_oracle import (
    box_filtered_points,
    fraction_box,
    fraction_enumeration_box,
    fraction_rowset_inverses,
    fraction_vertices,
    homogeneous_bounds,
)

# negative, zero and positive twists per variety
VARIETIES = {
    "P1": (projective_space(1), ((-4,), (0,), (5,))),
    "P2": (projective_space(2), ((-3,), (0,), (4,))),
    "P3": (projective_space(3), ((-2,), (0,), (2,))),
    "H0": (hirzebruch(0), ((-2, 1), (0, 0), (3, 2))),
    "H1": (hirzebruch(1), ((-3, -1), (0, 0), (2, 3))),
    "H2": (hirzebruch(2), ((1, -3), (0, 0), (4, 1))),
    "H3": (hirzebruch(3), ((1, -2), (0, 0), (4, 2))),
    "V1_12": (split_bundle(1, (1, 2)), ((-1, 1), (0, 0), (2, 1))),
    "V1_13": (split_bundle(1, (1, 3)), ((1, -1), (0, 0), (2, 2))),
    "V2_1": (split_bundle(2, (1,)), ((-1, 0), (0, 0), (1, 1))),
}


def assert_boxes_match_oracle(sheaf, twists) -> None:
    assert enumeration_box(sheaf) == fraction_enumeration_box(sheaf)
    for c in twists:
        box, _ = twisted_box(sheaf, c)
        assert box == fraction_enumeration_box(twist(sheaf, c)), c


@pytest.mark.parametrize("name", sorted(VARIETIES))
@pytest.mark.parametrize("rank", [1, 2, 3])
def test_boxes_match_fraction_oracle(name, rank):
    variety, twists = VARIETIES[name]
    rng = random.Random(f"box-{name}-{rank}")
    for _ in range(3):
        assert_boxes_match_oracle(random_sheaf(rng, variety, rank, -6, 0), twists)


@pytest.mark.parametrize("name", SHIPPED_CONFIGS)
def test_boxes_match_fraction_oracle_on_shipped_configs(name):
    sheaf = shipped_sheaf(name)
    assert_boxes_match_oracle(sheaf, shipped_twists(sheaf.variety))


# P^n (n <= 3), H_a and V_s(a) with s + r <= 4
ANY_VARIETY = st.one_of(
    st.integers(1, 3).map(projective_space),
    st.integers(0, 4).map(hirzebruch),
    st.integers(1, 3).flatmap(lambda s: st.lists(
        st.integers(0, 3), min_size=1, max_size=4 - s
    ).map(lambda a: split_bundle(s, sorted(a)))),
)


@settings(max_examples=60, deadline=None)
@given(ANY_VARIETY, st.integers(1, 3), st.integers(-6, 0), st.integers(0, 6),
       st.integers(0, 2**32), st.data())
def test_closed_form_box_matches_fraction_oracle(variety, rank, jump_lo, width, seed, data):
    """A narrow jump range repeats jumps; the twist moves every bound."""
    sheaf = random_sheaf(random.Random(seed), variety, rank, jump_lo, jump_lo + width)
    c = data.draw(st.tuples(*[st.integers(-6, 6)] * variety.class_rank))
    box = enumeration_box(sheaf, variety.twist_divisor(c))
    assert box == fraction_enumeration_box(twist(sheaf, c))


@settings(max_examples=80, deadline=None)
@given(ANY_VARIETY, st.booleans(), st.data())
def test_polytope_box_matches_fraction_oracle(variety, upper, data):
    """The support box of h^0's form (lower bounds only) or h^n's (upper
    bounds only), with any bound per ray, is the ceiling and floor of the
    vertex coordinates, and None when there is no vertex."""
    bounds = data.draw(st.tuples(*[st.integers(-5, 5)] * variety.ray_count))
    none = (None,) * variety.ray_count
    system = IntervalConstraintSystem(
        variety.rays, none if upper else bounds, bounds if upper else none
    )
    assert _polytope_box(homogeneous_bounds(system), (1,)) == fraction_box(system)


def test_jump_extremes_are_cached_per_jumps():
    """Two sheaves on one fan with different jumps get their own extremes
    and their own boxes, in either order of first use."""
    rows = hirzebruch(3).rays
    wide = random_sheaf(random.Random("extremes-wide"), hirzebruch(3), 2, -8, -4)
    narrow = random_sheaf(random.Random("extremes-narrow"), hirzebruch(3), 2, -1, 0)
    jumps = [tuple(f.jumps for f in sheaf.filtrations) for sheaf in (wide, narrow)]
    assert jumps[0] != jumps[1]
    assert _rowset_extremes(rows, jumps[0]) != _rowset_extremes(rows, jumps[1])
    for sheaf in (wide, narrow, wide, narrow):
        assert enumeration_box(sheaf) == fraction_enumeration_box(sheaf)
    assert enumeration_box(wide) != enumeration_box(narrow)


@pytest.mark.parametrize("shifts, message", [
    ([0, 0, 0, 0, 0], "shifts must have length 4"),
    ([0, 0, 0], "shifts must have length 4"),
    ([True, 0, 0, 0], "shift must be an integer"),
    ([0.5, 0, 0, 0], "shift must be an integer"),
])
def test_enumeration_box_refuses_bad_shifts(shifts, message):
    with pytest.raises(ValueError, match=message):
        enumeration_box(rank3_example_sheaf(), shifts)


# fan rays (H_3's (1, 0) and (-1, 3) give D = 3, H_0's (1, 0) and (-1, 0) are
# singular) and the row shapes of psi_n / psi_m_sliced: (-1, ..., -1), e_1, ...
ROW_SHAPES = {
    "H3": hirzebruch(3).rays,
    "H0": hirzebruch(0).rays,
    "V1_12": split_bundle(1, (1, 2)).rays,
    "sliced_1": ((-1,), (1,)),
    "sliced_2": ((-1, -1), (1, 0), (0, 1)),
    "sliced_3": ((-1, -1, -1), (1, 0, 0), (0, 1, 0), (0, 0, 1)),
}


def test_rowset_inverses_drop_singular_and_keep_denominators():
    rows = ROW_SHAPES["H3"]
    assert rows[:2] == ((-1, 3), (1, 0))
    h3 = {rowset: (inverse, d) for rowset, inverse, d in _rowset_inverses(rows)}
    inverse, d = h3[(0, 1)]
    assert d == 3
    # rows[:2] . N = D . identity
    product = [[sum(map(mul, row, col)) for col in zip(*inverse)] for row in rows[:2]]
    assert product == [[3, 0], [0, 3]]
    h0 = [rowset for rowset, _, _ in _rowset_inverses(ROW_SHAPES["H0"])]
    assert (0, 1) not in h0 and (2, 3) not in h0 and len(h0) == 4


# every fan of the test suite: P^1-P^4, H_0-H_4 and the split bundles V_s(a),
# and the fan of any shipped config that is none of these
FANS = {
    **{f"P{n}": projective_space(n) for n in range(1, 5)},
    **{f"H{a}": hirzebruch(a) for a in range(5)},
    **{f"V{s}_{''.join(map(str, a))}": split_bundle(s, a)
       for s, a in [(1, (1, 2)), (1, (0, 1)), (2, (1,)), (1, (1, 3)), (2, (1, 2)),
                    (3, (1,)), (1, (0, 1, 2))]},
}
for _name in SHIPPED_CONFIGS:
    _variety = shipped_sheaf(_name).variety
    if _variety.rays not in {v.rays for v in FANS.values()}:
        FANS[_name] = _variety


def assert_inverses_match_oracle(rows) -> int:
    """_rowset_inverses equals the per-unit-vector Fraction solves, with
    D > 0 and rows[rowset] . N = D . identity; the number of singular
    rowsets left out."""
    inverses = _rowset_inverses(rows)
    assert inverses == fraction_rowset_inverses(rows)
    n = len(rows[0])
    for rowset, inverse, d in inverses:
        assert d > 0
        product = [[sum(map(mul, rows[k], col)) for col in zip(*inverse)] for k in rowset]
        assert product == [[d * (i == j) for j in range(n)] for i in range(n)], rowset
    return comb(len(rows), n) - len(inverses)


@pytest.mark.parametrize("name", sorted(FANS))
def test_rowset_inverses_match_fraction_solves_on_every_fan(name):
    rays = FANS[name].rays
    singular = assert_inverses_match_oracle(rays)
    # opposite rays make singular rowsets on every fan but P^n
    assert singular == 0 if FANS[name].split_s is None else singular > 0


def test_rowset_inverses_match_fraction_solves_on_singular_rows():
    """A zero row, a repeated row and a row sum drop exactly the rowsets
    they make singular; the kept ones include a denominator D > 1."""
    rows = ((1, 2, 0), (0, 0, 0), (1, 2, 0), (0, 1, 3), (1, 3, 3), (2, 0, 1))
    assert assert_inverses_match_oracle(rows) > 0
    kept = {rowset: d for rowset, _, d in _rowset_inverses(rows)}
    assert not any(1 in rowset for rowset in kept)
    assert (0, 2, 3) not in kept and (0, 3, 4) not in kept
    assert max(kept.values()) > 1


@st.composite
def row_tuples(draw):
    n = draw(st.integers(1, 4))
    count = draw(st.integers(n, n + 2))
    row = st.tuples(*[st.integers(-4, 4)] * n)
    return tuple(draw(st.lists(row, min_size=count, max_size=count)))


@settings(max_examples=200, deadline=None)
@given(row_tuples())
def test_rowset_inverses_match_fraction_solves_property(rows):
    assert_inverses_match_oracle(rows)


def test_rowset_inverses_build_no_fraction_and_solve_nothing(monkeypatch):
    rows = FANS["V1_12"].rays
    expected = fraction_rowset_inverses(rows)

    def refused(*args):
        raise AssertionError("solve_square called")

    monkeypatch.setattr(polytopes, "solve_square", refused)
    monkeypatch.setattr(rational_linalg, "solve_square", refused)
    with counted_fractions() as built:
        assert _rowset_inverses.__wrapped__(rows) == expected
    assert built == []


@pytest.mark.parametrize("shape", sorted(ROW_SHAPES))
def test_psi_points_match_vertex_box_filter(shape):
    """On every row shape, psi_points finds the points of the vertex box
    that satisfy the system, and refuses a lower bound of None; the random
    bounds give non-integral vertices on the fans with denominators."""
    rows = ROW_SHAPES[shape]
    rng = random.Random(f"vertices-{shape}")
    fractional = 0
    for _ in range(60):
        lower = [None if rng.random() < 0.2 else rng.randint(-6, 3) for _ in rows]
        upper = [
            None if rng.random() < 0.3 else (lo if lo is not None else 0) + rng.randint(0, 5)
            for lo in lower
        ]
        system = IntervalConstraintSystem(rows, tuple(lower), tuple(upper))
        if None in lower:
            with pytest.raises(UnboundedSystemError):
                psi_points(system)
        else:
            assert psi_points(system) == box_filtered_points(system)[0]
        fractional += any(x.denominator > 1 for v in fraction_vertices(system) for x in v)
    if shape in ("H3", "V1_12"):
        assert fractional
