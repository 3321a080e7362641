"""The integer elimination kernel against the Fraction Gauss-Jordan oracle.

Every comparison is exact equality of the returned tuples, and every entry
the engine returns must be a ``Fraction``.  A subspace stores primitive
integer rows, and its ``basis`` must be the oracle's reduced echelon form.
"""
import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from toricsheaf import SheafCohomology, Subspace, hirzebruch, span, split_bundle
from toricsheaf import cohomology
from toricsheaf.rational_linalg import (
    intersect,
    matrix_rank,
    nullspace,
    solve_square,
)

import linalg_oracle as oracle
from conftest import random_sheaf


def assert_fraction_rows(rows):
    assert all(type(x) is Fraction for row in rows for x in row)


def assert_canonical(space, expected):
    """The stored rows are the oracle's reduced echelon basis scaled to
    primitive integer rows with a positive pivot and zeros in the other
    pivot columns."""
    assert space.basis == tuple(expected)
    assert_fraction_rows(space.basis)
    assert len(space.rows) == len(space.pivots) == space.dim
    for row, p in zip(space.rows, space.pivots):
        assert all(type(x) is int for x in row)
        assert gcd(*row) == 1 and row[p] > 0 and not any(row[:p])
        assert all(row[q] == 0 for q in space.pivots if q != p)


def assert_rescaled_span_is_identical(rows, width, rng):
    """Scaling each generator by a nonzero rational and reordering them
    gives the same stored rows and the same hash."""
    space = span(rows, width)
    scales = [Fraction(rng.choice((-7, -1, 2, 10**20)), rng.choice((1, 3, 10**12))) for _ in rows]
    rescaled = [[Fraction(x) * s for x in row] for row, s in zip(rows, scales)]
    rng.shuffle(rescaled)
    other = span(rescaled, width)
    assert other.rows == space.rows and other.pivots == space.pivots
    assert other == space and hash(other) == hash(space)


def assert_matches_oracle(rows, width):
    """The reduced echelon basis, matrix_rank and nullspace of the rows
    equal the oracle's."""
    expected = oracle.reduced_echelon(rows, width)
    got = list(Subspace(width, rows).basis)
    assert got == expected
    assert_fraction_rows(got)
    assert matrix_rank(rows, width) == len(expected)
    assert_canonical(span(rows, width), expected)
    kernel = nullspace(rows, width)
    assert_canonical(kernel, oracle.nullspace(rows, width))
    assert kernel.dim == width - len(expected)


def random_entry(rng: random.Random):
    """An int, Fraction or 'p/q' string, often zero, sometimes huge."""
    kind = rng.randrange(8)
    if kind < 2:
        return 0
    if kind == 2:
        return rng.randint(-9, 9)
    if kind == 3:
        return Fraction(rng.randint(-9, 9), rng.choice((-12, -5, -1, 2, 3, 7)))
    if kind == 4:
        return rng.randint(-10**30, 10**30)
    if kind == 5:
        return Fraction(rng.randint(-10**30, 10**30), rng.randint(1, 10**25) * rng.choice((-1, 1)))
    if kind == 6:
        return f"{rng.randint(-40, 40)}/{rng.randint(1, 60)}"
    return Fraction(rng.randint(-5, 5), 10**20 + 39)


def random_matrix(rng: random.Random):
    """Rows of a random width, with zero rows and columns, duplicates and
    rows that are combinations of others mixed in."""
    width = rng.randint(0, 6)
    nrows = rng.randint(0, 8)
    rows = [[random_entry(rng) for _ in range(width)] for _ in range(nrows)]
    if rows and width and rng.random() < 0.3:
        col = rng.randrange(width)
        for row in rows:
            row[col] = 0
    if rng.random() < 0.2:
        rows.insert(rng.randint(0, len(rows)), [0] * width)
    if rows and rng.random() < 0.3:
        rows.append(list(rng.choice(rows)))
    if len(rows) >= 2 and rng.random() < 0.4:
        a, b = rng.sample(rows, 2)
        s, t = Fraction(rng.randint(-4, 4), rng.randint(1, 5)), rng.randint(-3, 3)
        rows.append([s * Fraction(x) + t * Fraction(y) for x, y in zip(a, b)])
    rng.shuffle(rows)
    return rows, width


@pytest.mark.parametrize("seed", range(8))
def test_random_matrices_match_oracle(seed):
    rng = random.Random(seed)
    for _ in range(60):
        rows, width = random_matrix(rng)
        assert_matches_oracle(rows, width)
        assert_rescaled_span_is_identical(rows, width, rng)


@pytest.mark.parametrize("rows, width", [
    ([], 0),
    ([], 3),
    ([[], [], []], 0),
    ([[0, 0, 0], [0, 0, 0]], 3),
    ([[0, 1, 2], [0, 2, 4], [0, 3, 6]], 3),
    ([[1, 2], [3, 4], [5, 6], [7, 8], [0, 0]], 2),
    ([[Fraction(1, -3), "2/5", 7], [1, "-6/5", -21]], 3),
    ([[10**30, 1], [10**30 + 1, 1], [1, Fraction(1, 10**30)]], 2),
    ([[0, Fraction(10**30, 7), 0], [0, 0, 0], [0, 3, 0]], 3),
])
def test_edge_cases_match_oracle(rows, width):
    assert_matches_oracle(rows, width)


def test_random_intersections_match_oracle():
    rng = random.Random(7)
    for _ in range(80):
        width = rng.randint(1, 5)
        bases = []
        for _ in range(rng.randint(1, 3)):
            nrows = rng.randint(0, width)
            rows = [[random_entry(rng) for _ in range(width)] for _ in range(nrows)]
            bases.append(oracle.reduced_echelon(rows, width))
            assert_rescaled_span_is_identical(rows, width, rng)
        spaces = [span(b, width) for b in bases]
        for space, basis in zip(spaces, bases):
            assert_canonical(space, basis)
        assert_canonical(intersect(spaces), oracle.intersect(bases, width))


def test_random_square_systems_match_oracle():
    rng = random.Random(11)
    singular = solved = 0
    for _ in range(150):
        n = rng.randint(0, 5)
        rows = [[random_entry(rng) for _ in range(n)] for _ in range(n)]
        if n >= 2 and rng.random() < 0.3:
            rows[-1] = [Fraction(x) * 3 - Fraction(y) for x, y in zip(rows[0], rows[1])]
        rhs = [random_entry(rng) for _ in range(n)]
        expected = oracle.solve_square(rows, rhs)
        got = solve_square(rows, rhs)
        assert got == expected
        if got is None:
            singular += 1
        else:
            solved += 1
            assert_fraction_rows([got])
    assert singular and solved


entries = st.one_of(
    st.integers(-10**30, 10**30),
    st.fractions(max_denominator=10**12),
    st.builds(lambda p, q: f"{p}/{q}", st.integers(-50, 50), st.integers(1, 50)),
    st.just(0),
)


@st.composite
def matrices(draw):
    width = draw(st.integers(0, 5))
    rows = draw(st.lists(st.lists(entries, min_size=width, max_size=width), max_size=6))
    if rows and draw(st.booleans()):
        rows.append(draw(st.sampled_from(rows)))
    return rows, width


@settings(max_examples=200, deadline=None)
@given(matrices())
def test_hypothesis_matrices_match_oracle(case):
    assert_matches_oracle(*case)


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 4).flatmap(lambda n: st.tuples(
    st.lists(st.lists(entries, min_size=n, max_size=n), min_size=n, max_size=n),
    st.lists(entries, min_size=n, max_size=n),
)))
def test_hypothesis_square_systems_match_oracle(system):
    rows, rhs = system
    assert solve_square(rows, rhs) == oracle.solve_square(rows, rhs)


@pytest.mark.parametrize("variety, rank, seed", [
    (hirzebruch(3), 2, 0),
    (hirzebruch(3), 3, 1),
    (split_bundle(1, (1, 2)), 2, 2),
    (split_bundle(1, (1, 2)), 3, 3),
])
def test_cech_differentials_match_oracle(variety, rank, seed, monkeypatch):
    """Every Cech differential matrix the engine ranks, compared with the oracle."""
    matrices_seen = []

    def recording_rank(rows, width):
        matrices_seen.append((rows, width))
        return matrix_rank(rows, width)

    monkeypatch.setattr(cohomology, "matrix_rank", recording_rank)
    engine = SheafCohomology(random_sheaf(random.Random(seed), variety, rank, -3, 0))
    for c in ((0, 0), (1, 0), (-1, 1)):
        engine.cech_twisted(c)
    assert sum(oracle.matrix_rank(rows, width) > 0 for rows, width in matrices_seen) >= 5
    assert all(type(x) is int for rows, _ in matrices_seen for row in rows for x in row)
    for rows, width in matrices_seen:
        assert_matches_oracle(rows, width)
