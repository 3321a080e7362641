"""Unit tests for the exact subspace arithmetic."""
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from toricsheaf import Subspace, intersect, rational_linalg, span, subspace_sum
from toricsheaf.rational_linalg import as_vector, nullspace, perp, solve_square


def test_span_identity_case():
    s = span([(1, 0), (0, 1)], 2)
    assert s.is_full and s.dim == 2


def test_span_canonical_scaling():
    s = span([(3, 3, 1)], 3)
    assert s.basis == ((Fraction(1), Fraction(1), Fraction(1, 3)),)


def test_span_empty():
    s = span([], 4)
    assert s.is_zero and s.ambient_dim == 4


def test_span_dimension_mismatch():
    with pytest.raises(ValueError):
        span([(1, 0), (1, 0, 0)], 2)


def test_intersect_transverse_lines():
    assert intersect([span([(1, 0)], 2), span([(0, 1)], 2)]).is_zero


def test_intersect_tangent_example_lines():
    assert intersect([span([(3, 1)], 2), span([(0, 1)], 2)]).is_zero


def test_intersect_two_planes_in_q3():
    # frozen from the stacked-nullspace oracle on the 4x3 system
    a = span([(3, 3, 1), (4, 0, 2)], 3)
    b = span([(9, 4, 8), (2, 8, 8)], 3)
    meet = intersect([a, b])
    assert meet.dim == 1
    assert meet.basis == ((Fraction(1), Fraction(0), Fraction(1, 2)),)


def test_intersect_ambient_mismatch():
    with pytest.raises(ValueError):
        intersect([span([(1,)], 1), span([(1, 0)], 2)])


def test_sum_spans_full():
    assert subspace_sum([span([(1, 0)], 2), span([(0, 1)], 2)]).is_full


def test_sum_with_zero_is_identity():
    a = span([(2, 1, 7)], 3)
    assert subspace_sum([a, Subspace.zero(3)]) == a


def test_sum_of_two_lines_in_q3():
    s = subspace_sum([span([(0, 6, 3)], 3), span([(4, 0, 4)], 3)])
    assert s.dim == 2


def test_contains_and_coordinates():
    s = span([(1, 0, 1), (0, 1, 1)], 3)
    assert s.contains((2, 3, 5))
    assert not s.contains((0, 0, 1))
    assert s.coordinates((2, 3, 5)) == (Fraction(2), Fraction(3))
    with pytest.raises(ValueError):
        s.coordinates((0, 0, 1))


def test_solve_square():
    assert solve_square([(1, 2), (3, 4)], (5, 6)) == (Fraction(-4), Fraction(9, 2))
    assert solve_square([(1, 2), (2, 4)], (1, 2)) is None
    assert solve_square([(1, 2), (2, 4)], (1, 3)) is None


@pytest.mark.parametrize("rhs", [(1,), (1, 2, 3), ()])
def test_solve_square_rejects_wrong_length_rhs(rhs):
    """A short right-hand side is not a singular system, and a long one is
    not truncated."""
    with pytest.raises(ValueError, match="right-hand side must have length 2"):
        solve_square([(1, 0), (0, 1)], rhs)


def test_fraction_string_parsing():
    assert as_vector(["1/3", 2, "-5/7"]) == (Fraction(1, 3), Fraction(2), Fraction(-5, 7))


vectors = st.lists(
    st.lists(st.integers(-6, 6), min_size=3, max_size=3), min_size=0, max_size=4
)


@settings(max_examples=150, deadline=None)
@given(vectors, vectors)
def test_dimension_formula(rows_a, rows_b):
    a, b = span(rows_a, 3), span(rows_b, 3)
    meet, join = intersect([a, b]), subspace_sum([a, b])
    assert a.dim + b.dim == meet.dim + join.dim
    assert join.contains_subspace(a) and join.contains_subspace(b)
    assert a.contains_subspace(meet) and b.contains_subspace(meet)


@settings(max_examples=100, deadline=None)
@given(vectors, vectors)
def test_commutative_idempotent(rows_a, rows_b):
    a, b = span(rows_a, 3), span(rows_b, 3)
    assert intersect([a, b]) == intersect([b, a])
    assert subspace_sum([a, b]) == subspace_sum([b, a])
    assert intersect([a, a]) == a
    assert subspace_sum([a, a]) == a


@settings(max_examples=100, deadline=None)
@given(vectors)
def test_span_idempotent_and_double_perp(rows):
    s = span(rows, 3)
    assert span(s.basis, 3) == s
    assert perp(perp(s)) == s
    assert perp(s).dim == 3 - s.dim


@settings(max_examples=100, deadline=None)
@given(vectors, st.lists(st.integers(-3, 3), min_size=2, max_size=2))
def test_canonical_uniqueness(rows, coeffs):
    """Mixing generators by row operations never changes the canonical value."""
    s = span(rows, 3)
    if len(rows) >= 2:
        mixed = list(rows)
        mixed[0] = [a + coeffs[0] * b for a, b in zip(mixed[0], mixed[1])]
        mixed.append([coeffs[1] * x for x in rows[0]])
        assert span(mixed, 3) == s


def test_nullspace_matches_definition():
    ns = nullspace([(1, 1, 1)], 3)
    assert ns.dim == 2
    for row in ns.basis:
        assert sum(row) == 0


def test_perp_is_computed_once_per_subspace():
    s = span([(1, 2, 3)], 3)
    assert perp(s) is perp(s)
    # an equal subspace with its complement not yet computed
    t = span([(2, 4, 6)], 3)
    assert s == t and hash(s) == hash(t) and {s: 1}[t] == 1
    assert perp(t) == perp(s) and perp(t) is not perp(s)


def test_intersect_computes_each_perp_once(monkeypatch):
    """Repeated intersections of the same subspace objects run one kernel
    each (the nullspace of the stacked constraints), and no perp again."""
    a, b, full = span([(1, 0, 0), (0, 1, 0)], 3), span([(0, 1, 1), (1, 0, 2)], 3), Subspace.full(3)
    kernels = []
    kernel = rational_linalg._kernel
    monkeypatch.setattr(rational_linalg, "_kernel", lambda *args: kernels.append(args) or kernel(*args))
    meet = intersect([a, b, full])
    assert len(kernels) == 3  # perp(a), perp(b), the nullspace
    for subspaces in ([a, b], [b, a, full], [a]):
        before = len(kernels)
        assert intersect(subspaces).contains_subspace(meet)
        assert len(kernels) == before + 1
