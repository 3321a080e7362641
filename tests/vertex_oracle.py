"""Vertices, character boxes and rowset inverses solved one system at a time.

An independent oracle for the cached integer inverses of
``toricsheaf.polytopes``: every vertex here is a fresh exact ``Fraction``
elimination of its own square system, and a system's vertices are filtered
by rational comparisons with its bounds.  ``fraction_rowset_inverses``
solves each rowset for one unit vector at a time, against the program's
single elimination of [A | I].  The box of those vertices, filtered
point by point, is the naive oracle for ``psi_points``, and its integer
ranges are the oracle for the support boxes of ``h0_twisted`` and
``hn_twisted``.  It shares only ``solve_square`` with the program.
"""
from __future__ import annotations

from fractions import Fraction
from itertools import combinations, product
from math import ceil, floor, lcm

from toricsheaf import CharacterBox, IntervalConstraintSystem
from toricsheaf.rational_linalg import solve_square


def fraction_rowset_inverses(rows):
    """(rowset, N, D) for every nonsingular n-subset of the rows, n their
    width: column j of N / D solves rows[rowset] . x = e_j, and D is the
    lcm of the denominators of those solutions."""
    n = len(rows[0]) if rows else 0
    unit = [tuple(int(i == j) for i in range(n)) for j in range(n)]
    inverses = []
    for rowset in combinations(range(len(rows)), n):
        square = [rows[k] for k in rowset]
        columns = []
        for e in unit:
            column = solve_square(square, e)
            if column is None:
                break  # singular rows: no right-hand side gives a vertex
            columns.append(column)
        else:
            d = lcm(*(x.denominator for column in columns for x in column))
            inverse = tuple(tuple(int(col[i] * d) for col in columns) for i in range(n))
            inverses.append((rowset, inverse, d))
    return tuple(inverses)


def fraction_vertices(sys) -> list[tuple[Fraction, ...]]:
    """All vertices of the system's polytope, row subsets in lexicographic
    order and, within one, lower bounds before upper ones."""
    n = sys.nvars
    vertices = []
    for rowset in combinations(range(len(sys.rows)), n):
        rows = [sys.rows[k] for k in rowset]
        bound_choices = []
        for k in rowset:
            choices = []
            if sys.lower[k] is not None:
                choices.append(sys.lower[k])
            if sys.upper[k] is not None:
                choices.append(sys.upper[k] - 1)
            bound_choices.append(choices)
        for rhs in product(*bound_choices):
            sol = solve_square(rows, rhs)
            if sol is None:
                break  # singular rows: no rhs can work
            vertices.append(sol)
    return [v for v in vertices if _satisfied_rational(sys, v)]


def box_filtered_points(sys) -> tuple[list[tuple[int, ...]], list[range]]:
    """The system's integer points in lexicographic order, found by testing
    every point of its vertex box, and that box's integer ranges (none when
    the polytope is empty)."""
    vertices = fraction_vertices(sys)
    if not vertices:
        return [], []
    ranges = [
        range(ceil(min(v[i] for v in vertices)), floor(max(v[i] for v in vertices)) + 1)
        for i in range(sys.nvars)
    ]
    return [m for m in product(*ranges) if sys.satisfied_by(m)], ranges


def fraction_box(sys) -> CharacterBox | None:
    """Per coordinate, the ceiling of the least and the floor of the greatest
    vertex coordinate; None with no vertex or when some range holds no integer."""
    vertices = fraction_vertices(sys)
    if not vertices:
        return None
    columns = list(zip(*vertices))
    lower = tuple(ceil(min(x)) for x in columns)
    upper = tuple(floor(max(x)) for x in columns)
    if any(lo > hi for lo, hi in zip(lower, upper)):
        return None
    return CharacterBox(lower, upper)


def support_polytopes(sheaf, c) -> tuple[IntervalConstraintSystem, IntervalConstraintSystem]:
    """The support polytopes of the local h^0 (every level >= 1, lower bounds
    only) and of the local h^n (no level at the top, upper bounds only) of the
    sheaf twisted by c."""
    v = sheaf.variety
    shifts = v.twist_divisor(c)
    none = (None,) * v.ray_count
    lower = tuple(f.jumps[0] - sh for f, sh in zip(sheaf.filtrations, shifts))
    upper = tuple(f.jumps[-1] - sh for f, sh in zip(sheaf.filtrations, shifts))
    return (
        IntervalConstraintSystem(v.rays, lower, none),
        IntervalConstraintSystem(v.rays, none, upper),
    )


def homogeneous_bounds(sys) -> list[tuple[int, ...]]:
    """Each bound row . m >= k of the system as h = (-k, row), h . (1, m) >= 0;
    a strict upper bound row . m < up reads -row . m >= 1 - up."""
    bounds = [(-lo,) + row for row, lo in zip(sys.rows, sys.lower) if lo is not None]
    bounds += [(up - 1,) + tuple(-a for a in row) for row, up in zip(sys.rows, sys.upper)
               if up is not None]
    return bounds


def _satisfied_rational(sys, point) -> bool:
    for row, lo, up in zip(sys.rows, sys.lower, sys.upper):
        value = sum(a * x for a, x in zip(row, point))
        if lo is not None and value < lo:
            return False
        if up is not None and value > up - 1:
            return False
    return True


def fraction_enumeration_box(sheaf) -> CharacterBox:
    """The smallest integer box holding every vertex of the jump-hyperplane
    arrangement: the floors of the least vertex coordinates and the ceilings
    of the greatest."""
    v = sheaf.variety
    dim = v.dim
    values = [sorted(set(f.jumps)) for f in sheaf.filtrations]
    mins = [Fraction(0)] * dim
    maxs = [Fraction(0)] * dim
    seen_vertex = False
    for rayset in combinations(range(v.ray_count), dim):
        rows = [v.rays[k] for k in rayset]
        for rhs in product(*(values[k] for k in rayset)):
            sol = solve_square(rows, rhs)
            if sol is None:
                break  # singular for every rhs with these rows
            if not seen_vertex:
                mins = list(sol)
                maxs = list(sol)
                seen_vertex = True
            else:
                mins = [min(a, b) for a, b in zip(mins, sol)]
                maxs = [max(a, b) for a, b in zip(maxs, sol)]
    return CharacterBox(tuple(map(floor, mins)), tuple(map(ceil, maxs)))


def widened(box: CharacterBox, margin: int) -> CharacterBox:
    """The box with every side moved out by margin."""
    return CharacterBox(
        tuple(lo - margin for lo in box.lower), tuple(hi + margin for hi in box.upper)
    )


def box_points(box: CharacterBox):
    """Every character of the box, in product order."""
    return product(*(range(lo, hi + 1) for lo, hi in zip(box.lower, box.upper)))
