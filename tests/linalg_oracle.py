"""Gauss-Jordan elimination over ``fractions.Fraction``.

An independent oracle for the integer elimination kernel of
``toricsheaf.rational_linalg``: this is the elimination the engine used
before it moved to integer rows, kept verbatim.  It shares no code with the
engine, so the reduced row echelon forms, ranks, nullspaces, intersections
and solutions built from it check the kernel by exact equality.
"""
from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Sequence

Scalar = int | Fraction
Vector = tuple[Fraction, ...]


def as_vector(entries: Iterable[Scalar | str], length: int | None = None) -> Vector:
    """Coerce entries (ints, Fractions or 'p/q' strings) to an exact vector."""
    v = tuple(Fraction(x) for x in entries)
    if length is not None and len(v) != length:
        raise ValueError(f"expected vector of length {length}, got {len(v)}")
    return v


def reduced_echelon(rows: Sequence[Sequence[Scalar]], width: int) -> list[Vector]:
    """Reduced row echelon form of the given rows; zero rows are dropped."""
    mat = [list(as_vector(r, width)) for r in rows]
    nrows = len(mat)
    pivot_row = 0
    for col in range(width):
        pivot = None
        for i in range(pivot_row, nrows):
            if mat[i][col] != 0:
                pivot = i
                break
        if pivot is None:
            continue
        mat[pivot_row], mat[pivot] = mat[pivot], mat[pivot_row]
        inv = Fraction(1, 1) / mat[pivot_row][col]
        mat[pivot_row] = [x * inv for x in mat[pivot_row]]
        lead = mat[pivot_row]
        for i in range(nrows):
            if i != pivot_row and mat[i][col] != 0:
                f = mat[i][col]
                mat[i] = [a - f * b for a, b in zip(mat[i], lead)]
        pivot_row += 1
        if pivot_row == nrows:
            break
    return [tuple(r) for r in mat[:pivot_row]]


def matrix_rank(rows: Sequence[Sequence[Scalar]], width: int) -> int:
    return len(reduced_echelon(rows, width))


def solve_square(rows: Sequence[Sequence[Scalar]], rhs: Sequence[Scalar]) -> Vector | None:
    """Solve the square system rows . x = rhs exactly; None if singular."""
    n = len(rows)
    aug = [list(as_vector(r, n)) + [Fraction(b)] for r, b in zip(rows, rhs)]
    ech = reduced_echelon(aug, n + 1)
    if len(ech) != n or any(ech[i][i] != 1 for i in range(n)):
        return None
    return tuple(row[n] for row in ech)


def nullspace(rows: Sequence[Sequence[Scalar]], width: int) -> tuple[Vector, ...]:
    """Reduced row echelon basis of {x : rows . x = 0}."""
    ech = reduced_echelon(rows, width)
    pivot_cols = []
    for row in ech:
        for j, x in enumerate(row):
            if x != 0:
                pivot_cols.append(j)
                break
    free_cols = [j for j in range(width) if j not in pivot_cols]
    basis = []
    for f in free_cols:
        v = [Fraction(0)] * width
        v[f] = Fraction(1)
        for i, p in enumerate(pivot_cols):
            v[p] = -ech[i][f]
        basis.append(v)
    return tuple(reduced_echelon(basis, width))


def intersect(bases: Sequence[Sequence[Vector]], width: int) -> tuple[Vector, ...]:
    """Reduced row echelon basis of the intersection of the spans, via the
    nullspace of the stacked orthogonal complements."""
    constraints = [row for basis in bases for row in nullspace(basis, width)]
    if not constraints:
        return tuple(reduced_echelon(
            [[int(i == j) for j in range(width)] for i in range(width)], width
        ))
    return nullspace(constraints, width)
