"""Exact linear algebra over the rationals.

A subspace of Q^n is stored as its reduced row echelon form in primitive
integer rows: each row has gcd 1, a positive pivot and zeros in the other
pivot columns.  That form is unique, so two subspaces are equal exactly when
their stored rows agree.

All elimination runs on integer rows (fraction-free, in the manner of
Bareiss).  Each input row is scaled by the lcm of its denominators, which
changes neither its span nor the rank.  The forward pass replaces a row by
``p*row - f*lead``, p the lead's pivot and f the row's entry in the pivot
column, and divides the result by the gcd of its entries, so the numbers
stay small; ``matrix_rank`` stops there.  The reduced form also clears the
entries above each pivot the same way, then divides each row by its gcd,
signed as its pivot.  ``Fraction``s are built only for the public views
(``Subspace.basis``, ``Subspace.coordinates`` and ``solve_square``): each
row divided by its pivot is the reduced row echelon form over
``fractions.Fraction``.  ``_integer_inverse`` inverts a square
integer matrix A by one such elimination of [A | I]: it ends in rows
p_i e_i | r_i, so row i of A^-1 is r_i / p_i, returned over the least
common denominator.  ``perp`` is computed once per ``Subspace``: the object
is immutable and canonical, so it keeps its orthogonal complement in a slot
filled on first use.  No floating point or modular arithmetic enters
anywhere.  Input entries are ints, Fractions or 'p/q' strings;
floats, booleans, 'p/0' and anything else are refused with a ValueError.
"""
from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Sequence

from .toric import strict_int

Scalar = int | Fraction
Vector = tuple[Fraction, ...]
Row = tuple[int, ...]


def _scalar(x: Scalar | str) -> Fraction:
    """An exact number; anything but an int, a Fraction or a 'p/q' string
    with q != 0 is refused."""
    if type(x) is Fraction:
        return x
    if not isinstance(x, (bool, float)):
        try:
            return Fraction(x)
        except (TypeError, ValueError, ZeroDivisionError):
            pass
    raise ValueError(f"exact numbers must be ints, Fractions or 'p/q' strings, got {x!r}")


def as_vector(entries: Iterable[Scalar | str], length: int | None = None) -> Vector:
    """Coerce entries (ints, Fractions or 'p/q' strings) to an exact vector."""
    return _sized(tuple(map(_scalar, entries)), length)


def _sized(v, length: int | None):
    """The vector v, refused unless it has the given length, if any."""
    if length is not None and len(v) != length:
        raise ValueError(f"expected vector of length {length}, got {len(v)}")
    return v


def _over_lcm(entries: Iterable[Scalar | str]) -> tuple[list[int], int]:
    """Integers N and L > 0, the lcm of the entries' denominators, with
    entries = N / L; entries ``_scalar`` refuses are refused."""
    row = list(entries)
    if all(type(x) is int for x in row):
        return row, 1
    v = as_vector(row)
    scale = lcm(*(x.denominator for x in v))
    return [x.numerator * (scale // x.denominator) for x in v], scale


def _integer_row(entries: Iterable[Scalar | str], length: int | None = None) -> list[int]:
    """The entries scaled by the lcm of their denominators: integers with
    the same span."""
    return _sized(_over_lcm(entries)[0], length)


def _cleared(row: list[int], lead: list[int], col: int) -> list[int]:
    """p*row - f*lead, which is 0 in the lead's pivot column col, divided by
    the gcd of its entries."""
    p, f = lead[col], row[col]
    new = [p * a - f * b for a, b in zip(row, lead)]
    g = gcd(*new)
    return [a // g for a in new] if g > 1 else new


def _forward(rows: Sequence[Sequence[Scalar]], width: int) -> tuple[list[list[int]], list[int]]:
    """Integer row echelon form: the nonzero pivot rows and their pivot columns."""
    rest = [r for r in (_integer_row(r, width) for r in rows) if any(r)]
    done: list[list[int]] = []
    cols: list[int] = []
    for col in range(width):
        if not rest:
            break
        for i, lead in enumerate(rest):
            if lead[col]:
                break
        else:
            continue
        del rest[i]
        kept = []
        for r in rest:
            if r[col]:
                r = _cleared(r, lead, col)
                if not any(r):
                    continue
            kept.append(r)
        rest = kept
        done.append(lead)
        cols.append(col)
    return done, cols


def _reduce(done: list[list[int]], cols: list[int]) -> None:
    """Clear the entries above each pivot of an integer echelon form, in place."""
    for k in range(len(done) - 1, 0, -1):
        lead, col = done[k], cols[k]
        for i in range(k):
            if done[i][col]:
                done[i] = _cleared(done[i], lead, col)


def _canonical(
    rows: Sequence[Sequence[Scalar]], width: int
) -> tuple[tuple[Row, ...], tuple[int, ...]]:
    """Reduced row echelon form as primitive integer rows with positive
    pivots, and its pivot columns."""
    done, cols = _forward(rows, width)
    _reduce(done, cols)
    signed = [gcd(*row) if row[col] > 0 else -gcd(*row) for row, col in zip(done, cols)]
    return tuple(tuple(a // g for a in row) for row, g in zip(done, signed)), tuple(cols)


def matrix_rank(rows: Sequence[Sequence[Scalar]], width: int) -> int:
    return len(_forward(rows, width)[0])


def solve_square(rows: Sequence[Sequence[Scalar]], rhs: Sequence[Scalar]) -> Vector | None:
    """Solve the square system rows . x = rhs exactly; None if singular."""
    n = len(rows)
    if len(rhs) != n:
        raise ValueError(f"right-hand side must have length {n}, got {len(rhs)}")
    aug = [as_vector(r, n) + (_scalar(b),) for r, b in zip(rows, rhs)]
    done, cols = _forward(aug, n + 1)
    if cols != list(range(n)):
        return None
    _reduce(done, cols)
    return tuple(Fraction(row[n], row[i]) for i, row in enumerate(done))


def _integer_inverse(rows: Sequence[Sequence[int]]) -> tuple[tuple[Row, ...], int] | None:
    """(N, D) with rows^-1 = N / D for a square integer matrix, D > 0 the
    least such integer; None if singular.  One elimination of [rows | I]
    leaves row i as pivot_i e_i | right_i, and row i of the inverse is
    right_i / pivot_i.  Every row of the elimination has gcd 1 (an input
    row through its identity entry, a cleared row by its division), so
    the entries of right_i / pivot_i have lcm denominator |pivot_i| and
    D = lcm(|pivot_i|) is already the least."""
    n = len(rows)
    augmented = [[*row, *(int(i == j) for j in range(n))] for i, row in enumerate(rows)]
    done, cols = _forward(augmented, 2 * n)
    if cols != list(range(n)):
        return None  # a pivot in the identity block: the rows are dependent
    _reduce(done, cols)
    d = lcm(*(row[i] for i, row in enumerate(done)))
    return tuple(tuple(a * (d // row[i]) for a in row[n:]) for i, row in enumerate(done)), d


class Subspace:
    """A linear subspace of Q^ambient_dim, canonicalized at construction."""

    __slots__ = ("ambient_dim", "rows", "pivots", "_hash", "_perp")

    def __init__(self, ambient_dim: int, rows: Sequence[Sequence[Scalar]] = ()):
        if strict_int(ambient_dim, "ambient dimension") < 0:
            raise ValueError("ambient dimension must be non-negative")
        self.ambient_dim = ambient_dim
        # the canonical integer rows and the pivot column of each
        self.rows, self.pivots = _canonical(rows, ambient_dim)
        self._hash = hash((self.ambient_dim, self.rows))
        self._perp: Subspace | None = None  # filled by perp on first use

    @classmethod
    def zero(cls, ambient_dim: int) -> "Subspace":
        return cls(ambient_dim)

    @classmethod
    def full(cls, ambient_dim: int) -> "Subspace":
        strict_int(ambient_dim, "ambient dimension")
        rows = [[1 if i == j else 0 for j in range(ambient_dim)] for i in range(ambient_dim)]
        return cls(ambient_dim, rows)

    @property
    def basis(self) -> tuple[Vector, ...]:
        """The reduced row echelon basis: each row divided by its pivot."""
        return tuple(tuple(Fraction(a, row[p]) for a in row) for row, p in zip(self.rows, self.pivots))

    @property
    def dim(self) -> int:
        return len(self.rows)

    @property
    def is_zero(self) -> bool:
        return not self.rows

    @property
    def is_full(self) -> bool:
        return len(self.rows) == self.ambient_dim

    def contains(self, vector: Iterable[Scalar]) -> bool:
        v = _integer_row(vector, self.ambient_dim)
        return matrix_rank([*self.rows, v], self.ambient_dim) == self.dim

    def contains_subspace(self, other: "Subspace") -> bool:
        if other.ambient_dim != self.ambient_dim:
            raise ValueError("ambient dimensions differ")
        return matrix_rank([*self.rows, *other.rows], self.ambient_dim) == self.dim

    def coordinates(self, vector: Iterable[Scalar]) -> Vector:
        """Coordinates of a member vector in ``basis``, read off the pivots."""
        v = as_vector(vector, self.ambient_dim)
        if not self.contains(v):
            raise ValueError("vector does not lie in the subspace")
        return tuple(v[p] for p in self.pivots)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Subspace):
            return NotImplemented
        return self.ambient_dim == other.ambient_dim and self.rows == other.rows

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        rows = ", ".join("(" + ", ".join(str(x) for x in row) + ")" for row in self.basis)
        return f"Subspace(dim {self.dim} of Q^{self.ambient_dim}: [{rows}])"


def span(vectors: Sequence[Sequence[Scalar]], ambient_dim: int) -> Subspace:
    """Canonical subspace spanned by the given vectors."""
    return Subspace(ambient_dim, vectors)


def nullspace(rows: Sequence[Sequence[Scalar]], width: int) -> Subspace:
    """Canonical subspace {x : rows . x = 0}."""
    done, cols = _forward(rows, width)
    _reduce(done, cols)
    return _kernel(done, cols, width)


def _kernel(done: Sequence[Sequence[int]], cols: Sequence[int], width: int) -> Subspace:
    """Kernel of an integer reduced echelon form with pivot columns cols."""
    # row i reads p_i x_{cols[i]} + sum over free f of row[f] x_f = 0; each
    # free column gives one solution, scaled by the lcm of the pivots
    scale = lcm(*(row[col] for row, col in zip(done, cols)))
    pivot_cols = set(cols)
    basis = []
    for f in range(width):
        if f in pivot_cols:
            continue
        v = [0] * width
        v[f] = scale
        for row, col in zip(done, cols):
            v[col] = -row[f] * (scale // row[col])
        basis.append(v)
    return Subspace(width, basis)


def perp(s: Subspace) -> Subspace:
    """Orthogonal complement for the standard bilinear form, computed once
    per subspace object and kept in it."""
    if s._perp is None:
        s._perp = _kernel(s.rows, s.pivots, s.ambient_dim)
    return s._perp


def _check_common_ambient(subspaces: Sequence[Subspace]) -> int:
    if not subspaces:
        raise ValueError("need at least one subspace")
    ambient = subspaces[0].ambient_dim
    for s in subspaces[1:]:
        if s.ambient_dim != ambient:
            raise ValueError("ambient dimensions differ")
    return ambient


def intersect(subspaces: Sequence[Subspace]) -> Subspace:
    """Intersection, via the nullspace of the stacked dual constraints."""
    ambient = _check_common_ambient(subspaces)
    constraints: list[Row] = []
    for s in subspaces:
        if s.is_full:
            continue
        constraints.extend(perp(s).rows)
    if not constraints:
        return Subspace.full(ambient)
    return nullspace(constraints, ambient)


def subspace_sum(subspaces: Sequence[Subspace]) -> Subspace:
    """Subspace spanned by the union of the bases."""
    ambient = _check_common_ambient(subspaces)
    rows = [row for s in subspaces for row in s.rows]
    return Subspace(ambient, rows)
