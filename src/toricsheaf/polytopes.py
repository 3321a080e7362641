"""Interval constraint systems on characters and their integer points.

A system couples the fixed pairing forms <. , n(rho)> of a fan with one
integer interval per ray: lower_k <= row_k . m < upper_k, the strict upper
bound encoding the next-jump convention (None stands for +infinity above,
and for -infinity below).  For a complete fan the rays positively span, so a
system whose lower bounds are all finite cuts out a (possibly empty)
polytope; its integer points are enumerated by walking the bounding box of
the polytope's vertices.

Every vertex is the intersection of n of the fixed row hyperplanes, and
only the right-hand side b moves with the bounds (and, for the character
boxes of ``cohomology.enumeration_box``, with the jumps and the twist).  So
the inverse of each nonsingular n-subset of rows is computed once per row
tuple, exactly, and kept as an integer matrix N over a positive integer D.
A vertex is then N.b / D: feasibility and the floor/ceiling bounds of the
box are integer comparisons with multiples of D, and no vertex is solved
on its own.  The lattice-point systems and the character boxes share these
cached inverses.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, product
from math import lcm
from operator import mul
from typing import Iterator, Sequence

from .errors import UnboundedSystemError
from .filtration import EquivariantReflexiveSheaf
from .rational_linalg import solve_square
from .toric import split_data, strict_int

MultiIndex = tuple[int, ...]


@dataclass(frozen=True)
class IntervalConstraintSystem:
    rows: tuple[tuple[int, ...], ...]
    lower: tuple[int | None, ...]   # None = -infinity
    upper: tuple[int | None, ...]   # exclusive; None = +infinity

    def __post_init__(self):
        def checked(values, where):
            return tuple(None if x is None else strict_int(x, where) for x in values)

        object.__setattr__(self, "rows", tuple(
            tuple(strict_int(x, "constraint row entry") for x in r) for r in self.rows
        ))
        object.__setattr__(self, "lower", checked(self.lower, "lower bound"))
        object.__setattr__(self, "upper", checked(self.upper, "upper bound"))
        if not (len(self.rows) == len(self.lower) == len(self.upper)):
            raise ValueError("rows, lower and upper must have equal lengths")
        if self.rows:
            width = len(self.rows[0])
            if any(len(r) != width for r in self.rows):
                raise ValueError("constraint rows must have equal lengths")

    @property
    def nvars(self) -> int:
        return len(self.rows[0]) if self.rows else 0

    def has_empty_row(self) -> bool:
        return any(
            lo is not None and up is not None and up <= lo
            for lo, up in zip(self.lower, self.upper)
        )

    def satisfied_by(self, point: Sequence[int]) -> bool:
        for row, lo, up in zip(self.rows, self.lower, self.upper):
            value = sum(a * x for a, x in zip(row, point))
            if lo is not None and value < lo:
                return False
            if up is not None and value >= up:
                return False
        return True


def _multi_index(sheaf: EquivariantReflexiveSheaf, idx: Sequence[int]) -> MultiIndex:
    idx = tuple(strict_int(i, "multi-index entry") for i in idx)
    if len(idx) != sheaf.variety.ray_count:
        raise ValueError("multi-index needs one entry per ray")
    if any(i < 1 or i > sheaf.rank for i in idx):
        raise ValueError(f"multi-index entries must lie in 1..{sheaf.rank}")
    return idx


def omega_system(
    sheaf: EquivariantReflexiveSheaf, idx: Sequence[int], c: Sequence[int]
) -> IntervalConstraintSystem:
    """The double-inequality system selecting characters at the given levels.

    Row k constrains <m, n(rho_k)> to [i_{idx_k} - shift_k, i_{idx_k + 1} - shift_k)
    where shift is the twist-divisor coefficient of c on ray k and the
    past-the-top jump is +infinity.
    """
    idx = _multi_index(sheaf, idx)
    v = sheaf.variety
    shifts = v.twist_divisor(c)
    lower = []
    upper = []
    for f, j, shift in zip(sheaf.filtrations, idx, shifts):
        lower.append(f.jumps[j - 1] - shift)
        upper.append(f.jumps[j] - shift if j < sheaf.rank else None)
    return IntervalConstraintSystem(v.rays, tuple(lower), tuple(upper))


@lru_cache(maxsize=64)
def _rowset_inverses(
    rows: tuple[tuple[int, ...], ...],
) -> tuple[tuple[tuple[int, ...], tuple[tuple[int, ...], ...], int], ...]:
    """(rowset, N, D) for every nonsingular n-subset of the rows, n their
    width: N is an integer matrix and D > 0 an integer with rows[rowset]^-1 = N / D."""
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


def arrangement_vertices(
    rows: tuple[tuple[int, ...], ...], values: Sequence[Sequence[int]]
) -> Iterator[tuple[tuple[int, ...], int]]:
    """Every point where n hyperplanes row_k . m = b_k with linearly
    independent rows meet, b_k running over values[k], as the pair (x, D)
    of the vertex x / D."""
    for rowset, inverse, d in _rowset_inverses(rows):
        for rhs in product(*(values[k] for k in rowset)):
            yield tuple(sum(map(mul, line, rhs)) for line in inverse), d


def _scaled_vertices(sys: IntervalConstraintSystem) -> list[tuple[tuple[int, ...], int]]:
    """The vertices (x, D) of the system's polytope: the arrangement
    vertices of its bounds that satisfy every row."""
    # the integer points satisfy row . m <= upper - 1; None is unbounded
    tops = [None if up is None else up - 1 for up in sys.upper]
    values = [[b for b in bounds if b is not None] for bounds in zip(sys.lower, tops)]
    checks = list(zip(sys.rows, sys.lower, tops))
    vertices = []
    for x, d in arrangement_vertices(sys.rows, values):
        for row, lo, top in checks:
            value = sum(map(mul, row, x))
            if (lo is not None and value < lo * d) or (top is not None and value > top * d):
                break
        else:
            vertices.append((x, d))
    return vertices


def _vertices(sys: IntervalConstraintSystem) -> list[tuple[Fraction, ...]]:
    """All vertices of the system's polytope, as exact fractions."""
    return [tuple(Fraction(xi, d) for xi in x) for x, d in _scaled_vertices(sys)]


def psi_points(sys: IntervalConstraintSystem) -> list[tuple[int, ...]]:
    """The integer solutions, in lexicographic order.

    Coordinates are walked recursively inside the vertex bounding box; at
    each level the still-possible range of the tail coordinates narrows the
    interval for the current one, so simplex-shaped solution sets are not
    swamped by their bounding box.
    """
    if any(lo is None for lo in sys.lower):
        raise UnboundedSystemError("every lower bound must be finite for enumeration")
    if sys.has_empty_row():
        return []
    vertices = _scaled_vertices(sys)
    if not vertices:
        return []
    n = sys.nvars
    box_lo = [min(-(-x[i] // d) for x, d in vertices) for i in range(n)]
    box_hi = [max(x[i] // d for x, d in vertices) for i in range(n)]
    if any(lo > hi for lo, hi in zip(box_lo, box_hi)):
        return []
    rows = sys.rows
    nrows = len(rows)
    # extreme possible values of the tail sum_{j >= i} row[j] * x_j over the box
    tail_lo = [[0] * (n + 1) for _ in range(nrows)]
    tail_hi = [[0] * (n + 1) for _ in range(nrows)]
    for r in range(nrows):
        for i in range(n - 1, -1, -1):
            a = rows[r][i] * box_lo[i]
            b = rows[r][i] * box_hi[i]
            tail_lo[r][i] = tail_lo[r][i + 1] + min(a, b)
            tail_hi[r][i] = tail_hi[r][i + 1] + max(a, b)

    out: list[tuple[int, ...]] = []
    point = [0] * n

    def walk(i: int, partial: list[int]) -> None:
        if i == n:
            out.append(tuple(point))
            return
        lo, hi = box_lo[i], box_hi[i]
        for r in range(nrows):
            c = rows[r][i]
            t_lo, t_hi = tail_lo[r][i + 1], tail_hi[r][i + 1]
            base = partial[r]
            row_lo = sys.lower[r]
            row_up = sys.upper[r]
            if c == 0:
                if base + t_hi < row_lo:
                    return
                if row_up is not None and base + t_lo > row_up - 1:
                    return
                continue
            num = row_lo - base - t_hi
            if c > 0:
                lo = max(lo, -((-num) // c))
            else:
                hi = min(hi, num // c)
            if row_up is not None:
                num = row_up - 1 - base - t_lo
                if c > 0:
                    hi = min(hi, num // c)
                else:
                    lo = max(lo, -((-num) // c))
            if lo > hi:
                return
        for x in range(lo, hi + 1):
            point[i] = x
            walk(i + 1, [partial[r] + rows[r][i] * x for r in range(nrows)])

    walk(0, [0] * nrows)
    return out


def feasible_system1(
    a_list: Sequence[int], A: int, B: int
) -> tuple[bool, tuple[int, ...] | None]:
    """Solvability over non-negative integers of a1 x1 + ... + ar xr >= A,
    x1 + ... + xr <= B; feasible exactly when A <= ar * B, witnessed by
    (0, ..., 0, B)."""
    a = _checked_weights(a_list)
    if B < 0:
        return False, None
    if A <= a[-1] * B:
        return True, (0,) * (len(a) - 1) + (B,)
    return False, None


def feasible_metasystem(
    a_list: Sequence[int], lambdas: Sequence[int], mus: Sequence[int]
) -> bool:
    """Solvability over the integers of the two-block bound system.

    The system asks for m in Z^(s+r) with
    -m_1 - ... - m_s + a_1 m_{s+1} + ... + a_r m_{s+r} >= lambda_0,
    m_i >= lambda_i, -m_{s+1} - ... - m_{s+r} >= mu_0, m_{s+j} >= mu_j.
    Shifting variables reduces it to the non-negative system above with
    A = lambda_0 + ... + lambda_s - a_1 mu_1 - ... - a_r mu_r and
    B = -mu_0 - ... - mu_r.
    """
    a = _checked_weights(a_list)
    lambdas = [strict_int(x, "lambda") for x in lambdas]
    mus = [strict_int(x, "mu") for x in mus]
    if len(mus) != len(a) + 1:
        raise ValueError("need one mu per eta ray (mu_0 .. mu_r)")
    B = -sum(mus)
    A = sum(lambdas) - sum(au * mu for au, mu in zip(a, mus[1:]))
    return B >= 0 and A <= a[-1] * B


def _checked_weights(a_list: Sequence[int]) -> list[int]:
    a = [strict_int(x, "twist weight") for x in a_list]
    if not a:
        raise ValueError("need at least one weight")
    if any(x < 0 for x in a) or any(a[i] > a[i + 1] for i in range(len(a) - 1)):
        raise ValueError("weights must satisfy 0 <= a1 <= ... <= ar")
    return a


def _split_interval(f, j: int, rank: int, shift: int) -> tuple[int, int | None]:
    lo = f.jumps[j - 1] - shift
    up = f.jumps[j] - shift if j < rank else None
    return lo, up


def psi_n(
    sheaf: EquivariantReflexiveSheaf, n_idx: Sequence[int], q: int
) -> list[tuple[int, ...]]:
    """Integer solutions c in Z^r of the eta-ray block of the sliced system."""
    s, a = split_data(sheaf.variety)
    r = len(a)
    etas = sheaf.eta_filtrations()
    n_idx = tuple(strict_int(i, "eta multi-index entry") for i in n_idx)
    if len(n_idx) != r + 1 or any(i < 1 or i > sheaf.rank for i in n_idx):
        raise ValueError(f"eta multi-index needs {r + 1} entries in 1..{sheaf.rank}")
    rows = [tuple(-1 for _ in range(r))]
    rows += [tuple(1 if k == u else 0 for k in range(r)) for u in range(r)]
    lower = []
    upper = []
    lo, up = _split_interval(etas[0], n_idx[0], sheaf.rank, q)
    lower.append(lo)
    upper.append(up)
    for u in range(1, r + 1):
        lo, up = _split_interval(etas[u], n_idx[u], sheaf.rank, 0)
        lower.append(lo)
        upper.append(up)
    return psi_points(IntervalConstraintSystem(tuple(rows), tuple(lower), tuple(upper)))


def psi_m_sliced(
    sheaf: EquivariantReflexiveSheaf, m_idx: Sequence[int], p: int, c_vec: Sequence[int]
) -> list[tuple[int, ...]]:
    """Integer solutions d in Z^s of the rho-ray block, for a fixed eta slice."""
    s, a = split_data(sheaf.variety)
    rhos = sheaf.rho_filtrations()
    m_idx = tuple(strict_int(i, "rho multi-index entry") for i in m_idx)
    if len(m_idx) != s + 1 or any(i < 1 or i > sheaf.rank for i in m_idx):
        raise ValueError(f"rho multi-index needs {s + 1} entries in 1..{sheaf.rank}")
    c_vec = tuple(strict_int(x, "slice vector entry") for x in c_vec)
    if len(c_vec) != len(a):
        raise ValueError("slice vector needs one entry per twist weight")
    weighted = sum(au * cu for au, cu in zip(a, c_vec))
    rows = [tuple(-1 for _ in range(s))]
    rows += [tuple(1 if k == t else 0 for k in range(s)) for t in range(s)]
    lower = []
    upper = []
    lo, up = _split_interval(rhos[0], m_idx[0], sheaf.rank, p + weighted)
    lower.append(lo)
    upper.append(up)
    for t in range(1, s + 1):
        lo, up = _split_interval(rhos[t], m_idx[t], sheaf.rank, 0)
        lower.append(lo)
        upper.append(up)
    return psi_points(IntervalConstraintSystem(tuple(rows), tuple(lower), tuple(upper)))


def assemble_slices(
    sheaf: EquivariantReflexiveSheaf, idx: Sequence[int], p: int, q: int
) -> int:
    """Point count of the full system assembled from its eta slices."""
    s, _ = split_data(sheaf.variety)
    idx = _multi_index(sheaf, idx)
    m_idx, n_idx = idx[: s + 1], idx[s + 1:]
    total = 0
    for c_vec in psi_n(sheaf, n_idx, q):
        total += len(psi_m_sliced(sheaf, m_idx, p, c_vec))
    return total
