"""Interval constraint systems on characters and their integer points.

A system couples the fixed pairing forms <. , n(rho)> of a fan with one
integer interval per ray: lower_k <= row_k . m < upper_k, the strict upper
bound encoding the next-jump convention (None stands for +infinity above,
and for -infinity below).  For a complete fan the rays positively span, so a
system whose lower bounds are all finite cuts out a (possibly empty)
polytope.

``psi_points`` and the walk plans of ``cohomology``'s engine use
Fourier-Motzkin elimination alone, through the cuts of ``_cuts``.
Each bound is kept as h = (-k, row) with h . (1, m) >= 0, or as
h = (f, row) with h . (params, m) >= 0, its constant linear in params.
``_compiled_chain`` eliminates once per bounds tuple and coordinate order;
``_cuts`` evaluates the constants at the params, (1,) when numeric.
``_eliminate_last`` drops the last coordinate t: every bound free of t is
kept, and every pair of a bound that cuts t from below with one that cuts
it from above gives their positive combination in which t cancels.  By
Fourier-Motzkin, a point satisfies the new bounds exactly when some real t
extends it to a point of the old ones: they cut out the real shadow of the
polytope.  Eliminating every coordinate in turn gives the shadow on
m_1..m_i for each i, and the last shadow, on no coordinate at all, is a
list of constants: one of them is negative exactly when the polytope is
empty.  Otherwise the walk (``_planes``) fixes m_1, ..., m_(n-1) in turn
and gives the two ends of each line of m_n.  With m_1..m_(i-1) fixed, every
bound of the shadow on m_1..m_i that involves m_i cuts it to one interval
by ceiling and floor division, and the bounds free of m_i already hold one
level up.  An integer point lies in every shadow, so the walk loses none,
and it never enters a value whose real shadow is empty.  A shadow with no
bound on its last coordinate from one side makes a non-empty polytope
unbounded, which is an error.

The box of a whole jump arrangement comes from its vertices, each where n
fixed row hyperplanes meet and only the right-hand sides b move: with the
inverse N / D of each nonsingular n-subset of rows computed once per row
tuple, from one fraction-free elimination of [A | I] (A the n rows), each
coordinate of a vertex N.b / D is least (greatest) where every term
N_ik b_k is, so ``_rowset_extremes`` gives those extremes per rowset, b_k
running over its own list of values, without listing a vertex.

The engine walks characters by a plan (order, planes): ``_box_plan``
builds it for a box, ``_walk_plan`` for a bounded polytope.  Both take
their axes sorted by the side lengths of their box (``_walk_order``),
shortest first, index order on a tie.  The line axis, last, is the longest
side, which gives the fewest lines; the stepping axis before it is the
next-longest, which gives the fewest planes.  A plane fixes every
coordinate but these two.  Each plane is (start, ends): start gives the
coordinates order[:-1] of its first line, and its j-th line, j steps
further along the stepping axis, runs along the line axis from lo to hi
for (lo, hi) = ends[j], empty when lo > hi.  In a box every line has the
box's ends.  A polytope's box holds, per coordinate, the integers between
the ends of its real shadow on that coordinate alone; with none, there is
no plan.  Otherwise the Fourier-Motzkin chain with the coordinates in walk
order gives each line of the polytope, its other coordinates and both of
its ends (``_planes``), so no character off the polytope is visited.  The
bounds keep their constants as forms over params, so the chains, one per
coordinate for the box and one per walk order, are eliminated once per
bounds tuple, and new params evaluate only their constants.
"""
from __future__ import annotations

from collections.abc import Sequence
from functools import lru_cache
from itertools import combinations, product, repeat
from math import gcd
from operator import le, mul

from .errors import UnboundedSystemError
from .filtration import EquivariantReflexiveSheaf
from .rational_linalg import _integer_inverse
from .toric import FrozenValue, _checked_weights, ordered, split_data, strict_int, strict_ints
# not called here; bench/selftest.py checks that the tracer patches this binding
from .rational_linalg import solve_square

MultiIndex = tuple[int, ...]


class CharacterBox(FrozenValue):
    """An axis-aligned box of lattice characters, bounds inclusive."""

    lower: tuple[int, ...]
    upper: tuple[int, ...]

    def __post_init__(self):
        for name in ("lower", "upper"):
            object.__setattr__(self, name, strict_ints(getattr(self, name), "box bound"))
        if len(self.lower) != len(self.upper):
            raise ValueError("bound tuples must have equal length")
        if any(lo > hi for lo, hi in zip(self.lower, self.upper)):
            raise ValueError("lower bound exceeds upper bound")

    def __contains__(self, m: Sequence[int]) -> bool:
        m = strict_ints(m, "character entry", len(self.lower), "character")
        return all(lo <= x <= hi for x, lo, hi in zip(m, self.lower, self.upper))


class IntervalConstraintSystem(FrozenValue):
    rows: tuple[tuple[int, ...], ...]
    lower: tuple[int | None, ...]   # None = -infinity
    upper: tuple[int | None, ...]   # exclusive; None = +infinity

    def __post_init__(self):
        def checked(values, where):
            return tuple(None if x is None else strict_int(x, where) for x in ordered(values, f"{where} values"))

        rows = ordered(self.rows, "constraint rows")
        width = len(ordered(rows[0], "constraint row")) if rows else 0
        rows = tuple(strict_ints(r, "constraint row entry", width, "constraint row") for r in rows)
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "lower", checked(self.lower, "lower bound"))
        object.__setattr__(self, "upper", checked(self.upper, "upper bound"))
        if not (len(self.rows) == len(self.lower) == len(self.upper)):
            raise ValueError("rows, lower and upper must have equal lengths")

    @property
    def nvars(self) -> int:
        return len(self.rows[0]) if self.rows else 0

    def has_empty_row(self) -> bool:
        return any(
            lo is not None and up is not None and up <= lo
            for lo, up in zip(self.lower, self.upper)
        )

    def satisfied_by(self, point: Sequence[int]) -> bool:
        point = strict_ints(point, "point entry", self.nvars, "point")
        for row, lo, up in zip(self.rows, self.lower, self.upper):
            value = sum(a * x for a, x in zip(row, point))
            if lo is not None and value < lo:
                return False
            if up is not None and value >= up:
                return False
        return True


def _multi_index(
    sheaf: EquivariantReflexiveSheaf, idx: Sequence[int], length: int | None = None,
    name: str = "multi-index",
) -> MultiIndex:
    """Levels in 1..rank, one per ray unless another ``length`` is given."""
    length = sheaf.variety.ray_count if length is None else length
    idx = strict_ints(idx, f"{name} entry", length, name)
    if any(i < 1 or i > sheaf.rank for i in idx):
        raise ValueError(f"{name} entries must lie in 1..{sheaf.rank}")
    return idx


def _split_interval(jumps: tuple[int, ...], j: int, shift: int) -> tuple[int, int | None]:
    """The pairing interval [i_j - shift, i_{j+1} - shift) of level j; the
    past-the-top jump is +infinity."""
    lo = jumps[j - 1] - shift
    up = jumps[j] - shift if j < len(jumps) else None
    return lo, up


def omega_system(
    sheaf: EquivariantReflexiveSheaf, idx: Sequence[int], c: Sequence[int]
) -> IntervalConstraintSystem:
    """The double-inequality system selecting characters at the given levels.

    Row k constrains <m, n(rho_k)> to the interval of level idx_k shifted by
    the twist-divisor coefficient of c on ray k.
    """
    jumps = sheaf.jumps
    idx = _multi_index(sheaf, idx)
    v = sheaf.variety
    lower, upper = zip(*map(_split_interval, jumps, idx, v.twist_divisor(c)))
    return IntervalConstraintSystem(v.rays, lower, upper)


@lru_cache(maxsize=64)
def _rowset_inverses(
    rows: tuple[tuple[int, ...], ...],
) -> tuple[tuple[tuple[int, ...], tuple[tuple[int, ...], ...], int], ...]:
    """(rowset, N, D) for every nonsingular n-subset of the rows, n their
    width: N is an integer matrix and D > 0 the least integer with
    rows[rowset]^-1 = N / D, both from one fraction-free elimination of
    [rows[rowset] | I].  Singular rowsets give no vertex and are left out."""
    n = len(rows[0]) if rows else 0
    inverses = []
    for rowset in combinations(range(len(rows)), n):
        found = _integer_inverse([rows[k] for k in rowset])
        if found is not None:
            inverses.append((rowset, *found))
    return tuple(inverses)


@lru_cache(maxsize=64)
def _rowset_extremes(
    rows: tuple[tuple[int, ...], ...], values: tuple[tuple[int, ...], ...]
) -> tuple[tuple[tuple[int, ...], tuple[tuple[int, ...], ...], int,
                 tuple[int, ...], tuple[int, ...]], ...]:
    """(rowset, N, D, low, high) for every rowset inverse of the rows: with
    b_k running over values[k] independently, low_i and high_i are the least
    and greatest (N.b)_i, each the sum of the least or greatest N_ik b_k."""
    extremes = []
    for rowset, inverse, d in _rowset_inverses(rows):
        ends = [(min(values[k]), max(values[k])) for k in rowset]
        low = tuple(sum(min(a * lo, a * hi) for a, (lo, hi) in zip(line, ends)) for line in inverse)
        high = tuple(sum(max(a * lo, a * hi) for a, (lo, hi) in zip(line, ends)) for line in inverse)
        extremes.append((rowset, inverse, d, low, high))
    return tuple(extremes)


def _eliminate_last(bounds: list[tuple[int, ...]]) -> list[tuple[int, ...]]:
    """One Fourier-Motzkin step: the bounds h . (1, m) >= 0 on m without its
    last coordinate t that hold exactly where some real t satisfies the given
    ones, each divided by the gcd of its entries, without repeats."""
    shadow = [h[:-1] for h in bounds if h[-1] == 0]
    shadow += [
        tuple(-q[-1] * x + p[-1] * y for x, y in zip(p[:-1], q[:-1]))
        for p in bounds if p[-1] > 0 for q in bounds if q[-1] < 0
    ]
    distinct = {}
    for h in shadow:
        g = gcd(*h)
        distinct[tuple(x // g for x in h) if g > 1 else h] = None
    return list(distinct)


def _chain(bounds, nvars: int) -> list[list[tuple[int, ...]]]:
    """The Fourier-Motzkin shadows of the bounds on m_1..m_i, i = nvars..0;
    the entries before the last nvars, a bound's constant, stay whole."""
    shadows = [bounds]
    for _ in range(nvars):
        shadows.append(_eliminate_last(shadows[-1]))
    return shadows


@lru_cache(maxsize=256)
def _compiled_chain(bounds: tuple[tuple[int, ...], ...], order: tuple[int, ...]):
    """The ``_chain`` of the bounds with their coordinates in this order,
    eliminated once per bounds tuple and order."""
    forms = len(bounds[0]) - len(order)
    return _chain([h[:forms] + tuple(h[forms + i] for i in order) for h in bounds], len(order))


def _cuts(shadows, params: tuple[int, ...]):
    """The cuts of a chain of shadows, each constant the dot product of its
    form with params, None when the last shadow has a negative one: per
    coordinate in order, the bounds (rest, a) with a > 0 and those with
    a < 0 as (rest, |a|)."""
    if params != (1,):
        forms = len(params)
        shadows = [[(sum(map(mul, h[:forms], params)),) + h[forms:] for h in shadow]
                   for shadow in shadows]
    if any(h[0] < 0 for h in shadows[-1]):
        return None  # a negative constant: the polytope is empty
    cuts = []
    for shadow in reversed(shadows[:-1]):
        rising = [(h[:-1], h[-1]) for h in shadow if h[-1] > 0]
        falling = [(h[:-1], -h[-1]) for h in shadow if h[-1] < 0]
        if not (rising and falling):
            raise UnboundedSystemError("the rows do not cut out a bounded polytope")
        cuts.append((rising, falling))
    return cuts


def _planes(cuts, prefix: tuple[int, ...] = ()):
    """Yield (start, ends), in lexicographic order, for every plane of the
    polytope that extends prefix, cut by its ``_cuts``.  A plane
    fixes all coordinates but the last two; its lines run along the last
    one, the j-th holding the points start[:-1] + (start[-1] + j, t) with
    lo <= t <= hi for (lo, hi) = ends[j], and lo > hi when the real shadow
    meets it in no integer.  In dimension 1 the one plane is the one line,
    and start is ()."""
    rising, falling = cuts[len(prefix)]
    point = (1,) + prefix
    lo = max([-(sum(map(mul, rest, point)) // a) for rest, a in rising])
    hi = min([sum(map(mul, rest, point)) // a for rest, a in falling])
    if len(prefix) + 1 == len(cuts):
        yield prefix, [(lo, hi)]
    elif len(prefix) + 2 < len(cuts):
        for t in range(lo, hi + 1):
            yield from _planes(cuts, prefix + (t,))
    elif lo <= hi:
        # the plane's coordinate t runs over ts: a bound (rest, a) puts an
        # end of the line at t at (b + c*t) // a, negated for the low end,
        # with b its dot product with the point so far and c its
        # coefficient of t
        ts = range(lo, hi + 1)
        rising, falling = (
            zip(*[[(b + c * t) // a for t in ts]
                  for b, c, a in [(sum(map(mul, rest, point)), rest[-1], a) for rest, a in side]])
            for side in cuts[-1]
        )
        yield prefix + (lo,), [(-min(los), min(his)) for los, his in zip(rising, falling)]


def _polytope_box(bounds, params: tuple[int, ...]) -> CharacterBox | None:
    """Per coordinate, the integers between the ends of the real shadow on it
    alone of the bounded polytope h . (params, m) >= 0, h in bounds; None
    when a range holds no integer or the polytope is empty."""
    bounds = tuple(bounds)
    n = len(bounds[0]) - len(params)
    lower, upper = [], []
    for i in range(n):
        # with m_i moved first, the chain ends in its shadow on m_i alone
        order = (i,) + tuple(k for k in range(n) if k != i)
        cuts = _cuts(_compiled_chain(bounds, order)[-2:], params)
        if cuts is None:
            return None
        (rising, falling), = cuts
        lower.append(max([-(rest[0] // a) for rest, a in rising]))
        upper.append(min([rest[0] // a for rest, a in falling]))
    return CharacterBox(tuple(lower), tuple(upper)) if all(map(le, lower, upper)) else None


def _walk_order(box: CharacterBox) -> list[int]:
    """The box's axes sorted by side length, shortest first, index order on
    a tie: the line axis, last, is the longest side (fewest lines) and the
    stepping axis before it the next-longest (fewest planes)."""
    return sorted(range(len(box.lower)), key=lambda i: box.upper[i] - box.lower[i])


def _box_plan(box: CharacterBox):
    """The walk plan (order, planes) of every character of the box."""
    order = _walk_order(box)
    outer = [range(box.lower[i], box.upper[i] + 1) for i in order[:-1]]
    # each plane has one line per step of its stepping axis and starts at
    # its low end; in dimension 1 the one plane is the one line
    steps = outer.pop() if outer else range(1)
    starts = product(*outer, steps[:1]) if len(order) > 1 else [()]
    ends = [(box.lower[order[-1]], box.upper[order[-1]])] * len(steps)
    return order, zip(starts, repeat(ends))


def _walk_plan(bounds, params: tuple[int, ...]):
    """The walk plan (order, planes) of the lattice points of the bounded
    polytope h . (params, m) >= 0, h in bounds; None when ``_polytope_box``
    finds it empty or a coordinate range with no integer."""
    box = _polytope_box(bounds, params)
    if box is None:
        return None
    # the chain takes its coordinates in walk order, set by the box
    order = _walk_order(box)
    return order, _planes(_cuts(_compiled_chain(tuple(bounds), tuple(order)), params))


def psi_points(sys: IntervalConstraintSystem) -> list[tuple[int, ...]]:
    """The integer solutions, in lexicographic order.

    Each bound row . m >= k (a strict upper bound reads -row . m >= 1 - upper)
    is kept as h = (-k, row), with h . (1, m) >= 0.  Eliminating the
    coordinates from the last gives the shadow on each m_1..m_i, and the
    walk cuts m_i to the integers between the ends of its shadow (see the
    module docstring).  Raises ``UnboundedSystemError`` on a lower bound of
    None, or on rows that leave a non-empty polytope unbounded.
    """
    if any(lo is None for lo in sys.lower):
        raise UnboundedSystemError("every lower bound must be finite for enumeration")
    if sys.has_empty_row():
        return []
    bounds = [(-lo,) + row for row, lo in zip(sys.rows, sys.lower)]
    bounds += [
        (up - 1,) + tuple(-a for a in row)
        for row, up in zip(sys.rows, sys.upper) if up is not None
    ]
    cuts = _cuts(_chain(bounds, sys.nvars), (1,))
    if not cuts:
        return [] if cuts is None else [()]  # [()]: the one point of Z^0
    out: list[tuple[int, ...]] = []
    for start, ends in _planes(cuts):
        for j, (lo, hi) in enumerate(ends):
            line = start[:-1] + (start[-1] + j,) if start else ()
            out.extend([line + (t,) for t in range(lo, hi + 1)])
    return out


def feasible_system1(
    a_list: Sequence[int], A: int, B: int
) -> tuple[bool, tuple[int, ...] | None]:
    """Solvability over non-negative integers of a1 x1 + ... + ar xr >= A,
    x1 + ... + xr <= B; feasible exactly when A <= ar * B, witnessed by
    (0, ..., 0, B)."""
    a = _checked_weights(a_list)
    A, B = strict_int(A, "A"), strict_int(B, "B")
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
    lambdas = strict_ints(lambdas, "lambda")
    mus = strict_ints(mus, "mu", len(a) + 1, "mus")
    B = -sum(mus)
    A = sum(lambdas) - sum(au * mu for au, mu in zip(a, mus[1:]))
    return B >= 0 and A <= a[-1] * B


def _simplex_block(jumps, idx: MultiIndex, shift: int) -> list[tuple[int, ...]]:
    """Integer points of the block system with rows (-1, ..., -1) and the unit
    rows, at the given levels; only the first interval is shifted."""
    n = len(jumps) - 1
    rows = ((-1,) * n,) + tuple(tuple(int(k == u) for k in range(n)) for u in range(n))
    lower, upper = zip(*map(_split_interval, jumps, idx, (shift,) + (0,) * n))
    return psi_points(IntervalConstraintSystem(rows, lower, upper))


def psi_n(
    sheaf: EquivariantReflexiveSheaf, n_idx: Sequence[int], q: int
) -> list[tuple[int, ...]]:
    """Integer solutions c in Z^r of the eta-ray block of the sliced system."""
    s, a = split_data(sheaf.variety)
    jumps = sheaf.jumps
    q = strict_int(q, "q")
    n_idx = _multi_index(sheaf, n_idx, len(a) + 1, "eta multi-index")
    return _simplex_block(jumps[s + 1:], n_idx, q)


def psi_m_sliced(
    sheaf: EquivariantReflexiveSheaf, m_idx: Sequence[int], p: int, c_vec: Sequence[int]
) -> list[tuple[int, ...]]:
    """Integer solutions d in Z^s of the rho-ray block, for a fixed eta slice."""
    s, a = split_data(sheaf.variety)
    jumps = sheaf.jumps
    p = strict_int(p, "p")
    m_idx = _multi_index(sheaf, m_idx, s + 1, "rho multi-index")
    c_vec = strict_ints(c_vec, "slice vector entry", len(a), "slice vector")
    weighted = sum(au * cu for au, cu in zip(a, c_vec))
    return _simplex_block(jumps[: s + 1], m_idx, p + weighted)


def assemble_slices(
    sheaf: EquivariantReflexiveSheaf, idx: Sequence[int], p: int, q: int
) -> int:
    """Point count of the full system assembled from its eta slices."""
    s, _ = split_data(sheaf.variety)
    p, q = strict_int(p, "p"), strict_int(q, "q")
    idx = _multi_index(sheaf, idx)
    m_idx, n_idx = idx[: s + 1], idx[s + 1:]
    total = 0
    for c_vec in psi_n(sheaf, n_idx, q):
        total += len(psi_m_sliced(sheaf, m_idx, p, c_vec))
    return total
