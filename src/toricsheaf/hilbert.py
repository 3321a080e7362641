"""Multigraded Hilbert functions, support bounds and Hilbert polynomials.

The dimension of the sections in degree m is f(levels(m)), with
f(l) = dim of the intersection of the filtration spaces E_k^(l_k) (0 when
a level is 0).  A character reaches only the valid levels, the last of
each run of equal jumps, along which the spaces and so f are constant.
Mobius inversion on the product order of valid level tuples gives weights
g(l) = sum over ray sets S of (-1)^|S| f(l - e_S), e_S stepping each ray
of S to its previous valid level, so that f(l) is the sum of g over the
valid tuples below l.  A character's levels are all >= l exactly when it
is a section of the line bundle L_l whose ray rho_k has jump i_(l_k), so
the Hilbert function is
HF(c) = sum_l g(l) h^0(L_l(c)), and h^0(L_l(c)) depends only on the class
c - [L_l]: a binomial on P^n and a sum of binomials on V_s(a).  Summing
the weights of each class once gives ``mobius_weights``.
On split-bundle varieties the support is sandwiched between explicit
regions, each the class (p_D, q_D) of a divisor D of jumps (from
``ToricVariety.divisor_class``) plus the effective cone {q >= 0, p + a_r q >= 0}.
Past an explicit corner the Hilbert function is a polynomial, recovered here
by exact interpolation.  The fit and its checks take different paths: the
polynomial is fitted on ``hilbert_function``, the weighted section counts,
and checked at the corner against the paper's count of Psi-polytope
lattice points times intersection dimensions (``_psi_count``), against
the engine's h^0 (``cohomology``, a Klyachko sum over the lines of the
support polytope) and against the Euler characteristic.
"""
from __future__ import annotations

from collections.abc import Sequence
from fractions import Fraction
from functools import lru_cache
from itertools import product
from math import comb, factorial
from operator import sub

from . import cohomology
from .errors import InternalConsistencyError
from .filtration import EquivariantReflexiveSheaf
from .polynomials import RationalPolynomial, simplex_sum
from .polytopes import MultiIndex, omega_system, psi_points
from .rational_linalg import solve_square
from .toric import FrozenValue, split_data, strict_int


def _valid_levels(jumps: tuple[int, ...]) -> list[int]:
    """The levels a character can reach: the last index of each run of equal jumps."""
    return [j for j in range(1, len(jumps)) if jumps[j - 1] < jumps[j]] + [len(jumps)]


@lru_cache(maxsize=64)
def _level_table(sheaf: EquivariantReflexiveSheaf) -> tuple[tuple[MultiIndex, int], ...]:
    """(l, f(l)) for every l in the product of the rays' valid levels, in
    product order, with f read from the shared engine's ``h0``."""
    engine = cohomology._engine(sheaf)
    return tuple((lv, engine.h0(lv)) for lv in product(*map(_valid_levels, sheaf.jumps)))


@lru_cache(maxsize=64)
def mobius_weights(sheaf: EquivariantReflexiveSheaf) -> tuple[tuple[tuple[int, ...], int], ...]:
    """The nonzero Mobius weights of the intersection dimensions, as
    (class, weight) pairs sorted by class: the weight of a class sums
    g(l) over the level tuples l whose line bundle L_l, with jump i_(l_k)
    on ray k, has that class.  g is f on ``_level_table``'s valid grid after
    one finite difference per ray, to the previous valid level (f = 0 below).
    Equal jumps hold exactly when the spaces are equal, so f and the class of
    L_l are constant along a run; the differences on [1..rank]^rays telescope."""
    jumps = sheaf.jumps
    table = _level_table(sheaf)
    g = [f for _, f in table]
    stride = len(g)
    for count in map(len, map(_valid_levels, jumps)):
        stride //= count
        # downwards, so that g[i - stride] still holds the previous pass
        for i in range(len(g) - 1, -1, -1):
            if i // stride % count:
                g[i] -= g[i - stride]
    divisor_class = sheaf.variety.divisor_class
    weights: dict[tuple[int, ...], int] = {}
    for (lv, _), w in zip(table, g):
        if w:
            cls = divisor_class([js[l - 1] for js, l in zip(jumps, lv)])
            weights[cls] = weights.get(cls, 0) + w
    return tuple(sorted((cls, w) for cls, w in weights.items() if w))


@lru_cache(maxsize=256)
def _eta_counts(a: tuple[int, ...], q: int) -> tuple[tuple[int, int], ...]:
    """(w, n) pairs: n vectors y in Z^r_{>=0} with |y| <= q have a.y = w."""
    counts = {(0, 0): 1} if q >= 0 else {}   # keyed by (|y|, a.y) so far
    for aj in a:
        grown: dict[tuple[int, int], int] = {}
        for (used, w), n in counts.items():
            for step in range(q - used + 1):
                key = (used + step, w + aj * step)
                grown[key] = grown.get(key, 0) + n
        counts = grown
    by_weight: dict[int, int] = {}
    for (_, w), n in counts.items():
        by_weight[w] = by_weight.get(w, 0) + n
    return tuple(by_weight.items())


def _section_count(variety, c: tuple[int, ...]) -> int:
    """h^0 of the line bundle of class c: C(t + n, n) for O(t) on P^n (0
    for t < 0); on V_s(a), O(p D_rho0 + q D_eta0) has the characters
    (x, y) with x, y >= 0, |y| <= q and |x| <= p + a.y, so
    sum C(p + a.y + s, s) over those y with p + a.y >= 0."""
    if not variety.is_split_bundle:
        (t,) = c
        return comb(t + variety.dim, variety.dim) if t >= 0 else 0
    s, a = split_data(variety)
    p, q = c
    return sum(n * comb(p + w + s, s) for w, n in _eta_counts(a, q) if p + w >= 0)


def hilbert_function(sheaf: EquivariantReflexiveSheaf, c: Sequence[int]) -> int:
    """Value of the Hilbert function of the section module at the class c:
    sum over ``mobius_weights`` of weight times h^0 of the line bundle of
    class c - class."""
    v = sheaf.variety
    c = v.check_class(c)
    return sum(w * _section_count(v, tuple(map(sub, c, cls)))
               for cls, w in mobius_weights(sheaf))


def _psi_count(sheaf: EquivariantReflexiveSheaf, c: Sequence[int]) -> int:
    """The Hilbert function at c as the paper counts it: over the rows of
    ``_level_table`` with f > 0, the lattice points of each index's system
    times its intersection dimension.  The check of ``hilbert_polynomial``
    at its corner, and an oracle for ``hilbert_function``."""
    c = sheaf.variety.check_class(c)
    return sum(len(psi_points(omega_system(sheaf, idx, c))) * d
               for idx, d in _level_table(sheaf) if d)


class HalfPlane(FrozenValue):
    """The set of (p, q) with p_coeff * p + q_coeff * q >= bound."""

    p_coeff: int
    q_coeff: int
    bound: int

    def __post_init__(self):
        for name in ("p_coeff", "q_coeff", "bound"):
            strict_int(getattr(self, name), name)

    def contains(self, p: int, q: int) -> bool:
        return self.p_coeff * strict_int(p, "p") + self.q_coeff * strict_int(q, "q") >= self.bound

    def __str__(self):
        terms = []
        if self.p_coeff:
            terms.append("p" if self.p_coeff == 1 else f"{self.p_coeff}*p")
        if self.q_coeff:
            terms.append("q" if self.q_coeff == 1 else f"{self.q_coeff}*q")
        left = " + ".join(terms) if terms else "0"
        return f"{left} >= {self.bound}"


class SupportRegion(FrozenValue):
    """Intersection of two half-planes in the (p, q) class plane."""

    kind: str            # "L", "I", "J" or "omega"
    index: int | None
    planes: tuple[HalfPlane, HalfPlane]

    def __post_init__(self):
        if self.kind not in ("L", "I", "J", "omega"):
            raise ValueError(f"kind must be 'L', 'I', 'J' or 'omega', got {self.kind!r}")
        if self.index is not None:
            strict_int(self.index, "index")
        if not (type(self.planes) is tuple and len(self.planes) == 2
                and all(isinstance(pl, HalfPlane) for pl in self.planes)):
            raise ValueError(f"planes must be a tuple of two HalfPlanes, got {self.planes!r}")

    def contains(self, p: int, q: int) -> bool:
        return all(pl.contains(p, q) for pl in self.planes)

    def __str__(self):
        label = self.kind if self.index is None else f"{self.kind}({self.index})"
        return f"{label}: " + " and ".join(str(pl) for pl in self.planes)


def _class_region(sheaf, coeffs, kind, index) -> SupportRegion:
    """The class (p_D, q_D) of D = sum coeffs_k D_k plus the effective cone
    {q >= 0, p + a_r q >= 0}."""
    ar = split_data(sheaf.variety)[1][-1]
    p_d, q_d = sheaf.variety.divisor_class(coeffs)
    return SupportRegion(kind, index, (HalfPlane(0, 1, q_d), HalfPlane(1, ar, p_d + ar * q_d)))


@lru_cache(maxsize=64)
def lower_support_region(sheaf: EquivariantReflexiveSheaf) -> SupportRegion:
    """The region containing the whole support: D is the divisor of first jumps."""
    return _class_region(sheaf, [js[0] for js in sheaf.jumps], "L", None)


@lru_cache(maxsize=64)
def _upper_regions(sheaf: EquivariantReflexiveSheaf) -> tuple[SupportRegion, ...]:
    s, _ = split_data(sheaf.variety)
    top = [js[-1] for js in sheaf.jumps]
    regions = []
    for k, js in enumerate(sheaf.jumps):
        coeffs = top[:k] + [js[0]] + top[k + 1:]
        kind, index = ("I", k) if k <= s else ("J", k - s - 1)
        regions.append(_class_region(sheaf, coeffs, kind, index))
    return tuple(regions)


def upper_support_regions(sheaf: EquivariantReflexiveSheaf) -> list[SupportRegion]:
    """Regions certain to carry sections, I(k) per rho ray and J(k) per eta
    ray: D is the divisor of top jumps with ray k's first jump swapped in.
    Built once per sheaf; each call returns a fresh list."""
    return list(_upper_regions(sheaf))


def in_support_lower_bound(sheaf: EquivariantReflexiveSheaf, p: int, q: int) -> bool:
    return lower_support_region(sheaf).contains(p, q)


def in_support_upper_bound(sheaf: EquivariantReflexiveSheaf, p: int, q: int) -> bool:
    return any(r.contains(p, q) for r in _upper_regions(sheaf))


def regularity_thresholds(sheaf: EquivariantReflexiveSheaf) -> tuple[int, int]:
    """Corner (P0, Q0): the Hilbert function is a polynomial on p>=P0, q>=Q0.
    P0 + 1 is p of the class of (top rho, first eta jumps) and Q0 + 1 is q
    of the class of the top jumps."""
    v = sheaf.variety
    s, _ = split_data(v)
    top = [js[-1] for js in sheaf.jumps]
    first = [js[0] for js in sheaf.jumps]
    return v.divisor_class(top[:s + 1] + first[s + 1:])[0] - 1, v.divisor_class(top)[1] - 1


def regularity_region(sheaf: EquivariantReflexiveSheaf) -> SupportRegion:
    p0, q0 = regularity_thresholds(sheaf)
    return SupportRegion("omega", None, (HalfPlane(1, 0, p0), HalfPlane(0, 1, q0)))


def hilbert_polynomial(sheaf: EquivariantReflexiveSheaf) -> RationalPolynomial:
    """The bivariate polynomial matching the Hilbert function on the corner region.

    Interpolated exactly on ``hilbert_function`` at a triangular grid at the
    region's corner.  Checked against the Psi-polytope count at the corner,
    against the engine's h^0 on the rest of the square grid and on extra
    points further out, and against the Euler characteristic at three
    points: the fit path is never its own check.
    Any mismatch is a bug, never a property of the input, hence the
    internal-consistency error, which names the point.
    """
    s, a = split_data(sheaf.variety)
    d = s + len(a)
    p0, q0 = regularity_thresholds(sheaf)
    grid_pts = [(p0 + i, q0 + j) for i in range(d + 1) for j in range(d + 1)]
    fit_pts = [(p, q) for (p, q) in grid_pts if (p - p0) + (q - q0) <= d]
    monomials = [
        (alpha, beta)
        for alpha in range(d + 1)
        for beta in range(d + 1 - alpha)
    ]
    rows = [
        [p ** alpha * q ** beta for alpha, beta in monomials]
        for (p, q) in fit_pts
    ]
    rhs = [hilbert_function(sheaf, (p, q)) for (p, q) in fit_pts]
    solution = solve_square(rows, rhs)
    if solution is None:
        raise InternalConsistencyError("interpolation grid was not unisolvent")
    poly = RationalPolynomial(
        2, {m: c for m, c in zip(monomials, solution)}
    )
    if poly.evaluate((p0, q0)) != _psi_count(sheaf, (p0, q0)):
        raise InternalConsistencyError(
            f"interpolated polynomial disagrees with the Psi-polytope count at {(p0, q0)}"
        )
    check_pts = [pt for pt in grid_pts if pt not in fit_pts]
    check_pts += [(p0 + d + t, q0 + d + t) for t in range(1, d + 2)]
    check_pts += [(p0 + d + t, q0) for t in range(1, d + 1)]
    check_pts += [(p0, q0 + d + t) for t in range(1, d + 1)]
    engine = cohomology._engine(sheaf)
    for pt in check_pts:
        if poly.evaluate(pt) != engine.h0_twisted(pt):
            raise InternalConsistencyError(
                f"interpolated polynomial disagrees with h^0 at {pt}"
            )
    for pt in [(p0, q0), (p0 + 1, q0 + d), (p0 + d, q0 + 1)]:
        if poly.evaluate(pt) != cohomology.euler_characteristic(sheaf, pt):
            raise InternalConsistencyError(
                f"interpolated polynomial disagrees with the Euler characteristic at {pt}"
            )
    return poly


def rank1_hilbert_polynomial(sheaf: EquivariantReflexiveSheaf) -> RationalPolynomial:
    """Closed-form Hilbert polynomial of a rank-1 sheaf, assembled from the
    power-sum machinery rather than interpolation; an independent cross-check.
    (p_D, q_D) is the class of the divisor of its jumps."""
    if sheaf.rank != 1:
        raise ValueError("closed form implemented for rank 1 only")
    s, a = split_data(sheaf.variety)
    r = len(a)
    p_d, q_d = sheaf.variety.divisor_class([js[0] for js in sheaf.jumps])
    # variables (Q, e_1..e_r, p): Q the eta budget, e the shifted eta slice
    n = r + 2
    t_poly = RationalPolynomial.variable(n - 1, n) - p_d
    for u in range(1, r + 1):
        t_poly = t_poly + a[u - 1] * RationalPolynomial.variable(u, n)
    inner = RationalPolynomial.constant(Fraction(1, factorial(s)), n)
    for step in range(1, s + 1):
        inner = inner * (t_poly + step)
    summed = simplex_sum(inner, r)          # variables (Q, p)
    p_final = RationalPolynomial.variable(0, 2)
    q_shifted = RationalPolynomial.variable(1, 2) - q_d
    result = RationalPolynomial(2)
    for (e_q, e_p), c in summed.coeffs.items():
        result = result + c * (q_shifted ** e_q) * (p_final ** e_p)
    return result
