"""Multigraded Hilbert functions, support bounds and Hilbert polynomials.

The Hilbert function of the twisted-section module is the sum, over all
multi-indices, of (number of integer points of the index's interval system)
times (dimension of the intersection of the indexed filtration spaces).
On split-bundle varieties the support is sandwiched between explicit
regions, each the class (p_D, q_D) of a divisor D of jumps (from
``ToricVariety.divisor_class``) plus the effective cone {q >= 0, p + a_r q >= 0}.
Past an explicit corner the Hilbert function is a polynomial, recovered here
by exact interpolation.  The fit and its checks take different paths: the
polynomial is fitted on ``hilbert_function``, the paper's count of
Psi-polytope lattice points times intersection dimensions, and checked
against the engine's h^0 (``cohomology``, a Klyachko sum over the lines of
the support polytope) and against the Euler characteristic.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import product
from math import comb, factorial, lcm
from typing import Sequence

from . import cohomology
from .errors import InternalConsistencyError
from .filtration import EquivariantReflexiveSheaf
from .polytopes import MultiIndex, _multi_index, omega_system, psi_points
from .rational_linalg import _over_lcm, _scalar, solve_square
from .toric import split_data, strict_int, strict_ints


class RationalPolynomial:
    """Polynomial with exact rational coefficients in a fixed number of variables."""

    __slots__ = ("nvars", "coeffs")

    def __init__(self, nvars: int, coeffs: dict[tuple[int, ...], Fraction] | None = None):
        self.nvars = strict_int(nvars, "number of variables")
        clean: dict[tuple[int, ...], Fraction] = {}
        for exps, c in (coeffs or {}).items():
            c = _scalar(c)
            if c == 0:
                continue
            exps = strict_ints(exps, "exponent")
            if len(exps) != nvars or any(e < 0 for e in exps):
                raise ValueError("exponent tuples must be non-negative and match nvars")
            clean[exps] = clean.get(exps, Fraction(0)) + c
        self.coeffs = {e: c for e, c in clean.items() if c != 0}

    @classmethod
    def constant(cls, value, nvars: int = 1) -> "RationalPolynomial":
        return cls(nvars, {(0,) * strict_int(nvars, "number of variables"): _scalar(value)})

    @classmethod
    def variable(cls, index: int, nvars: int) -> "RationalPolynomial":
        if not 0 <= strict_int(index, "variable index") < strict_int(nvars, "number of variables"):
            raise ValueError(f"variable index must lie in 0..{nvars - 1}, got {index}")
        exps = tuple(1 if i == index else 0 for i in range(nvars))
        return cls(nvars, {exps: Fraction(1)})

    @property
    def total_degree(self) -> int:
        return max((sum(e) for e in self.coeffs), default=0)

    def degree_in(self, index: int) -> int:
        strict_int(index, "variable index")
        return max((e[index] for e in self.coeffs), default=0)

    def is_zero(self) -> bool:
        return not self.coeffs

    def _check_same_ring(self, other: "RationalPolynomial"):
        if self.nvars != other.nvars:
            raise ValueError("polynomials live in different rings")

    def __add__(self, other):
        if not isinstance(other, RationalPolynomial):
            other = RationalPolynomial.constant(other, self.nvars)
        self._check_same_ring(other)
        out = dict(self.coeffs)
        for e, c in other.coeffs.items():
            out[e] = out.get(e, Fraction(0)) + c
        return RationalPolynomial(self.nvars, out)

    __radd__ = __add__

    def __neg__(self):
        return RationalPolynomial(self.nvars, {e: -c for e, c in self.coeffs.items()})

    def __sub__(self, other):
        if not isinstance(other, RationalPolynomial):
            other = RationalPolynomial.constant(other, self.nvars)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if not isinstance(other, RationalPolynomial):
            f = _scalar(other)
            return RationalPolynomial(self.nvars, {e: c * f for e, c in self.coeffs.items()})
        self._check_same_ring(other)
        out: dict[tuple[int, ...], Fraction] = {}
        for e1, c1 in self.coeffs.items():
            for e2, c2 in other.coeffs.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                out[e] = out.get(e, Fraction(0)) + c1 * c2
        return RationalPolynomial(self.nvars, out)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if strict_int(n, "power") < 0:
            raise ValueError("negative powers are not polynomials")
        result = RationalPolynomial.constant(1, self.nvars)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def __eq__(self, other):
        if not isinstance(other, RationalPolynomial):
            return NotImplemented
        return self.nvars == other.nvars and self.coeffs == other.coeffs

    def __hash__(self):
        return hash((self.nvars, frozenset(self.coeffs.items())))

    def evaluate(self, point: Sequence) -> Fraction:
        """The exact value at the point, summed on integers: with the
        coordinates N_i / L over the lcm L of their denominators, the
        coefficients a_e / s over theirs and T the total degree, it is
        sum_e a_e prod_i N_i^(e_i) L^(T - |e|) / (s L^T)."""
        if len(point) != self.nvars:
            raise ValueError(f"need {self.nvars} coordinates")
        values, scale = _over_lcm(point)
        s = lcm(*(c.denominator for c in self.coeffs.values()))
        top = self.total_degree
        total = 0
        for exps, c in self.coeffs.items():
            term = c.numerator * (s // c.denominator) * scale ** (top - sum(exps))
            for v, e in zip(values, exps):
                if e:
                    term *= v ** e
            total += term
        return Fraction(total, s * scale ** top)

    def __repr__(self):
        return f"RationalPolynomial({self.nvars}, {self.coeffs})"


def compose_univariate(
    poly: RationalPolynomial, inner: RationalPolynomial
) -> RationalPolynomial:
    """Evaluate a univariate polynomial at another polynomial (Horner)."""
    if poly.nvars != 1:
        raise ValueError("outer polynomial must be univariate")
    degree = poly.degree_in(0)
    table = {e[0]: c for e, c in poly.coeffs.items()}
    result = RationalPolynomial.constant(table.get(degree, Fraction(0)), inner.nvars)
    for d in range(degree - 1, -1, -1):
        result = result * inner + RationalPolynomial.constant(table.get(d, Fraction(0)), inner.nvars)
    return result


def graded_exponents(poly: RationalPolynomial) -> list[tuple[int, ...]]:
    """The exponent tuples of the terms in degree-lexicographic order:
    higher degree first, then higher powers of earlier variables."""
    return sorted(poly.coeffs, key=lambda exps: (-sum(exps), tuple(-e for e in exps)))


def format_polynomial(poly: RationalPolynomial, names: Sequence[str]) -> str:
    """Degree-lexicographic rendering, earlier names first within a degree."""
    if len(names) != poly.nvars:
        raise ValueError("need one name per variable")
    if poly.is_zero():
        return "0"
    terms = []
    for exps in graded_exponents(poly):
        c = poly.coeffs[exps]
        factors = []
        for name, e in zip(names, exps):
            if e == 1:
                factors.append(name)
            elif e > 1:
                factors.append(f"{name}^{e}")
        body = "*".join(factors)
        if not body:
            term = str(c)
        elif c == 1:
            term = body
        elif c == -1:
            term = f"-{body}"
        else:
            term = f"{c}*{body}"
        terms.append(term)
    text = " + ".join(terms)
    return text.replace("+ -", "- ")


# typed, so that True is not served the cached B_1 but refused
@lru_cache(maxsize=None, typed=True)
def bernoulli_number(n: int) -> Fraction:
    """B_n with the convention B_1 = -1/2 (forced by the power-sum identity)."""
    if strict_int(n, "index") < 0:
        raise ValueError("index must be non-negative")
    if n == 0:
        return Fraction(1)
    total = Fraction(0)
    for k in range(n):
        total += comb(n + 1, k) * bernoulli_number(k)
    return -total / (n + 1)


def bernoulli_polynomial(n: int) -> RationalPolynomial:
    """B_n(x) = sum_k C(n, k) B_{n-k} x^k."""
    if strict_int(n, "index") < 0:
        raise ValueError("index must be non-negative")
    coeffs = {(k,): comb(n, k) * bernoulli_number(n - k) for k in range(n + 1)}
    return RationalPolynomial(1, coeffs)


def faulhaber_sum(t: int) -> RationalPolynomial:
    """The polynomial equal to sum_{k=0}^{q} k^t for all q >= 0 (0^0 = 1)."""
    if strict_int(t, "exponent") < 0:
        raise ValueError("exponent must be non-negative")
    b = bernoulli_polynomial(t + 1)
    q_plus_1 = RationalPolynomial(1, {(0,): Fraction(1), (1,): Fraction(1)})
    shifted = compose_univariate(b, q_plus_1)
    constant = b.evaluate((1,))
    poly = (shifted - constant) * Fraction(1, t + 1)
    if t == 0:
        poly = poly + 1
    return poly


def simplex_sum(poly: RationalPolynomial, k: int) -> RationalPolynomial:
    """Closed form of the sum of P(q, e_1..e_k) over e_i >= 0, e_1+...+e_k <= q.

    Variables are ordered (q, e_1, ..., e_k, spectators...).  Innermost sums
    are replaced by power-sum polynomials evaluated at the remaining budget,
    eliminating one e-variable at a time.
    """
    if strict_int(k, "number of summation variables") < 1:
        raise ValueError("need at least one summation variable")
    if poly.nvars < k + 1:
        raise ValueError("polynomial must contain q and the summation variables")
    n = poly.nvars
    for i in range(k, 0, -1):
        budget = RationalPolynomial.variable(0, n)
        for j in range(1, i):
            budget = budget - RationalPolynomial.variable(j, n)
        # poly = sum_t part_t e_i^t, with e_i set to 0 in each part_t
        parts: dict[int, dict[tuple[int, ...], Fraction]] = {}
        for exps, c in poly.coeffs.items():
            parts.setdefault(exps[i], {})[exps[:i] + (0,) + exps[i + 1:]] = c
        acc = RationalPolynomial(n)
        for t, part in parts.items():
            acc = acc + RationalPolynomial(n, part) * compose_univariate(faulhaber_sum(t), budget)
        poly = acc
    # e_1..e_k are summed out: keep q and the spectators
    keep = [0] + list(range(k + 1, n))
    return RationalPolynomial(len(keep), {tuple(exps[j] for j in keep): c
                                          for exps, c in poly.coeffs.items()})


def _valid_levels(jumps: tuple[int, ...]) -> list[int]:
    """Indices whose jump interval is nonempty."""
    rank = len(jumps)
    return [j for j in range(1, rank + 1) if j == rank or jumps[j - 1] < jumps[j]]


@lru_cache(maxsize=64)
def _index_table(sheaf: EquivariantReflexiveSheaf) -> tuple[tuple[MultiIndex, int], ...]:
    """Pruned multi-indices with positive intersection dimension."""
    level_lists = list(map(_valid_levels, sheaf.jumps))
    h0 = cohomology._engine(sheaf).h0
    return tuple((idx, d) for idx in product(*level_lists) if (d := h0(idx)))


def intersection_dim(sheaf: EquivariantReflexiveSheaf, idx: Sequence[int]) -> int:
    """Dimension of the intersection of the indexed filtration spaces, read
    from the shared engine's h0 at those levels."""
    return cohomology._engine(sheaf).h0(_multi_index(sheaf, idx))


def hilbert_function(sheaf: EquivariantReflexiveSheaf, c: Sequence[int]) -> int:
    """Value of the Hilbert function of the section module at the class c."""
    c = sheaf.variety.check_class(c)
    total = 0
    for idx, d in _index_table(sheaf):
        total += len(psi_points(omega_system(sheaf, idx, c))) * d
    return total


@dataclass(frozen=True)
class HalfPlane:
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


@dataclass(frozen=True)
class SupportRegion:
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
    region's corner.  Checked against the engine's h^0 on the rest of the
    square grid and on extra points further out, and against the Euler
    characteristic at three points: the fit path is never its own check.
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
        [Fraction(p) ** alpha * Fraction(q) ** beta for alpha, beta in monomials]
        for (p, q) in fit_pts
    ]
    rhs = [hilbert_function(sheaf, (p, q)) for (p, q) in fit_pts]
    solution = solve_square(rows, rhs)
    if solution is None:
        raise InternalConsistencyError("interpolation grid was not unisolvent")
    poly = RationalPolynomial(
        2, {m: c for m, c in zip(monomials, solution)}
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
