"""Exact rational polynomials and the power-sum machinery behind the
closed-form Hilbert polynomial: Bernoulli numbers and polynomials,
Faulhaber's sums and sums over a simplex of summation variables."""
from __future__ import annotations

from collections.abc import Sequence
from fractions import Fraction
from functools import lru_cache
from math import comb, lcm

from .rational_linalg import _integers, _scalar
from .toric import ordered, strict_int, strict_ints


class RationalPolynomial:
    """Polynomial with exact rational coefficients in a fixed number of variables."""

    __slots__ = ("nvars", "coeffs")

    def __init__(self, nvars: int, coeffs: dict[tuple[int, ...], Fraction] | None = None):
        self.nvars = strict_int(nvars, "number of variables", 0)
        clean: dict[tuple[int, ...], Fraction] = {}
        for exps, c in (coeffs or {}).items():
            c = _scalar(c)
            if c == 0:
                continue
            exps = strict_ints(exps, "exponent", nvars, "exponent tuple", 0)
            clean[exps] = clean.get(exps, Fraction(0)) + c
        self.coeffs = {e: c for e, c in clean.items() if c != 0}

    @classmethod
    def constant(cls, value, nvars: int = 1) -> "RationalPolynomial":
        return cls(nvars, {(0,) * strict_int(nvars, "number of variables"): _scalar(value)})

    @classmethod
    def variable(cls, index: int, nvars: int) -> "RationalPolynomial":
        strict_int(index, "variable index", 0, strict_int(nvars, "number of variables", 0) - 1)
        exps = tuple(1 if i == index else 0 for i in range(nvars))
        return cls(nvars, {exps: Fraction(1)})

    @property
    def total_degree(self) -> int:
        return max((sum(e) for e in self.coeffs), default=0)

    def degree_in(self, index: int) -> int:
        strict_int(index, "variable index", 0, self.nvars - 1)
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
        strict_int(n, "power", 0)
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
        values, scale = _integers(point, self.nvars, "point")
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
    if len(ordered(names, "names", str)) != poly.nvars:
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
    if strict_int(n, "index", 0) == 0:
        return Fraction(1)
    total = Fraction(0)
    for k in range(n):
        total += comb(n + 1, k) * bernoulli_number(k)
    return -total / (n + 1)


def bernoulli_polynomial(n: int) -> RationalPolynomial:
    """B_n(x) = sum_k C(n, k) B_{n-k} x^k."""
    strict_int(n, "index", 0)
    coeffs = {(k,): comb(n, k) * bernoulli_number(n - k) for k in range(n + 1)}
    return RationalPolynomial(1, coeffs)


def faulhaber_sum(t: int) -> RationalPolynomial:
    """The polynomial equal to sum_{k=0}^{q} k^t for all q >= 0 (0^0 = 1)."""
    strict_int(t, "exponent", 0)
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
    strict_int(k, "number of summation variables", 1)
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
