"""Unit tests for polynomials, power sums, Hilbert data and support bounds."""
import random
import re
from fractions import Fraction
from functools import lru_cache
from itertools import product
from math import prod
from operator import sub

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from toricsheaf import (
    EquivariantReflexiveSheaf,
    HalfPlane,
    KlyachkoFiltration,
    RationalPolynomial,
    SheafCohomology,
    Subspace,
    SupportRegion,
    assemble_slices,
    bernoulli_number,
    bernoulli_polynomial,
    delta_normalization,
    enumeration_box,
    euler_characteristic,
    faulhaber_sum,
    format_polynomial,
    hilbert_function,
    hilbert_polynomial,
    hirzebruch,
    in_support_lower_bound,
    in_support_upper_bound,
    intersect,
    line_bundle,
    lower_support_region,
    mobius_weights,
    omega_system,
    parse_config,
    projective_space,
    psi_m_sliced,
    psi_n,
    rank1_hilbert_polynomial,
    regularity_region,
    regularity_thresholds,
    simplex_sum,
    span,
    split_bundle,
    structure_sheaf,
    upper_support_regions,
    validate,
)
from toricsheaf import cohomology, hilbert
from toricsheaf.errors import InternalConsistencyError, UnsupportedVarietyError
from toricsheaf.polynomials import compose_univariate
from toricsheaf.polytopes import psi_points
from toricsheaf.toric import split_data

from conftest import (
    SHIPPED_CONFIGS, counted_fractions, forms_sheaf, random_sheaf, rank3_example_sheaf,
    shipped_sheaf, tangent_sheaf_h3,
)


def poly_from(nvars, terms):
    return RationalPolynomial(nvars, {tuple(e): Fraction(c) for e, c in terms.items()})


def test_polynomial_arithmetic_and_eval():
    x = RationalPolynomial.variable(0, 2)
    y = RationalPolynomial.variable(1, 2)
    p = (x + y) * (x - y)
    assert p == x * x - y * y
    assert p.evaluate((3, 2)) == 5
    assert (x ** 3).evaluate((Fraction(1, 2), 0)) == Fraction(1, 8)
    assert (2 * x + 1).total_degree == 1
    assert RationalPolynomial(2).is_zero()


@pytest.mark.parametrize("bad", [0.1, 0.5, True, False, 2.0])
def test_polynomial_refuses_floats_and_bools(bad):
    """Coefficients, constants, scalar operands and evaluation points are
    exact numbers: a float or a bool is refused, not turned into a Fraction."""
    x = RationalPolynomial.variable(0, 2)
    refused = [
        lambda: RationalPolynomial(1, {(0,): bad}),
        lambda: RationalPolynomial.constant(bad, 2),
        lambda: x.evaluate((bad, 0)),
        lambda: x.evaluate((0, bad)),
        lambda: x + bad,
        lambda: bad + x,
        lambda: x - bad,
        lambda: bad - x,
        lambda: x * bad,
        lambda: bad * x,
    ]
    for call in refused:
        with pytest.raises(ValueError, match="exact numbers must be"):
            call()


def test_polynomial_keeps_exact_scalars():
    x = RationalPolynomial.variable(0, 2)
    half = Fraction(1, 2)
    assert x.evaluate((half, 0)) == half == x.evaluate(("1/2", 0))
    assert (x + half) * 2 == 2 * x + 1 == 2 - (1 - 2 * x)
    assert RationalPolynomial.constant("3/4", 2).evaluate((5, 7)) == Fraction(3, 4)
    with pytest.raises(ValueError, match="power must be an integer"):
        x ** 2.0


def fraction_term_sum(poly, point) -> Fraction:
    """The value at point as a sum of Fraction terms c * prod v_i^e_i."""
    values = [Fraction(x) for x in point]
    total = Fraction(0)
    for exps, c in poly.coeffs.items():
        term = c
        for v, e in zip(values, exps):
            term *= v ** e
        total += term
    return total


@st.composite
def polynomials_and_points(draw):
    nvars = draw(st.integers(1, 3))
    exps = st.tuples(*[st.integers(0, 4)] * nvars)
    # no terms is the zero polynomial; only (0, ..., 0) is a constant one
    coeffs = draw(st.dictionaries(exps | st.just((0,) * nvars), st.fractions(max_denominator=12),
                                  max_size=6))
    coordinate = st.one_of(
        st.integers(-30, 30),
        st.fractions(max_denominator=15),
        st.builds("{}/{}".format, st.integers(-30, 30), st.integers(1, 15)),
    )
    point = draw(st.tuples(*[coordinate] * nvars))
    return RationalPolynomial(nvars, coeffs), point


@settings(max_examples=300, deadline=None)
@given(polynomials_and_points())
def test_evaluate_matches_the_fraction_term_sum(case):
    poly, point = case
    value = poly.evaluate(point)
    assert type(value) is Fraction and value == fraction_term_sum(poly, point)


def test_evaluate_builds_one_fraction():
    """At int and Fraction points the one Fraction built is the result."""
    x, y = RationalPolynomial.variable(0, 2), RationalPolynomial.variable(1, 2)
    poly = Fraction(3, 4) * x ** 2 * y - Fraction(1, 6) + 5 * y
    points = [(2, 3), (Fraction(1, 2), Fraction(-2, 3)), (0, 0)]
    expected = [fraction_term_sum(poly, pt) for pt in points]
    for pt, value in zip(points, expected):
        with counted_fractions() as built:
            assert poly.evaluate(pt) == value
        assert len(built) == 1


def test_polynomial_compose():
    f = poly_from(1, {(2,): 1, (0,): -1})           # x^2 - 1
    u = poly_from(2, {(1, 0): 1, (0, 1): -1})        # p - q
    g = compose_univariate(f, u)
    assert g.evaluate((5, 3)) == 3


def test_format_polynomial_degree_lex():
    p = poly_from(2, {(1, 1): 3, (0, 2): Fraction(9, 2), (1, 0): 11, (0, 1): Fraction(77, 2), (0, 0): 56})
    assert format_polynomial(p, ("p", "q")) == "3*p*q + 9/2*q^2 + 11*p + 77/2*q + 56"
    assert format_polynomial(RationalPolynomial(1), ("x",)) == "0"


def test_bernoulli_polynomials():
    assert bernoulli_polynomial(0) == poly_from(1, {(0,): 1})
    assert bernoulli_polynomial(1) == poly_from(1, {(1,): 1, (0,): Fraction(-1, 2)})
    assert bernoulli_polynomial(2) == poly_from(1, {(2,): 1, (1,): -1, (0,): Fraction(1, 6)})
    assert bernoulli_number(1) == Fraction(-1, 2)
    assert bernoulli_number(12) == Fraction(-691, 2730)


@pytest.mark.parametrize("call, bad", [
    (bernoulli_number, True),
    (bernoulli_number, 2.0),
    (bernoulli_polynomial, 1.5),
    (bernoulli_polynomial, False),
    (faulhaber_sum, 1.0),
    (lambda k: simplex_sum(poly_from(2, {(0, 0): 1}), k), 1.0),
    (lambda k: simplex_sum(poly_from(2, {(0, 0): 1}), k), True),
])
def test_power_sums_refuse_non_integers(call, bad):
    """A bool or float index is refused with ValueError; True is not served
    the cached B_1."""
    with pytest.raises(ValueError, match=f"must be an integer, got {bad!r}"):
        call(bad)


def test_faulhaber_small():
    assert faulhaber_sum(0) == poly_from(1, {(1,): 1, (0,): 1})     # q + 1
    assert faulhaber_sum(2).evaluate((3,)) == 14
    f5 = faulhaber_sum(5)
    for q in (0, 1, 7, 20):
        assert f5.evaluate((q,)) == sum(k ** 5 for k in range(q + 1))


def test_faulhaber_matches_direct_sums():
    for t in range(5):
        f = faulhaber_sum(t)
        for q in range(31):
            assert f.evaluate((q,)) == sum(k ** t for k in range(q + 1))


def test_simplex_sum_counts_lattice_points():
    one = RationalPolynomial.constant(1, 3)
    s = simplex_sum(one, 2)
    for q in range(8):
        assert s.evaluate((q,)) == (q + 1) * (q + 2) // 2


def test_simplex_sum_linear():
    e1 = RationalPolynomial.variable(1, 2)
    s = simplex_sum(e1, 1)
    for q in range(8):
        assert s.evaluate((q,)) == q * (q + 1) // 2


def test_simplex_sum_mixed_example():
    q = RationalPolynomial.variable(0, 3)
    e1 = RationalPolynomial.variable(1, 3)
    e2 = RationalPolynomial.variable(2, 3)
    p = q * e1 + e2 ** 2
    s = simplex_sum(p, 2)
    brute = sum(
        4 * a + b * b
        for a in range(5)
        for b in range(5)
        if a + b <= 4
    )
    assert s.evaluate((4,)) == brute


def test_simplex_sum_random_against_loops():
    rng = random.Random(8)
    for _ in range(5):
        k = rng.randint(1, 2)
        nvars = k + 1
        coeffs = {
            tuple(rng.randint(0, 2) for _ in range(nvars)): rng.randint(-3, 3)
            for _ in range(4)
        }
        p = RationalPolynomial(nvars, {e: Fraction(c) for e, c in coeffs.items()})
        s = simplex_sum(p, k)
        for q in range(0, 7):
            brute = sum(
                p.evaluate((q,) + es)
                for es in product(range(q + 1), repeat=k)
                if sum(es) <= q
            )
            assert s.evaluate((q,)) == brute


def test_intersection_dim_examples():
    """The dimension of the intersection of the indexed filtration spaces
    is the shared engine's h0 at those levels."""
    h0 = cohomology._engine(rank3_example_sheaf()).h0
    assert h0((3, 3, 3, 3)) == 3
    # frozen from the stacked-nullspace oracle
    assert h0((2, 2, 2, 2)) == 0
    assert h0((2, 2, 3, 3)) == 1
    assert cohomology._engine(tangent_sheaf_h3()).h0((1, 1, 2, 2)) == 0


def test_hilbert_function_p2():
    o = structure_sheaf(projective_space(2))
    assert hilbert_function(o, (2,)) == 6
    assert hilbert_function(o, (-1,)) == 0


def test_hilbert_function_matches_h0(rank3_sheaf):
    eng = SheafCohomology(rank3_sheaf)
    for c in ((6, 0), (0, 0), (10, 4), (-3, 2)):
        assert hilbert_function(rank3_sheaf, c) == eng.h0_twisted(c)


def test_hilbert_function_zero_below_support(rank3_sheaf):
    assert hilbert_function(rank3_sheaf, (-30, -10)) == 0
    assert hilbert_function(rank3_sheaf, (0, -8)) == 0


# the acceptance sheaves, the p-forms on V_1(1,2), and per variety and seed
# 0-3 a random sheaf of rank 1 + seed % 3 with jumps in [-3, 0]
MOBIUS_SHEAVES = {
    "rank3_h3": rank3_example_sheaf,
    "tangent_h3": tangent_sheaf_h3,
    **{f"forms{p}-V1(1,2)": lambda p=p: forms_sheaf(split_bundle(1, (1, 2)), p) for p in range(4)},
    **{
        f"{name}-seed{seed}": lambda variety=variety, seed=seed: random_sheaf(
            random.Random(seed), variety, 1 + seed % 3, -3, 0)
        for name, variety in [("P2", projective_space(2)), ("P3", projective_space(3)),
                              ("H1", hirzebruch(1)), ("H3", hirzebruch(3)),
                              ("V1(1,2)", split_bundle(1, (1, 2))), ("V2(1)", split_bundle(2, (1,)))]
        for seed in range(4)
    },
}


@pytest.fixture(scope="module")
def mobius_sheaves():
    return {name: build() for name, build in MOBIUS_SHEAVES.items()}


def mobius_window(sheaf) -> list[tuple[int, ...]]:
    """Twists from below the class of the first jumps, where nothing has a
    section, through the corner region: on V_s(a) three columns from 8
    steps below P0 to one past it, four rows from 6 steps below Q0 to 6
    past it, and the class of the first jumps one step down in each
    coordinate."""
    v = sheaf.variety
    first = v.divisor_class([js[0] for js in sheaf.jumps])
    if not v.is_split_bundle:
        top = v.divisor_class([js[-1] for js in sheaf.jumps])
        return [(first[0] - 2,), (first[0] - 1,), (first[0],), (top[0] + 1,), (top[0] + 5,)]
    p0, q0 = regularity_thresholds(sheaf)
    window = [(p0 + i, q0 + j) for i in (-8, -3, 1) for j in (-6, -2, 1, 6)]
    return window + [(first[0] - 1, first[1]), (first[0], first[1] - 1)]


def assert_hilbert_function_on(sheaf, window) -> dict[tuple[int, ...], int]:
    """The Hilbert function at each class of the window, checked against
    the Psi-polytope count and the engine's h^0."""
    engine = SheafCohomology(sheaf)
    values = {}
    for c in window:
        values[c] = hilbert_function(sheaf, c)
        assert values[c] == hilbert._psi_count(sheaf, c) == engine.h0_twisted(c), c
    return values


@pytest.mark.parametrize("name", MOBIUS_SHEAVES)
def test_hilbert_function_is_the_psi_count_and_h0_on_a_window(mobius_sheaves, name):
    """The weighted section counts equal the paper's Psi-polytope count and
    the engine's h^0 on a window reaching classes with no section and, on
    V_s(a), classes with sections outside the corner region."""
    sheaf = mobius_sheaves[name]
    values = assert_hilbert_function_on(sheaf, mobius_window(sheaf))
    assert 0 in values.values()
    if sheaf.variety.is_split_bundle:
        omega = regularity_region(sheaf)
        assert any(h and not omega.contains(*c) for c, h in values.items())


@pytest.mark.parametrize("name", SHIPPED_CONFIGS)
def test_hilbert_function_is_the_psi_count_and_h0_on_shipped_configs(name):
    """On [-2, 12] x [-6, 6] over V_s(a), on [-2, 12] over P^n."""
    sheaf = shipped_sheaf(name)
    window = product(range(-2, 13), *[range(-6, 7)] * (sheaf.variety.class_rank - 1))
    assert_hilbert_function_on(sheaf, window)


@settings(max_examples=40, deadline=None)
@given(name=st.sampled_from(sorted(MOBIUS_SHEAVES)), c=st.tuples(*[st.integers(-10, 8)] * 2))
def test_hilbert_function_is_the_psi_count_and_h0(mobius_sheaves, name, c):
    sheaf = mobius_sheaves[name]
    c = c[:sheaf.variety.class_rank]
    value = hilbert_function(sheaf, c)
    assert value == hilbert._psi_count(sheaf, c) == cohomology._engine(sheaf).h0_twisted(c)


@pytest.mark.parametrize("name", MOBIUS_SHEAVES)
def test_mobius_weights_sum_to_the_rank(mobius_sheaves, name):
    """Mobius inversion at the top level tuple: f there is the rank, and it
    is the sum of every weight."""
    sheaf = mobius_sheaves[name]
    weights = mobius_weights(sheaf)
    assert all(w for _, w in weights)
    assert [cls for cls, _ in weights] == sorted({cls for cls, _ in weights})
    assert sum(w for _, w in weights) == sheaf.rank


def test_mobius_weights_of_a_line_bundle_and_of_the_rank3_sheaf(rank3_sheaf):
    """A line bundle has one weight, 1 at the class of its jumps, whose
    negative is the bundle's class; the rank-3 sheaf's weights are frozen."""
    bundle = line_bundle(hirzebruch(3), (2, 0, 1, 0))
    assert mobius_weights(bundle) == (((-2, -1), 1),)
    assert mobius_weights(rank3_sheaf) == (
        ((-9, 0), 1), ((-4, 0), 1), ((-3, -1), 1), ((-3, 0), -1), ((-1, -1), 1),
        ((-1, 0), -2), ((0, -4), 1), ((0, -1), -1), ((0, 0), 1), ((2, -1), 1),
        ((3, -2), 1), ((3, -1), -2), ((6, -2), 1),
    )


def full_grid_weights(sheaf) -> tuple[tuple[tuple[int, ...], int], ...]:
    """The Mobius weights by inversion on every level tuple of
    [1..rank]^rays, read from a fresh engine: one finite difference per
    ray with f = 0 below level 1, and the weights summed per class."""
    jumps, rank = sheaf.jumps, sheaf.rank
    h0 = SheafCohomology(sheaf).h0
    tuples = list(product(range(1, rank + 1), repeat=len(jumps)))
    g = {lv: h0(lv) for lv in tuples}
    for k in range(len(jumps)):
        for lv in reversed(tuples):
            if lv[k] > 1:
                g[lv] -= g[lv[:k] + (lv[k] - 1,) + lv[k + 1:]]
    weights = {}
    for lv, w in g.items():
        cls = sheaf.variety.divisor_class([js[l - 1] for js, l in zip(jumps, lv)])
        weights[cls] = weights.get(cls, 0) + w
    return tuple(sorted((cls, w) for cls, w in weights.items() if w))


# the acceptance sheaves, the p-forms on P^4, V_1(1,2) and V_2(1,2) but
# Omega^2 on V_2(1,2) (46,656 tuples on the full grid), and per variety a
# random sheaf of each rank 1-4 and seed 0-3 with jumps in [-3, 0]
GRID_SHEAVES = {
    "rank3_h3": rank3_example_sheaf,
    "tangent_h3": tangent_sheaf_h3,
    **{
        f"forms{p}-{name}": lambda variety=variety, p=p: forms_sheaf(variety, p)
        for name, variety in [("P4", projective_space(4)), ("V1(1,2)", split_bundle(1, (1, 2))),
                              ("V2(1,2)", split_bundle(2, (1, 2)))]
        for p in range(variety.dim + 1) if (name, p) != ("V2(1,2)", 2)
    },
    **{
        f"{name}-rank{rank}-seed{seed}": lambda variety=variety, rank=rank, seed=seed: random_sheaf(
            random.Random(seed), variety, rank, -3, 0)
        for name, variety in [("H1", hirzebruch(1)), ("V1(1,2)", split_bundle(1, (1, 2))),
                              ("V2(1,2)", split_bundle(2, (1, 2)))]
        for rank in range(1, 5) for seed in range(4)
    },
}


@pytest.mark.parametrize("name", GRID_SHEAVES)
def test_mobius_weights_on_the_valid_grid_equal_the_full_grid_inversion(name):
    """Inverting f on the valid levels alone gives the weights of the
    inversion on all of [1..rank]^rays: along a run of equal jumps f and
    the class of L_l are constant, so the full grid's differences there
    telescope."""
    sheaf = GRID_SHEAVES[name]()
    assert mobius_weights(sheaf) == full_grid_weights(sheaf)


@pytest.mark.parametrize(
    "variety", [split_bundle(2, (1, 2)), projective_space(4)], ids=["V2(1,2)", "P4"]
)
@pytest.mark.parametrize("p", [1, 2])
def test_mobius_weights_read_h0_only_on_the_valid_grid(monkeypatch, variety, p):
    """On a fresh engine the weights of Omega^p read h0 at the 2^rays valid
    level tuples, one per jump 0 or 1 on each ray, not on all of
    [1..rank]^rays (6^6 = 46,656 tuples for Omega^2 on V_2(1,2)); the
    Hilbert function they give is the Psi-polytope count at the corner."""
    sheaf = forms_sheaf(variety, p)
    monkeypatch.setattr(cohomology, "_engine", lru_cache(maxsize=64)(SheafCohomology))
    monkeypatch.setattr(hilbert, "_level_table", lru_cache(maxsize=64)(hilbert._level_table.__wrapped__))
    weights = hilbert.mobius_weights.__wrapped__(sheaf)
    assert sum(w for _, w in weights) == sheaf.rank
    grid = [len(hilbert._valid_levels(js)) for js in sheaf.jumps]
    assert grid == [2] * variety.ray_count
    assert len(cohomology._engine(sheaf)._local["h0"]) == prod(grid)
    assert [lv for lv, _ in hilbert._level_table(sheaf)] == list(product(*map(hilbert._valid_levels, sheaf.jumps)))
    c = regularity_thresholds(sheaf) if variety.is_split_bundle else (3,)
    assert hilbert_function(sheaf, c) == hilbert._psi_count(sheaf, c)


# (variety, rank, seed) of the random sheaves, jumps in [-3, 0], whose
# K-polynomial is checked beside the acceptance sheaves and Omega^1 on V_1(1,2)
K_POLYNOMIAL_SHEAVES = {
    "rank3_h3": rank3_example_sheaf,
    "tangent_h3": tangent_sheaf_h3,
    "forms1-V1(1,2)": lambda: forms_sheaf(split_bundle(1, (1, 2)), 1),
    **{
        f"{name}-rank{rank}-seed{seed}": lambda variety=variety, rank=rank, seed=seed: random_sheaf(
            random.Random(seed), variety, rank, -3, 0)
        for name, variety in [("H1", hirzebruch(1)), ("V1(1,2)", split_bundle(1, (1, 2))),
                              ("P2", projective_space(2))]
        for rank in (2, 3) for seed in range(3)
    },
}


def assert_k_polynomial(sheaf) -> None:
    """The section module has the Hilbert series K(t) / prod_rho (1 - t^deg rho)
    with K = sum w t^class, so prod_rho (1 - shift by deg rho) applied to the
    engine's h^0 gives the weights at their classes and 0 at every other
    class of the box reaching 2 past them: no interpolation, no inversion."""
    engine = SheafCohomology(sheaf)
    weights = dict(mobius_weights(sheaf))
    shifts = {(0,) * sheaf.variety.class_rank: 1}
    for degree in sheaf.variety.degrees:
        for shift, sign in list(shifts.items()):
            moved = tuple(x + d for x, d in zip(shift, degree))
            shifts[moved] = shifts.get(moved, 0) - sign
    box = [range(min(axis) - 2, max(axis) + 3) for axis in zip(*weights)]
    for c in product(*box):
        k = sum(sign * engine.h0_twisted(tuple(map(sub, c, shift))) for shift, sign in shifts.items())
        assert k == weights.get(c, 0), c


@pytest.mark.parametrize("name", K_POLYNOMIAL_SHEAVES)
def test_mobius_weights_are_the_k_polynomial_of_the_engine_h0(name):
    assert_k_polynomial(K_POLYNOMIAL_SHEAVES[name]())


@settings(max_examples=20, deadline=None)
@given(
    st.sampled_from([hirzebruch(1), split_bundle(1, (1, 2)), projective_space(2)]),
    st.integers(1, 3),
    st.integers(0, 2**32),
)
def test_mobius_weights_are_the_k_polynomial_on_random_sheaves(variety, rank, seed):
    assert_k_polynomial(random_sheaf(random.Random(seed), variety, rank, -3, 0))


@settings(max_examples=40, deadline=None)
@given(name=st.sampled_from(sorted(MOBIUS_SHEAVES)), c=st.tuples(*[st.integers(-6, 6)] * 2))
def test_chi_is_the_weighted_chi_of_the_structure_sheaf(mobius_sheaves, name, c):
    """Each cone piece's dimension is a marginal of f, so chi is linear in
    f: chi(E(c)) = sum w chi(O(c - class)), both sides walked by the engine."""
    sheaf = mobius_sheaves[name]
    c = c[:sheaf.variety.class_rank]
    structure = cohomology._engine(structure_sheaf(sheaf.variety))
    assert cohomology._engine(sheaf).chi_twisted(c) == sum(
        w * structure.chi_twisted(tuple(map(sub, c, cls))) for cls, w in mobius_weights(sheaf))


def seeded_sheaf(seed: int) -> EquivariantReflexiveSheaf:
    """The benchmark's rank-2 sheaf on V_1(1, 2): per ray, the jumps below
    and a middle space spanned by a random nonzero line."""
    rng = random.Random(seed)
    filtrations = []
    for jumps in ((-2, -1), (-3, -1), (-3, -2), (-3, -2), (-2, -1)):
        line = [0, 0]
        while line == [0, 0]:
            line = [rng.randint(-4, 4), rng.randint(-4, 4)]
        filtrations.append({"jumps": list(jumps), "spaces": [[line]]})
    return parse_config({
        "variety": {"family": "split_bundle", "s": 1, "a": [1, 2]},
        "sheaf": {"rank": 2, "filtrations": filtrations},
    }).sheaf


def test_far_twist_hilbert_function_counts_no_lattice_point(monkeypatch):
    """At (60, 60) the Hilbert function of the seeded sheaf sums a few
    weighted section counts and lists no lattice point."""
    sheaf = seeded_sheaf(0)
    monkeypatch.setattr(hilbert, "psi_points", lambda sys: pytest.fail("psi_points called"))
    assert hilbert_function(sheaf, (60, 60)) == 580019 == SheafCohomology(sheaf).h0_twisted((60, 60))


def test_lower_support_region_final_example(rank3_sheaf):
    region = lower_support_region(rank3_sheaf)
    assert str(region) == "L: q >= -6 and p + 3*q >= -24"


def test_lower_support_region_structure_sheaf():
    o = structure_sheaf(hirzebruch(3))
    region = lower_support_region(o)
    assert str(region) == "L: q >= 0 and p + 3*q >= 0"


def test_support_bounds_unsupported():
    o = structure_sheaf(projective_space(2))
    with pytest.raises(UnsupportedVarietyError):
        lower_support_region(o)


def test_rank1_upper_equals_lower():
    o = line_bundle(hirzebruch(2), (1, 0, -1, 0))
    lower = lower_support_region(o)
    for region in upper_support_regions(o):
        assert region.planes == lower.planes


PLANE = HalfPlane(1, 0, 0)


@pytest.mark.parametrize("args, field", [
    ((0.5, 1, 0), "p_coeff"),
    ((True, 1, 0), "p_coeff"),
    ((1, 0.5, 0), "q_coeff"),
    ((1, True, 0), "q_coeff"),
    ((1, "1", 0), "q_coeff"),
    ((1, 0, 0.5), "bound"),
    ((1, 0, "1"), "bound"),
    ((1, 0, Fraction(1, 2)), "bound"),
])
def test_half_plane_fields_are_integers(args, field):
    with pytest.raises(ValueError, match=f"{field} must be an integer"):
        HalfPlane(*args)


@pytest.mark.parametrize("args, field", [
    (("K", None, (PLANE, PLANE)), "kind"),
    ((None, None, (PLANE, PLANE)), "kind"),
    ((("L",), None, (PLANE, PLANE)), "kind"),
    (("I", 1.0, (PLANE, PLANE)), "index"),
    (("J", False, (PLANE, PLANE)), "index"),
    (("I", "0", (PLANE, PLANE)), "index"),
    (("L", None, (PLANE,)), "planes"),
    (("L", None, (PLANE, PLANE, PLANE)), "planes"),
    (("L", None, [PLANE, PLANE]), "planes"),
    (("L", None, (PLANE, (1, 0, 0))), "planes"),
    (("L", None, None), "planes"),
])
def test_support_region_fields_are_checked(args, field):
    with pytest.raises(ValueError, match=f"^{field} must be"):
        SupportRegion(*args)


def test_support_regions_are_built_once_per_sheaf(monkeypatch):
    """Asking about many (p, q) builds L and the I/J regions once, one class
    per region, and each upper_support_regions call hands out its own list."""
    sheaf = random_sheaf(random.Random("regions-once"), hirzebruch(3), 2)
    calls = []
    divisor_class = type(sheaf.variety).divisor_class
    monkeypatch.setattr(type(sheaf.variety), "divisor_class",
                        lambda self, coeffs: calls.append(coeffs) or divisor_class(self, coeffs))
    for p, q in product(range(-4, 5), repeat=2):
        in_support_lower_bound(sheaf, p, q)
        in_support_upper_bound(sheaf, p, q)
    assert len(calls) == 1 + sheaf.variety.ray_count
    regions = upper_support_regions(sheaf)
    regions.clear()
    assert len(upper_support_regions(sheaf)) == sheaf.variety.ray_count
    assert len(calls) == 1 + sheaf.variety.ray_count


def test_support_sandwich_sampled():
    rng = random.Random(17)
    sheaf = random_sheaf(rng, hirzebruch(2), 2)
    for p in range(-8, 9, 2):
        for q in range(-8, 9, 2):
            h = hilbert_function(sheaf, (p, q))
            if h > 0:
                assert in_support_lower_bound(sheaf, p, q)
            if in_support_upper_bound(sheaf, p, q):
                assert h > 0


def test_support_sandwich_on_bundles_beyond_surfaces():
    """h^0 > 0 lies in L, and every I/J region carries sections, on seeded
    sheaves of ranks 1-3 on V_1(1,2), V_2(1) and V_1(0,1) over a 17x17
    window of twists."""
    rng = random.Random(2027)
    window = list(product(range(-8, 9), repeat=2))
    seen = {"outside L": 0, "h0 > 0": 0, "in I/J": 0}
    for variety in (split_bundle(1, (1, 2)), split_bundle(2, (1,)), split_bundle(1, (0, 1))):
        for rank in (1, 2, 3):
            sheaf = random_sheaf(rng, variety, rank, -4, 0)
            engine = SheafCohomology(sheaf)
            lower = lower_support_region(sheaf)
            upper = upper_support_regions(sheaf)
            for p, q in window:
                h = engine.h0_twisted((p, q))
                in_lower = lower.contains(p, q)
                in_upper = any(r.contains(p, q) for r in upper)
                if h > 0:
                    assert in_lower, (variety.split_a, rank, p, q)
                if in_upper:
                    assert h > 0, (variety.split_a, rank, p, q)
                seen["outside L"] += not in_lower
                seen["h0 > 0"] += h > 0
                seen["in I/J"] += in_upper
    assert all(seen.values()), seen


# (s, a, seed) -> str() of L, I(0..s), J(0..r) and omega, and the class delta,
# of the seeded rank-2 sheaf random_sheaf(Random(seed), V_s(a), 2)
BUNDLE_REGION_PINS = {
    (1, (1, 2), 41): (
        "L: q >= -11 and p + 2*q >= -20",
        ["I(0): q >= -2 and p + 2*q >= -9", "I(1): q >= -2 and p + 2*q >= -9",
         "J(0): q >= -6 and p + 2*q >= -16", "J(1): q >= -4 and p + 2*q >= -10",
         "J(2): q >= -5 and p + 2*q >= -8"],
        "omega: p >= 3 and q >= -3",
        (-4, -2),
    ),
    (2, (1,), 42): (
        "L: q >= -5 and p + q >= -18",
        ["I(0): q >= -3 and p + q >= -13", "I(1): q >= -3 and p + q >= -13",
         "I(2): q >= -3 and p + q >= -8", "J(0): q >= -3 and p + q >= -8",
         "J(1): q >= -5 and p + q >= -8"],
        "omega: p >= -4 and q >= -4",
        (-5, -3),
    ),
    (2, (1, 2), 43): (
        "L: q >= -14 and p + 2*q >= -25",
        ["I(0): q >= -5 and p + 2*q >= -14", "I(1): q >= -5 and p + 2*q >= -13",
         "I(2): q >= -5 and p + 2*q >= -15", "J(0): q >= -7 and p + 2*q >= -16",
         "J(1): q >= -8 and p + 2*q >= -15", "J(2): q >= -9 and p + 2*q >= -12"],
        "omega: p >= 8 and q >= -6",
        (-2, -5),
    ),
}


@pytest.mark.parametrize("s, a, seed", sorted(BUNDLE_REGION_PINS))
def test_bundle_regions_are_pinned(s, a, seed):
    sheaf = random_sheaf(random.Random(seed), split_bundle(s, a), 2)
    lower, upper, omega, delta = BUNDLE_REGION_PINS[(s, a, seed)]
    assert str(lower_support_region(sheaf)) == lower
    assert [str(r) for r in upper_support_regions(sheaf)] == upper
    assert str(regularity_region(sheaf)) == omega
    assert delta_normalization(sheaf)[0] == delta


def test_regularity_region_final_example(rank3_sheaf):
    assert str(regularity_region(rank3_sheaf)) == "omega: p >= 5 and q >= -1"
    assert regularity_thresholds(rank3_sheaf) == (5, -1)


def test_regularity_region_normalized_corollary():
    rng = random.Random(29)
    sheaf = random_sheaf(rng, hirzebruch(3), 3)
    a = sheaf.variety.split_a
    j_first = [js[0] for js in sheaf.jumps[2:]]
    j_top = [js[-1] for js in sheaf.jumps[2:]]
    _, normalized = delta_normalization(sheaf)
    p0, q0 = regularity_thresholds(normalized)
    assert p0 == -sum(av * (jf - jt) for av, jf, jt in zip(a, j_first[1:], j_top[1:])) - 1
    assert q0 == -1


def test_regularity_region_line_bundle():
    o = line_bundle(hirzebruch(2), (0, 0, 0, 0))
    assert regularity_thresholds(o) == (-1, -1)


def test_hilbert_polynomial_structure_sheaf():
    o = structure_sheaf(hirzebruch(3))
    poly = hilbert_polynomial(o)
    assert poly.evaluate((0, 0)) == 1
    assert rank1_hilbert_polynomial(o) == poly


def test_hilbert_polynomial_final_example(rank3_sheaf):
    poly = hilbert_polynomial(rank3_sheaf)
    assert format_polynomial(poly, ("p", "q")) == "3*p*q + 9/2*q^2 + 11*p + 77/2*q + 56"
    for p in range(5, 11):
        for q in range(-1, 5):
            assert poly.evaluate((p, q)) == hilbert_function(rank3_sheaf, (p, q))
    assert poly.evaluate((7, 2)) == euler_characteristic(rank3_sheaf, (7, 2))


def check_points(sheaf) -> list[tuple[int, int]]:
    """The points where hilbert_polynomial checks its fit against h^0:
    the square grid at the corner off the triangle it fits on, and the
    points further out along the diagonal and the two corner edges."""
    s, a = split_data(sheaf.variety)
    d = s + len(a)
    p0, q0 = regularity_thresholds(sheaf)
    points = [(p0 + i, q0 + j) for i in range(d + 1) for j in range(d + 1) if i + j > d]
    points += [(p0 + d + t, q0 + d + t) for t in range(1, d + 2)]
    points += [(p0 + d + t, q0) for t in range(1, d + 1)]
    return points + [(p0, q0 + d + t) for t in range(1, d + 1)]


@pytest.mark.parametrize("which", [0, 4, -1])
def test_hilbert_polynomial_checks_every_point_on_the_engine_h0(rank3_sheaf, monkeypatch, which):
    """The fit is checked against the engine's h^0, not the function it was
    fitted on: h^0 off by one at one check point is caught and named."""
    engine = cohomology._engine(rank3_sheaf)
    points = check_points(rank3_sheaf)
    wrong = points[which]
    h0_twisted = engine.h0_twisted
    asked = []

    def off_by_one(c):
        asked.append(tuple(c))
        return h0_twisted(c) + (tuple(c) == wrong)

    monkeypatch.setattr(engine, "h0_twisted", off_by_one)
    with pytest.raises(InternalConsistencyError, match=re.escape(f"h^0 at {wrong}")):
        hilbert_polynomial(rank3_sheaf)
    assert asked == points[:points.index(wrong) + 1]
    monkeypatch.setattr(engine, "h0_twisted", lambda c: asked.append(tuple(c)) or h0_twisted(c))
    asked.clear()
    hilbert_polynomial(rank3_sheaf)
    assert asked == points


def test_hilbert_polynomial_fits_on_the_weights_and_counts_psi_points_at_the_corner(
    rank3_sheaf, monkeypatch
):
    """The fit asks ``hilbert_function`` at the (d+1)(d+2)/2 fit points and
    nowhere else; the Psi-polytope count runs once, at the corner, with one
    psi_points call per pruned multi-index."""
    systems, asked = [], []
    monkeypatch.setattr(hilbert, "psi_points", lambda sys: systems.append(sys) or psi_points(sys))
    function = hilbert.hilbert_function
    monkeypatch.setattr(hilbert, "hilbert_function",
                        lambda sheaf, c: asked.append(tuple(c)) or function(sheaf, c))
    hilbert_polynomial(rank3_sheaf)
    d = 2
    p0, q0 = regularity_thresholds(rank3_sheaf)
    assert asked == [(p0 + i, q0 + j) for i in range(d + 1) for j in range(d + 1) if i + j <= d]
    assert len(asked) == (d + 1) * (d + 2) // 2
    table = [(idx, d) for idx, d in hilbert._level_table(rank3_sheaf) if d]
    assert len(systems) == len(table)
    assert systems == [omega_system(rank3_sheaf, idx, (p0, q0)) for idx, _ in table]


def test_hilbert_polynomial_checks_the_psi_count_at_the_corner(rank3_sheaf, monkeypatch):
    """The fit is checked against the Psi-polytope count, not the function
    it was fitted on: that count off by one at the corner is caught and
    named, before any h^0 check point."""
    corner = regularity_thresholds(rank3_sheaf)
    psi_count = hilbert._psi_count
    monkeypatch.setattr(hilbert, "_psi_count",
                        lambda sheaf, c: psi_count(sheaf, c) + (tuple(c) == corner))
    engine = cohomology._engine(rank3_sheaf)
    monkeypatch.setattr(engine, "h0_twisted", lambda c: pytest.fail(f"h^0 asked at {c}"))
    message = f"interpolated polynomial disagrees with the Psi-polytope count at {corner}"
    with pytest.raises(InternalConsistencyError, match=re.escape(message)):
        hilbert_polynomial(rank3_sheaf)


def splits_on_every_maximal_cone(sheaf) -> bool:
    """False when some maximal cone's filtration spaces and their pairwise
    intersections hold more lines than the rank.  A basis that split them
    all would make each of those lines one of its coordinate lines, so then
    no basis does and, by Klyachko's criterion, the sheaf is not locally
    free; True says only that this count does not rule it out."""
    for cone in sheaf.variety.maximal_cones():
        spaces = {s for k in cone.ray_indices for s in sheaf.filtrations[k].spaces}
        spaces |= {intersect([x, y]) for x in spaces for y in spaces}
        if sum(s.dim == 1 for s in spaces) > sheaf.rank:
            return False
    return True


# (variety, rank, seed): a line bundle and a rank-3 sheaf on H_3; sheaves of
# rank 2 and 3 on V_1(1,2) and of rank 1 and 2 on V_2(1), the threefolds'
# rank-2 and rank-3 ones not locally free
SNAPPER_SHEAVES = (
    (hirzebruch(3), 1, 1), (hirzebruch(3), 3, 2),
    (split_bundle(1, (1, 2)), 2, 3), (split_bundle(1, (1, 2)), 3, 4),
    (split_bundle(2, (1,)), 1, 5), (split_bundle(2, (1,)), 2, 6),
)


@pytest.fixture(scope="module")
def snapper_cases():
    """Each sheaf's engine and Hilbert polynomial, computed once."""
    cases = []
    for variety, rank, seed in SNAPPER_SHEAVES:
        sheaf = random_sheaf(random.Random(seed), variety, rank, -4, 0)
        if rank > 1 and variety.dim == 3:
            assert not splits_on_every_maximal_cone(sheaf)
        cases.append((SheafCohomology(sheaf), hilbert_polynomial(sheaf)))
    return cases


@settings(max_examples=40, deadline=None)
@given(
    case=st.integers(0, len(SNAPPER_SHEAVES) - 1),
    c=st.tuples(st.integers(-12, 8), st.integers(-12, 8)),
)
def test_euler_characteristic_is_the_hilbert_polynomial(snapper_cases, case, c):
    """Snapper: chi(E(c)) is a polynomial in c.  Deep in the ample cone the
    higher cohomology vanishes, so there it equals h^0(E(c)), which the
    Hilbert polynomial matches; two polynomials that agree there agree at
    every twist, also where h^0 and chi differ."""
    engine, poly = snapper_cases[case]
    assert engine.chi_twisted(c) == poly.evaluate(c)


# the acceptance sheaves, and random rank-2 sheaves with jumps in [-3, 0]
OFF_OMEGA_SHEAVES = {
    "rank3_h3": rank3_example_sheaf,
    "tangent_h3": tangent_sheaf_h3,
    **{
        f"{name}-seed{seed}": lambda variety=variety, seed=seed: random_sheaf(
            random.Random(seed), variety, 2, -3, 0)
        for name, variety in [("H1", hirzebruch(1)), ("H2", hirzebruch(2)),
                              ("V1(1,2)", split_bundle(1, (1, 2))), ("V2(1)", split_bundle(2, (1,)))]
        for seed in range(3)
    },
}


@pytest.mark.parametrize("name", OFF_OMEGA_SHEAVES)
def test_chi_is_the_hilbert_polynomial_off_the_corner_region(name):
    """chi(E(c)) is the Hilbert polynomial at every twist of a window
    reaching six steps below the corner (P0, Q0) in each coordinate and two
    above, mostly outside the region where the two were fitted and checked."""
    sheaf = OFF_OMEGA_SHEAVES[name]()
    engine = SheafCohomology(sheaf)
    poly = hilbert_polynomial(sheaf)
    p0, q0 = regularity_thresholds(sheaf)
    for c in product(range(p0 - 6, p0 + 3), range(q0 - 6, q0 + 3)):
        assert engine.chi_twisted(c) == poly.evaluate(c), c

def test_hilbert_polynomial_sharpness(rank3_sheaf):
    """Just outside the corner the function and the polynomial split apart."""
    poly = hilbert_polynomial(rank3_sheaf)
    assert poly.evaluate((4, 0)) != hilbert_function(rank3_sheaf, (4, 0))
    assert poly.evaluate((5, -2)) != hilbert_function(rank3_sheaf, (5, -2))


def test_fourfold_bundle_paths_and_closed_form():
    from toricsheaf import split_bundle

    v = split_bundle(2, (1, 2))
    bundle = line_bundle(v, (2, 0, 0, 1, 0, 0))
    poly = hilbert_polynomial(bundle)
    assert rank1_hilbert_polynomial(bundle) == poly
    assert poly.evaluate((0, 0)) == 31 == hilbert_function(bundle, (0, 0))
    rng = random.Random(61)
    sheaf = random_sheaf(rng, v, 2, -3, 0)
    eng = SheafCohomology(sheaf)
    for c in ((0, 0), (2, 1)):
        assert hilbert_function(sheaf, c) == eng.h0_twisted(c)


def test_normalization_shifts_the_hilbert_function():
    """The normalized sheaf carries the original graded dimensions at c + delta."""
    rng = random.Random(53)
    sheaf = random_sheaf(rng, hirzebruch(2), 2)
    delta, normalized = delta_normalization(sheaf)
    for c in ((0, 0), (2, 1), (-1, 3), (4, -2)):
        shifted = (c[0] + delta[0], c[1] + delta[1])
        assert hilbert_function(normalized, c) == hilbert_function(sheaf, shifted)


def test_twist_composes_with_hilbert_function():
    rng = random.Random(59)
    sheaf = random_sheaf(rng, hirzebruch(1), 3)
    from toricsheaf import twist

    for c1 in ((1, 0), (0, -2), (3, 2)):
        for c2 in ((0, 0), (-1, 1), (2, 2)):
            total = (c1[0] + c2[0], c1[1] + c2[1])
            assert hilbert_function(twist(sheaf, c1), c2) == hilbert_function(sheaf, total)


def test_rank1_closed_form_matches_interpolation():
    rng = random.Random(37)
    for a in ((1,), (3,), (0,)):
        v = hirzebruch(a[0])
        for _ in range(3):
            sheaf = random_sheaf(rng, v, 1)
            assert rank1_hilbert_polynomial(sheaf) == hilbert_polynomial(sheaf)



@pytest.mark.parametrize("which", [0, 1, 2])
def test_hilbert_polynomial_checks_the_euler_characteristic(rank3_sheaf, monkeypatch, which):
    """The fit is checked against chi at three points past the corner:
    chi off by one at one of them is caught and named."""
    p0, q0 = regularity_thresholds(rank3_sheaf)
    wrong = [(p0, q0), (p0 + 1, q0 + 2), (p0 + 2, q0 + 1)][which]
    euler = cohomology.euler_characteristic

    def off_by_one(sheaf, c):
        return euler(sheaf, c) + (tuple(c) == wrong)

    monkeypatch.setattr(cohomology, "euler_characteristic", off_by_one)
    message = f"interpolated polynomial disagrees with the Euler characteristic at {wrong}"
    with pytest.raises(InternalConsistencyError, match=re.escape(message)):
        hilbert_polynomial(rank3_sheaf)

_NESTED = KlyachkoFiltration((-1, 0), (span([(1, 0)], 2), Subspace.full(2)))
# H_1 whose rho0 jumps (0, -1) are not sorted
UNSORTED_H1 = EquivariantReflexiveSheaf(hirzebruch(1), (
    KlyachkoFiltration((0, -1), _NESTED.spaces), _NESTED, _NESTED, _NESTED,
))
# a rank-1 sheaf has one jump per ray, so its fault is rho0's zero space
ZERO_SPACE_H1 = EquivariantReflexiveSheaf(hirzebruch(1), (
    KlyachkoFiltration((0,), (Subspace.zero(1),)),
    *[KlyachkoFiltration((0,), (Subspace.full(1),))] * 3,
))


READERS = [
    (regularity_thresholds, UNSORTED_H1, ()),
    (enumeration_box, UNSORTED_H1, ()),
    (regularity_region, UNSORTED_H1, ()),
    (lower_support_region, UNSORTED_H1, ()),
    (upper_support_regions, UNSORTED_H1, ()),
    (in_support_lower_bound, UNSORTED_H1, (0, 0)),
    (in_support_upper_bound, UNSORTED_H1, (0, 0)),
    (delta_normalization, UNSORTED_H1, ()),
    (omega_system, UNSORTED_H1, ((1, 1, 1, 1), (0, 0))),
    (psi_n, UNSORTED_H1, ((1, 1), 0)),
    (psi_m_sliced, UNSORTED_H1, ((1, 1), 0, (0,))),
    (assemble_slices, UNSORTED_H1, ((1, 1, 1, 1), 0, 0)),
    (rank1_hilbert_polynomial, ZERO_SPACE_H1, ()),
    (mobius_weights, UNSORTED_H1, ()),
]


@pytest.mark.parametrize("reader, sheaf, args", READERS, ids=[r.__name__ for r, *_ in READERS])
def test_readers_of_the_jump_order_refuse_an_invalid_sheaf(reader, sheaf, args):
    """Every reader of a sheaf's jump order, or of its spaces as a full
    nested chain, refuses a sheaf that ``validate`` faults, as the engine
    does; on the unsorted sheaf they once gave thresholds (-1, -1), a
    system, and an assembled count of 0."""
    problems = validate(sheaf)
    assert problems
    with pytest.raises(ValueError, match=re.escape("; ".join(problems))):
        reader(sheaf, *args)
