"""Theorem checks on the sheaves of p-forms: Bott's formula on P^n,
Danilov's formula for h^q(Omega^p) on every fan, Bott-Steenbrink-Danilov
vanishing and Serre duality on twists, and the quotient complex of the
engine against the complex of every cone."""
from __future__ import annotations

from collections import Counter
from itertools import product
from math import comb

import pytest

from toricsheaf import (
    SheafCohomology,
    hirzebruch,
    line_bundle,
    projective_space,
    split_bundle,
    structure_sheaf,
    validate,
)

from cech_oracle import full_complex_cech, full_complex_chi
from conftest import forms_sheaf


def bott(n: int, p: int, q: int, k: int) -> int:
    """h^q(P^n, Omega^p(k)) by Bott's formula; h^n by Serre duality from
    h^0(Omega^(n-p)(-k)), as K = Omega^n."""
    if q == n:
        return bott(n, n - p, 0, -k)
    if q > 0:
        return int(p == q and k == 0)
    if p == 0:
        return comb(n + k, n) if k >= 0 else 0
    return comb(k + n - p, k) * comb(k - 1, p) if k > p else 0


@pytest.mark.parametrize("n", [2, 3])
def test_forms_sheaf_is_valid_and_ends_in_o_and_k(n):
    variety = projective_space(n)
    for p in range(n + 1):
        assert validate(forms_sheaf(variety, p)) == []
    assert forms_sheaf(variety, 0) == structure_sheaf(variety)
    assert forms_sheaf(variety, n) == line_bundle(variety, [-1] * (n + 1))


@pytest.mark.parametrize("n, p", [(n, p) for n in (2, 3, 4) for p in range(n + 1)])
def test_bott_formula_on_projective_space(n, p):
    """Every h^q(P^n, Omega^p(k)) for k in [-n-3, 3], by the Cech complex
    and by the support walks of h^0 and h^n."""
    engine = SheafCohomology(forms_sheaf(projective_space(n), p))
    for k in range(-n - 3, 4):
        expected = tuple(bott(n, p, q, k) for q in range(n + 1))
        assert engine.cech_twisted((k,)) == expected
        assert (engine.h0_twisted((k,)), engine.hn_twisted((k,))) == (expected[0], expected[-1])


def betti(variety, p: int) -> int:
    """b_2p = sum over i >= p of (-1)^(i-p) C(i, p) d_(n-i), where d_j counts
    the j-dimensional cones of the fan."""
    n = variety.dim
    d = Counter(len(cone.ray_indices) for cone in variety.cones())
    return sum((-1) ** (i - p) * comb(i, p) * d[n - i] for i in range(p, n + 1))


FANS = {
    **{f"P^{n}": projective_space(n) for n in range(1, 5)},
    **{f"H_{a}": hirzebruch(a) for a in range(4)},
    "V_1(1,2)": split_bundle(1, (1, 2)),
    "V_2(1)": split_bundle(2, (1,)),
    "V_1(0,1)": split_bundle(1, (0, 1)),
}


@pytest.mark.parametrize("fan", FANS)
def test_danilov_formula(fan):
    """h^q(X, Omega^p) is b_2p when q = p and 0 otherwise, by the Cech
    complex at the zero class."""
    variety = FANS[fan]
    n = variety.dim
    zero = (0,) * variety.class_rank
    for p in range(n + 1):
        b = betti(variety, p)
        expected = tuple(b if q == p else 0 for q in range(n + 1))
        assert SheafCohomology(forms_sheaf(variety, p)).cech_twisted(zero) == expected


# (fan, twist window per class coordinate) for the checks on twists
TWIST_WINDOWS = {
    "H_0": range(-2, 4), "H_1": range(-2, 4), "H_3": range(-2, 4),
    "V_1(1,2)": range(-1, 3), "V_2(1)": range(-1, 3),
}


def forms_table(variety, twists):
    """h^*(Omega^p(c)) by the Cech complex, keyed by (p, c)."""
    engines = [SheafCohomology(forms_sheaf(variety, p)) for p in range(variety.dim + 1)]
    return {(p, c): engine.cech_twisted(c) for p, engine in enumerate(engines) for c in twists}


@pytest.mark.parametrize("fan", TWIST_WINDOWS)
def test_bott_steenbrink_danilov_vanishing_pins_the_ample_cone(fan):
    """h^q(Omega^p(c)) = 0 for q >= 1 and c ample.  Off the ample cone
    c_1 >= 1, c_2 >= 1 some such number is nonzero, so the window also
    pins the cone."""
    variety = FANS[fan]
    window = list(product(TWIST_WINDOWS[fan], repeat=2))
    table = forms_table(variety, window)
    for c in window:
        higher = any(any(table[p, c][1:]) for p in range(variety.dim + 1))
        assert higher == (not (c[0] >= 1 and c[1] >= 1)), c


@pytest.mark.parametrize("fan", TWIST_WINDOWS)
def test_serre_duality_on_twisted_forms(fan):
    """h^q(Omega^p(c)) = h^(n-q)(Omega^(n-p)(-c)), as K = Omega^n."""
    variety = FANS[fan]
    n = variety.dim
    window = list(product(TWIST_WINDOWS[fan], repeat=2))
    table = forms_table(variety, window + [(-a, -b) for a, b in window])
    for p, c in product(range(n + 1), window):
        assert table[p, c] == tuple(reversed(table[n - p, (-c[0], -c[1])])), (p, c)


# P^4 is left out: its 243 level tuples of Omega^2 alone take a quarter second
@pytest.mark.parametrize("fan", [fan for fan in FANS if fan != "P^4"])
def test_quotient_complex_matches_full_complex_on_forms(fan):
    """At every level tuple of Omega^p whose spaces differ, cech and chi
    (the cones outside the closed star of a full-fibre ray) equal those
    of the complex of every cone."""
    variety = FANS[fan]
    for p in range(variety.dim + 1):
        engine = SheafCohomology(forms_sheaf(variety, p))
        # level 0, and each level whose next jump is higher
        levels = [
            [0] + [j for j in range(1, len(js) + 1) if j == len(js) or js[j - 1] < js[j]]
            for js in engine.sheaf.jumps
        ]
        for lv in product(*levels):
            assert engine.cech(lv) == full_complex_cech(engine, lv), (p, lv)
            assert engine.chi(lv) == full_complex_chi(engine, lv), (p, lv)
