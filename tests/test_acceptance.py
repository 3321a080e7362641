"""Acceptance suite: one test per criterion, each printing a pass line.

The sample shared by criteria 3-6 is the bundled rank-3 sheaf plus 20
seeded random sheaves of rank <= 3 on Hirzebruch surfaces H_a, a <= 3, with
jumps in [-6, 0].  Criterion tolerances are exact equality throughout.
"""
import random
import subprocess
import sys
import time
from itertools import product
from pathlib import Path

import pytest

from toricsheaf import (
    MonomialIdeal,
    SheafCohomology,
    assemble_slices,
    feasible_metasystem,
    feasible_system1,
    faulhaber_sum,
    hilbert_function,
    hilbert_polynomial,
    hirzebruch,
    in_support_lower_bound,
    in_support_upper_bound,
    omega_system,
    projective_space,
    psi_points,
    regularity_thresholds,
    sigma_piece_dim,
    simplex_sum,
    split_bundle,
)
from toricsheaf.hilbert import RationalPolynomial, _psi_count
from toricsheaf.toric import Cone

from conftest import h0_supported, random_sheaf, rank3_example_sheaf
from test_polytopes import brute_force_metasystem, brute_force_system1

CONFIG = Path(__file__).resolve().parent.parent / "configs" / "rank3_h3.json"

# H^1 values of the bundled rank-3 sheaf, rows q = 4..-4, columns p = 2..10
REFERENCE_H1_MATRIX = [
    [3, 2, 1, 0, 0, 0, 0, 0, 0],
    [3, 2, 1, 0, 0, 0, 0, 0, 0],
    [3, 2, 1, 0, 0, 0, 0, 0, 0],
    [3, 2, 1, 0, 0, 0, 0, 0, 0],
    [3, 2, 1, 0, 0, 0, 0, 0, 0],
    [3, 2, 1, 0, 0, 0, 0, 0, 0],
    [11, 10, 9, 8, 8, 8, 8, 8, 8],
    [24, 24, 24, 24, 24, 24, 24, 24, 24],
    [31, 33, 35, 37, 39, 41, 43, 45, 47],
]


@pytest.fixture(scope="module")
def sample_sheaves():
    rng = random.Random(20260810)
    sheaves = [rank3_example_sheaf()]
    for _ in range(20):
        variety = hirzebruch(rng.randint(0, 3))
        sheaves.append(random_sheaf(rng, variety, rng.randint(1, 3), -6, 0))
    return sheaves


@pytest.fixture(scope="module")
def sample_windows(sample_sheaves):
    """Per sheaf: the 6x6 window just past the interpolation grid, with the
    Hilbert-function values from the Mobius weights."""
    windows = []
    for sheaf in sample_sheaves:
        p0, q0 = regularity_thresholds(sheaf)
        points = [(p0 + i, q0 + j) for i in range(3, 9) for j in range(3, 9)]
        values = {c: hilbert_function(sheaf, c) for c in points}
        windows.append((sheaf, points, values))
    return windows


def test_criterion_01_final_example_h1_matrix():
    start = time.time()
    result = subprocess.run(
        [sys.executable, "-m", "toricsheaf.cli", "cohomology-table", "--i", "1",
         "--config", str(CONFIG), "--p=2:10", "--q=-4:4"],
        capture_output=True, text=True,
    )
    elapsed = time.time() - start
    assert result.returncode == 0, result.stderr
    lines = result.stdout.strip().splitlines()
    assert lines[0] == "q\\p," + ",".join(str(p) for p in range(2, 11))
    matrix = []
    for line, q in zip(lines[1:], range(4, -5, -1)):
        cells = line.split(",")
        assert int(cells[0]) == q
        matrix.append([int(x) for x in cells[1:]])
    assert matrix == REFERENCE_H1_MATRIX
    # orientation pinned by the zero block sitting on p >= 5, q >= -1
    for qi, q in enumerate(range(4, -5, -1)):
        for pi, p in enumerate(range(2, 11)):
            if p >= 5 and q >= -1:
                assert matrix[qi][pi] == 0
    assert matrix[0][0] == 3 and matrix[8][8] == 47
    assert elapsed < 60
    print(f"criterion 1 pass: 9x9 h1 table reproduced in {elapsed:.1f}s")


def test_criterion_02_regularity_region_report():
    result = subprocess.run(
        [sys.executable, "-m", "toricsheaf.cli", "bounds", "--config", str(CONFIG)],
        capture_output=True, text=True,
    )
    assert result.returncode == 0, result.stderr
    assert "omega: p >= 5 and q >= -1" in result.stdout
    print("criterion 2 pass: bounds reports omega = {p >= 5, q >= -1}")


def test_criterion_03_hilbert_polynomial_agreement(sample_windows):
    for sheaf, points, values in sample_windows:
        poly = hilbert_polynomial(sheaf)
        for c in points:
            assert poly.evaluate(c) == values[c], (sheaf.variety.split_a, c)
    print(f"criterion 3 pass: polynomial matches on 6x6 windows for "
          f"{len(sample_windows)} sheaves")


def test_criterion_04_path_equivalence(sample_windows):
    checked = 0
    for sheaf, points, values in sample_windows:
        engine = SheafCohomology(sheaf)
        for c in points:
            assert values[c] == _psi_count(sheaf, c) == engine.h0_twisted(c)
            checked += 1
    h3 = hirzebruch(3)
    from toricsheaf import line_bundle

    for p in range(-5, 6):
        for q in range(-5, 6):
            bundle = line_bundle(h3, (p, 0, q, 0))
            value = hilbert_function(bundle, (0, 0))
            assert value == _psi_count(bundle, (0, 0)) == SheafCohomology(bundle).h0_twisted((0, 0))
            checked += 1
    print(f"criterion 4 pass: Hilbert function, polytope count and section count agree "
          f"on {checked} pairs")


def test_criterion_05_cech_consistency(sample_windows):
    checked = 0
    for sheaf, points, _ in sample_windows:
        engine = SheafCohomology(sheaf)
        for c in points:
            cech = engine.cech_twisted(c)
            assert cech[0] == engine.h0_twisted(c)
            assert cech[2] == engine.hn_twisted(c)
            alternating = sum((-1) ** i * h for i, h in enumerate(cech))
            assert alternating == engine.chi_twisted(c)
            checked += 1
    print(f"criterion 5 pass: Cech/h0/hn/chi agree on {checked} pairs")


def test_criterion_06_support_sandwich(sample_windows):
    for sheaf, _, _ in sample_windows:
        engine = SheafCohomology(sheaf)
        for p in range(-12, 13):
            for q in range(-12, 13):
                h = h0_supported(engine, (p, q))
                if h > 0:
                    assert in_support_lower_bound(sheaf, p, q), (p, q)
                if in_support_upper_bound(sheaf, p, q):
                    assert h > 0, (p, q)
        # pin the fast section count against the boxed one along a diagonal
        for t in range(-12, 13, 6):
            assert h0_supported(engine, (t, t)) == engine.h0_twisted((t, t))
    print(f"criterion 6 pass: support sandwich holds on 25x25 windows for "
          f"{len(sample_windows)} sheaves")


def test_criterion_07_feasibility_lemmas_exhaustive():
    cases = 0
    weight_lists = [(a,) for a in range(4)]
    weight_lists += [(a1, a2) for a1 in range(4) for a2 in range(a1, 4)]
    for a in weight_lists:
        for A in range(-4, 5):
            for B in range(-4, 5):
                expected = brute_force_system1(list(a), A, B)
                got, witness = feasible_system1(a, A, B)
                assert got == expected, (a, A, B)
                if got:
                    assert sum(witness) <= B
                    assert sum(av * xv for av, xv in zip(a, witness)) >= A
                cases += 1
    for a1 in range(4):
        a = (a1,)
        for lambdas in product(range(-4, 5), repeat=2):
            for mus in product(range(-4, 5), repeat=2):
                expected = brute_force_metasystem(a, list(lambdas), list(mus))
                assert feasible_metasystem(a, lambdas, mus) == expected, (a, lambdas, mus)
                cases += 1
    print(f"criterion 7 pass: feasibility lemmas match brute force on {cases} cases")


def test_criterion_08_faulhaber_and_simplex():
    for t in range(9):
        poly = faulhaber_sum(t)
        for q in range(101):
            assert poly.evaluate((q,)) == sum(k ** t for k in range(q + 1))
    rng = random.Random(88)
    checked = 0
    for _ in range(10):
        k = rng.randint(1, 3)
        nvars = k + 1
        coeffs = {}
        for _ in range(5):
            exps = tuple(rng.randint(0, 3) for _ in range(nvars))
            if sum(exps) <= 3:
                coeffs[exps] = coeffs.get(exps, 0) + rng.randint(-4, 4)
        poly = RationalPolynomial(nvars, coeffs)
        closed = simplex_sum(poly, k)
        for q in range(13):
            brute = sum(
                poly.evaluate((q,) + es)
                for es in product(range(q + 1), repeat=k)
                if sum(es) <= q
            )
            assert closed.evaluate((q,)) == brute
            checked += 1
    print(f"criterion 8 pass: power sums exact (t<=8, q<=100); simplex sums exact "
          f"on {checked} evaluations")


def test_criterion_09_monomial_oracle():
    ideal = MonomialIdeal(2, ((0, 0, 2), (1, 0, 1), (1, 1, 0)))
    p2 = projective_space(2)
    rho0 = Cone((0,), 1)
    sigma0 = Cone((1, 2), 0)
    sigma2 = Cone((0, 1), 0)
    for d1 in range(-10, 11):
        for d2 in range(-10, 11):
            m = (d1, d2)
            assert sigma_piece_dim(ideal, rho0, m) == (1 if -d1 - d2 >= 0 else 0)
            expected0 = 1 if (d1 == 0 and d2 >= 1) or (d1 >= 1 and d2 >= 0) else 0
            assert sigma_piece_dim(ideal, sigma0, m) == expected0
            expected2 = 1 if (-d1 - d2 >= 0 and d1 >= 0) else 0
            assert sigma_piece_dim(ideal, sigma2, m) == expected2
    print("criterion 9 pass: all three cone-piece conditions hold on [-10,10]^2")


def test_criterion_10_slicing_identity():
    rng = random.Random(1031)
    varieties = [hirzebruch(rng.randint(0, 3)) for _ in range(4)]
    varieties.append(split_bundle(2, (1, 2)))
    cases = 0
    while cases < 200:
        variety = varieties[cases % len(varieties)]
        sheaf = random_sheaf(rng, variety, rng.randint(1, 3), -6, 0)
        idx = tuple(rng.randint(1, sheaf.rank) for _ in range(variety.ray_count))
        p, q = rng.randint(-8, 8), rng.randint(-8, 8)
        direct = len(psi_points(omega_system(sheaf, idx, (p, q))))
        assert assemble_slices(sheaf, idx, p, q) == direct, (idx, p, q)
        cases += 1
    print(f"criterion 10 pass: slicing identity on {cases} random triples")
