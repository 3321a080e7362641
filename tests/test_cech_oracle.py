"""The cone complex of SheafCohomology.cech against independent checks.

Two checks that do not share the engine's complex: the Cech complex of the
maximal-cone cover (``cech_oracle``) on seeded random sheaves, and Serre
duality h^i(O(D)) = h^{n-i}(O(K - D)), K = -sum D_rho, on line bundles.
"""
import random

import pytest

from toricsheaf import (
    SheafCohomology,
    hirzebruch,
    line_bundle,
    projective_space,
    split_bundle,
)

from cech_oracle import maximal_cone_cech_twisted
from conftest import random_sheaf

# (name, variety, [(sheaf rank, lowest jump, twists drawn)]); the rank-3 cases
# on V_1(1,2) and V_2(1) get one twist and jumps in [-1, 0] only, because
# the oracle's 63-subset complex costs about 70 ms per level tuple there
ORACLE_CASES = [
    ("P2", projective_space(2), [(1, -4, 3), (2, -4, 6), (3, -4, 6)]),
    ("H0", hirzebruch(0), [(1, -4, 3), (2, -4, 3), (3, -4, 3)]),
    ("H1", hirzebruch(1), [(1, -4, 3), (2, -4, 3), (3, -4, 3)]),
    ("H2", hirzebruch(2), [(1, -4, 3), (2, -4, 3), (3, -4, 3)]),
    ("P3", projective_space(3), [(1, -2, 3), (2, -2, 6), (3, -2, 6)]),
    ("V1(1,2)", split_bundle(1, (1, 2)), [(1, -3, 2), (2, -2, 2), (3, -1, 1)]),
    ("V2(1)", split_bundle(2, (1,)), [(1, -3, 2), (2, -2, 2), (3, -1, 1)]),
]


@pytest.mark.parametrize(
    "variety, cases", [case[1:] for case in ORACLE_CASES], ids=[case[0] for case in ORACLE_CASES]
)
def test_cone_complex_matches_maximal_cone_cover(variety, cases):
    rng = random.Random(f"oracle-{variety.ray_names}-{variety.split_a}")
    middle = 0
    for rank, jump_lo, n_twists in cases:
        sheaf = random_sheaf(rng, variety, rank, jump_lo, 0)
        engine = SheafCohomology(sheaf)
        for _ in range(n_twists):
            c = tuple(rng.randint(-5, 1) for _ in range(variety.class_rank))
            per_levels: dict = {}
            expected = maximal_cone_cech_twisted(engine, c, per_levels)
            assert engine.cech_twisted(c) == expected, (rank, c)
            for levels, h in per_levels.items():
                assert engine.cech(levels) == h, (rank, c, levels)
            middle += any(expected[1:-1])
    assert middle > 0, "no pair with nonzero middle cohomology was drawn"


SERRE_VARIETIES = [
    ("P3", projective_space(3)),
    ("V1(1,2)", split_bundle(1, (1, 2))),
    ("V2(1)", split_bundle(2, (1,))),
    ("H3", hirzebruch(3)),
]


@pytest.mark.parametrize(
    "variety", [v for _, v in SERRE_VARIETIES], ids=[name for name, _ in SERRE_VARIETIES]
)
def test_serre_duality_on_line_bundles(variety):
    rng = random.Random(f"serre-{variety.ray_names}-{variety.split_a}")
    zero = (0,) * variety.class_rank
    middle = 0
    for _ in range(12):
        d = [rng.randint(-4, 3) for _ in range(variety.ray_count)]
        h = SheafCohomology(line_bundle(variety, d)).cech_twisted(zero)
        dual = SheafCohomology(line_bundle(variety, [-a - 1 for a in d])).cech_twisted(zero)
        assert h == tuple(reversed(dual)), d
        middle += any(h[1:-1])
    # line bundles on P^n have no middle cohomology
    if variety.family != "projective":
        assert middle > 0, "no divisor with nonzero middle cohomology was drawn"
