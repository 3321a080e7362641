"""The cone complex of SheafCohomology.cech against independent checks.

Two checks that do not share the engine's complex: the Cech complex of the
maximal-cone cover (``cech_oracle``) on seeded random sheaves, and Serre
duality h^i(O(D)) = h^{n-i}(O(K - D)), K = -sum D_rho, on line bundles.
One more check pins the quotient by the closed star of a full-fibre ray,
which both cech and chi use, against the complex of every cone
(``full_complex_cech`` and ``full_complex_chi``).
"""
import random
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from toricsheaf import (
    SheafCohomology,
    hirzebruch,
    line_bundle,
    projective_space,
    split_bundle,
)

from cech_oracle import assert_full_complex, maximal_cone_cech_twisted
from conftest import random_sheaf, tangent_sheaf_h3

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


# (name, variety, highest sheaf rank) for the quotient-complex property
FULL_COMPLEX_CASES = [
    ("P2", projective_space(2), 3),
    ("H0", hirzebruch(0), 3),
    ("H1", hirzebruch(1), 3),
    ("H2", hirzebruch(2), 3),
    ("H3", hirzebruch(3), 3),
    ("P3", projective_space(3), 3),
    ("V1(1,2)", split_bundle(1, (1, 2)), 3),
    ("V2(1)", split_bundle(2, (1,)), 3),
    ("V2(1,2)", split_bundle(2, (1, 2)), 2),
]


@pytest.mark.parametrize(
    "variety, top_rank",
    [case[1:] for case in FULL_COMPLEX_CASES],
    ids=[case[0] for case in FULL_COMPLEX_CASES],
)
@settings(max_examples=3, deadline=None)
@given(st.data())
def test_quotient_complex_matches_full_complex(variety, top_rank, data):
    """At every level tuple, reachable or not, cech and chi (the cones
    outside the closed star of a full-fibre ray) equal those of the complex
    of every cone."""
    rank = data.draw(st.integers(1, top_rank), label="rank")
    seed = data.draw(st.integers(0, 2**32), label="seed")
    engine = SheafCohomology(random_sheaf(random.Random(seed), variety, rank, -2, 1))
    full_rays = set()
    for lv in product(*(range(len(f.jumps) + 1) for f in engine.sheaf.filtrations)):
        assert_full_complex(engine, lv)
        full_rays.add(sum(engine.piece((k,), lv).dim == rank for k in range(len(lv))))
    # level 0 is the zero space and the top level the whole fibre
    assert {0, variety.ray_count} <= full_rays


def test_quotient_chain_picks_the_full_fibre_ray_leaving_fewest_cones():
    # the tangent sheaf of H_3 has rank 2 and a line at level 1 on every ray
    engine = SheafCohomology(tangent_sheaf_h3())
    for lv in product(range(2), repeat=4):
        assert engine._quotient_chain(lv) is engine._chain_cones
    outside = engine.variety._fan.outside_stars
    assert engine._quotient_chain((1, 2, 0, 1)) is outside[1]
    # every ray of H_a leaves 3 of the 9 cones: the first full-fibre ray wins
    assert engine._quotient_chain((1, 2, 2, 1)) is outside[1]
    # on V_1(1,2) a rho ray leaves 7 of 21 cones and an eta ray 3
    v = split_bundle(1, (1, 2))
    engine = SheafCohomology(random_sheaf(random.Random(0), v, 2, -2, 0))
    outside = v._fan.outside_stars
    assert [sum(map(len, chain)) for chain in outside] == [7, 7, 3, 3, 3]
    assert engine._quotient_chain((2, 2, 2, 2, 2)) is outside[2]
    assert engine._quotient_chain((2, 0, 0, 0, 2)) is outside[4]
