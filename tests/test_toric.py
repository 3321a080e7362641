"""Unit tests for the fan and class-group data."""
from itertools import product

import pytest

from toricsheaf import Cone, build_variety, hirzebruch, projective_space, split_bundle
from toricsheaf.errors import ConfigError


def test_hirzebruch_3_rays_and_degrees():
    h3 = hirzebruch(3)
    assert h3.rays == ((-1, 3), (1, 0), (0, -1), (0, 1))
    assert h3.degrees == ((1, 0), (1, 0), (0, 1), (-3, 1))
    assert h3.ray_names == ("rho0", "rho1", "eta0", "eta1")


def test_hirzebruch_is_split_bundle():
    assert hirzebruch(3) == split_bundle(1, (3,))


def test_projective_space_degrees():
    p2 = projective_space(2)
    assert p2.ray_count == 3
    assert p2.class_rank == 1
    assert all(d == (1,) for d in p2.degrees)


def test_split_bundle_counts():
    v = split_bundle(2, (0, 0))
    assert v.ray_count == 6
    assert v.class_rank == 2
    assert v.dim == 4


def test_invalid_weights():
    with pytest.raises(ValueError):
        split_bundle(1, (2, 1))
    with pytest.raises(ValueError):
        split_bundle(1, (-1,))


def test_pairing_hirzebruch():
    h3 = hirzebruch(3)
    for d1 in range(-3, 4):
        for d2 in range(-3, 4):
            assert h3.character_embedding((d1, d2)) == (-d1 + 3 * d2, d1, -d2, d2)


def test_pairing_projective():
    p2 = projective_space(2)
    for d1 in range(-3, 4):
        for d2 in range(-3, 4):
            assert p2.character_embedding((d1, d2)) == (-d1 - d2, d1, d2)


def test_pairing_zero_character():
    for v in (projective_space(3), hirzebruch(2), split_bundle(2, (1, 2))):
        assert v.character_embedding((0,) * v.dim) == (0,) * v.ray_count


def test_pairing_linear():
    v = split_bundle(2, (1, 2))
    m1, m2 = (1, -2, 0, 3), (0, 1, -1, 2)
    e1 = v.character_embedding(m1)
    e2 = v.character_embedding(m2)
    combined = v.character_embedding(tuple(a + 2 * b for a, b in zip(m1, m2)))
    assert combined == tuple(a + 2 * b for a, b in zip(e1, e2))


def test_exactness_of_degree_map():
    """sum over rays of <m, n(ray)> * [D_ray] vanishes in the class group,
    and divisor_class agrees: principal divisors have class 0, and the fixed
    representative of a class has that class."""
    for v in (projective_space(2), hirzebruch(3), split_bundle(2, (1, 2))):
        for m in ((1,) + (0,) * (v.dim - 1), (0,) * (v.dim - 1) + (1,), (1,) * v.dim):
            total = [0] * v.class_rank
            for k in range(v.ray_count):
                pairing = v.pairing(m, k)
                for i, d in enumerate(v.degrees[k]):
                    total[i] += pairing * d
            assert total == [0] * v.class_rank
            assert v.divisor_class(v.character_embedding(m)) == (0,) * v.class_rank
    for v in (projective_space(1), projective_space(3), hirzebruch(0), hirzebruch(3),
              split_bundle(1, (1, 2)), split_bundle(2, (1,)), split_bundle(2, (0, 1))):
        for c in product(range(-2, 3), repeat=v.class_rank):
            assert v.divisor_class(v.twist_divisor(c)) == c


def test_divisor_class_reads_the_ray_degrees():
    v = split_bundle(1, (1, 2))
    assert v.divisor_class((1, 0, 0, 0, 0)) == (1, 0)
    assert v.divisor_class((0, 0, 0, 0, 1)) == (-2, 1)
    assert v.divisor_class((3, -1, 2, 5, -4)) == (3 - 1 - 5 + 8, 2 + 5 - 4)


def test_cone_counts():
    assert len(hirzebruch(2).cones()) == 9
    assert len(projective_space(2).cones()) == 7
    s, r = 2, 2
    assert len(split_bundle(s, (1, 2)).cones()) == (2 ** (s + 1) - 1) * (2 ** (r + 1) - 1)


def test_cones_by_exhaustive_faces():
    """Every cone is a face of a maximal cone, with no duplicates."""
    for v in (projective_space(2), hirzebruch(1), split_bundle(2, (0, 1))):
        cones = v.cones()
        seen = {c.ray_indices for c in cones}
        assert len(seen) == len(cones)
        maximal = [set(c.ray_indices) for c in v.maximal_cones()]
        for c in cones:
            assert any(set(c.ray_indices) <= m for m in maximal)
        # faces of maximal cones are closed under subsets
        from itertools import combinations

        for m in maximal:
            for size in range(len(m) + 1):
                for sub in combinations(sorted(m), size):
                    assert sub in seen


def test_maximal_cones_smooth():
    for v in (projective_space(3), hirzebruch(2), split_bundle(2, (1, 2))):
        for c in v.maximal_cones():
            assert c.codim == 0
            assert len(c.ray_indices) == v.dim


def test_twist_divisor():
    h = hirzebruch(1)
    assert h.twist_divisor((5, -2)) == (5, 0, -2, 0)
    assert h.twist_divisor((0, 0)) == (0, 0, 0, 0)
    p2 = projective_space(2)
    assert p2.twist_divisor((2,)) == (2, 0, 0)


def test_build_variety_descriptors():
    assert build_variety({"family": "projective", "n": 2}) == projective_space(2)
    assert build_variety({"family": "hirzebruch", "a": 3}) == hirzebruch(3)
    assert build_variety({"family": "split_bundle", "s": 1, "a": [3]}) == hirzebruch(3)
    with pytest.raises(ConfigError):
        build_variety({"family": "weighted"})
    with pytest.raises(ConfigError):
        build_variety({"family": "split_bundle", "s": 1, "a": [3, 1]})


def test_ray_index_lookup():
    v = hirzebruch(3)
    assert v.ray_index("eta0") == 2
    with pytest.raises(ValueError):
        v.ray_index("sigma")


def test_cone_rejects_repeated_rays():
    assert Cone((2, 0), 1).ray_indices == (0, 2)
    with pytest.raises(ValueError, match="cone rays must be distinct"):
        Cone((0, 0), 1)


def test_cone_list_is_built_once_and_handed_out_as_a_copy():
    v = split_bundle(1, (1, 2))
    first = v.cones()
    assert v._fan is v._fan
    first.clear()
    assert len(v.cones()) == 21 and v.cones() is not v.cones()
    assert v.check_cone(Cone((0, 3), 1)) == Cone((0, 3), 1)
    with pytest.raises(ValueError, match="is not a cone of the fan"):
        v.check_cone(Cone((0, 3), 2))


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_one_cone_outside_each_closed_star_on_projective_space(n):
    """sigma + {rho} is a cone unless it holds every ray, so only the
    maximal cone of the other rays lies outside the star of rho."""
    v = projective_space(n)
    assert len(v._fan.outside_stars) == n + 1
    for rho, chain in enumerate(v._fan.outside_stars):
        others = tuple(k for k in range(n + 1) if k != rho)
        assert chain == ((others,),) + ((),) * n


def test_seven_of_49_cones_outside_each_closed_star_on_v2_12():
    """On V_2(1,2) sigma + {rho} is no cone exactly when sigma holds the
    other rays of rho's primitive collection; those cones, one per proper
    subset of the other collection, are 7 of the 49."""
    v = split_bundle(2, (1, 2))
    cones = v.cones()
    assert len(cones) == 49
    for rho, chain in enumerate(v._fan.outside_stars):
        block = set(range(3)) if rho < 3 else set(range(3, 6))
        expected = [c for c in cones if block - {rho} <= set(c.ray_indices)]
        assert len(expected) == 7
        for k, terms in enumerate(chain):
            assert list(terms) == [c.ray_indices for c in expected if c.codim == k]
