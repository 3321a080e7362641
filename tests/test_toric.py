"""Unit tests for the fan and class-group data."""
import re
from dataclasses import FrozenInstanceError, fields, replace
from itertools import product

import pytest

from toricsheaf import (
    Cone,
    EquivariantReflexiveSheaf,
    JobConfig,
    ToricVariety,
    build_variety,
    hirzebruch,
    projective_space,
    split_bundle,
    structure_sheaf,
)
from toricsheaf.errors import ConfigError

# (dim, class_rank, family, split_a, ray_count, is_split_bundle, degrees) per
# variety; the degrees are the classes [D_ray] that were given before they
# were derived from the rays
DERIVED = {
    "P1": (projective_space(1), (1, 1, "projective", None, 2, False, ((1,),) * 2)),
    "P2": (projective_space(2), (2, 1, "projective", None, 3, False, ((1,),) * 3)),
    "P3": (projective_space(3), (3, 1, "projective", None, 4, False, ((1,),) * 4)),
    "P4": (projective_space(4), (4, 1, "projective", None, 5, False, ((1,),) * 5)),
    **{
        f"H{a}": (hirzebruch(a), (2, 2, "split_bundle", (a,), 4, True,
                                  ((1, 0), (1, 0), (0, 1), (-a, 1))))
        for a in range(5)
    },
    "V1_12": (split_bundle(1, (1, 2)), (3, 2, "split_bundle", (1, 2), 5, True,
                                        ((1, 0), (1, 0), (0, 1), (-1, 1), (-2, 1)))),
    "V1_13": (split_bundle(1, (1, 3)), (3, 2, "split_bundle", (1, 3), 5, True,
                                        ((1, 0), (1, 0), (0, 1), (-1, 1), (-3, 1)))),
    "V2_1": (split_bundle(2, (1,)), (3, 2, "split_bundle", (1,), 5, True,
                                     ((1, 0), (1, 0), (1, 0), (0, 1), (-1, 1)))),
    "V2_01": (split_bundle(2, (0, 1)), (4, 2, "split_bundle", (0, 1), 6, True,
                                        ((1, 0), (1, 0), (1, 0), (0, 1), (0, 1), (-1, 1)))),
    "V2_12": (split_bundle(2, (1, 2)), (4, 2, "split_bundle", (1, 2), 6, True,
                                        ((1, 0), (1, 0), (1, 0), (0, 1), (-1, 1), (-2, 1)))),
    "V3_1": (split_bundle(3, (1,)), (4, 2, "split_bundle", (1,), 6, True,
                                     ((1, 0), (1, 0), (1, 0), (1, 0), (0, 1), (-1, 1)))),
    "V1_012": (split_bundle(1, (0, 1, 2)), (4, 2, "split_bundle", (0, 1, 2), 6, True,
                                            ((1, 0), (1, 0), (0, 1), (0, 1), (-1, 1), (-2, 1)))),
}


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


@pytest.mark.parametrize("name", DERIVED)
def test_exactness_of_degree_map(name):
    """sum over rays of <m, n(ray)> * [D_ray] vanishes in the class group,
    and divisor_class agrees: principal divisors have class 0, and the fixed
    representative of a class has that class."""
    v = DERIVED[name][0]
    units = [tuple(int(i == j) for i in range(v.dim)) for j in range(v.dim)]
    for m in units + [(1,) * v.dim, tuple(range(-1, v.dim - 1))]:
        total = [0] * v.class_rank
        for k in range(v.ray_count):
            pairing = v.pairing(m, k)
            for i, d in enumerate(v.degrees[k]):
                total[i] += pairing * d
        assert total == [0] * v.class_rank
        assert v.divisor_class(v.character_embedding(m)) == (0,) * v.class_rank
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


def test_a_variety_is_its_rays_names_and_split_s():
    """The dimension, class rank, ray classes, family and twist weights are
    no longer given, so no family string other than the two is taken, and
    no degrees that are not the class map of the rays; a sheaf's rank is
    read from its filtrations."""
    assert [f.name for f in fields(ToricVariety)] == ["rays", "ray_names", "split_s"]
    assert [f.name for f in fields(EquivariantReflexiveSheaf)] == ["variety", "filtrations"]
    assert [f.name for f in fields(JobConfig)] == ["sheaf"]
    sheaf = structure_sheaf(hirzebruch(3))
    assert JobConfig(sheaf).variety is sheaf.variety


@pytest.mark.parametrize("value, name", [
    (hirzebruch(3), "degrees"), (hirzebruch(3), "class_rank"),
    (structure_sheaf(hirzebruch(3)), "rank"),
])
def test_the_derived_values_are_read_only(value, name):
    with pytest.raises(FrozenInstanceError):
        setattr(value, name, getattr(value, name))


P2 = projective_space(2)


@pytest.mark.parametrize("call, error, message", [
    (lambda: ToricVariety(P2.rays, P2.ray_names, degrees=P2.degrees),
     TypeError, "unexpected keyword argument 'degrees'"),
    (lambda: ToricVariety(P2.rays, P2.ray_names, P2.degrees),
     ValueError, r"^split bundle s must be an integer, got \(\(1,\), \(1,\), \(1,\)\)$"),
    (lambda: EquivariantReflexiveSheaf(P2, structure_sheaf(P2).filtrations, rank=1),
     TypeError, "unexpected keyword argument 'rank'"),
    (lambda: EquivariantReflexiveSheaf(P2, 1, structure_sheaf(P2).filtrations),
     TypeError, "takes 3 positional arguments but 4 were given"),
], ids=["degrees keyword", "degrees position", "rank keyword", "rank position"])
def test_the_derived_values_are_no_arguments(call, error, message):
    """A caller of the old signatures is refused, not read another way."""
    with pytest.raises(error, match=message):
        call()


@pytest.mark.parametrize("name", DERIVED)
def test_derived_attributes_of_each_family(name):
    v, expected = DERIVED[name]
    got = (v.dim, v.class_rank, v.family, v.split_a, v.ray_count, v.is_split_bundle, v.degrees)
    assert got == expected


def test_a_name_missing_for_a_ray_is_refused():
    """Short names let ``validate`` skip the unnamed rays: a P^2 sheaf with
    unsorted jumps (1, 0) on its third ray passed, and h^0 at twist 2 read 3
    where the Hilbert function read 7."""
    with pytest.raises(ValueError, match=r"^ray names must have length 3$"):
        replace(projective_space(2), ray_names=("rho0", "rho1"))


@pytest.mark.parametrize("names", ["abc", (0, 1, 2), ("rho0", "rho1", None)])
def test_ray_names_that_are_not_strings_are_refused(names):
    """A string was split into its letters, and integers were taken as names."""
    with pytest.raises(ValueError, match=r"^ray names must be a sequence of strings, got "):
        replace(projective_space(2), ray_names=names)


@pytest.mark.parametrize("names", [("r", "r", "s"), ("rho0", "rho1", "rho0")])
def test_repeated_ray_names_are_refused(names):
    """``ray_index`` answered the first of two rays of one name, and
    ``validate``'s "ray r: ..." messages could not tell them apart."""
    with pytest.raises(ValueError, match=re.escape(f"ray names must be distinct, got {names!r}")):
        replace(projective_space(2), ray_names=names)


V12 = split_bundle(1, (1, 2))


# the rays of P^1 x P^1 and of P^2 less one ray, without split s
SQUARE = ((1, 0), (-1, 0), (0, 1), (0, -1))
TWO_RAYS = ((1, 0), (0, 1))


@pytest.mark.parametrize("call, message", [
    (lambda: ToricVariety((), ()), "a variety needs at least one ray"),
    (lambda: ToricVariety(SQUARE, ("a", "b", "c", "d")),
     "a variety without split s of dimension 2 needs 3 rays, got 4"),
    (lambda: ToricVariety(TWO_RAYS, ("a", "b")),
     "a variety without split s of dimension 2 needs 3 rays, got 2"),
    (lambda: replace(V12, rays=V12.rays[:-1], ray_names=V12.ray_names[:-1]),
     "a split bundle of dimension 3 needs 5 rays, got 4"),
    # a split bundle without its s failed in ``cones()`` with a TypeError
    (lambda: replace(hirzebruch(3), split_s=None),
     "a variety without split s of dimension 2 needs 3 rays, got 4"),
    (lambda: replace(projective_space(2), split_s=1),
     "a split bundle of dimension 2 needs 4 rays, got 3"),
    (lambda: replace(V12, rays=((-1, 2, 1),) + V12.rays[1:]),
     "twist weights must satisfy 0 <= a1 <= ... <= ar"),
    (lambda: replace(V12, split_s=0), "split bundle needs s >= 1"),
    (lambda: replace(V12, split_s=3), "need at least one twist weight"),
])
def test_a_variety_whose_parts_disagree_is_refused(call, message):
    """Without split s a variety has dim + 1 rays (with 4 rays in dimension
    2, the fan listed two opposite rays as a maximal cone; with 2, it had
    none).  V_s(a) has s + r + 2 rays, and rho0 ends in its weights a, read
    from the rays after the split s."""
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()
