"""Unit tests for character-level and global cohomology."""
import random
import re
from functools import lru_cache
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import toricsheaf
from toricsheaf import (
    EquivariantReflexiveSheaf,
    KlyachkoFiltration,
    SheafCohomology,
    Subspace,
    enumeration_box,
    euler_characteristic,
    hirzebruch,
    line_bundle,
    projective_space,
    sigma_piece,
    span,
    split_bundle,
    structure_sheaf,
    twist,
    validate,
)
from toricsheaf import cohomology, hilbert
from toricsheaf.cohomology import _complex
from toricsheaf.hilbert import _section_count
from toricsheaf.polytopes import _box_plan

from cech_oracle import assert_full_complex
from conftest import (SHIPPED_CONFIGS, h0_supported, random_sheaf, shipped_sheaf, shipped_twists,
                      twisted_box, walked)
from vertex_oracle import box_points, widened


def p1_bundle(a0: int):
    return line_bundle(projective_space(1), (a0, 0))


def test_sigma_piece_zero_cone(tangent_sheaf):
    zero_cone = tangent_sheaf.variety.cones()[0]
    assert zero_cone.ray_indices == ()
    assert sigma_piece(tangent_sheaf, zero_cone, (7, -5)).is_full


def test_sigma_piece_tangent_maximal_cone(tangent_sheaf):
    v = tangent_sheaf.variety
    cone = next(
        c for c in v.maximal_cones() if c.ray_indices == (1, 3)
    )  # cone(u1, v1)
    assert sigma_piece(tangent_sheaf, cone, (0, 0)).is_full


def test_sigma_piece_line_bundle_rule():
    h = hirzebruch(2)
    coeffs = (1, 0, -2, 0)
    sheaf = line_bundle(h, coeffs)
    for cone in h.cones():
        for m in ((0, 0), (1, -1), (-2, 1), (3, 2)):
            expected = all(
                h.pairing(m, k) >= -coeffs[k] for k in cone.ray_indices
            )
            assert sigma_piece(sheaf, cone, m).is_full == expected


def test_h0_character_examples(tangent_sheaf):
    p2 = projective_space(2)
    o2 = SheafCohomology(line_bundle(p2, (2, 0, 0)))
    assert o2.h0(o2.levels((0, 0))) == 1
    eng = SheafCohomology(tangent_sheaf)
    for d1 in range(-6, 7):
        for d2 in range(-6, 7):
            if 3 * d2 - d1 <= -2:
                assert eng.h0(eng.levels((d1, d2))) == 0
    assert eng.h0(eng.levels((0, 0))) == 2  # all pieces full there


def test_h0_character_bounded_by_pieces(rank3_sheaf):
    v = rank3_sheaf.variety
    eng = SheafCohomology(rank3_sheaf)
    for m in ((0, 0), (-1, -1), (2, 1), (-3, 2)):
        bound = min(
            f.evaluate(v.pairing(m, k)).dim
            for k, f in enumerate(rank3_sheaf.filtrations)
        )
        assert eng.h0(eng.levels(m)) <= bound


def test_hn_character_examples():
    p2 = projective_space(2)
    om3 = SheafCohomology(line_bundle(p2, (-3, 0, 0)))
    assert om3.hn(om3.levels((-1, -1))) == 1
    assert om3.hn(om3.levels((0, 0))) == 0   # rho1, rho2 pieces full
    om2 = SheafCohomology(p1_bundle(-2))
    # rho0 = -e1, so both pieces vanish at the character -1, not at +1
    assert om2.hn(om2.levels((-1,))) == 1
    assert om2.hn(om2.levels((1,))) == 0


def test_euler_character_examples():
    om2 = SheafCohomology(p1_bundle(-2))
    assert om2.chi(om2.levels((-1,))) == -1
    o = SheafCohomology(p1_bundle(0))
    assert o.chi(o.levels((5,))) == 0
    assert o.chi(o.levels((0,))) == 1 == o.h0(o.levels((0,)))


def test_enumeration_box_p1():
    o = p1_bundle(0)
    box = enumeration_box(o)
    assert box.lower == (0,) and box.upper == (0,)


def test_enumeration_box_contains_triangle():
    p2 = projective_space(2)
    o2 = line_bundle(p2, (2, 0, 0))
    box = enumeration_box(o2)
    for d1 in range(0, 3):
        for d2 in range(0, 3 - d1):
            assert (d1, d2) in box


def test_box_margin_invariance(rank3_sheaf):
    eng = SheafCohomology(rank3_sheaf)
    for c in ((0, 0), (3, -2), (-4, 1)):
        shifts = rank3_sheaf.variety.twist_divisor(c)
        box = enumeration_box(twist(rank3_sheaf, c))
        wide = widened(box, 3)
        for fn in (eng.h0, eng.hn, eng.chi):
            tight = sum(fn(eng.levels(m, shifts)) for m in box_points(box))
            loose = sum(fn(eng.levels(m, shifts)) for m in box_points(wide))
            assert tight == loose
        tight_cech = [0, 0, 0]
        loose_cech = [0, 0, 0]
        for target, points in ((tight_cech, box_points(box)), (loose_cech, box_points(wide))):
            for m in points:
                for i, hi in enumerate(eng.cech(eng.levels(m, shifts))):
                    target[i] += hi
        assert tight_cech == loose_cech


# P^1..P^3, H_0..H_3 and V_s(a) with s + r <= 3
SMALL_VARIETIES = st.one_of(
    st.integers(1, 3).map(projective_space),
    st.integers(0, 3).map(hirzebruch),
    st.integers(1, 2).flatmap(lambda s: st.lists(
        st.integers(0, 3), min_size=1, max_size=3 - s
    ).map(lambda a: split_bundle(s, sorted(a)))),
)


def chi_and_cech(engine: SheafCohomology, counts: dict) -> tuple[int, list[int]]:
    chi, cech = 0, [0] * (engine.variety.dim + 1)
    for lv, n in counts.items():
        chi += n * engine.chi(lv)
        for i, hi in enumerate(engine.cech(lv)):
            cech[i] += n * hi
    return chi, cech


def assert_box_margin_invariance(engine: SheafCohomology, c) -> dict:
    """Chi and Cech at the twist, over the engine's box, equal their sums
    over the box widened by 1; the level-tuple histogram of the wide box."""
    box, shifts = twisted_box(engine.sheaf, c)
    wide = walked(engine, _box_plan(widened(box, 1)), shifts)
    assert chi_and_cech(engine, wide) == (engine.chi_twisted(c), list(engine.cech_twisted(c))), c
    return wide


@settings(max_examples=60, deadline=None)
@given(SMALL_VARIETIES, st.integers(1, 3), st.integers(0, 2**32), st.data())
def test_box_margin_invariance_on_random_sheaves(variety, rank, seed, data):
    """Chi and Cech over the engine's box equal their sums over the box
    widened by 1: every cell that reaches past the outermost arrangement
    vertices is unbounded, so its local numbers are 0."""
    engine = SheafCohomology(random_sheaf(random.Random(seed), variety, rank, -4, 0))
    c = data.draw(st.tuples(*[st.integers(-4, 4)] * variety.class_rank))
    assert_box_margin_invariance(engine, c)


@pytest.mark.parametrize("name", SHIPPED_CONFIGS)
def test_box_margin_invariance_on_shipped_configs(name):
    """The margin check at every shipped twist, then chi and Cech against
    the complex of every cone at every level tuple the wide boxes meet."""
    engine = SheafCohomology(shipped_sheaf(name))
    met = set()
    for c in shipped_twists(engine.variety):
        met.update(assert_box_margin_invariance(engine, c))
    for lv in met:
        assert_full_complex(engine, lv)


def test_h0_dim_binomials():
    p2 = projective_space(2)
    o = SheafCohomology(structure_sheaf(p2))
    for d in range(0, 5):
        assert o.h0_twisted((d,)) == (d + 1) * (d + 2) // 2
    assert o.h0_twisted((-1,)) == 0


def test_h0_dim_final_example(rank3_sheaf):
    # frozen from the direct character-enumeration oracle over a wide box
    assert SheafCohomology(rank3_sheaf).h0_twisted((10, 4)) == 512


def test_cech_p2_canonical():
    p2 = projective_space(2)
    om3 = SheafCohomology(line_bundle(p2, (-3, 0, 0)))
    assert om3.cech_twisted((0,)) == (0, 0, 1)
    assert om3.hn_twisted((0,)) == 1
    o1 = SheafCohomology(line_bundle(p2, (1, 0, 0)))
    assert o1.cech_twisted((0,)) == (3, 0, 0)


def test_cech_p1_values():
    assert SheafCohomology(p1_bundle(-2)).cech_twisted((0,)) == (0, 1)
    assert SheafCohomology(p1_bundle(0)).cech_twisted((3,)) == (4, 0)


def test_cech_final_example_entries(rank3_sheaf):
    eng = SheafCohomology(rank3_sheaf)
    assert eng.cech_twisted((2, 4))[1] == 3
    assert eng.cech_twisted((10, -4))[1] == 47
    assert eng.cech_twisted((5, -1))[1] == 0
    for c in ((2, 4), (10, -4), (5, -1)):
        assert eng.h1_identity_twisted(c) == eng.cech_twisted(c)[1]


def test_h1_identity_matches_cech_on_hirzebruch():
    h3 = hirzebruch(3)
    assert SheafCohomology(structure_sheaf(h3)).h1_identity_twisted((0, 0)) == 0
    rng = random.Random(11)
    sheaf = random_sheaf(rng, h3, 2)
    eng = SheafCohomology(sheaf)
    for c in ((0, 0), (2, -1), (-3, 2)):
        assert eng.h1_identity_twisted(c) == eng.cech_twisted(c)[1]


def test_line_bundle_character_dims_are_01():
    h = hirzebruch(2)
    sheaf = line_bundle(h, (1, -1, 2, 0))
    eng = SheafCohomology(sheaf)
    box = widened(enumeration_box(sheaf), 2)
    for m in box_points(box):
        lv = eng.levels(m)
        assert eng.h0(lv) in (0, 1)
        assert eng.hn(lv) in (0, 1)
        for hi in eng.cech(lv):
            assert hi in (0, 1)


def test_three_paths_agree_on_random_sheaves():
    rng = random.Random(23)
    for a in (0, 1, 2):
        v = hirzebruch(a)
        sheaf = random_sheaf(rng, v, rng.randint(1, 3), jump_lo=-4, jump_hi=0)
        eng = SheafCohomology(sheaf)
        for c in ((0, 0), (2, 1), (-2, 3), (4, -2)):
            cech = eng.cech_twisted(c)
            assert cech[0] == eng.h0_twisted(c)
            assert cech[-1] == eng.hn_twisted(c)
            alternating = sum((-1) ** i * hi for i, hi in enumerate(cech))
            assert alternating == eng.chi_twisted(c)


def test_three_paths_agree_on_projective_plane():
    rng = random.Random(3)
    p2 = projective_space(2)
    sheaf = random_sheaf(rng, p2, 2, jump_lo=-3, jump_hi=0)
    eng = SheafCohomology(sheaf)
    for c in ((0,), (2,), (-3,)):
        cech = eng.cech_twisted(c)
        assert cech[0] == eng.h0_twisted(c)
        assert cech[-1] == eng.hn_twisted(c)
        assert sum((-1) ** i * h for i, h in enumerate(cech)) == eng.chi_twisted(c)
        assert eng.h1_identity_twisted(c) == cech[1]


def test_h0_supported_equals_boxed():
    rng = random.Random(5)
    sheaf = random_sheaf(rng, hirzebruch(3), 3)
    eng = SheafCohomology(sheaf)
    for c in ((0, 0), (6, 2), (-9, -1), (12, -5)):
        assert h0_supported(eng, c) == eng.h0_twisted(c)


def test_cech_on_threefold_bundle():
    from toricsheaf import split_bundle

    v = split_bundle(1, (1, 2))
    o = structure_sheaf(v)
    eng = SheafCohomology(o)
    assert eng.cech_twisted((0, 0)) == (1, 0, 0, 0)
    canonical = tuple(-sum(d[i] for d in v.degrees) for i in range(2))
    assert eng.cech_twisted(canonical) == (0, 0, 0, 1)
    rng = random.Random(77)
    sheaf = random_sheaf(rng, v, 2, jump_lo=-3, jump_hi=0)
    eng = SheafCohomology(sheaf)
    for c in ((0, 0), (1, -1)):
        cech = eng.cech_twisted(c)
        assert cech[0] == eng.h0_twisted(c)
        assert cech[-1] == eng.hn_twisted(c)
        assert sum((-1) ** i * h for i, h in enumerate(cech)) == eng.chi_twisted(c)


def test_tangent_sheaf_cohomology_matches_deformation_theory():
    """h^0(T) = a + 5 (automorphisms), h^1(T) = a - 1 (deformations), h^2 = 0."""
    from toricsheaf import EquivariantReflexiveSheaf, KlyachkoFiltration, Subspace, span

    full = Subspace.full(2)
    for a in (1, 2, 3):
        h = hirzebruch(a)
        tangent = EquivariantReflexiveSheaf(h, (
            KlyachkoFiltration((-1, 0), (span([(a, 1)], 2), full)),
            KlyachkoFiltration((-1, 0), (span([(0, 1)], 2), full)),
            KlyachkoFiltration((-1, 0), (span([(1, 0)], 2), full)),
            KlyachkoFiltration((-1, 0), (span([(1, 0)], 2), full)),
        ))
        assert SheafCohomology(tangent).cech_twisted((0, 0)) == (a + 5, a - 1, 0)


def test_engine_refuses_unsorted_jumps_with_the_validate_message():
    """Jumps (0, -1) on rho0 of P^2, a line then the whole plane, once gave
    h0_twisted((1,)) = 13 against cech_twisted((1,)) = (22, 0, 0): the
    engine reads each ray's first and last jump as its extremes."""
    p2 = projective_space(2)
    line = span([(1, 0)], 2)
    filtrations = [KlyachkoFiltration(js, (line, Subspace.full(2))) for js in [(0, -1), (-1, 0), (-1, 0)]]
    sheaf = EquivariantReflexiveSheaf(p2, filtrations)
    message = "ray rho0: jumps not weakly increasing: (0, -1)"
    assert validate(sheaf) == [message]
    with pytest.raises(ValueError, match=re.escape(message)):
        SheafCohomology(sheaf)
    with pytest.raises(ValueError, match=re.escape(message)):
        euler_characteristic(sheaf, (1,))
    filtrations[0] = KlyachkoFiltration((-1, 0), (line, Subspace.full(2)))
    engine = SheafCohomology(EquivariantReflexiveSheaf(p2, filtrations))
    assert engine.h0_twisted((1,)) == engine.cech_twisted((1,))[0]


def test_engine_refuses_spaces_that_are_not_a_full_nested_chain():
    """On P^2, rho0 with jumps (-1, 0) and spaces <(1, 0)>, then <(0, 1)>,
    neither full nor nested, once gave hn_twisted((-3,)) = 0 against
    cech_twisted((-3,)) = (0, 1, 6)."""
    lines = [span([v], 2) for v in [(1, 0), (0, 1), (1, 1)]]
    filtrations = [KlyachkoFiltration((-1, 0), (line, Subspace.full(2))) for line in lines]
    filtrations[0] = KlyachkoFiltration((-1, 0), tuple(lines[:2]))
    sheaf = EquivariantReflexiveSheaf(projective_space(2), filtrations)
    problems = validate(sheaf)
    assert problems == [
        "ray rho0: last space is not the full ambient space",
        "ray rho0: space 1 not contained in space 2",
    ]
    with pytest.raises(ValueError, match=re.escape("; ".join(problems))):
        SheafCohomology(sheaf)
    with pytest.raises(ValueError, match=re.escape(problems[0])):
        euler_characteristic(sheaf, (-3,))


def test_cech_at_canonical_class_of_surface():
    h3 = hirzebruch(3)
    o = structure_sheaf(h3)
    canonical = tuple(-sum(d[i] for d in h3.degrees) for i in range(2))
    assert canonical == (1, -2)
    assert SheafCohomology(o).cech_twisted(canonical) == (0, 0, 1)


def test_euler_characteristic_is_polynomial_everywhere(rank3_sheaf):
    """chi of the twist agrees with the degree-2 polynomial through any window."""
    values = {(p, q): euler_characteristic(rank3_sheaf, (p, q))
              for p in range(0, 3) for q in range(0, 3)}
    # second differences constant in each direction
    for q in range(0, 3):
        row = [values[(p, q)] for p in range(0, 3)]
        assert row[2] - 2 * row[1] + row[0] == 0  # chi linear in p here



def assert_rank_nullity_at_ends(sheaf, twists) -> int:
    """At every level tuple of the twists' boxes widened by 1, ker d_0 is
    H^0, the intersection of all ray spaces, and im d_{n-1} is the sum of the
    ray spaces, whose cokernel in E is H^n.  So the ranks that matrix_rank
    finds must agree with the subspace arithmetic of h0 and hn.  The wider
    box also meets the unbounded cells just past the outermost vertices: a
    line bundle on P^2 shows 2 level tuples in its own box and 5 in the
    wider one.  Returns the number of level tuples checked."""
    engine = SheafCohomology(sheaf)
    chain = engine._chain_cones
    tuples = set()
    for c in twists:
        box, shifts = twisted_box(engine.sheaf, c)
        tuples.update(walked(engine, _box_plan(widened(box, 1)), shifts))
    nonzero = [0, 0]
    for lv in tuples:
        spaces = [[engine.piece(rs, lv) for rs in cones] for cones in chain]
        h = _complex(chain, spaces)
        # the ranks of d_0 and d_(n-1), as C^(-1) = C^(n+1) = 0 and C^n = E
        first = sum(s.dim for s in spaces[0]) - h[0]
        last = engine.rank - h[-1]
        assert first == sum(s.dim for s in spaces[0]) - engine.h0(lv)
        assert last == engine.rank - engine.hn(lv)
        nonzero[0] += first > 0
        nonzero[1] += last > 0
    assert all(nonzero)
    return len(tuples)


@pytest.mark.parametrize("variety, twists", [
    (projective_space(2), ((-3,), (0,), (2,))),
    (hirzebruch(3), ((-2, 0), (0, 0), (1, 1))),
    (split_bundle(1, (1, 2)), ((0, 0), (1, 0), (-1, 1))),
    (split_bundle(2, (1,)), ((0, 0), (1, 1))),
])
@pytest.mark.parametrize("rank", [1, 2, 3])
def test_rank_nullity_at_the_ends_of_the_cone_complex(variety, twists, rank):
    sheaf = random_sheaf(random.Random(100 * rank + variety.ray_count), variety, rank, -4, 0)
    assert assert_rank_nullity_at_ends(sheaf, twists) >= 3


def test_rank_nullity_at_the_ends_for_the_example_sheaves(rank3_sheaf, tangent_sheaf):
    assert assert_rank_nullity_at_ends(rank3_sheaf, ((0, 0), (2, -1), (-3, 1))) >= 20
    assert assert_rank_nullity_at_ends(tangent_sheaf, ((0, 0), (-1, 2))) >= 5


def simplex_chain(k: int) -> list[list[tuple[int, ...]]]:
    """Every subset of k vertices, the empty one included, by falling size."""
    return [list(combinations(range(k), size)) for size in range(k, -1, -1)]


@pytest.mark.parametrize("space", [Subspace.full(1), span([(1, 2)], 2)], ids=["Q1", "line"])
@pytest.mark.parametrize("k", [2, 3, 4, 5])
def test_complex_of_the_simplex_and_of_its_boundary(k, space):
    """With one space E on every face, the augmented complex of the full
    simplex is acyclic, and that of its boundary, a (k - 2)-sphere, has
    cohomology E at its top faces only.  The line (1, 2) has its pivot
    coordinate 1 off the axis (1, 0)."""
    simplex = simplex_chain(k)
    boundary = simplex[1:]
    assert _complex(simplex, [[space] * len(term) for term in simplex]) == (0,) * (k + 1)
    assert _complex(boundary, [[space] * len(term) for term in boundary]) == (space.dim,) + (0,) * (k - 1)


LOCAL_NUMBERS = ("h0", "hn", "chi", "cech")


def assert_one_call_per_tuple(calls: dict, engine) -> None:
    """Each local number was asked once per level tuple it caches, as a
    tuple; the calls seen are then forgotten."""
    assert any(calls.values())
    for name, seen in calls.items():
        assert all(type(lv) is tuple for lv in seen), name
        assert len(seen) == len(set(seen)) == len(engine._local[name]), name
        assert set(map(engine._pack, seen)) == engine._local[name].keys(), name
        seen.clear()


def test_each_local_number_has_one_entry(rank3_sheaf, monkeypatch):
    """The walk totals and ``mobius_weights`` reach every local number
    through its one method, once per level tuple not cached yet.  So a
    plain wrapper on the class attribute, without ``functools.wraps``, as
    a profiler installs it, sees each distinct level tuple once, and the
    numbers do not change under it."""
    twists = ((0, 0), (2, -1), (-6, -4))  # h^n is 0 on the first two
    totals = ("cech_twisted", "chi_twisted", "h0_twisted", "hn_twisted", "h1_identity_twisted")
    expected = {total: [getattr(SheafCohomology(rank3_sheaf), total)(c) for c in twists] for total in totals}
    weights = hilbert.mobius_weights(rank3_sheaf)
    calls = {name: [] for name in LOCAL_NUMBERS}

    def counting(method, seen):
        def wrapper(self, levels):
            seen.append(levels)
            return method(self, levels)
        return wrapper

    for name in LOCAL_NUMBERS:
        monkeypatch.setattr(SheafCohomology, name, counting(getattr(SheafCohomology, name), calls[name]))
    for total in totals:
        engine = SheafCohomology(rank3_sheaf)
        assert [getattr(engine, total)(c) for c in twists] == expected[total], total
        assert_one_call_per_tuple(calls, engine)
    monkeypatch.setattr(cohomology, "_engine", lru_cache(maxsize=64)(SheafCohomology))
    monkeypatch.setattr(hilbert, "_level_table", lru_cache(maxsize=64)(hilbert._level_table.__wrapped__))
    assert hilbert.mobius_weights.__wrapped__(rank3_sheaf) == weights
    assert_one_call_per_tuple(calls, cohomology._engine(rank3_sheaf))


def test_public_surface_is_pinned():
    """The package exports exactly these names and no submodule; a change
    to the library surface has to change this list."""
    assert sorted(toricsheaf.__all__) == [
        "CharacterBox", "Cone", "ConfigError", "EquivariantReflexiveSheaf",
        "HalfPlane", "InternalConsistencyError", "IntervalConstraintSystem",
        "JobConfig", "KlyachkoFiltration", "MonomialIdeal", "PresentationDegrees",
        "RationalPolynomial", "SheafCohomology", "Subspace", "SupportRegion",
        "ToricVariety", "UnboundedSystemError", "UnsupportedVarietyError",
        "assemble_slices", "bernoulli_number", "bernoulli_polynomial",
        "build_variety", "delta_normalization", "enumeration_box",
        "euler_characteristic", "faulhaber_sum", "feasible_metasystem",
        "feasible_system1", "format_polynomial", "hilbert_function",
        "hilbert_polynomial", "hirzebruch", "in_support_lower_bound",
        "in_support_upper_bound", "intersect",
        "jump_bounds_from_presentation", "line_bundle", "load_config",
        "lower_support_region", "mobius_weights", "omega_system", "parse_config",
        "projective_space", "psi_m_sliced", "psi_n", "psi_points",
        "rank1_hilbert_polynomial", "regularity_region", "regularity_thresholds",
        "sigma_piece", "sigma_piece_dim", "simplex_sum", "span", "split_bundle",
        "split_data", "structure_sheaf", "subspace_sum", "twist",
        "upper_support_regions", "validate",
    ]
    assert all(hasattr(toricsheaf, name) for name in toricsheaf.__all__)


# each variety with the window of twists where its line bundles are checked
LINE_BUNDLE_WINDOWS = {
    "P2": (projective_space(2), [(t,) for t in range(-8, 5)]),
    "P3": (projective_space(3), [(t,) for t in range(-9, 4)]),
    **{f"H{a}": (hirzebruch(a), [(p, q) for p in range(-6, 4) for q in range(-4, 3)])
       for a in range(4)},
    "V1_12": (split_bundle(1, (1, 2)), [(p, q) for p in range(-7, 3) for q in range(-4, 3)]),
    "V2_12": (split_bundle(2, (1, 2)), [(p, q) for p in range(-8, 4) for q in range(-4, 3)]),
}


@pytest.mark.parametrize("name", LINE_BUNDLE_WINDOWS)
def test_line_bundle_h0_and_hn_are_section_counts(name):
    """h^0(O(D)(c)) is the binomial section count of the class [D] + c,
    and by Serre duality h^n(O(D)(c)) is that of [K] - [D] - c, with
    [K] = -sum [D_rho]: polytope walks on one side, binomials on the other."""
    variety, window = LINE_BUNDLE_WINDOWS[name]
    rng = random.Random(f"line-bundle-{name}")
    canonical = variety.divisor_class((-1,) * variety.ray_count)
    seen = set()
    for _ in range(3):
        coeffs = [rng.randint(-2, 2) for _ in range(variety.ray_count)]
        d = variety.divisor_class(coeffs)
        engine = SheafCohomology(line_bundle(variety, coeffs))
        for c in window:
            h0 = engine.h0_twisted(c)
            hn = engine.hn_twisted(c)
            assert h0 == _section_count(variety, tuple(x + y for x, y in zip(d, c))), (coeffs, c)
            assert hn == _section_count(
                variety, tuple(k - x - y for k, x, y in zip(canonical, d, c))), (coeffs, c)
            seen.add((h0 > 0, hn > 0))
    # the window reaches sections, top cohomology and neither
    assert {(True, False), (False, True), (False, False)} <= seen
