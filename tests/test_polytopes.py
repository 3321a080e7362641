"""Unit tests for interval systems, point enumeration and the feasibility lemmas."""
import gc
import random
import re
from fractions import Fraction
from itertools import product

import pytest

from toricsheaf import (
    IntervalConstraintSystem,
    SheafCohomology,
    assemble_slices,
    feasible_metasystem,
    feasible_system1,
    hirzebruch,
    in_support_lower_bound,
    in_support_upper_bound,
    omega_system,
    projective_space,
    psi_m_sliced,
    psi_n,
    psi_points,
    span,
    split_bundle,
    structure_sheaf,
)
from toricsheaf.errors import UnboundedSystemError, UnsupportedVarietyError
from toricsheaf.hilbert import RationalPolynomial

from conftest import random_sheaf, rank3_example_sheaf
from vertex_oracle import box_filtered_points
from toricsheaf import EquivariantReflexiveSheaf, KlyachkoFiltration, Subspace


def brute_force_system1(a, A, B):
    """Exhaustive search for x >= 0 with sum x <= B and sum a.x >= A."""
    if B < 0:
        return False
    for x in product(range(B + 1), repeat=len(a)):
        if sum(x) <= B and sum(av * xv for av, xv in zip(a, x)) >= A:
            return True
    return False


def brute_force_metasystem(a, lambdas, mus):
    """Exhaustive search over the block of coupled variables.

    The eta variables are searched over their row-implied ranges
    mu_u <= m_{s+u} <= -mu_0 - sum of the other mus; the rho variables enter
    the remaining row only through their sum, whose minimum is sum(lambdas).
    """
    r = len(mus) - 1
    ranges = []
    for u in range(1, r + 1):
        hi = -mus[0] - sum(mus[1:u]) - sum(mus[u + 1:])
        ranges.append(range(mus[u], hi + 1))
    lam0, lam_rest = lambdas[0], list(lambdas[1:])
    for etas in product(*ranges):
        if -sum(etas) < mus[0]:
            continue
        budget = sum(av * ev for av, ev in zip(a, etas)) - lam0
        if sum(lam_rest) <= budget:
            return True
    return False


def test_omega_system_p2_triangle():
    p2 = projective_space(2)
    o = structure_sheaf(p2)
    sys = omega_system(o, (1, 1, 1), (2,))
    assert sys.rows == ((-1, -1), (1, 0), (0, 1))
    assert sys.lower == (-2, 0, 0)
    assert sys.upper == (None, None, None)


def test_omega_system_final_example_top():
    sheaf = rank3_example_sheaf()
    sys = omega_system(sheaf, (3, 3, 3, 3), (0, 0))
    assert sys.lower[1] == 0          # top jump of the second rho ray
    assert sys.upper == (None,) * 4
    assert sys.lower == (0, 0, 0, 0)


def test_omega_system_empty_interval_row():
    h = hirzebruch(1)
    full = Subspace.full(2)
    line = Subspace(2, [(1, 0)])
    repeated = KlyachkoFiltration((0, 0), (full, full))
    sheaf = EquivariantReflexiveSheaf(h, (
        KlyachkoFiltration((-1, 0), (line, full)),
        repeated, repeated, repeated,
    ))
    sys = omega_system(sheaf, (1, 1, 1, 1), (0, 0))
    assert sys.has_empty_row()
    assert psi_points(sys) == []


def test_psi_points_triangle():
    p2 = projective_space(2)
    o = structure_sheaf(p2)
    pts = psi_points(omega_system(o, (1, 1, 1), (2,)))
    assert len(pts) == 6
    assert pts == sorted(pts)
    assert len(set(pts)) == len(pts)


def test_psi_points_p1_single():
    p1 = projective_space(1)
    o = structure_sheaf(p1)
    assert psi_points(omega_system(o, (1, 1), (0,))) == [(0,)]


def test_psi_points_unbounded_error():
    sys = IntervalConstraintSystem(((1,), (-1,)), (None, 0), (None, None))
    with pytest.raises(UnboundedSystemError):
        psi_points(sys)


@pytest.mark.parametrize("rows, lower, upper", [
    (((1, 0), (0, 1)), (0, 0), (None, None)),                # the quadrant
    (((1, 0), (0, 1)), (0, 0), (3, None)),                   # a half-strip
    (((1,),), (0,), (None,)),                                # the half-line
    (((1, -1), (-1, 1), (1, 0)), (0, 0, 0), (None, None, None)),  # y = x, x >= 0
])
def test_psi_points_refuses_unbounded_polytopes(rows, lower, upper):
    """Finite lower bounds that leave a non-empty polytope unbounded are an
    error, not a truncated answer."""
    with pytest.raises(UnboundedSystemError, match="bounded polytope"):
        psi_points(IntervalConstraintSystem(rows, lower, upper))


def test_psi_points_leaves_no_reference_cycle():
    """With the cycle collector off, the walk leaves nothing for it to free,
    so each point list goes as soon as its last reference does."""
    p2 = projective_space(2)
    systems = [
        omega_system(structure_sheaf(p2), (1, 1, 1), (4,)),
        omega_system(rank3_example_sheaf(), (3, 3, 3, 3), (6, 0)),
        omega_system(structure_sheaf(split_bundle(2, (1, 2))), (1,) * 6, (3, 2)),
        IntervalConstraintSystem(((1,), (-1,)), (0, 0), (None, None)),
    ]
    gc.collect()
    gc.disable()
    try:
        assert all(len(psi_points(system)) > 0 for system in systems)
        assert gc.collect() == 0
    finally:
        gc.enable()


@pytest.mark.parametrize("rows, lower, upper, bad", [
    (((1.7,), (-1,)), (0, 0), (None, None), 1.7),
    (((True,), (-1,)), (0, 0), (None, None), True),
    (((1,), ("-1",)), (0, 0), (None, None), "-1"),
    (((1, 0), (0, 1)), (0.5, -3), (None, None), 0.5),
    (((1, 0), (0, 1)), (0, -3.9), (None, None), -3.9),
    (((1,), (-1,)), (0, 0), (2.0, None), 2.0),
    (((1,), (-1,)), (False, 0), (None, None), False),
])
def test_interval_system_integers_are_strict(rows, lower, upper, bad):
    with pytest.raises(ValueError, match=f"must be an integer, got {bad!r}"):
        IntervalConstraintSystem(rows, lower, upper)


@pytest.mark.parametrize("entry_point, bad, value", [
    ("vector", (0.5, 1), 0.5),
    ("vector", (1, True), True),
    ("vector", (Fraction(1, 3), 0.1), 0.1),
    ("omega multi-index", (1.9, 1, 1, 1), 1.9),
    ("omega multi-index", (1, True, 1, 1), True),
    ("eta multi-index", (3.0, 3), 3.0),
    ("rho multi-index", (3, True), True),
    ("slice vector", (0.5,), 0.5),
    ("lambdas", (0, 1.5), 1.5),
    ("mus", (0, 0, False), False),
    ("metasystem weights", (1, 2.0), 2.0),
    ("split bundle weights", (1.7, 2), 1.7),
    ("split bundle s", True, True),
    ("polynomial exponent", (1.5,), 1.5),
    ("polynomial exponent", (True,), True),
    ("polynomial variables", 1.0, 1.0),
    ("vector", ("1/0", 1), "1/0"),
    ("vector", (None, 1), None),
    ("vector", ([1], 0), [1]),
    ("vector", (1j, 0), 1j),
    ("ambient dimension", True, True),
    ("ambient dimension", 2.0, 2.0),
])
def test_kernel_and_polytope_input_is_strict(entry_point, bad, value):
    """Floats and booleans are refused where vectors, ambient dimensions,
    multi-indices, bounds, weights, exponents and variable counts are read,
    never coerced to a nearby integer or rational; so are vector entries
    that are no exact number at all ('1/0', None, a list, a complex)."""
    sheaf = rank3_example_sheaf()
    build = {
        "vector": lambda: span([bad], 2),
        "ambient dimension": lambda: Subspace(bad, [[1]]),
        "omega multi-index": lambda: omega_system(sheaf, bad, (0, 0)),
        "eta multi-index": lambda: psi_n(sheaf, bad, 3),
        "rho multi-index": lambda: psi_m_sliced(sheaf, bad, 30, (0,)),
        "slice vector": lambda: psi_m_sliced(sheaf, (3, 1), 30, bad),
        "lambdas": lambda: feasible_metasystem((1, 2), bad, (0, 0, 0)),
        "mus": lambda: feasible_metasystem((1, 2), (0, 0), bad),
        "metasystem weights": lambda: feasible_metasystem(bad, (0, 0), (0, 0, 0)),
        "split bundle weights": lambda: split_bundle(1, bad),
        "split bundle s": lambda: split_bundle(bad, (1, 2)),
        "polynomial exponent": lambda: RationalPolynomial(1, {bad: 1}),
        "polynomial variables": lambda: RationalPolynomial(bad, {(2,): 1}),
    }[entry_point]
    with pytest.raises(ValueError, match=re.escape(f"got {value!r}")):
        build()


# one valid call per public name that reads p or q, with the class (p, q) = (30, 3)
P_Q_ENTRY_POINTS = {
    "lower support": lambda sheaf, p, q: in_support_lower_bound(sheaf, p, q),
    "upper support": lambda sheaf, p, q: in_support_upper_bound(sheaf, p, q),
    "assembled slices": lambda sheaf, p, q: assemble_slices(sheaf, (3, 1, 3, 3), p, q),
}


@pytest.mark.parametrize("bad", [0.5, True, "1", Fraction(1, 2)])
@pytest.mark.parametrize("entry_point", [*P_Q_ENTRY_POINTS, "rho slice"])
def test_p_must_be_an_integer(entry_point, bad):
    """A float, a bool, a string or a Fraction for p is refused by name, not
    compared, counted or folded into a derived bound."""
    sheaf = rank3_example_sheaf()
    build = P_Q_ENTRY_POINTS.get(entry_point, lambda sheaf, p, q: psi_m_sliced(sheaf, (3, 1), p, (0,)))
    with pytest.raises(ValueError, match=f"^p must be an integer, got {re.escape(repr(bad))}$"):
        build(sheaf, bad, 3)


@pytest.mark.parametrize("bad", [0.5, True, "1", Fraction(1, 2)])
@pytest.mark.parametrize("entry_point", [*P_Q_ENTRY_POINTS, "eta block"])
def test_q_must_be_an_integer(entry_point, bad):
    """A float, a bool, a string or a Fraction for q is refused by name, not
    compared, counted or folded into a derived bound."""
    sheaf = rank3_example_sheaf()
    build = P_Q_ENTRY_POINTS.get(entry_point, lambda sheaf, p, q: psi_n(sheaf, (3, 3), q))
    with pytest.raises(ValueError, match=f"^q must be an integer, got {re.escape(repr(bad))}$"):
        build(sheaf, 30, bad)


def test_psi_points_matches_naive_box_filter():
    """The Fourier-Motzkin walk returns exactly the box-filtered points, in order.

    The box is that of the vertices solved one at a time by
    ``vertex_oracle.fraction_vertices``.  The systems are the omega systems
    of random sheaves on Hirzebruch surfaces, P^1 (one coordinate, so the
    walk has no outer depth), P^3, V_1(1,3) (whose first ray has slope 3
    along the last coordinate) and V_2(1,2); the lower-bounds-only systems
    of ``conftest.h0_supported``; random systems on V_2(1,2) with some infinite upper
    bounds; and simplices in 1 to 4 variables cut by random rows.  Among
    the drawn lines, some is dropped whole by a row of slope 0, and some
    ends exactly on a row bound of slope other than +-1, so both cuts are
    checked where floor division matters.  Some outer coordinate, not the
    innermost, has its range end exactly on a bound of its shadow whose
    coefficient on that coordinate is not +-1, where the ceiling and floor
    division of the walk meet.
    """
    from toricsheaf.polytopes import _eliminate_last

    v22 = split_bundle(2, (1, 2))
    dropped_by_flat_row = ended_on_steep_bound = outer_on_steep_shadow = False

    def shadows(system):
        """The walk's shadow bounds h . (1, m_1..m_i) >= 0, for i = 1..n."""
        bounds = [(-lo,) + row for row, lo in zip(system.rows, system.lower)]
        bounds += [(up - 1,) + tuple(-a for a in row)
                   for row, up in zip(system.rows, system.upper) if up is not None]
        out = [bounds]
        while len(out[0][0]) > 2:
            out.insert(0, _eliminate_last(out[0]))
        return out

    def check(system):
        nonlocal dropped_by_flat_row, ended_on_steep_bound, outer_on_steep_shadow
        points, ranges = box_filtered_points(system)
        assert psi_points(system) == points
        bounds = list(zip(system.rows, system.lower, system.upper))
        for prefix in product(*ranges[:-1]):
            for row, lo, up in bounds:
                b = sum(x * y for x, y in zip(prefix, row))
                if row[-1] == 0 and (b < lo or (up is not None and b >= up)):
                    dropped_by_flat_row = True
        ends = {m[:-1]: m for m in points}  # the last point of each line
        for m in ends.values():
            for row, lo, up in bounds:
                a = row[-1]
                top = None if up is None else up - 1
                if abs(a) > 1 and sum(x * y for x, y in zip(m, row)) == (lo if a < 0 else top):
                    ended_on_steep_bound = True
        if system.nvars < 2 or not points:
            return
        for i, shadow in enumerate(shadows(system)[:-1], start=1):
            steep = [h for h in shadow if abs(h[-1]) > 1]
            for m in {m[:i] for m in points}:
                if any(sum(x * y for x, y in zip(h, (1,) + m)) == 0 for h in steep):
                    outer_on_steep_shadow = True

    rng = random.Random(4)
    for trial in range(40):
        variety = hirzebruch(rng.randint(0, 3)) if trial % 2 else split_bundle(2, (1, 2))
        sheaf = random_sheaf(rng, variety, rng.randint(1, 3), -4, 0)
        idx = tuple(rng.randint(1, sheaf.rank) for _ in range(variety.ray_count))
        c = (rng.randint(-4, 4), rng.randint(-4, 4))
        system = omega_system(sheaf, idx, c)
        if system.has_empty_row():
            continue
        check(system)

    rng = random.Random(40)
    varieties = (projective_space(1), projective_space(3), split_bundle(1, (1, 3)))
    for trial in range(60):
        variety = varieties[trial % 3]
        sheaf = random_sheaf(rng, variety, rng.randint(1, 3), -4, 0)
        c = tuple(rng.randint(-4, 4) for _ in range(variety.class_rank))
        idx = tuple(rng.randint(1, sheaf.rank) for _ in range(variety.ray_count))
        system = omega_system(sheaf, idx, c)
        if not system.has_empty_row():
            check(system)
        # the lower-bounds-only system of conftest.h0_supported
        shifts = variety.twist_divisor(c)
        lower = tuple(f.jumps[0] - sh for f, sh in zip(sheaf.filtrations, shifts))
        check(IntervalConstraintSystem(variety.rays, lower, (None,) * len(lower)))

    for _ in range(40):
        lower = tuple(rng.randint(-4, 1) for _ in v22.rays)
        upper = tuple(None if rng.random() < 0.4 else lo + rng.randint(1, 5) for lo in lower)
        check(IntervalConstraintSystem(v22.rays, lower, upper))

    # a simplex in 1 to 4 variables cut by random rows; in 3 and 4 variables
    # one of them is free of the last two coordinates
    for trial in range(40):
        n = trial % 4 + 1
        rows = [tuple(int(i == j) for j in range(n)) for i in range(n)] + [(-1,) * n]
        rows += [tuple(rng.randint(-3, 3) for _ in range(n)) for _ in range(2)]
        if n > 2:
            rows.append(tuple(rng.randint(-2, 2) for _ in range(n - 2)) + (0, 0))
        lower = [0] * n + [-rng.randint(3, 6)] + [rng.randint(-4, 2) for _ in rows[n + 1:]]
        upper = [None] * (n + 1) + [None if rng.random() < 0.3 else lo + rng.randint(1, 3)
                                    for lo in lower[n + 1:]]
        check(IntervalConstraintSystem(rows, lower, upper))

    check(IntervalConstraintSystem((), (), ()))  # no variables: the one point of Z^0
    assert dropped_by_flat_row and ended_on_steep_bound and outer_on_steep_shadow


def test_psi_points_monotone_in_bounds():
    rows = ((-1, -1), (1, 0), (0, 1))
    tight = IntervalConstraintSystem(rows, (-3, 0, 0), (1, 3, None))
    loose = IntervalConstraintSystem(rows, (-4, -1, 0), (2, 3, None))
    tight_pts = set(psi_points(tight))
    loose_pts = set(psi_points(loose))
    assert tight_pts <= loose_pts


def test_feasible_system1_examples():
    assert feasible_system1((1, 2), 3, 1) == (False, None)
    ok, witness = feasible_system1((1, 2), 2, 1)
    assert ok and witness == (0, 1)
    ok, witness = feasible_system1((2,), 0, 0)
    assert ok and witness == (0,)
    assert feasible_system1((1, 2), 0, -1) == (False, None)
    with pytest.raises(ValueError):
        feasible_system1((2, 1), 0, 0)
    with pytest.raises(ValueError):
        feasible_system1((-1,), 0, 0)


def test_feasible_system1_against_brute_force():
    for a in ((0,), (2,), (1, 3)):
        for A in range(-4, 5):
            for B in range(-2, 5):
                got, witness = feasible_system1(a, A, B)
                assert got == brute_force_system1(list(a), A, B)
                if got:
                    assert sum(witness) <= B
                    assert sum(av * xv for av, xv in zip(a, witness)) >= A


def test_feasible_metasystem_trivial():
    assert feasible_metasystem((1, 2), (0, 0), (0, 0, 0))


def test_feasible_metasystem_sample_against_brute_force():
    rng = random.Random(41)
    for _ in range(300):
        r = rng.randint(1, 2)
        s = rng.randint(1, 2)
        a = sorted(rng.randint(0, 3) for _ in range(r))
        lambdas = [rng.randint(-4, 4) for _ in range(s + 1)]
        mus = [rng.randint(-4, 4) for _ in range(r + 1)]
        assert feasible_metasystem(a, lambdas, mus) == brute_force_metasystem(
            a, lambdas, mus
        )


def test_metasystem_encodes_support_lower_bound():
    rng = random.Random(13)
    sheaf = random_sheaf(rng, hirzebruch(2), 3)
    a = sheaf.variety.split_a
    i_first = [js[0] for js in sheaf.jumps[:2]]
    j_first = [js[0] for js in sheaf.jumps[2:]]
    for p in range(-10, 11, 2):
        for q in range(-10, 11, 2):
            lambdas = [i_first[0] - p] + i_first[1:]
            mus = [j_first[0] - q] + j_first[1:]
            assert feasible_metasystem(a, lambdas, mus) == in_support_lower_bound(
                sheaf, p, q
            )


def test_psi_n_final_example():
    sheaf = rank3_example_sheaf()
    assert psi_n(sheaf, (3, 3), 0) == [(0,)]
    assert psi_n(sheaf, (3, 3), 3) == [(c,) for c in range(0, 4)]


def test_psi_n_empty_at_bound():
    sheaf = rank3_example_sheaf()
    j_top = [js[-1] for js in sheaf.jumps[2:]]
    q_bound = sum(j_top) - 1
    for n_idx in product((1, 2), repeat=2):
        assert psi_n(sheaf, n_idx, q_bound) == []
        assert psi_n(sheaf, n_idx, q_bound + 5) == []


def test_psi_n_infeasible_row():
    sheaf = rank3_example_sheaf()
    # eta1 interval for level 1 is [-2, -1); q only moves the eta0 row
    assert psi_n(sheaf, (1, 1), -20) == []


def test_psi_n_unsupported():
    with pytest.raises(UnsupportedVarietyError):
        psi_n(structure_sheaf(projective_space(2)), (1, 1), 0)


def test_psi_m_sliced_interval_count():
    sheaf = rank3_example_sheaf()
    # m = (3, 1): d1 ranges over [-9, -3), budget row inactive for large p
    pts = psi_m_sliced(sheaf, (3, 1), 30, (0,))
    assert pts == [(d,) for d in range(-9, -3)]


def test_psi_m_sliced_empty_at_bound():
    sheaf = rank3_example_sheaf()
    a = sheaf.variety.split_a
    i_top = [js[-1] for js in sheaf.jumps[:2]]
    j_first = [js[0] for js in sheaf.jumps[2:]]
    p_bound = sum(i_top) - sum(av * jf for av, jf in zip(a, j_first[1:])) - 1
    for c_vec in psi_n(sheaf, (3, 3), 2):
        for m_idx in product((1, 2), repeat=2):
            assert psi_m_sliced(sheaf, m_idx, p_bound, c_vec) == []
            assert psi_m_sliced(sheaf, m_idx, p_bound + 7, c_vec) == []


def test_sliced_points_match_full_system():
    rng = random.Random(99)
    for variety in (hirzebruch(3), split_bundle(2, (1, 2))):
        s = variety.split_s
        for _ in range(10):
            sheaf = random_sheaf(rng, variety, rng.randint(1, 3))
            idx = tuple(rng.randint(1, sheaf.rank) for _ in range(variety.ray_count))
            p, q = rng.randint(-6, 6), rng.randint(-6, 6)
            full = psi_points(omega_system(sheaf, idx, (p, q)))
            rebuilt = []
            for c_vec in psi_n(sheaf, idx[s + 1:], q):
                for d_vec in psi_m_sliced(sheaf, idx[: s + 1], p, c_vec):
                    rebuilt.append(d_vec + c_vec)
            assert sorted(rebuilt) == full
            assert assemble_slices(sheaf, idx, p, q) == len(full)


def test_assemble_slices_empty():
    sheaf = rank3_example_sheaf()
    assert assemble_slices(sheaf, (3, 3, 1, 1), 0, -20) == 0


def test_assemble_slices_line_bundle_h0():
    h3 = hirzebruch(3)
    o = structure_sheaf(h3)
    count = assemble_slices(o, (1, 1, 1, 1), 3, 1)
    assert count == 11
    assert count == SheafCohomology(o).h0_twisted((3, 1))


def test_assemble_final_example_matches_direct():
    sheaf = rank3_example_sheaf()
    idx = (3, 3, 3, 3)
    direct = len(psi_points(omega_system(sheaf, idx, (6, 0))))
    assert assemble_slices(sheaf, idx, 6, 0) == direct
