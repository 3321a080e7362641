"""Shared builders for the test suite."""
from __future__ import annotations

import os
import random
from contextlib import contextmanager
from fractions import Fraction
from itertools import combinations, product
from math import comb
from pathlib import Path

import pytest

import toricsheaf
from toricsheaf import (
    EquivariantReflexiveSheaf,
    KlyachkoFiltration,
    Subspace,
    enumeration_box,
    hirzebruch,
    load_config,
    psi_points,
    span,
)
from toricsheaf.rational_linalg import matrix_rank, nullspace

from vertex_oracle import support_polytopes

# tests that run ``python -m toricsheaf.cli`` in a subprocess import the
# same package as this process, also when only pytest's pythonpath finds it
os.environ["PYTHONPATH"] = os.pathsep.join(
    filter(None, (str(Path(toricsheaf.__file__).parents[1]), os.environ.get("PYTHONPATH")))
)

# every config in configs/, found at collection: a file added there gets
# every shipped-config case of the suite with no test edit
SHIPPED_CONFIGS = {
    path.stem: path
    for path in sorted((Path(__file__).resolve().parent.parent / "configs").glob("*.json"))
}


def shipped_sheaf(name: str) -> EquivariantReflexiveSheaf:
    return load_config(SHIPPED_CONFIGS[name]).sheaf


def shipped_twists(variety) -> list[tuple[int, ...]]:
    """The twists of the shipped-config cases: every class in [-6, 6]^class_rank."""
    return list(product(range(-6, 7), repeat=variety.class_rank))


def chain_filtration(jumps, generator_chain, rank):
    """Filtration from a list of generator lists; the full space is appended."""
    spaces = [span(gens, rank) for gens in generator_chain]
    spaces.append(Subspace.full(rank))
    return KlyachkoFiltration(tuple(jumps), tuple(spaces))


def rank3_example_sheaf() -> EquivariantReflexiveSheaf:
    """The rank-3 sheaf on H_3 shipped in configs/rank3_h3.json."""
    h3 = hirzebruch(3)
    return EquivariantReflexiveSheaf(h3, (
        chain_filtration((-3, -1, 0), [[(3, 3, 1)], [(3, 3, 1), (4, 0, 2)]], 3),
        chain_filtration((-9, -3, 0), [[(9, 4, 8)], [(9, 4, 8), (2, 8, 8)]], 3),
        chain_filtration((-4, -1, 0), [[(0, 6, 3)], [(0, 6, 3), (7, 1, 3)]], 3),
        chain_filtration((-2, -1, 0), [[(4, 0, 4)], [(4, 0, 4), (9, 8, 0)]], 3),
    ))


def tangent_sheaf_h3() -> EquivariantReflexiveSheaf:
    """The rank-2 tangent sheaf of H_3 (configs/tangent_h3.json)."""
    h3 = hirzebruch(3)
    return EquivariantReflexiveSheaf(h3, (
        chain_filtration((-1, 0), [[(3, 1)]], 2),
        chain_filtration((-1, 0), [[(0, 1)]], 2),
        chain_filtration((-1, 0), [[(1, 0)]], 2),
        chain_filtration((-1, 0), [[(1, 0)]], 2),
    ))


@contextmanager
def counted_fractions():
    """A list that collects the arguments of every ``Fraction`` built by its
    constructor inside the block."""
    built = []
    original = Fraction.__dict__["__new__"]
    new = Fraction.__new__
    Fraction.__new__ = staticmethod(lambda cls, *args, **kw: built.append(args) or new(cls, *args, **kw))
    try:
        yield built
    finally:
        Fraction.__new__ = original


def random_invertible_rows(rng: random.Random, n: int) -> list[list[int]]:
    while True:
        rows = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(n)]
        if matrix_rank(rows, n) == n:
            return rows


def random_filtration(rng: random.Random, rank: int, jump_lo: int, jump_hi: int):
    jumps = sorted(rng.randint(jump_lo, jump_hi) for _ in range(rank))
    distinct = sorted(set(jumps))
    mult = [jumps.count(j) for j in distinct]
    k = len(distinct)
    dims = sorted(rng.sample(range(1, rank), k - 1)) + [rank] if k > 1 else [rank]
    rows = random_invertible_rows(rng, rank)
    chain = [span(rows[:d], rank) for d in dims]
    spaces = []
    for space, m in zip(chain, mult):
        spaces.extend([space] * m)
    return KlyachkoFiltration(tuple(jumps), tuple(spaces))


def random_sheaf(rng: random.Random, variety, rank: int, jump_lo=-6, jump_hi=0):
    filts = tuple(
        random_filtration(rng, rank, jump_lo, jump_hi)
        for _ in range(variety.ray_count)
    )
    return EquivariantReflexiveSheaf(variety, filts)


def twisted_box(sheaf, c):
    """The box the engine walks for the twist of the sheaf by class c, and
    the twist's shifts."""
    shifts = sheaf.variety.twist_divisor(c)
    return enumeration_box(sheaf, shifts), shifts


def walked(engine, plan, shifts, which=None) -> dict[tuple[int, ...], int]:
    """The engine's walk histogram of the plan, its packed keys unpacked to
    level tuples."""
    return {engine._unpack(key): n for key, n in engine._walk(plan, shifts, which).items()}


def h0_supported(engine, c) -> int:
    """The engine's h0_twisted(c), counted point by point: psi_points lists
    the characters of the support polytope <m, n(ray)> >= i_1(ray) - shift
    and each gets its own levels call (criterion 6's per-character oracle)."""
    shifts = engine.variety.twist_divisor(c)
    system, _ = support_polytopes(engine.sheaf, c)
    return sum(engine.h0(engine.levels(m, shifts)) for m in psi_points(system))


def determinant(rows) -> int:
    """The determinant of a small square integer matrix, by expansion along
    its first row."""
    if not rows:
        return 1
    return sum(
        (-1) ** j * a * determinant([r[:j] + r[j + 1:] for r in rows[1:]])
        for j, a in enumerate(rows[0]) if a
    )


def forms_sheaf(variety, p: int) -> EquivariantReflexiveSheaf:
    """Omega^p, the sheaf of p-forms: rank C(n, p) over the p-th exterior
    power of M_Q, whose basis e_S runs over the p-subsets S of the n
    coordinates in lexicographic order.  Per ray rho it has jump 0, C(n-1, p)
    times, with the p-th exterior power of rho^perp, spanned by the wedges
    of p basis vectors of rho^perp (their p x p minors on the columns S),
    then jump 1 with the full space.  Omega^0 is O, Omega^n is
    K = O(-sum D_rho)."""
    n = variety.dim
    subsets = list(combinations(range(n), p))
    rank, inner = len(subsets), comb(n - 1, p)
    filtrations = []
    for ray in variety.rays:
        perp = [list(row) for row in nullspace([ray], n).rows]
        wedges = [
            [determinant([[w[i] for i in s] for w in ws]) for s in subsets]
            for ws in combinations(perp, p)
        ]
        spaces = [span(wedges, rank)] * inner + [Subspace.full(rank)] * (rank - inner)
        filtrations.append(KlyachkoFiltration((0,) * inner + (1,) * (rank - inner), tuple(spaces)))
    return EquivariantReflexiveSheaf(variety, tuple(filtrations))


@pytest.fixture
def rank3_sheaf():
    return rank3_example_sheaf()


@pytest.fixture
def tangent_sheaf():
    return tangent_sheaf_h3()
