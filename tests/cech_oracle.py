"""Oracles for ``SheafCohomology.cech`` and ``SheafCohomology.chi``.

``full_complex_cech`` ranks the engine's cone complex in full: every cone
of the fan, where ``cech`` first divides out the acyclic closed star of a
ray whose space is the whole fibre.  ``full_complex_chi`` is the signed sum
of the piece dimensions over every cone, where ``chi`` sums the same
quotient chain that ``cech`` ranks.  Both share the engine's cone pieces
(and ``full_complex_cech`` its complex routine, ``cohomology._complex``), so
they check only that division.

``maximal_cone_cech`` is the Cech complex of the cover by maximal-cone
affine charts, an independent check on the cone complex itself.  There the
term C^k sums the pieces of the cones shared by each (k+1)-subset of the t
maximal cones, so the complex has 2^t - 1 terms (63 on V_1(1,2), 511 on
V_2(a1,a2)) against one term per cone.  It only reads ``engine.piece`` and
``engine.levels``, so it shares the per-cone subspaces with the engine but
none of its complex.  It takes its character boxes from ``vertex_oracle``,
each one wider than the engine's, and its ranks from the Fraction
elimination of ``linalg_oracle``, so it shares no box or elimination code
with the engine.
"""
from __future__ import annotations

from fractions import Fraction
from itertools import combinations

from toricsheaf import twist
from toricsheaf.cohomology import _complex

from linalg_oracle import matrix_rank
from vertex_oracle import box_points, fraction_enumeration_box, widened


def full_complex_cech(engine, levels: tuple[int, ...]) -> tuple[int, ...]:
    """(h^0, ..., h^dim) of the complex of every cone of the fan at one
    level tuple, with no star divided out."""
    chain = engine._chain_cones
    return _complex(chain, [[engine.piece(rs, levels) for rs in cones] for cones in chain])


def full_complex_chi(engine, levels: tuple[int, ...]) -> int:
    """The Euler characteristic of the complex of every cone of the fan at
    one level tuple: the signed sum of its piece dimensions."""
    return sum(
        (-1) ** k * engine.piece(rs, levels).dim
        for k, cones in enumerate(engine._chain_cones)
        for rs in cones
    )


def assert_full_complex(engine, levels: tuple[int, ...]) -> None:
    """cech and chi at one level tuple equal those of the complex of every cone."""
    assert engine.cech(levels) == full_complex_cech(engine, levels), ("cech", levels)
    assert engine.chi(levels) == full_complex_chi(engine, levels), ("chi", levels)


def cover_subsets(engine) -> list[list[tuple[int, ...]]]:
    """Per chain degree k, the common rays of each (k+1)-subset of maximal cones."""
    max_cones = [c.ray_indices for c in engine.variety.cones() if c.codim == 0]
    t = len(max_cones)
    subsets: list[list[tuple[int, ...]]] = []
    for k in range(t):
        level_sets = []
        for subset in combinations(range(t), k + 1):
            common = set(max_cones[subset[0]])
            for i in subset[1:]:
                common &= set(max_cones[i])
            level_sets.append(tuple(sorted(common)))
        subsets.append(level_sets)
    return subsets


def maximal_cone_cech(engine, levels: tuple[int, ...]) -> tuple[int, ...]:
    """(h^0, ..., h^dim) of the maximal-cone Cech complex at one level tuple."""
    subsets = cover_subsets(engine)
    t = len(subsets)
    # spaces of the complex, grouped by chain degree
    chain_spaces = [[engine.piece(rs, levels) for rs in subsets[k]] for k in range(t)]
    dims = [sum(s.dim for s in spaces) for spaces in chain_spaces]
    ranks = [_differential_rank(t, k, chain_spaces) for k in range(t - 1)]
    h = []
    for i in range(engine.variety.dim + 1):
        dim_ci = dims[i] if i < t else 0
        rank_out = ranks[i] if i < t - 1 else 0
        rank_in = ranks[i - 1] if 0 < i <= t - 1 else 0
        h.append(dim_ci - rank_out - rank_in)
    return tuple(h)


def maximal_cone_cech_twisted(engine, c, per_levels=None) -> tuple[int, ...]:
    """``maximal_cone_cech`` summed over the character box of the twist by c,
    widened by 1 on every side.  The engine walks the box itself, so equal
    totals also show that nothing outside that box counts.

    Each level tuple is computed once; ``per_levels``, when given, is the
    dict that collects those values, so a caller can compare them too.
    """
    shifts = engine.variety.twist_divisor(c)
    box = widened(fraction_enumeration_box(twist(engine.sheaf, c)), 1)
    if per_levels is None:
        per_levels = {}
    totals = [0] * (engine.variety.dim + 1)
    for m in box_points(box):
        levels = engine.levels(m, shifts)
        if levels not in per_levels:
            per_levels[levels] = maximal_cone_cech(engine, levels)
        for i, hi in enumerate(per_levels[levels]):
            totals[i] += hi
    return tuple(totals)


def _differential_rank(t: int, k: int, chain_spaces) -> int:
    """Rank of d: C^k -> C^{k+1} with signed-inclusion blocks."""
    sources = list(combinations(range(t), k + 1))
    targets = list(combinations(range(t), k + 2))
    src_spaces = chain_spaces[k]
    tgt_spaces = chain_spaces[k + 1]
    src_offset = [0]
    for s in src_spaces:
        src_offset.append(src_offset[-1] + s.dim)
    tgt_offset = [0]
    for s in tgt_spaces:
        tgt_offset.append(tgt_offset[-1] + s.dim)
    nrows = src_offset[-1]
    ncols = tgt_offset[-1]
    if nrows == 0 or ncols == 0:
        return 0
    src_index = {subset: i for i, subset in enumerate(sources)}
    # one row per source basis vector, expressed in the target coordinates
    rows = [[Fraction(0)] * ncols for _ in range(nrows)]
    for j_tgt, target in enumerate(targets):
        tgt_space = tgt_spaces[j_tgt]
        if tgt_space.is_zero:
            continue
        pivots = tgt_space.pivots
        for pos in range(k + 2):
            source = target[:pos] + target[pos + 1:]
            i_src = src_index[source]
            src_space = src_spaces[i_src]
            if src_space.is_zero:
                continue
            sign = -1 if pos % 2 else 1
            # src_space is contained in tgt_space; coordinates come off pivots
            for bi, vec in enumerate(src_space.basis):
                row = rows[src_offset[i_src] + bi]
                for ci, p in enumerate(pivots):
                    if vec[p]:
                        row[tgt_offset[j_tgt] + ci] += sign * vec[p]
    return matrix_rank(rows, ncols)
