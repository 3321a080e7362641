"""Cohomology of equivariant reflexive sheaves by direct enumeration.

Per character m, the sections over the affine piece of a cone are the
intersection of the ray filtrations evaluated at the pairings <m, n(rho)>.
H^0 and H^n come from the intersection / quotient-by-sum formulas.  The full
cohomology is that of Klyachko's complex of the fan, with one term per cone:
C^k is the sum of the pieces E^sigma over the cones sigma of codimension k,
and the differential sends E^sigma into E^tau for each facet tau of sigma.
The fans here are smooth, so every cone is spanned by part of a basis and
its faces are exactly the subsets of its rays: the cones form a simplicial
complex on the rays, and the ordinary simplicial signs (-1)^pos, pos the
position of the dropped ray in the sorted ray list, make d o d = 0.

Cech ranks a smaller complex with the same cohomology.  Say the space of
ray rho at the level tuple is the whole fibre, as it is at rho's top level.
Then E^(sigma + rho) = E^sigma for every cone sigma.  The closed star of
rho, the cones sigma for which sigma + {rho} is a cone, is closed under
faces, so it spans a subcomplex, and the pairs sigma <-> sigma + {rho}
match all of it through +-identity maps, so it is acyclic.  The Cech
numbers are therefore those of the quotient complex: only the cones outside
the star, with every facet inside the star dropped from the differential.
The star adds 0 to the Euler characteristic too, as each pair has equal
spaces in adjacent degrees, so chi sums the signed dimensions of the same
quotient chain.  On P^n one cone is left, the maximal cone of the other
rays; on V_2(1,2), 7 of 49.  Of the rays whose space is the whole fibre,
cech and chi take the one that leaves the fewest cones, the first on a
tie, and only that one: in the quotient the pairs through a second such
ray need not both lie outside the first star (on P^2, after dividing out
rho0, the one cone left holds rho1, but {rho2} is in the star of rho0), so
that matching is not complete in general.

All global numbers are finite sums over a box of characters.  Local numbers
depend only on the tuple of filtration levels, so each global number is a
sum of count x local over the level-tuple histogram of its box.  Chi, the
Cech numbers and h^1 walk the smallest integer box holding every vertex of
the arrangement of jump hyperplanes <m, n(rho)> = jump - shift, and nothing
outside it counts.  The characters of one level tuple form a cell
{A m >= b, C m < d}: a ray at level l > 0 bounds <m, n(rho)> + shift below
by its l-th jump, and a ray below its top level bounds it strictly above by
its next jump.  Say the cell holds a lattice point m and its closure is
unbounded.  Then its recession cone {A r >= 0, C r <= 0}, a rational cone,
holds a nonzero integer vector r, and every m + k r with k >= 0 stays in
the cell, so a nonzero local number there would make the global number
infinite.  A bounded cell's closure is a polytope whose vertices are
arrangement vertices, so its lattice points lie in the box.  The box is
rounded outwards, so it is never empty, also when no vertex is integral.

No vertex is listed for that box.  Each vertex is N.(j - shift)_S / D for
a set S of dim rays with independent rows, whose inverse N / D polytopes
caches once per fan, and one jump j_k of each ray of S, chosen
independently.  So over the vertices of S, coordinate i is least at
(sum_k min_j N_ik j - N_i.shift_S) / D and greatest at the same with max;
the sums over the jumps are cached per fan and jumps, a twist costs one
dot product per ray set and coordinate, and since floor and ceiling are
monotone, the floors and ceilings of these extremes over all ray sets give
the box exactly.

H^0 and H^n walk only the lines of their support polytope.  The local h^0
is 0 as soon as one ray is at level 0, so every section lies in
<m, n(rho)> >= i_1(rho) - shift; the local h^n is 0 as soon as one ray is at
its top level, whose space is the whole fibre, so h^n lives in
<m, n(rho)> <= i_top(rho) - shift - 1.  The rays of a complete fan
positively span, so each polytope is bounded.  Its rows are the rays and
the shifts are linear in the class c, so each bound keeps its constant as a
form over (1, c), and ``polytopes._walk_plan`` gives the lines of the
polytope at c; with no plan, the number is 0.  A line of the h^0 polytope
crosses no jump <= i_1, and one of the h^n polytope none >= i_top.  Where
no ray has another jump (every rank-1 sheaf), no level moves, and the
bounds fix the one level tuple: every ray is at its top level in the h^0
polytope and at level 0 in the h^n one.  That walk only sums its line
lengths, under the key (rank + 1)^rays - 1 or 0.

Every walk follows a plan from ``polytopes``, for the box or for a support
polytope: planes of lines along the plan's line axis, each plane's lines
one step apart along its stepping axis.  On a line every pairing is affine
in the line axis, so a ray's level changes only at the cut points where its
pairing crosses one of its jumps, by +1 or -1 with the sign of the slope (a
repeated jump gives two steps at one cut); a polytope walk cuts only at
the jumps its lines can cross.  A plane's first line takes each ray's
pairing from one dot product; each later line moves those pairings by the
rays' coordinates, one step along the stepping axis and, in a polytope,
along the line axis to its own start.  The walk's first line takes its
start tuple from one checked levels call, and every other line bisects the
jumps at its pairings.  A level tuple is one int, its key sum_k l_k
(rank + 1)^k: each level lies in 0..rank, so the levels are the key's
digits in base rank + 1 and distinct tuples have distinct keys.  A cut
moves the key by +-(rank + 1)^k, so sorting a line's cut points and
applying their steps gives each run of constant key and its length.

Each local number is one method: it checks its level tuple, before
packing it, as False packs as 0 does, and caches the result per key.  The
walk totals call these methods by name, once per key not cached yet.

``_complex`` gives the cohomology of every complex of this shape: a term
per degree, summing subspaces of Q^rank indexed by ray sets, and signed
inclusions into the facets in the next term.  ``cech`` calls it on the
quotient chain.  A Koszul complex, S -> S minus rho with inclusions
M_(u - e_S) in M_(u - e_(S minus rho)), has the same shape.
"""
from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections.abc import Sequence
from functools import cached_property, lru_cache, wraps
from itertools import repeat
from operator import add, mul

from .filtration import EquivariantReflexiveSheaf
from .polytopes import CharacterBox, _box_plan, _rowset_extremes, _walk_plan
from .rational_linalg import Subspace, intersect, matrix_rank, subspace_sum
# not called here; bench/selftest.py checks that the tracer patches these bindings
from .polytopes import psi_points
from .rational_linalg import solve_square
from .toric import Cone, strict_ints


def enumeration_box(
    sheaf: EquivariantReflexiveSheaf, shifts: Sequence[int] | None = None
) -> CharacterBox:
    """The smallest integer box holding every vertex of the arrangement of
    jump hyperplanes <m, n(rho)> = jump - shift: per coordinate, the floor of
    the least vertex value and the ceiling of the greatest.  ``shifts`` are
    the twist's divisor coefficients per ray, none for the sheaf itself.

    Every global number is a sum of local numbers over this box alone.  A
    level-tuple cell {A m >= b, C m < d} holding a lattice point m, with an
    unbounded closure, has a nonzero integer vector r in its recession cone
    {A r >= 0, C r <= 0}; every m + k r, k >= 0, is in the cell, so a nonzero
    local number there would make the sum infinite.  A bounded cell's closure
    is the hull of arrangement vertices, so its lattice points are in the
    box.  The box is read off the extremes of each rowset's vertices, none
    of them listed."""
    v = sheaf.variety
    if shifts is None:
        shifts = (0,) * v.ray_count
    shifts = strict_ints(shifts, "shift", v.ray_count, "shifts")
    floors, ceilings = [], []
    for rowset, inverse, d, low, high in _rowset_extremes(v.rays, sheaf.jumps):
        moved = [shifts[k] for k in rowset]
        offsets = [sum(map(mul, line, moved)) for line in inverse]
        # the rowset's least and greatest x_i / D, rounded outwards
        floors.append([(lo - o) // d for lo, o in zip(low, offsets)])
        ceilings.append([-((o - hi) // d) for hi, o in zip(high, offsets)])
    return CharacterBox(tuple(map(min, zip(*floors))), tuple(map(max, zip(*ceilings))))


def _complex(chain: Sequence[Sequence[tuple[int, ...]]],
             spaces: Sequence[Sequence[Subspace]]) -> tuple[int, ...]:
    """(h^0, ..., h^k) of a complex of subspaces of Q^rank: term i sums
    ``spaces[i]``, one per ray set of ``chain[i]``, and d sends E^sigma into
    E^tau, each facet tau of sigma in the next term, by (-1)^pos for the
    position of the dropped ray.  Each row of d is a stored row of a source
    space, its coordinates in each target read off the target's pivots."""
    # ranks[i] is the rank of d: C^(i-1) -> C^i; C^-1 = C^(k+1) = 0
    ranks = [0]
    for sources, source_spaces, targets, target_spaces in zip(chain, spaces, chain[1:], spaces[1:]):
        blocks, width = {}, 0
        for rays, space in zip(targets, target_spaces):
            blocks[rays] = width, space.pivots
            width += space.dim
        rows = []
        for sigma, space in zip(sources, source_spaces):
            if not space.rows:
                continue
            # a facet outside the next term was divided out of the complex
            facets = []
            for pos in range(len(sigma)):
                block = blocks.get(sigma[:pos] + sigma[pos + 1:])
                if block is not None:
                    facets.append((-1 if pos % 2 else 1, *block))
            for vec in space.rows:
                row = [0] * width
                for sign, start, pivots in facets:
                    row[start:start + len(pivots)] = [sign * vec[p] for p in pivots]
                rows.append(row)
        ranks.append(matrix_rank(rows, width) if rows and width else 0)
    ranks.append(0)
    return tuple(sum(s.dim for s in term) - ranks[i] - ranks[i + 1] for i, term in enumerate(spaces))


def _local_number(compute):
    """A local number of the engine as one method: it checks the level
    tuple, packs it and caches the result per key."""
    @wraps(compute)
    def local(self, levels):
        levels = self._check_levels(levels)
        cache = self._local[compute.__name__]
        key = self._pack(levels)
        if key not in cache:
            cache[key] = compute(self, levels)
        return cache[key]
    return local


class SheafCohomology:
    """Per-sheaf evaluator caching all linear algebra by filtration levels.

    One instance serves every twist of its sheaf: twisting shifts jumps only,
    so the twisted level of a pairing value p on ray k is the base level of
    p + shift_k, and the subspace data is unchanged.
    """

    def __init__(self, sheaf: EquivariantReflexiveSheaf):
        # sheaf.jumps refuses unsorted jumps, which levels and the support
        # bounds read, and spaces that the local numbers need nested and full
        self._jumps = sheaf.jumps
        self.sheaf = sheaf
        self.variety = sheaf.variety
        self.rank = sheaf.rank
        # ray sets of the cones by codimension: the terms C^k of the complex
        self._chain_cones = self.variety._fan.chain
        self._pieces: dict[tuple, Subspace] = {}
        self._powers = tuple((self.rank + 1) ** k for k in range(len(self._jumps)))
        self._local = {"h0": {}, "hn": {}, "chi": {}, "cech": {}}
        self._tables = {}

    def _pack(self, levels: Sequence[int]) -> int:
        return sum(map(mul, levels, self._powers))

    def _unpack(self, key: int) -> tuple[int, ...]:
        return tuple([key // p % (self.rank + 1) for p in self._powers])

    def levels(self, m: Sequence[int], shifts: Sequence[int] | None = None) -> tuple[int, ...]:
        """Per ray, the number of jumps <= <m, n(ray)> + shift; 0 is the zero space."""
        v = self.variety
        m = strict_ints(m, "character entry", v.dim, "character")
        shifts = repeat(0) if shifts is None else strict_ints(shifts, "shift", v.ray_count, "shifts")
        return tuple(
            bisect_right(jumps, sum(map(mul, m, ray)) + shift)
            for jumps, ray, shift in zip(self._jumps, v.rays, shifts)
        )

    def histogram(self, c: Sequence[int]) -> dict[tuple[int, ...], int]:
        """How many characters of the twisted box have each level tuple."""
        return {self._unpack(key): n for key, n in self._counts(c).items()}

    def _counts(self, c: Sequence[int], which: int | None = None) -> dict[int, int]:
        """The key histogram of the twist by c: of its box, or of its h^0
        (``which`` 0) or h^n (1) support polytope, empty with no plan."""
        shifts = self.variety.twist_divisor(c)  # checks c, held at the class basis
        if which is None:
            plan = _box_plan(enumeration_box(self.sheaf, shifts))
        else:
            plan = _walk_plan(self._support_bounds[which], (1, *map(shifts.__getitem__, self.variety._class_basis)))
            if plan is None:
                return {}
        return self._walk(plan, shifts, which)

    def _walk(self, plan, shifts: tuple[int, ...], which: int | None = None) -> dict[int, int]:
        """The key histogram at these shifts of the characters of a walk
        plan (order, planes) from ``polytopes``; a support polytope's lines
        cross only its ``_crossable[which]``, and where none, its bounds fix
        the key."""
        order, planes = plan
        if which is not None and not any(self._crossable[which]):
            # each ray's jumps are one value, which the h^0 polytope puts
            # every ray at or above and the h^n one below
            n = sum(hi - lo + 1 for _, ends in planes for lo, hi in ends if lo <= hi)
            return {0 if which else (self.rank + 1) ** len(self._jumps) - 1: n} if n else {}
        rays, jumps, powers, axis = self.variety.rays, self._jumps, self._powers, order[-1]
        kind = (*order[-2:], which)
        if kind not in self._tables:
            # (ray, s, key step, t) per crossable jump j of a ray of slope s
            # along the line: the pairing s*u + b at its u-th point passes j
            # (>= j if s > 0, < j if s < 0) at u = (t - b) // s + 1, t = j - 1 or j
            crossable = jumps if which is None else self._crossable[which]
            self._tables[kind] = (
                [ray[axis] for ray in rays],
                [ray[order[-2]] for ray in rays] if len(order) > 1 else None,
                [(k, ray[axis], p if ray[axis] > 0 else -p, j - (ray[axis] > 0))
                 for k, (ray, js, p) in enumerate(zip(rays, crossable, powers)) if ray[axis] for j in js],
            )
        along, advance, sloped = self._tables[kind]
        m = [0] * len(order)
        counts: dict[int, int] = {}
        get = counts.get
        key = None
        for start, ends in planes:
            for i, x in zip(order, start):
                m[i] = x
            m[axis] = last_lo = ends[0][0]
            # each ray's pairing at the start of the plane's first line
            pairings = [sum(map(mul, m, ray)) + shift for ray, shift in zip(rays, shifts)]
            # one checked levels call per walk; later planes bisect, as lines do
            lv = self.levels(tuple(m), shifts) if key is None else map(bisect_right, jumps, pairings)
            key = sum(map(mul, lv, powers))
            for line, (lo, hi) in enumerate(ends):
                if line:
                    pairings = list(map(add, pairings, advance))
                    if lo != last_lo:
                        pairings = [b + (lo - last_lo) * a for b, a in zip(pairings, along)]
                    key = sum(map(mul, map(bisect_right, jumps, pairings), powers))
                last_lo = lo
                if lo > hi:
                    continue
                # cuts at u = 0 are in the start key, and u = length ends the line
                length = hi - lo + 1
                cuts = []
                for k, slope, step, t in sloped:
                    u = (t - pairings[k]) // slope + 1
                    if 0 < u < length:
                        cuts.append((u, step))
                cuts.sort()
                prev = 0
                for u, step in cuts:
                    if u > prev:
                        counts[key] = get(key, 0) + u - prev
                        prev = u
                    key += step
                counts[key] = get(key, 0) + length - prev
        return counts

    def _at(self, counts, name: str):
        """The local number ``name`` at each key of ``counts``, one cache
        lookup each.  A key not cached yet goes through the method looked up
        by name, so a wrapper put on the class attribute sees the call."""
        cache = self._local[name]
        local = getattr(self, name)
        for key in counts.keys() - cache.keys():
            local(self._unpack(key))
        return map(cache.__getitem__, counts)

    def _total(self, counts: dict[int, int], name: str) -> int:
        return sum(map(mul, counts.values(), self._at(counts, name)))

    @cached_property
    def _support_bounds(self) -> tuple[tuple[tuple[int, ...], ...], ...]:
        """The bounds <m, rho> >= i_1 - shift of the h^0 support polytope and
        <m, rho> < i_top - shift of the h^n one, each constant a form over
        the class coordinates (1, c): the shifts are linear in c."""
        v = self.variety
        units = zip(*(v.twist_divisor([int(i == j) for i in range(v.class_rank)])
                      for j in range(v.class_rank)))
        h0, hn = [], []
        for ray, js, u in zip(v.rays, self._jumps, units):
            h0.append((-js[0],) + u + ray)
            hn.append((js[-1] - 1,) + tuple(-x for x in u + ray))
        return tuple(h0), tuple(hn)

    @cached_property
    def _crossable(self) -> tuple[tuple[tuple[int, ...], ...], ...]:
        """Per ray, the jumps a line can cross in the h^0 support polytope,
        those > i_1, and in the h^n one, those < i_top."""
        return (
            tuple(js[bisect_right(js, js[0]):] for js in self._jumps),
            tuple(js[:bisect_left(js, js[-1])] for js in self._jumps),
        )

    def h0_twisted(self, c: Sequence[int]) -> int:
        return self._total(self._counts(c, 0), "h0")

    def hn_twisted(self, c: Sequence[int]) -> int:
        return self._total(self._counts(c, 1), "hn")

    def chi_twisted(self, c: Sequence[int]) -> int:
        return self._total(self._counts(c), "chi")

    def cech_twisted(self, c: Sequence[int]) -> tuple[int, ...]:
        counts = self._counts(c)
        # a box is never empty, so zip gives all dim + 1 columns
        return tuple(sum(map(mul, counts.values(), h)) for h in zip(*self._at(counts, "cech")))

    def h1_identity_twisted(self, c: Sequence[int]) -> int:
        """h^0 + h^n - chi, which is h^1 on a surface."""
        counts = self._counts(c)
        return self._total(counts, "h0") + self._total(counts, "hn") - self._total(counts, "chi")

    def _check_levels(self, levels: Sequence[int]) -> tuple[int, ...]:
        """The level tuple of a public call, one int per ray in 0..rank."""
        return strict_ints(levels, "level tuple entry", len(self._jumps), "level tuple", 0, self.rank)

    def piece(self, rayset: Sequence[int], levels: Sequence[int]) -> Subspace:
        rayset = strict_ints(rayset, "ray index", lo=0, hi=len(self._jumps) - 1)
        return self._piece(rayset, self._check_levels(levels))

    def _piece(self, rayset: tuple[int, ...], levels: tuple[int, ...]) -> Subspace:
        if not rayset:
            return Subspace.full(self.rank)
        key = (rayset, tuple(levels[k] for k in rayset))
        cached = self._pieces.get(key)
        if cached is not None:
            return cached
        if any(levels[k] == 0 for k in rayset):
            result = Subspace.zero(self.rank)
        else:
            result = intersect(
                [self.sheaf.filtrations[k].space_at_level(levels[k]) for k in rayset]
            )
        self._pieces[key] = result
        return result

    @_local_number
    def h0(self, levels: Sequence[int]) -> int:
        return self._piece(tuple(range(self.variety.ray_count)), levels).dim

    @_local_number
    def hn(self, levels: Sequence[int]) -> int:
        spaces = [f.space_at_level(lv) for f, lv in zip(self.sheaf.filtrations, levels)]
        return self.rank - subspace_sum(spaces).dim

    @_local_number
    def chi(self, levels: Sequence[int]) -> int:
        return sum((-1) ** k * self._piece(rs, levels).dim
                   for k, cones in enumerate(self._quotient_chain(levels)) for rs in cones)

    def _quotient_chain(self, levels: tuple[int, ...]):
        """The terms of the complex that ``cech`` ranks and ``chi`` sums at
        these levels: the cones outside the closed star of the ray whose
        space is the whole fibre and which leaves the fewest, or every cone
        when no ray's is."""
        full = [chain for k, chain in enumerate(self.variety._fan.outside_stars)
                if self._piece((k,), levels).dim == self.rank]
        return min(full, key=lambda chain: sum(map(len, chain)), default=self._chain_cones)

    @_local_number
    def cech(self, levels: Sequence[int]) -> tuple[int, ...]:
        chain = self._quotient_chain(levels)
        return _complex(chain, [[self._piece(rs, levels) for rs in cones] for cones in chain])


@lru_cache(maxsize=64)
def _engine(sheaf: EquivariantReflexiveSheaf) -> SheafCohomology:
    """One engine per sheaf for the module-level functions here and in
    hilbert, so repeated calls share its cached cone pieces and local numbers."""
    return SheafCohomology(sheaf)


def sigma_piece(sheaf: EquivariantReflexiveSheaf, cone: Cone, m: Sequence[int]) -> Subspace:
    """Sections over the cone's affine piece in degree m; full for the zero cone."""
    rays = sheaf.variety.check_cone(cone).ray_indices
    engine = _engine(sheaf)
    return engine._piece(rays, engine.levels(m))


def euler_characteristic(sheaf: EquivariantReflexiveSheaf, c: Sequence[int]) -> int:
    return _engine(sheaf).chi_twisted(c)
