"""Klyachko filtrations and equivariant reflexive sheaves.

A sheaf of rank l on one of the supported varieties is given by one
increasing filtration of Q^l per ray: integer jump positions i_1 <= ... <= i_l
together with subspaces E_1 <= ... <= E_l = Q^l, subject to
i_j = i_{j+1} exactly when E_j = E_{j+1}.  The filtration evaluates to 0 below
i_1, to E_j on [i_j, i_{j+1}) and to the full space from i_l on.

A filtration that breaks these rules can be built; it finds once which,
and ``level`` and ``evaluate`` refuse it.  ``validate`` lists them per ray,
and ``EquivariantReflexiveSheaf.jumps``, the one view of the jumps for every
other reader of their order, refuses a sheaf that ``validate`` faults.
"""
from __future__ import annotations

from bisect import bisect_right
from collections.abc import Sequence
from functools import cached_property

from .rational_linalg import Subspace
from .toric import FrozenValue, ToricVariety, ordered, split_data, strict_int, strict_ints


class KlyachkoFiltration(FrozenValue):
    jumps: tuple[int, ...]
    spaces: tuple[Subspace, ...]

    def __post_init__(self):
        object.__setattr__(self, "jumps", strict_ints(self.jumps, "jump"))
        object.__setattr__(self, "spaces", ordered(self.spaces, "filtration spaces", Subspace))
        if len(self.jumps) != len(self.spaces):
            raise ValueError("need one subspace per jump")
        if not self.jumps:
            raise ValueError("a filtration needs at least one jump")
        ambient = self.spaces[0].ambient_dim
        if any(s.ambient_dim != ambient for s in self.spaces):
            raise ValueError("all filtration spaces must share one ambient space")

    @property
    def rank(self) -> int:
        return len(self.jumps)

    @property
    def ambient_dim(self) -> int:
        return self.spaces[0].ambient_dim

    @cached_property
    def _problems(self) -> tuple[str, ...]:
        """The filtration rules this one breaks, found once."""
        problems: list[str] = []
        if any(self.jumps[i] > self.jumps[i + 1] for i in range(self.rank - 1)):
            problems.append(f"jumps not weakly increasing: {self.jumps}")
        if not self.spaces[-1].is_full:
            problems.append("last space is not the full ambient space")
        for i in range(self.rank - 1):
            lo, hi = self.spaces[i], self.spaces[i + 1]
            if not hi.contains_subspace(lo):
                problems.append(f"space {i + 1} not contained in space {i + 2}")
            equal_jumps = self.jumps[i] == self.jumps[i + 1]
            equal_spaces = lo == hi
            if equal_jumps != equal_spaces:
                problems.append(
                    f"jump/space coincidence violated at position {i + 1}: "
                    f"jumps {'equal' if equal_jumps else 'differ'}, "
                    f"spaces {'equal' if equal_spaces else 'differ'}"
                )
        return tuple(problems)

    def level(self, i: int) -> int:
        """Number of jumps <= i; 0 means the zero subspace."""
        if self._problems:
            raise ValueError("; ".join(self._problems))
        return bisect_right(self.jumps, strict_int(i, "filtration position"))

    def space_at_level(self, level: int) -> Subspace:
        """E_level, the zero space at level 0; levels run over 0..rank."""
        if strict_int(level, "filtration level", 0, self.rank) == 0:
            return Subspace.zero(self.ambient_dim)
        return self.spaces[level - 1]

    def evaluate(self, i: int) -> Subspace:
        """The filtration subspace at position i."""
        return self.space_at_level(self.level(i))

    def shifted(self, offset: int) -> "KlyachkoFiltration":
        """Same spaces with every jump moved by -offset (twist by a_ray = offset).
        A shift keeps every rule, so the shift of a filtration with no
        problems starts with none; one with problems finds its own afresh,
        whose messages name its jumps."""
        if strict_int(offset, "offset") == 0:
            return self
        moved = KlyachkoFiltration(tuple(j - offset for j in self.jumps), self.spaces)
        if not self._problems:
            object.__setattr__(moved, "_problems", ())
        return moved


class EquivariantReflexiveSheaf(FrozenValue):
    variety: ToricVariety
    filtrations: tuple[KlyachkoFiltration, ...]

    def __post_init__(self):
        if not isinstance(self.variety, ToricVariety):
            raise ValueError(f"variety must be a ToricVariety, got {type(self.variety).__name__}")
        object.__setattr__(self, "filtrations",
                           ordered(self.filtrations, "filtrations", KlyachkoFiltration))
        if len(self.filtrations) != self.variety.ray_count:
            raise ValueError("need exactly one filtration per ray")
        for f in self.filtrations:
            if f.rank != self.rank or f.ambient_dim != self.rank:
                raise ValueError("filtration length and ambient must equal the rank")
        object.__setattr__(self, "_hash", hash((self.variety, self.filtrations)))

    def __hash__(self) -> int:
        return self._hash

    @property
    def rank(self) -> int:
        """The rank l: every filtration has l jumps in Q^l."""
        return self.filtrations[0].rank

    @cached_property
    def jumps(self) -> tuple[tuple[int, ...], ...]:
        """Each ray's jumps, for every reader of their order; a sheaf that
        ``validate`` faults is refused with its problems."""
        problems = validate(self)
        if problems:
            raise ValueError("; ".join(problems))
        return tuple(f.jumps for f in self.filtrations)


def line_bundle(variety: ToricVariety, divisor_coeffs: Sequence[int]) -> EquivariantReflexiveSheaf:
    """O(D) for D = sum a_ray D_ray: rank 1, jump -a_ray, full space, per ray."""
    coeffs = strict_ints(divisor_coeffs, "divisor coefficient",
                         variety.ray_count, "divisor coefficients")
    full = Subspace.full(1)
    filts = tuple(KlyachkoFiltration((-a,), (full,)) for a in coeffs)
    return EquivariantReflexiveSheaf(variety, filts)


def structure_sheaf(variety: ToricVariety) -> EquivariantReflexiveSheaf:
    return line_bundle(variety, [0] * variety.ray_count)


def twist(sheaf: EquivariantReflexiveSheaf, c: Sequence[int]) -> EquivariantReflexiveSheaf:
    """Twist by a class element, using the fixed divisor representative."""
    coeffs = sheaf.variety.twist_divisor(c)
    filts = tuple(f.shifted(a) for f, a in zip(sheaf.filtrations, coeffs))
    return EquivariantReflexiveSheaf(sheaf.variety, filts)


def delta_normalization(
    sheaf: EquivariantReflexiveSheaf,
) -> tuple[tuple[int, int], EquivariantReflexiveSheaf]:
    """Normalizing twist for a split-bundle sheaf.

    Returns the class delta of the divisor sum(top_jump(ray) * D_ray) together
    with the twist of the sheaf by that divisor, whose top jumps all vanish.
    Twisting by any other representative of delta yields the same sheaf up to
    re-indexing the characters, so all class-graded dimensions agree.
    """
    v = sheaf.variety
    split_data(v)  # raises UnsupportedVarietyError off the split bundles
    top = [js[-1] for js in sheaf.jumps]
    delta = v.divisor_class(top)
    filts = tuple(map(KlyachkoFiltration.shifted, sheaf.filtrations, top))
    return delta, EquivariantReflexiveSheaf(v, filts)


class PresentationDegrees(FrozenValue):
    """Multidegrees of a presentation: generators mu^j, relations m^i."""

    generator_degrees: tuple[tuple[int, ...], ...]
    relation_degrees: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        for name in ("generator_degrees", "relation_degrees"):
            degrees = ordered(getattr(self, name), name.replace("_", " "))
            object.__setattr__(self, name, tuple(strict_ints(d, "presentation degree") for d in degrees))
        if len({len(d) for d in self.generator_degrees + self.relation_degrees}) > 1:
            raise ValueError("all degree vectors must have the same length")


def jump_bounds_from_presentation(pres: PresentationDegrees) -> list[tuple[int, int]]:
    """Per-ray interval [lo, hi] containing all jumps of any such quotient.

    lo = -max over generator degrees; hi = -min over relation degrees, falling
    back to -min over generator degrees when there are no relations.
    """
    if not pres.generator_degrees:
        raise ValueError("presentation needs at least one generator degree")
    nrays = len(pres.generator_degrees[0])
    bounds = []
    for k in range(nrays):
        lo = -max(g[k] for g in pres.generator_degrees)
        if pres.relation_degrees:
            hi = -min(m[k] for m in pres.relation_degrees)
        else:
            hi = -min(g[k] for g in pres.generator_degrees)
        bounds.append((lo, hi))
    return bounds


def validate(sheaf: EquivariantReflexiveSheaf) -> list[str]:
    """Check every filtration invariant; returns diagnostics, empty when valid."""
    return [
        f"ray {name}: {problem}"
        for name, f in zip(sheaf.variety.ray_names, sheaf.filtrations)
        for problem in f._problems
    ]
