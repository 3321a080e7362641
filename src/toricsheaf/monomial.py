"""Cone pieces of monomial ideals on projective space.

A monomial ideal in the homogeneous coordinate ring of P^n is torsion free,
and the dimension of its degree-m piece over a cone's affine chart is 0 or 1:
the piece is spanned by the monomial with exponents <m, n(rho)> and is
nonzero exactly when some generator divides it after the variables outside
the cone are inverted.  This gives a purely combinatorial oracle for the
general machinery.
"""
from __future__ import annotations

from collections.abc import Sequence
from functools import cached_property

from .toric import Cone, FrozenValue, ToricVariety, projective_space, strict_int, strict_ints


class MonomialIdeal(FrozenValue):
    n: int
    generators: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if strict_int(self.n, "projective dimension") < 1:
            raise ValueError("need projective dimension n >= 1")
        object.__setattr__(self, "generators", tuple(
            strict_ints(g, "generator exponent", self.n + 1, "generator exponents")
            for g in self.generators
        ))
        if not self.generators:
            raise ValueError("need at least one generator")
        if any(e < 0 for g in self.generators for e in g):
            raise ValueError("generator exponents must be non-negative")

    @cached_property
    def variety(self) -> ToricVariety:
        """P^n, built once per ideal, so its cone list is built once."""
        return projective_space(self.n)


def sigma_piece_dim(ideal: MonomialIdeal, cone: Cone, m: Sequence[int]) -> int:
    """1 when some generator divides x^phi(m) in the cone's chart, else 0.

    Only exponents on rays of the cone constrain divisibility; the other
    variables are invertible there.
    """
    v = ideal.variety
    rays = v.check_cone(cone).ray_indices
    embedded = v.character_embedding(m)
    for g in ideal.generators:
        if all(g[k] <= embedded[k] for k in rays):
            return 1
    return 0
