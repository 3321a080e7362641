"""Unit tests for the monomial-ideal cone pieces on projective space."""
import pytest

from toricsheaf import MonomialIdeal, line_bundle, projective_space, sigma_piece, sigma_piece_dim
from toricsheaf.toric import Cone

IDEAL = MonomialIdeal(2, ((0, 0, 2), (1, 0, 1), (1, 1, 0)))   # (x2^2, x0 x2, x0 x1)
P2 = projective_space(2)


def cone_of(*ray_indices):
    return Cone(tuple(ray_indices), P2.dim - len(ray_indices))


@pytest.mark.parametrize("cone", [
    Cone((5,), 1),         # no such ray
    Cone((-1,), 1),        # a negative index, which would read the last ray
    Cone((0, 1, 2), -1),   # every ray of P^2: not a cone
    Cone((0,), 0),         # a ray with the wrong codimension
])
def test_sigma_piece_dim_refuses_a_cone_outside_the_fan(cone):
    with pytest.raises(ValueError, match="is not a cone of the fan"):
        sigma_piece_dim(IDEAL, cone, (0, 0))


def test_rho0_condition():
    cone = cone_of(0)
    for d1 in range(-10, 11):
        for d2 in range(-10, 11):
            expected = 1 if -d1 - d2 >= 0 else 0
            assert sigma_piece_dim(IDEAL, cone, (d1, d2)) == expected


def test_sigma0_condition():
    cone = cone_of(1, 2)
    for d1 in range(-10, 11):
        for d2 in range(-10, 11):
            expected = 1 if (d1 == 0 and d2 >= 1) or (d1 >= 1 and d2 >= 0) else 0
            assert sigma_piece_dim(IDEAL, cone, (d1, d2)) == expected


def test_sigma2_condition():
    cone = cone_of(0, 1)
    for d1 in range(-10, 11):
        for d2 in range(-10, 11):
            expected = 1 if (-d1 - d2 >= 0 and d1 >= 0) else 0
            assert sigma_piece_dim(IDEAL, cone, (d1, d2)) == expected


def test_zero_cone_always_one():
    zero = cone_of()
    for m in ((0, 0), (5, -7), (-10, 10)):
        assert sigma_piece_dim(IDEAL, zero, m) == 1


def test_restriction_compatibility():
    """Pieces can only shrink when the cone grows."""
    cones = P2.cones()
    for sigma in cones:
        for tau in cones:
            if set(tau.ray_indices) <= set(sigma.ray_indices):
                for d1 in range(-5, 6):
                    for d2 in range(-5, 6):
                        assert sigma_piece_dim(IDEAL, sigma, (d1, d2)) <= sigma_piece_dim(
                            IDEAL, tau, (d1, d2)
                        )


def test_principal_ideal_matches_line_bundle():
    """(x0^2 x1) behaves like O(-2 D_rho0 - D_rho1) on every cone."""
    principal = MonomialIdeal(2, ((2, 1, 0),))
    bundle = line_bundle(P2, (-2, -1, 0))
    for cone in P2.cones():
        for d1 in range(-6, 7):
            for d2 in range(-6, 7):
                expected = sigma_piece(bundle, cone, (d1, d2)).dim
                assert sigma_piece_dim(principal, cone, (d1, d2)) == expected


def test_input_validation():
    with pytest.raises(ValueError):
        MonomialIdeal(2, ())
    with pytest.raises(ValueError):
        MonomialIdeal(2, ((1, 0),))
    with pytest.raises(ValueError):
        MonomialIdeal(2, ((-1, 0, 0),))
