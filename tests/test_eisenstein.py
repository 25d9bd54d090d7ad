"""Ring arithmetic: pinned values first, then algebraic laws."""

from hypothesis import given, strategies as st

from trigonal.eisenstein import (
    ZERO, ONE, TAU, TAU2, THETA,
    EisensteinInt, div_exact, divides, reduce_mod_theta,
)

import pytest


coeff = st.integers(min_value=-10**6, max_value=10**6)
elements = st.builds(EisensteinInt, coeff, coeff)


def test_defining_relation():
    assert TAU * TAU == EisensteinInt(-1, 1)
    assert TAU * TAU == TAU + -1
    assert TAU2 == TAU * TAU


def test_theta():
    assert THETA == -1 + 2 * TAU
    assert THETA == TAU + -TAU.conj()
    assert THETA * THETA == EisensteinInt(-3)
    assert THETA.conj() == -THETA
    assert THETA.norm() == 3


def test_conjugation_values():
    assert TAU.conj() == 1 + -TAU
    assert TAU * TAU.conj() == ONE
    assert EisensteinInt(2, 5).conj() == EisensteinInt(7, -5)


def test_norm_values():
    # norm(a + b*tau) = a^2 + ab + b^2
    assert ZERO.norm() == 0
    assert (1 + TAU).norm() == 3
    assert EisensteinInt(2, -1).norm() == 4 - 2 + 1


def test_units_are_the_six_torsion_elements():
    us = {ONE, -ONE, TAU, -TAU, TAU2, -TAU2}
    assert len(us) == 6
    for u in us:
        assert u.norm() == 1 and u * u * u * u * u * u == ONE
    # closed under multiplication
    for u in us:
        for v in us:
            assert u * v in us
    # and these are the only norm-one elements with small coefficients
    for a in range(-3, 4):
        for b in range(-3, 4):
            x = EisensteinInt(a, b)
            assert (x.norm() == 1) == (x in us)


def test_reduction_mod_theta():
    assert reduce_mod_theta(TAU) == 2
    assert reduce_mod_theta(THETA) == 0
    assert reduce_mod_theta(EisensteinInt(4)) == 1
    assert reduce_mod_theta(ONE) == 1


def test_divisibility():
    assert not divides(EisensteinInt(3), THETA)
    assert divides(THETA, EisensteinInt(3))
    assert div_exact(EisensteinInt(3), THETA) == -THETA
    assert div_exact(THETA * EisensteinInt(7, -2), THETA) == EisensteinInt(7, -2)
    with pytest.raises(ValueError, match="does not divide"):
        div_exact(ONE, EisensteinInt(2))
    with pytest.raises(ZeroDivisionError):
        divides(ZERO, ONE)


def test_immutability_and_hash():
    x = EisensteinInt(1, 2)
    with pytest.raises(AttributeError):
        x.a = 5
    assert hash(EisensteinInt(1, 2)) == hash(EisensteinInt(1, 2))


def test_json_round_trip():
    # the serialized pair is exactly the constructor's arguments
    x = EisensteinInt(-12, 35)
    assert x.to_json() == [-12, 35]
    assert EisensteinInt(*x.to_json()) == x


@given(elements, elements, elements)
def test_ring_axioms(x, y, z):
    assert (x + y) + z == x + (y + z)
    assert x + y == y + x
    assert (x * y) * z == x * (y * z)
    assert x * y == y * x
    assert x * (y + z) == x * y + x * z
    assert x + ZERO == x
    assert x * ONE == x
    assert x + -x == ZERO


@given(elements, elements)
def test_norm_is_multiplicative(x, y):
    assert (x * y).norm() == x.norm() * y.norm()
    assert x.norm() == (x * x.conj()).a
    assert (x * x.conj()).b == 0


@given(elements, elements)
def test_conjugation_is_a_ring_involution(x, y):
    assert (x + y).conj() == x.conj() + y.conj()
    assert (x * y).conj() == x.conj() * y.conj()
    assert x.conj().conj() == x


@given(elements, elements)
def test_reduction_is_a_ring_homomorphism(x, y):
    assert reduce_mod_theta(x + y) == (reduce_mod_theta(x) + reduce_mod_theta(y)) % 3
    assert reduce_mod_theta(x * y) == (reduce_mod_theta(x) * reduce_mod_theta(y)) % 3


@given(elements)
def test_lift_inverts_reduction_up_to_theta(x):
    # the integer r in {0, 1, 2} lifts the residue r
    r = reduce_mod_theta(x)
    assert divides(THETA, x + -r)
    assert reduce_mod_theta(EisensteinInt(r)) == r


@given(elements, elements)
def test_exact_division(x, d):
    if d == ZERO:
        return
    assert divides(d, x * d)
    assert div_exact(x * d, d) == x
