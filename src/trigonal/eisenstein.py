"""
Exact arithmetic in the ring of Eisenstein integers Z[tau].

Here tau is a primitive sixth root of unity, so tau^2 = tau - 1.  Elements
are stored as coefficient pairs (a, b) meaning a + b*tau.  Coefficients are
plain Python integers, hence arbitrary precision: arithmetic is always exact
and can never overflow or wrap.

The element theta = tau - conj(tau) = -1 + 2*tau satisfies theta^2 = -3 and
generates the unique prime ideal above 3.  The quotient map onto the residue
field F_3 sends a + b*tau to (a - b) mod 3; in particular tau maps to -1.
Division by theta is done through the exact identity 1/theta = -theta/3.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True, slots=True)
class EisensteinInt:
    """The Eisenstein integer a + b*tau, with tau^2 = tau - 1.

    Instances are immutable value objects: they hash, compare by value with
    each other, negate, and support + and * against each other and against
    plain ints.
    """

    a: int
    b: int = 0

    # -- ring structure ----------------------------------------------------

    def __add__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return EisensteinInt(self.a + other.a, self.b + other.b)

    __radd__ = __add__

    def __neg__(self):
        return EisensteinInt(-self.a, -self.b)

    def __mul__(self, other):
        # (a + b tau)(c + d tau) = ac - bd + (ad + bc + bd) tau
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        a, b, c, d = self.a, self.b, other.a, other.b
        return EisensteinInt(a * c - b * d, a * d + b * c + b * d)

    __rmul__ = __mul__

    # -- involution and norm ------------------------------------------------

    def conj(self) -> "EisensteinInt":
        """Complex conjugate: conj(a + b*tau) = (a + b) - b*tau."""
        return EisensteinInt(self.a + self.b, -self.b)

    def norm(self) -> int:
        """The multiplicative norm a^2 + ab + b^2 = x * conj(x) >= 0."""
        return self.a * self.a + self.a * self.b + self.b * self.b

    # -- value semantics ----------------------------------------------------

    def __bool__(self):
        return self.a != 0 or self.b != 0

    # -- serialization -------------------------------------------------------

    def to_json(self) -> list:
        return [self.a, self.b]


def _coerce(x):
    if isinstance(x, EisensteinInt):
        return x
    if isinstance(x, int):
        return EisensteinInt(x, 0)
    return NotImplemented


ZERO = EisensteinInt(0, 0)
ONE = EisensteinInt(1, 0)
TAU = EisensteinInt(0, 1)
TAU2 = TAU * TAU                 # = tau - 1, a primitive cube root of unity
THETA = EisensteinInt(-1, 2)     # = tau - conj(tau), theta^2 = -3


def _quotient(x: EisensteinInt, d: EisensteinInt) -> EisensteinInt | None:
    """x/d when d divides x, else None.  Exact: the quotient is
    x*conj(d)/norm(d), for d = theta the identity 1/theta = -theta/3."""
    d = _coerce(d)
    x = _coerce(x)
    n = d.norm()
    if n == 0:
        raise ZeroDivisionError("division by zero in EisensteinInt")
    t = x * d.conj()
    if t.a % n or t.b % n:
        return None
    return EisensteinInt(t.a // n, t.b // n)


def divides(d: EisensteinInt, x: EisensteinInt) -> bool:
    """Whether d divides x in the ring."""
    return _quotient(x, d) is not None


def div_exact(x: EisensteinInt, d: EisensteinInt) -> EisensteinInt:
    """The quotient x/d, raising ValueError if d does not divide x."""
    q = _quotient(x, d)
    if q is None:
        raise ValueError(f"{d!r} does not divide {x!r}")
    return q


def reduce_mod_theta(x: EisensteinInt) -> int:
    """The residue of x in F_3 = Z[tau]/theta, as an int in {0, 1, 2}.

    This is a ring homomorphism with kernel theta*Z[tau]; tau maps to 2.
    """
    x = _coerce(x)
    return (x.a - x.b) % 3
