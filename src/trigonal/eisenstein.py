"""
The Eisenstein integer a + b*tau as a value object, with tau^2 = tau - 1.

No command computes with it: `lattice` holds every element of Z[tau] as an
integer pair (a, b) and states the ring's facts on pairs.  This class is
left only to the 10x10 matrices of `lattice.word_matrix`, `triflection`
and `compose`, which no command builds, and which import this module when
they are called.  It keeps what those matrices use: +, * and truth.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True, slots=True)
class EisensteinInt:
    """The Eisenstein integer a + b*tau, with tau^2 = tau - 1.

    Instances are immutable value objects: they hash, compare by value with
    each other, and support + and * against each other and against plain
    ints.
    """

    a: int
    b: int = 0

    def __add__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return EisensteinInt(self.a + other.a, self.b + other.b)

    __radd__ = __add__

    def __mul__(self, other):
        # (a + b tau)(c + d tau) = ac - bd + (ad + bc + bd) tau
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        a, b, c, d = self.a, self.b, other.a, other.b
        return EisensteinInt(a * c - b * d, a * d + b * c + b * d)

    __rmul__ = __mul__

    def __bool__(self):
        return self.a != 0 or self.b != 0


def _coerce(x):
    if isinstance(x, EisensteinInt):
        return x
    if isinstance(x, int):
        return EisensteinInt(x, 0)
    return NotImplemented


ZERO = EisensteinInt(0, 0)
