"""Hamilton quaternions with the symplectic complex-pair view.

Every quaternion splits uniquely as q = c1 + j*c2 with complex c1, c2 and
the imaginary unit j acting from the left.  With the embedding used here,

    c1 = w + x*i,    c2 = y - z*i,

so that j*c = conj(c)*j for any complex c.  The radial solutions of the
quaternionic well are assembled and torn apart through exactly this split,
which is why it lives next to the algebra.
"""

from __future__ import annotations

import math
from dataclasses import dataclass


@dataclass(frozen=True, slots=True)
class Quaternion:
    """Real quaternion w + x*i + y*j + z*k."""

    w: float = 0.0
    x: float = 0.0
    y: float = 0.0
    z: float = 0.0

    def __add__(self, other: "Quaternion") -> "Quaternion":
        if not isinstance(other, Quaternion):
            return NotImplemented
        return Quaternion(self.w + other.w, self.x + other.x,
                          self.y + other.y, self.z + other.z)

    def __sub__(self, other: "Quaternion") -> "Quaternion":
        if not isinstance(other, Quaternion):
            return NotImplemented
        return Quaternion(self.w - other.w, self.x - other.x,
                          self.y - other.y, self.z - other.z)

    def __neg__(self) -> "Quaternion":
        return Quaternion(-self.w, -self.x, -self.y, -self.z)

    def __mul__(self, other) -> "Quaternion":
        if isinstance(other, Quaternion):
            return Quaternion(*hamilton_product((self.w, self.x, self.y, self.z),
                                                (other.w, other.x, other.y, other.z)))
        if isinstance(other, (int, float, complex)):
            return self * _embed(other)
        return NotImplemented

    def __rmul__(self, other) -> "Quaternion":
        # scalars and complex numbers multiply from the left; the order
        # matters because complex numbers do not commute past j
        if isinstance(other, (int, float, complex)):
            return _embed(other) * self
        return NotImplemented

    def conjugate(self) -> "Quaternion":
        return Quaternion(self.w, -self.x, -self.y, -self.z)

    def norm(self) -> float:
        return math.hypot(self.w, self.x, self.y, self.z)

    __abs__ = norm

    def norm_sq(self) -> float:
        return self.w * self.w + self.x * self.x + self.y * self.y + self.z * self.z

    def inverse(self) -> "Quaternion":
        n2 = self.norm_sq()
        if n2 == 0.0:
            raise ZeroDivisionError("zero quaternion has no inverse")
        return Quaternion(self.w / n2, -self.x / n2, -self.y / n2, -self.z / n2)


def hamilton_product(p, q):
    """Components (w, x, y, z) of the Hamilton product p*q.

    p and q are component quadruples (w, x, y, z).  Only + - * are used, so
    the components may be floats or equally shaped numpy arrays; an array of
    shape (4, N) holds N quaternions, one per column.
    """
    a, b, c, d = p
    e, f, g, h = q
    return (a * e - b * f - c * g - d * h,
            a * f + b * e + c * h - d * g,
            a * g - b * h + c * e + d * f,
            a * h + b * g - c * f + d * e)


def _embed(c) -> Quaternion:
    c = complex(c)
    return Quaternion(c.real, c.imag, 0.0, 0.0)


def symplectic_split(q: Quaternion) -> tuple[complex, complex]:
    """Complex pair (c1, c2) with q = c1 + j*c2."""
    return complex(q.w, q.x), complex(q.y, -q.z)


def symplectic_join(c1: complex, c2: complex) -> Quaternion:
    """Quaternion c1 + j*c2 from its complex pair."""
    c1, c2 = complex(c1), complex(c2)
    return Quaternion(c1.real, c1.imag, c2.real, -c2.imag)


ZERO = Quaternion()
ONE = Quaternion(1.0)
I = Quaternion(0.0, 1.0)
J = Quaternion(0.0, 0.0, 1.0)
K = Quaternion(0.0, 0.0, 0.0, 1.0)
