"""Complex canonical form of pure-imaginary quaternionic eigenvalues.

An anti-self-adjoint operator on a right quaternionic Hilbert space has
pure-imaginary right eigenvalues, defined only up to a unitary automorphism
lam -> conj(u) * lam * u.  Each automorphism class contains exactly one
representative on the positive imaginary axis, i*|lam|, so a stationary
state can always be rotated to carry an ordinary complex energy phase.
`canonicalize` builds a unit quaternion u that realizes that rotation for
lam = i*e1 + j*e2 + k*e3.  (The time-evolution eigenvalue of the physical
problem is the negative of this quaternion; the same u canonicalizes it to
-i*|lam| by linearity.)
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .quaternion import Quaternion

_UNIT_TOL = 1e-12


@dataclass(frozen=True)
class ImaginaryEigenvalue:
    """Component triple of a pure-imaginary eigenvalue i*e1 + j*e2 + k*e3."""

    e1: float
    e2: float
    e3: float

    @property
    def norm(self) -> float:
        return math.hypot(self.e1, self.e2, self.e3)

    def as_quaternion(self) -> Quaternion:
        return Quaternion(0.0, self.e1, self.e2, self.e3)


@dataclass(frozen=True)
class CanonicalForm:
    """Energy |lam| and the unit u with conj(u) * lam * u = i*|lam|."""

    energy: float
    u: Quaternion


def apply_automorphism(lam: Quaternion, u: Quaternion) -> Quaternion:
    """conj(u) * lam * u for unit u and pure-imaginary lam.

    Raises ValueError when u is not unit to 1e-12 or lam has a scalar part.
    """
    if abs(u.norm() - 1.0) > _UNIT_TOL:
        raise ValueError(f"automorphism quaternion must be unit, |u| = {u.norm()!r}")
    if abs(lam.w) > _UNIT_TOL * max(1.0, lam.norm()):
        raise ValueError("eigenvalue must be pure imaginary (zero scalar part)")
    return u.conjugate() * lam * u


def canonical_rotation(e1, e2, e3):
    """Energy n = |lam| and unit u rotating lam = i*e1 + j*e2 + k*e3 onto +i*n.

    The generic rotation is

        u = sqrt((e1 + n) / (2n)) * [1 - j*(e3 + i*e2)/(e1 + n)],

    which degenerates on the -i ray itself.  Away from it, e1 + n is
    evaluated cancellation-free as (e2^2 + e3^2)/(n - e1), keeping the
    formula accurate arbitrarily close to the ray; the fixed rotation u = j
    (conj(j) * (-i n) * j = i n) takes over only once the transverse
    component it leaves unrotated, sqrt(e2^2 + e3^2) <= sqrt(2n * shifted),
    is below rounding level.  The zero eigenvalue maps to (0, 1).

    Works elementwise on floats or broadcastable arrays and returns
    (n, (w, x, y, z)) with the components of u as float arrays.
    """
    e1, e2, e3 = np.broadcast_arrays(*(np.asarray(e, dtype=float) for e in (e1, e2, e3)))
    n = np.hypot(np.hypot(e1, e2), e3)
    zero = n == 0.0
    # the n = 0 entries divide 0 by 0 here and are masked out below
    with np.errstate(all="ignore"):
        shifted = np.where(e1 >= 0.0, e1 + n, (e2 * e2 + e3 * e3) / (n - e1))
        on_ray = shifted < 1e-26 * n
        scale = np.sqrt(shifted / (2.0 * n))
        y = scale * (-e3 / shifted)
        z = -(scale * (-e2 / shifted))
    generic = ~(zero | on_ray)
    w = np.where(generic, scale, np.where(zero, 1.0, 0.0))
    y = np.where(generic, y, np.where(on_ray, 1.0, 0.0))
    z = np.where(generic, z, 0.0)
    return n, (w, np.zeros_like(n), y, z)


def canonicalize(ev: ImaginaryEigenvalue) -> CanonicalForm:
    """Unit u rotating i*e1 + j*e2 + k*e3 onto the +i axis.

    The one-eigenvalue case of `canonical_rotation`, in Python floats.
    """
    n, u = canonical_rotation(ev.e1, ev.e2, ev.e3)
    return CanonicalForm(float(n), Quaternion(*map(float, u)))
