"""Radial solutions of the quaternionic spherical square well (l = 0).

Reduced radial function U(r) = r*R(r), units with hbar^2/(2m) = 1.  Inside
the well (r < a) the potential vanishes and

    U_I(r) = sin(eps*r)*alpha1 + j*sinh(eps*r)*gamma1,   eps = sqrt(E),

which vanishes at the origin by construction.  Outside (r > a) the constant
quaternionic potential i*V1 + j*V2 + k*V3 admits the damped bound solution

    U_II(r) = (1 + j*w)*exp(-nu_minus*r)*beta2 + (z + j)*exp(-nu_plus*r)*delta2

with characteristic exponents nu_pm = sqrt(V1 +- sqrt(E^2 - V2^2 - V3^2))
(principal branch, Re nu_pm > 0 in the bound regimes) and the symplectic
coupling factors

    w = -i*(V2 - i*V3)/(E + S),   z = i*(V2 + i*V3)/(E + S),
    S = sqrt(E^2 - V2^2 - V3^2).

Below the pure-quaternionic threshold E < sqrt(V2^2 + V3^2) the square root
S turns imaginary: the exponents become an exact conjugate pair and |z*w|
pins to one.  Matching value and slope at r = a fixes the coefficients up
to one complex scale, which is gauged away and absorbed into the unit
radial norm.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .quaternion import I, ZERO, Quaternion, symplectic_join

# half-width of the excluded energy band around the two regime thresholds
DEGENERATE_HALF_WIDTH = 1e-9

_TRIG_FLOOR = 1e-10   # below this, coefficient recovery switches to the slope pair
_TINY = 1e-300


class DegenerateEnergyError(ValueError):
    """Energy inside the excluded band around a regime threshold."""


class UnsupportedRegimeError(ValueError):
    """Requested evaluation is undefined in this energy regime."""


class NotARootError(ValueError):
    """Energy does not satisfy the quantization condition."""


class Regime(Enum):
    BELOW_Q = "below_q"   # E < sqrt(V2^2 + V3^2): conjugate-pair exponents
    MID = "mid"           # between the thresholds: real exponents
    FREE = "free"         # E > sqrt(V1^2 + V2^2 + V3^2): not quantized


@dataclass(frozen=True)
class PotentialSpec:
    """Spherical well: zero inside radius a, i*V1 + j*V2 + k*V3 outside."""

    v1: float
    v2: float = 0.0
    v3: float = 0.0
    a: float = 1.0

    def __post_init__(self):
        if not all(map(math.isfinite, (self.v1, self.v2, self.v3, self.a))):
            raise ValueError("potential components and radius must be finite")
        if self.v1 <= 0.0:
            raise ValueError("v1 must be positive")
        if self.a <= 0.0:
            raise ValueError("well radius a must be positive")

    @property
    def q_threshold(self) -> float:
        """Pure-quaternionic threshold sqrt(V2^2 + V3^2)."""
        return math.hypot(self.v2, self.v3)

    @property
    def total_threshold(self) -> float:
        """Binding limit sqrt(V1^2 + V2^2 + V3^2)."""
        return math.sqrt(self.v1 * self.v1 + self.v2 * self.v2 + self.v3 * self.v3)

    @property
    def kappa_c(self) -> float:
        """Dimensionless complex depth a*sqrt(V1)."""
        return self.a * math.sqrt(self.v1)

    @property
    def kappa_q(self) -> float:
        """Dimensionless quaternionic depth a*(V2^2 + V3^2)^(1/4)."""
        return self.a * math.sqrt(self.q_threshold)

    @classmethod
    def from_kappas(cls, kappa_c: float, kappa_q: float = 0.0, a: float = 1.0) -> "PotentialSpec":
        """Well with the given dimensionless depths; V3 = 0 representative."""
        try:
            v1, v2 = (kappa_c / a) ** 2, (kappa_q / a) ** 2
        except OverflowError:
            raise ValueError("well too deep for its radius: (kappa/a)^2 overflows a float") from None
        return cls(v1=v1, v2=v2, v3=0.0, a=a)


@dataclass(frozen=True)
class CharacteristicData:
    """Per-energy exterior data: exponents, coupling factors, regime."""

    nu_minus: complex
    nu_plus: complex
    w: complex
    z: complex
    regime: Regime


@dataclass(frozen=True)
class RadialState:
    """Matched, unit-norm radial solution at a quantization root.

    beta2_a and delta2_a hold the boundary-scaled exterior amplitudes
    beta2*exp(-nu_minus*a) and delta2*exp(-nu_plus*a); the exterior solution
    is evaluated through them so no large exponentials ever form.
    """

    energy: float
    epsilon: float
    alpha1: complex
    gamma1: complex
    beta2_a: complex
    delta2_a: complex
    chardata: CharacteristicData
    potential: PotentialSpec
    norm_constant: float
    continuity_residual: float


def classify_regime(energy: float, pot: PotentialSpec) -> Regime:
    if energy < pot.q_threshold:
        return Regime.BELOW_Q
    if energy < pot.total_threshold:
        return Regime.MID
    return Regime.FREE


def exterior(e, v1, q2):
    """Exterior decay rates and coupling denominator; scalars or arrays.

    Returns (nu_minus, nu_plus, e + S) with

        S = sqrt(e^2 - q2),   nu_pm = sqrt(v1 +- S),

    every root the principal complex square root, so Re nu_pm >= 0.  Below
    the threshold (e^2 < q2) S is imaginary, and since the principal root
    commutes with conjugation nu_plus = conj(nu_minus) holds exactly.  The
    units are the caller's: (E, V1, V2^2 + V3^2) for an energy, or
    (x^2, kappa_c^2, kappa_q^4) for the dimensionless x = eps*a, where
    zw = kappa_q^4/(e + S)^2.
    """
    s = np.sqrt(np.asarray(e * e - q2, dtype=complex))
    return np.sqrt(v1 - s), np.sqrt(v1 + s), e + s


def coupling_factors(v2, v3, denom):
    """Coupling factors (w, z) from e + S of `exterior`; scalars or arrays."""
    return -1j * (v2 - 1j * v3) / denom, 1j * (v2 + 1j * v3) / denom


def characteristic_data(energy: float, pot: PotentialSpec) -> CharacteristicData:
    """Exterior exponents, coupling factors and regime at one energy.

    Energies within 1e-9 of a threshold raise DegenerateEnergyError.
    """
    if energy <= 0.0:
        raise ValueError("energy must be positive")
    for threshold in (pot.q_threshold, pot.total_threshold):
        if abs(energy - threshold) < DEGENERATE_HALF_WIDTH:
            raise DegenerateEnergyError(
                f"energy {energy!r} within {DEGENERATE_HALF_WIDTH} of threshold {threshold!r}")
    nu_minus, nu_plus, denom = map(
        complex, exterior(energy, pot.v1, pot.v2 * pot.v2 + pot.v3 * pot.v3))
    w, z = coupling_factors(pot.v2, pot.v3, denom)
    return CharacteristicData(nu_minus, nu_plus, w, z, classify_regime(energy, pot))


def eval_region1(r: float, state: RadialState) -> Quaternion:
    """Interior solution sin(eps*r)*alpha1 + j*sinh(eps*r)*gamma1."""
    if r < 0.0 or r > state.potential.a:
        raise ValueError(f"r = {r!r} outside the interior region [0, a]")
    er = state.epsilon * r
    return symplectic_join(math.sin(er) * state.alpha1, math.sinh(er) * state.gamma1)


def eval_region2(r: float, state: RadialState) -> Quaternion:
    """Exterior damped solution; defined only in the bound regimes."""
    if r < state.potential.a:
        raise ValueError(f"r = {r!r} inside the well radius")
    if state.chardata.regime is Regime.FREE:
        raise UnsupportedRegimeError("free regime has no damped exterior solution")
    cd = state.chardata
    dr = r - state.potential.a
    em = cmath.exp(-cd.nu_minus * dr) * state.beta2_a
    ep = cmath.exp(-cd.nu_plus * dr) * state.delta2_a
    return symplectic_join(em + cd.z * ep, cd.w * em + ep)


def eval_radial(r: float, state: RadialState) -> Quaternion:
    return eval_region1(r, state) if r <= state.potential.a else eval_region2(r, state)


def solve_coefficients(energy: float, pot: PotentialSpec, *,
                       det_tol: float = 1e-8) -> RadialState:
    """Match interior and exterior solutions at a validated quantization root.

    The two continuity conditions per symplectic component reduce, after
    eliminating alpha1 and gamma1, to a 2x2 right-complex-linear system for
    the boundary amplitudes (beta2*e^(-nu_minus*a), delta2*e^(-nu_plus*a)).
    The elimination is done in the pole-free form (rows scaled by cos and
    cosh) and the null vector taken from the smallest singular direction;
    sigma2/sigma1 above det_tol means the energy is not a root.  The free
    complex scale is gauged so the dominant exterior boundary amplitude is
    real positive, then everything is scaled to unit radial norm.
    """
    cd = characteristic_data(energy, pot)
    if cd.regime is Regime.FREE:
        raise NotARootError(f"energy {energy!r} above the binding window")
    a = pot.a
    eps = math.sqrt(energy)
    x = eps * a
    num = cd.nu_minus * a
    nup = cd.nu_plus * a
    sinx, cosx, thx = math.sin(x), math.cos(x), math.tanh(x)
    mat = np.array(
        [[num * sinx + x * cosx, cd.z * (nup * sinx + x * cosx)],
         [cd.w * (num * thx + x), nup * thx + x]], dtype=complex)
    _, sv, vh = np.linalg.svd(mat)
    det_rel = sv[1] / max(sv[0], _TINY)
    if not det_rel < det_tol:
        raise NotARootError(
            f"determinant residual {det_rel:.3e} above {det_tol:.1e} at E = {energy!r}")
    b, d = vh[1].conjugate()
    ref = b if abs(b) >= 1e-12 else d
    phase = ref / abs(ref)
    b, d = complex(b / phase), complex(d / phase)

    if abs(sinx) >= _TRIG_FLOOR:
        alpha1 = (b + cd.z * d) / sinx
    else:
        alpha1 = -(num * b + cd.z * nup * d) / (x * cosx)
    sinhx, coshx = math.sinh(x), math.cosh(x)
    if abs(sinhx) >= _TRIG_FLOOR:
        gamma1 = (cd.w * b + d) / sinhx
    else:
        gamma1 = -(cd.w * num * b + nup * d) / (x * coshx)

    # continuity residuals, value and slope, both symplectic components
    val_in = (sinx * alpha1, sinhx * gamma1)
    val_out = (b + cd.z * d, cd.w * b + d)
    slope_in = (eps * cosx * alpha1, eps * coshx * gamma1)
    slope_out = (-(cd.nu_minus * b + cd.z * cd.nu_plus * d),
                 -(cd.w * cd.nu_minus * b + cd.nu_plus * d))
    val_err = math.hypot(abs(val_in[0] - val_out[0]), abs(val_in[1] - val_out[1]))
    val_scale = max(*(abs(v) for v in val_in + val_out), _TINY)
    slope_err = math.hypot(abs(slope_in[0] - slope_out[0]), abs(slope_in[1] - slope_out[1]))
    slope_scale = max(*(abs(v) for v in slope_in + slope_out), _TINY)
    continuity = max(val_err / val_scale, slope_err / slope_scale)

    raw = _interior_norm(eps, alpha1, gamma1, a, a / 2048.0) + _exterior_norm(b, d, cd)
    scale = 1.0 / math.sqrt(raw)
    b *= scale
    d *= scale
    return RadialState(
        energy=energy, epsilon=eps,
        alpha1=alpha1 * scale, gamma1=gamma1 * scale, beta2_a=b, delta2_a=d,
        chardata=cd, potential=pot,
        norm_constant=scale, continuity_residual=continuity)


def radial_norm(state: RadialState, grid_step: float | None = None) -> float:
    """Full radial norm integral of |U|^2 over [0, inf).

    Composite Simpson on [0, a]; the exponential tail beyond a integrates
    in closed form.
    """
    a = state.potential.a
    step = a / 2048.0 if grid_step is None else grid_step
    inner = _interior_norm(state.epsilon, state.alpha1, state.gamma1, a, step)
    return inner + _exterior_norm(state.beta2_a, state.delta2_a, state.chardata)


def _interior_norm(eps, alpha1, gamma1, a, step) -> float:
    n = max(2, round(a / step))
    n += n % 2
    r = np.linspace(0.0, a, n + 1)
    er = eps * r
    dens = np.abs(np.sin(er) * alpha1) ** 2 + np.abs(np.sinh(er) * gamma1) ** 2
    h = a / n
    return float(h / 3.0 * (dens[0] + dens[-1] + 4.0 * dens[1:-1:2].sum()
                            + 2.0 * dens[2:-2:2].sum()))


def _exterior_norm(b, d, cd: CharacteristicData) -> float:
    """Closed-form tail integral of |U_II|^2 over [a, inf)."""
    rate_m = cd.nu_minus.real
    rate_p = cd.nu_plus.real
    if rate_m <= 0.0 or rate_p <= 0.0:
        raise UnsupportedRegimeError("exterior solution is not damped")
    cross = cd.nu_minus.conjugate() + cd.nu_plus
    total = (1.0 + abs(cd.w) ** 2) * abs(b) ** 2 / (2.0 * rate_m)
    total += (1.0 + abs(cd.z) ** 2) * abs(d) ** 2 / (2.0 * rate_p)
    total += 2.0 * (b.conjugate() * d * (cd.z + cd.w.conjugate()) / cross).real
    return total


def ode_residual(state: RadialState, r_samples, h: float = 1e-4) -> float:
    """Worst relative residual of the radial equation over the samples.

    The second derivative is estimated by central differences of step h, so
    the truncation part of the residual shrinks as O(h^2).  Each residual
    i*U'' - V*U + U*i*E is scaled by the summed magnitudes of its three
    terms.  Samples must stay one step clear of r = 0 and of the wall.
    """
    pot = state.potential
    vq = Quaternion(0.0, pot.v1, pot.v2, pot.v3)
    ie = complex(0.0, state.energy)
    worst = 0.0
    for r in r_samples:
        r = float(r)
        if r - h < 0.0 or abs(r - pot.a) <= h:
            raise ValueError(f"sample r = {r!r} must keep one step clear of 0 and a")
        u0 = eval_radial(r, state)
        u_dd = (eval_radial(r + h, state) - 2.0 * u0 + eval_radial(r - h, state)) * (1.0 / (h * h))
        kinetic = I * u_dd
        pot_term = vq * u0 if r > pot.a else ZERO
        energy_term = u0 * ie
        residual = kinetic - pot_term + energy_term
        scale = kinetic.norm() + pot_term.norm() + energy_term.norm()
        if scale > 0.0:
            worst = max(worst, residual.norm() / scale)
    return worst
