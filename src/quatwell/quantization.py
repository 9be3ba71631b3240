"""Quantization condition of the quaternionic well and its root set.

With x = eps*a, kappa_c = a*sqrt(V1) and kappa_q = a*(V2^2 + V3^2)^(1/4),
the matching determinant is built from

    Num = (nu_plus - zw*nu_minus)*tanh(x) + (1 - zw)*x,
    Den = nu_minus*nu_plus*(1 - zw)*tanh(x) + (nu_minus - zw*nu_plus)*x,

where nu_pm = sqrt(kappa_c^2 +- sqrt(x^4 - kappa_q^4)) and
zw = kappa_q^4 / (x^2 + sqrt(x^4 - kappa_q^4))^2.  Above kappa_q every term
is real.  Below it nu_plus = conj(nu_minus) and |zw| = 1, and Num and Den
are both imaginary along the half phase
sqrt(zw) = kappa_q^2/(x^2 + sqrt(x^4 - kappa_q^4)), so the turn
-i*conj(sqrt(zw)) makes both real.  This is why the condition stays real
below the quaternionic threshold.  `_turned_terms` is the one place that
forms the real pair

    N' = Num,  D' = Den                        (x > kappa_q)
    N' = Re(-i*(e + S)*Num),  D' = Re(-i*(e + S)*Den)    (x < kappa_q),

with e + S = x^2 + sqrt(x^4 - kappa_q^4), so that below kappa_q the pair
carries the positive factor kappa_q^2 = |e + S|.  Every real quantity of
this module is read from it:

    f(x) = -x*N'/D'                        (`quantization_function`)
    R(x) = sin(x)*D' + x*cos(x)*N'         (`mismatch`, over kappa_q^2 below kappa_q)
         = rho*sin(x + theta),  theta = atan2(x*N', D'),
    K    = floor(phi(x_max)/pi),  phi = x + theta    (`expected_count`).

The matching determinant vanishes exactly when tan(x) = f(x), that is
where R = cos(x)*D'*(tan(x) - f(x)) vanishes: R is cos(x) times the
matching determinant, turned real below kappa_q.  R changes sign at the quantization roots and nowhere else: it has no poles
and, unlike a mismatch carrying a factor D', no sign change at the poles of
f.  Bound states live in 0 < x < x_max = (kappa_c^4 + kappa_q^4)^(1/4).

N' >= 0 on the whole window, so 0 <= theta < pi, and phi = x + theta never
decreases (dphi/dx >= 1).  R vanishes where phi crosses a multiple of pi,
once per crossing, so the k-th state is the only zero of R in
((k-1)*pi, k*pi], and the window holds K = floor(phi(x_max)/pi) states.
In the complex limit N' = nu_plus*tanh(x) + x > 0 and D' = nu_minus*N', so
theta = arctan(x/nu_minus) lies in [0, pi/2): the classical one root per pi.
The general bound on theta is measured, not proved: tests/test_pi_lattice.py
checks N' >= 0 and the monotone phi on dense grids over a wide range of wells.

Roots are therefore isolated on the pi-lattice 1e-6, pi, 2*pi, ..., x_max
without any scan grid: each cell with a sign change of R holds exactly one
root, which is bisected.  At the threshold point x = kappa_q, Num and Den
pinch to zero together and R touches zero without changing sign; the band
|x - kappa_q| < 1e-9 is a lattice cell of its own, bounded by its edges, and
a sign change across it is flagged instead of refined.  Every candidate is
still validated against the determinant condition and the continuity of
the matched solution before it is reported.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field

import numpy as np

from .radial import (
    DEGENERATE_HALF_WIDTH,
    DegenerateEnergyError,
    NotARootError,
    PotentialSpec,
    RadialState,
    Regime,
    exterior,
    solve_coefficients,
)

_SCAN_EDGE = 1e-6
_TINY = 1e-300
# most pi-lattice points, about x_max/pi; admits x_max up to 2.06e5
MAX_SCAN_POINTS = 2 ** 16


class QuantizationPoleError(ArithmeticError):
    """f evaluated at a pole (vanishing denominator)."""


class EmptyWindowError(ValueError):
    """No below-threshold window exists (kappa_q = 0)."""


class ScanGridTooLargeError(ValueError):
    """The pi-lattice would exceed MAX_SCAN_POINTS points."""


@dataclass(frozen=True)
class QuantizationProblem:
    """Dimensionless well description (kappa_c, kappa_q) at radius a."""

    kappa_c: float
    kappa_q: float = 0.0
    a: float = 1.0

    def __post_init__(self):
        if not all(map(math.isfinite, (self.kappa_c, self.kappa_q, self.a))):
            raise ValueError("well depths and radius must be finite")
        if self.kappa_c < 0.0 or self.kappa_q < 0.0:
            raise ValueError("well depths must be non-negative")
        if self.a <= 0.0:
            raise ValueError("well radius a must be positive")
        # kappa**4 raises OverflowError, while the sum of two finite
        # fourth powers overflows to inf
        try:
            window = math.isfinite(self.x_max)
        except OverflowError:
            window = False
        if not window:
            raise ValueError("well too deep: (kappa_c^4 + kappa_q^4)^(1/4) "
                             "overflows a float")

    @property
    def x_max(self) -> float:
        """Upper end of the bound window, (kappa_c^4 + kappa_q^4)^(1/4)."""
        return (self.kappa_c ** 4 + self.kappa_q ** 4) ** 0.25

    @classmethod
    def from_potential(cls, pot: PotentialSpec) -> "QuantizationProblem":
        return cls(pot.kappa_c, pot.kappa_q, pot.a)

    def to_potential(self) -> PotentialSpec:
        """Representative well with V3 = 0 (any phase gives the same spectrum)."""
        return PotentialSpec.from_kappas(self.kappa_c, self.kappa_q, self.a)


@dataclass(frozen=True)
class BoundState:
    """One validated quantization root with its matched radial solution."""

    x: float
    energy: float
    regime: Regime
    det_residual: float
    continuity_residual: float
    radial: RadialState | None = None
    flags: frozenset[str] = field(default_factory=frozenset)


@dataclass(frozen=True)
class BoundStateSet:
    """Ordered bound states of one well."""

    problem: QuantizationProblem
    states: tuple[BoundState, ...]
    no_binding: bool = False

    @property
    def expected_count(self) -> int:
        """Closed-form state count K of the well (see `expected_count`)."""
        prob = self.problem
        return 0 if self.no_binding else expected_count(prob.kappa_c, prob.kappa_q)


def _pi_lattice(x_top: float, kappa_q: float = 0.0):
    """Scan points 1e-6, pi, 2*pi, ..., x_top: one root per cell at most.

    The threshold band |x - kappa_q| < 1e-9 is a cell of its own: every
    point inside it, x_top included, is dropped, and the band edges
    kappa_q -+ 1e-9 that lie inside (1e-6, x_top) are added.  Each part of
    a split cell lies inside the original cell, so no cell gains a root.
    The size is checked before anything is allocated.
    """
    cells = x_top / math.pi
    if not cells <= MAX_SCAN_POINTS - 1:   # NaN and inf fail here too
        raise ScanGridTooLargeError(
            f"scan grid of {cells + 1:.3g} pi-lattice points exceeds the limit of "
            f"{MAX_SCAN_POINTS}; the well is too deep")
    inner = np.arange(1, math.ceil(cells)) * math.pi
    grid = np.concatenate(([_SCAN_EDGE], inner[inner < x_top], [x_top]))
    lo, hi = kappa_q - DEGENERATE_HALF_WIDTH, kappa_q + DEGENERATE_HALF_WIDTH
    edges = [e for e in (lo, hi) if _SCAN_EDGE < e < x_top]
    return np.sort(np.concatenate((grid[(grid <= lo) | (grid >= hi)], edges)))


def _matching_terms(x, kappa_c: float, kappa_q: float):
    """Num, Den and the coupling denominator e + S; scalars or arrays."""
    x = np.asarray(x, dtype=float)
    q4 = kappa_q ** 4
    nu_m, nu_p, denom = exterior(x * x, kappa_c ** 2, q4)
    zw = q4 / denom ** 2
    one_zw = 1.0 - zw
    th = np.tanh(x)
    num = (nu_p - zw * nu_m) * th + one_zw * x
    den = nu_m * nu_p * one_zw * th + (nu_m - zw * nu_p) * x
    return num, den, denom


def _turned_terms(x, kappa_c, kappa_q):
    """Num and Den turned real: N' and D', times kappa_q^2 below kappa_q.

    Below kappa_q the turn is -i*conj(sqrt(zw)) = -i*(e + S)/kappa_q^2, since
    sqrt(zw) has modulus one; above it Num and Den are already real.  The
    positive factor kappa_q^2 is kept: it changes no sign, no theta and no f.
    A scalar is evaluated as a one-element array: numpy's array loops round
    complex products differently from its scalar arithmetic, and this way a
    scalar gives exactly the value it has as an array element.
    """
    shape = np.shape(x)
    x = np.atleast_1d(x)
    num, den, denom = _matching_terms(x, kappa_c, kappa_q)
    turn = np.where(x < kappa_q, -1j * denom, 1.0)
    return (turn * num).real.reshape(shape), (turn * den).real.reshape(shape)


def quantization_function(x, prob: QuantizationProblem):
    """f(x) = -x*N'/D' on scalars or arrays, and where it is undefined.

    Returns (f, fault) of the shape of x.  fault is "" where f is defined,
    and otherwise "domain" outside the bound window (0, x_max),
    "degenerate" inside the threshold band |x - kappa_q| < 1e-9, or "pole"
    where |D'| < 1e-300; f is 0.0 there.  N' and D' are evaluated only
    where x lies in the window and off the band.
    """
    x = np.asarray(x, dtype=float)
    domain = ~((0.0 < x) & (x < prob.x_max))
    degenerate = ~domain & (np.abs(x - prob.kappa_q) < DEGENERATE_HALF_WIDTH)
    inside = ~(domain | degenerate)
    pole = np.zeros_like(inside)
    f = np.zeros_like(x)
    n_turned, d_turned = _turned_terms(x[inside], prob.kappa_c, prob.kappa_q)
    pole[inside] = np.abs(d_turned) < _TINY
    f[inside] = np.divide(-x[inside] * n_turned, d_turned,
                          out=np.zeros_like(d_turned), where=~pole[inside])
    fault = np.select([domain, degenerate, pole], ["domain", "degenerate", "pole"], "")
    return f, fault


def f_quantization(x: float, prob: QuantizationProblem) -> float:
    """Right-hand side f(x) = -x*N'/D' of the quantization condition tan(x) = f(x).

    The one value of `quantization_function` at x, with its faults raised
    as typed errors.
    """
    value, fault = quantization_function(x, prob)
    if fault == "domain":
        raise ValueError(f"x = {x!r} outside the bound window (0, {prob.x_max!r})")
    if fault == "degenerate":
        raise DegenerateEnergyError(f"x = {x!r} inside the threshold band at {prob.kappa_q!r}")
    if fault == "pole":
        raise QuantizationPoleError(f"D' vanishes at x = {x!r}")
    return float(value)


def mismatch(x, prob: QuantizationProblem):
    """Real determinant R(x) = sin(x)*D' + x*cos(x)*N'; scalars or arrays.

    N' and D' come from `_turned_terms`; below kappa_q R is divided by the
    factor kappa_q^2 they carry there.  R = cos(x)*D'*(tan(x) - f(x)), so
    it vanishes at the roots of the quantization condition, changes sign
    there and nowhere else: it has no poles and no sign change at the
    poles of f.  A scalar x gives a float.
    """
    kq = prob.kappa_q
    n_turned, d_turned = _turned_terms(x, prob.kappa_c, kq)
    r = np.sin(x) * d_turned + x * np.cos(x) * n_turned
    # kappa_q^2 underflows to 0 below kappa_q ~ 2e-162: divide by it only below kappa_q
    r = r / np.where(x < kq, kq ** 2, 1.0)
    return r if np.ndim(r) else float(r)


def expected_count(kappa_c, kappa_q=0.0):
    """Number K = floor((x + theta)/pi) of states at x = x_max; scalars or arrays.

    theta = atan2(x*N', D') with N' and D' from `_turned_terms`.  Num and Den
    pinch to zero at kappa_q, so an x_max inside the threshold band is
    taken at the band's lower edge, where theta already has its limit.
    """
    kappa_q = np.asarray(kappa_q, dtype=float)
    x = (np.asarray(kappa_c, dtype=float) ** 4 + kappa_q ** 4) ** 0.25
    x = np.where(x - kappa_q < DEGENERATE_HALF_WIDTH, kappa_q - DEGENERATE_HALF_WIDTH, x)
    n_turned, d_turned = _turned_terms(x, kappa_c, kappa_q)
    phi = x + np.arctan2(x * n_turned, d_turned)
    count = np.maximum(np.floor(phi / math.pi), 0.0).astype(int)
    return count if count.ndim else int(count)


def _det_relative_residual(x: float, prob: QuantizationProblem) -> float:
    """Determinant mismatch at x, scaled by the summed monomial magnitudes.

    The scale is the sum of |term| over the four products entering
    zw*(nu- tanh + x)(nu+ tan + x) - (nu- tan + x)(nu+ tanh + x), so the
    residual stays meaningful in the complex limit where zw = 0 and the
    whole condition collapses to one factor.
    """
    q4 = prob.kappa_q ** 4
    nu_m, nu_p, denom = map(complex, exterior(x * x, prob.kappa_c ** 2, q4))
    zw = q4 / denom ** 2
    t = math.tan(x)
    th = math.tanh(x)
    left = (nu_m * t + x) * (nu_p * th + x)
    right = zw * (nu_p * t + x) * (nu_m * th + x)
    scale = ((abs(nu_m) * abs(t) + x) * (abs(nu_p) * abs(th) + x)
             + abs(zw) * (abs(nu_p) * abs(t) + x) * (abs(nu_m) * abs(th) + x))
    return abs(left - right) / max(scale, _TINY)


def verify_determinant(state: BoundState, prob: QuantizationProblem) -> float:
    """Relative determinant residual of the matching condition at the root."""
    return _det_relative_residual(state.x, prob)


def _bisect(fun, xl, xr, tol: float):
    """Bisect every oriented bracket (xl[i], xr[i]) of fun at once, to width tol.

    fun maps an array of points to an array of values; fun <= 0 at xl and
    fun > 0 at xr, so xl may lie above xr.  Each halving makes one call for
    all brackets still open, and the midpoint replaces the end whose sign it
    shares.  Each bracket follows the plain bisection rule: it stops once
    |xr - xl| is at most tol, when the midpoint no longer splits it (the
    double-precision floor), or at a midpoint where fun is exactly zero,
    which is then its root.  Returns the array of final bracket midpoints;
    a bracket (x, x) returns x.
    """
    xl = np.array(xl, dtype=float)
    xr = np.array(xr, dtype=float)
    open_ = np.flatnonzero(np.abs(xr - xl) > tol)
    while open_.size:
        a, b = xl[open_], xr[open_]
        xm = 0.5 * (a + b)
        splits = (xm != a) & (xm != b)
        open_, xm = open_[splits], xm[splits]
        if not open_.size:
            break
        fm = fun(xm)
        # an exact zero closes its bracket onto the midpoint from both ends;
        # NaN counts as positive
        neg, pos = fm <= 0.0, ~(fm < 0.0)
        xl[open_[neg]] = xm[neg]
        xr[open_[pos]] = xm[pos]
        open_ = open_[np.abs(xr[open_] - xl[open_]) > tol]
    return 0.5 * (xl + xr)


def _scan_brackets(grid, values):
    """Oriented sign-change brackets (xl, xr) of a function sampled on grid.

    One bracket per cell whose ends differ in sign, in grid order, with
    values <= 0 at xl, so xl is the right end when the function falls; a
    sample that is exactly zero gives the bracket (x, x).
    """
    gl, gr = values[:-1], values[1:]
    cells = np.flatnonzero((gl * gr < 0.0) | (gl == 0.0))
    lo = grid[cells]
    hi = np.where(gl[cells] == 0.0, lo, grid[cells + 1])
    falls = gl[cells] > 0.0
    return np.where(falls, hi, lo), np.where(falls, lo, hi)


def _lattice_roots(fun, x_top: float, tol: float, kappa_q: float = 0.0):
    """Roots of fun on (1e-6, x_top] from its pi-lattice, and the flagged band.

    fun is evaluated once on `_pi_lattice(x_top, kappa_q)`, each cell with a
    sign change is bisected to tol, and the threshold band cell is not: a
    sign change across it is returned as the flagged position kappa_q (a
    root there cannot be refined further).  Returns (roots, flagged) as
    lists in ascending order.
    """
    grid = _pi_lattice(x_top, kappa_q)
    xl, xr = _scan_brackets(grid, fun(grid))
    band = (np.minimum(xl, xr) < kappa_q) & (kappa_q < np.maximum(xl, xr))
    flagged = [kappa_q] if band.any() else []
    return _bisect(fun, xl[~band], xr[~band], tol).tolist(), flagged


def validated_states(roots, prob: QuantizationProblem, *,
                     pot: PotentialSpec | None = None,
                     validate_tol: float = 1e-8) -> list[BoundState]:
    """The states at the roots that pass both checks at validate_tol.

    A root must have a determinant residual and, once matched, a continuity
    residual below validate_tol; a root the matching refuses (too close to
    the threshold or to x_max, or not a root of the 2x2 system) is dropped.
    """
    if pot is None:
        pot = prob.to_potential()
    states = []
    for x in roots:
        det_res = _det_relative_residual(x, prob)
        if not det_res < validate_tol:
            continue
        energy = (x / prob.a) ** 2
        try:
            radial = solve_coefficients(energy, pot, det_tol=validate_tol)
        except (NotARootError, DegenerateEnergyError):
            continue
        if not radial.continuity_residual < validate_tol:
            continue
        regime = Regime.BELOW_Q if x < prob.kappa_q else Regime.MID
        states.append(BoundState(x, energy, regime, det_res,
                                 radial.continuity_residual, radial))
    return states


def find_bound_states(prob: QuantizationProblem, *,
                      pot: PotentialSpec | None = None,
                      refine_tol: float = 1e-12,
                      validate_tol: float = 1e-8) -> BoundStateSet:
    """All bound states of the well, isolated, refined and validated.

    The real determinant R of `mismatch` is sampled on the pi-lattice of the
    bound window, each cell's sign change is refined by bisection to
    refine_tol, and every candidate must pass two independent checks at
    validate_tol: the determinant residual of the matching condition and
    the continuity residual of the reconstructed solution.  R changes sign
    only at roots, so a rejected candidate is a numerical failure, not a
    routine event.  An explicit potential may be supplied to validate
    against a particular (V2, V3) phase; it must match the problem's depths.
    """
    if prob.kappa_c == 0.0:
        return BoundStateSet(prob, (), no_binding=True)
    if pot is None:
        pot = prob.to_potential()
    elif (abs(pot.kappa_c - prob.kappa_c) > 1e-9 * max(1.0, prob.kappa_c)
          or abs(pot.kappa_q - prob.kappa_q) > 1e-9 * max(1.0, prob.kappa_q)
          or pot.a != prob.a):
        raise ValueError("potential does not match the problem's dimensionless depths")

    if prob.x_max <= _SCAN_EDGE:
        return BoundStateSet(prob, ())
    roots, flagged = _lattice_roots(lambda t: mismatch(t, prob), prob.x_max,
                                    refine_tol, prob.kappa_q)
    states = validated_states(roots, prob, pot=pot, validate_tol=validate_tol)
    for x in flagged:
        # the root position is pinned only to the excluded band; residuals
        # at the band edge are diagnostics, not validation
        edge = x - DEGENERATE_HALF_WIDTH
        states.append(BoundState(
            x, (x / prob.a) ** 2, Regime.MID,
            _det_relative_residual(edge, prob), 0.0,
            None, frozenset({"near-degenerate"})))
    states.sort(key=lambda st: st.energy)
    return BoundStateSet(prob, tuple(states))


def complex_limit_roots(kappa: float, *,
                        refine_tol: float = 1e-12) -> list[float]:
    """Roots of the complex-well condition tan(x) = -x/sqrt(kappa^2 - x^2).

    Solved through the pole-free form sin(x)*sqrt(kappa^2 - x^2) + x*cos(x),
    which has no spurious zeros on (0, kappa] and one zero in each cell of
    the pi-lattice that changes sign.
    """
    if kappa <= _SCAN_EDGE:
        return []

    def h(x):
        return np.sin(x) * np.sqrt(kappa * kappa - np.square(x)) + x * np.cos(x)

    return _lattice_roots(h, kappa, refine_tol)[0]


def trial_complex_states(prob: QuantizationProblem, *,
                         refine_tol: float = 1e-12,
                         validate_tol: float = 1e-8) -> BoundStateSet:
    """Bound states of the trial-complex well of depth kappa_t.

    The comparison well replaces the quaternionic potential by a purely
    complex one of magnitude sqrt(V1^2 + V2^2 + V3^2), i.e. depth
    kappa_t = (kappa_c^4 + kappa_q^4)^(1/4).  The roots of the tan form are
    validated as in `find_bound_states`, so both report the same states.
    """
    kt = prob.x_max
    trial_prob = QuantizationProblem(kt, 0.0, prob.a)
    if kt == 0.0:
        return BoundStateSet(trial_prob, (), no_binding=True)
    states = validated_states(complex_limit_roots(kt, refine_tol=refine_tol), trial_prob,
                              validate_tol=validate_tol)
    return BoundStateSet(trial_prob, tuple(states))


@dataclass(frozen=True)
class RealityReport:
    """Measured reality of Num*conj(Den) below the quaternionic threshold."""

    max_rel_imag: float
    max_zw_deviation: float
    n_samples: int
    window: tuple[float, float]


def reality_report(prob: QuantizationProblem, n_samples: int) -> RealityReport:
    """Sample the below-threshold window and measure departures from reality.

    Returns the worst |Im(Num*conj(Den))| / (|Num*conj(Den)| + 1) and the
    worst ||zw| - 1| over n_samples midpoints of (0, kappa_q).  Raises
    EmptyWindowError when kappa_q = 0, and also when kappa_q^4 leaves the
    normal range of a float (kappa_q below about 1.2e-77): there x^4 and
    kappa_q^4 underflow, so zw = kappa_q^4/(e + S)^2 is 0/0 or overflows.
    """
    if n_samples < 1:
        raise ValueError("need at least one sample")
    top = min(prob.kappa_q, prob.x_max)
    if top <= 0.0:
        raise EmptyWindowError("kappa_q = 0")
    if top ** 4 < sys.float_info.min:
        raise EmptyWindowError(f"kappa_q^4 underflows at kappa_q = {top:.3g}")
    xs = (np.arange(n_samples) + 0.5) * (top / n_samples)
    num, den, denom = _matching_terms(xs, prob.kappa_c, prob.kappa_q)
    p = num * np.conjugate(den)
    rel_imag = np.abs(p.imag) / (np.abs(p) + 1.0)
    zw = prob.kappa_q ** 4 / denom ** 2
    deviation = np.abs(np.abs(zw) - 1.0)
    return RealityReport(float(rel_imag.max()), float(deviation.max()),
                         n_samples, (0.0, float(top)))
