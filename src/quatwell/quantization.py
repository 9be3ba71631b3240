"""Quantization condition of the quaternionic well and its root set.

With x = eps*a, kappa_c = a*sqrt(V1) and kappa_q = a*(V2^2 + V3^2)^(1/4),
the matching determinant vanishes exactly when

    tan(x) = f(x) = -x * Num * conj(Den) / |Den|^2,

    Num = (nu_plus - zw*nu_minus)*tanh(x) + (1 - zw)*x,
    Den = nu_minus*nu_plus*(1 - zw)*tanh(x) + (nu_minus - zw*nu_plus)*x,

where nu_pm = sqrt(kappa_c^2 +- sqrt(x^4 - kappa_q^4)) and
zw = kappa_q^4 / (x^2 + sqrt(x^4 - kappa_q^4))^2.  Num*conj(Den) is real in
both bound regimes (exactly so below the quaternionic threshold, where
nu_plus = conj(nu_minus) and |zw| = 1), so f is a real function and the
pole-free mismatch

    G(x) = sin(x)*|Den|^2 + x*cos(x)*Re(Num*conj(Den))

vanishes exactly at the quantization roots.  G also vanishes at zeros of
Den (the poles of f) and at the threshold point x = kappa_q where Num and
Den pinch to zero together; candidates are therefore validated against the
determinant condition and the continuity of the matched solution before
they are reported.  Bound states live in 0 < x < (kappa_c^4 + kappa_q^4)^(1/4).
"""

from __future__ import annotations

import math
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
# largest scan grid, in points; kappa = 1e4 at the default 4096 points per pi
# takes about 1.3e7 (1.6e7 with kappa_q = kappa_c)
MAX_SCAN_POINTS = 2 ** 24


class QuantizationPoleError(ArithmeticError):
    """f evaluated at a pole (vanishing denominator)."""


class EmptyWindowError(ValueError):
    """No below-threshold window exists (kappa_q = 0)."""


class ScanGridTooLargeError(ValueError):
    """The scan grid would exceed MAX_SCAN_POINTS points."""


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
    scan_resolution: float
    no_binding: bool = False


def _scan_points(x_top: float, scan_points_per_pi: int) -> int:
    """Size of the scan grid over (0, x_top); checked before anything is allocated."""
    points = scan_points_per_pi * x_top / math.pi
    if not points <= MAX_SCAN_POINTS:
        raise ScanGridTooLargeError(
            f"scan grid of about {points:.3g} points exceeds the limit of "
            f"{MAX_SCAN_POINTS}; the well is too deep for this grid")
    return max(16, math.ceil(points))


def _num_den(x, kappa_c: float, kappa_q: float):
    """Numerator/denominator pair; works on scalars and arrays alike."""
    x = np.asarray(x, dtype=float)
    q4 = kappa_q ** 4
    nu_m, nu_p, denom = exterior(x * x, kappa_c ** 2, q4)
    zw = q4 / denom ** 2
    th = np.tanh(x)
    num = (nu_p - zw * nu_m) * th + (1.0 - zw) * x
    den = nu_m * nu_p * (1.0 - zw) * th + (nu_m - zw * nu_p) * x
    return num, den


def f_quantization(x: float, prob: QuantizationProblem) -> float:
    """Right-hand side f(x) of the quantization condition tan(x) = f(x).

    Evaluated through Num*conj(Den)/|Den|^2 in complex arithmetic; the
    imaginary part must come out at rounding level (it vanishes identically
    in both bound regimes) and is discarded after that check.
    """
    if not 0.0 < x < prob.x_max:
        raise ValueError(f"x = {x!r} outside the bound window (0, {prob.x_max!r})")
    if abs(x - prob.kappa_q) < DEGENERATE_HALF_WIDTH:
        raise DegenerateEnergyError(f"x = {x!r} inside the threshold band at {prob.kappa_q!r}")
    num, den = _num_den(x, prob.kappa_c, prob.kappa_q)
    num, den = complex(num), complex(den)
    if abs(den) < _TINY:
        raise QuantizationPoleError(f"denominator vanishes at x = {x!r}")
    p = num * den.conjugate()
    d2 = abs(den) ** 2
    f_re = -x * p.real / d2
    f_im = -x * p.imag / d2
    if not abs(f_im) < 1e-10 * (abs(f_re) + 1.0):
        raise ArithmeticError(
            f"quantization function has non-real value {f_re!r} + {f_im!r}i at x = {x!r}")
    return f_re


def mismatch(x, prob: QuantizationProblem):
    """Pole-free root function G(x); scalar in, float out; array in, array out."""
    num, den = _num_den(x, prob.kappa_c, prob.kappa_q)
    p = num * np.conjugate(den)
    g = np.sin(x) * np.abs(den) ** 2 + x * np.cos(x) * p.real
    return float(g) if np.isscalar(x) or np.ndim(x) == 0 else g


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
    """Bisect every bracket [xl[i], xr[i]] of fun at once, down to width tol.

    fun maps an array of points to an array of values, and each halving
    makes one call for all brackets still open.  Each bracket follows the
    plain bisection rule: it stops once its width is at most tol, when the
    midpoint no longer splits it (the double-precision floor), or at a
    midpoint where fun is exactly zero, which is then its root.  Returns the
    array of final bracket midpoints; a bracket (x, x) returns x.
    """
    xl = np.array(xl, dtype=float)
    xr = np.array(xr, dtype=float)
    open_ = np.flatnonzero(xr - xl > tol)
    if not open_.size:
        return 0.5 * (xl + xr)
    fl = fun(xl[open_])
    while open_.size:
        xm = 0.5 * (xl[open_] + xr[open_])
        splits = (xm > xl[open_]) & (xm < xr[open_])
        open_, xm, fl = open_[splits], xm[splits], fl[splits]
        if not open_.size:
            break
        fm = fun(xm)
        zero = fm == 0.0
        # an exact zero closes its bracket onto the midpoint from both sides
        left = ((fl < 0.0) != (fm < 0.0)) | zero
        right = ~left | zero
        xr[open_[left]] = xm[left]
        xl[open_[right]] = xm[right]
        fl = np.where(left, fl, fm)
        still = xr[open_] - xl[open_] > tol
        open_, fl = open_[still], fl[still]
    return 0.5 * (xl + xr)


def _scan_brackets(grid, values, fun, kappa_q: float | None):
    """Sign-change brackets of a sampled function, split at the threshold band.

    Returns (brackets, flagged) in grid order: (x, x) for a sample that is
    exactly zero, the cell for every other sign change, plus the threshold
    position when the sign change hides inside the excluded band
    |x - kappa_q| < 1e-9 (a root there cannot be refined further).  Only the
    cell that straddles kappa_q is split at the band, at the cost of two
    calls of fun.
    """
    gl, gr = values[:-1], values[1:]
    cells = np.flatnonzero((gl * gr < 0.0) | (gl == 0.0))
    lo = grid[cells]
    hi = np.where(gl[cells] == 0.0, lo, grid[cells + 1])
    brackets = list(zip(lo.tolist(), hi.tolist()))
    flagged: list[float] = []
    if kappa_q is None:
        return brackets, flagged
    i = int(np.searchsorted(grid, kappa_q)) - 1   # grid[i] < kappa_q <= grid[i + 1]
    if not (0 <= i < grid.size - 1 and kappa_q < grid[i + 1]
            and values[i] * values[i + 1] < 0.0):
        return brackets, flagged
    k = int(np.searchsorted(cells, i))             # the bracket of cell i
    xl, xr = brackets[k]
    gl, gr = values[i], values[i + 1]
    edge_l = kappa_q - DEGENERATE_HALF_WIDTH
    edge_r = kappa_q + DEGENERATE_HALF_WIDTH
    gel = fun(edge_l) if edge_l > xl else gl
    ger = fun(edge_r) if edge_r < xr else gr
    split = []
    if gl * gel < 0.0:
        split.append((xl, edge_l))
    if ger * gr < 0.0:
        split.append((edge_r, xr))
    if gel * ger < 0.0:
        flagged.append(kappa_q)
    brackets[k:k + 1] = split
    return brackets, flagged


def find_bound_states(prob: QuantizationProblem, *,
                      pot: PotentialSpec | None = None,
                      scan_points_per_pi: int = 4096,
                      refine_tol: float = 1e-12,
                      validate_tol: float = 1e-8,
                      norm_step: float | None = None) -> BoundStateSet:
    """All bound states of the well, scanned, refined and validated.

    The mismatch G is sampled on a uniform grid over the bound window, sign
    changes are refined by bisection to refine_tol, and every candidate must
    pass two independent checks at validate_tol: the determinant residual of
    the matching condition and the continuity residual of the reconstructed
    solution.  Zeros of Den masquerading as G roots fail both and are
    dropped.  An explicit potential may be supplied to validate against a
    particular (V2, V3) phase; it must match the problem's depths.
    """
    if prob.kappa_c == 0.0:
        return BoundStateSet(prob, (), 0.0, no_binding=True)
    if pot is None:
        pot = prob.to_potential()
    elif (abs(pot.kappa_c - prob.kappa_c) > 1e-9 * max(1.0, prob.kappa_c)
          or abs(pot.kappa_q - prob.kappa_q) > 1e-9 * max(1.0, prob.kappa_q)
          or pot.a != prob.a):
        raise ValueError("potential does not match the problem's dimensionless depths")

    lo, hi = _SCAN_EDGE, prob.x_max - _SCAN_EDGE
    if hi <= lo:
        return BoundStateSet(prob, (), 0.0)
    grid = np.linspace(lo, hi, _scan_points(prob.x_max, scan_points_per_pi))
    resolution = float(grid[1] - grid[0])
    kq = prob.kappa_q
    keep = np.abs(grid - kq) >= DEGENERATE_HALF_WIDTH
    grid = grid[keep]
    values = mismatch(grid, prob)

    def g(t):
        return mismatch(t, prob)

    band_center = kq if lo < kq < hi else None
    brackets, flagged = _scan_brackets(grid, values, g, band_center)
    xl, xr = np.array(brackets, dtype=float).reshape(-1, 2).T

    roots: list[float] = []
    for root in _bisect(g, xl, xr, refine_tol).tolist():
        if roots and abs(root - roots[-1]) <= refine_tol:
            continue
        roots.append(root)

    states: list[BoundState] = []
    for x in roots:
        det_res = _det_relative_residual(x, prob)
        if not det_res < validate_tol:
            continue
        energy = (x / prob.a) ** 2
        try:
            radial = solve_coefficients(energy, pot, det_tol=validate_tol,
                                        norm_step=norm_step)
        except (NotARootError, DegenerateEnergyError):
            continue
        if not radial.continuity_residual < validate_tol:
            continue
        regime = Regime.BELOW_Q if x < kq else Regime.MID
        states.append(BoundState(x, energy, regime, det_res,
                                 radial.continuity_residual, radial))
    for x in flagged:
        # the root position is pinned only to the excluded band; residuals
        # at the band edge are diagnostics, not validation
        edge = x - DEGENERATE_HALF_WIDTH
        states.append(BoundState(
            x, (x / prob.a) ** 2, Regime.MID,
            _det_relative_residual(edge, prob), 0.0,
            None, frozenset({"near-degenerate"})))
    states.sort(key=lambda st: st.energy)
    return BoundStateSet(prob, tuple(states), resolution)


def complex_limit_roots(kappa: float, *,
                        scan_points_per_pi: int = 4096,
                        refine_tol: float = 1e-12) -> list[float]:
    """Roots of the complex-well condition tan(x) = -x/sqrt(kappa^2 - x^2).

    Solved through the pole-free form sin(x)*sqrt(kappa^2 - x^2) + x*cos(x),
    which has no spurious zeros on (0, kappa).
    """
    if kappa <= 0.0:
        return []
    lo, hi = _SCAN_EDGE, kappa - _SCAN_EDGE
    if hi <= lo:
        return []

    def h(x):
        return np.sin(x) * np.sqrt(kappa * kappa - np.square(x)) + x * np.cos(x)

    grid = np.linspace(lo, hi, _scan_points(kappa, scan_points_per_pi))
    brackets, _ = _scan_brackets(grid, h(grid), h, None)
    xl, xr = np.array(brackets, dtype=float).reshape(-1, 2).T
    return _bisect(h, xl, xr, refine_tol).tolist()


def trial_complex_states(prob: QuantizationProblem, *,
                         scan_points_per_pi: int = 4096,
                         refine_tol: float = 1e-12,
                         validate_tol: float = 1e-8,
                         norm_step: float | None = None) -> BoundStateSet:
    """Bound states of the trial-complex well of depth kappa_t.

    The comparison well replaces the quaternionic potential by a purely
    complex one of magnitude sqrt(V1^2 + V2^2 + V3^2), i.e. depth
    kappa_t = (kappa_c^4 + kappa_q^4)^(1/4).
    """
    kt = prob.x_max
    trial_prob = QuantizationProblem(kt, 0.0, prob.a)
    if kt == 0.0:
        return BoundStateSet(trial_prob, (), 0.0, no_binding=True)
    roots = complex_limit_roots(kt, scan_points_per_pi=scan_points_per_pi,
                                refine_tol=refine_tol)
    trial_pot = trial_prob.to_potential()
    states = []
    for x in roots:
        energy = (x / prob.a) ** 2
        radial = solve_coefficients(energy, trial_pot, det_tol=validate_tol,
                                    norm_step=norm_step)
        states.append(BoundState(x, energy, Regime.MID,
                                 _det_relative_residual(x, trial_prob),
                                 radial.continuity_residual, radial))
    resolution = kt / _scan_points(kt, scan_points_per_pi)
    return BoundStateSet(trial_prob, tuple(states), resolution)


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
    EmptyWindowError when kappa_q = 0.
    """
    if n_samples < 1:
        raise ValueError("need at least one sample")
    top = min(prob.kappa_q, prob.x_max)
    if top <= 0.0:
        raise EmptyWindowError("no below-threshold window when kappa_q = 0")
    xs = (np.arange(n_samples) + 0.5) * (top / n_samples)
    num, den = _num_den(xs, prob.kappa_c, prob.kappa_q)
    p = num * np.conjugate(den)
    rel_imag = np.abs(p.imag) / (np.abs(p) + 1.0)
    q4 = prob.kappa_q ** 4
    _, _, denom = exterior(xs * xs, prob.kappa_c ** 2, q4)
    zw = q4 / denom ** 2
    deviation = np.abs(np.abs(zw) - 1.0)
    return RealityReport(float(rel_imag.max()), float(deviation.max()),
                         n_samples, (0.0, float(top)))
