"""50-digit root oracle for the quaternionic well, built on mpmath.

Nothing here imports quatwell.  The oracle evaluates cos(x) times the
matching determinant in its product form,

    D(x) = (nu_m*sin x + x*cos x)(nu_p*tanh x + x)
           - zw*(nu_p*sin x + x*cos x)(nu_m*tanh x + x),

with S = sqrt(x^4 - kappa_q^4), nu_pm = sqrt(kappa_c^2 +- S) and
zw = kappa_q^4/(x^2 + S)^2, every root principal, at 50 significant
digits.  Above kappa_q, D is real.  Below it, D is imaginary along the
half phase sqrt(zw), so its real content is Im(conj(sqrt(zw))*D).  That
real function is sampled on a uniform grid, densified geometrically next to
kappa_q and next to the top of the window x_max = (kappa_c^4 + kappa_q^4)^(1/4),
where the threshold pinch and weakly bound states sit; every sign change is
refined with `mpmath.findroot`.  The scan runs on both sides of a band of
half-width PINCH around kappa_q, where D vanishes without a root.
"""

import math

import mpmath

DPS = 50
STEP = math.pi / 32           # uniform scan step in x
NEAR = 60                     # geometric samples next to kappa_q and x_max
CLOSEST = 1e-14               # relative distance of the innermost samples
PINCH = 1e-9                  # half-width of the band left out around kappa_q


def det_cos(x, kappa_c, kappa_q):
    """(D, sqrt(zw)) at x: cos(x) times the determinant, and its half phase."""
    with mpmath.workdps(DPS):
        x, kc, kq = mpmath.mpf(x), mpmath.mpf(kappa_c), mpmath.mpf(kappa_q)
        s = mpmath.sqrt(mpmath.mpc(x ** 4 - kq ** 4))
        nu_m = mpmath.sqrt(kc ** 2 - s)
        nu_p = mpmath.sqrt(kc ** 2 + s)
        zw = kq ** 4 / (x ** 2 + s) ** 2
        sin, cos, th = mpmath.sin(x), mpmath.cos(x), mpmath.tanh(x)
        d = ((nu_m * sin + x * cos) * (nu_p * th + x)
             - zw * (nu_p * sin + x * cos) * (nu_m * th + x))
        return d, mpmath.sqrt(zw)


def real_det(x, kappa_c, kappa_q):
    """Real content of cos(x) times the matching determinant, at 50 digits."""
    d, half_phase = det_cos(x, kappa_c, kappa_q)
    with mpmath.workdps(DPS):
        if x > kappa_q:
            return mpmath.re(d)
        return mpmath.im(mpmath.conj(half_phase) * d)


def _side(lo, hi, near_lo, near_hi):
    """Sample points of [lo, hi], densified geometrically at the flagged ends."""
    width = hi - lo
    if width <= 0.0:
        return []
    n = max(2, math.ceil(width / STEP) + 1)
    xs = {lo + width * i / (n - 1) for i in range(n)}
    scale = max(1.0, abs(hi))
    for k in range(NEAR):
        gap = min(width / 4, STEP) * (CLOSEST * scale / STEP) ** (k / (NEAR - 1))
        if near_lo:
            xs.add(lo + gap)
        if near_hi:
            xs.add(hi - gap)
    return sorted(x for x in xs if lo <= x <= hi)


def roots(kappa_c, kappa_q):
    """Bound-state roots x in (0, x_max), ascending, as mpmath numbers."""
    x_max = (kappa_c ** 4 + kappa_q ** 4) ** 0.25
    scale = max(1.0, x_max)
    top = x_max * (1.0 - CLOSEST)
    edge = CLOSEST * scale
    if 0.0 < kappa_q < x_max:
        sides = [(edge, kappa_q - PINCH, False, True),
                 (kappa_q + PINCH, top, True, True)]
    else:
        sides = [(edge, top, False, True)]
    found = []
    for lo, hi, near_lo, near_hi in sides:
        xs = _side(lo, hi, near_lo, near_hi)
        vals = [real_det(x, kappa_c, kappa_q) for x in xs]
        for i in range(len(xs) - 1):
            if vals[i] == 0:
                found.append(mpmath.mpf(xs[i]))
            elif vals[i] * vals[i + 1] < 0:
                with mpmath.workdps(DPS):
                    found.append(mpmath.findroot(
                        lambda t: real_det(t, kappa_c, kappa_q),
                        (mpmath.mpf(xs[i]), mpmath.mpf(xs[i + 1])),
                        solver="anderson"))
    return found
