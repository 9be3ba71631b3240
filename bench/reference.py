"""Reference spectra and output checks, independent of the package under test.

Nothing here imports quatwell.  The quaternionic roots come from the
matching determinant itself (scaled by cos x, so it has no poles and never
sees the Den factor the solver's mismatch multiplies in); the complex and
trial-complex roots come from the tan form on pole-free intervals.  Both
scans are vectorised and every bracket is bisected in one array iteration.
"""

from __future__ import annotations

import json
import math

import numpy as np

SCAN_STEP = 1e-3          # uniform reference scan step in x
_CLUSTER = 1e-2           # dense geometric sampling this close to x_max and kappa_q
_EDGE = 1e-6              # same window edge as the solver's scan
_PINCH = 1e-7             # artifact zero of the determinant at x = kappa_q
_BISECT_STEPS = 60
ROOT_TOL = 1e-9           # accepted |x_cli - x_ref| / max(1, x_ref)


def kappas(v1: float, v2: float, v3: float, a: float) -> tuple[float, float]:
    """Dimensionless depths (kappa_c, kappa_q) of a potential."""
    return a * math.sqrt(v1), a * math.sqrt(math.hypot(v2, v3))


def x_max(kappa_c: float, kappa_q: float) -> float:
    return (kappa_c ** 4 + kappa_q ** 4) ** 0.25


def det_mismatch(xs, kappa_c: float, kappa_q: float):
    """Real scalar proportional to the matching determinant times cos x.

    Above the quaternionic threshold every factor is real.  Below it the
    two products are complex conjugates with |zw| = 1, so the determinant
    points along a fixed phase; projecting that phase out leaves
    Im[(x^2 + i*sqrt(kappa_q^4 - x^4)) (nu sin x + x cos x)(conj(nu) tanh x + x)].
    """
    xs = np.asarray(xs, dtype=float)
    x2 = xs * xs
    diff = x2 * x2 - kappa_q ** 4
    sinx, cosx, thx = np.sin(xs), np.cos(xs), np.tanh(xs)
    kc2 = kappa_c * kappa_c
    out = np.empty_like(xs)
    real = diff >= 0.0
    if real.any():
        s = np.sqrt(diff[real])
        num = np.sqrt(np.maximum(kc2 - s, 0.0))
        nup = np.sqrt(kc2 + s)
        zw = kappa_q ** 4 / (x2[real] + s) ** 2
        xr, sr, cr, tr = xs[real], sinx[real], cosx[real], thx[real]
        out[real] = ((num * sr + xr * cr) * (nup * tr + xr)
                     - zw * (nup * sr + xr * cr) * (num * tr + xr))
    below = ~real
    if below.any():
        q = np.sqrt(-diff[below])
        m = np.sqrt(kc2 * kc2 - diff[below])
        nu = np.sqrt((m + kc2) / 2.0) - 1j * np.sqrt((m - kc2) / 2.0)
        xb = xs[below]
        prod = (nu * sinx[below] + xb * cosx[below]) * (np.conj(nu) * thx[below] + xb)
        out[below] = ((x2[below] + 1j * q) * prod).imag
    return out


def _tan_form(xs, kappa: float):
    xs = np.asarray(xs, dtype=float)
    with np.errstate(all="ignore"):
        return np.tan(xs) + xs / np.sqrt(kappa * kappa - xs * xs)


def _bisect_all(fun, lo, hi):
    """Bisect every bracket [lo_i, hi_i] of the vectorised fun at once."""
    flo = fun(lo)
    for _ in range(_BISECT_STEPS):
        mid = 0.5 * (lo + hi)
        fmid = fun(mid)
        left = np.signbit(flo) != np.signbit(fmid)
        hi = np.where(left, mid, hi)
        lo = np.where(left, lo, mid)
        flo = np.where(left, flo, fmid)
    return 0.5 * (lo + hi)


def _scan_grid(top: float, step: float, kappa_q: float):
    """Uniform grid on the window, densified geometrically near its top and
    on both sides of kappa_q, where weakly bound roots and the threshold
    pinch sit closer together than one uniform step."""
    near = np.geomspace(_CLUSTER, _PINCH, 400)
    xs = np.concatenate([np.arange(_EDGE, top - _EDGE, step), top - _EDGE - near,
                         kappa_q - near, kappa_q + near])
    xs = np.unique(xs[(xs >= _EDGE) & (xs <= top - _EDGE)])
    return xs[np.abs(xs - kappa_q) > _PINCH]


def quaternionic_roots(kappa_c: float, kappa_q: float, step: float = SCAN_STEP):
    """Bound-state roots x = eps*a of the quaternionic well, ascending."""
    xs = _scan_grid(x_max(kappa_c, kappa_q), step, kappa_q)
    if xs.size < 2:
        return np.empty(0)
    vals = det_mismatch(xs, kappa_c, kappa_q)
    cells = np.nonzero(np.signbit(vals[:-1]) != np.signbit(vals[1:]))[0]
    roots = _bisect_all(lambda t: det_mismatch(t, kappa_c, kappa_q),
                        xs[cells], xs[cells + 1])
    return roots[np.abs(roots - kappa_q) > _PINCH]


def complex_roots(kappa: float, step: float = SCAN_STEP):
    """Roots of tan x = -x/sqrt(kappa^2 - x^2) on (0, kappa), ascending.

    Brackets that contain a pole of tan (a sign change of cos) are dropped.
    """
    xs = _scan_grid(kappa, step, -1.0)
    if xs.size < 2:
        return np.empty(0)
    vals = _tan_form(xs, kappa)
    coss = np.cos(xs)
    cells = np.nonzero((vals[:-1] * vals[1:] < 0.0) & (coss[:-1] * coss[1:] > 0.0))[0]
    return _bisect_all(lambda t: _tan_form(t, kappa), xs[cells], xs[cells + 1])


def spectra(kappa_c: float, kappa_q: float) -> dict:
    """Reference root sets: quaternionic, complex (kappa_c), trial (kappa_t)."""
    return {
        "quaternionic": quaternionic_roots(kappa_c, kappa_q),
        "complex": complex_roots(kappa_c),
        "trial": complex_roots(x_max(kappa_c, kappa_q)),
    }


def _roots_agree(got, want) -> bool:
    if len(got) != len(want):
        return False
    got = np.asarray(got, dtype=float)
    return bool(np.all(np.abs(got - want) <= ROOT_TOL * np.maximum(1.0, want)))


def _doc(text: str) -> dict:
    doc = json.loads(text)
    if not isinstance(doc, dict) or set(doc) != {"config", "results", "diagnostics"}:
        raise ValueError("output is not a config/results/diagnostics object")
    return doc


def check_solve(text: str, ref: dict) -> bool:
    states = _doc(text)["results"]
    if any(st["flags"] for st in states):
        return False
    return _roots_agree([st["x"] for st in states], ref["quaternionic"])


def check_compare(text: str, ref: dict) -> bool:
    levels = _doc(text)["results"]
    for key, name in (("x_complex", "complex"), ("x_quaternionic", "quaternionic"),
                      ("x_trial", "trial")):
        roots = [lv[key] for lv in levels if lv[key] is not None]
        if not _roots_agree(roots, ref[name]):
            return False
    return True


def check_verify(text: str) -> bool:
    doc = _doc(text)
    return (doc["diagnostics"]["all_passed"] is True
            and bool(doc["results"])
            and all(r["passed"] is True for r in doc["results"]))
