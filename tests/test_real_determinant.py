"""The real determinant R of `quantization.mismatch`.

R is checked against a 50-digit evaluation of its definition,

    Delta = sin(x)*Den + x*cos(x)*Num,
    R = Delta (x > kappa_q),   R = Re(-i*conj(sqrt(zw))*Delta) (x < kappa_q),
    sqrt(zw) = kappa_q^2/(x^2 + S),

at the same double inputs, within a rounding bound fixed beforehand.  The
solver forms R from the outputs (nu_minus, nu_plus, e + S) of the exterior
kernel as G = Delta above kappa_q and G = (e + S)*Delta/kappa_q^2 below it
(equal to the definition there, since |e + S| = kappa_q^2), and takes Re G
or Im G.  G is holomorphic in the kernel outputs and in the rounded inputs
q2 = kappa_q^4 and kappa_q^2, so its error has two first-order parts:

* propagated: sum over those values v of |dG/dv| times the error bound of
  v.  The inputs e = x*x and kappa_c^2 carry u times their value (u = 2^-53),
  kappa_q^4 carries 2u; the kernel's bounds follow `test_exterior`
  (d = e^2 - q2 off by 2e*err(e) + err(q2) + u*(e^2 + |d|), each square
  root moving by min(D/sqrt|A|, sqrt(D)) for an argument error D, plus 4u
  of its value, each sum adding u of its value).
* arithmetic: DEPTH*u times M, the value of G with every input and every
  operation replaced by its modulus (|a| + |b| for a +- b).  DEPTH = 32
  covers the longest chain of roundings after the kernel, which is 25: the
  complex square and quotient in zw (3 + 4), zw*nu (3), two sums and a
  scaling in Num (3), x*cos(x) with cos good to 4 ulp (5), the product with
  Num and the sum with sin(x)*Den (2), the rotation by e + S (3) and the
  division by kappa_q^2, itself rounded (2).

The bound is SAFETY = 2 times the sum.  The signs of R and of the exact
value must agree wherever the exact |R| exceeds it.
"""

import math
import random

import mpmath
import numpy as np
import pytest

from quatwell import quantization
from quatwell.quantization import QuantizationProblem, find_bound_states, mismatch

U = 2.0 ** -53
DEPTH = 32
SAFETY = 2.0
DPS = 50


def _definition(x, kc, kq):
    """R at 50 digits, straight from its definition."""
    s = mpmath.sqrt(mpmath.mpc(x ** 4 - kq ** 4))
    nu_m, nu_p = mpmath.sqrt(kc ** 2 - s), mpmath.sqrt(kc ** 2 + s)
    zw = kq ** 4 / (x ** 2 + s) ** 2
    num = (nu_p - zw * nu_m) * mpmath.tanh(x) + (1 - zw) * x
    den = nu_m * nu_p * (1 - zw) * mpmath.tanh(x) + (nu_m - zw * nu_p) * x
    delta = mpmath.sin(x) * den + x * mpmath.cos(x) * num
    if x > kq:
        return mpmath.re(delta)
    half_phase = kq ** 2 / (x ** 2 + s)
    return mpmath.re(-1j * mpmath.conj(half_phase) * delta)


def _solver_form(x, below, nu_m, nu_p, denom, q2, kq2):
    """G of the module docstring, as a function of its rounded inputs."""
    zw = q2 / denom ** 2
    th = mpmath.tanh(x)
    num = (nu_p - zw * nu_m) * th + (1 - zw) * x
    den = nu_m * nu_p * (1 - zw) * th + (nu_m - zw * nu_p) * x
    delta = mpmath.sin(x) * den + x * mpmath.cos(x) * num
    return denom * delta / kq2 if below else delta


def _modulus_form(x, below, nu_m, nu_p, denom, q2, kq2):
    azw = q2 / abs(denom) ** 2
    th = abs(mpmath.tanh(x))
    anm, anp = abs(nu_m), abs(nu_p)
    num = (anp + azw * anm) * th + (1 + azw) * x
    den = anm * anp * (1 + azw) * th + (anm + azw * anp) * x
    delta = abs(mpmath.sin(x)) * den + x * abs(mpmath.cos(x)) * num
    return abs(denom) * delta / kq2 if below else delta


def _root_error(arg_error, arg, root):
    moved = mpmath.sqrt(arg_error) if arg == 0 else min(
        arg_error / mpmath.sqrt(arg), mpmath.sqrt(arg_error))
    return moved + 4 * U * abs(root)


def exact_and_bound(x, kappa_c, kappa_q):
    """(R at 50 digits, rounding bound of the double-precision R) at x."""
    with mpmath.workdps(DPS):
        x, kc, kq = mpmath.mpf(x), mpmath.mpf(kappa_c), mpmath.mpf(kappa_q)
        exact = _definition(x, kc, kq)
        e, v1, q2, kq2 = x * x, kc ** 2, kq ** 4, kq ** 2
        d = e * e - q2
        s = mpmath.sqrt(mpmath.mpc(d))
        err_d = 2 * e * (U * e) + 2 * U * q2 + U * (e * e + abs(d))
        err_s = _root_error(err_d, abs(d), s)
        inputs, errors = [], []
        for arg in (v1 - s, v1 + s):
            inputs.append(mpmath.sqrt(arg))
            errors.append(_root_error(U * v1 + err_s + U * abs(arg), abs(arg), inputs[-1]))
        inputs += [e + s, q2, kq2]
        errors += [U * e + err_s + U * abs(e + s), 2 * U * q2, U * kq2]
        below = x < kq
        value = _solver_form(x, below, *inputs)
        propagated = 0
        for k, (v, err) in enumerate(zip(inputs, errors)):
            h = mpmath.mpf(10) ** -25 * max(1, abs(v))
            moved = list(inputs)
            moved[k] = v + h
            propagated += abs((_solver_form(x, below, *moved) - value) / h) * err
        arithmetic = DEPTH * U * _modulus_form(x, below, *inputs)
        return exact, SAFETY * (propagated + arithmetic)


WELLS = [(5 * math.pi, 2.5 * math.pi), (5 * math.pi, 5 * math.pi), (12.0, 14.4),
         (50 * math.pi, 25 * math.pi), (1.3, 1.0), (150.0, 180.0)]


def _points(prob, rng):
    kq, top = prob.kappa_q, prob.x_max
    xs = [rng.uniform(0.0, kq) for _ in range(20)] + [rng.uniform(kq, top) for _ in range(20)]
    for offset in (1e-12, 4e-13, 1e-13):
        xs += [kq - offset, kq + offset, top - offset]
    return sorted(xs)


@pytest.mark.parametrize("kappa_c, kappa_q", WELLS)
def test_matches_definition_within_rounding_bound(kappa_c, kappa_q):
    prob = QuantizationProblem(kappa_c, kappa_q)
    xs = _points(prob, random.Random(f"{kappa_c}:{kappa_q}"))
    arrays = mismatch(np.array(xs), prob)
    signed = 0
    for x, from_array in zip(xs, arrays.tolist()):
        exact, bound = exact_and_bound(x, kappa_c, kappa_q)
        for got in (mismatch(x, prob), from_array):
            assert abs(got - exact) <= bound, (x, got, float(exact), float(bound))
        if abs(exact) > bound:
            signed += 1
            assert (mismatch(x, prob) > 0) == (exact > 0)
    # the sign check must not be vacuous
    assert signed >= 0.9 * len(xs)


def _sample_wells(n=100):
    rng = random.Random("real-determinant-sign-changes")
    wells = []
    for _ in range(n):
        kappa_c = math.exp(rng.uniform(math.log(0.3), math.log(60.0)))
        wells.append((kappa_c, rng.uniform(0.0, 1.2) * kappa_c))
    return wells


def test_sign_changes_are_the_validated_states(monkeypatch):
    seen = {}
    scan_brackets = quantization._scan_brackets

    def spy(grid, values, fun, kappa_q):
        brackets, flagged = scan_brackets(grid, values, fun, kappa_q)
        seen["changes"] = int(np.count_nonzero(
            (values[:-1] * values[1:] < 0.0) | (values[:-1] == 0.0)))
        seen["brackets"] = len(brackets)
        return brackets, flagged

    monkeypatch.setattr(quantization, "_scan_brackets", spy)
    wrong = []
    for kappa_c, kappa_q in _sample_wells():
        seen.clear()
        states = find_bound_states(QuantizationProblem(kappa_c, kappa_q)).states
        if (any(st.flags for st in states)
                or not seen["changes"] == seen["brackets"] == len(states)):
            wrong.append((kappa_c, kappa_q, dict(seen), len(states)))
    assert not wrong
