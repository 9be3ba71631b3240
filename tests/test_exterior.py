"""The exterior kernel against a 50-digit mpmath oracle.

`radial.exterior(e, v1, q2)` forms S = sqrt(e^2 - q2), nu_pm = sqrt(v1 -+ S)
and e + S in double precision.  The oracle evaluates the same expressions
exactly (to 50 digits) at the same double inputs, and every computed value
must lie within twice the first-order rounding bound of the kernel's
operation sequence, with unit roundoff u = 2^-53:

    d = e^2 - q2:      fl(fl(e*e) - q2) is off by at most u*(e^2 + |d|)
    S = sqrt(d):       a real argument error D moves the root by at most
                       min(D/sqrt|d|, sqrt(D)); the square root adds 4u|S|
    A = v1 -+ S:       the subtraction adds u*|A| to the error of S
    nu = sqrt(A):      min(D_A/sqrt|A|, sqrt(D_A)) + 4u|nu|
    e + S:             the error of S plus u*|e + S|

The min(.) form holds because both roots of a pair lie in the closed right
half-plane within a right angle of each other, so |sqrt(a) + sqrt(b)| is at
least sqrt(|a| + |b|).  It keeps the bound honest near the threshold
(d -> 0) and near the top of the window (nu_minus -> 0), where the exact
values are ill-conditioned in the inputs.
"""

import math

import mpmath
import numpy as np
import pytest

from quatwell.quantization import QuantizationProblem
from quatwell.radial import exterior

U = 2.0 ** -53
SAFETY = 2.0


def _oracle_and_bounds(e, v1, q2):
    """Exact (nu_minus, nu_plus, e + S) and their error bounds at one point."""
    with mpmath.workdps(50):
        e, v1, q2 = mpmath.mpf(e), mpmath.mpf(v1), mpmath.mpf(q2)
        d = e * e - q2
        s = mpmath.sqrt(mpmath.mpc(d))
        err_d = U * (e * e + abs(d))

        def root_error(arg_error, arg, root):
            moved = mpmath.sqrt(arg_error) if arg == 0 else min(
                arg_error / mpmath.sqrt(abs(arg)), mpmath.sqrt(arg_error))
            return moved + 4 * U * abs(root)

        err_s = root_error(err_d, d, s)
        values, bounds = [], []
        for arg in (v1 - s, v1 + s):
            nu = mpmath.sqrt(arg)
            values.append(nu)
            bounds.append(root_error(err_s + U * abs(arg), abs(arg), nu))
        values.append(e + s)
        bounds.append(err_s + U * abs(e + s))
        return values, bounds


def _check_points(e, v1, q2):
    """Assert the kernel on arrays, and on each point as scalars, within bounds."""
    e, v1, q2 = (np.asarray(col, dtype=float) for col in (e, v1, q2))
    arrays = exterior(e, v1, q2)
    for i in range(e.size):
        values, bounds = _oracle_and_bounds(e[i], v1[i], q2[i])
        scalars = exterior(float(e[i]), float(v1[i]), float(q2[i]))
        for got_array, got_scalar, want, bound in zip(arrays, scalars, values, bounds):
            assert complex(got_scalar) == complex(got_array[i])
            err = abs(mpmath.mpc(complex(got_array[i])) - want)
            assert err <= SAFETY * bound, (e[i], v1[i], q2[i], float(err), float(bound))


def _dimensionless_points(kappa_c, kappa_q, rng, n_random=40):
    """x in (0, x_max): random, and close to kappa_q and to x_max."""
    x_max = QuantizationProblem(kappa_c, kappa_q).x_max
    xs = list(rng.uniform(0.0, 1.0, n_random) * x_max)
    for k in range(2, 13, 2):
        xs.append(x_max * (1.0 - 10.0 ** -k))
        if kappa_q > 0.0:
            xs.extend((kappa_q * (1.0 - 10.0 ** -k), kappa_q * (1.0 + 10.0 ** -k)))
    if kappa_q > 0.0:
        xs.append(kappa_q)
    xs = np.array([x for x in xs if 0.0 < x < x_max])
    return xs * xs, np.full(xs.size, kappa_c ** 2), np.full(xs.size, kappa_q ** 4)


@pytest.mark.parametrize("kappa_c", [0.1, 1.0, 5 * math.pi, 150.0, 1e3, 1e4])
@pytest.mark.parametrize("ratio", [0.0, 0.3, 1.0, 1.7])
def test_dimensionless_units_match_oracle(kappa_c, ratio):
    rng = np.random.default_rng(int(kappa_c * 1000) + int(ratio * 10))
    _check_points(*_dimensionless_points(kappa_c, ratio * kappa_c, rng))


def test_energy_units_match_oracle():
    # random wells and energies in both bound regimes, as (E, V1, V2^2 + V3^2)
    rng = np.random.default_rng(97)
    v1 = rng.uniform(0.5, 40.0, 400)
    q = rng.uniform(0.0, 3.0, 400) * np.sqrt(v1)
    phase = rng.uniform(0.0, 2.0 * math.pi, 400)
    v2, v3 = q * np.cos(phase), q * np.sin(phase)
    top = np.sqrt(v1 * v1 + v2 * v2 + v3 * v3)
    energy = rng.uniform(1e-3, 1.0, 400) * top
    q2 = v2 * v2 + v3 * v3
    assert (energy * energy < q2).sum() > 100 and (energy * energy > q2).sum() > 100
    _check_points(energy, v1, q2)


def test_conjugate_pair_is_exact_below_threshold():
    rng = np.random.default_rng(101)
    kappa_c = 10.0 ** rng.uniform(-1.0, 4.0, 20000)
    kappa_q = kappa_c * rng.uniform(0.01, 2.0, 20000)
    x = kappa_q * rng.uniform(1e-6, 1.0, 20000)
    e, q2 = x * x, kappa_q ** 4
    below = e * e < q2
    assert below.sum() > 19000
    nu_minus, nu_plus, _ = exterior(e, kappa_c ** 2, q2)
    assert np.array_equal(nu_plus[below], np.conjugate(nu_minus[below]))
    assert (nu_minus.real > 0.0).all() and (nu_plus.real > 0.0).all()


def test_scalar_in_scalar_out():
    nu_minus, nu_plus, denom = exterior(5.0, 30.0, 9.0)
    assert all(np.ndim(v) == 0 for v in (nu_minus, nu_plus, denom))
    assert complex(denom) == 9.0
    assert complex(nu_minus) == math.sqrt(26.0)
    assert complex(nu_plus) == math.sqrt(34.0)
