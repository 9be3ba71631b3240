"""The one-root-per-pi property that root isolation relies on.

Rotated onto its real axis, the matching data give real N' and D' with

    R(x) = sin(x)*D' + x*cos(x)*N' = rho*sin(phi),
    phi = x + theta,   theta = atan2(x*N', D').

If N' >= 0, then 0 <= theta < pi; if, in addition, phi never decreases, the
k-th state is the only zero of R in ((k-1)*pi, k*pi], and the window holds
K = floor(phi(x_max)/pi) states.  The solvers isolate roots on the
pi-lattice on the strength of this, so it is checked here on a dense grid
of 4096 points per pi, over wells drawn by hypothesis (derandomized, so
every run draws the same wells) and over wells with kappa_q or x_max on a
multiple of pi.  x_max stays below 700: the matching of a state overflows
math.sinh above x ~ 710.
"""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from quatwell import quantization
from quatwell.quantization import QuantizationProblem, expected_count, find_bound_states

from .test_mp_oracle import SAMPLE

DENSE = 4096            # points per pi of the checking grid
X_MAX_LIMIT = 700.0
BLOCK = 2 ** 15         # grid points evaluated at once
GATE = settings(derandomize=True, max_examples=80, deadline=None)


@st.composite
def wells(draw):
    """kappa_c on [0.05, 300] and kappa_q/kappa_c on [1e-3, 1e4], both on log scales."""
    kappa_c = 10.0 ** draw(st.floats(math.log10(0.05), math.log10(300.0)))
    # the largest ratio that keeps x_max below X_MAX_LIMIT
    cap = ((X_MAX_LIMIT / kappa_c) ** 4 - 1.0) ** 0.25 * (1.0 - 1e-9)
    ratio = 10.0 ** draw(st.floats(-3.0, math.log10(min(1e4, cap))))
    return kappa_c, ratio * kappa_c


def _on_pi(k, kappa_c):
    """(kappa_c, kappa_q) with x_max = k*pi, up to rounding."""
    return kappa_c, ((k * math.pi) ** 4 - kappa_c ** 4) ** 0.25


# kappa_q on a multiple of pi, x_max on a multiple of pi, the complex limit,
# the extreme ratio, and x_max inside the threshold band of kappa_q
PINNED = [
    (5 * math.pi, 2.5 * math.pi), (5 * math.pi, 5 * math.pi), (50 * math.pi, 25 * math.pi),
    (3.0, math.pi), (0.05, 100 * math.pi), (120.0, 7 * math.pi),
    _on_pi(5, 10.0), _on_pi(40, 60.0), _on_pi(1, 0.5), _on_pi(150, 300.0),
    (9 * math.pi, 0.0), (2.0, 0.0), (150.0, 0.0), (0.05, 500.0), (0.06, 600.0),
]


def _pinned(test):
    for kappa_c, kappa_q in PINNED:
        test = example((kappa_c, kappa_q))(test)
    return test


def _dense_grid(kappa_c, kappa_q):
    x_max = QuantizationProblem(kappa_c, kappa_q).x_max
    grid = np.linspace(1e-6, x_max, max(16, math.ceil(DENSE * x_max / math.pi)))
    return grid[np.abs(grid - kappa_q) >= quantization.DEGENERATE_HALF_WIDTH]


def _blocks(grid):
    """Overlapping blocks of the grid, so differences span block edges."""
    for start in range(0, max(grid.size - 1, 1), BLOCK):
        yield grid[start:start + BLOCK + 1]


@GATE
@given(wells())
@_pinned
def test_theta_in_range_and_phi_never_decreases(well):
    kappa_c, kappa_q = well
    for x in _blocks(_dense_grid(kappa_c, kappa_q)):
        n_turned, d_turned = quantization._turned_terms(x, kappa_c, kappa_q)
        assert n_turned.min() >= 0.0
        theta = np.arctan2(x * n_turned, d_turned)
        assert 0.0 <= theta.min() and theta.max() < math.pi
        assert np.diff(x + theta).min() >= 0.0


def _sign_changes(kappa_c, kappa_q):
    prob = QuantizationProblem(kappa_c, kappa_q)
    changes = 0
    for x in _blocks(_dense_grid(kappa_c, kappa_q)):
        r = quantization.mismatch(x, prob)
        changes += int(np.count_nonzero((r[:-1] * r[1:] < 0.0) | (r[:-1] == 0.0)))
    return changes


def _solve_counting_brackets(kappa_c, kappa_q):
    """The solved set and the number of brackets the lattice produced."""
    seen = []
    scan_brackets = quantization._scan_brackets

    def spy(grid, values):
        xl, xr = scan_brackets(grid, values)
        seen.append(len(xl))
        return xl, xr

    quantization._scan_brackets = spy
    try:
        found = find_bound_states(QuantizationProblem(kappa_c, kappa_q))
    finally:
        quantization._scan_brackets = scan_brackets
    return found, sum(seen)


@GATE
@given(wells())
@_pinned
def test_sign_changes_are_the_lattice_brackets_and_the_states(well):
    kappa_c, kappa_q = well
    found, brackets = _solve_counting_brackets(kappa_c, kappa_q)
    assert not any(st.flags for st in found.states)
    assert _sign_changes(kappa_c, kappa_q) == brackets == len(found.states)
    assert found.expected_count == len(found.states)


BAND = quantization.DEGENERATE_HALF_WIDTH


@pytest.mark.parametrize("kappa_c, kappa_q", [
    (7.0, 2 * math.pi), (50 * math.pi, 25 * math.pi),
    (7.0, 2 * math.pi + 1e-10), (7.0, 2 * math.pi - 1e-10),
    (0.06, 600.0), _on_pi(5, 10.0),
    (3.0, 5e-7), (3.0, 1e-6), (3.0, 1e-6 + 5e-10), (3.0, 0.0),
], ids=["on-2pi", "on-25pi", "above-2pi", "below-2pi", "x_max-in-band", "x_max-on-5pi",
        "below-edge", "on-edge", "in-edge-band", "complex-limit"])
def test_threshold_band_is_a_lattice_cell(kappa_c, kappa_q):
    x_top = QuantizationProblem(kappa_c, kappa_q).x_max
    grid = quantization._pi_lattice(x_top, kappa_q)
    lo, hi = kappa_q - BAND, kappa_q + BAND
    assert not np.any((lo < grid) & (grid < hi))
    for edge in (lo, hi):
        if quantization._SCAN_EDGE < edge < x_top:
            assert edge in grid
    assert np.all(np.diff(grid) > 0.0)
    # the points k*pi are rounded to the nearest float
    assert np.diff(grid).max() <= math.pi + 2 * np.spacing(x_top)


def test_expected_count_matches_the_oracle_wells():
    # the 12 wells of the mpmath oracle; the weak-binding well, whose state
    # is rejected by validation, is the one where K and the count part
    for param in SAMPLE:
        kappa_c, kappa_q = param.values
        found = find_bound_states(QuantizationProblem(kappa_c, kappa_q))
        if param.id == "weak-binding":
            assert (found.expected_count, len(found.states)) == (1, 0)
        else:
            assert found.expected_count == len(found.states), param.id


def test_expected_count_on_arrays_matches_scalars():
    rng = np.random.default_rng(4)
    kappa_c = np.exp(rng.uniform(np.log(0.05), np.log(300.0), 200))
    kappa_q = kappa_c * rng.uniform(0.0, 3.0, 200)
    counts = expected_count(kappa_c, kappa_q)
    assert counts.dtype.kind == "i"
    assert counts.tolist() == [expected_count(float(c), float(q))
                               for c, q in zip(kappa_c, kappa_q)]
    assert type(expected_count(5 * math.pi, 2.5 * math.pi)) is int


def test_complex_limit_count_is_classical():
    # theta(x_max) = pi/2 at kappa_q = 0: K = #{n >= 1 : (n - 1/2)*pi < kappa}
    for kappa in (0.3, 1.5, math.pi / 2 + 1e-3, 2.0, 4.7, 15.0, 15.8, 300.0):
        classical = sum(1 for n in range(1, 200) if (n - 0.5) * math.pi < kappa)
        assert expected_count(kappa) == classical, kappa
