"""The solver's roots against the 50-digit oracle."""

import math

import mpmath
import pytest

from quatwell import quantization
from quatwell.quantization import QuantizationProblem, find_bound_states

from . import mp_oracle

RATIOS = (0.0, 0.5, 1.0, 1.2)
DEPTHS = (1.2, 12.0, 150.0)

SAMPLE = [pytest.param(kc, ratio * kc, id=f"kc{kc:g}-ratio{ratio:g}")
          for kc in DEPTHS for ratio in RATIOS]
# a state 5.5e-8 below x_max, which a scan stopping 1e-6 below x_max missed;
# it validates with det residual 6.9e-10 and continuity 9.4e-9, a thin
# margin under validate_tol = 1e-8
SAMPLE.append(pytest.param(0.08040783648979845, 0.6589974379370833, id="near-threshold"))
# a state 7.85e-7 below x_max = kappa_c: the pi-lattice brackets it, but the
# root refined to 1e-12 has det residual 1.93e-8 and continuity 3.87e-8,
# above validate_tol = 1e-8, so validation rejects it
SAMPLE.append(pytest.param(
    math.pi / 2 + 1e-3, 0.0, id="weak-binding",
    marks=pytest.mark.xfail(strict=True, reason=(
        "validation rejects the bracketed root: det residual 1.93e-8 and "
        "continuity 3.87e-8 against validate_tol 1e-8"))))


@pytest.mark.parametrize("kappa_c, kappa_q", SAMPLE)
def test_roots_match_oracle(kappa_c, kappa_q):
    want = [float(x) for x in mp_oracle.roots(kappa_c, kappa_q)]
    states = find_bound_states(QuantizationProblem(kappa_c, kappa_q)).states
    assert all(not st.flags for st in states)
    assert len(states) == len(want)
    for st, ref in zip(states, want):
        assert abs(st.x - ref) < 1e-10


def test_weak_binding_state_seen_by_oracle():
    kappa = math.pi / 2 + 1e-3
    (root,) = mp_oracle.roots(kappa, 0.0)
    assert 7.8e-7 < kappa - root < 7.9e-7


def test_weak_binding_state_is_bracketed_then_rejected(monkeypatch):
    kappa = math.pi / 2 + 1e-3
    seen = []
    residual = quantization._det_relative_residual

    def record(x, prob):
        seen.append((x, residual(x, prob)))
        return seen[-1][1]

    monkeypatch.setattr(quantization, "_det_relative_residual", record)
    assert find_bound_states(QuantizationProblem(kappa, 0.0)).states == ()
    ((x, det),) = seen
    (root,) = mp_oracle.roots(kappa, 0.0)
    assert abs(x - float(root)) < 1e-10
    assert 1e-8 < det < 2e-8


@pytest.mark.parametrize("kappa_c, kappa_q", [(5 * math.pi, 2.5 * math.pi),
                                               (12.0, 14.4), (150.0, 75.0)])
def test_oracle_discards_only_a_vanishing_part(kappa_c, kappa_q):
    # the real reduction keeps all of D: Im D vanishes above kappa_q, and
    # Re(conj(sqrt(zw))*D) below it
    x_max = (kappa_c ** 4 + kappa_q ** 4) ** 0.25
    for k in range(1, 40):
        x = x_max * k / 40
        d, half_phase = mp_oracle.det_cos(x, kappa_c, kappa_q)
        with mpmath.workdps(mp_oracle.DPS):
            lost = mpmath.im(d) if x > kappa_q else mpmath.re(mpmath.conj(half_phase) * d)
        assert abs(lost) <= 1e-40 * abs(d)
        assert abs(mp_oracle.real_det(x, kappa_c, kappa_q)) == pytest.approx(
            float(abs(d)), rel=1e-12)
