"""Quantization function, root isolation, validation and comparisons."""

import math

import numpy as np
import pytest

from quatwell.radial import DegenerateEnergyError, Regime
from quatwell import quantization
from quatwell.quantization import (
    MAX_SCAN_POINTS,
    BoundState,
    EmptyWindowError,
    QuantizationPoleError,
    QuantizationProblem,
    ScanGridTooLargeError,
    _bisect,
    _pi_lattice,
    _scan_brackets,
    complex_limit_roots,
    f_quantization,
    find_bound_states,
    mismatch,
    reality_report,
    trial_complex_states,
    verify_determinant,
)

from .oracles import complex_well_roots, quaternionic_well_roots

KC = 5 * math.pi
FIG1 = QuantizationProblem(KC, 2.5 * math.pi)
FIG2 = QuantizationProblem(KC, 5 * math.pi)


class TestQuantizationProblem:
    @pytest.mark.parametrize("kwargs", [
        {"kappa_c": math.nan}, {"kappa_c": math.inf},
        {"kappa_c": 1.0, "kappa_q": math.nan}, {"kappa_c": 1.0, "kappa_q": math.inf},
        {"kappa_c": 1.0, "a": math.nan}, {"kappa_c": 1.0, "a": math.inf},
    ])
    def test_non_finite_rejected(self, kwargs):
        with pytest.raises(ValueError, match="finite"):
            QuantizationProblem(**kwargs)

    # (kappa_c^4 + kappa_q^4) overflows a float above about 1.16e77
    @pytest.mark.parametrize("kwargs", [
        {"kappa_c": 1e80}, {"kappa_c": 1.0, "kappa_q": 1e78},
        {"kappa_c": 1e77, "kappa_q": 1e77}, {"kappa_c": 1.7e308},
    ])
    def test_overflowing_window_rejected(self, kwargs):
        with pytest.raises(ValueError, match="too deep"):
            QuantizationProblem(**kwargs)


class TestScanGridLimit:
    def test_default_grid_admits_kappa_1e4(self):
        # 2**16 lattice points reach x_max = 65535*pi, within one pi of the
        # window that 2**24 points at 256 points per pi reached
        for prob in (QuantizationProblem(1e4), QuantizationProblem(1e4, 1e4)):
            assert _pi_lattice(prob.x_max).size <= MAX_SCAN_POINTS
        assert _pi_lattice((MAX_SCAN_POINTS - 1) * math.pi).size == MAX_SCAN_POINTS

    def test_oversized_grid_raises_before_allocating(self, monkeypatch):
        def no_grid(*args, **kwargs):
            raise AssertionError("scan grid allocated")

        monkeypatch.setattr(quantization.np, "arange", no_grid)
        monkeypatch.setattr(quantization, "mismatch", no_grid)
        deep = QuantizationProblem(1e76)
        for solve in (find_bound_states, trial_complex_states):
            with pytest.raises(ScanGridTooLargeError, match="scan grid"):
                solve(deep)
        with pytest.raises(ScanGridTooLargeError):
            complex_limit_roots(1e76)
        # one lattice point past the limit, and windows that are no number
        for kappa in ((MAX_SCAN_POINTS - 0.5) * math.pi, math.inf, math.nan):
            with pytest.raises(ScanGridTooLargeError):
                complex_limit_roots(kappa)
        assert issubclass(ScanGridTooLargeError, ValueError)


class TestDeepWells:
    # sqrt(2)*kappa_c > 709.8: the unscaled exterior amplitudes overflowed here
    @pytest.mark.parametrize("kappa_q, count", [(0.0, 191), (300.0, 194)])
    def test_kappa_c_600_matches_oracle(self, kappa_q, count):
        states = find_bound_states(QuantizationProblem(600.0, kappa_q)).states
        oracle = quaternionic_well_roots(600.0, kappa_q, step=1e-3)
        assert len(states) == len(oracle) == count
        assert max(abs(st.x - want) for st, want in zip(states, oracle)) < 1e-10
        assert all(st.continuity_residual < 1e-8 and not st.flags for st in states)


class TestQuantizationFunction:
    def test_complex_limit_closed_form(self):
        prob = QuantizationProblem(KC, 0.0)
        for x in np.linspace(0.5, KC - 0.5, 37):
            expected = -x / math.sqrt(KC * KC - x * x)
            assert f_quantization(float(x), prob) == pytest.approx(expected, rel=1e-12)

    def test_value_at_kc_over_sqrt2(self):
        prob = QuantizationProblem(KC, 0.0)
        assert f_quantization(KC / math.sqrt(2.0), prob) == pytest.approx(-1.0, rel=1e-14)

    def test_below_threshold_is_real(self):
        # the complex-arithmetic evaluation must discard only rounding noise
        x = 0.5 * FIG1.kappa_q
        value = f_quantization(x, FIG1)
        assert math.isfinite(value)

    def test_window_enforced(self):
        with pytest.raises(ValueError):
            f_quantization(FIG1.x_max + 0.1, FIG1)
        with pytest.raises(ValueError):
            f_quantization(0.0, FIG1)

    def test_degenerate_band_raises(self):
        with pytest.raises(DegenerateEnergyError):
            f_quantization(FIG1.kappa_q + 1e-10, FIG1)

    def test_pole_signal(self, monkeypatch):
        # a vanishing denominator must signal a pole, not return garbage
        import quatwell.quantization as qz
        monkeypatch.setattr(qz, "_num_den", lambda x, kc, kq: (1.0 + 0j, 0j))
        with pytest.raises(QuantizationPoleError):
            qz.f_quantization(1.0, FIG1)


class TestMismatch:
    def test_complex_limit_roots_match(self):
        prob = QuantizationProblem(KC, 0.0)
        oracle = complex_well_roots(KC)
        solved = [st.x for st in find_bound_states(prob).states]
        assert len(solved) == len(oracle)
        for got, want in zip(solved, oracle):
            assert abs(got - want) < 1e-10

    def test_ground_root_location(self):
        # first zero of the mismatch for the deep complex well
        prob = QuantizationProblem(KC, 0.0)
        x1 = find_bound_states(prob).states[0].x
        assert x1 == pytest.approx(2.9525055568355455, abs=1e-9)
        assert abs(mismatch(x1, prob)) < 1e-6 * abs(mismatch(x1 + 0.01, prob))

    def test_sign_change_across_roots(self):
        for st in find_bound_states(FIG1).states:
            left = mismatch(st.x - 1e-4, FIG1)
            right = mismatch(st.x + 1e-4, FIG1)
            assert left * right < 0.0

    def test_array_evaluation(self):
        xs = np.linspace(0.5, 15.0, 11)
        arr = mismatch(xs, FIG1)
        assert arr.shape == xs.shape
        for x, v in zip(xs, arr):
            assert mismatch(float(x), FIG1) == pytest.approx(float(v), rel=1e-14)


class TestFindBoundStates:
    def test_deep_complex_well(self):
        result = find_bound_states(QuantizationProblem(KC, 0.0))
        assert len(result.states) == 5
        assert result.states[0].x == pytest.approx(2.953, abs=1e-2)
        assert all(st.regime is Regime.MID for st in result.states)

    def test_shallow_well_binds_nothing(self):
        result = find_bound_states(QuantizationProblem(1.0, 0.0))
        assert result.states == ()
        assert not result.no_binding

    def test_no_complex_depth_flag(self):
        result = find_bound_states(QuantizationProblem(0.0, 3.0))
        assert result.states == ()
        assert result.no_binding

    def test_fig1_against_dense_oracle(self):
        oracle = quaternionic_well_roots(KC, FIG1.kappa_q)
        solved = find_bound_states(FIG1)
        assert len(solved.states) == len(oracle)
        for st, want in zip(solved.states, oracle):
            assert abs(st.x - want) < 1e-10

    def test_regime_labels(self):
        states = find_bound_states(FIG1).states
        for st in states:
            expected = Regime.BELOW_Q if st.x < FIG1.kappa_q else Regime.MID
            assert st.regime is expected
        assert {st.regime for st in states} == {Regime.BELOW_Q, Regime.MID}

    def test_strictly_increasing_and_validated(self):
        states = find_bound_states(FIG2).states
        energies = [st.energy for st in states]
        assert energies == sorted(energies)
        assert all(b.energy - a.energy > 1e-6 for a, b in zip(states, states[1:]))
        for st in states:
            assert st.det_residual < 1e-8
            assert st.continuity_residual < 1e-8
            assert not st.flags

    def test_roots_are_python_floats(self):
        for prob in (FIG1, FIG2):
            states = find_bound_states(prob).states
            assert states and all(type(st.x) is float for st in states)
            assert all(type(st.energy) is float for st in states)
        roots = complex_limit_roots(KC)
        assert len(roots) == 5 and all(type(x) is float for x in roots)
        trial = trial_complex_states(FIG1).states
        assert trial and all(type(st.x) is float for st in trial)

    def test_mismatched_potential_rejected(self):
        from quatwell.radial import PotentialSpec
        with pytest.raises(ValueError):
            find_bound_states(FIG1, pot=PotentialSpec(1.0))

    def test_radius_scaling(self):
        # same dimensionless depths at a different radius: identical x,
        # energies scaled by 1/a^2
        wide = QuantizationProblem(KC, 2.5 * math.pi, a=2.0)
        base = find_bound_states(FIG1).states
        scaled = find_bound_states(wide).states
        assert len(base) == len(scaled)
        for a, b in zip(base, scaled):
            assert abs(a.x - b.x) < 1e-10
            assert b.energy == pytest.approx(a.energy / 4.0, rel=1e-10)
            assert b.continuity_residual < 1e-8


class TestScanBrackets:
    def test_plain_bracket(self):
        grid = np.array([0.0, 1.0, 2.0])
        vals = np.array([-1.0, 1.0, 2.0])
        brackets, flagged = _scan_brackets(grid, vals, lambda x: x - 0.5, None)
        assert brackets == [(0.0, 1.0)]
        assert flagged == []

    def test_sign_change_inside_band_flagged(self):
        # the only sign change sits inside the excluded threshold band
        kq = 1.0
        fun = lambda x: x - kq
        grid = np.array([0.5, 1.5])
        vals = np.array([fun(0.5), fun(1.5)])
        brackets, flagged = _scan_brackets(grid, vals, fun, kq)
        assert brackets == []
        assert flagged == [kq]

    def test_root_next_to_band_isolated(self):
        # a genuine root just outside the band is still bracketed
        kq = 1.0
        root = 1.2
        fun = lambda x: x - root
        grid = np.array([0.5, 1.5])
        vals = np.array([fun(0.5), fun(1.5)])
        brackets, flagged = _scan_brackets(grid, vals, fun, kq)
        assert flagged == []
        assert len(brackets) == 1
        lo, hi = brackets[0]
        assert lo == pytest.approx(kq + 1e-9)
        assert hi == 1.5

    def test_many_brackets_in_grid_order(self):
        # roots at 0.7, 2.04 and 3.2, an exact zero sample at 1.5, and the
        # cell [2.0, 2.1] straddling the threshold band at kq = 2.05
        kq = 2.05

        def fun(x):
            return (x - 0.7) * (x - 1.5) * (x - 2.04) * (x - 3.2)
        grid = np.array([0.0, 0.5, 1.0, 1.5, 2.0, 2.1, 2.5, 3.0, 3.5])
        vals = np.array([fun(x) for x in grid])
        assert vals[3] == 0.0
        brackets, flagged = _scan_brackets(grid, vals, fun, kq)
        assert brackets == [(0.5, 1.0), (1.5, 1.5), (2.0, kq - 1e-9), (3.0, 3.5)]
        assert flagged == []


def _scalar_bisect(fun, xl, xr, tol):
    """One bracket at a time, one scalar evaluation per halving."""
    if xl == xr:
        return xl
    fl = fun(xl)
    while xr - xl > tol:
        xm = 0.5 * (xl + xr)
        if xm <= xl or xm >= xr:
            break
        fm = fun(xm)
        if fm == 0.0:
            return xm
        if (fl < 0.0) != (fm < 0.0):
            xr = xm
        else:
            xl, fl = xm, fm
    return 0.5 * (xl + xr)


class TestBatchedBisect:
    @pytest.mark.parametrize("prob", [FIG1, FIG2], ids=["fig1", "fig2"])
    @pytest.mark.parametrize("tol", [1e-12, 1e-6, 0.0])
    def test_matches_scalar_rule_bit_for_bit(self, prob, tol):
        grid = np.linspace(1e-6, prob.x_max - 1e-6, 2048)
        grid = grid[np.abs(grid - prob.kappa_q) >= 1e-9]

        def g(t):
            return mismatch(t, prob)
        brackets, _ = _scan_brackets(grid, g(grid), g, prob.kappa_q)
        brackets.append((brackets[2][0], brackets[2][0]))   # an exact-zero bracket
        xl, xr = np.array(brackets).T
        batched = _bisect(g, xl, xr, tol).tolist()
        assert batched == [_scalar_bisect(g, lo, hi, tol) for lo, hi in brackets]
        assert batched[-1] == brackets[2][0]

    def test_exact_zero_midpoint_is_the_root(self):
        def fun(x):
            return np.asarray(x) - 0.5
        calls = []

        def counted(x):
            calls.append(np.size(x))
            return fun(x)
        brackets = [(0.0, 1.0), (0.25, 1.0), (0.3, 0.3), (0.4, 0.4 + 1e-13)]
        xl, xr = np.array(brackets).T
        got = _bisect(counted, xl, xr, 1e-12).tolist()
        assert got == [_scalar_bisect(fun, lo, hi, 1e-12) for lo, hi in brackets]
        assert got[0] == 0.5 and got[2] == 0.3
        # one array call for the left ends, then one per halving
        assert calls[0] == 2 and max(calls) == 2 and len(calls) < 45

    def test_no_brackets(self):
        def fun(x):
            raise AssertionError("nothing to evaluate")
        assert _bisect(fun, [], [], 1e-12).tolist() == []


class TestVerifyDeterminant:
    def test_residual_small_at_roots(self):
        for prob in (FIG1, FIG2):
            for st in find_bound_states(prob).states:
                assert verify_determinant(st, prob) < 1e-8

    def test_residual_large_between_roots(self):
        states = find_bound_states(FIG1).states
        for a, b in zip(states, states[1:]):
            mid = BoundState(0.5 * (a.x + b.x), 0.0, Regime.MID, 0.0, 0.0)
            assert verify_determinant(mid, FIG1) > 1e-3

    def test_complex_limit_reduction(self):
        # zw = 0 collapses the condition to the complex-well equation
        prob = QuantizationProblem(KC, 0.0)
        for x in complex_well_roots(KC):
            st = BoundState(x, 0.0, Regime.MID, 0.0, 0.0)
            assert verify_determinant(st, prob) < 1e-8


class TestTrialComplex:
    def test_kappa_trial_exact(self):
        assert QuantizationProblem(KC, 0.0).x_max == KC
        expected = (KC**4 + KC**4) ** 0.25
        assert FIG2.x_max == expected
        assert FIG2.x_max == pytest.approx(KC * 2**0.25, rel=1e-15)

    def test_degenerate_comparison(self):
        prob = QuantizationProblem(KC, 0.0)
        trial = trial_complex_states(prob)
        full = find_bound_states(prob)
        assert len(trial.states) == len(full.states)
        for a, b in zip(trial.states, full.states):
            assert abs(a.x - b.x) < 1e-10

    def test_roots_match_oracle_at_kt(self):
        for prob in (FIG1, FIG2):
            kt = prob.x_max
            oracle = complex_well_roots(kt)
            trial = trial_complex_states(prob)
            assert len(trial.states) == len(oracle)
            for st, want in zip(trial.states, oracle):
                assert abs(st.x - want) < 1e-10


class TestRealityReport:
    def test_empty_window(self):
        with pytest.raises(EmptyWindowError):
            reality_report(QuantizationProblem(KC, 0.0), 100)

    def test_fig1_reality(self):
        report = reality_report(FIG1, 1000)
        assert report.max_rel_imag < 1e-10
        assert report.max_zw_deviation < 1e-12
        assert report.n_samples == 1000
        assert report.window == (0.0, FIG1.kappa_q)

    def test_sample_count_required(self):
        with pytest.raises(ValueError):
            reality_report(FIG1, 0)


class TestSpectrumInvariance:
    def test_phase_rotation(self):
        from quatwell.radial import PotentialSpec
        rng = np.random.default_rng(79)
        for _ in range(10):
            kappa_c = rng.uniform(3.0, 10.0)
            kappa_q = rng.uniform(0.3, 0.9) * kappa_c
            prob = QuantizationProblem(kappa_c, kappa_q)
            q = kappa_q**2
            phase = rng.uniform(0.0, 2.0 * math.pi)
            theta = rng.uniform(0.0, 2.0 * math.pi)
            v2, v3 = q * math.cos(phase), q * math.sin(phase)
            rot = (v2 * math.cos(theta) - v3 * math.sin(theta),
                   v2 * math.sin(theta) + v3 * math.cos(theta))
            res_a = find_bound_states(prob, pot=PotentialSpec(kappa_c**2, v2, v3))
            res_b = find_bound_states(prob, pot=PotentialSpec(kappa_c**2, *rot))
            assert len(res_a.states) == len(res_b.states)
            for sa, sb in zip(res_a.states, res_b.states):
                assert abs(sa.x - sb.x) < 1e-10
