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
    _lattice_roots,
    _pi_lattice,
    _scan_brackets,
    complex_limit_roots,
    f_quantization,
    find_bound_states,
    mismatch,
    quantization_function,
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
        # below kappa_q, f comes from the turned real pair N', D'
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

    def test_array_matches_scalar(self):
        # f_quantization is the one value of the array function, faults included
        kq = FIG1.kappa_q
        xs = np.array([0.0, 0.5, kq - 1e-3, kq + 1e-10, kq + 1e-3, 10.0,
                       FIG1.x_max, FIG1.x_max + 1.0])
        values, faults = quantization_function(xs, FIG1)
        assert faults.tolist() == ["domain", "", "", "degenerate", "", "",
                                   "domain", "domain"]
        errors = {"domain": ValueError, "degenerate": DegenerateEnergyError}
        for x, value, fault in zip(xs.tolist(), values.tolist(), faults.tolist()):
            if fault:
                assert value == 0.0
                with pytest.raises(errors[fault]):
                    f_quantization(x, FIG1)
            else:
                assert f_quantization(x, FIG1) == value

    def test_pole_signal(self, monkeypatch):
        # a vanishing denominator must signal a pole, not return garbage
        import quatwell.quantization as qz
        monkeypatch.setattr(qz, "_turned_terms",
                            lambda x, kc, kq: (np.ones_like(x), np.zeros_like(x)))
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

    @pytest.mark.parametrize("prob", [FIG1, FIG2, QuantizationProblem(KC, 0.0),
                                      QuantizationProblem(5.0, 1e-300)],
                             ids=["fig1", "fig2", "complex", "tiny-kappa-q"])
    def test_scalar_is_the_array_element_bit_for_bit(self, prob):
        xs = np.linspace(1e-3, prob.x_max, 257)[:-1]
        arr = mismatch(xs, prob)
        scalars = [mismatch(x, prob) for x in xs.tolist()]
        assert all(type(r) is float for r in scalars)
        assert np.array_equal(np.array(scalars).view(np.int64), arr.view(np.int64))

    @pytest.mark.filterwarnings("error")
    def test_underflowing_kappa_q_is_the_complex_limit(self):
        # kappa_q^2 underflows to 0; the below-threshold branch must not divide by it
        tiny = find_bound_states(QuantizationProblem(5.0, 1e-300))
        plain = find_bound_states(QuantizationProblem(5.0, 0.0))
        assert len(tiny.states) == 2
        assert [st.x for st in tiny.states] == [st.x for st in plain.states]


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


def _pairs(brackets):
    xl, xr = brackets
    return list(zip(xl.tolist(), xr.tolist()))


def _line(root):
    return lambda x: np.asarray(x) - root


class TestScanBrackets:
    def test_plain_bracket(self):
        grid = np.array([0.0, 1.0, 2.0])
        vals = np.array([-1.0, 1.0, 2.0])
        assert _pairs(_scan_brackets(grid, vals)) == [(0.0, 1.0)]
        roots, flagged = _lattice_roots(_line(0.5), 2.0, 1e-12)
        assert roots == [pytest.approx(0.5, abs=1e-12)]
        assert flagged == []

    def test_sign_change_inside_band_flagged(self):
        # the only sign change sits inside the excluded threshold band
        kq = 1.0
        roots, flagged = _lattice_roots(_line(kq), 1.5, 1e-12, kq)
        assert roots == []
        assert flagged == [kq]

    def test_root_next_to_band_isolated(self):
        # a genuine root just outside the band is still bracketed
        kq = 1.0
        root = 1.2
        fun = _line(root)
        grid = _pi_lattice(1.5, kq)
        brackets = _pairs(_scan_brackets(grid, fun(grid)))
        roots, flagged = _lattice_roots(fun, 1.5, 1e-12, kq)
        assert flagged == []
        assert roots == [pytest.approx(root, abs=1e-12)]
        assert len(brackets) == 1
        lo, hi = brackets[0]
        assert lo == pytest.approx(kq + 1e-9)
        assert hi == 1.5

    def test_many_brackets_in_grid_order(self):
        # roots at 0.7, 2.04 and 3.2, an exact zero sample at 1.5, and the
        # threshold band at kq = 2.05 as a cell of its own inside [2.0, 2.1]
        kq = 2.05

        def fun(x):
            return (x - 0.7) * (x - 1.5) * (x - 2.04) * (x - 3.2)
        grid = np.array([0.0, 0.5, 1.0, 1.5, 2.0, kq - 1e-9, kq + 1e-9, 2.1, 2.5, 3.0, 3.5])
        vals = fun(grid)
        assert vals[3] == 0.0
        xl, xr = _scan_brackets(grid, vals)
        # oriented: fun <= 0 at xl, so a falling sign change runs right to left
        assert _pairs((xl, xr)) == [(1.0, 0.5), (1.5, 1.5), (kq - 1e-9, 2.0), (3.0, 3.5)]
        assert np.all(fun(xl) <= 0.0) and np.all(fun(xr) >= 0.0)
        # no bracket spans the band, so nothing is flagged
        assert not np.any((np.minimum(xl, xr) < kq) & (kq < np.maximum(xl, xr)))


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
        xl, xr = _scan_brackets(grid, g(grid))
        xl, xr = np.append(xl, xl[2]), np.append(xr, xl[2])   # an exact-zero bracket
        batched = _bisect(g, xl, xr, tol).tolist()
        # the reference bisects the ordered bracket
        assert batched == [_scalar_bisect(g, min(lo, hi), max(lo, hi), tol)
                           for lo, hi in zip(xl.tolist(), xr.tolist())]
        assert batched[-1] == xl[2]

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
        # one array call per halving, none for the bracket ends
        assert calls[0] == 2 and max(calls) == 2 and len(calls) < 45

    def test_no_brackets(self):
        def fun(x):
            raise AssertionError("nothing to evaluate")
        assert _bisect(fun, [], [], 1e-12).tolist() == []

    def test_one_lattice_call_then_one_per_halving(self, monkeypatch):
        prob = QuantizationProblem(7.0, 3.0)
        sizes = []

        def spy(x, p):
            sizes.append(np.ndim(x) and np.size(x))
            return mismatch(x, p)
        monkeypatch.setattr(quantization, "mismatch", spy)
        find_bound_states(prob)
        grid = _pi_lattice(prob.x_max, prob.kappa_q)
        xl, xr = _scan_brackets(grid, mismatch(grid, prob))
        halvings = []
        for lo, hi in zip(xl.tolist(), xr.tolist()):
            evals = []
            _scalar_bisect(lambda t: evals.append(t) or mismatch(t, prob),
                           min(lo, hi), max(lo, hi), 1e-12)
            halvings.append(len(evals) - 1)   # less its call at the left end
        # no scalar call: the band edges are lattice points
        assert sizes[0] == grid.size and 0 not in sizes
        assert len(sizes) == 1 + max(halvings) == 43


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

    @pytest.mark.parametrize("kappa_q", [1e-78, 1e-100, 1e-300])
    def test_underflowing_window_is_empty(self, kappa_q):
        with pytest.raises(EmptyWindowError, match="underflows"):
            reality_report(QuantizationProblem(5.0, kappa_q), 100)

    def test_smallest_measured_window(self):
        # kappa_q^4 just inside the normal range is still measured
        report = reality_report(QuantizationProblem(5.0, 1.3e-77), 1000)
        assert report.max_rel_imag < 1e-10
        assert report.max_zw_deviation < 1e-12

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
