"""Characteristic data, region solutions, matching and diagnostics."""

import cmath
import math

import numpy as np
import pytest

from quatwell.quaternion import symplectic_split
from quatwell.radial import (
    DegenerateEnergyError,
    NotARootError,
    PotentialSpec,
    RadialState,
    Regime,
    UnsupportedRegimeError,
    characteristic_data,
    characteristic_exponents,
    classify_regime,
    eval_region1,
    eval_region2,
    ode_residual,
    radial_norm,
    solve_coefficients,
    symplectic_factors,
)
from quatwell.quantization import QuantizationProblem, find_bound_states

from .oracles import quaternionic_well_roots, simpson


def _random_well(rng):
    v1 = rng.uniform(0.5, 40.0)
    q = rng.uniform(0.0, 3.0) * math.sqrt(v1)
    phase = rng.uniform(0.0, 2.0 * math.pi)
    return PotentialSpec(v1, q * math.cos(phase), q * math.sin(phase))


def _bound_energy(rng, pot):
    while True:
        energy = rng.uniform(1e-3, 1.0) * (pot.total_threshold - 2e-3)
        if (abs(energy - pot.q_threshold) > 1e-6
                and abs(energy - pot.total_threshold) > 1e-6):
            return energy


class TestPotentialSpec:
    def test_kappas(self):
        pot = PotentialSpec(25.0, 3.0, 4.0, a=2.0)
        assert pot.kappa_c == 10.0
        assert pot.kappa_q == pytest.approx(2.0 * math.sqrt(5.0), rel=1e-15)

    def test_from_kappas_round_trip(self):
        pot = PotentialSpec.from_kappas(5 * math.pi, 2.5 * math.pi)
        assert pot.kappa_c == pytest.approx(5 * math.pi, rel=1e-15)
        assert pot.kappa_q == pytest.approx(2.5 * math.pi, rel=1e-15)
        assert pot.v3 == 0.0

    def test_invalid(self):
        with pytest.raises(ValueError):
            PotentialSpec(0.0)
        with pytest.raises(ValueError):
            PotentialSpec(1.0, a=-1.0)

    @pytest.mark.parametrize("kwargs", [
        {"v1": math.nan}, {"v1": math.inf}, {"v1": 1.0, "v2": math.nan},
        {"v1": 1.0, "v2": -math.inf}, {"v1": 1.0, "v3": math.inf},
        {"v1": 1.0, "a": math.nan}, {"v1": 1.0, "a": math.inf},
    ])
    def test_non_finite_rejected(self, kwargs):
        with pytest.raises(ValueError, match="finite"):
            PotentialSpec(**kwargs)


class TestCharacteristicExponents:
    def test_complex_well_reduction(self):
        num, nup = characteristic_exponents(9.0, PotentialSpec(25.0))
        assert num == pytest.approx(4.0, rel=1e-15)
        assert nup == pytest.approx(math.sqrt(34.0), rel=1e-15)

    def test_below_threshold_example(self):
        num, nup = characteristic_exponents(2.4, PotentialSpec(3.0, 0.0, 4.0))
        assert abs(num - (1.9218 - 0.8326j)) < 1e-3
        assert nup == num.conjugate()

    def test_below_threshold_matches_principal_root(self):
        # closed-form split against cmath principal square root
        rng = np.random.default_rng(53)
        for _ in range(200):
            pot = _random_well(rng)
            if pot.q_threshold < 1e-2:
                continue
            energy = 0.5 * pot.q_threshold
            num, nup = characteristic_exponents(energy, pot)
            s = cmath.sqrt(complex(energy**2 - pot.q_threshold**2, 0.0))
            assert abs(num - cmath.sqrt(pot.v1 - s)) < 1e-12 * abs(num)
            assert abs(nup - cmath.sqrt(pot.v1 + s)) < 1e-12 * abs(nup)

    def test_quartic_residual(self):
        rng = np.random.default_rng(59)
        for _ in range(500):
            pot = _random_well(rng)
            energy = _bound_energy(rng, pot)
            const = pot.v1**2 + pot.q_threshold**2 - energy**2
            for nu in characteristic_exponents(energy, pot):
                nu2 = nu * nu
                resid = abs(nu2 * nu2 - 2.0 * pot.v1 * nu2 + const)
                scale = abs(nu2) ** 2 + 2.0 * pot.v1 * abs(nu2) + abs(const)
                assert resid < 1e-10 * scale

    def test_positive_real_parts(self):
        rng = np.random.default_rng(61)
        for _ in range(200):
            pot = _random_well(rng)
            energy = _bound_energy(rng, pot)
            num, nup = characteristic_exponents(energy, pot)
            assert num.real > 0.0
            assert nup.real > 0.0

    def test_degenerate_band_raises(self):
        pot = PotentialSpec(3.0, 0.0, 4.0)
        with pytest.raises(DegenerateEnergyError):
            characteristic_exponents(4.0 + 1e-10, pot)
        with pytest.raises(DegenerateEnergyError):
            characteristic_exponents(5.0 - 1e-10, pot)
        with pytest.raises(ValueError):
            characteristic_exponents(0.0, pot)


class TestSymplecticFactors:
    def test_complex_limit_is_zero(self):
        assert symplectic_factors(3.0, PotentialSpec(25.0)) == (0j, 0j)

    def test_mid_regime_example(self):
        w, z = symplectic_factors(13.0, PotentialSpec(9.0, 3.0, 4.0))
        assert w == pytest.approx(-0.16 - 0.12j, abs=1e-15)
        assert z == pytest.approx(-0.16 + 0.12j, abs=1e-15)
        assert z * w == pytest.approx(0.04, abs=1e-15)

    def test_below_threshold_example(self):
        w, z = symplectic_factors(3.0, PotentialSpec(9.0, 5.0, 0.0))
        assert w == pytest.approx(-0.8 - 0.6j, abs=1e-15)
        assert z == pytest.approx(0.8 + 0.6j, abs=1e-15)
        phase = cmath.exp(-2j * math.atan2(4.0, 3.0))
        assert z * w == pytest.approx(phase, abs=1e-15)
        assert z * w == pytest.approx(-0.28 - 0.96j, abs=1e-15)

    def test_rotation_invariance_of_products(self):
        # rotating (V2, V3) at fixed magnitude rotates w, z in phase only
        rng = np.random.default_rng(67)
        for _ in range(100):
            pot = _random_well(rng)
            if pot.q_threshold < 1e-2:
                continue
            energy = _bound_energy(rng, pot)
            theta = rng.uniform(0.0, 2.0 * math.pi)
            v2r = pot.v2 * math.cos(theta) - pot.v3 * math.sin(theta)
            v3r = pot.v2 * math.sin(theta) + pot.v3 * math.cos(theta)
            rot = PotentialSpec(pot.v1, v2r, v3r, pot.a)
            w1, z1 = symplectic_factors(energy, pot)
            w2, z2 = symplectic_factors(energy, rot)
            assert abs(w2) == pytest.approx(abs(w1), abs=1e-12)
            assert z2 * w2 == pytest.approx(z1 * w1, abs=1e-12)
            num1, nup1 = characteristic_exponents(energy, pot)
            num2, nup2 = characteristic_exponents(energy, rot)
            assert abs(num2 - num1) < 1e-12 * abs(num1)
            assert abs(nup2 - nup1) < 1e-12 * abs(nup1)


def _synthetic_state(pot, energy, alpha1=0j, gamma1=0j, beta2_a=0j, delta2_a=0j):
    cd = characteristic_data(energy, pot)
    a = pot.a
    return RadialState(
        energy=energy, epsilon=math.sqrt(energy),
        alpha1=alpha1, gamma1=gamma1,
        beta2=beta2_a * cmath.exp(cd.nu_minus * a),
        delta2=delta2_a * cmath.exp(cd.nu_plus * a),
        chardata=cd, potential=pot, norm_constant=1.0,
        continuity_residual=0.0, beta2_a=beta2_a, delta2_a=delta2_a)


class TestRegionEvaluation:
    def test_region1_vanishes_at_origin(self):
        st = _synthetic_state(PotentialSpec(25.0), 9.0, alpha1=1.0 + 0.5j, gamma1=0.3j)
        assert eval_region1(0.0, st).norm() == 0.0

    def test_region1_pure_complex(self):
        pot = PotentialSpec(25.0, a=1.0)
        energy = (math.pi / 2) ** 2  # eps*a = pi/2
        st = _synthetic_state(pot, energy, alpha1=1.0)
        val = eval_region1(1.0, st)
        assert val.w == pytest.approx(1.0, rel=1e-15)
        assert val.x == val.y == val.z == 0.0

    def test_region1_mixed(self):
        pot = PotentialSpec(25.0, a=1.0)
        st = _synthetic_state(pot, (math.pi / 2) ** 2, alpha1=1.0, gamma1=1.0)
        val = eval_region1(1.0, st)
        assert val.w == pytest.approx(1.0, rel=1e-14)
        assert val.y == pytest.approx(2.30130, abs=1e-5)

    def test_region1_out_of_range(self):
        st = _synthetic_state(PotentialSpec(25.0), 9.0, alpha1=1.0)
        with pytest.raises(ValueError):
            eval_region1(1.5, st)
        with pytest.raises(ValueError):
            eval_region1(-0.1, st)

    def test_region2_decay(self):
        pot = PotentialSpec(25.0, 3.0, 4.0)
        st = _synthetic_state(pot, 3.0, beta2_a=1.0, delta2_a=0.5 - 0.2j)
        a = pot.a
        near = eval_region2(a, st).norm()
        rate = st.chardata.nu_minus.real
        far = eval_region2(a + 50.0 / rate, st).norm()
        assert far < 1e-20 * near

    def test_region2_complex_limit(self):
        pot = PotentialSpec(25.0)
        st = _synthetic_state(pot, 9.0, beta2_a=0.7 + 0.1j)
        val = eval_region2(2.0, st)
        c1, c2 = symplectic_split(val)
        assert c2 == 0.0
        expected = cmath.exp(-st.chardata.nu_minus * 1.0) * (0.7 + 0.1j)
        assert c1 == pytest.approx(expected, rel=1e-14)

    def test_region2_symplectic_parts(self):
        pot = PotentialSpec(25.0, 3.0, 4.0)
        st = _synthetic_state(pot, 3.0, beta2_a=1.0)
        r = 1.7
        c1, c2 = symplectic_split(eval_region2(r, st))
        damp = cmath.exp(-st.chardata.nu_minus * (r - pot.a))
        assert c1 == pytest.approx(damp, rel=1e-14)
        assert c2 == pytest.approx(st.chardata.w * damp, rel=1e-14)

    def test_region2_beta2_form_agrees(self):
        # exp(-nu*r)*beta2 equals the boundary-scaled evaluation
        pot = PotentialSpec(25.0, 3.0, 4.0)
        st = _synthetic_state(pot, 3.0, beta2_a=0.4 - 0.3j, delta2_a=0.1j)
        r = 2.3
        cd = st.chardata
        c1 = cmath.exp(-cd.nu_minus * r) * st.beta2 + cd.z * cmath.exp(-cd.nu_plus * r) * st.delta2
        c2 = cd.w * cmath.exp(-cd.nu_minus * r) * st.beta2 + cmath.exp(-cd.nu_plus * r) * st.delta2
        val = eval_region2(r, st)
        v1, v2 = symplectic_split(val)
        assert v1 == pytest.approx(c1, rel=1e-12)
        assert v2 == pytest.approx(c2, rel=1e-12)

    def test_region2_monotone_decay(self):
        pot = PotentialSpec(25.0, 3.0, 4.0)
        st = _synthetic_state(pot, 3.0, beta2_a=1.0 - 0.4j, delta2_a=0.6 + 0.2j)
        start = pot.a + 3.0 / st.chardata.nu_minus.real
        norms = [eval_region2(start + k * 0.25, st).norm() for k in range(20)]
        assert all(b < a for a, b in zip(norms, norms[1:]))

    def test_region2_free_regime_rejected(self):
        pot = PotentialSpec(4.0, 0.3, 0.4)
        cd = characteristic_data(10.0, pot)
        assert cd.regime is Regime.FREE
        st = RadialState(10.0, math.sqrt(10.0), 0j, 0j, 0j, 0j, cd, pot, 1.0, 0.0, 1.0, 0.0)
        with pytest.raises(UnsupportedRegimeError):
            eval_region2(1.5, st)


class TestSolveCoefficients:
    def test_complex_limit_decouples(self):
        prob = QuantizationProblem(5 * math.pi, 0.0)
        root = find_bound_states(prob).states[0]
        st = root.radial
        assert st.gamma1 == 0.0
        assert st.delta2 == 0.0
        assert st.continuity_residual < 1e-8

    def test_lowest_fig1_root_nullspace(self):
        kc, kq = 5 * math.pi, 2.5 * math.pi
        x = quaternionic_well_roots(kc, kq)[0]
        pot = PotentialSpec.from_kappas(kc, kq)
        st = solve_coefficients(x * x, pot)
        # the recovered coefficients satisfy both matrix rows
        cd = st.chardata
        b, d = st.beta2_a, st.delta2_a
        sinx, cosx, thx = math.sin(x), math.cos(x), math.tanh(x)
        row1 = (cd.nu_minus * sinx + x * cosx) * b + cd.z * (cd.nu_plus * sinx + x * cosx) * d
        row2 = cd.w * (cd.nu_minus * thx + x) * b + (cd.nu_plus * thx + x) * d
        scale = abs(cd.nu_plus) * (abs(b) + abs(d))
        assert abs(row1) < 1e-8 * scale
        assert abs(row2) < 1e-8 * scale
        assert st.continuity_residual < 1e-8

    def test_not_a_root_rejected(self):
        pot = PotentialSpec.from_kappas(5 * math.pi, 2.5 * math.pi)
        with pytest.raises(NotARootError):
            solve_coefficients(20.0, pot)

    def test_free_energy_rejected(self):
        pot = PotentialSpec(4.0)
        with pytest.raises(NotARootError):
            solve_coefficients(100.0, pot)

    def test_gauge_is_real_positive(self):
        prob = QuantizationProblem(5 * math.pi, 2.5 * math.pi)
        for st in find_bound_states(prob).states:
            b = st.radial.beta2_a
            assert b.imag == pytest.approx(0.0, abs=1e-15 * abs(b))
            assert b.real > 0.0


class TestRadialNorm:
    def test_pure_sine_closed_form(self):
        pot = PotentialSpec(25.0, a=1.0)
        energy = 9.0
        eps = 3.0
        st = _synthetic_state(pot, energy, alpha1=1.0)
        expected = 0.5 - math.sin(2.0 * eps) / (4.0 * eps)
        assert radial_norm(st) == pytest.approx(expected, rel=1e-10)
        # and against a generic quadrature oracle
        direct = simpson(lambda r: math.sin(eps * r) ** 2, 0.0, 1.0, 4096)
        assert radial_norm(st) == pytest.approx(direct, rel=1e-10)

    def test_step_halving_converged(self):
        prob = QuantizationProblem(5 * math.pi, 2.5 * math.pi)
        st = find_bound_states(prob).states[0].radial
        coarse = radial_norm(st, grid_step=st.potential.a / 2048)
        fine = radial_norm(st, grid_step=st.potential.a / 4096)
        assert abs(coarse - fine) < 1e-9

    def test_solved_states_are_normalized(self):
        prob = QuantizationProblem(5 * math.pi, 5 * math.pi)
        for st in find_bound_states(prob).states:
            assert radial_norm(st.radial) == pytest.approx(1.0, abs=1e-8)


class TestOdeResidual:
    def test_fd_order_inside(self):
        # truncation-dominated regime: residual drops fourfold when h halves
        pot = PotentialSpec(200.0, a=1.0)
        st = _synthetic_state(pot, 100.0, alpha1=1.0, gamma1=0.2j)
        samples = [0.21, 0.43, 0.77]
        r1 = ode_residual(st, samples, h=2e-3)
        r2 = ode_residual(st, samples, h=1e-3)
        assert r1 / r2 == pytest.approx(4.0, abs=0.2)

    def test_exact_interior_solution(self):
        pot = PotentialSpec(200.0, a=1.0)
        st = _synthetic_state(pot, 100.0, alpha1=0.8 - 0.3j, gamma1=0.1 + 0.2j)
        assert ode_residual(st, [0.2, 0.5, 0.8], h=1e-4) < 1e-6

    def test_exact_exterior_solution(self):
        pot = PotentialSpec(9.0, 3.0, 4.0)
        st = _synthetic_state(pot, 3.0, beta2_a=1.0 + 0.5j, delta2_a=-0.4j)
        assert ode_residual(st, [1.1, 1.5, 2.5], h=1e-4) < 1e-6

    def test_wall_guard(self):
        pot = PotentialSpec(9.0, 3.0, 4.0)
        st = _synthetic_state(pot, 3.0, beta2_a=1.0)
        with pytest.raises(ValueError):
            ode_residual(st, [1.00005], h=1e-4)


class TestRegimes:
    def test_classification(self):
        pot = PotentialSpec(3.0, 0.0, 4.0)
        assert classify_regime(2.0, pot) is Regime.BELOW_Q
        assert classify_regime(4.5, pot) is Regime.MID
        assert classify_regime(6.0, pot) is Regime.FREE

    def test_below_threshold_laws(self):
        rng = np.random.default_rng(71)
        count = 0
        while count < 200:
            pot = _random_well(rng)
            if pot.q_threshold < 1e-2:
                continue
            energy = rng.uniform(0.05, 0.95) * pot.q_threshold
            count += 1
            cd = characteristic_data(energy, pot)
            assert cd.regime is Regime.BELOW_Q
            assert cd.nu_plus == cd.nu_minus.conjugate()
            assert abs(abs(cd.z * cd.w) - 1.0) < 1e-12

    def test_mid_regime_zw(self):
        rng = np.random.default_rng(73)
        count = 0
        while count < 200:
            pot = _random_well(rng)
            if pot.q_threshold < 1e-2:
                continue
            lo, hi = pot.q_threshold, pot.total_threshold
            energy = lo + rng.uniform(0.01, 0.99) * (hi - lo)
            count += 1
            cd = characteristic_data(energy, pot)
            assert cd.regime is Regime.MID
            zw = cd.z * cd.w
            assert abs(zw.imag) < 1e-14
            s = math.sqrt(energy**2 - pot.q_threshold**2)
            expected = pot.q_threshold**2 / (energy + s) ** 2
            assert abs(zw.real - expected) < 1e-12
            assert 0.0 < zw.real <= 1.0
