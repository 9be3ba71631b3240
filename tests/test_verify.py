"""Runtime property suite: array paths, seeded draws and failure detection."""

import dataclasses
import math

import numpy as np
import pytest

from quatwell import quaternion, radial, spectral, verify
from quatwell.quantization import QuantizationProblem
from quatwell.quaternion import I, J, K, ONE, Quaternion, hamilton_product
from quatwell.radial import PotentialSpec
from quatwell.spectral import ImaginaryEigenvalue, canonical_rotation, canonicalize

from .oracles import quat_mul

PROB = QuantizationProblem(5 * math.pi, 2.5 * math.pi)
SAMPLED = ("quaternion-associativity", "quaternion-norm-multiplicativity",
           "eigenvalue-canonicalization", "characteristic-quartic",
           "characteristic-regime-laws")
RAY = [(-1.0, 0.0, 0.0), (-2.5, 0.0, 0.0), (-1.0, 1e-9, 0.0), (-1.0, 0.0, -1e-10)]


def _components(q: Quaternion):
    return (q.w, q.x, q.y, q.z)


def _run(**kwargs):
    sizes = dict(algebra_samples=500, eigen_samples=500, well_samples=300,
                 reality_samples=100, rotation_wells=2)
    sizes.update(kwargs)
    return {c.name: c for c in verify.run_property_checks(PROB, **sizes)}


class TestHamiltonProduct:
    def test_columns_match_scalar_product_bitwise(self):
        rng = np.random.default_rng(3)
        ps, qs = rng.uniform(-1.0, 1.0, size=(2, 300, 4))
        columns = np.array(hamilton_product(ps.T, qs.T)).T
        for p, q, got in zip(ps, qs, columns):
            expected = _components(Quaternion(*p) * Quaternion(*q))
            assert tuple(got.tolist()) == expected

    def test_unit_table(self):
        units = (ONE, I, J, K, -ONE, -I, -J, -K)
        for p in units:
            for q in units:
                got = hamilton_product(_components(p), _components(q))
                assert got == _components(p * q)
                assert got == quat_mul(_components(p), _components(q))
        assert I * J == K and J * K == I and K * I == J
        assert I * I == J * J == K * K == I * J * K == -ONE


class TestCanonicalRotation:
    def _assert_matches(self, triples):
        e1, e2, e3 = np.array(triples, dtype=float).T
        n, u = canonical_rotation(e1, e2, e3)
        for i, ev in enumerate(triples):
            form = canonicalize(ImaginaryEigenvalue(*ev))
            assert float(n[i]) == form.energy
            assert tuple(float(c[i]) for c in u) == _components(form.u)

    def test_random_triples(self):
        rng = np.random.default_rng(5)
        self._assert_matches([tuple(t) for t in rng.uniform(-1.0, 1.0, size=(500, 3))])

    def test_zero_eigenvalue(self):
        self._assert_matches([(0.0, 0.0, 0.0), (1.0, 0.0, 0.0)])
        n, u = canonical_rotation(0.0, 0.0, 0.0)
        assert float(n) == 0.0 and tuple(map(float, u)) == (1.0, 0.0, 0.0, 0.0)

    def test_minus_i_ray(self):
        self._assert_matches(RAY)
        n, u = canonical_rotation(-2.5, 0.0, 0.0)
        assert float(n) == 2.5 and tuple(map(float, u)) == _components(J)

    def test_canonicalize_returns_python_floats(self):
        form = canonicalize(ImaginaryEigenvalue(0.3, -0.4, 0.5))
        assert type(form.energy) is float
        assert all(type(c) is float for c in _components(form.u))


# The draws of each sampled check as a loop of scalar draws, one well at a
# time; the array checks must leave the generator in the same state.

def _scalar_well(rng):
    v1 = rng.uniform(0.5, 40.0)
    q = rng.uniform(0.0, 3.0) * math.sqrt(v1)
    phase = rng.uniform(0.0, 2.0 * math.pi)
    return PotentialSpec(v1, q * math.cos(phase), q * math.sin(phase))


def _scalar_quartic_draws(rng, n):
    samples = []
    while len(samples) < n:
        pot = _scalar_well(rng)
        energy = rng.uniform(1e-3, 1.0) * (pot.total_threshold - 2e-3)
        if (abs(energy - pot.q_threshold) < 1e-6
                or abs(energy - pot.total_threshold) < 1e-6):
            continue
        samples.append((energy, pot))
    return samples, 0


def _scalar_regime_draws(rng, n):
    samples, weak = [], 0
    while len(samples) < n:
        pot = _scalar_well(rng)
        if pot.q_threshold < 1e-3:
            weak += 1
            continue
        if rng.random() < 0.5:
            energy = rng.uniform(1e-3, 0.999) * pot.q_threshold
        else:
            energy = pot.q_threshold + rng.uniform(1e-3, 0.999) * (
                pot.total_threshold - pot.q_threshold)
        if abs(energy - pot.q_threshold) < 1e-6:
            continue
        samples.append((energy, pot))
    return samples, weak


class TestSeededDraws:
    @pytest.mark.parametrize("seed", [1, 20050214])
    def test_algebra_and_canonicalization_state(self, seed):
        rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
        list(verify._algebra_checks(rng, 400, 1e-12))
        for _ in range(3):
            ref.uniform(-1.0, 1.0, size=(400, 4))
        assert rng.bit_generator.state == ref.bit_generator.state
        verify._canonicalization_check(rng, 300, 1e-12)
        ref.uniform(-1.0, 1.0, size=(300, 3))
        assert rng.bit_generator.state == ref.bit_generator.state

    # seed 33 draws a well too weak for the regime check among its first 200
    @pytest.mark.parametrize("check, scalar_draws, seed, n", [
        (verify._quartic_check, _scalar_quartic_draws, 1, 300),
        (verify._quartic_check, _scalar_quartic_draws, 20050214, 300),
        (verify._regime_laws_check, _scalar_regime_draws, 33, 200),
        (verify._regime_laws_check, _scalar_regime_draws, 20050214, 300),
    ])
    def test_well_checks_draw_like_scalar_loop(self, monkeypatch, check,
                                               scalar_draws, seed, n):
        seen = []
        real = radial.exterior

        def record(e, v1, q2):
            seen.extend(zip(e.tolist(), v1.tolist(), q2.tolist()))
            return real(e, v1, q2)

        monkeypatch.setattr(radial, "exterior", record)
        rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
        assert check(rng, n, 1e-10).passed
        expected, weak = scalar_draws(ref, n)
        assert seen == [(energy, pot.v1, pot.v2 * pot.v2 + pot.v3 * pot.v3)
                        for energy, pot in expected]
        assert rng.bit_generator.state == ref.bit_generator.state
        if seed == 33:
            assert weak == 1

    def test_measured_matches_scalar_loop(self):
        # the checks one sample at a time, with Quaternion objects and Python
        # complex numbers, on the same draws; only the array norms round
        # differently (from math.hypot), so the algebra and canonicalization
        # residuals may move at rounding level
        n, seed = 300, 9
        rng = np.random.default_rng(seed)
        rows = [[Quaternion(*row) for row in rng.uniform(-1.0, 1.0, size=(n, 4))]
                for _ in range(3)]
        assoc = mult = 0.0
        for p, q, r in zip(*rows):
            scale = p.norm() * q.norm() * r.norm()
            assoc = max(assoc, ((p * q) * r - p * (q * r)).norm() / scale)
            mult = max(mult, abs((p * q).norm() - p.norm() * q.norm()) / (p.norm() * q.norm()))
        canon = 0.0
        for t in [*rng.uniform(-1.0, 1.0, size=(n, 3)), *RAY]:
            ev = ImaginaryEigenvalue(*t)
            form = canonicalize(ev)
            rotated = form.u.conjugate() * ev.as_quaternion() * form.u
            canon = max(canon, (rotated - Quaternion(0.0, form.energy)).norm()
                        / max(1.0, form.energy), abs(form.u.norm() - 1.0))
        quartic = 0.0
        for energy, pot in _scalar_quartic_draws(rng, n)[0]:
            cd = radial.characteristic_data(energy, pot)
            const = pot.v1 ** 2 + pot.v2 ** 2 + pot.v3 ** 2 - energy ** 2
            for nu in (cd.nu_minus, cd.nu_plus):
                nu2 = nu * nu
                scale = abs(nu2) ** 2 + 2.0 * pot.v1 * abs(nu2) + abs(const)
                quartic = max(quartic, abs(nu2 * nu2 - 2.0 * pot.v1 * nu2 + const) / scale)
        regime = 0.0
        for energy, pot in _scalar_regime_draws(rng, n)[0]:
            cd = radial.characteristic_data(energy, pot)
            zw = cd.z * cd.w
            if energy < pot.q_threshold:
                assert cd.nu_plus == cd.nu_minus.conjugate()
                regime = max(regime, abs(abs(zw) - 1.0))
            else:
                s = math.sqrt(energy ** 2 - pot.q_threshold ** 2)
                expected = pot.q_threshold ** 2 / (energy + s) ** 2
                assert 0.0 < zw.real <= 1.0
                regime = max(regime, abs(zw.imag), abs(zw.real - expected))

        got = np.random.default_rng(seed)
        array_assoc, array_mult = verify._algebra_checks(got, n, 1.0)
        array_canon = verify._canonicalization_check(got, n, 1.0)
        assert array_assoc.measured == pytest.approx(assoc, rel=0.0, abs=1e-15)
        assert array_mult.measured == pytest.approx(mult, rel=0.0, abs=1e-15)
        assert array_canon.measured == pytest.approx(canon, rel=0.0, abs=1e-15)
        assert verify._quartic_check(got, n, 1.0).measured == quartic > 0.0
        assert verify._regime_laws_check(got, n, 1.0).measured == regime > 0.0

    def test_report_is_reproducible(self):
        assert _run() == _run()


class TestFailureDetection:
    def test_impossible_tolerance_fails_every_sampled_check(self):
        checks = _run(tol_override=1e-20)
        for name in SAMPLED:
            assert not checks[name].passed, name
        assert not checks["reality-below-threshold"].passed

    def test_wrong_product_formula_breaks_associativity(self, monkeypatch):
        def wrong(p, q):
            w, x, y, z = hamilton_product(p, q)
            return w, x, y, z + p[1] * q[1]     # i*i gains a k component

        monkeypatch.setattr(quaternion, "hamilton_product", wrong)
        checks = _run()
        assert not checks["quaternion-associativity"].passed
        assert checks["quaternion-associativity"].measured > 1e-3

    def test_nan_product_fails(self, monkeypatch):
        def with_nan(p, q):
            w, x, y, z = hamilton_product(p, q)
            w = np.array(w, dtype=float)
            w[7] = np.nan
            return w, x, y, z

        monkeypatch.setattr(quaternion, "hamilton_product", with_nan)
        checks = _run()
        assert math.isnan(checks["quaternion-associativity"].measured)
        assert not checks["quaternion-associativity"].passed
        assert not checks["quaternion-norm-multiplicativity"].passed

    def test_nan_rotation_fails(self, monkeypatch):
        def nan_rotation(e1, e2, e3):
            n, (w, x, y, z) = canonical_rotation(e1, e2, e3)
            z = z.copy()
            z[11] = np.nan
            return n, (w, x, y, z)

        monkeypatch.setattr(spectral, "canonical_rotation", nan_rotation)
        check = _run()["eigenvalue-canonicalization"]
        assert math.isnan(check.measured) and not check.passed

    # the regime check's w is -i*(V2 - i*V3)/(e + S), so a NaN in the
    # kernel's third output reaches it
    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    @pytest.mark.parametrize("check, field", [
        (verify._quartic_check, "nu_minus"),
        (verify._regime_laws_check, "w"),
    ])
    def test_nan_characteristic_data_fails(self, monkeypatch, check, field):
        real = radial.exterior

        def nan_at_sample_5(e, v1, q2):
            out = list(real(e, v1, q2))
            column = out[{"nu_minus": 0, "w": 2}[field]]
            column[4] = complex(math.nan, 0.0)
            return tuple(out)

        monkeypatch.setattr(radial, "exterior", nan_at_sample_5)
        result = check(np.random.default_rng(1), 50, 1e-10)
        assert math.isnan(result.measured) and not result.passed

    def test_broken_conjugate_split_fails_regime_laws(self, monkeypatch):
        real = radial.exterior

        def one_ulp_off(e, v1, q2):
            nu_minus, nu_plus, denom = real(e, v1, q2)
            return nu_minus, nu_plus * (1.0 + 2.0 ** -52), denom

        monkeypatch.setattr(radial, "exterior", one_ulp_off)
        checks = _run()
        assert checks["characteristic-quartic"].passed
        assert not checks["characteristic-regime-laws"].passed
        assert checks["characteristic-regime-laws"].measured == 1.0

    def test_nan_root_fails_rotation_and_complex_limit(self, monkeypatch):
        calls = []
        real_find = verify.find_bound_states
        real_limit = verify.complex_limit_roots

        def find_with_nan(prob, **kwargs):
            calls.append(None)
            found = real_find(prob, **kwargs)
            if len(calls) != 2:
                return found
            first = dataclasses.replace(found.states[0], x=math.nan)
            return dataclasses.replace(found, states=(first, *found.states[1:]))

        def limit_with_nan(kappa, **kwargs):
            return [math.nan, *real_limit(kappa, **kwargs)[1:]]

        monkeypatch.setattr(verify, "find_bound_states", find_with_nan)
        monkeypatch.setattr(verify, "complex_limit_roots", limit_with_nan)
        checks = _run()
        assert math.isnan(checks["rotation-invariance"].measured)
        assert math.isnan(checks["complex-limit-equivalence"].measured)
        assert not checks["rotation-invariance"].passed
        assert not checks["complex-limit-equivalence"].passed
