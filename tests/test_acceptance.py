"""Acceptance suite: one test per criterion, one printed line per criterion.

Run with `pytest tests/test_acceptance.py -v -s` to see the pass/fail lines.
Expected values come from the independent oracles in tests/oracles.py, never
from the code under test.
"""

import math
import time

import numpy as np

from quatwell.quaternion import Quaternion
from quatwell.radial import (
    PotentialSpec,
    Regime,
    characteristic_data,
    eval_region1,
    ode_residual,
    radial_norm,
)
from quatwell.spectral import ImaginaryEigenvalue, canonicalize
from quatwell.quantization import (
    QuantizationProblem,
    find_bound_states,
    reality_report,
    trial_complex_states,
    verify_determinant,
)
from quatwell.cli import main as cli_main

from .oracles import complex_well_roots, quaternionic_well_roots

KC = 5 * math.pi
FIG1 = QuantizationProblem(KC, 2.5 * math.pi)
FIG2 = QuantizationProblem(KC, 5 * math.pi)


def report(number, description, passed, detail=""):
    tag = "PASS" if passed else "FAIL"
    print(f"[{tag}] criterion {number}: {description}  {detail}")
    assert passed, f"criterion {number}: {description}  {detail}"


def test_criterion_1_complex_limit_spectrum():
    oracle = complex_well_roots(KC)
    start = time.perf_counter()
    result = find_bound_states(QuantizationProblem(KC, 0.0))
    elapsed = time.perf_counter() - start
    roots = [st.x for st in result.states]
    worst = max((abs(a - b) for a, b in zip(roots, oracle)), default=math.inf)
    ok = (len(roots) == 5 and len(oracle) == 5 and worst < 1e-10
          and abs(oracle[0] - 2.953) < 1e-2 and abs(roots[0] - oracle[0]) < 1e-10
          and elapsed < 1.0)
    report(1, "complex-limit spectrum (kappa_c = 5pi)", ok,
           f"5 roots, max |dx| = {worst:.2e}, {elapsed:.3f} s")


def _figure_config_check(number, prob):
    oracle = quaternionic_well_roots(prob.kappa_c, prob.kappa_q, step=1e-4)
    start = time.perf_counter()
    result = find_bound_states(prob)
    elapsed = time.perf_counter() - start
    roots = [st.x for st in result.states]
    counts_match = len(roots) == len(oracle)
    worst = max((abs(a - b) for a, b in zip(roots, oracle)), default=math.inf) \
        if counts_match else math.inf
    residuals_ok = all(st.det_residual < 1e-8 and st.continuity_residual < 1e-8
                       and verify_determinant(st, prob) < 1e-8
                       for st in result.states)
    ok = counts_match and worst < 1e-10 and residuals_ok and elapsed < 5.0
    report(number,
           f"well kappa_c = 5pi, kappa_q = {prob.kappa_q / math.pi:.2g}pi vs dense oracle",
           ok, f"{len(roots)} roots, max |dx| = {worst:.2e}, {elapsed:.3f} s")


def test_criterion_2_fig1_configuration():
    _figure_config_check(2, FIG1)


def test_criterion_3_fig2_configuration():
    _figure_config_check(3, FIG2)


def test_criterion_4_below_threshold_reality():
    worst_im = 0.0
    worst_zw = 0.0
    for prob in (FIG1, FIG2):
        rep = reality_report(prob, 1000)
        worst_im = max(worst_im, rep.max_rel_imag)
        worst_zw = max(worst_zw, rep.max_zw_deviation)
    ok = worst_im < 1e-10 and worst_zw < 1e-12
    report(4, "below-threshold reality of Num*conj(Den) and |zw| = 1", ok,
           f"max rel Im = {worst_im:.2e}, max ||zw|-1| = {worst_zw:.2e}")


def test_criterion_5_characteristic_laws():
    rng = np.random.default_rng(101)
    worst_quartic = 0.0
    worst_zw = 0.0
    conjugate_exact = True
    checked = 0
    while checked < 10_000:
        v1 = rng.uniform(0.5, 40.0)
        q = rng.uniform(1e-3, 3.0) * math.sqrt(v1)
        phase = rng.uniform(0.0, 2.0 * math.pi)
        pot = PotentialSpec(v1, q * math.cos(phase), q * math.sin(phase))
        energy = rng.uniform(1e-3, 1.0) * (pot.total_threshold - 2e-3)
        if (abs(energy - pot.q_threshold) < 1e-6
                or abs(energy - pot.total_threshold) < 1e-6):
            continue
        checked += 1
        cd = characteristic_data(energy, pot)
        const = pot.v1**2 + pot.q_threshold**2 - energy**2
        for nu in (cd.nu_minus, cd.nu_plus):
            nu2 = nu * nu
            resid = abs(nu2 * nu2 - 2.0 * pot.v1 * nu2 + const)
            scale = abs(nu2) ** 2 + 2.0 * pot.v1 * abs(nu2) + abs(const)
            worst_quartic = max(worst_quartic, resid / scale)
        if cd.regime is Regime.BELOW_Q:
            conjugate_exact &= cd.nu_plus == cd.nu_minus.conjugate()
        else:
            zw = cd.z * cd.w
            s = math.sqrt(energy**2 - pot.q_threshold**2)
            expected = pot.q_threshold**2 / (energy + s) ** 2
            worst_zw = max(worst_zw, abs(zw.imag), abs(zw.real - expected))
            if not 0.0 < zw.real <= 1.0:
                worst_zw = max(worst_zw, 1.0)
    ok = worst_quartic < 1e-10 and conjugate_exact and worst_zw < 1e-12
    report(5, "characteristic data laws on 10^4 random wells", ok,
           f"quartic = {worst_quartic:.2e}, conj exact = {conjugate_exact}, "
           f"zw dev = {worst_zw:.2e}")


def test_criterion_6_algebra_and_canonicalization():
    rng = np.random.default_rng(103)
    comps = rng.uniform(-1.0, 1.0, size=(100_000, 3, 4))
    worst_assoc = 0.0
    worst_mult = 0.0
    for cp, cq, cr in comps:
        p, q, r = Quaternion(*cp), Quaternion(*cq), Quaternion(*cr)
        scale = max(p.norm() * q.norm() * r.norm(), 1e-30)
        worst_assoc = max(worst_assoc, ((p * q) * r - p * (q * r)).norm() / scale)
        pair_scale = max(p.norm() * q.norm(), 1e-30)
        worst_mult = max(worst_mult,
                         abs((p * q).norm() - p.norm() * q.norm()) / pair_scale)
    worst_canon = 0.0
    triples = rng.uniform(-1.0, 1.0, size=(10_000, 3))
    degenerate = [(-1.0, 0.0, 0.0), (-0.3, 0.0, 0.0), (-1.0, 2e-13, 0.0)]
    for e1, e2, e3 in list(map(tuple, triples)) + degenerate:
        ev = ImaginaryEigenvalue(e1, e2, e3)
        form = canonicalize(ev)
        rotated = form.u.conjugate() * ev.as_quaternion() * form.u
        target = Quaternion(0.0, form.energy, 0.0, 0.0)
        worst_canon = max(worst_canon, (rotated - target).norm())
    ok = worst_assoc < 1e-12 and worst_mult < 1e-12 and worst_canon < 1e-12
    report(6, "algebra laws (10^5 triples) and canonicalization (10^4 eigenvalues)",
           ok, f"assoc = {worst_assoc:.2e}, mult = {worst_mult:.2e}, "
               f"canon = {worst_canon:.2e}")


def test_criterion_7_phase_rotation_invariance():
    rng = np.random.default_rng(107)
    worst = 0.0
    counts_ok = True
    for _ in range(100):
        kappa_c = rng.uniform(2.0, 11.0)
        kappa_q = rng.uniform(0.2, 0.95) * kappa_c
        prob = QuantizationProblem(kappa_c, kappa_q)
        q = kappa_q**2
        phase = rng.uniform(0.0, 2.0 * math.pi)
        theta = rng.uniform(0.0, 2.0 * math.pi)
        v2, v3 = q * math.cos(phase), q * math.sin(phase)
        rot = (v2 * math.cos(theta) - v3 * math.sin(theta),
               v2 * math.sin(theta) + v3 * math.cos(theta))
        res_a = find_bound_states(prob, pot=PotentialSpec(kappa_c**2, v2, v3))
        res_b = find_bound_states(prob, pot=PotentialSpec(kappa_c**2, *rot))
        if len(res_a.states) != len(res_b.states):
            counts_ok = False
            continue
        for sa, sb in zip(res_a.states, res_b.states):
            worst = max(worst, abs(sa.x - sb.x))
    ok = counts_ok and worst < 1e-10
    report(7, "spectrum invariance under (V2, V3) phase rotation, 100 wells", ok,
           f"counts stable = {counts_ok}, max |dx| = {worst:.2e}")


def test_criterion_8_wavefunction_quality():
    worst_ode = 0.0
    worst_norm = 0.0
    origin_exact = True
    for prob in (FIG1, FIG2):
        for st in find_bound_states(prob).states:
            radial = st.radial
            a = radial.potential.a
            rate = radial.chardata.nu_minus.real
            inside = np.linspace(0.07 * a, 0.93 * a, 9)
            outside = a + np.linspace(0.05, 2.5, 9) / rate
            worst_ode = max(worst_ode,
                            ode_residual(radial, list(inside) + list(outside), h=1e-4))
            origin_exact &= eval_region1(0.0, radial).norm() == 0.0
            worst_norm = max(worst_norm, abs(radial_norm(radial) - 1.0))
    ok = worst_ode < 1e-6 and origin_exact and worst_norm < 1e-8
    report(8, "wavefunction quality at every accepted root", ok,
           f"ode residual = {worst_ode:.2e}, U(0) exact = {origin_exact}, "
           f"|norm - 1| = {worst_norm:.2e}")


def test_criterion_9_trial_complex_comparison(capsys):
    kt1 = FIG1.x_max
    kt2 = FIG2.x_max
    exact = (kt1 == (KC**4 + (2.5 * math.pi) ** 4) ** 0.25
             and kt2 == (KC**4 + (5 * math.pi) ** 4) ** 0.25)
    worst = 0.0
    counts_ok = True
    for prob in (FIG1, FIG2):
        oracle = complex_well_roots(prob.x_max)
        trial = trial_complex_states(prob)
        if len(oracle) != len(trial.states):
            counts_ok = False
            continue
        for st, want in zip(trial.states, oracle):
            worst = max(worst, abs(st.x - want))
    spectra_ok = True
    import json
    for prob in (FIG1, FIG2):
        code = cli_main(["compare", "--kappa-c", repr(prob.kappa_c),
                         "--kappa-q", repr(prob.kappa_q)])
        doc = json.loads(capsys.readouterr().out)
        diag = doc["diagnostics"]
        spectra_ok &= code == 0
        spectra_ok &= all(diag[f"count_{name}"] > 0
                          for name in ("complex", "quaternionic", "trial"))
        spectra_ok &= len(doc["results"]) == max(
            diag["count_complex"], diag["count_quaternionic"], diag["count_trial"])
    ok = exact and counts_ok and worst < 1e-10 and spectra_ok
    report(9, "trial-complex well comparison and aligned spectra", ok,
           f"kappa_t exact = {exact}, max |dx| = {worst:.2e}, "
           f"compare emitted = {spectra_ok}")
