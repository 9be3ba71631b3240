"""Runtime verification suite behind the `verify` CLI mode.

Re-measures the structural identities the solver relies on -- quaternion
algebra laws, eigenvalue canonicalization, the characteristic quartic, the
reality of the quantization function below the quaternionic threshold,
phase-rotation invariance of the spectrum, agreement with the complex
limit and its classical state count, and the paper's claim that a pure
quaternionic potential removes no bound state, checked on the closed-form
counts K alone -- and reports one pass/fail per property with the measured
residual.
Sampling is seeded, so a given configuration always produces the same
report.  The sampled checks evaluate all their samples as arrays, through
the library's own `quaternion.hamilton_product`,
`spectral.canonical_rotation` and `radial.exterior`, and fold residuals so
that a NaN fails.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import quaternion, radial, spectral
from .radial import PotentialSpec
from .quantization import (
    EmptyWindowError,
    QuantizationProblem,
    complex_limit_roots,
    expected_count,
    find_bound_states,
    reality_report,
    validated_states,
)

_SEED = 20050214
_KEPT_WELLS = 2000


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    measured: float
    tolerance: float
    detail: str = ""


def _check(name, measured, tolerance, detail=""):
    return CheckResult(name, bool(measured < tolerance), float(measured),
                       float(tolerance), detail)


def _worst(residuals):
    """Largest residual, 0 for none; a NaN residual is the result, not skipped."""
    return np.max(residuals, initial=0.0)


def _norm(q):
    """Norms of the columns of a (4, N) array of quaternions."""
    return np.sqrt((q * q).sum(axis=0))


def _mul(p, q):
    """Column-wise products of two (4, N) arrays of quaternions."""
    return np.array(quaternion.hamilton_product(p, q))


def _algebra_checks(rng, n, tol):
    p, q, r = (rng.uniform(-1.0, 1.0, size=(n, 4)).T for _ in range(3))
    pq = _mul(p, q)
    norm_p, norm_q, norm_r = _norm(p), _norm(q), _norm(r)
    assoc = (_norm(_mul(pq, r) - _mul(p, _mul(q, r)))
             / np.maximum(norm_p * norm_q * norm_r, 1e-30))
    mult = np.abs(_norm(pq) - norm_p * norm_q) / np.maximum(norm_p * norm_q, 1e-30)
    yield _check("quaternion-associativity", _worst(assoc), tol, f"{n} random triples")
    yield _check("quaternion-norm-multiplicativity", _worst(mult), tol, f"{n} random pairs")


def _canonicalization_check(rng, n, tol):
    triples = rng.uniform(-1.0, 1.0, size=(n, 3))
    # force coverage of the degenerate -i ray and its neighborhood
    extra = [(-1.0, 0.0, 0.0), (-2.5, 0.0, 0.0), (-1.0, 1e-9, 0.0), (-1.0, 0.0, -1e-10)]
    e1, e2, e3 = np.vstack([triples, extra]).T
    energy, u = spectral.canonical_rotation(e1, e2, e3)
    u = np.array(u)
    conj_u = u * np.array([[1.0], [-1.0], [-1.0], [-1.0]])
    lam = np.array([np.zeros_like(e1), e1, e2, e3])
    rotated = _mul(_mul(conj_u, lam), u)
    rotated[1] -= energy
    worst = np.maximum(_norm(rotated) / np.maximum(1.0, energy), np.abs(_norm(u) - 1.0))
    return _check("eigenvalue-canonicalization", _worst(worst), tol,
                  f"{n} random eigenvalues plus degenerate ray")


# bounds of the draws (V1, Q, phase) behind one random well; see _well
_WELL_LOW = (0.5, 0.0, 0.0)
_WELL_HIGH = (40.0, 3.0, 2.0 * math.pi)


def _well(v1, q_factor, phase):
    """Random well with |(V2, V3)| = q_factor * sqrt(V1) at the given phase."""
    q = q_factor * math.sqrt(v1)
    return PotentialSpec(v1, q * math.cos(phase), q * math.sin(phase))


def _columns(energies, wells):
    """Energies and (V1, V2, V3) of the sampled wells as four arrays."""
    return (np.array(energies), *np.array([(p.v1, p.v2, p.v3) for p in wells]).T)


def _quartic_check(rng, n, tol):
    wells, energies = [], []
    while len(wells) < n:
        # one row per attempt, holding its draws in the order they are used;
        # an attempt yields at most one sample, so the block cannot overdraw
        block = rng.uniform((*_WELL_LOW, 1e-3), (*_WELL_HIGH, 1.0),
                            size=(n - len(wells), 4))
        for v1, q_factor, phase, e_factor in block.tolist():
            pot = _well(v1, q_factor, phase)
            top = pot.total_threshold
            energy = e_factor * (top - 2e-3)
            if abs(energy - pot.q_threshold) < 1e-6 or abs(energy - top) < 1e-6:
                continue
            wells.append(pot)
            energies.append(energy)
    energy, v1, v2, v3 = _columns(energies, wells)
    nu = np.array(radial.exterior(energy, v1, v2 * v2 + v3 * v3)[:2]).T
    const = (v1 ** 2 + v2 ** 2 + v3 ** 2 - energy ** 2)[:, None]
    v1 = v1[:, None]
    nu2 = nu * nu
    resid = np.abs(nu2 * nu2 - 2.0 * v1 * nu2 + const)
    scale = np.abs(nu2) ** 2 + 2.0 * v1 * np.abs(nu2) + np.abs(const)
    return _check("characteristic-quartic", _worst(resid / np.maximum(scale, 1e-30)), tol,
                  f"{n} random wells")


def _regime_laws_check(rng, n, tol):
    wells, energies, below = [], [], []
    while len(wells) < n:
        # an attempt draws the well, a coin and an energy factor, but a well
        # too weak to have a threshold is dropped after its own three draws;
        # the block is then undone and redrawn past exactly those draws
        state = rng.bit_generator.state
        block = rng.uniform((*_WELL_LOW, 0.0, 1e-3), (*_WELL_HIGH, 1.0, 0.999),
                            size=(n - len(wells), 5))
        used = block.size
        for row, (v1, q_factor, phase, coin, e_factor) in enumerate(block.tolist()):
            pot = _well(v1, q_factor, phase)
            if pot.q_threshold < 1e-3:
                used = 5 * row + 3
                break
            if coin < 0.5:
                energy = e_factor * pot.q_threshold
            else:
                energy = pot.q_threshold + e_factor * (pot.total_threshold - pot.q_threshold)
            if abs(energy - pot.q_threshold) < 1e-6:
                continue
            wells.append(pot)
            energies.append(energy)
            below.append(coin < 0.5)
        if used < block.size:
            rng.bit_generator.state = state
            rng.random(used)
    energy, v1, v2, v3 = _columns(energies, wells)
    nu_minus, nu_plus, denom = radial.exterior(energy, v1, v2 * v2 + v3 * v3)
    w, z = radial.coupling_factors(v2, v3, denom)
    zw = z * w
    split_broken = nu_plus != np.conjugate(nu_minus)
    qt = np.array([pot.q_threshold for pot in wells])
    # below the threshold: nu+ = conj(nu-) exactly and |zw| = 1
    resid_below = np.maximum(np.abs(np.abs(zw) - 1.0), split_broken)
    # above it: zw = qt^2 / (E + sqrt(E^2 - qt^2))^2, real in (0, 1]
    with np.errstate(invalid="ignore"):
        expected = qt ** 2 / (energy + np.sqrt(energy ** 2 - qt ** 2)) ** 2
    in_range = (0.0 < zw.real) & (zw.real <= 1.0)
    resid_above = np.maximum(np.maximum(np.abs(zw.imag), np.abs(zw.real - expected)),
                             ~in_range)
    resid = np.where(below, resid_below, resid_above)
    return _check("characteristic-regime-laws", _worst(resid), tol,
                  f"{n} random wells, both bound regimes")


def _reality_checks(prob, n_samples, tol_imag, tol_zw):
    try:
        report = reality_report(prob, n_samples)
    except EmptyWindowError:
        empty = "empty window (kappa_q = 0)"
        yield _check("reality-below-threshold", 0.0, tol_imag, empty)
        yield _check("unit-modulus-zw", 0.0, tol_zw, empty)
        return
    detail = (f"{n_samples} samples in (0, {report.window[1]:.6g}); "
              f"max |zw|-1 = {report.max_zw_deviation:.3e}")
    yield _check("reality-below-threshold", report.max_rel_imag, tol_imag, detail)
    yield _check("unit-modulus-zw", report.max_zw_deviation, tol_zw,
                 f"{n_samples} below-threshold samples")


def _rotation_check(rng, n_wells, tol):
    diffs = []
    detail = f"{n_wells} random wells"
    for _ in range(n_wells):
        kappa_c = rng.uniform(2.0, 11.0)
        kappa_q = rng.uniform(0.2, 0.95) * kappa_c
        prob = QuantizationProblem(kappa_c, kappa_q)
        q2 = (kappa_q ** 4)
        phase0 = rng.uniform(0.0, 2.0 * math.pi)
        theta = rng.uniform(0.0, 2.0 * math.pi)
        v2 = math.sqrt(q2) * math.cos(phase0)
        v3 = math.sqrt(q2) * math.sin(phase0)
        pot_a = PotentialSpec(kappa_c ** 2, v2, v3)
        pot_b = PotentialSpec(kappa_c ** 2,
                              v2 * math.cos(theta) - v3 * math.sin(theta),
                              v2 * math.sin(theta) + v3 * math.cos(theta))
        set_a = find_bound_states(prob, pot=pot_a)
        set_b = find_bound_states(prob, pot=pot_b)
        if len(set_a.states) != len(set_b.states):
            diffs.append(abs(len(set_a.states) - len(set_b.states)))
            detail = "spectrum size changed under rotation"
            continue
        diffs.extend(abs(sa.x - sb.x) for sa, sb in zip(set_a.states, set_b.states))
    return _check("rotation-invariance", _worst(diffs), tol, detail)


def _complex_limit_check(prob, tol):
    limit_prob = QuantizationProblem(prob.kappa_c, 0.0, prob.a)
    full = [st.x for st in find_bound_states(limit_prob).states]
    direct = complex_limit_roots(prob.kappa_c)
    # both sides isolate roots on the same pi-lattice, so the tan form is
    # also held to the classical count #{n >= 1 : (n - 1/2)*pi < kappa_c}
    classical = math.ceil(prob.kappa_c / math.pi + 0.5) - 1
    if len(direct) != classical:
        return _check("complex-limit-equivalence", float(abs(len(direct) - classical)),
                      tol, f"tan form has {len(direct)} roots, classical {classical}")
    # the solver may drop top roots, just below kappa_c, that fail its
    # validation, and no others
    dropped = direct[len(full):]
    if len(full) > len(direct) or validated_states(dropped, limit_prob):
        return _check("complex-limit-equivalence", float(abs(len(full) - len(direct))),
                      tol, "root counts differ")
    return _check("complex-limit-equivalence",
                  _worst(np.abs(np.subtract(full, direct[:len(full)]))), tol,
                  f"{len(full)} of {classical} classical roots validated "
                  f"at kappa_c = {prob.kappa_c:.6g}")


def _kept_states_check(rng, n, tol):
    """K(kappa_c, kappa_q) >= K(kappa_c, 0) on random wells, counts only."""
    kappa_c = np.exp(rng.uniform(math.log(0.3), math.log(300.0), n))
    kappa_q = kappa_c * np.exp(rng.uniform(math.log(1e-3), math.log(10.0), n))
    lost = np.count_nonzero(expected_count(kappa_c, kappa_q) < expected_count(kappa_c))
    return _check("quaternionic-keeps-bound-states", lost, tol,
                  f"{n} random wells with K(kappa_c, kappa_q) >= K(kappa_c, 0)")


def run_property_checks(prob: QuantizationProblem,
                        pot: PotentialSpec | None = None,
                        *,
                        tol_override: float | None = None,
                        algebra_samples: int = 20000,
                        eigen_samples: int = 5000,
                        well_samples: int = 5000,
                        reality_samples: int = 1000,
                        rotation_wells: int = 20,
                        seed: int = _SEED) -> list[CheckResult]:
    """Full property suite for one well configuration.

    tol_override, when given, replaces every per-property tolerance; an
    impossible value (say 1e-20) acts as a negative control that must fail.
    """
    rng = np.random.default_rng(seed)

    def tol(default):
        return default if tol_override is None else tol_override

    results = list(_algebra_checks(rng, algebra_samples, tol(1e-12)))
    results.append(_canonicalization_check(rng, eigen_samples, tol(1e-12)))
    results.append(_quartic_check(rng, well_samples, tol(1e-10)))
    results.append(_regime_laws_check(rng, well_samples, tol(1e-12)))
    results.extend(_reality_checks(prob, reality_samples, tol(1e-10), tol(1e-12)))
    results.append(_rotation_check(rng, rotation_wells, tol(1e-10)))
    results.append(_complex_limit_check(prob, tol(1e-10)))
    # drawn after every other check, so that none of their samples moves
    results.append(_kept_states_check(rng, _KEPT_WELLS, tol(1.0)))
    return results
