"""Command-line front end: solve wells, compare spectra, emit curve data.

Four subcommands share one flag set:

    solve    bound states of one well, with coefficients and diagnostics
    compare  complex / quaternionic / trial-complex spectra side by side
    curves   sampled tan(x), f(x) and mismatch columns for external plotting
    verify   the runtime property suite; exit 1 on any failure

Wells are given either as dimensionless depths (--kappa-c/--kappa-q) or as
potential components (--v1/--v2/--v3), never both.  Flags override a flat
key=value --config file.  Output is JSON (one object with config, results
and diagnostics keys) or CSV (header row plus data rows); every float is
printed with 17 significant digits so values round-trip exactly, and a
fixed configuration always produces byte-identical output.  Exit codes:
0 success, 1 verification failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import csv
import io
import math
import sys
from dataclasses import dataclass

import numpy as np

from .radial import PotentialSpec
from .quantization import (
    BoundStateSet,
    QuantizationProblem,
    ScanGridTooLargeError,
    complex_limit_roots,
    find_bound_states,
    mismatch,
    quantization_function,
    trial_complex_states,
)
from .verify import run_property_checks

TAN_CLIP = 1e3

_DEFAULT_CURVE_GRID = 2000
_DEFAULT_REFINE = 1e-12
_DEFAULT_VALIDATE = 1e-8
# verify runs without an explicit well; a deep quaternionic default keeps
# every property exercised
_VERIFY_DEFAULT_KC = 5.0 * math.pi
_VERIFY_DEFAULT_KQ = 2.5 * math.pi


@dataclass(frozen=True)
class RunConfig:
    mode: str
    prob: QuantizationProblem
    pot: PotentialSpec
    grid: int | None
    refine_tol: float
    validate_tol: float
    validate_tol_explicit: bool
    fmt: str
    output: str | None


def fmt_float(value) -> str:
    # adding +0.0 folds negative zero into plain zero
    return format(float(value) + 0.0, ".17g")


def _render_json(obj, indent=0) -> str:
    pad = "  " * indent
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = ",\n".join(
            f'{pad}  "{key}": {_render_json(val, indent + 1)}' for key, val in obj.items())
        return "{\n" + items + "\n" + pad + "}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        items = ",\n".join(f"{pad}  {_render_json(val, indent + 1)}" for val in obj)
        return "[\n" + items + "\n" + pad + "]"
    if obj is None:
        return "null"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, float):
        return fmt_float(obj)
    if isinstance(obj, str):
        return '"' + obj.replace("\\", "\\\\").replace('"', '\\"') + '"'
    raise TypeError(f"cannot serialize {type(obj)!r}")


def _render_csv(header, rows) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        out = []
        for cell in row:
            if cell is None:
                out.append("")
            elif isinstance(cell, bool):
                out.append("true" if cell else "false")
            elif isinstance(cell, float):
                out.append(fmt_float(cell))
            else:
                out.append(str(cell))
        writer.writerow(out)
    return buf.getvalue()


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="quatwell",
        description="Bound states of the quaternionic spherical square well")
    sub = parser.add_subparsers(dest="mode", required=True)
    descriptions = {
        "solve": "compute the bound states of one well",
        "compare": "complex, quaternionic and trial-complex spectra side by side",
        "curves": "emit sampled quantization-condition curves for plotting",
        "verify": "run the property suite; exit 1 on any failure",
    }
    for mode, help_text in descriptions.items():
        sp = sub.add_parser(mode, help=help_text)
        sp.add_argument("--kappa-c", type=float, default=None,
                        help="dimensionless complex depth a*sqrt(V1)")
        sp.add_argument("--kappa-q", type=float, default=None,
                        help="dimensionless quaternionic depth a*(V2^2+V3^2)^(1/4)")
        sp.add_argument("--v1", type=float, default=None, help="complex well depth V1 > 0")
        sp.add_argument("--v2", type=float, default=None, help="quaternionic component V2")
        sp.add_argument("--v3", type=float, default=None, help="quaternionic component V3")
        sp.add_argument("--a", type=float, default=None, help="well radius (default 1)")
        sp.add_argument("--grid", type=int, default=None,
                        help="curve samples (curves only; solve, compare and verify "
                             "accept it for compatibility and ignore it)")
        sp.add_argument("--refine-tol", type=float, default=None,
                        help="bisection refinement tolerance (default 1e-12)")
        sp.add_argument("--validate-tol", type=float, default=None,
                        help="root validation tolerance; in verify mode overrides "
                             "every property tolerance (default 1e-8)")
        sp.add_argument("--format", choices=("json", "csv"), default=None,
                        help="output format (default json)")
        sp.add_argument("--output", default=None, help="write to this path instead of stdout")
        sp.add_argument("--config", default=None, help="flat key=value configuration file")
    return parser


def _read_config_file(path, parser):
    values = {}
    try:
        with open(path, encoding="utf-8") as fh:
            for lineno, raw in enumerate(fh, 1):
                line = raw.strip()
                if not line or line.startswith("#"):
                    continue
                if "=" not in line:
                    parser.error(f"{path}:{lineno}: expected key=value, got {line!r}")
                key, _, value = line.partition("=")
                values[key.strip().replace("-", "_")] = value.strip()
    except OSError as exc:
        parser.error(f"cannot read config file {path}: {exc}")
    return values


def resolve_config(args, parser) -> RunConfig:
    file_values = _read_config_file(args.config, parser) if args.config else {}

    def pick(name, cast):
        flag = getattr(args, name)
        if flag is not None:
            return flag
        if name in file_values:
            try:
                return cast(file_values[name])
            except ValueError:
                parser.error(f"config key {name}: cannot parse {file_values[name]!r}")
        return None

    kappa_c = pick("kappa_c", float)
    kappa_q = pick("kappa_q", float)
    v1 = pick("v1", float)
    v2 = pick("v2", float)
    v3 = pick("v3", float)
    a = pick("a", float)
    if a is None:
        a = 1.0
    if a <= 0:
        parser.error("--a must be positive")

    kappa_form = kappa_c is not None or kappa_q is not None
    v_form = v1 is not None or v2 is not None or v3 is not None
    if kappa_form and v_form:
        parser.error("give either --kappa-c/--kappa-q or --v1/--v2/--v3, not both")
    if not kappa_form and not v_form:
        if args.mode != "verify":
            parser.error("a well is required: --kappa-c/--kappa-q or --v1/--v2/--v3")
        kappa_c, kappa_q = _VERIFY_DEFAULT_KC, _VERIFY_DEFAULT_KQ
        kappa_form = True

    try:
        if kappa_form:
            if kappa_c is None:
                parser.error("--kappa-q without --kappa-c")
            prob = QuantizationProblem(kappa_c, kappa_q or 0.0, a)
            pot = prob.to_potential()
        else:
            if v1 is None:
                parser.error("--v2/--v3 without --v1")
            pot = PotentialSpec(v1, v2 or 0.0, v3 or 0.0, a)
            prob = QuantizationProblem.from_potential(pot)
    except ValueError as exc:
        parser.error(str(exc))

    grid = pick("grid", int)
    if grid is not None and grid < 2:
        parser.error("--grid must be at least 2")
    # outside curves --grid is accepted for compatibility only: the pi-lattice needs none
    grid = (grid or _DEFAULT_CURVE_GRID) if args.mode == "curves" else None
    refine_tol = pick("refine_tol", float)
    validate_tol = pick("validate_tol", float)
    validate_explicit = validate_tol is not None
    fmt = pick("format", str) or "json"
    if fmt not in ("json", "csv"):
        parser.error(f"format must be json or csv, got {fmt!r}")
    output = pick("output", str)
    tolerances_ok = ((refine_tol is None or refine_tol > 0)
                     and (validate_tol is None or validate_tol > 0))
    if not tolerances_ok:
        parser.error("tolerances must be positive")
    return RunConfig(
        mode=args.mode, prob=prob, pot=pot, grid=grid,
        refine_tol=refine_tol if refine_tol is not None else _DEFAULT_REFINE,
        validate_tol=validate_tol if validate_tol is not None else _DEFAULT_VALIDATE,
        validate_tol_explicit=validate_explicit,
        fmt=fmt, output=output)


def _config_doc(cfg: RunConfig) -> dict:
    return {
        "mode": cfg.mode,
        "kappa_c": cfg.prob.kappa_c,
        "kappa_q": cfg.prob.kappa_q,
        "a": cfg.prob.a,
        "v1": cfg.pot.v1,
        "v2": cfg.pot.v2,
        "v3": cfg.pot.v3,
        "grid": cfg.grid,
        "refine_tol": cfg.refine_tol,
        "validate_tol": cfg.validate_tol,
        "format": cfg.fmt,
    }


def _state_doc(index, st) -> dict:
    coeffs = st.radial
    doc = {
        "index": index,
        "x": st.x,
        "energy": st.energy,
        "regime": st.regime.value,
        "det_residual": st.det_residual,
        "continuity_residual": st.continuity_residual,
        "alpha1": [coeffs.alpha1.real, coeffs.alpha1.imag] if coeffs else [0.0, 0.0],
        "gamma1": [coeffs.gamma1.real, coeffs.gamma1.imag] if coeffs else [0.0, 0.0],
        "beta2_a": [coeffs.beta2_a.real, coeffs.beta2_a.imag] if coeffs else [0.0, 0.0],
        "delta2_a": [coeffs.delta2_a.real, coeffs.delta2_a.imag] if coeffs else [0.0, 0.0],
        "norm_constant": coeffs.norm_constant if coeffs else 0.0,
        "flags": sorted(st.flags),
    }
    return doc


_SOLVE_HEADER = ["index", "x", "energy", "regime", "det_residual",
                 "continuity_residual", "alpha1_re", "alpha1_im", "gamma1_re",
                 "gamma1_im", "beta2_a_re", "beta2_a_im", "delta2_a_re", "delta2_a_im",
                 "norm_constant", "flags"]


def _state_row(index, st) -> list:
    doc = _state_doc(index, st)
    return [doc["index"], doc["x"], doc["energy"], doc["regime"],
            doc["det_residual"], doc["continuity_residual"],
            doc["alpha1"][0], doc["alpha1"][1], doc["gamma1"][0], doc["gamma1"][1],
            doc["beta2_a"][0], doc["beta2_a"][1], doc["delta2_a"][0], doc["delta2_a"][1],
            doc["norm_constant"], ";".join(doc["flags"])]


def _solve_set(cfg: RunConfig) -> BoundStateSet:
    return find_bound_states(
        cfg.prob, pot=cfg.pot, refine_tol=cfg.refine_tol, validate_tol=cfg.validate_tol)


def run_solve(cfg: RunConfig):
    result = _solve_set(cfg)
    states = list(result.states)
    doc = {
        "config": _config_doc(cfg),
        "results": [_state_doc(i, st) for i, st in enumerate(states, 1)],
        "diagnostics": {
            "x_max": cfg.prob.x_max,
            "expected_count": result.expected_count,
            "count": len(states),
            "no_bound_states": not states,
            "no_binding": result.no_binding,
        },
    }
    rows = [_state_row(i, st) for i, st in enumerate(states, 1)]
    return doc, (_SOLVE_HEADER, rows), 0


def run_compare(cfg: RunConfig):
    complex_roots = complex_limit_roots(cfg.prob.kappa_c, refine_tol=cfg.refine_tol)
    quat = _solve_set(cfg)
    trial = trial_complex_states(
        cfg.prob, refine_tol=cfg.refine_tol, validate_tol=cfg.validate_tol)
    quat_roots = [st.x for st in quat.states]
    trial_roots = [st.x for st in trial.states]
    a = cfg.prob.a
    levels = []
    for i in range(max(len(complex_roots), len(quat_roots), len(trial_roots))):
        def entry(roots):
            return roots[i] if i < len(roots) else None
        xc, xq, xt = entry(complex_roots), entry(quat_roots), entry(trial_roots)
        levels.append({
            "level": i + 1,
            "x_complex": xc, "energy_complex": None if xc is None else (xc / a) ** 2,
            "x_quaternionic": xq,
            "energy_quaternionic": None if xq is None else (xq / a) ** 2,
            "x_trial": xt, "energy_trial": None if xt is None else (xt / a) ** 2,
        })
    doc = {
        "config": _config_doc(cfg),
        "results": levels,
        "diagnostics": {
            "kappa_trial": cfg.prob.x_max,
            "count_complex": len(complex_roots),
            "count_quaternionic": len(quat_roots),
            "count_trial": len(trial_roots),
        },
    }
    header = ["level", "x_complex", "energy_complex", "x_quaternionic",
              "energy_quaternionic", "x_trial", "energy_trial"]
    rows = [[lv[key] for key in header] for lv in levels]
    return doc, (header, rows), 0


_CURVE_HEADER = ["x", "tan_clipped", "f_quat", "f_complex", "f_trial",
                 "mismatch", "marker"]


def run_curves(cfg: RunConfig):
    prob = cfg.prob
    x_max = prob.x_max
    n = cfg.grid
    x = x_max * np.arange(1, n + 1) / (n + 1)
    tan = np.tan(x)
    tan_pole = np.abs(tan) > TAN_CLIP
    columns = [x, np.where(tan_pole, np.copysign(TAN_CLIP, tan), tan)]
    tags = [np.where(tan_pole, "tan_pole", "")]
    for label, p in (("f_quat", prob),
                     ("f_complex", QuantizationProblem(prob.kappa_c, 0.0, prob.a)),
                     ("f_trial", QuantizationProblem(x_max, 0.0, prob.a))):
        f, fault = quantization_function(x, p)
        clip = (fault == "") & (np.abs(f) > TAN_CLIP)
        columns.append(np.where(clip, np.copysign(TAN_CLIP, f), f))
        fault = np.where(clip, "clip", fault)
        tags.append(np.where(fault == "", "", np.char.add(label + "_", fault)))
    columns.append(mismatch(x, prob))
    markers = [";".join(filter(None, row)) for row in zip(*(t.tolist() for t in tags))]
    rows = [list(row) for row in zip(*(c.tolist() for c in columns), markers)]
    doc = {
        "config": _config_doc(cfg),
        "results": {"columns": _CURVE_HEADER,
                    "rows": rows},
        "diagnostics": {"x_max": x_max, "samples": n,
                        "kappa_trial": x_max, "clip": TAN_CLIP},
    }
    return doc, (_CURVE_HEADER, rows), 0


def run_verify(cfg: RunConfig):
    override = cfg.validate_tol if cfg.validate_tol_explicit else None
    checks = run_property_checks(cfg.prob, cfg.pot, tol_override=override)
    all_passed = all(c.passed for c in checks)
    reality = next((c for c in checks if c.name == "reality-below-threshold"), None)
    doc = {
        "config": _config_doc(cfg),
        "results": [
            {"property": c.name, "passed": c.passed, "measured": c.measured,
             "tolerance": c.tolerance, "detail": c.detail}
            for c in checks
        ],
        "diagnostics": {
            "all_passed": all_passed,
            "max_rel_imag_num_conj_den": reality.measured if reality else 0.0,
        },
    }
    header = ["property", "passed", "measured", "tolerance", "detail"]
    rows = [[c.name, c.passed, c.measured, c.tolerance, c.detail] for c in checks]
    return doc, (header, rows), 0 if all_passed else 1


_RUNNERS = {
    "solve": run_solve,
    "compare": run_compare,
    "curves": run_curves,
    "verify": run_verify,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    cfg = resolve_config(args, parser)
    try:
        doc, (header, rows), code = _RUNNERS[cfg.mode](cfg)
    except ScanGridTooLargeError as exc:
        parser.error(str(exc))
    if cfg.fmt == "json":
        text = _render_json(doc) + "\n"
    else:
        text = _render_csv(header, rows)
    if cfg.output:
        with open(cfg.output, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return code


if __name__ == "__main__":
    sys.exit(main())
