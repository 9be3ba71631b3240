"""Command-line interface: flags, formats, determinism, exit codes."""

import csv
import io
import json
import math
import warnings

import numpy as np
import pytest

from quatwell import quantization
from quatwell.cli import main
from quatwell.quantization import (
    QuantizationPoleError,
    QuantizationProblem,
    f_quantization,
    mismatch,
)
from quatwell.radial import DegenerateEnergyError

KC_STR = "15.707963267948966"
KQ_STR = "7.853981633974483"


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def reject_constant(constant):
    raise ValueError(f"{constant} is not strict JSON")


def solve_json(capsys, *argv):
    code, out = run_cli(capsys, "solve", *argv, "--format", "json")
    assert code == 0
    return json.loads(out)


class TestSolve:
    def test_deep_complex_well_five_states(self, capsys):
        doc = solve_json(capsys, "--kappa-c", "15.70796327", "--kappa-q", "0")
        assert len(doc["results"]) == 5
        assert doc["diagnostics"]["count"] == 5
        assert doc["diagnostics"]["no_bound_states"] is False
        first = doc["results"][0]
        assert first["index"] == 1
        assert abs(first["x"] - 2.953) < 1e-2
        assert first["det_residual"] < 1e-8
        assert first["continuity_residual"] < 1e-8

    def test_shallow_well_empty(self, capsys):
        code, out = run_cli(capsys, "solve", "--kappa-c", "1", "--kappa-q", "0")
        assert code == 0
        doc = json.loads(out)
        assert doc["results"] == []
        assert doc["diagnostics"]["no_bound_states"] is True

    def test_v_form_matches_kappa_form(self, capsys):
        kappa_c = 15.70796327
        doc_k = solve_json(capsys, "--kappa-c", repr(kappa_c), "--kappa-q", "0")
        doc_v = solve_json(capsys, "--v1", repr(kappa_c**2), "--v2", "0",
                           "--v3", "0", "--a", "1")
        assert len(doc_k["results"]) == len(doc_v["results"])
        for sk, sv in zip(doc_k["results"], doc_v["results"]):
            assert abs(sk["x"] - sv["x"]) < 1e-10

    def test_expected_count_in_diagnostics(self, capsys):
        doc = solve_json(capsys, "--kappa-c", KC_STR, "--kappa-q", KQ_STR)
        diag = doc["diagnostics"]
        assert diag["expected_count"] == diag["count"] == 5
        assert "scan_resolution" not in diag
        # the weakly bound state that validation rejects: K = 1, none found
        weak = solve_json(capsys, "--kappa-c", repr(1.5707963267948966 + 1e-3))
        assert (weak["diagnostics"]["expected_count"], weak["diagnostics"]["count"]) == (1, 0)

    def test_grid_is_read_only_by_curves(self, capsys):
        well = ("--kappa-c", KC_STR, "--kappa-q", KQ_STR)
        for mode in ("solve", "compare"):
            _, plain = run_cli(capsys, mode, *well)
            _, gridded = run_cli(capsys, mode, "--grid", "64", *well)
            plain, gridded = json.loads(plain), json.loads(gridded)
            assert plain["config"]["grid"] is gridded["config"]["grid"] is None
            assert plain["results"] == gridded["results"]
            assert plain["diagnostics"] == gridded["diagnostics"]

    def test_deterministic_output(self, capsys):
        _, out1 = run_cli(capsys, "solve", "--kappa-c", KC_STR, "--kappa-q", KQ_STR)
        _, out2 = run_cli(capsys, "solve", "--kappa-c", KC_STR, "--kappa-q", KQ_STR)
        assert out1 == out2

    def test_deep_well_solves(self, capsys):
        # sqrt(2)*kappa_c > 709.8: the unscaled exterior amplitudes overflowed
        doc = solve_json(capsys, "--kappa-c", "600")
        assert doc["diagnostics"]["count"] == 191
        assert all(st["continuity_residual"] < 1e-8 for st in doc["results"])

    def test_coefficient_columns(self, capsys):
        doc = solve_json(capsys, "--kappa-c", KC_STR, "--kappa-q", KQ_STR)
        code, out = run_cli(capsys, "solve", "--kappa-c", KC_STR, "--kappa-q",
                            KQ_STR, "--format", "csv")
        rows = list(csv.DictReader(io.StringIO(out)))
        for row, state in zip(rows, doc["results"]):
            for name in ("alpha1", "gamma1", "beta2_a", "delta2_a"):
                assert float(row[f"{name}_re"]) == state[name][0]
                assert float(row[f"{name}_im"]) == state[name][1]
        assert not {"beta2", "delta2"} & set(doc["results"][0])

    def test_csv_json_value_round_trip(self, capsys):
        doc = solve_json(capsys, "--kappa-c", KC_STR, "--kappa-q", KQ_STR)
        code, out = run_cli(capsys, "solve", "--kappa-c", KC_STR, "--kappa-q",
                            KQ_STR, "--format", "csv")
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        assert len(rows) == len(doc["results"])
        for row, state in zip(rows, doc["results"]):
            # identical doubles, full printed precision
            assert float(row["x"]) == state["x"]
            assert float(row["energy"]) == state["energy"]
            assert float(row["alpha1_re"]) == state["alpha1"][0]
            assert float(row["norm_constant"]) == state["norm_constant"]

    def test_seventeen_digit_round_trip(self, capsys):
        code, out = run_cli(capsys, "solve", "--kappa-c", KC_STR, "--kappa-q",
                            KQ_STR, "--format", "csv")
        rows = list(csv.DictReader(io.StringIO(out)))
        for row in rows:
            printed = row["x"]
            assert format(float(printed), ".17g") == printed

    def test_output_file(self, capsys, tmp_path):
        target = tmp_path / "out.json"
        code, out = run_cli(capsys, "solve", "--kappa-c", "10", "--kappa-q", "0",
                            "--output", str(target))
        assert code == 0
        assert out == ""
        doc = json.loads(target.read_text())
        assert doc["config"]["mode"] == "solve"

    def test_config_file_and_precedence(self, capsys, tmp_path):
        cfg = tmp_path / "well.cfg"
        cfg.write_text("# a deep complex well\nkappa-c = 15.70796327\nkappa_q = 0\n")
        doc = solve_json(capsys, "--config", str(cfg))
        assert len(doc["results"]) == 5
        # flags override the file
        doc2 = solve_json(capsys, "--config", str(cfg), "--kappa-c", "1")
        assert doc2["results"] == []


class TestUsageErrors:
    def test_both_well_forms(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["solve", "--kappa-c", "1", "--v1", "1"])
        assert err.value.code == 2

    def test_missing_well(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["solve"])
        assert err.value.code == 2

    def test_bad_format(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["solve", "--kappa-c", "1", "--format", "xml"])
        assert err.value.code == 2

    def test_unknown_mode(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["frobnicate"])
        assert err.value.code == 2

    def test_negative_depth(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["solve", "--kappa-c", "-3"])
        assert err.value.code == 2

    @pytest.mark.parametrize("argv", [
        ["--kappa-c", "nan"], ["--kappa-c", "inf"], ["--kappa-c", "5", "--kappa-q", "inf"],
        ["--kappa-c", "5", "--a", "nan"], ["--kappa-c", "5", "--a", "inf"],
        ["--v1", "inf"], ["--v1", "4", "--v2", "nan"], ["--v1", "4", "--v3=-inf"],
    ])
    def test_non_finite_input(self, capsys, argv):
        with pytest.raises(SystemExit) as err:
            main(["solve", *argv])
        assert err.value.code == 2
        assert "must be finite" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["--kappa-c", "1e80"], ["--kappa-c", "1", "--kappa-q", "1e78"], ["--v1", "1e160"],
        # the window is finite, but V1 = (kappa_c/a)^2 is not
        ["--kappa-c", "3", "--a", "1e-300"],
    ])
    def test_overflowing_depth(self, capsys, argv):
        with pytest.raises(SystemExit) as err:
            main(["solve", *argv])
        assert err.value.code == 2
        assert "too deep" in capsys.readouterr().err

    # the window is finite, but its scan grid (about 1.3e79 points) is not
    @pytest.mark.parametrize("mode", ["solve", "compare", "verify"])
    def test_oversized_scan_grid(self, capsys, mode):
        with pytest.raises(SystemExit) as err:
            main([mode, "--kappa-c", "1e76"])
        assert err.value.code == 2
        assert "scan grid" in capsys.readouterr().err


class TestCompare:
    @pytest.mark.parametrize("delta", [1e-5, 1e-3])
    def test_weakly_bound_complex_well(self, capsys, delta):
        # the tan form brackets a state just below kappa_t that validation
        # rejects (1e-5: too close to kappa_t to be matched at all); the
        # trial spectrum drops it as the quaternionic solver does
        code, out = run_cli(capsys, "compare", "--kappa-c", repr(1.5707963267948966 + delta))
        assert code == 0
        diag = json.loads(out)["diagnostics"]
        assert (diag["count_complex"], diag["count_quaternionic"], diag["count_trial"]) == (1, 0, 0)

    def test_three_spectra_fig1(self, capsys):
        code, out = run_cli(capsys, "compare", "--kappa-c", KC_STR,
                            "--kappa-q", KQ_STR)
        assert code == 0
        doc = json.loads(out)
        diag = doc["diagnostics"]
        assert diag["count_complex"] == 5
        assert diag["count_quaternionic"] == 5
        assert diag["count_trial"] == 5
        assert diag["kappa_trial"] == pytest.approx(
            (float(KC_STR) ** 4 + float(KQ_STR) ** 4) ** 0.25, rel=1e-15)
        for level in doc["results"]:
            assert level["x_complex"] < level["x_quaternionic"]

    def test_degenerate_comparison(self, capsys):
        code, out = run_cli(capsys, "compare", "--kappa-c", KC_STR, "--kappa-q", "0")
        doc = json.loads(out)
        for level in doc["results"]:
            assert abs(level["x_complex"] - level["x_quaternionic"]) < 1e-10
            assert abs(level["x_complex"] - level["x_trial"]) < 1e-10

    def test_csv_has_level_rows(self, capsys):
        code, out = run_cli(capsys, "compare", "--kappa-c", KC_STR,
                            "--kappa-q", KQ_STR, "--format", "csv")
        rows = list(csv.DictReader(io.StringIO(out)))
        assert len(rows) == 5
        assert rows[0]["level"] == "1"


class TestCurves:
    def test_csv_header_contract(self, capsys):
        code, out = run_cli(capsys, "curves", "--kappa-c", KC_STR, "--kappa-q",
                            KQ_STR, "--grid", "50", "--format", "csv")
        assert code == 0
        header = out.splitlines()[0]
        assert header == "x,tan_clipped,f_quat,f_complex,f_trial,mismatch,marker"

    def test_complex_limit_columns_agree(self, capsys):
        code, out = run_cli(capsys, "curves", "--kappa-c", KC_STR, "--kappa-q",
                            "0", "--grid", "200", "--format", "csv")
        for row in csv.DictReader(io.StringIO(out)):
            assert float(row["f_quat"]) == pytest.approx(float(row["f_complex"]), abs=1e-12)

    def test_f_complex_domain_marker(self, capsys):
        # beyond x = kappa_c the complex-well column leaves its domain
        code, out = run_cli(capsys, "curves", "--kappa-c", KC_STR, "--kappa-q",
                            KQ_STR, "--grid", "300", "--format", "csv")
        kc = float(KC_STR)
        marked = [row for row in csv.DictReader(io.StringIO(out))
                  if "f_complex_domain" in row["marker"]]
        assert marked
        for row in marked:
            assert float(row["x"]) >= kc
            assert float(row["f_complex"]) == 0.0

    def test_tan_clipped(self, capsys):
        code, out = run_cli(capsys, "curves", "--kappa-c", KC_STR, "--kappa-q",
                            KQ_STR, "--grid", "4000", "--format", "csv")
        clipped = [row for row in csv.DictReader(io.StringIO(out))
                   if "tan_pole" in row["marker"]]
        assert clipped
        for row in clipped:
            assert abs(float(row["tan_clipped"])) == 1e3

    def test_mismatch_sign_changes_bracket_solve_roots(self, capsys):
        doc = solve_json(capsys, "--kappa-c", KC_STR, "--kappa-q", KQ_STR)
        roots = [st["x"] for st in doc["results"]]
        code, out = run_cli(capsys, "curves", "--kappa-c", KC_STR, "--kappa-q",
                            KQ_STR, "--grid", "3000", "--format", "csv")
        rows = list(csv.DictReader(io.StringIO(out)))
        xs = [float(r["x"]) for r in rows]
        gs = [float(r["mismatch"]) for r in rows]
        brackets = [(xs[i], xs[i + 1]) for i in range(len(xs) - 1)
                    if gs[i] * gs[i + 1] < 0]
        # every solve root is bracketed exactly once ...
        for root in roots:
            assert sum(lo < root < hi for lo, hi in brackets) == 1
        # ... and every bracket clear of the f-pole hugging x_max holds a root
        x_max = max(xs) * (len(xs) + 1) / len(xs)
        for lo, hi in brackets:
            if hi < x_max - 1e-3:
                assert sum(lo < root < hi for root in roots) == 1

    def test_json_rows_match_csv(self, capsys):
        code, out_json = run_cli(capsys, "curves", "--kappa-c", "10",
                                 "--kappa-q", "4", "--grid", "25")
        doc = json.loads(out_json)
        code, out_csv = run_cli(capsys, "curves", "--kappa-c", "10",
                                "--kappa-q", "4", "--grid", "25", "--format", "csv")
        rows = list(csv.reader(io.StringIO(out_csv)))
        assert rows[0] == doc["results"]["columns"]
        for json_row, csv_row in zip(doc["results"]["rows"], rows[1:]):
            for jv, cv in zip(json_row[:6], csv_row[:6]):
                assert float(cv) == jv
            assert json_row[6] == csv_row[6]


def _scalar_curve_row(x, prob):
    """One curves row from the scalar functions, one sample at a time."""
    marks = []
    tan_val = float(np.tan(x))
    if abs(tan_val) > 1e3:
        tan_val = math.copysign(1e3, tan_val)
        marks.append("tan_pole")
    row = [x, tan_val]
    for label, p in (("f_quat", prob),
                     ("f_complex", QuantizationProblem(prob.kappa_c, 0.0, prob.a)),
                     ("f_trial", QuantizationProblem(prob.x_max, 0.0, prob.a))):
        try:
            value = f_quantization(x, p)
        except DegenerateEnergyError:
            value, kind = 0.0, "degenerate"
        except QuantizationPoleError:
            value, kind = 0.0, "pole"
        except ValueError:
            value, kind = 0.0, "domain"
        else:
            kind = "clip" if abs(value) > 1e3 else ""
            if kind:
                value = math.copysign(1e3, value)
        if kind:
            marks.append(f"{label}_{kind}")
        row.append(value)
    return row + [mismatch(x, prob), ";".join(marks)]


# (kappa_c, kappa_q, grid): FIG1 with f_complex outside its domain; the
# middle sample on pi/2, a pole of tan; x_max = 2 with the middle sample on
# kappa_q = 1; x_max = 1e-8, whose first samples lie in every column's band
# at 0; and a sample 1e-8 below kappa_c = 1, where |f_complex| > 1e3
CURVE_WELLS = [
    (KC_STR, KQ_STR, 300),
    (repr(math.pi), "0", 3),
    (repr(15 ** 0.25), "1", 3),
    ("1e-8", "0", 20),
    ("1", repr((((4 / 3) * (1 - 1e-8)) ** 4 - 1) ** 0.25), 3),
    ("10", "4", 25),
]


def _curve_rows(capsys, kappa_c, kappa_q, grid):
    code, out = run_cli(capsys, "curves", "--kappa-c", kappa_c, "--kappa-q", kappa_q,
                        "--grid", str(grid), "--format", "csv")
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))[1:]
    assert len(rows) == grid
    return [[float(v) for v in row[:6]] + [row[6]] for row in rows]


class TestCurvesOneRealForm:
    """The array columns of curves against the scalar f_quantization and mismatch."""

    @pytest.mark.parametrize("kappa_c, kappa_q, grid", CURVE_WELLS)
    def test_rows_equal_scalar_values(self, capsys, kappa_c, kappa_q, grid):
        prob = QuantizationProblem(float(kappa_c), float(kappa_q))
        for row in _curve_rows(capsys, kappa_c, kappa_q, grid):
            assert row == _scalar_curve_row(row[0], prob)

    def test_every_marker_kind(self, capsys, monkeypatch):
        seen = set()
        for well in CURVE_WELLS:
            seen.update(t for row in _curve_rows(capsys, *well) for t in row[6].split(";"))

        # poles and clipped values of every f column: N' = 1 and D' = 0 below
        # x = 3, D' = 1e-6 up to x = 6, D' = 1 above
        def turned(x, kappa_c, kappa_q):
            x = np.asarray(x, dtype=float)
            return np.ones_like(x), np.where(x < 3.0, 0.0, np.where(x < 6.0, 1e-6, 1.0))

        monkeypatch.setattr(quantization, "_turned_terms", turned)
        prob = QuantizationProblem(10.0, 4.0)
        rows = _curve_rows(capsys, "10", "4", 25)
        for row in rows:
            assert row == _scalar_curve_row(row[0], prob)
        seen.update(t for row in rows for t in row[6].split(";"))
        # f_quat and f_trial are defined on all of (0, x_max), where the samples lie
        kinds = {"tan_pole"} | {f"{label}_{kind}"
                                for label in ("f_quat", "f_complex", "f_trial")
                                for kind in ("degenerate", "pole", "clip")}
        assert seen - {""} == kinds | {"f_complex_domain"}


class TestVerify:
    @pytest.mark.parametrize("kappa_q", ["1e-78", "1e-100", "1e-160", "1e-300"])
    def test_tiny_kappa_q_prints_strict_json(self, capsys, kappa_q):
        # kappa_q^4 underflows: the below-threshold window counts as empty
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            code, out = run_cli(capsys, "verify", "--kappa-c", "5", "--kappa-q", kappa_q)
        doc = json.loads(out, parse_constant=reject_constant)
        assert code == 0
        assert doc["diagnostics"]["all_passed"] is True
        reality = next(e for e in doc["results"]
                       if e["property"] == "reality-below-threshold")
        assert reality["detail"].startswith("empty window (kappa_q^4 underflows")

    def test_default_run_passes(self, capsys):
        code, out = run_cli(capsys, "verify")
        assert code == 0
        doc = json.loads(out)
        assert doc["diagnostics"]["all_passed"] is True
        names = {entry["property"] for entry in doc["results"]}
        assert "reality-below-threshold" in names
        assert "complex-limit-equivalence" in names
        assert all(entry["passed"] for entry in doc["results"])

    def test_reports_reality_measurement(self, capsys):
        code, out = run_cli(capsys, "verify", "--kappa-c", KC_STR,
                            "--kappa-q", KQ_STR)
        doc = json.loads(out)
        assert doc["diagnostics"]["max_rel_imag_num_conj_den"] < 1e-10

    def test_negative_control(self, capsys):
        code, out = run_cli(capsys, "verify", "--validate-tol", "1e-20")
        assert code == 1
        doc = json.loads(out)
        assert doc["diagnostics"]["all_passed"] is False
        reality = next(e for e in doc["results"]
                       if e["property"] == "reality-below-threshold")
        assert reality["passed"] is False

    def test_verify_deterministic(self, capsys):
        _, out1 = run_cli(capsys, "verify")
        _, out2 = run_cli(capsys, "verify")
        assert out1 == out2
