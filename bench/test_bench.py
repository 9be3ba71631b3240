"""Tests of the benchmark itself: python3 -m pytest bench -q"""

import contextlib
import io
import json
import math
import random
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import reference  # noqa: E402
import run  # noqa: E402
import tracer as tracer_mod  # noqa: E402
from quatwell import cli, quantization  # noqa: E402
from workloads import (  # noqa: E402
    DEFECT_ARGS, KNOWN_DEFECTS, WORKLOADS, Well, argv_list, wells)


def test_tail_is_the_highest_percentile_with_ten_samples_beyond():
    latencies = list(range(1, 101))
    random.Random(0).shuffle(latencies)
    assert run.tail(latencies) == (90, 90.0)
    assert run.tail(range(11)) == (0, 100.0 / 11)
    with pytest.raises(ValueError):
        run.tail(range(10))


def test_self_time_subtracts_child_spans():
    # op [0, 10] > a [1, 4] > b [2, 3];  op > a [5, 9]
    names = [0, 1, 2, 1]
    starts = [0.0, 1.0, 2.0, 5.0]
    ends = [10.0, 4.0, 3.0, 9.0]
    parents = [-1, 0, 1, 0]
    selfs = tracer_mod.self_times(names, starts, ends, parents, 3)
    assert selfs.tolist() == [3.0, 6.0, 1.0]
    assert selfs.sum() == 10.0


def test_same_seed_gives_identical_argv_lists():
    for workload in WORKLOADS.values():
        assert argv_list(workload, wells(workload, 7)) == argv_list(workload, wells(workload, 7))
        assert argv_list(workload, wells(workload, 7)) != argv_list(workload, wells(workload, 8))


def _solve_text(well: Well) -> str:
    _, code, text = run.run_op(cli.main, ["solve", *well.argv()])
    assert code == 0
    return text


def test_perturbed_root_counts_as_failed():
    kappa_c, kappa_q, a = 5 * math.pi, 2.5 * math.pi, 1.3
    well = Well((kappa_c / a) ** 2, (kappa_q / a) ** 2 * math.cos(1.0),
                (kappa_q / a) ** 2 * math.sin(1.0), a)
    ref = reference.spectra(*reference.kappas(well.v1, well.v2, well.v3, well.a))
    text = _solve_text(well)
    assert reference.check_solve(text, ref)

    doc = json.loads(text)
    doc["results"][2]["x"] += 1e-6
    assert not reference.check_solve(json.dumps(doc), ref)
    del doc["results"][2]
    assert not reference.check_solve(json.dumps(doc), ref)

    # every op of a well whose output is wrong counts, not just the first
    ledger = run.Ledger(2)
    for _ in range(3):
        ledger.record(0, 0, text)
        ledger.record(1, 0, "same")
    ledger.record(1, 1, "same")
    assert ledger.failed(set()) == 1
    assert ledger.failed({0}) == 4


def test_other_modes_fail_on_broken_output():
    well = Well(6.0, 2.0, 1.0, 1.7)
    ref = reference.spectra(*reference.kappas(well.v1, well.v2, well.v3, well.a))

    _, code, text = run.run_op(cli.main, ["compare", *well.argv()])
    assert code == 0 and reference.check_compare(text, ref)
    doc = json.loads(text)
    doc["results"][-1]["x_trial"] = None
    assert not reference.check_compare(json.dumps(doc), ref)

    # an impossible tolerance is the CLI's own negative control
    _, code, text = run.run_op(cli.main, ["verify", "--validate-tol", "1e-20", *well.argv()])
    assert code == 1 and not reference.check_verify(text)


def test_known_defects_count_wells_that_disagree():
    # the pinned wells' roots are found on the default grid
    def default_grid(argv):
        assert argv[:3] == list(DEFECT_ARGS)
        return cli.main([argv[0], *argv[3:]])

    def drop_first_root(argv):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = default_grid(argv)
        doc = json.loads(buf.getvalue())
        del doc["results"][0]
        print(json.dumps(doc))
        return code

    assert run.known_defects(default_grid) == 0
    assert run.known_defects(drop_first_root) == len(KNOWN_DEFECTS)
    assert run.known_defects(lambda argv: 0) == len(KNOWN_DEFECTS)


def test_tracer_restores_the_program_and_counts_layers():
    originals = (quantization.mismatch, cli.find_bound_states, cli._RUNNERS["solve"])
    tr = tracer_mod.Tracer()
    tr.install(0)
    try:
        assert cli.find_bound_states is quantization.find_bound_states
        assert cli.find_bound_states is not originals[1]
        _, exit_code, _ = run.run_op(cli.main, ["solve", "--kappa-c", "7", "--kappa-q", "3"])
    finally:
        tr.uninstall()
    assert exit_code == 0
    assert (quantization.mismatch, cli.find_bound_states, cli._RUNNERS["solve"]) == originals
    metrics = tr.layer_metrics()
    assert metrics["quantization.scan.points"] > 0
    assert metrics["quantization.refine.evals"] > 0
    assert 0 < metrics["radial.match.calls"] <= metrics["quantization.validate.calls"]
    assert 0.0 < metrics["quantization.validate.accept_ratio"] <= 1.0
    assert metrics["cli.render.bytes"] > 0
    selfs = sum(v for k, v in metrics.items() if k.endswith(".self_s"))
    assert selfs <= metrics["trace.op_s"]


def test_complex_limit_bisection_counts_as_climit():
    tr = tracer_mod.Tracer()
    tr.install(0)
    try:
        roots = quantization.complex_limit_roots(20.0)
    finally:
        tr.uninstall()
    metrics = tr.layer_metrics()
    assert metrics["quantization.climit.roots"] == len(roots) > 0
    assert metrics["quantization.refine.evals"] == 0
    assert metrics["quantization.refine.self_s"] == 0.0
    assert metrics["quantization.climit.self_s"] == pytest.approx(metrics["trace.op_s"], rel=0.5)


def test_missing_layer_function_is_reported_absent(monkeypatch):
    monkeypatch.delattr(quantization, "complex_limit_roots")
    metrics = tracer_mod.Tracer().layer_metrics()
    assert "quantization.climit.roots" not in metrics
    assert "quantization.climit.self_s" not in metrics
    assert "quantization.scan.self_s" in metrics
