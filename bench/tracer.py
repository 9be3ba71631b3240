"""Spans and counters around calls into each quatwell layer.

The program itself is not instrumented: `Tracer.install` rebinds each
layer function to a timing wrapper in every quatwell module that holds a
reference to it, and `Tracer.uninstall` puts the originals back, so an
untraced operation runs the unmodified code.  A span is (name, start, end,
parent, op id); spans live in flat arrays until `save` writes them once.
A layer's self time is its span durations minus the time its child spans
cover.  A function that no longer exists is skipped and its metrics are
reported as absent.
"""

from __future__ import annotations

import importlib
import time
from array import array
from collections import defaultdict

import numpy as np

MODULES = ("quaternion", "spectral", "radial", "quantization", "verify", "cli")
OP_SPAN = "bench.op"


def _noop(counts, args, result):
    pass


def _count_calls(key):
    def count(counts, args, result):
        counts[key] += 1
    return count


def _count_len(key):
    def count(counts, args, result):
        counts[key] += len(result)
    return count


def _count_brackets(counts, args, result):
    counts["quantization.bracket.brackets"] += len(result[0])


def _count_solve(counts, args, result):
    counts["quantization.validate.accepted"] += sum(
        1 for st in result.states if not st.flags)


def _count_norm_points(counts, args, result):
    # mirrors the Simpson grid of radial._interior_norm(eps, alpha1, gamma1, a, step)
    a, step = args[3], args[4]
    n = max(2, round(a / step))
    counts["radial.norm.points"] += n + n % 2 + 1


def _count_failed_checks(counts, args, result):
    counts["verify.checks.failed"] += sum(1 for c in result if not c.passed)


# (module, attribute, span name, counter); a dotted attribute names a method.
# mismatch, _bisect and _render_json get the special wrappers of Tracer.
TARGETS = (
    ("quantization", "mismatch", "quantization.scan", None),
    ("quantization", "_bisect", "quantization.refine", None),
    ("quantization", "_scan_brackets", "quantization.bracket", _count_brackets),
    ("quantization", "complex_limit_roots", "quantization.climit",
     _count_len("quantization.climit.roots")),
    ("quantization", "_det_relative_residual", "quantization.validate",
     _count_calls("quantization.validate.calls")),
    ("quantization", "find_bound_states", "quantization.solve", _count_solve),
    ("quantization", "trial_complex_states", "quantization.solve", _noop),
    ("radial", "solve_coefficients", "radial.match", _count_calls("radial.match.calls")),
    ("radial", "_interior_norm", "radial.norm", _count_norm_points),
    ("radial", "characteristic_data", "radial.chardata", _count_calls("radial.chardata.calls")),
    ("spectral", "canonicalize", "spectral.canonicalize",
     _count_calls("spectral.canonicalize.calls")),
    ("quaternion", "Quaternion.__mul__", "quaternion.mul", _count_calls("quaternion.mul.calls")),
    ("verify", "run_property_checks", "verify.checks", _count_failed_checks),
    ("cli", "run_solve", "cli.run", _noop),
    ("cli", "run_compare", "cli.run", _noop),
    ("cli", "run_verify", "cli.run", _noop),
    ("cli", "_render_json", "cli.render", None),
    ("cli", "_render_csv", "cli.render", _count_len("cli.render.bytes")),
)

# per-layer metrics: a counter, or "<span>.self_s" for the self time of a span
LAYER_METRICS = (
    "quantization.scan.points", "quantization.scan.self_s",
    "quantization.bracket.brackets", "quantization.bracket.self_s",
    "quantization.climit.roots", "quantization.climit.self_s",
    "quantization.refine.evals", "quantization.refine.self_s",
    "quantization.validate.calls", "quantization.validate.self_s",
    "quantization.solve.self_s", "radial.match.calls", "radial.match.self_s",
    "radial.norm.points", "radial.norm.self_s", "radial.chardata.calls",
    "radial.chardata.self_s", "cli.run.self_s", "cli.render.bytes", "cli.render.self_s",
    "quaternion.mul.calls", "quaternion.mul.self_s", "spectral.canonicalize.calls",
    "spectral.canonicalize.self_s", "verify.checks.self_s", "verify.checks.failed",
)


def self_times(name_ids, starts, ends, parents, n_names: int):
    """Total self time per span name: duration minus child-span coverage."""
    name_ids = np.asarray(name_ids, dtype=np.int64)
    dur = np.asarray(ends, dtype=float) - np.asarray(starts, dtype=float)
    parents = np.asarray(parents, dtype=np.int64)
    has_parent = parents >= 0
    covered = np.bincount(parents[has_parent], weights=dur[has_parent],
                          minlength=dur.size)
    return np.bincount(name_ids, weights=dur - covered, minlength=n_names)


class Tracer:
    """In-memory span recorder with install/uninstall of layer wrappers."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("l")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self.op = array("l")
        self.counts: dict[str, float] = defaultdict(float)
        self.ops = 0
        self.present: set[str] = set()
        self._stack: list[int] = []
        self._root = -1
        self._op_id = -1
        self._bisecting = 0
        self._modules = {m: importlib.import_module(f"quatwell.{m}") for m in MODULES}
        self._wrappers = self._build_wrappers()

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def open(self, nid: int) -> int:
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.op.append(self._op_id)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, span: str, fn, count):
        nid = self._id(span)
        counts = self.counts

        def wrapper(*args, **kwargs):
            idx = self.open(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(idx)
            count(counts, args, result)
            return result
        return wrapper

    def _wrap_mismatch(self, fn):
        scan, refine = self._id("quantization.scan"), self._id("quantization.refine")
        counts = self.counts

        def mismatch(x, prob):
            is_array = np.ndim(x) > 0
            if is_array:
                counts["quantization.scan.points"] += np.size(x)
            elif not self._bisecting:   # evaluations inside _bisect count there
                counts["quantization.refine.evals"] += 1
            idx = self.open(scan if is_array else refine)
            try:
                return fn(x, prob)
            finally:
                self.close(idx)
        return mismatch

    def _wrap_bisect(self, fn):
        nid, climit = self._id("quantization.refine"), self._id("quantization.climit")
        counts = self.counts

        def _bisect(fun, xl, xr, tol):
            # complex_limit_roots bisects the tan form: that is climit's own work
            if self._stack and self.name_id[self._stack[-1]] == climit:
                return fn(fun, xl, xr, tol)

            def counted(t):
                counts["quantization.refine.evals"] += 1
                return fun(t)
            counts["quantization.refine.roots"] += 1
            idx = self.open(nid)
            self._bisecting += 1
            try:
                return fn(counted, xl, xr, tol)
            finally:
                self._bisecting -= 1
                self.close(idx)
        return _bisect

    def _wrap_render_json(self, cli, fn):
        nid = self._id("cli.render")
        counts = self.counts

        def _render_json(obj, indent=0):
            # recursion goes straight to the original: one span per document
            wrapper = cli._render_json
            cli._render_json = fn
            idx = self.open(nid)
            try:
                text = fn(obj, indent)
            finally:
                self.close(idx)
                cli._render_json = wrapper
            counts["cli.render.bytes"] += len(text)
            return text
        return _render_json

    def _build_wrappers(self) -> list[tuple[object, str, object, object]]:
        """(owner, attribute, original, wrapper) for every name that exists."""
        mods = self._modules
        special = {
            "mismatch": self._wrap_mismatch,
            "_bisect": self._wrap_bisect,
            "_render_json": lambda fn: self._wrap_render_json(mods["cli"], fn),
        }
        wrappers = []
        for mod, attr, span, count in TARGETS:
            owner = mods[mod]
            *path, leaf = attr.split(".")
            for part in path:
                owner = getattr(owner, part, None)
            orig = getattr(owner, leaf, None)
            if orig is None:
                continue
            self.present.add(span)
            wrapper = special[leaf](orig) if count is None else self._wrap(span, orig, count)
            wrappers.append((owner, leaf, orig, wrapper))
            # a name imported into other modules is rebound there too
            for other in mods.values():
                if other is not owner and getattr(other, leaf, None) is orig:
                    wrappers.append((other, leaf, orig, wrapper))
        return wrappers

    def install(self, op_id: int) -> None:
        self._op_id = op_id
        runners = self._modules["cli"]._RUNNERS
        for owner, attr, orig, wrapper in self._wrappers:
            setattr(owner, attr, wrapper)
            for mode, fn in runners.items():
                if fn is orig:
                    runners[mode] = wrapper
        self._root = self.open(self._id(OP_SPAN))

    def uninstall(self) -> None:
        self.close(self._root)
        self.ops += 1
        runners = self._modules["cli"]._RUNNERS
        for owner, attr, orig, wrapper in reversed(self._wrappers):
            setattr(owner, attr, orig)
            for mode, fn in runners.items():
                if fn is wrapper:
                    runners[mode] = orig

    def layer_metrics(self) -> dict[str, float]:
        """Per-op means of every layer metric whose wrapped names exist."""
        ops = max(self.ops, 1)
        selfs = self_times(self.name_id, self.start, self.end, self.parent, len(self.names))
        by_name = {name: float(selfs[i]) for i, name in enumerate(self.names)}
        out = {}
        for metric in LAYER_METRICS:
            layer, _, leaf = metric.rpartition(".")
            if layer not in self.present:
                continue
            total = by_name.get(layer, 0.0) if leaf == "self_s" else self.counts[metric]
            out[metric] = total / ops
        if "quantization.refine" in self.present:
            roots = self.counts["quantization.refine.roots"]
            out["quantization.refine.evals_per_root"] = (
                self.counts["quantization.refine.evals"] / roots if roots else 0.0)
        if {"quantization.bracket", "quantization.solve"} <= self.present:
            brackets = self.counts["quantization.bracket.brackets"]
            out["quantization.validate.accept_ratio"] = (
                self.counts["quantization.validate.accepted"] / brackets if brackets else 0.0)
        # self times partition the op spans, so their sum is the traced op time
        out["trace.op_s"] = sum(by_name.values()) / ops
        return out

    def save(self, path) -> None:
        np.savez_compressed(
            path, names=np.array(self.names), name_id=np.asarray(self.name_id),
            start=np.asarray(self.start), end=np.asarray(self.end),
            parent=np.asarray(self.parent), op=np.asarray(self.op))
