"""Tests of the benchmark itself (not part of the package's test suite).

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import argparse
import copy
import json
import random
import shutil
import subprocess
import sys
import time

import pytest

import run
import spans
import speed
import workloads as w

SMALL_RUNGS = ("-1+2i", "-3")


def _bindings(lem) -> dict:
    """(namespace, name) -> object for every name bound to a wrapped target."""
    modules = w.layer_modules(lem)
    targets = []
    for module, qual in spans.TARGETS:
        owner = modules[module]
        *path, attr = qual.split(".")
        for part in path:
            owner = getattr(owner, part)
        targets.append(vars(owner)[attr])
    found = {}
    for space in dict.fromkeys(spans._namespaces(modules.values())):
        for key, value in vars(space).items():
            if any(value is t for t in targets):
                found[(space, key)] = value
    return found


@pytest.fixture
def small_ladders(monkeypatch):
    monkeypatch.setattr(w, "EXACT_RUNGS", SMALL_RUNGS)
    monkeypatch.setattr(w, "NUMERIC_RUNGS", SMALL_RUNGS)
    monkeypatch.setattr(w, "REPLAY_READS", 2)


@pytest.fixture
def loads(monkeypatch):
    """Record the bindings of every fresh import a run makes."""
    seen = []
    original = w.load_lemnatomic

    def load():
        lem = original()
        seen.append((lem, _bindings(lem)))
        return lem

    monkeypatch.setattr(w, "load_lemnatomic", load)
    return seen


def _args(workload: str, trace: int) -> argparse.Namespace:
    return argparse.Namespace(workload=workload, seed=3, seconds=0, trace=trace)


def _guard() -> w.Guard:
    return w.Guard(time.perf_counter() + 60)


def test_install_wraps_every_binding_and_uninstall_restores():
    lem = w.load_lemnatomic()
    before = _bindings(lem)
    # classfield and cli hold their own references to gfq and exact functions
    assert (lem.classfield, "splits_completely") in before
    assert (lem.cli, "lemnatomic_exact") in before
    tracer = spans.Tracer()
    patches = spans.install(tracer, w.layer_modules(lem))
    try:
        for space, key in before:
            assert getattr(space, key).__wrapped__ is before[(space, key)]
        lem.classfield.verify_prop1(lem.parse_gauss("-3"), 50)
    finally:
        spans.uninstall(patches)
    assert _bindings(lem) == before
    called = {tracer.names[n] for n, *_ in tracer.spans}
    assert {"classfield.verify_prop1", "gfq.squarefree", "gfq.reduce_poly"} <= called


@pytest.mark.parametrize("workload", ["exact-ladder", "numeric-ladder"])
def test_untraced_run_leaves_every_wrapped_name_identical(small_ladders, loads, tmp_path, workload):
    passes = run.run_passes(_args(workload, 0), _guard(), tmp_path)
    assert [tracer for _, tracer in passes] == [None]
    assert all(op["error"] is None for op in passes[0][0])
    for lem, before in loads:
        after = _bindings(lem)
        assert after == before
        assert not any(hasattr(value, "__wrapped__") for value in after.values())


def test_traced_run_installs_wrappers_then_removes_them(small_ladders, loads, tmp_path):
    passes = run.run_passes(_args("exact-ladder", 1), _guard(), tmp_path)
    (ops, tracer), = passes
    assert all(op["error"] is None for op in ops)
    metrics = spans.layer_metrics(tracer)
    assert metrics["cli.dispatch.calls"][0] == len(ops)
    assert metrics["exact.mult_map.calls"][0] == len(SMALL_RUNGS)
    assert metrics["cache.hit_ratio"][0] == pytest.approx(2 / 3)  # 2 cold misses, 4 replay hits
    (lem, before), = loads
    assert _bindings(lem) == before


def test_wrong_reference_counts_as_failure(small_ladders, monkeypatch, tmp_path):
    wrong = copy.deepcopy(w.load_reference())
    wrong["rungs"]["-3"]["checksum"] = "0" * 64
    monkeypatch.setattr(w, "load_reference", lambda: wrong)
    lem = w.load_lemnatomic()
    inputs = w.prepare("exact-ladder", lem, tmp_path)
    ops = w.exact_pass(lem, inputs, random.Random(0), _guard())
    failed = [op["op"] for op in ops if op["error"]]
    assert failed == ["rung -3", "replay -3", "replay -3"]


def test_replay_read_that_is_not_a_cache_hit_fails(tmp_path):
    lem = w.load_lemnatomic()
    argv = ["lemnatomic", "-3", "--method", "exact", "--json", "--cache-dir", str(tmp_path)]
    result = w.cli_call(lem, argv)  # cold: computed, then stored
    assert w.check_rung(result, "-3", "exact", cached=False) is None
    assert w.check_rung(result, "-3", "exact", cached=True) is not None
    assert w.check_rung(w.cli_call(lem, argv), "-3", "exact", cached=True) is None


def test_operation_over_its_limit_is_stopped_and_counted():
    def spin():
        while True:
            pass

    start = time.perf_counter()
    record = w.run_op(_guard(), None, "spin", spin, lambda _: None, limit=0.2)
    assert time.perf_counter() - start < 5
    assert record["timeout"] and record["error"].startswith("timeout")


def test_self_time_is_span_minus_children():
    names = ["a", "b", "c"]
    # a [0, 10] holds b [1, 4] and c [5, 9]; c holds b [6, 7]; a [2, 3] nests in b
    synthetic = [
        (0, 0.0, 10.0, -1, 0),
        (1, 1.0, 4.0, 0, 0),
        (0, 2.0, 3.0, 1, 0),
        (2, 5.0, 9.0, 0, 0),
        (1, 6.0, 7.0, 3, 0),
    ]
    stats = spans.layer_stats(names, synthetic)
    assert stats["a"] == [2, 10.0, pytest.approx(3.0 + 1.0)]
    assert stats["b"] == [2, 4.0, pytest.approx(2.0 + 1.0)]
    assert stats["c"] == [1, 4.0, pytest.approx(3.0)]


def test_adjust_scales_by_speed_and_drops_the_samples():
    meter = speed.Speedometer(0.05)
    ref = speed.REF_KERNEL_S
    # samples at t = 1, 2, 3, 4 s; the host ran at half the reference speed
    meter.starts = [1.0, 2.0, 3.0, 4.0]
    meter.kernel_s = [2 * ref] * 4
    meter.spent_s = [0.25] * 4
    # [0.5, 4.5] holds all four samples: 4 s of wall time, 1 s of it sampling
    assert meter.adjust(0.5, 4.5) == pytest.approx(3.0 / 2)
    # a span with fewer than MIN_SAMPLES inside takes the nearest speeds:
    # the samples at 1, 2 and 3 s, not the slow one at 4 s
    meter.kernel_s = [ref, ref, ref, 2 * ref]
    meter.spent_s = [0.01] * 4
    assert meter.adjust(1.9, 2.1) == pytest.approx(0.2 - 0.01)


def test_untraced_ops_are_in_reference_seconds(small_ladders, tmp_path):
    passes = run.run_passes(_args("numeric-ladder", 0), _guard(), tmp_path)
    for op in passes[0][0]:
        assert op["wall_s"] > 0 and op["seconds"] > 0
        assert op["seconds"] != op["wall_s"]


def test_reference_routes_agree():
    rungs = w.load_reference()["rungs"]
    assert set(rungs) == set(w.NUMERIC_RUNGS)
    both = {beta for beta, ref in rungs.items() if ref["routes"] == ["exact", "numeric"]}
    assert both == set(w.EXACT_RUNGS)


def test_fails_without_the_program(tmp_path):
    shutil.copytree(w.HERE, tmp_path / w.HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(w.HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, f"{w.HERE.name}/run.py", "--workload", "exact-ladder",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert not proc.stdout.strip()


def test_benchmark_json_lists_every_metric():
    spec = json.loads((w.HERE.parent / "BENCHMARK.json").read_text())
    assert {m["name"] for m in spec["end_to_end"]} == set(run.E2E_UNITS)
    assert [m["name"] for m in spec["workloads"]] == list(w.WORKLOADS)
    per_layer = {m["name"] for m in spec["per_layer"]}
    for module, qual in spans.TARGETS:
        name = f"{module}.{qual}"
        assert {f"{name}.calls", f"{name}.total_s", f"{name}.self_s"} <= per_layer
    timings = {"pass_s", "top_s", "rest_s", "replay_ms"}
    assert {f"traced.{name}" for name in timings} <= per_layer
