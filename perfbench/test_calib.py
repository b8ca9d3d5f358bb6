"""Tests of the benchmark's own machinery (not collected by the tier-1 run).

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import ast
import gc
import heapq
import subprocess
import sys
from pathlib import Path

import numpy as np

import calib
import tracing

HERE = Path(__file__).resolve().parent


def test_kernel_module_imports_nothing_from_repro():
    tree = ast.parse((HERE / "calib.py").read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {alias.name.split(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom):
            imported.add((node.module or "").split(".")[0])
    allowed = {"__future__", "gc", "heapq", "signal", "time", "typing", "numpy"}
    assert imported <= allowed


def test_kernel_and_sampler_leave_repro_unimported():
    code = (
        "import sys, time; sys.path.insert(0, sys.argv[1]); import calib\n"
        "calib.kernel()\n"
        "with calib.Sampler() as sampler:\n"
        "    deadline = time.perf_counter() + 0.2\n"
        "    while time.perf_counter() < deadline: pass\n"
        "assert sampler.samples\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'repro'))\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", code, str(HERE)],
        capture_output=True, text=True, timeout=60, check=True,
    )
    assert done.stdout.strip() == "[]"


def test_kernel_runs_with_gc_off_and_restores_it(monkeypatch):
    """Both halves of the kernel, heap/dict work and array ops, see GC off."""
    seen = []

    class HeapSpy:
        heappop = staticmethod(heapq.heappop)

        @staticmethod
        def heappush(heap, item):
            seen.append(("heap", gc.isenabled()))
            heapq.heappush(heap, item)

    class NumpySpy:
        def __getattr__(self, name):
            return getattr(np, name)

        def sqrt(self, values):
            seen.append(("numpy", gc.isenabled()))
            return np.sqrt(values)

    monkeypatch.setattr(calib, "heapq", HeapSpy)
    monkeypatch.setattr(calib, "np", NumpySpy())
    try:
        gc.enable()
        calib.kernel(scale=0.01)
        assert gc.isenabled()
        gc.disable()
        calib.kernel(scale=0.01)
        assert not gc.isenabled()
    finally:
        gc.enable()
    assert {part for part, _ in seen} == {"heap", "numpy"}
    assert not any(enabled for _, enabled in seen)


def test_speed_factor_is_the_mean_of_inverse_kernel_times():
    ref = calib.REFERENCE_CALIB_MS
    # Half the stretch at reference speed, half at half speed.
    assert calib.speed_factor([ref, 2 * ref]) == 0.75


def test_self_time_subtracts_child_spans_and_excluded_time():
    tracer = tracing.Tracer()
    tracer.span_name.extend([0, 1])
    tracer.names += ["outer", "inner"]
    tracer.layers += ["experiments", "net"]
    tracer.span_parent.extend([-1, 0])
    tracer.span_start.extend([0.0, 1.0])
    tracer.span_end.extend([10.0, 4.0])
    tracer.excluded[0] += 0.5
    assert tracer.self_times() == {"experiments": 6.5, "net": 3.0}


def test_wrappers_sharing_a_count_pass_delegation_through():
    tracer = tracing.Tracer()
    inner = tracer.timed("inner", "net", "net.calls", None, lambda: 1)
    outer = tracer.timed("outer", "net", "net.calls", None, lambda: inner())
    other = tracer.timed("other", "experiments", None, None, lambda: inner())
    assert outer() == 1
    assert tracer.counts["net.calls"] == 1
    assert other() == 1
    assert tracer.counts["net.calls"] == 2
    assert len(tracer.span_start) == 3

    base = tracer.counted("consensus.calls", lambda: 2)
    wrapping = tracer.counted("consensus.calls", lambda: base() + base())
    assert wrapping() == 4
    assert base() == 2
    assert tracer.counts["consensus.calls"] == 2
