"""The frozen benchmark under ``perfbench/`` still runs against ``src/``.

The benchmark reaches into the program by name (``ops.record``,
``reversible.sequence_backward``, ``memory_model.estimate_*``, ...). These
tests load its tracing and workload modules from their files, without
editing them, and run every workload once under the tracer, so an edit that
removes or renames a name the benchmark reaches fails here. The workloads'
``extra_checks`` are left out: whether reversible and stored gradients agree
after a few training steps depends on where a LeakyReLU kink falls. The
benchmark's own tests, ``perfbench/selftest.py``, run too, in a child
process, so that the ``sys.path`` entries they insert stay there.
"""

import importlib.util
import subprocess
import sys
from pathlib import Path

import pytest

from revvolnet import memory_model

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}",
                                                  PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracing = _load("tracing")
workloads = _load("workloads")


@pytest.fixture
def tracer():
    tracer = tracing.Tracer()
    saved = tracing.install(tracer)
    try:
        yield tracer
    finally:
        tracing.uninstall(saved)
    assert tracing.wrapped_targets() == []


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_workload_runs_traced(name, tracer, tmp_path):
    wl = workloads.WORKLOADS[name](1, tmp_path)
    assert wl.check(wl.setup())
    tracer.reset()
    results = []
    peak = memory_model.measure_peak(lambda: results.append(wl.op()))
    (result,) = results
    assert wl.check(result)
    assert peak > 0
    assert wl.model_bytes() > 0
    assert wl.loss(result) >= 0
    metrics = tracer.layer_metrics(op_s=1.0)
    assert metrics["ops.conv3d.calls"] > 0
    assert metrics["unet.forward_s"] > 0


def test_benchmark_selftest_passes():
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         str(PERFBENCH / "selftest.py")],
        cwd=PERFBENCH.parent, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout + proc.stderr
