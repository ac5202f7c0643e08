"""One leg of one workload, in a process of its own.

    python3 perfbench/worker.py --workload NAME --seed N --seconds S
                                --trace 0|1 --setup-reps R --min-ops M

Pins BLAS to one thread before numpy is imported, sets the workload up
``--setup-reps`` times, runs its operation in a closed loop for ``--seconds``
(and at least ``--min-ops`` times), measures peaks over an extra untimed
operation, runs the workload's correctness checks, and prints one JSON
document as the last line of standard output. With ``--trace 1`` the layer
functions are wrapped (see ``tracing.py``) and per-operation layer numbers
are reported; with ``--trace 0`` nothing is wrapped.
"""

import os
import time

_START = time.perf_counter()
# One BLAS thread, set before numpy loads (as revvolnet.cli does).
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "REVVOLNET_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import traceback  # noqa: E402
import tracemalloc  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import tracing  # noqa: E402
import workloads  # noqa: E402
from revvolnet import memory_model  # noqa: E402

IMPORT_S = time.perf_counter() - _START
LOSS_STEP = 10  # loss_final is the loss of this timed operation (1-based)
GEMM_EDGE = 512


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--setup-reps", type=int, default=1)
    p.add_argument("--min-ops", type=int, default=1,
                   help="timed operations to run even past --seconds")
    return p.parse_args(argv)


def environment() -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    blas = np.show_config(mode="dicts")["Build Dependencies"].get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
    }


def gemm_peak_gflops() -> float:
    """Best single-thread float32 GEMM rate at GEMM_EDGE^2."""
    rng = np.random.default_rng(0)
    a = rng.standard_normal((GEMM_EDGE, GEMM_EDGE), dtype=np.float32)
    b = rng.standard_normal((GEMM_EDGE, GEMM_EDGE), dtype=np.float32)
    a @ b
    best = float("inf")
    for _ in range(20):
        t0 = time.perf_counter()
        a @ b
        best = min(best, time.perf_counter() - t0)
    return 2 * GEMM_EDGE ** 3 / best / 1e9


class Counter:
    """Operations attempted and failed, where failing is raising or failing
    a correctness check."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def run(self, op, check):
        """Run and check one operation; returns its result (None if it
        raised) and its duration, which leaves the check out."""
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            result = op()
        except Exception:
            traceback.print_exc()
            self.failed += 1
            return None, 0.0
        dt = time.perf_counter() - t0
        if not check(result):
            print(f"correctness check failed on operation {self.attempted}",
                  file=sys.stderr)
            self.failed += 1
        return result, dt


def run_leg(args) -> dict:
    make = workloads.WORKLOADS[args.workload]
    tracer = tracing.Tracer() if args.trace else None
    saved = tracing.install(tracer) if tracer else []
    counter = Counter()
    work_root = ROOT / ".bench_build"
    work_root.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="perfbench-", dir=work_root)
    try:
        setup_s = []
        for _ in range(args.setup_reps):
            wl = None  # release the previous repetition's state first
            if tracer:
                tracer.reset()
            t0 = time.perf_counter()
            wl = make(args.seed, workdir)
            first = wl.setup()
            setup_s.append(time.perf_counter() - t0)
            counter.run(lambda: first, wl.check)
        setup_layers = dict(tracer.inclusive) if tracer else {}
        unwrapped = not tracing.wrapped_targets()

        samples, layer_rows, loss_final, attempts = [], [], None, 0
        deadline = time.perf_counter() + args.seconds
        while attempts < args.min_ops or time.perf_counter() < deadline:
            attempts += 1
            if tracer:
                tracer.reset()
            result, dt = counter.run(wl.op, wl.check)
            if result is None:
                continue
            samples.append(dt)
            if tracer:
                row = tracer.layer_metrics(dt)
                row["tape.nodes"] = getattr(wl, "tape_nodes", 0)
                row["tape.retained_bytes"] = getattr(wl, "tape_retained_bytes", 0)
                row["tape.peak_grad_bytes"] = getattr(wl, "peak_grad_bytes", 0)
                layer_rows.append(row)
            if len(samples) == LOSS_STEP:
                loss_final = wl.loss(result)
            result = None

        # One untimed operation measures both peaks above their entry levels.
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            peak_tracked = memory_model.measure_peak(lambda: counter.run(wl.op, wl.check))
            peak_numpy = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        checks = wl.extra_checks()
        for check in checks.values():
            counter.attempted += 1
            counter.failed += not check["pass"]
        checks["unwrapped_when_untraced"] = {"value": unwrapped,
                                             "pass": bool(args.trace or unwrapped)}
        model = wl.model_bytes()
        doc = {
            "workload": args.workload,
            "seed": args.seed,
            "trace": args.trace,
            "input_shape": list(wl.input_shape),
            "voxels_per_op": int(np.prod(wl.input_shape[2:])) * wl.input_shape[0],
            "samples": samples,
            "setup_s": setup_s,
            "import_s": IMPORT_S,
            "loss_final": loss_final,
            "peak_tracked_bytes": peak_tracked,
            "peak_numpy_bytes": peak_numpy,
            "model_bytes": model,
            "attempted": counter.attempted,
            "failed": counter.failed,
            "checks": checks,
        }
        if tracer:
            layers = {k: statistics.median(r[k] for r in layer_rows)
                      for k in layer_rows[0]}
            layers["unet.load_checkpoint_s"] = setup_layers.get("unet.load_checkpoint", 0.0)
            layers["training.generate_synthetic_s"] = setup_layers.get(
                "training.generate_synthetic", 0.0)
            layers["memory_model.estimate_bytes"] = model
            layers["memory_model.tracked_over_model"] = peak_tracked / model
            layers["memory_model.numpy_over_model"] = peak_numpy / model
            layers["ops.gemm_peak_gflops"] = gemm_peak_gflops()
            doc["layers"] = layers
    finally:
        tracing.uninstall(saved)
        shutil.rmtree(workdir, ignore_errors=True)
    doc["peak_rss_bytes"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024
    return doc


def main(argv=None) -> int:
    args = parse_args(argv)
    doc = run_leg(args)
    doc["env"] = environment()
    print(json.dumps(doc))
    return 0


if __name__ == "__main__":
    sys.exit(main())
