"""revvolnet benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is one of WORKLOADS, or ``all`` to run every workload and print the
ratios between them. Each workload leg runs in a worker process of its own
(``worker.py``). With ``--trace 0`` one untraced leg measures the end-to-end
metrics. With ``--trace 1`` an untraced leg takes a third of the time and a
traced leg, in another process, the rest; the traced leg gives the per-layer
metrics and the ratio of the two legs' median latencies is
``trace.overhead``. The last line of standard output is one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the lines
before it are a readable table, the ungated derived numbers and the
environment. See README.md in this directory.
"""

import argparse
import json
import math
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("train_rev32", "train_stored32", "infer64")
SETUP_REPS = 3
# An end-to-end leg runs at least this many operations, so that loss_final's
# operation exists and the tail percentile stays above the median.
E2E_MIN_OPS = 21
TRACE_MIN_OPS = 5
WORKLOAD_TIMEOUT_S = 170  # for all legs of one workload together
TAIL_BEYOND = 10
RECOMPUTE_BAND = (1.2, 2.0)  # acceptance criterion 7, reported, not gated


class LegError(RuntimeError):
    pass


def tail(samples, beyond=TAIL_BEYOND):
    """Highest percentile with at least ``beyond`` samples above it.

    Returns (percentile, value, samples above it); with too few samples the
    maximum is returned with the count that lies above it, zero.
    """
    ordered = sorted(samples)
    n = len(ordered)
    if n <= beyond:
        return 100.0, ordered[-1], 0
    return 100.0 * (n - beyond) / n, ordered[n - beyond - 1], beyond


def run_leg(workload, seed, seconds, trace, setup_reps, min_ops, deadline):
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", repr(seconds), "--trace", str(trace),
           "--setup-reps", str(setup_reps), "--min-ops", str(min_ops)]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              timeout=max(deadline - time.monotonic(), 1.0))
    except subprocess.TimeoutExpired as exc:
        raise LegError(f"{workload} exceeded {WORKLOAD_TIMEOUT_S}s") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise LegError(f"{workload} leg exited with code {proc.returncode}")
    return json.loads(lines[-1])


def end_to_end(doc):
    samples = doc["samples"]
    if doc["loss_final"] is None:
        raise LegError(f"{doc['workload']}: too few operations succeeded "
                       f"to read loss_final")
    pct, tail_value, beyond = tail(samples)
    metrics = {
        "op_s.p50": statistics.median(samples),
        "op_s.tail": tail_value,
        "voxels_per_s": doc["voxels_per_op"] * len(samples) / math.fsum(samples),
        "peak_tracked_bytes": doc["peak_tracked_bytes"],
        "peak_numpy_bytes": doc["peak_numpy_bytes"],
        "peak_rss_bytes": doc["peak_rss_bytes"],
        "setup_s": doc["import_s"] + statistics.median(doc["setup_s"]),
        "loss_final": doc["loss_final"],
        "ok_ops": 1.0 - doc["failed"] / doc["attempted"],
    }
    notes = {"op_s.tail": f"p{pct:.1f}, {beyond} of {len(samples)} samples beyond",
             "setup_s": f"import {doc['import_s']:.4f} s + median of "
                        f"{len(doc['setup_s'])} set-ups"}
    return metrics, notes


def measure(workload, seed, seconds, trace):
    """Run one workload; returns (metrics, notes, legs)."""
    deadline = time.monotonic() + WORKLOAD_TIMEOUT_S
    if not trace:
        doc = run_leg(workload, seed, seconds, 0, SETUP_REPS, E2E_MIN_OPS, deadline)
        metrics, notes = end_to_end(doc)
        return metrics, notes, [doc]
    plain = run_leg(workload, seed, seconds / 3, 0, 1, TRACE_MIN_OPS, deadline)
    traced = run_leg(workload, seed, seconds - seconds / 3, 1, 1, TRACE_MIN_OPS,
                     deadline)
    metrics = dict(traced["layers"])
    base = statistics.median(plain["samples"])
    metrics["trace.overhead"] = statistics.median(traced["samples"]) / base
    return metrics, {}, [plain, traced]


def legs_correct(legs):
    return all(leg["failed"] == 0 and all(c["pass"] for c in leg["checks"].values())
               for leg in legs)


def declared_metrics(trace):
    """{name: unit} of the metrics BENCHMARK.json declares for this mode."""
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def print_table(workload, metrics, notes, units):
    for name, value in metrics.items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"{workload:<15} {name:<36} {value:>16.6g} {units[name]}{note}")


def derived(results):
    """Ungated numbers: the recompute ratio and the memory-model ratios."""
    out = {}
    plain = {name: legs[0] for name, (_m, _n, legs) in results.items()}
    if {"train_rev32", "train_stored32"} <= set(plain):
        ratio = (statistics.median(plain["train_rev32"]["samples"])
                 / statistics.median(plain["train_stored32"]["samples"]))
        out["recompute_ratio"] = {"value": ratio, "band": list(RECOMPUTE_BAND),
                                  "in_band": RECOMPUTE_BAND[0] <= ratio <= RECOMPUTE_BAND[1]}
    for name, doc in plain.items():
        out[f"{name}.tracked_over_model"] = doc["peak_tracked_bytes"] / doc["model_bytes"]
        out[f"{name}.numpy_over_model"] = doc["peak_numpy_bytes"] / doc["model_bytes"]
    return out


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="revvolnet benchmark")
    p.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be positive")

    units = declared_metrics(args.trace)
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    try:
        for name in names:
            results[name] = measure(name, args.seed, args.seconds, args.trace)
    except LegError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    for name, (metrics, _notes, _legs) in results.items():
        if set(metrics) != set(units):
            print(f"benchmark failed: {name} measured {sorted(set(metrics) ^ set(units))} "
                  f"unlike BENCHMARK.json", file=sys.stderr)
            return 1

    for name, (metrics, notes, _legs) in results.items():
        print_table(name, metrics, notes, units)
    print(json.dumps({"derived": derived(results)}))
    first_leg = next(iter(results.values()))[2][0]
    print(json.dumps({"env": first_leg["env"], "seed": args.seed,
                      "input_shapes": {n: r[2][0]["input_shape"]
                                       for n, r in results.items()}}))

    legs = [leg for _m, _n, ls in results.values() for leg in ls]
    metrics = {(f"{n}/{k}" if args.workload == "all" else k): {"value": v, "unit": units[k]}
               for n, (m, _notes, _legs) in results.items() for k, v in m.items()}
    print(json.dumps({
        "correct": legs_correct(legs),
        "attempted": sum(leg["attempted"] for leg in legs),
        "failed": sum(leg["failed"] for leg in legs),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
