"""Command-line entry point.

Commands: gradcheck, invert, estimate-memory, train, eval, bench.
Reports go to stdout as JSON (estimate-memory adds an aligned table), logs to
stderr. Exit codes: 0 success, 1 verification failure or a non-finite training
loss, 2 usage error.

REVVOLNET_THREADS caps BLAS parallelism; unset means single-threaded
deterministic mode. This must happen before numpy loads.
"""

import os

_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS")
_threads = os.environ.get("REVVOLNET_THREADS", "1")
for _var in _THREAD_VARS:
    os.environ.setdefault(_var, _threads)

import argparse
import json
import logging
import platform
import sys
import time

import numpy as np

from . import memory_model, tape, verification
from .tensor import ShapeError, Tensor
from .training import (REGIONS, AdamState, TrainingConfig, evaluate,
                       generate_synthetic, load_config, load_dataset,
                       restore_params, train, train_step, write_metrics_csv)
from .unet import (build, check_divisible, forward_full_volume,
                   load_checkpoint, load_spec, save_checkpoint)

log = logging.getLogger("revvolnet")

USAGE_ERROR = 2
VERIFY_ERROR = 1


def _parse_shape(text):
    parts = [int(p) for p in text.split(",") if p.strip()]
    if len(parts) != 3 or any(p <= 0 for p in parts):
        raise argparse.ArgumentTypeError(
            f"--input-shape wants three positive ints 'd,h,w', got {text!r}")
    return tuple(parts)


def _positive_int(text):
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"want a positive int, got {text!r}")
    return value


def _nonnegative_int(text):
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"want a nonnegative int, got {text!r}")
    return value


def _even_width(text):
    value = _positive_int(text)
    if value % 2:
        raise argparse.ArgumentTypeError(
            f"want an even width, two channel halves, got {text!r}")
    return value


def _fault(text):
    name, _, scale = text.partition("=")
    try:
        return name, float(scale) if scale else 0.02
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"want OP or OP=SCALE with a numeric SCALE, got {text!r}") from None


def _check_extents(spec, shape, what):
    """``unet.check_divisible``, its error naming ``what``, the flag or file
    the shape came from."""
    try:
        check_divisible(spec, shape)
    except ShapeError as exc:
        raise ValueError(f"{what}: {exc}") from None


def _emit(doc):
    print(json.dumps(doc, indent=2))


def cmd_gradcheck(args):
    width = args.width
    if args.spec:
        spec = load_spec(args.spec)
        width = spec.levels[0] if spec.reversible else 2 * spec.levels[0]
    if args.inject_fault:
        name, scale = args.inject_fault
        tape.FAULTS[name] = scale
        log.warning("fault injection active on op %r", name)
    try:
        results = verification.run_op_gradchecks(seed=args.seed)
        seq = verification.sequence_equivalence(seed=args.seed, depth=args.depth,
                                                width=width)
        missed = set(tape.FAULTS) - tape.FAULTS_APPLIED
    finally:
        tape.FAULTS.clear()
        tape.FAULTS_APPLIED.clear()
    if missed:
        raise ValueError(f"--inject-fault: no op records under {name!r}")
    seq_pass = args.depth == 0 or seq["worst"] <= verification.TOLERANCE
    doc = {
        "seed": args.seed,
        "ops": {r.name: {"worst_rel_error": r.worst_rel_error, "pass": r.passed}
                for r in results},
        "sequence": {"depth": args.depth, "worst_rel_error": seq["worst"],
                     "pass": seq_pass},
        "pass": all(r.passed for r in results) and seq_pass,
    }
    _emit(doc)
    if not doc["pass"]:
        failing = [r.name for r in results if not r.passed]
        if not seq_pass:
            failing.append("reversible_sequence")
        log.error("gradient check failed for: %s", ", ".join(failing))
        return VERIFY_ERROR
    return 0


def cmd_invert(args):
    worst = verification.inversion_trials(seed=args.seed, trials=args.trials,
                                          width=args.width, spatial=args.spatial)
    doc = {"seed": args.seed, "trials": args.trials, "width": args.width,
           "spatial": args.spatial, "max_abs_error": worst,
           "tolerance": verification.TOLERANCE,
           "pass": worst <= verification.TOLERANCE}
    _emit(doc)
    return 0 if doc["pass"] else VERIFY_ERROR


def _step_peak(network, input_shape, seed, stored=False, timed_steps=0):
    """Train on one seeded random batch: a warm-up step, ``timed_steps`` timed
    steps, then one step measured for its peaks (``memory_model.measure_peaks``).

    Returns the timed steps' seconds, the memtrack peak and the numpy peak.
    """
    rng = np.random.default_rng(seed)
    x = Tensor(rng.standard_normal(input_shape, dtype=np.float32) * 0.1)
    target = (rng.random((input_shape[0], network.spec.out_regions)
                         + input_shape[2:]) < 0.3).astype(np.float32)
    params = list(network.parameters())
    state = AdamState()

    def run():
        train_step(network, params, state, x, target, 1e-4, 1e-5,
                   stored_activations=stored)

    run()  # warm-up allocates optimizer state outside the measured region
    times = []
    for _ in range(timed_steps):
        t0 = time.perf_counter()
        run()
        times.append(time.perf_counter() - t0)
    return (times, *memory_model.measure_peaks(run))


def cmd_estimate_memory(args):
    spec = load_spec(args.spec)
    input_shape = (args.batch, spec.in_channels) + args.input_shape
    _check_extents(spec, input_shape, "--input-shape")
    network = build(spec, seed=args.seed)
    report = memory_model.estimate(network, input_shape)
    if args.measure:
        (_, report.measured_peak_bytes,
         report.measured_numpy_peak_bytes) = _step_peak(network, input_shape,
                                                        args.seed)
        volume = Tensor(np.random.default_rng(args.seed).standard_normal(
            input_shape, dtype=np.float32))
        (report.measured_inference_peak_bytes,
         report.measured_inference_numpy_peak_bytes) = memory_model.measure_peaks(
            lambda: forward_full_volume(network, volume))

    doc = json.loads(report.to_json())
    doc["input_shape"] = list(input_shape)
    doc["reversible"] = spec.reversible
    if args.compare:
        twin = build(spec.paired(), seed=args.seed)
        by_kind = {spec.reversible: report,
                   not spec.reversible: memory_model.estimate(twin, input_shape)}
        rev_total = by_kind[True].total_prev_bytes
        base_total = by_kind[False].total_nonrev_bytes
        doc["compare"] = {
            "reversible_total_bytes": rev_total,
            "baseline_total_bytes": base_total,
            "ratio": rev_total / base_total if base_total else None,
            "reduction_percent": (100.0 * (1.0 - rev_total / base_total)
                                  if base_total else None),
        }
    _emit(doc)
    print()
    print(report.to_table())
    return 0


def _make_dataset(args, spec, seed):
    """The volumes ``train`` or ``eval`` runs on, once the spec's output
    regions and every volume's modalities and extents are checked against
    each other; a mismatch raises ``ValueError`` naming the field or file."""
    if spec.out_regions != len(REGIONS):
        raise ValueError(
            f"spec out_regions={spec.out_regions}: the masks hold "
            f"{len(REGIONS)} regions ({', '.join(REGIONS)})")
    if args.synthetic is not None:
        _check_extents(spec, (1, spec.in_channels) + (args.size,) * 3,
                       f"--size {args.size}")
        rng = np.random.default_rng(seed)
        return [generate_synthetic(rng, size=args.size,
                                   modalities=spec.in_channels)
                for _ in range(args.synthetic)]
    volumes = load_dataset(args.data)
    for volume in volumes:
        if volume.image.shape[0] != spec.in_channels:
            raise ValueError(
                f"{volume.source}: {volume.image.shape[0]} modalities, but "
                f"the spec's in_channels is {spec.in_channels}")
        _check_extents(spec, (1,) + volume.image.shape, volume.source)
    return volumes


def cmd_train(args):
    spec = load_spec(args.spec)
    config = load_config(args.config) if args.config else TrainingConfig()
    if args.seed is not None:
        config.seed = args.seed
    if args.epochs is not None:
        config.max_epochs = args.epochs
    dataset = _make_dataset(args, spec, config.seed)
    network = build(spec, seed=config.seed)

    os.makedirs(args.out, exist_ok=True)
    log.info("training on %d volumes for up to %d epochs",
             len(dataset), config.max_epochs)

    def progress(row):
        log.info("epoch %d: loss=%.4f val=(%.3f %.3f %.3f)", row.epoch,
                 row.train_loss, row.val_dice_wt, row.val_dice_tc, row.val_dice_et)

    result = train(network, config, dataset, epoch_callback=progress)
    write_metrics_csv(result.history, os.path.join(args.out, "metrics.csv"))
    save_checkpoint(network, os.path.join(args.out, "checkpoint_final"))
    restore_params(network, result.best_params)
    save_checkpoint(network, os.path.join(args.out, "checkpoint_best"))
    doc = {
        "epochs_run": result.epochs_run,
        "stopped_early": result.stopped_early,
        "best_epoch": result.best_epoch,
        "best_val_dice": result.best_val_dice,
        "out_dir": args.out,
    }
    _emit(doc)
    return 0


def cmd_eval(args):
    network = load_checkpoint(args.checkpoint)
    # a stream apart from train's, which draws from the bare seed: eval
    # --synthetic must not score a same-seed run on its own training volumes
    dataset = _make_dataset(args, network.spec, [args.seed, 1])
    scores = evaluate(network, dataset)
    _emit({"volumes": len(dataset), "mean_dice": scores})
    return 0


def cmd_bench(args):
    spec = load_spec(args.spec)
    shape = (1, spec.in_channels) + args.input_shape
    _check_extents(spec, shape, "--input-shape")
    network = build(spec, seed=args.seed)

    def mode(stored):
        times, peak, numpy_peak = _step_peak(network, shape, args.seed,
                                             stored=stored,
                                             timed_steps=args.steps)
        return {"mean_step_seconds": float(np.mean(times)),
                "median_step_seconds": float(np.median(times)),
                "spread_seconds": [min(times), max(times)],
                "peak_bytes": peak,
                "peak_numpy_bytes": numpy_peak}

    rev, ref = mode(stored=False), mode(stored=True)
    doc = {
        # the thread counts in effect: a variable set before the run wins
        # over REVVOLNET_THREADS
        "env": {**{var: os.environ[var] for var in _THREAD_VARS},
                "numpy": np.__version__, "python": platform.python_version()},
        "steps": args.steps,
        "input_shape": list(shape),
        "reversible": rev,
        "reference": ref,
        "time_ratio": rev["median_step_seconds"] / ref["median_step_seconds"],
        "peak_ratio": (rev["peak_bytes"] / ref["peak_bytes"]
                       if ref["peak_bytes"] else None),
    }
    _emit(doc)
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="revvolnet",
        description="Reversible volumetric segmentation workbench")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gradcheck", help="finite-difference and reversible "
                                         "gradient verification")
    p.add_argument("--spec", help="take the sequence width from this "
                                  "architecture spec")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--depth", type=_nonnegative_int, default=3,
                   help="reversible sequence depth; 0 skips the sequence check")
    p.add_argument("--width", type=_even_width, default=8)
    p.add_argument("--inject-fault", type=_fault, metavar="OP[=SCALE]",
                   help="corrupt the first input gradient of every node of "
                        "this op (any recorded op name; test hook)")
    p.set_defaults(fn=cmd_gradcheck)

    p = sub.add_parser("invert", help="reversible block round trips through "
                                      "the training forward and backward")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--trials", type=_positive_int, default=100)
    p.add_argument("--width", type=_even_width, default=8)
    p.add_argument("--spatial", type=_positive_int, default=8)
    p.set_defaults(fn=cmd_invert)

    p = sub.add_parser("estimate-memory", help="analytic training-memory report")
    p.add_argument("--spec", required=True)
    p.add_argument("--input-shape", type=_parse_shape, default=(32, 32, 32))
    p.add_argument("--batch", type=_positive_int, default=1)
    p.add_argument("--compare", action="store_true",
                   help="also estimate the flipped-reversibility twin")
    p.add_argument("--measure", action="store_true",
                   help="run one real training step and one whole-volume "
                        "inference at the same input shape and report the "
                        "peaks of each; the inference peaks leave out "
                        "checkpoint loading, the parameters and the input "
                        "volume itself")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=cmd_estimate_memory)

    p = sub.add_parser("train", help="train on a dataset directory or "
                                     "synthetic volumes")
    p.add_argument("--spec", required=True)
    p.add_argument("--config")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--data", help="dataset directory with manifest.txt")
    group.add_argument("--synthetic", type=_positive_int, metavar="N",
                       help="train on N generated volumes")
    p.add_argument("--size", type=_positive_int, default=32,
                   help="edge length of synthetic volumes")
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--epochs", type=int, default=None,
                   help="override max_epochs from the config")
    p.set_defaults(fn=cmd_train)

    p = sub.add_parser("eval", help="evaluate a checkpoint")
    p.add_argument("--checkpoint", required=True,
                   help="checkpoint prefix (expects .rvt/.manifest/.arch)")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--data")
    group.add_argument("--synthetic", type=_positive_int, metavar="N")
    p.add_argument("--size", type=_positive_int, default=32)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=cmd_eval)

    p = sub.add_parser("bench", help="reversible vs stored-activation step "
                                     "time and peak memory")
    p.add_argument("--spec", required=True)
    p.add_argument("--steps", type=_positive_int, default=3)
    p.add_argument("--input-shape", type=_parse_shape, default=(16, 16, 16))
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=cmd_bench)
    return parser


def main(argv=None) -> int:
    logging.basicConfig(stream=sys.stderr, level=logging.INFO,
                        format="%(levelname)s %(name)s: %(message)s")
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (ValueError, OSError) as exc:
        log.error("%s", exc)
        return USAGE_ERROR
    except FloatingPointError as exc:
        log.error("%s", exc)
        return VERIFY_ERROR


if __name__ == "__main__":
    raise SystemExit(main())
