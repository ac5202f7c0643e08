"""Command-line interface: exit codes, JSON report schemas, workflows."""

import argparse
import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SCHEMA = json.loads((Path(__file__).parent / "data" / "cli_schema.json").read_text())

TINY_SPEC = """\
levels=4,8
group_size=2
reversible=true
"""

DESK_BASE_SPEC = """\
levels=10,20
group_size=5
reversible=false
"""

FAST_CONFIG = """\
initial_lr=0.001
max_epochs=2
moving_average_window=2
patience=2
seed=0
"""


# op recorded under this name -> the gradcheck cases its fault must fail;
# a ConvUnit records conv3d with a norm prologue, the conv_unit case
FAULT_CASES = {"conv3d": ("conv3d", "conv_unit"),
               "group_norm_leaky_relu": ("group_norm_leaky_relu",),
               "sigmoid": ("sigmoid",),
               "max_pool2": ("max_pool2",), "upsample2": ("upsample2",),
               "upsample_merge": ("upsample_merge",), "add": ("add",),
               "slice_channels": ("split_concat",),
               "concat_channels": ("split_concat",)}


def run_cli(*args, timeout=600, env=None):
    # the child imports the package from this checkout, installed or not
    path = os.pathsep.join(filter(None, [str(Path(__file__).parents[1] / "src"),
                                         os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "revvolnet", *args],
        capture_output=True, text=True, timeout=timeout,
        env={**os.environ, "REVVOLNET_THREADS": "1", "PYTHONPATH": path,
             **(env or {})},
    )
    return proc


def first_json(text):
    return json.JSONDecoder().raw_decode(text)[0]


@pytest.fixture
def tiny_spec(tmp_path):
    path = tmp_path / "tiny.spec"
    path.write_text(TINY_SPEC)
    return str(path)


class TestGradcheck:
    def test_default_run_passes(self):
        proc = run_cli("gradcheck", "--seed", "0", "--depth", "3")
        assert proc.returncode == 0, proc.stderr
        doc = first_json(proc.stdout)
        assert doc["pass"] is True
        assert doc["sequence"]["worst_rel_error"] <= 1e-4
        assert sorted(doc) == SCHEMA["gradcheck"]
        for entry in doc["ops"].values():
            assert sorted(entry) == SCHEMA["gradcheck.ops_entry"]
        assert sorted(doc["sequence"]) == SCHEMA["gradcheck.sequence"]

    def test_depth_zero_identity_passes(self):
        proc = run_cli("gradcheck", "--depth", "0")
        assert proc.returncode == 0
        assert first_json(proc.stdout)["sequence"]["worst_rel_error"] == 0.0

    @pytest.mark.parametrize("op", FAULT_CASES)
    def test_injected_fault_detected_and_named(self, op):
        proc = run_cli("gradcheck", "--inject-fault", op)
        assert proc.returncode == 1
        doc = first_json(proc.stdout)
        assert doc["pass"] is False
        for case in FAULT_CASES[op]:
            assert doc["ops"][case]["pass"] is False
            assert case in proc.stderr

    def test_every_network_op_has_a_fault_case(self):
        # an op a network records without a FAULT_CASES entry would enter
        # training with no check that gradcheck catches its faults
        import numpy as np

        from revvolnet.tape import Tape
        from revvolnet.tensor import Tensor
        from revvolnet.unet import build, load_spec

        spec = load_spec(Path(__file__).parents[1] / "specs"
                         / "desk_reversible.spec")
        recorded = set()
        for net_spec in (spec, spec.paired()):
            x = Tensor(np.zeros((0, spec.in_channels, 8, 8, 8), np.float32))
            with Tape() as tape:
                build(net_spec, seed=0).forward(x, stored_activations=True)
            recorded |= {node.op for node in tape.nodes}
        assert recorded - set(FAULT_CASES) == set()

    def test_fault_on_unrecorded_op_is_usage_error(self):
        proc = run_cli("gradcheck", "--inject-fault", "conv3dd")
        assert proc.returncode == 2
        assert "no op records under 'conv3dd'" in proc.stderr
        assert proc.stdout == ""


class TestInvert:
    def test_trials_pass_within_tolerance(self):
        proc = run_cli("invert", "--trials", "25", "--seed", "1")
        assert proc.returncode == 0, proc.stderr
        doc = first_json(proc.stdout)
        assert sorted(doc) == SCHEMA["invert"]
        assert doc["max_abs_error"] <= 1e-4
        assert doc["pass"] is True


class TestEstimateMemory:
    def test_compare_shows_reversible_advantage(self, tmp_path):
        spec = tmp_path / "base.spec"
        spec.write_text(DESK_BASE_SPEC)
        proc = run_cli("estimate-memory", "--spec", str(spec),
                       "--input-shape", "16,16,16", "--compare")
        assert proc.returncode == 0, proc.stderr
        doc = first_json(proc.stdout)
        assert sorted(doc) == SCHEMA["estimate-memory"]
        assert sorted(doc["compare"]) == SCHEMA["estimate-memory.compare"]
        assert sorted(doc["terms"][0]) == SCHEMA["estimate-memory.term"]
        cmp = doc["compare"]
        assert cmp["reversible_total_bytes"] < cmp["baseline_total_bytes"]
        # the plain-text table follows the JSON document
        assert "M_A bytes" in proc.stdout

    def test_measure_appends_peak(self, tiny_spec):
        proc = run_cli("estimate-memory", "--spec", tiny_spec,
                       "--input-shape", "8,8,8", "--measure", "--compare")
        assert proc.returncode == 0, proc.stderr
        doc = first_json(proc.stdout)
        assert doc["measured_peak_bytes"] > 0

    def test_schema_stable_across_runs(self, tmp_path):
        spec = tmp_path / "base.spec"
        spec.write_text(DESK_BASE_SPEC)
        docs = []
        for _ in range(2):
            proc = run_cli("estimate-memory", "--spec", str(spec),
                           "--input-shape", "8,8,8", "--compare")
            docs.append(first_json(proc.stdout))

        def keyset(doc, prefix=""):
            keys = set()
            for k, v in doc.items():
                keys.add(prefix + k)
                if isinstance(v, dict):
                    keys |= keyset(v, prefix + k + ".")
            return keys

        assert keyset(docs[0]) == keyset(docs[1])

    def test_bad_spec_is_usage_error(self, tmp_path):
        spec = tmp_path / "broken.spec"
        spec.write_text("levels=\n")
        proc = run_cli("estimate-memory", "--spec", str(spec))
        assert proc.returncode == 2
        assert proc.stderr.strip()

    @pytest.mark.parametrize("line", ["norm_epsilon=0", "norm_epsilon=-1",
                                      "leaky_slope=nan"])
    def test_unusable_scalar_field_is_usage_error(self, tmp_path, line):
        spec = tmp_path / "bad.spec"
        spec.write_text(TINY_SPEC + line + "\n")
        proc = run_cli("estimate-memory", "--spec", str(spec))
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr
        assert line.split("=")[0] in proc.stderr

    def test_indivisible_input_shape_is_usage_error(self):
        spec = Path(__file__).parents[1] / "specs" / "desk_reversible.spec"
        proc = run_cli("estimate-memory", "--spec", str(spec),
                       "--input-shape", "30,30,30")
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr
        assert "divisible by 4" in proc.stderr

    def test_missing_spec_file_is_usage_error(self):
        proc = run_cli("estimate-memory", "--spec", "/nonexistent/arch.spec")
        assert proc.returncode == 2

    @pytest.mark.parametrize("flag", ["--batch"])
    @pytest.mark.parametrize("value", ["0", "-1"])
    def test_count_below_one_is_usage_error(self, tiny_spec, flag, value):
        proc = run_cli("estimate-memory", "--spec", tiny_spec,
                       "--input-shape", "8,8,8", flag, value)
        assert proc.returncode == 2
        assert flag in proc.stderr
        assert proc.stdout == ""

    def test_twin_without_blocks_is_usage_error(self, tmp_path):
        spec = tmp_path / "flat.spec"
        spec.write_text(TINY_SPEC + "decoder_blocks=0\n")
        proc = run_cli("estimate-memory", "--spec", str(spec),
                       "--input-shape", "8,8,8", "--compare")
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr
        assert "decoder_blocks" in proc.stderr

    @pytest.mark.parametrize("name,totals", [
        ("desk_reversible", (6_531_984, 19_322_224)),
        ("baseline_full", (106_430_544, 383_464_944)),
        ("reversible_full", (390_336_624, 1_429_051_824)),
    ])
    def test_shipped_spec_compare_totals_pinned(self, name, totals):
        # Every shipped spec has one block per level. At that depth both
        # variants keep their parameters and steps, so these totals hold.
        spec = Path(__file__).parents[1] / "specs" / f"{name}.spec"
        proc = run_cli("estimate-memory", "--spec", str(spec), "--compare")
        assert proc.returncode == 0, proc.stderr
        cmp = first_json(proc.stdout)["compare"]
        assert (cmp["reversible_total_bytes"], cmp["baseline_total_bytes"]) == totals


class TestTrainEval:
    def test_synthetic_train_writes_outputs(self, tmp_path, tiny_spec):
        cfg = tmp_path / "train.cfg"
        cfg.write_text(FAST_CONFIG)
        out = tmp_path / "run"
        proc = run_cli("train", "--spec", tiny_spec, "--config", str(cfg),
                       "--synthetic", "6", "--size", "12", "--out", str(out))
        assert proc.returncode == 0, proc.stderr
        doc = first_json(proc.stdout)
        assert sorted(doc) == SCHEMA["train"]
        with open(out / "metrics.csv") as fh:
            rows = list(csv.DictReader(fh))
        epochs = [int(r["epoch"]) for r in rows]
        assert epochs == sorted(epochs) == list(range(len(rows)))
        for suffix in (".rvt", ".manifest", ".arch"):
            assert (out / f"checkpoint_best{suffix}").exists()
            assert (out / f"checkpoint_final{suffix}").exists()

        eval_proc = run_cli("eval", "--checkpoint", str(out / "checkpoint_best"),
                            "--synthetic", "4", "--size", "12", "--seed", "3")
        assert eval_proc.returncode == 0, eval_proc.stderr
        eval_doc = first_json(eval_proc.stdout)
        assert sorted(eval_doc) == SCHEMA["eval"]
        assert set(eval_doc["mean_dice"]) == {"wt", "tc", "et"}

    def test_synthetic_data_follows_config_seed(self, tmp_path, tiny_spec):
        # no --seed: the config's seed=0 must fix the generated volumes too
        cfg = tmp_path / "train.cfg"
        cfg.write_text(FAST_CONFIG)
        csvs = []
        for run in ("a", "b"):
            out = tmp_path / run
            proc = run_cli("train", "--spec", tiny_spec, "--config", str(cfg),
                           "--synthetic", "6", "--size", "12", "--out", str(out))
            assert proc.returncode == 0, proc.stderr
            csvs.append((out / "metrics.csv").read_bytes())
        assert csvs[0] == csvs[1]

    def test_eval_synthetic_volumes_are_not_training_volumes(
            self, tmp_path, tiny_spec, monkeypatch):
        # the README workflow at its default seeds: train --synthetic 25
        # (config seed 0), then eval --synthetic 5 (--seed 0)
        import numpy as np

        from revvolnet import cli, training, unet

        made = []
        make_dataset = cli._make_dataset

        def spy(*args):
            made.append(make_dataset(*args))
            return made[-1]

        class Stop(Exception):
            pass

        def stop(*_args, **_kwargs):
            raise Stop

        monkeypatch.setattr(cli, "_make_dataset", spy)
        monkeypatch.setattr(training, "train", stop)
        monkeypatch.setattr(training, "evaluate", stop)
        monkeypatch.setattr(unet, "load_checkpoint",
                            lambda _prefix: unet.build(unet.load_spec(tiny_spec)))
        for argv in (["train", "--spec", tiny_spec, "--synthetic", "25",
                      "--size", "12", "--out", str(tmp_path / "run")],
                     ["eval", "--checkpoint", str(tmp_path / "run" / "ckpt"),
                      "--synthetic", "5", "--size", "12"]):
            with pytest.raises(Stop):
                cli.main(argv)
        train_set, eval_set = made
        assert (len(train_set), len(eval_set)) == (25, 5)
        assert not any(np.array_equal(a.image, b.image)
                       for a in train_set for b in eval_set)

    def test_dataset_directory_round_trip(self, tmp_path, tiny_spec):
        import numpy as np

        from revvolnet.training import generate_synthetic, save_dataset

        rng = np.random.default_rng(0)
        save_dataset([generate_synthetic(rng, size=12) for _ in range(4)],
                     tmp_path / "data")
        cfg = tmp_path / "train.cfg"
        cfg.write_text(FAST_CONFIG)
        out = tmp_path / "run"
        proc = run_cli("train", "--spec", tiny_spec, "--config", str(cfg),
                       "--data", str(tmp_path / "data"), "--out", str(out))
        assert proc.returncode == 0, proc.stderr

    def test_bad_config_value_names_its_line(self, tmp_path, tiny_spec):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("max_epochs=abc\n")
        proc = run_cli("train", "--spec", tiny_spec, "--config", str(cfg),
                       "--synthetic", "2", "--size", "8",
                       "--out", str(tmp_path / "run"))
        assert proc.returncode == 2
        assert "line 1" in proc.stderr

    @pytest.mark.parametrize("line", ["initial_lr=nan", "lr_drop_factor=inf",
                                      "weight_decay=inf", "epsilon_dice=nan"])
    def test_non_finite_config_value_is_usage_error(self, tmp_path, tiny_spec,
                                                     line):
        from revvolnet.training import parse_config_text

        field = line.split("=")[0]
        with pytest.raises(ValueError, match=f"^{field} must be finite"):
            parse_config_text(line + "\n")
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(line + "\n")
        proc = run_cli("train", "--spec", tiny_spec, "--config", str(cfg),
                       "--synthetic", "2", "--size", "8",
                       "--out", str(tmp_path / "run"))
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr
        assert f"{field} must be finite" in proc.stderr

    @pytest.mark.parametrize("command", ["train", "eval"])
    def test_indivisible_size_is_usage_error(self, tmp_path, command):
        from revvolnet.unet import build, load_spec, save_checkpoint

        spec = tmp_path / "three.spec"
        spec.write_text(TINY_SPEC.replace("levels=4,8", "levels=4,8,16"))
        if command == "train":
            argv = ["train", "--spec", str(spec), "--out", str(tmp_path / "run")]
        else:
            save_checkpoint(build(load_spec(spec)), tmp_path / "ckpt")
            argv = ["eval", "--checkpoint", str(tmp_path / "ckpt")]
        proc = run_cli(*argv, "--synthetic", "3", "--size", "6")
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr
        assert "--size" in proc.stderr and "divisible by 4" in proc.stderr
        # checked before training logs anything or makes its --out directory
        assert "training on" not in proc.stderr
        assert not (tmp_path / "run").exists()

    def test_indivisible_dataset_volume_is_usage_error(self, tmp_path):
        import numpy as np

        from revvolnet.training import generate_synthetic, save_dataset

        spec = tmp_path / "three.spec"
        spec.write_text(TINY_SPEC.replace("levels=4,8", "levels=4,8,16"))
        rng = np.random.default_rng(0)
        save_dataset([generate_synthetic(rng, size=6) for _ in range(3)],
                     tmp_path / "data")
        proc = run_cli("train", "--spec", str(spec), "--data",
                       str(tmp_path / "data"), "--out", str(tmp_path / "run"))
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr
        assert "case000_image.rvt" in proc.stderr
        assert "divisible by 4" in proc.stderr
        # checked before training logs anything or makes its --out directory
        assert "training on" not in proc.stderr
        assert not (tmp_path / "run").exists()

    def test_non_binary_masks_are_usage_error(self, tmp_path, tiny_spec):
        import numpy as np

        from revvolnet.training import generate_synthetic, save_dataset

        rng = np.random.default_rng(0)
        vols = [generate_synthetic(rng, size=8) for _ in range(3)]
        vols[0].masks *= 255
        save_dataset(vols, tmp_path / "data")
        proc = run_cli("train", "--spec", tiny_spec, "--data",
                       str(tmp_path / "data"), "--out", str(tmp_path / "run"))
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr
        assert "case000_masks.rvt: masks must be 0 or 1" in proc.stderr
        assert not (tmp_path / "run").exists()

    def test_dataset_modality_count_mismatch_is_usage_error(self, tmp_path,
                                                            tiny_spec):
        import numpy as np

        from revvolnet.training import generate_synthetic, save_dataset

        # the tiny spec takes 4 input channels
        rng = np.random.default_rng(0)
        save_dataset([generate_synthetic(rng, size=8, modalities=2)
                      for _ in range(3)], tmp_path / "data")
        proc = run_cli("train", "--spec", tiny_spec, "--data",
                       str(tmp_path / "data"), "--out", str(tmp_path / "run"))
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr
        assert "case000_image.rvt" in proc.stderr
        assert "in_channels is 4" in proc.stderr
        # checked before training logs anything or makes its --out directory
        assert "training on" not in proc.stderr
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("command", ["train", "eval"])
    def test_out_regions_other_than_three_is_usage_error(self, tmp_path,
                                                         command):
        from revvolnet.unet import build, load_spec, save_checkpoint

        spec = tmp_path / "two.spec"
        spec.write_text(TINY_SPEC + "out_regions=2\n")
        if command == "train":
            argv = ["train", "--spec", str(spec), "--out", str(tmp_path / "run")]
        else:
            save_checkpoint(build(load_spec(spec)), tmp_path / "ckpt")
            argv = ["eval", "--checkpoint", str(tmp_path / "ckpt")]
        proc = run_cli(*argv, "--synthetic", "2", "--size", "8")
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr
        assert "out_regions=2" in proc.stderr
        assert "training on" not in proc.stderr
        assert not (tmp_path / "run").exists()

    def test_hostile_checkpoint_header_is_usage_error(self, tmp_path, tiny_spec):
        import struct

        from revvolnet.unet import build, load_spec, save_checkpoint

        prefix = tmp_path / "ckpt"
        save_checkpoint(build(load_spec(tiny_spec)), prefix)
        (tmp_path / "ckpt.rvt").write_bytes(
            struct.pack("<4s5I", b"RVT1", 2**31, 2**31, 1, 1, 1))
        proc = run_cli("eval", "--checkpoint", str(prefix),
                       "--synthetic", "1", "--size", "8")
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr
        assert "left in the file" in proc.stderr

    def test_eval_on_empty_batch_record_is_usage_error(self, tmp_path, tiny_spec):
        import numpy as np

        from revvolnet import tensorio
        from revvolnet.unet import build, load_spec, save_checkpoint

        save_checkpoint(build(load_spec(tiny_spec)), tmp_path / "ckpt")
        data = tmp_path / "data"
        data.mkdir()
        tensorio.write_tensor(data / "img.rvt", np.zeros((0, 4, 8, 8, 8)))
        tensorio.write_tensor(data / "msk.rvt", np.zeros((1, 3, 8, 8, 8)))
        (data / "manifest.txt").write_text("img.rvt msk.rvt\n")
        proc = run_cli("eval", "--checkpoint", str(tmp_path / "ckpt"),
                       "--data", str(data))
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr
        assert "img.rvt: image record must be (1, M, D, H, W)" in proc.stderr

    def test_eval_refuses_appended_checkpoint_record(self, tmp_path, tiny_spec):
        import numpy as np

        from revvolnet import tensorio
        from revvolnet.unet import build, load_spec, save_checkpoint

        save_checkpoint(build(load_spec(tiny_spec)), tmp_path / "ckpt")
        with open(tmp_path / "ckpt.rvt", "ab") as fh:
            tensorio.write_tensor(fh, np.zeros((1, 1, 1, 1, 1)))
        proc = run_cli("eval", "--checkpoint", str(tmp_path / "ckpt"),
                       "--synthetic", "1", "--size", "8")
        assert proc.returncode == 2
        assert "ckpt.rvt: bytes after the last parameter record" in proc.stderr

    def test_train_on_one_volume_fails_before_training(self, tmp_path, tiny_spec):
        proc = run_cli("train", "--spec", tiny_spec, "--synthetic", "1",
                       "--size", "8", "--out", str(tmp_path / "run"))
        assert proc.returncode == 2
        assert "at least 2 volumes" in proc.stderr
        assert "epoch 0" not in proc.stderr

    def test_non_finite_loss_exits_one_naming_epoch(self, tmp_path, tiny_spec):
        import numpy as np

        from revvolnet.training import generate_synthetic, save_dataset

        rng = np.random.default_rng(0)
        volumes = [generate_synthetic(rng, size=8) for _ in range(3)]
        for vol in volumes:
            vol.image[:, 4, 4, 4] = np.nan
        save_dataset(volumes, tmp_path / "data")
        cfg = tmp_path / "train.cfg"
        cfg.write_text(FAST_CONFIG)
        proc = run_cli("train", "--spec", tiny_spec, "--config", str(cfg),
                       "--data", str(tmp_path / "data"),
                       "--out", str(tmp_path / "run"))
        assert proc.returncode == 1
        assert "Traceback" not in proc.stderr
        assert "non-finite training loss nan in epoch 0" in proc.stderr


class TestBench:
    @pytest.fixture(scope="class")
    def bench_doc(self, tmp_path_factory):
        spec = tmp_path_factory.mktemp("bench") / "tiny.spec"
        spec.write_text(TINY_SPEC)
        # numexpr is never loaded, so its count shows a preset variable
        # winning over REVVOLNET_THREADS without changing the run
        proc = run_cli("bench", "--spec", str(spec), "--steps", "2",
                       "--input-shape", "8,8,8",
                       env={"NUMEXPR_NUM_THREADS": "2"})
        assert proc.returncode == 0, proc.stderr
        return first_json(proc.stdout)

    def test_reports_ratio(self, bench_doc):
        doc = bench_doc
        assert sorted(doc) == SCHEMA["bench"]
        assert doc["time_ratio"] > 0
        assert doc["reversible"]["peak_bytes"] > 0
        for mode in ("reversible", "reference"):
            lo, hi = doc[mode]["spread_seconds"]
            assert 0 < lo <= doc[mode]["median_step_seconds"] <= hi
            assert lo <= doc[mode]["mean_step_seconds"] <= hi

    def test_reports_tracked_and_numpy_peaks(self, bench_doc):
        for mode in ("reversible", "reference"):
            assert bench_doc[mode]["peak_bytes"] > 0
            assert bench_doc[mode]["peak_numpy_bytes"] > 0

    def test_reports_environment(self, bench_doc):
        import numpy as np

        env = bench_doc["env"]
        assert sorted(env) == SCHEMA["bench.env"]
        # the counts in effect: REVVOLNET_THREADS=1 fills in the unset ones
        for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                    "MKL_NUM_THREADS"):
            assert env[var] == os.environ.get(var, "1")
        assert env["NUMEXPR_NUM_THREADS"] == "2"
        assert env["numpy"] == np.__version__
        assert env["python"] == "{}.{}.{}".format(*sys.version_info[:3])

    def test_time_ratio_is_a_ratio_of_medians(self, tiny_spec, monkeypatch,
                                              capsys):
        # one slow reversible step moves the mean (0.6 s) but not the median
        from revvolnet import cli

        def step_peak(_network, _shape, _seed, stored=False, timed_steps=0):
            return ([0.5, 0.5, 0.5] if stored else [0.5, 0.5, 2.0]), 1, 1

        monkeypatch.setattr(cli, "_step_peak", step_peak)
        assert cli.main(["bench", "--spec", tiny_spec, "--steps", "3",
                         "--input-shape", "8,8,8"]) == 0
        doc = first_json(capsys.readouterr().out)
        assert doc["reversible"]["mean_step_seconds"] == 1.0
        assert doc["time_ratio"] == 1.0

    @pytest.mark.parametrize("steps", ["0", "-1"])
    def test_step_count_below_one_is_usage_error(self, tiny_spec, steps):
        proc = run_cli("bench", "--spec", tiny_spec, "--steps", steps,
                       "--input-shape", "8,8,8")
        assert proc.returncode == 2
        assert "--steps" in proc.stderr
        assert proc.stdout == ""


# (command line, the flag its error must name): counts below their range
BAD_COUNTS = [
    (["train", "--spec", "s", "--out", "o", "--synthetic", "0"], "--synthetic"),
    (["eval", "--checkpoint", "c", "--synthetic", "0"], "--synthetic"),
    (["train", "--spec", "s", "--out", "o", "--synthetic", "3", "--size", "0"],
     "--size"),
    (["eval", "--checkpoint", "c", "--synthetic", "3", "--size", "0"], "--size"),
    (["invert", "--trials", "0"], "--trials"),
    (["invert", "--width", "0"], "--width"),
    (["invert", "--spatial", "0"], "--spatial"),
    (["gradcheck", "--width", "0"], "--width"),
    (["gradcheck", "--depth", "-2"], "--depth"),
]


# (command line, the flag its error must name): values each command checks
# before it builds a network
DESK = str(Path(__file__).parents[1] / "specs" / "desk_reversible.spec")
BAD_VALUES = [
    (["bench", "--spec", DESK, "--input-shape", "6,6,6"], "--input-shape"),
    (["estimate-memory", "--spec", DESK, "--input-shape", "6,6,6"],
     "--input-shape"),
    (["invert", "--width", "7"], "--width"),
    (["gradcheck", "--width", "7"], "--width"),
    (["gradcheck", "--inject-fault", "conv3d=abc"], "--inject-fault"),
]


class TestUsage:
    @pytest.mark.parametrize("argv, flag", BAD_VALUES,
                             ids=[" ".join(a[:1] + a[-2:]) for a, _ in BAD_VALUES])
    def test_bad_value_is_named_up_front(self, argv, flag):
        proc = run_cli(*argv)
        assert proc.returncode == 2
        assert flag in proc.stderr
        assert "Traceback" not in proc.stderr
        assert proc.stdout == ""

    @pytest.mark.parametrize("argv, flag", BAD_COUNTS,
                             ids=[" ".join(a[:1] + a[-2:]) for a, _ in BAD_COUNTS])
    def test_count_out_of_range_is_usage_error(self, argv, flag):
        proc = run_cli(*argv)
        assert proc.returncode == 2
        assert f"argument {flag}" in proc.stderr
        assert "Traceback" not in proc.stderr
        assert proc.stdout == ""

    def test_every_int_flag_is_range_checked(self):
        # a bare int parse lets 0 or a negative count through; --seed takes
        # any int, and TrainingConfig.validate rejects --epochs 0
        from revvolnet.cli import build_parser

        parser = build_parser()
        (sub,) = [a for a in parser._actions
                  if isinstance(a, argparse._SubParsersAction)]
        bare = [f"{name} {opt}" for name, p in sub.choices.items()
                for a in p._actions if a.type is int
                for opt in a.option_strings
                if opt not in ("--seed", "--epochs")]
        assert not bare, bare

    def test_unknown_command_exits_two(self):
        proc = run_cli("frobnicate")
        assert proc.returncode == 2

    def test_missing_required_flag_exits_two(self):
        proc = run_cli("train", "--synthetic", "3", "--out", "/tmp/x")
        assert proc.returncode == 2

    def test_same_seed_same_gradcheck_json(self):
        a = run_cli("gradcheck", "--seed", "5").stdout
        b = run_cli("gradcheck", "--seed", "5").stdout
        assert a == b
