"""Command-line interface: exit codes, JSON report schemas, workflows."""

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


# op recorded under this name -> the gradcheck case its fault must fail
FAULT_CASES = {"conv3d": "conv3d", "group_norm": "group_norm",
               "leaky_relu": "leaky_relu", "sigmoid": "sigmoid",
               "max_pool2": "max_pool2", "upsample2": "upsample2",
               "upsample_merge": "upsample_merge", "add": "add_sub"}


def run_cli(*args, timeout=600):
    proc = subprocess.run(
        [sys.executable, "-m", "revvolnet", *args],
        capture_output=True, text=True, timeout=timeout,
        env={**os.environ, "REVVOLNET_THREADS": "1"},
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
        case = FAULT_CASES[op]
        proc = run_cli("gradcheck", "--inject-fault", op)
        assert proc.returncode == 1
        doc = first_json(proc.stdout)
        assert doc["pass"] is False
        assert doc["ops"][case]["pass"] is False
        assert case in proc.stderr

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

    @pytest.mark.parametrize("flag", ["--batch", "--optimizer-multiplier"])
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
        ("desk_reversible", (9_808_784, 38_901_104)),
        ("baseline_full", (116_260_944, 444_889_584)),
        ("reversible_full", (409_997_424, 1_551_901_104)),
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
    def test_reports_ratio(self, tiny_spec):
        proc = run_cli("bench", "--spec", tiny_spec, "--steps", "2",
                       "--input-shape", "8,8,8")
        assert proc.returncode == 0, proc.stderr
        doc = first_json(proc.stdout)
        assert sorted(doc) == SCHEMA["bench"]
        assert doc["time_ratio"] > 0
        assert doc["reversible"]["peak_bytes"] > 0
        for mode in ("reversible", "reference"):
            lo, hi = doc[mode]["spread_seconds"]
            assert 0 < lo <= doc[mode]["median_step_seconds"] <= hi
            assert lo <= doc[mode]["mean_step_seconds"] <= hi

    @pytest.mark.parametrize("steps", ["0", "-1"])
    def test_step_count_below_one_is_usage_error(self, tiny_spec, steps):
        proc = run_cli("bench", "--spec", tiny_spec, "--steps", steps,
                       "--input-shape", "8,8,8")
        assert proc.returncode == 2
        assert "--steps" in proc.stderr
        assert proc.stdout == ""


class TestUsage:
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
