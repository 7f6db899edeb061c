"""Command-line interface: config grammar, exit codes, artifacts."""

import json
from dataclasses import fields, replace

import numpy as np
import pytest

from mambamoe import gradcheck_suite
from mambamoe.cli import ConfigError, RunConfig, config_help_text, main, parse_config
from mambamoe.data import HsiScene, default_synthetic_spec, generate_synthetic, save_hsc
from mambamoe.network import CHECKPOINT_MAGIC, load_checkpoint, save_checkpoint
from mambamoe.tensor import GradCheckReport
from mambamoe.train import TrainConfig


def write_cfg(tmp_path, name="run.cfg", **overrides):
    lines = ["# test config"]
    defaults = {
        "dataset": "synthetic",
        "epochs": 3,
        "channels": 8,
        "state_dim": 4,
        "samples_per_class": 5,
        "seed": 0,
    }
    defaults.update(overrides)
    for key, value in defaults.items():
        if isinstance(value, bool):
            value = "true" if value else "false"
        lines.append(f"{key} = {value}")
    path = tmp_path / name
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


class TestConfigGrammar:
    def test_parses_keys_and_comments(self, tmp_path):
        path = tmp_path / "a.cfg"
        path.write_text("seed = 7  # the seed\n\n# full line comment\nlr = 1e-3\nuarb_on = false\n")
        cfg = parse_config(path)
        assert cfg.train.seed == 7
        assert cfg.train.lr == 1e-3
        assert cfg.train.uarb_on is False

    def test_unknown_key_is_hard_error(self, tmp_path):
        path = tmp_path / "b.cfg"
        path.write_text("sedd = 7\n")
        with pytest.raises(ConfigError, match="unknown key"):
            parse_config(path)

    def test_bad_value_reports_key(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text("epochs = soon\n")
        with pytest.raises(ConfigError, match="epochs"):
            parse_config(path)

    def test_help_lists_every_key_with_default(self):
        text = config_help_text()
        keys = [f for f in fields(RunConfig) if f.name != "train"] + list(fields(TrainConfig))
        assert {f.name: f.default for f in keys} == {
            "dataset": "synthetic",
            "checkpoint": "",
            "out_dir": "out",
            "palette": "",
            "synth_seed": 11,
            "seed": 0,
            "lr": 5e-4,
            "epochs": 200,
            "samples_per_class": 15,
            "topk_infer": 3,
            "channels": 16,
            "state_dim": 8,
            "momeb_on": True,
            "uarb_on": True,
            "sre_on": True,
            "sse_on": True,
        }
        for f in keys:
            assert f"  {f.name} (default: {f.default!r})" in text


def rewrite_meta(src, dest, edit):
    """Copy checkpoint ``src`` to ``dest`` with ``edit(meta)`` applied to its
    JSON meta line; the parameter blob is kept byte for byte."""
    meta_line, rest = src.read_bytes()[len(CHECKPOINT_MAGIC) :].split(b"\n", 1)
    meta = json.loads(meta_line)
    edit(meta)
    dest.write_bytes(CHECKPOINT_MAGIC + json.dumps(meta).encode() + b"\n" + rest)
    return dest


def crop_scene(bands, height, width):
    """The bundled scene cut to ``bands`` x ``height`` x ``width``, labelled
    1..n_class in turn so that every class has pixels to split."""
    scene = generate_synthetic(default_synthetic_spec())
    n_class = scene.header.n_class
    labels = (np.arange(height * width).reshape(height, width) % n_class + 1).astype(np.uint16)
    header = replace(scene.header, bands=bands, height=height, width=width)
    return HsiScene(header=header, cube=scene.cube[:bands, :height, :width], labels=labels)


# the flags each command does not read, and a value for each flag
UNREAD_FLAGS = {
    "eval": ("--seed", "--out"),
    "predict": ("--seed",),
    "inspect": ("--seed", "--topk", "--out"),
    "gradcheck": ("--config", "--seed", "--topk", "--out"),
    "synth": ("--topk",),
    "profile": ("--seed", "--topk", "--out"),
}
UNREAD_SLOTS = [(command, flag) for command, flags in UNREAD_FLAGS.items() for flag in flags]
FLAG_VALUE = {"--config": "missing.cfg", "--seed": "1", "--topk": "2", "--out": "out"}


def one_error_line(capsys, category):
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"error: {category}: "), err
    return err[0]


class TestExitCodes:
    @pytest.mark.parametrize("command", ["train", "profile"])
    @pytest.mark.parametrize(
        "body, cause",
        [
            (b"channels = 7\n", "channels must be even"),
            (b"state_dim = 0\n", "state_dim must be >= 1"),
            (b"epochs = 0\n", "epochs must be >= 1"),
            (b"seed = 1 # \xff\n", "cannot read config"),
            (b"repeats = 2\n", "unknown key 'repeats'"),
            (b"lr = nan\n", "lr must be finite and > 0"),
            (b"lr = inf\n", "lr must be finite and > 0"),
            (b"lr = -1\n", "lr must be finite and > 0"),
            (b"lr = 0\n", "lr must be finite and > 0"),
        ],
        ids=[
            "odd-channels",
            "zero-state-dim",
            "zero-epochs",
            "non-utf8",
            "repeats-is-no-key",
            "nan-lr",
            "inf-lr",
            "negative-lr",
            "zero-lr",
        ],
    )
    def test_bad_config_exit_1_one_line(self, tmp_path, capsys, command, body, cause):
        path = tmp_path / "bad.cfg"
        path.write_bytes(body)
        out = tmp_path / "out"
        assert main([command, "--config", str(path)] + (["--out", str(out)] if command == "train" else [])) == 1
        assert cause in one_error_line(capsys, "config")
        assert not out.exists()

    @pytest.mark.parametrize("command", ["synth", "train"])
    def test_negative_synth_seed_exit_1(self, tmp_path, capsys, command):
        out = tmp_path / "out"
        assert main([command, "--config", str(write_cfg(tmp_path, synth_seed=-1)), "--out", str(out)]) == 1
        assert "synth_seed must be >= 0" in one_error_line(capsys, "config")
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv, cause",
        [
            (["profile", "--classes", "0"], "widths must be positive"),
            (["profile", "--input", "0x13x13"], "widths must be positive"),
            (["profile", "--input", "8x-16x16"], "too small"),
            (["profile", "--input", "8x4x4"], "too small"),
            (["train", "--seed", "-1"], "seed must be >= 0"),
            (["train", "--topk", "x"], "topk must be k or lo..hi"),
            (["train", "--topk", "3.."], "topk must be k or lo..hi"),
            (["predict", "--topk", "4..1"], "is empty"),
            (["eval", "--topk", "4..1"], "is empty"),
            (["train", "--topk", "1..4"], "is for eval only"),
            (["predict", "--topk", "1..4"], "is for eval only"),
            (["inspect", "--topk", "2..3"], "unrecognized arguments: --topk"),
            (["train", "--bogus"], "unrecognized arguments: --bogus"),
            (["train", "--seed", "x"], "argument --seed: invalid int value"),
            (["profile", "--classes", "x"], "argument --classes: invalid int value"),
            (["train", "--topk"], "argument --topk: expected one argument"),
            ([], "the following arguments are required: command"),
        ]
        + [([command, flag, FLAG_VALUE[flag]], f"unrecognized arguments: {flag} ") for command, flag in UNREAD_SLOTS],
        ids=[
            "zero-classes",
            "zero-bands",
            "negative-height",
            "scene-under-8x8",
            "negative-seed",
            "topk-not-int",
            "topk-open-sweep",
            "predict-empty-sweep",
            "eval-empty-sweep",
            "train-sweep",
            "predict-sweep",
            "inspect-sweep",
            "unknown-flag",
            "seed-not-int",
            "classes-not-int",
            "topk-no-value",
            "no-command",
        ]
        + [f"{command}-unread-{flag[2:]}" for command, flag in UNREAD_SLOTS],
    )
    def test_bad_flag_exit_1_one_line(self, tmp_path, monkeypatch, capsys, argv, cause):
        monkeypatch.chdir(tmp_path)  # nothing may be written, not even to a default out_dir
        takes_out = argv[:1] in (["train"], ["predict"], ["synth"])
        assert main(argv + (["--out", "out"] if takes_out else [])) == 1
        assert cause in one_error_line(capsys, "config")
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize("argv", [["--help"], ["train", "--help"]])
    def test_help_exits_0(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 0
        assert "usage: mambamoe" in capsys.readouterr().out

    def test_non_utf8_class_name_exit_2_one_line(self, tmp_path, capsys):
        scene_path = tmp_path / "scene.hsc"
        save_hsc(generate_synthetic(default_synthetic_spec()), scene_path)
        blob = scene_path.read_bytes()
        name_at = blob.index(b"\n", len(b"HSC1\n")) + 1  # first byte of the first class name
        scene_path.write_bytes(blob[:name_at] + b"\xff" + blob[name_at + 1 :])
        cfg = write_cfg(tmp_path, dataset=str(scene_path))
        assert main(["train", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
        assert "class name 1" in one_error_line(capsys, "data")

    def test_nan_pixel_exit_2_names_band_and_pixel(self, tmp_path, capsys):
        scene_path = tmp_path / "scene.hsc"
        scene = generate_synthetic(default_synthetic_spec())
        save_hsc(scene, scene_path)
        blob = bytearray(scene_path.read_bytes())
        bands, h, w = scene.cube.shape
        at = len(blob) - 2 * h * w - 4 * bands * h * w + 4 * ((2 * h + 3) * w + 4)  # band 2, row 3, col 4
        blob[at : at + 4] = np.array([np.nan], dtype="<f4").tobytes()
        scene_path.write_bytes(bytes(blob))
        cfg = write_cfg(tmp_path, dataset=str(scene_path))
        out = tmp_path / "out"
        assert main(["train", "--config", str(cfg), "--out", str(out)]) == 2
        assert "band 2 at pixel (row 3, col 4)" in one_error_line(capsys, "data")
        assert not out.exists()

    def test_unknown_config_key_exit_1(self, tmp_path, capsys):
        path = tmp_path / "bad.cfg"
        path.write_text("nope = 1\n")
        code = main(["train", "--config", str(path), "--out", str(tmp_path / "out")])
        assert code == 1
        assert "error: config:" in capsys.readouterr().err

    def test_missing_dataset_exit_2_no_partial_outputs(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, dataset=str(tmp_path / "missing.hsc"))
        out = tmp_path / "out"
        code = main(["train", "--config", str(cfg), "--out", str(out)])
        assert code == 2
        one_error_line(capsys, "data")
        assert not out.exists()

    @pytest.mark.parametrize(
        "command, key",
        [
            ("train", "dataset"),
            ("eval", "checkpoint"),
            ("train", "palette"),  # read before training, so no checkpoint, history or metrics either
        ],
        ids=["dataset-is-dir", "checkpoint-is-dir", "palette-is-dir"],
    )
    def test_directory_path_exit_2_no_partial_outputs(self, tmp_path, capsys, command, key):
        cfg = write_cfg(tmp_path, **{key: str(tmp_path)})
        out = tmp_path / "out"
        code = main([command, "--config", str(cfg)] + (["--out", str(out)] if command == "train" else []))
        assert code == 2
        one_error_line(capsys, "data")
        assert not out.exists()

    def test_eval_without_checkpoint_key_exit_1(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path)
        assert main(["eval", "--config", str(cfg)]) == 1
        assert "checkpoint" in one_error_line(capsys, "config")


class TestSynthCommand:
    def test_synth_writes_deterministic_scene(self, tmp_path, capsys):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert main(["synth", "--seed", "9", "--out", str(out_a)]) == 0
        assert main(["synth", "--seed", "9", "--out", str(out_b)]) == 0
        assert (out_a / "synthetic.hsc").read_bytes() == (out_b / "synthetic.hsc").read_bytes()

    def test_unknown_spec_exit_1(self, tmp_path, capsys):
        assert main(["synth", "--spec", "weird", "--out", str(tmp_path)]) == 1
        assert "--spec" in one_error_line(capsys, "config")
        assert not any(tmp_path.iterdir())


class TestGradcheckCommand:
    @staticmethod
    def entries(monkeypatch, **extra):
        """Two cheap entries of the suite, then ``extra``."""
        table = {name: gradcheck_suite.ENTRIES[name] for name in ("relu", "upsample")}
        monkeypatch.setattr(gradcheck_suite, "ENTRIES", {**table, **extra})

    def test_passing_suite_prints_one_row_per_entry(self, monkeypatch, capsys):
        self.entries(monkeypatch)
        assert main(["gradcheck"]) == 0
        out = capsys.readouterr().out.splitlines()
        assert [line.split()[0] for line in out[:2]] == ["relu", "upsample"]
        assert all(line.endswith("[ok]") for line in out[:2])
        assert len(out) == 3 and out[2].startswith("suite: PASS")

    def test_failing_entry_exit_3_one_line(self, monkeypatch, capsys):
        self.entries(monkeypatch, broken=lambda rng: GradCheckReport(per_param={"w": 0.5}, threshold=1e-4))
        assert main(["gradcheck"]) == 3
        captured = capsys.readouterr()
        rows = captured.out.splitlines()
        assert rows[2].startswith("broken") and rows[2].endswith("[FAIL]")
        assert rows[3].startswith("suite: FAIL")
        err = captured.err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: numeric: "), err


class TestTrainEvalPredictPipeline:
    @pytest.fixture(scope="class")
    def trained(self, tmp_path_factory):
        tmp_path = tmp_path_factory.mktemp("pipeline")
        cfg = write_cfg(tmp_path)
        out = tmp_path / "run"
        code = main(["train", "--config", str(cfg), "--out", str(out)])
        assert code == 0
        return tmp_path, cfg, out

    def test_train_writes_all_artifacts(self, trained):
        _, _, out = trained
        for name in ("checkpoint.mmoe", "history.csv", "metrics.txt", "prediction.ppm"):
            assert (out / name).exists(), name
        history = (out / "history.csv").read_text().strip().split("\n")
        assert history[0] == "epoch,loss,train_oa"
        assert len(history) == 4  # header + 3 epochs

    def test_train_same_seed_byte_identical_checkpoints(self, trained):
        tmp_path, cfg, out = trained
        out2 = tmp_path / "run2"
        assert main(["train", "--config", str(cfg), "--out", str(out2)]) == 0
        assert (out / "checkpoint.mmoe").read_bytes() == (out2 / "checkpoint.mmoe").read_bytes()

    def test_eval_topk_sweep_rows(self, trained, capsys):
        tmp_path, _, out = trained
        cfg = write_cfg(tmp_path, name="eval.cfg", checkpoint=str(out / "checkpoint.mmoe"))
        assert main(["eval", "--config", str(cfg), "--topk", "1..4"]) == 0
        lines = [l for l in capsys.readouterr().out.splitlines() if l.startswith("topk=")]
        assert len(lines) == 4
        for k, line in enumerate(lines, start=1):
            assert line.startswith(f"topk={k}") and "OA" in line and "kappa" in line

    def test_predict_writes_map_consistent_with_eval(self, trained, capsys):
        tmp_path, _, out = trained
        cfg = write_cfg(tmp_path, name="pred.cfg", checkpoint=str(out / "checkpoint.mmoe"))
        pred_out = tmp_path / "pred"
        assert main(["predict", "--config", str(cfg), "--topk", "3", "--out", str(pred_out)]) == 0
        ppm = (pred_out / "prediction.ppm").read_bytes()
        assert ppm.startswith(b"P6\n32 32\n255\n")
        # training wrote its own map with the same checkpoint and topk
        assert ppm == (out / "prediction.ppm").read_bytes()

    def test_checkpoint_widths_override_the_config(self, trained, capsys):
        """The model's widths come from the checkpoint: a config that names
        other widths evaluates the same C=8, D=4 model."""
        tmp_path, _, out = trained
        rows = []
        for name, widths in (("same.cfg", {}), ("wider.cfg", {"channels": 16, "state_dim": 8})):
            cfg = write_cfg(tmp_path, name=name, checkpoint=str(out / "checkpoint.mmoe"), **widths)
            assert main(["eval", "--config", str(cfg), "--topk", "3"]) == 0
            rows += [l for l in capsys.readouterr().out.splitlines() if l.startswith("topk=3")]
        assert len(rows) == 2 and rows[0] == rows[1]

    @pytest.mark.parametrize("command", ["eval", "predict", "inspect"])
    def test_checkpoint_bands_mismatch_exit_2_names_bands(self, trained, capsys, command):
        tmp_path, _, out = trained
        scene_path = tmp_path / "three_bands.hsc"
        save_hsc(crop_scene(3, 32, 32), scene_path)
        cfg = write_cfg(tmp_path, name="bands.cfg", dataset=str(scene_path), checkpoint=str(out / "checkpoint.mmoe"))
        dest = tmp_path / "bands_out"
        assert main([command, "--config", str(cfg)] + (["--out", str(dest)] if command == "predict" else [])) == 2
        assert "bands: checkpoint=8 scene=3" in one_error_line(capsys, "data")
        assert not dest.exists()

    @pytest.mark.parametrize("command", ["train", "eval", "predict", "inspect"])
    @pytest.mark.parametrize("height, width", [(6, 6), (4, 16)])
    def test_scene_under_8x8_exit_2_no_partial_outputs(self, trained, capsys, command, height, width):
        tmp_path, _, out = trained
        scene_path = tmp_path / f"small_{height}x{width}.hsc"
        save_hsc(crop_scene(8, height, width), scene_path)
        cfg = write_cfg(tmp_path, name="small.cfg", dataset=str(scene_path), checkpoint=str(out / "checkpoint.mmoe"))
        dest = tmp_path / f"small_{command}"
        argv = [command, "--config", str(cfg)] + (["--out", str(dest)] if command in ("train", "predict") else [])
        assert main(argv) == 2
        assert f"scene {height}x{width} too small" in one_error_line(capsys, "data")
        assert not dest.exists()

    def test_switch_that_is_not_a_bool_exit_2(self, trained, capsys):
        tmp_path, _, out = trained
        edited = rewrite_meta(out / "checkpoint.mmoe", tmp_path / "string_switch.mmoe", lambda m: m.update(sre_on="false"))
        cfg = write_cfg(tmp_path, name="str.cfg", checkpoint=str(edited))
        assert main(["eval", "--config", str(cfg)]) == 2
        assert "sre_on" in one_error_line(capsys, "data")

    @pytest.mark.parametrize(
        "key, value",
        [("seed", "x"), ("seed", 1.5), ("seed", -3), ("seed", True)]
        + [("samples_per_class", "7"), ("samples_per_class", 0), ("samples_per_class", True)],
    )
    def test_bad_split_meta_exit_2_one_line(self, trained, capsys, key, value):
        tmp_path, _, out = trained
        edited = rewrite_meta(out / "checkpoint.mmoe", tmp_path / "split_meta.mmoe", lambda m: m.update({key: value}))
        cfg = write_cfg(tmp_path, name="split.cfg", checkpoint=str(edited))
        assert main(["eval", "--config", str(cfg)]) == 2
        assert key in one_error_line(capsys, "data")

    @pytest.mark.parametrize("key", ["seed", "samples_per_class"])
    def test_split_meta_missing_exit_2_names_it(self, trained, capsys, key):
        """The test split comes from the checkpoint alone, never from the
        config, whose seed may draw the model's own training pixels."""
        tmp_path, _, out = trained
        edited = rewrite_meta(out / "checkpoint.mmoe", tmp_path / "no_split.mmoe", lambda m: m.pop(key))
        cfg = write_cfg(tmp_path, name="nosplit.cfg", checkpoint=str(edited))
        assert main(["eval", "--config", str(cfg)]) == 2
        assert f"meta has no {key}" in one_error_line(capsys, "data")

    def test_version_1_checkpoint_exit_2_one_line(self, trained, capsys, write_v1_checkpoint):
        tmp_path, _, out = trained
        old = tmp_path / "dense.mmoe"
        write_v1_checkpoint(old, load_checkpoint(out / "checkpoint.mmoe")[0])
        cfg = write_cfg(tmp_path, name="v1.cfg", checkpoint=str(old))
        assert main(["predict", "--config", str(cfg), "--out", str(tmp_path / "v1")]) == 2
        assert "do not convert" in one_error_line(capsys, "data")
        assert not (tmp_path / "v1").exists()

    def test_non_finite_parameter_exit_2_names_it(self, trained, capsys):
        tmp_path, _, out = trained
        params, _ = load_checkpoint(out / "checkpoint.mmoe")
        params.head.b.data[1] = np.inf
        edited = tmp_path / "inf_bias.mmoe"
        save_checkpoint(edited, params)
        cfg = write_cfg(tmp_path, name="inf.cfg", checkpoint=str(edited))
        assert main(["predict", "--config", str(cfg), "--out", str(tmp_path / "inf")]) == 2
        assert "parameter head.b holds non-finite values" in one_error_line(capsys, "data")
        assert not (tmp_path / "inf").exists()

    def test_inspect_prints_weight_rows_summing_to_one(self, trained, capsys):
        tmp_path, _, out = trained
        cfg = write_cfg(tmp_path, name="ins.cfg", checkpoint=str(out / "checkpoint.mmoe"))
        assert main(["inspect", "--config", str(cfg)]) == 0
        output = capsys.readouterr().out
        rows = [l for l in output.splitlines() if "router weights" in l or l.strip().startswith("class")]
        assert len(rows) == 3 + 4  # 3 stages + 4 classes
        for line in rows:
            nums = [float(tok) for tok in line.replace("[", " ").replace("]", " ").split() if _is_float(tok)]
            weights = nums[-4:] if "router" in line else nums[1:5]
            assert abs(sum(weights) - 1.0) < 1e-5, line


def test_ablated_model_evaluates_as_trained(tmp_path, capsys):
    """The switches travel in the checkpoint, so an eval config without
    `sse_on` still evaluates the model trained with the spectral experts off."""
    out = tmp_path / "run"
    assert main(["train", "--config", str(write_cfg(tmp_path, sse_on=False)), "--out", str(out)]) == 0
    trained_oa = next(l.split()[-1] for l in (out / "metrics.txt").read_text().splitlines() if l.startswith("OA"))
    capsys.readouterr()
    cfg = write_cfg(tmp_path, name="eval.cfg", checkpoint=str(out / "checkpoint.mmoe"))
    assert main(["eval", "--config", str(cfg), "--topk", "3"]) == 0
    printed = capsys.readouterr().out
    assert "sse_on=False" in printed
    (row,) = [l for l in printed.splitlines() if l.startswith("topk=3")]
    assert row.split()[2] == trained_oa


class TestProfileCommand:
    def test_profile_prints_params_and_topk_rows(self, capsys):
        code = main(["profile", "--input", "103x13x13", "--classes", "9"])
        assert code == 0
        out = capsys.readouterr().out
        assert "params_total" in out
        for k in (1, 2, 3, 4):
            assert f"flops_topk{k}" in out

    def test_profile_bad_input_exit_1(self, capsys):
        assert main(["profile", "--input", "13by13"]) == 1


def _is_float(tok: str) -> bool:
    try:
        float(tok)
        return True
    except ValueError:
        return False
