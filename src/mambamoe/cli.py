"""Command-line entry point.

Experiment knobs live in a config file (`key = value` lines, `#` comments,
unknown keys rejected).  Each subcommand takes only the flags it reads
(`COMMAND_FLAGS`); `--seed`, `--topk` and `--out` override the config keys
`seed`, `topk_infer` and `out_dir`:

    train      --config --seed --topk --out
    eval       --config --topk             (--topk: k, or a sweep lo..hi)
    predict    --config --topk --out
    inspect    --config
    gradcheck  (none; reads no config)
    synth      --config --seed --out       (--seed: synth_seed)
    profile    --config --input --classes

eval, predict and inspect take the model, and eval its test split, from
the config's `checkpoint` alone.  Exit codes: 0 success, 1 config error,
2 data error, 3 numerical abort; each failure prints one
`error: <category>: <reason>` line on stderr.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import Field, dataclass, field, fields
from pathlib import Path

import numpy as np

from . import data as dataio
from . import profiler
from . import train as training
from .network import CheckpointError, NetSpec, load_checkpoint, save_checkpoint, stage_sizes
from .tensor import NumericalError, ShapeError


class ConfigError(ValueError):
    pass


class DataError(ValueError):
    pass


class _Parser(argparse.ArgumentParser):
    """A bad flag is a config error: one `error: config:` line and exit 1,
    not argparse's usage text and exit 2.  Subparsers share the class."""

    def error(self, message):
        raise ConfigError(message)


@dataclass
class RunConfig:
    """The CLI's own config keys and their defaults; every ``TrainConfig``
    field is a config key too, read into ``train``."""

    dataset: str = "synthetic"  # path to a .hsc file, or the literal "synthetic"
    checkpoint: str = ""  # model file for eval/predict/inspect
    out_dir: str = "out"
    palette: str = ""  # optional palette file for rendered maps
    synth_seed: int = 11
    train: training.TrainConfig = field(default_factory=training.TrainConfig)

    def __post_init__(self):
        if self.synth_seed < 0:
            raise ValueError(f"synth_seed must be >= 0, got {self.synth_seed}")


def _config_fields() -> dict[str, Field]:
    """Every config-file key: RunConfig's own fields, then TrainConfig's."""
    own = [f for f in fields(RunConfig) if f.name != "train"]
    return {f.name: f for f in own + list(fields(training.TrainConfig))}


def _parse_value(key: str, raw: str, kind):
    raw = raw.strip()
    try:
        if kind is bool:
            low = raw.lower()
            if low in ("true", "1", "yes", "on"):
                return True
            if low in ("false", "0", "no", "off"):
                return False
            raise ValueError(f"not a boolean: {raw!r}")
        return kind(raw)
    except ValueError as exc:
        raise ConfigError(f"key {key}: {exc}") from exc


def parse_config(path: str | None, **overrides) -> RunConfig:
    """Read a config file (None: all defaults), then apply ``overrides``,
    already-typed values keyed like the file.  The result is validated as a
    whole, so an override cannot bypass a check."""
    keys = _config_fields()
    values = {}
    if path is not None:
        try:
            text = Path(path).read_text(encoding="utf-8")
        except (OSError, UnicodeDecodeError) as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from exc
        for lineno, line in enumerate(text.splitlines(), start=1):
            body = line.split("#", 1)[0].strip()
            if not body:
                continue
            if "=" not in body:
                raise ConfigError(f"{path}:{lineno}: expected `key = value`, got {line.rstrip()!r}")
            key, _, raw = body.partition("=")
            key = key.strip()
            if key not in keys:
                raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
            values[key] = _parse_value(key, raw, type(keys[key].default))
    values.update(overrides)
    own = {f.name for f in fields(RunConfig)}
    try:
        train = training.TrainConfig(**{k: v for k, v in values.items() if k not in own})
        return RunConfig(**{k: v for k, v in values.items() if k in own}, train=train)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def config_help_text() -> str:
    lines = ["config file keys (key = value, # comments):"]
    for f in _config_fields().values():
        lines.append(f"  {f.name} (default: {f.default!r})")
    return "\n".join(lines)


def _read(load, what: str, path: str):
    """``load(path)``; a file that cannot be opened (missing, a directory,
    unreadable) is a DataError.  Format errors propagate as they are."""
    try:
        return load(Path(path))
    except OSError as exc:
        raise DataError(f"cannot read {what} {path}: {exc.strerror or exc}") from exc


def _load_scene(cfg: RunConfig) -> dataio.HsiScene:
    """The config's scene; one the network cannot pool three times (under
    8x8) is a DataError before any split, training or output."""
    if cfg.dataset == "synthetic":
        scene = dataio.generate_synthetic(dataio.default_synthetic_spec(seed=cfg.synth_seed))
    else:
        scene = _read(dataio.load_hsc, "dataset", cfg.dataset)
    try:
        stage_sizes(scene.header.height, scene.header.width)
    except ShapeError as exc:
        raise DataError(f"dataset {cfg.dataset}: {exc}") from exc
    return scene


def _load_model(cfg: RunConfig, scene: dataio.HsiScene):
    """The checkpoint is the model: its widths and switches come from it
    alone, and only its input and output sizes must fit the scene."""
    if not cfg.checkpoint:
        raise ConfigError("this command needs a `checkpoint = <path>` config key")
    params, meta = _read(load_checkpoint, "checkpoint", cfg.checkpoint)
    spec = params.spec
    mismatches = [
        f"{name}: checkpoint={have} scene={expected}"
        for name, have, expected in (
            ("bands", spec.bands, scene.header.bands),
            ("n_class", spec.n_class, scene.header.n_class),
        )
        if have != expected
    ]
    if mismatches:
        raise DataError("checkpoint/scene mismatch: " + "; ".join(mismatches))
    return params, meta


def _palette_for(cfg: RunConfig, scene: dataio.HsiScene):
    if cfg.palette:
        return _read(dataio.load_palette, "palette", cfg.palette)
    return dataio.default_palette(scene.header.n_class)


def _parse_topk(raw: str) -> list[int]:
    """``k`` or a sweep ``lo..hi``, each k in [1, 4]."""
    lo, sweep, hi = raw.partition("..")
    try:
        ks = list(range(int(lo), int(hi) + 1)) if sweep else [int(raw)]
    except ValueError as exc:
        raise ConfigError(f"topk must be k or lo..hi, got {raw!r}") from exc
    if not ks:
        raise ConfigError(f"topk sweep {raw!r} is empty")
    for k in ks:
        if not 1 <= k <= 4:
            raise ConfigError(f"topk must be in [1, 4], got {k}")
    return ks


# --- commands --------------------------------------------------------------------


def cmd_train(cfg: RunConfig, out_dir: Path) -> int:
    tcfg = cfg.train
    scene = _load_scene(cfg)
    palette = _palette_for(cfg, scene)  # a bad palette fails before training, not after
    result = training.train(tcfg, scene)
    metrics = training.evaluate(result.params, scene, result.test_mask, topk=tcfg.topk_infer)
    out_dir.mkdir(parents=True, exist_ok=True)
    save_checkpoint(
        out_dir / "checkpoint.mmoe",
        result.params,
        extra_meta={"seed": tcfg.seed, "samples_per_class": tcfg.samples_per_class, "uarb_on": tcfg.uarb_on},
    )
    (out_dir / "history.csv").write_text(training.format_history_csv(result.history), encoding="utf-8")
    (out_dir / "metrics.txt").write_text(
        training.format_metrics_report(metrics, scene.header.class_names), encoding="utf-8"
    )
    pred = training.predict_labels(result.params, scene, topk=tcfg.topk_infer)
    dataio.render_map(pred, palette, out_dir / "prediction.ppm")
    print(f"trained {tcfg.epochs} epochs in {result.seconds:.1f}s; final loss {result.history[-1][1]:.4f}")
    print(training.format_metrics_report(metrics, scene.header.class_names), end="")
    print(f"outputs in {out_dir}")
    return 0


def cmd_eval(cfg: RunConfig, topks: list[int]) -> int:
    scene = _load_scene(cfg)
    params, meta = _load_model(cfg, scene)
    for key in ("seed", "samples_per_class"):
        if key not in meta:
            raise CheckpointError(f"{cfg.checkpoint}: meta has no {key}, so the test split cannot be re-derived")
    seed, n = meta["seed"], meta["samples_per_class"]
    # the split is re-derived from these; bools are ints to Python, not to the split
    if type(seed) is not int or seed < 0:
        raise CheckpointError(f"{cfg.checkpoint}: meta seed {seed!r} is not a non-negative int")
    if type(n) is not int or n < 1:
        raise CheckpointError(f"{cfg.checkpoint}: meta samples_per_class {n!r} is not an int of at least 1")
    _, test_mask = training.split_for_seed(scene.labels.astype(np.int64), n, seed)
    spec = params.spec
    print(f"split: seed={seed} samples_per_class={n}; momeb_on={spec.momeb_on} sre_on={spec.sre_on} sse_on={spec.sse_on}")
    for k in topks:
        m = training.evaluate(params, scene, test_mask, topk=k)
        print(f"topk={k}  OA {100 * m.oa:6.2f}  AA {100 * m.aa:6.2f}  kappa {100 * m.kappa:6.2f}")
    return 0


def cmd_predict(cfg: RunConfig, out_dir: Path) -> int:
    scene = _load_scene(cfg)
    params, _ = _load_model(cfg, scene)
    palette = _palette_for(cfg, scene)
    pred = training.predict_labels(params, scene, topk=cfg.train.topk_infer)
    out_dir.mkdir(parents=True, exist_ok=True)
    out_path = out_dir / "prediction.ppm"
    dataio.render_map(pred, palette, out_path)
    print(f"wrote {out_path}")
    return 0


def cmd_inspect(cfg: RunConfig) -> int:
    from .inspect_experts import inspect_expert_weights

    scene = _load_scene(cfg)
    params, _ = _load_model(cfg, scene)
    print(inspect_expert_weights(params, scene).format())
    return 0


def cmd_gradcheck() -> int:
    from .gradcheck_suite import run_suite

    report_lines, passed = run_suite()
    for line in report_lines:
        print(line)
    if not passed:
        raise NumericalError("gradient check failed")
    return 0


def cmd_synth(cfg: RunConfig, out_dir: Path) -> int:
    scene = dataio.generate_synthetic(dataio.default_synthetic_spec(seed=cfg.synth_seed))
    out_dir.mkdir(parents=True, exist_ok=True)
    out_path = out_dir / "synthetic.hsc"
    dataio.save_hsc(scene, out_path)
    print(f"wrote {out_path} ({scene.header.bands}x{scene.header.height}x{scene.header.width}, {scene.header.n_class} classes)")
    return 0


def cmd_profile(cfg: RunConfig, input_raw: str, n_class: int) -> int:
    try:
        bands, height, width = (int(tok) for tok in input_raw.lower().split("x"))
    except ValueError as exc:
        raise ConfigError(f"--input must be BxHxW, got {input_raw!r}") from exc
    try:
        spec = NetSpec(bands=bands, channels=cfg.train.channels, state_dim=cfg.train.state_dim, n_class=n_class)
        print(profiler.report_csv(spec, (bands, height, width)), end="")
    except ShapeError as exc:
        raise ConfigError(str(exc)) from exc
    return 0


# the flags each command reads, and no others
COMMAND_FLAGS = {
    "train": ("--config", "--seed", "--topk", "--out"),
    "eval": ("--config", "--topk"),
    "predict": ("--config", "--topk", "--out"),
    "inspect": ("--config",),
    "gradcheck": (),
    "synth": ("--config", "--seed", "--out"),
    "profile": ("--config", "--input", "--classes"),
}

_FLAG_ARGS = {
    "--config": dict(help="config file path"),
    "--seed": dict(type=int, help="override config seed (synth: synth_seed)"),
    "--topk": dict(help="override topk_infer: expert count k, or for eval a sweep like 1..4"),
    "--out": dict(help="output directory (default: config out_dir)"),
    "--input": dict(default="103x13x13", help="input size BxHxW"),
    "--classes": dict(type=int, default=9, help="class count for the head"),
}


def main(argv: list[str] | None = None) -> int:
    parser = _Parser(
        prog="mambamoe",
        description="Spectral-spatial mixture-of-experts state-space classifier",
        epilog=config_help_text(),
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, flags in COMMAND_FLAGS.items():
        p = sub.add_parser(name, formatter_class=argparse.RawDescriptionHelpFormatter)
        if "--config" in flags:
            p.epilog = config_help_text()
        for flag in flags:
            p.add_argument(flag, **_FLAG_ARGS[flag])
    try:
        args = parser.parse_args(argv)
        if args.command == "gradcheck":
            return cmd_gradcheck()
        seed, topk, out = (getattr(args, name, None) for name in ("seed", "topk", "out"))
        overrides = {}
        if seed is not None:
            overrides["synth_seed" if args.command == "synth" else "seed"] = seed
        topks = _parse_topk(topk) if topk is not None else None
        if topks is not None and args.command != "eval":
            if len(topks) > 1:
                raise ConfigError(f"topk sweep {topk!r} is for eval only; {args.command} takes one k")
            overrides["topk_infer"] = topks[0]
        cfg = parse_config(args.config, **overrides)
        out_dir = Path(out if out is not None else cfg.out_dir)

        if args.command == "train":
            return cmd_train(cfg, out_dir)
        if args.command == "eval":
            return cmd_eval(cfg, topks or [cfg.train.topk_infer])
        if args.command == "predict":
            return cmd_predict(cfg, out_dir)
        if args.command == "inspect":
            return cmd_inspect(cfg)
        if args.command == "synth":
            return cmd_synth(cfg, out_dir)
        return cmd_profile(cfg, args.input, args.classes)
    except ConfigError as exc:
        print(f"error: config: {exc}", file=sys.stderr)
        return 1
    except (DataError, training.SplitError, dataio.HscError, dataio.PaletteError, CheckpointError) as exc:
        print(f"error: data: {exc}", file=sys.stderr)
        return 2
    except (NumericalError, training.TrainingAbort) as exc:
        print(f"error: numeric: {exc}", file=sys.stderr)
        return 3


def console_entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_entry()
