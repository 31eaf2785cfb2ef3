import contextlib
import copy
import io
import json
import math
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spectralmae.cli import main
from spectralmae.checkpoint import load_checkpoint, save_checkpoint, snapshot_model
import spectralmae.model as model_module
from spectralmae.model import ModelConfig, SpectralCubeAutoencoder
from spectralmae.preview import PRESETS
from spectralmae.rng import CounterRng

from ppm_reader import read_ppm


def _write_json(path, doc):
    with open(path, "w") as fh:
        json.dump(doc, fh)
    return str(path)


def _synth(tmp_path, name="ds", task="classify", **spec):
    base = dict(height=16, width=16, bands=6, classes=2, n_images=12, seed=3,
                noise_std=0.01)
    base.update(spec)
    spec_path = _write_json(tmp_path / f"{name}_spec.json", base)
    out = tmp_path / name
    assert main(["synth", "--spec", spec_path, "--task", task, "--out", str(out)]) == 0
    return out / "manifest.json"


def _pretrain_config(tmp_path, manifest, **overrides):
    doc = {
        "seed": 5,
        "model": {"preset": "tiny", "max_grid": [2, 2, 2]},
        "objective": {"lam": 1.0, "token_loss_scope": "all_tokens",
                      "target_mode": "per_token_normalized"},
        "stages": [{"manifest": str(manifest), "epochs": 2, "base_lr": 1e-3,
                    "batch_size": 4, "mask_ratio": 0.5}],
    }
    doc.update(overrides)
    return _write_json(tmp_path / "pretrain.json", doc)


# ---------------------------------------------------------------- synth

def test_synth_writes_manifest_and_is_deterministic(tmp_path):
    m1 = _synth(tmp_path, "a")
    m2 = _synth(tmp_path, "b")
    assert os.path.exists(m1)
    for name in sorted(os.listdir(m1.parent)):
        if name == "config.resolved.json":
            continue
        assert (m1.parent / name).read_bytes() == (m2.parent / name).read_bytes()


def test_synth_bad_spec_path_nonzero(tmp_path, capsys):
    assert main(["synth", "--spec", str(tmp_path / "missing.json"),
                 "--task", "classify", "--out", str(tmp_path / "o")]) != 0


def test_synth_unknown_spec_key_rejected(tmp_path):
    spec_path = _write_json(tmp_path / "s.json", {"heigth": 16})
    assert main(["synth", "--spec", spec_path, "--task", "classify",
                 "--out", str(tmp_path / "o")]) != 0


# ---------------------------------------------------------------- pretrain

def test_pretrain_smoke_and_artifacts(tmp_path):
    manifest = _synth(tmp_path, task="pretrain")
    config = _pretrain_config(tmp_path, manifest)
    out = tmp_path / "run"
    assert main(["pretrain", "--config", config, "--out", str(out)]) == 0
    assert (out / "checkpoint_final.spck").exists()
    assert (out / "config.resolved.json").exists()
    lines = (out / "train_log.jsonl").read_text().strip().splitlines()
    assert len(lines) == 2
    record = json.loads(lines[0])
    assert {"stage", "epoch", "token", "spectral", "total", "lr"} <= set(record)


@pytest.mark.parametrize("objective", [{"lam": -0.5}, {"target_mode": "bogus"}],
                         ids=["negative_lambda", "unknown_target_mode"])
def test_pretrain_negative_lambda_rejected_before_training(tmp_path, capsys, objective):
    manifest = _synth(tmp_path, task="pretrain")
    config = _pretrain_config(tmp_path, manifest, objective=objective)
    out = tmp_path / "run"
    assert main(["pretrain", "--config", config, "--out", str(out)]) != 0
    assert not out.exists()  # rejected before --out, config.resolved.json or a log


def test_pretrain_unknown_config_key_named(tmp_path, capsys):
    manifest = _synth(tmp_path, task="pretrain")
    config = _pretrain_config(tmp_path, manifest, typo_section={"x": 1})
    assert main(["pretrain", "--config", config, "--out", str(tmp_path / "o")]) != 0
    assert "typo_section" in capsys.readouterr().err


def _interrupted_pretraining(tmp_path):
    """A 4-epoch pretraining config, and the checkpoint and train log that a
    run of it stopped after epoch 2 leaves in its out dir."""
    from spectralmae.manifest import load_manifest
    from spectralmae.objective import ObjectiveConfig
    from spectralmae.raster import normalize_bands, read_raster
    from spectralmae.training import PretrainStage, progressive_pretrain

    manifest = _synth(tmp_path, task="pretrain", n_images=8)
    doc = json.loads(open(_pretrain_config(tmp_path, manifest)).read())
    doc["stages"][0]["epochs"] = 4
    config = _write_json(tmp_path / "c4.json", doc)

    # run the config with the training API under the CLI's keys, keeping the
    # checkpoint and records it hands over after epoch 2
    man = load_manifest(manifest)
    images = [normalize_bands(read_raster(s["raster"]), man.band_min, man.band_max)
              for s in man.samples]
    stage = PretrainStage(images=images, epochs=4, base_lr=1e-3, batch_size=4,
                          mask_ratio=0.5)
    model = SpectralCubeAutoencoder(ModelConfig.tiny(max_grid=(2, 2, 2)), CounterRng(5))
    mid = tmp_path / "mid.spck"
    records = []

    def on_epoch(record, checkpoint):
        if checkpoint.epoch <= 2:
            records.append(record)
        if checkpoint.epoch == 2:
            save_checkpoint(checkpoint, mid)

    progressive_pretrain(model, ObjectiveConfig(), [stage], CounterRng(5), on_epoch=on_epoch)

    part = tmp_path / "part"
    os.makedirs(part)
    (part / "train_log.jsonl").write_text(
        "\n".join(r.to_json() for r in records) + "\n")
    return config, mid, part


def test_pretrain_resume_reproduces_trace(tmp_path):
    config, mid, part = _interrupted_pretraining(tmp_path)
    full = tmp_path / "full"
    assert main(["pretrain", "--config", config, "--out", str(full)]) == 0
    full_lines = (full / "train_log.jsonl").read_text().strip().splitlines()
    assert len(full_lines) == 4

    assert main(["pretrain", "--config", config, "--out", str(part),
                 "--resume", str(mid)]) == 0
    part_lines = (part / "train_log.jsonl").read_text().strip().splitlines()
    assert part_lines == full_lines
    final = "checkpoint_final.spck"
    assert (part / final).read_bytes() == (full / final).read_bytes()


def _two_stage_configs(tmp_path, epochs=1):
    """Configs of a 16x16-then-32x32 pretraining: both stages, and the first alone."""
    manifests = [_synth(tmp_path, name, task="pretrain", height=side, width=side, n_images=8)
                 for name, side in (("small", 16), ("large", 32))]
    stages = [{"manifest": str(m), "epochs": epochs, "base_lr": 1e-3, "batch_size": 4,
               "mask_ratio": 0.5} for m in manifests]
    doc = {"seed": 7, "model": {"preset": "tiny", "max_grid": [2, 2, 2]}, "objective": {}}
    return (_write_json(tmp_path / "prog.json", {**doc, "stages": stages}),
            _write_json(tmp_path / "first.json", {**doc, "stages": stages[:1]}))


def test_progressive_two_stages(tmp_path):
    config, _ = _two_stage_configs(tmp_path)
    out = tmp_path / "prog"
    assert main(["pretrain", "--config", config, "--out", str(out)]) == 0
    lines = [json.loads(l) for l in (out / "train_log.jsonl").read_text().splitlines()]
    assert [l["stage"] for l in lines] == [0, 1]


def test_progressive_is_not_a_command(tmp_path, capsys):
    config, _ = _two_stage_configs(tmp_path)
    with pytest.raises(SystemExit) as exc:
        main(["progressive", "--config", config, "--out", str(tmp_path / "o")])
    assert exc.value.code == 2
    assert "invalid choice: 'progressive'" in capsys.readouterr().err


def test_pretrain_resume_first_stage_run_under_two_stage_config(tmp_path):
    """A run of stage 0 alone, resumed from its last checkpoint under the
    two-stage config, ends as the uninterrupted two-stage run does."""
    both, first = _two_stage_configs(tmp_path)
    full, part = tmp_path / "full", tmp_path / "part"
    assert main(["pretrain", "--config", both, "--out", str(full)]) == 0
    assert main(["pretrain", "--config", first, "--out", str(part)]) == 0
    assert main(["pretrain", "--config", both, "--out", str(part),
                 "--resume", str(part / "checkpoint_last.spck")]) == 0
    lines = (full / "train_log.jsonl").read_text().splitlines()
    assert [json.loads(l)["stage"] for l in lines] == [0, 1]
    for name in ("train_log.jsonl", "checkpoint_final.spck"):
        assert (part / name).read_bytes() == (full / name).read_bytes()


def test_pretrain_resume_from_final_checkpoint_is_complete(tmp_path, capsys):
    manifest = _synth(tmp_path, task="pretrain", n_images=8)
    config = _pretrain_config(tmp_path, manifest)
    out = tmp_path / "run"
    assert main(["pretrain", "--config", config, "--out", str(out)]) == 0
    log = (out / "train_log.jsonl").read_bytes()
    capsys.readouterr()
    assert main(["pretrain", "--config", config, "--out", str(out),
                 "--resume", str(out / "checkpoint_final.spck")]) == 0
    assert capsys.readouterr().out == "run already complete\n"
    assert (out / "train_log.jsonl").read_bytes() == log


@pytest.mark.parametrize("stage,epoch", [(2, 0), (1, 1)])
def test_pretrain_resume_past_the_configs_stages_is_one_error(tmp_path, capsys, stage, epoch):
    manifest = _synth(tmp_path, task="pretrain", n_images=8)
    config = _pretrain_config(tmp_path, manifest)  # one stage
    model = SpectralCubeAutoencoder(ModelConfig.tiny(max_grid=(2, 2, 2)), CounterRng(5))
    ckpt = tmp_path / "past.spck"
    save_checkpoint(snapshot_model(model, None, CounterRng(5).state(), stage=stage,
                                   epoch=epoch), ckpt)
    out = tmp_path / "run"
    assert main(["pretrain", "--config", config, "--out", str(out),
                 "--resume", str(ckpt)]) == 2
    err = capsys.readouterr().err
    assert err == (f"error: checkpoint stage {stage} (epoch {epoch}) lies past "
                   f"the config's 1 stages\n")
    assert not out.exists()


def _crash_at(monkeypatch, position, before_save=False):
    """End the next pretrain command with an error at the checkpoint of
    (stage, epoch) `position`: once it is saved, or, as a crash between the
    log write and the save leaves things, with it unsaved."""
    import spectralmae.checkpoint as checkpoint

    save = checkpoint.save_checkpoint

    def crashing(ckpt, path):
        at = (ckpt.stage, ckpt.epoch) == position
        if not (at and before_save):
            save(ckpt, path)
        if at:
            raise OSError("interrupted")

    monkeypatch.setattr(checkpoint, "save_checkpoint", crashing)


@pytest.mark.parametrize("crash,before_save,torn,resume_from", [
    ((0, 1), False, False, (0, 1)), ((0, 2), False, False, (0, 2)),
    (None, False, False, (2, 0)), ((0, 2), True, False, (0, 1)), ((0, 2), True, True, (0, 1))],
    ids=["mid_stage", "stage_end", "complete", "log_ahead", "log_line_torn"])
def test_pretrain_resume_reproduces_the_uninterrupted_run(tmp_path, monkeypatch, capsys, crash,
                                                          before_save, torn, resume_from):
    config, _ = _two_stage_configs(tmp_path, epochs=2)
    full, part = tmp_path / "full", tmp_path / "part"
    assert main(["pretrain", "--config", config, "--out", str(full)]) == 0
    with monkeypatch.context() as patch:
        if crash is not None:
            _crash_at(patch, crash, before_save)
        assert main(["pretrain", "--config", config, "--out", str(part)]) == (2 if crash else 0)
    if torn:  # the crash came halfway through writing the last record
        log = (part / "train_log.jsonl").read_bytes()
        (part / "train_log.jsonl").write_bytes(log[:len(log) - 20])
    ckpt = part / ("checkpoint_final.spck" if crash is None else "checkpoint_last.spck")
    assert (load_checkpoint(ckpt).stage, load_checkpoint(ckpt).epoch) == resume_from
    capsys.readouterr()
    assert main(["pretrain", "--config", config, "--out", str(part),
                 "--resume", str(ckpt)]) == 0
    if crash is None:
        assert capsys.readouterr().out == "run already complete\n"
    for name in ("train_log.jsonl", "checkpoint_last.spck", "checkpoint_final.spck",
                 "config.resolved.json"):
        assert (part / name).read_bytes() == (full / name).read_bytes(), name


def test_pretrain_resume_drops_the_log_records_it_retrains(tmp_path):
    """The one-stage run's final checkpoint resumed into the out dir of a
    finished two-stage run retrains stage 1 and logs it once."""
    both, first = _two_stage_configs(tmp_path)
    full, part, one = tmp_path / "full", tmp_path / "part", tmp_path / "one"
    for config, out in ((both, full), (both, part), (first, one)):
        assert main(["pretrain", "--config", config, "--out", str(out)]) == 0
    assert main(["pretrain", "--config", both, "--out", str(part),
                 "--resume", str(one / "checkpoint_final.spck")]) == 0
    for name in ("train_log.jsonl", "checkpoint_final.spck"):
        assert (part / name).read_bytes() == (full / name).read_bytes(), name


@pytest.mark.parametrize("change,extra,message", [
    ({"model": {"preset": "tiny", "max_grid": [2, 2, 2], "embed_dim": 32}}, [],
     "checkpoint model differs from the config's: embed_dim 16 vs 32"),
    ({}, ["--seed", "9"], "checkpoint rng state (seed, counter) (5, 0) is not the run's (9, 0)"),
    ({"weight_decay": 0.05}, [],
     "checkpoint optimizer differs from stage 0's: weight_decay 0.0 vs 0.05"),
    ({"optimizer": None}, [], "checkpoint at stage 0 epoch 2 holds no moments")],
    ids=["model", "seed", "weight_decay", "no_moments"])
def test_pretrain_resume_of_another_run_is_one_error(tmp_path, capsys, change, extra, message):
    config, mid, _ = _interrupted_pretraining(tmp_path)
    doc = json.loads(open(config).read())
    if "model" in change:
        doc["model"] = change["model"]
    elif "optimizer" in change:
        ckpt = load_checkpoint(mid)
        ckpt.optimizer = None
        save_checkpoint(ckpt, mid)
    else:
        doc["stages"][0].update(change)
    other = _write_json(tmp_path / "other.json", doc)
    out = tmp_path / "run"
    capsys.readouterr()
    assert main(["pretrain", "--config", other, "--out", str(out), "--resume", str(mid),
                 *extra]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("line", [b"[1, 2]", b'{"epoch": 0}', b'{"stage": "x", "epoch": 0}',
                                  b"\xff"], ids=["list", "no_stage", "str_stage", "not_utf8"])
def test_pretrain_resume_over_a_foreign_log_line_is_one_error(tmp_path, capsys, line):
    config, mid, part = _interrupted_pretraining(tmp_path)
    log_path = part / "train_log.jsonl"
    first, second = log_path.read_bytes().splitlines(keepends=True)
    log = first + line + b"\n" + second
    log_path.write_bytes(log)
    capsys.readouterr()
    assert main(["pretrain", "--config", config, "--out", str(part), "--resume", str(mid)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: train log {log_path} line 2 ") and err.count("\n") == 1
    assert log_path.read_bytes() == log


def test_progressive_standardized_uses_each_stages_band_stats(tmp_path, monkeypatch):
    import spectralmae.training as training
    from spectralmae.manifest import load_manifest

    first = _synth(tmp_path, "first", task="pretrain", n_images=4, seed=3)
    second = _synth(tmp_path, "second", task="pretrain", n_images=4, seed=4,
                    field_amplitude=0.6)
    means = [load_manifest(m).band_mean for m in (first, second)]
    assert means[0] != means[1]
    seen = []
    make_targets = training.make_targets

    def recording(grid, mode, band_stats=None):
        seen.append(list(band_stats[0]))
        return make_targets(grid, mode, band_stats)

    monkeypatch.setattr(training, "make_targets", recording)
    stage = {"epochs": 1, "base_lr": 1e-3, "batch_size": 2, "mask_ratio": 0.5}
    config = _pretrain_config(tmp_path, first,
                              objective={"target_mode": "standardized"},
                              stages=[{"manifest": str(first), **stage},
                                      {"manifest": str(second), **stage}])
    assert main(["pretrain", "--config", config, "--out", str(tmp_path / "o")]) == 0
    assert seen == [means[0]] * 2 + [means[1]] * 2  # one call per group of two images


# ---------------------------------------------------------------- finetune / eval

def _finetune_config(tmp_path, manifest, **model):
    doc = {
        "seed": 11,
        "model": {"preset": "tiny", "max_grid": [2, 2, 2], **model},
        "finetune": {"epochs": 2, "batch_size": 4, "lr": 1e-3, "hidden": 16},
        "dataset": {"manifest": str(manifest)},
    }
    return _write_json(tmp_path / "ft.json", doc)


def test_finetune_then_eval_deterministic_and_pure(tmp_path):
    manifest = _synth(tmp_path, task="classify", n_images=16)
    config = _finetune_config(tmp_path, manifest)
    ft_out = tmp_path / "ft"
    assert main(["finetune", "--task", "classify", "--config", config,
                 "--out", str(ft_out)]) == 0
    metrics = json.loads((ft_out / "metrics.json").read_text())
    assert metrics["task"] == "classify"
    assert 0.0 <= metrics["values"]["accuracy"] <= 1.0
    ckpt = ft_out / "checkpoint_finetuned.spck"
    assert ckpt.exists()

    before = ckpt.read_bytes()
    ev1 = tmp_path / "ev1"
    ev2 = tmp_path / "ev2"
    assert main(["eval", "--task", "classify", "--config", config,
                 "--checkpoint", str(ckpt), "--out", str(ev1)]) == 0
    assert main(["eval", "--task", "classify", "--config", config,
                 "--checkpoint", str(ckpt), "--out", str(ev2)]) == 0
    m1 = (ev1 / "metrics.json").read_text()
    assert m1 == (ev2 / "metrics.json").read_text()
    assert json.loads(m1)["values"]["accuracy"] == metrics["values"]["accuracy"]
    assert ckpt.read_bytes() == before  # eval never mutates weights


def test_finetune_train_fraction_flag_logged(tmp_path):
    manifest = _synth(tmp_path, task="classify", n_images=24)
    config = _finetune_config(tmp_path, manifest)
    out = tmp_path / "ft"
    assert main(["finetune", "--task", "classify", "--config", config,
                 "--out", str(out), "--train-fraction", "0.5"]) == 0
    metrics = json.loads((out / "metrics.json").read_text())
    # round(0.8 * 24) = 19 train candidates, floor(0.5 * 19) = 9 used
    assert metrics["counts"]["train_used"] == 9


def test_finetune_change_task_cli(tmp_path):
    manifest = _synth(tmp_path, task="change", n_images=8)
    config = _finetune_config(tmp_path, manifest)
    out = tmp_path / "ch"
    assert main(["finetune", "--task", "change", "--config", config,
                 "--out", str(out)]) == 0
    metrics = json.loads((out / "metrics.json").read_text())
    assert {"precision", "recall", "f1"} <= set(metrics["values"])


def test_eval_without_manifest_names_the_key(tmp_path, capsys):
    config = _write_json(tmp_path / "ft.json", {"seed": 11, "finetune": {"epochs": 1}})
    model = SpectralCubeAutoencoder(ModelConfig.tiny(max_grid=(2, 2, 2)), CounterRng(0))
    ckpt = tmp_path / "m.spck"
    save_checkpoint(snapshot_model(model, None, (0, 0)), ckpt)
    for command in (["finetune"], ["eval", "--checkpoint", str(ckpt)]):
        assert main(command + ["--task", "classify", "--config", config,
                               "--out", str(tmp_path / "o")]) == 2
        assert "config dataset.manifest is required" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["finetune", "eval"])
@pytest.mark.parametrize("key", ["manifest", "val_manifest"])
def test_manifest_of_another_task_is_one_error_line(tmp_path, capsys, command, key):
    dataset = {"manifest": str(_synth(tmp_path, "cls", task="classify", n_images=4)),
               key: str(_synth(tmp_path, "seg", task="segment", n_images=4))}
    config = _write_json(tmp_path / "ft.json", {
        "seed": 11, "model": {"preset": "tiny", "max_grid": [2, 2, 2]},
        "finetune": {"epochs": 1, "batch_size": 2}, "dataset": dataset})
    ckpt = tmp_path / "m.spck"
    model = SpectralCubeAutoencoder(ModelConfig.tiny(max_grid=(2, 2, 2)), CounterRng(0))
    save_checkpoint(snapshot_model(model, None, (0, 0)), ckpt)
    argv = {"finetune": ["finetune"], "eval": ["eval", "--checkpoint", str(ckpt)]}[command]
    assert main(argv + ["--task", "classify", "--config", config,
                        "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err == \
        f"error: {key.replace('val_', 'validation ')} task is 'segment', not the requested 'classify'\n"


def test_model_drop_path_key_rejected(tmp_path, capsys):
    manifest = _synth(tmp_path, task="pretrain")
    config = _pretrain_config(tmp_path, manifest,
                              model={"preset": "tiny", "drop_path": 0.1})
    assert main(["pretrain", "--config", config, "--out", str(tmp_path / "o")]) == 2
    assert "model.drop_path" in capsys.readouterr().err


@pytest.mark.parametrize("command,section", [
    ("pretrain", {"model": 5}),
    ("pretrain", {"stages": [7]}),
    ("pretrain", {"stages": 7}),
    ("finetune", {"finetune": 5}),
    ("finetune", {"dataset": "ds"}),
], ids=["model", "stage_entry", "stages", "finetune", "dataset"])
def test_config_section_of_wrong_type_is_one_error_line(tmp_path, capsys, command, section):
    if command == "pretrain":
        config = _pretrain_config(tmp_path, tmp_path / "unused.json", **section)
        argv = ["pretrain", "--config", config]
    else:
        config = _write_json(tmp_path / "ft.json", {"seed": 1, **section})
        argv = ["finetune", "--task", "classify", "--config", config]
    assert main(argv + ["--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: config ") and err.count("\n") == 1


@pytest.fixture(scope="module")
def datasets(tmp_path_factory):
    """A pretraining and a classification set of four 16x16x6 images each."""
    root = tmp_path_factory.mktemp("datasets")
    return {task: _synth(root, task, task=task, n_images=4) for task in ("pretrain", "classify")}


def _valid_docs(datasets):
    return {
        "pretrain": {"seed": 5, "model": {"preset": "tiny", "max_grid": [2, 2, 2]},
                     "objective": {"lam": 1.0},
                     "stages": [{"manifest": str(datasets["pretrain"]), "epochs": 1,
                                 "base_lr": 1e-3, "batch_size": 4, "mask_ratio": 0.5,
                                 "clip_norm": 1.0}]},
        "finetune": {"seed": 11, "model": {"preset": "tiny", "max_grid": [2, 2, 2]},
                     "finetune": {"epochs": 1, "batch_size": 2, "lr": 1e-3, "hidden": 8,
                                  "split_fractions": [0.5, 0.5], "crop": None},
                     "dataset": {"manifest": str(datasets["classify"])}},
        "synth": {"height": 8, "width": 8, "bands": 3, "classes": 2, "n_images": 2,
                  "seed": 3, "rho": 0.5, "signatures": [[0.2, 0.4, 0.6], [0.6, 0.4, 0.2]]},
        "synth-change": {"height": 8, "width": 8, "bands": 3, "classes": 2, "n_images": 2,
                         "seed": 3},
    }


def _run(command, doc, path, out):
    config = _write_json(path, doc)
    argv = {"pretrain": ["pretrain", "--config", config],
            "finetune": ["finetune", "--task", "classify", "--config", config],
            "synth": ["synth", "--task", "classify", "--spec", config],
            "synth-change": ["synth", "--task", "change", "--spec", config]}[command]
    return main(argv + ["--out", str(out)])


@pytest.mark.parametrize("command,path,value", [
    ("pretrain", ("model", "max_grid"), 5),
    ("pretrain", ("model", "embed_dim"), "16"),
    ("pretrain", ("stages", 0, "epochs"), "1"),
    ("pretrain", ("stages", 0, "clip_norm"), "x"),
    ("pretrain", ("objective", "lam"), "1"),
    ("pretrain", ("stages", 0, "manifest"), 7),
    ("finetune", ("finetune", "split_fractions"), 0.5),
    ("finetune", ("finetune", "split_fractions"), [0.5, 0.3, 0.2]),
    ("finetune", ("finetune", "hidden"), 8.5),
    ("finetune", ("finetune", "lr"), None),
    ("finetune", ("finetune", "crop"), "8"),
    ("finetune", ("seed",), "3"),
    ("synth", ("height",), "16"),
    ("synth", ("signatures",), 3),
], ids=["max_grid_int", "embed_dim_str", "epochs_str", "clip_norm_str", "lam_str",
        "manifest_int", "split_fractions_float", "split_fractions_three", "hidden_float",
        "lr_null", "crop_str", "seed_str", "synth_height_str", "synth_signatures_int"])
def test_config_value_of_wrong_type_is_one_error_line(tmp_path, capsys, datasets, command,
                                                      path, value):
    doc = _valid_docs(datasets)[command]
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = value
    assert _run(command, doc, tmp_path / "c.json", tmp_path / "o") == 2
    key = ".".join("[]" if isinstance(k, int) else k for k in path).replace(".[]", "[]")
    err = capsys.readouterr().err
    assert err.startswith(f"error: config {key} must be ") and err.count("\n") == 1
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("command,path", [
    ("pretrain", ("model",)),
    ("pretrain", ("stages", 0, "epochs")),
    ("finetune", ("dataset", "manifest")),
], ids=["section", "field", "manifest_doc"])
def test_long_value_is_shortened_in_the_error_line(tmp_path, capsys, datasets, command, path):
    long = list(range(10000))
    doc = _valid_docs(datasets)[command]
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    # the manifest case names a manifest file whose whole document is the long value
    parent[path[-1]] = _write_json(tmp_path / "m.json", long) if path[-1] == "manifest" else long
    assert _run(command, doc, tmp_path / "c.json", tmp_path / "o") == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and len(err) < 200


_SYNTH_RANGE_PROBES = (
    [("synth", (key,), value, f"synth {key} {value} must be positive")
     for key in ("height", "width", "bands", "classes", "n_images", "smoothness", "regions",
                 "max_rects") for value in (0, -1)]
    + [("synth", (key,), value, f"synth {key} {value} must be finite and >= 0")
       for key in ("noise_std", "field_amplitude") for value in (-1.0, math.inf)]
    + [("synth-change", (key,), 4, f"synth {key} 4 must be at least 5 for the change task")
       for key in ("height", "width")])


@pytest.mark.parametrize("command,path,value,message", [
    ("pretrain", ("stages", 0, "batch_size"), 0, "stage batch_size 0 must be positive"),
    ("pretrain", ("stages", 0, "epochs"), -1, "stage epochs -1 must not be negative"),
    ("pretrain", ("model", "p"), 0, "p 0 must be positive"),
    ("pretrain", ("model", "max_grid"), [0, 2, 2],
     "max_grid (0, 2, 2) must be three positive extents"),
    ("finetune", ("finetune", "batch_size"), 0, "finetune batch_size 0 must be positive"),
    ("finetune", ("finetune", "crop"), 0, "finetune crop 0 must be positive or null"),
    ("finetune", ("finetune", "seed"), 3, "unknown config keys: finetune.seed"),
    ("finetune", ("finetune", "split_fractions"), [-0.25, 1.25],
     "finetune split_fractions (-0.25, 1.25) must be in (0, 1) and sum to 1"),
    ("finetune", ("finetune", "split_fractions"), [1.25, -0.25],
     "finetune split_fractions (1.25, -0.25) must be in (0, 1) and sum to 1"),
] + _SYNTH_RANGE_PROBES, ids=[
    "batch_size_0", "epochs_negative", "p_0", "max_grid_0", "finetune_batch_size_0", "crop_0",
    "finetune_seed", "split_fractions_negative_first", "split_fractions_negative_second",
] + [f"{command.replace('-', '_')}_{key}_{value}"
      for command, (key,), value, _ in _SYNTH_RANGE_PROBES])
def test_config_value_out_of_range_is_one_error_line(tmp_path, capsys, datasets, command,
                                                     path, value, message):
    doc = _valid_docs(datasets)[command]
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = value
    assert _run(command, doc, tmp_path / "c.json", tmp_path / "o") == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not (tmp_path / "o").exists()


def _paths(node, prefix=()):
    """The path of every value under `node`, outermost first."""
    if isinstance(node, (dict, list)):
        for key, value in (node.items() if isinstance(node, dict) else enumerate(node)):
            yield prefix + (key,)
            yield from _paths(value, prefix + (key,))


def _mutate(doc, data):
    """`doc` after one or two type swaps, deletions, re-nestings or resized lists."""
    box = {"doc": copy.deepcopy(doc)}  # so the whole doc can be swapped or nested too
    for _ in range(data.draw(st.integers(1, 2), label="mutations")):
        paths = list(_paths(box))
        if not paths:
            break
        path = data.draw(st.sampled_from(paths), label="path")
        parent = box
        for key in path[:-1]:
            parent = parent[key]
        key, value = path[-1], parent[path[-1]]
        kind = data.draw(st.sampled_from(["swap", "delete", "nest", "unnest", "resize"]),
                         label="kind")
        if kind == "swap":
            parent[key] = data.draw(st.sampled_from(
                ["1", 1, 0, -1, 1.5, True, None, [], [1, 2], {}, {"x": 1}]), label="value")
        elif kind == "delete":
            del parent[key]
        elif kind == "nest":
            parent[key] = data.draw(st.sampled_from([[value], {"x": value}]), label="nest")
        elif kind == "unnest" and value and isinstance(value, (dict, list)):
            parent[key] = list(value.values())[0] if isinstance(value, dict) else value[0]
        elif kind == "resize" and isinstance(value, list):
            parent[key] = value[:-1] if data.draw(st.booleans(), label="shrink") \
                else value + value[-1:]
    return box.get("doc", {})


class _FullSizeModel(Exception):
    """Raised in place of building a model of a preset's full size."""


def _tiny_models_only(cfg, rng, build=SpectralCubeAutoencoder):
    # a mutant that drops the tiny preset selects `base`: a valid config, but
    # 86M parameters would cost seconds and a gigabyte to fill and train; an
    # unfilled build writes no weight, so it sizes the config for free
    if SpectralCubeAutoencoder(cfg, None).parameters().total_size() > 10 ** 6:
        raise _FullSizeModel
    return build(cfg, rng)


def _portable_manifest(path):
    """The manifest doc at `path` with raster paths that resolve from any directory."""
    doc = json.loads(open(path).read())
    doc["samples"] = [{k: str(path.parent / v) if k == "raster" else v for k, v in s.items()}
                      for s in doc["samples"]]
    return doc


@pytest.mark.parametrize("command", ["pretrain", "finetune", "synth", "manifest"])
@settings(max_examples=50, deadline=None)
@given(data=st.data())
def test_mutated_config_runs_or_is_one_error_line(tmp_path_factory, datasets, command, data):
    run = tmp_path_factory.mktemp("config-fuzz")
    if command == "manifest":  # the dataset manifest of a valid finetune config
        manifest = _mutate(_portable_manifest(datasets["classify"]), data)
        command, doc = "finetune", _valid_docs(datasets)["finetune"]
        doc["dataset"]["manifest"] = _write_json(run / "manifest.json", manifest)
    else:
        doc = _mutate(_valid_docs(datasets)[command], data)
    with pytest.MonkeyPatch.context() as patch, \
            contextlib.redirect_stderr(io.StringIO()) as stderr:
        patch.setattr(model_module, "SpectralCubeAutoencoder", _tiny_models_only)
        try:
            code = _run(command, doc, run / "c.json", run / "o")
        except _FullSizeModel:
            code = 0  # the config was read and accepted
    err = stderr.getvalue()
    assert code == 0 or (code == 2 and err.startswith("error: ") and err.count("\n") == 1)


@pytest.mark.parametrize("command", ["pretrain", "finetune"])
def test_resolved_config_reproduces_the_run(tmp_path, datasets, command):
    # a relative manifest, a preset, and a flag that overrides the config
    doc = _valid_docs(datasets)[command]
    section = doc["stages"][0] if command == "pretrain" else doc["dataset"]
    section["manifest"] = os.path.relpath(section["manifest"], tmp_path)
    flags = ["--seed", "9"] + (["--train-fraction", "0.5"] if command == "finetune" else [])
    argv = [command] + (["--task", "classify"] if command == "finetune" else [])
    first, again = tmp_path / "first", tmp_path / "again"
    assert main(argv + ["--config", _write_json(tmp_path / "c.json", doc),
                        "--out", str(first)] + flags) == 0
    assert main(argv + ["--config", str(first / "config.resolved.json"),
                        "--out", str(again)]) == 0
    names = sorted(os.listdir(first))
    assert names == sorted(os.listdir(again))
    assert {"config.resolved.json", "train_log.jsonl" if command == "pretrain"
            else "metrics.json"} <= set(names)
    for name in names:
        assert (first / name).read_bytes() == (again / name).read_bytes(), name


# ---------------------------------------------------------------- reconstruct

def _twelve_band_setup(tmp_path):
    manifest = _synth(tmp_path, "bands12", task="pretrain", bands=12, n_images=4,
                      height=16, width=16)
    cfg = ModelConfig.tiny(max_grid=(2, 2, 4))
    model = SpectralCubeAutoencoder(cfg, CounterRng(0))
    ckpt_path = tmp_path / "model.spck"
    save_checkpoint(snapshot_model(model, None, (0, 0)), ckpt_path)
    raster = json.loads(open(manifest).read())["samples"][0]["raster"]
    raster_path = manifest.parent / raster
    return ckpt_path, raster_path


def test_reconstruct_emits_p6_for_every_preset(tmp_path):
    ckpt, raster = _twelve_band_setup(tmp_path)
    out = tmp_path / "rec"
    assert main(["reconstruct", "--checkpoint", str(ckpt), "--raster", str(raster),
                 "--ratios", "0.5,0.9", "--preset", "all", "--out", str(out),
                 "--seed", "1"]) == 0
    files = os.listdir(out)
    for preset in PRESETS:
        for ratio_tag in ("r50", "r90"):
            assert f"recon_{ratio_tag}_{preset}_composite.ppm" in files
            assert f"recon_{ratio_tag}_{preset}_pure.ppm" in files
    sample = out / "recon_r50_ndvi_composite.ppm"
    assert sample.read_bytes()[:2] == b"P6"
    img = read_ppm(sample)
    assert img.shape == (16, 16, 3)


def test_reconstruct_ratio_zero_composite_is_input(tmp_path):
    ckpt, raster = _twelve_band_setup(tmp_path)
    out = tmp_path / "rec0"
    assert main(["reconstruct", "--checkpoint", str(ckpt), "--raster", str(raster),
                 "--ratios", "0.0", "--preset", "ndvi", "--out", str(out)]) == 0
    record = json.loads((out / "reconstruction_mse.jsonl").read_text().splitlines()[0])
    assert record["composite_mse"] == 0.0
    assert record["masked_mse"] == 0.0


@pytest.mark.parametrize("with_manifest", [True, False])
def test_reconstruct_input_scaling(tmp_path, monkeypatch, with_manifest):
    # with --manifest the raster is scaled by the dataset band range the
    # model was trained with; without it, by the raster's own range
    import spectralmae.tokenizer as tokenizer
    from spectralmae.manifest import load_manifest
    from spectralmae.raster import normalize_bands, read_raster

    ckpt, raster = _twelve_band_setup(tmp_path)
    manifest = tmp_path / "bands12" / "manifest.json"
    seen = []
    patchify = tokenizer.patchify

    def capturing(img, p, k):
        seen.append(img.values.copy())
        return patchify(img, p, k)

    monkeypatch.setattr(tokenizer, "patchify", capturing)
    extra = ["--manifest", str(manifest)] if with_manifest else []
    assert main(["reconstruct", "--checkpoint", str(ckpt), "--raster", str(raster),
                 "--ratios", "0.5", "--preset", "ndvi", "--out", str(tmp_path / "rec")]
                + extra) == 0
    raw = read_raster(raster)
    flat = raw.values.reshape(-1, raw.bands)
    own = normalize_bands(raw, flat.min(axis=0), flat.max(axis=0)).values
    man = load_manifest(manifest)
    dataset = normalize_bands(raw, man.band_min, man.band_max).values
    assert not np.array_equal(own, dataset)  # the two scalings differ on this raster
    assert len(seen) == 1
    assert np.array_equal(seen[0], dataset if with_manifest else own)


def test_reconstruct_unknown_preset_rejected(tmp_path):
    ckpt, raster = _twelve_band_setup(tmp_path)
    assert main(["reconstruct", "--checkpoint", str(ckpt), "--raster", str(raster),
                 "--preset", "sepia", "--out", str(tmp_path / "x")]) != 0


def test_reconstruct_missing_band_rejected(tmp_path, capsys):
    manifest = _synth(tmp_path, "b6", task="pretrain", bands=6, n_images=2)
    cfg = ModelConfig.tiny(max_grid=(2, 2, 2))
    model = SpectralCubeAutoencoder(cfg, CounterRng(0))
    ckpt = tmp_path / "m6.spck"
    save_checkpoint(snapshot_model(model, None, (0, 0)), ckpt)
    raster = manifest.parent / json.loads(open(manifest).read())["samples"][0]["raster"]
    # "all" is the default; its run names no checkpoint file, which is never opened
    for preset, checkpoint in (("ndvi", ckpt), ("all", tmp_path / "absent.spck")):
        out = tmp_path / f"x_{preset}"
        assert main(["reconstruct", "--checkpoint", str(checkpoint), "--raster", str(raster),
                     "--preset", preset, "--out", str(out)]) == 2
        assert "not present in raster" in capsys.readouterr().err
        assert not out.exists()  # rejected before --out, config.resolved.json or a record


def test_manifest_without_band_stats_is_one_error_for_pretrain_and_reconstruct(tmp_path, capsys):
    ckpt, raster = _twelve_band_setup(tmp_path)
    manifest = tmp_path / "bands12" / "manifest.json"
    doc = json.loads(manifest.read_text())
    _write_json(manifest, {**doc, "band_mean": [], "band_std": []})
    config = _pretrain_config(tmp_path, manifest, objective={"target_mode": "standardized"},
                              model={"preset": "tiny", "max_grid": [2, 2, 4]})
    errors = []
    for argv in (["pretrain", "--config", config, "--out", str(tmp_path / "pre")],
                 ["reconstruct", "--checkpoint", str(ckpt), "--raster", str(raster),
                  "--target-mode", "standardized", "--manifest", str(manifest),
                  "--ratios", "0.5", "--preset", "ndvi", "--out", str(tmp_path / "rec")]):
        capsys.readouterr()
        assert main(argv) == 2
        errors.append(capsys.readouterr().err)
    assert errors == ["error: standardized target mode needs per-band mean/std stats\n"] * 2


@pytest.mark.parametrize("missing", ["--checkpoint", "--raster"])
def test_reconstruct_missing_input_file_is_one_error_line(tmp_path, capsys, missing):
    ckpt, raster = _twelve_band_setup(tmp_path)
    inputs = {"--checkpoint": str(ckpt), "--raster": str(raster)}
    inputs[missing] = str(tmp_path / "nope")
    argv = ["reconstruct"] + [x for pair in inputs.items() for x in pair]
    assert main(argv + ["--out", str(tmp_path / "x")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "nope" in err and err.count("\n") == 1


# ---------------------------------------------------------------- restoring

RESTORING = ["resume", "finetune", "eval", "reconstruct"]


def _restoring_command(tmp_path, site):
    """argv of a command that builds its model from a checkpoint, and that checkpoint."""
    if site == "resume":
        config, mid, part = _interrupted_pretraining(tmp_path)
        return ["pretrain", "--config", config, "--out", str(part), "--resume", str(mid)], mid
    if site == "reconstruct":
        ckpt, raster = _twelve_band_setup(tmp_path)
        return ["reconstruct", "--checkpoint", str(ckpt), "--raster", str(raster),
                "--ratios", "0.5", "--preset", "ndvi", "--out", str(tmp_path / "rec")], ckpt
    task = ["--task", "classify", "--config",
            _finetune_config(tmp_path, _synth(tmp_path, task="classify", n_images=8))]
    if site == "finetune":
        ckpt = tmp_path / "m.spck"
        model = SpectralCubeAutoencoder(ModelConfig.tiny(max_grid=(2, 2, 2)), CounterRng(0))
        save_checkpoint(snapshot_model(model, None, (0, 0)), ckpt)
        return ["finetune", *task, "--checkpoint", str(ckpt), "--out", str(tmp_path / "ft")], ckpt
    assert main(["finetune", *task, "--out", str(tmp_path / "ft")]) == 0
    ckpt = tmp_path / "ft" / "checkpoint_finetuned.spck"  # the encoder and the head
    return ["eval", *task, "--checkpoint", str(ckpt), "--out", str(tmp_path / "ev")], ckpt


@pytest.mark.parametrize("site", RESTORING)
def test_restored_model_draws_no_init_and_holds_the_checkpoint(tmp_path, monkeypatch, site):
    import spectralmae.checkpoint as checkpoint

    argv, ckpt_path = _restoring_command(tmp_path, site)
    draw, restore = CounterRng.truncated_normal_array, checkpoint.restore_into
    restored = {}

    def no_draw(*args, **kwargs):
        raise AssertionError("a model built to be restored drew an init")

    def restore_then_allow_draws(tensors, params):
        restore(tensors, params)
        restored.update((name, p.data.copy()) for name, p in params.items())
        monkeypatch.setattr(CounterRng, "truncated_normal_array", draw)

    # no draw until the restore: building the model (and eval's head) draws
    # nothing; the fresh head a finetune makes afterwards still does
    monkeypatch.setattr(CounterRng, "truncated_normal_array", no_draw)
    monkeypatch.setattr(checkpoint, "restore_into", restore_then_allow_draws)
    assert main(argv) == 0
    saved = load_checkpoint(ckpt_path).params
    assert restored.keys() == saved.keys()
    for name, arr in saved.items():
        assert restored[name].dtype == arr.dtype, name
        assert restored[name].tobytes() == arr.tobytes(), name


@pytest.mark.parametrize("change", ["missing", "extra"])
@pytest.mark.parametrize("site", RESTORING)
def test_checkpoint_parameter_mismatch_is_one_error_line(tmp_path, capsys, site, change):
    argv, ckpt_path = _restoring_command(tmp_path, site)
    ckpt = load_checkpoint(ckpt_path)
    if change == "missing":
        name = list(ckpt.params)[-1]  # for eval, a head parameter
        del ckpt.params[name]
    else:
        name = "extra.weight"
        ckpt.params[name] = np.zeros(3, np.float32)
    save_checkpoint(ckpt, ckpt_path)
    capsys.readouterr()
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: parameter name mismatch: ") and err.count("\n") == 1
    assert repr(name) in err


@pytest.mark.parametrize("site", RESTORING)
def test_restoring_command_releases_the_checkpoint(tmp_path, monkeypatch, site):
    # once restored, the model's parameters (and a resumed run's optimizer)
    # are the only copy of the weights (and moments) the command holds while
    # it trains or runs its forwards
    import weakref

    import spectralmae.checkpoint as checkpoint
    import spectralmae.tensor as tensor_mod

    argv, _ = _restoring_command(tmp_path, site)
    load, attention = checkpoint.load_checkpoint, tensor_mod.attention
    loaded, alive = [], []

    def load_and_watch(path):
        ckpt = load(path)
        loaded.extend([weakref.ref(ckpt), weakref.ref(next(iter(ckpt.params.values())))])
        if ckpt.optimizer is not None:  # the resume is part-way through a stage
            loaded.append(weakref.ref(next(iter(ckpt.optimizer.m.values()))))
        return ckpt

    def watched_attention(*args):
        alive.extend(ref() is not None for ref in loaded)
        return attention(*args)

    monkeypatch.setattr(checkpoint, "load_checkpoint", load_and_watch)
    monkeypatch.setattr(tensor_mod, "attention", watched_attention)
    assert main(argv) == 0
    assert len(loaded) == (3 if site == "resume" else 2) and alive and not any(alive)


# ---------------------------------------------------------------- gradcheck

def test_gradcheck_default_passes(capsys):
    assert main(["gradcheck"]) == 0
    out = capsys.readouterr().out
    assert "model+objective" in out and "ok" in out


def _scale_backward(monkeypatch, op):
    import spectralmae.tensor as tensor_mod

    original = getattr(tensor_mod, op)

    def broken(*args):
        out = original(*args)
        if out._backward is not None:
            orig_backward = out._backward
            out._backward = lambda g: orig_backward(g * 1.5)
        return out

    monkeypatch.setattr(tensor_mod, op, broken)


def test_gradcheck_detects_broken_backward(monkeypatch, capsys):
    _scale_backward(monkeypatch, "gelu")
    assert main(["gradcheck"]) == 1


def test_gradcheck_detects_broken_attention_backward(monkeypatch, capsys):
    _scale_backward(monkeypatch, "attention")
    assert main(["gradcheck"]) == 1
    lines = dict(line.split(": ", 1) for line in capsys.readouterr().out.splitlines())
    assert "FAIL" in lines["numerics"]


def _tensor_ops_called(monkeypatch, run) -> set:
    """Names of the public `tensor` functions that `run()` calls, directly or inside another op."""
    import inspect

    import spectralmae.tensor as tensor_mod

    called = set()
    with monkeypatch.context() as m:
        for name, op in vars(tensor_mod).copy().items():
            if inspect.isfunction(op) and op.__module__ == tensor_mod.__name__ \
                    and not name.startswith("_"):
                def recording(*args, _name=name, _op=op, **kwargs):
                    called.add(_name)
                    return _op(*args, **kwargs)
                m.setattr(tensor_mod, name, recording)
        run()
    return called


def _program_steps():
    """A tiny pretraining step under each token-loss scope, then each fine-tuning
    task's forward, loss and backward on a batch of two."""
    from spectralmae.finetune import TASKS
    from spectralmae.heads import ChangeHead, ClassifierHead, SegmentationHead
    from spectralmae.objective import TOKEN_SCOPES, ObjectiveConfig
    from spectralmae.tokenizer import SpectralImage
    from spectralmae.training import PretrainStage, pretrain_stage

    cfg = ModelConfig.tiny()
    model = SpectralCubeAutoencoder(cfg, CounterRng(0))
    side, bands = 2 * cfg.p, 2 * cfg.k
    rng = CounterRng(1)
    images = [SpectralImage(rng.child(i).uniform_array((side, side, bands)),
                            [f"B{b + 1}" for b in range(bands)]) for i in range(2)]
    for scope in TOKEN_SCOPES:
        stage = PretrainStage(images=images, epochs=1, base_lr=1e-3, batch_size=2)
        pretrain_stage(model, ObjectiveConfig(token_loss_scope=scope), stage, CounterRng(2))
    mask = np.zeros((side, side), np.int64)
    mask[:, side // 2:] = 1
    cases = {
        "classify": (ClassifierHead(cfg.embed_dim, 8, 2, CounterRng(3)),
                     [(images[0], 0), (images[1], 1)]),
        "multilabel": (ClassifierHead(cfg.embed_dim, 8, 3, CounterRng(3)),
                       [(img, np.array([0, 1, 1])) for img in images]),
        "segment": (SegmentationHead(cfg.embed_dim, 2, cfg.p, 2, CounterRng(3)),
                    [(img, mask) for img in images]),
        "change": (ChangeHead(cfg.embed_dim, 2, cfg.p, CounterRng(3)),
                   [(images[0], images[1], mask), (images[1], images[0], mask)]),
    }
    assert set(cases) == set(TASKS)
    for task, (head, batch) in cases.items():
        TASKS[task].loss(TASKS[task].forward(model, head, batch), batch).backward()


def test_gradcheck_covers_every_op_the_program_runs(monkeypatch, capsys):
    checked = _tensor_ops_called(monkeypatch, lambda: main(["gradcheck"]))
    run = _tensor_ops_called(monkeypatch, _program_steps)
    assert run - checked == set()
    assert "attention" in run and "abs_val" in run  # the recording sees the model and heads


def test_gradcheck_eps_out_of_range():
    assert main(["gradcheck", "--eps", "0.5"]) != 0


def _threads_after(lines):
    """Run `lines` in a fresh interpreter without BLAS thread variables; its
    last statement stores a JSON-able dict in `result`, returned with the
    process's thread count at the end."""
    import subprocess
    import sys

    if not os.path.exists("/proc/self/status"):
        pytest.skip("reads the thread count from /proc")
    script = "\n".join([
        "import json, sys",
        *lines,
        "threads = [l for l in open('/proc/self/status') if l.startswith('Threads:')]",
        "print(json.dumps({**result, 'threads': int(threads[0].split()[1])}))",
    ])
    blas_vars = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
    env = {k: v for k, v in os.environ.items() if k not in blas_vars}
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env.update(PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                         text=True, timeout=60, check=True)
    return json.loads(out.stdout.strip().splitlines()[-1])


def test_cli_pins_blas_to_one_thread():
    # the entry import must leave numpy unloaded so the CLI's one-thread pin reaches BLAS
    result = _threads_after([
        "from spectralmae.cli import main",
        "early = 'numpy' in sys.modules",
        "code = main(['gradcheck', '--eps', '1'])  # loads numpy, then rejects --eps",
        "result = {'early': early, 'code': code, 'numpy': 'numpy' in sys.modules}",
    ])
    assert result == {"early": False, "code": 2, "numpy": True, "threads": 1}


def test_long_slice_pretrain_starts_no_thread(tmp_path):
    # 72 x 72 x 12 images are 324 tokens of the tiny preset, so each
    # decoder call has two long slices per image
    manifest = _synth(tmp_path, task="pretrain", height=72, width=72, bands=12, n_images=4)
    config = _pretrain_config(tmp_path, manifest, model={"preset": "tiny", "decoder_heads": 2,
                                                         "max_grid": [9, 9, 4]})
    argv = ["pretrain", "--config", config, "--out", str(tmp_path / "run")]
    result = _threads_after([
        "import contextlib, io",
        "from spectralmae.cli import main",
        "with contextlib.redirect_stdout(io.StringIO()):",
        f"    result = {{'code': main({argv!r})}}",
    ])
    assert result == {"code": 0, "threads": 1}


def test_main_keeps_freed_memory_in_the_heap(tmp_path):
    # glibc would otherwise hand these arrays back on free and fault them in again
    import ctypes
    import subprocess
    import sys

    if not hasattr(ctypes.CDLL(None), "mallopt"):
        pytest.skip("libc has no mallopt")
    spec = _write_json(tmp_path / "spec.json", dict(height=16, width=16, bands=6, classes=2,
                                                    n_images=4, seed=3))
    script = "\n".join([
        "import resource, sys",
        "import numpy as np",
        "from spectralmae.cli import main",
        f"assert main(['synth', '--spec', {spec!r}, '--task', 'classify',",
        f"             '--out', {str(tmp_path / 'ds')!r}]) == 0",
        "def churn(rounds):",
        "    for _ in range(rounds):",
        "        for size in (2 << 20, 3 << 20):  # four live arrays, then all freed",
        "            held = [np.ones(size, np.uint8) for _ in range(4)]",
        "            del held",
        "churn(3)",
        "before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt",
        "churn(20)",
        "print((resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before) / 20)",
    ])
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    out = subprocess.run([sys.executable, "-c", script], env={**os.environ, "PYTHONPATH": src},
                         capture_output=True, text=True, timeout=60, check=True)
    faults_per_round = float(out.stdout.strip().splitlines()[-1])
    assert faults_per_round < 50  # about 4500 (20 MB re-faulted) without the pin
