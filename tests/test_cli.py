import json
import os

from spectralmae.cli import main
from spectralmae.checkpoint import save_checkpoint, snapshot_model
from spectralmae.model import ModelConfig, SpectralCubeAutoencoder
from spectralmae.preview import PRESETS, read_ppm
from spectralmae.rng import CounterRng


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


def test_pretrain_negative_lambda_rejected_before_training(tmp_path, capsys):
    manifest = _synth(tmp_path, task="pretrain")
    config = _pretrain_config(tmp_path, manifest,
                              objective={"lam": -0.5})
    out = tmp_path / "run"
    assert main(["pretrain", "--config", config, "--out", str(out)]) != 0
    assert not (out / "checkpoint_final.spck").exists()


def test_pretrain_unknown_config_key_named(tmp_path, capsys):
    manifest = _synth(tmp_path, task="pretrain")
    config = _pretrain_config(tmp_path, manifest, typo_section={"x": 1})
    assert main(["pretrain", "--config", config, "--out", str(tmp_path / "o")]) != 0
    assert "typo_section" in capsys.readouterr().err


def test_pretrain_resume_reproduces_trace(tmp_path):
    from spectralmae.manifest import load_manifest
    from spectralmae.objective import ObjectiveConfig
    from spectralmae.raster import normalize_bands, read_raster
    from spectralmae.training import PretrainStage, pretrain_stage

    manifest = _synth(tmp_path, task="pretrain", n_images=8)
    doc = json.loads(open(_pretrain_config(tmp_path, manifest)).read())
    doc["stages"][0]["epochs"] = 4
    config = _write_json(tmp_path / "c4.json", doc)

    full = tmp_path / "full"
    assert main(["pretrain", "--config", config, "--out", str(full)]) == 0
    full_lines = (full / "train_log.jsonl").read_text().strip().splitlines()
    assert len(full_lines) == 4

    # replay the first 2 epochs with the training API under the CLI's keys,
    # snapshot (the state an interrupted run would have left), then resume
    man = load_manifest(manifest)
    images = [normalize_bands(read_raster(s["raster"]), man.band_min, man.band_max)
              for s in man.samples]
    stage = PretrainStage(images=images, epochs=4, base_lr=1e-3, batch_size=4,
                          mask_ratio=0.5)
    model = SpectralCubeAutoencoder(ModelConfig.tiny(max_grid=(2, 2, 2)), CounterRng(5))
    rng = CounterRng(5)
    records, opt = pretrain_stage(model, ObjectiveConfig(), stage, rng, end_epoch=2)
    mid = tmp_path / "mid.spck"
    save_checkpoint(snapshot_model(model, opt, rng.state(), stage=0, epoch=2), mid)

    part = tmp_path / "part"
    os.makedirs(part)
    (part / "train_log.jsonl").write_text(
        "\n".join(r.to_json() for r in records) + "\n")
    assert main(["pretrain", "--config", config, "--out", str(part),
                 "--resume", str(mid)]) == 0
    part_lines = (part / "train_log.jsonl").read_text().strip().splitlines()
    assert part_lines == full_lines


def test_progressive_two_stages(tmp_path):
    small = _synth(tmp_path, "small", task="pretrain", height=16, width=16, n_images=8)
    large = _synth(tmp_path, "large", task="pretrain", height=32, width=32, n_images=8)
    doc = {
        "seed": 7,
        "model": {"preset": "tiny", "max_grid": [2, 2, 2]},
        "objective": {},
        "stages": [
            {"manifest": str(small), "epochs": 1, "base_lr": 1e-3, "batch_size": 4,
             "mask_ratio": 0.5},
            {"manifest": str(large), "epochs": 1, "base_lr": 1e-3, "batch_size": 4,
             "mask_ratio": 0.5},
        ],
    }
    config = _write_json(tmp_path / "prog.json", doc)
    out = tmp_path / "prog"
    assert main(["progressive", "--config", config, "--out", str(out)]) == 0
    lines = [json.loads(l) for l in (out / "train_log.jsonl").read_text().splitlines()]
    assert [l["stage"] for l in lines] == [0, 1]


# ---------------------------------------------------------------- finetune / eval

def _finetune_config(tmp_path, manifest):
    doc = {
        "seed": 11,
        "model": {"preset": "tiny", "max_grid": [2, 2, 2]},
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


def test_model_drop_path_key_rejected(tmp_path, capsys):
    manifest = _synth(tmp_path, task="pretrain")
    config = _pretrain_config(tmp_path, manifest,
                              model={"preset": "tiny", "drop_path": 0.1})
    assert main(["pretrain", "--config", config, "--out", str(tmp_path / "o")]) == 2
    assert "model.drop_path" in capsys.readouterr().err


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


def test_reconstruct_unknown_preset_rejected(tmp_path):
    ckpt, raster = _twelve_band_setup(tmp_path)
    assert main(["reconstruct", "--checkpoint", str(ckpt), "--raster", str(raster),
                 "--preset", "sepia", "--out", str(tmp_path / "x")]) != 0


def test_reconstruct_missing_band_rejected(tmp_path):
    manifest = _synth(tmp_path, "b6", task="pretrain", bands=6, n_images=2)
    cfg = ModelConfig.tiny(max_grid=(2, 2, 2))
    model = SpectralCubeAutoencoder(cfg, CounterRng(0))
    ckpt = tmp_path / "m6.spck"
    save_checkpoint(snapshot_model(model, None, (0, 0)), ckpt)
    raster = manifest.parent / json.loads(open(manifest).read())["samples"][0]["raster"]
    assert main(["reconstruct", "--checkpoint", str(ckpt), "--raster", str(raster),
                 "--preset", "ndvi", "--out", str(tmp_path / "x")]) != 0


# ---------------------------------------------------------------- gradcheck

def test_gradcheck_default_passes(capsys):
    assert main(["gradcheck"]) == 0
    out = capsys.readouterr().out
    assert "model+objective" in out and "ok" in out


def test_gradcheck_detects_broken_backward(monkeypatch, capsys):
    import spectralmae.tensor as tensor_mod

    original = tensor_mod.gelu

    def broken(a):
        out = original(a)
        if out._backward is not None:
            orig_backward = out._backward
            out._backward = lambda g: orig_backward(g * 1.5)
        return out

    monkeypatch.setattr(tensor_mod, "gelu", broken)
    assert main(["gradcheck"]) == 1


def test_gradcheck_eps_out_of_range():
    assert main(["gradcheck", "--eps", "0.5"]) != 0
