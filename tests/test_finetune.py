import json

import pytest

from spectralmae.cli import main as cli_main
from spectralmae.errors import ConfigError, DataError
from spectralmae.finetune import (FinetuneConfig, change_detect, finetune_classify,
                                  finetune_multilabel, segment, tile_starts)
from spectralmae.metrics import macro_map, micro_map
from spectralmae.model import ModelConfig, SpectralCubeAutoencoder
from spectralmae.rng import CounterRng
from spectralmae.synthetic import SyntheticSpec, generate_synthetic


def _model(seed=0, max_grid=(4, 4, 2)):
    return SpectralCubeAutoencoder(ModelConfig.tiny(max_grid=max_grid), CounterRng(seed))


def test_tile_starts_half_overlap():
    assert tile_starts(32, 16) == [0, 8, 16]
    assert tile_starts(16, 16) == [0]
    assert tile_starts(24, 16) == [0, 8]
    with pytest.raises(ConfigError):
        tile_starts(8, 16)


def test_finetune_classify_learns_separable_task(tmp_path):
    spec = SyntheticSpec(height=16, width=16, bands=6, classes=3, n_images=36,
                         noise_std=0.01, seed=1)
    manifest_path = generate_synthetic(spec, "classify", tmp_path / "ds")
    model = _model(max_grid=(2, 2, 2))
    cfg = FinetuneConfig(epochs=45, batch_size=6, lr=3e-3, seed=2)
    report = finetune_classify(model, manifest_path, cfg)
    assert report.task == "classify"
    assert report.values["accuracy"] >= 0.75  # 3 classes, chance is 1/3
    assert report.counts["train_used"] == 29  # round(0.8 * 36)
    # accuracy recomputable from exported scores
    scores, labels = report.extras["scores"], report.extras["labels"]
    assert report.values["accuracy"] == pytest.approx(
        float((scores.argmax(axis=1) == labels).mean()))


def test_finetune_classify_train_fraction_honored(tmp_path):
    spec = SyntheticSpec(height=16, width=16, bands=6, classes=2, n_images=30, seed=3)
    manifest_path = generate_synthetic(spec, "classify", tmp_path / "ds")
    model = _model()
    cfg = FinetuneConfig(epochs=1, batch_size=2, train_fraction=0.25, seed=4)
    report = finetune_classify(model, manifest_path, cfg)
    assert report.counts["train_used"] == int(0.25 * 24)


def test_finetune_multilabel_metrics_match_rescoring_oracle(tmp_path):
    spec = SyntheticSpec(height=16, width=16, bands=6, classes=3, n_images=30,
                         noise_std=0.02, seed=5)
    manifest_path = generate_synthetic(spec, "multilabel", tmp_path / "ds")
    model = _model(max_grid=(2, 2, 2))
    cfg = FinetuneConfig(epochs=4, batch_size=6, lr=2e-3, seed=6)
    report = finetune_multilabel(model, manifest_path, cfg)
    scores, labels = report.extras["scores"], report.extras["labels"]
    macro, _ = macro_map(scores, labels)
    assert report.values["macro_map"] == pytest.approx(macro, abs=1e-12)
    assert report.values["micro_map"] == pytest.approx(micro_map(scores, labels), abs=1e-12)
    assert 0.0 <= report.values["macro_map"] <= 1.0


def test_segment_full_image_crop(tmp_path):
    spec = SyntheticSpec(height=16, width=16, bands=6, classes=3, n_images=10,
                         noise_std=0.01, seed=7, regions=4)
    manifest_path = generate_synthetic(spec, "segment", tmp_path / "ds")
    model = _model(max_grid=(2, 2, 2))
    cfg = FinetuneConfig(epochs=3, batch_size=4, lr=2e-3, seed=8)
    report = segment(model, manifest_path, cfg)
    assert 0.0 <= report.values["overall_accuracy"] <= 1.0
    assert 0.0 <= report.values["mean_iou"] <= 1.0
    assert report.counts["val_pixels"] == 2 * 16 * 16


def test_segment_overlapping_crops_stitch(tmp_path):
    spec = SyntheticSpec(height=24, width=24, bands=6, classes=2, n_images=8,
                         noise_std=0.01, seed=9, regions=3)
    manifest_path = generate_synthetic(spec, "segment", tmp_path / "ds")
    model = _model(max_grid=(2, 2, 2))
    cfg = FinetuneConfig(epochs=2, batch_size=4, lr=2e-3, seed=10, crop=16)
    report = segment(model, manifest_path, cfg)
    assert report.counts["val_pixels"] == 2 * 24 * 24  # stitched to full size


def test_change_detect_reports_prf(tmp_path):
    spec = SyntheticSpec(height=16, width=16, bands=6, classes=3, n_images=10,
                         noise_std=0.01, seed=11)
    manifest_path = generate_synthetic(spec, "change", tmp_path / "ds")
    model = _model(max_grid=(2, 2, 2))
    cfg = FinetuneConfig(epochs=3, batch_size=4, lr=2e-3, seed=12)
    report = change_detect(model, manifest_path, cfg)
    for key in ("precision", "recall", "f1"):
        assert 0.0 <= report.values[key] <= 1.0
    counts = report.counts
    assert counts["tp"] + counts["fp"] + counts["fn"] + counts["tn"] == 2 * 16 * 16


def test_report_json_serializable(tmp_path):
    spec = SyntheticSpec(height=16, width=16, bands=6, classes=2, n_images=10, seed=13)
    manifest_path = generate_synthetic(spec, "classify", tmp_path / "ds")
    model = _model()
    report = finetune_classify(model, manifest_path,
                               FinetuneConfig(epochs=1, batch_size=2, seed=14))
    parsed = json.loads(report.to_json())
    assert parsed["task"] == "classify"
    assert "accuracy" in parsed["values"]


ENTRIES = {"classify": finetune_classify, "multilabel": finetune_multilabel,
           "segment": segment, "change": change_detect}


def _empty_manifest(tmp_path, task):
    """A manifest with no samples beside a populated one."""
    spec = SyntheticSpec(height=16, width=16, bands=6, classes=2, n_images=4, seed=15)
    full_path = generate_synthetic(spec, task, tmp_path / "ds")
    doc = json.loads(open(full_path).read())
    doc["samples"] = []
    empty_path = tmp_path / "ds" / "empty.json"
    empty_path.write_text(json.dumps(doc))
    return str(empty_path), full_path


@pytest.mark.parametrize("task", sorted(ENTRIES))
def test_empty_split_is_data_error(tmp_path, capsys, task):
    empty_path, full_path = _empty_manifest(tmp_path, task)
    cfg = FinetuneConfig(epochs=1, batch_size=2, seed=16)
    with pytest.raises(DataError, match="training split is empty"):
        ENTRIES[task](_model(max_grid=(2, 2, 2)), empty_path, cfg, full_path)
    with pytest.raises(DataError, match="validation manifest has no samples"):
        ENTRIES[task](_model(max_grid=(2, 2, 2)), full_path, cfg, empty_path)
    config = tmp_path / "ft.json"
    config.write_text(json.dumps({
        "seed": 16, "model": {"preset": "tiny", "max_grid": [2, 2, 2]},
        "finetune": {"epochs": 1, "batch_size": 2},
        "dataset": {"manifest": empty_path, "val_manifest": full_path}}))
    assert cli_main(["finetune", "--task", task, "--config", str(config),
                     "--out", str(tmp_path / "out")]) == 2
    assert "training split is empty" in capsys.readouterr().err
