import json

import numpy as np
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


def test_finetune_leaves_the_decoder_alone_under_weight_decay(tmp_path):
    spec = SyntheticSpec(height=16, width=16, bands=6, classes=2, n_images=12, seed=3)
    manifest_path = generate_synthetic(spec, "classify", tmp_path / "ds")
    model = _model()
    before = {name: p.data.copy() for name, p in model.parameters().items()}
    encoder = set(model.encoder_parameters().names())
    assert encoder and not any(name.startswith(("dec.", "pos.decoder")) for name in encoder)
    finetune_classify(model, manifest_path,
                      FinetuneConfig(epochs=2, batch_size=4, weight_decay=0.1, seed=4))
    for name, p in model.parameters().items():
        unchanged = np.array_equal(p.data, before[name])
        assert unchanged == (name not in encoder), name


def test_stray_backward_before_finetune_leaves_the_run_unchanged(tmp_path):
    from spectralmae import tensor as T
    from spectralmae.finetune import _load_image
    from spectralmae.manifest import load_manifest

    spec = SyntheticSpec(height=16, width=16, bands=6, classes=2, n_images=12, seed=3)
    manifest_path = generate_synthetic(spec, "classify", tmp_path / "ds")
    manifest = load_manifest(manifest_path)
    image = _load_image(manifest, manifest.samples[0]["raster"])

    def run(stray):
        model = _model(max_grid=(2, 2, 2))
        if stray:  # leaves a gradient on every encoder parameter
            T.sum_all(model.forward_full(image)).backward()
            assert model.parameters()["patch_embed.weight"].grad.any()
        report = finetune_classify(model, manifest_path,
                                   FinetuneConfig(epochs=2, batch_size=4, seed=4))
        return report.to_json(), {name: p.data.tobytes()
                                  for name, p in model.parameters().items()}

    assert run(stray=True) == run(stray=False)


def test_finetune_of_a_restored_model_leaves_the_decoder_without_gradients(tmp_path):
    from spectralmae.checkpoint import (load_checkpoint, restore_model, save_checkpoint,
                                        snapshot_model)

    spec = SyntheticSpec(height=16, width=16, bands=6, classes=2, n_images=12, seed=3)
    manifest_path = generate_synthetic(spec, "classify", tmp_path / "ds")
    path = tmp_path / "m.spck"
    save_checkpoint(snapshot_model(_model(max_grid=(2, 2, 2)), None, (0, 0)), path)
    model = SpectralCubeAutoencoder(ModelConfig.tiny(max_grid=(2, 2, 2)), rng=None)
    restore_model(load_checkpoint(path), model)
    assert all(p.grad is None for p in model.parameters())
    finetune_classify(model, manifest_path, FinetuneConfig(epochs=1, batch_size=4, seed=4))
    encoder = set(model.encoder_parameters().names())
    for name, p in model.parameters().items():
        assert (p.grad is None) == (name not in encoder), name


def test_change_mask_outside_zero_one_is_data_error(tmp_path):
    from spectralmae.finetune import TASKS, eval_change, make_head
    from spectralmae.manifest import load_manifest

    spec = SyntheticSpec(height=16, width=16, bands=6, classes=2, n_images=4, seed=20)
    manifest = load_manifest(generate_synthetic(spec, "change", tmp_path / "ds"))
    val = TASKS["change"].load(manifest, manifest.samples[:2])
    model = _model(max_grid=(2, 2, 2))
    head = make_head("change", model, manifest, FinetuneConfig(seed=21))
    eval_change(model, head, val)
    val[1][2][0, 0] = 2
    with pytest.raises(DataError, match="ground truth"):
        eval_change(model, head, val)


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


# ---------------------------------------------------------------- one encoder graph per batch

def _per_sample_step(task, model, head, batch):
    """Reference: an encoder graph per image, as the batched steps must match."""
    from spectralmae import tensor as T
    from spectralmae.heads import (cross_entropy, multilabel_soft_margin,
                                   nll_from_log_probs)

    if task in ("classify", "multilabel"):
        logits = T.concat_rows([head.forward(model.forward_full(s[0])) for s in batch])
        if task == "classify":
            cross_entropy(logits, [label for _, label in batch]).backward()
        else:
            multilabel_soft_margin(logits, np.stack([lab for _, lab in batch])).backward()
    elif task == "segment":
        for sub, mask in batch:
            logits = head.forward(model.forward_full(sub), (sub.height, sub.width))
            T.scale(cross_entropy(logits, mask.reshape(-1)), 1.0 / len(batch)).backward()
    else:
        for a, b, mask in batch:
            logp = head.forward(model.forward_full(a), model.forward_full(b), (a.height, a.width))
            T.scale(nll_from_log_probs(logp, mask.reshape(-1)), 1.0 / len(batch)).backward()


@pytest.mark.parametrize("task", sorted(ENTRIES))
def test_batched_step_matches_per_sample_backward(tmp_path, task):
    from spectralmae.finetune import TASKS, make_head
    from spectralmae.heads import combine_params
    from spectralmae.manifest import load_manifest

    spec = SyntheticSpec(height=16, width=16, bands=6, classes=3, n_images=4, seed=17)
    manifest = load_manifest(generate_synthetic(spec, task, tmp_path / "ds"))
    batch = TASKS[task].load(manifest, manifest.samples[:3])
    model = SpectralCubeAutoencoder(ModelConfig.tiny(max_grid=(2, 2, 2), dtype="float64"),
                                    CounterRng(18))
    head = make_head(task, model, manifest, FinetuneConfig(seed=19))
    params = combine_params(model.parameters(), head.params)

    params.zero_grads()
    _per_sample_step(task, model, head, batch)
    expected = {name: p.grad.copy() for name, p in params.items()}
    params.zero_grads()
    TASKS[task].loss(TASKS[task].forward(model, head, batch), batch).backward()
    for name, p in params.items():
        # change's encoder norm bias cancels between a and b: exactly 0 per sample,
        # rounding-size in the batch, hence the absolute floor
        want = expected[name]
        assert np.linalg.norm(p.grad - want) <= 1e-6 * max(np.linalg.norm(want), 1e-12), name


def _per_image_report(task, model, head, val, crop, n_classes):
    """Reference: the values, counts and extras `evaluate` must report, from an
    encoder graph and a head forward per image (per crop, for segment)."""
    from spectralmae.metrics import (confusion_matrix, mean_iou, overall_accuracy,
                                     prf_from_counts)
    from spectralmae.tokenizer import SpectralImage

    if task in ("classify", "multilabel"):
        scores = np.concatenate([head.forward(model.forward_full(img)).data for img, _ in val])
        labels = np.asarray([label for _, label in val])
        if task == "classify":
            values = {"accuracy": float((scores.argmax(axis=1) == labels).mean())}
        else:
            values = {"macro_map": macro_map(scores, labels)[0],
                      "micro_map": micro_map(scores, labels)}
        return values, {"val": len(val)}, {"scores": scores, "labels": labels}
    if task == "segment":
        cm = np.zeros((n_classes, n_classes), np.int64)
        for img, mask in val:
            acc = np.zeros((img.height, img.width, n_classes))
            hits = np.zeros((img.height, img.width, 1))
            for y in tile_starts(img.height, crop):
                for x in tile_starts(img.width, crop):
                    sub = SpectralImage(img.values[y:y + crop, x:x + crop], img.band_names)
                    logits = head.forward(model.forward_full(sub), (crop, crop))
                    acc[y:y + crop, x:x + crop] += logits.data.reshape(crop, crop, n_classes)
                    hits[y:y + crop, x:x + crop] += 1.0
            cm += confusion_matrix((acc / hits).argmax(axis=2).reshape(-1), mask.reshape(-1),
                                   n_classes)
        return ({"overall_accuracy": overall_accuracy(cm), "mean_iou": mean_iou(cm)},
                {"val": len(val), "val_pixels": int(cm.sum())}, {"confusion": cm})
    cm = np.zeros((2, 2), np.int64)
    for a, b, mask in val:
        logp = head.forward(model.forward_full(a), model.forward_full(b), (a.height, a.width))
        cm += confusion_matrix(logp.data.argmax(axis=1), mask.reshape(-1), 2)
    tp, fp, fn, tn = (int(n) for n in (cm[1, 1], cm[0, 1], cm[1, 0], cm[0, 0]))
    precision, recall, f1, _ = prf_from_counts(tp, fp, fn)
    return ({"precision": precision, "recall": recall, "f1": f1},
            {"val": len(val), "tp": tp, "fp": fp, "fn": fn, "tn": tn}, {})


@pytest.mark.parametrize("task", sorted(ENTRIES))
def test_evaluate_matches_per_image_reference_bit_for_bit(tmp_path, task):
    from spectralmae.finetune import TASKS, evaluate, make_head
    from spectralmae.manifest import load_manifest

    spec = SyntheticSpec(height=24, width=24, bands=6, classes=3, n_images=5,
                         noise_std=0.01, seed=22, regions=3)
    manifest = load_manifest(generate_synthetic(spec, task, tmp_path / "ds"))
    val = TASKS[task].load(manifest, manifest.samples)
    model = _model(seed=23, max_grid=(3, 3, 2))
    cfg = FinetuneConfig(seed=24, crop=16)  # segment stitches four overlapping crops
    head = make_head(task, model, manifest, cfg)
    report = evaluate(task, model, head, manifest, val, cfg)
    expected = _per_image_report(task, model, head, val, 16, manifest.n_classes)
    np.testing.assert_equal((report.values, report.counts, report.extras), expected)


@pytest.mark.parametrize("task", ["segment", "change"])
@pytest.mark.parametrize("side", [24, 8])
def test_mask_of_another_size_than_its_image_is_data_error(tmp_path, task, side):
    from spectralmae.finetune import TASKS
    from spectralmae.manifest import load_manifest
    from spectralmae.raster import write_raster
    from spectralmae.tokenizer import SpectralImage

    spec = SyntheticSpec(height=16, width=16, bands=6, classes=2, n_images=3, seed=25)
    manifest = load_manifest(generate_synthetic(spec, task, tmp_path / "ds"))
    bad = manifest.samples[1]["mask"]
    write_raster(SpectralImage(np.zeros((side, side, 1), np.float32), ["mask"]), bad)
    with pytest.raises(DataError, match=f"mask {bad} is {side}x{side} pixels, its image 16x16"):
        TASKS[task].load(manifest, manifest.samples)


@pytest.mark.parametrize("task", ["segment", "change"])
@pytest.mark.parametrize("value", [-1.0, 2.0, 0.5, float("nan")])
def test_mask_value_not_a_class_id_is_data_error(tmp_path, task, value):
    # both tasks have two classes; change masks are 0/1 whatever the manifest says
    from spectralmae.finetune import TASKS
    from spectralmae.manifest import load_manifest
    from spectralmae.raster import read_raster, write_raster

    spec = SyntheticSpec(height=16, width=16, bands=6, classes=2, n_images=3, seed=26)
    manifest = load_manifest(generate_synthetic(spec, task, tmp_path / "ds"))
    TASKS[task].load(manifest, manifest.samples)
    bad = manifest.samples[1]["mask"]
    mask = read_raster(bad)
    mask.values[5, 3, 0] = value
    write_raster(mask, bad)
    with pytest.raises(DataError) as err:
        TASKS[task].load(manifest, manifest.samples)
    assert str(err.value) == f"mask {bad} holds {value:g}, not a class id in [0, 2)"
