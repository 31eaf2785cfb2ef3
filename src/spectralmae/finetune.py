"""End-to-end fine-tuning and evaluation for the four downstream tasks.

`TASKS` holds one record per task with only what differs between them.
One `finetune` loop normalizes bands to [0, 1] with the manifest's
dataset-level min/max, trains encoder + head jointly under AdamW with the
warmup/cosine schedule, and reports task metrics on the held-out split
through `evaluate`. Raw prediction scores ride along in `extras` so
metric values can be re-derived by independent oracles.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import tensor as T
from .errors import ConfigError, DataError, check_config
from .heads import (ChangeHead, ClassifierHead, SegmentationHead, combine_params,
                    cross_entropy, multilabel_soft_margin, nll_from_log_probs)
from .manifest import DatasetManifest, load_manifest, split, valid_split_fractions
from .metrics import (MetricsReport, confusion_matrix, iou_per_class, macro_map,
                      mean_iou, micro_map, overall_accuracy, prf_from_counts)
from .model import GridDims, SpectralCubeAutoencoder
from .optim import AdamW, Schedule, lr_at
from .raster import normalize_bands, read_raster
from .rng import CounterRng
from .tokenizer import SpectralImage


@dataclass
class FinetuneConfig:
    epochs: int = 30
    batch_size: int = 8
    lr: float = 2e-3
    weight_decay: float = 0.0
    seed: int = 0
    hidden: int = 64
    train_fraction: float = 1.0
    split_fractions: tuple[float, float] = (0.8, 0.2)
    crop: int | None = None
    warmup_frac: float = 0.1

    def __post_init__(self):
        check_config(
            (self.epochs >= 0, f"finetune epochs {self.epochs} must not be negative"),
            (self.batch_size >= 1, f"finetune batch_size {self.batch_size} must be positive"),
            (0.0 <= self.lr < math.inf, f"finetune lr {self.lr} must be finite and >= 0"),
            (0.0 <= self.weight_decay < math.inf,
             f"finetune weight_decay {self.weight_decay} must be finite and >= 0"),
            (self.hidden >= 1, f"finetune hidden {self.hidden} must be positive"),
            (0.0 < self.train_fraction <= 1.0,
             f"train fraction {self.train_fraction} outside (0, 1]"),
            (valid_split_fractions(self.split_fractions),
             f"finetune split_fractions {self.split_fractions} must be in (0, 1) and sum to 1"),
            (self.crop is None or self.crop >= 1,
             f"finetune crop {self.crop} must be positive or null"),
            (0.0 <= self.warmup_frac <= 1.0,
             f"finetune warmup_frac {self.warmup_frac} outside [0, 1]"))


def _load_image(manifest: DatasetManifest, path: str) -> SpectralImage:
    return normalize_bands(read_raster(path), manifest.band_min, manifest.band_max)


def _load_mask(path: str) -> np.ndarray:
    return read_raster(path).values[:, :, 0].astype(np.int64)


def resolve_splits(manifest, val_manifest, cfg: FinetuneConfig):
    """(train, val) manifests: a seeded split of `manifest` unless a val manifest is given."""
    if isinstance(manifest, str):
        manifest = load_manifest(manifest)
    if val_manifest is None:
        return split(manifest, cfg.split_fractions, manifest.split_seed)
    if isinstance(val_manifest, str):
        val_manifest = load_manifest(val_manifest)
    if not val_manifest.samples:
        raise DataError("validation manifest has no samples")
    return manifest, val_manifest


def _subset(samples: list, fraction: float, seed: int) -> list:
    if fraction == 1.0:
        return list(samples)
    count = int(fraction * len(samples))
    if count == 0:
        raise DataError(f"train fraction {fraction} selects no samples")
    keep = sorted(CounterRng(seed).child("fraction").permutation(len(samples))[:count].tolist())
    return [samples[i] for i in keep]


def _grid_dims(model: SpectralCubeAutoencoder, img: SpectralImage) -> GridDims:
    cfg = model.config
    return GridDims(img.height // cfg.p, img.width // cfg.p, img.bands // cfg.k)


# ---------------------------------------------------------------- loaders

def load_classify_samples(man: DatasetManifest, samples: list) -> list:
    return [(_load_image(man, s["raster"]), s["label"]) for s in samples]


def load_multilabel_samples(man: DatasetManifest, samples: list) -> list:
    return [(_load_image(man, s["raster"]), np.asarray(s["labels"], np.int64))
            for s in samples]


def load_segment_samples(man: DatasetManifest, samples: list) -> list:
    out = []
    for s in samples:
        img = _load_image(man, s["raster"])
        mask = _load_mask(s["mask"])
        if mask.max() >= man.n_classes:
            raise DataError(f"mask class id {mask.max()} >= {man.n_classes}")
        out.append((img, mask))
    return out


def load_change_samples(man: DatasetManifest, samples: list) -> list:
    out = []
    for s in samples:
        a = _load_image(man, s["raster_a"])
        b = _load_image(man, s["raster_b"])
        if a.values.shape != b.values.shape:
            raise DataError(f"pair size mismatch {a.values.shape} vs {b.values.shape}")
        out.append((a, b, _load_mask(s["mask"])))
    return out


# ---------------------------------------------------------------- minibatch steps
# One encoder graph per group of same-size images (`model.group_spans`), the
# head per sample on that sample's latent rows, and one backward of the
# minibatch's mean loss.

def _encode_batch(model, images: list) -> list[T.Tensor]:
    """Each image's latents, in order; a group of images shares one encoder graph."""
    out = []
    for span in model.group_spans(images):
        latents = model.forward_full(*images[span.start:span.stop])
        if len(span) == 1:
            out.append(latents)
            continue
        n = latents.shape[0] // len(span)
        out.extend(T.gather_rows(latents, np.arange(i * n, (i + 1) * n))
                   for i in range(len(span)))
    return out


def _mean(losses: list[T.Tensor]) -> T.Tensor:
    total = losses[0]
    for loss in losses[1:]:
        total = T.add(total, loss)
    return T.scale(total, 1.0 / len(losses))


def _batch_logits(model, head, batch: list) -> T.Tensor:
    latents = _encode_batch(model, [sample[0] for sample in batch])
    return T.concat_rows([head.forward(z) for z in latents])


def _classify_step(model, head, batch: list) -> None:
    cross_entropy(_batch_logits(model, head, batch), [label for _, label in batch]).backward()


def _multilabel_step(model, head, batch: list) -> None:
    targets = np.stack([labels for _, labels in batch])
    multilabel_soft_margin(_batch_logits(model, head, batch), targets).backward()


def _segment_step(model, head, batch: list) -> None:
    latents = _encode_batch(model, [sub for sub, _ in batch])
    _mean([cross_entropy(head.forward(z, _grid_dims(model, sub), (sub.height, sub.width)),
                         mask.reshape(-1))
           for z, (sub, mask) in zip(latents, batch)]).backward()


def _change_step(model, head, batch: list) -> None:
    latents = _encode_batch(model, [img for a, b, _ in batch for img in (a, b)])
    _mean([nll_from_log_probs(head.forward(latents[2 * i], latents[2 * i + 1],
                                           _grid_dims(model, a), (a.height, a.width)),
                              mask.reshape(-1))
           for i, (a, _, mask) in enumerate(batch)]).backward()


# ---------------------------------------------------------------- evaluation

def eval_classify(model, head, val: list) -> MetricsReport:
    scores = np.asarray([head.forward(model.forward_full(img)).data[0]
                         for img, _ in val])
    labels = np.asarray([label for _, label in val])
    accuracy = float((scores.argmax(axis=1) == labels).mean())
    return MetricsReport(
        task="classify", values={"accuracy": accuracy},
        counts={"val": len(val)},
        extras={"scores": scores, "labels": labels})


def eval_multilabel(model, head, val: list) -> MetricsReport:
    scores = np.concatenate([head.forward(model.forward_full(img)).data for img, _ in val])
    labels = np.stack([lab for _, lab in val])
    macro, skipped = macro_map(scores, labels)
    micro = micro_map(scores, labels)
    notes = [f"macro mAP skipped class {c}: no positives" for c in skipped]
    return MetricsReport(
        task="multilabel",
        values={"macro_map": macro, "micro_map": micro},
        counts={"val": len(val)}, notes=notes,
        extras={"scores": scores, "labels": labels})


def tile_starts(extent: int, crop: int) -> list[int]:
    """Crop origins with 50% overlap; the last tile is flush with the edge."""
    if crop > extent:
        raise ConfigError(f"crop {crop} larger than image extent {extent}")
    stride = max(1, crop // 2)
    starts = list(range(0, extent - crop + 1, stride))
    if starts[-1] != extent - crop:
        starts.append(extent - crop)
    return starts


def _crops(img: SpectralImage, mask: np.ndarray, crop: int):
    for y in tile_starts(img.height, crop):
        for x in tile_starts(img.width, crop):
            yield (y, x,
                   SpectralImage(img.values[y:y + crop, x:x + crop], img.band_names),
                   mask[y:y + crop, x:x + crop] if mask is not None else None)


def _crop_size(model, cfg: FinetuneConfig, samples: list) -> int:
    """The configured crop, else the shorter side of the first image."""
    crop = cfg.crop or min(samples[0][0].height, samples[0][0].width)
    if crop % model.config.p:
        raise ConfigError(f"crop {crop} not divisible by token size {model.config.p}")
    return crop


def _crop_pool(train: list, crop: int) -> list:
    return [(sub, sub_mask) for img, mask in train
            for _, _, sub, sub_mask in _crops(img, mask, crop)]


def _stitched_logits(model, head, img: SpectralImage, crop: int, classes: int) -> np.ndarray:
    """Average overlapping crop logits in logit space, then the caller argmaxes."""
    acc = np.zeros((img.height, img.width, classes), np.float64)
    hits = np.zeros((img.height, img.width, 1), np.float64)
    for y, x, sub, _ in _crops(img, None, crop):
        dims = _grid_dims(model, sub)
        logits = head.forward(model.forward_full(sub), dims, (crop, crop)).data
        acc[y:y + crop, x:x + crop] += logits.reshape(crop, crop, classes)
        hits[y:y + crop, x:x + crop] += 1.0
    return acc / hits


def eval_segment(model, head, val: list, crop: int, n_classes: int,
                 class_names: list[str] | None = None) -> MetricsReport:
    cm = np.zeros((n_classes, n_classes), np.int64)
    for img, mask in val:
        logits = _stitched_logits(model, head, img, crop, n_classes)
        pred = logits.argmax(axis=2)
        cm += confusion_matrix(pred.reshape(-1), mask.reshape(-1), n_classes)
    per_class = {class_names[c] if class_names else str(c):
                 {"iou": float("nan") if v is None else v}
                 for c, v in enumerate(iou_per_class(cm))}
    return MetricsReport(
        task="segment",
        values={"overall_accuracy": overall_accuracy(cm), "mean_iou": mean_iou(cm)},
        per_class=per_class,
        counts={"val": len(val), "val_pixels": int(cm.sum())},
        extras={"confusion": cm})


def eval_change(model, head, val: list) -> MetricsReport:
    cm = np.zeros((2, 2), np.int64)
    for a, bimg, mask in val:
        dims = _grid_dims(model, a)
        logp = head.forward(model.forward_full(a), model.forward_full(bimg),
                            dims, (a.height, a.width)).data
        cm += confusion_matrix(logp.argmax(axis=1), mask.reshape(-1), 2)
    tp, fp, fn, tn = (int(n) for n in (cm[1, 1], cm[0, 1], cm[1, 0], cm[0, 0]))
    precision, recall, f1, notes = prf_from_counts(tp, fp, fn)
    return MetricsReport(
        task="change",
        values={"precision": precision, "recall": recall, "f1": f1},
        counts={"val": len(val), "tp": tp, "fp": fp, "fn": fn, "tn": tn},
        notes=notes)


# ---------------------------------------------------------------- the task table

@dataclass(frozen=True)
class Task:
    """What one downstream task does differently from the others.

    load(manifest, samples) -> samples; step(model, head, batch) runs one
    minibatch forward and backward; evaluate(model, head, val, train manifest,
    cfg) -> report; pool(train, model, cfg) -> what each epoch's batches come from.
    """

    load: Callable
    step: Callable
    evaluate: Callable
    pool: Callable = lambda train, model, cfg: train


# Evaluation goes through the module-level eval_* names at call time, so a
# wrapper rebound onto one of them sees every call.
TASKS = {
    "classify": Task(load_classify_samples, _classify_step,
                     lambda model, head, val, man, cfg: eval_classify(model, head, val)),
    "multilabel": Task(load_multilabel_samples, _multilabel_step,
                       lambda model, head, val, man, cfg: eval_multilabel(model, head, val)),
    "segment": Task(load_segment_samples, _segment_step,
                    lambda model, head, val, man, cfg: eval_segment(
                        model, head, val, _crop_size(model, cfg, val), man.n_classes,
                        man.class_names),
                    pool=lambda train, model, cfg: _crop_pool(
                        train, _crop_size(model, cfg, train))),
    "change": Task(load_change_samples, _change_step,
                   lambda model, head, val, man, cfg: eval_change(model, head, val)),
}


def make_head(task: str, model: SpectralCubeAutoencoder, manifest: DatasetManifest,
              cfg: FinetuneConfig, unfilled: bool = False):
    """A freshly initialised head for `task`, sized from the model and the manifest.

    With `unfilled` its weights are allocated without values, for a
    checkpoint restore to write.
    """
    mc = model.config
    rng = None if unfilled else CounterRng(cfg.seed).child("head")
    if task in ("classify", "multilabel"):
        return ClassifierHead(mc.embed_dim, cfg.hidden, manifest.n_classes, rng, mc.np_dtype)
    gs = len(manifest.band_names) // mc.k
    if task == "segment":
        return SegmentationHead(mc.embed_dim, gs, manifest.n_classes, rng, mc.np_dtype)
    return ChangeHead(mc.embed_dim, gs, rng, mc.np_dtype)


def evaluate(task: str, model: SpectralCubeAutoencoder, head, manifest: DatasetManifest,
             val: list, cfg: FinetuneConfig) -> MetricsReport:
    """Task metrics of encoder + head over loaded validation samples."""
    return TASKS[task].evaluate(model, head, val, manifest, cfg)


def finetune(task: str, model: SpectralCubeAutoencoder, manifest, cfg: FinetuneConfig,
             val_manifest=None, head=None) -> MetricsReport:
    """Train encoder + head on `task`, then evaluate on the held-out split.

    Manifests may be paths; without a val manifest, `manifest` is split.
    """
    spec = TASKS[task]
    train_man, val_man = resolve_splits(manifest, val_manifest, cfg)
    samples = _subset(train_man.samples, cfg.train_fraction, cfg.seed)
    if not samples:
        raise DataError(f"{task} training split is empty")
    train = spec.load(train_man, samples)
    val = spec.load(val_man, val_man.samples)
    pool = spec.pool(train, model, cfg)
    head = head or make_head(task, model, train_man, cfg)
    # the decoder gets no gradient here, and decay must not shrink it
    params = combine_params(model.encoder_parameters(), head.params)
    order_rng = CounterRng(cfg.seed).child("order")
    batches = max(1, len(pool) // cfg.batch_size)
    total = cfg.epochs * batches
    sched = Schedule(int(cfg.warmup_frac * total), total, cfg.lr)
    opt = AdamW(params, base_lr=cfg.lr, weight_decay=cfg.weight_decay)
    for epoch in range(cfg.epochs):
        order = order_rng.child(epoch).permutation(len(pool))
        for b in range(batches):
            chosen = order[b * cfg.batch_size:(b + 1) * cfg.batch_size]
            spec.step(model, head, [pool[int(i)] for i in chosen])
            opt.step(lr_at(sched, epoch * batches + b))
    report = evaluate(task, model, head, train_man, val, cfg)
    report.counts["train_used"] = len(train)
    return report


# The traced benchmark run wraps these entry names; each is one call into `finetune`.

def finetune_classify(model, manifest, cfg, val_manifest=None, head=None) -> MetricsReport:
    return finetune("classify", model, manifest, cfg, val_manifest, head)


def finetune_multilabel(model, manifest, cfg, val_manifest=None, head=None) -> MetricsReport:
    return finetune("multilabel", model, manifest, cfg, val_manifest, head)


def segment(model, manifest, cfg, val_manifest=None, head=None) -> MetricsReport:
    return finetune("segment", model, manifest, cfg, val_manifest, head)


def change_detect(model, manifest, cfg, val_manifest=None, head=None) -> MetricsReport:
    return finetune("change", model, manifest, cfg, val_manifest, head)
