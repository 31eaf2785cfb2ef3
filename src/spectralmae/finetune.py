"""End-to-end fine-tuning and evaluation for the four downstream tasks.

`TASKS` holds one record per task with only what differs between them,
such as one forward from samples to head outputs for training and
evaluation alike. One `finetune` loop normalizes bands to [0, 1] with the
manifest's dataset-level min/max, trains encoder + head jointly under AdamW
with the warmup/cosine schedule, and reports held-out task metrics through
`evaluate`. Raw prediction scores ride along in `extras` for oracles.
"""

from __future__ import annotations

import functools
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
from .model import SpectralCubeAutoencoder
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


def _load_mask(path: str, img: SpectralImage, n_classes: int) -> np.ndarray:
    """Class ids of mask `path`: every value an integer in [0, n_classes)."""
    values = read_raster(path).values[:, :, 0]
    if values.shape != (img.height, img.width):
        raise DataError(f"mask {path} is {values.shape[0]}x{values.shape[1]} pixels, "
                        f"its image {img.height}x{img.width}")
    bad = (values != np.floor(values)) | (values < 0) | (values >= n_classes)  # NaN too
    if bad.any():
        raise DataError(f"mask {path} holds {values[bad][0]:g}, "
                        f"not a class id in [0, {n_classes})")
    return values.astype(np.int64)


def resolve_splits(task: str, manifest, val_manifest, cfg: FinetuneConfig):
    """(train, val) manifests of `task`: a seeded split of `manifest` unless val is given."""
    train, val = (load_manifest(m) if isinstance(m, str) else m for m in (manifest, val_manifest))
    for which, man in (("manifest", train), ("validation manifest", val)):
        if man is not None and man.task != task:
            raise DataError(f"{which} task is {man.task!r}, not the requested {task!r}")
    if val is None:
        return split(train, cfg.split_fractions, train.split_seed)
    if not val.samples:
        raise DataError("validation manifest has no samples")
    return train, val


def _subset(samples: list, fraction: float, seed: int) -> list:
    if fraction == 1.0:
        return list(samples)
    count = int(fraction * len(samples))
    if count == 0:
        raise DataError(f"train fraction {fraction} selects no samples")
    keep = sorted(CounterRng(seed).child("fraction").permutation(len(samples))[:count].tolist())
    return [samples[i] for i in keep]


# ---------------------------------------------------------------- loaders

def _label_loader(key: str) -> Callable:
    """A loader of (image, int64 label or labels under `key`) samples."""
    return lambda man, samples: [(_load_image(man, s["raster"]), np.asarray(s[key], np.int64))
                                 for s in samples]


def load_segment_samples(man: DatasetManifest, samples: list) -> list:
    out = []
    for s in samples:
        img = _load_image(man, s["raster"])
        out.append((img, _load_mask(s["mask"], img, man.n_classes)))
    return out


def load_change_samples(man: DatasetManifest, samples: list) -> list:
    out = []
    for s in samples:
        a = _load_image(man, s["raster_a"])
        b = _load_image(man, s["raster_b"])
        if a.values.shape != b.values.shape:
            raise DataError(f"pair size mismatch {a.values.shape} vs {b.values.shape}")
        out.append((a, b, _load_mask(s["mask"], a, 2)))
    return out


# ---------------------------------------------------------------- forward and loss
# One encoder graph per group of same-size images (`model.group_spans`) and
# the head per sample on that sample's latent rows. A sample's target is its
# last item.

def _encode_batch(model, images: list) -> list[T.Tensor]:
    """Each image's latents, in order; a group of images shares one encoder graph."""
    out = []
    for span in model.group_spans(images):
        latents = model.forward_full(*images[span.start:span.stop])
        n = latents.shape[0] // len(span)
        out.extend(T.gather_rows(latents, np.arange(i * n, (i + 1) * n))
                   for i in range(len(span)))
    return out


def _image_forward(model, head, batch: list) -> list[T.Tensor]:
    return [head.forward(z) for z in _encode_batch(model, [img for img, _ in batch])]


def _segment_forward(model, head, batch: list) -> list[T.Tensor]:
    images = [img for img, _ in batch]
    return [head.forward(z, (img.height, img.width))
            for z, img in zip(_encode_batch(model, images), images)]


def _change_forward(model, head, batch: list) -> list[T.Tensor]:
    latents = _encode_batch(model, [img for a, b, _ in batch for img in (a, b)])
    return [head.forward(za, zb, (a.height, a.width))
            for za, zb, (a, _, _) in zip(latents[::2], latents[1::2], batch)]


def _row_loss(loss: Callable) -> Callable:
    """`loss` of the minibatch's output rows, stacked, against its targets."""
    return lambda outputs, batch: loss(T.concat_rows(outputs), [s[-1] for s in batch])


def _pixel_loss(nll: Callable) -> Callable:
    """The minibatch mean of each sample's mean pixel loss `nll(output, mask)`."""
    def loss(outputs: list, batch: list) -> T.Tensor:
        terms = [nll(out, s[-1].reshape(-1)) for out, s in zip(outputs, batch)]
        return T.scale(functools.reduce(T.add, terms), 1.0 / len(terms))
    return loss


def _each_output(forward: Callable, model, head, samples):
    """Each sample's head output values, with one sample's graph alive at a time."""
    for sample in samples:
        yield forward(model, head, [sample])[0].data


# ---------------------------------------------------------------- evaluation

def eval_classify(model, head, val: list) -> MetricsReport:
    scores = np.concatenate(list(_each_output(_image_forward, model, head, val)))
    labels = np.asarray([label for _, label in val])
    accuracy = float((scores.argmax(axis=1) == labels).mean())
    return MetricsReport(
        task="classify", values={"accuracy": accuracy},
        counts={"val": len(val)},
        extras={"scores": scores, "labels": labels})


def eval_multilabel(model, head, val: list) -> MetricsReport:
    scores = np.concatenate(list(_each_output(_image_forward, model, head, val)))
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
            yield y, x, (SpectralImage(img.values[y:y + crop, x:x + crop], img.band_names),
                         mask[y:y + crop, x:x + crop] if mask is not None else None)


def _crop_size(model, cfg: FinetuneConfig, samples: list) -> int:
    """The configured crop, else the shorter side of the first image."""
    crop = cfg.crop or min(samples[0][0].height, samples[0][0].width)
    if crop % model.config.p:
        raise ConfigError(f"crop {crop} not divisible by token size {model.config.p}")
    return crop


def _crop_pool(train: list, crop: int) -> list:
    return [sample for img, mask in train for _, _, sample in _crops(img, mask, crop)]


def eval_segment(model, head, val: list, crop: int, n_classes: int,
                 class_names: list[str] | None = None) -> MetricsReport:
    cm = np.zeros((n_classes, n_classes), np.int64)
    for img, mask in val:
        # average overlapping crop logits in logit space, then argmax
        acc = np.zeros((img.height, img.width, n_classes), np.float64)
        hits = np.zeros((img.height, img.width, 1), np.float64)
        tiles = list(_crops(img, None, crop))
        outputs = _each_output(_segment_forward, model, head, [s for _, _, s in tiles])
        for (y, x, _), logits in zip(tiles, outputs):
            acc[y:y + crop, x:x + crop] += logits.reshape(crop, crop, n_classes)
            hits[y:y + crop, x:x + crop] += 1.0
        pred = (acc / hits).argmax(axis=2)
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
    for (_, _, mask), logp in zip(val, _each_output(_change_forward, model, head, val)):
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

    load(manifest, samples) -> samples; forward(model, head, batch) -> one head
    output per sample, for training and evaluation alike; loss(outputs, batch)
    -> the minibatch's scalar loss; evaluate(model, head, val, train manifest,
    cfg) -> report; pool(train, model, cfg) -> what each epoch's batches come from.
    """

    load: Callable
    forward: Callable
    loss: Callable
    evaluate: Callable
    pool: Callable = lambda train, model, cfg: train


# Evaluation goes through the module-level eval_* names at call time, so a
# wrapper rebound onto one of them sees every call.
TASKS = {
    "classify": Task(_label_loader("label"), _image_forward, _row_loss(cross_entropy),
                     lambda model, head, val, man, cfg: eval_classify(model, head, val)),
    "multilabel": Task(_label_loader("labels"), _image_forward,
                       _row_loss(multilabel_soft_margin),
                       lambda model, head, val, man, cfg: eval_multilabel(model, head, val)),
    "segment": Task(load_segment_samples, _segment_forward, _pixel_loss(cross_entropy),
                    lambda model, head, val, man, cfg: eval_segment(
                        model, head, val, _crop_size(model, cfg, val), man.n_classes,
                        man.class_names),
                    pool=lambda train, model, cfg: _crop_pool(
                        train, _crop_size(model, cfg, train))),
    "change": Task(load_change_samples, _change_forward, _pixel_loss(nll_from_log_probs),
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
        return SegmentationHead(mc.embed_dim, gs, mc.p, manifest.n_classes, rng, mc.np_dtype)
    return ChangeHead(mc.embed_dim, gs, mc.p, rng, mc.np_dtype)


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
    train_man, val_man = resolve_splits(task, manifest, val_manifest, cfg)
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
            batch = [pool[int(i)] for i in chosen]
            spec.loss(spec.forward(model, head, batch), batch).backward()
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
