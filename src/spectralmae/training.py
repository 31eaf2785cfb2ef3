"""Pretraining: one stage's loop, and `progressive_pretrain`, which runs the
stages of a config in order (one or more image sizes) and is the one path
the `pretrain` command takes.

Every source of randomness is keyed functionally off the root stream —
batch order by (stage, epoch), masks by (stage, epoch, step, slot) — so
a run is fully determined by (seed, config, data). This module also owns
a run's position. The checkpoint handed to `on_epoch` after each epoch
records (stage, epochs done in it), and `final_checkpoint` records the
end of the run. `restore_run` says where a checkpoint continues and
restores it there: the weights, and mid-stage the moments.
`progressive_pretrain` started from it reproduces the uninterrupted run
bitwise, and no copy of the checkpoint stays alive while it trains. A
checkpoint of another model, seed or optimizer setting is refused rather
than trained under this run's config.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, fields

import numpy as np

from . import tensor as T
from .checkpoint import Checkpoint, restore_model, restore_optimizer, snapshot_model
from .errors import ConfigError, EvaluationError, check_config
from .model import ModelConfig, SpectralCubeAutoencoder
from .objective import LossBreakdown, ObjectiveConfig, total_loss
from .optim import AdamW, Schedule, lr_at
from .rng import CounterRng
from .schema import to_doc
from .tokenizer import (SpectralImage, build_group_mask, grid_shape, make_targets,
                        patchify_group)


@dataclass
class PretrainStage:
    images: list[SpectralImage]
    epochs: int
    base_lr: float
    batch_size: int
    mask_ratio: float = 0.9
    weight_decay: float = 0.0
    warmup_frac: float = 0.1
    min_lr: float = 0.0
    clip_norm: float | None = None
    band_stats: tuple | None = None  # (mean, std) per band for standardized targets, or empty

    def __post_init__(self):
        check_config(
            (self.epochs >= 0, f"stage epochs {self.epochs} must not be negative"),
            (self.batch_size >= 1, f"stage batch_size {self.batch_size} must be positive"),
            (0.0 <= self.mask_ratio < 1.0, f"stage mask_ratio {self.mask_ratio} outside [0, 1)"),
            (0.0 <= self.base_lr < math.inf and 0.0 <= self.min_lr < math.inf,
             f"stage base_lr {self.base_lr} and min_lr {self.min_lr} must be finite and >= 0"),
            (0.0 <= self.weight_decay < math.inf,
             f"stage weight_decay {self.weight_decay} must be finite and >= 0"),
            (0.0 <= self.warmup_frac <= 1.0, f"stage warmup_frac {self.warmup_frac} outside [0, 1]"),
            (self.clip_norm is None or self.clip_norm > 0.0,
             f"stage clip_norm {self.clip_norm} must be positive or null"))


@dataclass
class EpochRecord:
    stage: int
    epoch: int
    token: float
    spectral: float
    total: float
    lr: float

    def to_json(self) -> str:
        return json.dumps(to_doc(self), sort_keys=True)


def stage_schedule(stage: PretrainStage) -> Schedule:
    steps_per_epoch = len(stage.images) // stage.batch_size
    total = stage.epochs * steps_per_epoch
    return Schedule(int(stage.warmup_frac * total), total, stage.base_lr, stage.min_lr)


def _make_optimizer(params: T.ParameterSet, stage: PretrainStage) -> AdamW:
    return AdamW(params, base_lr=stage.base_lr, weight_decay=stage.weight_decay,
                 clip_norm=stage.clip_norm)


def group_loss(model: SpectralCubeAutoencoder, images: list[SpectralImage],
               objective: ObjectiveConfig, ratio: float, mask_rngs: list[CounterRng],
               band_stats=None) -> tuple[T.Tensor, LossBreakdown]:
    """Mean loss over same-size images through one graph; image i masks with mask_rngs[i].

    The group is prepared in one pass: one patchify of the stacked images,
    one target pass over all their token rows (every target mode works row
    by row or by band, so it equals the per-image targets stacked) and one
    mask draw for every image.
    """
    cfg = model.config
    grid = patchify_group(images, cfg.p, cfg.k)
    plan = build_group_mask(grid.n_tokens, ratio, mask_rngs)
    targets = make_targets(grid, objective.target_mode, band_stats)
    recon = model.reconstruct(grid, plan)
    return total_loss(recon, targets, plan, grid, objective)


def pretrain_stage(model: SpectralCubeAutoencoder, objective: ObjectiveConfig,
                   stage: PretrainStage, rng: CounterRng, stage_index: int = 0,
                   optimizer: AdamW | None = None, start_epoch: int = 0,
                   on_epoch=None) -> list[EpochRecord]:
    """Train one stage; per-epoch mean loss records come back in order.

    The schedule always spans the full stage, so starting at `start_epoch`
    with the moments `optimizer` held there replays the uninterrupted run.
    `on_epoch(record, checkpoint)` gets the run's position after each epoch.
    """
    n = len(stage.images)
    steps_per_epoch = n // stage.batch_size
    if steps_per_epoch == 0:
        raise ConfigError(f"batch size {stage.batch_size} exceeds dataset size {n}")
    sched = stage_schedule(stage)
    optimizer = optimizer or _make_optimizer(model.parameters(), stage)
    records: list[EpochRecord] = []
    for epoch in range(start_epoch, stage.epochs):
        order = rng.child("order", stage_index, epoch).permutation(n)
        sums = np.zeros(3, dtype=np.float64)
        seen = 0
        lr = 0.0
        for step in range(steps_per_epoch):
            lr = lr_at(sched, epoch * steps_per_epoch + step)
            batch = [stage.images[int(i)] for i in
                     order[step * stage.batch_size:(step + 1) * stage.batch_size]]
            for span in model.group_spans(batch):
                mask_rngs = [rng.child("mask", stage_index, epoch, step, slot) for slot in span]
                loss, bd = group_loss(model, batch[span.start:span.stop], objective,
                                      stage.mask_ratio, mask_rngs, stage.band_stats)
                if not np.isfinite(bd.total):
                    raise EvaluationError(
                        f"non-finite loss at stage {stage_index} epoch {epoch} step {step}")
                T.scale(loss, len(span) / stage.batch_size).backward()
                sums += len(span) * np.array((bd.token, bd.spectral, bd.total))
                seen += len(span)
            optimizer.step(lr)
        record = EpochRecord(stage_index, epoch, sums[0] / seen, sums[1] / seen,
                             sums[2] / seen, lr)
        records.append(record)
        if on_epoch is not None:
            on_epoch(record, snapshot_model(model, optimizer, rng.state(),
                                            stage=stage_index, epoch=epoch + 1))
    return records


def stage_grid(stage: PretrainStage, model: SpectralCubeAutoencoder) -> tuple[int, int, int]:
    shape = stage.images[0].values.shape
    for img in stage.images:
        if img.values.shape != shape:
            raise ConfigError("all images within a stage must share one size")
    return grid_shape(*shape, model.config.p, model.config.k)


def final_checkpoint(model: SpectralCubeAutoencoder, stages: list[PretrainStage],
                     rng: CounterRng) -> Checkpoint:
    """The weights at the end of a run, where `restore_run` finds it done."""
    return snapshot_model(model, None, rng.state(), stage=len(stages), epoch=0)


@dataclass
class Start:
    """Where a run's training starts: a stage, the epochs already done in it
    and, part-way through it, the optimizer holding that stage's moments."""
    stage: int = 0
    epoch: int = 0
    optimizer: AdamW | None = None


def restore_run(checkpoint: Checkpoint, model: SpectralCubeAutoencoder,
                stages: list[PretrainStage], rng: CounterRng) -> Start:
    """Restore `checkpoint` into a model of its shape and say where the run continues.

    A finished stage continues at the next one's start with fresh moments,
    and a finished run at (len(stages), 0). Part-way through a stage the
    positional tables take the stage's size and a new optimizer takes the
    saved moments, so the `Start` holds all the run needs and the
    checkpoint can be dropped. A checkpoint of another run is a
    ConfigError, raised before anything is restored: another model config
    (max_grid aside: stages resize it) or rng state, a position past
    `stages`, or, part-way through a stage, no moments or other optimizer
    hyper-parameters than the stage's.
    """
    saved, config = checkpoint.config, model.config
    differ = [f"{f.name} {getattr(saved, f.name)!r} vs {getattr(config, f.name)!r}"
              for f in fields(ModelConfig)
              if f.name != "max_grid" and getattr(saved, f.name) != getattr(config, f.name)]
    if differ:
        raise ConfigError(f"checkpoint model differs from the config's: {', '.join(differ)}")
    if checkpoint.rng_state != rng.state():
        raise ConfigError(f"checkpoint rng state (seed, counter) {checkpoint.rng_state} "
                          f"is not the run's {rng.state()}")
    stage, epoch = checkpoint.stage, checkpoint.epoch
    if stage < len(stages) and epoch >= stages[stage].epochs:
        stage, epoch = stage + 1, 0
    if stage > len(stages) or (stage == len(stages) and epoch):
        raise ConfigError(f"checkpoint stage {checkpoint.stage} (epoch {checkpoint.epoch}) "
                          f"lies past the config's {len(stages)} stages")
    snap = checkpoint.optimizer
    if epoch:
        if snap is None:
            raise ConfigError(f"checkpoint at stage {stage} epoch {epoch} holds no moments")
        fresh = _make_optimizer(T.ParameterSet(), stages[stage])  # settings, no parameters
        differ = [f"{name} {getattr(snap, name)!r} vs {getattr(fresh, name)!r}"
                  for name in ("base_lr", "beta1", "beta2", "eps", "weight_decay")
                  if getattr(snap, name) != getattr(fresh, name)]
        if differ:
            raise ConfigError(f"checkpoint optimizer differs from stage {stage}'s: "
                              f"{', '.join(differ)}")
    restore_model(checkpoint, model)
    optimizer = None
    if epoch:
        model.resize_pos_tables(stage_grid(stages[stage], model))
        optimizer = _make_optimizer(model.parameters(), stages[stage])
        restore_optimizer(snap, optimizer)
    return Start(stage, epoch, optimizer)


def progressive_pretrain(model: SpectralCubeAutoencoder, objective: ObjectiveConfig,
                         stages: list[PretrainStage], rng: CounterRng, on_epoch=None,
                         start: Start | None = None) -> list[EpochRecord]:
    """Run stages in order: weights carry over, positional tables resize,
    optimizer moments reset at each boundary. `start` continues a run that
    `restore_run` restored; its optimizer is taken out of it. Only the
    epochs run here come back."""
    start = start or Start()
    optimizer, start.optimizer = start.optimizer, None  # so no Start pins it past its stage
    records: list[EpochRecord] = []
    for stage_index in range(start.stage, len(stages)):
        stage = stages[stage_index]
        model.resize_pos_tables(stage_grid(stage, model))
        first_epoch = start.epoch if stage_index == start.stage else 0
        records.extend(pretrain_stage(
            model, objective, stage, rng, stage_index=stage_index, optimizer=optimizer,
            start_epoch=first_epoch, on_epoch=on_epoch))
        optimizer = None
    return records
