"""The three benchmark workloads: their inputs, configs and CLI commands.

Every input is a pure function of the workload seed. A "rep" is one pass
of a workload's command sequence; a run repeats reps back to back, so
every rep of a run must produce identical bytes.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field

from summary import steps_and_samples

MID_MODEL = {"embed_dim": 96, "encoder_depth": 12, "encoder_heads": 12,
             "decoder_dim": 48, "decoder_depth": 4, "decoder_heads": 6}
P, K = 8, 3  # ModelConfig defaults: 8x8 pixel patches of 3 bands
TASKS = ("classify", "multilabel", "segment", "change")


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # "pretrain" or "downstream"
    image: tuple[int, int, int]  # H, W, bands
    n_images: int
    model: dict
    train: dict  # stage doc for pretrain, finetune doc for downstream
    task_train: dict = field(default_factory=dict)  # per-task finetune overrides

    @property
    def max_grid(self) -> list[int]:
        h, w, d = self.image
        return [h // P, w // P, d // K]

    def datasets(self) -> tuple[str, ...]:
        return ("pretrain",) if self.kind == "pretrain" else TASKS

    def finetune_doc(self, task: str) -> dict:
        return {**self.train, **self.task_train.get(task, {})}


WORKLOADS = {w.name: w for w in (
    Workload(
        name="pretrain-tiny",
        kind="pretrain", image=(16, 16, 6), n_images=64,
        model={"preset": "tiny"},
        train={"epochs": 4, "base_lr": 1e-3, "batch_size": 16, "mask_ratio": 0.9}),
    Workload(
        name="pretrain-mid",
        kind="pretrain", image=(96, 96, 12), n_images=16,
        model=MID_MODEL,
        # three epochs, so that the last epoch's loss falls below the first on
        # every seed (two epochs of four steps did not, on 1 seed in 10)
        train={"epochs": 3, "base_lr": 1e-3, "batch_size": 4, "mask_ratio": 0.9}),
    Workload(
        name="downstream-mid",
        kind="downstream", image=(32, 32, 12), n_images=16,
        model=MID_MODEL,
        # 10 training and 6 validation images per task; two epochs give 30
        # steps a rep, so two reps resolve the step-time p75
        train={"epochs": 2, "batch_size": 4, "lr": 2e-3, "hidden": 64,
               "split_fractions": [0.625, 0.375]},
        # batches of about four encoder passes each (4 images, 6 crops of 36
        # tokens, 2 change pairs), so every task's step costs about the same
        # and step-time percentiles do not fall between task clusters
        task_train={"segment": {"crop": 24, "batch_size": 6},
                    "change": {"batch_size": 2}}),
)}


def synthesize(wl: Workload, seed: int, data_dir: str) -> dict[str, str]:
    """Write each dataset the workload reads; returns task -> manifest path."""
    from spectralmae.synthetic import SyntheticSpec, generate_synthetic

    h, w, d = wl.image
    manifests = {}
    for task in wl.datasets():
        spec = SyntheticSpec(height=h, width=w, bands=d, classes=3,
                             n_images=wl.n_images, seed=seed)
        manifests[task] = generate_synthetic(spec, task, os.path.join(data_dir, task))
    return manifests


def write_fixture_checkpoint(wl: Workload, seed: int, path: str) -> None:
    """The checkpoint downstream fine-tuning starts from: a seeded fresh model."""
    from spectralmae.checkpoint import save_checkpoint, snapshot_model
    from spectralmae.model import ModelConfig, SpectralCubeAutoencoder
    from spectralmae.rng import CounterRng

    cfg = ModelConfig(**{**wl.model, "max_grid": tuple(wl.max_grid)})
    model = SpectralCubeAutoencoder(cfg, CounterRng(seed))
    save_checkpoint(snapshot_model(model, None, (seed, 0)), path)


def write_configs(wl: Workload, seed: int, manifests: dict, cfg_dir: str) -> dict[str, str]:
    """One CLI config file per command kind; returns task -> config path."""
    os.makedirs(cfg_dir, exist_ok=True)
    docs = {}
    if wl.kind == "pretrain":
        docs["pretrain"] = {"seed": seed, "model": {**wl.model, "max_grid": wl.max_grid},
                            "stages": [{"manifest": manifests["pretrain"], **wl.train}]}
    else:
        for task in TASKS:
            docs[task] = {"seed": seed, "finetune": wl.finetune_doc(task),
                          "dataset": {"manifest": manifests[task]}}
    paths = {}
    for task, doc in docs.items():
        paths[task] = os.path.join(cfg_dir, f"{task}.json")
        with open(paths[task], "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=1)
    return paths


def rep_commands(wl: Workload, configs: dict, fixture: str | None,
                 rep_dir: str) -> list[tuple[str, str, list[str], str]]:
    """(kind, task, argv, out dir) for each CLI command of one rep, in order."""
    if wl.kind == "pretrain":
        return [("pretrain", "pretrain",
                 ["pretrain", "--config", configs["pretrain"], "--out", rep_dir], rep_dir)]
    commands = []
    for task in TASKS:
        ft, ev = os.path.join(rep_dir, f"ft-{task}"), os.path.join(rep_dir, f"ev-{task}")
        commands.append(("finetune", task, ["finetune", "--task", task, "--config",
                                            configs[task], "--checkpoint", fixture,
                                            "--out", ft], ft))
        commands.append(("eval", task, ["eval", "--task", task, "--config", configs[task],
                                        "--checkpoint",
                                        os.path.join(ft, "checkpoint_finetuned.spck"),
                                        "--out", ev], ev))
    return commands


def pool_size(task: str, n_train: int, image_hw: tuple[int, int],
              crop: int | None) -> int:
    """Training samples one epoch draws from: crops for segment, else images or pairs."""
    from spectralmae.finetune import tile_starts

    if task != "segment":
        return n_train
    side = crop or min(image_hw)
    return n_train * len(tile_starts(image_hw[0], side)) * len(tile_starts(image_hw[1], side))


def loop_plan(wl: Workload, task: str, train_used: int) -> tuple[int, int]:
    """(optimizer steps, samples per step) of one training loop of this workload.

    `train_used` is the number of training images (pairs for change) the
    loop drew from, as the fine-tune report counts it.
    """
    if wl.kind == "pretrain":
        bs = wl.train["batch_size"]
        return wl.train["epochs"] * (wl.n_images // bs), bs
    doc = wl.finetune_doc(task)
    pool = pool_size(task, train_used, wl.image[:2], doc.get("crop"))
    per_epoch, samples = steps_and_samples(pool, doc["batch_size"])
    return doc["epochs"] * per_epoch, samples
