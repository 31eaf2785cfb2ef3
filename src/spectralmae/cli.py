"""Operator CLI: data synthesis, pretraining, fine-tuning, evaluation,
reconstruction sweeps, and gradient checking.

Every run is deterministic given its config and seed, writes only under
--out, and drops the fully-resolved configuration beside its outputs so
a run can be reproduced from its artifacts alone. The package runs on
one thread: BLAS is pinned to one, set before numpy loads, unless the
environment sets its own count.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import sys
from dataclasses import dataclass, field, is_dataclass, replace

from .errors import ConfigError, FormatError
from .schema import field_value, from_doc, read_doc, to_doc


def _apply_thread_env() -> None:
    """Keep BLAS on one thread unless the environment names a count.

    With OpenBLAS's default of one thread per core, the small GEMMs of a
    step split across threads and sometimes wait milliseconds for the
    second one.
    """
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, "1")


_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3  # glibc <malloc.h>


def _pin_heap() -> None:
    """Keep freed memory in this process's heap instead of returning it to the OS.

    A training step frees and reallocates the same large arrays (attention
    scores, MLP rows, adjoints). Under glibc's default thresholds they are
    mmapped or trimmed off the heap on free and page-faulted back on the
    next use: with the optimizer's arena on the heap, a d=96 fine-tune
    step took about 5700 minor faults without this and none with it.
    Where libc has no `mallopt` this does nothing.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt  # the loaded libc; find_library costs ms
    except (OSError, TypeError, AttributeError):
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(_M_TRIM_THRESHOLD, 1 << 30)
    mallopt(_M_MMAP_THRESHOLD, 1 << 30)


def _fail(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return 2


@dataclass
class _Run:
    """A run config's top level; each section is read by its own command."""
    seed: int = 0
    model: dict = field(default_factory=dict)
    objective: dict = field(default_factory=dict)
    stages: list[dict] = field(default_factory=list)
    finetune: dict = field(default_factory=dict)
    dataset: dict = field(default_factory=dict)


@dataclass
class _Dataset:
    manifest: str
    val_manifest: str | None = None


def _build_model_config(doc: dict):
    from .model import PRESETS, ModelConfig

    preset = field_value(doc.get("preset", "base"), str, "model.preset")
    if preset not in PRESETS:
        raise ConfigError(f"unknown model.preset {preset!r}; expected one of {sorted(PRESETS)}")
    doc = {k: v for k, v in doc.items() if k != "preset"}
    return from_doc(ModelConfig, {**PRESETS[preset], **doc}, "model")


def _load_stage(doc: dict, base_dir: str):
    from .manifest import load_manifest
    from .raster import normalize_bands, read_raster
    from .training import PretrainStage

    if "manifest" not in doc:
        raise ConfigError("config stages[].manifest is required")
    manifest_path = os.path.join(base_dir, field_value(doc["manifest"], str, "stages[].manifest"))
    manifest = load_manifest(manifest_path)
    fixed = dict(images=[normalize_bands(read_raster(s["raster"]), manifest.band_min,
                                         manifest.band_max) for s in manifest.samples],
                 band_stats=(manifest.band_mean, manifest.band_std))
    doc = {k: v for k, v in doc.items() if k != "manifest"}
    stage = from_doc(PretrainStage, doc, "stages[]", **fixed)
    return stage, {"manifest": manifest_path, **to_doc(stage, omit=fixed)}


def _emit_resolved(out_dir: str, **sections) -> None:
    """Make `out_dir` and write the run's resolved config into it."""
    os.makedirs(out_dir, exist_ok=True)
    doc = {name: to_doc(v) if is_dataclass(v) else v for name, v in sections.items()}
    with open(os.path.join(out_dir, "config.resolved.json"), "w", encoding="utf-8") as fh:
        json.dump(doc, fh, sort_keys=True, indent=1)
        fh.write("\n")


# ---------------------------------------------------------------- synth

def cmd_synth(args) -> int:
    from .synthetic import SyntheticSpec, generate_synthetic

    spec = read_doc(SyntheticSpec, args.spec)
    manifest_path = generate_synthetic(spec, args.task, args.out)
    _emit_resolved(args.out, spec=spec, task=args.task)
    print(manifest_path)
    return 0


# ---------------------------------------------------------------- pretraining

def _truncate_log(path: str, point: tuple[int, int]) -> None:
    """Cut a train log before its first record at or past (stage, epoch)
    `point`, or before a last line a crash left unfinished. Any other line
    that is not a record is a FormatError naming the log and the line."""
    from .training import EpochRecord

    with open(path, "r+b") as fh:
        keep = 0
        for number, line in enumerate(fh, 1):
            if not line.endswith(b"\n"):
                break
            try:  # bytes that are not UTF-8 JSON, or a missing or mistyped key
                record = from_doc(EpochRecord, json.loads(line), "", "record")
            except (ValueError, ConfigError) as exc:
                raise FormatError(f"train log {path} line {number} is not an epoch "
                                  f"record: {exc}") from exc
            if (record.stage, record.epoch) >= point:
                break
            keep += len(line)
        fh.truncate(keep)


def cmd_pretrain(args) -> int:
    from .checkpoint import load_checkpoint, save_checkpoint
    from .model import SpectralCubeAutoencoder
    from .objective import ObjectiveConfig
    from .rng import CounterRng
    from .training import Start, final_checkpoint, progressive_pretrain, restore_run

    config = read_doc(_Run, args.config)
    base_dir = os.path.dirname(os.path.abspath(args.config))
    seed = args.seed if args.seed is not None else config.seed
    model_cfg = _build_model_config(config.model)
    objective = from_doc(ObjectiveConfig, config.objective, "objective")
    if not config.stages:
        return _fail("config has no stages")
    stages, stage_docs = zip(*(_load_stage(doc, base_dir) for doc in config.stages))

    rng = CounterRng(seed)
    if args.resume:
        checkpoint = load_checkpoint(args.resume)
        # the config's model at the checkpoint's grid, so the restore checks the config
        model = SpectralCubeAutoencoder(replace(model_cfg, max_grid=checkpoint.config.max_grid),
                                        rng=None)
        start = restore_run(checkpoint, model, stages, rng)
        del checkpoint  # the model and start.optimizer hold all the run needs
        if start.stage == len(stages):
            print("run already complete")
            return 0
    else:
        model, start = SpectralCubeAutoencoder(model_cfg, CounterRng(seed)), Start()
    _emit_resolved(args.out, seed=seed, model=model_cfg, objective=objective,
                   stages=stage_docs)

    log_path = os.path.join(args.out, "train_log.jsonl")
    if args.resume and os.path.exists(log_path):
        # records a crash or a longer run left past the start
        _truncate_log(log_path, (start.stage, start.epoch))
    with open(log_path, "a" if args.resume else "w", encoding="utf-8") as log:
        def on_epoch(record, checkpoint):
            log.write(record.to_json() + "\n")
            log.flush()
            save_checkpoint(checkpoint, os.path.join(args.out, "checkpoint_last.spck"))

        progressive_pretrain(model, objective, stages, rng, on_epoch=on_epoch, start=start)
    save_checkpoint(final_checkpoint(model, stages, rng),
                    os.path.join(args.out, "checkpoint_final.spck"))
    print(os.path.join(args.out, "checkpoint_final.spck"))
    return 0


# ---------------------------------------------------------------- finetune / eval

def _downstream_setup(args):
    """Config, manifests and finetune settings shared by `finetune` and `eval`."""
    from .finetune import FinetuneConfig, resolve_splits

    config = read_doc(_Run, args.config)
    seed = args.seed if args.seed is not None else config.seed
    ft_doc = config.finetune
    if getattr(args, "train_fraction", None) is not None:
        ft_doc = {**ft_doc, "train_fraction": args.train_fraction}
    cfg = from_doc(FinetuneConfig, ft_doc, "finetune", seed=seed)
    dataset = from_doc(_Dataset, config.dataset, "dataset")
    base_dir = os.path.dirname(os.path.abspath(args.config))
    dataset.manifest = os.path.join(base_dir, dataset.manifest)
    if dataset.val_manifest is not None:
        dataset.val_manifest = os.path.join(base_dir, dataset.val_manifest)
    train_man, val_man = resolve_splits(args.task, dataset.manifest, dataset.val_manifest, cfg)
    return config, cfg, train_man, val_man, dataset


def _write_report(out_dir: str, report) -> None:
    with open(os.path.join(out_dir, "metrics.json"), "w", encoding="utf-8") as fh:
        fh.write(report.to_json() + "\n")
    print(report.to_json())


def cmd_finetune(args) -> int:
    from . import finetune
    from .checkpoint import load_checkpoint, restore_model, save_checkpoint, snapshot_model
    from .model import SpectralCubeAutoencoder
    from .rng import CounterRng

    config, cfg, train_man, val_man, dataset = _downstream_setup(args)
    if args.checkpoint:
        ckpt = load_checkpoint(args.checkpoint)
        model = SpectralCubeAutoencoder(ckpt.config, rng=None)
        restore_model(ckpt, model)
        del ckpt  # its file buffer would hold a second copy of the weights through training
    else:
        model = SpectralCubeAutoencoder(_build_model_config(config.model),
                                        CounterRng(cfg.seed))

    _emit_resolved(args.out, seed=cfg.seed, model=model.config,
                   finetune=to_doc(cfg, ("seed",)), dataset=dataset)
    head = finetune.make_head(args.task, model, train_man, cfg)
    # looked up at call time, so a wrapper rebound onto the entry name sees the call
    runner = getattr(finetune, {"classify": "finetune_classify",
                                "multilabel": "finetune_multilabel",
                                "segment": "segment", "change": "change_detect"}[args.task])
    report = runner(model, train_man, cfg, val_man, head=head)
    tuned = snapshot_model(model, None, CounterRng(cfg.seed).state())
    tuned.params.update({name: p.data.copy() for name, p in head.params.items()})
    save_checkpoint(tuned, os.path.join(args.out, "checkpoint_finetuned.spck"))
    _write_report(args.out, report)
    return 0


def cmd_eval(args) -> int:
    from .checkpoint import load_checkpoint, restore_into
    from .finetune import TASKS, evaluate, make_head
    from .heads import combine_params
    from .model import SpectralCubeAutoencoder

    _, cfg, train_man, val_man, dataset = _downstream_setup(args)
    ckpt = load_checkpoint(args.checkpoint)
    model = SpectralCubeAutoencoder(ckpt.config, rng=None)
    head = make_head(args.task, model, train_man, cfg, unfilled=True)
    restore_into(ckpt.params, combine_params(model.parameters(), head.params))
    del ckpt  # the restored parameters are the only copy of the weights
    _emit_resolved(args.out, seed=cfg.seed, model=model.config,
                   finetune=to_doc(cfg, ("seed",)), dataset=dataset)
    val = TASKS[args.task].load(val_man, val_man.samples)
    _write_report(args.out, evaluate(args.task, model, head, train_man, val, cfg))
    return 0


# ---------------------------------------------------------------- reconstruct

def cmd_reconstruct(args) -> int:
    import numpy as np

    from .checkpoint import load_checkpoint, restore_model
    from .manifest import load_manifest
    from .model import SpectralCubeAutoencoder
    from .preview import PRESETS, preset_bands, render_preset, to_display, write_ppm
    from .raster import normalize_bands, read_raster
    from .rng import CounterRng
    from .tokenizer import build_mask, invert_targets, patchify, unpatchify

    ratios = [float(r) for r in args.ratios.split(",") if r]
    if not ratios or any(not 0.0 <= r < 1.0 for r in ratios):
        return _fail(f"ratios {args.ratios!r} must lie in [0, 1)")
    raw = read_raster(args.raster)
    presets = sorted(PRESETS) if args.preset == "all" else [args.preset]
    for preset in presets:  # every preset renders from this raster's bands
        preset_bands(preset, raw.band_names)

    ckpt = load_checkpoint(args.checkpoint)
    model = SpectralCubeAutoencoder(ckpt.config, rng=None)
    restore_model(ckpt, model)
    del ckpt  # with a pretraining checkpoint, its weights and both Adam moments
    man = load_manifest(args.manifest) if args.manifest else None
    if man is not None:  # the dataset-level scaling and band stats the model was trained with
        band_min, band_max = man.band_min, man.band_max
        band_stats = (man.band_mean, man.band_std)
    elif args.target_mode == "standardized":
        return _fail("standardized target mode needs --manifest for band stats")
    else:
        band_min = raw.values.reshape(-1, raw.bands).min(axis=0)
        band_max = raw.values.reshape(-1, raw.bands).max(axis=0)
        band_stats = None
    img = normalize_bands(raw, band_min, band_max)

    cfg = model.config
    grid = patchify(img, cfg.p, cfg.k)
    _emit_resolved(args.out, checkpoint=args.checkpoint, raster=args.raster,
                   ratios=ratios, presets=presets, seed=args.seed or 0,
                   target_mode=args.target_mode)
    records_path = os.path.join(args.out, "reconstruction_mse.jsonl")
    rng = CounterRng(args.seed or 0)
    with open(records_path, "w", encoding="utf-8") as records:
        for ratio in ratios:
            plan = build_mask(grid.n_tokens, ratio, rng.child("mask", repr(ratio)))
            recon = model.reconstruct(grid, plan).data
            pixels = invert_targets(recon, grid, args.target_mode, band_stats)
            composite = pixels.copy()
            composite[plan.visible] = grid.tokens[plan.visible]
            full_mse = float(np.mean((pixels - grid.tokens) ** 2))
            masked_mse = float(np.mean(
                (pixels[plan.masked] - grid.tokens[plan.masked]) ** 2)) if plan.m else 0.0
            composite_mse = float(np.mean((composite - grid.tokens) ** 2))
            records.write(json.dumps({
                "ratio": ratio, "masked_mse": masked_mse, "full_mse": full_mse,
                "composite_mse": composite_mse}, sort_keys=True) + "\n")
            for kind, tokens in (("composite", composite), ("pure", pixels)):
                out_img = unpatchify(replace(grid, tokens=tokens))
                for preset in presets:
                    rgb = to_display(render_preset(out_img, preset))
                    name = f"recon_r{int(round(ratio * 100)):02d}_{preset}_{kind}.ppm"
                    write_ppm(os.path.join(args.out, name), rgb)
    print(records_path)
    return 0


# ---------------------------------------------------------------- gradcheck

def cmd_gradcheck(args) -> int:
    import numpy as np

    from . import tensor as T
    from .gradcheck import grad_check
    from .heads import ClassifierHead, cross_entropy
    from .model import ModelConfig, SpectralCubeAutoencoder
    from .objective import ObjectiveConfig
    from .rng import CounterRng
    from .tokenizer import SpectralImage
    from .training import group_loss

    model_cfg = (replace(_build_model_config(read_doc(_Run, args.config).model), dtype="float64")
                 if args.config else ModelConfig.tiny(dtype="float64"))
    model = SpectralCubeAutoencoder(model_cfg, CounterRng(0))
    vals = CounterRng(1).uniform_array(
        (model_cfg.max_grid[0] * model_cfg.p, model_cfg.max_grid[1] * model_cfg.p,
         model_cfg.max_grid[2] * model_cfg.k)).astype(np.float32)
    img = SpectralImage(vals, [f"B{i + 1}" for i in range(vals.shape[2])])
    objective = ObjectiveConfig(lam=1.0)

    worst = {"model+objective": grad_check(
        lambda: group_loss(model, [img], objective, 0.5, [CounterRng(2)])[0],
        model.parameters(), eps=args.eps, sample_per_param=8)}

    rng = CounterRng(3)
    ps = T.ParameterSet()
    a = ps.add("a", T.Parameter(rng.normal_array((4, 4))))
    g = ps.add("g", T.Parameter(1.0 + 0.1 * rng.normal_array(4)))
    b = ps.add("b", T.Parameter(0.1 * rng.normal_array(4)))
    w = T.Tensor(rng.normal_array((4, 4)))
    c = ps.add("c", T.Parameter(0.1 * rng.normal_array(4)))
    # a 4-wide layer_norm row has |z| <= sqrt(3) max|g| + max|b| = 1.8, so logsigmoid(z)
    # lies in [-2, -0.15]: shifted by 0 or 3 it takes both signs, off abs_val's kink
    shift = T.Tensor(np.tile([0.0, 3.0], 8).reshape(4, 4))

    def f_ops():
        z = T.layer_norm(T.gelu(T.matmul(a, w)), g, b, 1e-5)
        ctx = T.attention(z, a, T.matmul(a, w, c), 2, 2)  # 2 images of 2 rows, 2 heads
        y = T.add(T.abs_val(T.add(T.logsigmoid(z), shift)), ctx)
        return T.sum_all(T.matmul(T.reshape(y, (8, 2)), T.reshape(w, (2, 8))))

    worst["numerics"] = grad_check(f_ops, ps, eps=args.eps)

    head = ClassifierHead(model_cfg.embed_dim, 8, 3, CounterRng(4),
                          dtype=np.float64)
    latents = T.Tensor(CounterRng(5).normal_array((6, model_cfg.embed_dim)))
    worst["heads"] = grad_check(lambda: cross_entropy(head.forward(latents), [1]),
                                head.params, eps=args.eps)

    for module, result in worst.items():
        print(f"{module}: max relative error {result.max_relative_error:.3e} "
              f"({'ok' if result.passed else 'FAIL'}, worst parameter "
              f"{result.worst_parameter!r})")
    if not all(result.passed for result in worst.values()):
        print("gradient check failed", file=sys.stderr)
        return 1
    return 0


# ---------------------------------------------------------------- entry point

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="spectralmae",
                                     description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic dataset + manifest")
    p.add_argument("--spec", required=True, help="JSON spec file")
    p.add_argument("--task", required=True,
                   choices=["pretrain", "classify", "multilabel", "segment", "change"])
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("pretrain", help="pretrain every stage of a config in turn")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--resume", default=None)
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(func=cmd_pretrain)

    p = sub.add_parser("finetune", help="fine-tune on a downstream task")
    p.add_argument("--task", required=True,
                   choices=["classify", "multilabel", "segment", "change"])
    p.add_argument("--config", required=True)
    p.add_argument("--checkpoint", default=None)
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--train-fraction", type=float, default=None)
    p.set_defaults(func=cmd_finetune)

    p = sub.add_parser("eval", help="evaluate a fine-tuned checkpoint (pure)")
    p.add_argument("--task", required=True,
                   choices=["classify", "multilabel", "segment", "change"])
    p.add_argument("--config", required=True)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("reconstruct", help="masked reconstruction sweep + previews")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--raster", required=True)
    p.add_argument("--ratios", default="0.5,0.75,0.9,0.95")
    p.add_argument("--preset", default="all")
    p.add_argument("--target-mode", default="per_token_normalized",
                   choices=["raw", "per_token_normalized", "standardized"])
    p.add_argument("--manifest", default=None,
                   help="manifest supplying the dataset band min/max that scale the "
                        "raster (default: the raster's own per-band range) and the "
                        "band mean/std standardized mode needs")
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(func=cmd_reconstruct)

    p = sub.add_parser("gradcheck", help="finite-difference gradient suite")
    p.add_argument("--config", default=None)
    p.add_argument("--eps", type=float, default=1e-3)
    p.set_defaults(func=cmd_gradcheck)

    return parser


def main(argv=None) -> int:
    _pin_heap()
    _apply_thread_env()
    args = build_parser().parse_args(argv)
    from .errors import SpectralMaeError

    try:
        return args.func(args)
    except (SpectralMaeError, ValueError, OSError) as exc:  # bad input: one line, exit 2
        return _fail(str(exc))


if __name__ == "__main__":
    sys.exit(main())
