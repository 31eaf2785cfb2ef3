"""Operator CLI: data synthesis, pretraining, fine-tuning, evaluation,
reconstruction sweeps, and gradient checking.

Every run is deterministic given its config and seed, writes only under
--out, and drops the fully-resolved configuration beside its outputs so
a run can be reproduced from its artifacts alone. SPGT_THREADS bounds
BLAS worker threads (applied before numpy loads).
"""

from __future__ import annotations

import argparse
import json
import os
import sys


def _apply_thread_env() -> None:
    n = os.environ.get("SPGT_THREADS")
    if n:
        for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
            os.environ.setdefault(var, n)


_MODEL_KEYS = {"preset", "embed_dim", "encoder_depth", "encoder_heads", "decoder_dim",
               "decoder_depth", "decoder_heads", "mlp_ratio", "p", "k", "max_grid", "dtype"}
_OBJECTIVE_KEYS = {"lam", "token_loss_scope", "target_mode"}
_STAGE_KEYS = {"manifest", "epochs", "base_lr", "batch_size", "mask_ratio",
               "weight_decay", "warmup_frac", "min_lr", "clip_norm"}
_FINETUNE_KEYS = {"epochs", "batch_size", "lr", "weight_decay", "hidden",
                  "train_fraction", "split_fractions", "crop", "warmup_frac"}
_DATASET_KEYS = {"manifest", "val_manifest"}
_TOP_KEYS = {"seed", "model", "objective", "stages", "finetune", "dataset"}


def _fail(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return 2


def _check_keys(doc: dict, allowed: set, path: str) -> None:
    from .errors import ConfigError

    unknown = sorted(set(doc) - allowed)
    if unknown:
        raise ConfigError("unknown config keys: "
                          + ", ".join(f"{path}.{k}" for k in unknown))


def _load_config(path: str) -> dict:
    from .errors import ConfigError

    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    _check_keys(doc, _TOP_KEYS, "")
    return doc


def _build_model_config(doc: dict):
    from .errors import ConfigError
    from .model import ModelConfig

    _check_keys(doc, _MODEL_KEYS, "model")
    doc = dict(doc)
    preset = doc.pop("preset", None)
    if "max_grid" in doc:
        doc["max_grid"] = tuple(doc["max_grid"])
    if preset is None:
        return ModelConfig(**doc)
    factory = {"tiny": ModelConfig.tiny, "base": ModelConfig.base,
               "large": ModelConfig.large, "huge": ModelConfig.huge}.get(preset)
    if factory is None:
        raise ConfigError(f"unknown model.preset {preset!r}")
    return factory(**doc)


def _build_objective(doc: dict):
    from .objective import ObjectiveConfig

    _check_keys(doc, _OBJECTIVE_KEYS, "objective")
    return ObjectiveConfig(**doc)


def _load_stage(doc: dict, base_dir: str):
    from .errors import ConfigError
    from .manifest import load_manifest
    from .raster import normalize_bands, read_raster
    from .training import PretrainStage

    _check_keys(doc, _STAGE_KEYS, "stages[]")
    doc = dict(doc)
    manifest_path = doc.pop("manifest", None)
    if manifest_path is None:
        raise ConfigError("stages[].manifest is required")
    if not os.path.isabs(manifest_path):
        manifest_path = os.path.join(base_dir, manifest_path)
    manifest = load_manifest(manifest_path)
    images = [normalize_bands(read_raster(s["raster"]), manifest.band_min,
                              manifest.band_max) for s in manifest.samples]
    stage = PretrainStage(images=images, name=os.path.basename(manifest_path), **doc)
    band_stats = None
    if manifest.band_mean and manifest.band_std:
        band_stats = (manifest.band_mean, manifest.band_std)
    return stage, band_stats


def _emit_resolved(out_dir: str, **sections) -> None:
    from dataclasses import asdict, is_dataclass

    doc = {name: asdict(v) if is_dataclass(v) else v for name, v in sections.items()}
    with open(os.path.join(out_dir, "config.resolved.json"), "w", encoding="utf-8") as fh:
        json.dump(doc, fh, sort_keys=True, indent=1, default=str)
        fh.write("\n")


# ---------------------------------------------------------------- synth

def cmd_synth(args) -> int:
    from .errors import SpectralMaeError
    from .synthetic import SyntheticSpec, generate_synthetic

    try:
        with open(args.spec, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        return _fail(f"cannot read spec {args.spec}: {exc}")
    try:
        allowed = set(SyntheticSpec.__dataclass_fields__)
        _check_keys(doc, allowed, "spec")
        spec = SyntheticSpec(**doc)
        os.makedirs(args.out, exist_ok=True)
        manifest_path = generate_synthetic(spec, args.task, args.out)
        _emit_resolved(args.out, spec=spec, task=args.task)
    except (SpectralMaeError, ValueError) as exc:
        return _fail(str(exc))
    print(manifest_path)
    return 0


# ---------------------------------------------------------------- pretraining

def _run_pretraining(args, progressive: bool) -> int:
    from .checkpoint import (load_checkpoint, restore_model, restore_optimizer,
                             save_checkpoint, snapshot_model)
    from .errors import SpectralMaeError
    from .model import SpectralCubeAutoencoder
    from .rng import CounterRng
    from .training import make_optimizer, progressive_pretrain

    try:
        config = _load_config(args.config)
        base_dir = os.path.dirname(os.path.abspath(args.config))
        seed = args.seed if args.seed is not None else config.get("seed", 0)
        model_cfg = _build_model_config(config.get("model", {}))
        objective = _build_objective(config.get("objective", {}))
        stage_docs = config.get("stages", [])
        if not stage_docs:
            return _fail("config has no stages")
        if not progressive:
            stage_docs = stage_docs[:1]
        loaded = [_load_stage(doc, base_dir) for doc in stage_docs]
        stages = [st for st, _ in loaded]
        band_stats = loaded[0][1]

        os.makedirs(args.out, exist_ok=True)
        _emit_resolved(args.out, seed=seed, model=model_cfg, objective=objective,
                       stages=stage_docs)
        rng = CounterRng(seed)
        start_stage = start_epoch = 0
        optimizer = None
        if args.resume:
            ckpt = load_checkpoint(args.resume)
            model = SpectralCubeAutoencoder(ckpt.config, CounterRng(seed))
            restore_model(ckpt, model)
            rng = CounterRng(*ckpt.rng_state)
            start_stage, start_epoch = ckpt.stage, ckpt.epoch
            if start_epoch >= stages[start_stage].epochs:
                start_stage, start_epoch = start_stage + 1, 0
                if start_stage >= len(stages):
                    print("run already complete")
                    return 0
            elif ckpt.optimizer is not None:
                optimizer = make_optimizer(model, stages[start_stage])
                restore_optimizer(ckpt.optimizer, optimizer)
        else:
            model = SpectralCubeAutoencoder(model_cfg, CounterRng(seed))

        log_path = os.path.join(args.out, "train_log.jsonl")
        log_mode = "a" if args.resume else "w"
        with open(log_path, log_mode, encoding="utf-8") as log:
            def on_epoch(record, opt):
                log.write(record.to_json() + "\n")
                log.flush()
                ckpt = snapshot_model(model, opt, rng.state(), stage=record.stage,
                                      epoch=record.epoch + 1)
                save_checkpoint(ckpt, os.path.join(args.out, "checkpoint_last.spck"))

            progressive_pretrain(model, objective, stages, rng, band_stats=band_stats,
                                 on_epoch=on_epoch, start_stage=start_stage,
                                 start_epoch=start_epoch, optimizer=optimizer)
        final = snapshot_model(model, None, rng.state(), stage=len(stages), epoch=0)
        save_checkpoint(final, os.path.join(args.out, "checkpoint_final.spck"))
    except (SpectralMaeError, ValueError) as exc:
        return _fail(str(exc))
    print(os.path.join(args.out, "checkpoint_final.spck"))
    return 0


def cmd_pretrain(args) -> int:
    return _run_pretraining(args, progressive=False)


def cmd_progressive(args) -> int:
    return _run_pretraining(args, progressive=True)


# ---------------------------------------------------------------- finetune / eval

def _downstream_setup(args):
    """Config, manifests and finetune settings shared by `finetune` and `eval`."""
    from .errors import ConfigError
    from .finetune import FinetuneConfig, resolve_splits

    config = _load_config(args.config)
    seed = args.seed if args.seed is not None else config.get("seed", 0)
    ft_doc = dict(config.get("finetune", {}))
    _check_keys(ft_doc, _FINETUNE_KEYS, "finetune")
    if "split_fractions" in ft_doc:
        ft_doc["split_fractions"] = tuple(ft_doc["split_fractions"])
    if getattr(args, "train_fraction", None) is not None:
        ft_doc["train_fraction"] = args.train_fraction
    cfg = FinetuneConfig(seed=seed, **ft_doc)
    dataset = config.get("dataset", {})
    _check_keys(dataset, _DATASET_KEYS, "dataset")
    base_dir = os.path.dirname(os.path.abspath(args.config))

    def resolve(p):
        return p if p is None or os.path.isabs(p) else os.path.join(base_dir, p)

    manifest_path = resolve(dataset.get("manifest"))
    if manifest_path is None:
        raise ConfigError("config dataset.manifest is required")
    val_path = resolve(dataset.get("val_manifest"))
    train_man, val_man = resolve_splits(manifest_path, val_path, cfg)
    return config, cfg, train_man, val_man, {"manifest": manifest_path, "val_manifest": val_path}


def _write_report(out_dir: str, report) -> None:
    with open(os.path.join(out_dir, "metrics.json"), "w", encoding="utf-8") as fh:
        fh.write(report.to_json() + "\n")
    print(report.to_json())


def cmd_finetune(args) -> int:
    from . import finetune
    from .checkpoint import load_checkpoint, restore_model, save_checkpoint, snapshot_model
    from .errors import SpectralMaeError
    from .model import SpectralCubeAutoencoder
    from .rng import CounterRng

    try:
        config, cfg, train_man, val_man, dataset = _downstream_setup(args)
        if args.checkpoint:
            ckpt = load_checkpoint(args.checkpoint)
            model = SpectralCubeAutoencoder(ckpt.config, CounterRng(cfg.seed))
            restore_model(ckpt, model)
        else:
            model_cfg = _build_model_config(config.get("model", {}))
            model = SpectralCubeAutoencoder(model_cfg, CounterRng(cfg.seed))

        os.makedirs(args.out, exist_ok=True)
        _emit_resolved(args.out, seed=cfg.seed, model=model.config, finetune=cfg,
                       dataset=dataset)
        head = finetune.make_head(args.task, model, train_man, cfg)
        # looked up at call time, so a wrapper rebound onto the entry name sees the call
        runner = getattr(finetune, {"classify": "finetune_classify",
                                    "multilabel": "finetune_multilabel",
                                    "segment": "segment", "change": "change_detect"}[args.task])
        report = runner(model, train_man, cfg, val_man, head=head)
        tuned = snapshot_model(model, None, (cfg.seed, 0))
        tuned.params.update({name: p.data.copy() for name, p in head.params.items()})
        save_checkpoint(tuned, os.path.join(args.out, "checkpoint_finetuned.spck"))
        _write_report(args.out, report)
    except (SpectralMaeError, ValueError) as exc:
        return _fail(str(exc))
    return 0


def cmd_eval(args) -> int:
    from .checkpoint import load_checkpoint, restore_into
    from .errors import SpectralMaeError
    from .finetune import TASKS, evaluate, make_head
    from .heads import combine_params
    from .model import SpectralCubeAutoencoder
    from .rng import CounterRng

    try:
        _, cfg, train_man, val_man, dataset = _downstream_setup(args)
        ckpt = load_checkpoint(args.checkpoint)
        model = SpectralCubeAutoencoder(ckpt.config, CounterRng(cfg.seed))
        head = make_head(args.task, model, train_man, cfg)
        restore_into(ckpt.params, combine_params(model.parameters(), head.params))
        os.makedirs(args.out, exist_ok=True)
        _emit_resolved(args.out, seed=cfg.seed, model=model.config, finetune=cfg,
                       dataset=dataset)
        val = TASKS[args.task].load(val_man, val_man.samples)
        _write_report(args.out, evaluate(args.task, model, head, train_man, val, cfg))
    except (SpectralMaeError, ValueError) as exc:
        return _fail(str(exc))
    return 0


# ---------------------------------------------------------------- reconstruct

def cmd_reconstruct(args) -> int:
    import numpy as np

    from .checkpoint import load_checkpoint, restore_model
    from .errors import SpectralMaeError
    from .manifest import load_manifest
    from .model import GridDims, SpectralCubeAutoencoder
    from .preview import PRESETS, render_preset, to_display, write_ppm
    from .raster import normalize_bands, read_raster
    from .rng import CounterRng
    from .tokenizer import (TokenGrid, build_mask, invert_targets, make_targets, patchify,
                            unpatchify)

    try:
        ratios = [float(r) for r in args.ratios.split(",") if r]
        if not ratios or any(not 0.0 <= r < 1.0 for r in ratios):
            return _fail(f"ratios {args.ratios!r} must lie in [0, 1)")
        presets = sorted(PRESETS) if args.preset == "all" else [args.preset]
        for preset in presets:
            if preset not in PRESETS:
                return _fail(f"unknown preset {preset!r}; expected one of "
                             f"{sorted(PRESETS)} or 'all'")

        ckpt = load_checkpoint(args.checkpoint)
        model = SpectralCubeAutoencoder(ckpt.config, CounterRng(args.seed or 0))
        restore_model(ckpt, model)
        raw = read_raster(args.raster)
        band_min = raw.values.reshape(-1, raw.bands).min(axis=0)
        band_max = raw.values.reshape(-1, raw.bands).max(axis=0)
        img = normalize_bands(raw, band_min, band_max)

        band_stats = (None, None)
        if args.target_mode == "standardized":
            if not args.manifest:
                return _fail("standardized target mode needs --manifest for band stats")
            man = load_manifest(args.manifest)
            band_stats = (np.asarray(man.band_mean), np.asarray(man.band_std))

        cfg = model.config
        grid = patchify(img, cfg.p, cfg.k)
        dims = GridDims(grid.gh, grid.gw, grid.gs)
        _, stats = make_targets(grid, args.target_mode, band_mean=band_stats[0],
                                band_std=band_stats[1])
        os.makedirs(args.out, exist_ok=True)
        _emit_resolved(args.out, checkpoint=args.checkpoint, raster=args.raster,
                       ratios=ratios, presets=presets, seed=args.seed or 0,
                       target_mode=args.target_mode)
        records_path = os.path.join(args.out, "reconstruction_mse.jsonl")
        rng = CounterRng(args.seed or 0)
        with open(records_path, "w", encoding="utf-8") as records:
            for ratio in ratios:
                plan = build_mask(grid.n_tokens, ratio, rng.child("mask", repr(ratio)),
                                  dims.n_sites)
                recon = model.reconstruct(grid.tokens, plan, dims).data
                pixels = invert_targets(recon, grid, args.target_mode, stats, band_stats)
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
                    out_img = unpatchify(TokenGrid(grid.p, grid.k, grid.gh, grid.gw,
                                                   grid.gs, tokens, grid.band_names))
                    for preset in presets:
                        rgb = to_display(render_preset(out_img, preset))
                        name = f"recon_r{int(round(ratio * 100)):02d}_{preset}_{kind}.ppm"
                        write_ppm(os.path.join(args.out, name), rgb)
    except (SpectralMaeError, ValueError) as exc:
        return _fail(str(exc))
    print(records_path)
    return 0


# ---------------------------------------------------------------- gradcheck

def cmd_gradcheck(args) -> int:
    import numpy as np

    from . import tensor as T
    from .errors import SpectralMaeError
    from .gradcheck import REL_TOLERANCE, grad_check
    from .heads import ClassifierHead, cross_entropy
    from .model import GridDims, ModelConfig, SpectralCubeAutoencoder
    from .objective import ObjectiveConfig, total_loss
    from .rng import CounterRng
    from .tokenizer import SpectralImage, build_mask, make_targets, patchify

    try:
        if not (1e-4 <= args.eps <= 1e-2):
            return _fail(f"--eps {args.eps} outside [1e-4, 1e-2]")
        if args.config:
            config = _load_config(args.config)
            model_cfg = _build_model_config(config.get("model", {}))
            model_cfg.dtype = "float64"
        else:
            model_cfg = ModelConfig.tiny(dtype="float64")
        model = SpectralCubeAutoencoder(model_cfg, CounterRng(0))
        vals = CounterRng(1).uniform_array(
            (model_cfg.max_grid[0] * model_cfg.p, model_cfg.max_grid[1] * model_cfg.p,
             model_cfg.max_grid[2] * model_cfg.k)).astype(np.float64)
        img = SpectralImage(vals.astype(np.float32),
                            [f"B{i + 1}" for i in range(vals.shape[2])])
        grid = patchify(img, model_cfg.p, model_cfg.k)
        grid.tokens = grid.tokens.astype(np.float64)
        dims = GridDims(grid.gh, grid.gw, grid.gs)
        plan = build_mask(grid.n_tokens, 0.5, CounterRng(2), dims.n_sites)
        targets, _ = make_targets(grid, "per_token_normalized")
        objective = ObjectiveConfig(lam=1.0)

        worst = {}

        def f_model():
            recon = model.reconstruct(grid.tokens, plan, dims)
            return total_loss(recon, targets, plan, grid, objective)[0]

        worst["model+objective"] = grad_check(f_model, model.parameters(),
                                              eps=args.eps, sample_per_param=8)

        rng = CounterRng(3)
        ps = T.ParameterSet()
        a = ps.add("a", T.Parameter(rng.normal_array((4, 4))))
        g = ps.add("g", T.Parameter(1.0 + 0.1 * rng.normal_array(4)))
        b = ps.add("b", T.Parameter(0.1 * rng.normal_array(4)))
        w = T.Tensor(rng.normal_array((4, 4)))

        def f_ops():
            z = T.layer_norm(T.gelu(T.matmul(a, w)), g, b, 1e-5)
            return T.sum_all(T.mul(w, T.softmax_lastaxis(z)))

        worst["numerics"] = grad_check(f_ops, ps, eps=args.eps)

        head = ClassifierHead(model_cfg.embed_dim, 8, 3, CounterRng(4),
                              dtype=np.float64)
        latents = T.Tensor(CounterRng(5).normal_array((6, model_cfg.embed_dim)))
        worst["heads"] = grad_check(lambda: cross_entropy(head.forward(latents), [1]),
                                    head.params, eps=args.eps)

        failed = False
        for module, result in worst.items():
            status = "ok" if result.max_relative_error <= REL_TOLERANCE else "FAIL"
            print(f"{module}: max relative error {result.max_relative_error:.3e} "
                  f"({status}, worst parameter {result.worst_parameter!r})")
            failed = failed or status == "FAIL"
        if failed:
            print("gradient check failed", file=sys.stderr)
            return 1
    except (SpectralMaeError, ValueError) as exc:
        return _fail(str(exc))
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

    for name, func in (("pretrain", cmd_pretrain), ("progressive", cmd_progressive)):
        p = sub.add_parser(name, help=f"{name} run from a config file")
        p.add_argument("--config", required=True)
        p.add_argument("--out", required=True)
        p.add_argument("--resume", default=None)
        p.add_argument("--seed", type=int, default=None)
        p.set_defaults(func=func)

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
                   help="manifest supplying band stats for standardized mode")
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(func=cmd_reconstruct)

    p = sub.add_parser("gradcheck", help="finite-difference gradient suite")
    p.add_argument("--config", default=None)
    p.add_argument("--eps", type=float, default=1e-3)
    p.set_defaults(func=cmd_gradcheck)

    return parser


def main(argv=None) -> int:
    _apply_thread_env()
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
