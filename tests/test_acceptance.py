"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s`. Heavy artifacts
(datasets, pretrained encoders) are module-scoped fixtures shared by the
trend criteria. Every run in here is seeded and deterministic.
"""

import time
from fractions import Fraction

import numpy as np
import pytest

from spectralmae import tensor as T
from spectralmae.checkpoint import (load_checkpoint, restore_model, save_checkpoint,
                                    snapshot_model)
from spectralmae.cli import main as cli_main
from spectralmae.finetune import FinetuneConfig, finetune_classify
from spectralmae.gradcheck import grad_check
from spectralmae.manifest import load_manifest, split
from spectralmae.metrics import (average_precision, confusion_matrix, macro_map,
                                 mean_iou, micro_map, overall_accuracy,
                                 precision_recall_f1)
from spectralmae.model import (GridDims, ModelConfig, SpectralCubeAutoencoder)
from spectralmae.objective import ObjectiveConfig, spectral_loss, token_loss, total_loss
from spectralmae.preview import PRESETS, read_ppm
from spectralmae.raster import normalize_bands, read_raster, write_raster
from spectralmae.rng import CounterRng
from spectralmae.synthetic import SyntheticSpec, generate_synthetic
from spectralmae.tokenizer import (SpectralImage, build_mask, invert_targets,
                                   make_targets, patchify, unpatchify)
from spectralmae.training import (PretrainStage, pretrain_stage, progressive_pretrain)

CHI2_CRIT_19_DOF_ALPHA_01 = 36.191  # chi-squared upper 1% point, 19 degrees of freedom


def _report(criterion: int, message: str) -> None:
    print(f"\n[PASS] criterion {criterion}: {message}")


def _images_from(manifest_path):
    man = load_manifest(manifest_path)
    return [normalize_bands(read_raster(s["raster"]), man.band_min, man.band_max)
            for s in man.samples]


def _random_image(h, w, d, seed):
    vals = CounterRng(seed).uniform_array((h, w, d)).astype(np.float32)
    return SpectralImage(vals, [f"B{i + 1}" for i in range(d)])


# =====================================================================
# criterion 1: end-to-end gradient suite
# =====================================================================

def test_criterion_1_gradient_suite():
    start = time.time()
    cfg = ModelConfig.tiny(max_grid=(2, 2, 2), dtype="float64")
    model = SpectralCubeAutoencoder(cfg, CounterRng(0))
    img = _random_image(16, 16, 6, seed=1)
    grid = patchify(img, 8, 3)
    grid.tokens = grid.tokens.astype(np.float64)
    dims = GridDims(2, 2, 2)
    plan = build_mask(grid.n_tokens, 0.5, CounterRng(2), dims.n_sites)
    targets, _ = make_targets(grid, "per_token_normalized")
    objective = ObjectiveConfig(lam=1.0)

    def f():
        recon = model.reconstruct(grid.tokens, plan, dims)
        return total_loss(recon, targets, plan, grid, objective)[0]

    result = grad_check(f, model.parameters(), eps=3e-4, sample_per_param=16)
    elapsed = time.time() - start
    assert result.max_relative_error <= 1e-3, result.worst_parameter
    assert elapsed < 60.0
    _report(1, f"end-to-end max relative error {result.max_relative_error:.2e} over "
               f"{result.n_elements_checked} elements in {elapsed:.1f}s")


# =====================================================================
# criterion 2: mask invariants
# =====================================================================

def test_criterion_2_mask_invariants():
    draws = 0
    for n in (8, 64, 576):
        for ratio in (0.25, 0.5, 0.75, 0.9):
            for i in range(84):
                rng = CounterRng(9000).child(n, repr(ratio), i)
                plan = build_mask(n, ratio, rng)
                assert plan.m == int(ratio * n)
                merged = np.concatenate([plan.masked, plan.visible])
                assert sorted(merged.tolist()) == list(range(n))
                again = build_mask(n, ratio, CounterRng(9000).child(n, repr(ratio), i))
                assert np.array_equal(plan.masked, again.masked)
                draws += 1
    assert draws >= 1000

    # uniformity: N = 20, ratio 0.5, 10^4 draws, chi-squared at alpha = 0.01
    n, ratio, reps = 20, 0.5, 10_000
    counts = np.zeros(n)
    root = CounterRng(2024)
    for i in range(reps):
        counts[build_mask(n, ratio, root.child(i)).masked] += 1
    expected = reps * ratio
    chi2 = float(((counts - expected) ** 2 / expected).sum())
    assert chi2 <= CHI2_CRIT_19_DOF_ALPHA_01
    _report(2, f"{draws} draws exact/partitioned/deterministic; "
               f"chi-squared {chi2:.2f} <= {CHI2_CRIT_19_DOF_ALPHA_01}")


# =====================================================================
# criterion 3: loss oracles
# =====================================================================

def _token_oracle(recon, targets, rows):
    total, count = 0.0, 0
    for i in rows:
        for j in range(recon.shape[1]):
            total += (float(recon[i, j]) - float(targets[i, j])) ** 2
            count += 1
    return total / count


def _spectral_oracle(recon, targets, grid):
    total, count = 0.0, 0
    for site in range(grid.n_sites):
        row_r, row_t = [], []
        for s in range(grid.gs):
            row_r.extend(recon[site * grid.gs + s])
            row_t.extend(targets[site * grid.gs + s])
        for a, b in zip(row_r, row_t):
            total += (float(a) - float(b)) ** 2
            count += 1
    return total / count


def test_criterion_3_loss_oracles():
    worst_token = worst_spectral = worst_linearity = 0.0
    for trial in range(100):
        rng = CounterRng(4000).child(trial)
        img = _random_image(16, 16, 6, seed=4100 + trial)
        grid = patchify(img, 8, 3)
        plan = build_mask(grid.n_tokens, 0.5, rng)
        recon = grid.tokens + rng.child("noise").normal_array(
            grid.tokens.shape).astype(np.float32)
        scope = "masked_only" if trial % 2 else "all_tokens"
        rows = plan.masked if scope == "masked_only" else range(grid.n_tokens)
        got_t = token_loss(T.Tensor(recon), grid.tokens, plan, scope).item()
        worst_token = max(worst_token, abs(got_t - _token_oracle(recon, grid.tokens, rows)))
        got_s = spectral_loss(T.Tensor(recon), grid.tokens, grid).item()
        worst_spectral = max(worst_spectral,
                             abs(got_s - _spectral_oracle(recon, grid.tokens, grid)))
        totals = {}
        for lam in (0.25, 1.75):
            _, bd = total_loss(T.Tensor(recon), grid.tokens, plan, grid,
                               ObjectiveConfig(lam=lam, token_loss_scope=scope))
            totals[lam] = (bd.total, bd.spectral)
        lin = abs((totals[1.75][0] - totals[0.25][0]) - 1.5 * totals[1.75][1])
        worst_linearity = max(worst_linearity, lin)
    assert worst_token <= 1e-6
    assert worst_spectral <= 1e-6
    assert worst_linearity <= 1e-6
    _report(3, f"100 instances: token {worst_token:.2e}, spectral {worst_spectral:.2e}, "
               f"lambda-linearity {worst_linearity:.2e} (all <= 1e-6)")


# =====================================================================
# criterion 4: bit-exact round trips
# =====================================================================

def test_criterion_4_round_trips(tmp_path):
    rng = CounterRng(7000)
    for trial in range(200):
        gh, gw, gs = (1 + rng.randbelow(3) for _ in range(3))
        p, k = 1 + rng.randbelow(5), 1 + rng.randbelow(3)
        img = _random_image(gh * p, gw * p, gs * k, seed=7100 + trial)
        grid = patchify(img, p, k)
        assert np.array_equal(unpatchify(grid).values, img.values)
        path = tmp_path / f"r{trial}.spgr"
        write_raster(img, path)
        back = read_raster(path)
        assert np.array_equal(back.values, img.values)
        assert back.band_names == img.band_names

    model = SpectralCubeAutoencoder(ModelConfig.tiny(), CounterRng(1))
    from spectralmae.optim import AdamW
    opt = AdamW(model.parameters(), base_lr=1e-3)
    for param in model.parameters():
        param.grad[:] = 0.01
    opt.step()
    ckpt_path = tmp_path / "a.spck"
    save_checkpoint(snapshot_model(model, opt, (3, 4), stage=1, epoch=2, step=3), ckpt_path)
    reloaded = load_checkpoint(ckpt_path)
    second = tmp_path / "b.spck"
    save_checkpoint(reloaded, second)
    assert ckpt_path.read_bytes() == second.read_bytes()
    _report(4, "200 patchify + raster round trips bit-exact; "
               "checkpoint save/load/save byte-identical")


# =====================================================================
# criterion 5: convergence
# =====================================================================

def test_criterion_5_convergence(tmp_path):
    start = time.time()
    spec = SyntheticSpec(height=32, width=32, bands=6, classes=3, n_images=8,
                         rho=0.9, noise_std=0.02, seed=100)
    images = _images_from(generate_synthetic(spec, "pretrain", tmp_path / "c5"))
    model = SpectralCubeAutoencoder(ModelConfig.tiny(max_grid=(4, 4, 2)), CounterRng(0))
    stage = PretrainStage(images=images, epochs=200, base_lr=1e-3, batch_size=8,
                          mask_ratio=0.9)
    records, _ = pretrain_stage(model, ObjectiveConfig(target_mode="raw"), stage,
                                CounterRng(1))
    totals = [r.total for r in records]
    early = float(np.mean(totals[:10]))
    final = totals[-1]
    elapsed = time.time() - start
    assert final <= 0.1 * early, (final, early)
    assert elapsed < 300.0
    _report(5, f"200 steps: 10-step average {early:.4f} -> final {final:.4f} "
               f"({final / early:.1%}) in {elapsed:.0f}s")


# =====================================================================
# criteria 6 + 8 fixtures: shared classification task and encoders
# =====================================================================

@pytest.fixture(scope="module")
def classify_task(tmp_path_factory):
    root = tmp_path_factory.mktemp("classify_task")
    spec = SyntheticSpec(height=16, width=16, bands=6, classes=3, n_images=128,
                         rho=0.9, noise_std=0.02, seed=200)
    manifest_path = generate_synthetic(spec, "classify", root)
    man = load_manifest(manifest_path)
    train_man, val_man = split(man, (0.5, 0.5), seed=1)
    images = [normalize_bands(read_raster(s["raster"]), man.band_min, man.band_max)
              for s in train_man.samples]
    return {"train": train_man, "val": val_man, "images": images}


def _pretrain_500(images, ratio):
    model = SpectralCubeAutoencoder(ModelConfig.tiny(max_grid=(2, 2, 2)), CounterRng(7))
    stage = PretrainStage(images=images, epochs=125, base_lr=1e-3, batch_size=16,
                          mask_ratio=ratio)
    records, _ = pretrain_stage(model, ObjectiveConfig(), stage, CounterRng(8))
    assert len(records) * 4 == 500  # 4 steps per epoch, exactly 500 optimizer steps
    return snapshot_model(model, None, (0, 0))


@pytest.fixture(scope="module")
def encoders(classify_task):
    return {ratio: _pretrain_500(classify_task["images"], ratio)
            for ratio in (0.9, 0.25)}


def _finetune_from(ckpt, seed, task):
    cfg = FinetuneConfig(epochs=40, batch_size=8, lr=3e-3, seed=seed)
    if ckpt is None:
        model = SpectralCubeAutoencoder(ModelConfig.tiny(max_grid=(2, 2, 2)),
                                        CounterRng(1000 + seed))
    else:
        model = SpectralCubeAutoencoder(ModelConfig.tiny(max_grid=(2, 2, 2)),
                                        CounterRng(seed))
        restore_model(ckpt, model)
    report = finetune_classify(model, task["train"], cfg, task["val"])
    return report.values["accuracy"]


@pytest.fixture(scope="module")
def benefit_accuracies(classify_task, encoders):
    out = {}
    for seed in range(5):
        out[("pretrained_090", seed)] = _finetune_from(encoders[0.9], seed, classify_task)
        out[("random", seed)] = _finetune_from(None, seed, classify_task)
        out[("pretrained_025", seed)] = _finetune_from(encoders[0.25], seed, classify_task)
    return out


def test_criterion_6_pretraining_benefit(benefit_accuracies):
    wins = 0
    rows = []
    for seed in range(5):
        pre = benefit_accuracies[("pretrained_090", seed)]
        rnd = benefit_accuracies[("random", seed)]
        ok = pre >= rnd and pre >= 0.9
        wins += ok
        rows.append(f"seed {seed}: pretrained {pre:.3f} vs random {rnd:.3f}")
    assert wins >= 4, rows
    _report(6, f"pretrained >= random and >= 0.9 in {wins}/5 seeds ({'; '.join(rows)})")


# =====================================================================
# criterion 7: metric oracles
# =====================================================================

def _ap_oracle(scores, labels):
    order = sorted(range(len(scores)), key=lambda i: (-scores[i], i))
    hits, total = 0, Fraction(0)
    for rank, i in enumerate(order, start=1):
        if labels[i] == 1:
            hits += 1
            total += Fraction(hits, rank)
    return total / sum(labels)


def test_criterion_7_metric_oracles():
    rng = CounterRng(8000)
    for _ in range(100):
        n = 3 + rng.randbelow(25)
        scores = [round(rng.uniform(), 3) for _ in range(n)]
        labels = [rng.randbelow(2) for _ in range(n)]
        if sum(labels) == 0:
            labels[rng.randbelow(n)] = 1
        assert abs(average_precision(scores, labels)
                   - float(_ap_oracle(scores, labels))) <= 1e-9

    # macro/micro over matrices
    for _ in range(100):
        b, c = 4 + rng.randbelow(8), 2 + rng.randbelow(4)
        scores = rng.uniform_array((b, c))
        labels = (rng.uniform_array((b, c)) > 0.5).astype(int)
        labels[0, :] = 1  # every class has a positive
        macro, skipped = macro_map(scores, labels)
        assert not skipped
        want = np.mean([float(_ap_oracle(scores[:, j].tolist(), labels[:, j].tolist()))
                        for j in range(c)])
        assert abs(macro - want) <= 1e-9
        want_micro = float(_ap_oracle(scores.reshape(-1).tolist(),
                                      labels.reshape(-1).tolist()))
        assert abs(micro_map(scores, labels) - want_micro) <= 1e-9

    for _ in range(100):
        n_classes = 2 + rng.randbelow(4)
        n = 20 + rng.randbelow(40)
        pred = [rng.randbelow(n_classes) for _ in range(n)]
        true = [rng.randbelow(n_classes) for _ in range(n)]
        cm = confusion_matrix(pred, true, n_classes)
        correct = sum(1 for a, b in zip(pred, true) if a == b)
        assert abs(overall_accuracy(cm) - float(Fraction(correct, n))) <= 1e-12
        ious = []
        for cls in range(n_classes):
            tp = sum(1 for a, b in zip(pred, true) if a == cls and b == cls)
            fp = sum(1 for a, b in zip(pred, true) if a == cls and b != cls)
            fn = sum(1 for a, b in zip(pred, true) if a != cls and b == cls)
            if tp + fp + fn:
                ious.append(Fraction(tp, tp + fp + fn))
        assert abs(mean_iou(cm) - float(sum(ious, Fraction(0)) / len(ious))) <= 1e-9

    for _ in range(100):
        n = 10 + rng.randbelow(30)
        pred = [rng.randbelow(2) for _ in range(n)]
        true = [rng.randbelow(2) for _ in range(n)]
        p, r, f1, _ = precision_recall_f1(pred, true)
        tp = sum(1 for a, b in zip(pred, true) if a == 1 and b == 1)
        fp = sum(1 for a, b in zip(pred, true) if a == 1 and b == 0)
        fn = sum(1 for a, b in zip(pred, true) if a == 0 and b == 1)
        want_p = Fraction(tp, tp + fp) if tp + fp else Fraction(0)
        want_r = Fraction(tp, tp + fn) if tp + fn else Fraction(0)
        assert abs(p - float(want_p)) <= 1e-9 and abs(r - float(want_r)) <= 1e-9
        if want_p + want_r:
            want_f1 = 2 * want_p * want_r / (want_p + want_r)
            assert abs(f1 - float(want_f1)) <= 1e-9

    # score-monotone invariance of AP
    scores = [rng.uniform() for _ in range(30)]
    labels = [rng.randbelow(2) for _ in range(30)]
    labels[0] = 1
    base = average_precision(scores, labels)
    for f in (lambda s: 10 * s - 3, lambda s: np.exp(2 * s), lambda s: s ** 5 + s):
        assert abs(average_precision([f(s) for s in scores], labels) - base) <= 1e-12
    _report(7, "mAP (macro+micro), OA, mIoU, P/R/F1 match rational oracles on "
               "100 instances each; AP invariant under monotone rescoring")


# =====================================================================
# criterion 8: masking-ratio trend
# =====================================================================

def test_criterion_8_masking_ratio_trend(benefit_accuracies):
    wins = 0
    rows = []
    for seed in range(5):
        high = benefit_accuracies[("pretrained_090", seed)]
        low = benefit_accuracies[("pretrained_025", seed)]
        wins += high >= low
        rows.append(f"seed {seed}: ratio-0.9 {high:.3f} vs ratio-0.25 {low:.3f}")
    # soft trend: a miss here warrants written analysis rather than auto-reject;
    # the assertion stands so any regression is loud
    assert wins >= 4, rows
    _report(8, f"ratio-0.9 >= ratio-0.25 in {wins}/5 seeds ({'; '.join(rows)})")


# =====================================================================
# criterion 9: reconstruction sweep
# =====================================================================

@pytest.fixture(scope="module")
def sweep_model(tmp_path_factory):
    root = tmp_path_factory.mktemp("sweep")
    kw = dict(height=32, width=32, bands=6, classes=3, rho=0.9, noise_std=0.01,
              smoothness=16, field_amplitude=0.5)
    train = _images_from(generate_synthetic(
        SyntheticSpec(n_images=16, seed=500, **kw), "pretrain", root / "train"))
    held = _images_from(generate_synthetic(
        SyntheticSpec(n_images=8, seed=501, **kw), "pretrain", root / "held"))
    model = SpectralCubeAutoencoder(ModelConfig.tiny(max_grid=(4, 4, 2)), CounterRng(1))
    stage = PretrainStage(images=train, epochs=300, base_lr=1e-3, batch_size=8,
                          mask_ratio=0.75)
    pretrain_stage(model, ObjectiveConfig(), stage, CounterRng(11))
    return model, held


def test_criterion_9_reconstruction_sweep(sweep_model, tmp_path):
    model, held = sweep_model
    curve = []
    for ratio in (0.5, 0.75, 0.9, 0.95):
        errs = []
        for i, img in enumerate(held):
            grid = patchify(img, 8, 3)
            dims = GridDims(grid.gh, grid.gw, grid.gs)
            for rep in range(16):
                plan = build_mask(grid.n_tokens, ratio,
                                  CounterRng(6000).child(i, rep, repr(ratio)),
                                  dims.n_sites)
                recon = model.reconstruct(grid.tokens, plan, dims).data
                _, st = make_targets(grid, "per_token_normalized")
                pixels = invert_targets(recon, grid, "per_token_normalized", st)
                errs.append(float(np.mean(
                    (pixels[plan.masked] - grid.tokens[plan.masked]) ** 2)))
        curve.append(float(np.mean(errs)))
    assert all(a <= b for a, b in zip(curve, curve[1:])), curve

    # every geo-characteristic preset must come out as a valid P6 file
    kw12 = dict(height=32, width=32, bands=12, classes=3, rho=0.9, noise_std=0.01,
                smoothness=16, field_amplitude=0.5)
    data_dir = tmp_path / "bands12"
    images12 = _images_from(generate_synthetic(
        SyntheticSpec(n_images=8, seed=502, **kw12), "pretrain", data_dir))
    model12 = SpectralCubeAutoencoder(ModelConfig.tiny(max_grid=(4, 4, 4)), CounterRng(2))
    stage = PretrainStage(images=images12, epochs=100, base_lr=1e-3, batch_size=8,
                          mask_ratio=0.75)
    pretrain_stage(model12, ObjectiveConfig(), stage, CounterRng(12))
    ckpt_path = tmp_path / "sweep12.spck"
    save_checkpoint(snapshot_model(model12, None, (0, 0)), ckpt_path)
    raster_path = load_manifest(data_dir / "manifest.json").samples[0]["raster"]
    out = tmp_path / "previews"
    assert cli_main(["reconstruct", "--checkpoint", str(ckpt_path),
                     "--raster", str(raster_path), "--ratios", "0.5,0.75,0.9,0.95",
                     "--preset", "all", "--out", str(out), "--seed", "3"]) == 0
    for preset in PRESETS:
        path = out / f"recon_r90_{preset}_composite.ppm"
        assert path.read_bytes()[:2] == b"P6"
        assert read_ppm(path).shape == (32, 32, 3)
    _report(9, f"masked MSE non-decreasing over ratios: "
               f"{['%.5f' % c for c in curve]}; all {len(PRESETS)} presets emitted as P6")


# =====================================================================
# criterion 10: progressive stage benefit
# =====================================================================

def test_criterion_10_progressive_benefit(tmp_path):
    small = _images_from(generate_synthetic(
        SyntheticSpec(height=16, width=16, bands=6, classes=3, n_images=32, rho=0.9,
                      noise_std=0.02, seed=300), "pretrain", tmp_path / "s"))
    large = _images_from(generate_synthetic(
        SyntheticSpec(height=32, width=32, bands=6, classes=3, n_images=32, rho=0.9,
                      noise_std=0.02, seed=301), "pretrain", tmp_path / "l"))
    objective = ObjectiveConfig(target_mode="raw")
    wins = 0
    rows = []
    for seed in range(5):
        stage1 = PretrainStage(images=small, epochs=25, base_lr=1e-3, batch_size=8,
                               mask_ratio=0.75)
        stage2 = PretrainStage(images=large, epochs=15, base_lr=1e-3, batch_size=8,
                               mask_ratio=0.75)
        warm = SpectralCubeAutoencoder(ModelConfig.tiny(max_grid=(2, 2, 2)),
                                       CounterRng(seed))
        records = progressive_pretrain(warm, objective, [stage1, stage2],
                                       CounterRng(100 + seed))
        warm_final = [r for r in records if r.stage == 1][-1].total
        fresh = SpectralCubeAutoencoder(ModelConfig.tiny(max_grid=(4, 4, 2)),
                                        CounterRng(seed))
        fresh_records, _ = pretrain_stage(fresh, objective, stage2,
                                          CounterRng(100 + seed), stage_index=1)
        fresh_final = fresh_records[-1].total
        wins += warm_final < fresh_final
        rows.append(f"seed {seed}: two-stage {warm_final:.4f} vs fresh {fresh_final:.4f}")
    assert wins >= 4, rows
    _report(10, f"two-stage beats fresh stage-2 in {wins}/5 seeds ({'; '.join(rows)})")


# =====================================================================
# criterion 11: visible-only encoder cost
# =====================================================================

def test_criterion_11_encoder_efficiency():
    cfg = ModelConfig(embed_dim=96, encoder_depth=12, encoder_heads=12,
                      decoder_dim=48, decoder_depth=4, decoder_heads=6,
                      max_grid=(12, 12, 4))
    model = SpectralCubeAutoencoder(cfg, CounterRng(2))
    img = _random_image(96, 96, 12, seed=3)
    grid = patchify(img, 8, 3)
    dims = GridDims(12, 12, 4)

    def best_time(ratio):
        times = []
        for rep in range(3):
            plan = build_mask(grid.n_tokens, ratio, CounterRng(10 + rep), dims.n_sites)
            start = time.time()
            model.encode(grid.tokens[plan.visible], plan, dims)
            times.append(time.time() - start)
        return min(times)

    masked_time = best_time(0.9)
    full_time = best_time(0.0)
    assert masked_time < full_time
    _report(11, f"encode at ratio 0.9 takes {masked_time * 1000:.0f} ms vs "
                f"{full_time * 1000:.0f} ms at ratio 0.0 "
                f"({full_time / masked_time:.0f}x)")
