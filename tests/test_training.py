import numpy as np
import pytest

from spectralmae.checkpoint import (load_checkpoint, restore_model,
                                    restore_optimizer, save_checkpoint, snapshot_model)
from spectralmae.errors import ConfigError, EvaluationError, FormatError, ShapeError
from spectralmae.model import ModelConfig, SpectralCubeAutoencoder
from spectralmae.objective import ObjectiveConfig
from spectralmae.optim import AdamW, Schedule, lr_at
from spectralmae.rng import CounterRng
from spectralmae.tensor import Parameter, ParameterSet
from spectralmae.tokenizer import SpectralImage
from spectralmae.training import (EpochRecord, PretrainStage, pretrain_stage,
                                  progressive_pretrain)


def _smooth_images(count, h, w, d, seed=0):
    """Blocky low-frequency fields: cheap stand-ins for correlated spectra."""
    images = []
    root = CounterRng(seed)
    for i in range(count):
        coarse = root.child(i).uniform_array((h // 8, w // 8, d)).astype(np.float32)
        vals = np.repeat(np.repeat(coarse, 8, axis=0), 8, axis=1)
        images.append(SpectralImage(vals, [f"B{j+1}" for j in range(d)]))
    return images


def _stage(images, **overrides):
    args = dict(images=images, epochs=2, base_lr=1e-3, batch_size=4,
                mask_ratio=0.5, warmup_frac=0.1)
    args.update(overrides)
    return PretrainStage(**args)


# ---------------------------------------------------------------- AdamW

def test_adamw_zero_grad_no_decay_is_identity():
    ps = ParameterSet()
    ps.add("w", Parameter(np.array([1.0, -2.0], np.float32)))
    ps.zero_grads()
    AdamW(ps, base_lr=0.1).step()
    assert np.array_equal(ps["w"].data, [1.0, -2.0])


def test_adamw_hand_stepped_first_update():
    ps = ParameterSet()
    w = ps.add("w", Parameter(np.array([1.0], np.float64)))
    w.grad[:] = 1.0
    AdamW(ps, base_lr=0.1, beta1=0.9, beta2=0.999, eps=1e-8).step()
    # m_hat = 1, v_hat = 1 -> w = 1 - 0.1 * 1/(1 + 1e-8)
    assert abs(w.data[0] - (1.0 - 0.1 / (1.0 + 1e-8))) < 1e-12
    assert np.all(w.grad == 0.0)  # grads zeroed after the step


def test_adamw_decoupled_decay_with_zero_grad():
    ps = ParameterSet()
    w = ps.add("w", Parameter(np.array([1.0], np.float64)))
    ps.zero_grads()
    AdamW(ps, base_lr=0.1, weight_decay=0.1).step()
    assert abs(w.data[0] - 0.99) < 1e-12


def test_adamw_aborts_on_nonfinite_grad_naming_param():
    ps = ParameterSet()
    w = ps.add("bad.weight", Parameter(np.array([1.0], np.float32)))
    w.grad[:] = np.nan
    with pytest.raises(EvaluationError) as exc:
        AdamW(ps).step()
    assert "bad.weight" in str(exc.value)


def test_adamw_clip_norm():
    ps = ParameterSet()
    w = ps.add("w", Parameter(np.array([0.0, 0.0], np.float64)))
    w.grad[:] = [3.0, 4.0]  # norm 5
    opt = AdamW(ps, base_lr=1e-3, clip_norm=1.0)
    opt.step()
    # after clip the direction is preserved; first-step AdamW moves ~lr per coord
    assert np.all(np.isfinite(w.data))


# ---------------------------------------------------------------- schedule

def test_schedule_endpoints_exact():
    sched = Schedule(warmup_steps=10, total_steps=100, base_lr=1e-3, min_lr=1e-5)
    assert lr_at(sched, 0) == 0.0
    assert lr_at(sched, 10) == 1e-3
    assert lr_at(sched, 100) == pytest.approx(1e-5, abs=1e-20)
    assert lr_at(sched, 55) == pytest.approx((1e-3 + 1e-5) / 2, rel=1e-12)


def test_schedule_monotone_after_warmup():
    sched = Schedule(5, 50, 1.0, 0.0)
    values = [lr_at(sched, s) for s in range(5, 51)]
    assert all(a >= b for a, b in zip(values, values[1:]))


def test_schedule_step_out_of_range():
    sched = Schedule(0, 10, 1.0)
    with pytest.raises(ValueError):
        lr_at(sched, 11)
    with pytest.raises(ValueError):
        lr_at(sched, -1)


# ---------------------------------------------------------------- checkpoints

def _model_and_opt(seed=0):
    model = SpectralCubeAutoencoder(ModelConfig.tiny(max_grid=(4, 4, 2)), CounterRng(seed))
    opt = AdamW(model.parameters(), base_lr=1e-3, weight_decay=0.01)
    return model, opt


def test_checkpoint_roundtrip_bitwise(tmp_path):
    model, opt = _model_and_opt()
    for p in model.parameters():
        p.grad[:] = 0.001
    opt.step()
    ckpt = snapshot_model(model, opt, (123, 456), stage=1, epoch=2, step=3)
    path = tmp_path / "a.spck"
    save_checkpoint(ckpt, path)
    loaded = load_checkpoint(path)
    path2 = tmp_path / "b.spck"
    save_checkpoint(loaded, path2)
    assert path.read_bytes() == path2.read_bytes()
    for name, arr in ckpt.params.items():
        assert np.array_equal(arr, loaded.params[name])
    assert loaded.rng_state == (123, 456)
    assert (loaded.stage, loaded.epoch, loaded.step) == (1, 2, 3)
    assert loaded.optimizer.step_count == 1


def test_checkpoint_bad_magic_rejected(tmp_path):
    path = tmp_path / "bad.spck"
    path.write_bytes(b"NOPE" + b"\x00" * 64)
    with pytest.raises(FormatError):
        load_checkpoint(path)


def test_checkpoint_truncation_is_io_error(tmp_path):
    model, opt = _model_and_opt()
    path = tmp_path / "full.spck"
    save_checkpoint(snapshot_model(model, opt, (0, 0)), path)
    data = path.read_bytes()
    cut = tmp_path / "cut.spck"
    cut.write_bytes(data[:len(data) // 2])
    from spectralmae.errors import TruncatedFileError
    with pytest.raises(TruncatedFileError):
        load_checkpoint(cut)


def test_checkpoint_shape_mismatch_named(tmp_path):
    model, opt = _model_and_opt()
    path = tmp_path / "m.spck"
    save_checkpoint(snapshot_model(model, None, (0, 0)), path)
    other = SpectralCubeAutoencoder(ModelConfig.tiny(max_grid=(8, 8, 2)), CounterRng(1))
    with pytest.raises(ShapeError) as exc:
        restore_model(load_checkpoint(path), other)
    assert "pos.spatial" in str(exc.value)


def test_checkpoint_restore_into_model(tmp_path):
    model, opt = _model_and_opt(seed=3)
    path = tmp_path / "r.spck"
    save_checkpoint(snapshot_model(model, opt, (9, 9)), path)
    clone = SpectralCubeAutoencoder(ModelConfig.tiny(max_grid=(4, 4, 2)), CounterRng(99))
    restore_model(load_checkpoint(path), clone)
    for name, p in model.parameters().items():
        assert np.array_equal(p.data, clone.parameters()[name].data)


def test_checkpoint_nonzero_drop_path_rejected(tmp_path):
    import struct

    model, _ = _model_and_opt()
    path = tmp_path / "d.spck"
    save_checkpoint(snapshot_model(model, None, (0, 0)), path)
    data = path.read_bytes()
    # the v1 layout keeps a drop_path slot: name, kind "f", then an f64
    slot = data.index(b"drop_path" + struct.pack("<I", 1) + b"f") + len("drop_path") + 5
    assert data[slot:slot + 8] == struct.pack("<d", 0.0)
    bad = tmp_path / "bad.spck"
    bad.write_bytes(data[:slot] + struct.pack("<d", 0.1) + data[slot + 8:])
    with pytest.raises(FormatError, match="drop_path"):
        load_checkpoint(bad)


# ---------------------------------------------------------------- pretraining loop

def test_pretrain_smoke_single_step_finite():
    model = SpectralCubeAutoencoder(ModelConfig.tiny(max_grid=(4, 4, 2)), CounterRng(0))
    images = _smooth_images(1, 32, 32, 6, seed=1)
    stage = _stage(images, epochs=1, batch_size=1)
    records, _ = pretrain_stage(model, ObjectiveConfig(), stage, CounterRng(2))
    assert len(records) == 1
    assert np.isfinite(records[0].total)
    for p in model.parameters():
        assert np.all(np.isfinite(p.data)), p.name


def test_pretrain_deterministic_traces():
    def run():
        model = SpectralCubeAutoencoder(ModelConfig.tiny(max_grid=(4, 4, 2)), CounterRng(0))
        stage = _stage(_smooth_images(8, 32, 32, 6, seed=5), epochs=3)
        records, _ = pretrain_stage(model, ObjectiveConfig(), stage, CounterRng(7))
        return [(r.token, r.spectral, r.total) for r in records], \
            model.parameters()["patch_embed.weight"].data.copy()

    r1, w1 = run()
    r2, w2 = run()
    assert r1 == r2
    assert np.array_equal(w1, w2)


def test_pretrain_loss_decreases():
    model = SpectralCubeAutoencoder(ModelConfig.tiny(max_grid=(4, 4, 2)), CounterRng(0))
    stage = _stage(_smooth_images(8, 32, 32, 6, seed=11), epochs=10, base_lr=1e-3)
    records, _ = pretrain_stage(model, ObjectiveConfig(), stage, CounterRng(13))
    assert records[-1].total < records[0].total


def test_pretrain_batch_larger_than_dataset_rejected():
    model = SpectralCubeAutoencoder(ModelConfig.tiny(max_grid=(4, 4, 2)), CounterRng(0))
    stage = _stage(_smooth_images(2, 32, 32, 6), batch_size=4)
    with pytest.raises(ConfigError):
        pretrain_stage(model, ObjectiveConfig(), stage, CounterRng(0))


def test_resume_equivalence_bitwise(tmp_path):
    images = _smooth_images(8, 32, 32, 6, seed=21)
    objective = ObjectiveConfig()

    def fresh_model():
        return SpectralCubeAutoencoder(ModelConfig.tiny(max_grid=(4, 4, 2)), CounterRng(31))

    # uninterrupted: 4 epochs
    model_a = fresh_model()
    stage = _stage(images, epochs=4)
    records_a, _ = pretrain_stage(model_a, objective, stage, CounterRng(41))

    # interrupted: stop the same 4-epoch run after 2 epochs, checkpoint,
    # restore into a fresh model, continue
    model_b = fresh_model()
    stage_first = _stage(images, epochs=4)
    _, opt_b = pretrain_stage(model_b, objective, stage_first, CounterRng(41),
                              end_epoch=2)
    path = tmp_path / "mid.spck"
    save_checkpoint(snapshot_model(model_b, opt_b, CounterRng(41).state(),
                                   stage=0, epoch=2, step=0), path)

    model_c = fresh_model()
    ckpt = load_checkpoint(path)
    restore_model(ckpt, model_c)
    stage_rest = _stage(images, epochs=4)
    opt_c = AdamW(model_c.parameters(), base_lr=stage_rest.base_lr,
                  weight_decay=stage_rest.weight_decay)
    restore_optimizer(ckpt.optimizer, opt_c)
    rng_c = CounterRng(*ckpt.rng_state)
    records_c, _ = pretrain_stage(model_c, objective, stage_rest, rng_c,
                                  optimizer=opt_c, start_epoch=ckpt.epoch)

    resumed = [(r.epoch, r.token, r.spectral, r.total) for r in records_c]
    uninterrupted = [(r.epoch, r.token, r.spectral, r.total) for r in records_a[2:]]
    assert resumed == uninterrupted
    for name, p in model_a.parameters().items():
        assert np.array_equal(p.data, model_c.parameters()[name].data), name


def test_progressive_two_stage_resizes_and_carries_weights():
    model = SpectralCubeAutoencoder(ModelConfig.tiny(max_grid=(2, 2, 2)), CounterRng(0))
    small = _smooth_images(4, 16, 16, 6, seed=51)
    large = _smooth_images(4, 32, 32, 6, seed=52)
    stages = [_stage(small, epochs=1, batch_size=2),
              _stage(large, epochs=1, batch_size=2)]
    records = progressive_pretrain(model, ObjectiveConfig(), stages, CounterRng(1))
    assert [r.stage for r in records] == [0, 1]
    assert model.config.max_grid == (4, 4, 2)


def test_progressive_single_stage_equals_pretrain_stage():
    def run_progressive():
        model = SpectralCubeAutoencoder(ModelConfig.tiny(max_grid=(4, 4, 2)), CounterRng(2))
        stages = [_stage(_smooth_images(4, 32, 32, 6, seed=61), epochs=2, batch_size=2)]
        return progressive_pretrain(model, ObjectiveConfig(), stages, CounterRng(3))

    def run_single():
        model = SpectralCubeAutoencoder(ModelConfig.tiny(max_grid=(4, 4, 2)), CounterRng(2))
        stage = _stage(_smooth_images(4, 32, 32, 6, seed=61), epochs=2, batch_size=2)
        records, _ = pretrain_stage(model, ObjectiveConfig(), stage, CounterRng(3))
        return records

    a = [(r.stage, r.epoch, r.total) for r in run_progressive()]
    b = [(r.stage, r.epoch, r.total) for r in run_single()]
    assert a == b


def test_epoch_record_json_line():
    rec = EpochRecord(0, 3, 0.5, 0.25, 0.75, 1e-4)
    line = rec.to_json()
    import json
    parsed = json.loads(line)
    assert parsed["epoch"] == 3 and parsed["total"] == 0.75
    assert "\n" not in line
