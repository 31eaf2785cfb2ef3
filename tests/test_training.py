import re
import struct
from dataclasses import replace

import numpy as np
import pytest

from spectralmae.checkpoint import (load_checkpoint, restore_model,
                                    restore_optimizer, save_checkpoint, snapshot_model)
from spectralmae import tensor as T
from spectralmae.errors import (ConfigError, EvaluationError, FormatError, ShapeError,
                                TruncatedFileError)
from spectralmae.model import MAX_GROUP_ROWS, ModelConfig, SpectralCubeAutoencoder
from spectralmae.objective import ObjectiveConfig
from spectralmae.optim import AdamW, Schedule, lr_at
from spectralmae.rng import CounterRng
from spectralmae.tensor import Parameter, ParameterSet
from spectralmae.tokenizer import SpectralImage, build_mask
from spectralmae.training import (EpochRecord, PretrainStage, group_loss, pretrain_stage,
                                  progressive_pretrain, restore_run)

from memtrace import traced_memory, value_bytes


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
    opt = AdamW(ps, base_lr=0.1, beta1=0.9, beta2=0.999, eps=1e-8)
    w.grad[:] = 1.0
    opt.step()
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
    opt = AdamW(ps)
    w.grad[:] = np.nan
    with pytest.raises(EvaluationError) as exc:
        opt.step()
    assert "bad.weight" in str(exc.value)


def test_adamw_clip_norm():
    ps = ParameterSet()
    w = ps.add("w", Parameter(np.array([0.0, 0.0], np.float64)))
    opt = AdamW(ps, base_lr=1e-3, clip_norm=1.0)
    w.grad[:] = [3.0, 4.0]  # norm 5
    opt.step()
    # after clip the direction is preserved; first-step AdamW moves ~lr per coord
    assert np.all(np.isfinite(w.data))


def _oracle_adamw_step(params, m, v, step_count, lr, beta1=0.9, beta2=0.999, eps=1e-8,
                       weight_decay=0.0, clip_norm=None):
    """The per-parameter AdamW loop the arena replaced, kept as the reference."""
    if clip_norm is not None:
        norm = float(np.sqrt(sum(float((g.astype(np.float64) ** 2).sum())
                                 for _, g in params.values())))
    bc1 = 1.0 - beta1 ** step_count
    bc2 = 1.0 - beta2 ** step_count
    for name, (data, g) in params.items():
        if clip_norm is not None and norm > clip_norm:
            g = g * (clip_norm / norm)
        if weight_decay:
            data *= (1.0 - lr * weight_decay)
        m[name] *= beta1
        m[name] += (1.0 - beta1) * g
        v[name] *= beta2
        v[name] += (1.0 - beta2) * (g * g)
        data -= lr * ((m[name] / bc1) / (np.sqrt(v[name] / bc2) + eps))


# (5,) then (300, 250): the first chunk ends inside the second parameter
_ARENA_SHAPES = {"a": (5,), "b": (300, 250), "c": (3, 4), "s": ()}


def _step_arena_and_oracle(dtype, steps=3, **opt_kwargs):
    """Step an AdamW and the oracle side by side on the same gradients.

    Yields (optimizer, parameters, oracle values, oracle m, oracle v) after each step.
    """
    rng = CounterRng(7)
    ps = ParameterSet()
    for name, shape in _ARENA_SHAPES.items():
        ps.add(name, Parameter(rng.child("w", name).normal_array(shape).astype(dtype)))
    oracle = {name: p.data.copy() for name, p in ps.items()}
    m = {name: np.zeros_like(a) for name, a in oracle.items()}
    v = {name: np.zeros_like(a) for name, a in oracle.items()}
    opt = AdamW(ps, base_lr=1e-3, **opt_kwargs)
    for step in range(1, steps + 1):
        grads = {name: rng.child("g", step, name).normal_array(shape).astype(dtype)
                 for name, shape in _ARENA_SHAPES.items()}
        for name, p in ps.items():
            p.grad[...] = grads[name]
        lr = 1e-3 * step
        opt.step(lr)
        _oracle_adamw_step({n: (oracle[n], grads[n]) for n in oracle}, m, v, step, lr,
                           **opt_kwargs)
        yield opt, ps, oracle, m, v


@pytest.mark.parametrize("dtype", ["float32", "float64"])
@pytest.mark.parametrize("weight_decay", [0.0, 0.1])
def test_adamw_arena_matches_per_parameter_oracle(dtype, weight_decay):
    from spectralmae.optim import CHUNK

    assert _ARENA_SHAPES["a"][0] < CHUNK < 5 + 300 * 250
    for step, (opt, ps, oracle, m, v) in enumerate(
            _step_arena_and_oracle(dtype, weight_decay=weight_decay), 1):
        for name, p in ps.items():
            assert p.data.dtype == np.dtype(dtype)
            assert np.array_equal(p.data, oracle[name]), (step, name)
            assert np.array_equal(opt.m[name], m[name]), (step, name)
            assert np.array_equal(opt.v[name], v[name]), (step, name)
            assert not p.grad.any()


def test_adamw_clip_matches_oracle_up_to_norm_summation_order():
    for _, ps, oracle, _, _ in _step_arena_and_oracle("float32", clip_norm=1.0):
        for name, p in ps.items():
            # the float64 norm may round differently; float32 steps then differ by ulps
            assert np.allclose(p.data, oracle[name], rtol=1e-5, atol=1e-9), name


def test_adamw_rejects_mixed_dtypes():
    ps = ParameterSet()
    ps.add("a", Parameter(np.zeros(2, np.float32)))
    ps.add("b", Parameter(np.zeros(2, np.float64)))
    with pytest.raises(ShapeError, match="float32.*float64"):
        AdamW(ps)


def test_adamw_step_raises_when_a_parameter_left_the_arena():
    ps = ParameterSet()
    w = ps.add("w", Parameter(np.ones(3, np.float32)))
    opt = AdamW(ps)
    w.data = w.data.copy()
    with pytest.raises(ShapeError, match="'w'"):
        opt.step()


def test_adamw_step_raises_after_positional_tables_resize():
    model = SpectralCubeAutoencoder(ModelConfig.tiny(max_grid=(2, 2, 2)), CounterRng(0))
    opt = AdamW(model.parameters())
    model.resize_pos_tables((4, 4, 2))
    with pytest.raises(ShapeError, match="pos.spatial"):
        opt.step()
    AdamW(model.parameters()).step()  # a fresh optimizer adopts the new tables


def test_backward_after_resize_still_fails_the_stale_optimizer():
    model = SpectralCubeAutoencoder(ModelConfig.tiny(max_grid=(2, 2, 2)), CounterRng(0))
    opt = AdamW(model.parameters())
    model.resize_pos_tables((4, 4, 2))
    images = _smooth_images(1, 32, 32, 6, seed=3)
    loss, _ = group_loss(model, images, ObjectiveConfig(), 0.5, [CounterRng(4)])
    loss.backward()  # the resized tables take fresh gradients of their new shape
    assert model.parameters()["pos.spatial"].grad.shape == (16, model.config.embed_dim)
    with pytest.raises(ShapeError, match="pos.spatial"):
        opt.step()


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


def test_snapshot_holds_the_live_arrays_in_new_dicts(tmp_path):
    import copy

    model, opt = _model_and_opt()
    for p in model.parameters():
        p.grad[:] = 0.001
    opt.step()  # non-zero moments
    ckpt = snapshot_model(model, opt, (1, 2), stage=1, epoch=1)
    live = {"params": {name: p.data for name, p in model.parameters().items()},
            "m": opt.m, "v": opt.v}
    held = {"params": ckpt.params, "m": ckpt.optimizer.m, "v": ckpt.optimizer.v}
    for kind, arrays in held.items():
        assert list(arrays) == list(live[kind]), kind
        for name, arr in arrays.items():
            assert np.shares_memory(arr, live[kind][name]), (kind, name)
    assert ckpt.optimizer.m is not opt.m and ckpt.optimizer.v is not opt.v
    ckpt.optimizer.v["pos.spectral"] = np.zeros((1, 1), np.float32)
    ckpt.params["pos.spectral"] = np.zeros((1, 1), np.float32)
    assert opt.v["pos.spectral"].shape != (1, 1)
    assert model.parameters()["pos.spectral"].data.shape != (1, 1)

    ckpt = snapshot_model(model, opt, (1, 2), stage=1, epoch=1)
    save_checkpoint(ckpt, tmp_path / "live.spck")
    save_checkpoint(copy.deepcopy(ckpt), tmp_path / "copied.spck")
    assert (tmp_path / "live.spck").read_bytes() == (tmp_path / "copied.spck").read_bytes()


def test_snapshot_and_save_of_a_pretrain_mid_model_allocate_almost_nothing(tmp_path):
    # the pretrain-mid model with AdamW: an 18.1 MB file. Measured: the save
    # of a snapshot allocates 1.5% of it; snapshots that copied every
    # weight and moment allocated 102%
    cfg = ModelConfig(embed_dim=96, encoder_depth=12, encoder_heads=12, decoder_dim=48,
                      decoder_depth=4, decoder_heads=6, max_grid=(12, 12, 4))
    model = SpectralCubeAutoencoder(cfg, CounterRng(0))
    opt = AdamW(model.parameters(), base_lr=1e-3)
    path = tmp_path / "mid.spck"
    save_checkpoint(snapshot_model(model, opt, (0, 0)), path)  # first calls out of the trace
    with traced_memory() as read:
        save_checkpoint(snapshot_model(model, opt, (0, 0), epoch=1), path)
        _, peak = read()
    assert peak < 0.05 * path.stat().st_size


def test_checkpoint_failed_save_keeps_previous_file(tmp_path, monkeypatch):
    import builtins

    import spectralmae.checkpoint as checkpoint

    model, opt = _model_and_opt()
    path = tmp_path / "checkpoint_last.spck"
    save_checkpoint(snapshot_model(model, opt, (1, 0), epoch=1), path)
    good = path.read_bytes()

    class DiskFull:
        """Writes half of what it is given, then fails as a full disk would."""

        def __init__(self, fh):
            self.fh = fh

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.fh.close()

        def write(self, data):
            self.fh.write(data[:len(data) // 2])
            raise OSError(28, "No space left on device")

    monkeypatch.setattr(checkpoint, "open",
                        lambda *a, **k: DiskFull(builtins.open(*a, **k)), raising=False)
    with pytest.raises(OSError):
        save_checkpoint(snapshot_model(model, opt, (1, 0), epoch=2), path)
    monkeypatch.undo()
    assert path.read_bytes() == good
    assert load_checkpoint(path).epoch == 1
    assert sorted(p.name for p in tmp_path.iterdir()) == ["checkpoint_last.spck"]


def test_checkpoint_save_syncs_the_sibling_before_renaming_it(tmp_path, monkeypatch):
    import os

    model, opt = _model_and_opt()
    path = tmp_path / "checkpoint_last.spck"
    calls = []
    fsync, replace = os.fsync, os.replace

    def recording_fsync(fd):
        calls.append(("fsync", os.fstat(fd).st_ino))
        fsync(fd)

    def recording_replace(src, dst):
        calls.append(("replace", os.stat(src).st_ino, os.fspath(dst)))
        replace(src, dst)

    monkeypatch.setattr(os, "fsync", recording_fsync)
    monkeypatch.setattr(os, "replace", recording_replace)
    save_checkpoint(snapshot_model(model, opt, (1, 0), epoch=1), path)
    monkeypatch.undo()
    inode = os.stat(path).st_ino
    assert calls == [("fsync", inode), ("replace", inode, os.fspath(path))]


@pytest.mark.parametrize("flag", [2, 7, 255])
def test_checkpoint_optimizer_flag_other_than_0_or_1_is_format_error(tmp_path, flag):
    model, opt = _model_and_opt()
    bare, path = tmp_path / "bare.spck", tmp_path / "m.spck"
    save_checkpoint(snapshot_model(model, None, (0, 0)), bare)
    save_checkpoint(snapshot_model(model, opt, (0, 0)), path)
    # both files agree up to the flag, which precedes the 40-byte trailer in the bare one
    offset = bare.stat().st_size - 41
    data = bytearray(path.read_bytes())
    assert data[:offset] == bare.read_bytes()[:offset] and data[offset] == 1
    data[offset] = flag
    path.write_bytes(bytes(data))
    with pytest.raises(FormatError, match=re.escape(f"checkpoint {path} optimizer flag {flag}")):
        load_checkpoint(path)


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


def test_restore_into_an_unfilled_model_allocates_no_gradient(tmp_path):
    model, opt = _model_and_opt(seed=3)
    path = tmp_path / "r.spck"
    save_checkpoint(snapshot_model(model, opt, (9, 9)), path)
    clone = SpectralCubeAutoencoder(ModelConfig.tiny(max_grid=(4, 4, 2)), rng=None)
    restore_model(load_checkpoint(path), clone)
    for name, p in clone.parameters().items():
        assert p.grad is None, name
        assert np.array_equal(p.data, model.parameters()[name].data), name


def test_restores_write_in_place_and_the_next_step_uses_them(tmp_path):
    model_a, opt_a = _model_and_opt(seed=3)
    grads = {name: np.full(p.data.shape, 1e-3 * (i + 1), np.float32)
             for i, (name, p) in enumerate(model_a.parameters().items())}
    for _ in range(3):
        for name, p in model_a.parameters().items():
            p.grad[...] = grads[name]
        opt_a.step()
    path = tmp_path / "a.spck"
    save_checkpoint(snapshot_model(model_a, opt_a, (0, 0)), path)

    model_b, opt_b = _model_and_opt(seed=4)
    views = {name: (p.data, p.grad, opt_b.m[name], opt_b.v[name])
             for name, p in model_b.parameters().items()}
    ckpt = load_checkpoint(path)
    restore_model(ckpt, model_b)
    restore_optimizer(ckpt.optimizer, opt_b)
    for name, p in model_b.parameters().items():
        data, grad, m, v = views[name]
        assert p.data is data and p.grad is grad, name
        assert opt_b.m[name] is m and opt_b.v[name] is v, name
    for opt, model in ((opt_a, model_a), (opt_b, model_b)):
        for name, p in model.parameters().items():
            p.grad[...] = grads[name]
        opt.step()
    assert opt_b.step_count == 4
    for name, p in model_a.parameters().items():
        assert np.array_equal(p.data, model_b.parameters()[name].data), name
        assert np.array_equal(opt_a.m[name], opt_b.m[name]), name
        assert np.array_equal(opt_a.v[name], opt_b.v[name]), name


def test_restore_optimizer_shape_mismatch_named(tmp_path):
    model, opt = _model_and_opt()
    snap = snapshot_model(model, opt, (0, 0)).optimizer
    snap.v["pos.spectral"] = np.zeros((1, 1), np.float32)
    with pytest.raises(ShapeError, match="pos.spectral"):
        restore_optimizer(snap, opt)
    assert opt.step_count == 0


def test_restore_optimizer_keeps_the_optimizers_hyper_parameters():
    model, opt = _model_and_opt()  # weight decay 0.01
    for p in model.parameters():
        p.grad[:] = 0.001
    opt.step()
    snap = snapshot_model(model, opt, (0, 0)).optimizer
    other = AdamW(model.parameters(), base_lr=2e-3)
    restore_optimizer(snap, other)
    assert (other.step_count, other.base_lr, other.weight_decay) == (1, 2e-3, 0.0)


def _tensor_extent_offset(data: bytes, name: bytes) -> int:
    """Offset of the first extent of the first tensor called `name`."""
    return data.index(name) + len(name) + 2  # skip the dtype tag and rank bytes


def test_checkpoint_huge_extent_is_package_error(tmp_path):
    model, opt = _model_and_opt()
    path = tmp_path / "m.spck"
    save_checkpoint(snapshot_model(model, opt, (0, 0)), path)
    data = bytearray(path.read_bytes())
    off = _tensor_extent_offset(bytes(data), b"patch_embed.weight")
    # 2**62 times the other extent wraps to 0 in numpy's int64 product
    data[off:off + 8] = (1 << 62).to_bytes(8, "little")
    path.write_bytes(bytes(data))
    with pytest.raises(TruncatedFileError):
        load_checkpoint(path)


def test_checkpoint_zero_size_tensor_with_huge_extent_is_format_error(tmp_path):
    model, _ = _model_and_opt()
    ckpt = snapshot_model(model, None, (0, 0))
    ckpt.params = {"empty": np.zeros((3, 0), np.float32)}
    path = tmp_path / "m.spck"
    save_checkpoint(ckpt, path)
    data = bytearray(path.read_bytes())
    off = _tensor_extent_offset(bytes(data), b"empty")
    data[off:off + 8] = (1 << 63).to_bytes(8, "little")
    path.write_bytes(bytes(data))
    with pytest.raises(FormatError):
        load_checkpoint(path)


def test_checkpoint_non_utf8_name_is_format_error(tmp_path):
    model, _ = _model_and_opt()
    path = tmp_path / "m.spck"
    save_checkpoint(snapshot_model(model, None, (0, 0)), path)
    data = bytearray(path.read_bytes())
    data[data.index(b"patch_embed.weight")] = 0xFF
    path.write_bytes(bytes(data))
    with pytest.raises(FormatError, match="UTF-8"):
        load_checkpoint(path)


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


@pytest.mark.parametrize("field,value", [("encoder_heads", 0), ("decoder_heads", 3)])
def test_checkpoint_invalid_config_is_format_error(tmp_path, field, value):
    import struct

    model, _ = _model_and_opt()
    path = tmp_path / "c.spck"
    save_checkpoint(snapshot_model(model, None, (0, 0)), path)
    data = path.read_bytes()
    slot = data.index(field.encode() + struct.pack("<I", 1) + b"i") + len(field) + 5
    bad = tmp_path / "bad.spck"
    bad.write_bytes(data[:slot] + struct.pack("<q", value) + data[slot + 8:])
    with pytest.raises(FormatError, match="config"):
        load_checkpoint(bad)


def _config_field(name, kind, fmt, *values):
    """One SPCK config entry: length-prefixed name and kind, then the packed value."""
    return (struct.pack("<I", len(name)) + name.encode() + struct.pack("<I", len(kind))
            + kind.encode() + struct.pack(fmt, *values))


@pytest.mark.parametrize("old,new,message", [
    (_config_field("p", "i", "<q", 8), _config_field("p", "f", "<d", 8.0),
     "config p has kind 'f', not 'i'"),
    (_config_field("dtype", "s", "<I7s", 7, b"float32"), _config_field("dtype", "i", "<q", 7),
     "config dtype has kind 'i', not 's'"),
    (_config_field("k", "i", "<q", 3), _config_field("q", "i", "<q", 3),
     "unknown or repeated checkpoint config field q"),
    (_config_field("k", "i", "<q", 3), _config_field("p", "i", "<q", 3),
     "unknown or repeated checkpoint config field p"),
], ids=["p_as_float", "dtype_as_int", "unknown_name", "repeated_name"])
def test_checkpoint_config_field_of_wrong_kind_or_name_is_format_error(tmp_path, old, new,
                                                                       message):
    model, _ = _model_and_opt()  # p=8, k=3, dtype float32
    path = tmp_path / "c.spck"
    save_checkpoint(snapshot_model(model, None, (0, 0)), path)
    data = path.read_bytes()
    assert data.count(old) == 1
    bad = tmp_path / "bad.spck"
    bad.write_bytes(data.replace(old, new))
    with pytest.raises(FormatError, match=re.escape(message)):
        load_checkpoint(bad)


# ---------------------------------------------------------------- pretraining loop

def test_pretrain_smoke_single_step_finite():
    model = SpectralCubeAutoencoder(ModelConfig.tiny(max_grid=(4, 4, 2)), CounterRng(0))
    images = _smooth_images(1, 32, 32, 6, seed=1)
    stage = _stage(images, epochs=1, batch_size=1)
    records = pretrain_stage(model, ObjectiveConfig(), stage, CounterRng(2))
    assert len(records) == 1
    assert np.isfinite(records[0].total)
    for p in model.parameters():
        assert np.all(np.isfinite(p.data)), p.name


def test_pretrain_deterministic_traces():
    def run():
        model = SpectralCubeAutoencoder(ModelConfig.tiny(max_grid=(4, 4, 2)), CounterRng(0))
        stage = _stage(_smooth_images(8, 32, 32, 6, seed=5), epochs=3)
        records = pretrain_stage(model, ObjectiveConfig(), stage, CounterRng(7))
        return [(r.token, r.spectral, r.total) for r in records], \
            model.parameters()["patch_embed.weight"].data.copy()

    r1, w1 = run()
    r2, w2 = run()
    assert r1 == r2
    assert np.array_equal(w1, w2)


def test_pretrain_loss_decreases():
    model = SpectralCubeAutoencoder(ModelConfig.tiny(max_grid=(4, 4, 2)), CounterRng(0))
    stage = _stage(_smooth_images(8, 32, 32, 6, seed=11), epochs=10, base_lr=1e-3)
    records = pretrain_stage(model, ObjectiveConfig(), stage, CounterRng(13))
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

    # uninterrupted: 4 epochs, saving the checkpoint it hands over after epoch 2
    path = tmp_path / "mid.spck"

    def on_epoch(record, checkpoint):
        if checkpoint.epoch == 2:
            save_checkpoint(checkpoint, path)

    model_a = fresh_model()
    stages = [_stage(images, epochs=4)]
    records_a = progressive_pretrain(model_a, objective, stages, CounterRng(41),
                                     on_epoch=on_epoch)

    # interrupted after epoch 2: a fresh model resumes from that checkpoint
    model_c = fresh_model()
    start = restore_run(load_checkpoint(path), model_c, stages, CounterRng(41))
    records_c = progressive_pretrain(model_c, objective, stages, CounterRng(41), start=start)

    resumed = [(r.epoch, r.token, r.spectral, r.total) for r in records_c]
    uninterrupted = [(r.epoch, r.token, r.spectral, r.total) for r in records_a[2:]]
    assert resumed == uninterrupted
    for name, p in model_a.parameters().items():
        assert np.array_equal(p.data, model_c.parameters()[name].data), name


@pytest.fixture(scope="module")
def mid_stage_checkpoint(tmp_path_factory):
    """The checkpoint a two-epoch tiny run hands over after epoch 1, its stage's
    images, and the run's model config and seed."""
    images = _smooth_images(4, 32, 32, 6, seed=23)
    config = ModelConfig.tiny(max_grid=(4, 4, 2))
    path = tmp_path_factory.mktemp("mid") / "mid.spck"

    def on_epoch(record, checkpoint):
        if checkpoint.epoch == 1:
            save_checkpoint(checkpoint, path)

    progressive_pretrain(SpectralCubeAutoencoder(config, CounterRng(31)), ObjectiveConfig(),
                         [_stage(images, batch_size=2)], CounterRng(41), on_epoch=on_epoch)
    return path, images, config, 41


@pytest.mark.parametrize("case", ["model", "rng", "past_stages", "no_moments", "weight_decay"])
def test_restore_run_refuses_before_it_restores(mid_stage_checkpoint, case):
    path, images, config, seed = mid_stage_checkpoint
    ckpt, stages = load_checkpoint(path), [_stage(images, batch_size=2)]
    if case == "model":
        config = replace(config, encoder_heads=1)  # parameters of the same shapes
    elif case == "rng":
        seed += 1
    elif case == "past_stages":
        ckpt.stage = 1
    elif case == "no_moments":
        ckpt.optimizer = None
    else:
        stages = [_stage(images, batch_size=2, weight_decay=0.05)]
    model = SpectralCubeAutoencoder(config, CounterRng(7))
    before = {name: p.data.tobytes() for name, p in model.parameters().items()}
    with pytest.raises(ConfigError):
        restore_run(ckpt, model, stages, CounterRng(seed))
    assert {name: p.data.tobytes() for name, p in model.parameters().items()} == before


def test_stray_backward_before_pretraining_leaves_the_run_unchanged():
    def run(stray):
        model = SpectralCubeAutoencoder(ModelConfig.tiny(max_grid=(4, 4, 2)), CounterRng(0))
        images = _smooth_images(4, 32, 32, 6, seed=41)
        if stray:  # leaves a gradient on every parameter the loss reaches
            loss, _ = group_loss(model, images[:2], ObjectiveConfig(), 0.5,
                                 [CounterRng(42), CounterRng(43)])
            loss.backward()
            assert model.parameters()["patch_embed.weight"].grad.any()
        records = pretrain_stage(model, ObjectiveConfig(),
                                 _stage(images, epochs=2, batch_size=2), CounterRng(44))
        return records, {name: p.data.tobytes() for name, p in model.parameters().items()}

    assert run(stray=True) == run(stray=False)


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
        records = pretrain_stage(model, ObjectiveConfig(), stage, CounterRng(3))
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


# ---------------------------------------------------------------- one graph per group

def _grads(model):
    return {name: p.grad.copy() for name, p in model.parameters().items()}


def _relative(a, b):
    return float(np.linalg.norm(a - b) / max(np.linalg.norm(b), 1e-30))


@pytest.mark.parametrize("scope", ["all_tokens", "masked_only"])
@pytest.mark.parametrize("mode", ["raw", "per_token_normalized", "standardized"])
def test_group_loss_matches_per_image_loop(scope, mode):
    model = SpectralCubeAutoencoder(ModelConfig.tiny(max_grid=(4, 4, 2), dtype="float64"),
                                    CounterRng(3))
    images = _smooth_images(5, 32, 32, 6, seed=71)
    objective = ObjectiveConfig(lam=0.5, token_loss_scope=scope, target_mode=mode)
    band_stats = (np.linspace(0.2, 0.6, 6), np.linspace(0.5, 1.5, 6))
    rngs = lambda: [CounterRng(9).child("mask", 0, 0, 0, slot) for slot in range(5)]

    params = model.parameters()
    params.zero_grads()
    looped = []
    for img, r in zip(images, rngs()):
        loss, bd = group_loss(model, [img], objective, 0.75, [r], band_stats)
        T.scale(loss, 1.0 / 5).backward()
        looped.append((bd.token, bd.spectral, bd.total))
    expected = _grads(model)

    params.zero_grads()
    loss, bd = group_loss(model, images, objective, 0.75, rngs(), band_stats)
    loss.backward()
    for got, want in zip((bd.token, bd.spectral, bd.total), np.mean(looped, axis=0)):
        assert abs(got - want) <= 1e-6 * abs(want)
    for name, p in params.items():
        assert _relative(p.grad, expected[name]) <= 1e-6, name


def test_group_mask_plans_follow_each_slots_key():
    model = SpectralCubeAutoencoder(ModelConfig.tiny(max_grid=(2, 2, 2)), CounterRng(0))
    stage = _stage(_smooth_images(8, 16, 16, 6, seed=81), epochs=1, batch_size=4)
    plans = []
    reconstruct = model.reconstruct
    model.reconstruct = lambda grid, plan: plans.append(plan) or reconstruct(grid, plan)
    pretrain_stage(model, ObjectiveConfig(), stage, CounterRng(5))
    assert len(plans) == 2  # two steps, each one group of four images
    for step, plan in enumerate(plans):
        slots = [build_mask(8, 0.5, CounterRng(5).child("mask", 0, 0, step, slot))
                 for slot in range(4)]
        assert plan.total == 32
        assert np.array_equal(plan.visible,
                              np.concatenate([p.visible + i * 8 for i, p in enumerate(slots)]))
        assert np.array_equal(plan.masked,
                              np.concatenate([p.masked + i * 8 for i, p in enumerate(slots)]))
        for slot, one in enumerate(slots):
            assert np.array_equal(plan.visible[slot * 4:(slot + 1) * 4] - slot * 8, one.visible)


@pytest.mark.parametrize("side,bands,graphs_per_step", [(16, 6, 1), (96, 12, 2)])
def test_graphs_per_step_respect_the_row_cap(monkeypatch, side, bands, graphs_per_step):
    # 8 tokens per image share one graph; 576 tokens exceed the cap alone
    model = SpectralCubeAutoencoder(ModelConfig.tiny(max_grid=(side // 8, side // 8,
                                                                bands // 3)), CounterRng(0))
    stage = _stage(_smooth_images(2, side, side, bands, seed=91), epochs=1, batch_size=2,
                   mask_ratio=0.9)
    calls = []
    backward = T.Tensor.backward
    monkeypatch.setattr(T.Tensor, "backward", lambda self: calls.append(1) or backward(self))
    pretrain_stage(model, ObjectiveConfig(), stage, CounterRng(1))
    assert len(calls) == graphs_per_step


def test_pretrain_step_holds_one_group_graph_at_a_time(monkeypatch):
    # one image per group, as pretrain-mid's 576-token images are: the first
    # group's graph must be gone before the second group's forward
    monkeypatch.setattr("spectralmae.model.MAX_GROUP_ROWS", 1)
    model = SpectralCubeAutoencoder(ModelConfig.tiny(max_grid=(8, 8, 2), p=4), CounterRng(0))
    stage = _stage(_smooth_images(2, 32, 32, 6, seed=93), epochs=1, batch_size=2)
    optimizer = AdamW(model.parameters(), base_lr=stage.base_lr)
    model.parameters().zero_grads()
    with traced_memory() as read:
        loss, _ = group_loss(model, stage.images[:1], ObjectiveConfig(), stage.mask_ratio,
                             [CounterRng(1)])
        graph, _ = read()
        del loss
        start, _ = read()
        pretrain_stage(model, ObjectiveConfig(), stage, CounterRng(2), optimizer=optimizer)
        _, peak = read()
    assert peak - start < 1.3 * graph


def test_pretrain_mid_image_graph_holds_little_beyond_its_node_values():
    # one 96x96x12 image through the pretrain-mid model (576 tokens, 58
    # visible).
    # Measured: node values 10.9 MB, live after the forward 11.8 MB, backward
    # peak 13.1 MB. With GELU's output and the wo and fc2 products as nodes
    # it read 15.1, 16.0 and 17.4 MB; when the graph also kept attention's
    # E, GELU's tanh and LayerNorm's normalised rows, 24.0 MB and 25.3 MB.
    cfg = ModelConfig(embed_dim=96, encoder_depth=12, encoder_heads=12, decoder_dim=48,
                      decoder_depth=4, decoder_heads=6, max_grid=(12, 12, 4))
    model = SpectralCubeAutoencoder(cfg, CounterRng(0))
    image = SpectralImage(CounterRng(1).uniform_array((96, 96, 12)).astype(np.float32),
                          [f"B{i + 1}" for i in range(12)])

    def loss():
        return group_loss(model, [image], ObjectiveConfig(), 0.9, [CounterRng(2)])[0]

    loss().backward()  # first calls import lazily and start caches; keep them out
    model.parameters().zero_grads()
    with traced_memory() as read:
        graph = loss()
        live, _ = read()
        values = value_bytes(graph)
        graph.backward()
        _, peak = read()
    assert live - values < 0.1 * values  # the inputs, row vectors and closures
    assert peak < 1.25 * values  # the graph as the sweep frees it, plus one op's transients


def test_group_spans_split_on_size_and_cap():
    model = SpectralCubeAutoencoder(ModelConfig.tiny(max_grid=(4, 4, 2)), CounterRng(0))
    small = _smooth_images(3, 16, 16, 6)  # 8 tokens: 64 per group
    large = _smooth_images(3, 96, 96, 12)  # 576 tokens: one per group
    spans = model.group_spans(small + large + small)
    assert [(s.start, s.stop) for s in spans] == [(0, 3), (3, 4), (4, 5), (5, 6), (6, 9)]
    many = _smooth_images(1, 16, 16, 6) * (MAX_GROUP_ROWS // 8 + 1)
    assert [len(s) for s in model.group_spans(many)] == [MAX_GROUP_ROWS // 8, 1]
