"""Bit-exact binary checkpoints.

Layout (all little-endian): magic "SPCK", version u16, then four
sections in fixed order — model config (tagged key/value pairs),
named parameter tensors, optional optimizer state, RNG state and the
training position. Tensors are a length-prefixed UTF-8 name, a dtype
tag (4 = float32, 8 = float64), u8 rank, u64 extents, then the raw
payload. Save -> load -> save reproduces identical bytes because every
field has exactly one encoding.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field

import numpy as np

from .errors import FormatError, ShapeError, TruncatedFileError
from .model import ModelConfig, SpectralCubeAutoencoder
from .optim import AdamW
from .tensor import ParameterSet

CKPT_MAGIC = b"SPCK"
CKPT_VERSION = 1

_CONFIG_FIELDS = (
    ("embed_dim", "i"), ("encoder_depth", "i"), ("encoder_heads", "i"),
    ("decoder_dim", "i"), ("decoder_depth", "i"), ("decoder_heads", "i"),
    ("mlp_ratio", "f"), ("p", "i"), ("k", "i"), ("max_grid", "iii"),
    ("drop_path", "f"), ("dtype", "s"),
)

_DTYPE_TAGS = {4: np.dtype("<f4"), 8: np.dtype("<f8")}


@dataclass
class OptimizerSnapshot:
    step_count: int
    base_lr: float
    beta1: float
    beta2: float
    eps: float
    weight_decay: float
    m: dict[str, np.ndarray]
    v: dict[str, np.ndarray]


@dataclass
class Checkpoint:
    config: ModelConfig
    params: dict[str, np.ndarray]
    optimizer: OptimizerSnapshot | None
    rng_state: tuple[int, int]
    stage: int = 0
    epoch: int = 0
    step: int = 0
    version: int = CKPT_VERSION
    extra: dict = field(default_factory=dict)


class _Writer:
    def __init__(self):
        self.parts: list[bytes] = []

    def raw(self, b: bytes):
        self.parts.append(b)

    def u8(self, x):
        self.raw(struct.pack("<B", x))

    def u16(self, x):
        self.raw(struct.pack("<H", x))

    def u64(self, x):
        self.raw(struct.pack("<Q", x))

    def i64(self, x):
        self.raw(struct.pack("<q", x))

    def f64(self, x):
        self.raw(struct.pack("<d", x))

    def string(self, s: str):
        raw = s.encode("utf-8")
        self.raw(struct.pack("<I", len(raw)) + raw)

    def tensor(self, name: str, arr: np.ndarray):
        self.string(name)
        self.u8(arr.dtype.itemsize)
        self.u8(arr.ndim)
        for extent in arr.shape:
            self.u64(extent)
        le = arr.astype(arr.dtype.newbyteorder("<"), copy=False)
        self.raw(np.ascontiguousarray(le).tobytes())

    def bytes(self) -> bytes:
        return b"".join(self.parts)


class _Reader:
    def __init__(self, buf: bytes):
        self.buf = buf
        self.off = 0

    def take(self, n: int, what: str) -> bytes:
        if self.off + n > len(self.buf):
            raise TruncatedFileError(f"checkpoint truncated while reading {what}")
        out = self.buf[self.off:self.off + n]
        self.off += n
        return out

    def u8(self, what="u8"):
        return struct.unpack("<B", self.take(1, what))[0]

    def u16(self, what="u16"):
        return struct.unpack("<H", self.take(2, what))[0]

    def u64(self, what="u64"):
        return struct.unpack("<Q", self.take(8, what))[0]

    def i64(self, what="i64"):
        return struct.unpack("<q", self.take(8, what))[0]

    def f64(self, what="f64"):
        return struct.unpack("<d", self.take(8, what))[0]

    def string(self, what="string"):
        n = struct.unpack("<I", self.take(4, what + " length"))[0]
        return self.take(n, what).decode("utf-8")

    def tensor(self) -> tuple[str, np.ndarray]:
        name = self.string("tensor name")
        itemsize = self.u8("dtype tag")
        if itemsize not in _DTYPE_TAGS:
            raise FormatError(f"unknown tensor dtype tag {itemsize}")
        ndim = self.u8("rank")
        shape = tuple(self.u64("extent") for _ in range(ndim))
        count = int(np.prod(shape)) if shape else 1
        payload = self.take(count * itemsize, f"tensor {name!r} payload")
        arr = np.frombuffer(payload, dtype=_DTYPE_TAGS[itemsize]).reshape(shape)
        return name, arr.astype(arr.dtype.newbyteorder("="))


def _write_config(w: _Writer, cfg: ModelConfig) -> None:
    w.u16(len(_CONFIG_FIELDS))
    for name, kind in _CONFIG_FIELDS:
        w.string(name)
        w.string(kind)
        # the model has no drop path; v1 keeps the slot and always writes 0.0
        value = 0.0 if name == "drop_path" else getattr(cfg, name)
        if kind == "i":
            w.i64(value)
        elif kind == "f":
            w.f64(value)
        elif kind == "iii":
            for part in value:
                w.i64(part)
        else:
            w.string(value)


def _read_config(r: _Reader) -> ModelConfig:
    count = r.u16("config field count")
    kwargs = {}
    for _ in range(count):
        name = r.string("config key")
        kind = r.string("config kind")
        if kind == "i":
            kwargs[name] = r.i64()
        elif kind == "f":
            kwargs[name] = r.f64()
        elif kind == "iii":
            kwargs[name] = tuple(r.i64() for _ in range(3))
        elif kind == "s":
            kwargs[name] = r.string()
        else:
            raise FormatError(f"unknown config field kind {kind!r}")
    drop_path = kwargs.pop("drop_path", 0.0)
    if drop_path != 0.0:
        raise FormatError(f"checkpoint drop_path {drop_path} is unsupported: drop path "
                          "was removed, so only 0.0 loads")
    try:
        return ModelConfig(**kwargs)
    except TypeError as exc:
        raise FormatError(f"checkpoint config does not match ModelConfig: {exc}") from exc


def save_checkpoint(ckpt: Checkpoint, path) -> None:
    w = _Writer()
    w.raw(CKPT_MAGIC)
    w.u16(ckpt.version)
    _write_config(w, ckpt.config)
    w.u64(len(ckpt.params))
    for name, arr in ckpt.params.items():
        w.tensor(name, arr)
    if ckpt.optimizer is None:
        w.u8(0)
    else:
        opt = ckpt.optimizer
        w.u8(1)
        w.u64(opt.step_count)
        for val in (opt.base_lr, opt.beta1, opt.beta2, opt.eps, opt.weight_decay):
            w.f64(val)
        w.u64(len(opt.m))
        for name, arr in opt.m.items():
            w.tensor(name, arr)
        w.u64(len(opt.v))
        for name, arr in opt.v.items():
            w.tensor(name, arr)
    seed, counter = ckpt.rng_state
    w.u64(seed)
    w.u64(counter)
    w.u64(ckpt.stage)
    w.u64(ckpt.epoch)
    w.u64(ckpt.step)
    with open(path, "wb") as fh:
        fh.write(w.bytes())


def load_checkpoint(path) -> Checkpoint:
    with open(path, "rb") as fh:
        buf = fh.read()
    r = _Reader(buf)
    magic = r.take(4, "magic")
    if magic != CKPT_MAGIC:
        raise FormatError(f"bad checkpoint magic {magic!r}")
    version = r.u16("version")
    if version != CKPT_VERSION:
        raise FormatError(f"unsupported checkpoint version {version}")
    config = _read_config(r)
    n_params = r.u64("parameter count")
    params = dict(r.tensor() for _ in range(n_params))
    optimizer = None
    if r.u8("optimizer flag"):
        step_count = r.u64("optimizer step count")
        base_lr, beta1, beta2, eps, weight_decay = (r.f64() for _ in range(5))
        m = dict(r.tensor() for _ in range(r.u64("first-moment count")))
        v = dict(r.tensor() for _ in range(r.u64("second-moment count")))
        optimizer = OptimizerSnapshot(step_count, base_lr, beta1, beta2, eps,
                                      weight_decay, m, v)
    rng_state = (r.u64("rng seed"), r.u64("rng counter"))
    stage = r.u64("stage")
    epoch = r.u64("epoch")
    step = r.u64("step")
    if r.off != len(buf):
        raise FormatError(f"{len(buf) - r.off} trailing bytes after checkpoint payload")
    return Checkpoint(config, params, optimizer, rng_state, stage, epoch, step, version)


def snapshot_model(model: SpectralCubeAutoencoder, optimizer: AdamW | None,
                   rng_state: tuple[int, int], stage: int = 0, epoch: int = 0,
                   step: int = 0) -> Checkpoint:
    params = {name: p.data.copy() for name, p in model.parameters().items()}
    opt = None
    if optimizer is not None:
        opt = OptimizerSnapshot(
            optimizer.step_count, optimizer.base_lr, optimizer.beta1, optimizer.beta2,
            optimizer.eps, optimizer.weight_decay,
            {k: a.copy() for k, a in optimizer.m.items()},
            {k: a.copy() for k, a in optimizer.v.items()})
    return Checkpoint(config=ModelConfig(**vars(model.config)), params=params,
                      optimizer=opt, rng_state=rng_state, stage=stage, epoch=epoch,
                      step=step)


def restore_into(tensors: dict[str, np.ndarray], params: ParameterSet) -> None:
    """Copy named tensors into a parameter set, name and shape checked."""
    names = set(params.names())
    missing = names - set(tensors)
    unexpected = set(tensors) - names
    if missing or unexpected:
        raise ShapeError(f"parameter name mismatch: missing {sorted(missing)}, "
                         f"unexpected {sorted(unexpected)}")
    for name, arr in tensors.items():
        p = params[name]
        if p.data.shape != arr.shape:
            raise ShapeError(f"parameter {name!r}: checkpoint shape {arr.shape} "
                             f"vs model shape {p.data.shape}")
        p.data = arr.astype(p.data.dtype).copy()
        p.grad = np.zeros_like(p.data)


def restore_model(ckpt: Checkpoint, model: SpectralCubeAutoencoder) -> None:
    restore_into(ckpt.params, model.parameters())


def restore_optimizer(snapshot: OptimizerSnapshot, optimizer: AdamW) -> None:
    optimizer.step_count = snapshot.step_count
    optimizer.base_lr = snapshot.base_lr
    optimizer.beta1 = snapshot.beta1
    optimizer.beta2 = snapshot.beta2
    optimizer.eps = snapshot.eps
    optimizer.weight_decay = snapshot.weight_decay
    for name in optimizer.m:
        if name not in snapshot.m:
            raise ShapeError(f"optimizer moment missing for parameter {name!r}")
        optimizer.m[name] = snapshot.m[name].astype(optimizer.m[name].dtype).copy()
        optimizer.v[name] = snapshot.v[name].astype(optimizer.v[name].dtype).copy()
