"""Bit-exact binary checkpoints.

Layout (all little-endian): magic "SPCK", version u16, then four
sections in fixed order — model config (ModelConfig's fields, each
tagged with its annotation's kind), named parameter tensors, optional
optimizer state, RNG state and the training position. Tensors are a
length-prefixed UTF-8 name, a dtype tag (4 = float32, 8 = float64), u8
rank, u64 extents, then the raw payload. Save -> load -> save reproduces
identical bytes because every field has exactly one encoding. A snapshot
holds the model's own arrays, so a save allocates only the headers.
"""

from __future__ import annotations

import math
import os
import typing
from dataclasses import dataclass, fields, replace

import numpy as np

from .errors import ConfigError, FormatError, ShapeError
from .model import ModelConfig, SpectralCubeAutoencoder
from .optim import AdamW
from .raster import Reader, Writer
from .tensor import ParameterSet

CKPT_MAGIC = b"SPCK"
CKPT_VERSION = 1

_KINDS = {int: "i", float: "f", tuple[int, int, int]: "iii", str: "s"}
_KIND_FORMATS = {"i": "q", "f": "d", "iii": "3q"}  # "s" is a u32-prefixed string
_CONFIG_FIELDS = [(name, _KINDS[hint]) for name, hint in typing.get_type_hints(ModelConfig).items()]
_CONFIG_FIELDS.insert(_CONFIG_FIELDS.index(("dtype", "s")), ("drop_path", "f"))  # a v1 slot
_CONFIG_KINDS = dict(_CONFIG_FIELDS)

_DTYPE_TAGS = {4: np.dtype("<f4"), 8: np.dtype("<f8")}
_OPT_HEADER = "Q5d"  # OptimizerSnapshot's hyper-parameters: an int, then five floats
_TRAILER = "5Q"  # rng seed, rng counter, stage, epoch, step


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


# the fields an AdamW holds as attributes of the same names
_OPT_HYPER = tuple(f.name for f in fields(OptimizerSnapshot) if f.name not in ("m", "v"))


@dataclass
class Checkpoint:
    config: ModelConfig
    params: dict[str, np.ndarray]
    optimizer: OptimizerSnapshot | None
    rng_state: tuple[int, int]
    stage: int = 0
    epoch: int = 0
    step: int = 0


def _write_tensors(w: Writer, tensors: dict[str, np.ndarray]) -> None:
    w.pack("Q", len(tensors))
    for name, arr in tensors.items():
        raw = name.encode("utf-8")  # name length, name, dtype tag, rank and extents in one pack
        w.pack(f"I{len(raw)}sBB{arr.ndim}Q", len(raw), raw, arr.dtype.itemsize, arr.ndim,
               *arr.shape)
        w.array(arr)


def _read_tensor(r: Reader) -> tuple[str, np.ndarray]:
    name = r.string("tensor name", "I")
    (itemsize,) = r.unpack("B", "dtype tag")
    if itemsize not in _DTYPE_TAGS:
        raise FormatError(f"unknown tensor dtype tag {itemsize}")
    (ndim,) = r.unpack("B", "rank")
    shape = r.unpack(f"{ndim}Q", "extents")
    count = math.prod(shape)  # exact: numpy's int64 product wraps on huge extents
    flat = r.array(_DTYPE_TAGS[itemsize], count, f"tensor {name!r} payload")
    try:  # an empty payload can still declare extents numpy cannot hold
        return name, flat.reshape(shape)
    except ValueError as exc:
        raise FormatError(f"tensor {name!r} shape {shape} is unrepresentable: {exc}") from exc


def _read_tensors(r: Reader, what: str) -> dict[str, np.ndarray]:
    (count,) = r.unpack("Q", what)
    return dict(_read_tensor(r) for _ in range(count))


def _write_config(w: Writer, cfg: ModelConfig) -> None:
    w.pack("H", len(_CONFIG_FIELDS))
    for name, kind in _CONFIG_FIELDS:
        w.string(name, "I")
        w.string(kind, "I")
        # the model has no drop path; v1 keeps the slot and always writes 0.0
        value = 0.0 if name == "drop_path" else getattr(cfg, name)
        if kind == "s":
            w.string(value, "I")
        else:
            w.pack(_KIND_FORMATS[kind], *(value if kind == "iii" else (value,)))


def _read_config(r: Reader) -> ModelConfig:
    (count,) = r.unpack("H", "config field count")
    kwargs = {}
    for _ in range(count):
        name = r.string("config key", "I")
        expected = _CONFIG_KINDS.get(name)
        if expected is None or name in kwargs:
            raise FormatError(f"unknown or repeated checkpoint config field {name}")
        kind = r.string("config kind", "I")
        if kind != expected:
            raise FormatError(f"checkpoint config {name} has kind {kind!r}, not {expected!r}")
        if kind == "s":
            kwargs[name] = r.string(f"config {name}", "I")
        else:
            value = r.unpack(_KIND_FORMATS[kind], f"config {name}")
            kwargs[name] = value if kind == "iii" else value[0]
    drop_path = kwargs.pop("drop_path", 0.0)
    if drop_path != 0.0:
        raise FormatError(f"checkpoint drop_path {drop_path} is unsupported: drop path "
                          "was removed, so only 0.0 loads")
    try:
        return ModelConfig(**kwargs)
    except ConfigError as exc:
        raise FormatError(f"checkpoint config does not match ModelConfig: {exc}") from exc


def save_checkpoint(ckpt: Checkpoint, path) -> None:
    w = Writer()
    w.pack("4sH", CKPT_MAGIC, CKPT_VERSION)
    _write_config(w, ckpt.config)
    _write_tensors(w, ckpt.params)
    opt = ckpt.optimizer
    w.pack("B", opt is not None)
    if opt is not None:
        w.pack(_OPT_HEADER, *(getattr(opt, name) for name in _OPT_HYPER))
        _write_tensors(w, opt.m)
        _write_tensors(w, opt.v)
    w.pack(_TRAILER, *ckpt.rng_state, ckpt.stage, ckpt.epoch, ckpt.step)
    # write a sibling, sync it to disk and rename it over the target: a
    # crash mid-write, or a power loss after the rename, leaves a whole checkpoint
    tmp = f"{os.fspath(path)}.tmp"
    try:
        with open(tmp, "wb") as fh:
            w.write_to(fh)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise


def load_checkpoint(path) -> Checkpoint:
    r = Reader(path, "checkpoint")
    magic = r.take(4, "magic")
    if magic != CKPT_MAGIC:
        raise FormatError(f"bad checkpoint magic {magic!r}")
    (version,) = r.unpack("H", "version")
    if version != CKPT_VERSION:
        raise FormatError(f"unsupported checkpoint version {version}")
    config = _read_config(r)
    params = _read_tensors(r, "parameter count")
    (flag,) = r.unpack("B", "optimizer flag")
    if flag not in (0, 1):
        raise FormatError(f"checkpoint {path} optimizer flag {flag} is not 0 or 1")
    optimizer = None
    if flag:
        header = r.unpack(_OPT_HEADER, "optimizer header")
        optimizer = OptimizerSnapshot(*header, _read_tensors(r, "first-moment count"),
                                      _read_tensors(r, "second-moment count"))
    seed, counter, stage, epoch, step = r.unpack(_TRAILER, "rng state and position")
    r.end()
    return Checkpoint(config, params, optimizer, (seed, counter), stage, epoch, step)


def snapshot_model(model: SpectralCubeAutoencoder, optimizer: AdamW | None,
                   rng_state: tuple[int, int], stage: int = 0, epoch: int = 0,
                   step: int = 0) -> Checkpoint:
    """The weights and, with `optimizer`, its moments: the live arrays in new
    dicts, valid until the model or optimizer next changes. Save or copy it."""
    params = {name: p.data for name, p in model.parameters().items()}
    opt = None
    if optimizer is not None:
        opt = OptimizerSnapshot(**{name: getattr(optimizer, name) for name in _OPT_HYPER},
                                m=dict(optimizer.m), v=dict(optimizer.v))
    return Checkpoint(replace(model.config), params, opt, rng_state, stage, epoch, step)


def restore_into(tensors: dict[str, np.ndarray], params: ParameterSet) -> None:
    """Copy named tensors into a parameter set, name and shape checked.

    Values are written into the existing arrays, so parameters stay views
    into an optimizer's arena. Gradients are not touched.
    """
    names = set(params.names())
    missing = names - set(tensors)
    unexpected = set(tensors) - names
    if missing or unexpected:
        raise ShapeError(f"parameter name mismatch: missing {sorted(missing)}, "
                         f"unexpected {sorted(unexpected)}")
    for name, arr in tensors.items():
        _check_shape(f"parameter {name!r}", arr, params[name].data)
    for name, arr in tensors.items():
        params[name].data[...] = arr


def restore_model(ckpt: Checkpoint, model: SpectralCubeAutoencoder) -> None:
    restore_into(ckpt.params, model.parameters())


def restore_optimizer(snapshot: OptimizerSnapshot, optimizer: AdamW) -> None:
    """Load the step count and moments into `optimizer`, writing its arrays in place.

    The optimizer keeps its own hyper-parameters; `training.restore_run`
    refuses a snapshot whose hyper-parameters differ from the stage's.
    """
    for name in optimizer.m:
        for kind, saved, own in (("m", snapshot.m, optimizer.m), ("v", snapshot.v, optimizer.v)):
            if name not in saved:
                raise ShapeError(f"optimizer moment {kind} missing for parameter {name!r}")
            _check_shape(f"optimizer moment {kind} of {name!r}", saved[name], own[name])
    optimizer.step_count = snapshot.step_count
    for name in optimizer.m:
        optimizer.m[name][...] = snapshot.m[name]
        optimizer.v[name][...] = snapshot.v[name]


def _check_shape(what: str, saved: np.ndarray, own: np.ndarray) -> None:
    if saved.shape != own.shape:
        raise ShapeError(f"{what}: checkpoint shape {saved.shape} vs model shape {own.shape}")
