"""Downstream task heads over encoder latents, and their losses.

The segmentation/change heads first fuse the gs spectral-group tokens of
each spatial site into one vector, then decode with two rounds of
(nearest x2 upsample, 3x3 conv, GELU) and a 1x1 projection to class
logits. Each is built with the token side p and reads its site grid off
the output size, (H/p) x (W/p). When p exceeds 4, a final non-learned
nearest resize closes the remaining gap to pixel resolution.
Convolutions are built from gather + matmul: out-of-bounds neighbors
index one appended zero row, which is exactly zero padding.
"""

from __future__ import annotations

import functools

import numpy as np

from . import tensor as T
from .errors import DataError, ShapeError
from .model import initial_weight
from .rng import CounterRng
from .tensor import Parameter, ParameterSet


def combine_params(*sets: ParameterSet) -> ParameterSet:
    merged = ParameterSet()
    for ps in sets:
        for name, p in ps.items():
            merged.add(name, p)
    return merged


# ---------------------------------------------------------------- losses

def cross_entropy(logits: T.Tensor, labels) -> T.Tensor:
    """Mean negative log-likelihood of integer labels under softmax logits."""
    return nll_from_log_probs(T.log_softmax_lastaxis(logits), labels)


def nll_from_log_probs(log_probs: T.Tensor, labels) -> T.Tensor:
    """Mean NLL when the head already outputs log-probabilities."""
    labels = np.asarray(labels, dtype=np.int64).reshape(-1)
    b, c = log_probs.shape
    if labels.shape[0] != b:
        raise ShapeError(f"{labels.shape[0]} labels for {b} rows")
    if labels.size and (labels.min() < 0 or labels.max() >= c):
        raise DataError(f"label outside [0, {c})")
    onehot = np.zeros((b, c), dtype=log_probs.data.dtype)
    onehot[np.arange(b), labels] = 1.0
    return T.scale(T.sum_all(T.mul(log_probs, T.Tensor(onehot))), -1.0 / b)


def multilabel_soft_margin(logits: T.Tensor, labels) -> T.Tensor:
    """-mean over B*C of y*log sigmoid(x) + (1-y)*log sigmoid(-x)."""
    labels = np.asarray(labels)
    if labels.shape != logits.shape:
        raise ShapeError(f"labels {labels.shape} vs logits {logits.shape}")
    if not np.isin(labels, (0, 1)).all():
        raise DataError("multi-label targets must be binary")
    y = T.Tensor(labels.astype(logits.data.dtype))
    ones = T.Tensor(np.ones_like(labels, dtype=logits.data.dtype))
    pos = T.mul(y, T.logsigmoid(logits))
    neg = T.mul(T.sub(ones, y), T.logsigmoid(T.scale(logits, -1.0)))
    return T.scale(T.mean_all(T.add(pos, neg)), -1.0)


# ---------------------------------------------------------------- heads

class ClassifierHead:
    """Average-pool over all tokens, then a two-layer MLP to class logits."""

    def __init__(self, d: int, hidden: int, classes: int, rng: CounterRng | None,
                 dtype=np.float32):
        ps = ParameterSet()
        self.params = ps
        self.fc1_w = ps.add("head.fc1.weight", Parameter(
            initial_weight(rng, ("head", "fc1"), (d, hidden), dtype)))
        self.fc1_b = ps.add("head.fc1.bias", Parameter(np.zeros(hidden, dtype)))
        self.fc2_w = ps.add("head.fc2.weight", Parameter(
            initial_weight(rng, ("head", "fc2"), (hidden, classes), dtype)))
        self.fc2_b = ps.add("head.fc2.bias", Parameter(np.zeros(classes, dtype)))

    def forward(self, latents: T.Tensor) -> T.Tensor:
        pooled = T.mean_rows(latents)
        hidden = T.gelu(T.matmul(pooled, self.fc1_w, self.fc1_b))
        return T.matmul(hidden, self.fc2_w, self.fc2_b)


@functools.cache
def _neighbor_indices(h: int, w: int) -> np.ndarray:
    """3x3 neighborhood row indices into an (h*w + 1)-row array; h*w = zero pad."""
    ys, xs = np.meshgrid(np.arange(h), np.arange(w), indexing="ij")
    rows = []
    for dy in (-1, 0, 1):
        for dx in (-1, 0, 1):
            ny, nx = ys + dy, xs + dx
            idx = ny * w + nx
            idx[(ny < 0) | (ny >= h) | (nx < 0) | (nx >= w)] = h * w
            rows.append(idx.reshape(-1))
    return np.stack(rows, axis=1).reshape(-1)  # (h*w*9,)


@functools.cache
def _upsample2_indices(h: int, w: int) -> np.ndarray:
    ys = np.repeat(np.arange(h), 2)
    xs = np.repeat(np.arange(w), 2)
    return (ys[:, None] * w + xs[None, :]).reshape(-1)


def _resize_nearest_rows(x: T.Tensor, h: int, w: int, new_h: int, new_w: int) -> T.Tensor:
    ys = np.clip(np.round(np.linspace(0, h - 1, new_h)).astype(np.int64), 0, h - 1)
    xs = np.clip(np.round(np.linspace(0, w - 1, new_w)).astype(np.int64), 0, w - 1)
    return T.gather_rows(x, (ys[:, None] * w + xs[None, :]).reshape(-1))


def conv3x3(x: T.Tensor, h: int, w: int, weight: T.Tensor, bias: T.Tensor) -> T.Tensor:
    """3x3 same-size convolution on (h*w, C) rows; weight is (9*C, C_out)."""
    c = x.shape[1]
    padded = T.concat_rows([x, T.Tensor(np.zeros((1, c), x.data.dtype))])
    patches = T.reshape(T.gather_rows(padded, _neighbor_indices(h, w)), (h * w, 9 * c))
    return T.matmul(patches, weight, bias)


class _FuseDecode:
    """Shared machinery: site fusion + 2 upsample/conv stages + 1x1 head."""

    def __init__(self, d: int, gs: int, p: int, classes: int, rng: CounterRng | None,
                 dtype=np.float32):
        ps = ParameterSet()
        self.params = ps
        self.d = d
        self.gs = gs
        self.p = p

        def w(name, shape):
            return ps.add(f"head.{name}",
                          Parameter(initial_weight(rng, ("head", name), shape, dtype)))

        def zeros(name, shape):
            return ps.add(f"head.{name}", Parameter(np.zeros(shape, dtype)))

        self.fuse_w, self.fuse_b = w("fuse.weight", (gs * d, d)), zeros("fuse.bias", d)
        self.conv1_w, self.conv1_b = w("conv1.weight", (9 * d, d)), zeros("conv1.bias", d)
        self.conv2_w, self.conv2_b = w("conv2.weight", (9 * d, d)), zeros("conv2.bias", d)
        self.out_w, self.out_b = w("out.weight", (d, classes)), zeros("out.bias", classes)

    def fuse(self, latents: T.Tensor, out_hw: tuple[int, int]) -> T.Tensor:
        """One fused row per token site of an out_hw image, in site order."""
        sites = (out_hw[0] // self.p) * (out_hw[1] // self.p)
        if out_hw[0] % self.p or out_hw[1] % self.p or latents.shape != (sites * self.gs, self.d):
            raise ShapeError(f"latents {latents.shape} are not the ({self.gs} groups x "
                             f"{self.d}) rows of a {out_hw} image's {self.p}x{self.p} sites")
        rows = T.reshape(latents, (sites, self.gs * self.d))
        return T.matmul(rows, self.fuse_w, self.fuse_b)

    def decode(self, fused: T.Tensor, out_hw: tuple[int, int]) -> T.Tensor:
        h, w = out_hw[0] // self.p, out_hw[1] // self.p
        z = fused
        for cw, cb in ((self.conv1_w, self.conv1_b), (self.conv2_w, self.conv2_b)):
            z = T.gather_rows(z, _upsample2_indices(h, w))
            h, w = 2 * h, 2 * w
            z = T.gelu(conv3x3(z, h, w, cw, cb))
        logits = T.matmul(z, self.out_w, self.out_b)
        if (h, w) != out_hw:
            logits = _resize_nearest_rows(logits, h, w, out_hw[0], out_hw[1])
        return logits  # (H*W, classes)


class SegmentationHead(_FuseDecode):
    def forward(self, latents: T.Tensor, out_hw: tuple[int, int]) -> T.Tensor:
        return self.decode(self.fuse(latents, out_hw), out_hw)


class ChangeHead(_FuseDecode):
    """Two-image head: per-site absolute feature difference, two-class log-probs."""

    def __init__(self, d: int, gs: int, p: int, rng: CounterRng | None, dtype=np.float32):
        super().__init__(d, gs, p, 2, rng, dtype)

    def forward(self, latents_a: T.Tensor, latents_b: T.Tensor,
                out_hw: tuple[int, int]) -> T.Tensor:
        diff = T.abs_val(T.sub(self.fuse(latents_a, out_hw), self.fuse(latents_b, out_hw)))
        return T.log_softmax_lastaxis(self.decode(diff, out_hw))
