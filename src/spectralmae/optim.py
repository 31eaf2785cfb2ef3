"""AdamW with decoupled weight decay, plus the warmup/cosine schedule.

The optimizer owns its parameters' memory: every value lives in one
contiguous buffer and every gradient in another (the arena), with each
`Parameter.data` and `.grad` a view into them, and the moments `m` and
`v` are views into two more flat buffers. The gradient arena starts
zeroed, whatever the parameters held before, and each step zeroes it
again, so no training loop zeroes a gradient itself. A step is a handful
of whole-arena passes instead of a loop over parameters. The update runs
in chunks that stay in L2, with the same elementwise operations in the
same order as a per-parameter update, so every value keeps its bits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import EvaluationError, ShapeError
from .tensor import ParameterSet

# Floats per update chunk. A chunk's six float32 operands (value, gradient,
# both moments, two scratch buffers) take 1.5 MB and stay in a 2 MB L2
# across the dozen passes over them. A d=96 step (1.5M floats) took
# 5.4-5.7 ms at 2**15-2**17 floats per chunk, 6.3 ms at 2**14, 7.6 unchunked.
CHUNK = 1 << 16


@dataclass
class Schedule:
    warmup_steps: int
    total_steps: int
    base_lr: float
    min_lr: float = 0.0

    def __post_init__(self):
        if not 0 <= self.warmup_steps <= self.total_steps:
            raise ValueError("warmup_steps must lie in [0, total_steps]")


def lr_at(sched: Schedule, step: int) -> float:
    """Linear warmup to base_lr, then half-cycle cosine decay to min_lr."""
    if not 0 <= step <= sched.total_steps:
        raise ValueError(f"step {step} outside [0, {sched.total_steps}]")
    if step < sched.warmup_steps:
        return sched.base_lr * step / sched.warmup_steps
    span = sched.total_steps - sched.warmup_steps
    progress = (step - sched.warmup_steps) / span if span else 1.0
    return sched.min_lr + (sched.base_lr - sched.min_lr) * 0.5 * (1.0 + math.cos(math.pi * progress))


class AdamW:
    """Standard AdamW; weight decay multiplies the weight, never the gradient.

    Building one moves every parameter's value into the optimizer's arena
    and binds its gradient to a zeroed slot there, dropping any it held.
    A parameter rebound to a new array afterwards (a resized positional
    table, say) would fall out of it, so `step` raises instead of
    training a stale copy; build a new optimizer after rebinding.
    """

    def __init__(self, params: ParameterSet, base_lr: float = 1e-4,
                 beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8,
                 weight_decay: float = 0.0, clip_norm: float | None = None):
        self.params = params
        self.base_lr = base_lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.weight_decay = weight_decay
        self.clip_norm = clip_norm
        self.step_count = 0
        dtypes = sorted({p.data.dtype.name for p in params})
        if len(dtypes) > 1:
            raise ShapeError(f"AdamW needs one dtype across its parameters, got {dtypes}")
        dtype = np.dtype(dtypes[0] if dtypes else np.float32)
        total = params.total_size()
        self._data = np.empty(total, dtype)
        self._grad = np.zeros(total, dtype)
        self._m = np.zeros(total, dtype)
        self._v = np.zeros(total, dtype)
        self.m: dict[str, np.ndarray] = {}
        self.v: dict[str, np.ndarray] = {}
        self._bound: list[tuple] = []  # (name, parameter, its data view, its grad view)
        lo = 0
        for name, p in params.items():
            hi = lo + p.data.size
            data = self._data[lo:hi].reshape(p.data.shape)
            grad = self._grad[lo:hi].reshape(p.data.shape)
            data[...] = p.data
            p.data, p.grad = data, grad
            self.m[name] = self._m[lo:hi].reshape(p.data.shape)
            self.v[name] = self._v[lo:hi].reshape(p.data.shape)
            self._bound.append((name, p, data, grad))
            lo = hi
        width = min(CHUNK, total)
        self._scratch = (np.empty(width, dtype), np.empty(width, dtype))

    def _check_bound(self) -> None:
        for name, p, data, grad in self._bound:
            if p.data is not data or p.grad is not grad:
                raise ShapeError(f"parameter {name!r} was rebound after its optimizer was "
                                 "built; build a new optimizer after rebinding")

    def _grad_sq_norm(self) -> float:
        """Squared gradient norm; non-finite exactly when some entry is, barring overflow.

        Without clipping only the finiteness matters, and a dot product in
        the arena's dtype is the cheapest pass that carries it. With
        clipping the sum is taken in float64.
        """
        g = self._grad
        if self.clip_norm is None:
            return float(np.dot(g, g))
        return float(np.einsum("i,i->", g, g, dtype=np.float64))

    def step(self, lr: float | None = None) -> None:
        """One update over every parameter; gradients are zeroed afterwards."""
        lr = self.base_lr if lr is None else lr
        self._check_bound()
        sq = self._grad_sq_norm()
        if not math.isfinite(sq):
            for name, p, _, grad in self._bound:
                if not np.all(np.isfinite(grad)):
                    raise EvaluationError(f"non-finite gradient in parameter {name!r}")
        factor = None
        if self.clip_norm is not None and math.sqrt(sq) > self.clip_norm:
            factor = self.clip_norm / math.sqrt(sq)
        self.step_count += 1
        beta1, beta2, eps = self.beta1, self.beta2, self.eps
        bc1 = 1.0 - beta1 ** self.step_count
        bc2 = 1.0 - beta2 ** self.step_count
        decay = 1.0 - lr * self.weight_decay
        total = self._grad.size
        for lo in range(0, total, CHUNK):
            hi = min(lo + CHUNK, total)
            p, g = self._data[lo:hi], self._grad[lo:hi]
            m, v = self._m[lo:hi], self._v[lo:hi]
            a, b = self._scratch[0][:hi - lo], self._scratch[1][:hi - lo]
            if factor is not None:
                g *= factor
            if self.weight_decay:
                p *= decay
            m *= beta1
            np.multiply(g, 1.0 - beta1, out=a)
            m += a
            v *= beta2
            np.multiply(g, g, out=a)
            a *= 1.0 - beta2
            v += a
            np.divide(m, bc1, out=a)  # update = (m / bc1) / (sqrt(v / bc2) + eps)
            np.divide(v, bc2, out=b)
            np.sqrt(b, out=b)
            b += eps
            a /= b
            a *= lr
            p -= a
        self._grad.fill(0.0)
