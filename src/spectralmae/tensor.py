"""Dense float tensors with reverse-mode automatic differentiation.

A `Tensor` wraps a C-contiguous numpy array (float32 by default,
float64 available for high-precision gradient verification) plus the
bookkeeping needed to backpropagate: parent links and a closure that
routes the output adjoint to the parents. `Parameter` is a leaf tensor
with a persistent, zero-initialized gradient buffer.

Shape discipline is strict: no implicit broadcasting anywhere. The only
shape-mixing ops are the explicit ones (`add_rowvec`, `tile_rows`,
`mean_rows`), and every mismatch raises `ShapeError` naming both shapes.
Reductions accumulate in float64 and round once to the tensor dtype.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ShapeError

DEFAULT_DTYPE = np.float32

_GELU_C = math.sqrt(2.0 / math.pi)
_GELU_A = 0.044715


def _as_array(values, dtype) -> np.ndarray:
    arr = np.asarray(values, dtype=dtype)
    # ascontiguousarray would promote 0-d scalars to shape (1,)
    return arr if arr.ndim == 0 else np.ascontiguousarray(arr)


class Tensor:
    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward")

    def __init__(self, data, dtype=None, requires_grad: bool = False):
        if isinstance(data, np.generic) and dtype is None:
            data = np.asarray(data)  # 0-d arithmetic yields numpy scalars; keep their dtype
        if isinstance(data, np.ndarray) and dtype is None:
            if data.dtype not in (np.float32, np.float64):
                data = data.astype(DEFAULT_DTYPE)
            self.data = data if data.ndim == 0 else np.ascontiguousarray(data)
        else:
            self.data = _as_array(data, dtype or DEFAULT_DTYPE)
        self.grad: np.ndarray | None = None
        self.requires_grad = requires_grad
        self._parents: tuple[Tensor, ...] = ()
        self._backward = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def dtype(self):
        return self.data.dtype

    def item(self) -> float:
        return float(self.data)

    def zero_grad(self) -> None:
        if self.grad is None:
            self.grad = np.zeros_like(self.data)
        else:
            self.grad.fill(0.0)

    def _accumulate(self, delta: np.ndarray) -> None:
        if self.grad is None:
            self.grad = np.zeros_like(self.data)
        self.grad += delta

    def backward(self) -> None:
        """Reverse-mode sweep from a scalar output."""
        if self.data.size != 1:
            raise ShapeError(f"backward() requires a scalar, got shape {self.shape}")
        order: list[Tensor] = []
        seen: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                order.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                if p.requires_grad and id(p) not in seen:
                    stack.append((p, False))
        self._accumulate(np.ones_like(self.data))
        for node in reversed(order):
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)
                if not isinstance(node, Parameter) and node is not self:
                    node.grad = None  # interior adjoints are transient

    # operator sugar; all strict-shape
    def __add__(self, other):
        return add(self, other)

    def __sub__(self, other):
        return sub(self, other)

    def __mul__(self, other):
        if isinstance(other, (int, float)):
            return scale(self, float(other))
        return mul(self, other)

    def __rmul__(self, other):
        return scale(self, float(other))

    def __neg__(self):
        return scale(self, -1.0)

    def __matmul__(self, other):
        return matmul(self, other)

    def __repr__(self):
        return f"Tensor(shape={self.shape}, dtype={self.data.dtype.name}, requires_grad={self.requires_grad})"


class Parameter(Tensor):
    """Learnable leaf: value plus a persistent same-shape gradient slot."""

    __slots__ = ("name",)

    def __init__(self, data, dtype=None, name: str = ""):
        super().__init__(data, dtype=dtype, requires_grad=True)
        self.grad = np.zeros_like(self.data)
        self.name = name


class ParameterSet:
    """Ordered, named collection of Parameters (insertion order is the contract)."""

    def __init__(self):
        self._params: dict[str, Parameter] = {}

    def add(self, name: str, param: Parameter) -> Parameter:
        if name in self._params:
            raise ValueError(f"duplicate parameter name {name!r}")
        param.name = name
        self._params[name] = param
        return param

    def __getitem__(self, name: str) -> Parameter:
        return self._params[name]

    def __contains__(self, name: str) -> bool:
        return name in self._params

    def __iter__(self):
        return iter(self._params.values())

    def __len__(self):
        return len(self._params)

    def names(self) -> list[str]:
        return list(self._params.keys())

    def items(self):
        return self._params.items()

    def zero_grads(self) -> None:
        for p in self:
            p.zero_grad()

    def total_size(self) -> int:
        return sum(p.data.size for p in self)


def _require(cond: bool, msg: str) -> None:
    if not cond:
        raise ShapeError(msg)


def _out(data: np.ndarray, parents: tuple[Tensor, ...], backward) -> Tensor:
    t = Tensor(data)
    if any(p.requires_grad for p in parents):
        t.requires_grad = True
        t._parents = tuple(p for p in parents if p.requires_grad)
        t._backward = backward
    return t


def constant(values, dtype=DEFAULT_DTYPE) -> Tensor:
    return Tensor(values, dtype=dtype)


def add(a: Tensor, b: Tensor) -> Tensor:
    _require(a.shape == b.shape, f"add: shapes {a.shape} and {b.shape} differ")

    def backward(g):
        if a.requires_grad:
            a._accumulate(g)
        if b.requires_grad:
            b._accumulate(g)

    return _out(a.data + b.data, (a, b), backward)


def sub(a: Tensor, b: Tensor) -> Tensor:
    _require(a.shape == b.shape, f"sub: shapes {a.shape} and {b.shape} differ")

    def backward(g):
        if a.requires_grad:
            a._accumulate(g)
        if b.requires_grad:
            b._accumulate(-g)

    return _out(a.data - b.data, (a, b), backward)


def mul(a: Tensor, b: Tensor) -> Tensor:
    _require(a.shape == b.shape, f"mul: shapes {a.shape} and {b.shape} differ")

    def backward(g):
        if a.requires_grad:
            a._accumulate(g * b.data)
        if b.requires_grad:
            b._accumulate(g * a.data)

    return _out(a.data * b.data, (a, b), backward)


def scale(a: Tensor, s: float) -> Tensor:
    s = float(s)

    def backward(g):
        a._accumulate(g * np.asarray(s, dtype=g.dtype))

    return _out(a.data * np.asarray(s, dtype=a.data.dtype), (a,), backward)


def add_rowvec(a: Tensor, v: Tensor) -> Tensor:
    """a[m, n] + v[n] broadcast over rows (the one sanctioned broadcast)."""
    _require(a.data.ndim == 2 and v.data.ndim == 1 and a.shape[1] == v.shape[0],
             f"add_rowvec: shapes {a.shape} and {v.shape} incompatible")

    def backward(g):
        if a.requires_grad:
            a._accumulate(g)
        if v.requires_grad:
            v._accumulate(g.sum(axis=0, dtype=np.float64).astype(g.dtype))

    return _out(a.data + v.data[None, :], (a, v), backward)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product; 2-D, or stacked 3-D with identical leading extents."""
    ok = (
        a.data.ndim == b.data.ndim
        and a.data.ndim in (2, 3)
        and a.shape[-1] == b.shape[-2]
        and a.shape[:-2] == b.shape[:-2]
    )
    _require(ok, f"matmul: shapes {a.shape} and {b.shape} incompatible")

    def backward(g):
        if a.requires_grad:
            a._accumulate(g @ np.swapaxes(b.data, -1, -2))
        if b.requires_grad:
            b._accumulate(np.swapaxes(a.data, -1, -2) @ g)

    return _out(a.data @ b.data, (a, b), backward)


def reshape(a: Tensor, shape) -> Tensor:
    shape = tuple(int(s) for s in shape)
    _require(int(np.prod(shape)) == a.data.size,
             f"reshape: cannot view {a.shape} as {shape}")

    def backward(g):
        a._accumulate(g.reshape(a.shape))

    return _out(a.data.reshape(shape), (a,), backward)


def transpose(a: Tensor, axes) -> Tensor:
    axes = tuple(int(x) for x in axes)
    _require(sorted(axes) == list(range(a.data.ndim)),
             f"transpose: axes {axes} invalid for shape {a.shape}")
    inverse = np.argsort(axes)

    def backward(g):
        a._accumulate(np.ascontiguousarray(g.transpose(inverse)))

    return _out(np.ascontiguousarray(a.data.transpose(axes)), (a,), backward)


def gather_rows(a: Tensor, indices) -> Tensor:
    """Select rows (axis 0) by index; duplicates allowed, adjoints scatter-add."""
    idx = np.asarray(indices, dtype=np.int64)
    _require(idx.ndim == 1, "gather_rows: indices must be 1-D")
    if idx.size and (idx.min() < 0 or idx.max() >= a.shape[0]):
        raise ShapeError(f"gather_rows: index out of range for {a.shape[0]} rows")

    def backward(g):
        delta = np.zeros_like(a.data)
        np.add.at(delta, idx, g)
        a._accumulate(delta)

    return _out(np.ascontiguousarray(a.data[idx]), (a,), backward)


def concat_rows(parts: list[Tensor]) -> Tensor:
    _require(len(parts) >= 1, "concat_rows: need at least one tensor")
    trailing = parts[0].shape[1:]
    for p in parts:
        _require(p.shape[1:] == trailing,
                 f"concat_rows: trailing shapes {p.shape[1:]} vs {trailing} differ")
    offsets = np.cumsum([0] + [p.shape[0] for p in parts])

    def backward(g):
        for p, lo, hi in zip(parts, offsets[:-1], offsets[1:]):
            if p.requires_grad:
                p._accumulate(g[lo:hi])

    return _out(np.concatenate([p.data for p in parts], axis=0), tuple(parts), backward)


def tile_rows(v: Tensor, m: int) -> Tensor:
    """Repeat a vector as m identical rows; adjoint sums over rows."""
    _require(v.data.ndim == 1, f"tile_rows: expected a vector, got {v.shape}")

    def backward(g):
        v._accumulate(g.sum(axis=0, dtype=np.float64).astype(g.dtype))

    return _out(np.tile(v.data, (int(m), 1)), (v,), backward)


def mean_rows(a: Tensor) -> Tensor:
    """Column means of a 2-D tensor, kept as a single row."""
    _require(a.data.ndim == 2, f"mean_rows: expected 2-D, got {a.shape}")
    n = a.shape[0]

    def backward(g):
        a._accumulate(np.repeat(g / n, n, axis=0))

    out = a.data.mean(axis=0, dtype=np.float64).astype(a.data.dtype)[None, :]
    return _out(out, (a,), backward)


def softmax_lastaxis(a: Tensor) -> Tensor:
    """Softmax over the last axis, max-subtracted for overflow safety."""
    _require(a.shape[-1] >= 1, "softmax_lastaxis: empty last axis")
    shifted = a.data - a.data.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    y = e / e.sum(axis=-1, keepdims=True)

    def backward(g):
        dot = (g * y).sum(axis=-1, keepdims=True)
        a._accumulate(y * (g - dot))

    return _out(y, (a,), backward)


def log_softmax_lastaxis(a: Tensor) -> Tensor:
    shifted = a.data - a.data.max(axis=-1, keepdims=True)
    lse = np.log(np.exp(shifted).sum(axis=-1, keepdims=True))
    y = shifted - lse
    sm = np.exp(y)

    def backward(g):
        a._accumulate(g - sm * g.sum(axis=-1, keepdims=True))

    return _out(y, (a,), backward)


def layer_norm(a: Tensor, gain: Tensor, bias: Tensor, eps: float = 1e-6) -> Tensor:
    """Normalize the last axis to zero mean / unit variance, then affine.

    eps sits inside the sqrt, guarding constant rows; the backward pass
    is the closed form for d(gain * (x - mu) / sqrt(var + eps) + bias).
    """
    d = a.shape[-1]
    _require(gain.shape == (d,) and bias.shape == (d,),
             f"layer_norm: gain/bias {gain.shape}/{bias.shape} must be ({d},)")
    if eps <= 0:
        raise ValueError("layer_norm: eps must be positive")
    mu = a.data.mean(axis=-1, keepdims=True, dtype=np.float64)
    var = ((a.data.astype(np.float64) - mu) ** 2).mean(axis=-1, keepdims=True)
    inv = (1.0 / np.sqrt(var + eps)).astype(a.data.dtype)
    xhat = ((a.data - mu.astype(a.data.dtype)) * inv).astype(a.data.dtype)
    y = xhat * gain.data + bias.data

    def backward(g):
        if bias.requires_grad:
            bias._accumulate(g.reshape(-1, d).sum(axis=0, dtype=np.float64).astype(g.dtype))
        if gain.requires_grad:
            gain._accumulate((g * xhat).reshape(-1, d).sum(axis=0, dtype=np.float64).astype(g.dtype))
        if a.requires_grad:
            gh = g * gain.data
            mean_gh = gh.mean(axis=-1, keepdims=True)
            mean_gh_x = (gh * xhat).mean(axis=-1, keepdims=True)
            a._accumulate(inv * (gh - mean_gh - xhat * mean_gh_x))

    return _out(y, (a, gain, bias), backward)


def gelu(a: Tensor) -> Tensor:
    """GELU, tanh approximation: 0.5 x (1 + tanh(c (x + 0.044715 x^3)))."""
    x = a.data
    inner = _GELU_C * (x + _GELU_A * x ** 3)
    t = np.tanh(inner)

    def backward(g):
        sech2 = 1.0 - t * t
        dinner = _GELU_C * (1.0 + 3.0 * _GELU_A * x * x)
        a._accumulate(g * (0.5 * (1.0 + t) + 0.5 * x * sech2 * dinner))

    return _out(0.5 * x * (1.0 + t), (a,), backward)


def abs_val(a: Tensor) -> Tensor:
    """Elementwise |x|; subgradient at 0 is 0."""

    def backward(g):
        a._accumulate(g * np.sign(a.data))

    return _out(np.abs(a.data), (a,), backward)


def logsigmoid(a: Tensor) -> Tensor:
    """log(sigmoid(x)) computed as min(x,0) - log1p(exp(-|x|))."""
    x = a.data
    y = np.minimum(x, 0.0) - np.log1p(np.exp(-np.abs(x)))

    def backward(g):
        # d/dx log sigmoid(x) = sigmoid(-x)
        a._accumulate(g * _sigmoid(-x))

    return _out(y.astype(x.dtype), (a,), backward)


def _sigmoid(x: np.ndarray) -> np.ndarray:
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def sum_all(a: Tensor) -> Tensor:
    def backward(g):
        a._accumulate(np.full_like(a.data, float(g)))

    total = a.data.sum(dtype=np.float64)
    return _out(np.asarray(total, dtype=a.data.dtype), (a,), backward)


def mean_all(a: Tensor) -> Tensor:
    n = a.data.size

    def backward(g):
        a._accumulate(np.full_like(a.data, float(g) / n))

    total = a.data.mean(dtype=np.float64)
    return _out(np.asarray(total, dtype=a.data.dtype), (a,), backward)


def mse(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise mean of (a - b)^2; the workhorse reconstruction loss."""
    d = sub(a, b)
    return mean_all(mul(d, d))
