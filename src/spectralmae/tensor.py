"""Dense float tensors with reverse-mode automatic differentiation.

A `Tensor` wraps a C-contiguous numpy array (float32 by default,
float64 available for high-precision gradient verification) plus the
bookkeeping needed to backpropagate: parent links and a closure that
routes the output adjoint to the parents. `Parameter` is a named leaf
tensor; like any leaf its gradient stays `None` until a backward sweep
first reaches it, and an optimizer binds it to its arena after that.

After the forward, an op's closure holds only node values (its parents'
and its own, which the graph pins anyway) and per-row vectors. Anything
larger the backward rebuilds from those values with the forward's own
numpy calls in the forward's order, so every bit is the same: attention's
scaled Q, K and V and its scores E, GELU's tanh, LayerNorm's normalised
rows and log-softmax's probabilities. A value that no backward reads,
or that its one reader can rebuild, is not made a node at all:
`gelu_matmul` rebuilds GELU's output from its input, and `matmul`'s
`residual` and `gelu_matmul` add a residual in place, so a transformer
sublayer's last product is no node.
One 96x96x12 image through the `pretrain-mid` model holds 11.8 MB after
the forward, 10.9 MB of it node values; with GELU's output and the
sublayer products as nodes it held 16.0 MB, and with the rebuilt buffers
kept as well 24.0 MB.

`backward()` consumes its graph. As the sweep passes an op node it drops
the node's closure and parent links, so what only closures hold (inputs
that need no gradient, per-row vectors) is freed during the sweep, and a
caller that still holds the loss pins nothing. A consumed node keeps its
value but not its history: a second `backward()` through it raises
`ConsumedGraphError`. Leaves and Parameters are never consumed.

Shape discipline is strict: no implicit broadcasting anywhere. The only
shape-mixing ops are the explicit ones (`matmul`'s optional row bias,
`tile_rows`, `mean_rows`), and every mismatch raises `ShapeError` naming
both shapes. Reductions accumulate in float64 and round once to the
tensor dtype.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ConsumedGraphError, ShapeError

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

    def _accumulate(self, delta: np.ndarray, owned: bool = False) -> None:
        """Add `delta` into the adjoint.

        `owned=True` promises `delta` is a fresh array nothing else holds,
        so a node without an adjoint yet adopts it instead of copying.
        Pass-through adjoints (the output's own `g` or a view of it) may
        alias a sibling's buffer and are copied.
        """
        if self.grad is None:
            if owned:
                self.grad = delta
                return
            self.grad = np.zeros_like(self.data)
        self.grad += delta

    def backward(self) -> None:
        """Reverse-mode sweep from a scalar output; consumes the graph it walks."""
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
            if node._backward is _consumed:
                _consumed(None)  # raises before any adjoint moves
            seen.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                if p.requires_grad and id(p) not in seen:
                    stack.append((p, False))
        self._accumulate(np.ones_like(self.data), owned=True)
        while order:  # reverse topological order; a popped node is done with
            node = order.pop()
            if node._backward is None:
                continue  # a leaf keeps its adjoint
            if node.grad is not None:
                node._backward(node.grad)
            node._backward, node._parents = _consumed, ()
            if node is not self:
                node.grad = None  # interior adjoints are transient

    def __repr__(self):
        return f"Tensor(shape={self.shape}, dtype={self.data.dtype.name}, requires_grad={self.requires_grad})"


class Parameter(Tensor):
    """Learnable named leaf; its gradient stays `None` until something trains it."""

    __slots__ = ("name",)

    def __init__(self, data, dtype=None, name: str = ""):
        super().__init__(data, dtype=dtype, requires_grad=True)
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


def _consumed(g) -> None:
    """The closure of an op node whose graph `backward()` has swept."""
    raise ConsumedGraphError("backward through a consumed graph: each graph "
                             "backpropagates once; build the loss again")


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
            a._accumulate(g * b.data, owned=True)
        if b.requires_grad:
            b._accumulate(g * a.data, owned=True)

    return _out(a.data * b.data, (a, b), backward)


def scale(a: Tensor, s: float) -> Tensor:
    s = float(s)

    def backward(g):
        a._accumulate(g * np.asarray(s, dtype=g.dtype), owned=True)

    return _out(a.data * np.asarray(s, dtype=a.data.dtype), (a,), backward)


def matmul(a: Tensor, b: Tensor, bias: Tensor | None = None,
           residual: Tensor | None = None) -> Tensor:
    """Matrix product; 2-D, or stacked (any rank) with identical leading extents.

    A linear layer passes `bias` (2-D operands only, shape (b.shape[1],)),
    which is added to every output row; its adjoint is the column sum. A
    residual sublayer passes `residual`, shaped as the output, which is
    added in place after the bias. Float addition commutes, so the output
    has the bits of `add(residual, matmul(a, b, bias))`, and the product
    that `add` would read is never a node of its own.
    """
    ok = (
        a.data.ndim == b.data.ndim
        and a.data.ndim >= 2
        and a.shape[-1] == b.shape[-2]
        and a.shape[:-2] == b.shape[:-2]
    )
    _require(ok, f"matmul: shapes {a.shape} and {b.shape} incompatible")
    if bias is not None:
        _require(a.data.ndim == 2 and bias.shape == (b.shape[1],),
                 f"matmul: bias {bias.shape} does not fit shapes {a.shape} and {b.shape}")
    if residual is not None:
        _require(residual.shape == a.shape[:-1] + b.shape[-1:],
                 f"matmul: residual {residual.shape} does not fit shapes {a.shape} and {b.shape}")

    def backward(g):
        if residual is not None and residual.requires_grad:
            residual._accumulate(g)
        if bias is not None and bias.requires_grad:
            bias._accumulate(g.sum(axis=0, dtype=np.float64).astype(g.dtype))
        if a.requires_grad:
            a._accumulate(g @ np.swapaxes(b.data, -1, -2), owned=True)
        if b.requires_grad:
            b._accumulate(np.swapaxes(a.data, -1, -2) @ g, owned=True)

    y = a.data @ b.data
    if bias is not None:
        y += bias.data
    if residual is not None:
        y += residual.data
    extra = tuple(t for t in (bias, residual) if t is not None)
    return _out(y, (a, b) + extra, backward)


def reshape(a: Tensor, shape) -> Tensor:
    shape = tuple(int(s) for s in shape)
    _require(int(np.prod(shape)) == a.data.size,
             f"reshape: cannot view {a.shape} as {shape}")

    def backward(g):
        a._accumulate(g.reshape(a.shape))

    return _out(a.data.reshape(shape), (a,), backward)


def gather_rows(a: Tensor, indices) -> Tensor:
    """Select rows (axis 0) by index; duplicates allowed, adjoints scatter-add.

    Unique indices (a permutation or a slice) scatter by plain assignment.
    Duplicates scatter-add with one `np.bincount` over flat element
    positions, which sums in float64 and rounds once.
    """
    idx = np.asarray(indices, dtype=np.int64)
    _require(idx.ndim == 1, "gather_rows: indices must be 1-D")
    if idx.size and (idx.min() < 0 or idx.max() >= a.shape[0]):
        raise ShapeError(f"gather_rows: index out of range for {a.shape[0]} rows")
    hit = np.zeros(a.shape[0], dtype=bool)
    hit[idx] = True
    unique = int(np.count_nonzero(hit)) == idx.size

    def backward(g):
        if unique:
            delta = np.zeros_like(a.data)
            delta[idx] = g
        else:
            width = g[0].size
            flat = (idx[:, None] * width + np.arange(width)).reshape(-1)
            sums = np.bincount(flat, weights=g.reshape(-1), minlength=a.data.size)
            delta = sums.astype(g.dtype).reshape(a.shape)
        a._accumulate(delta, owned=True)

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


# Score elements one pass of `attention` works on. A slice of t² scores
# within this budget is short: short slices (the encoder, `pretrain-tiny`,
# fine-tuning) are batched whole (image, head) slices up to it. A longer
# slice is computed in tiles of whole query rows. No slice keeps its
# scores: the backward recomputes each chunk or tile before it uses it, so
# a dS tile stays in cache beside the E tile it multiplies. Backward of
# one 6 x 576 x 576 stack at d_h = 8 with E kept (2-core EPYC, 1 MB L2
# per core, one BLAS thread; median of 30 calls, best of two sweeps), in ms:
#   rows per tile  576   64    96    128   144   170   192   208   224   256
#   backward       1.97  1.60  1.40  1.36  1.27  1.33  1.33  1.26  1.87  1.89
# From 224 rows a dS tile and its E tile no longer share L2. 3 * 2**15
# scores is 170 rows of 576, inside the fast band. The tile height also
# fixes the bits: dV and dK are sums over the tiles.
_ATTENTION_TILE = 3 << 15

# Score bound under which a long slice skips the row max before `exp`:
# e**±20 (4.9e8 and 2.1e-9) sit far inside float32's normal range (exp
# overflows past 88), so no row sum, reciprocal or product overflows,
# and the margin absorbs the rounding of the bound and of the scores.
_EXP_SAFE = 20.0

def attention(q: Tensor, k: Tensor, v: Tensor, images: int, heads: int) -> Tensor:
    """Multi-head softmax(Q Kᵀ / sqrt(d_h)) V within each image.

    q, k and v are (images * t, d) rows, image by image; the width splits
    into `heads` heads of d_h = d / heads, and so does the (images * t, d)
    output. The forward exponentiates the scores of the pre-scaled Q in
    place, E = exp(Q Kᵀ − m), and O = E V / l takes the row sums l from a
    ones column on V, so P = E / l is never formed. The row max m is
    subtracted before `exp`, except in a long slice whose bound
    max|q_i| · max|k_j| (Cauchy–Schwarz) is at most `_EXP_SAFE`: there raw
    scores cannot overflow and P is the same. The backward is closed form,
    with D = rowsum(dO ∘ O) costing t·d_h where rowsum(dP ∘ P) costs t·t,
    and −D riding the same ones column into the dP product:
        dV = Pᵀ dO,  dS = P ∘ (dO Vᵀ − D),  dQ = s dS K,  dK = s dSᵀ Q.
    The graph keeps no E and no copy of Q, K or V, only the row maxima m
    and row sums l: the backward rebuilds the scaled Q, K and the ones-
    columned V1 from q, k and v, and recomputes E with the forward's calls,
    so it has the forward's bits. Short slices (t² within
    `_ATTENTION_TILE`) run in chunks of whole (image, head) slices up to
    that many scores. A long slice runs alone, in tiles of whole query
    rows that both passes share; the backward writes dQ per tile and sums
    dV and dK over the tiles.
    """
    _require(q.shape == k.shape == v.shape and q.data.ndim == 2,
             f"attention: q, k, v shapes {q.shape}, {k.shape}, {v.shape} must be equal (rows, d)")
    n, d = q.shape
    _require(images >= 1 and n >= images and n % images == 0,
             f"attention: {n} rows do not split into {images} images")
    _require(heads >= 1 and d >= heads and d % heads == 0,
             f"attention: width {d} does not split into {heads} heads")
    t, dh, b = n // images, d // heads, images * heads
    dtype = q.data.dtype
    s = np.asarray(1.0 / math.sqrt(dh), dtype=dtype)
    long = t * t > _ATTENTION_TILE
    step = max(1, _ATTENTION_TILE // (t * t))
    chunks = [slice(lo, min(lo + step, b)) for lo in range(0, b, step)]
    rows = max(1, _ATTENTION_TILE // t) if long else t
    tiles = [slice(lo, min(lo + rows, t)) for lo in range(0, t, rows)]

    def split(x):  # (images * t, d) -> (images * heads, t, d_h)
        x = x.reshape(images, t, heads, dh).transpose(0, 2, 1, 3)
        return np.ascontiguousarray(x).reshape(b, t, dh)

    def merge(x):  # (images * heads, t, d_h) -> (images * t, d)
        x = x.reshape(images, heads, t, dh).transpose(0, 2, 1, 3)
        return np.ascontiguousarray(x).reshape(n, d)

    def with_ones(x):  # split(x) with a ones column appended
        x1 = np.empty((b, t, dh + 1), dtype=x.dtype)
        x1[..., :dh] = split(x)
        x1[..., dh] = 1.0
        return x1

    qh, kh = split(q.data * s), split(k.data)
    raw = np.zeros(b, dtype=bool)  # slices that skip the max pass
    if long:  # squared norms; a NaN bound compares false and keeps the max pass
        qn, kn = (np.einsum("btd,btd->bt", x, x).max(axis=-1) for x in (qh, kh))
        raw = qn * kn <= _EXP_SAFE * _EXP_SAFE
    m = None if raw.all() else np.empty((b, t, 1), dtype=dtype)
    v1 = with_ones(v.data)
    ol = np.empty_like(v1)

    e = np.empty((min(step, b), t, t), dtype=dtype)  # a chunk's scores
    for c in chunks:  # E V1 of each chunk
        ec = e[:c.stop - c.start]
        for r in tiles:
            np.matmul(qh[c, r], np.swapaxes(kh[c], -1, -2), out=ec[:, r])
        if not raw[c.start]:
            np.max(ec, axis=-1, keepdims=True, out=m[c])
            ec -= m[c]
        np.exp(ec, out=ec)
        np.matmul(ec, v1[c], out=ol[c])
    l = ol[..., dh:].copy()
    out = merge(ol[..., :dh] / l)

    def backward(g):
        qh, kh, v1 = split(q.data), split(k.data), with_ones(v.data)
        qs = qh * s  # the forward's scaled Q, elementwise the same products
        gd = np.empty_like(v1)  # [dO / l, -D / l]
        go = gd[..., :dh]
        np.divide(split(g), l, out=go)
        qk = q.requires_grad or k.requires_grad
        dv = np.empty_like(go) if v.requires_grad else None
        if qk:
            gd[..., dh] = -(go * split(out)).sum(axis=-1)
            dq, dk = np.empty_like(qh), np.empty_like(kh)

        def product(dst, x, y, first):  # a slice's first tile writes, later tiles add
            if first:
                np.matmul(x, y, out=dst)
            else:
                dst += x @ y

        e = np.empty((min(step, b), rows, t), dtype=dtype)  # a row tile's E
        ds = np.empty_like(e) if qk else None
        for c in chunks:  # the four products of each row tile
            for r in tiles:  # recompute the tile's E, as the forward built it
                et = e[:c.stop - c.start, :r.stop - r.start]
                np.matmul(qs[c, r], np.swapaxes(kh[c], -1, -2), out=et)
                if not raw[c.start]:
                    et -= m[c, r]
                np.exp(et, out=et)
                first = r.start == 0
                if dv is not None:
                    product(dv[c], np.swapaxes(et, -1, -2), go[c, r], first)
                if qk:
                    dst = ds[:et.shape[0], :et.shape[1]]
                    np.matmul(gd[c, r], np.swapaxes(v1[c], -1, -2), out=dst)
                    dst *= et
                    np.matmul(dst, kh[c], out=dq[c, r])
                    product(dk[c], np.swapaxes(dst, -1, -2), qh[c, r], first)
        if dv is not None:
            v._accumulate(merge(dv), owned=True)
        for x, dx in ((q, dq), (k, dk)) if qk else ():
            if x.requires_grad:
                dx *= s
                x._accumulate(merge(dx), owned=True)

    return _out(out, (q, k, v), backward)


def log_softmax_lastaxis(a: Tensor) -> Tensor:
    shifted = a.data - a.data.max(axis=-1, keepdims=True)
    lse = np.log(np.exp(shifted).sum(axis=-1, keepdims=True))
    y = shifted - lse

    def backward(g):  # softmax rebuilt from the output
        a._accumulate(g - np.exp(y) * g.sum(axis=-1, keepdims=True))

    return _out(y, (a,), backward)


def layer_norm(a: Tensor, gain: Tensor, bias: Tensor, eps: float = 1e-6) -> Tensor:
    """Normalize the last axis to zero mean / unit variance, then affine.

    eps sits inside the sqrt, guarding constant rows; the backward pass
    is the closed form for d(gain * (x - mu) / sqrt(var + eps) + bias).
    Every row mean, forward and backward, is a float64 matrix–vector
    product with a 1/d column, which BLAS sums far faster than numpy's
    `mean` does over short rows. The forward centres x in its own dtype
    about the rounded mean, then takes out the float64 remainder c of that
    rounding after the variance: var = mean((x - mu_r)²) - c². So a row
    whose mean dwarfs its spread keeps full precision. The graph keeps
    three numbers per row, mu_r, c and 1 / sqrt(var + eps); the backward
    rebuilds the normalised rows from x with the forward's calls.
    """
    d = a.shape[-1]
    _require(gain.shape == (d,) and bias.shape == (d,),
             f"layer_norm: gain/bias {gain.shape}/{bias.shape} must be ({d},)")
    if eps <= 0:
        raise ValueError("layer_norm: eps must be positive")
    x = a.data.reshape(-1, d)
    w = np.full(d, 1.0 / d)
    mu = x @ w
    mu_r = mu.astype(x.dtype)
    xhat = x - mu_r[:, None]  # centred about the rounded mean; corrected and scaled below
    c = mu - mu_r
    var = (xhat * xhat) @ w - c * c
    inv = (1.0 / np.sqrt(var + eps)).astype(x.dtype)[:, None]
    c = c.astype(x.dtype)[:, None]
    xhat -= c
    xhat *= inv
    y = xhat * gain.data
    y += bias.data

    def backward(g):
        g = g.reshape(-1, d)
        if bias.requires_grad:
            bias._accumulate(g.sum(axis=0, dtype=np.float64).astype(g.dtype))
        xhat = x - mu_r[:, None]  # the normalised rows, rebuilt as the forward built them
        xhat -= c
        xhat *= inv
        if gain.requires_grad:
            gain._accumulate((g * xhat).sum(axis=0, dtype=np.float64).astype(g.dtype))
        if a.requires_grad:
            gh = g * gain.data
            ghx = gh * xhat
            gh -= (gh @ w).astype(g.dtype)[:, None]
            np.multiply(xhat, (ghx @ w).astype(g.dtype)[:, None], out=ghx)
            gh -= ghx
            gh *= inv
            a._accumulate(gh.reshape(a.shape), owned=True)

    return _out(y.reshape(a.shape), (a, gain, bias), backward)


def gelu(a: Tensor) -> Tensor:
    """GELU, tanh approximation: 0.5 x (1 + tanh(c (x + 0.044715 x^3))).

    Both passes work in a few buffers, rounding in the order of the
    written formulas (each in-place step only swaps the operands of a
    commutative product or sum), so the bits are those of the formulas.
    The graph keeps no tanh: the backward rebuilds it from x with the
    forward's calls (`_gelu_tanh`).
    """
    x = a.data

    def backward(g):
        a._accumulate(_gelu_adjoint(x, _gelu_tanh(x), g), owned=True)

    return _out(_gelu_value(x, _gelu_tanh(x)), (a,), backward)


def gelu_matmul(h: Tensor, w: Tensor, bias: Tensor, residual: Tensor) -> Tensor:
    """residual + gelu(h) W + bias as one node: a transformer's MLP output.

    It has the bits of `add(residual, matmul(gelu(h), w, bias))`, as
    `matmul`'s `residual` has, but the graph keeps neither gelu(h) nor the
    product: the backward rebuilds tanh from h once, with the forward's
    calls, and takes from it both gelu(h), for dW, and GELU'(h), for dh.
    """
    _require(h.data.ndim == 2 and w.data.ndim == 2 and h.shape[1] == w.shape[0],
             f"gelu_matmul: shapes {h.shape} and {w.shape} incompatible")
    out_shape = (h.shape[0], w.shape[1])
    _require(bias.shape == out_shape[1:] and residual.shape == out_shape,
             f"gelu_matmul: bias {bias.shape} and residual {residual.shape} "
             f"do not fit shapes {h.shape} and {w.shape}")
    x = h.data

    def backward(g):
        if residual.requires_grad:
            residual._accumulate(g)
        if bias.requires_grad:
            bias._accumulate(g.sum(axis=0, dtype=np.float64).astype(g.dtype))
        t = _gelu_tanh(x)
        if w.requires_grad:
            w._accumulate(_gelu_value(x, t).T @ g, owned=True)
        if h.requires_grad:
            h._accumulate(_gelu_adjoint(x, t, g @ w.data.T), owned=True)

    y = _gelu_value(x, _gelu_tanh(x)) @ w.data
    y += bias.data
    y += residual.data
    return _out(y, (h, w, bias, residual), backward)


def _gelu_tanh(x: np.ndarray) -> np.ndarray:
    """tanh(c (x + 0.044715 x^3)) in one fresh buffer, the same bits in both passes."""
    # x * x * x, not x ** 3: numpy sends a float power to powf, ~100x slower
    u = x * x
    u *= x
    u *= _GELU_A
    u += x
    u *= _GELU_C
    return np.tanh(u, out=u)


def _gelu_value(x: np.ndarray, t: np.ndarray) -> np.ndarray:
    """gelu(x) = 0.5 x (1 + t) for t = `_gelu_tanh(x)`, in a fresh buffer."""
    y = x * 0.5
    y *= t + 1.0
    return y


def _gelu_adjoint(x: np.ndarray, t: np.ndarray, g: np.ndarray) -> np.ndarray:
    """g GELU'(x) for t = `_gelu_tanh(x)`, in a fresh buffer; t is left as it is."""
    s = t * t
    np.subtract(1.0, s, out=s)  # sech²
    h = x * 0.5
    h *= s
    dinner = x * (3.0 * _GELU_A)
    dinner *= x
    dinner += 1.0
    dinner *= _GELU_C
    h *= dinner  # 0.5 x sech² c (1 + 3 A x²)
    np.add(t, 1.0, out=s)
    s *= 0.5
    s += h
    s *= g
    return s


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
