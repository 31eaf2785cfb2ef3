import math
import warnings
import weakref

import numpy as np
import pytest

from spectralmae import tensor as T
from spectralmae.errors import ConsumedGraphError, ShapeError
from spectralmae.gradcheck import grad_check
from spectralmae.rng import CounterRng

from memtrace import traced_memory


def _param_set(**arrays):
    ps = T.ParameterSet()
    for name, arr in arrays.items():
        ps.add(name, T.Parameter(np.asarray(arr)))
    return ps


def _numeric_grad(f, param, eps=1e-3):
    """Independent central-difference oracle over every element."""
    flat = param.data.reshape(-1)
    grad = np.zeros(flat.size)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + eps
        fp = f().item()
        flat[i] = orig - eps
        fm = f().item()
        flat[i] = orig
        grad[i] = (fp - fm) / (2 * eps)
    return grad.reshape(param.shape)


# ---------------------------------------------------------------- matmul

def test_matmul_identity():
    eye = T.Tensor(np.eye(2), np.float32)
    m = T.Tensor([[1.0, 2.0], [3.0, 4.0]], np.float32)
    assert np.array_equal(T.matmul(eye, m).data, m.data)


def test_matmul_hand_example():
    a = T.Tensor([[1.0, 2.0]], np.float32)
    b = T.Tensor([[3.0], [4.0]], np.float32)
    assert T.matmul(a, b).data.tolist() == [[11.0]]


def test_matmul_shape_error_names_both_shapes():
    a = T.Tensor(np.zeros((2, 3)), np.float32)
    b = T.Tensor(np.zeros((2, 3)), np.float32)
    with pytest.raises(ShapeError) as exc:
        T.matmul(a, b)
    assert "(2, 3)" in str(exc.value)


def test_matmul_gradcheck_float32():
    rng = CounterRng(0)
    ps = _param_set(a=rng.normal_array((3, 3)).astype(np.float32))
    b = T.Tensor(rng.normal_array((3, 3)).astype(np.float32), np.float32)
    result = grad_check(lambda: T.sum_all(T.matmul(ps["a"], b)), ps, eps=1e-3)
    assert result.max_relative_error <= 1e-3


def test_matmul_batched_matches_loop():
    rng = CounterRng(4)
    a = rng.normal_array((5, 2, 3))
    b = rng.normal_array((5, 3, 4))
    out = T.matmul(T.Tensor(a, np.float64), T.Tensor(b, np.float64)).data
    for i in range(5):
        assert np.allclose(out[i], a[i] @ b[i])


def test_matmul_4d_gradcheck():
    rng = CounterRng(5)
    ps = _param_set(a=rng.normal_array((2, 3, 4, 2)), b=rng.normal_array((2, 3, 2, 5)))
    w = T.Tensor(rng.normal_array((2, 3, 4, 5)), np.float32)
    f = lambda: T.sum_all(T.mul(w, T.matmul(ps["a"], ps["b"])))
    assert grad_check(f, ps).max_relative_error <= 1e-3


def test_matmul_unit_leading_axis_is_bit_identical_to_3d():
    # one image's attention runs as (1, h, T, d_h); it must keep the 3-D bits
    rng = CounterRng(6)
    a = rng.normal_array((3, 7, 4)).astype(np.float32)
    b = rng.normal_array((3, 4, 7)).astype(np.float32)
    g = rng.normal_array((3, 7, 7)).astype(np.float32)
    outs = []
    for shape_a, shape_b in (((3, 7, 4), (3, 4, 7)), ((1, 3, 7, 4), (1, 3, 4, 7))):
        ps = _param_set(a=a.reshape(shape_a), b=b.reshape(shape_b))
        out = T.matmul(ps["a"], ps["b"])
        T.sum_all(T.mul(T.Tensor(g.reshape(out.shape), np.float32), out)).backward()
        outs.append([out.data.reshape(-1), ps["a"].grad.reshape(-1), ps["b"].grad.reshape(-1)])
    for x, y in zip(*outs):
        assert np.array_equal(x, y)


def test_matmul_bias_gradcheck_shapes_and_oracle():
    rng = CounterRng(11)
    ps = _param_set(x=rng.normal_array((3, 4)), w=rng.normal_array((4, 5)),
                    b=rng.normal_array(5))
    g = T.Tensor(rng.normal_array((3, 5)), np.float32)
    f = lambda: T.sum_all(T.mul(g, T.matmul(ps["x"], ps["w"], ps["b"])))
    assert grad_check(f, ps).max_relative_error <= 1e-3
    with pytest.raises(ShapeError):
        T.matmul(ps["x"], ps["w"], T.Tensor(np.zeros(4), np.float32))
    with pytest.raises(ShapeError):
        T.matmul(T.Tensor(np.zeros((2, 3, 4)), np.float32), T.Tensor(np.zeros((2, 4, 5)), np.float32),
                 T.Tensor(np.zeros(5), np.float32))
    # the bits of the matmul-then-row-bias pair it replaced, adjoints included
    x, w, b, gy = (rng.normal_array(s).astype(np.float32)
                   for s in ((6, 4), (4, 5), (5,), (6, 5)))
    ps = _param_set(x=x, w=w, b=b)
    out = T.matmul(ps["x"], ps["w"], ps["b"])
    T.sum_all(T.mul(T.Tensor(gy, np.float32), out)).backward()
    assert out.data.tobytes() == (x @ w + b).tobytes()
    assert ps["x"].grad.tobytes() == (gy @ w.T).tobytes()
    assert ps["w"].grad.tobytes() == (x.T @ gy).tobytes()
    assert ps["b"].grad.tobytes() == gy.sum(axis=0, dtype=np.float64).astype(np.float32).tobytes()


def test_matmul_rank_mismatch_rejected():
    with pytest.raises(ShapeError):
        T.matmul(T.Tensor(np.zeros((1, 2, 3)), np.float32), T.Tensor(np.zeros((2, 3, 2)), np.float32))
    with pytest.raises(ShapeError):
        T.matmul(T.Tensor(np.zeros((2, 2, 3)), np.float32), T.Tensor(np.zeros((3, 2)), np.float32))


# ---------------------------------------------------------------- attention

def _attention_chain(q, k, v, w, images, heads):
    """Float64 numpy oracle: the reshape/transpose/matmul/softmax chain `attention`
    replaces, and the q/k/v gradients of sum(w ∘ O).

    Per (image, head), O = softmax(s Q Kᵀ) V, max-subtracted. The backward is
    the textbook softmax one, dS = P ∘ (dP − rowsum(dP ∘ P)), not the op's
    D = rowsum(dO ∘ O).
    """
    n, d = q.shape
    t, dh = n // images, d // heads
    s = 1.0 / math.sqrt(dh)
    qh, kh, vh, do = (np.asarray(x, np.float64).reshape(images, t, heads, dh).transpose(0, 2, 1, 3)
                      for x in (q, k, v, w))
    scores = s * (qh @ kh.swapaxes(-1, -2))
    e = np.exp(scores - scores.max(axis=-1, keepdims=True))
    p = e / e.sum(axis=-1, keepdims=True)
    dp = do @ vh.swapaxes(-1, -2)
    ds = p * (dp - (dp * p).sum(axis=-1, keepdims=True))
    heads_out = (p @ vh, s * ds @ kh, s * ds.swapaxes(-1, -2) @ qh, p.swapaxes(-1, -2) @ do)
    y, dq, dk, dv = (x.transpose(0, 2, 1, 3).reshape(n, d) for x in heads_out)
    return y, {"q": dq, "k": dk, "v": dv}


def _qkv(seed, rows, width, spread=1.0, dtype=np.float64):
    rng = CounterRng(seed)
    return _param_set(**{name: (spread * rng.child(name).normal_array((rows, width))).astype(dtype)
                         for name in "qkv"})


def _attention_gradcheck(images, heads):
    ps = _qkv(50 + heads, 4 * images, 2 * heads)
    w = T.Tensor(CounterRng(49).normal_array((4 * images, 2 * heads)), np.float32)
    f = lambda: T.sum_all(T.mul(w, T.attention(ps["q"], ps["k"], ps["v"], images, heads)))
    assert grad_check(f, ps).max_relative_error <= 1e-3


@pytest.mark.parametrize("images", [1, 3])
@pytest.mark.parametrize("heads", [1, 2, 3])
def test_attention_gradcheck(images, heads):
    _attention_gradcheck(images, heads)


@pytest.mark.parametrize("images", [1, 3])
@pytest.mark.parametrize("heads", [1, 2, 3])
def test_attention_row_tiles_gradcheck(monkeypatch, images, heads):
    monkeypatch.setattr(T, "_ATTENTION_TILE", 12)  # 4-token slices in row tiles of 3 and 1
    _attention_gradcheck(images, heads)


def _assert_matches_chain(images, heads, t, dh, spread):
    ps = _qkv(60, images * t, heads * dh, spread)
    w = CounterRng(61).normal_array((images * t, heads * dh)).astype(np.float32)
    y = T.attention(ps["q"], ps["k"], ps["v"], images, heads)
    y_chain, grads_chain = _attention_chain(*(ps[n].data for n in "qkv"), w, images, heads)
    pairs = [(y.data, y_chain)]
    ps.zero_grads()
    T.sum_all(T.mul(T.Tensor(w), y)).backward()
    pairs += [(ps[n].grad, grads_chain[n]) for n in "qkv"]
    for got, want in pairs:
        # exact zeros (t = 1 leaves Q and K without gradient) compare to round-off
        assert np.abs(got - want).max() <= 1e-6 * np.abs(want).max() + 1e-12


def _score_bounds(images, heads, t, dh, spread):
    """Per (image, head): max|q_i| max|k_j| / sqrt(d_h), the bound `attention` gates on."""
    ps = _qkv(60, images * t, heads * dh, spread)
    qh, kh = (np.linalg.norm(ps[n].data.reshape(images, t, heads, dh), axis=-1).max(axis=1)
              for n in "qk")
    return qh * kh / math.sqrt(dh)


@pytest.mark.parametrize("images,heads,t,dh,spread", [
    (1, 1, 1, 4, 1.0),  # t = 1: softmax of one score, no Q/K gradient
    (2, 3, 7, 2, 1.0),
    (3, 2, 5, 4, 3.0),
    (2, 2, 6, 2, 30.0),  # scores near +-1000
    (1, 3, 300, 2, 1.0),  # one whole slice per chunk
    (2, 1, 520, 2, 1.0),  # long slices in row tiles of 189, the last 142; bound 10: no max
])
def test_attention_matches_chain_oracle(images, heads, t, dh, spread):
    if spread == 30.0:
        ps = _qkv(60, images * t, heads * dh, spread)
        qh, kh = (ps[n].data.reshape(images, t, heads, dh) for n in "qk")
        scores = np.einsum("ithd,ishd->ihts", qh, kh) / math.sqrt(dh)
        assert scores.max() > 900.0 and scores.min() < -900.0
    _assert_matches_chain(images, heads, t, dh, spread)


@pytest.mark.parametrize("images,heads,t,dh,spread,tile", [
    (1, 3, 6, 2, 1.0, 80),  # chunks of two whole slices, the last one short
    (2, 3, 7, 2, 1.0, 40),  # row tiles of 5, the last one 2; bounds under 6: no max
    (1, 2, 11, 3, 3.0, 40),  # row tiles of 3, the last one 2; bounds near 27: max subtracted
])
def test_attention_small_tile_matches_chain_oracle(monkeypatch, images, heads, t, dh, spread, tile):
    monkeypatch.setattr(T, "_ATTENTION_TILE", tile)
    _assert_matches_chain(images, heads, t, dh, spread)


@pytest.mark.parametrize("spread,raw", [(1.0, True), (30.0, False)])
def test_attention_long_slice_max_pass_follows_score_bound(monkeypatch, spread, raw):
    # 36 scores per slice against a budget of 20: long slices in tiles of 3 rows
    monkeypatch.setattr(T, "_ATTENTION_TILE", 20)
    images, heads, t, dh = 2, 2, 6, 2
    bounds = _score_bounds(images, heads, t, dh, spread)
    assert (bounds <= T._EXP_SAFE).all() if raw else (bounds > 100 * T._EXP_SAFE).all()
    _assert_matches_chain(images, heads, t, dh, spread)
    # with the gate open, scores near +-1000 overflow exp: the max pass is what keeps them finite
    monkeypatch.setattr(T, "_EXP_SAFE", math.inf)
    ps = _qkv(60, images * t, heads * dh, spread)
    with np.errstate(over="ignore", invalid="ignore"):
        y = T.attention(ps["q"], ps["k"], ps["v"], images, heads)
    assert np.isfinite(y.data).all() == raw


@pytest.mark.parametrize("tile", [None, 20])
@pytest.mark.parametrize("name", ["q", "k", "v"])
def test_attention_nan_in_nan_out(monkeypatch, tile, name):
    if tile is not None:
        monkeypatch.setattr(T, "_ATTENTION_TILE", tile)
    images, heads, t, dh = 2, 2, 6, 2
    ps = _qkv(67, images * t, heads * dh)
    ps[name].data[t + 2, dh] = np.nan  # image 1, token 2, head 1
    y = T.attention(ps["q"], ps["k"], ps["v"], images, heads).data.reshape(images, t, heads, dh)
    # a NaN query spoils its own row of the head, a NaN key the whole head,
    # a NaN value its own column of the head
    hit = np.zeros((images, t, heads, dh), dtype=bool)
    rows = 2 if name == "q" else slice(None)
    cols = 0 if name == "v" else slice(None)
    hit[1, rows, 1, cols] = True
    assert np.isnan(y[hit]).all() and np.isfinite(y[~hit]).all()


def test_attention_float32_close_to_float64_chain():
    fused, chain = _qkv(62, 2 * 24, 12, dtype=np.float32), _qkv(62, 2 * 24, 12)
    w = CounterRng(63).normal_array((48, 12))
    y_fused = T.attention(fused["q"], fused["k"], fused["v"], 2, 3)
    y_chain, grads_chain = _attention_chain(*(chain[n].data for n in "qkv"), w, 2, 3)
    T.sum_all(T.mul(T.Tensor(w, np.float32), y_fused)).backward()
    assert y_fused.dtype == np.float32
    for got, want in [(y_fused.data, y_chain)] + [(fused[n].grad, grads_chain[n]) for n in "qkv"]:
        assert np.abs(got - want).max() <= 1e-5 * np.abs(want).max()


@pytest.mark.parametrize("shapes,images,heads", [
    (((6, 4), (6, 4), (6, 2)), 1, 2),  # q, k, v shapes differ
    (((6, 4), (5, 4), (6, 4)), 1, 2),
    (((5, 4), (5, 4), (5, 4)), 2, 2),  # rows do not split into images
    (((2, 4), (2, 4), (2, 4)), 3, 1),
    (((6, 4), (6, 4), (6, 4)), 0, 2),
    (((6, 6), (6, 6), (6, 6)), 2, 4),  # width does not split into heads
    (((6, 2), (6, 2), (6, 2)), 1, 0),
])
def test_attention_shape_errors(shapes, images, heads):
    q, k, v = (T.Tensor(np.zeros(s), np.float32) for s in shapes)
    with pytest.raises(ShapeError):
        T.attention(q, k, v, images, heads)


def test_attention_graph_holds_no_long_score_buffer():
    # the pretrain-mid decoder block: 576 tokens of width 48, 6 heads
    q, k, v = (_qkv(64, 576, 48, dtype=np.float32)[n] for n in "qkv")
    scores_bytes = 6 * 576 * 576 * 4
    with traced_memory() as read:
        out = T.attention(q, k, v, 1, 6)
        held, _ = read()
    assert out._backward is not None
    assert held < scores_bytes / 8  # the output, row sums and row maxima


def test_attention_graph_holds_no_short_score_buffer():
    # an encoder block of the d=96 models: 58 tokens of width 96, 12 heads
    q, k, v = (_qkv(67, 58, 96, dtype=np.float32)[n] for n in "qkv")
    with traced_memory() as read:
        out = T.attention(q, k, v, 1, 12)
        held, _ = read()
    assert out._backward is not None
    assert held - out.data.nbytes < 12 * 58 * 58 * 4 / 8  # row sums and row maxima


def test_gelu_graph_holds_no_tanh_buffer():
    ps = _param_set(x=CounterRng(68).normal_array((576, 192)).astype(np.float32))
    with traced_memory() as read:
        y = T.gelu(ps["x"])
        held, _ = read()
    assert y._backward is not None
    assert held - y.data.nbytes < y.data.nbytes / 8


def test_layer_norm_graph_holds_no_normalised_rows():
    ps = _param_set(x=CounterRng(69).normal_array((576, 96)).astype(np.float32),
                    g=np.ones(96, np.float32), b=np.zeros(96, np.float32))
    with traced_memory() as read:
        y = T.layer_norm(ps["x"], ps["g"], ps["b"])
        held, _ = read()
    assert y._backward is not None
    assert held - y.data.nbytes < y.data.nbytes / 8  # three float32 numbers per row


@pytest.mark.parametrize("images", [1, 2])
def test_attention_call_peak_stays_below_three_slices(images):
    # the pretrain-mid decoder block: one t x t slice in the forward, one E
    # tile and one dS tile in the backward, one image after the other; only
    # the per-call operands and adjoints, a dozen (rows, 48) buffers, grow
    # with the image count (at two images the bound is three slices)
    rows = images * 576
    ps = _qkv(64, rows, 48, dtype=np.float32)
    ps.zero_grads()  # the adjoints q, k and v accumulate into are not the transient
    w = T.Tensor(CounterRng(65).normal_array((rows, 48)), np.float32)
    with traced_memory() as read:
        T.sum_all(T.mul(w, T.attention(ps["q"], ps["k"], ps["v"], images, 6))).backward()
        _, peak = read()
    assert peak < 576 * 576 * 4 + 12 * rows * 48 * 4


@pytest.mark.parametrize("images", [1, 2])
def test_attention_workers_keep_the_callers_error_state(monkeypatch, images):
    # every long slice runs on the caller's thread: raw scores near 1e4
    # overflow exp in the last image only
    monkeypatch.setattr(T, "_EXP_SAFE", math.inf)
    t = 324
    last = (images - 1) * t
    ps = _qkv(66, images * t, 2, dtype=np.float32)
    ps["q"].data[last:] *= 100.0
    with np.errstate(over="raise"), pytest.raises(FloatingPointError):
        T.attention(ps["q"], ps["k"], ps["v"], images, 1)
    with warnings.catch_warnings(), np.errstate(over="ignore", invalid="ignore"):
        warnings.simplefilter("error")  # numpy's default state would warn
        y = T.attention(ps["q"], ps["k"], ps["v"], images, 1)
    assert np.isfinite(y.data[:last]).all() and not np.isfinite(y.data[last:]).all()


# ---------------------------------------------------------------- layer norm

def test_layer_norm_constant_row_is_zero():
    gain = T.Parameter(np.ones(4))
    bias = T.Parameter(np.zeros(4))
    out = T.layer_norm(T.Tensor([[3.0, 3.0, 3.0, 3.0]], np.float32), gain, bias, eps=1e-6)
    assert np.allclose(out.data, 0.0)


def test_layer_norm_already_normalized():
    gain = T.Parameter(np.ones(2))
    bias = T.Parameter(np.zeros(2))
    out = T.layer_norm(T.Tensor([[1.0, -1.0]], np.float32), gain, bias, eps=1e-12)
    assert np.allclose(out.data, [[1.0, -1.0]], atol=1e-5)


def test_layer_norm_zero_mean_property():
    x = CounterRng(5).normal_array((8, 16)).astype(np.float32) * 3
    gain = T.Parameter(np.ones(16, dtype=np.float32))
    bias = T.Parameter(np.zeros(16, dtype=np.float32))
    out = T.layer_norm(T.Tensor(x), gain, bias).data
    assert np.abs(out.mean(axis=-1)).max() <= 1e-5


def test_layer_norm_gradcheck():
    rng = CounterRng(6)
    ps = _param_set(x=rng.normal_array((3, 7)), g=1.0 + 0.1 * rng.normal_array(7),
                    b=0.1 * rng.normal_array(7))
    w = T.Tensor(rng.normal_array((3, 7)), np.float32)
    f = lambda: T.sum_all(T.mul(w, T.layer_norm(ps["x"], ps["g"], ps["b"], eps=1e-5)))
    assert grad_check(f, ps).max_relative_error <= 1e-3


def test_layer_norm_eps_must_be_positive():
    gain = T.Parameter(np.ones(2))
    bias = T.Parameter(np.zeros(2))
    with pytest.raises(ValueError):
        T.layer_norm(T.Tensor([[1.0, 2.0]], np.float32), gain, bias, eps=0.0)


@pytest.mark.parametrize("width", [8, 48, 96])
def test_layer_norm_float32_matches_float64_oracle(width):
    rng = CounterRng(70 + width)
    x = np.concatenate([
        2.0 * rng.child("x").normal_array((5, width)) + 0.5,
        np.full((1, width), 3.0),  # constant: var = 0, eps alone sets the scale
        1e4 + 1e-2 * rng.child("far").normal_array((3, width)),  # mean 1e6 times the spread
    ]).astype(np.float32)
    gain = (1.0 + 0.1 * rng.child("gain").normal_array(width)).astype(np.float32)
    bias = (0.1 * rng.child("bias").normal_array(width)).astype(np.float32)
    g = rng.child("g").normal_array(x.shape).astype(np.float32)
    ps = _param_set(x=x, gain=gain, bias=bias)
    y = T.layer_norm(ps["x"], ps["gain"], ps["bias"], eps=1e-6)
    y._backward(g)
    x64, gain64, g64 = x.astype(np.float64), gain.astype(np.float64), g.astype(np.float64)
    mu = x64.mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(((x64 - mu) ** 2).mean(axis=-1, keepdims=True) + 1e-6)
    xhat = (x64 - mu) * inv
    gh = g64 * gain64
    dx = inv * (gh - gh.mean(axis=-1, keepdims=True) - xhat * (gh * xhat).mean(axis=-1, keepdims=True))
    assert y.dtype == np.float32
    # row by row, so each kind of row is held to its own scale
    for got, want in ((y.data, xhat * gain64 + bias), (ps["x"].grad, dx)):
        assert (np.abs(got - want).max(axis=-1) <= 1e-6 * np.abs(want).max(axis=-1)).all()
    for got, want in ((ps["gain"].grad, (g64 * xhat).sum(axis=0)), (ps["bias"].grad, g64.sum(axis=0))):
        assert np.abs(got - want).max() <= 1e-6 * np.abs(want).max()


# ---------------------------------------------------------------- gelu

def test_gelu_zero():
    assert T.gelu(T.Tensor([0.0], np.float32)).data[0] == 0.0


def test_gelu_asymptote():
    x = np.array([20.0], dtype=np.float32)
    assert np.allclose(T.gelu(T.Tensor(x)).data, x, rtol=1e-6)


def test_gelu_float32_matches_float64_reference():
    # Left of -1.5, 1 + tanh(.) cancels and float32 tanh's own rounding
    # dominates the relative error; the cube is not the limit there.
    x = np.linspace(-1.5, 6.0, 4001).astype(np.float32)
    got = T.gelu(T.Tensor(x)).data
    assert got.dtype == np.float32
    x64 = x.astype(np.float64)
    ref = 0.5 * x64 * (1.0 + np.tanh(np.sqrt(2.0 / np.pi) * (x64 + 0.044715 * x64 ** 3)))
    rel = np.abs(got - ref) / np.maximum(np.abs(ref), np.finfo(np.float64).tiny)
    assert rel.max() <= 1e-6


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_gelu_in_place_bits_match_formula(dtype):
    x = np.concatenate([np.linspace(-12.0, 12.0, 4001),
                        [-1e30, -1e4, -30.0, -10.5, -0.0, 0.0, 1e-30, 10.5, 30.0, 1e4, 1e30]]).astype(dtype)
    g = CounterRng(71).normal_array(x.shape).astype(dtype)
    xt = T.Tensor(x, requires_grad=True)  # no zeroed gradient slot: it adopts the adjoint, -0 and all
    c, a = math.sqrt(2.0 / math.pi), 0.044715
    with np.errstate(over="ignore", invalid="ignore"):  # float32 x³ overflows at 1e30, and 0 * inf follows
        y = T.gelu(xt)
        y._backward(g)
        t = np.tanh(c * (x + a * (x * x * x)))
        want_y = 0.5 * x * (1.0 + t)
        sech2 = 1.0 - t * t
        dinner = c * (1.0 + 3.0 * a * x * x)
        want_dx = g * (0.5 * (1.0 + t) + 0.5 * x * sech2 * dinner)
    assert y.data.tobytes() == want_y.tobytes()
    assert xt.grad.tobytes() == want_dx.tobytes()


@pytest.mark.parametrize("x0", [-2.0, -0.5, 0.5, 2.0])
def test_gelu_gradcheck_at_points(x0):
    ps = _param_set(x=np.array([x0]))
    assert grad_check(lambda: T.sum_all(T.gelu(ps["x"])), ps).max_relative_error <= 1e-3


# ---------------------------------------------------------------- structure ops

def test_reshape_transpose_roundtrip_exact():
    x = CounterRng(7).normal_array((3, 4, 5)).astype(np.float32)
    t = T.Tensor(x)
    assert np.array_equal(T.reshape(T.reshape(t, (60,)), (3, 4, 5)).data, x)


def test_reshape_rejects_bad_size():
    with pytest.raises(ShapeError):
        T.reshape(T.Tensor(np.zeros((2, 3)), np.float32), (7,))


def test_gather_scatter_adjoint():
    ps = _param_set(x=CounterRng(8).normal_array((6, 3)))
    idx = np.array([0, 2, 2, 5])
    w = T.Tensor(CounterRng(9).normal_array((4, 3)), np.float32)
    f = lambda: T.sum_all(T.mul(w, T.gather_rows(ps["x"], idx)))
    assert grad_check(f, ps).max_relative_error <= 1e-3


@pytest.mark.parametrize("idx", [[4, 0, 5, 2, 1, 3], [5, 1, 2], [0, 2, 2, 5, 2], []])
def test_gather_rows_backward_matches_scatter_add_oracle(idx):
    # unique indices take the assignment path, duplicates np.add.at
    x = T.Parameter(CounterRng(11).normal_array((6, 3)))
    g = CounterRng(12).normal_array((len(idx), 3))
    T.sum_all(T.mul(T.Tensor(g), T.gather_rows(x, idx))).backward()
    oracle = np.zeros((6, 3))
    np.add.at(oracle, np.asarray(idx, np.int64), g)
    assert np.array_equal(x.grad, oracle)


def test_gather_rows_out_of_range():
    with pytest.raises(ShapeError):
        T.gather_rows(T.Tensor(np.zeros((3, 2)), np.float32), [3])


def test_concat_tile_mean_rows_gradcheck():
    rng = CounterRng(10)
    ps = _param_set(a=rng.normal_array((2, 4)), v=rng.normal_array(4))
    w = T.Tensor(rng.normal_array((5, 4)), np.float32)

    def f():
        stacked = T.concat_rows([ps["a"], T.tile_rows(ps["v"], 3)])
        return T.add(T.sum_all(T.mul(w, stacked)), T.sum_all(T.mean_rows(stacked)))

    assert grad_check(f, ps).max_relative_error <= 1e-3


def test_elementwise_ops_no_silent_broadcast():
    a = T.Tensor(np.zeros((2, 3)), np.float32)
    b = T.Tensor(np.zeros(3), np.float32)
    for op in (T.add, T.sub, T.mul):
        with pytest.raises(ShapeError):
            op(a, b)


def test_abs_logsigmoid_gradcheck():
    ps = _param_set(x=np.array([-2.0, -0.3, 0.4, 1.7]))
    f = lambda: T.add(T.sum_all(T.abs_val(ps["x"])), T.sum_all(T.logsigmoid(ps["x"])))
    assert grad_check(f, ps).max_relative_error <= 1e-3


def test_logsigmoid_stable_at_extremes():
    out = T.logsigmoid(T.Tensor([-500.0, 0.0, 500.0], np.float32)).data
    assert np.all(np.isfinite(out))
    assert abs(out[1] + np.log(2.0)) < 1e-6


def test_log_softmax_gradcheck_and_values():
    ps = _param_set(x=CounterRng(12).normal_array((3, 4)))
    w = T.Tensor(CounterRng(13).normal_array((3, 4)), np.float32)
    f = lambda: T.sum_all(T.mul(w, T.log_softmax_lastaxis(ps["x"])))
    assert grad_check(f, ps).max_relative_error <= 1e-3
    logp = T.log_softmax_lastaxis(T.Tensor([[1000.0, 0.0]], np.float32)).data
    assert np.all(np.isfinite(logp))


# ---------------------------------------------------------------- engine behavior

def test_reused_node_accumulates_both_paths():
    ps = _param_set(x=np.array([3.0]))
    y = T.mul(ps["x"], ps["x"])  # x used twice -> d/dx = 2x
    ps.zero_grads()
    T.sum_all(y).backward()
    assert np.allclose(ps["x"].grad, [6.0])


# An interior node adopts the first adjoint an op allocates for it; these
# shapes reach one node twice, through owned and pass-through adjoints.
# nested_add fails if a pass-through adjoint is adopted: the outer add
# hands one buffer to both h and the inner add, and h's next += would
# then change the adjoint the inner add passes on.
@pytest.mark.parametrize("combine", [
    lambda h, w: T.mul(h, h),
    lambda h, w: T.add(h, h),
    lambda h, w: T.add(T.gelu(h), T.mul(h, w)),
    lambda h, w: T.add(h, T.reshape(T.mul(w, h), h.shape)),
    lambda h, w: T.mul(T.gelu(h), T.add(h, w)),
    lambda h, w: T.add(T.add(h, T.gelu(h)), h),
], ids=["mul_self", "add_self", "two_ops", "pass_through_then_owned", "gelu_and_add",
        "nested_add"])
def test_shared_interior_node_gradcheck(combine):
    rng = CounterRng(44)
    ps = _param_set(x=rng.normal_array((3, 4)), m=rng.normal_array((4, 4)))
    w = T.Tensor(rng.normal_array((3, 4)), np.float32)

    def f():
        h = T.matmul(ps["x"], ps["m"])  # interior: no adjoint until backward
        return T.sum_all(T.mul(w, combine(h, w)))

    assert grad_check(f, ps).max_relative_error <= 1e-3


def test_backward_requires_scalar():
    with pytest.raises(ShapeError):
        T.Tensor([1.0, 2.0], np.float32).backward()


def test_grad_accumulates_across_backwards():
    ps = _param_set(x=np.array([2.0]))
    ps.zero_grads()
    T.sum_all(T.mul(ps["x"], ps["x"])).backward()
    T.sum_all(T.mul(ps["x"], ps["x"])).backward()
    assert np.allclose(ps["x"].grad, [8.0])  # 2 * (2x)


def test_backward_frees_activations_while_the_loss_is_held():
    ps = _param_set(w=CounterRng(45).normal_array((4, 3)))
    x = T.Tensor(CounterRng(46).normal_array((5, 4)), np.float32)
    h = T.gelu(T.matmul(x, ps["w"]))
    loss = T.sum_all(T.mul(h, h))
    activation = weakref.ref(h.data)  # Tensor has __slots__; its array takes a weakref
    del h
    ps.zero_grads()
    loss.backward()
    assert activation() is None
    assert loss.item() > 0.0  # the loss keeps its value


def test_second_backward_through_one_graph_raises():
    ps = _param_set(x=np.array([2.0]))
    ps.zero_grads()
    loss = T.mul(ps["x"], ps["x"])
    loss.backward()
    with pytest.raises(ConsumedGraphError, match="consumed graph"):
        loss.backward()
    assert ps["x"].grad.tolist() == [4.0]  # not 12: the root's adjoint did not move


def test_new_graph_on_a_consumed_node_raises_and_leaves_stay_usable():
    ps = _param_set(x=np.array([2.0]))
    ps.zero_grads()
    h = T.mul(ps["x"], ps["x"])
    T.sum_all(h).backward()
    reuse = T.add(T.scale(h, 3.0), T.mul(ps["x"], ps["x"]))  # forward through h still works
    assert reuse.data.tolist() == [16.0]
    with pytest.raises(ConsumedGraphError):
        reuse.backward()
    assert ps["x"].grad.tolist() == [4.0]  # the failed sweep ran no closure
    T.sum_all(T.mul(ps["x"], ps["x"])).backward()
    assert ps["x"].grad.tolist() == [8.0]


def test_mean_all_float64_accumulation():
    # 1e7-ish magnitudes: naive float32 running sums would lose the mean
    x = np.full(4096, 1.0e4, dtype=np.float32)
    x[::2] += 1.0
    assert abs(T.mean_all(T.Tensor(x)).item() - float(x.mean(dtype=np.float64))) < 1e-2


def test_determinism_bitwise():
    rng = CounterRng(20)
    a = rng.normal_array((16, 16)).astype(np.float32)
    b = rng.normal_array((16, 16)).astype(np.float32)

    def run():
        t = T.matmul(T.Tensor(a), T.Tensor(b))
        return T.gelu(T.log_softmax_lastaxis(t)).data.tobytes()

    assert run() == run()


# ---------------------------------------------------------------- grad_check itself

def test_grad_check_simple_square():
    ps = _param_set(w=np.array([3.0]))
    result = grad_check(lambda: T.sum_all(T.mul(ps["w"], ps["w"])), ps)
    assert result.max_relative_error < 1e-6  # analytic 6 vs numeric 6


def test_grad_check_detects_broken_backward(monkeypatch):
    ps = _param_set(w=np.array([1.5]))

    def broken_gelu(a):
        out = T.gelu(a)
        orig = out._backward
        out._backward = lambda g: orig(g * 2.0)  # wrong by a factor of 2
        return out

    result = grad_check(lambda: T.sum_all(broken_gelu(ps["w"])), ps)
    assert result.max_relative_error > 0.1


def test_grad_check_eps_range_enforced():
    ps = _param_set(w=np.array([1.0]))
    with pytest.raises(ValueError):
        grad_check(lambda: T.sum_all(ps["w"]), ps, eps=0.5)


def test_grad_check_nonfinite_rejected():
    ps = _param_set(w=np.array([np.inf]))
    from spectralmae.errors import EvaluationError
    with pytest.raises(EvaluationError):
        grad_check(lambda: T.sum_all(ps["w"]), ps)
