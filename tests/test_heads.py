import numpy as np
import pytest

from spectralmae import tensor as T
from spectralmae.errors import DataError, ShapeError
from spectralmae.gradcheck import grad_check
from spectralmae.heads import (ChangeHead, ClassifierHead, SegmentationHead, _neighbor_indices,
                               _upsample2_indices, combine_params, conv3x3, cross_entropy,
                               multilabel_soft_margin, nll_from_log_probs)
from spectralmae.model import ModelConfig, SpectralCubeAutoencoder
from spectralmae.rng import CounterRng


# ---------------------------------------------------------------- losses

def test_cross_entropy_uniform_logits():
    logits = T.Tensor(np.zeros((2, 4), np.float32))
    assert cross_entropy(logits, [0, 3]).item() == pytest.approx(np.log(4.0), rel=1e-6)


def test_cross_entropy_label_range():
    with pytest.raises(DataError):
        cross_entropy(T.Tensor(np.zeros((1, 3), np.float32)), [3])


def test_soft_margin_zero_logit_is_ln2():
    loss = multilabel_soft_margin(T.Tensor(np.zeros((2, 3), np.float32)),
                                  np.array([[0, 1, 0], [1, 1, 0]]))
    assert loss.item() == pytest.approx(np.log(2.0), rel=1e-6)


def test_soft_margin_saturated_positive():
    loss = multilabel_soft_margin(T.Tensor(np.full((1, 1), 20.0, np.float32)),
                                  np.array([[1]]))
    assert loss.item() == pytest.approx(0.0, abs=1e-6)


def test_soft_margin_matches_formula_oracle():
    rng = CounterRng(0)
    logits = rng.normal_array((2, 3))
    labels = np.array([[1, 0, 1], [0, 1, 0]])
    got = multilabel_soft_margin(T.Tensor(logits), labels).item()

    def sigma(x):
        return 1.0 / (1.0 + np.exp(-x))

    want = -(labels * np.log(sigma(logits)) +
             (1 - labels) * np.log(sigma(-logits))).mean()
    assert abs(got - want) <= 1e-6


def test_soft_margin_rejects_nonbinary():
    with pytest.raises(DataError):
        multilabel_soft_margin(T.Tensor(np.zeros((1, 2), np.float32)),
                               np.array([[0.5, 1.0]]))


def test_nll_from_log_probs_picks_labels():
    logp = T.Tensor(np.log(np.array([[0.25, 0.75], [0.5, 0.5]], np.float32)))
    loss = nll_from_log_probs(logp, [1, 0])
    assert loss.item() == pytest.approx(-(np.log(0.75) + np.log(0.5)) / 2, rel=1e-6)


# ---------------------------------------------------------------- classifier

def test_classifier_logits_shape_and_grad():
    head = ClassifierHead(8, 16, 3, CounterRng(1), dtype=np.float64)
    latents = T.Tensor(CounterRng(2).normal_array((5, 8)))
    logits = head.forward(latents)
    assert logits.shape == (1, 3)
    f = lambda: cross_entropy(head.forward(latents), [2])
    assert grad_check(f, head.params).max_relative_error <= 1e-3


# ---------------------------------------------------------------- convolution

def _conv_oracle(x, h, w, weight, bias):
    """Direct zero-padded 3x3 convolution, nested loops."""
    c = x.shape[1]
    cout = weight.shape[1]
    grid = x.reshape(h, w, c)
    out = np.zeros((h, w, cout))
    for y in range(h):
        for xx in range(w):
            patch = np.zeros(9 * c)
            pos = 0
            for dy in (-1, 0, 1):
                for dx in (-1, 0, 1):
                    ny, nx = y + dy, xx + dx
                    if 0 <= ny < h and 0 <= nx < w:
                        patch[pos:pos + c] = grid[ny, nx]
                    pos += c
            out[y, xx] = patch @ weight + bias
    return out.reshape(h * w, cout)


def test_conv3x3_matches_loop_oracle():
    rng = CounterRng(3)
    h, w, c, cout = 4, 5, 3, 2
    x = rng.normal_array((h * w, c))
    weight = rng.normal_array((9 * c, cout))
    bias = rng.normal_array(cout)
    got = conv3x3(T.Tensor(x), h, w, T.Tensor(weight), T.Tensor(bias)).data
    assert np.allclose(got, _conv_oracle(x, h, w, weight, bias), atol=1e-10)


@pytest.mark.parametrize("h,w", [(8, 8), (16, 16), (3, 5)])
def test_head_gather_backward_float32_matches_float64_scatter_add(h, w):
    # conv3x3 neighbours (9-fold duplicates, row h*w is the zero pad) and the x2 upsample
    c = 6
    for rows, idx in ((h * w + 1, _neighbor_indices(h, w)), (h * w, _upsample2_indices(h, w))):
        x = T.Parameter(np.zeros((rows, c), np.float32))
        g = (CounterRng(7).child(h, w).normal_array((idx.size, c)) * 3).astype(np.float32)
        T.sum_all(T.mul(T.Tensor(g), T.gather_rows(x, idx))).backward()
        oracle = np.zeros((rows, c))
        np.add.at(oracle, idx, g.astype(np.float64))
        assert x.grad.dtype == np.float32
        assert np.all(np.abs(x.grad - oracle) <= 1e-6 * np.abs(oracle))


# ---------------------------------------------------------------- segmentation head

def test_segmentation_head_output_covers_pixels():
    head = SegmentationHead(d=16, gs=2, p=8, classes=5, rng=CounterRng(4))
    latents = T.Tensor(CounterRng(5).normal_array((4 * 4 * 2, 16)).astype(np.float32))
    logits = head.forward(latents, (32, 32))
    assert logits.shape == (32 * 32, 5)


def test_segmentation_head_exact_when_p4():
    head = SegmentationHead(d=8, gs=1, p=4, classes=3, rng=CounterRng(6))
    latents = T.Tensor(CounterRng(7).normal_array((16, 8)).astype(np.float32))
    logits = head.forward(latents, (16, 16))
    assert logits.shape == (256, 3)


def test_segmentation_head_gradcheck():
    head = SegmentationHead(d=4, gs=2, p=4, classes=3, rng=CounterRng(8), dtype=np.float64)
    latents = T.Tensor(CounterRng(9).normal_array((2 * 2 * 2, 4)))
    labels = np.array([CounterRng(10).randbelow(3) for _ in range(64)])
    f = lambda: cross_entropy(head.forward(latents, (8, 8)), labels)
    assert grad_check(f, head.params).max_relative_error <= 1e-3


def test_segmentation_head_grid_mismatch():
    head = SegmentationHead(d=8, gs=2, p=8, classes=3, rng=CounterRng(11))
    latents = T.Tensor(np.zeros((16, 8), np.float32))
    with pytest.raises(ShapeError):
        head.forward(latents, (32, 32))
    with pytest.raises(ShapeError):  # 20 rows are not whole 8-pixel sites
        head.forward(T.Tensor(np.zeros((32, 8), np.float32)), (20, 64))


# ---------------------------------------------------------------- change head

def test_change_head_identical_inputs_uniform_logits():
    head = ChangeHead(d=8, gs=2, p=4, rng=CounterRng(12))
    latents = T.Tensor(CounterRng(13).normal_array((4 * 4 * 2, 8)).astype(np.float32))
    logp = head.forward(latents, latents, (16, 16)).data
    # zero feature map -> every pixel sees the same bias path
    assert np.allclose(logp, logp[0], atol=1e-6)
    assert np.allclose(np.exp(logp).sum(axis=1), 1.0, atol=1e-6)


def test_change_head_symmetry_under_swap():
    head = ChangeHead(d=8, gs=2, p=4, rng=CounterRng(14))
    rng = CounterRng(15)
    a = T.Tensor(rng.normal_array((4 * 4 * 2, 8)).astype(np.float32))
    b = T.Tensor(rng.normal_array((4 * 4 * 2, 8)).astype(np.float32))
    ab = head.forward(a, b, (16, 16)).data
    ba = head.forward(b, a, (16, 16)).data
    assert np.array_equal(ab, ba)


def test_change_head_gradcheck():
    # |fuse(a) - fuse(b)| has a kink at 0 that central differences cannot
    # probe, and here one difference (2.8e-4) lies within the reach of a
    # 1e-3 step in a fuse weight. So the check runs with each difference's
    # sign frozen at (a, b), which is smooth; the abs path must give the
    # same loss and gradients at (a, b).
    head = ChangeHead(d=4, gs=2, p=4, rng=CounterRng(18), dtype=np.float64)
    rng = CounterRng(19)
    a = T.Tensor(rng.normal_array((2 * 2 * 2, 4)))
    b = T.Tensor(rng.normal_array((2 * 2 * 2, 4)))
    labels = np.array([rng.randbelow(2) for _ in range(64)])
    sign = T.Tensor(np.sign(head.fuse(a, (8, 8)).data - head.fuse(b, (8, 8)).data))
    assert (sign.data != 0).all()

    def frozen():
        diff = T.mul(sign, T.sub(head.fuse(a, (8, 8)), head.fuse(b, (8, 8))))
        return nll_from_log_probs(T.log_softmax_lastaxis(head.decode(diff, (8, 8))), labels)

    assert grad_check(frozen, head.params).max_relative_error <= 1e-3
    runs = []
    for f in (frozen, lambda: nll_from_log_probs(head.forward(a, b, (8, 8)), labels)):
        head.params.zero_grads()
        loss = f()
        loss.backward()
        runs.append([loss.data] + [p.grad.copy() for _, p in head.params.items()])
    for got, want in zip(*runs):
        assert np.array_equal(got, want)


def test_combine_params_rejects_duplicates():
    a = ClassifierHead(4, 8, 2, CounterRng(20))
    with pytest.raises(ValueError):
        combine_params(a.params, a.params)
    model = SpectralCubeAutoencoder(ModelConfig.tiny(), CounterRng(21))  # as eval combines them
    merged = combine_params(model.parameters(), a.params)
    assert len(merged) == len(model.parameters()) + len(a.params)
