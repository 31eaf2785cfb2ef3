import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spectralmae.errors import ShapeError, TokenizationError
from spectralmae.model import GridDims, ModelConfig, SpectralCubeAutoencoder
from spectralmae.objective import spectral_loss
from spectralmae.rng import CounterRng
from spectralmae.tensor import Tensor
from spectralmae.tokenizer import (TARGET_MODES, SpectralImage, build_mask, invert_targets,
                                   make_targets, patchify, unpatchify)


def _random_image(h, w, d, seed=0):
    vals = CounterRng(seed).uniform_array((h, w, d)).astype(np.float32)
    return SpectralImage(vals, [f"B{i + 1}" for i in range(d)])


def _patchify_oracle(values, p, k):
    """Loop-based re-indexing oracle: token (r,c,s), element (i,j,b)."""
    h, w, d = values.shape
    gh, gw, gs = h // p, w // p, d // k
    out = np.zeros((gh * gw * gs, p * p * k), dtype=values.dtype)
    for r in range(gh):
        for c in range(gw):
            for s in range(gs):
                t = (r * gw + c) * gs + s
                for i in range(p):
                    for j in range(p):
                        for b in range(k):
                            out[t, (i * p + j) * k + b] = values[r * p + i, c * p + j, s * k + b]
    return out


def test_patchify_paper_geometry():
    grid = patchify(_random_image(96, 96, 12), p=8, k=3)
    assert grid.n_tokens == 576 and grid.token_len == 192
    assert (grid.gh, grid.gw, grid.gs) == (12, 12, 4)


def test_patchify_single_token_is_flat_image():
    img = _random_image(8, 8, 3)
    grid = patchify(img, 8, 3)
    assert grid.n_tokens == 1
    assert np.array_equal(grid.tokens[0], img.values.reshape(-1))


def test_patchify_matches_loop_oracle_and_roundtrips():
    img = _random_image(16, 16, 6, seed=3)
    grid = patchify(img, 8, 3)
    assert grid.n_tokens == 8
    assert np.array_equal(grid.tokens, _patchify_oracle(img.values, 8, 3))
    back = unpatchify(grid)
    assert np.array_equal(back.values, img.values)
    assert back.band_names == img.band_names


def test_patchify_indivisible_errors_name_geometry():
    with pytest.raises(TokenizationError) as exc:
        patchify(_random_image(10, 16, 6), 8, 3)
    msg = str(exc.value)
    assert "10" in msg and "p=8" in msg and "k=3" in msg


@settings(max_examples=40, deadline=None)
@given(gh=st.integers(1, 3), gw=st.integers(1, 3), gs=st.integers(1, 3),
       p=st.integers(1, 5), k=st.integers(1, 4), seed=st.integers(0, 10_000))
def test_roundtrip_property(gh, gw, gs, p, k, seed):
    img = _random_image(gh * p, gw * p, gs * k, seed=seed)
    assert np.array_equal(unpatchify(patchify(img, p, k)).values, img.values)


# ---------------------------------------------------------------- masks

def test_mask_cardinality_forced_by_floor():
    plan = build_mask(576, 0.90, CounterRng(0))
    assert plan.m == 518 and plan.n_visible == 58


def test_mask_ratio_zero():
    plan = build_mask(10, 0.0, CounterRng(0))
    assert plan.m == 0 and plan.n_visible == 10
    assert np.array_equal(plan.visible, np.arange(10))


def test_mask_determinism():
    a = build_mask(576, 0.9, CounterRng(1234))
    b = build_mask(576, 0.9, CounterRng(1234))
    assert np.array_equal(a.masked, b.masked)
    assert np.array_equal(a.visible, b.visible)


def test_mask_partition_and_sorted():
    for seed in range(20):
        plan = build_mask(64, 0.75, CounterRng(seed))
        merged = np.concatenate([plan.masked, plan.visible])
        assert sorted(merged.tolist()) == list(range(64))
        assert np.all(np.diff(plan.masked) > 0)
        assert np.all(np.diff(plan.visible) > 0)


def test_mask_ratio_range():
    with pytest.raises(ValueError):
        build_mask(10, 1.0, CounterRng(0))


def test_mask_uniformity_three_sigma():
    n, ratio, draws = 20, 0.5, 10_000
    counts = np.zeros(n)
    root = CounterRng(2024)
    for i in range(draws):
        counts[build_mask(n, ratio, root.child(i)).masked] += 1
    sigma = np.sqrt(draws * ratio * (1 - ratio))
    assert np.abs(counts - draws * ratio).max() <= 3 * sigma


# ---------------------------------------------------------------- visible split

def test_split_visible_ordering():
    # the encoder takes grid.tokens[plan.visible]: ascending, disjoint from the masked set
    grid = patchify(_random_image(32, 32, 3, seed=9), 8, 3)  # 16 tokens
    plan = build_mask(grid.n_tokens, 0.5, CounterRng(3))
    assert np.all(np.diff(plan.visible) > 0) and np.all(np.diff(plan.masked) > 0)
    assert np.array_equal(np.sort(np.concatenate([plan.visible, plan.masked])),
                          np.arange(grid.n_tokens))


def test_split_visible_all_tokens_when_ratio_zero():
    grid = patchify(_random_image(16, 16, 3, seed=1), 8, 3)
    plan = build_mask(grid.n_tokens, 0.0, CounterRng(5))
    assert plan.m == 0
    assert np.array_equal(grid.tokens[plan.visible], grid.tokens)


def test_split_visible_scatter_back_reproduces_grid():
    grid = patchify(_random_image(24, 16, 6, seed=2), 8, 3)
    plan = build_mask(grid.n_tokens, 0.6, CounterRng(7))
    rebuilt = np.zeros_like(grid.tokens)
    rebuilt[plan.visible] = grid.tokens[plan.visible]
    rebuilt[plan.masked] = grid.tokens[plan.masked]
    assert np.array_equal(rebuilt, grid.tokens)


def test_split_visible_size_mismatch():
    # a plan sized for another grid is refused where the visible rows are consumed
    grid = patchify(_random_image(16, 16, 3, seed=1), 8, 3)
    model = SpectralCubeAutoencoder(ModelConfig.tiny(max_grid=(2, 2, 1)), CounterRng(0))
    with pytest.raises(ShapeError):
        model.encode(grid.tokens, build_mask(99, 0.5, CounterRng(0)),
                     GridDims(grid.gh, grid.gw, grid.gs))


# ---------------------------------------------------------------- targets

def test_targets_raw_bit_identical():
    grid = patchify(_random_image(16, 16, 6, seed=4), 8, 3)
    targets, _ = make_targets(grid, "raw")
    assert np.array_equal(targets, grid.tokens)


def test_targets_constant_token_normalizes_to_zero():
    img = SpectralImage(np.full((8, 8, 3), 2.5, np.float32), ["B1", "B2", "B3"])
    targets, stats = make_targets(patchify(img, 8, 3), "per_token_normalized")
    assert np.allclose(targets, 0.0)
    assert stats.std[0] == 0.0


def test_targets_hand_computed_two_element_token():
    # u = 2, sigma = 1 (population) => targets (-1, 1) as eps -> 0
    img = SpectralImage(np.array([[[1.0, 3.0]]], np.float32), ["B1", "B2"])
    grid = patchify(img, 1, 2)
    targets, stats = make_targets(grid, "per_token_normalized", eps=1e-12)
    assert np.allclose(targets, [[-1.0, 1.0]], atol=1e-5)
    assert stats.mean[0] == 2.0 and stats.std[0] == 1.0


def test_targets_normalized_moments_property():
    grid = patchify(_random_image(32, 32, 6, seed=6), 8, 3)
    targets, stats = make_targets(grid, "per_token_normalized")
    assert np.abs(targets.mean(axis=1)).max() <= 1e-5
    big = stats.std > 1e-3  # sigma >> eps
    assert np.abs(targets[big].std(axis=1) - 1.0).max() <= 1e-3


def test_targets_standardized_equals_standardize_then_patchify():
    img = _random_image(16, 16, 6, seed=8)
    mean = img.values.reshape(-1, 6).mean(axis=0)
    std = img.values.reshape(-1, 6).std(axis=0)
    grid = patchify(img, 8, 3)
    targets, _ = make_targets(grid, "standardized", eps=1e-6, band_mean=mean, band_std=std)
    pre = SpectralImage((img.values - mean) / (std + 1e-6), img.band_names)
    assert np.allclose(targets, patchify(pre, 8, 3).tokens, atol=1e-6)


def test_targets_standardized_requires_stats():
    grid = patchify(_random_image(16, 16, 6), 8, 3)
    with pytest.raises(ValueError):
        make_targets(grid, "standardized")


def test_targets_unknown_mode():
    grid = patchify(_random_image(16, 16, 6), 8, 3)
    with pytest.raises(ValueError):
        make_targets(grid, "minmax")


# ---------------------------------------------------------------- spectral rows

def _spectral_oracle(grid, targets):
    out = np.zeros((grid.n_sites, grid.gs * grid.token_len), dtype=targets.dtype)
    for r in range(grid.gh):
        for c in range(grid.gw):
            site = r * grid.gw + c
            for s in range(grid.gs):
                t = site * grid.gs + s
                out[site, s * grid.token_len:(s + 1) * grid.token_len] = targets[t]
    return out


def _oracle_spectral_mse(grid, recon, targets):
    """MSE over per-site rows built by the loop oracle."""
    return float(np.mean((_spectral_oracle(grid, recon).astype(np.float64)
                          - _spectral_oracle(grid, targets)) ** 2))


def test_spectral_site_targets_paper_arithmetic():
    # 96x96x12 at p=8, k=3: 144 sites, rows of 4 groups x 192 = 768 values
    grid = patchify(_random_image(96, 96, 12, seed=10), 8, 3)
    assert _spectral_oracle(grid, grid.tokens).shape == (144, 768)
    recon = grid.tokens.copy()
    recon[0:4] += 1.0  # every token of site 0: one whole row off by one
    loss = float(spectral_loss(Tensor(recon), grid.tokens, grid).data)
    assert loss == pytest.approx(768 / (144 * 768), rel=1e-5)


def test_spectral_site_targets_gs1_degenerate():
    grid = patchify(_random_image(16, 16, 3, seed=11), 8, 3)
    assert np.array_equal(_spectral_oracle(grid, grid.tokens), grid.tokens)
    recon = CounterRng(1).uniform_array(grid.tokens.shape).astype(np.float32)
    loss = float(spectral_loss(Tensor(recon), grid.tokens, grid).data)
    assert loss == pytest.approx(_oracle_spectral_mse(grid, recon, grid.tokens), rel=1e-5)


def test_spectral_site_targets_matches_gather_oracle():
    grid = patchify(_random_image(16, 16, 6, seed=12), 8, 3)
    targets, _ = make_targets(grid, "per_token_normalized")
    recon = CounterRng(2).normal_array(targets.shape).astype(np.float32)
    loss = float(spectral_loss(Tensor(recon), targets, grid).data)
    assert loss == pytest.approx(_oracle_spectral_mse(grid, recon, targets), rel=1e-5)


def test_spectral_site_targets_preserves_multiset():
    # the per-site rows hold every token value exactly once
    grid = patchify(_random_image(24, 24, 6, seed=13), 8, 3)
    rows = _spectral_oracle(grid, grid.tokens)
    assert np.array_equal(np.sort(rows.reshape(-1)), np.sort(grid.tokens.reshape(-1)))
    zeros = np.zeros_like(grid.tokens)
    loss = float(spectral_loss(Tensor(zeros), grid.tokens, grid).data)
    assert loss == pytest.approx(float(np.mean(rows.astype(np.float64) ** 2)), rel=1e-5)


# ---------------------------------------------------------------- target inversion

@pytest.mark.parametrize("mode", TARGET_MODES)
def test_invert_targets_round_trip(mode):
    grid = patchify(_random_image(16, 16, 6, seed=14), 8, 3)
    band_stats = (np.linspace(0.3, 0.6, 6), np.linspace(0.1, 0.2, 6))
    targets, stats = make_targets(grid, mode, band_mean=band_stats[0],
                                  band_std=band_stats[1])
    pixels = invert_targets(targets, grid, mode, stats, band_stats)
    assert pixels.dtype == np.float32
    assert np.allclose(pixels, grid.tokens, atol=1e-5)
