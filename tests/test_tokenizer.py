import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spectralmae.errors import ConfigError, ShapeError, TokenizationError
from spectralmae.model import ModelConfig, SpectralCubeAutoencoder
from spectralmae.objective import spectral_loss
from spectralmae.rng import CounterRng
from spectralmae.tensor import Tensor
from spectralmae.tokenizer import (EPS, TARGET_MODES, MaskPlan, SpectralImage, TokenGrid,
                                   build_group_mask, build_mask, invert_targets, make_targets,
                                   patchify, patchify_group, unpatchify)


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


# ---------------------------------------------------------------- group data path

@pytest.mark.parametrize("mode", TARGET_MODES)
def test_group_tokens_and_targets_equal_per_image_bytes(mode):
    images = [_random_image(16, 24, 6, seed=40 + i) for i in range(3)]
    band_stats = (np.linspace(0.2, 0.7, 6), np.linspace(0.1, 0.3, 6))
    grid = patchify_group(images, 8, 3)
    # one image's geometry, three images' rows; unpatchify gives back the stack
    assert grid.images == 3 and (grid.gh, grid.gw, grid.gs) == (2, 3, 2)
    assert len(grid.tokens) == grid.images * grid.n_tokens == 3 * 12
    stack = unpatchify(grid).values
    assert stack.shape == (3 * 16, 24, 6)
    assert stack.tobytes() == np.concatenate([img.values for img in images]).tobytes()
    singles = [patchify(img, 8, 3) for img in images]
    tokens = np.concatenate([g.tokens for g in singles])
    assert grid.tokens.dtype == tokens.dtype and grid.tokens.tobytes() == tokens.tobytes()
    targets = make_targets(grid, mode, band_stats)
    want = np.concatenate([make_targets(g, mode, band_stats) for g in singles])
    assert targets.dtype == want.dtype and targets.tobytes() == want.tobytes()
    # the inverse's moments too: per row, so the group's are the images' stacked
    recon = CounterRng(45).normal_array(targets.shape).astype(np.float32)
    rows = np.split(recon, len(images))
    pixels = invert_targets(recon, grid, mode, band_stats)
    want = np.concatenate([invert_targets(r, g, mode, band_stats) for r, g in zip(rows, singles)])
    assert pixels.tobytes() == want.tobytes()


def test_group_of_one_image_is_its_own_patchify():
    img = _random_image(16, 16, 6, seed=44)
    assert patchify_group([img], 8, 3).tokens.tobytes() == patchify(img, 8, 3).tokens.tobytes()


def test_group_patchify_checks_each_image_not_the_stack():
    # two 4-row images stack to 8 rows, which p=8 divides; one image does not
    with pytest.raises(TokenizationError, match="4x16x6"):
        patchify_group([_random_image(4, 16, 6), _random_image(4, 16, 6, seed=1)], 8, 3)


@pytest.mark.parametrize("n", [1, 2, 8, 576])
@pytest.mark.parametrize("ratio", [0.0, 0.5, 0.9])
def test_group_mask_equals_per_slot_masks_offset(n, ratio):
    root = CounterRng(77).child(n, repr(ratio))
    for slots in range(1, 17):
        # slots start at different counters, as a reused stream would
        rngs = [root.child(slots, i) for i in range(slots)]
        twins = [root.child(slots, i) for i in range(slots)]
        for i, (r, t) in enumerate(zip(rngs, twins)):
            r.next_u64_array(i)
            t.next_u64_array(i)
        plan = build_group_mask(n, ratio, rngs)
        singles = [build_mask(n, ratio, t) for t in twins]
        masked = np.concatenate([p.masked + i * n for i, p in enumerate(singles)])
        visible = np.concatenate([p.visible + i * n for i, p in enumerate(singles)])
        assert plan.masked.dtype == masked.dtype and plan.masked.tobytes() == masked.tobytes()
        assert plan.visible.dtype == visible.dtype and plan.visible.tobytes() == visible.tobytes()
        assert (plan.ratio, plan.total) == (ratio, n * slots)
        assert [r.state() for r in rngs] == [t.state() for t in twins]


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


def test_group_plan_rejects_mixed_grids_and_unequal_visible_counts():
    model = SpectralCubeAutoencoder(ModelConfig.tiny(max_grid=(2, 2, 2)), CounterRng(0))
    # a group's images (8 and 16 tokens here) are refused where they are stacked
    with pytest.raises(ShapeError):
        patchify_group([_random_image(16, 16, 6), _random_image(32, 16, 6)], 8, 3)
    # two 8-token images, one with 4 visible tokens and one with 6
    uneven = MaskPlan(0.5, np.array([0, 1, 2, 3, 8, 9]),
                      np.array([4, 5, 6, 7, 10, 11, 12, 13, 14, 15]), 16)
    grid = patchify_group([_random_image(16, 16, 6), _random_image(16, 16, 6, seed=1)], 8, 3)
    tokens = np.zeros((uneven.n_visible, 192), np.float32)
    with pytest.raises(ShapeError, match="visible counts"):
        model.encode(tokens, uneven, grid)


def test_split_visible_size_mismatch():
    # a plan sized for another grid is refused where the visible rows are consumed
    grid = patchify(_random_image(16, 16, 3, seed=1), 8, 3)
    model = SpectralCubeAutoencoder(ModelConfig.tiny(max_grid=(2, 2, 1)), CounterRng(0))
    with pytest.raises(ShapeError):
        model.encode(grid.tokens, build_mask(99, 0.5, CounterRng(0)), grid)


# ---------------------------------------------------------------- targets

def test_targets_raw_bit_identical():
    grid = patchify(_random_image(16, 16, 6, seed=4), 8, 3)
    targets = make_targets(grid, "raw")
    assert np.array_equal(targets, grid.tokens) and targets is not grid.tokens


def test_targets_constant_token_normalizes_to_zero():
    img = SpectralImage(np.full((8, 8, 3), 2.5, np.float32), ["B1", "B2", "B3"])
    grid = patchify(img, 8, 3)
    targets = make_targets(grid, "per_token_normalized")
    assert not targets.any()
    # u = 2.5 and sigma = 0: the inverse maps 0 to u and 1 to u + (0 + EPS)
    ones = invert_targets(np.ones_like(targets), grid, "per_token_normalized")
    assert (invert_targets(targets, grid, "per_token_normalized") == np.float32(2.5)).all()
    assert (ones == np.float32(2.5) + np.float32(EPS)).all()


def test_targets_hand_computed_two_element_token():
    # u = 2, sigma = 1 (population) => targets (-1, 1) / (1 + EPS)
    img = SpectralImage(np.array([[[1.0, 3.0]]], np.float32), ["B1", "B2"])
    grid = patchify(img, 1, 2)
    targets = make_targets(grid, "per_token_normalized")
    scale = np.float32(1.0) + np.float32(EPS)
    assert targets.tobytes() == (np.float32([[-1.0, 1.0]]) / scale).tobytes()
    zeros, ones = (invert_targets(np.full((1, 2), v, np.float32), grid, "per_token_normalized")
                   for v in (0.0, 1.0))
    assert (zeros == 2.0).all() and (ones == np.float32(2.0) + scale).all()


@pytest.mark.parametrize("geometry", [(2, 2, 2, 8, 3), (24, 24, 1, 8, 3), (33, 1, 1, 1, 7)])
def test_targets_normalized_bytes_match_numpy_mean_std(geometry):
    gh, gw, gs, p, k = geometry
    n, length = gh * gw * gs, p * p * k
    tokens = (3.0 * CounterRng(n).normal_array((n, length)) + 1.5).astype(np.float32)
    tokens[n // 2] = 0.7  # a constant token: sigma 0
    grid = TokenGrid(p, k, gh, gw, gs, tokens)
    targets = make_targets(grid, "per_token_normalized")
    u = tokens.mean(axis=1, dtype=np.float64).astype(np.float32)[:, None]
    sigma = tokens.std(axis=1, dtype=np.float64).astype(np.float32)[:, None]
    assert sigma[n // 2] == 0.0
    scale = sigma + np.float32(EPS)
    expected = ((tokens - u) / scale).astype(np.float32)
    assert targets.dtype == np.float32 and targets.tobytes() == expected.tobytes()
    # the inverse takes the same u and sigma: 0 -> u, 1 -> u + (sigma + EPS)
    zeros, ones = (invert_targets(np.full(tokens.shape, v, np.float32), grid,
                                  "per_token_normalized") for v in (0.0, 1.0))
    assert zeros.tobytes() == np.broadcast_to(u, tokens.shape).tobytes()
    assert ones.tobytes() == np.broadcast_to(scale + u, tokens.shape).tobytes()


def test_targets_normalized_moments_property():
    grid = patchify(_random_image(32, 32, 6, seed=6), 8, 3)
    targets = make_targets(grid, "per_token_normalized")
    assert np.abs(targets.mean(axis=1)).max() <= 1e-5
    big = grid.tokens.std(axis=1) > 1e-3  # sigma >> EPS
    assert np.abs(targets[big].std(axis=1) - 1.0).max() <= 1e-3


def test_targets_standardized_equals_standardize_then_patchify():
    img = _random_image(16, 16, 6, seed=8)
    mean = img.values.reshape(-1, 6).mean(axis=0)
    std = img.values.reshape(-1, 6).std(axis=0)
    grid = patchify(img, 8, 3)
    targets = make_targets(grid, "standardized", (mean, std))
    pre = SpectralImage((img.values - mean) / (std + EPS), img.band_names)
    assert np.allclose(targets, patchify(pre, 8, 3).tokens, atol=1e-6)


def test_targets_standardized_requires_stats():
    grid = patchify(_random_image(16, 16, 6), 8, 3)
    for band_stats in (None, ([], [])):  # a manifest without band mean/std holds empty lists
        for call in (lambda: make_targets(grid, "standardized", band_stats),
                     lambda: invert_targets(grid.tokens, grid, "standardized", band_stats)):
            with pytest.raises(ConfigError, match="needs per-band mean/std stats"):
                call()


def test_targets_standardized_band_stats_cover_every_band():
    grid = patchify(_random_image(16, 16, 6), 8, 3)
    with pytest.raises(ShapeError, match=r"shape \(6,\)"):
        make_targets(grid, "standardized", ([0.5] * 6, [0.2] * 5))


def test_targets_unknown_mode():
    grid = patchify(_random_image(16, 16, 6), 8, 3)
    for call in (lambda: make_targets(grid, "minmax"),
                 lambda: invert_targets(grid.tokens, grid, "minmax")):
        with pytest.raises(ValueError, match="unknown target mode 'minmax'"):
            call()


# ---------------------------------------------------------------- spectral rows

def _spectral_oracle(grid, targets):
    out = np.zeros((grid.gh * grid.gw, grid.gs * grid.token_len), dtype=targets.dtype)
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
    targets = make_targets(grid, "per_token_normalized")
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
    targets = make_targets(grid, mode, band_stats)
    pixels = invert_targets(targets, grid, mode, band_stats)
    assert pixels.dtype == np.float32
    assert np.allclose(pixels, grid.tokens, atol=1e-5)


# Reference arithmetic for both target functions, written out per mode:
# float64 per-token moments rounded to float32, float32 band stats for the
# targets and float64 band stats (as a manifest's lists read) for the inverse.

def _band_index(grid):
    t, j = np.indices((len(grid.tokens), grid.token_len))
    return (t % grid.gs) * grid.k + j % grid.k


def _token_moments(tokens):
    length = tokens.shape[1]
    mean = tokens.sum(axis=1, dtype=np.float64) / length
    centred = tokens - mean[:, None]
    centred *= centred
    return mean.astype(np.float32), np.sqrt(centred.sum(axis=1) / length).astype(np.float32)


def _targets_oracle(grid, mode, band_stats):
    tokens, eps = grid.tokens, 1e-6
    if mode == "raw":
        return tokens.copy()
    if mode == "per_token_normalized":
        u, sigma = _token_moments(tokens)
        return ((tokens - u[:, None]) / (sigma + np.float32(eps))[:, None]).astype(np.float32)
    band_mean, band_std = (np.asarray(a, dtype=np.float32) for a in band_stats)
    band = _band_index(grid)
    return ((tokens - band_mean[band]) / (band_std[band] + np.float32(eps))).astype(np.float32)


def _invert_oracle(recon, grid, mode, band_stats):
    eps = 1e-6
    if mode == "per_token_normalized":
        u, sigma = _token_moments(grid.tokens)
        pixels = recon * (sigma + np.float32(eps))[:, None] + u[:, None]
    elif mode == "standardized":
        mean, std = (np.asarray(a) for a in band_stats)
        band = _band_index(grid)
        pixels = recon * (std[band] + eps) + mean[band]
    else:
        pixels = recon
    return pixels.astype(np.float32)


@pytest.mark.parametrize("n_images", [1, 3])
@pytest.mark.parametrize("mode", TARGET_MODES)
def test_targets_and_inverse_bytes_match_reference_arithmetic(mode, n_images):
    images = [_random_image(16, 24, 6, seed=50 + i) for i in range(n_images)]
    images[0].values[:8, :8, :3] = 0.3  # a constant token: sigma 0
    band_stats = (np.linspace(0.21, 0.63, 6).tolist(), np.linspace(0.07, 0.29, 6).tolist())
    grid = patchify_group(images, 8, 3)
    targets = make_targets(grid, mode, band_stats)
    want = _targets_oracle(grid, mode, band_stats)
    assert targets.dtype == np.float32 and targets.tobytes() == want.tobytes()
    recon = (2.0 * CounterRng(51).normal_array(targets.shape)).astype(np.float32)
    pixels = invert_targets(recon, grid, mode, band_stats)
    want = _invert_oracle(recon, grid, mode, band_stats)
    assert pixels.dtype == np.float32 and pixels.tobytes() == want.tobytes()


def test_standardized_band_pattern_matches_full_index_with_four_groups():
    # `_affine` broadcasts one (gs, token_len) band pattern over every site;
    # the oracle gathers the stats through a full (rows x token_len) index
    images = [_random_image(16, 24, 12, seed=52 + i) for i in range(3)]
    band_stats = (np.linspace(0.15, 0.8, 12).tolist(), np.linspace(0.05, 0.4, 12).tolist())
    grid = patchify_group(images, 8, 3)
    assert grid.gs == 4 and grid.images == 3
    targets = make_targets(grid, "standardized", band_stats)
    assert targets.tobytes() == _targets_oracle(grid, "standardized", band_stats).tobytes()
    recon = CounterRng(53).normal_array(targets.shape).astype(np.float32)
    pixels = invert_targets(recon, grid, "standardized", band_stats)
    assert pixels.tobytes() == _invert_oracle(recon, grid, "standardized", band_stats).tobytes()
