import numpy as np
import pytest

from spectralmae import tensor as T
from spectralmae.errors import ConfigError, ShapeError
from spectralmae.gradcheck import grad_check
from spectralmae.model import (PRESETS, ModelConfig, SpectralCubeAutoencoder,
                               TransformerBlock, empty_mask_plan)
from spectralmae.rng import CounterRng
from spectralmae.tokenizer import (MaskPlan, SpectralImage, build_group_mask, build_mask,
                                   patchify, patchify_group)

from memtrace import value_bytes


def _image(h, w, d, seed=0):
    vals = CounterRng(seed).uniform_array((h, w, d)).astype(np.float32)
    return SpectralImage(vals, [f"B{i + 1}" for i in range(d)])


def _tiny_model(seed=0, **overrides):
    cfg = ModelConfig.tiny(**overrides)
    return SpectralCubeAutoencoder(cfg, CounterRng(seed))


def _masked(img, cfg, ratio, rng):
    """Patchify and mask an image the way the pretraining step does."""
    grid = patchify(img, cfg.p, cfg.k)
    return build_mask(grid.n_tokens, ratio, rng), grid


def _grid(gh, gw, gs, p=8, k=3):
    """The token grid of one gh x gw x gs image."""
    return patchify(_image(gh * p, gw * p, gs * k), p, k)


# ---------------------------------------------------------------- config

def test_config_validation():
    with pytest.raises(ConfigError):
        ModelConfig(embed_dim=10, encoder_heads=3)
    with pytest.raises(ConfigError):
        ModelConfig(embed_dim=64, encoder_heads=8, encoder_depth=2,
                    decoder_dim=64, decoder_heads=8, decoder_depth=2)
    with pytest.raises(ConfigError):
        ModelConfig(dtype="float16")
    for heads in ({"encoder_heads": 0}, {"decoder_heads": 0}):
        with pytest.raises(ConfigError, match="head counts"):
            ModelConfig(**heads)


def test_base_preset_encoder_is_86m_scale():
    model = SpectralCubeAutoencoder(ModelConfig(**PRESETS["base"]), rng=None)
    count = model.encoder_parameters().total_size()
    assert abs(count - 86e6) / 86e6 <= 0.05


def test_presets_depths():
    assert ModelConfig(**PRESETS["base"]).encoder_depth == 12
    assert ModelConfig(**PRESETS["large"]).encoder_depth == 24
    assert ModelConfig(**PRESETS["huge"]).encoder_depth == 32


# ---------------------------------------------------------------- embed

def test_embed_zero_token_zero_pos_gives_bias():
    model = _tiny_model()
    model.pos_spatial.data[:] = 0
    model.pos_spectral.data[:] = 0
    model.embed_b.data[:] = np.arange(16, dtype=np.float32)
    out = model.embed(np.zeros((3, 192), np.float32), np.array([0, 3, 7]), _grid(2, 2, 2))
    assert np.array_equal(out.data, np.tile(np.arange(16, dtype=np.float32), (3, 1)))


def test_embed_permutation_consistency():
    model = _tiny_model(seed=5)
    tokens = CounterRng(9).uniform_array((8, 192)).astype(np.float32)
    idx = np.arange(8)
    base = model.embed(tokens, idx, _grid(2, 2, 2)).data
    perm = np.array([3, 1, 7, 0, 2, 6, 4, 5])
    permuted = model.embed(tokens[perm], idx[perm], _grid(2, 2, 2)).data
    assert np.array_equal(permuted, base[perm])


def test_embed_hand_multiplied_projection():
    cfg = ModelConfig(embed_dim=2, encoder_depth=2, encoder_heads=1, decoder_dim=2,
                      decoder_depth=1, decoder_heads=1, p=1, k=2, max_grid=(1, 1, 1))
    model = SpectralCubeAutoencoder(cfg, CounterRng(0))
    model.embed_w.data[:] = [[1.0, 2.0], [3.0, 4.0]]
    model.embed_b.data[:] = 0
    model.pos_spatial.data[:] = 0
    model.pos_spectral.data[:] = 0
    out = model.embed(np.array([[5.0, 7.0]], np.float32), np.array([0]), _grid(1, 1, 1, 1, 2))
    assert out.data.tolist() == [[5 * 1 + 7 * 3, 5 * 2 + 7 * 4]]


def test_encode_and_decode_refuse_a_grid_exceeding_tables():
    model = _tiny_model()  # tables for a (2, 2, 2) grid
    grid = _grid(3, 2, 2)
    plan = empty_mask_plan(grid.n_tokens)
    with pytest.raises(ConfigError, match="exceeds positional tables"):
        model.encode(grid.tokens, plan, grid)
    with pytest.raises(ConfigError, match="exceeds positional tables"):
        model.decode(T.Tensor(np.zeros((grid.n_tokens, 16), np.float32)), plan, grid)


# ---------------------------------------------------------------- attention blocks

def test_single_token_attention_is_value_projection():
    model = _tiny_model(seed=2)
    block = model.enc_blocks[0]
    z = T.Tensor(CounterRng(3).normal_array((1, 16)).astype(np.float32))
    out = block._attention(z).data
    expected = (z.data @ block.wv.data) @ block.wo.data
    assert np.allclose(out, expected, atol=1e-6)


@pytest.mark.parametrize("n,d,heads,images", [(256, 96, 12, 4), (576, 48, 6, 1)],
                         ids=["downstream_mid_encoder", "pretrain_mid_decoder"])
def test_block_keeps_only_the_node_values_its_backward_reads(n, d, heads, images):
    md = 4 * d
    block = TransformerBlock(T.ParameterSet(), "blk", d, heads, md / d, CounterRng(5), np.float32)
    z = T.Tensor(CounterRng(6).normal_array((n, d)).astype(np.float32), requires_grad=True)
    out = block.forward(z, images)
    # z, ln1, q, k, v, ctx, the sum after attention, ln2, the MLP hidden and the output;
    # GELU's output and the products of wo and fc2 are no nodes
    assert value_bytes(out) == (9 * d + md) * n * 4


def test_block_stack_permutation_equivariance_exact():
    model = _tiny_model(seed=4)
    z = CounterRng(8).normal_array((6, 16)).astype(np.float32)
    perm = np.array([5, 2, 0, 4, 1, 3])

    def stack(arr):
        t = T.Tensor(arr.copy())
        for block in model.enc_blocks:
            t = block.forward(t)
        return t.data

    assert np.array_equal(stack(z)[perm], stack(z[perm]))


def test_block_stack_permutation_equivariance_close_over_seeds():
    # exact equality holds on few seeds only: a row's key sum runs in key order
    perm = np.array([5, 2, 0, 4, 1, 3])
    for s in range(40):
        model = _tiny_model(seed=s)
        z = CounterRng(100 + s).normal_array((6, 16)).astype(np.float32)

        def stack(arr):
            t = T.Tensor(arr.copy())
            for block in model.enc_blocks:
                t = block.forward(t)
            return t.data

        want = stack(z)[perm]
        assert np.abs(stack(z[perm]) - want).max() <= 1e-6 * np.abs(want).max(), s


def test_block_gradcheck():
    cfg = ModelConfig.tiny(dtype="float64")
    model = SpectralCubeAutoencoder(cfg, CounterRng(6))
    block = model.enc_blocks[0]
    z = T.Tensor(CounterRng(7).normal_array((3, 16)))
    w = T.Tensor(CounterRng(8).normal_array((3, 16)))
    block_params = T.ParameterSet()
    for name, p in model.parameters().items():
        if name.startswith("enc.0."):
            block_params._params[name] = p
    f = lambda: T.sum_all(T.mul(w, block.forward(z)))
    assert grad_check(f, block_params, eps=1e-3).max_relative_error <= 1e-3


# ---------------------------------------------------------------- encode / decode

def test_encode_output_shape_and_determinism():
    model = _tiny_model(seed=10, max_grid=(12, 12, 4))
    img = _image(96, 96, 12, seed=11)
    plan, grid = _masked(img, model.config, 0.9, CounterRng(12))
    assert plan.n_visible == 58
    a = model.encode(grid.tokens[plan.visible], plan, grid).data
    b = model.encode(grid.tokens[plan.visible], plan, grid).data
    assert a.shape == (58, 16)
    assert np.array_equal(a, b)


def test_encode_ratio_zero_equals_forward_full():
    model = _tiny_model(seed=13)
    img = _image(16, 16, 6, seed=14)
    grid = patchify(img, 8, 3)
    plan = empty_mask_plan(grid.n_tokens)
    via_encode = model.encode(grid.tokens, plan, grid).data
    via_full = model.forward_full(img).data
    assert np.array_equal(via_encode, via_full)


def test_forward_full_group_equals_encoding_the_stacked_per_image_tokens():
    model = _tiny_model(seed=13)
    images = [_image(16, 16, 6, seed=30 + i) for i in range(3)]
    tokens = np.concatenate([patchify(img, 8, 3).tokens for img in images])
    plan = empty_mask_plan(tokens.shape[0])
    via_encode = model.encode(tokens, plan, patchify_group(images, 8, 3)).data
    assert model.forward_full(*images).data.tobytes() == via_encode.tobytes()


def test_forward_full_row_arithmetic():
    model = _tiny_model(seed=15, max_grid=(16, 16, 4))
    latents = model.forward_full(_image(128, 128, 12, seed=16))
    assert latents.shape == (16 * 16 * 4, 16)


def test_decode_covers_all_tokens_paper_geometry():
    model = _tiny_model(seed=17, max_grid=(12, 12, 4))
    img = _image(96, 96, 12, seed=18)
    plan, grid = _masked(img, model.config, 0.9, CounterRng(19))
    recon = model.decode(model.encode(grid.tokens[plan.visible], plan, grid), plan, grid)
    assert recon.shape == (576, 192)


def test_decoder_input_unshuffle_against_index_oracle():
    model = _tiny_model(seed=20)
    img = _image(16, 16, 6, seed=21)
    plan, grid = _masked(img, model.config, 0.5, CounterRng(22))
    latents = model.encode(grid.tokens[plan.visible], plan, grid)
    dec_in = model.decoder_input(latents, plan).data
    projected = latents.data @ model.dec_embed_w.data + model.dec_embed_b.data
    for rank, token_idx in enumerate(plan.visible):
        assert np.allclose(dec_in[token_idx], projected[rank], atol=1e-6)
    for token_idx in plan.masked:
        assert np.array_equal(dec_in[token_idx], model.mask_token.data)


def test_mask_token_change_touches_exactly_masked_rows():
    model = _tiny_model(seed=23)
    img = _image(16, 16, 6, seed=24)
    plan, grid = _masked(img, model.config, 0.5, CounterRng(25))
    latents = model.encode(grid.tokens[plan.visible], plan, grid)
    before = model.decoder_input(latents, plan).data.copy()
    model.mask_token.data += 1.0
    after = model.decoder_input(latents, plan).data
    changed = np.where(np.any(before != after, axis=1))[0]
    assert np.array_equal(changed, plan.masked)


def test_decode_misaligned_plan_rejected():
    model = _tiny_model(seed=26)
    img = _image(16, 16, 6, seed=27)
    plan, grid = _masked(img, model.config, 0.5, CounterRng(28))
    latents = model.encode(grid.tokens[plan.visible], plan, grid)
    bad = MaskPlan(0.75, np.array([0, 1, 2, 3, 4, 5]), np.array([6, 7]), 8)
    with pytest.raises(ShapeError):
        model.decode(latents, bad, grid)


def test_encode_and_decode_refuse_a_plan_not_covering_every_image():
    model = _tiny_model(seed=35)
    grid = patchify_group([_image(16, 16, 6, seed=36 + i) for i in range(3)], 8, 3)
    assert (grid.images, grid.n_tokens) == (3, 8)
    good = build_group_mask(grid.n_tokens, 0.5, [CounterRng(39 + i) for i in range(3)])
    latents = model.encode(grid.tokens[good.visible], good, grid)
    assert model.decode(latents, good, grid).shape == (24, 192)
    for images in (2, 4):  # a plan over too few or too many images
        bad = build_group_mask(grid.n_tokens, 0.5, [CounterRng(i) for i in range(images)])
        with pytest.raises(ShapeError, match="mask plan covers"):
            model.encode(grid.tokens[:4 * images], bad, grid)
        with pytest.raises(ShapeError, match="mask plan covers"):
            model.decode(T.Tensor(np.zeros((4 * images, 16), np.float32)), bad, grid)


# ---------------------------------------------------------------- resizing

def test_resize_pos_tables_shapes_and_structure():
    model = _tiny_model(seed=29, max_grid=(2, 2, 2))
    model.pos_spatial.data[:] = 1.5  # constant field must stay constant
    model.resize_pos_tables((4, 4, 2))
    assert model.config.max_grid == (4, 4, 2)
    assert model.pos_spatial.data.shape == (16, 16)
    assert np.allclose(model.pos_spatial.data, 1.5, atol=1e-6)
    assert model.dec_pos_spatial.data.shape == (16, 8)


def test_resize_rejects_spectral_change():
    model = _tiny_model(seed=30)
    with pytest.raises(ConfigError):
        model.resize_pos_tables((4, 4, 3))


def test_resize_preserves_linear_ramp():
    model = _tiny_model(seed=31, max_grid=(3, 3, 2))
    ramp = np.arange(3, dtype=np.float32)
    model.pos_spatial.data[:] = np.repeat(ramp, 3)[:, None]  # rows 0,0,0,1,1,1,2,2,2
    model.resize_pos_tables((5, 3, 2))
    table = model.pos_spatial.data.reshape(5, 3, 16)
    assert np.allclose(table[:, 0, 0], [0.0, 0.5, 1.0, 1.5, 2.0], atol=1e-6)


# ---------------------------------------------------------------- end-to-end grads

def test_end_to_end_smoke_gradients_finite():
    model = _tiny_model(seed=32)
    img = _image(16, 16, 6, seed=33)
    plan, grid = _masked(img, model.config, 0.5, CounterRng(34))
    recon = model.reconstruct(grid, plan)
    loss = T.mse(recon, T.Tensor(grid.tokens))
    model.parameters().zero_grads()
    loss.backward()
    for p in model.parameters():
        assert np.all(np.isfinite(p.grad)), p.name
