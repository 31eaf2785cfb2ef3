"""Masked autoencoder over 3D spatial-spectral tokens.

Encoder: shared linear token embedding plus two learnable positional
tables (spatial site, spectral group), a stack of pre-norm transformer
blocks over the visible tokens only, and a final LayerNorm. Decoder:
linear projection to a narrower width, a shared mask-token vector
scattered into every masked slot (unshuffled back to grid order),
decoder positional tables, a shallower block stack, and a linear head
back to pixel space covering all tokens.

`encode` and `decode` take the token geometry from one `TokenGrid`,
which may stand for a group of same-size images (`patchify_group`);
only attention splits a group's rows per image.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .errors import ConfigError, ShapeError, check_config
from .rng import CounterRng
from .tokenizer import MaskPlan, SpectralImage, TokenGrid, grid_shape, patchify_group

LN_EPS = 1e-6
INIT_STD = 0.02

# At most this many token rows share one autodiff graph. One graph per group
# of images removes per-op dispatch, which dominates small images, but stops
# paying once an image's own kernels dominate, and it holds every image's
# activations at once. One pretraining step with AdamW, one BLAS thread,
# per-image graphs against one graph for the batch. p75 ms of two runs, taken
# at commit e42d089. Peak RSS, mean of two runs, of a process that synthesizes
# 4 batches and runs one epoch of `pretrain` on them (mask ratio 0.9), taken
# once no closure kept attention scores, GELU's tanh or LayerNorm's rows:
#
#   image, model, B          rows/graph  per-image p75  one graph p75  peak RSS MB
#   16x16x6 tiny, 16                128      30 / 48         3.3 / 5.2  37.6 -> 37.3
#   32x32x12 d96, 4                 256     136 / 107         56 / 57   77.1 -> 77.1
#   48x48x12 d96, 4                 576     150 / 153        105 / 111  78.4 -> 79.0
#   64x64x12 d96, 4                1024     225 / 162        159 / 143  80.0 -> 94.4
#   96x96x12 d96, 4                2304     411 / 394        379 / 448  87.8 -> 141.1
#
# Under the cap the 96x96x12 (576-token) image keeps one graph per image.
MAX_GROUP_ROWS = 512


@dataclass
class ModelConfig:
    embed_dim: int = 768
    encoder_depth: int = 12
    encoder_heads: int = 12
    decoder_dim: int = 384
    decoder_depth: int = 4
    decoder_heads: int = 6
    mlp_ratio: float = 4.0
    p: int = 8
    k: int = 3
    max_grid: tuple[int, int, int] = (12, 12, 4)
    dtype: str = "float32"

    def __post_init__(self):
        check_config(
            *((getattr(self, name) >= 1, f"{name} {getattr(self, name)} must be positive")
              for name in ("embed_dim", "decoder_dim", "p", "k")),
            (min(self.encoder_depth, self.decoder_depth) >= 0,
             f"depths {self.encoder_depth} and {self.decoder_depth} must not be negative"),
            (0.0 < self.mlp_ratio < math.inf, f"mlp_ratio {self.mlp_ratio} must be finite and > 0"),
            (len(self.max_grid) == 3 and min(self.max_grid) >= 1,
             f"max_grid {self.max_grid} must be three positive extents"))
        if self.encoder_heads < 1 or self.decoder_heads < 1:
            raise ConfigError(f"head counts {self.encoder_heads} and {self.decoder_heads} "
                              "must be positive")
        if self.embed_dim % self.encoder_heads:
            raise ConfigError(
                f"embed_dim {self.embed_dim} not divisible by {self.encoder_heads} heads")
        if self.decoder_dim % self.decoder_heads:
            raise ConfigError(
                f"decoder_dim {self.decoder_dim} not divisible by {self.decoder_heads} heads")
        if not (self.decoder_depth < self.encoder_depth or self.decoder_dim < self.embed_dim):
            raise ConfigError("decoder must be narrower or shallower than the encoder")
        if self.dtype not in ("float32", "float64"):
            raise ConfigError(f"unsupported dtype {self.dtype!r}")

    @property
    def token_len(self) -> int:
        return self.p * self.p * self.k

    @property
    def np_dtype(self):
        return np.float32 if self.dtype == "float32" else np.float64

    @staticmethod
    def tiny(**overrides) -> "ModelConfig":
        return ModelConfig(**{**PRESETS["tiny"], **overrides})


# Named model sizes as overrides of ModelConfig's defaults, which are `base`
# (the ViT-Base encoder). `tiny` is the size the tests train.
PRESETS = {
    "tiny": dict(embed_dim=16, encoder_depth=2, encoder_heads=2, decoder_dim=8,
                 decoder_depth=1, decoder_heads=1, max_grid=(2, 2, 2)),
    "base": {},
    "large": dict(embed_dim=1024, encoder_depth=24, encoder_heads=16, decoder_dim=512,
                  decoder_heads=8),
    "huge": dict(embed_dim=1280, encoder_depth=32, encoder_heads=16, decoder_dim=640,
                 decoder_heads=8),
}


def initial_weight(rng: CounterRng | None, tags: tuple, shape, dtype) -> np.ndarray:
    """A weight's starting value: a truncated normal (std INIT_STD) drawn from
    `rng.child(*tags)`, or, with no rng, an array allocated unfilled.

    A model or head built with no rng is one a checkpoint restore fills
    next: `restore_into` checks every name and shape before it writes
    anything, so no unfilled value is ever read.
    """
    if rng is None:
        return np.empty(shape, dtype)
    return rng.child(*tags).truncated_normal_array(shape, std=INIT_STD).astype(dtype)


class TransformerBlock:
    """Pre-norm residual block: z + MHSA(LN(z)), then + MLP(LN(.))."""

    def __init__(self, params: T.ParameterSet, prefix: str, d: int, heads: int,
                 mlp_ratio: float, rng: CounterRng | None, dtype):
        self.heads = heads
        md = int(mlp_ratio * d)

        def w(name, shape):
            data = initial_weight(rng, (prefix, name), shape, dtype)
            return params.add(f"{prefix}.{name}", T.Parameter(data))

        def zeros(name, shape):
            return params.add(f"{prefix}.{name}", T.Parameter(np.zeros(shape, dtype)))

        def ones(name, shape):
            return params.add(f"{prefix}.{name}", T.Parameter(np.ones(shape, dtype)))

        self.ln1_g, self.ln1_b = ones("ln1.gain", d), zeros("ln1.bias", d)
        self.wq, self.wk = w("attn.wq", (d, d)), w("attn.wk", (d, d))
        self.wv, self.wo = w("attn.wv", (d, d)), w("attn.wo", (d, d))
        self.ln2_g, self.ln2_b = ones("ln2.gain", d), zeros("ln2.bias", d)
        self.fc1_w, self.fc1_b = w("mlp.fc1.weight", (d, md)), zeros("mlp.fc1.bias", md)
        self.fc2_w, self.fc2_b = w("mlp.fc2.weight", (md, d)), zeros("mlp.fc2.bias", d)

    def _attention(self, z: T.Tensor, images: int = 1) -> T.Tensor:
        """Self-attention within each image; z holds `images` equal runs of rows."""
        ctx = T.attention(T.matmul(z, self.wq), T.matmul(z, self.wk), T.matmul(z, self.wv),
                          images, self.heads)
        return T.matmul(ctx, self.wo)

    def _mlp(self, z: T.Tensor) -> T.Tensor:
        hidden = T.gelu(T.matmul(z, self.fc1_w, self.fc1_b))
        return T.matmul(hidden, self.fc2_w, self.fc2_b)

    def forward(self, z: T.Tensor, images: int = 1) -> T.Tensor:
        """One block over the rows of `images` images; only attention splits them."""
        z = T.add(z, self._attention(T.layer_norm(z, self.ln1_g, self.ln1_b, LN_EPS), images))
        return T.add(z, self._mlp(T.layer_norm(z, self.ln2_g, self.ln2_b, LN_EPS)))


class SpectralCubeAutoencoder:
    """The full encoder/decoder pair plus the parameter registry.

    `rng` seeds a fresh model's weights; with `rng=None` they are allocated
    unfilled for `checkpoint.restore_model` to fill (see `initial_weight`).
    """

    def __init__(self, config: ModelConfig, rng: CounterRng | None):
        self.config = config
        dtype = config.np_dtype
        ps = T.ParameterSet()
        self.params = ps
        d, dd, length = config.embed_dim, config.decoder_dim, config.token_len
        gh, gw, gs = config.max_grid

        def w(name, shape):
            return ps.add(name, T.Parameter(initial_weight(rng, ("init", name), shape, dtype)))

        def zeros(name, shape):
            return ps.add(name, T.Parameter(np.zeros(shape, dtype)))

        def ones(name, shape):
            return ps.add(name, T.Parameter(np.ones(shape, dtype)))

        self.embed_w = w("patch_embed.weight", (length, d))
        self.embed_b = zeros("patch_embed.bias", d)
        self.pos_spatial = w("pos.spatial", (gh * gw, d))
        self.pos_spectral = w("pos.spectral", (gs, d))
        self.enc_blocks = [
            TransformerBlock(ps, f"enc.{i}", d, config.encoder_heads,
                             config.mlp_ratio, rng, dtype)
            for i in range(config.encoder_depth)
        ]
        self.enc_norm_g = ones("enc.norm.gain", d)
        self.enc_norm_b = zeros("enc.norm.bias", d)
        self._n_encoder_params = len(ps)

        self.dec_embed_w = w("dec.embed.weight", (d, dd))
        self.dec_embed_b = zeros("dec.embed.bias", dd)
        self.mask_token = w("dec.mask_token", (dd,))
        self.dec_pos_spatial = w("pos.decoder_spatial", (gh * gw, dd))
        self.dec_pos_spectral = w("pos.decoder_spectral", (gs, dd))
        self.dec_blocks = [
            TransformerBlock(ps, f"dec.{i}", dd, config.decoder_heads,
                             config.mlp_ratio, rng, dtype)
            for i in range(config.decoder_depth)
        ]
        self.dec_norm_g = ones("dec.norm.gain", dd)
        self.dec_norm_b = zeros("dec.norm.bias", dd)
        self.head_w = w("dec.head.weight", (dd, length))
        self.head_b = zeros("dec.head.bias", length)

    # ------------------------------------------------------------- plumbing

    def parameters(self) -> T.ParameterSet:
        return self.params

    def encoder_parameters(self) -> T.ParameterSet:
        """The parameters `forward_full` reads: embedding, positions and encoder."""
        encoder = T.ParameterSet()
        for name, p in list(self.params.items())[:self._n_encoder_params]:
            encoder.add(name, p)
        return encoder

    def _check_grid(self, plan: MaskPlan, grid: TokenGrid) -> None:
        """The plan must cover every token of the grid's images, which the tables fit."""
        n = grid.images * grid.n_tokens
        if plan.total != n:
            raise ShapeError(f"mask plan covers {plan.total} tokens, grid has {n} "
                             f"({grid.images} images of {grid.n_tokens})")
        gh, gw, gs = self.config.max_grid
        if grid.gh > gh or grid.gw > gw or grid.gs > gs:
            raise ConfigError(
                f"grid {(grid.gh, grid.gw, grid.gs)} exceeds positional tables "
                f"{(gh, gw, gs)}; resize the tables at a stage boundary first")

    def _positions(self, indices: np.ndarray, grid: TokenGrid):
        """(site, spectral group) of token rows; a group's rows repeat per image."""
        indices = np.asarray(indices, dtype=np.int64) % grid.n_tokens
        s = indices % grid.gs
        site = indices // grid.gs  # equals r*gw + c for the active grid
        return site, s

    def group_spans(self, images: list[SpectralImage]) -> list[range]:
        """Runs of consecutive same-size images, each within MAX_GROUP_ROWS tokens.

        A run holds at least one image, so larger images get a graph each.
        """
        p, k = self.config.p, self.config.k
        spans: list[range] = []
        start = 0
        for i in range(1, len(images) + 1):
            shape = images[start].values.shape
            cap = max(1, MAX_GROUP_ROWS // max(1, math.prod(grid_shape(*shape, p, k))))
            if i == len(images) or images[i].values.shape != shape or i - start == cap:
                spans.append(range(start, i))
                start = i
        return spans

    # ------------------------------------------------------------- forward

    def embed(self, visible_tokens, indices, grid: TokenGrid) -> T.Tensor:
        """token * E + bias + spatial[r*gw + c] + spectral[s], one row per token."""
        tokens = T.Tensor(np.asarray(visible_tokens, dtype=self.config.np_dtype))
        if tokens.shape[1] != self.config.token_len:
            raise ShapeError(
                f"token length {tokens.shape[1]} does not match p*p*k = {self.config.token_len}")
        site, s = self._positions(indices, grid)
        x = T.matmul(tokens, self.embed_w, self.embed_b)
        pos = T.add(T.gather_rows(self.pos_spatial, site),
                    T.gather_rows(self.pos_spectral, s))
        return T.add(x, pos)

    def encode(self, visible_tokens, plan: MaskPlan, grid: TokenGrid) -> T.Tensor:
        """Encoder over visible tokens only; cost scales with the visible count.

        The plan may cover a group of images (`build_group_mask`); the rows
        are then each image's visible tokens in turn, equally many per image.
        """
        self._check_grid(plan, grid)
        per_image = np.bincount(plan.visible // grid.n_tokens, minlength=grid.images)
        if np.any(per_image != plan.n_visible // grid.images):
            raise ShapeError(f"visible counts {per_image.tolist()} differ between images")
        z = self.embed(visible_tokens, plan.visible, grid)
        for block in self.enc_blocks:
            z = block.forward(z, grid.images)
        return T.layer_norm(z, self.enc_norm_g, self.enc_norm_b, LN_EPS)

    def decoder_input(self, latents: T.Tensor, plan: MaskPlan) -> T.Tensor:
        """Projected latents unshuffled to grid order, mask token in masked slots.

        A group plan's indices already run through its images in turn, so one
        gather unshuffles every image.
        """
        n = plan.total
        v = plan.n_visible
        if latents.shape[0] != v:
            raise ShapeError(f"{latents.shape[0]} latent rows for {v} visible tokens")
        z = T.matmul(latents, self.dec_embed_w, self.dec_embed_b)
        stacked = T.concat_rows([z, T.tile_rows(self.mask_token, plan.m)])
        src = np.empty(n, dtype=np.int64)
        src[plan.visible] = np.arange(v)
        src[plan.masked] = v + np.arange(plan.m)
        return T.gather_rows(stacked, src)

    def decode(self, latents: T.Tensor, plan: MaskPlan, grid: TokenGrid) -> T.Tensor:
        """Reassemble the full token sequence and reconstruct every token."""
        self._check_grid(plan, grid)
        full = self.decoder_input(latents, plan)
        site, s = self._positions(np.arange(plan.total), grid)
        pos = T.add(T.gather_rows(self.dec_pos_spatial, site),
                    T.gather_rows(self.dec_pos_spectral, s))
        z = T.add(full, pos)
        for block in self.dec_blocks:
            z = block.forward(z, grid.images)
        z = T.layer_norm(z, self.dec_norm_g, self.dec_norm_b, LN_EPS)
        return T.matmul(z, self.head_w, self.head_b)

    def reconstruct(self, grid: TokenGrid, plan: MaskPlan) -> T.Tensor:
        """Every token of `grid` reconstructed from the ones `plan` leaves visible."""
        visible = np.ascontiguousarray(grid.tokens[plan.visible])
        return self.decode(self.encode(visible, plan, grid), plan, grid)

    def forward_full(self, *images: SpectralImage) -> T.Tensor:
        """Latents for every token of unmasked same-size images, in grid order.

        Several images share one graph; image i owns rows [i*n, (i+1)*n).
        """
        grid = patchify_group(images, self.config.p, self.config.k)
        return self.encode(grid.tokens, empty_mask_plan(len(grid.tokens)), grid)

    # ------------------------------------------------------------- resizing

    def resize_pos_tables(self, new_grid: tuple[int, int, int]) -> None:
        """Bilinear-resample the spatial tables to a new grid; spectral stays.

        Used at progressive stage boundaries when the image size changes
        while the token size stays fixed.
        """
        from .raster import resample_bilinear

        gh, gw, gs = self.config.max_grid
        nh, nw, ns = (int(g) for g in new_grid)
        if ns != gs:
            raise ConfigError(f"spectral group count must stay {gs}, got {ns}")
        if (nh, nw) == (gh, gw):
            return
        for param, width in ((self.pos_spatial, self.config.embed_dim),
                             (self.dec_pos_spatial, self.config.decoder_dim)):
            table = param.data.reshape(gh, gw, width)
            resized = resample_bilinear(table.astype(np.float64), nh, nw)
            param.data = np.ascontiguousarray(
                resized.reshape(nh * nw, width).astype(param.data.dtype))
            param.grad = None  # the old gradient has the old shape
        self.config.max_grid = (nh, nw, ns)


def empty_mask_plan(n_tokens: int) -> MaskPlan:
    """A plan with every token visible, as an unmasked forward pass uses."""
    return MaskPlan(0.0, np.empty(0, np.int64), np.arange(n_tokens), n_tokens)
