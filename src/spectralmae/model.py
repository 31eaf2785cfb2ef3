"""Masked autoencoder over 3D spatial-spectral tokens.

Encoder: shared linear token embedding plus two learnable positional
tables (spatial site, spectral group), a stack of pre-norm transformer
blocks over the visible tokens only, and a final LayerNorm. Decoder:
linear projection to a narrower width, a shared mask-token vector
scattered into every masked slot (unshuffled back to grid order),
decoder positional tables, a shallower block stack, and a linear head
back to pixel space covering all tokens.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .errors import ConfigError, ShapeError
from .rng import CounterRng
from .tokenizer import MaskPlan, SpectralImage, patchify

LN_EPS = 1e-6
INIT_STD = 0.02


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
        self.max_grid = tuple(int(g) for g in self.max_grid)
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
    def tiny(max_grid=(2, 2, 2), **overrides) -> "ModelConfig":
        args = dict(embed_dim=16, encoder_depth=2, encoder_heads=2, decoder_dim=8,
                    decoder_depth=1, decoder_heads=1, p=8, k=3, max_grid=max_grid)
        args.update(overrides)
        return ModelConfig(**args)

    @staticmethod
    def base(**overrides) -> "ModelConfig":
        args = dict(embed_dim=768, encoder_depth=12, encoder_heads=12, decoder_dim=384,
                    decoder_depth=4, decoder_heads=6)
        args.update(overrides)
        return ModelConfig(**args)

    @staticmethod
    def large(**overrides) -> "ModelConfig":
        args = dict(embed_dim=1024, encoder_depth=24, encoder_heads=16, decoder_dim=512,
                    decoder_depth=4, decoder_heads=8)
        args.update(overrides)
        return ModelConfig(**args)

    @staticmethod
    def huge(**overrides) -> "ModelConfig":
        args = dict(embed_dim=1280, encoder_depth=32, encoder_heads=16, decoder_dim=640,
                    decoder_depth=4, decoder_heads=8)
        args.update(overrides)
        return ModelConfig(**args)


def _block_param_count(d: int, mlp_ratio: float) -> int:
    md = int(mlp_ratio * d)
    attn = 4 * d * d  # W_Q, W_K, W_V, W_O, no biases
    mlp = d * md + md + md * d + d
    norms = 4 * d
    return attn + mlp + norms


def encoder_parameter_count(cfg: ModelConfig) -> int:
    """Closed-form encoder size: embedding + positional tables + blocks + norm."""
    gh, gw, gs = cfg.max_grid
    d, length = cfg.embed_dim, cfg.token_len
    total = length * d + d  # token embedding
    total += gh * gw * d + gs * d  # positional tables
    total += cfg.encoder_depth * _block_param_count(d, cfg.mlp_ratio)
    total += 2 * d  # final norm
    return total


def parameter_count(cfg: ModelConfig) -> int:
    gh, gw, gs = cfg.max_grid
    dd, length = cfg.decoder_dim, cfg.token_len
    total = encoder_parameter_count(cfg)
    total += cfg.embed_dim * dd + dd  # decoder embedding
    total += dd  # mask token
    total += gh * gw * dd + gs * dd  # decoder positional tables
    total += cfg.decoder_depth * _block_param_count(dd, cfg.mlp_ratio)
    total += 2 * dd  # decoder norm
    total += dd * length + length  # reconstruction head
    return total


class TransformerBlock:
    """Pre-norm residual block: z + MHSA(LN(z)), then + MLP(LN(.))."""

    def __init__(self, params: T.ParameterSet, prefix: str, d: int, heads: int,
                 mlp_ratio: float, rng: CounterRng, dtype):
        self.d = d
        self.heads = heads
        self.head_dim = d // heads
        md = int(mlp_ratio * d)

        def w(name, shape, std=INIT_STD):
            data = rng.child(prefix, name).truncated_normal_array(shape, std=std).astype(dtype)
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

    def _attention(self, z: T.Tensor) -> T.Tensor:
        t = z.shape[0]
        h, dh = self.heads, self.head_dim
        q = T.matmul(z, self.wq)
        k = T.matmul(z, self.wk)
        v = T.matmul(z, self.wv)
        qh = T.transpose(T.reshape(q, (t, h, dh)), (1, 0, 2))
        kt = T.transpose(T.reshape(k, (t, h, dh)), (1, 2, 0))
        vh = T.transpose(T.reshape(v, (t, h, dh)), (1, 0, 2))
        scores = T.scale(T.matmul(qh, kt), 1.0 / math.sqrt(dh))
        ctx = T.matmul(T.softmax_lastaxis(scores), vh)
        merged = T.reshape(T.transpose(ctx, (1, 0, 2)), (t, self.d))
        return T.matmul(merged, self.wo)

    def _mlp(self, z: T.Tensor) -> T.Tensor:
        hidden = T.gelu(T.add_rowvec(T.matmul(z, self.fc1_w), self.fc1_b))
        return T.add_rowvec(T.matmul(hidden, self.fc2_w), self.fc2_b)

    def forward(self, z: T.Tensor) -> T.Tensor:
        z = T.add(z, self._attention(T.layer_norm(z, self.ln1_g, self.ln1_b, LN_EPS)))
        return T.add(z, self._mlp(T.layer_norm(z, self.ln2_g, self.ln2_b, LN_EPS)))


@dataclass
class GridDims:
    gh: int
    gw: int
    gs: int

    @property
    def n_sites(self):
        return self.gh * self.gw

    @property
    def n_tokens(self):
        return self.gh * self.gw * self.gs


class SpectralCubeAutoencoder:
    """The full encoder/decoder pair plus the parameter registry."""

    def __init__(self, config: ModelConfig, rng: CounterRng | None = None):
        self.config = config
        rng = rng or CounterRng(0)
        dtype = config.np_dtype
        ps = T.ParameterSet()
        self.params = ps
        d, dd, length = config.embed_dim, config.decoder_dim, config.token_len
        gh, gw, gs = config.max_grid

        def w(name, shape):
            data = rng.child("init", name).truncated_normal_array(shape, std=INIT_STD)
            return ps.add(name, T.Parameter(data.astype(dtype)))

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

    def _check_grid(self, dims: GridDims) -> None:
        gh, gw, gs = self.config.max_grid
        if dims.gh > gh or dims.gw > gw or dims.gs > gs:
            raise ConfigError(
                f"grid {(dims.gh, dims.gw, dims.gs)} exceeds positional tables "
                f"{(gh, gw, gs)}; resize the tables at a stage boundary first")

    def _positions(self, indices: np.ndarray, dims: GridDims):
        indices = np.asarray(indices, dtype=np.int64)
        s = indices % dims.gs
        site = indices // dims.gs  # equals r*gw + c for the active grid
        return site, s

    # ------------------------------------------------------------- forward

    def embed(self, visible_tokens, indices, dims: GridDims) -> T.Tensor:
        """token * E + bias + spatial[r*gw + c] + spectral[s], one row per token."""
        self._check_grid(dims)
        tokens = visible_tokens if isinstance(visible_tokens, T.Tensor) else \
            T.Tensor(np.asarray(visible_tokens, dtype=self.config.np_dtype))
        if tokens.shape[1] != self.config.token_len:
            raise ShapeError(
                f"token length {tokens.shape[1]} does not match p*p*k = {self.config.token_len}")
        site, s = self._positions(indices, dims)
        x = T.add_rowvec(T.matmul(tokens, self.embed_w), self.embed_b)
        pos = T.add(T.gather_rows(self.pos_spatial, site),
                    T.gather_rows(self.pos_spectral, s))
        return T.add(x, pos)

    def encode(self, visible_tokens, plan: MaskPlan, dims: GridDims) -> T.Tensor:
        """Encoder over visible tokens only; cost scales with the visible count."""
        if plan.total != dims.n_tokens:
            raise ShapeError(f"mask plan covers {plan.total} tokens, grid has {dims.n_tokens}")
        z = self.embed(visible_tokens, plan.visible, dims)
        for block in self.enc_blocks:
            z = block.forward(z)
        return T.layer_norm(z, self.enc_norm_g, self.enc_norm_b, LN_EPS)

    def decoder_input(self, latents: T.Tensor, plan: MaskPlan, dims: GridDims) -> T.Tensor:
        """Projected latents unshuffled to grid order, mask token in masked slots."""
        n = dims.n_tokens
        v = plan.n_visible
        if latents.shape[0] != v:
            raise ShapeError(f"{latents.shape[0]} latent rows for {v} visible tokens")
        self._check_grid(dims)
        z = T.add_rowvec(T.matmul(latents, self.dec_embed_w), self.dec_embed_b)
        if plan.m:
            stacked = T.concat_rows([z, T.tile_rows(self.mask_token, plan.m)])
        else:
            stacked = z
        src = np.empty(n, dtype=np.int64)
        src[plan.visible] = np.arange(v)
        src[plan.masked] = v + np.arange(plan.m)
        return T.gather_rows(stacked, src)

    def decode(self, latents: T.Tensor, plan: MaskPlan, dims: GridDims) -> T.Tensor:
        """Reassemble the full token sequence and reconstruct every token."""
        full = self.decoder_input(latents, plan, dims)
        site, s = self._positions(np.arange(dims.n_tokens), dims)
        pos = T.add(T.gather_rows(self.dec_pos_spatial, site),
                    T.gather_rows(self.dec_pos_spectral, s))
        z = T.add(full, pos)
        for block in self.dec_blocks:
            z = block.forward(z)
        z = T.layer_norm(z, self.dec_norm_g, self.dec_norm_b, LN_EPS)
        return T.add_rowvec(T.matmul(z, self.head_w), self.head_b)

    def reconstruct(self, grid_tokens: np.ndarray, plan: MaskPlan, dims: GridDims) -> T.Tensor:
        visible = np.ascontiguousarray(grid_tokens[plan.visible])
        latents = self.encode(visible, plan, dims)
        return self.decode(latents, plan, dims)

    def forward_full(self, img: SpectralImage) -> T.Tensor:
        """Latents for every token of an unmasked image, in grid order."""
        grid = patchify(img, self.config.p, self.config.k)
        dims = GridDims(grid.gh, grid.gw, grid.gs)
        return self.encode(grid.tokens, empty_mask_plan(grid.n_tokens, dims.n_sites), dims)

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
            param.grad = np.zeros_like(param.data)
        self.config.max_grid = (nh, nw, ns)


def empty_mask_plan(n_tokens: int, n_sites: int | None = None) -> MaskPlan:
    """A plan with every token visible, as an unmasked forward pass uses."""
    return MaskPlan(0.0, np.empty(0, np.int64), np.arange(n_tokens), n_tokens, n_sites)
