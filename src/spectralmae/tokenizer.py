"""3D spatial-spectral tokenization, masking, and reconstruction targets.

An H x W x D image is partitioned into non-overlapping p x p x k blocks:
p pixels on each spatial side, k adjacent bands. Token order is
site-major with the spectral group fastest — token t sits at
(r, c, s) with t = (r*gw + c)*gs + s — and each token is flattened
row-major as (row, col, band). Both orderings are load-bearing: they
make patchify/unpatchify bit-exact inverses, let the per-site spectral
rows be a plain reshape, and fix the layout that checkpoints and raster
files rely on.

A `TokenGrid` is the one record of token geometry. Its gh, gw, gs and
n_tokens describe one image; `patchify_group` alone sets
`images` above 1, for same-size images stacked along rows, so image i's
tokens are rows [i*n_tokens, (i+1)*n_tokens) of `tokens`.

Reconstruction targets are an affine map of the tokens, (x - shift) / scale,
set by the target mode. `make_targets` applies it and `invert_targets`
undoes it; both take the map from one helper that recomputes it from the
grid and the band stats, so the two agree on every mode's rule.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import ConfigError, ShapeError, TokenizationError
from .rng import CounterRng, permutations

TARGET_MODES = ("raw", "per_token_normalized", "standardized")
EPS = 1e-6  # added to every target scale: a constant token (sigma 0) stays finite


@dataclass
class SpectralImage:
    """H x W x D float32 cube with per-band names, values in (row, col, band) order."""

    values: np.ndarray
    band_names: list[str]

    def __post_init__(self):
        self.values = np.ascontiguousarray(self.values, dtype=np.float32)
        if self.values.ndim != 3:
            raise ShapeError(f"spectral image must be 3-D, got shape {self.values.shape}")
        if len(self.band_names) != self.values.shape[2]:
            raise ShapeError(
                f"{len(self.band_names)} band names for {self.values.shape[2]} bands")

    @property
    def height(self) -> int:
        return self.values.shape[0]

    @property
    def width(self) -> int:
        return self.values.shape[1]

    @property
    def bands(self) -> int:
        return self.values.shape[2]


@dataclass
class TokenGrid:
    """`images` same-size images' tokens; gh x gw x gs and n_tokens are one image's."""

    p: int
    k: int
    gh: int
    gw: int
    gs: int
    tokens: np.ndarray  # (images*gh*gw*gs, p*p*k) float32
    band_names: list[str] = field(default_factory=list)
    images: int = 1

    @property
    def n_tokens(self) -> int:
        return self.gh * self.gw * self.gs

    @property
    def token_len(self) -> int:
        return self.p * self.p * self.k


@dataclass
class MaskPlan:
    ratio: float
    masked: np.ndarray  # sorted ascending
    visible: np.ndarray  # sorted ascending
    total: int

    @property
    def m(self) -> int:
        return int(self.masked.size)

    @property
    def n_visible(self) -> int:
        return int(self.visible.size)


def grid_shape(h: int, w: int, d: int, p: int, k: int) -> tuple[int, int, int]:
    """(gh, gw, gs) of an h x w x d image cut into p x p x k tokens."""
    if p <= 0 or k <= 0 or h % p or w % p or d % k:
        raise TokenizationError(
            f"image {h}x{w}x{d} not divisible by token size p={p}, k={k}")
    return h // p, w // p, d // k


def patchify(img: SpectralImage, p: int, k: int) -> TokenGrid:
    gh, gw, gs = grid_shape(*img.values.shape, p, k)
    blocks = img.values.reshape(gh, p, gw, p, gs, k)
    tokens = np.ascontiguousarray(blocks.transpose(0, 2, 4, 1, 3, 5)).reshape(
        gh * gw * gs, p * p * k)
    return TokenGrid(p, k, gh, gw, gs, tokens, list(img.band_names))


def patchify_group(images: Sequence[SpectralImage], p: int, k: int) -> TokenGrid:
    """One patchify over same-size images stacked along rows, (B*H, W, D).

    Token order is site-major, so image i's tokens are rows [i*n, (i+1)*n)
    of the result, each row as `patchify(images[i])` gives it; the grid
    holds one image's geometry and `images` = B. A single image is
    patchified as it is.
    """
    if len(images) == 1:
        return patchify(images[0], p, k)
    shape = images[0].values.shape
    gh = grid_shape(*shape, p, k)[0]  # each image must split alone, not only the stack
    if any(img.values.shape != shape for img in images):
        raise ShapeError(f"images of one group must share the size {shape}")
    stacked = np.concatenate([img.values for img in images])
    grid = patchify(SpectralImage(stacked, images[0].band_names), p, k)
    return replace(grid, gh=gh, images=len(images))


def unpatchify(grid: TokenGrid) -> SpectralImage:
    """Exact inverse of patchify (pure index permutation, bit-identical).

    A group's images come back stacked along rows, (images*H, W, D).
    """
    p, k, gh, gw, gs = grid.p, grid.k, grid.images * grid.gh, grid.gw, grid.gs
    blocks = grid.tokens.reshape(gh, gw, gs, p, p, k).transpose(0, 3, 1, 4, 2, 5)
    values = np.ascontiguousarray(blocks).reshape(gh * p, gw * p, gs * k)
    names = grid.band_names or [f"B{i + 1}" for i in range(gs * k)]
    return SpectralImage(values, names)


def build_mask(total_tokens: int, ratio: float, rng: CounterRng) -> MaskPlan:
    """Uniform random token subset of size floor(ratio * total) is masked.

    floor keeps at least the stated visible fraction; both index lists
    come back sorted so downstream gather/scatter order is canonical.
    """
    return build_group_mask(total_tokens, ratio, [rng])


def build_group_mask(total_tokens: int, ratio: float, rngs: list[CounterRng]) -> MaskPlan:
    """One plan over a group of images' stacked token rows, image i masked by rngs[i].

    Image i's tokens occupy rows [i*n, (i+1)*n) with n = total_tokens, so
    its plan is `build_mask(n, ratio, rngs[i])` shifted by i*n, and each
    rng advances as that call would; both index lists stay sorted.
    """
    if not 0.0 <= ratio < 1.0:
        raise ValueError(f"masking ratio {ratio} outside [0, 1)")
    n, b = total_tokens, len(rngs)
    m = int(ratio * n)
    perms = permutations(rngs, n)
    offsets = np.arange(0, b * n, n, dtype=np.int64)[:, None]
    masked = np.sort(perms[:, :m], axis=1) + offsets
    visible = np.sort(perms[:, m:], axis=1) + offsets
    return MaskPlan(ratio, masked.ravel(), visible.ravel(), n * b)


def _affine(grid: TokenGrid, mode: str, band_stats, dtype) -> tuple | None:
    """(shift, scale) with targets = (tokens - shift) / scale; None for raw.

    Both broadcast over the token rows viewed as (sites, gs, token_len).
    Every target-mode and band-stats rule lives here. Per-token moments
    take np.mean and np.std's float64 arithmetic (the mean once) and are
    rounded to float32. Band stats, (mean, std) per band, are read at
    `dtype`: float32 for the targets, float64 for their inverse, in one
    (gs, token_len) pattern that every site's tokens share.
    """
    if mode not in TARGET_MODES:
        raise ValueError(f"unknown target mode {mode!r}; expected one of {TARGET_MODES}")
    if mode == "raw":
        return None
    if mode == "per_token_normalized":
        tokens = grid.tokens
        length = tokens.shape[1]
        mean = tokens.sum(axis=1, dtype=np.float64) / length
        centred = tokens - mean[:, None]
        centred *= centred
        sigma = np.sqrt(centred.sum(axis=1) / length).astype(np.float32)
        return (mean.astype(np.float32).reshape(-1, grid.gs, 1),
                (sigma + np.float32(EPS)).reshape(-1, grid.gs, 1))
    mean, std = ((), ()) if band_stats is None else band_stats
    if not (len(mean) and len(std)):
        raise ConfigError("standardized target mode needs per-band mean/std stats")
    mean, std = np.asarray(mean, dtype), np.asarray(std, dtype)
    d = grid.gs * grid.k
    if mean.shape != (d,) or std.shape != (d,):
        raise ShapeError(f"band stats must have shape ({d},)")
    band_of = np.arange(grid.gs)[:, None] * grid.k \
        + (np.arange(grid.token_len) % grid.k)[None, :]  # of every element of a site
    return mean[band_of], std[band_of] + dtype(EPS)


def make_targets(grid: TokenGrid, mode: str, band_stats=None) -> np.ndarray:
    """Float32 reconstruction targets of `grid`'s tokens in one of TARGET_MODES.

    raw: the tokens themselves. per_token_normalized: (x - u_i) / (sigma_i + EPS)
    with per-token mean/std. standardized: `band_stats`, the dataset-level
    (mean, std) per band from the manifest, applied to every element; equals
    standardizing the image before tokenization because tokenization only
    permutes elements.
    """
    affine = _affine(grid, mode, band_stats, np.float32)
    if affine is None:
        return grid.tokens.copy()
    shift, scale = affine
    targets = (grid.tokens.reshape(-1, grid.gs, grid.token_len) - shift) / scale
    return targets.astype(np.float32, copy=False).reshape(grid.tokens.shape)


def invert_targets(recon: np.ndarray, grid: TokenGrid, mode: str,
                   band_stats=None) -> np.ndarray:
    """Float32 pixels of targets `recon`: make_targets undone with `grid`'s own moments."""
    affine = _affine(grid, mode, band_stats, np.float64)
    if affine is None:
        return recon.astype(np.float32)
    shift, scale = affine
    pixels = recon.reshape(-1, grid.gs, grid.token_len) * scale + shift
    return pixels.astype(np.float32).reshape(recon.shape)
