"""3D spatial-spectral tokenization, masking, and reconstruction targets.

An H x W x D image is partitioned into non-overlapping p x p x k blocks:
p pixels on each spatial side, k adjacent bands. Token order is
site-major with the spectral group fastest — token t sits at
(r, c, s) with t = (r*gw + c)*gs + s — and each token is flattened
row-major as (row, col, band). Both orderings are load-bearing: they
make patchify/unpatchify bit-exact inverses, let the per-site spectral
rows be a plain reshape, and fix the layout that checkpoints and raster
files rely on.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ShapeError, TokenizationError
from .rng import CounterRng

TARGET_MODES = ("raw", "per_token_normalized", "standardized")


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
    p: int
    k: int
    gh: int
    gw: int
    gs: int
    tokens: np.ndarray  # (gh*gw*gs, p*p*k) float32
    band_names: list[str] = field(default_factory=list)

    @property
    def n_tokens(self) -> int:
        return self.gh * self.gw * self.gs

    @property
    def n_sites(self) -> int:
        return self.gh * self.gw

    @property
    def token_len(self) -> int:
        return self.p * self.p * self.k


@dataclass
class MaskPlan:
    ratio: float
    masked: np.ndarray  # sorted ascending
    visible: np.ndarray  # sorted ascending
    total: int
    n_sites: int | None = None

    @property
    def m(self) -> int:
        return int(self.masked.size)

    @property
    def n_visible(self) -> int:
        return int(self.visible.size)


@dataclass
class NormalizationStats:
    """Per-token mean/std used to normalize targets (arrays over tokens)."""

    mean: np.ndarray
    std: np.ndarray
    eps: float


def patchify(img: SpectralImage, p: int, k: int) -> TokenGrid:
    h, w, d = img.values.shape
    if p <= 0 or k <= 0 or h % p or w % p or d % k:
        raise TokenizationError(
            f"image {h}x{w}x{d} not divisible by token size p={p}, k={k}")
    gh, gw, gs = h // p, w // p, d // k
    blocks = img.values.reshape(gh, p, gw, p, gs, k)
    tokens = np.ascontiguousarray(blocks.transpose(0, 2, 4, 1, 3, 5)).reshape(
        gh * gw * gs, p * p * k)
    return TokenGrid(p, k, gh, gw, gs, tokens, list(img.band_names))


def unpatchify(grid: TokenGrid) -> SpectralImage:
    """Exact inverse of patchify (pure index permutation, bit-identical)."""
    p, k, gh, gw, gs = grid.p, grid.k, grid.gh, grid.gw, grid.gs
    blocks = grid.tokens.reshape(gh, gw, gs, p, p, k).transpose(0, 3, 1, 4, 2, 5)
    values = np.ascontiguousarray(blocks).reshape(gh * p, gw * p, gs * k)
    names = grid.band_names or [f"B{i + 1}" for i in range(gs * k)]
    return SpectralImage(values, names)


def build_mask(total_tokens: int, ratio: float, rng: CounterRng,
               n_sites: int | None = None) -> MaskPlan:
    """Uniform random token subset of size floor(ratio * total) is masked.

    floor keeps at least the stated visible fraction; both index lists
    come back sorted so downstream gather/scatter order is canonical.
    """
    if not 0.0 <= ratio < 1.0:
        raise ValueError(f"masking ratio {ratio} outside [0, 1)")
    m = int(ratio * total_tokens)
    perm = rng.permutation(total_tokens)
    masked = np.sort(perm[:m])
    visible = np.sort(perm[m:])
    return MaskPlan(ratio, masked, visible, total_tokens, n_sites)


def _band_of(grid: TokenGrid) -> np.ndarray:
    """Band index of every token element, shape (n_tokens, token_len)."""
    return (np.arange(grid.n_tokens) % grid.gs)[:, None] * grid.k \
        + (np.arange(grid.token_len) % grid.k)[None, :]


def make_targets(grid: TokenGrid, mode: str, eps: float = 1e-6,
                 band_mean: np.ndarray | None = None,
                 band_std: np.ndarray | None = None) -> tuple[np.ndarray, NormalizationStats]:
    """Reconstruction targets for one of the three target modes.

    raw: the tokens themselves. per_token_normalized: (x - u_i) / (sigma_i + eps)
    with per-token mean/std. standardized: per-band dataset-level mean/std
    (from the manifest) applied to every element; equals standardizing the
    image before tokenization because tokenization only permutes elements.
    """
    if mode not in TARGET_MODES:
        raise ValueError(f"unknown target mode {mode!r}; expected one of {TARGET_MODES}")
    tokens = grid.tokens
    n = tokens.shape[0]
    if mode == "raw":
        stats = NormalizationStats(np.zeros(n, np.float32), np.ones(n, np.float32), eps)
        return tokens.copy(), stats
    if eps <= 0:
        raise ValueError("eps must be positive for normalizing target modes")
    if mode == "per_token_normalized":
        u = tokens.mean(axis=1, dtype=np.float64).astype(np.float32)
        sigma = tokens.std(axis=1, dtype=np.float64).astype(np.float32)
        targets = (tokens - u[:, None]) / (sigma + np.float32(eps))[:, None]
        return targets.astype(np.float32), NormalizationStats(u, sigma, eps)
    if band_mean is None or band_std is None:
        raise ValueError("standardized mode requires per-band mean and std")
    band_mean = np.asarray(band_mean, dtype=np.float32)
    band_std = np.asarray(band_std, dtype=np.float32)
    d = grid.gs * grid.k
    if band_mean.shape != (d,) or band_std.shape != (d,):
        raise ShapeError(f"band stats must have shape ({d},)")
    band_of = _band_of(grid)
    targets = (tokens - band_mean[band_of]) / (band_std[band_of] + np.float32(eps))
    stats = NormalizationStats(np.zeros(n, np.float32), np.ones(n, np.float32), eps)
    return targets.astype(np.float32), stats


def invert_targets(recon: np.ndarray, grid: TokenGrid, mode: str,
                   stats: NormalizationStats, band_stats=None) -> np.ndarray:
    """Undo make_targets: `stats` as it returned, `band_stats` its (mean, std) per band."""
    if mode not in TARGET_MODES:
        raise ValueError(f"unknown target mode {mode!r}; expected one of {TARGET_MODES}")
    if mode == "per_token_normalized":
        pixels = recon * (stats.std + np.float32(stats.eps))[:, None] + stats.mean[:, None]
    elif mode == "standardized":
        if band_stats is None:
            raise ValueError("standardized mode requires per-band mean and std")
        mean, std = (np.asarray(a) for a in band_stats)
        band_of = _band_of(grid)
        pixels = recon * (std[band_of] + stats.eps) + mean[band_of]
    else:
        pixels = recon
    return pixels.astype(np.float32)
