"""Multi-target reconstruction loss: token MSE plus weighted spectral MSE.

The token term is an elementwise mean over either the masked tokens or
all tokens (configurable; the two readings of the loss both ship). The
spectral term rearranges the per-token rows into one row per spatial
site — the site's spectral groups concatenated in order — and takes the
elementwise mean there. Both terms being elementwise means keeps them
on the same scale whatever the token geometry.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .errors import ShapeError, check_config
from .tokenizer import TARGET_MODES, MaskPlan, TokenGrid

TOKEN_SCOPES = ("all_tokens", "masked_only")


@dataclass
class ObjectiveConfig:
    lam: float = 1.0
    token_loss_scope: str = "all_tokens"
    target_mode: str = "per_token_normalized"

    def __post_init__(self):
        check_config(
            (0.0 <= self.lam < math.inf, f"objective lam {self.lam} must be finite and >= 0"),
            (self.token_loss_scope in TOKEN_SCOPES, f"objective token_loss_scope "
             f"{self.token_loss_scope!r} must be one of {TOKEN_SCOPES}"),
            (self.target_mode in TARGET_MODES,
             f"objective target_mode {self.target_mode!r} must be one of {TARGET_MODES}"))


@dataclass
class LossBreakdown:
    token: float
    spectral: float
    lam: float

    @property
    def total(self) -> float:
        return self.token + self.lam * self.spectral


def token_loss(recon: T.Tensor, targets, plan: MaskPlan, scope: str = "all_tokens") -> T.Tensor:
    """Elementwise MSE over the selected token set."""
    targets = T.Tensor(np.asarray(targets))
    if recon.shape != targets.shape:
        raise ShapeError(f"recon {recon.shape} vs targets {targets.shape}")
    if scope not in TOKEN_SCOPES:
        raise ValueError(f"unknown token loss scope {scope!r}")
    if scope == "masked_only":
        if plan.m == 0:
            raise ValueError("masked_only scope with an empty mask")
        recon = T.gather_rows(recon, plan.masked)
        targets = T.gather_rows(targets, plan.masked)
    return T.mse(recon, targets)


def _check_covers_grid(recon: T.Tensor, grid: TokenGrid) -> None:
    """recon must hold every token of each of `grid`'s images."""
    if recon.shape != (grid.images * grid.n_tokens, grid.token_len):
        raise ShapeError(f"recon {recon.shape} does not cover the {grid.n_tokens} tokens "
                         f"of length {grid.token_len} of each of {grid.images} images")


def spectral_loss(recon: T.Tensor, targets, grid: TokenGrid) -> T.Tensor:
    """Elementwise MSE over per-site spectral rows (all sites of every image).

    Site-major token order makes the row construction a reshape, also over
    a group's stacked images, so the value equals the all-token elementwise
    MSE; `total_loss` relies on that and builds the term only when the
    token term covers fewer tokens.
    """
    targets = T.Tensor(np.asarray(targets))
    if recon.shape != targets.shape:
        raise ShapeError(f"recon {recon.shape} vs targets {targets.shape}")
    _check_covers_grid(recon, grid)
    sites, row = recon.shape[0] // grid.gs, grid.gs * grid.token_len
    return T.mse(T.reshape(recon, (sites, row)), T.reshape(targets, (sites, row)))


def total_loss(recon: T.Tensor, targets, plan: MaskPlan, grid: TokenGrid,
               cfg: ObjectiveConfig) -> tuple[T.Tensor, LossBreakdown]:
    """Combined loss tensor (for backward) plus its scalar breakdown.

    recon and targets may stack a group's images (rows of `plan`, which
    `build_group_mask` builds); every image has the same masked count, so
    each term is the mean of the per-image terms.
    """
    tok = token_loss(recon, targets, plan, cfg.token_loss_scope)
    if cfg.token_loss_scope == "all_tokens":
        # the spectral term is the same mean over the same elements
        _check_covers_grid(recon, grid)
        spec, combined = tok, T.scale(tok, 1.0 + cfg.lam)
    else:
        spec = spectral_loss(recon, targets, grid)
        combined = T.add(tok, T.scale(spec, cfg.lam))
    return combined, LossBreakdown(float(tok.data), float(spec.data), cfg.lam)
