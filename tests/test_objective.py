import numpy as np
import pytest

from spectralmae import tensor as T
from spectralmae.errors import ConfigError, ShapeError
from spectralmae.gradcheck import grad_check
from spectralmae.objective import (ObjectiveConfig, spectral_loss, token_loss,
                                   total_loss)
from spectralmae.rng import CounterRng
from spectralmae.tokenizer import SpectralImage, build_mask, patchify


def _grid(h=16, w=16, d=6, seed=0):
    vals = CounterRng(seed).uniform_array((h, w, d)).astype(np.float32)
    return patchify(SpectralImage(vals, [f"B{i+1}" for i in range(d)]), 8, 3)


def _token_loss_oracle(recon, targets, indices):
    """Brute force: per-element squared error over the chosen rows."""
    total, count = 0.0, 0
    for i in indices:
        for j in range(recon.shape[1]):
            total += (float(recon[i, j]) - float(targets[i, j])) ** 2
            count += 1
    return total / count


def _spectral_loss_oracle(recon, targets, grid):
    total, count = 0.0, 0
    length = grid.token_len
    for site in range(grid.gh * grid.gw):
        row_r, row_t = [], []
        for s in range(grid.gs):
            row_r.extend(recon[site * grid.gs + s])
            row_t.extend(targets[site * grid.gs + s])
        for a, b in zip(row_r, row_t):
            total += (float(a) - float(b)) ** 2
            count += 1
    assert count == grid.gh * grid.gw * grid.gs * length
    return total / count


def test_token_loss_zero_when_equal():
    grid = _grid()
    plan = build_mask(grid.n_tokens, 0.5, CounterRng(1))
    assert token_loss(T.Tensor(grid.tokens.copy()), grid.tokens, plan).item() == 0.0


def test_token_loss_constant_residual():
    grid = _grid()
    plan = build_mask(grid.n_tokens, 1 - 1 / grid.n_tokens, CounterRng(2))
    recon = grid.tokens.copy()
    recon[plan.masked] += 2.0
    # masked_only over a single... all masked rows shifted by 2 -> MSE 4
    val = token_loss(T.Tensor(recon), grid.tokens, plan, "masked_only").item()
    assert abs(val - 4.0) < 1e-6


def test_token_loss_matches_loop_oracle():
    grid = _grid(seed=3)
    rng = CounterRng(4)
    for trial in range(10):
        plan = build_mask(grid.n_tokens, 0.5, rng.child(trial))
        recon = grid.tokens + rng.child("noise", trial).normal_array(
            grid.tokens.shape).astype(np.float32)
        got = token_loss(T.Tensor(recon), grid.tokens, plan, "masked_only").item()
        want = _token_loss_oracle(recon, grid.tokens, plan.masked)
        assert abs(got - want) <= 1e-6
        got_all = token_loss(T.Tensor(recon), grid.tokens, plan, "all_tokens").item()
        want_all = _token_loss_oracle(recon, grid.tokens, range(grid.n_tokens))
        assert abs(got_all - want_all) <= 1e-6


def test_token_loss_shape_mismatch():
    grid = _grid()
    plan = build_mask(grid.n_tokens, 0.5, CounterRng(5))
    with pytest.raises(ShapeError):
        token_loss(T.Tensor(np.zeros((3, 3), np.float32)), grid.tokens, plan)


def test_spectral_loss_zero_when_equal():
    grid = _grid(seed=6)
    assert spectral_loss(T.Tensor(grid.tokens.copy()), grid.tokens, grid).item() == 0.0


def test_spectral_loss_gs1_equals_all_token_loss():
    grid = _grid(h=16, w=16, d=3, seed=7)
    assert grid.gs == 1
    recon = grid.tokens + CounterRng(8).normal_array(grid.tokens.shape).astype(np.float32)
    plan = build_mask(grid.n_tokens, 0.5, CounterRng(9))
    spec = spectral_loss(T.Tensor(recon), grid.tokens, grid).item()
    tok = token_loss(T.Tensor(recon), grid.tokens, plan, "all_tokens").item()
    assert abs(spec - tok) <= 1e-9


def test_spectral_loss_matches_loop_oracle():
    grid = _grid(seed=10)
    recon = grid.tokens + CounterRng(11).normal_array(grid.tokens.shape).astype(np.float32)
    got = spectral_loss(T.Tensor(recon), grid.tokens, grid).item()
    assert abs(got - _spectral_loss_oracle(recon, grid.tokens, grid)) <= 1e-6


def test_total_loss_lambda_zero_is_token_term():
    grid = _grid(seed=12)
    plan = build_mask(grid.n_tokens, 0.5, CounterRng(13))
    recon = T.Tensor(grid.tokens + 1.0)
    _, bd = total_loss(recon, grid.tokens, plan, grid, ObjectiveConfig(lam=0.0))
    assert bd.total == bd.token


def test_total_loss_hand_sum():
    grid = _grid(seed=14)
    plan = build_mask(grid.n_tokens, 0.5, CounterRng(15))
    recon = T.Tensor(grid.tokens + 2.0)  # constant residual: both terms are 4
    _, bd = total_loss(recon, grid.tokens, plan, grid, ObjectiveConfig(lam=1.0))
    assert abs(bd.token - 4.0) < 1e-5 and abs(bd.spectral - 4.0) < 1e-5
    assert bd.total == bd.token + bd.spectral


def test_lambda_linearity():
    grid = _grid(seed=16)
    plan = build_mask(grid.n_tokens, 0.75, CounterRng(17))
    recon = T.Tensor(grid.tokens + CounterRng(18).normal_array(
        grid.tokens.shape).astype(np.float32))
    lams = (0.3, 1.7)
    totals = []
    spectral_val = None
    for lam in lams:
        _, bd = total_loss(recon, grid.tokens, plan, grid, ObjectiveConfig(lam=lam))
        totals.append(bd.total)
        spectral_val = bd.spectral
    assert abs((totals[1] - totals[0]) - (lams[1] - lams[0]) * spectral_val) <= 1e-6


def test_nonnegativity_and_zero_iff_equal():
    grid = _grid(seed=19)
    plan = build_mask(grid.n_tokens, 0.5, CounterRng(20))
    recon = T.Tensor(grid.tokens + CounterRng(21).normal_array(
        grid.tokens.shape).astype(np.float32))
    _, bd = total_loss(recon, grid.tokens, plan, grid, ObjectiveConfig())
    assert bd.token > 0 and bd.spectral > 0 and bd.total > 0
    _, bd0 = total_loss(T.Tensor(grid.tokens.copy()), grid.tokens, plan, grid,
                        ObjectiveConfig())
    assert bd0.total == 0.0


def test_scope_relation_visible_residual_zero():
    # With a perfectly reconstructed sole visible token, the squared-error
    # sums agree; the elementwise means then differ by exactly m/N.
    grid = _grid(seed=22)
    n = grid.n_tokens
    plan = build_mask(n, 1 - 1 / n, CounterRng(23))
    recon = grid.tokens.copy()
    recon[plan.masked] += CounterRng(24).normal_array(
        (plan.m, grid.token_len)).astype(np.float32)
    t_all = token_loss(T.Tensor(recon), grid.tokens, plan, "all_tokens").item()
    t_masked = token_loss(T.Tensor(recon), grid.tokens, plan, "masked_only").item()
    assert abs(t_all - t_masked * plan.m / n) <= 1e-6


def test_total_loss_gradcheck_wrt_recon():
    grid = _grid(seed=25)
    plan = build_mask(grid.n_tokens, 0.5, CounterRng(26))
    ps = T.ParameterSet()
    recon = ps.add("recon", T.Parameter(
        grid.tokens.astype(np.float64) + CounterRng(27).normal_array(grid.tokens.shape)))
    cfg = ObjectiveConfig(lam=0.7, token_loss_scope="masked_only")
    f = lambda: total_loss(recon, grid.tokens.astype(np.float64), plan, grid, cfg)[0]
    assert grad_check(f, ps, eps=1e-3).max_relative_error <= 1e-3


@pytest.mark.parametrize("lam", [0.0, 0.3, 1.0, 1.7])
def test_total_loss_all_tokens_matches_two_term_form(lam):
    # all_tokens builds the token MSE once and weights it by 1 + lam; the
    # breakdown and the gradient must match tok + lam * spectral_loss
    grid = _grid(seed=28)
    plan = build_mask(grid.n_tokens, 0.75, CounterRng(29))
    noisy = grid.tokens + CounterRng(30).normal_array(grid.tokens.shape).astype(np.float32)
    once, twice = T.Parameter(noisy.copy()), T.Parameter(noisy.copy())
    combined, bd = total_loss(once, grid.tokens, plan, grid, ObjectiveConfig(lam=lam))
    tok = token_loss(twice, grid.tokens, plan, "all_tokens")
    spec = spectral_loss(twice, grid.tokens, grid)
    assert (bd.token, bd.spectral) == (tok.item(), spec.item())
    assert abs(combined.item() - (tok.item() + lam * spec.item())) <= 1e-6
    combined.backward()
    T.add(tok, T.scale(spec, lam)).backward()
    assert np.allclose(once.grad, twice.grad, rtol=1e-6, atol=0.0)
    if lam == 1.0:  # doubling is exact, so the default objective's bits do not move
        assert np.array_equal(once.grad, twice.grad)


def test_total_loss_all_tokens_still_checks_grid_coverage():
    grid = _grid(seed=31)
    plan = build_mask(grid.n_tokens, 0.5, CounterRng(32))
    part = grid.tokens[:-1]
    with pytest.raises(ShapeError):
        total_loss(T.Tensor(part), part, plan, grid, ObjectiveConfig())


def test_objective_config_validation():
    with pytest.raises(ConfigError, match="objective lam -1.0 must be finite and >= 0"):
        ObjectiveConfig(lam=-1.0)
    with pytest.raises(ConfigError, match="objective token_loss_scope 'visible_only'"):
        ObjectiveConfig(token_loss_scope="visible_only")
    with pytest.raises(ConfigError, match="objective lam nan"):
        ObjectiveConfig(lam=float("nan"))
