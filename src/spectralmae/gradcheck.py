"""Central-difference verification of reverse-mode gradients.

The checker perturbs parameter entries in place, so it runs at whatever
precision the model under test was built with. Float32 forward passes
leave roughly |loss| * 2^-24 / (2 eps) of quotient noise, which swamps
entries whose true gradient is small; build the model at float64 for the
end-to-end suite and reserve float32 checks for single well-scaled ops.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import EvaluationError
from .rng import CounterRng
from .tensor import ParameterSet

REL_TOLERANCE = 1e-3


@dataclass
class GradCheckResult:
    max_relative_error: float
    worst_parameter: str
    n_elements_checked: int

    @property
    def passed(self) -> bool:
        return self.max_relative_error <= REL_TOLERANCE


def _loss_value(f) -> float:
    out = f()
    val = float(out.data)
    if not np.isfinite(val):
        raise EvaluationError(f"objective evaluated to non-finite value {val}")
    return val


def grad_check(f, params: ParameterSet, eps: float = 1e-3,
               seed: int = 0, sample_per_param: int = 64) -> GradCheckResult:
    """Compare analytic gradients of `f` against central differences.

    `f` is a deterministic zero-argument callable returning a scalar
    Tensor built from `params`. Each parameter contributes all of its
    entries, or a seeded sample of `sample_per_param` when larger. The
    relative error denominator is max(|analytic|, |numeric|, 1e-6).
    Non-differentiable points (|x| at 0, hard ties) are the caller's
    responsibility to avoid.
    """
    if not (1e-4 <= eps <= 1e-2):
        raise ValueError(f"eps {eps} outside the supported range [1e-4, 1e-2]")

    params.zero_grads()
    loss = f()
    if not np.isfinite(float(loss.data)):
        raise EvaluationError("objective evaluated to non-finite value")
    loss.backward()
    analytic = {name: p.grad.copy() for name, p in params.items()}

    rng = CounterRng(seed)
    worst = 0.0
    worst_name = ""
    checked = 0
    for name, p in params.items():
        flat = p.data.reshape(-1)
        n = flat.size
        if n <= sample_per_param:
            positions = np.arange(n)
        else:
            positions = rng.permutation(n)[:sample_per_param]
        for pos in positions:
            pos = int(pos)
            orig = flat[pos]
            flat[pos] = orig + eps
            f_plus = _loss_value(f)
            flat[pos] = orig - eps
            f_minus = _loss_value(f)
            flat[pos] = orig
            numeric = (f_plus - f_minus) / (2.0 * eps)
            a = float(analytic[name].reshape(-1)[pos])
            denom = max(abs(a), abs(numeric), 1e-6)
            err = abs(a - numeric) / denom
            checked += 1
            if err > worst:
                worst = err
                worst_name = name
    return GradCheckResult(worst, worst_name, checked)
