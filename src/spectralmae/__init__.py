"""Masked autoencoder pretraining for multi-band spectral imagery.

The package covers the full desk-scale loop: 3D spatial-spectral
tokenization and masking, a visible-token transformer encoder with a
lightweight reconstructing decoder, a dual token/spectral MSE objective,
deterministic AdamW pretraining over one or more image-size stages, four
downstream task heads with their metrics, and a seeded synthetic data
generator so everything is testable without satellite archives.

The names below load on first use (PEP 562), so importing the package, as
the `spectralmae` command does, does not load numpy: the CLI pins BLAS to
one thread first.
"""

import importlib

__version__ = "0.1.0"

_EXPORTS = {
    "CounterRng": "rng",
    "LossBreakdown": "objective",
    "MaskPlan": "tokenizer",
    "ModelConfig": "model",
    "ObjectiveConfig": "objective",
    "SpectralCubeAutoencoder": "model",
    "SpectralImage": "tokenizer",
    "TokenGrid": "tokenizer",
    "build_mask": "tokenizer",
    "patchify": "tokenizer",
    "unpatchify": "tokenizer",
}

__all__ = [*_EXPORTS, "__version__"]


def __getattr__(name):
    if name in _EXPORTS:
        return getattr(importlib.import_module(f".{_EXPORTS[name]}", __name__), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | set(_EXPORTS))
