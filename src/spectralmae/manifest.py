"""Dataset manifests: a JSON document naming samples, labels and band stats.

The manifest is the unit the trainers and evaluators consume. Raster
paths are stored relative to the manifest file and resolved (and
existence-checked) at load. Per-band min/max drive the [0, 1] input
normalization; per-band mean/std (of the normalized values) serve the
standardized reconstruction-target mode.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field, asdict

from .errors import DataError, FormatError

MANIFEST_VERSION = 1
TASKS = ("pretrain", "classify", "multilabel", "segment", "change")

_SAMPLE_KEYS = {
    "pretrain": {"raster"},
    "classify": {"raster", "label"},
    "multilabel": {"raster", "labels"},
    "segment": {"raster", "mask"},
    "change": {"raster_a", "raster_b", "mask"},
}

_TOP_KEYS = {"schema_version", "task", "samples", "band_names", "band_min",
             "band_max", "band_mean", "band_std", "class_names", "split_seed"}


@dataclass
class DatasetManifest:
    task: str
    samples: list[dict]
    band_names: list[str]
    band_min: list[float]
    band_max: list[float]
    band_mean: list[float] = field(default_factory=list)
    band_std: list[float] = field(default_factory=list)
    class_names: list[str] = field(default_factory=list)
    split_seed: int = 0
    schema_version: int = MANIFEST_VERSION

    def __post_init__(self):
        if self.task not in TASKS:
            raise DataError(f"unknown task {self.task!r}; expected one of {TASKS}")
        d = len(self.band_names)
        if len(self.band_min) != d or len(self.band_max) != d:
            raise DataError(f"band stats must cover all {d} bands")
        required = _SAMPLE_KEYS[self.task]
        for i, sample in enumerate(self.samples):
            if set(sample) != required:
                raise DataError(
                    f"sample {i} keys {sorted(sample)} do not match {sorted(required)}")

    @property
    def n_classes(self) -> int:
        return len(self.class_names)


def save_manifest(manifest: DatasetManifest, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(asdict(manifest), fh, sort_keys=True, indent=1)
        fh.write("\n")


def _resolve(sample: dict, base: str) -> dict:
    out = dict(sample)
    for key, value in sample.items():
        if key.startswith("raster") or key == "mask":
            if not isinstance(value, str):
                raise FormatError(f"manifest sample {key} {value!r} is not a path string")
            resolved = value if os.path.isabs(value) else os.path.join(base, value)
            if not os.path.exists(resolved):
                raise DataError(f"manifest references missing file {resolved}")
            out[key] = resolved
    return out


def load_manifest(path) -> DatasetManifest:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise FormatError(f"manifest is not UTF-8 JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise FormatError(f"manifest is a JSON {type(doc).__name__}, not an object")
    unknown = set(doc) - _TOP_KEYS
    if unknown:
        raise FormatError(f"unknown manifest keys: {sorted(unknown)}")
    if doc.get("schema_version") != MANIFEST_VERSION:
        raise FormatError(f"unsupported manifest schema version {doc.get('schema_version')}")
    samples = doc.get("samples", [])
    if not isinstance(samples, list) or not all(isinstance(s, dict) for s in samples):
        raise FormatError("manifest samples must be a list of objects")
    base = os.path.dirname(os.path.abspath(path))
    doc["samples"] = [_resolve(s, base) for s in samples]
    try:  # missing keys and mistyped fields
        return DatasetManifest(**doc)
    except TypeError as exc:
        raise FormatError(f"manifest does not match DatasetManifest: {exc}") from exc


def split(manifest: DatasetManifest, fractions: tuple[float, float],
          seed: int) -> tuple[DatasetManifest, DatasetManifest]:
    """Seeded permutation split into (train, val); both sides must be non-empty."""
    from .rng import CounterRng

    if abs(sum(fractions) - 1.0) > 1e-9:
        raise DataError(f"split fractions {fractions} must sum to 1")
    n = len(manifest.samples)
    n_train = int(round(fractions[0] * n))
    if n_train == 0 or n_train == n:
        raise DataError(f"split of {n} samples at {fractions} leaves an empty side")
    perm = CounterRng(seed).child("split").permutation(n)
    train_idx = sorted(perm[:n_train].tolist())
    val_idx = sorted(perm[n_train:].tolist())

    def subset(indices):
        fields = asdict(manifest)
        fields["samples"] = [manifest.samples[i] for i in indices]
        return DatasetManifest(**fields)

    return subset(train_idx), subset(val_idx)
