"""Dataset manifests: a JSON document naming samples, labels and band stats.

The manifest is the unit the trainers and evaluators consume. Raster
paths are stored relative to the manifest file and resolved (and
existence-checked) at load. Per-band min/max drive the [0, 1] input
normalization; per-band mean/std (of the normalized values) serve the
standardized reconstruction-target mode. A load reads each key as the type
of its `DatasetManifest` field (a sample's as in `_SAMPLE_KEYS`) and checks
labels against `class_names`; a mismatch is a `FormatError` naming the key.
"""

from __future__ import annotations

import json
import os
from dataclasses import asdict, dataclass, field, replace

from .errors import ConfigError, DataError, FormatError
from .schema import field_value, read_doc

MANIFEST_VERSION = 1
TASKS = ("pretrain", "classify", "multilabel", "segment", "change")

_SAMPLE_KEYS = {
    "pretrain": {"raster": str},
    "classify": {"raster": str, "label": int},
    "multilabel": {"raster": str, "labels": list[int]},
    "segment": {"raster": str, "mask": str},
    "change": {"raster_a": str, "raster_b": str, "mask": str},
}


@dataclass
class DatasetManifest:
    task: str
    samples: list[dict]
    band_names: list[str]
    band_min: list[float]
    band_max: list[float]
    schema_version: int
    band_mean: list[float] = field(default_factory=list)
    band_std: list[float] = field(default_factory=list)
    class_names: list[str] = field(default_factory=list)
    split_seed: int = 0

    def __post_init__(self):
        if self.task not in TASKS:
            raise DataError(f"unknown task {self.task!r}; expected one of {TASKS}")
        d = len(self.band_names)
        if len(self.band_min) != d or len(self.band_max) != d:
            raise DataError(f"band stats must cover all {d} bands")
        for key in ("band_mean", "band_std"):
            n = len(getattr(self, key))
            if n not in (0, d):
                raise DataError(f"manifest {key} has {n} entries for {d} bands; "
                                "it must be empty or hold one per band")
        required = _SAMPLE_KEYS[self.task]
        for i, sample in enumerate(self.samples):
            if sample.keys() != required.keys():
                raise DataError(
                    f"sample {i} keys {sorted(sample)} do not match {sorted(required)}")

    @property
    def n_classes(self) -> int:
        return len(self.class_names)


def save_manifest(manifest: DatasetManifest, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(asdict(manifest), fh, sort_keys=True, indent=1)
        fh.write("\n")


def _read_sample(i: int, sample: dict, base: str, man: DatasetManifest) -> dict:
    """`sample` type-checked against its task's keys, with its paths resolved."""
    out = {}
    for key, hint in _SAMPLE_KEYS[man.task].items():
        out[key] = field_value(sample[key], hint, f"samples[{i}].{key}", "manifest")
        if hint is str:  # a path, relative to the manifest unless absolute
            out[key] = os.path.join(base, out[key])
            if not os.path.exists(out[key]):
                raise DataError(f"manifest references missing file {out[key]}")
    label, labels = out.get("label"), out.get("labels")
    if label is not None and not 0 <= label < man.n_classes:
        raise FormatError(f"manifest samples[{i}].label {label} outside [0, {man.n_classes})")
    if labels is not None and (len(labels) != man.n_classes or not set(labels) <= {0, 1}):
        raise FormatError(f"manifest samples[{i}].labels {labels} must hold one 0 or 1 per class")
    return out


def load_manifest(path) -> DatasetManifest:
    base = os.path.dirname(os.path.abspath(path))
    try:  # not JSON, or an unknown, missing or mistyped key, at the top or in a sample
        manifest = read_doc(DatasetManifest, path, "manifest")
        if manifest.schema_version != MANIFEST_VERSION:
            raise FormatError(f"unsupported manifest schema version {manifest.schema_version}")
        manifest.samples = [_read_sample(i, s, base, manifest)
                            for i, s in enumerate(manifest.samples)]
    except ConfigError as exc:
        raise FormatError(str(exc)) from exc
    return manifest


def valid_split_fractions(fractions: tuple[float, float]) -> bool:
    """Both fractions in (0, 1) and summing to 1."""
    return min(fractions) > 0.0 and abs(sum(fractions) - 1.0) <= 1e-9


def split(manifest: DatasetManifest, fractions: tuple[float, float],
          seed: int) -> tuple[DatasetManifest, DatasetManifest]:
    """Seeded permutation split into (train, val); both sides must be non-empty."""
    from .rng import CounterRng

    if not valid_split_fractions(fractions):
        raise DataError(f"split fractions {fractions} must be in (0, 1) and sum to 1")
    n = len(manifest.samples)
    n_train = int(round(fractions[0] * n))
    if n_train == 0 or n_train == n:
        raise DataError(f"split of {n} samples at {fractions} leaves an empty side")
    perm = CounterRng(seed).child("split").permutation(n)
    return tuple(replace(manifest, samples=[manifest.samples[i] for i in sorted(part.tolist())])
                 for part in (perm[:n_train], perm[n_train:]))
