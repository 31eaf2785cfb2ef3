"""Seeded synthetic spectral datasets for desk-scale experiments.

Images are built from smooth random fields: one shared field plus one
independent field per band, mixed as sqrt(rho) * shared +
sqrt(1 - rho) * independent so the expected inter-band Pearson
correlation equals rho, then offset by a per-class spectral signature.
Each field is a coarse lattice of standard normals (one cell per
`smoothness` pixels) resampled bilinearly to the image size; an image's
bands + 1 lattices are drawn in one pass and resampled as one array.
Scenes for segmentation are seeded Voronoi partitions; change pairs
differ inside seeded rectangles of at least 4 x 4 pixels, so a change
image must be at least 5 pixels high and wide. Identical specs produce
identical bytes on disk.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field

import numpy as np

from .errors import DataError, check_config
from .manifest import MANIFEST_VERSION, DatasetManifest, save_manifest
from .raster import resample_bilinear, write_raster
from .rng import CounterRng, normal_arrays
from .tokenizer import SpectralImage

DEFAULT_BAND_NAMES = ["B1", "B2", "B3", "B4", "B5", "B6", "B7", "B8", "B8A",
                      "B9", "B11", "B12"]


@dataclass
class SyntheticSpec:
    height: int = 32
    width: int = 32
    bands: int = 6
    classes: int = 3
    n_images: int = 32
    rho: float = 0.9
    noise_std: float = 0.02
    seed: int = 0
    field_amplitude: float = 0.2
    smoothness: int = 4  # cell size of the coarse field lattice, pixels
    signatures: list[list[float]] = field(default_factory=list)
    regions: int = 5  # Voronoi seed count for segmentation scenes
    max_rects: int = 3  # changed rectangles per change pair

    def __post_init__(self):
        check_config(
            *((getattr(self, name) >= 1, f"synth {name} {getattr(self, name)} must be positive")
              for name in ("height", "width", "bands", "classes", "n_images", "smoothness",
                           "regions", "max_rects")),
            *((0.0 <= getattr(self, name) < math.inf,
               f"synth {name} {getattr(self, name)} must be finite and >= 0")
              for name in ("noise_std", "field_amplitude")),
            (0.0 <= self.rho <= 1.0, f"synth rho {self.rho} outside [0, 1]"),
            (not self.signatures or len(self.signatures) == self.classes
             and all(len(s) == self.bands for s in self.signatures),
             "synth signatures must be (classes, bands)"))
        if not self.signatures:
            rng = CounterRng(self.seed).child("signatures")
            self.signatures = (0.2 + 0.6 * rng.uniform_array(
                (self.classes, self.bands))).tolist()

    def band_names(self) -> list[str]:
        if self.bands <= len(DEFAULT_BAND_NAMES):
            return DEFAULT_BAND_NAMES[:self.bands]
        return DEFAULT_BAND_NAMES + [f"X{i}" for i in range(self.bands - len(DEFAULT_BAND_NAMES))]


def _band_fields(spec: SyntheticSpec, rng: CounterRng) -> np.ndarray:
    """(H, W, D) correlated fields with inter-band Pearson correlation rho."""
    lh, lw = spec.height // spec.smoothness + 2, spec.width // spec.smoothness + 2
    rngs = [rng.child("shared")] + [rng.child("indep", band) for band in range(spec.bands)]
    lattices = normal_arrays(rngs, lh * lw).T.reshape(lh, lw, spec.bands + 1)
    fields = resample_bilinear(lattices, spec.height, spec.width)
    return (np.sqrt(spec.rho) * fields[:, :, :1]
            + np.sqrt(1.0 - spec.rho) * fields[:, :, 1:]).astype(np.float32)


def _white_noise(spec: SyntheticSpec, rng: CounterRng) -> np.ndarray:
    if spec.noise_std == 0.0:
        return np.zeros((spec.height, spec.width, spec.bands), np.float32)
    return (spec.noise_std * rng.child("white").normal_array(
        (spec.height, spec.width, spec.bands))).astype(np.float32)


def _image_from_signature(spec: SyntheticSpec, signature: np.ndarray,
                          rng: CounterRng) -> np.ndarray:
    fields = _band_fields(spec, rng)
    return (signature[None, None, :] + spec.field_amplitude * fields
            + _white_noise(spec, rng)).astype(np.float32)


def _voronoi_labels(spec: SyntheticSpec, rng: CounterRng) -> np.ndarray:
    ys = np.array([rng.randbelow(spec.height) for _ in range(spec.regions)])
    xs = np.array([rng.randbelow(spec.width) for _ in range(spec.regions)])
    cls = np.array([rng.randbelow(spec.classes) for _ in range(spec.regions)])
    yy, xx = np.meshgrid(np.arange(spec.height), np.arange(spec.width), indexing="ij")
    d2 = (yy[:, :, None] - ys[None, None, :]) ** 2 + (xx[:, :, None] - xs[None, None, :]) ** 2
    return cls[np.argmin(d2, axis=2)].astype(np.int64)


def generate_synthetic(spec: SyntheticSpec, task: str, out_dir) -> str:
    """Write a dataset plus its manifest under out_dir; returns the manifest path."""
    if task == "change":  # a changed rectangle spans rh >= 4 rows at randbelow(height - rh)
        check_config(*((getattr(spec, name) >= 5, f"synth {name} {getattr(spec, name)} "
                        "must be at least 5 for the change task")
                       for name in ("height", "width")))
    os.makedirs(out_dir, exist_ok=True)
    root = CounterRng(spec.seed)
    names = spec.band_names()
    sig = np.asarray(spec.signatures, np.float32)
    samples: list[dict] = []
    all_values: list[np.ndarray] = []

    def emit(filename: str, values: np.ndarray):
        write_raster(SpectralImage(values, names), os.path.join(out_dir, filename))
        all_values.append(values.reshape(-1, spec.bands))

    if task in ("pretrain", "classify"):
        for i in range(spec.n_images):
            label = i % spec.classes
            values = _image_from_signature(spec, sig[label], root.child("img", i))
            fname = f"img_{i:05d}.spgr"
            emit(fname, values)
            if task == "classify":
                samples.append({"raster": fname, "label": label})
            else:
                samples.append({"raster": fname})
    elif task == "multilabel":
        for i in range(spec.n_images):
            rng = root.child("img", i)
            active = [c for c in range(spec.classes) if rng.uniform() < 0.5]
            if not active:
                active = [rng.randbelow(spec.classes)]
            signature = sig[active].mean(axis=0)
            values = _image_from_signature(spec, signature, rng)
            fname = f"img_{i:05d}.spgr"
            emit(fname, values)
            samples.append({"raster": fname,
                            "labels": [1 if c in active else 0 for c in range(spec.classes)]})
    elif task == "segment":
        for i in range(spec.n_images):
            rng = root.child("img", i)
            labels = _voronoi_labels(spec, rng.child("voronoi"))
            fields = _band_fields(spec, rng)
            values = (sig[labels] + spec.field_amplitude * fields
                      + _white_noise(spec, rng)).astype(np.float32)
            fname, mname = f"img_{i:05d}.spgr", f"msk_{i:05d}.spgr"
            emit(fname, values)
            write_raster(SpectralImage(labels[:, :, None].astype(np.float32), ["LABEL"]),
                         os.path.join(out_dir, mname))
            samples.append({"raster": fname, "mask": mname})
    elif task == "change":
        for i in range(spec.n_images):
            rng = root.child("img", i)
            base_cls = rng.randbelow(spec.classes)
            values_a = _image_from_signature(spec, sig[base_cls], rng)
            values_b = values_a.copy()
            mask = np.zeros((spec.height, spec.width), np.float32)
            n_rects = 1 + rng.randbelow(spec.max_rects)
            for _ in range(n_rects):
                rh = 4 + rng.randbelow(max(1, spec.height // 2 - 4))
                rw = 4 + rng.randbelow(max(1, spec.width // 2 - 4))
                y0 = rng.randbelow(spec.height - rh)
                x0 = rng.randbelow(spec.width - rw)
                other = (base_cls + 1 + rng.randbelow(max(1, spec.classes - 1))) % spec.classes
                delta = sig[other] - sig[base_cls]
                values_b[y0:y0 + rh, x0:x0 + rw] += delta[None, None, :]
                mask[y0:y0 + rh, x0:x0 + rw] = 1.0
            fa, fb, fm = (f"img_{i:05d}_a.spgr", f"img_{i:05d}_b.spgr",
                          f"msk_{i:05d}.spgr")
            emit(fa, values_a)
            emit(fb, values_b)
            write_raster(SpectralImage(mask[:, :, None], ["CHANGE"]),
                         os.path.join(out_dir, fm))
            samples.append({"raster_a": fa, "raster_b": fb, "mask": fm})
    else:
        raise DataError(f"unknown synthetic task {task!r}")

    stacked = np.concatenate(all_values, axis=0)
    band_min = stacked.min(axis=0).astype(np.float64)
    band_max = stacked.max(axis=0).astype(np.float64)
    span = np.where(band_max > band_min, band_max - band_min, 1.0)
    normalized = np.clip((stacked - band_min) / span, 0.0, 1.0)
    manifest = DatasetManifest(
        task=task,
        samples=samples,
        band_names=names,
        band_min=band_min.tolist(),
        band_max=band_max.tolist(),
        band_mean=normalized.mean(axis=0).astype(np.float64).tolist(),
        band_std=normalized.std(axis=0).astype(np.float64).tolist(),
        class_names=[f"class_{c}" for c in range(spec.classes)],
        split_seed=spec.seed,
        schema_version=MANIFEST_VERSION,
    )
    manifest_path = os.path.join(out_dir, "manifest.json")
    save_manifest(manifest, manifest_path)
    return manifest_path
