"""Band-combination previews and binary PPM output.

Three-band presets map the named bands to (R, G, B); two-band presets
render the normalized difference (b1 - b2) / (b1 + b2 + eps) as
grayscale. Display scaling is per image: one min/max over the whole
rendered array, so band ratios inside an image are preserved.
"""

from __future__ import annotations

import numpy as np

from .errors import DataError
from .tokenizer import SpectralImage

PRESETS: dict[str, tuple[str, ...]] = {
    "agriculture": ("B11", "B8", "B2"),
    "bathymetric": ("B4", "B3", "B1"),
    "vegetation_health": ("B8", "B4", "B3"),
    "geology": ("B12", "B11", "B2"),
    "moisture": ("B11", "B8A"),
    "vegetation_density": ("B12", "B8A", "B4"),
    "ndvi": ("B8", "B4"),
    "atmospheric": ("B12", "B11", "B8A"),
}

ND_EPS = 1e-6


def preset_bands(preset: str, band_names: list[str]) -> list[int]:
    """Positions in `band_names` of `preset`'s bands, in the preset's order."""
    if preset not in PRESETS:
        raise DataError(f"unknown preset {preset!r}; expected one of {sorted(PRESETS)}")
    for name in PRESETS[preset]:
        if name not in band_names:
            raise DataError(f"band {name!r} of preset {preset!r} not present in raster "
                            f"(has {band_names})")
    return [band_names.index(name) for name in PRESETS[preset]]


def render_preset(img: SpectralImage, preset: str) -> np.ndarray:
    """(H, W, 3) float image for a preset; not yet display-scaled."""
    bands = [img.values[:, :, i].astype(np.float64)
             for i in preset_bands(preset, img.band_names)]
    if len(bands) == 3:
        return np.stack(bands, axis=2)
    b1, b2 = bands
    index = (b1 - b2) / (b1 + b2 + ND_EPS)
    return np.repeat(index[:, :, None], 3, axis=2)


def to_display(rgb: np.ndarray) -> np.ndarray:
    """Min-max scale the whole image to uint8."""
    lo = float(rgb.min())
    hi = float(rgb.max())
    span = hi - lo if hi > lo else 1.0
    return np.clip((rgb - lo) / span * 255.0, 0, 255).astype(np.uint8)


def write_ppm(path, pixels: np.ndarray) -> None:
    """Binary PPM ("P6", maxval 255) for an (H, W, 3) uint8 array."""
    if pixels.ndim != 3 or pixels.shape[2] != 3 or pixels.dtype != np.uint8:
        raise DataError(f"PPM writer expects (H, W, 3) uint8, got "
                        f"{pixels.shape} {pixels.dtype}")
    h, w = pixels.shape[:2]
    with open(path, "wb") as fh:
        fh.write(f"P6\n{w} {h}\n255\n".encode("ascii"))
        fh.write(np.ascontiguousarray(pixels).tobytes())
