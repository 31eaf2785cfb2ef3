"""Binary spectral raster files and per-band image preprocessing.

File layout (all little-endian):

    magic   4 bytes  "SPGR"
    version u16      currently 1
    H, W, D u32 each
    bands   D strings, each u16 length prefix + UTF-8 bytes
    payload H*W*D float32 in (row, col, band) order

The payload order matches the tokenizer's flattening order, so patchify
reads rasters without any transposition. Round trips are bit-exact.
"""

from __future__ import annotations

import logging
import struct

import numpy as np

from .errors import FormatError, TruncatedFileError
from .tokenizer import SpectralImage

log = logging.getLogger(__name__)

RASTER_MAGIC = b"SPGR"
RASTER_VERSION = 1


def write_raster(img: SpectralImage, path) -> None:
    h, w, d = img.values.shape
    parts = [RASTER_MAGIC, struct.pack("<HIII", RASTER_VERSION, h, w, d)]
    for name in img.band_names:
        raw = name.encode("utf-8")
        parts.append(struct.pack("<H", len(raw)) + raw)
    parts.append(np.ascontiguousarray(img.values, dtype="<f4").tobytes())
    with open(path, "wb") as fh:
        fh.write(b"".join(parts))


def _take(buf: bytes, offset: int, n: int, what: str) -> tuple[bytes, int]:
    if offset + n > len(buf):
        raise TruncatedFileError(f"raster truncated while reading {what}")
    return buf[offset:offset + n], offset + n


def read_raster(path) -> SpectralImage:
    with open(path, "rb") as fh:
        buf = fh.read()
    magic, off = _take(buf, 0, 4, "magic")
    if magic != RASTER_MAGIC:
        raise FormatError(f"bad raster magic {magic!r}")
    header, off = _take(buf, off, 14, "header")
    version, h, w, d = struct.unpack("<HIII", header)
    if version != RASTER_VERSION:
        raise FormatError(f"unsupported raster version {version}")
    names = []
    for i in range(d):
        raw, off = _take(buf, off, 2, f"band name {i} length")
        (ln,) = struct.unpack("<H", raw)
        raw, off = _take(buf, off, ln, f"band name {i}")
        try:
            names.append(raw.decode("utf-8"))
        except UnicodeDecodeError as exc:
            raise FormatError(f"raster band name {i} is not UTF-8: {exc}") from exc
    payload, off = _take(buf, off, h * w * d * 4, "payload")
    if off != len(buf):
        raise FormatError(f"{len(buf) - off} trailing bytes after declared payload")
    values = np.frombuffer(payload, dtype="<f4").reshape(h, w, d)
    return SpectralImage(values.copy(), names)


def normalize_bands(img: SpectralImage, band_min, band_max) -> SpectralImage:
    """Scale each band to [0, 1] with dataset-level min/max, clipping outliers.

    A band whose min equals its max carries no information and maps to 0;
    that degenerate case is logged, not fatal.
    """
    band_min = np.asarray(band_min, dtype=np.float32)
    band_max = np.asarray(band_max, dtype=np.float32)
    d = img.values.shape[2]
    if band_min.shape != (d,) or band_max.shape != (d,):
        raise FormatError(f"band stats must cover all {d} bands")
    span = band_max - band_min
    out = np.zeros_like(img.values)
    for b in range(d):
        if span[b] <= 0:
            log.warning("band %s has min == max (%s); mapped to 0",
                        img.band_names[b], band_min[b])
            continue
        out[:, :, b] = np.clip((img.values[:, :, b] - band_min[b]) / span[b], 0.0, 1.0)
    return SpectralImage(out, list(img.band_names))


def resample_bilinear(values: np.ndarray, new_h: int, new_w: int) -> np.ndarray:
    """Bilinear resize of an (H, W, C) array, edge-aligned sample centers."""
    h, w = values.shape[:2]
    ys = np.linspace(0, h - 1, new_h)
    xs = np.linspace(0, w - 1, new_w)
    y0 = np.floor(ys).astype(np.int64)
    x0 = np.floor(xs).astype(np.int64)
    y1 = np.minimum(y0 + 1, h - 1)
    x1 = np.minimum(x0 + 1, w - 1)
    wy = (ys - y0)[:, None, None]
    wx = (xs - x0)[None, :, None]
    v00 = values[np.ix_(y0, x0)]
    v01 = values[np.ix_(y0, x1)]
    v10 = values[np.ix_(y1, x0)]
    v11 = values[np.ix_(y1, x1)]
    top = v00 * (1 - wx) + v01 * wx
    bot = v10 * (1 - wx) + v11 * wx
    return (top * (1 - wy) + bot * wy).astype(values.dtype)
