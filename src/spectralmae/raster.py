"""Binary spectral raster files and per-band image preprocessing.

File layout (all little-endian):

    magic   4 bytes  "SPGR"
    version u16      currently 1
    H, W, D u32 each
    bands   D strings, each u16 length prefix + UTF-8 bytes
    payload H*W*D float32 in (row, col, band) order

The payload order matches the tokenizer's flattening order, so patchify
reads rasters without any transposition. Round trips are bit-exact.

`Writer` and `Reader` are the little-endian codec both this format and
SPCK checkpoints (`checkpoint.py`) are written and read with.
"""

from __future__ import annotations

import logging
import os
import struct

import numpy as np

from .errors import FormatError, TruncatedFileError
from .tokenizer import SpectralImage

log = logging.getLogger(__name__)

RASTER_MAGIC = b"SPGR"
RASTER_VERSION = 1


class Writer:
    """Little-endian fields appended in order; `write_to` writes them out."""

    def __init__(self):
        self.parts: list = []

    def pack(self, fmt: str, *values) -> None:
        self.parts.append(struct.pack("<" + fmt, *values))

    def string(self, s: str, length_fmt: str) -> None:
        raw = s.encode("utf-8")
        self.pack(length_fmt, len(raw))
        self.parts.append(raw)

    def array(self, arr: np.ndarray) -> None:
        # a view of the array when it already has the file's layout, else a copy that does
        self.parts.append(np.ascontiguousarray(arr, dtype=arr.dtype.newbyteorder("<")))

    def write_to(self, fh) -> None:
        """Write every part in order, without joining them into one copy."""
        for part in self.parts:
            fh.write(part)


class Reader:
    """Bounds-checked little-endian fields read in order from one file.

    The file is read into one writable buffer, and `array` returns a payload
    as a view of it, so a payload is copied once, by the read. A short read
    raises `TruncatedFileError` and a string that is not UTF-8, or bytes
    left over at `end()`, raise `FormatError`; each message names the file
    kind.
    """

    def __init__(self, path, kind: str):
        with open(path, "rb") as fh:
            self.buf = bytearray(os.fstat(fh.fileno()).st_size)
            del self.buf[fh.readinto(self.buf):]  # a file that shrank since the stat
        self.kind = kind
        self.off = 0

    def _skip(self, n: int, what: str) -> int:
        """Offset of the next `n` bytes, which the reader moves past."""
        if self.off + n > len(self.buf):
            raise TruncatedFileError(f"{self.kind} truncated while reading {what}")
        self.off += n
        return self.off - n

    def take(self, n: int, what: str) -> bytes:
        off = self._skip(n, what)
        return bytes(self.buf[off:off + n])

    def array(self, dtype, count: int, what: str) -> np.ndarray:
        """The next `count` items of the little-endian `dtype` as a view of the buffer."""
        dtype = np.dtype(dtype)
        arr = np.frombuffer(self.buf, dtype, count, self._skip(count * dtype.itemsize, what))
        return arr if dtype.isnative else arr.astype(dtype.newbyteorder("="))

    def unpack(self, fmt: str, what: str) -> tuple:
        fmt = "<" + fmt
        return struct.unpack_from(fmt, self.buf, self._skip(struct.calcsize(fmt), what))

    def string(self, what: str, length_fmt: str) -> str:
        (n,) = self.unpack(length_fmt, f"{what} length")
        try:
            return self.take(n, what).decode("utf-8")
        except UnicodeDecodeError as exc:
            raise FormatError(f"{self.kind} {what} is not UTF-8: {exc}") from exc

    def end(self) -> None:
        if self.off != len(self.buf):
            raise FormatError(f"{len(self.buf) - self.off} trailing bytes after "
                              f"{self.kind} payload")


def write_raster(img: SpectralImage, path) -> None:
    w = Writer()
    w.pack("4sHIII", RASTER_MAGIC, RASTER_VERSION, *img.values.shape)
    for name in img.band_names:
        w.string(name, "H")
    w.array(np.asarray(img.values, dtype=np.float32))
    with open(path, "wb") as fh:
        w.write_to(fh)


def read_raster(path) -> SpectralImage:
    r = Reader(path, "raster")
    magic = r.take(4, "magic")
    if magic != RASTER_MAGIC:
        raise FormatError(f"bad raster magic {magic!r}")
    version, h, w, d = r.unpack("HIII", "header")
    if version != RASTER_VERSION:
        raise FormatError(f"unsupported raster version {version}")
    names = [r.string(f"band name {i}", "H") for i in range(d)]
    values = r.array("<f4", h * w * d, "payload").reshape(h, w, d)
    r.end()
    return SpectralImage(values, names)


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

    def corner(rows, cols):  # a fresh float64 array, as the weights are
        return values[np.ix_(rows, cols)].astype(np.float64, copy=False)

    def lerp(a, b, t):  # a * (1 - t) + b * t, written into a and b
        a *= 1 - t
        b *= t
        a += b
        return a

    # the plain expression's operations in its order, but in place: glibc
    # hands a fresh large array back to the OS and page-faults it in again
    top = lerp(corner(y0, x0), corner(y0, x1), wx)
    bot = lerp(corner(y1, x0), corner(y1, x1), wx)
    return lerp(top, bot, wy).astype(values.dtype, copy=False)
