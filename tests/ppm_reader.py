"""Binary PPM reader for the tests: the files `preview.write_ppm` writes."""

import numpy as np


def read_ppm(path) -> np.ndarray:
    """(H, W, 3) uint8 pixels of a P6 file whose header fields end in one newline each."""
    with open(path, "rb") as fh:
        data = fh.read()
    assert data.startswith(b"P6"), f"{path} is not a P6 PPM file"
    parts = data.split(b"\n", 3)
    w, h = (int(x) for x in parts[1].split())
    pixels = np.frombuffer(parts[3], dtype=np.uint8, count=h * w * 3)
    return pixels.reshape(h, w, 3).copy()
