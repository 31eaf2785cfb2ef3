import numpy as np
import pytest

from spectralmae.errors import DataError
from spectralmae.preview import ND_EPS, PRESETS, render_preset, to_display, write_ppm
from spectralmae.rng import CounterRng
from spectralmae.synthetic import DEFAULT_BAND_NAMES
from spectralmae.tokenizer import SpectralImage

from ppm_reader import read_ppm


def _image12(seed=0):
    vals = CounterRng(seed).uniform_array((8, 8, 12)).astype(np.float32)
    return SpectralImage(vals, DEFAULT_BAND_NAMES)


def test_presets_cover_geo_table():
    assert set(PRESETS) == {"agriculture", "bathymetric", "vegetation_health",
                            "geology", "moisture", "vegetation_density", "ndvi",
                            "atmospheric"}


def test_rgb_preset_channel_order():
    img = _image12()
    rgb = render_preset(img, "agriculture")  # B11, B8, B2
    assert np.allclose(rgb[:, :, 0], img.values[:, :, DEFAULT_BAND_NAMES.index("B11")])
    assert np.allclose(rgb[:, :, 1], img.values[:, :, DEFAULT_BAND_NAMES.index("B8")])
    assert np.allclose(rgb[:, :, 2], img.values[:, :, DEFAULT_BAND_NAMES.index("B2")])


def test_ndvi_normalized_difference_formula():
    img = _image12(seed=3)
    out = render_preset(img, "ndvi")
    b8 = img.values[:, :, DEFAULT_BAND_NAMES.index("B8")].astype(np.float64)
    b4 = img.values[:, :, DEFAULT_BAND_NAMES.index("B4")].astype(np.float64)
    want = (b8 - b4) / (b8 + b4 + ND_EPS)
    assert np.allclose(out[:, :, 0], want)
    assert np.array_equal(out[:, :, 0], out[:, :, 1])  # grayscale


def test_unknown_preset_and_missing_band():
    img = _image12()
    with pytest.raises(DataError):
        render_preset(img, "thermal")
    small = SpectralImage(img.values[:, :, :3], ["B1", "B2", "B3"])
    with pytest.raises(DataError):
        render_preset(small, "ndvi")


def test_to_display_range():
    rgb = np.array([[[-1.0, 0.0, 3.0]]])
    out = to_display(rgb)
    assert out.dtype == np.uint8
    assert out.min() == 0 and out.max() == 255


def test_ppm_roundtrip(tmp_path):
    pixels = (CounterRng(5).uniform_array((6, 7, 3)) * 255).astype(np.uint8)
    path = tmp_path / "x.ppm"
    write_ppm(path, pixels)
    raw = path.read_bytes()
    assert raw.startswith(b"P6\n7 6\n255\n")
    assert np.array_equal(read_ppm(path), pixels)
