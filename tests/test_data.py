import hashlib
import json
import os
import re
import struct
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spectralmae.checkpoint import (Checkpoint, OptimizerSnapshot, load_checkpoint,
                                    save_checkpoint, snapshot_model)
from spectralmae.errors import DataError, FormatError, TruncatedFileError
from spectralmae.manifest import load_manifest, split
from spectralmae.model import ModelConfig, SpectralCubeAutoencoder
from spectralmae.raster import normalize_bands, read_raster, resample_bilinear, write_raster
from spectralmae.rng import CounterRng
from spectralmae.synthetic import SyntheticSpec, generate_synthetic
from spectralmae.tokenizer import SpectralImage

from memtrace import traced_memory


def _image(h, w, d, seed=0):
    vals = CounterRng(seed).normal_array((h, w, d)).astype(np.float32)
    return SpectralImage(vals, [f"B{i+1}" for i in range(d)])


# ---------------------------------------------------------------- raster

def test_raster_roundtrip_bitwise(tmp_path):
    img = _image(16, 16, 6, seed=1)
    path = tmp_path / "x.spgr"
    write_raster(img, path)
    back = read_raster(path)
    assert np.array_equal(back.values, img.values)
    assert back.band_names == img.band_names


@settings(max_examples=25, deadline=None)
@given(h=st.integers(1, 12), w=st.integers(1, 12), d=st.integers(1, 8),
       seed=st.integers(0, 10_000))
def test_raster_roundtrip_property(tmp_path_factory, h, w, d, seed):
    img = _image(h, w, d, seed=seed)
    path = tmp_path_factory.mktemp("r") / "x.spgr"
    write_raster(img, path)
    assert np.array_equal(read_raster(path).values, img.values)


def test_raster_truncation_is_io_error(tmp_path):
    img = _image(8, 8, 3)
    path = tmp_path / "x.spgr"
    write_raster(img, path)
    data = path.read_bytes()
    (tmp_path / "cut.spgr").write_bytes(data[:-10])
    with pytest.raises(TruncatedFileError):
        read_raster(tmp_path / "cut.spgr")


def test_raster_bad_magic(tmp_path):
    (tmp_path / "bad.spgr").write_bytes(b"JUNKJUNKJUNK")
    with pytest.raises(FormatError):
        read_raster(tmp_path / "bad.spgr")


def test_raster_non_utf8_band_name_is_format_error(tmp_path):
    path = tmp_path / "x.spgr"
    write_raster(_image(4, 4, 2), path)
    data = bytearray(path.read_bytes())
    data[data.index(b"B2")] = 0xFF
    path.write_bytes(bytes(data))
    with pytest.raises(FormatError, match="band name 1"):
        read_raster(path)


def test_raster_trailing_bytes_is_format_error(tmp_path):
    img = _image(4, 4, 2)
    path = tmp_path / "x.spgr"
    write_raster(img, path)
    path.write_bytes(path.read_bytes() + b"\x00\x00")
    with pytest.raises(FormatError):
        read_raster(path)


def _spck_bytes(tmp_path_factory):
    model = SpectralCubeAutoencoder(ModelConfig.tiny(max_grid=(2, 2, 2)), CounterRng(0))
    path = tmp_path_factory.mktemp("fuzz") / "tiny.spck"
    save_checkpoint(snapshot_model(model, None, (0, 0)), path)
    return path.read_bytes()


def _spgr_bytes(tmp_path_factory):
    path = tmp_path_factory.mktemp("fuzz") / "tiny.spgr"
    write_raster(_image(4, 4, 3), path)
    return path.read_bytes()


@pytest.mark.parametrize("make,load", [(_spck_bytes, load_checkpoint), (_spgr_bytes, read_raster)],
                         ids=["spck", "spgr"])
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_corrupt_or_truncated_file_loads_or_raises_package_error(tmp_path_factory, make, load, data):
    blob = bytearray(make(tmp_path_factory))
    if data.draw(st.booleans(), label="truncate"):
        blob = blob[:data.draw(st.integers(0, len(blob) - 1), label="length")]
    else:
        for _ in range(data.draw(st.integers(1, 3), label="flips")):
            at = data.draw(st.integers(0, len(blob) - 1), label="offset")
            blob[at] ^= data.draw(st.integers(1, 255), label="mask")
    path = tmp_path_factory.mktemp("fuzz") / "mutated"
    path.write_bytes(bytes(blob))
    try:
        load(path)
    except (FormatError, TruncatedFileError):
        pass


# SPCK v1 and SPGR v1 byte for byte. Every value is exact in binary and no
# random draw feeds the files, so a layout change made to a writer and its
# reader together, which round trips cannot see, changes these digests.
_PINNED_SHA256 = {
    "spck": "eda8e7e5e507e6a084c54bbb648269f1b00f50e8f17fe5b6832f35d28633adf4",
    "spgr": "700d8646058f916d8a9c0a1e01c572e02e7ded66ea8d4afe1f7c25216f751f18",
}


def _pinned_spck(path):
    def ramp(shape, dtype):
        return (np.arange(int(np.prod(shape)), dtype=dtype) / 8 - 1).reshape(shape)

    params = {"w\u00e4ight": ramp((2, 3, 4), np.float32), "bias": ramp((5,), np.float64),
              "scale": ramp((), np.float32), "empty": ramp((3, 0), np.float32)}
    moments = {name: arr * 2 for name, arr in params.items()}
    config = ModelConfig(embed_dim=16, encoder_depth=2, encoder_heads=2, decoder_dim=8,
                         decoder_depth=1, decoder_heads=1, mlp_ratio=2.5, p=4, k=3,
                         max_grid=(3, 2, 1), dtype="float64")
    optimizer = OptimizerSnapshot(7, 0.125, 0.5, 0.75, 2.0 ** -20, 0.0625, moments,
                                  {name: arr / 4 for name, arr in params.items()})
    save_checkpoint(Checkpoint(config, params, optimizer, (11, 2 ** 40 + 3), stage=2,
                               epoch=5, step=1234), path)


def _pinned_spgr(path):
    values = (np.arange(24, dtype=np.float32) / 4 - 3).reshape(3, 2, 4)
    write_raster(SpectralImage(values, ["B1", "n\u00edr", "", "SWIR-2"]), path)


@pytest.mark.parametrize("kind,write,rewrite", [
    ("spck", _pinned_spck, lambda src, dst: save_checkpoint(load_checkpoint(src), dst)),
    ("spgr", _pinned_spgr, lambda src, dst: write_raster(read_raster(src), dst)),
], ids=["spck", "spgr"])
def test_v1_layout_bytes_are_pinned(tmp_path, kind, write, rewrite):
    path, again = tmp_path / f"pinned.{kind}", tmp_path / f"again.{kind}"
    write(path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == _PINNED_SHA256[kind]
    rewrite(path, again)  # the reader takes the pinned bytes back to the same bytes
    assert again.read_bytes() == path.read_bytes()


@pytest.mark.parametrize("kind", ["spck", "spgr"])
def test_load_copies_the_file_once_into_writable_arrays(tmp_path, kind):
    path = tmp_path / f"big.{kind}"
    if kind == "spck":
        model = SpectralCubeAutoencoder(ModelConfig.tiny(embed_dim=64, decoder_dim=32),
                                        CounterRng(0))
        save_checkpoint(snapshot_model(model, None, (0, 0)), path)
        load = lambda: list(load_checkpoint(path).params.values())
    else:
        write_raster(_image(64, 64, 12, seed=2), path)
        load = lambda: [read_raster(path).values]
    with traced_memory() as read:
        arrays = load()
        _, peak = read()
    assert peak < 1.2 * path.stat().st_size  # the file buffer, not also a copy of each payload
    assert all(arr.flags.writeable for arr in arrays)


def test_writer_appends_a_file_layout_array_as_a_view_and_copies_the_others():
    from spectralmae.optim import AdamW
    from spectralmae.raster import Writer

    params = SpectralCubeAutoencoder(ModelConfig.tiny(), CounterRng(0)).parameters()
    AdamW(params)  # parameters live in the optimizer's arena, as they do when a run saves
    w = Writer()
    for _, p in params.items():
        w.array(p.data)
        assert np.shares_memory(w.parts[-1], p.data)
    arr = CounterRng(1).normal_array((6, 8)).astype(np.float32)
    for other in (arr.astype(">f4"), arr[:, ::2]):
        w.array(other)
        part = w.parts[-1]
        assert part.dtype.str == "<f4" and part.flags.c_contiguous
        assert not np.shares_memory(part, other)
        assert part.tobytes() == struct.pack(f"<{other.size}f", *other.ravel().tolist())


# ---------------------------------------------------------------- normalize / resize

def test_normalize_midpoint():
    img = SpectralImage(np.full((2, 2, 1), 1.0, np.float32), ["B1"])
    out = normalize_bands(img, [0.0], [2.0])
    assert np.allclose(out.values, 0.5)


def test_normalize_clips_below_min():
    img = SpectralImage(np.full((2, 2, 1), -5.0, np.float32), ["B1"])
    out = normalize_bands(img, [0.0], [2.0])
    assert np.allclose(out.values, 0.0)


def test_normalize_constant_band_warns(caplog):
    img = SpectralImage(np.full((2, 2, 1), 3.0, np.float32), ["B1"])
    with caplog.at_level("WARNING"):
        out = normalize_bands(img, [3.0], [3.0])
    assert np.allclose(out.values, 0.0)
    assert any("min == max" in rec.message for rec in caplog.records)


def test_normalize_idempotent_on_unit_range():
    img = SpectralImage(CounterRng(2).uniform_array((8, 8, 3)).astype(np.float32),
                        ["B1", "B2", "B3"])
    out = normalize_bands(img, [0.0] * 3, [1.0] * 3)
    assert np.allclose(out.values, img.values, atol=1e-7)


def test_resample_bilinear_constant_and_ramp():
    const = np.full((4, 4, 2), 7.0)
    assert np.allclose(resample_bilinear(const, 8, 8), 7.0)
    ramp = np.arange(4, dtype=np.float64)[:, None, None] * np.ones((1, 4, 1))
    up = resample_bilinear(ramp, 7, 4)
    assert np.allclose(up[:, 0, 0], np.linspace(0, 3, 7))


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_resample_bilinear_keeps_the_bits_of_the_formula(dtype):
    values = CounterRng(3).normal_array((5, 7, 3)).astype(dtype)
    before = values.copy()
    ys, xs = np.linspace(0, 4, 11), np.linspace(0, 6, 4)
    y0, x0 = np.floor(ys).astype(np.int64), np.floor(xs).astype(np.int64)
    y1, x1 = np.minimum(y0 + 1, 4), np.minimum(x0 + 1, 6)
    wy, wx = (ys - y0)[:, None, None], (xs - x0)[None, :, None]
    top = values[np.ix_(y0, x0)] * (1 - wx) + values[np.ix_(y0, x1)] * wx
    bot = values[np.ix_(y1, x0)] * (1 - wx) + values[np.ix_(y1, x1)] * wx
    want = (top * (1 - wy) + bot * wy).astype(dtype)
    got = resample_bilinear(values, 11, 4)
    assert got.dtype == dtype and got.tobytes() == want.tobytes()
    assert values.tobytes() == before.tobytes()


# ---------------------------------------------------------------- manifest

def _tiny_manifest(tmp_path, n=10):
    spec = SyntheticSpec(height=16, width=16, bands=3, classes=2, n_images=n, seed=5)
    return generate_synthetic(spec, "classify", tmp_path / "ds")


def test_manifest_roundtrip_and_existence_check(tmp_path):
    path = _tiny_manifest(tmp_path)
    manifest = load_manifest(path)
    assert manifest.task == "classify"
    assert len(manifest.samples) == 10
    assert all(os.path.exists(s["raster"]) for s in manifest.samples)


def test_manifest_unknown_keys_rejected(tmp_path):
    path = _tiny_manifest(tmp_path)
    doc = json.loads(open(path).read())
    doc["surprise"] = 1
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    with pytest.raises(FormatError):
        load_manifest(bad)


def test_manifest_missing_file_rejected(tmp_path):
    path = _tiny_manifest(tmp_path)
    doc = json.loads(open(path).read())
    doc["samples"][0]["raster"] = "does_not_exist.spgr"
    bad = tmp_path / "ds" / "bad.json"
    bad.write_text(json.dumps(doc))
    with pytest.raises(DataError):
        load_manifest(bad)


def _manifest_with(doc, **changes):
    doc = {**doc, **changes}
    return json.dumps({k: v for k, v in doc.items() if v is not None}).encode("utf-8")


def _sample_with(doc, task=None, **values):
    """`doc` with one sample: its first raster plus `values`, for `task` if given."""
    return _manifest_with(doc, task=task or doc["task"],
                          samples=[{"raster": doc["samples"][0]["raster"], **values}])


@pytest.mark.parametrize("corrupt,key", [
    (lambda doc: _manifest_with(doc).replace(b'"B1"', b'"B\xff"'), "UTF-8"),
    (lambda doc: _manifest_with(doc, samples=5), "samples"),
    (lambda doc: _manifest_with(doc, band_min=None), "band_min"),
    (lambda doc: _manifest_with(doc, samples=[{**doc["samples"][0], "raster": 5}]),
     "samples[0].raster"),
    (lambda doc: _manifest_with(doc, split_seed="x"), "split_seed"),
    (lambda doc: _manifest_with(doc, split_seed=1.5), "split_seed"),
    (lambda doc: _manifest_with(doc, class_names="abc"), "class_names"),
    (lambda doc: _manifest_with(doc, band_mean=[1, "a"]), "band_mean"),
    (lambda doc: _manifest_with(doc, schema_version="1"), "schema_version"),
    (lambda doc: _sample_with(doc, label=1.7), "samples[0].label"),
    (lambda doc: _sample_with(doc, label="x"), "samples[0].label"),
    (lambda doc: _sample_with(doc, label=True), "samples[0].label"),
    (lambda doc: _sample_with(doc, label=2), "samples[0].label"),
    (lambda doc: _sample_with(doc, "multilabel", labels=[1, 2]), "samples[0].labels"),
    (lambda doc: _sample_with(doc, "multilabel", labels=[1]), "samples[0].labels"),
    (lambda doc: _sample_with(doc, "multilabel", labels=[1, 0.0]), "samples[0].labels"),
    (lambda doc: _sample_with(doc, "multilabel", labels=[True, False]), "samples[0].labels"),
    (lambda doc: _sample_with(doc, "multilabel", labels="10"), "samples[0].labels"),
], ids=["non_utf8", "samples_not_a_list", "missing_required_key", "non_string_raster_path",
        "split_seed_str", "split_seed_float", "class_names_str", "band_mean_str_item",
        "schema_version_str", "label_float", "label_str", "label_bool", "label_out_of_range",
        "labels_not_binary", "labels_short", "labels_float_item", "labels_bool",
        "labels_str"])
def test_manifest_malformed_is_format_error(tmp_path, corrupt, key):
    path = _tiny_manifest(tmp_path)
    bad = tmp_path / "ds" / "bad.json"
    bad.write_bytes(corrupt(json.loads(open(path).read())))
    with pytest.raises(FormatError, match=re.escape(key)):
        load_manifest(bad)


@pytest.fixture(scope="module")
def fuzz_manifest(tmp_path_factory):
    spec = SyntheticSpec(height=4, width=4, bands=2, classes=2, n_images=2, seed=5)
    return generate_synthetic(spec, "classify", tmp_path_factory.mktemp("manifest"))


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_corrupt_or_truncated_manifest_loads_or_raises_package_error(fuzz_manifest, data):
    with open(fuzz_manifest, "rb") as fh:
        blob = bytearray(fh.read())
    if data.draw(st.booleans(), label="truncate"):
        blob = blob[:data.draw(st.integers(0, len(blob) - 1), label="length")]
    else:
        for _ in range(data.draw(st.integers(1, 3), label="flips")):
            at = data.draw(st.integers(0, len(blob) - 1), label="offset")
            blob[at] ^= data.draw(st.integers(1, 255), label="mask")
    # beside the original, so the rasters it names resolve
    with tempfile.NamedTemporaryFile("wb", suffix=".json", dir=os.path.dirname(fuzz_manifest),
                                     delete=False) as fh:
        fh.write(bytes(blob))
    try:
        load_manifest(fh.name)
    except (FormatError, DataError):
        pass


def test_split_disjoint_union_and_determinism(tmp_path):
    manifest = load_manifest(_tiny_manifest(tmp_path))
    train, val = split(manifest, (0.8, 0.2), seed=3)
    assert len(train.samples) == 8 and len(val.samples) == 2
    paths = lambda m: {s["raster"] for s in m.samples}
    assert not paths(train) & paths(val)
    assert paths(train) | paths(val) == paths(manifest)
    train2, val2 = split(manifest, (0.8, 0.2), seed=3)
    assert paths(train2) == paths(train)


def test_split_empty_side_rejected(tmp_path):
    manifest = load_manifest(_tiny_manifest(tmp_path, n=3))
    with pytest.raises(DataError):
        split(manifest, (1.0, 0.0), seed=0)


@pytest.mark.parametrize("fractions", [(-0.25, 1.25), (1.25, -0.25)])
def test_split_fraction_outside_unit_interval_rejected(tmp_path, fractions):
    manifest = load_manifest(_tiny_manifest(tmp_path, n=16))
    with pytest.raises(DataError, match="must be in"):
        split(manifest, fractions, seed=0)


@pytest.mark.parametrize("key", ["band_mean", "band_std"])
def test_manifest_band_stats_hold_none_or_one_per_band(tmp_path, key):
    path = _tiny_manifest(tmp_path)
    doc = json.loads(open(path).read())
    bad = tmp_path / "ds" / "bad.json"
    for entries, ok in ((0, True), (3, True), (1, False), (4, False)):
        bad.write_bytes(_manifest_with(doc, **{key: [0.5] * entries}))
        if ok:
            assert getattr(load_manifest(bad), key) == [0.5] * entries
        else:
            with pytest.raises(DataError, match=f"manifest {key} has {entries} entries for 3"):
                load_manifest(bad)


# ---------------------------------------------------------------- synthetic

# sha256 over every file `generate_synthetic` writes for the five tasks of
# one small spec, fed as "<task>/<file name>" then the file's bytes, in
# task and then file name order
SYNTHETIC_SHA256 = "72052fdcf258083a13049e048b723282ae92dd81c8b3ba176ed5e18e699c3efc"


def test_synthetic_bytes_are_pinned(tmp_path):
    spec = dict(height=20, width=28, bands=5, n_images=7, seed=9)
    digest = hashlib.sha256()
    for task in ("pretrain", "classify", "multilabel", "segment", "change"):
        generate_synthetic(SyntheticSpec(**spec), task, tmp_path / task)
        for name in sorted(os.listdir(tmp_path / task)):
            digest.update(f"{task}/{name}".encode())
            digest.update((tmp_path / task / name).read_bytes())
    assert digest.hexdigest() == SYNTHETIC_SHA256


def test_synthetic_deterministic_bytes(tmp_path):
    spec = SyntheticSpec(height=16, width=16, bands=4, classes=2, n_images=4, seed=9)
    p1 = generate_synthetic(spec, "classify", tmp_path / "a")
    p2 = generate_synthetic(spec, "classify", tmp_path / "b")
    for name in sorted(os.listdir(tmp_path / "a")):
        b1 = (tmp_path / "a" / name).read_bytes()
        b2 = (tmp_path / "b" / name).read_bytes()
        assert b1 == b2, name


@pytest.mark.parametrize("height,width", [(5, 16), (16, 5)])
def test_synthetic_change_smallest_image(tmp_path, height, width):
    # a changed rectangle is at least 4 x 4 and must start inside the image
    spec = SyntheticSpec(height=height, width=width, bands=2, n_images=3, seed=4)
    manifest = load_manifest(generate_synthetic(spec, "change", tmp_path / "ch"))
    assert len(manifest.samples) == 3


@pytest.mark.parametrize("rho", [0.0, 0.5, 0.9])
def test_synthetic_interband_correlation(tmp_path, rho):
    spec = SyntheticSpec(height=64, width=64, bands=6, classes=1, n_images=8,
                         rho=rho, noise_std=0.0, seed=11)
    manifest = load_manifest(generate_synthetic(spec, "pretrain", tmp_path / f"r{rho}"))
    rs = []
    for sample in manifest.samples:
        vals = read_raster(sample["raster"]).values.reshape(-1, 6)
        corr = np.corrcoef(vals.T)
        rs.extend(corr[i, j] for i in range(6) for j in range(i + 1, 6))
    assert abs(float(np.mean(rs)) - rho) <= 0.05


def test_synthetic_rho_one_perfect_correlation(tmp_path):
    spec = SyntheticSpec(height=32, width=32, bands=4, classes=1, n_images=2,
                         rho=1.0, noise_std=0.0, seed=13)
    manifest = load_manifest(generate_synthetic(spec, "pretrain", tmp_path / "r1"))
    vals = read_raster(manifest.samples[0]["raster"]).values.reshape(-1, 4)
    corr = np.corrcoef(vals.T)
    assert np.allclose(corr, 1.0, atol=1e-4)


def test_synthetic_classify_nearest_centroid_oracle(tmp_path):
    spec = SyntheticSpec(height=32, width=32, bands=6, classes=3, n_images=30,
                         noise_std=0.0, seed=17)
    manifest = load_manifest(generate_synthetic(spec, "classify", tmp_path / "c"))
    sig = np.asarray(spec.signatures)
    correct = 0
    for sample in manifest.samples:
        means = read_raster(sample["raster"]).values.reshape(-1, 6).mean(axis=0)
        pred = int(np.argmin(((sig - means) ** 2).sum(axis=1)))
        correct += pred == sample["label"]
    assert correct == len(manifest.samples)


def test_synthetic_multilabel_labels_valid(tmp_path):
    spec = SyntheticSpec(height=16, width=16, bands=4, classes=4, n_images=12, seed=19)
    manifest = load_manifest(generate_synthetic(spec, "multilabel", tmp_path / "m"))
    for sample in manifest.samples:
        labels = sample["labels"]
        assert len(labels) == 4 and set(labels) <= {0, 1} and sum(labels) >= 1


def test_synthetic_segment_masks_match_classes(tmp_path):
    spec = SyntheticSpec(height=16, width=16, bands=4, classes=3, n_images=4, seed=21)
    manifest = load_manifest(generate_synthetic(spec, "segment", tmp_path / "s"))
    for sample in manifest.samples:
        mask = read_raster(sample["mask"]).values[:, :, 0]
        assert mask.shape == (16, 16)
        assert set(np.unique(mask)) <= {0.0, 1.0, 2.0}


def test_synthetic_change_pairs_differ_only_in_mask(tmp_path):
    spec = SyntheticSpec(height=32, width=32, bands=4, classes=3, n_images=4,
                         noise_std=0.0, seed=23)
    manifest = load_manifest(generate_synthetic(spec, "change", tmp_path / "ch"))
    for sample in manifest.samples:
        a = read_raster(sample["raster_a"]).values
        b = read_raster(sample["raster_b"]).values
        mask = read_raster(sample["mask"]).values[:, :, 0]
        changed = np.any(a != b, axis=2)
        assert not np.any(changed & (mask == 0.0))
        assert changed[mask == 1.0].mean() > 0.9  # rectangles genuinely changed
