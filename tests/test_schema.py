import json

import pytest

from spectralmae.errors import ConfigError, FormatError
from spectralmae.finetune import FinetuneConfig
from spectralmae.manifest import DatasetManifest, load_manifest
from spectralmae.model import PRESETS, ModelConfig
from spectralmae.objective import ObjectiveConfig
from spectralmae.schema import from_doc, read_doc, to_doc
from spectralmae.synthetic import SyntheticSpec
from spectralmae.training import EpochRecord

_MANIFEST = DatasetManifest(
    task="multilabel", samples=[{"raster": "a.spgr", "labels": [1, 0]}],
    band_names=["B1", "B2"], band_min=[0.0, -1.5], band_max=[1.0, 2.0],
    band_mean=[0.25, 0.5], band_std=[0.125, 0.75], class_names=["water", "crop"],
    split_seed=7, schema_version=1)


@pytest.mark.parametrize("obj,fixed", [
    *((ModelConfig(**PRESETS[name]), {}) for name in sorted(PRESETS)),
    (ObjectiveConfig(lam=0.5, token_loss_scope="masked_only", target_mode="raw"), {}),
    (FinetuneConfig(epochs=3, lr=1e-3, split_fractions=(0.75, 0.25), crop=8, seed=4),
     {"seed": 4}),
    (SyntheticSpec(height=8, width=8, bands=3, classes=2, n_images=2, seed=3), {}),
    (_MANIFEST, {}),
], ids=[*(f"model_{name}" for name in sorted(PRESETS)), "objective", "finetune", "synth",
        "manifest"])
def test_to_doc_from_doc_round_trips_through_json(obj, fixed):
    doc = json.loads(json.dumps(to_doc(obj, omit=fixed)))
    assert from_doc(type(obj), doc, "", **fixed) == obj


_DOC = to_doc(_MANIFEST)


def _read_spec(path):
    return read_doc(SyntheticSpec, path)


@pytest.mark.parametrize("read,doc,error,message", [
    (load_manifest, [1, 2], FormatError, "manifest must be a JSON object, not [1, 2]"),
    (load_manifest, {"schema_version": 1, "bogus": 2}, FormatError,
     "unknown manifest keys: bogus"),
    (load_manifest, {k: v for k, v in _DOC.items() if k != "task"}, FormatError,
     "manifest task is required"),
    (load_manifest, {**_DOC, "split_seed": "7"}, FormatError,
     "manifest split_seed must be int, not '7'"),
    (load_manifest, {**_DOC, "schema_version": 2}, FormatError,
     "unsupported manifest schema version 2"),
    (load_manifest, {**_DOC, "samples": [{"raster": 5, "labels": [1, 0]}]}, FormatError,
     "manifest samples[0].raster must be str, not 5"),
    (load_manifest, {**_DOC, "samples": [{"raster": "a.spgr", "labels": [1, 2]}]}, FormatError,
     "manifest samples[0].labels [1, 2] must hold one 0 or 1 per class"),
    (_read_spec, [1, 2], ConfigError, "config must be a JSON object, not [1, 2]"),
    (_read_spec, {"bogus": 1}, ConfigError, "unknown config keys: bogus"),
    (_read_spec, {"height": "8"}, ConfigError, "config height must be int, not '8'"),
], ids=["manifest_list", "manifest_unknown_key", "manifest_missing_key", "manifest_mistyped",
        "manifest_version", "manifest_sample_mistyped", "manifest_sample_labels", "config_list",
        "config_unknown_key", "config_mistyped"])
def test_a_bad_document_file_is_named_in_the_error(tmp_path, read, doc, error, message):
    (tmp_path / "a.spgr").write_bytes(b"")  # the sample raster need only exist
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(error) as exc:
        read(path)
    assert str(exc.value) == f"{message} (in {path})"


@pytest.mark.parametrize("cls,doc,path,what,message", [
    (EpochRecord, [1, 2], "", "record", "record must be a JSON object, not [1, 2]"),
    (ModelConfig, 5, "model", "config", "config model must be a JSON object, not 5"),
], ids=["record", "section"])
def test_a_document_that_is_no_file_is_named_by_its_kind(cls, doc, path, what, message):
    with pytest.raises(ConfigError) as exc:
        from_doc(cls, doc, path, what)
    assert str(exc.value) == message
