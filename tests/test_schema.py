import json

import pytest

from spectralmae.finetune import FinetuneConfig
from spectralmae.manifest import DatasetManifest
from spectralmae.model import PRESETS, ModelConfig
from spectralmae.objective import ObjectiveConfig
from spectralmae.schema import from_doc, to_doc
from spectralmae.synthetic import SyntheticSpec

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
