"""Damaged input files: each loader, given a file its own writer produced
and then truncated, bit-flipped or overwritten, either loads it or raises
DataError, never any other exception."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from stylemetric.catalog import (RELATION_CLASSES, DataError, FeatureMatrix,
                                 MetricModel, RelationGraph, UserTripleSet, load_edges,
                                 load_features, load_model, load_triples,
                                 save_edges, save_features, save_model,
                                 save_triples)
from stylemetric.sampling import LabeledPairSet, load_pairs, save_pairs
from stylemetric.stylespace import load_embedding, save_embedding

IDS = ["a", "b", "c", "d"]
FEATURES = FeatureMatrix(IDS, np.arange(12.0).reshape(4, 3) / 7)

# name -> (write a small valid file to a path, load a path)
FORMATS = {
    "features_text": (lambda p: save_features(FEATURES, p), load_features),
    "features_binary": (lambda p: save_features(FEATURES, p, binary=True), load_features),
    "edges": (lambda p: save_edges(RelationGraph(
                  ["a", "b", "d"], [[0, 1], [1, 2]],
                  [RELATION_CLASSES.index("also_bought"),
                   RELATION_CLASSES.index("bought_together")]), p),
              load_edges),
    "triples": (lambda p: save_triples(UserTripleSet(IDS, [[0, 1], [2, 3]],
                                                     ["u1", "u2"], [0, 1]), p),
                load_triples),
    "pairs": (lambda p: save_pairs(LabeledPairSet(IDS, [[0, 1], [1, 2], [2, 3], [0, 3]],
                                                  [True, True, False, False], "train",
                                                  ["u1", "u2"], [0, 1, 1, 0]), p),
              lambda p: load_pairs(p, FEATURES)),
    "embedding": (lambda p: save_embedding(FeatureMatrix(IDS[:3], np.eye(3)[:, :2] - 0.5), p),
                  load_embedding),
    "model": (lambda p: save_model(MetricModel("personalized", np.arange(6.0).reshape(3, 2),
                                               0.5, ["u1", "u2"], np.ones((2, 2)),
                                               {"feature_norm": "l2_unit"}), p),
              load_model),
}


@pytest.fixture(scope="module")
def pristine(tmp_path_factory):
    """(scratch directory, name -> bytes of the intact file, which loads)."""
    root = tmp_path_factory.mktemp("formats")
    blobs = {}
    for name, (write, load) in FORMATS.items():
        path = root / name
        write(path)
        load(path)
        blobs[name] = path.read_bytes()
    return root, blobs


@st.composite
def damaged(draw, blob):
    """blob truncated at an offset, with one byte flipped, or with a slice
    (up to all of it) replaced by drawn bytes."""
    how = draw(st.sampled_from(("truncate", "flip", "replace")))
    at = draw(st.integers(0, len(blob) - 1))
    if how == "truncate":
        return blob[:at]
    if how == "flip":
        return blob[:at] + bytes([blob[at] ^ draw(st.integers(1, 255))]) + blob[at + 1:]
    end = draw(st.integers(at, len(blob)))
    return blob[:at] + draw(st.binary(max_size=64)) + blob[end:]


@pytest.mark.parametrize("name", sorted(FORMATS))
@given(data=st.data())
def test_damaged_file_loads_or_raises_data_error(pristine, name, data):
    root, blobs = pristine
    path = root / f"damaged-{name}"
    path.write_bytes(data.draw(damaged(blobs[name])))
    try:
        FORMATS[name][1](path)
    except DataError:
        pass
