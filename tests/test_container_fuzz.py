"""Every truncation and every single-byte flip of a valid checkpoint or
feature file either loads or raises ConfigError/ParseError (exit 2)."""

import tempfile
from pathlib import Path

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from spdhgr.errors import ConfigError, ParseError
from spdhgr.optim import load_checkpoint, save_checkpoint
from spdhgr.svm import load_features, save_features

finite = st.floats(allow_nan=False, allow_infinity=False, width=64)
shapes = st.lists(st.integers(0, 3), min_size=0, max_size=3).map(tuple)


@st.composite
def tensor_dicts(draw):
    names = draw(st.lists(st.text(min_size=0, max_size=4), min_size=1, max_size=3,
                          unique=True))
    tensors = {}
    for name in names:
        shape = draw(shapes)
        values = draw(st.lists(finite, min_size=int(np.prod(shape)),
                               max_size=int(np.prod(shape))))
        tensors[name] = np.array(values, dtype=np.float64).reshape(shape)
    return tensors


@st.composite
def feature_sets(draw):
    n = draw(st.integers(0, 4))
    dim = draw(st.integers(0, 3))
    labels = draw(st.lists(st.integers(-5, 50), min_size=n, max_size=n))
    values = draw(st.lists(finite, min_size=n * dim, max_size=n * dim))
    return np.array(labels, dtype=np.int64), np.array(values).reshape(n, dim)


def _every_mutation(data: bytes, mask: int):
    for cut in range(len(data)):
        yield data[:cut]
    for pos in range(len(data)):
        yield data[:pos] + bytes([data[pos] ^ mask]) + data[pos + 1:]


def _check_mutations(write, load, mask):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "f.bin"
        write(path)
        original = path.read_bytes()
        for mutated in _every_mutation(original, mask):
            path.write_bytes(mutated)
            try:
                load(path)
            except (ConfigError, ParseError) as exc:
                assert str(path) in str(exc)


@settings(max_examples=30)
@given(tensor_dicts(), st.integers(1, 255))
def test_checkpoint_mutations_load_or_raise_config_error(tensors, mask):
    _check_mutations(lambda p: save_checkpoint(p, tensors), load_checkpoint, mask)


@settings(max_examples=30)
@given(feature_sets(), st.integers(1, 255))
def test_feature_file_mutations_load_or_raise(features, mask):
    labels, feats = features

    def load(path):
        got_labels, got_feats = load_features(path)
        assert got_labels.dtype == np.int64 and got_feats.dtype == np.float64
        assert got_feats.ndim == 2 and got_labels.shape == got_feats.shape[:1]

    _check_mutations(lambda p: save_features(p, labels, feats), load, mask)


@settings(max_examples=30)
@given(feature_sets())
def test_feature_file_roundtrip_bitwise(features):
    labels, feats = features
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "f.features"
        save_features(path, labels, feats)
        got_labels, got_feats = load_features(path)
        assert np.array_equal(got_labels, labels)
        assert got_feats.shape == feats.shape
        assert got_feats.tobytes() == feats.tobytes()
