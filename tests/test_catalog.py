"""File formats and core containers: round-trips, validation, and the
error paths that keep bad data out of the pipeline."""

import struct

import numpy as np
import pytest

from stylemetric import cli
from stylemetric.catalog import (CategoryMap, DataError, FeatureMatrix,
                                 MetricModel, RelationGraph, UserTripleSet,
                                 canonical_pair, load_categories, load_edges,
                                 load_features, load_model, load_triples,
                                 normalize_rows, save_categories, save_edges, save_features,
                                 save_model, save_triples)
from stylemetric.sampling import load_pairs
from stylemetric.stylespace import load_embedding


@pytest.fixture
def features():
    rng = np.random.default_rng(0)
    ids = [f"item{i:03d}" for i in range(8)]
    return FeatureMatrix(ids, rng.standard_normal((8, 4)))


def test_canonical_pair_orders_lexicographically():
    assert canonical_pair("b", "a") == ("a", "b")
    assert canonical_pair("a", "b") == ("a", "b")


def test_feature_matrix_lookup(features):
    assert features.n_items == 8
    assert features.n_features == 4
    assert features.index_of("item003") == 3
    np.testing.assert_array_equal(features.row("item003"), features.values[3])
    with pytest.raises(DataError):
        features.index_of("nope")


def test_feature_matrix_rejects_duplicate_ids():
    with pytest.raises(DataError):
        FeatureMatrix(["a", "a"], np.zeros((2, 2)))


def test_feature_matrix_rejects_shape_mismatch():
    with pytest.raises(DataError):
        FeatureMatrix(["a", "b", "c"], np.zeros((2, 2)))


def test_feature_matrix_rejects_nonfinite():
    vals = np.zeros((2, 2))
    vals[1, 1] = np.nan
    with pytest.raises(DataError):
        FeatureMatrix(["a", "b"], vals)


def test_l2_normalization(features):
    unit = normalize_rows(features.values, "l2_unit")
    norms = np.linalg.norm(unit, axis=1)
    np.testing.assert_allclose(norms, 1.0, rtol=1e-12)
    assert normalize_rows(features.values, "none") is features.values


def test_normalizing_some_rows_equals_those_rows_of_the_whole():
    rng = np.random.default_rng(21)
    values = rng.standard_normal((5000, 128)) * np.exp(
        rng.uniform(np.log(1e-3), np.log(1e3), (5000, 1)))
    values[17] = 0.0
    whole = normalize_rows(values, "l2_unit")
    for rows in (np.array([17, 4999, 0, 17, 2500]), rng.choice(5000, 501, replace=False)):
        assert np.array_equal(normalize_rows(values[rows], "l2_unit"), whole[rows])
    assert normalize_rows(values, "none") is values
    with pytest.raises(ValueError):
        normalize_rows(values, "max_unit")


def test_features_text_roundtrip(tmp_path, features):
    p = tmp_path / "f.tsv"
    save_features(features, p)
    back = load_features(p)
    assert back.item_ids == features.item_ids
    np.testing.assert_array_equal(back.values, features.values)


def test_features_binary_roundtrip_is_exact(tmp_path):
    rng = np.random.default_rng(1)
    # awkward values that decimal formatting tends to mangle
    vals = np.concatenate([rng.standard_normal((3, 5)) * 1e-17,
                           rng.standard_normal((3, 5)) * 1e17])
    feats = FeatureMatrix([f"i{i}" for i in range(6)], vals)
    p = tmp_path / "f.bin"
    save_features(feats, p, binary=True)
    back = load_features(p)
    assert np.array_equal(back.values, vals)


def test_features_text_roundtrip_is_exact_via_repr(tmp_path):
    rng = np.random.default_rng(2)
    feats = FeatureMatrix(["a", "b"], rng.standard_normal((2, 3)))
    p = tmp_path / "f.tsv"
    save_features(feats, p)
    assert np.array_equal(load_features(p).values, feats.values)


def test_load_features_rejects_garbage(tmp_path):
    p = tmp_path / "bad.tsv"
    p.write_text("#features 2 2\na\t1.0\t2.0\nb\t3.0\n")
    with pytest.raises(DataError) as e:
        load_features(p)
    assert ":3:" in str(e.value)  # failure names the offending line
    # sizes no array can have, on a header with no rows to check them against
    for text in ("#features -1 2\n", "#features 0 -2\n", f"#features 0 {2**64}\n"):
        p.write_text(text)
        with pytest.raises(DataError):
            load_features(p)


@pytest.mark.parametrize("load, text", [
    (load_features, "#features 1 1\n\xff\t1.0\n"),
    (load_edges, "a\tb\talso_bought\n\xff\tb\talso_bought\n"),
    (load_triples, "a\tb\tu1\n\xff\tb\tu1\n"),
    (load_categories, "a\ttop\n\xff\ttop\n"),
    (lambda p: load_pairs(p, FeatureMatrix(["a", "b"], np.zeros((2, 1)))),
     "#partition all\n\xff\tb\trelated\n"),
    (load_embedding, "#style 1 1\n\xff\t1.0\n"),
    (cli._read_id_list, "a\n\xff\n"),
], ids=["features", "edges", "triples", "categories", "pairs", "embedding", "id_list"])
def test_text_loaders_reject_bytes_that_are_not_utf8(tmp_path, load, text):
    p = tmp_path / "bad.tsv"
    p.write_bytes(text.encode("latin-1"))
    with pytest.raises(DataError) as e:
        load(p)
    assert ":2:" in str(e.value)


def test_failed_write_leaves_the_old_file(tmp_path, features):
    """An id that is not a string fails each writer after it has written
    part of the file; the file already there must survive unchanged."""
    broken = FeatureMatrix(features.item_ids[:4] + [4] + features.item_ids[5:],
                           features.values)
    for binary, error in ((False, TypeError), (True, AttributeError)):
        p = tmp_path / f"f-{binary}.out"
        save_features(features, p, binary=binary)
        before = p.read_bytes()
        with pytest.raises(error):
            save_features(broken, p, binary=binary)
        assert p.read_bytes() == before
    assert sorted(q.name for q in tmp_path.iterdir()) == ["f-False.out", "f-True.out"]


def _smf1_header(n_items, n_features):
    """A binary feature file that declares N x F but holds one 1-byte id and
    8 payload bytes."""
    return (b"SMF1" + struct.pack("<QQ", n_items, n_features)
            + struct.pack("<I", 1) + b"a" + bytes(8))


def _smm1_header(kind, n_features, rank):
    """A model file whose header declares F x K but holds no transform."""
    raw = kind.encode("ascii")
    return (b"SMM1" + struct.pack("<II", 1, len(raw)) + raw
            + struct.pack("<QQdI", n_features, rank, 1.0, 2) + b"{}")


def _smf1_one_id(raw_id):
    """A 1 x 1 binary feature file whose one id is raw_id."""
    return (b"SMF1" + struct.pack("<QQ", 1, 1) + struct.pack("<I", len(raw_id))
            + raw_id + struct.pack("<d", 1.0))


def _smm1_low_rank(kind=b"low_rank", metadata=b"{}"):
    """A 2 x 1 low_rank model file with the given raw kind and metadata."""
    return (b"SMM1" + struct.pack("<II", 1, len(kind)) + kind
            + struct.pack("<QQdI", 2, 1, 1.0, len(metadata)) + metadata
            + struct.pack("<ddB", 0.5, -0.5, 0))


def test_load_features_binary_rejects_an_id_that_is_not_utf8(tmp_path):
    p = tmp_path / "f.bin"
    p.write_bytes(_smf1_one_id(b"a"))
    assert load_features(p).item_ids == ["a"]
    p.write_bytes(_smf1_one_id(b"\xff"))
    with pytest.raises(DataError):
        load_features(p)


def test_load_features_binary_truncation(tmp_path, features):
    p = tmp_path / "f.bin"
    save_features(features, p, binary=True)
    blob = p.read_bytes()
    p.write_bytes(blob[:-7])
    with pytest.raises(DataError):
        load_features(p)
    # Declared sizes far beyond the file are rejected before any read, and
    # so is an empty payload of a shape no array can have.
    for n_items, n_features in ((1, 2**61), (1, 2**47), (2**47, 1), (0, 2**62)):
        p.write_bytes(_smf1_header(n_items, n_features))
        with pytest.raises(DataError):
            load_features(p)


def test_load_edges_canonicalizes_and_counts(tmp_path):
    p = tmp_path / "e.tsv"
    p.write_text("b\ta\talso_bought\n"    # reversed
                 "a\tb\talso_bought\n"    # duplicate once canonicalized
                 "c\tc\talso_bought\n"    # self edge
                 "a\tc\tbought_together\n")
    g = load_edges(p)
    assert g.n_edges == 2
    assert g.duplicate_edges == 1
    assert g.dropped_self_edges == 1
    assert g.reversed_edges == 1
    assert ("a", "b", "also_bought") in g.edges
    assert ("a", "b") in g.pairs()


def test_relation_graph_rejects_unknown_class():
    with pytest.raises(DataError):
        RelationGraph({("a", "b", "viewed_twice")})


def test_relation_graph_rejects_noncanonical_edges():
    with pytest.raises(DataError):
        RelationGraph({("b", "a", "also_bought")})
    with pytest.raises(DataError):
        RelationGraph({("a", "a", "also_bought")})


def test_edges_roundtrip(tmp_path, features):
    g = RelationGraph({("item000", "item001", "also_bought"),
                       ("item002", "item003", "bought_together")})
    p = tmp_path / "e.tsv"
    save_edges(g, p)
    back = load_edges(p)
    assert set(back.pairs()) == set(g.pairs())


def test_load_edges_class_filter(tmp_path):
    p = tmp_path / "e.tsv"
    p.write_text("a\tb\talso_bought\na\tc\talso_viewed\n")
    g = load_edges(p, class_filter=["also_bought"])
    assert g.edges == {("a", "b", "also_bought")}
    with pytest.raises(DataError):
        load_edges(p, class_filter=["not_a_class"])


def test_load_edges_validates_endpoints(tmp_path, features):
    p = tmp_path / "e.tsv"
    p.write_text("item000\tghost\talso_bought\n")
    with pytest.raises(DataError):
        load_edges(p, features=features)


def test_load_edges_reports_line_numbers(tmp_path):
    p = tmp_path / "e.tsv"
    p.write_text("a\tb\talso_bought\njust-one-field\n")
    with pytest.raises(DataError) as e:
        load_edges(p)
    assert "2" in str(e.value)


def test_triples_roundtrip(tmp_path):
    t = UserTripleSet({("a", "b", "u1"), ("b", "c", "u2")})
    p = tmp_path / "t.tsv"
    save_triples(t, p)
    back = load_triples(p)
    assert back.triples == t.triples
    assert back.user_ids() == ["u1", "u2"]


def test_load_triples_canonicalizes(tmp_path):
    p = tmp_path / "t.tsv"
    p.write_text("z\ta\tu9\n")
    back = load_triples(p)
    assert back.triples == {("a", "z", "u9")}


def test_categories_roundtrip(tmp_path):
    c = CategoryMap({"a": "pants", "b": "shirts", "c": "pants"})
    p = tmp_path / "c.tsv"
    save_categories(c, p)
    back = load_categories(p)
    assert back.category("a") == "pants"
    assert back.items_in("pants") == ["a", "c"]
    assert back.categories() == ["pants", "shirts"]
    with pytest.raises(DataError):
        back.category("zzz")


class TestMetricModel:
    def test_rank_property(self):
        m = MetricModel("low_rank", np.zeros((6, 2)), 1.0)
        assert m.rank == 2
        assert m.n_features == 6
        w = MetricModel("weighted_nn", np.ones(5), 1.0)
        assert w.rank == 5

    def test_rejects_bad_kind(self):
        with pytest.raises(DataError):
            MetricModel("cosine", np.zeros((2, 2)), 1.0)

    def test_rejects_negative_user_weights(self):
        with pytest.raises(DataError):
            MetricModel("personalized", np.zeros((4, 2)), 1.0,
                        user_ids=["u"], user_weights=np.array([[1.0, -1.0]]))

    def test_user_index(self):
        m = MetricModel("personalized", np.zeros((4, 2)), 1.0,
                        user_ids=["u1", "u2"], user_weights=np.ones((2, 2)))
        assert m.user_index("u2") == 1
        with pytest.raises(DataError):
            m.user_index("u3")

    def test_model_roundtrip_low_rank(self, tmp_path):
        rng = np.random.default_rng(3)
        m = MetricModel("low_rank", rng.standard_normal((7, 3)), 0.625,
                        metadata={"feature_norm": "l2_unit", "note": "x"})
        p = tmp_path / "m.bin"
        save_model(m, p)
        back = load_model(p)
        assert back.kind == "low_rank"
        assert np.array_equal(back.transform, m.transform)
        assert back.threshold == m.threshold
        assert back.metadata == m.metadata
        assert back.feature_norm == "l2_unit"

    def test_model_roundtrip_weighted(self, tmp_path):
        rng = np.random.default_rng(4)
        m = MetricModel("weighted_nn", rng.uniform(0, 1, 9), 2.0)
        p = tmp_path / "m.bin"
        save_model(m, p)
        back = load_model(p)
        assert back.kind == "weighted_nn"
        assert np.array_equal(back.transform, m.transform)

    def test_model_roundtrip_personalized(self, tmp_path):
        rng = np.random.default_rng(5)
        m = MetricModel("personalized", rng.standard_normal((5, 2)), 1.5,
                        user_ids=["alice", "bob"],
                        user_weights=rng.uniform(0, 3, (2, 2)))
        p = tmp_path / "m.bin"
        save_model(m, p)
        back = load_model(p)
        assert back.user_ids == ["alice", "bob"]
        assert np.array_equal(back.user_weights, m.user_weights)

    def test_model_with_duplicate_user_ids_is_rejected(self, tmp_path):
        with pytest.raises(DataError):
            MetricModel("personalized", np.ones((3, 2)), 1.0,
                        user_ids=["u", "u"], user_weights=np.ones((2, 2)))
        m = MetricModel("personalized", np.ones((3, 2)), 1.0,
                        user_ids=["u", "v"], user_weights=np.ones((2, 2)))
        m.user_ids = ["u", "u"]  # a file the writer would never produce
        p = tmp_path / "m.bin"
        save_model(m, p)
        with pytest.raises(DataError):
            load_model(p)

    def test_model_bad_magic(self, tmp_path):
        p = tmp_path / "m.bin"
        p.write_bytes(b"NOPE" + b"\x00" * 64)
        with pytest.raises(DataError):
            load_model(p)

    def test_model_truncation(self, tmp_path):
        rng = np.random.default_rng(6)
        m = MetricModel("low_rank", rng.standard_normal((4, 2)), 1.0)
        p = tmp_path / "m.bin"
        save_model(m, p)
        p.write_bytes(p.read_bytes()[:-5])
        with pytest.raises(DataError):
            load_model(p)
        # Declared sizes far beyond the file are rejected before any read,
        # and so is an empty transform of a shape no array can have.
        for kind, n_features, rank in (("weighted_nn", 2**62, 2**62),
                                       ("low_rank", 2**47, 1),
                                       ("low_rank", 2**62, 4),
                                       ("low_rank", 0, 2**62)):
            p.write_bytes(_smm1_header(kind, n_features, rank))
            with pytest.raises(DataError):
                load_model(p)

    @pytest.mark.parametrize("kind, metadata", [
        (b"low_r\xe9nk", b"{}"),
        ("löw_rank".encode(), b"{}"),
        (b"low_rank", b'{"\xff": 1}'),
        (b"low_rank", b"[]"),
        (b"low_rank", b"{not json"),
        (b"low_rank", b'{"feature_norm": "zzz"}'),
    ], ids=["kind_not_utf8", "kind_not_ascii", "metadata_not_utf8",
            "metadata_not_an_object", "metadata_not_json", "unknown_feature_norm"])
    def test_model_rejects_bad_kind_or_metadata(self, tmp_path, kind, metadata):
        p = tmp_path / "m.bin"
        p.write_bytes(_smm1_low_rank())
        assert load_model(p).feature_norm == "none"
        p.write_bytes(_smm1_low_rank(kind, metadata))
        with pytest.raises(DataError):
            load_model(p)

    def test_model_trailing_bytes(self, tmp_path):
        rng = np.random.default_rng(7)
        m = MetricModel("low_rank", rng.standard_normal((4, 2)), 1.0)
        p = tmp_path / "m.bin"
        save_model(m, p)
        p.write_bytes(p.read_bytes() + b"junk")
        with pytest.raises(DataError):
            load_model(p)
