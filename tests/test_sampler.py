"""Negative sampling, the three-way split, and the per-user dataset builder."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from stylemetric import sampling
from stylemetric.catalog import DataError, FeatureMatrix, RelationGraph, UserTripleSet
from stylemetric.sampling import (LabeledPairSet, TRAIN_POSITIVE_CAP,
                                  build_user_dataset, graph_to_pairs,
                                  load_pairs, sample_negatives, save_pairs,
                                  split)


def _features(n, f=3, seed=0):
    rng = np.random.default_rng(seed)
    return FeatureMatrix([f"i{k:04d}" for k in range(n)], rng.standard_normal((n, f)))


def _random_pos(n_items, m, seed):
    rng = np.random.default_rng(seed)
    keys = rng.choice(n_items * (n_items - 1) // 2, size=m, replace=False)
    # decode a triangular index into (i, j) with i < j
    pairs = []
    for key in keys:
        i = 0
        row = n_items - 1
        while key >= row:
            key -= row
            i += 1
            row -= 1
        pairs.append((i, i + 1 + key))
    return np.array(sorted(pairs), dtype=np.int64)


def _table(pos, neg, tag="all", item_ids=None, user_ids=None, pos_users=None,
           neg_users=None):
    """A LabeledPairSet from its related and unrelated halves."""
    if item_ids is None:
        item_ids = [str(k) for k in range(int(max(pos.max(), neg.max())) + 1)]
    users = None if user_ids is None else np.concatenate([pos_users, neg_users])
    return LabeledPairSet(item_ids, np.concatenate([pos, neg]),
                          np.repeat([True, False], [len(pos), len(neg)]), tag,
                          user_ids, users)


def _split_by_halves(pos_pairs, neg_pairs, seed, pos_users=None, neg_users=None):
    """split as it was over separate related and unrelated halves, kept as
    the oracle: {tag: (pos pairs, neg pairs, pos users, neg users)}."""
    m = len(pos_pairs)
    rng = np.random.default_rng(seed)
    pos_order = rng.permutation(m)
    neg_order = rng.permutation(m)
    n_val = int(m * 0.10)
    n_test = int(m * 0.10)
    n_train = min(m - n_val - n_test, sampling.TRAIN_POSITIVE_CAP)
    bounds = {
        "train": (0, n_train),
        "validation": (m - n_val - n_test, m - n_test),
        "test": (m - n_test, m),
    }
    out = {}
    for tag, (lo, hi) in bounds.items():
        p_sel, n_sel = pos_order[lo:hi], neg_order[lo:hi]
        out[tag] = (pos_pairs[p_sel], neg_pairs[n_sel],
                    None if pos_users is None else pos_users[p_sel],
                    None if neg_users is None else neg_users[n_sel])
    return out


def _assert_split_matches_halves(pos, neg, seed, pos_users=None, neg_users=None):
    user_ids = None if pos_users is None else ["a", "b", "c"]
    parts = split(_table(pos, neg, user_ids=user_ids, pos_users=pos_users,
                         neg_users=neg_users), seed)
    want = _split_by_halves(pos, neg, seed, pos_users, neg_users)
    assert set(parts) == set(want)
    for tag, (p, q, pu, nu) in want.items():
        ps = parts[tag]
        assert ps.partition == tag
        assert np.array_equal(ps.pairs, np.concatenate([p, q]))
        assert ps.labels.tolist() == [True] * len(p) + [False] * len(q)
        if pu is None:
            assert ps.users is None and ps.user_ids is None
        else:
            assert ps.user_ids == user_ids
            assert np.array_equal(ps.users, np.concatenate([pu, nu]))


def test_graph_to_pairs_orders_and_indexes():
    feats = _features(5)
    g = RelationGraph({("i0000", "i0002", "also_bought"),
                       ("i0001", "i0004", "bought_together")})
    pairs = graph_to_pairs(g, feats)
    assert pairs.tolist() == [[0, 2], [1, 4]]


def test_graph_to_pairs_rejects_unknown_endpoint():
    feats = _features(3)
    g = RelationGraph({("i0000", "zz", "also_bought")})
    with pytest.raises(DataError):
        graph_to_pairs(g, feats)


class TestSampleNegatives:
    def test_count_and_disjointness(self):
        pos = _random_pos(60, 200, seed=1)
        neg = sample_negatives(pos, 60, seed=2)
        assert neg.shape == pos.shape
        pos_set = {tuple(p) for p in pos.tolist()}
        neg_set = {tuple(p) for p in neg.tolist()}
        assert not pos_set & neg_set
        assert len(neg_set) == len(neg)

    def test_canonical_and_in_range(self):
        pos = _random_pos(40, 100, seed=3)
        neg = sample_negatives(pos, 40, seed=4)
        assert np.all(neg[:, 0] < neg[:, 1])
        assert neg.min() >= 0 and neg.max() < 40

    def test_deterministic(self):
        pos = _random_pos(50, 150, seed=5)
        a = sample_negatives(pos, 50, seed=6)
        b = sample_negatives(pos, 50, seed=6)
        assert np.array_equal(a, b)
        c = sample_negatives(pos, 50, seed=7)
        assert not np.array_equal(a, c)

    def test_density_guard(self):
        # 4 items -> 6 possible pairs; 4 positives leaves only 2 negatives
        pos = np.array([[0, 1], [0, 2], [0, 3], [1, 2]], dtype=np.int64)
        with pytest.raises(DataError):
            sample_negatives(pos, 4, seed=0)

    def test_exhaustive_when_barely_feasible(self):
        # 2m < C(n,2) but most pairs are taken: sampler must still finish
        pos = np.array([[0, 1], [0, 2]], dtype=np.int64)
        neg = sample_negatives(pos, 4, seed=0)
        assert len(neg) == 2
        taken = {(0, 1), (0, 2)}
        assert all(tuple(p) not in taken for p in neg.tolist())


class TestSplit:
    def test_partition_sizes_floor_rule(self):
        pos = _random_pos(200, 1003, seed=8)
        neg = sample_negatives(pos, 200, seed=9)
        parts = split(_table(pos, neg), seed=10)
        # floor(0.1 * 1003) = 100 for validation and test, remainder to train
        assert parts["validation"].n_pairs == 200
        assert parts["test"].n_pairs == 200
        assert parts["train"].n_pairs == 2 * (1003 - 200)

    def test_partitions_are_balanced_and_disjoint(self):
        pos = _random_pos(150, 400, seed=11)
        neg = sample_negatives(pos, 150, seed=12)
        parts = split(_table(pos, neg), seed=13)
        seen_pos, seen_neg = set(), set()
        for tag in ("train", "validation", "test"):
            ps = parts[tag]
            assert ps.partition == tag
            assert 2 * np.count_nonzero(ps.labels) == ps.n_pairs
            p = {tuple(x) for x in ps.pairs[ps.labels].tolist()}
            q = {tuple(x) for x in ps.pairs[~ps.labels].tolist()}
            assert not p & seen_pos and not q & seen_neg
            seen_pos |= p
            seen_neg |= q
        assert len(seen_pos) == 400 and len(seen_neg) == 400

    def test_deterministic_under_seed(self):
        pos = _random_pos(100, 300, seed=14)
        neg = sample_negatives(pos, 100, seed=15)
        table = _table(pos, neg)
        a = split(table, seed=16)
        b = split(table, seed=16)
        for tag in ("train", "validation", "test"):
            assert np.array_equal(a[tag].pairs, b[tag].pairs)
            assert np.array_equal(a[tag].labels, b[tag].labels)
        c = split(table, seed=17)
        assert not np.array_equal(a["train"].pairs, c["train"].pairs)

    def test_train_positive_cap(self):
        # index arrays large enough to trip the cap: 2.6M positives. Gap-1
        # pairs and gap-2 pairs can never collide, which keeps the labels
        # disjoint without an expensive rejection pass.
        m = 2_600_000
        n = 10_000
        rng = np.random.default_rng(18)
        lo_p = rng.integers(0, n - 1, size=m, dtype=np.int64)
        pos = np.column_stack([lo_p, lo_p + 1])
        lo_n = rng.integers(0, n - 2, size=m, dtype=np.int64)
        neg = np.column_stack([lo_n, lo_n + 2])
        parts = split(_table(pos, neg), seed=19)
        assert parts["validation"].n_pairs == 2 * 260_000
        assert parts["test"].n_pairs == 2 * 260_000
        assert np.count_nonzero(parts["train"].labels) == TRAIN_POSITIVE_CAP
        del parts
        users = rng.integers(0, 3, size=2 * m)
        _assert_split_matches_halves(pos, neg, 19, users[:m], users[m:])

    def test_too_few_pairs(self):
        pos = np.array([[0, 1]], dtype=np.int64)
        with pytest.raises(DataError):
            split(_table(pos, np.array([[0, 2]], dtype=np.int64)), seed=0)

    def test_user_columns_ride_along(self):
        pos = _random_pos(80, 60, seed=20)
        neg = sample_negatives(pos, 80, seed=21)
        rng = np.random.default_rng(22)
        pu = rng.integers(0, 3, len(pos))
        nu = rng.integers(0, 3, len(neg))
        parts = split(_table(pos, neg, user_ids=["a", "b", "c"], pos_users=pu,
                             neg_users=nu), seed=23)
        total = sum(np.count_nonzero(parts[t].labels) for t in parts)
        assert total == 60
        # the user attached to a pair must survive the shuffle
        lookup = {tuple(p): u for p, u in zip(pos.tolist(), pu.tolist())}
        for t in parts:
            ps = parts[t]
            for p, u in zip(ps.pairs[ps.labels].tolist(), ps.users[ps.labels].tolist()):
                assert lookup[tuple(p)] == u

    @given(m=st.integers(10, 120), cap=st.integers(1, 130), seed=st.integers(0, 2**32 - 1),
           with_users=st.booleans())
    def test_matches_the_split_over_separate_halves(self, m, cap, seed, with_users):
        pos = _random_pos(40, m, seed=m)
        neg = sample_negatives(pos, 40, seed=seed % 1000)
        rng = np.random.default_rng(seed)
        pu = rng.integers(0, 3, m) if with_users else None
        nu = rng.integers(0, 3, m) if with_users else None
        with mock.patch.object(sampling, "TRAIN_POSITIVE_CAP", cap):
            _assert_split_matches_halves(pos, neg, seed, pu, nu)


class TestLabeledPairSet:
    def test_rejects_unbalanced(self):
        with pytest.raises(DataError):
            LabeledPairSet(["a", "b", "c"], [[0, 1], [0, 2], [1, 2]],
                           [True, True, False], "all")

    def test_rejects_label_overlap(self):
        with pytest.raises(DataError):
            LabeledPairSet(["a", "b"], [[0, 1], [0, 1]], [True, False], "all")

    def test_rejects_noncanonical(self):
        with pytest.raises(DataError):
            LabeledPairSet(["a", "b", "c"], [[1, 0], [0, 2]], [True, False], "all")

    def test_rejects_bad_partition_tag(self):
        with pytest.raises(DataError):
            LabeledPairSet(["a", "b", "c"], [[0, 1], [0, 2]], [True, False], "holdout")

    def test_rejects_mismatched_columns(self):
        with pytest.raises(DataError):
            LabeledPairSet(["a", "b", "c"], [[0, 1], [0, 2]], [True, False, True], "all")
        with pytest.raises(DataError):
            LabeledPairSet(["a", "b", "c"], [[0, 1], [0, 2]], [True, False], "all",
                           ["u"], [0])
        with pytest.raises(DataError):
            LabeledPairSet(["a", "b", "c"], [[0, 1], [0, 2]], [True, False], "all",
                           ["u"], [0, 1])
        with pytest.raises(DataError):
            LabeledPairSet(["a", "b", "c"], [[0, 1], [0, 2]], [True, False], "all",
                           None, [0, 0])

    def test_lists_related_pairs_first(self):
        ps = LabeledPairSet(["a", "b", "c", "d"], [[0, 2], [0, 1], [2, 3], [1, 3]],
                            [False, True, False, True], "all", ["u", "v"], [0, 1, 1, 0])
        assert ps.labels.tolist() == [True, True, False, False]
        assert ps.pairs.tolist() == [[0, 1], [1, 3], [0, 2], [2, 3]]
        assert ps.users.tolist() == [1, 0, 0, 1]
        assert ps.n_pairs == 4


def test_pairs_file_roundtrip(tmp_path):
    feats = _features(30)
    pos = _random_pos(30, 40, seed=24)
    neg = sample_negatives(pos, 30, seed=25)
    ps = _table(pos, neg, "validation", feats.item_ids)
    p = tmp_path / "pairs.tsv"
    save_pairs(ps, p)
    back = load_pairs(p, feats)
    assert back.partition == "validation"
    assert np.array_equal(back.pairs, ps.pairs)
    assert np.array_equal(back.labels, ps.labels)
    assert back.users is None and back.user_ids is None


def test_pairs_file_roundtrip_with_users(tmp_path):
    feats = _features(20)
    pos = _random_pos(20, 10, seed=26)
    neg = sample_negatives(pos, 20, seed=27)
    rng = np.random.default_rng(28)
    ps = _table(pos, neg, "all", feats.item_ids, ["u1", "u2"],
                rng.integers(0, 2, 10), rng.integers(0, 2, 10))
    p = tmp_path / "pairs.tsv"
    save_pairs(ps, p)
    back = load_pairs(p, feats)
    assert back.user_ids == ["u1", "u2"]
    assert np.array_equal(back.pairs, ps.pairs)
    assert np.array_equal(back.users, ps.users)


def test_pairs_file_with_interleaved_labels_loads_related_first(tmp_path):
    feats = _features(5)
    p = tmp_path / "pairs.tsv"
    p.write_text("#partition train\n"
                 "i0003\ti0001\tunrelated\tv\n"
                 "i0000\ti0004\trelated\tu\n"
                 "i0000\ti0002\tunrelated\tu\n"
                 "i0002\ti0001\trelated\tw\n")
    back = load_pairs(p, feats)
    assert back.partition == "train"
    assert back.pairs.tolist() == [[0, 4], [1, 2], [1, 3], [0, 2]]
    assert back.labels.tolist() == [True, True, False, False]
    assert back.user_ids == ["u", "v", "w"]
    assert back.users.tolist() == [0, 2, 1, 0]
    out = tmp_path / "again.tsv"
    save_pairs(back, out)
    assert out.read_text() == ("#partition train\n"
                               "i0000\ti0004\trelated\tu\n"
                               "i0001\ti0002\trelated\tw\n"
                               "i0001\ti0003\tunrelated\tv\n"
                               "i0000\ti0002\tunrelated\tu\n")
    assert np.array_equal(load_pairs(out, feats).pairs, back.pairs)


class TestBuildUserDataset:
    def _triples(self, seed=0, n_users=6, n_items=120, per_user=30):
        rng = np.random.default_rng(seed)
        feats = _features(n_items, seed=seed)
        triples = set()
        for u in range(n_users):
            # each user touches a private-ish slice of the catalog
            base = rng.choice(n_items, size=25, replace=False)
            while sum(1 for t in triples if t[2] == f"u{u}") < per_user:
                a, b = rng.choice(base, size=2, replace=False)
                if a != b:
                    lo, hi = sorted((int(a), int(b)))
                    triples.add((feats.item_ids[lo], feats.item_ids[hi], f"u{u}"))
        return UserTripleSet(triples), feats

    def test_balanced_per_user(self):
        triples, feats = self._triples()
        ds = build_user_dataset(triples, feats, seed=1, min_purchases=20,
                                pairs_per_user=25)
        assert ds.user_ids == sorted(triples.user_ids())
        for u in range(len(ds.user_ids)):
            assert np.sum(ds.labels[ds.users == u]) == 25
            assert np.sum(~ds.labels[ds.users == u]) == 25

    def test_negatives_avoid_all_observed_pairs(self):
        triples, feats = self._triples(seed=2)
        ds = build_user_dataset(triples, feats, seed=3, min_purchases=20,
                                pairs_per_user=25)
        observed = {(feats.index_of(a), feats.index_of(b)) for a, b, _ in triples.triples}
        for p in ds.pairs[~ds.labels].tolist():
            assert tuple(p) not in observed

    def test_users_below_threshold_are_dropped(self):
        triples, feats = self._triples(seed=4)
        extra = set(triples.triples)
        extra.add((feats.item_ids[0], feats.item_ids[1], "lurker"))
        ds = build_user_dataset(UserTripleSet(extra), feats, seed=5,
                                min_purchases=20, pairs_per_user=25)
        assert "lurker" not in ds.user_ids

    def test_deterministic(self):
        triples, feats = self._triples(seed=6)
        a = build_user_dataset(triples, feats, seed=7, min_purchases=20,
                               pairs_per_user=25)
        b = build_user_dataset(triples, feats, seed=7, min_purchases=20,
                               pairs_per_user=25)
        assert np.array_equal(a.pairs, b.pairs)
        assert np.array_equal(a.labels, b.labels)
        assert np.array_equal(a.users, b.users)
