"""Accuracy reporting and its exact decision rule."""

import numpy as np
import pytest

from stylemetric.catalog import DataError, FeatureMatrix, MetricModel
from stylemetric.evaluation import EVAL_TSV_HEADER, evaluate, model_digest
from stylemetric.metric import model_distances
from stylemetric.sampling import LabeledPairSet
from stylemetric.training import TrainConfig, gradient, log_likelihood, train


def _fixture(seed=0, n=30, f=5, m=40):
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((n, f))
    feats = FeatureMatrix([f"i{z:03d}" for z in range(n)], X)
    seen = set()
    pos, neg = [], []
    while len(pos) < m or len(neg) < m:
        i, j = sorted(rng.choice(n, 2, replace=False).tolist())
        if (i, j) in seen:
            continue
        seen.add((i, j))
        (pos if len(pos) < m else neg).append((i, j))
    ps = LabeledPairSet(feats.item_ids, pos + neg, [True] * m + [False] * m, "test")
    model = MetricModel("low_rank", rng.standard_normal((f, 3)), 1.5,
                        metadata={"feature_norm": "none"})
    return feats, ps, model


def test_counts_add_up_and_accuracy_is_their_ratio():
    feats, ps, model = _fixture()
    rep = evaluate(model, feats, ps)
    assert rep.tp + rep.tn + rep.fp + rep.fn == rep.n_pairs == 80
    assert rep.accuracy == (rep.tp + rep.tn) / 80


def test_decision_is_exactly_distance_below_threshold():
    feats, ps, model = _fixture(seed=1)
    rep = evaluate(model, feats, ps)
    labels = ps.labels
    d = model_distances(model, feats, ps.pairs[:, 0], ps.pairs[:, 1])
    pred = d < model.threshold
    assert rep.tp == int(np.sum(pred & labels))
    assert rep.tn == int(np.sum(~pred & ~labels))
    assert rep.fp == int(np.sum(pred & ~labels))
    assert rep.fn == int(np.sum(~pred & labels))


def test_tie_distance_counts_as_unrelated():
    X = np.array([[0.0, 0.0], [1.0, 0.0], [0.1, 0.0]])
    feats = FeatureMatrix(["a", "b", "c"], X)
    model = MetricModel("low_rank", np.eye(2), 1.0)
    # d(a,b) = 1.0 = c exactly (the tie), d(a,c) = 0.01 < c
    ps = LabeledPairSet(["a", "b", "c"], [[0, 2], [0, 1]], [True, False], "test")
    rep = evaluate(model, feats, ps)
    assert rep.tn == 1 and rep.fp == 0 and rep.tp == 1


def test_perfect_model_on_separable_data():
    rng = np.random.default_rng(2)
    a = rng.standard_normal((8, 3)) * 0.01
    b = rng.standard_normal((8, 3)) * 0.01 + 5.0
    X = np.vstack([a, b])
    feats = FeatureMatrix([f"i{z}" for z in range(16)], X)
    pos = [(i, j) for i in range(8) for j in range(i + 1, 8)]
    neg = [(i, 8 + i) for i in range(8)]
    ps = LabeledPairSet(feats.item_ids, pos[:8] + neg, [True] * 8 + [False] * 8, "test")
    model = MetricModel("low_rank", np.eye(3), 10.0)
    assert evaluate(model, feats, ps).accuracy == 1.0


def test_tsv_line_matches_header():
    feats, ps, model = _fixture(seed=3)
    rep = evaluate(model, feats, ps)
    line = rep.tsv_line()
    assert len(line.split("\t")) == len(EVAL_TSV_HEADER.split("\t"))
    fields = dict(zip(EVAL_TSV_HEADER.split("\t"), line.split("\t")))
    assert fields["kind"] == "low_rank"
    assert int(fields["pairs"]) == 80
    assert fields["partition"] == "test"
    assert fields["model_digest"] == model_digest(model)


def test_model_digest_tracks_parameters():
    rng = np.random.default_rng(4)
    Y = rng.standard_normal((4, 2))
    m1 = MetricModel("low_rank", Y, 1.0)
    m2 = MetricModel("low_rank", Y.copy(), 1.0)
    m3 = MetricModel("low_rank", Y + 1e-9, 1.0)
    assert model_digest(m1) == model_digest(m2)
    assert model_digest(m1) != model_digest(m3)
    assert model_digest(m1) != model_digest(MetricModel("low_rank", Y, 1.5))


def test_evaluate_personalized_maps_pair_users_to_model_rows():
    rng = np.random.default_rng(6)
    X = rng.standard_normal((10, 4))
    feats = FeatureMatrix([f"i{z}" for z in range(10)], X)
    Y = rng.standard_normal((4, 2))
    W = rng.uniform(0.1, 2.0, (2, 2))
    model = MetricModel("personalized", Y, 1.0,
                        user_ids=["ua", "ub"], user_weights=W,
                        metadata={"feature_norm": "none"})
    # pair set lists users in the opposite order to the model table
    ps = LabeledPairSet(feats.item_ids, [[0, 1], [2, 3]], [True, False], "test",
                        user_ids=["ub", "ua"], users=[0, 1])
    rep = evaluate(model, feats, ps)
    d_pos = model_distances(model, feats, np.array([0]), np.array([1]),
                            user_idx=np.array([model.user_index("ub")]))
    want_tp = int(d_pos[0] < model.threshold)
    assert rep.tp == want_tp


def test_tuple_users_outside_the_model_table_are_a_data_error():
    """Plain (i, j, labels, users) arrays index the model's user table
    directly; an index past its end is a DataError, not an IndexError."""
    feats = FeatureMatrix(["a", "b", "c"], np.eye(3)[:, :2])
    model = MetricModel("personalized", np.ones((2, 1)), 1.0, ["u0"], np.ones((1, 1)),
                        metadata={"feature_norm": "none"})
    pairs = (np.array([0, 0]), np.array([1, 2]), np.array([True, False]), np.array([0, 5]))
    for score in (evaluate, log_likelihood):
        with pytest.raises(DataError, match="out of range"):
            score(model, feats, pairs)
    in_range = pairs[:3] + (np.array([0, 0]),)
    assert evaluate(model, feats, in_range).n_pairs == 2


@pytest.mark.parametrize("i, j", [([-1, 0], [1, 2]), ([0, 1], [1, 3])])
def test_tuple_pair_indices_outside_the_catalog_are_a_data_error(i, j):
    """Plain (i, j, labels) arrays index the feature rows directly; a
    negative index or one past the last row is a DataError, not a wrapped
    row or a stray IndexError."""
    feats = FeatureMatrix(["a", "b", "c"], np.eye(3)[:, :2])
    model = MetricModel("low_rank", np.ones((2, 1)), 1.0)
    pairs = (np.array(i), np.array(j), np.array([True, False]))
    for score in (evaluate, log_likelihood, gradient,
                  lambda model, feats, pairs: train(TrainConfig(rank=1), feats, pairs)):
        with pytest.raises(DataError, match="pair index out of range"):
            score(model, feats, pairs)
