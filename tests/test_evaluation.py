"""Accuracy reporting, its exact decision rule, and the category baseline."""

import numpy as np
import pytest

from stylemetric.catalog import (CategoryMap, DataError, FeatureMatrix,
                                 MetricModel, RelationGraph)
from stylemetric.evaluation import (EVAL_TSV_HEADER, CTPredictor, EvalReport,
                                    evaluate, fit_ct, fit_wnn, model_digest,
                                    predict_ct)
from stylemetric.metric import model_distances
from stylemetric.sampling import LabeledPairSet
from stylemetric.training import TrainConfig


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
    X = feats.values
    labels = ps.labels
    d = model_distances(model, X, ps.pairs[:, 0], ps.pairs[:, 1])
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


def test_fit_wnn_produces_weighted_model():
    feats, ps, _ = _fixture(seed=5)
    train_ps = LabeledPairSet(ps.item_ids, ps.pairs, ps.labels, "train")
    cfg = TrainConfig(kind="low_rank", rank=3, max_iterations=30, seed=0)
    model, report = fit_wnn(cfg, feats, train_ps)
    assert model.kind == "weighted_nn"
    assert model.transform.shape == (feats.n_features,)
    assert report.trace[-1] >= report.trace[0]


class TestCategoryBaseline:
    def _setup(self):
        cats = CategoryMap({"p1": "pants", "p2": "pants", "s1": "shirts",
                            "s2": "shirts", "h1": "hats", "b1": "belts"})
        # co-occurrence counts: pants-shirts 2, pants-hats 1, pants-belts 1
        edges = {("p1", "s1", "also_bought"), ("p2", "s2", "also_bought"),
                 ("h1", "p1", "also_bought"), ("b1", "p2", "also_bought")}
        g = RelationGraph({tuple(sorted(e[:2])) + (e[2],) for e in edges})
        return cats, g

    def test_category_count_mode_keeps_top_half(self):
        cats, g = self._setup()
        ct = fit_ct(cats, g, mode="category_count")
        # pants has 3 distinct partners -> ceil(3/2) = 2 kept; shirts beats
        # the tied hats/belts on count, and belts beats hats on id order
        assert ct.linked_categories("pants") == {"shirts", "belts"}
        assert ct.linked_categories("shirts") == {"pants"}

    def test_count_mass_mode_stops_at_half_mass(self):
        cats, g = self._setup()
        ct = fit_ct(cats, g, mode="count_mass")
        # pants mass: shirts 2 of 4 total -> first prefix covering >= half
        assert ct.linked_categories("pants") == {"shirts"}

    def test_prediction_is_symmetric_or(self):
        cats, g = self._setup()
        ct = fit_ct(cats, g, mode="category_count")
        # hats did not keep pants? hats has one partner (pants), keeps it;
        # either direction suffices for a related verdict
        assert predict_ct(ct, "h1", "p1")
        assert predict_ct(ct, "p1", "h1")
        # shirts-hats never co-occurred and neither links the other
        assert not predict_ct(ct, "s1", "h1")

    def test_unknown_mode_rejected(self):
        cats, g = self._setup()
        with pytest.raises(DataError):
            fit_ct(cats, g, mode="jaccard")

    def test_unmapped_item_is_an_error(self):
        cats, g = self._setup()
        ct = fit_ct(cats, g)
        with pytest.raises(DataError):
            predict_ct(ct, "p1", "mystery")


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
    d_pos = model_distances(model, X, np.array([0]), np.array([1]),
                            user_idx=np.array([model.user_index("ub")]))
    want_tp = int(d_pos[0] < model.threshold)
    assert rep.tp == want_tp
