"""Planted-metric data generation: the generated labels must be exactly
consistent with the generator's own ground-truth model."""

import numpy as np
import pytest

from stylemetric.evaluation import evaluate
from stylemetric.metric import dist_lowrank, project_rows
from stylemetric.sampling import (LabeledPairSet, graph_to_pairs,
                                  sample_negatives)
from stylemetric.synthetic import MODES, SynthConfig, generate


def test_modes_enumerated():
    assert set(MODES) == {"axis_aligned", "cross_feature", "two_population_users"}


def test_edge_count_is_exact():
    for mode in ("axis_aligned", "cross_feature"):
        cfg = SynthConfig(n_items=150, n_features=8, true_rank=2,
                          n_edges=700, noise=0.0, mode=mode, seed=0)
        res = generate(cfg)
        assert res.graph.n_edges == 700


def test_noiseless_labels_match_ground_truth_exactly():
    """With no noise, the ground-truth model must score 1.0 on any balanced
    set drawn from the generated graph: positives sit strictly below the
    threshold, sampled negatives at or above it."""
    cfg = SynthConfig(n_items=200, n_features=10, true_rank=3,
                      n_edges=900, noise=0.0, mode="axis_aligned", seed=1)
    res = generate(cfg)
    pos = graph_to_pairs(res.graph, res.features)
    neg = sample_negatives(pos, res.features.n_items, seed=2)
    ps = LabeledPairSet(res.features.item_ids, np.concatenate([pos, neg]),
                        np.repeat([True, False], len(pos)), "all")
    rep = evaluate(res.ground_truth_model(), res.features, ps)
    assert rep.accuracy == 1.0


def test_threshold_admits_exactly_the_edge_count():
    cfg = SynthConfig(n_items=120, n_features=6, true_rank=2,
                      n_edges=500, noise=0.0, mode="axis_aligned", seed=3)
    res = generate(cfg)
    S = project_rows(res.features.values, res.transform)
    ii, jj = np.triu_indices(res.features.n_items, k=1)
    d = np.einsum("ij,ij->i", S[ii] - S[jj], S[ii] - S[jj])
    assert int(np.sum(d < res.threshold)) == 500


def test_noise_swaps_are_accounted_for():
    cfg = SynthConfig(n_items=300, n_features=8, true_rank=2,
                      n_edges=2000, noise=0.2, mode="axis_aligned", seed=4)
    res = generate(cfg)
    assert res.graph.n_edges == 2000
    flips = res.info["flip_count"]
    # Binomial(2000, 0.2): mean 400, sd ~17.9; allow 4 sigma
    assert abs(flips - 400) < 72
    # exactly flip_count emitted edges violate the planted rule
    pos = graph_to_pairs(res.graph, res.features)
    S = project_rows(res.features.values, res.transform)
    d = np.einsum("ij,ij->i", S[pos[:, 0]] - S[pos[:, 1]],
                  S[pos[:, 0]] - S[pos[:, 1]])
    assert int(np.sum(d >= res.threshold)) == flips


def test_axis_aligned_transform_shape():
    cfg = SynthConfig(n_items=50, n_features=7, true_rank=3,
                      n_edges=100, noise=0.0, mode="axis_aligned", seed=5)
    res = generate(cfg)
    assert res.transform.shape == (7, 3)
    # each column selects one feature axis
    for col in res.transform.T:
        assert np.sum(col != 0.0) == 1


def test_cross_feature_columns_mix_two_features():
    cfg = SynthConfig(n_items=50, n_features=8, true_rank=3,
                      n_edges=100, noise=0.0, mode="cross_feature", seed=6)
    res = generate(cfg)
    assert res.transform.shape == (8, 3)
    for col in res.transform.T:
        nz = col[col != 0.0]
        assert len(nz) == 2
        # unit-norm column with one positive and one negative entry
        assert np.sum(nz > 0) == 1 and np.sum(nz < 0) == 1
        assert float(nz @ nz) == pytest.approx(1.0, rel=1e-12)


def test_cross_feature_defeats_any_diagonal_metric_in_principle():
    """The planted rule thresholds (x_a - x_b)^2 of feature differences;
    under a diagonal metric the two coordinates of each planted pair enter
    only through their squares, which carry far less signal. Verify the
    construction produces rule distances uncorrelated with plain squared
    feature distance."""
    cfg = SynthConfig(n_items=400, n_features=8, true_rank=2,
                      n_edges=3000, noise=0.0, mode="cross_feature", seed=7)
    res = generate(cfg)
    pos = graph_to_pairs(res.graph, res.features)
    neg = sample_negatives(pos, res.features.n_items, seed=8)
    X = res.features.values
    def sq(pairs):
        delta = X[pairs[:, 0]] - X[pairs[:, 1]]
        return np.sum(delta * delta, axis=1)
    # separation by raw squared distance is far weaker than the planted rule
    pos_sq, neg_sq = sq(pos), sq(neg)
    overlap = np.mean(pos_sq > np.median(neg_sq))
    assert overlap > 0.2


def test_explicit_threshold_respected_when_feasible():
    cfg = SynthConfig(n_items=200, n_features=6, true_rank=2,
                      n_edges=300, noise=0.0, mode="axis_aligned", seed=9,
                      c_star=None)
    res = generate(cfg)
    assert res.info["c_star_source"] == "fit_to_edge_count"
    loose = SynthConfig(n_items=200, n_features=6, true_rank=2,
                        n_edges=300, noise=0.0, mode="axis_aligned", seed=9,
                        c_star=res.threshold * 4.0)
    res2 = generate(loose)
    assert res2.info["c_star_source"] == "explicit"
    assert res2.threshold == res.threshold * 4.0
    assert res2.graph.n_edges == 300


def test_too_tight_explicit_threshold_is_adjusted():
    cfg = SynthConfig(n_items=200, n_features=6, true_rank=2,
                      n_edges=300, noise=0.0, mode="axis_aligned", seed=10,
                      c_star=1e-12)
    res = generate(cfg)
    assert res.info["c_star_source"] == "adjusted_up_to_edge_count"
    assert res.graph.n_edges == 300


def test_generation_is_deterministic():
    cfg = SynthConfig(n_items=100, n_features=6, true_rank=2,
                      n_edges=400, noise=0.1, mode="axis_aligned", seed=11)
    a, b = generate(cfg), generate(cfg)
    assert np.array_equal(a.features.values, b.features.values)
    assert a.graph.edges == b.graph.edges
    assert a.threshold == b.threshold
    different = generate(SynthConfig(n_items=100, n_features=6, true_rank=2,
                                     n_edges=400, noise=0.1,
                                     mode="axis_aligned", seed=12))
    assert a.graph.edges != different.graph.edges


def test_config_validation():
    with pytest.raises(ValueError):
        SynthConfig(n_items=10, n_features=4, true_rank=2, n_edges=0).validate()
    with pytest.raises(ValueError):
        SynthConfig(n_items=10, n_features=4, true_rank=2, n_edges=45).validate()
    with pytest.raises(ValueError):
        SynthConfig(n_items=10, n_features=4, true_rank=2, n_edges=20,
                    noise=0.5).validate()
    with pytest.raises(ValueError):
        SynthConfig(n_items=10, n_features=4, true_rank=3, n_edges=20,
                    mode="cross_feature").validate()


class TestTwoPopulationUsers:
    def _result(self, seed=0, n_edges=500):
        cfg = SynthConfig(n_items=400, n_features=12, true_rank=4,
                          n_edges=n_edges, noise=0.0,
                          mode="two_population_users", seed=seed)
        return generate(cfg)

    def test_user_count_and_triples_per_user(self):
        res = self._result(n_edges=500)
        users = res.triples.user_ids()
        assert len(users) == 10  # 500 // 50
        by_user = {}
        for a, b, u in res.triples.triples:
            by_user.setdefault(u, set()).add((a, b))
        for u in users:
            assert len(by_user[u]) == 50

    def test_each_user_touches_enough_items(self):
        res = self._result(seed=1)
        by_user = {}
        for a, b, u in res.triples.triples:
            by_user.setdefault(u, set()).update((a, b))
        for items in by_user.values():
            assert len(items) >= 20

    def test_population_masks_are_disjoint_halves(self):
        res = self._result(seed=2)
        masks = np.array(res.info["population_masks"])
        assert masks.shape == (2, 4)
        # 0/1 weight vectors covering complementary style dimensions
        assert np.all(masks[0] * masks[1] == 0.0)
        assert np.array_equal(masks[0] + masks[1], np.ones(4))

    def test_per_user_rule_holds_exactly(self):
        """Every emitted triple must satisfy its user's masked-distance
        rule at that user's threshold."""
        res = self._result(seed=3)
        S = project_rows(res.features.values, res.transform)
        masks = np.array(res.info["population_masks"])
        thresholds = res.info["user_thresholds"]
        users = res.triples.user_ids()
        for a, b, u in res.triples.triples:
            uidx = users.index(u)
            w = masks[uidx % 2]
            sa = S[res.features.index_of(a)]
            sb = S[res.features.index_of(b)]
            du = float(np.sum(((sa - sb) * w) ** 2))
            assert du < thresholds[uidx]

    def test_deterministic(self):
        a = self._result(seed=4)
        b = self._result(seed=4)
        assert a.triples.triples == b.triples.triples
