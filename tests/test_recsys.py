"""Candidate ranking, outfit assembly, and the coherence score."""

import math

import numpy as np
import pytest

from stylemetric.catalog import DataError, FeatureMatrix, MetricModel, normalize_rows
from stylemetric.metric import dist_lowrank, link_probability
from stylemetric.recommend import (OutfitScore, build_outfit, makeover_delta,
                                   outfit_coherence, rank_candidates,
                                   recommend)


def _world(seed=0, n=20, f=4, k=2, c=2.0):
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((n, f))
    feats = FeatureMatrix([f"i{z:03d}" for z in range(n)], X)
    model = MetricModel("low_rank", rng.standard_normal((f, k)), c,
                        metadata={"feature_norm": "none"})
    return feats, model


def test_rank_candidates_orders_by_distance():
    feats, model = _world()
    cands = feats.item_ids[1:]
    ranked = rank_candidates(model, feats, "i000", cands)
    assert len(ranked) == len(cands)
    dists = [d for _, d, _ in ranked]
    assert dists == sorted(dists)
    probs = [p for _, _, p in ranked]
    assert probs == sorted(probs, reverse=True)
    # probabilities are the sigmoid of threshold minus distance
    for item, d, p in ranked:
        q = feats.index_of("i000")
        want = dist_lowrank(model.transform, feats.values[q],
                            feats.values[feats.index_of(item)])
        assert d == pytest.approx(want, rel=1e-12)
        assert p == pytest.approx(float(link_probability(d, model.threshold)),
                                  rel=1e-12)


def test_recommend_is_the_rank_prefix():
    feats, model = _world(seed=1)
    cands = feats.item_ids[1:]
    full = rank_candidates(model, feats, "i000", cands)
    top3 = recommend(model, feats, "i000", cands, 3)
    assert top3 == [(item, p) for item, _, p in full[:3]]


def test_recommend_rejects_bad_inputs():
    feats, model = _world(seed=2)
    with pytest.raises(DataError):
        recommend(model, feats, "i000", [], 1)
    with pytest.raises(DataError):
        recommend(model, feats, "i000", ["i000", "i001"], 1)
    with pytest.raises(DataError):
        recommend(model, feats, "i000", ["i001"], 0)


def test_distance_ties_break_by_item_id():
    # two candidates at identical coordinates tie exactly; id decides
    X = np.array([[0.0, 0.0], [1.0, 1.0], [1.0, 1.0]])
    feats = FeatureMatrix(["query", "zed", "abc"], X)
    model = MetricModel("low_rank", np.eye(2), 1.0)
    ranked = rank_candidates(model, feats, "query", ["zed", "abc"])
    assert [r[0] for r in ranked] == ["abc", "zed"]


def test_probabilities_are_the_scalar_link_probability():
    feats, model = _world(seed=9, n=300, f=6, k=3)
    cands = feats.item_ids[1:]
    ranked = rank_candidates(model, feats, "i000", cands)
    dists = [d for _, d, _ in ranked]
    # a threshold inside the distance range sends probabilities down both
    # branches of the stable sigmoid
    model.threshold = dists[len(dists) // 2]
    ranked = rank_candidates(model, feats, "i000", cands)
    assert {type(d) for _, d, _ in ranked} == {type(p) for _, _, p in ranked} == {float}
    for _, d, p in ranked:
        assert p == link_probability(d, model.threshold)


def test_equal_distances_come_back_in_item_id_order():
    rng = np.random.default_rng(10)
    base = rng.standard_normal((4, 5))
    # twelve candidates, three copies of each of four rows, ids shuffled so
    # that catalog order and id order disagree
    ids = [f"c{z:02d}" for z in rng.permutation(12)]
    X = np.vstack([rng.standard_normal((1, 5)), np.repeat(base, 3, axis=0)])
    feats = FeatureMatrix(["query", *ids], X)
    model = MetricModel("low_rank", rng.standard_normal((5, 2)), 1.0)
    ranked = rank_candidates(model, feats, "query", ids)
    for start in range(0, 12, 3):
        group = ranked[start:start + 3]
        assert len({d for _, d, _ in group}) == 1
        assert [item for item, _, _ in group] == sorted(item for item, _, _ in group)
    assert [d for _, d, _ in ranked] == sorted(d for _, d, _ in ranked)


@pytest.mark.parametrize("kind", ["low_rank", "weighted_nn", "personalized"])
def test_l2_unit_model_matches_normalizing_the_whole_catalog(kind):
    rng = np.random.default_rng(11)
    n, f, k = 200, 6, 3
    X = rng.standard_normal((n, f)) * np.exp(rng.uniform(-7.0, 7.0, (n, 1)))
    X[5] = 0.0
    feats = FeatureMatrix([f"i{z:03d}" for z in range(n)], X)
    transform = rng.uniform(0, 1, f) if kind == "weighted_nn" else rng.standard_normal((f, k))
    extra = ({"user_ids": ["u0"], "user_weights": rng.uniform(0, 2, (1, k))}
             if kind == "personalized" else {})
    l2 = MetricModel(kind, transform, 1.0, metadata={"feature_norm": "l2_unit"}, **extra)
    raw = MetricModel(kind, transform, 1.0, metadata={"feature_norm": "none"}, **extra)
    unit = FeatureMatrix(feats.item_ids, normalize_rows(X, "l2_unit"))
    cands = feats.item_ids[1:]
    assert rank_candidates(l2, feats, "i000", cands) == rank_candidates(raw, unit, "i000", cands)
    slots = [cands[:50], cands[50:120], cands[120:]]
    assert build_outfit(l2, feats, "i000", slots) == build_outfit(raw, unit, "i000", slots)
    outfit = ["i007", "i005", "i150", "i033", "i099"]
    assert (outfit_coherence(l2, feats, outfit).mean_pair_loglik
            == outfit_coherence(raw, unit, outfit).mean_pair_loglik)


def test_build_outfit_picks_nearest_per_slot():
    feats, model = _world(seed=3)
    slots = [feats.item_ids[1:6], feats.item_ids[6:11], feats.item_ids[11:16]]
    picks = build_outfit(model, feats, "i000", slots)
    assert len(picks) == 3
    for slot, pick in zip(slots, picks):
        best = rank_candidates(model, feats, "i000", slot)[0][0]
        assert pick == best


def test_build_outfit_rejects_query_in_slot_and_empty_slot():
    feats, model = _world(seed=4)
    with pytest.raises(DataError):
        build_outfit(model, feats, "i000", [["i001", "i000"]])
    with pytest.raises(DataError):
        build_outfit(model, feats, "i000", [[]])


def test_coherence_hand_computed_three_items():
    """Three items on a line through an identity metric: every pairwise
    distance and sigmoid is known in closed form."""
    X = np.array([[0.0], [1.0], [3.0]])
    feats = FeatureMatrix(["a", "b", "c"], X)
    model = MetricModel("low_rank", np.array([[1.0]]), 2.0)
    # d(a,b) = 1, d(a,c) = 9, d(b,c) = 4; c = 2
    want = (math.log(1 / (1 + math.exp(1 - 2)))
            + math.log(1 / (1 + math.exp(9 - 2)))
            + math.log(1 / (1 + math.exp(4 - 2)))) / 3
    score = outfit_coherence(model, feats, ["a", "b", "c"])
    assert score.mean_pair_loglik == pytest.approx(want, rel=1e-12)
    assert score.pair_count == 3


def test_coherence_component_normalization():
    X = np.array([[0.0], [1.0], [3.0]])
    feats = FeatureMatrix(["a", "b", "c"], X)
    model = MetricModel("low_rank", np.array([[1.0]]), 2.0)
    by_pairs = outfit_coherence(model, feats, ["a", "b", "c"], "pairs")
    by_items = outfit_coherence(model, feats, ["a", "b", "c"], "components")
    assert by_items.mean_pair_loglik == pytest.approx(by_pairs.mean_pair_loglik,
                                                      rel=1e-12)
    # for n=3 the two denominators coincide; n=4 separates them
    feats4 = FeatureMatrix(["a", "b", "c", "d"],
                           np.array([[0.0], [1.0], [3.0], [4.0]]))
    p4 = outfit_coherence(model, feats4, ["a", "b", "c", "d"], "pairs")
    i4 = outfit_coherence(model, feats4, ["a", "b", "c", "d"], "components")
    assert i4.mean_pair_loglik == pytest.approx(p4.mean_pair_loglik * 6 / 4,
                                                rel=1e-12)


def test_coherence_is_exactly_permutation_invariant():
    feats, model = _world(seed=5, n=12)
    items = feats.item_ids[:7]
    rng = np.random.default_rng(6)
    base = outfit_coherence(model, feats, items).mean_pair_loglik
    for _ in range(200):
        shuffled = list(items)
        rng.shuffle(shuffled)
        got = outfit_coherence(model, feats, shuffled).mean_pair_loglik
        assert got == base


def test_coherence_needs_two_items():
    feats, model = _world(seed=7)
    with pytest.raises(DataError):
        outfit_coherence(model, feats, ["i000"])


def test_makeover_delta_of_identical_outfits_is_zero():
    feats, model = _world(seed=8)
    outfit = feats.item_ids[:4]
    assert makeover_delta(model, feats, outfit, list(outfit)) == 0.0
    # identical up to ORDER must also be exactly zero
    assert makeover_delta(model, feats, outfit, list(reversed(outfit))) == 0.0


def test_makeover_delta_sign_tracks_improvement():
    X = np.array([[0.0], [0.1], [0.2], [50.0]])
    feats = FeatureMatrix(["a", "b", "c", "far"], X)
    model = MetricModel("low_rank", np.array([[1.0]]), 2.0)
    # swapping the distant item for a close one must raise coherence
    assert makeover_delta(model, feats, ["a", "b", "far"], ["a", "b", "c"]) > 0
    assert makeover_delta(model, feats, ["a", "b", "c"], ["a", "b", "far"]) < 0


def test_coherence_degrades_monotonically_with_distance():
    """Pushing one outfit member steadily away from the rest must lower
    the score at every step."""
    model = MetricModel("low_rank", np.array([[1.0]]), 2.0)
    scores = []
    for off in (0.5, 1.0, 2.0, 4.0, 8.0):
        feats = FeatureMatrix(["a", "b", "m"],
                              np.array([[0.0], [0.2], [off]]))
        scores.append(outfit_coherence(model, feats, ["a", "b", "m"]).mean_pair_loglik)
    assert all(x > y for x, y in zip(scores, scores[1:]))
