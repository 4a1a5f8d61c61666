"""Candidate ranking, outfit assembly, and the coherence score."""

import math
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from stylemetric import metric
from stylemetric.catalog import DataError, FeatureMatrix, MetricModel, normalize_rows
from stylemetric.evaluation import evaluate
from stylemetric.metric import link_probability, model_distances
from stylemetric.recommend import (build_outfit, makeover_delta, outfit_coherence,
                                   rank_candidates)
from stylemetric.sampling import LabeledPairSet
from stylemetric.stylespace import embed_all


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
        want = model_distances(model, feats.values, [q], [feats.index_of(item)])[0]
        assert d == pytest.approx(want, rel=1e-12)
        assert p == pytest.approx(float(link_probability(d, model.threshold)),
                                  rel=1e-12)


def test_rank_candidates_rejects_bad_inputs():
    feats, model = _world(seed=2)
    with pytest.raises(DataError, match="no candidates"):
        rank_candidates(model, feats, "i000", [])
    with pytest.raises(DataError, match="query item"):
        rank_candidates(model, feats, "i000", ["i000", "i001"])
    with pytest.raises(DataError, match="unknown item id: 'nope'"):
        rank_candidates(model, feats, "i000", ["i001", "nope", "i002"])
    with pytest.raises(DataError, match="unknown item id: 'nope'"):
        outfit_coherence(model, feats, ["i001", "nope"])


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
    pairs = [(2 * z, 2 * z + 1) for z in range(50)] + [(2 * z, 2 * z + 3) for z in range(50)]
    users = {"user_ids": ["u0"], "users": [0] * 100} if kind == "personalized" else {}
    ps = LabeledPairSet(feats.item_ids, pairs, [True] * 50 + [False] * 50, "test", **users)
    assert evaluate(l2, feats, ps) == evaluate(raw, unit, ps)
    i, j = ps.pairs.T
    assert np.array_equal(model_distances(l2, X, i, j, ps.users),
                          model_distances(raw, unit.values, i, j, ps.users))
    if kind != "weighted_nn":
        assert np.array_equal(embed_all(l2, feats).vectors, embed_all(raw, unit).vectors)


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


def _kind_model(kind, rng, f, k, norm):
    transform = rng.uniform(0, 2, f) if kind == "weighted_nn" else rng.standard_normal((f, k))
    extra = ({"user_ids": ["u0"], "user_weights": rng.uniform(0, 2, (1, k))}
             if kind == "personalized" else {})
    return MetricModel(kind, transform, 1.0, metadata={"feature_norm": norm}, **extra)


def _ask(model, features, query):
    """The answer to one (kind, query item, member items) query."""
    kind, q, members = query
    if kind == "rank":
        return rank_candidates(model, features, q, members)
    if kind == "outfit":
        half = max(1, len(members) // 2)
        slots = [slot for slot in (members[:half], members[half:]) if slot]
        return build_outfit(model, features, q, slots)
    return outfit_coherence(model, features, [q, *members])


@given(n=st.integers(2, 12), f=st.integers(1, 4), k=st.integers(1, 3),
       seed=st.integers(0, 2**32 - 1),
       queries=st.lists(st.tuples(st.integers(0, 6),
                                  st.sampled_from(("rank", "outfit", "coherence")),
                                  st.integers(0, 11),
                                  st.lists(st.integers(0, 11), min_size=1, max_size=8)),
                        min_size=1, max_size=6))
def test_answers_from_a_warm_cache_match_a_cold_catalog(n, f, k, seed, queries):
    """Any sequence of queries, over models of every kind and normalization
    and two transforms of one kind, answers each query with the bits a fresh
    FeatureMatrix gives. Small integer features make duplicate rows, and so
    exact distance ties, common; member lists may repeat items, and most
    sequences leave the catalog partly filled."""
    rng = np.random.default_rng(seed)
    X = rng.integers(-2, 3, (n, f)).astype(np.float64)
    ids = [f"i{z:02d}" for z in range(n)]
    models = [_kind_model(kind, rng, f, k, norm)
              for kind in ("low_rank", "weighted_nn", "personalized")
              for norm in ("none", "l2_unit")]
    models.append(_kind_model("low_rank", rng, f, k, "none"))
    warm = FeatureMatrix(ids, X)
    for which, kind, q, members in queries:
        q = q % n
        members = [ids[m % n] for m in members if m % n != q] or [ids[(q + 1) % n]]
        query = (kind, ids[q], members)
        got = _ask(models[which], warm, query)
        assert repr(got) == repr(_ask(models[which], FeatureMatrix(ids, X), query))


def test_a_query_projects_only_the_rows_not_yet_projected(monkeypatch):
    """Rows are projected once per catalog, transform and normalization: a
    repeated query projects nothing, a new one only its new rows, and another
    transform or normalization starts over."""
    projected = []

    def counting(X, Y, rows=None, norm="none"):
        projected.append(len(rows))
        return project_rows(X, Y, rows, norm)

    project_rows = metric.project_rows
    monkeypatch.setattr(metric, "project_rows", counting)
    feats, model = _world(seed=12)
    rank_candidates(model, feats, "i000", ["i001", "i002", "i001"])
    assert projected == [3]
    rank_candidates(model, feats, "i000", ["i002", "i001"])
    build_outfit(model, feats, "i001", [["i000"], ["i002", "i003", "i004"], ["i003"]])
    outfit_coherence(model, feats, ["i004", "i000", "i005"])
    assert projected == [3, 2, 1]
    other = MetricModel("low_rank", model.transform + 1.0, model.threshold)
    unit = MetricModel("low_rank", model.transform, model.threshold,
                       metadata={"feature_norm": "l2_unit"})
    for m in (other, unit, model):
        outfit_coherence(m, feats, ["i004", "i000", "i005"])
    assert projected == [3, 2, 1, 3, 3, 3]


def test_the_cache_follows_the_transform_the_norm_and_the_values():
    """The same features queried under another transform or normalization,
    or after a new values array is assigned, answer as a fresh catalog does;
    a new threshold needs no new rows."""
    feats, model = _world(seed=13, n=40)
    cands = feats.item_ids[1:]
    first = rank_candidates(model, feats, "i000", cands)
    rng = np.random.default_rng(14)
    for other in (MetricModel("low_rank", rng.standard_normal(model.transform.shape), 2.0),
                  MetricModel("low_rank", model.transform, 2.0,
                              metadata={"feature_norm": "l2_unit"})):
        got = rank_candidates(other, feats, "i000", cands)
        assert got != first
        assert got == rank_candidates(other, FeatureMatrix(feats.item_ids, feats.values),
                                      "i000", cands)
    assert rank_candidates(model, feats, "i000", cands) == first
    feats.values = feats.values * 3.0
    assert rank_candidates(model, feats, "i000", cands) == rank_candidates(
        model, FeatureMatrix(feats.item_ids, feats.values), "i000", cands)


def test_threads_sharing_a_cold_catalog_get_the_single_threaded_answers():
    """Four threads ask mixed queries of one catalog whose cache starts
    empty, with the interpreter switching threads as often as it can; every
    answer is the one a single thread gets."""
    rng = np.random.default_rng(15)
    n = 3000
    ids = [f"i{z:04d}" for z in range(n)]
    X = rng.standard_normal((n, 16))
    model = _kind_model("low_rank", rng, 16, 6, "l2_unit")
    work = []
    for _ in range(4):
        queries = []
        for z in range(30):
            q, *members = rng.choice(n, 1 + (5, 200, 40)[z % 3], replace=False)
            queries.append((("coherence", "rank", "outfit")[z % 3], ids[q],
                            [ids[m] for m in members]))
        work.append(queries)
    single = FeatureMatrix(ids, X)
    want = [repr([_ask(model, single, query) for query in queries]) for queries in work]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(3):
            shared = FeatureMatrix(ids, X)
            with ThreadPoolExecutor(4) as pool:
                got = list(pool.map(
                    lambda queries: repr([_ask(model, shared, query) for query in queries]),
                    work, timeout=120))
            assert got == want
    finally:
        sys.setswitchinterval(interval)


@pytest.mark.parametrize("kind", ["low_rank", "weighted_nn", "personalized"])
def test_overflowing_style_coordinates_raise_data_error(kind):
    """Coordinates that overflow give inf and NaN distances; every query that
    meets one raises DataError rather than ranking or picking by them (a NaN
    made the outfit pick depend on the order of the slot's members)."""
    feats = FeatureMatrix(["q", "a", "b", "c"], np.array([[1e200], [1e200], [-1e200], [0.0]]))
    transform = np.array([1e200]) if kind == "weighted_nn" else np.array([[1e200]])
    extra = ({"user_ids": ["u0"], "user_weights": np.ones((1, 1))}
             if kind == "personalized" else {})
    model = MetricModel(kind, transform, 1.0, **extra)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(DataError, match="non-finite distance"):
            rank_candidates(model, feats, "q", ["a", "b", "c"])
        for slot in (["a", "b", "c"], ["c", "b", "a"]):
            with pytest.raises(DataError, match="non-finite distance"):
                build_outfit(model, feats, "q", [slot])
        with pytest.raises(DataError, match="non-finite distance"):
            outfit_coherence(model, feats, ["q", "a", "b", "c"])
