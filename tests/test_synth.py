"""Planted-metric data generation: the generated labels must be exactly
consistent with the generator's own ground-truth model."""

import re
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from stylemetric import synthetic
from stylemetric.catalog import RELATION_CLASSES, FeatureMatrix, RelationGraph
from stylemetric.evaluation import evaluate
from stylemetric.metric import pair_distances_style, project_rows
from stylemetric.sampling import (LabeledPairSet, graph_to_pairs,
                                  sample_negatives)
from stylemetric.synthetic import MODES, SynthConfig, SynthResult, generate


def _edge_set(graph):
    """The graph's edges as (a, b, class) id tuples."""
    return {(graph.item_ids[a], graph.item_ids[b], RELATION_CLASSES[c])
            for (a, b), c in zip(graph.pairs.tolist(), graph.classes.tolist())}


def _triple_set(triples):
    """The triples as (a, b, user) id tuples."""
    return {(triples.item_ids[a], triples.item_ids[b], triples.user_ids[u])
            for (a, b), u in zip(triples.pairs.tolist(), triples.users.tolist())}


def test_modes_enumerated():
    assert set(MODES) == {"axis_aligned", "cross_feature", "two_population_users"}


def test_edge_count_is_exact():
    for mode in ("axis_aligned", "cross_feature"):
        cfg = SynthConfig(n_items=150, n_features=8, true_rank=2,
                          n_edges=700, noise=0.0, mode=mode, seed=0)
        res = generate(cfg)
        assert len(res.graph.pairs) == 700


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
    assert len(res.graph.pairs) == 2000
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
    assert len(res2.graph.pairs) == 300


def test_too_tight_explicit_threshold_is_adjusted():
    cfg = SynthConfig(n_items=200, n_features=6, true_rank=2,
                      n_edges=300, noise=0.0, mode="axis_aligned", seed=10,
                      c_star=1e-12)
    res = generate(cfg)
    assert res.info["c_star_source"] == "adjusted_up_to_edge_count"
    assert len(res.graph.pairs) == 300


def test_generation_is_deterministic():
    cfg = SynthConfig(n_items=100, n_features=6, true_rank=2,
                      n_edges=400, noise=0.1, mode="axis_aligned", seed=11)
    a, b = generate(cfg), generate(cfg)
    assert np.array_equal(a.features.values, b.features.values)
    assert _edge_set(a.graph) == _edge_set(b.graph)
    assert a.threshold == b.threshold
    different = generate(SynthConfig(n_items=100, n_features=6, true_rank=2,
                                     n_edges=400, noise=0.1,
                                     mode="axis_aligned", seed=12))
    assert _edge_set(a.graph) != _edge_set(different.graph)


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
        users = res.triples.user_ids
        assert len(users) == 10  # 500 // 50
        by_user = {}
        for a, b, u in _triple_set(res.triples):
            by_user.setdefault(u, set()).add((a, b))
        for u in users:
            assert len(by_user[u]) == 50

    def test_each_user_touches_enough_items(self):
        res = self._result(seed=1)
        by_user = {}
        for a, b, u in _triple_set(res.triples):
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
        users = res.triples.user_ids
        for a, b, u in _triple_set(res.triples):
            uidx = users.index(u)
            w = masks[uidx % 2]
            sa = S[res.features.index_of(a)]
            sb = S[res.features.index_of(b)]
            du = float(np.sum(((sa - sb) * w) ** 2))
            assert du < thresholds[uidx]

    def test_deterministic(self):
        a = self._result(seed=4)
        b = self._result(seed=4)
        assert _triple_set(a.triples) == _triple_set(b.triples)


def _dense_generate(config):
    """The generator as it was before the streaming pass: all N(N-1)/2 planted
    distances in one table. Kept as the oracle for generate's non-user modes.
    The one addition is the rule-negative guard before the flips, without
    which a too loose c_star made the flip loop below run forever."""
    config.validate()
    rng = np.random.default_rng(config.seed)
    N, F, E = config.n_items, config.n_features, config.n_edges
    X = rng.standard_normal((N, F))
    item_ids = synthetic._item_ids(N)
    features = FeatureMatrix(item_ids, X)
    Y = synthetic._planted_transform(config)
    S = project_rows(X, Y)
    info = {"mode": config.mode, "requested_c_star": config.c_star}

    ii, jj = np.triu_indices(N, k=1)
    ii = ii.astype(np.int64)
    jj = jj.astype(np.int64)
    d = pair_distances_style(S, ii, jj)

    if config.c_star is None:
        c_star = float(np.partition(d, E)[E])
        info["c_star_source"] = "fit_to_edge_count"
    else:
        c_star = float(config.c_star)
        if int(np.sum(d < c_star)) < E:
            c_star = float(np.partition(d, E)[E])
            info["c_star_source"] = "adjusted_up_to_edge_count"
        else:
            info["c_star_source"] = "explicit"
    rule_pos = np.flatnonzero(d < c_star)
    info["rule_positive_count"] = int(len(rule_pos))
    if len(rule_pos) > E:
        sel = rng.choice(len(rule_pos), size=E, replace=False)
        chosen = np.sort(rule_pos[sel])
    else:
        chosen = rule_pos.copy()

    flip_count = int(rng.binomial(E, config.noise)) if config.noise > 0.0 else 0
    rule_neg_count = int(np.sum(d >= c_star))
    if rule_neg_count < flip_count:
        raise ValueError(f"c_star {c_star} leaves {rule_neg_count} rule-negative pairs, "
                         f"fewer than the {flip_count} noise flips")
    used = set(int(t) for t in chosen)
    if flip_count:
        flip_at = rng.choice(E, size=flip_count, replace=False)
        n_pairs = len(d)
        for pos in flip_at:
            while True:
                t = int(rng.integers(0, n_pairs))
                if d[t] >= c_star and t not in used:
                    used.add(t)
                    chosen[pos] = t
                    break
    info["flip_count"] = flip_count

    graph = RelationGraph(item_ids, np.stack([ii[chosen], jj[chosen]], axis=1),
                          np.full(len(chosen), RELATION_CLASSES.index("also_bought")))
    info["c_star_used"] = c_star
    return SynthResult(features, graph, Y, c_star, None, info)


@st.composite
def _configs(draw):
    mode = draw(st.sampled_from(["axis_aligned", "cross_feature"]))
    n = draw(st.integers(3, 40))
    k = draw(st.integers(1, 3))
    f = draw(st.integers(2 * k if mode == "cross_feature" else k, 7))
    universe = n * (n - 1) // 2
    e = draw(st.integers(1, universe - 1))
    noise = draw(st.sampled_from([0.0, 0.1, 0.45]))
    c_star = draw(st.one_of(st.none(), st.just(1e-12), st.floats(0.05, 40.0)))
    return SynthConfig(n, f, k, e, noise, mode, draw(st.integers(0, 2**32 - 1)), c_star)


@given(config=_configs(), block=st.sampled_from([1, 7, synthetic._TRIU_BLOCK]))
@example(config=SynthConfig(90, 6, 2, 400, 0.2, "axis_aligned", 3, None), block=7)
@example(config=SynthConfig(90, 6, 2, 400, 0.2, "cross_feature", 3, 1e-12), block=7)
@example(config=SynthConfig(90, 6, 2, 400, 0.2, "cross_feature", 3, 8.0), block=7)
@example(config=SynthConfig(200, 8, 2, 100, 0.1, "axis_aligned", 9, 50.0), block=7)
def test_streaming_generate_matches_the_dense_oracle(config, block):
    """Any seed, mode, noise level and c_star, with blocks that split rows:
    the same features, edges, threshold and info as the dense generator, or
    the same ValueError."""
    try:
        want = _dense_generate(config)
    except ValueError as exc:
        with mock.patch.object(synthetic, "_TRIU_BLOCK", block), \
                pytest.raises(ValueError, match=re.escape(str(exc))):
            generate(config)
        return
    with mock.patch.object(synthetic, "_TRIU_BLOCK", block):
        got = generate(config)
    assert np.array_equal(got.features.values, want.features.values)
    assert _edge_set(got.graph) == _edge_set(want.graph)
    assert got.threshold == want.threshold
    assert got.info == want.info
    assert list(got.info) == list(want.info)


def test_triu_index_map_is_exact():
    for n in (2, 3, 17, 100):
        starts = synthetic._row_starts(n)
        ii, jj = np.triu_indices(n, k=1)
        i, j = synthetic._triu_pairs(np.arange(len(ii)), starts)
        assert np.array_equal(i, ii) and np.array_equal(j, jj)
    # row ends and starts of a large triangle, where t runs past 2**32
    n = 200_000
    starts = synthetic._row_starts(n)
    rows = [0, 1, 70_001, n - 3, n - 2]
    ends = [(i, n - 1) for i in rows] + [(i, i + 1) for i in rows]
    t = np.array([i * (2 * n - i - 1) // 2 + j - i - 1 for i, j in ends])
    i, j = synthetic._triu_pairs(t, starts)
    assert list(zip(i.tolist(), j.tolist())) == ends


def test_generate_memory_does_not_grow_with_the_pair_count():
    """N=3,000 has 4.5M pairs, a 34 MiB distance table on its own; the
    streaming pass holds the 20,001 smallest and one block at a time. Under
    the loose explicit c_star millions of pairs lie below it: the pass only
    counts them, and a second pass maps the drawn ranks to pairs."""
    for config in (SynthConfig(3000, 32, 4, 20000, 0.1, "cross_feature", 1),
                   SynthConfig(3000, 32, 4, 20000, 0.0, "cross_feature", 1, c_star=20.0)):
        tracemalloc.start()
        try:
            generate(config)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 32 * 2**20, config
