"""End-to-end acceptance gate.

One test per shipping criterion, each printing a single summary line with
the measured numbers next to the bound it must clear. Run with -v to get
the pass/fail verdict per criterion.
"""

import hashlib
import os
import pathlib
import time
from dataclasses import replace

import numpy as np
import pytest

from stylemetric import cli
from stylemetric.catalog import DataError, FeatureMatrix, MetricModel
from stylemetric.evaluation import evaluate
from stylemetric.metric import link_probability, model_distances
from stylemetric.recommend import makeover_delta, outfit_coherence
from stylemetric.sampling import (TRAIN_POSITIVE_CAP, LabeledPairSet,
                                  build_user_dataset, graph_to_pairs,
                                  sample_negatives, split)
from stylemetric.stylespace import StyleEmbedding, kmeans, navigate
from stylemetric.synthetic import SynthConfig, generate
from stylemetric.training import TrainConfig, gradient, log_likelihood, train, \
    train_personalized


def _report(name, detail):
    print(f"criterion {name}: PASS ({detail})")


def _table(item_ids, pos, neg):
    """A LabeledPairSet over sampled related and unrelated halves."""
    return LabeledPairSet(item_ids, np.concatenate([pos, neg]),
                          np.repeat([True, False], len(pos)), "all")


# -------------------------------------------------------------------------
# 1. gradient correctness


def _random_instance(rng, kind, n_users=3):
    f = int(rng.integers(2, 13))
    k = int(rng.integers(1, 5))
    n = int(rng.integers(4, 16))
    m = int(rng.integers(1, 51))
    X = rng.standard_normal((n, f))
    i_idx = rng.integers(0, n - 1, m)
    j_idx = np.maximum(i_idx + 1, rng.integers(1, n, m))
    j_idx = np.minimum(j_idx, n - 1)
    i_idx = np.minimum(i_idx, j_idx - 1)
    labels = rng.integers(0, 2, m).astype(bool)
    c = float(rng.uniform(0.5, 3.0))
    feats = FeatureMatrix([f"i{z}" for z in range(n)], X)
    if kind == "weighted_nn":
        model = MetricModel(kind, rng.uniform(0.05, 1.5, f), c)
        pairs = (i_idx, j_idx, labels)
    elif kind == "low_rank":
        model = MetricModel(kind, rng.standard_normal((f, k)) * 0.5, c)
        pairs = (i_idx, j_idx, labels)
    else:
        model = MetricModel(kind, rng.standard_normal((f, k)) * 0.5, c,
                            user_ids=[f"u{z}" for z in range(n_users)],
                            user_weights=rng.uniform(0.05, 2.0, (n_users, k)))
        pairs = (i_idx, j_idx, labels, rng.integers(0, n_users, m))
    return model, feats, pairs


def _flat_gradient(model, feats, pairs):
    parts = gradient(model, feats, pairs)
    flat = [np.asarray(parts[0]).ravel(), [parts[1]]]
    if len(parts) == 3:
        flat.append(np.asarray(parts[2]).ravel())
    return np.concatenate([np.asarray(p, dtype=np.float64) for p in flat])


def _fd_gradient(model, feats, pairs, h=1e-6):
    t_size = model.transform.size
    u_size = 0 if model.user_weights is None else model.user_weights.size
    total = t_size + 1 + u_size

    def at(delta):
        gt = model.transform + delta[:t_size].reshape(model.transform.shape)
        dc = model.threshold + delta[t_size]
        kw = {}
        if u_size:
            kw = dict(user_ids=model.user_ids,
                      user_weights=model.user_weights
                      + delta[t_size + 1 :].reshape(model.user_weights.shape))
        m2 = MetricModel(model.kind, gt, dc, **kw)
        return log_likelihood(m2, feats, pairs)

    out = np.empty(total)
    for p in range(total):
        e = np.zeros(total)
        e[p] = h
        out[p] = (at(e) - at(-e)) / (2 * h)
    return out


def test_criterion_01_gradient_correctness():
    start = time.perf_counter()
    worst = {}
    for kind, seed in (("weighted_nn", 10), ("low_rank", 11), ("personalized", 12)):
        rng = np.random.default_rng(seed)
        worst[kind] = 0.0
        for _ in range(100):
            model, feats, pairs = _random_instance(rng, kind)
            analytic = _flat_gradient(model, feats, pairs)
            numeric = _fd_gradient(model, feats, pairs)
            rel = np.abs(analytic - numeric) / np.maximum(np.abs(numeric), 1.0)
            worst[kind] = max(worst[kind], float(rel.max()))
        assert worst[kind] < 1e-4, (kind, worst[kind])
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0, f"gradient check took {elapsed:.1f}s"
    detail = ", ".join(f"{k} worst rel err {v:.2e}" for k, v in worst.items())
    _report("01 gradient correctness", f"{detail}; {elapsed:.1f}s < 10s")


# -------------------------------------------------------------------------
# 2. low-rank vs full quadratic form


def test_criterion_02_low_rank_matches_full_metric():
    rng = np.random.default_rng(20)
    worst = 0.0
    for _ in range(1000):
        f = int(rng.integers(1, 17))
        k = int(rng.integers(1, f + 1))
        Y = rng.standard_normal((f, k))
        x_i, x_j = rng.standard_normal(f), rng.standard_normal(f)
        model = MetricModel("low_rank", Y, 1.0)
        a = model_distances(model, np.vstack([x_i, x_j]), [0], [1])[0]
        delta = x_i - x_j
        b = float(delta @ (Y @ Y.T) @ delta)  # the full form, as the oracle
        worst = max(worst, abs(a - b) / max(abs(b), 1e-300))
    assert worst < 1e-9
    _report("02 low-rank equals full form", f"1000 instances, worst rel {worst:.2e} < 1e-9")


# -------------------------------------------------------------------------
# 3. threshold semantics


def test_criterion_03_threshold_semantics():
    rng = np.random.default_rng(30)
    for c in rng.uniform(0.01, 50.0, 200):
        assert abs(link_probability(float(c), float(c)) - 0.5) < 1e-12

    # evaluate must reproduce the strict d < c rule on every pair,
    # including an exact tie engineered into the set
    X = rng.standard_normal((40, 6))
    X[1] = X[0].copy()
    X[1, 0] += 1.0  # with an identity-ish transform d(0,1) is controllable
    feats = FeatureMatrix([f"i{z}" for z in range(40)], X)
    Y = np.zeros((6, 3))
    Y[0, 0] = 1.0
    Y[1, 1] = 1.0
    Y[2, 2] = 1.0
    model = MetricModel("low_rank", Y, 1.0)
    seen = set()
    pos, neg = [(0, 1)], []  # d(0,1) == 1.0 == c exactly: the tie pair
    while len(pos) < 30 or len(neg) < 30:
        i, j = sorted(rng.choice(40, 2, replace=False).tolist())
        if (i, j) in seen or (i, j) == (0, 1):
            continue
        seen.add((i, j))
        (pos if len(pos) < 30 else neg).append((i, j))
    ps = LabeledPairSet(feats.item_ids, pos + neg, [True] * 30 + [False] * 30, "test")
    rep = evaluate(model, feats, ps)
    labels = ps.labels
    d = model_distances(model, feats.values, ps.pairs[:, 0], ps.pairs[:, 1])
    assert d[0] == 1.0  # tie is exact
    pred = d < model.threshold
    assert rep.tp == int(np.sum(pred & labels))
    assert rep.tn == int(np.sum(~pred & ~labels))
    assert rep.fp == int(np.sum(pred & ~labels))
    assert rep.fn == int(np.sum(~pred & labels))
    assert not pred[0]  # the tie pair is decided unrelated
    _report("03 threshold semantics", "P(c,c)=0.5 within 1e-12; decisions equal d<c, tie unrelated")


# -------------------------------------------------------------------------
# 4. planted-metric recovery at scale


def test_criterion_04_planted_metric_recovery():
    start = time.perf_counter()
    cfg = SynthConfig(n_items=2000, n_features=32, true_rank=4, n_edges=20000,
                      noise=0.1, mode="cross_feature", seed=11)
    res = generate(cfg)
    pos = graph_to_pairs(res.graph, res.features)
    neg = sample_negatives(pos, res.features.n_items, seed=11)
    parts = split(_table(res.features.item_ids, pos, neg), seed=11)
    tc = TrainConfig(kind="low_rank", rank=4, max_iterations=200, seed=0)
    model, _ = train(tc, res.features, parts["train"])
    acc = evaluate(model, res.features, parts["test"]).accuracy
    wnn_model, _ = train(replace(tc, kind="weighted_nn"), res.features, parts["train"])
    wnn_acc = evaluate(wnn_model, res.features, parts["test"]).accuracy
    elapsed = time.perf_counter() - start
    assert acc >= 0.85, f"low-rank test accuracy {acc:.4f}"
    assert acc - wnn_acc >= 0.10, f"gap {acc - wnn_acc:.4f}"
    assert elapsed < 300.0, f"took {elapsed:.0f}s"
    _report("04 planted-metric recovery",
            f"low-rank {acc:.3f} >= 0.85, wnn {wnn_acc:.3f}, "
            f"gap {acc - wnn_acc:.3f} >= 0.10, {elapsed:.0f}s < 300s")


# -------------------------------------------------------------------------
# 5. personalization gain


def test_criterion_05_personalization_gain():
    start = time.perf_counter()
    wins = 0
    margins = []
    for seed in range(5):
        cfg = SynthConfig(n_items=600, n_features=16, true_rank=4,
                          n_edges=2500, noise=0.0,
                          mode="two_population_users", seed=seed)
        res = generate(cfg)
        pairs = build_user_dataset(res.triples, res.features, seed)
        parts = split(pairs, seed)
        tc = TrainConfig(kind="low_rank", rank=4, max_iterations=200, seed=0)
        gmodel, _ = train(tc, res.features, parts["train"])
        acc_g = evaluate(gmodel, res.features, parts["test"]).accuracy
        pmodel, _ = train_personalized(tc, res.features, parts["train"], gmodel)
        acc_p = evaluate(pmodel, res.features, parts["test"]).accuracy
        margins.append(acc_p - acc_g)
        wins += int(acc_p > acc_g)
    elapsed = time.perf_counter() - start
    assert wins >= 4, f"personalization won only {wins}/5 seeds ({margins})"
    assert elapsed < 180.0, f"took {elapsed:.0f}s"
    _report("05 personalization gain",
            f"{wins}/5 seeds improved, margins "
            f"{', '.join(f'{m:+.3f}' for m in margins)}, {elapsed:.0f}s < 180s")


# -------------------------------------------------------------------------
# 6. split protocol invariants


def test_criterion_06_split_protocol():
    # floor rule, balance, and global negative disjointness on a real sample
    cfg = SynthConfig(n_items=500, n_features=8, true_rank=2, n_edges=5003,
                      noise=0.0, mode="axis_aligned", seed=60)
    res = generate(cfg)
    pos = graph_to_pairs(res.graph, res.features)
    neg = sample_negatives(pos, res.features.n_items, seed=60)
    pos_keys = {tuple(p) for p in pos.tolist()}
    assert all(tuple(q) not in pos_keys for q in neg.tolist())
    parts = split(_table(res.features.item_ids, pos, neg), seed=60)
    related = {tag: int(np.count_nonzero(ps.labels)) for tag, ps in parts.items()}
    assert related["validation"] == 500  # floor(0.1 * 5003)
    assert related["test"] == 500
    assert related["train"] == 4003
    for tag in ("train", "validation", "test"):
        assert 2 * related[tag] == parts[tag].n_pairs

    # the 2,000,000-positive training cap binds on a 2.5M-edge instance
    m = 2_500_000
    n = 100_000
    rng = np.random.default_rng(61)
    lo_p = rng.integers(0, n - 1, size=m, dtype=np.int64)
    big_pos = np.column_stack([lo_p, lo_p + 1])
    lo_n = rng.integers(0, n - 2, size=m, dtype=np.int64)
    big_neg = np.column_stack([lo_n, lo_n + 2])
    big = split(_table([str(k) for k in range(n)], big_pos, big_neg), seed=62)
    related = {tag: int(np.count_nonzero(ps.labels)) for tag, ps in big.items()}
    assert related["validation"] == 250_000
    assert related["test"] == 250_000
    assert related["train"] == TRAIN_POSITIVE_CAP == 2_000_000
    _report("06 split protocol",
            "80/10/10 floor rule, balanced, negatives disjoint; "
            "train positives capped at exactly 2,000,000 on E=2.5M")


# -------------------------------------------------------------------------
# 7. k-means invariants


def test_criterion_07_kmeans_invariants():
    checked = 0
    for seed in range(30):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(10, 60))
        k = int(rng.integers(1, min(8, n) + 1))
        emb = StyleEmbedding([f"i{z:03d}" for z in range(n)],
                             rng.standard_normal((n, 3)))
        clustering = kmeans(emb, k, seed=seed)
        trace = np.array(clustering.objective_trace)
        assert np.all(np.diff(trace) <= 1e-12), seed
        checked += 1

    rng = np.random.default_rng(70)
    a = rng.standard_normal((20, 2)) * 0.05
    b = rng.standard_normal((20, 2)) * 0.05 + 8.0
    emb = StyleEmbedding([f"i{z}" for z in range(40)], np.vstack([a, b]))
    blob = kmeans(emb, 2, seed=0)
    assert len(set(blob.assignment[:20].tolist())) == 1
    assert len(set(blob.assignment[20:].tolist())) == 1
    assert blob.assignment[0] != blob.assignment[-1]

    small = StyleEmbedding([f"i{z}" for z in range(15)],
                           rng.standard_normal((15, 2)))
    degenerate = kmeans(small, 15, seed=1)
    assert degenerate.objective == 0.0
    _report("07 k-means invariants",
            f"{checked} runs non-increasing; two-blob exact; k=N objective 0")


# -------------------------------------------------------------------------
# 8. navigation equals exhaustive search


def _exhaustive_cost(adjacency, src, dst, n):
    dist = [np.inf] * n
    dist[src] = 0.0
    for _ in range(n):
        for u in range(n):
            for v, w in adjacency[u].items():
                if dist[u] + w < dist[v]:
                    dist[v] = dist[u] + w
    return dist[dst]


def test_criterion_08_navigation_exact():
    from stylemetric.stylespace import _knn_graph

    agreements = 0
    for seed in range(100):
        rng = np.random.default_rng(1000 + seed)
        emb = StyleEmbedding([f"i{z}" for z in range(10)],
                             rng.standard_normal((10, 2)))
        adjacency = _knn_graph(emb.vectors, 3)
        want = _exhaustive_cost(adjacency, 0, 9, 10)
        if np.isfinite(want):
            _, cost, _ = navigate(emb, "i0", "i9", knn_k=3)
            assert cost == want, seed
        else:
            with pytest.raises(DataError):
                navigate(emb, "i0", "i9", knn_k=3)
        agreements += 1
    _report("08 navigation exact", f"{agreements}/100 random style sets agree exactly")


# -------------------------------------------------------------------------
# 9. outfit scoring invariants


def test_criterion_09_outfit_scoring():
    rng = np.random.default_rng(90)
    X = rng.standard_normal((15, 5))
    feats = FeatureMatrix([f"i{z:02d}" for z in range(15)], X)
    model = MetricModel("low_rank", rng.standard_normal((5, 3)), 2.0)
    items = feats.item_ids[:8]
    base = outfit_coherence(model, feats, items).mean_pair_loglik
    for _ in range(200):
        shuffled = list(items)
        rng.shuffle(shuffled)
        assert outfit_coherence(model, feats, shuffled).mean_pair_loglik == base

    outfit = feats.item_ids[:4]
    assert makeover_delta(model, feats, outfit, list(outfit)) == 0.0

    # monotone degradation: one member drifts away step by step
    drift_model = MetricModel("low_rank", np.array([[1.0]]), 2.0)
    last = np.inf
    for off in (0.5, 1.0, 2.0, 4.0, 8.0, 16.0):
        f2 = FeatureMatrix(["a", "b", "m"], np.array([[0.0], [0.2], [off]]))
        score = outfit_coherence(drift_model, f2, ["a", "b", "m"]).mean_pair_loglik
        assert score < last
        last = score
    _report("09 outfit scoring",
            "200 shuffles invariant; makeover(x,x)=0; degradation monotone")


# -------------------------------------------------------------------------
# 10. byte-identical re-runs


def _digest_tree(root):
    out = {}
    for dirpath, _, filenames in os.walk(root):
        for name in sorted(filenames):
            if name == "run_manifest.json":
                continue  # run metadata records wall time by design
            p = os.path.join(dirpath, name)
            out[os.path.relpath(p, root)] = hashlib.sha256(
                pathlib.Path(p).read_bytes()).hexdigest()
    return out


def test_criterion_10_deterministic_reruns(tmp_path):
    def run_pipeline(root):
        r = lambda *a: cli.main([str(x) for x in a])
        data, sampled, splits = root / "data", root / "sampled", root / "splits"
        fit, emb, clu, nav = root / "fit", root / "emb", root / "clu", root / "nav"
        assert r("synth", "--n", 150, "--f", 8, "--k", 2, "--edges", 600,
                 "--noise", 0.1, "--seed", 9, "--out", data) == 0
        assert r("sample", "--features", data / "features.tsv",
                 "--edges", data / "edges.tsv", "--seed", 9,
                 "--out", sampled) == 0
        assert r("split", "--features", data / "features.tsv",
                 "--pairs", sampled / "pairs.tsv", "--seed", 9,
                 "--out", splits) == 0
        assert r("train", "--features", data / "features.tsv",
                 "--pairs", splits / "train.pairs", "--rank", 2,
                 "--max-iter", 60, "--seed", 9, "--out", fit) == 0
        assert r("eval", "--features", data / "features.tsv",
                 "--pairs", splits / "test.pairs", "--model", fit / "model.bin",
                 "--format", "tsv", "--out", root / "ev") == 0
        assert r("embed", "--features", data / "features.tsv",
                 "--model", fit / "model.bin", "--out", emb) == 0
        assert r("cluster", "--features", data / "features.tsv",
                 "--model", fit / "model.bin", "--k", 5, "--seed", 9,
                 "--out", clu) == 0
        assert r("navigate", "--features", data / "features.tsv",
                 "--model", fit / "model.bin", "--source", "i000",
                 "--target", "i100", "--out", nav) == 0
        return _digest_tree(root)

    first = run_pipeline(tmp_path / "one")
    second = run_pipeline(tmp_path / "two")
    assert first == second
    n_files = len(first)
    _report("10 deterministic re-runs",
            f"{n_files} output files byte-identical across a full re-run")
