"""Style embeddings, k-means, and graph navigation.

Navigation is checked against an independent exhaustive shortest-path
search; k-means against the properties that hold for exact Lloyd updates.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from stylemetric import stylespace
from stylemetric.catalog import DataError, FeatureMatrix, MetricModel
from stylemetric.metric import _rowwise_sqnorm, project_rows
from stylemetric.stylespace import (StyleEmbedding, _knn_graph, embed_all,
                                    kmeans, load_embedding, navigate,
                                    representatives, save_embedding)


def _embedding(seed=0, n=20, k=3, scale=1.0):
    rng = np.random.default_rng(seed)
    return StyleEmbedding([f"i{z:03d}" for z in range(n)],
                          rng.standard_normal((n, k)) * scale)


def test_embed_all_is_the_projection():
    rng = np.random.default_rng(1)
    X = rng.standard_normal((12, 6))
    feats = FeatureMatrix([f"i{z}" for z in range(12)], X)
    Y = rng.standard_normal((6, 2))
    model = MetricModel("low_rank", Y, 1.0, metadata={"feature_norm": "none"})
    emb = embed_all(model, feats)
    assert np.array_equal(emb.vectors, project_rows(X, Y))
    assert emb.item_ids == feats.item_ids


def test_embed_all_rejects_weighted_nn():
    feats = FeatureMatrix(["a", "b"], np.zeros((2, 3)))
    model = MetricModel("weighted_nn", np.ones(3), 1.0)
    with pytest.raises(DataError):
        embed_all(model, feats)


def test_embedding_roundtrip(tmp_path):
    emb = _embedding(seed=2)
    p = tmp_path / "emb.tsv"
    save_embedding(emb, p)
    back = load_embedding(p)
    assert back.item_ids == emb.item_ids
    assert np.array_equal(back.vectors, emb.vectors)


@pytest.mark.parametrize("text, where", [
    ("#style two 2\na\t1.0\t2.0\n", ":1:"),
    ("#style 2 2\na\t1.0\t2.0\nb\t3.0\tthree\n", ":3:"),
])
def test_load_embedding_rejects_malformed_numbers(tmp_path, text, where):
    p = tmp_path / "emb.tsv"
    p.write_text(text)
    with pytest.raises(DataError) as e:
        load_embedding(p)
    assert where in str(e.value)


class TestKMeans:
    def test_two_blobs_recovered_exactly(self):
        rng = np.random.default_rng(3)
        a = rng.standard_normal((15, 2)) * 0.05
        b = rng.standard_normal((15, 2)) * 0.05 + np.array([10.0, 10.0])
        emb = StyleEmbedding([f"i{z}" for z in range(30)], np.vstack([a, b]))
        clustering = kmeans(emb, 2, seed=0)
        first = clustering.assignment[:15]
        second = clustering.assignment[15:]
        assert len(set(first.tolist())) == 1
        assert len(set(second.tolist())) == 1
        assert first[0] != second[0]

    def test_objective_trace_never_increases(self):
        for seed in range(20):
            emb = _embedding(seed=seed, n=40, k=2)
            clustering = kmeans(emb, 5, seed=seed)
            trace = np.array(clustering.objective_trace)
            assert np.all(np.diff(trace) <= 1e-12), seed

    def test_k_equals_n_gives_zero_objective(self):
        emb = _embedding(seed=4, n=12)
        clustering = kmeans(emb, 12, seed=0)
        assert clustering.objective == 0.0
        assert sorted(clustering.assignment.tolist()) == list(range(12))

    def test_final_objective_is_recomputable(self):
        emb = _embedding(seed=5, n=50, k=3)
        clustering = kmeans(emb, 6, seed=1)
        diffs = emb.vectors - clustering.centroids[clustering.assignment]
        want = float(np.sum(np.einsum("ij,ij->i", diffs, diffs)))
        assert clustering.objective == want

    def test_deterministic_under_seed(self):
        emb = _embedding(seed=6, n=30)
        a = kmeans(emb, 4, seed=7)
        b = kmeans(emb, 4, seed=7)
        assert np.array_equal(a.assignment, b.assignment)
        assert np.array_equal(a.centroids, b.centroids)
        assert a.objective == b.objective

    def test_duplicate_points_do_not_break_clustering(self):
        # more clusters than distinct locations forces empty-cluster repair
        vecs = np.array([[0.0, 0.0]] * 5 + [[1.0, 1.0]] * 5 + [[2.0, 2.0]] * 5)
        emb = StyleEmbedding([f"i{z}" for z in range(15)], vecs)
        clustering = kmeans(emb, 3, seed=0)
        assert clustering.objective == 0.0

    def test_random_seeding_mode(self):
        emb = _embedding(seed=8, n=25)
        clustering = kmeans(emb, 3, seed=2, seeding="random")
        trace = np.array(clustering.objective_trace)
        assert np.all(np.diff(trace) <= 1e-12)

    def test_rejects_k_out_of_range(self):
        emb = _embedding(seed=9, n=10)
        with pytest.raises(DataError):
            kmeans(emb, 0, seed=0)
        with pytest.raises(DataError):
            kmeans(emb, 11, seed=0)


def test_representatives_sorted_by_distance_then_id():
    emb = _embedding(seed=10, n=30)
    clustering = kmeans(emb, 3, seed=0)
    reps = representatives(clustering, emb, 4)
    for cluster, items in reps.items():
        assert len(items) <= 4
        d = [float(np.sum((emb.vectors[emb.index_of(i)]
                           - clustering.centroids[cluster]) ** 2))
             for i in items]
        assert d == sorted(d)


def _brute_force_shortest(adjacency, src, dst, n):
    """Exhaustive Bellman-Ford style relaxation; no heap tricks to share."""
    dist = {v: np.inf for v in range(n)}
    dist[src] = 0.0
    for _ in range(n):
        for u in range(n):
            for v, w in adjacency[u].items():
                if dist[u] + w < dist[v]:
                    dist[v] = dist[u] + w
    return dist[dst]


def test_navigate_matches_exhaustive_search():
    from stylemetric.stylespace import _knn_graph

    for seed in range(100):
        emb = _embedding(seed=seed, n=10, k=2)
        adjacency = _knn_graph(emb.vectors, 3)
        src, dst = 0, 9
        want = _brute_force_shortest(adjacency, src, dst, 10)
        if not np.isfinite(want):
            with pytest.raises(DataError):
                navigate(emb, emb.item_ids[src], emb.item_ids[dst], knn_k=3)
            continue
        items, cost, hops = navigate(emb, emb.item_ids[src], emb.item_ids[dst],
                                     knn_k=3)
        assert cost == want, seed
        assert items[0] == emb.item_ids[src]
        assert items[-1] == emb.item_ids[dst]
        assert cost == pytest.approx(sum(hops), rel=1e-12)


def test_navigate_on_a_chain():
    # colinear points: the cheapest route visits every intermediate stop,
    # because squared distances punish long hops quadratically
    vecs = np.array([[float(i), 0.0] for i in range(6)])
    emb = StyleEmbedding([f"i{z}" for z in range(6)], vecs)
    items, cost, hops = navigate(emb, "i0", "i5", knn_k=2)
    assert items == ["i0", "i1", "i2", "i3", "i4", "i5"]
    assert cost == pytest.approx(5.0, rel=1e-12)


def test_navigate_rejects_same_endpoints():
    emb = _embedding(seed=11)
    with pytest.raises(DataError):
        navigate(emb, "i000", "i000")


def test_navigate_disconnected_reports_knn_hint():
    # two far-apart cliques, k too small to bridge them
    near = np.array([[0.0, 0.0], [0.1, 0.0], [0.0, 0.1]])
    far = near + 1000.0
    emb = StyleEmbedding([f"i{z}" for z in range(6)], np.vstack([near, far]))
    with pytest.raises(DataError) as e:
        navigate(emb, "i0", "i5", knn_k=1)
    assert "knn_k" in str(e.value)


def test_navigate_isomorphism_under_orthogonal_rotation():
    """Rotating every style vector leaves all pairwise distances unchanged,
    so paths and costs must be identical within float tolerance."""
    rng = np.random.default_rng(12)
    emb = _embedding(seed=13, n=15, k=3)
    q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
    rotated = StyleEmbedding(emb.item_ids, emb.vectors @ q)
    a_items, a_cost, _ = navigate(emb, "i000", "i014", knn_k=4)
    b_items, b_cost, _ = navigate(rotated, "i000", "i014", knn_k=4)
    assert a_items == b_items
    assert b_cost == pytest.approx(a_cost, rel=1e-9)


def _knn_graph_per_row(S, knn_k):
    """The kNN graph by one full stable argsort of every row's exact
    distances: the reference the blocked shortlist must reproduce."""
    n = S.shape[0]
    k = min(knn_k, n - 1)
    adjacency = [dict() for _ in range(n)]
    for i in range(n):
        d2 = _rowwise_sqnorm(S - S[i])
        d2[i] = np.inf
        for j in np.argsort(d2, kind="stable")[:k]:
            w = float(d2[j])
            adjacency[i][int(j)] = w
            adjacency[int(j)][i] = w
    return adjacency


def _rows(kind, n, dim, scale, seed):
    rng = np.random.default_rng(seed)
    if kind == "grid":  # integer coordinates: many equal distances
        S = rng.integers(-2, 3, (n, dim)).astype(np.float64)
    elif kind == "duplicates":  # every row repeats one of a few
        S = rng.standard_normal((max(1, n // 3), dim))[rng.integers(0, max(1, n // 3), n)]
    elif kind == "cluster":  # distances far below the rows' norms
        S = 1e4 + rng.standard_normal((n, dim)) * 1e-6
    else:
        S = rng.standard_normal((n, dim))
    return S * scale


def _same_graph(got, want):
    return [list(row.items()) for row in got] == [list(row.items()) for row in want]


@given(kind=st.sampled_from(("normal", "grid", "duplicates", "cluster")),
       scale=st.sampled_from((1.0, 1e-160, 1e-163, 1e-300, 1e-320, 1e160, 1e300)),
       n=st.integers(2, 40), dim=st.integers(1, 4), seed=st.integers(0, 2**32 - 1),
       data=st.data())
def test_knn_graph_matches_a_full_sort_of_every_row(kind, scale, n, dim, seed, data):
    """Keys, weights and insertion order, including ties, duplicate rows,
    distances that round to few bits or to zero (rows near 1e-160 and below)
    or overflow (1e160 and above), knn_k >= n - 1, and block sizes on either
    side of the row count."""
    knn_k = data.draw(st.integers(1, n + 1), label="knn_k")
    block = data.draw(st.sampled_from((n - 1, n, n + 1, 1, max(1, n // 3))), label="block")
    S = _rows(kind, n, dim, scale, seed)
    with np.errstate(over="ignore"):
        want = _knn_graph_per_row(S, knn_k)
        with mock.patch.object(stylespace, "_KNN_BLOCK_BYTES", 8 * n * block):
            got = _knn_graph(S, knn_k)
    assert _same_graph(got, want)


@pytest.mark.parametrize("offset", [-1, 0, 1])
def test_knn_graph_at_the_block_size(offset):
    """n = B - 1, B and B + 1 rows, where B is the row count of one block
    at n rows: one short block, one full block, and a full block plus a
    short one."""
    side = int(np.sqrt(stylespace._KNN_BLOCK_BYTES // 8))
    assert stylespace._KNN_BLOCK_BYTES // (8 * side) == side
    S = _rows("grid", side + offset, 3, 1.0, seed=offset + 1)
    assert _same_graph(_knn_graph(S, 10), _knn_graph_per_row(S, 10))


def test_knn_graph_of_two_and_of_one_row():
    S = np.array([[0.0, 1.0], [2.0, 1.0]])
    assert _knn_graph(S, 5) == [{1: 4.0}, {0: 4.0}]
    assert _knn_graph(S[:1], 5) == [{}]
