"""Style-space tooling: batch embedding, k-means, representatives, navigation.

The embedding matrix is produced by the same row-by-row projection used by
the distance functions, so squared Euclidean distances between its rows equal
the low-rank metric exactly. The navigation graph's kNN edges come from the
exact difference kernel as well: a matrix product only shortlists each row's
candidates, and every edge weight and neighbor order is decided on the
differences of embedding rows.
"""

import heapq
from dataclasses import dataclass, field

import numpy as np

from .catalog import (DataError, FeatureMatrix, MetricModel, atomic_writer, read_matrix,
                      write_matrix)
from .metric import _rowwise_sqnorm, project_rows

_ASSIGN_BLOCK = 2048
# Bytes of approximate distances one _knn_graph block holds: B rows x N.
_KNN_BLOCK_BYTES = 4 << 20


@dataclass
class StyleEmbedding:
    """Per-item style vectors s_i = x_i Y, one row per item."""

    item_ids: list
    vectors: np.ndarray  # (N, K) float64

    def __post_init__(self):
        self.vectors = np.ascontiguousarray(self.vectors, dtype=np.float64)
        if self.vectors.ndim != 2 or len(self.item_ids) != self.vectors.shape[0]:
            raise DataError("embedding requires one vector row per item id")
        if not np.all(np.isfinite(self.vectors)):
            raise DataError("non-finite style vector")
        self._index = {item: i for i, item in enumerate(self.item_ids)}

    @property
    def n_items(self) -> int:
        return self.vectors.shape[0]

    def index_of(self, item_id: str) -> int:
        try:
            return self._index[item_id]
        except KeyError:
            raise DataError(f"unknown item id: {item_id!r}") from None


@dataclass
class Clustering:
    k: int
    centroids: np.ndarray  # (k, K)
    assignment: np.ndarray  # (N,) int64
    objective: float
    objective_trace: list = field(default_factory=list)


def embed_all(model: MetricModel, features: FeatureMatrix) -> StyleEmbedding:
    """Project every item into style space under a low-rank model."""
    if model.kind == "weighted_nn":
        raise DataError("weighted_nn models have no style-space transform")
    return StyleEmbedding(features.item_ids, project_rows(features.values, model.transform,
                                                         norm=model.feature_norm))


def _nearest(S, centroids):
    """(assignment, squared distance to own centroid), ties to the lowest index."""
    n = S.shape[0]
    assign = np.empty(n, dtype=np.int64)
    dist = np.empty(n, dtype=np.float64)
    for start in range(0, n, _ASSIGN_BLOCK):
        stop = min(start + _ASSIGN_BLOCK, n)
        block = S[start:stop]
        d2 = np.empty((stop - start, len(centroids)))
        for c in range(len(centroids)):
            d2[:, c] = _rowwise_sqnorm(block - centroids[c])
        assign[start:stop] = np.argmin(d2, axis=1)
        dist[start:stop] = d2[np.arange(stop - start), assign[start:stop]]
    return assign, dist


def _seed_centroids(S, k, rng, seeding):
    n = S.shape[0]
    if seeding == "random":
        return S[np.sort(rng.choice(n, size=k, replace=False))].copy()
    if seeding != "weighted":
        raise DataError(f"unknown seeding mode: {seeding!r}")
    # Squared-distance-weighted seeding: each new centroid is drawn with
    # probability proportional to the distance to the nearest one chosen so
    # far, which spreads the seeds without an exhaustive search.
    chosen = [int(rng.integers(0, n))]
    best = _rowwise_sqnorm(S - S[chosen[0]])
    while len(chosen) < k:
        total = float(np.sum(best))
        if total <= 0.0:
            for idx in range(n):
                if idx not in chosen:
                    chosen.append(idx)
                    break
            else:
                raise DataError("fewer distinct points than clusters")
        else:
            pick = int(rng.choice(n, p=best / total))
            chosen.append(pick)
        best = np.minimum(best, _rowwise_sqnorm(S - S[chosen[-1]]))
    return S[chosen].copy()


def kmeans(emb: StyleEmbedding, k: int, seed: int, max_iter: int = 100,
           seeding: str = "weighted") -> Clustering:
    """Lloyd's algorithm over style vectors.

    Terminates when the assignment stops changing or after max_iter rounds.
    Empty clusters are repaired by moving in the point currently farthest
    from its centroid, which cannot increase the objective. The recorded
    objective trace is non-increasing.
    """
    S = emb.vectors
    n = emb.n_items
    if k < 1:
        raise DataError("k must be >= 1")
    if k > n:
        raise DataError(f"k={k} exceeds the {n} available items")
    rng = np.random.default_rng(seed)
    centroids = _seed_centroids(S, k, rng, seeding)
    assign = np.full(n, -1, dtype=np.int64)
    trace = []
    for _ in range(max(1, max_iter)):
        new_assign, dist = _nearest(S, centroids)
        moved = np.zeros(n, dtype=bool)
        for cluster in range(k):
            if np.any(new_assign == cluster):
                continue
            # Empty cluster: seize the point farthest from its centroid. Its
            # distance drops to zero and no other term changes, so the
            # objective cannot increase.
            avail = ~moved
            pool = np.flatnonzero(avail & (dist == dist[avail].max()))
            far = int(pool[0])
            new_assign[far] = cluster
            dist[far] = 0.0
            moved[far] = True
            centroids[cluster] = S[far]
        if np.array_equal(new_assign, assign):
            break
        assign = new_assign
        for cluster in range(k):
            members = np.flatnonzero(assign == cluster)
            centroids[cluster] = np.mean(S[members], axis=0)
        trace.append(float(np.sum(_rowwise_sqnorm(S - centroids[assign]))))
    objective = float(np.sum(_rowwise_sqnorm(S - centroids[assign])))
    return Clustering(k, centroids, assign, objective, trace)


def representatives(clustering: Clustering, emb: StyleEmbedding, m: int) -> dict:
    """Per cluster, the m member ids closest to the centroid.

    Ordered by ascending distance; ties break on item id.
    """
    if m < 1:
        raise DataError("m must be >= 1")
    out = {}
    for cluster in range(clustering.k):
        members = np.flatnonzero(clustering.assignment == cluster)
        d = _rowwise_sqnorm(emb.vectors[members] - clustering.centroids[cluster])
        ranked = sorted(zip(d, (emb.item_ids[i] for i in members)),
                        key=lambda pair: (pair[0], pair[1]))
        out[cluster] = [item for _, item in ranked[:m]]
    return out


def _knn_graph(S, knn_k):
    """Symmetric kNN adjacency: per row, a dict of neighbor -> squared distance.

    Each row's neighbors are the knn_k smallest (distance, index) keys, where
    the distance is the exact difference kernel ``_rowwise_sqnorm(S[j] - S[i])``
    and the row itself counts as infinitely far. Rows are handled in blocks of
    about ``_KNN_BLOCK_BYTES`` of approximate distances
    a_ij = n_i + n_j - 2 t_i.t_j from one GEMM over t = S 2^p, where the exact
    power of two p brings the largest |S| entry into [1/2, 1) and n_i = ||t_i||^2.
    Only the j with a_ij <= a_(k) + 2 delta_i, a_(k) being the row's k-th
    smallest approximate value, go on to the exact kernel.

    Slack bound. Let u = 2^-53, R_i = n_i + max_j n_j, D_ij = ||t_i - t_j||^2
    and e_ij the exact kernel's value on the unscaled rows. In any summation
    order (BLAS blocking, FMA, einsum's unrolling) |a_ij - D_ij| and
    |e_ij 2^2p - D_ij| are each at most (2K + 4) u R_i, plus K 2^(2p - 1074)
    for e_ij's underflow; a_ij's own underflow, at most 8K 2^-1074, is far
    below u R_i because R_i >= 1/4. delta_i = 8 (K + 2) u R_i +
    2K 2^(2p - 1074) therefore bounds |a_ij - e_ij 2^2p| twice over, the
    rounding of the threshold included. The k columns with a_ij <= a_(k) have
    e_ij 2^2p <= a_(k) + delta_i, so every j whose e_ij ties or beats the
    row's k-th exact value has a_ij <= a_(k) + 2 delta_i. That needs those
    e_ij finite. One can overflow only once D_ij >= 2^2p MAX/2, so a row whose
    threshold reaches 2^2p MAX/4 shortlists every j instead, itself included,
    at infinity.
    """
    n, dim = S.shape
    k = min(knn_k, n - 1)
    adjacency = [dict() for _ in range(n)]
    if k < 1:
        return adjacency
    _, exp = np.frexp(np.max(np.abs(S)))
    p = -int(exp)
    T = np.ldexp(S, p)
    norms = _rowwise_sqnorm(T)
    u = np.finfo(np.float64).epsneg
    with np.errstate(over="ignore"):  # past the float range is infinity
        slack = (8 * (dim + 2) * u * (norms + norms.max())
                 + np.ldexp(2.0 * dim, 2 * p - 1074))
        overflow = np.ldexp(np.finfo(np.float64).max / 4, 2 * p)
    block = max(1, _KNN_BLOCK_BYTES // (8 * n))
    for start in range(0, n, block):
        stop = min(start + block, n)
        rows = np.arange(start, stop)
        approx = T[start:stop] @ T.T
        approx *= -2.0
        approx += norms
        approx += norms[start:stop, None]
        approx[rows - start, rows] = np.inf
        kth = np.partition(approx, k - 1, axis=1)[:, k - 1]
        limit = kth + 2 * slack[start:stop]
        limit[limit >= overflow] = np.inf
        r, j = np.nonzero(approx <= limit[:, None])
        r += start
        d2 = _rowwise_sqnorm(S[j] - S[r])
        d2[j == r] = np.inf
        order = np.lexsort((j, d2, r))
        top = order[np.searchsorted(r[order], rows)[:, None] + np.arange(k)]
        for i, nbrs, weights in zip(rows.tolist(), j[top].tolist(), d2[top].tolist()):
            for nbr, w in zip(nbrs, weights):
                adjacency[i][nbr] = w
                adjacency[nbr][i] = w
    return adjacency


def navigate(emb: StyleEmbedding, source: str, target: str, knn_k: int = 10):
    """Minimum-cost path between two items on the symmetric kNN style graph.

    Edge weights are squared style distances; the search is Dijkstra with a
    (distance, node) heap so ties resolve by node index. Returns (path item
    ids, total cost, per-hop costs).
    """
    if source == target:
        raise DataError("source and target must differ")
    if knn_k < 1:
        raise DataError("knn_k must be >= 1")
    src, dst = emb.index_of(source), emb.index_of(target)
    adjacency = _knn_graph(emb.vectors, knn_k)
    dist = np.full(emb.n_items, np.inf)
    prev = np.full(emb.n_items, -1, dtype=np.int64)
    dist[src] = 0.0
    heap = [(0.0, src)]
    done = np.zeros(emb.n_items, dtype=bool)
    while heap:
        d, node = heapq.heappop(heap)
        if done[node]:
            continue
        done[node] = True
        if node == dst:
            break
        for nbr, w in sorted(adjacency[node].items()):
            nd = d + w
            if nd < dist[nbr]:
                dist[nbr] = nd
                prev[nbr] = node
                heapq.heappush(heap, (nd, nbr))
    if not done[dst]:
        raise DataError(
            f"no path from {source!r} to {target!r} in the {knn_k}-nearest-neighbor "
            "graph; a larger knn_k may connect it"
        )
    path_idx = [dst]
    while path_idx[-1] != src:
        path_idx.append(int(prev[path_idx[-1]]))
    path_idx.reverse()
    hops = [adjacency[a][b] for a, b in zip(path_idx, path_idx[1:])]
    return [emb.item_ids[i] for i in path_idx], float(dist[dst]), hops


def save_embedding(emb: StyleEmbedding, path):
    write_matrix(path, "style", emb.item_ids, emb.vectors)


def load_embedding(path) -> StyleEmbedding:
    return StyleEmbedding(*read_matrix(path, "style"))


def save_clustering(clustering: Clustering, emb: StyleEmbedding, path):
    with atomic_writer(path) as f:
        for item, cluster in zip(emb.item_ids, clustering.assignment):
            f.write(f"{item}\t{int(cluster)}\n")
        for idx, row in enumerate(clustering.centroids):
            f.write(f"#centroid\t{idx}\t" + "\t".join(repr(float(v)) for v in row) + "\n")
        f.write(f"#objective\t{repr(float(clustering.objective))}\n")


def save_path(path_items, total_cost, hops, path):
    with atomic_writer(path) as f:
        f.write(f"#total\t{repr(float(total_cost))}\n")
        f.write(f"{path_items[0]}\t0.0\n")
        for item, hop in zip(path_items[1:], hops):
            f.write(f"{item}\t{repr(float(hop))}\n")
