"""Distance functions, link probabilities, and the shared batch kernels.

Scalar distances are thin wrappers over the batch kernels so that a distance
computed one pair at a time is bit-identical to the same pair inside a batch.
The low-rank paths project rows into style space first and difference second,
which makes ``dist_lowrank(x_i, x_j, Y)`` equal ``||embed(x_i) - embed(x_j)||^2``
exactly, not just to rounding. Both rest on one invariant of project_rows: a
row's bits do not depend on its block-mates or on its offset in a block.
"""

import numpy as np

from .catalog import DataError, MetricModel

# Pairs are processed in fixed-size blocks to bound temporary memory. Each
# pair's value is independent of every other pair, so the block size never
# changes results.
_PAIR_BLOCK = 4096
# Rows per GEMM of project_rows, and the column multiple its transform is
# padded to. A GEMM sums each output element over F in an order its shape
# sets, so one shape for every call keeps a row's bits. Under 2 or more BLAS
# threads, OpenBLAS's kernel for a last panel of fewer than 8 columns gave
# some rows other bits at other offsets in the block (ranks 129-300 not
# divisible by 8 at B=128); full panels of 8 never did. B=128 is measured
# in BENCH_16.json.
_PROJECT_BLOCK = 128
_PROJECT_PANEL = 8


def project_rows(X: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """Map rows of X (n, F) into style space, s = x Y for every row x.

    Rows go through one GEMM per block of _PROJECT_BLOCK rows; the last,
    short block is zero-padded to full size, and Y's columns are zero-padded
    to a multiple of _PROJECT_PANEL, so every BLAS call one Y sees has the
    same C-contiguous shape (B, F) @ (F, K'). A row's bits then do not
    depend on its block-mates or on its offset in the block: a row gets the
    same bits alone, in a batch, or in any subset, which is what makes
    embeddings and distances agree to the bit.
    """
    X = np.ascontiguousarray(X, dtype=np.float64)
    if X.ndim == 1:
        X = X[None, :]
    n, F = X.shape
    if F != Y.shape[0]:
        raise DataError(f"feature dimension {F} does not match transform {Y.shape[0]}")
    K = Y.shape[1]
    B = _PROJECT_BLOCK
    Yp = np.zeros((F, -(-K // _PROJECT_PANEL) * _PROJECT_PANEL), dtype=np.float64)
    Yp[:, :K] = Y
    out = np.empty((n, K), dtype=np.float64)
    product = np.empty((B, Yp.shape[1]), dtype=np.float64)
    for lo in range(0, n, B):
        block = X[lo:lo + B]
        if len(block) < B:
            block = np.zeros((B, F), dtype=np.float64)
            block[:n - lo] = X[lo:]
        np.matmul(block, Yp, out=product)
        out[lo:lo + B] = product[:n - lo, :K]
    return out


def _rowwise_sqnorm(V: np.ndarray) -> np.ndarray:
    # einsum contracts each row in index order, independent of how many rows
    # the call sees, so blocked and unblocked calls agree exactly.
    return np.einsum("ij,ij->i", V, V)


def embed(Y: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Style-space coordinates s = x Y of a single item."""
    return project_rows(x, Y)[0]


def dist_weighted(w, x_i, x_j) -> float:
    """Weighted nearest-neighbor distance ||w o (x_i - x_j)||^2."""
    X = np.vstack([x_i, x_j]).astype(np.float64, copy=False)
    return float(pair_distances_style(X, [0], [1], np.asarray(w, dtype=np.float64))[0])


def dist_lowrank(Y, x_i, x_j) -> float:
    """Low-rank Mahalanobis distance ||(x_i - x_j) Y||^2.

    Computed through the K-dimensional projection of each endpoint; the F x F
    matrix Y Y^T is never formed.
    """
    S = project_rows(np.vstack([x_i, x_j]), Y)
    return float(pair_distances_style(S, [0], [1])[0])


def dist_full(M, x_i, x_j) -> float:
    """Full Mahalanobis distance (x_i - x_j) M (x_i - x_j)^T.

    Quadratic in the feature dimension; exists as a reference for the low-rank
    form (M = Y Y^T), not for production use.
    """
    M = np.asarray(M, dtype=np.float64)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise DataError("full metric requires a square matrix")
    delta = np.asarray(x_i, dtype=np.float64) - np.asarray(x_j, dtype=np.float64)
    return float(delta @ M @ delta)


def dist_personalized(Y, user_w, x_i, x_j) -> float:
    """Per-user distance ||(s_i - s_j) o user_w||^2 in style space."""
    user_w = np.asarray(user_w, dtype=np.float64)
    if np.any(user_w < 0.0):
        raise DataError("user weights must be nonnegative")
    S = project_rows(np.vstack([x_i, x_j]), Y)
    return float(pair_distances_style(S, [0], [1], user_w)[0])


def sigmoid(t):
    """Numerically stable logistic function, elementwise."""
    t = np.asarray(t, dtype=np.float64)
    flat = np.atleast_1d(t)
    out = np.empty_like(flat)
    pos = flat >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-flat[pos]))
    e = np.exp(flat[~pos])
    out[~pos] = e / (1.0 + e)
    return out.reshape(t.shape)


def softplus(t):
    """log(1 + e^t) without overflow."""
    return np.logaddexp(0.0, t)


def link_probability(d, c):
    """Probability that a pair at distance d is related: sigma(c - d).

    At d == c the probability is exactly 0.5, which the decision rule treats
    as unrelated.
    """
    scalar = np.isscalar(d) or (isinstance(d, np.ndarray) and d.ndim == 0)
    p = sigmoid(np.asarray(c, dtype=np.float64) - np.asarray(d, dtype=np.float64))
    return float(p) if scalar and np.isscalar(c) else p


def log_link_probability(d, c):
    """log sigma(c - d), stable for large distances."""
    t = np.asarray(d, dtype=np.float64) - np.asarray(c, dtype=np.float64)
    out = -softplus(t)
    return float(out) if out.ndim == 0 else out


def pair_terms(S, i_idx, j_idx, w=None):
    """Differences P = S[i] - S[j], weighted V = P o w, and d = ||V||^2.

    The one pair-difference kernel behind every distance and the training
    objective. w is None, a shared (K,) weight vector, or one (m, K) row per
    pair; without it V is P itself.
    """
    P = _gather(S, i_idx) - _gather(S, j_idx)
    V = P if w is None else P * w
    return P, V, _rowwise_sqnorm(V)


def _gather(S, idx):
    # take copies the same rows as S[idx] does, faster; a slice stays a view.
    return S[idx] if isinstance(idx, slice) else S.take(idx, axis=0)


def touched_rows(i_idx, j_idx):
    """The distinct rows that index pairs reference, and the pairs renumbered
    onto them: (rows, i, j) with rows[i] == i_idx and rows[j] == j_idx.

    A row's projection does not depend on its block-mates or its offset, so
    projecting X[rows] and reading pairs (i, j) gives the bits that
    projecting all of X would.
    """
    rows, inverse = np.unique(np.concatenate([i_idx, j_idx]), return_inverse=True)
    return rows, inverse[:len(i_idx)], inverse[len(i_idx):]


def pair_distances_style(S, i_idx, j_idx, w=None) -> np.ndarray:
    """Batch distances ||(S[i] - S[j]) o w||^2 over index pairs, blocked for memory.

    S holds style coordinates (n, K): embeddings for the low-rank kinds, raw
    features for weighted_nn. w is None, a shared (K,) weight vector, or a
    per-pair (m, K) table such as the personalized user weights.
    """
    per_pair = w is not None and np.ndim(w) == 2
    m = len(i_idx)
    out = np.empty(m, dtype=np.float64)
    for start in range(0, m, _PAIR_BLOCK):
        stop = min(start + _PAIR_BLOCK, m)
        out[start:stop] = pair_terms(S, i_idx[start:stop], j_idx[start:stop],
                                     w[start:stop] if per_pair else w)[2]
    return out


def model_distances(model: MetricModel, X: np.ndarray, i_idx, j_idx, user_idx=None) -> np.ndarray:
    """Distances under a model for index pairs into a feature array.

    X must already carry the normalization the model was trained with (see
    ``catalog.normalize_rows``). Only the rows the pairs reference are read:
    the low-rank kinds project just those rows, once each (X itself when the
    pairs reference every row), and since a row's projection does not depend
    on its block-mates or its offset the distances are bit-identical to
    projecting all of X. For personalized models, user_idx selects the
    per-pair row of the user weight table; omitting it falls back to the
    shared metric.
    """
    i_idx = np.asarray(i_idx, dtype=np.int64)
    j_idx = np.asarray(j_idx, dtype=np.int64)
    if X.shape[1] != model.n_features:
        raise DataError(
            f"feature dimension {X.shape[1]} does not match model ({model.n_features})"
        )
    if model.kind == "weighted_nn":
        return pair_distances_style(X, i_idx, j_idx, model.transform)
    rows, i_idx, j_idx = touched_rows(i_idx, j_idx)
    # rows is sorted and distinct, so with these ends it is all of X in order.
    whole = len(rows) == len(X) > 0 and rows[0] == 0 and rows[-1] == len(X) - 1
    S = project_rows(X if whole else X[rows], model.transform)
    if model.kind == "personalized" and user_idx is not None:
        user_idx = np.asarray(user_idx, dtype=np.int64)
        if model.user_weights is None:
            raise DataError("model has no user weight table")
        return pair_distances_style(S, i_idx, j_idx, model.user_weights[user_idx])
    return pair_distances_style(S, i_idx, j_idx)
