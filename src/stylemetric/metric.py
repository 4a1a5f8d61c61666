"""The projection and pair-difference kernels, and link probabilities.

Every command gets its style rows s = xY from one kernel, project_rows, which
selects and normalizes rows of the catalog inside its own fixed-shape blocks,
so no caller copies or normalizes all of X; style_rows picks the rows a
model measures distances in, for every kind. Distances then come from one
pair-difference kernel, pair_terms. Both rest on one invariant of
project_rows: a row's bits do not depend on its block-mates or on its offset
in a block. So a pair's distance is the same alone or in a batch, and equals
``||s_i - s_j||^2`` over the rows embed_all writes, to the bit.
"""

import numpy as np

from .catalog import DataError, MetricModel, normalize_rows

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


def project_rows(X: np.ndarray, Y: np.ndarray, rows=None, norm: str = "none") -> np.ndarray:
    """Map rows of X (n, F) into style space, s = x Y for every row x.

    rows, when given, selects the rows of X to project, in any order and
    with repeats; norm is the per-row normalization the transform expects
    (see catalog.normalize_rows). Rows go through one GEMM per block of
    _PROJECT_BLOCK rows, and Y's columns are zero-padded to a multiple of
    _PROJECT_PANEL, so every BLAS call one Y sees has the same C-contiguous
    shape (B, F) @ (F, K'). Without rows or normalization, whole blocks are
    read from X in place; every other block is gathered into one zero-padded
    buffer and normalized there, so X is never copied. A row's bits then do
    not depend on its block-mates or on its offset in the block: a row gets
    the same bits alone, in a batch, or in any subset, which is what makes
    embeddings and distances agree to the bit.
    """
    X = np.ascontiguousarray(X, dtype=np.float64)
    if X.ndim == 1:
        X = X[None, :]
    F = X.shape[1]
    if F != Y.shape[0]:
        raise DataError(f"feature dimension {F} does not match transform {Y.shape[0]}")
    if rows is not None:
        rows = _checked_rows(rows, len(X))
    n = len(X) if rows is None else len(rows)
    K = Y.shape[1]
    B = _PROJECT_BLOCK
    Yp = np.zeros((F, -(-K // _PROJECT_PANEL) * _PROJECT_PANEL), dtype=np.float64)
    Yp[:, :K] = Y
    out = np.empty((n, K), dtype=np.float64)
    product = np.empty((B, Yp.shape[1]), dtype=np.float64)
    buffer = None
    for lo in range(0, n, B):
        m = min(B, n - lo)
        if rows is None and norm == "none" and m == B:
            block = X[lo:lo + B]
        else:
            if buffer is None:
                buffer = np.zeros((B, F), dtype=np.float64)
            block = buffer
            if rows is None:
                block[:m] = X[lo:lo + m]
            else:
                X.take(rows[lo:lo + m], axis=0, out=block[:m], mode="clip")
            block[m:] = 0.0
            if norm != "none":
                block[:m] = normalize_rows(block[:m], norm)
        np.matmul(block, Yp, out=product)
        out[lo:lo + m] = product[:m, :K]
    return out


def _checked_rows(rows, n):
    """rows as an int64 array, each in [0, n): IndexError rather than a
    negative index wrapping to the end."""
    rows = np.asarray(rows, dtype=np.int64)
    if len(rows) and (rows.min() < 0 or rows.max() >= n):
        raise IndexError(f"row index out of range for {n} rows")
    return rows


def _rowwise_sqnorm(V: np.ndarray) -> np.ndarray:
    # einsum contracts each row in index order, independent of how many rows
    # the call sees, so blocked and unblocked calls agree exactly.
    return np.einsum("ij,ij->i", V, V)


def style_rows(model: MetricModel, X: np.ndarray, rows) -> np.ndarray:
    """The given rows of the raw feature array X in the space the model
    measures distances in, in order.

    The rows get the normalization the model was trained with. For the
    low-rank kinds they are then projected, s = xY; weighted_nn has no
    projection, so its rows are the normalized feature rows themselves.
    """
    if X.shape[1] != model.n_features:
        raise DataError(
            f"feature dimension {X.shape[1]} does not match model ({model.n_features})"
        )
    if model.kind == "weighted_nn":
        return normalize_rows(X.take(_checked_rows(rows, len(X)), axis=0), model.feature_norm)
    return project_rows(X, model.transform, rows, model.feature_norm)


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
    projecting just these rows and reading pairs (i, j) gives the bits that
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
    """Distances under a model for index pairs into a raw feature array.

    X is the catalog as loaded; the model's normalization is applied to the
    rows the pairs reference, and only those rows are read, each once. Since
    a row's style coordinates do not depend on the rows handled with it, the
    distances are bit-identical to those over the whole catalog. For
    personalized models, user_idx selects the per-pair row of the user
    weight table; omitting it falls back to the shared metric.
    """
    rows, i_idx, j_idx = touched_rows(np.asarray(i_idx, dtype=np.int64),
                                      np.asarray(j_idx, dtype=np.int64))
    S = style_rows(model, X, rows)
    w = None
    if model.kind == "weighted_nn":
        w = model.transform
    elif model.kind == "personalized" and user_idx is not None:
        if model.user_weights is None:
            raise DataError("model has no user weight table")
        w = model.user_weights[np.asarray(user_idx, dtype=np.int64)]
    return pair_distances_style(S, i_idx, j_idx, w)
