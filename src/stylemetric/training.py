"""Pairwise logistic likelihood, its analytic gradient, and the optimizer.

The learning problem is shared by every metric kind: maximize

    L = sum_related log sigma(c - d) + sum_unrelated log(1 - sigma(c - d))

over the metric parameters and the threshold c, where d is the distance of
the pair under the current parameters. Internally the optimizer minimizes
f = -L (plus an optional quadratic penalty, off by default).

Every kind is one distance in style space. A kind supplies item coordinates
S and optional per-dimension weights W:

    weighted_nn:   S = X,    W = w, shared by all pairs
    low_rank:      S = X Y,  no W
    personalized:  S = X Y,  W = w_u, the weight row of the pair's user

For a pair (i, j), P = S_i - S_j, V = P o W (V = P without W) and d = ||V||^2.
Write t = c - d and p = sigma(t):

    related pair:    dL/dc += (1 - p),   dL/dd = -(1 - p)
    unrelated pair:  dL/dc += -p,        dL/dd = +p

With Q = 2 (dL/dd) V per pair, the chain rule gives

    dL/dS_i += Q o W,  dL/dS_j -= Q o W   (scattered into G, one row per item)
    dL/dY    = X^T G                       (low_rank, personalized)
    dL/dw    = sum of Q o P over all pairs (weighted_nn)
    dL/dw_u  = sum of Q o P over the pairs of user u (personalized)

weighted_nn has no Y, so nothing is scattered for it. One value pass over the
pairs yields L and the training accuracy; a second pass, from the same style
coordinates S, yields the whole gradient. The optimizer takes the gradient
pass only at points it keeps, and a full value pass only at trials it cannot
reject from a part of f: f is a sum of nonnegative terms, so once the terms
of a few pairs exceed the accept bound the trial fails. Both passes run on one
thread in fixed blocks, and every sum runs in pair order, so results depend
only on the inputs.
"""

import math
from collections import deque
from dataclasses import dataclass, replace

import numpy as np

from .catalog import FEATURE_NORMS, DataError, MetricModel, normalize_rows
from .metric import (pair_distances_style, pair_terms, project_rows, sigmoid, softplus,
                     touched_rows)
from .sampling import LabeledPairSet

_GRAD_NORM_FLOOR = 1e-8
_ARMIJO = 1e-4
_BACKTRACK = 0.5  # the line search tries steps 1, 1/2, 1/4, ... down to _MIN_STEP
_MIN_STEP = 1e-20
_CURVATURE_GUARD = 1e-10
_HISTORY = 10
_C0_SAMPLE = 1000
# Pairs per block of the objective's pass. It bounds the temporaries, which
# are (block, F) arrays for weighted_nn, and never changes a result beyond
# rounding.
_BLOCK = 16384
# Pairs at the head of the table whose terms a line-search trial sums, from
# their own projected rows, before it projects the catalog. A trial whose
# head sum exceeds the accept bound by the relative _PROBE_MARGIN fails
# without a full pass. Each head term has the bits the full pass gives it,
# since project_rows and pair_terms work row by row; the two sums differ only
# in the order of their roundings, and sums of m nonnegative terms in two
# orders differ by at most about (m + blocks + 2) * 2**-53 relative, far below
# 1e-6 for any m under about 1e9. So a head sum above the margin proves the
# full f above the bound.
_PROBE = 1024
_PROBE_MARGIN = 1e-6


class TrainingError(Exception):
    """Optimization failed in a way retrying with the same inputs will not fix."""


@dataclass
class TrainConfig:
    """Settings of train / train_personalized.

    Every fit runs the same L-BFGS loop with a backtracking line search, so
    there is no optimizer or step setting. init_scale None means 1/sqrt(F);
    c0 None means the mean distance of the initial model over a sample of at
    most 1,000 training pairs, which puts the initial link probabilities near
    0.5.
    """

    kind: str = "low_rank"
    rank: int = 10
    max_iterations: int = 200
    tolerance: float = 1e-6
    seed: int = 0
    init_scale: float | None = None
    feature_norm: str = "none"
    c0: float | None = None
    l2_penalty: float = 0.0

    def validate(self):
        if self.kind not in ("low_rank", "weighted_nn"):
            raise DataError(f"unknown metric kind: {self.kind!r}")
        if self.rank < 1:
            raise DataError(f"rank must be >= 1, got {self.rank}")
        for name in ("tolerance", "init_scale", "c0", "l2_penalty"):
            value = getattr(self, name)
            if value is not None and not math.isfinite(value):
                raise DataError(f"{name} must be finite, got {value!r}")
        if self.tolerance <= 0:
            raise DataError("tolerance must be positive")
        if self.init_scale is not None and self.init_scale <= 0:
            raise DataError("init_scale must be positive")
        if self.feature_norm not in FEATURE_NORMS:
            raise DataError(f"unknown feature normalization: {self.feature_norm!r}")
        if self.max_iterations < 0:
            raise DataError("max_iterations must be >= 0")
        if self.l2_penalty < 0:
            raise DataError("l2_penalty must be >= 0")


@dataclass
class TrainReport:
    trace: list  # accepted log-likelihood per iteration; trace[0] is the init
    train_accuracy: float
    iterations: int
    termination: str  # tolerance | max_iterations | gradient_norm | no_ascent_step


def _pair_arrays(pairs, features=None):
    """(i_idx, j_idx, labels, users or None) from a LabeledPairSet or a plain
    (i, j, labels[, users]) tuple; a pair set's columns are copied once into
    contiguous arrays."""
    if isinstance(pairs, LabeledPairSet):
        if features is not None and pairs.item_ids != features.item_ids:
            raise DataError("pair set item table does not match the feature matrix")
        return (np.ascontiguousarray(pairs.pairs[:, 0]),
                np.ascontiguousarray(pairs.pairs[:, 1]), pairs.labels, pairs.users)
    i_idx = np.asarray(pairs[0], dtype=np.int64)
    j_idx = np.asarray(pairs[1], dtype=np.int64)
    labels = np.asarray(pairs[2], dtype=bool)
    users = np.asarray(pairs[3], dtype=np.int64) if len(pairs) > 3 else None
    if not (len(i_idx) == len(j_idx) == len(labels)):
        raise DataError("pair arrays must have equal length")
    if users is not None and len(users) != len(i_idx):
        raise DataError("user array length mismatch")
    return i_idx, j_idx, labels, users


class _Objective:
    """f = -L (+ l2 penalty on the transform) with its gradient.

    Parameters travel as one flat vector: transform, then c, then (for the
    personalized kind) the user weight table.
    """

    def __init__(self, kind, X, i_idx, j_idx, labels, users=None, n_users=0,
                 rank=None, l2_penalty=0.0):
        self.kind = kind
        self.X = X
        self.i = i_idx
        self.j = j_idx
        self.labels = labels
        self.users = users
        self.n_users = n_users
        self.F = X.shape[1]
        self.K = self.F if kind == "weighted_nn" else rank
        self.l2_penalty = l2_penalty
        if kind == "personalized":
            if users is None:
                raise DataError("personalized objective requires user indices")
            self.n_params = self.F * self.K + 1 + n_users * self.K
        elif kind == "low_rank":
            self.n_params = self.F * self.K + 1
        else:
            self.n_params = self.F + 1
        head = slice(0, _PROBE)
        self._probe = (head, *touched_rows(i_idx[head], j_idx[head]))

    def pack(self, transform, c, user_w=None):
        parts = [np.asarray(transform, dtype=np.float64).ravel(), [float(c)]]
        if self.kind == "personalized":
            parts.append(np.asarray(user_w, dtype=np.float64).ravel())
        return np.concatenate(parts)

    def unpack(self, vec):
        if self.kind == "weighted_nn":
            return vec[: self.F], float(vec[self.F]), None
        t_end = self.F * self.K
        transform = vec[:t_end].reshape(self.F, self.K)
        c = float(vec[t_end])
        if self.kind != "personalized":
            return transform, c, None
        user_w = vec[t_end + 1:].reshape(self.n_users, self.K)
        return transform, c, user_w

    def project(self, vec):
        """Clamp user weights to be nonnegative; other parameters are free."""
        if self.kind != "personalized":
            return vec
        t_end = self.F * self.K + 1
        out = vec.copy()
        np.maximum(out[t_end:], 0.0, out=out[t_end:])
        return out

    def style(self, transform, rows=slice(None)):
        """Style coordinates S of the given rows of X (all by default) and the
        shared weight vector, if any."""
        X = self.X[rows]
        if self.kind == "weighted_nn":
            return X, transform
        return project_rows(X, transform), None

    def value(self, vec, bound=None):
        """Returns (f, L, train_accuracy, S) at vec from one pass over the pairs,
        or None once f is shown to exceed bound.

        S holds the style coordinates the pass used; grad takes it back so that
        the point's projection is computed once. f is a sum of nonnegative
        terms, so a part of it above bound proves f > bound: the first _PROBE
        pairs are summed from their own rows before the catalog is projected,
        and the pass stops after any block whose running sum exceeds bound.
        A non-finite partial sum never ends the pass early.
        """
        transform, c, user_w = self.unpack(vec)
        penalty = 0.0
        if self.l2_penalty != 0.0:
            penalty = self.l2_penalty * float(np.sum(transform * transform))
        if bound is not None:
            head, rows, i, j = self._probe
            S, w = self.style(transform, rows)
            prefix = self._terms(S, w, c, user_w, head, i, j)[0] + penalty
            if math.isfinite(prefix) and prefix > bound + _PROBE_MARGIN * abs(bound):
                return None
        S, w = self.style(transform)
        m = len(self.i)
        L = 0.0
        hits = 0
        for lo in range(0, m, _BLOCK):
            block = slice(lo, lo + _BLOCK)
            nll, block_hits = self._terms(S, w, c, user_w, block, self.i[block], self.j[block])
            L -= nll
            hits += block_hits
            # Adding a term >= 0 never lowers an IEEE sum, so f >= penalty - L.
            if bound is not None and math.isfinite(penalty - L) and penalty - L > bound:
                return None
        f = -L
        if self.l2_penalty != 0.0:
            f += penalty
        return f, L, hits / m if m else 0.0, S

    def _terms(self, S, w, c, user_w, block, i, j):
        """(sum of -log-likelihood terms, correct decisions) over the pairs in
        block, a slice of the pair table whose endpoints are rows i and j of S."""
        lab = self.labels[block]
        if user_w is not None:
            w = user_w[self.users[block]]
        d = pair_terms(S, i, j, w)[2]
        t = c - d
        return (float(np.sum(softplus(-t[lab]))) + float(np.sum(softplus(t[~lab]))),
                int(np.count_nonzero((d < c) == lab)))

    def grad(self, vec, S):
        """grad_f at vec, given the style coordinates S that value(vec) returned.

        A second pass over the pairs recomputes each block's pair terms from S
        with the same kernel, so every term has the bits value saw.
        """
        transform, c, user_w = self.unpack(vec)
        w = transform if self.kind == "weighted_nn" else None
        m = len(self.i)
        gc = 0.0
        gW = None if user_w is None else np.zeros_like(user_w)
        if self.kind == "weighted_nn":
            gt = np.zeros(self.F)
        else:
            G = np.zeros((len(S), self.K))
        for lo in range(0, m, _BLOCK):
            i, j = self.i[lo:lo + _BLOCK], self.j[lo:lo + _BLOCK]
            lab = self.labels[lo:lo + _BLOCK]
            if user_w is not None:
                u = self.users[lo:lo + _BLOCK]
                w = user_w[u]
            P, V, d = pair_terms(S, i, j, w)
            p = sigmoid(c - d)
            r = np.where(lab, 1.0 - p, -p)  # dL/dc per pair; dL/dd = -r
            gc += float(np.sum(r))
            if self.kind == "weighted_nn":
                gt += (-2.0 * r) @ (V * P)
                continue
            Q = (-2.0 * r)[:, None] * V
            if user_w is not None:
                _scatter_rows(gW, u, Q * P)
                Q *= w
            _scatter_rows(G, i, Q)
            _scatter_rows(G, j, -Q)
        if self.kind != "weighted_nn":
            gt = self.X.T @ G
        grad = -self.pack(gt, gc, gW)
        if self.l2_penalty != 0.0:
            grad[: transform.size] += 2.0 * self.l2_penalty * transform.ravel()
        return grad

    def value_and_grad(self, vec):
        """Returns (f, L, grad_f, train_accuracy) at vec: value, then grad."""
        f, L, acc, S = self.value(vec)
        return f, L, self.grad(vec, S), acc


def _scatter_rows(out, idx, rows):
    """out[idx[n]] += rows[n] for every n, summed in pair order.

    One bincount over the flat cells idx[n] * K + k; each cell adds its terms
    in pair order.
    """
    K = out.shape[1]
    cells = (idx[:, None] * K + np.arange(K)).ravel()
    out += np.bincount(cells, rows.ravel(), out.size).reshape(out.shape)


def _users_for_model(model: MetricModel, pairs, users):
    """Pair-set user indices remapped onto the model's user table.

    None unless the model is personalized and the pairs carry users. Plain
    tuple users index the model's table directly and must lie inside it.
    """
    if users is None or model.kind != "personalized":
        return None
    if isinstance(pairs, LabeledPairSet) and pairs.user_ids is not None \
            and model.user_ids is not None and pairs.user_ids != model.user_ids:
        remap = np.array([model.user_index(u) for u in pairs.user_ids], dtype=np.int64)
        return remap[users]
    if model.user_ids is not None and len(users) \
            and (users.min() < 0 or users.max() >= len(model.user_ids)):
        raise DataError(f"user index out of range for the model's {len(model.user_ids)} users")
    return users


def _objective_for_model(model: MetricModel, features, pairs):
    X = normalize_rows(features.values, model.feature_norm)
    i_idx, j_idx, labels, users = _pair_arrays(pairs, features)
    kind = model.kind
    n_users = 0
    if kind == "personalized":
        users = _users_for_model(model, pairs, users)
        if users is None:
            raise DataError("personalized model requires user-annotated pairs")
        n_users = len(model.user_ids)
    obj = _Objective(kind, X, i_idx, j_idx, labels, users, n_users,
                     rank=None if kind == "weighted_nn" else model.rank)
    vec = obj.pack(model.transform, model.threshold, model.user_weights)
    return obj, vec


def log_likelihood(model: MetricModel, features, pairs) -> float:
    """Pairwise logistic log-likelihood of a labeled pair set under a model.

    pairs may be a LabeledPairSet or a plain (i_idx, j_idx, labels[, users])
    tuple of arrays. Always <= 0.
    """
    obj, vec = _objective_for_model(model, features, pairs)
    return obj.value(vec)[1]


def gradient(model: MetricModel, features, pairs):
    """Analytic gradient of the log-likelihood at the model point.

    Returns (dL/dtransform, dL/dc) for global kinds and
    (dL/dtransform, dL/dc, dL/duser_weights) for personalized models.
    """
    obj, vec = _objective_for_model(model, features, pairs)
    grad_f = obj.value_and_grad(vec)[2]
    gt, gc, gw = obj.unpack(-grad_f)
    if model.kind == "personalized":
        return gt.copy(), gc, gw.copy()
    return gt.copy(), gc


def _minimize(obj: _Objective, x0, config: TrainConfig, progress=None):
    """L-BFGS with a backtracking line search on f, with a monotone trace.

    Accepted steps satisfy both the Armijo condition (measured against the
    projected step) and plain non-increase of f, so the reported likelihood
    trace is non-decreasing by construction. Each trial passes that bound to
    value, which returns None as soon as a part of f exceeds it: from the
    head pairs' own rows before the catalog is projected, or from a block of
    the full pass. Every accepted trial gets the full value pass, and only
    the start point and each accepted trial get a gradient pass, since a
    rejected trial's gradient is never used. So the run has the bits it
    would have if every trial took both passes. The accepted trial's value,
    gradient and accuracy carry over.
    progress, when given, receives one ``iter\\tlog_likelihood\\ttrain_acc``
    line per accepted iterate. Returns (x, trace, iterations, termination,
    train_accuracy).
    """
    x = obj.project(np.asarray(x0, dtype=np.float64))
    f, L, g, acc = obj.value_and_grad(x)
    if not np.isfinite(f):
        raise TrainingError("non-finite likelihood at iteration 0 (bad init scale?)")
    trace = [L]
    if progress is not None:
        progress.write(f"0\t{L:.6f}\t{acc:.4f}\n")
    history: deque = deque(maxlen=_HISTORY)
    termination = "max_iterations"
    it = 0
    while it < config.max_iterations:
        if float(np.linalg.norm(g)) < _GRAD_NORM_FLOOR:
            termination = "gradient_norm"
            break
        p = -_two_loop(g, history)
        if float(p @ g) >= 0.0:
            history.clear()
            p = -g
        alpha = 1.0
        while alpha >= _MIN_STEP:
            xt = obj.project(x + alpha * p)
            gdx = float(g @ (xt - x))
            trial = obj.value(xt, min(f + _ARMIJO * gdx, f))
            if trial is not None:
                ft, Lt, acct, St = trial
                if not np.isfinite(ft):
                    raise TrainingError(f"non-finite likelihood at iteration {it + 1}")
                if ft <= f + _ARMIJO * gdx and ft <= f:
                    break
            alpha *= _BACKTRACK
        else:
            termination = "no_ascent_step"
            break
        gt = obj.grad(xt, St)
        f_prev = f
        s = xt - x
        y = gt - g
        sy = float(s @ y)
        if sy > _CURVATURE_GUARD * float(np.linalg.norm(s)) * float(np.linalg.norm(y)):
            history.append((s, y, 1.0 / sy))
        x, f, L, g, acc = xt, ft, Lt, gt, acct
        it += 1
        trace.append(L)
        if progress is not None:
            progress.write(f"{it}\t{L:.6f}\t{acc:.4f}\n")
        if abs(f_prev - f) <= config.tolerance * max(1.0, abs(f_prev)):
            termination = "tolerance"
            break
    return x, trace, it, termination, acc


def _two_loop(g, history):
    """L-BFGS two-loop recursion: approximate (inverse Hessian) @ g."""
    if not history:
        return g.copy()
    q = g.copy()
    alphas = []
    for s, y, rho in reversed(history):
        a = rho * float(s @ q)
        alphas.append(a)
        q -= a * y
    s_last, y_last, _ = history[-1]
    q *= float(s_last @ y_last) / float(y_last @ y_last)
    for (s, y, rho), a in zip(history, reversed(alphas)):
        b = rho * float(y @ q)
        q += (a - b) * s
    return q


def _init_params(config: TrainConfig, obj: _Objective):
    rng = np.random.default_rng(config.seed)
    scale = config.init_scale if config.init_scale is not None else 1.0 / np.sqrt(obj.F)
    if obj.kind == "weighted_nn":
        transform = rng.normal(0.0, scale, size=obj.F)
    else:
        transform = rng.normal(0.0, scale, size=(obj.F, obj.K))
    if config.c0 is not None:
        c0 = config.c0
    else:
        m = len(obj.i)
        sel = rng.choice(m, size=min(_C0_SAMPLE, m), replace=False)
        rows, i, j = touched_rows(obj.i[sel], obj.j[sel])
        S, w = obj.style(transform, rows)
        c0 = float(np.mean(pair_distances_style(S, i, j, w)))
    return transform, c0


def _fit(config: TrainConfig, kind, features, pairs, warm_start, progress):
    """The one fitting routine behind train and train_personalized.

    Validates the inputs, builds the kind's objective over the pairs, runs
    _minimize from warm_start (or the seeded initialization when it is None)
    and assembles the model and its report. A personalized fit starts every
    user weight at one.
    """
    config.validate()
    if isinstance(pairs, LabeledPairSet) and pairs.partition != "train":
        raise DataError(
            f"training expects the train partition, got {pairs.partition!r}"
        )
    X = normalize_rows(features.values, config.feature_norm)
    if X.shape[1] == 0:
        raise DataError("cannot train on features with zero columns")
    i_idx, j_idx, labels, users = _pair_arrays(pairs, features)
    if len(i_idx) == 0:
        raise DataError("cannot train on an empty pair set")
    user_ids = list(pairs.user_ids) if kind == "personalized" else None
    obj = _Objective(kind, X, i_idx, j_idx, labels, users, len(user_ids or ()),
                     rank=config.rank, l2_penalty=config.l2_penalty)
    if warm_start is None:
        transform, c0 = _init_params(config, obj)
    elif (warm_start.kind, warm_start.n_features, warm_start.rank) != (config.kind, obj.F, obj.K):
        raise DataError("warm start does not match the configured kind/dimensions")
    else:
        transform, c0 = warm_start.transform, warm_start.threshold
    x0 = obj.pack(transform, c0, np.ones((obj.n_users, obj.K)))
    x, trace, iterations, termination, accuracy = _minimize(obj, x0, config, progress)
    transform, c, user_w = obj.unpack(x)
    model = MetricModel(kind, transform.copy(), c, user_ids,
                        None if user_w is None else user_w.copy(),
                        metadata={"feature_norm": config.feature_norm,
                                  "rank": int(obj.K), "termination": termination})
    return model, TrainReport(trace, accuracy, iterations, termination)


def train(config: TrainConfig, features, pairs, warm_start: MetricModel | None = None,
          progress=None):
    """Fit a weighted_nn or low_rank metric by maximum likelihood.

    Returns (MetricModel, TrainReport). warm_start, when given, supplies the
    starting point instead of the seeded random initialization; it must match
    the configured kind and dimensions. progress, when given, receives one
    ``iter\\tlog_likelihood\\ttrain_acc`` line per accepted iteration.
    """
    return _fit(config, config.kind, features, pairs, warm_start, progress)


def train_personalized(config: TrainConfig, features, pairs: LabeledPairSet,
                       warm_start: MetricModel, freeze_user_weights=False,
                       progress=None):
    """Fit (Y, c) and nonnegative per-user weights from a global warm start.

    pairs must be a user-annotated LabeledPairSet; the model's user table is
    taken from it, and the rank from the low_rank warm start (config.kind and
    config.rank are not used). User weights start at all-ones (the point
    where the personalized distance equals the global one) and are clamped
    to >= 0 after every optimizer step. freeze_user_weights pins them at
    one, which reduces the fit to train from the warm start.
    """
    if not isinstance(pairs, LabeledPairSet) or pairs.user_ids is None:
        raise DataError("personalized training requires user-annotated pairs")
    if warm_start.kind != "low_rank":
        raise DataError("warm start must be a low_rank model")
    config = replace(config, kind="low_rank", rank=warm_start.rank)
    if not freeze_user_weights:
        return _fit(config, "personalized", features, pairs, warm_start, progress)
    model, report = train(config, features, pairs, warm_start, progress)
    ones = np.ones((len(pairs.user_ids), model.rank))
    return MetricModel("personalized", model.transform, model.threshold,
                       list(pairs.user_ids), ones, model.metadata), report
