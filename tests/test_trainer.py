"""Likelihood, analytic gradients, and the optimizer loop.

The gradient tests are the heart of the suite: central finite differences
of the public log_likelihood must match the public gradient for every
model kind, coordinate by coordinate.
"""

import io
from collections import deque
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stylemetric import training
from stylemetric.catalog import DataError, FeatureMatrix, MetricModel
from stylemetric.evaluation import evaluate
from stylemetric.metric import link_probability
from stylemetric.sampling import LabeledPairSet
from stylemetric.training import (TrainConfig, TrainingError, gradient,
                                  log_likelihood, train, train_personalized)


def _instance(rng, kind, n_users=3):
    """A small random model plus a random labeled pair tuple."""
    f = int(rng.integers(2, 13))
    k = int(rng.integers(1, 5))
    n = int(rng.integers(4, 20))
    m = int(rng.integers(1, 51))
    X = rng.standard_normal((n, f))
    i_idx = rng.integers(0, n - 1, m)
    j_idx = np.maximum(i_idx + 1, rng.integers(1, n, m))
    j_idx = np.minimum(j_idx, n - 1)
    i_idx = np.minimum(i_idx, j_idx - 1)
    labels = rng.integers(0, 2, m).astype(bool)
    users = rng.integers(0, n_users, m) if kind == "personalized" else None
    c = float(rng.uniform(0.5, 3.0))
    if kind == "weighted_nn":
        transform = rng.uniform(0.05, 1.5, f)
        model = MetricModel(kind, transform, c)
    elif kind == "low_rank":
        model = MetricModel(kind, rng.standard_normal((f, k)) * 0.5, c)
    else:
        model = MetricModel(kind, rng.standard_normal((f, k)) * 0.5, c,
                            user_ids=[f"u{z}" for z in range(n_users)],
                            user_weights=rng.uniform(0.05, 2.0, (n_users, k)))
    feats = FeatureMatrix([f"i{z}" for z in range(n)], X)
    return model, feats, (i_idx, j_idx, labels) if users is None else (i_idx, j_idx, labels, users)


def _fd_check(kind, seed, n_instances, tol=1e-4):
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(n_instances):
        model, feats, pairs = _instance(rng, kind)
        grads = gradient(model, feats, pairs)
        analytic = np.concatenate([g.ravel() if hasattr(g, "ravel") else [g]
                                   for g in grads])
        h = 1e-6

        def perturbed(flat_delta):
            gt = model.transform + flat_delta[: model.transform.size].reshape(model.transform.shape)
            dc = model.threshold + flat_delta[model.transform.size]
            kw = {}
            if kind == "personalized":
                dw = flat_delta[model.transform.size + 1 :].reshape(model.user_weights.shape)
                kw = dict(user_ids=model.user_ids, user_weights=model.user_weights + dw)
            m2 = MetricModel(kind, gt, dc, **kw)
            return log_likelihood(m2, feats, pairs)

        n_params = analytic.size
        numeric = np.empty(n_params)
        for p in range(n_params):
            e = np.zeros(n_params)
            e[p] = h
            numeric[p] = (perturbed(e) - perturbed(-e)) / (2 * h)
        denom = np.maximum(np.abs(numeric), 1.0)
        worst = max(worst, float(np.max(np.abs(analytic - numeric) / denom)))
    assert worst < tol, f"{kind}: worst relative gradient error {worst:.3e}"


def test_gradient_weighted_nn_matches_finite_differences():
    _fd_check("weighted_nn", seed=0, n_instances=25)


def test_gradient_low_rank_matches_finite_differences():
    _fd_check("low_rank", seed=1, n_instances=25)


def test_gradient_personalized_matches_finite_differences():
    _fd_check("personalized", seed=2, n_instances=25)


def test_log_likelihood_hand_computed():
    """One related pair at known distance: L = log sigmoid(c - d)."""
    X = np.array([[0.0, 0.0], [1.0, 1.0]])
    feats = FeatureMatrix(["a", "b"], X)
    Y = np.eye(2)
    model = MetricModel("low_rank", Y, 3.0)
    # d = 1 + 1 = 2, c = 3
    want = float(np.log(link_probability(2.0, 3.0)))
    got = log_likelihood(model, feats, (np.array([0]), np.array([1]),
                                        np.array([True])))
    assert got == pytest.approx(want, rel=1e-12)
    # and the unrelated label gives log(1 - p)
    want_neg = float(np.log(1.0 - link_probability(2.0, 3.0)))
    got_neg = log_likelihood(model, feats, (np.array([0]), np.array([1]),
                                            np.array([False])))
    assert got_neg == pytest.approx(want_neg, rel=1e-12)


def test_log_likelihood_is_negative_and_finite_at_extremes():
    X = np.array([[0.0], [100.0]])
    feats = FeatureMatrix(["a", "b"], X)
    model = MetricModel("low_rank", np.array([[1.0]]), 1.0)
    # d = 10000, related: p underflows but log p must stay finite
    val = log_likelihood(model, feats, (np.array([0]), np.array([1]),
                                        np.array([True])))
    assert np.isfinite(val)
    assert val == pytest.approx(-(10000.0 - 1.0), rel=1e-9)


def _toy_pairs(seed=0, n=40, f=6, m=60):
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((n, f))
    feats = FeatureMatrix([f"i{z:03d}" for z in range(n)], X)
    keys = rng.choice(n * (n - 1) // 2, size=2 * m, replace=False)
    pairs = []
    for key in keys:
        i = 0
        row = n - 1
        while key >= row:
            key -= row
            i += 1
            row -= 1
        pairs.append((i, i + 1 + int(key)))
    pairs = np.array(pairs, dtype=np.int64)
    ps = LabeledPairSet(feats.item_ids, pairs, np.arange(2 * m) < m, "train")
    return feats, ps


class TestTrainLoop:
    def test_trace_is_monotone_nondecreasing(self):
        feats, ps = _toy_pairs(seed=3)
        cfg = TrainConfig(kind="low_rank", rank=2, max_iterations=60, seed=0)
        _, report = train(cfg, feats, ps)
        trace = np.array(report.trace)
        assert np.all(np.diff(trace) >= 0)

    def test_zero_iterations_reports_initial_point(self):
        feats, ps = _toy_pairs(seed=4)
        cfg = TrainConfig(kind="low_rank", rank=2, max_iterations=0, seed=0)
        model, report = train(cfg, feats, ps)
        assert len(report.trace) == 1
        assert report.iterations == 0
        assert report.termination == "max_iterations"
        want = log_likelihood(model, feats, ps)
        assert report.trace[0] == pytest.approx(want, rel=1e-12)

    def test_separable_instance_reaches_full_accuracy(self):
        # two tight clusters; related pairs within, unrelated across
        rng = np.random.default_rng(5)
        a = rng.standard_normal((10, 4)) * 0.05
        b = rng.standard_normal((10, 4)) * 0.05 + 4.0
        X = np.vstack([a, b])
        feats = FeatureMatrix([f"i{z}" for z in range(20)], X)
        pos, neg = [], []
        for i in range(10):
            for j in range(i + 1, 10):
                pos.append((i, j))
                neg.append((i, 10 + j))
        ps = LabeledPairSet(feats.item_ids, pos + neg,
                            [True] * len(pos) + [False] * len(neg), "train")
        cfg = TrainConfig(kind="low_rank", rank=2, max_iterations=150, seed=1)
        model, report = train(cfg, feats, ps)
        assert report.train_accuracy == 1.0

    def test_same_seed_same_model(self):
        feats, ps = _toy_pairs(seed=6)
        cfg = TrainConfig(kind="low_rank", rank=3, max_iterations=40, seed=9)
        m1, r1 = train(cfg, feats, ps)
        m2, r2 = train(cfg, feats, ps)
        assert np.array_equal(m1.transform, m2.transform)
        assert m1.threshold == m2.threshold
        assert r1.trace == r2.trace

    def test_different_seed_different_start(self):
        feats, ps = _toy_pairs(seed=7)
        cfg1 = TrainConfig(kind="low_rank", rank=3, max_iterations=0, seed=1)
        cfg2 = TrainConfig(kind="low_rank", rank=3, max_iterations=0, seed=2)
        m1, _ = train(cfg1, feats, ps)
        m2, _ = train(cfg2, feats, ps)
        assert not np.array_equal(m1.transform, m2.transform)

    def test_weighted_nn_training_works(self):
        feats, ps = _toy_pairs(seed=9)
        cfg = TrainConfig(kind="weighted_nn", max_iterations=60, seed=0)
        model, report = train(cfg, feats, ps)
        assert model.kind == "weighted_nn"
        assert model.transform.shape == (feats.n_features,)
        assert report.trace[-1] >= report.trace[0]

    def test_progress_stream_format(self):
        feats, ps = _toy_pairs(seed=10)
        cfg = TrainConfig(kind="low_rank", rank=2, max_iterations=5, seed=0)

        class Sink:
            def __init__(self):
                self.lines = []

            def write(self, s):
                self.lines.append(s)

        sink = Sink()
        train(cfg, feats, ps, progress=sink)
        assert len(sink.lines) >= 1
        for line in sink.lines:
            it, ll, acc = line.rstrip("\n").split("\t")
            int(it)
            assert float(ll) <= 0.0
            assert 0.0 <= float(acc) <= 1.0

    def test_requires_train_partition(self):
        feats, ps = _toy_pairs(seed=11)
        bad = LabeledPairSet(ps.item_ids, ps.pairs, ps.labels, "test")
        cfg = TrainConfig(kind="low_rank", rank=2, seed=0)
        with pytest.raises(DataError):
            train(cfg, feats, bad)

    def test_l2_penalty_shrinks_transform(self):
        feats, ps = _toy_pairs(seed=12)
        free = TrainConfig(kind="low_rank", rank=2, max_iterations=80, seed=0)
        tight = TrainConfig(kind="low_rank", rank=2, max_iterations=80, seed=0,
                            l2_penalty=5.0)
        mf, _ = train(free, feats, ps)
        mt, _ = train(tight, feats, ps)
        assert np.linalg.norm(mt.transform) < np.linalg.norm(mf.transform)

    def test_c0_override(self):
        feats, ps = _toy_pairs(seed=13)
        cfg = TrainConfig(kind="low_rank", rank=2, max_iterations=0, seed=0,
                          c0=7.25)
        model, _ = train(cfg, feats, ps)
        assert model.threshold == 7.25


class TestTrainConfig:
    def test_validation_rejects_nonsense(self):
        with pytest.raises((DataError, TrainingError, ValueError)):
            TrainConfig(kind="low_rank", rank=0).validate()
        with pytest.raises((DataError, TrainingError, ValueError)):
            TrainConfig(kind="nope").validate()
        with pytest.raises((DataError, TrainingError, ValueError)):
            TrainConfig(max_iterations=-1).validate()
        for name in ("tolerance", "init_scale", "c0", "l2_penalty"):
            for bad in (float("nan"), float("inf")):
                with pytest.raises(DataError):
                    TrainConfig(**{name: bad}).validate()


def _user_pairs(seed=0, n=60, f=8, n_users=4, per_user=30):
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((n, f))
    feats = FeatureMatrix([f"i{z:03d}" for z in range(n)], X)
    pos, neg, pu, nu = [], [], [], []
    seen = set()
    for u in range(n_users):
        got = 0
        while got < per_user:
            i, j = sorted(rng.choice(n, 2, replace=False).tolist())
            if i == j or (i, j) in seen:
                continue
            seen.add((i, j))
            if got % 2 == 0:
                pos.append((i, j))
                pu.append(u)
            else:
                neg.append((i, j))
                nu.append(u)
            got += 1
    return feats, LabeledPairSet(feats.item_ids, pos + neg,
                                 [True] * len(pos) + [False] * len(neg), "train",
                                 user_ids=[f"u{z}" for z in range(n_users)],
                                 users=pu + nu)


class TestTrainPersonalized:
    def test_frozen_user_weights_reproduce_global_trajectory(self):
        """With X_u pinned at all-ones the personalized objective collapses
        to the global one, so the whole optimization path must match
        bit for bit."""
        feats, ps = _user_pairs(seed=14)
        cfg = TrainConfig(kind="low_rank", rank=3, max_iterations=40, seed=3)
        warm, _ = train(cfg, feats, ps)
        frozen, frozen_report = train_personalized(cfg, feats, ps, warm,
                                                   freeze_user_weights=True)
        cont, cont_report = train(cfg, feats, ps, warm_start=warm)
        assert frozen_report.trace == cont_report.trace
        assert np.array_equal(frozen.transform, cont.transform)
        assert frozen.threshold == cont.threshold
        assert np.all(frozen.user_weights == 1.0)

    def test_personalized_weights_stay_nonnegative(self):
        feats, ps = _user_pairs(seed=15)
        cfg = TrainConfig(kind="low_rank", rank=3, max_iterations=60, seed=0)
        warm, _ = train(cfg, feats, ps)
        model, _ = train_personalized(cfg, feats, ps, warm)
        assert model.kind == "personalized"
        assert np.all(model.user_weights >= 0.0)
        assert model.user_ids == ps.user_ids

    def test_personalized_likelihood_never_drops(self):
        feats, ps = _user_pairs(seed=16)
        cfg = TrainConfig(kind="low_rank", rank=3, max_iterations=60, seed=0)
        warm, _ = train(cfg, feats, ps)
        base = log_likelihood(warm, feats, ps)
        model, report = train_personalized(cfg, feats, ps, warm)
        assert report.trace[-1] >= base - 1e-9

    def test_requires_user_annotations(self):
        feats, ps = _toy_pairs(seed=17)
        cfg = TrainConfig(kind="low_rank", rank=2, max_iterations=10, seed=0)
        warm, _ = train(cfg, feats, ps)
        with pytest.raises(DataError):
            train_personalized(cfg, feats, ps, warm)

    def test_requires_low_rank_warm_start(self):
        feats, ps = _user_pairs(seed=18)
        cfg = TrainConfig(kind="weighted_nn", max_iterations=10, seed=0)
        warm, _ = train(cfg, feats, ps)
        cfg2 = TrainConfig(kind="low_rank", rank=2, max_iterations=10, seed=0)
        with pytest.raises(DataError):
            train_personalized(cfg2, feats, ps, warm)


@pytest.mark.parametrize("kind", ["weighted_nn", "low_rank", "personalized"])
def test_reported_train_accuracy_equals_evaluate(kind):
    """The accuracy taken from the objective's own pass must equal evaluate()
    on the training pairs exactly, and so must the last progress line, which
    is what the CLI writes to train_log.tsv."""
    feats, ps = _user_pairs(seed=19)
    cfg = TrainConfig(kind="weighted_nn" if kind == "weighted_nn" else "low_rank",
                      rank=3, max_iterations=25, seed=0)
    log = io.StringIO()
    if kind == "personalized":
        warm, _ = train(cfg, feats, ps)
        model, report = train_personalized(cfg, feats, ps, warm, progress=log)
    else:
        model, report = train(cfg, feats, ps, progress=log)
    assert model.kind == kind
    want = evaluate(model, feats, ps).accuracy
    assert report.train_accuracy == want
    assert log.getvalue().splitlines()[-1].split("\t")[2] == f"{want:.4f}"


def _scatter_per_column(out, idx, rows):
    """The per-column scatter _scatter_rows once ran: one bincount per column."""
    for k in range(out.shape[1]):
        out[:, k] += np.bincount(idx, rows[:, k], len(out))


@pytest.mark.parametrize("n, k, sizes", [
    (6, 3, [40, 0, 17]),  # an empty block between two full ones
    (5, 1, [30, 30]),     # one style column
    (1, 4, [9]),          # every pair on the same row
    (50, 7, [3, 200]),
])
def test_scatter_rows_matches_the_per_column_bincounts(n, k, sizes):
    """Each cell adds its terms in pair order, as K column bincounts did, so
    the two agree bit for bit even where the order of a sum matters."""
    rng = np.random.default_rng(n * 100 + k)
    start = rng.standard_normal((n, k)) * 1e16
    flat, per_column = start.copy(), start.copy()
    for m in sizes:
        idx = rng.integers(0, n, m)  # repeats on purpose
        rows = rng.standard_normal((m, k)) * 10.0 ** rng.integers(-8, 17, (m, 1))
        training._scatter_rows(flat, idx, rows)
        _scatter_per_column(per_column, idx, rows)
        assert np.array_equal(flat, per_column)
    assert not np.array_equal(flat, start)


def _scatter_all_cells(out, idx, rows):
    """The scatter _scatter_rows once ran: one bincount over every cell of out."""
    K = out.shape[1]
    cells = (idx[:, None] * K + np.arange(K)).ravel()
    out += np.bincount(cells, rows.ravel(), out.size).reshape(out.shape)


@given(n=st.integers(1, 12), k=st.integers(1, 5),
       sizes=st.lists(st.integers(0, 40), min_size=1, max_size=4),
       seed=st.integers(0, 2**32 - 1))
def test_scatter_over_the_touched_rows_matches_the_all_cell_bincount(n, k, sizes, seed):
    """From a zero array, block after block, scattering into only the rows a
    block touches (with np.unique kept from before, as grad keeps it) gives
    the bits of a bincount over every cell, signed zeros and cancelling terms
    included."""
    rng = np.random.default_rng(seed)
    touched_only, all_cells = np.zeros((n, k)), np.zeros((n, k))
    for m in sizes:
        idx = rng.integers(0, n, m)  # repeats on purpose
        rows = rng.standard_normal((m, k)) * 10.0 ** rng.integers(-8, 17, (m, 1))
        rows[rng.random((m, k)) < 0.2] = -0.0
        if m > 1:
            rows[1] = -rows[0]
            idx[1] = idx[0]
        training._scatter_rows(touched_only, idx, rows, np.unique(idx, return_inverse=True))
        _scatter_all_cells(all_cells, idx, rows)
        assert touched_only.tobytes() == all_cells.tobytes()


def _fused_minimize(obj, x0, config, progress=None):
    """The line search _minimize once ran: value_and_grad at every trial point."""
    x = obj.project(np.asarray(x0, dtype=np.float64))
    f, L, g, acc = obj.value_and_grad(x)
    if not np.isfinite(f):
        raise TrainingError("non-finite likelihood at iteration 0 (bad init scale?)")
    trace = [L]
    if progress is not None:
        progress.write(f"0\t{L:.6f}\t{acc:.4f}\n")
    history = deque(maxlen=training._HISTORY)
    termination = "max_iterations"
    it = 0
    while it < config.max_iterations:
        if float(np.linalg.norm(g)) < training._GRAD_NORM_FLOOR:
            termination = "gradient_norm"
            break
        p = -training._two_loop(g, history)
        if float(p @ g) >= 0.0:
            history.clear()
            p = -g
        alpha = 1.0
        while alpha >= training._MIN_STEP:
            xt = obj.project(x + alpha * p)
            ft, Lt, gt, acct = obj.value_and_grad(xt)
            if not np.isfinite(ft):
                raise TrainingError(f"non-finite likelihood at iteration {it + 1}")
            gdx = float(g @ (xt - x))
            if ft <= f + training._ARMIJO * gdx and ft <= f:
                break
            alpha *= training._BACKTRACK
        else:
            termination = "no_ascent_step"
            break
        f_prev = f
        s = xt - x
        y = gt - g
        sy = float(s @ y)
        if sy > training._CURVATURE_GUARD * float(np.linalg.norm(s)) * float(np.linalg.norm(y)):
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


def _line_search_problem(kind, l2_penalty, seed=21, n=30, f=5, rank=3, n_users=3, m=120):
    """An objective over random pairs and its seeded starting point."""
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((n, f))
    i_idx = rng.integers(0, n - 1, m)
    j_idx = np.minimum(i_idx + rng.integers(1, n, m), n - 1)
    i_idx = np.minimum(i_idx, j_idx - 1)
    labels = rng.integers(0, 2, m).astype(bool)
    users = rng.integers(0, n_users, m) if kind == "personalized" else None
    config = TrainConfig(kind="weighted_nn" if kind == "weighted_nn" else "low_rank",
                         rank=rank, seed=seed, l2_penalty=l2_penalty)
    obj = training._Objective(kind, X, i_idx, j_idx, labels, users,
                              n_users if users is not None else 0, rank=rank,
                              l2_penalty=l2_penalty)
    transform, c0 = training._init_params(config, obj)
    return obj, obj.pack(transform, c0, rng.uniform(0.5, 1.5, (obj.n_users, obj.K)))


def _counted(obj, calls):
    """Record every value and gradient pass obj makes, in order."""
    value, grad = obj.value, obj.grad

    def counted_value(vec, bound=None):
        calls.append("value")
        return value(vec, bound)

    def counted_grad(vec, S):
        calls.append("grad")
        return grad(vec, S)

    obj.value, obj.grad = counted_value, counted_grad
    return obj


# l2_penalty 1e30 makes every step from 1 down to _MIN_STEP overshoot the
# penalty's minimum, so the first line search fails; personalized with seed 21
# accepts its first full step.
@pytest.mark.parametrize("kind, l2_penalty, seed, termination, backtracks", [
    ("low_rank", 0.0, 21, "max_iterations", True),
    ("low_rank", 0.5, 21, "tolerance", True),
    ("weighted_nn", 0.0, 21, "tolerance", True),
    ("weighted_nn", 0.5, 22, "tolerance", True),
    ("personalized", 0.0, 21, "tolerance", False),
    ("personalized", 0.5, 21, "max_iterations", True),
    ("low_rank", 1e30, 21, "no_ascent_step", True),
    ("weighted_nn", 1e30, 21, "no_ascent_step", True),
    ("personalized", 1e30, 21, "no_ascent_step", True),
])
def test_lazy_line_search_matches_the_fused_one(kind, l2_penalty, seed, termination,
                                                backtracks):
    """Taking the gradient only at the start point and at accepted trials
    leaves every bit of the run as it was when every trial took one, and
    makes exactly one gradient pass per iterate."""
    config = TrainConfig(max_iterations=30)
    obj, x0 = _line_search_problem(kind, l2_penalty, seed)
    calls = []
    lazy_log, fused_log = io.StringIO(), io.StringIO()
    x, trace, iterations, stop, accuracy = training._minimize(
        _counted(obj, calls), x0, config, lazy_log)
    want = _fused_minimize(_line_search_problem(kind, l2_penalty, seed)[0], x0, config,
                           fused_log)
    assert x.tobytes() == want[0].tobytes()
    assert (trace, iterations, stop, accuracy) == tuple(want[1:])
    assert lazy_log.getvalue() == fused_log.getvalue()
    assert stop == termination
    assert calls[:2] == ["value", "grad"]
    assert calls.count("grad") == iterations + 1
    first_trials = (calls + ["grad"]).index("grad", 2) - 2
    assert (first_trials > 1) == backtracks


def _patched_blocks(probe, block):
    """Set the objective's head size and block size, for objectives built inside."""
    return mock.patch.multiple(training, _PROBE=probe, _BLOCK=block)


_KINDS = st.sampled_from(["low_rank", "weighted_nn", "personalized"])
_PENALTIES = st.sampled_from([0.0, 0.5, 1e30])
_PROBES = st.sampled_from([1, 7, training._PROBE])
_BLOCKS = st.sampled_from([1, 16, training._BLOCK])


@settings(max_examples=40)
@given(kind=_KINDS, l2_penalty=_PENALTIES, probe=_PROBES, block=_BLOCKS,
       seed=st.integers(0, 2**16), m=st.integers(1, 300))
def test_pruned_line_search_matches_the_fused_one(kind, l2_penalty, probe, block, seed, m):
    """Rejecting trials from a partial sum of f leaves every bit of the run as
    it was when every trial took a full value and gradient pass."""
    config = TrainConfig(max_iterations=15)
    with _patched_blocks(probe, block):
        obj, x0 = _line_search_problem(kind, l2_penalty, seed, m=m)
        pruned_log, fused_log = io.StringIO(), io.StringIO()
        x, *rest = training._minimize(obj, x0, config, pruned_log)
        want = _fused_minimize(_line_search_problem(kind, l2_penalty, seed, m=m)[0], x0,
                               config, fused_log)
    assert x.tobytes() == want[0].tobytes()
    assert tuple(rest) == tuple(want[1:])
    assert pruned_log.getvalue() == fused_log.getvalue()


def _bits(value):
    return np.float64(value).tobytes()


@settings(max_examples=60)
@given(kind=_KINDS, l2_penalty=_PENALTIES, probe=_PROBES, block=_BLOCKS,
       seed=st.integers(0, 2**16), m=st.integers(1, 300), step=st.floats(0.0, 2.0),
       scale=st.sampled_from([-1.0, 0.0, 0.5, 1.0 - 1e-9, 1.0, 1.0 + 1e-9, 2.0]))
def test_bounded_value_is_none_or_the_full_value(kind, l2_penalty, probe, block, seed, m,
                                                 step, scale):
    """value(v, b) returns None exactly when f(v) > b, and otherwise the bits
    of the unbounded pass."""
    with _patched_blocks(probe, block):
        obj, x0 = _line_search_problem(kind, l2_penalty, seed, m=m)
        rng = np.random.default_rng(seed)
        vec = obj.project(x0 + step * rng.standard_normal(x0.shape))
        f, L, acc, S = obj.value(vec)
        bound = scale * f
        got = obj.value(vec, bound)
    assert np.isfinite(f)
    if got is None:
        assert f > bound
    else:
        assert not f > bound
        assert [_bits(v) for v in got[:3]] == [_bits(f), _bits(L), _bits(acc)]
        assert got[3].tobytes() == S.tobytes()


@pytest.mark.parametrize("kind", ["low_rank", "personalized"])
def test_head_rejection_projects_only_the_head_rows(kind, monkeypatch):
    """A trial whose first _PROBE pairs already exceed the bound projects at
    most their 2 * _PROBE endpoint rows, not the catalog."""
    obj, x0 = _line_search_problem(kind, 0.0, seed=23, n=3 * training._PROBE,
                                   m=4 * training._PROBE)
    projected = []
    project_rows = training.project_rows

    def counted(X, Y, rows=None, norm="none"):
        projected.append(len(X) if rows is None else len(rows))
        return project_rows(X, Y, rows, norm)

    monkeypatch.setattr(training, "project_rows", counted)
    assert obj.value(x0, -1.0) is None  # f >= 0, so no point meets this bound
    assert len(projected) == 1
    assert 0 < projected[0] <= 2 * training._PROBE < len(obj.X)
