"""Distance kernels and the link-probability map, checked against
brute-force formulas written independently of the library internals."""

import math
import os
import subprocess
import sys
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from stylemetric import FEATURE_NORMS, metric
from stylemetric.catalog import DataError, FeatureMatrix, MetricModel, normalize_rows
from stylemetric.evaluation import evaluate
from stylemetric.metric import (link_probability, log_link_probability, model_distances,
                                pair_distances_style, pair_terms, project_rows, sigmoid,
                                softplus)
from stylemetric.sampling import LabeledPairSet
from stylemetric.stylespace import embed_all


def brute_full(M, x_i, x_j):
    """The full form (x_i - x_j) M (x_i - x_j)^T, the oracle for the factored one."""
    delta = x_i - x_j
    return float(delta @ M @ delta)


def brute_weighted(w, x_i, x_j):
    return float(sum((wk * (a - b)) ** 2 for wk, a, b in zip(w, x_i, x_j)))


def _model(kind, transform, c=1.0, **kw):
    return MetricModel(kind=kind, transform=np.asarray(transform, dtype=np.float64),
                       threshold=c, **kw)


def _catalog(X):
    """X as a catalog, one made-up item id per row."""
    return FeatureMatrix([f"i{z}" for z in range(len(X))], X)


def _alone(model, x_i, x_j, user=None):
    """model_distances of the one pair (x_i, x_j), with its user's weights."""
    users = None if user is None else [user]
    return float(model_distances(model, _catalog(np.vstack([x_i, x_j])), [0], [1], users)[0])


def test_lowrank_matches_full_quadratic_form():
    rng = np.random.default_rng(0)
    worst = 0.0
    for _ in range(1000):
        f = int(rng.integers(1, 17))
        k = int(rng.integers(1, f + 1))
        Y = rng.standard_normal((f, k))
        x_i = rng.standard_normal(f)
        x_j = rng.standard_normal(f)
        d_low = _alone(_model("low_rank", Y), x_i, x_j)
        d_ful = brute_full(Y @ Y.T, x_i, x_j)
        rel = abs(d_low - d_ful) / max(abs(d_ful), 1e-300)
        worst = max(worst, rel)
    assert worst < 1e-9


def test_weighted_matches_brute_force():
    rng = np.random.default_rng(2)
    for _ in range(50):
        f = int(rng.integers(1, 10))
        w = rng.uniform(0, 2, f)
        x_i, x_j = rng.standard_normal(f), rng.standard_normal(f)
        assert _alone(_model("weighted_nn", w), x_i, x_j) == pytest.approx(
            brute_weighted(w, x_i, x_j), rel=1e-12)


def test_lowrank_equals_embedded_euclidean_exactly():
    """Projecting first and differencing after must be the same float ops
    the distance kernel performs, so every distance equals the squared
    difference of the embed_all rows bit for bit, under either norm."""
    rng = np.random.default_rng(3)
    for trial in range(200):
        n = int(rng.integers(2, 6))
        f = int(rng.integers(1, 20))
        k = int(rng.integers(1, 8))
        norm = FEATURE_NORMS[trial % 2]
        model = MetricModel("low_rank", rng.standard_normal((f, k)), 1.0,
                            metadata={"feature_norm": norm})
        feats = FeatureMatrix([f"i{z}" for z in range(n)], rng.standard_normal((n, f)))
        S = embed_all(model, feats).values
        i, j = np.triu_indices(n, 1)
        direct = np.einsum("ij,ij->i", S[i] - S[j], S[i] - S[j])
        assert np.array_equal(model_distances(model, feats, i, j), direct)


def test_symmetry_is_exact():
    rng = np.random.default_rng(4)
    for _ in range(100):
        f = int(rng.integers(1, 16))
        k = int(rng.integers(1, 5))
        Y = rng.standard_normal((f, k))
        uw = rng.uniform(0, 1, (1, k))
        x_i, x_j = rng.standard_normal(f), rng.standard_normal(f)
        for m, user in ((_model("low_rank", Y), None),
                        (_model("weighted_nn", rng.uniform(0, 1, f)), None),
                        (_model("personalized", Y, user_ids=["u0"], user_weights=uw), 0)):
            assert _alone(m, x_i, x_j, user) == _alone(m, x_j, x_i, user)


def test_self_distance_is_zero():
    rng = np.random.default_rng(5)
    Y = rng.standard_normal((6, 3))
    x = rng.standard_normal(6)
    assert _alone(_model("low_rank", Y), x, x) == 0.0
    assert _alone(_model("weighted_nn", np.ones(6)), x, x) == 0.0


def test_distances_are_nonnegative():
    rng = np.random.default_rng(6)
    for _ in range(200):
        Y = rng.standard_normal((8, 3))
        x_i, x_j = rng.standard_normal(8), rng.standard_normal(8)
        assert _alone(_model("low_rank", Y), x_i, x_j) >= 0.0
        assert _alone(_model("weighted_nn", rng.uniform(0, 1, 8)), x_i, x_j) >= 0.0


def test_personalized_reweights_style_dimensions():
    rng = np.random.default_rng(7)
    Y = rng.standard_normal((10, 4))
    x_i, x_j = rng.standard_normal(10), rng.standard_normal(10)
    s = (x_i - x_j) @ Y
    uw = rng.uniform(0, 2, 4)
    m = _model("personalized", Y, user_ids=["u0", "u1"], user_weights=[uw, np.ones(4)])
    expected = float(np.sum((s * uw) ** 2))
    assert _alone(m, x_i, x_j, 0) == pytest.approx(expected, rel=1e-12)
    # all-ones weights recover the global metric
    assert _alone(m, x_i, x_j, 1) == pytest.approx(
        _alone(_model("low_rank", Y), x_i, x_j), rel=1e-12)


def test_personalized_rejects_negative_weights():
    """A personalized model cannot hold a negative user weight, so no
    distance is ever taken under one."""
    with pytest.raises(DataError):
        _model("personalized", np.eye(3), user_ids=["u0"],
               user_weights=np.array([[1.0, -0.5, 1.0]]))


def test_project_rows_single_row_equals_batch():
    """One row projected alone must equal the same row projected in a batch,
    bit for bit; everything downstream leans on this."""
    rng = np.random.default_rng(8)
    X = rng.standard_normal((64, 12))
    Y = rng.standard_normal((12, 5))
    S = project_rows(X, Y)
    for i in (0, 17, 63):
        alone = project_rows(X[i : i + 1], Y)
        assert np.array_equal(alone[0], S[i])


def _own_block(row, Y, block):
    """A row's style coordinates from one GEMM of a zero block of `block` rows
    that holds the row first, against Y zero-padded to whole column panels."""
    f, k = Y.shape
    panel = metric._PROJECT_PANEL
    Yp = np.zeros((f, -(-k // panel) * panel))
    Yp[:, :k] = Y
    rows = np.zeros((block, f))
    rows[0] = row
    return (rows @ Yp)[0, :k]


def _laid_out(A, layout, rng):
    """A copy of A in C order, Fortran order, or as a strided slice of a larger array."""
    if layout == "C":
        return np.ascontiguousarray(A)
    if layout == "F":
        return np.asfortranarray(A)
    big = rng.standard_normal((2 * A.shape[0] + 1, 3 * A.shape[1] + 2))
    view = big[1::2, 2::3]
    view[...] = A
    return view


@given(block=st.sampled_from([1, 3, 4, metric._PROJECT_BLOCK]),
       blocks=st.integers(0, 3), extra=st.integers(-2, 2), f=st.integers(1, 9),
       k=st.integers(1, 20), x_layout=st.sampled_from(("C", "F", "sliced")),
       y_layout=st.sampled_from(("C", "F", "sliced")), norm=st.sampled_from(FEATURE_NORMS),
       seed=st.integers(0, 2**32 - 1))
@example(block=3, blocks=0, extra=0, f=3, k=2, x_layout="C", y_layout="C", norm="none",
         seed=0)
@example(block=4, blocks=1, extra=1, f=1, k=3, x_layout="F", y_layout="sliced",
         norm="l2_unit", seed=1)
@example(block=1, blocks=2, extra=1, f=4, k=1, x_layout="sliced", y_layout="F",
         norm="none", seed=2)
@example(block=metric._PROJECT_BLOCK, blocks=1, extra=-1, f=9, k=17, x_layout="sliced",
         y_layout="sliced", norm="l2_unit", seed=3)
def test_project_rows_gives_each_row_the_bits_of_its_own_padded_block(
        block, blocks, extra, f, k, x_layout, y_layout, norm, seed):
    """With any block size, every row gets the bits of a block that holds it
    alone, normalized: in the whole batch on either side of a block
    boundary, in any subset and order of rows (repeats and none included),
    selected by rows or gathered first, alone and as a 1-D input, whatever
    the layouts of X and Y. Zero rows stay zero under l2_unit."""
    n = max(0, blocks * block + extra)
    rng = np.random.default_rng(seed)
    scales = 10.0 ** rng.uniform(-8, 8, (n, 1))
    rows = rng.standard_normal((n, f)) * scales
    rows[rng.random(n) < 0.2] = 0.0
    X = _laid_out(rows, x_layout, rng)
    Y = _laid_out(rng.standard_normal((f, k)), y_layout, rng)
    unit = normalize_rows(rows, norm)
    want = np.array([_own_block(row, Y, block) for row in unit]).reshape(n, k)
    with mock.patch.object(metric, "_PROJECT_BLOCK", block):
        S = project_rows(X, Y, norm=norm)
        assert S.shape == (n, k)
        assert S.flags.c_contiguous
        assert np.array_equal(S, want)
        assert project_rows(X, Y, [], norm).shape == (0, k)
        if n == 0:
            return
        subset = rng.integers(0, n, int(rng.integers(0, 2 * n + 1)))
        order = rng.permutation(n)
        for selected in (subset, order):
            assert np.array_equal(project_rows(X, Y, selected, norm), want[selected])
            assert np.array_equal(project_rows(unit[selected], Y), want[selected])
        for r in range(n):
            assert np.array_equal(project_rows(X, Y, [r], norm)[0], want[r])
            assert np.array_equal(project_rows(unit[r:r + 1], Y)[0], want[r])
            assert np.array_equal(project_rows(unit[r], Y)[0], want[r])


@pytest.mark.parametrize("norm", FEATURE_NORMS)
@pytest.mark.parametrize("command", ["evaluate", "embed_all"])
def test_style_rows_hold_no_copy_of_the_catalog(command, norm):
    """evaluate and embed_all, under either normalization, hold the N x K
    style rows and a few blocks of feature rows at a time, never a copy of
    the N x F catalog: the rows are selected and normalized inside
    project_rows' blocks. The test pairs touch half the catalog, as a test
    split touches part of it."""
    rng = np.random.default_rng(19)
    n, f, k, m = 4000, 256, 4, 1000
    feats = FeatureMatrix([f"i{z}" for z in range(n)], rng.standard_normal((n, f)))
    model = MetricModel("low_rank", rng.standard_normal((f, k)), 1.0,
                        metadata={"feature_norm": norm})
    pairs = [(2 * z, 2 * z + 1) for z in range(m)] + [(2 * z, 2 * z + 3) for z in range(m)]
    ps = LabeledPairSet(feats.item_ids, pairs, [True] * m + [False] * m, "test")
    run = {"evaluate": lambda: evaluate(model, feats, ps),
           "embed_all": lambda: embed_all(model, feats)}[command]
    tracemalloc.start()
    try:
        run()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * (n * k + 4 * metric._PROJECT_BLOCK * f) < 8 * n * f / 6


_THREADED_PROJECTION = """
import hashlib
import numpy as np
from stylemetric.metric import _PROJECT_BLOCK as B, project_rows
rng = np.random.default_rng(0)
for k in (64, 130):
    X = rng.standard_normal((3 * B + 5, 1024))
    Y = rng.standard_normal((1024, k))
    S = project_rows(X, Y)
    rows = [0, 1, B - 1, B, 2 * B + 77, 3 * B + 4]
    alone = np.vstack([project_rows(X[r], Y) for r in rows])
    print(hashlib.sha256(S.tobytes()).hexdigest(),
          np.array_equal(alone, S[rows]))
"""


def test_block_projection_does_not_depend_on_the_blas_thread_count():
    """(3B+5) x 1024 rows by a 1024 x 64 and a 1024 x 130 transform give the
    same bytes on one BLAS thread and on two, and each row the bits it gets
    alone. A block of this shape is large enough for OpenBLAS to split its
    GEMM across threads; rank 130 leaves a last column panel narrower than
    OpenBLAS's kernel, which the panel padding fills."""
    src = os.path.dirname(os.path.dirname(metric.__file__))
    outputs = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        done = subprocess.run([sys.executable, "-c", _THREADED_PROJECTION], env=env,
                              check=True, capture_output=True, text=True)
        outputs.append(done.stdout.split())
    assert outputs[0] == outputs[1]
    assert outputs[0][1::2] == ["True", "True"]


@given(n=st.integers(2, 40), k=st.sampled_from([1, 2, 3, 4, 5, 8, 17, 128]),
       seed=st.integers(0, 2**32 - 1))
def test_row_slice_distances_match_the_gathered_pairs(n, k, seed):
    """pair_terms over row i against the slice S[j0:j1] gives the bits of
    pair_distances_style over the gathered pairs (i, j0) .. (i, j1-1): for a
    whole upper-triangle row and for any piece of one. The streaming
    generator in synthetic.py relies on this."""
    rng = np.random.default_rng(seed)
    S = rng.standard_normal((n, k)) * 10.0 ** rng.uniform(-8, 8, (n, 1))
    for i in range(n - 1):
        j0 = int(rng.integers(i + 1, n))
        j1 = int(rng.integers(j0, n + 1))
        for lo, hi in ((i + 1, n), (j0, j1)):
            row = pair_terms(S, i, slice(lo, hi))[2]
            gathered = pair_distances_style(S, np.full(hi - lo, i), np.arange(lo, hi))
            assert np.array_equal(row.view(np.int64), gathered.view(np.int64))


def test_sigmoid_midpoint_and_saturation():
    assert sigmoid(0.0) == 0.5
    assert sigmoid(1000.0) == 1.0
    assert sigmoid(-1000.0) == pytest.approx(0.0, abs=1e-300)
    # no overflow warnings at extremes
    with np.errstate(over="raise"):
        sigmoid(np.array([-1e4, -50.0, 0.0, 50.0, 1e4]))


def test_sigmoid_matches_reference_in_stable_range():
    t = np.linspace(-30, 30, 601)
    ref = 1.0 / (1.0 + np.exp(-t))
    np.testing.assert_allclose(sigmoid(t), ref, rtol=1e-14)


def test_softplus_identities():
    t = np.linspace(-40, 40, 401)
    np.testing.assert_allclose(softplus(t) - softplus(-t), t, rtol=0, atol=1e-12)
    assert softplus(0.0) == pytest.approx(math.log(2.0), rel=1e-15)
    with np.errstate(over="raise"):
        assert softplus(800.0) == 800.0


def test_link_probability_half_at_threshold():
    for c in (0.0, 0.3, 17.5, 1e-9):
        assert abs(link_probability(c, c) - 0.5) < 1e-12


def test_link_probability_monotone_decreasing_in_distance():
    d = np.linspace(0, 10, 200)
    p = link_probability(d, 3.0)
    assert np.all(np.diff(p) < 0)


def test_log_link_probability_matches_log_of_probability():
    rng = np.random.default_rng(9)
    d = rng.uniform(0, 20, 500)
    c = 5.0
    np.testing.assert_allclose(log_link_probability(d, c),
                               np.log(link_probability(d, c)), rtol=1e-12)


def test_log_link_probability_stable_at_huge_distance():
    # log p = -(d - c) asymptotically; the naive log(sigmoid) underflows here
    assert log_link_probability(1e4, 2.0) == pytest.approx(-(1e4 - 2.0), rel=1e-12)


def test_pair_distances_weighted_matches_scalar_kernel():
    rng = np.random.default_rng(10)
    X = rng.standard_normal((40, 7))
    w = rng.uniform(0, 1, 7)
    i_idx = rng.integers(0, 40, 25)
    j_idx = rng.integers(0, 40, 25)
    d = pair_distances_style(X, i_idx, j_idx, w)
    for n, (i, j) in enumerate(zip(i_idx, j_idx)):
        assert d[n] == _alone(_model("weighted_nn", w), X[i], X[j])


def test_pair_distances_style_matches_scalar_kernel():
    rng = np.random.default_rng(11)
    X = rng.standard_normal((30, 9))
    Y = rng.standard_normal((9, 4))
    S = project_rows(X, Y)
    i_idx = rng.integers(0, 30, 20)
    j_idx = rng.integers(0, 30, 20)
    d = pair_distances_style(S, i_idx, j_idx)
    for n, (i, j) in enumerate(zip(i_idx, j_idx)):
        assert d[n] == _alone(_model("low_rank", Y), X[i], X[j])


def test_pair_distances_blocking_is_invisible():
    """Results must not depend on how the pair list is chunked internally."""
    rng = np.random.default_rng(12)
    X = rng.standard_normal((50, 6))
    S = project_rows(X, rng.standard_normal((6, 3)))
    i_idx = rng.integers(0, 50, 10000)
    j_idx = rng.integers(0, 50, 10000)
    whole = pair_distances_style(S, i_idx, j_idx)
    pieces = np.concatenate([
        pair_distances_style(S, i_idx[:777], j_idx[:777]),
        pair_distances_style(S, i_idx[777:], j_idx[777:]),
    ])
    assert np.array_equal(whole, pieces)


class TestModelDistances:
    def test_weighted_kind(self):
        rng = np.random.default_rng(13)
        X = rng.standard_normal((20, 5))
        w = rng.uniform(0, 1, 5)
        m = _model("weighted_nn", w, 1.0)
        d = model_distances(m, _catalog(X), np.array([0, 1]), np.array([2, 3]))
        assert d[0] == _alone(m, X[0], X[2])
        assert d[1] == _alone(m, X[1], X[3])
        assert d[0] == pytest.approx(brute_weighted(w, X[0], X[2]), rel=1e-12)
        with pytest.raises(IndexError):
            model_distances(m, _catalog(X), np.array([-1]), np.array([0]))

    def test_low_rank_kind(self):
        rng = np.random.default_rng(14)
        X = rng.standard_normal((20, 5))
        Y = rng.standard_normal((5, 2))
        m = _model("low_rank", Y, 1.0)
        d = model_distances(m, _catalog(X), np.array([4]), np.array([9]))
        assert d[0] == _alone(m, X[4], X[9])
        assert d[0] == pytest.approx(brute_full(Y @ Y.T, X[4], X[9]), rel=1e-9)

    def test_personalized_kind(self):
        rng = np.random.default_rng(15)
        X = rng.standard_normal((10, 6))
        Y = rng.standard_normal((6, 3))
        W = rng.uniform(0, 2, (2, 3))
        m = _model("personalized", Y, 1.0, user_ids=["u0", "u1"], user_weights=W)
        d = model_distances(m, _catalog(X), np.array([0, 0]), np.array([1, 1]),
                            user_idx=np.array([0, 1]))
        assert d[0] == _alone(m, X[0], X[1], 0)
        assert d[1] == _alone(m, X[0], X[1], 1)
        assert d[1] == pytest.approx(np.sum(((X[0] - X[1]) @ Y * W[1]) ** 2), rel=1e-12)

    def test_user_index_outside_the_user_table_raises(self):
        """A user index is checked as a row index is: a negative one does not
        read the last user's weights, and one past the table raises too."""
        m = _model("personalized", np.eye(2), 1.0, user_ids=["u0", "u1"],
                   user_weights=np.array([[1.0, 1.0], [5.0, 5.0]]))
        X = _catalog(np.array([[0.0, 0.0], [1.0, 1.0]]))
        assert model_distances(m, X, [0], [1], [1])[0] == 50.0
        for user in (-1, 2):
            with pytest.raises(IndexError):
                model_distances(m, X, [0], [1], [user])

    def test_personalized_without_users_falls_back_to_shared_metric(self):
        rng = np.random.default_rng(16)
        Y = rng.standard_normal((4, 2))
        m = _model("personalized", Y, 1.0,
                   user_ids=["u0"], user_weights=rng.uniform(0, 2, (1, 2)))
        X = rng.standard_normal((5, 4))
        d = model_distances(m, _catalog(X), np.array([0]), np.array([1]))
        assert d[0] == _alone(_model("low_rank", Y), X[0], X[1])

    @pytest.mark.parametrize("kind, with_users", [("low_rank", False),
                                                  ("weighted_nn", False),
                                                  ("personalized", False),
                                                  ("personalized", True)])
    def test_reads_only_the_referenced_rows(self, kind, with_users, monkeypatch):
        """Rows no pair references are never read: they hold 1e300, whose
        distances would overflow into a DataError. The projecting kinds
        project each referenced row once per catalog, not the whole matrix,
        and a repeated call projects nothing."""
        rng = np.random.default_rng(17)
        X = rng.standard_normal((40, 6))
        if kind == "weighted_nn":
            m = _model(kind, rng.uniform(0, 1, 6), 1.0)
        else:
            extra = ({"user_ids": ["u0", "u1"], "user_weights": rng.uniform(0, 2, (2, 3))}
                     if kind == "personalized" else {})
            m = _model(kind, rng.standard_normal((6, 3)), 1.0, **extra)
        i = np.array([3, 7, 7, 12, 3, 39])
        j = np.array([12, 20, 3, 3, 25, 0])
        users = np.array([0, 1, 1, 0, 1, 0]) if with_users else None
        touched = np.union1d(i, j)
        dirty = np.full_like(X, 1e300)
        dirty[touched] = X[touched]
        projected = []

        def counting_project_rows(X, Y, rows=None, norm="none"):
            projected.append(len(rows))
            return project_rows(X, Y, rows, norm)

        monkeypatch.setattr("stylemetric.metric.project_rows", counting_project_rows)
        want = model_distances(m, _catalog(X), i, j, users)
        catalog = _catalog(dirty)
        got = model_distances(m, catalog, i, j, users)
        assert np.array_equal(got, want)
        assert np.array_equal(model_distances(m, catalog, i, j, users), want)
        assert projected == ([] if kind == "weighted_nn" else [len(touched)] * 2)

    def test_pairs_over_every_row_give_each_pair_its_distance_alone(self):
        """Pairs that touch every row get the bits each pair gets alone, and
        pairs that point before or past X raise rather than wrap."""
        rng = np.random.default_rng(18)
        X = rng.standard_normal((5, 4))
        m = _model("low_rank", rng.standard_normal((4, 3)), 1.0)
        i, j = np.array([4, 0, 2]), np.array([1, 3, 4])
        d = model_distances(m, _catalog(X), i, j)
        assert [float(v) for v in d] == [_alone(m, X[a], X[b]) for a, b in zip(i, j)]
        with pytest.raises(IndexError):
            model_distances(m, _catalog(X), np.array([0, 1, 2, 3]), np.array([1, 2, 3, 5]))
        with pytest.raises(IndexError):
            model_distances(m, _catalog(X), np.array([-1]), np.array([0]))
