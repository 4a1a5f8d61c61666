"""Balanced labeled datasets: negative sampling, splits, per-user datasets.

All functions here work in index space; callers map item id strings to dense
indices through a FeatureMatrix (see graph_to_pairs). Pairs are canonical
(i < j) int64 arrays of shape (m, 2). After sampling, every stage passes one
LabeledPairSet along: a table of pairs, labels and optional users that split,
the pair files and training read directly.

Pair files are tab-separated with item id strings, one pair per line
(``<i>\\t<j>\\t<label>[\\t<user>]``) under a ``#partition <tag>`` header line.
They are read in chunks of lines straight into int columns and written a
fixed number of rows at a time, so neither holds a Python object per pair.
"""

from itertools import repeat

import numpy as np

from .catalog import (DataError, FeatureMatrix, MetricModel, RelationGraph, UserTripleSet,
                      codes_of, read_chunks, sorted_ids, write_table)

PARTITIONS = ("train", "validation", "test", "all")
_LABELS = ("unrelated", "related")  # indexed by the label bool
_LABEL_CODES = {label: code for code, label in enumerate(_LABELS)}
TRAIN_POSITIVE_CAP = 2_000_000
# The per-user dataset: users need this many distinct purchased items, and
# each keeps at most this many co-purchases (and as many negatives).
MIN_PURCHASES = 20
PAIRS_PER_USER = 50

# Draws per step of sample_negatives' pass over a batch. It bounds the
# pass's temporaries and never changes a result.
_NEGATIVE_STEP = 1 << 13

_VAL_FRACTION = 0.10
_TEST_FRACTION = 0.10


class LabeledPairSet:
    """Balanced related/unrelated index pairs, optionally user-annotated.

    One table of m rows: pairs is (m, 2) int64 with i < j per row, labels is
    (m,) bool (True for related), and users, when present, holds per-row
    indices into user_ids. Half of the rows are related, and no pair carries
    both labels. Rows are stored related first, each half in the order given,
    so that the pair files and every training pass see one fixed order.
    Rows given related first, as every caller in the package gives them, are
    kept as they are, without a copy: the set may then share the caller's
    arrays, which nothing writes into.
    """

    def __init__(self, item_ids, pairs, labels, partition, user_ids=None, users=None):
        self.item_ids = list(item_ids)
        self.pairs = np.asarray(pairs, dtype=np.int64).reshape(-1, 2)
        self.labels = np.asarray(labels, dtype=bool).reshape(-1)
        self.partition = partition
        self.user_ids = None if user_ids is None else list(user_ids)
        self.users = None if users is None else np.asarray(users, dtype=np.int64).reshape(-1)
        self._validate()
        if not self._related_first():
            order = np.argsort(~self.labels, kind="stable")
            self.pairs, self.labels = self.pairs[order], self.labels[order]
            if self.users is not None:
                self.users = self.users[order]

    def _related_first(self) -> bool:
        # The set is balanced, so an all-related first half means related first.
        return bool(self.labels[: len(self.labels) // 2].all())

    def _validate(self):
        if self.partition not in PARTITIONS:
            raise DataError(f"unknown partition tag: {self.partition!r}")
        m = len(self.pairs)
        if len(self.labels) != m:
            raise DataError(f"{m} pairs but {len(self.labels)} labels")
        related = int(np.count_nonzero(self.labels))
        if 2 * related != m:
            raise DataError(f"unbalanced pair set: {related} related vs "
                            f"{m - related} unrelated")
        n = len(self.item_ids)
        if m and (self.pairs.min() < 0 or self.pairs.max() >= n):
            raise DataError("pair index out of range")
        if np.any(self.pairs[:, 0] >= self.pairs[:, 1]):
            raise DataError("pairs must be canonical (i < j, no self-pairs)")
        half = m // 2
        if half:  # each unrelated key looked up among the sorted related keys
            if self._related_first():
                pos, neg = self.pairs[:half], self.pairs[half:]
            else:
                pos, neg = self.pairs[self.labels], self.pairs[~self.labels]
            pos_keys, neg_keys = np.sort(_encode(pos, n)), _encode(neg, n)
            del pos, neg
            found = pos_keys[np.minimum(np.searchsorted(pos_keys, neg_keys), half - 1)]
            if np.any(found == neg_keys):
                raise DataError("a pair appears with both labels")
        if (self.user_ids is None) != (self.users is None):
            raise DataError("user annotations must be all present or all absent")
        if self.users is not None:
            if len(self.users) != m:
                raise DataError("user annotation length mismatch")
            if m and (self.users.min() < 0 or self.users.max() >= len(self.user_ids)):
                raise DataError("user index out of range")

    @property
    def n_pairs(self) -> int:
        return len(self.pairs)


def _pair_arrays(pairs, features: FeatureMatrix):
    """(i_idx, j_idx, labels, users or None) from a LabeledPairSet or a plain
    (i, j, labels[, users]) tuple of row indices into features; a pair set's
    columns are copied once into contiguous arrays."""
    if isinstance(pairs, LabeledPairSet):
        if pairs.item_ids != features.item_ids:
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
    n = features.n_items
    if len(i_idx) and (min(i_idx.min(), j_idx.min()) < 0
                       or max(i_idx.max(), j_idx.max()) >= n):
        raise DataError(f"pair index out of range for {n} items")
    return i_idx, j_idx, labels, users


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


def _encode(pairs: np.ndarray, n_items: int) -> np.ndarray:
    return pairs[:, 0] * np.int64(n_items) + pairs[:, 1]


def graph_to_pairs(graph: RelationGraph, features: FeatureMatrix) -> np.ndarray:
    """Canonical (m, 2) index array of a graph's distinct endpoint pairs
    (classes collapsed), sorted by id pair."""
    n = len(graph.item_ids)
    ranks = graph.ranks
    keys = np.unique(ranks[graph.pairs[:, 0]] * np.int64(n) + ranks[graph.pairs[:, 1]])
    by_rank = features.indices_of(graph.item_ids)[np.argsort(ranks)]
    a, b = by_rank[keys // n], by_rank[keys % n]
    out = np.empty((len(keys), 2), dtype=np.int64)
    np.minimum(a, b, out=out[:, 0])
    np.maximum(a, b, out=out[:, 1])
    return out


def sample_negatives(related: np.ndarray, n_items: int, seed: int) -> np.ndarray:
    """Uniform rejection sample of |R| unordered non-edges.

    Returns an (m, 2) int64 array disjoint from the related pairs, without
    self-pairs or duplicates. Errors out when positives cover at least half
    of all unordered pairs, where rejection sampling would stall.

    Each batch draws twice the pairs still needed (at least 4,096), and its
    draws are taken in order, _NEGATIVE_STEP at a time: a pair is kept the
    first time it is drawn, unless it is related or already kept. That is
    one-at-a-time rejection, so the step never changes a result; it bounds
    the temporaries to the batch's draws and a step's worth.
    """
    related = np.asarray(related, dtype=np.int64).reshape(-1, 2)
    m = len(related)
    if m == 0:
        raise DataError("cannot sample negatives for an empty graph")
    if n_items < 2:
        raise DataError("need at least 2 items to form pairs")
    universe = n_items * (n_items - 1) // 2
    if 2 * m >= universe:
        raise DataError(
            f"{m} positive pairs over {universe} possible pairs: graph too dense "
            "for rejection sampling of an equal-size negative set"
        )
    rng = np.random.default_rng(seed)
    # excluded[:m + got] holds the related keys and the got keys kept so
    # far, sorted; keys holds the kept keys in draw order.
    related_keys = np.unique(_encode(related, n_items))
    if len(related_keys) != m:
        raise DataError("duplicate positive pairs")
    excluded = np.empty(2 * m, dtype=np.int64)
    excluded[:m] = related_keys
    del related_keys
    keys = np.empty(m, dtype=np.int64)
    got = 0
    while got < m:
        batch = max(4096, 2 * (m - got))
        a = rng.integers(0, n_items, size=batch)
        b = rng.integers(0, n_items, size=batch)
        for lo in range(0, batch, _NEGATIVE_STEP):
            fresh = _fresh_keys(a[lo:lo + _NEGATIVE_STEP], b[lo:lo + _NEGATIVE_STEP],
                                n_items, excluded[:m + got])[:m - got]
            keys[got:got + len(fresh)] = fresh
            excluded[m + got:m + got + len(fresh)] = fresh
            got += len(fresh)
            if got == m:
                break
            excluded[:m + got].sort(kind="stable")  # merges two sorted runs in place
    del a, b, excluded
    out = np.empty((m, 2), dtype=np.int64)
    np.floor_divide(keys, n_items, out=out[:, 0])
    np.remainder(keys, n_items, out=out[:, 1])
    return out


def _fresh_keys(a, b, n_items, excluded) -> np.ndarray:
    """Keys of the drawn pairs (a[k], b[k]) that are not self-pairs, not in
    the sorted excluded and not drawn earlier in a, in draw order."""
    lo, hi = np.minimum(a, b), np.maximum(a, b)
    keys = (lo * np.int64(n_items) + hi)[lo != hi]
    del lo, hi
    unique, first = np.unique(keys, return_index=True)
    at = np.minimum(np.searchsorted(excluded, unique), len(excluded) - 1)
    return keys[np.sort(first[excluded[at] != unique])]


def split(pairs: LabeledPairSet, seed) -> dict:
    """Shuffle and split a balanced pair set 80/10/10 by count.

    Related and unrelated rows are shuffled by one permutation each. With m
    related rows, validation and test get floor(0.1 m) of each label; the
    remainder goes to train, with train positives capped at 2,000,000
    (negatives trimmed to match). Returns {"train": ..., "validation": ...,
    "test": ...} LabeledPairSets over the same item and user tables.
    """
    related = np.flatnonzero(pairs.labels)
    unrelated = np.flatnonzero(~pairs.labels)
    m = len(related)
    if m < 10:
        raise DataError(f"need at least 10 positive pairs to split, got {m}")
    rng = np.random.default_rng(seed)
    related = related[rng.permutation(m)]
    unrelated = unrelated[rng.permutation(m)]
    n_val = int(m * _VAL_FRACTION)
    n_test = int(m * _TEST_FRACTION)
    n_train = min(m - n_val - n_test, TRAIN_POSITIVE_CAP)
    bounds = {
        "train": (0, n_train),
        "validation": (m - n_val - n_test, m - n_test),
        "test": (m - n_test, m),
    }
    out = {}
    for tag, (lo, hi) in bounds.items():
        rows = np.concatenate([related[lo:hi], unrelated[lo:hi]])
        out[tag] = LabeledPairSet(
            pairs.item_ids, pairs.pairs[rows], pairs.labels[rows], tag, pairs.user_ids,
            None if pairs.users is None else pairs.users[rows],
        )
    return out


def build_user_dataset(triples: UserTripleSet, features: FeatureMatrix,
                       seed: int) -> LabeledPairSet:
    """Per-user co-purchase dataset: PAIRS_PER_USER positives and as many
    negatives per user.

    Users with fewer than MIN_PURCHASES distinct purchased items are skipped.
    Positive pairs are the user's observed co-purchases (all of them when
    fewer than PAIRS_PER_USER exist); negatives are drawn from the full item
    universe, excluding every pair co-purchased by anyone. Pairs already
    emitted for an earlier user are not repeated, so no pair can land in two
    split partitions later. Each user draws from an independent generator
    derived from (seed, user position), making results order-stable. Users
    are taken in sorted id order, and a user's co-purchases in sorted id
    pair order.
    """
    n = features.n_items
    ends = features.indices_of(triples.item_ids)[triples.pairs]
    lo, hi = ends.min(axis=1), ends.max(axis=1)
    keys = lo * np.int64(n) + hi
    all_pos_keys = set(keys.tolist())
    user_ranks = triples.user_ranks[triples.users]
    n_users, n_ids = len(triples.user_ids), np.int64(len(triples.item_ids))
    purchases = np.unique(np.concatenate([user_ranks * n_ids + triples.pairs[:, 0],
                                          user_ranks * n_ids + triples.pairs[:, 1]]))
    qualified = np.flatnonzero(np.bincount(purchases // n_ids, minlength=n_users)
                               >= MIN_PURCHASES)
    if not len(qualified):
        raise DataError(f"no user has at least {MIN_PURCHASES} distinct purchased items")
    ranks = triples.ranks
    order = np.lexsort((ranks[triples.pairs[:, 1]], ranks[triples.pairs[:, 0]], user_ranks))
    bounds = np.searchsorted(user_ranks[order], [qualified, qualified + 1])

    seen_pos: set = set()
    seen_neg: set = set()
    # Each user's positives and negatives, kept apart so that all positives
    # come first, as LabeledPairSet stores them.
    pos_rows, neg_rows, pos_users, neg_users = [], [], [], []
    for uidx, (start, stop) in enumerate(bounds.T.tolist()):
        rng = np.random.default_rng(np.random.SeedSequence([seed, uidx]))
        mine = order[start:stop]
        cand = mine[[key not in seen_pos for key in keys[mine].tolist()]]
        if len(cand) > PAIRS_PER_USER:
            cand = cand[rng.choice(len(cand), size=PAIRS_PER_USER, replace=False)]
        seen_pos.update(keys[cand].tolist())
        need = len(cand)
        negatives = []
        while len(negatives) < need:
            a = int(rng.integers(0, n))
            b = int(rng.integers(0, n))
            if a == b:
                continue
            pair = (a, b) if a < b else (b, a)
            key = pair[0] * n + pair[1]
            if key in all_pos_keys or key in seen_neg:
                continue
            seen_neg.add(key)
            negatives.append(pair)
        pos_rows.append(np.stack([lo[cand], hi[cand]], axis=1))
        neg_rows.append(np.array(negatives, dtype=np.int64).reshape(-1, 2))
        pos_users.append(np.full(need, uidx))
        neg_users.append(np.full(need, uidx))
    user_at_rank = np.argsort(triples.user_ranks)
    n_pos = sum(map(len, pos_rows))
    return LabeledPairSet(features.item_ids, np.concatenate(pos_rows + neg_rows),
                          np.repeat([True, False], n_pos), "all",
                          [triples.user_ids[u] for u in user_at_rank[qualified]],
                          np.concatenate(pos_users + neg_users))


def save_pairs(pairs: LabeledPairSet, path):
    """The pair file that load_pairs(path, ...) reads back, written in
    chunks of rows."""
    columns = [(pairs.item_ids, pairs.pairs[:, 0]), (pairs.item_ids, pairs.pairs[:, 1]),
               (_LABELS, pairs.labels)]
    if pairs.user_ids is not None:
        columns.append((pairs.user_ids, pairs.users))
    write_table(path, columns, header=f"#partition {pairs.partition}")


def load_pairs(path, features: FeatureMatrix) -> LabeledPairSet:
    """Read a pair file back into index space against a feature matrix.

    The file is parsed in chunks of lines into int columns. Rows come back
    related first, each half in file order; user ids are sorted and
    numbered in that order.
    """
    chunks = read_chunks(path, (3, 4), header="#partition <tag>")
    (partition,) = next(chunks)
    pair_parts, label_parts, user_parts = [np.empty((0, 2), np.int64)], [np.empty(0, bool)], []
    users: dict = {}  # user id -> code, in first-seen order
    with_users = None  # whether the first record has a user column
    mixed = None  # 'path:line' of the first record that disagrees with it
    for chunk in chunks:
        widths = chunk.widths[:chunk.n]
        if with_users is None and len(widths):
            with_users = bool(widths[0] == 4)
        a, b, label, *user = chunk.columns(4 if with_users and (widths == 4).all() else 3)
        codes = np.fromiter(map(_LABEL_CODES.get, label, repeat(-1)), np.int8, len(label))
        chunk.check(codes < 0, lambda k: f"{chunk.where(k)}: unknown label {label[k]!r}")
        ia, ib = features.find(a), features.find(b)
        chunk.check(ia < 0, lambda k: f"unknown item id: {a[k]!r}")
        chunk.check(ib < 0, lambda k: f"unknown item id: {b[k]!r}")
        chunk.check(ia == ib, lambda k: f"{chunk.where(k)}: self-pair")
        chunk.raise_error()
        off = np.flatnonzero(widths != (4 if with_users else 3))
        if mixed is None and len(off):
            mixed = chunk.where(off[0])
        pairs = np.empty((len(widths), 2), dtype=np.int64)
        np.minimum(ia, ib, out=pairs[:, 0])
        np.maximum(ia, ib, out=pairs[:, 1])
        pair_parts.append(pairs)
        label_parts.append(codes.astype(bool))
        user_parts.append(codes_of(users, user[0] if user else ()))
    if mixed is not None:
        raise DataError(f"{mixed}: user column present on some lines but not all")
    # One column at a time, each dropping its parts, so the parts and the
    # whole table are never all held at once.
    pairs = np.concatenate(pair_parts)
    del pair_parts
    labels = np.concatenate(label_parts)
    del label_parts
    user_ids = user_col = None
    if with_users:
        user_ids, user_ranks = sorted_ids(users)
        user_col = user_ranks[np.concatenate(user_parts)]
    del user_parts
    return LabeledPairSet(features.item_ids, pairs, labels, partition, user_ids, user_col)
