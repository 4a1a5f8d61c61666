"""Balanced labeled datasets: negative sampling, splits, per-user datasets.

All functions here work in index space; callers map item id strings to dense
indices through a FeatureMatrix (see graph_to_pairs). Pairs are canonical
(i < j) int64 arrays of shape (m, 2). After sampling, every stage passes one
LabeledPairSet along: a table of pairs, labels and optional users that split,
the pair files and training read directly.

Pair files are tab-separated with item id strings, one pair per line
(``<i>\\t<j>\\t<label>[\\t<user>]``) under a ``#partition <tag>`` header line.
"""

import numpy as np

from .catalog import (DataError, FeatureMatrix, RelationGraph, UserTripleSet,
                      atomic_writer, read_records)

PARTITIONS = ("train", "validation", "test", "all")
_LABELS = ("unrelated", "related")  # indexed by the label bool
TRAIN_POSITIVE_CAP = 2_000_000
# The per-user dataset: users need this many distinct purchased items, and
# each keeps at most this many co-purchases (and as many negatives).
MIN_PURCHASES = 20
PAIRS_PER_USER = 50

_VAL_FRACTION = 0.10
_TEST_FRACTION = 0.10


class LabeledPairSet:
    """Balanced related/unrelated index pairs, optionally user-annotated.

    One table of m rows: pairs is (m, 2) int64 with i < j per row, labels is
    (m,) bool (True for related), and users, when present, holds per-row
    indices into user_ids. Half of the rows are related, and no pair carries
    both labels. Rows are stored related first, each half in the order given,
    so that the pair files and every training pass see one fixed order.
    """

    def __init__(self, item_ids, pairs, labels, partition, user_ids=None, users=None):
        self.item_ids = list(item_ids)
        self.pairs = np.asarray(pairs, dtype=np.int64).reshape(-1, 2)
        self.labels = np.asarray(labels, dtype=bool).reshape(-1)
        self.partition = partition
        self.user_ids = None if user_ids is None else list(user_ids)
        self.users = None if users is None else np.asarray(users, dtype=np.int64).reshape(-1)
        self._validate()
        order = np.argsort(~self.labels, kind="stable")
        self.pairs, self.labels = self.pairs[order], self.labels[order]
        if self.users is not None:
            self.users = self.users[order]

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
        keys = _encode(self.pairs, n)
        if np.intersect1d(keys[self.labels], keys[~self.labels]).size:
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


def _encode(pairs: np.ndarray, n_items: int) -> np.ndarray:
    return pairs[:, 0] * np.int64(n_items) + pairs[:, 1]


def graph_to_pairs(graph: RelationGraph, features: FeatureMatrix) -> np.ndarray:
    """Canonical (m, 2) index array for a graph's edges, sorted by id pair."""
    pairs = sorted(graph.pairs())
    out = np.empty((len(pairs), 2), dtype=np.int64)
    for row, (a, b) in enumerate(pairs):
        ia, ib = features.index_of(a), features.index_of(b)
        out[row] = (ia, ib) if ia < ib else (ib, ia)
    return out


def sample_negatives(related: np.ndarray, n_items: int, seed: int) -> np.ndarray:
    """Uniform rejection sample of |R| unordered non-edges.

    Returns an (m, 2) int64 array disjoint from the related pairs, without
    self-pairs or duplicates. Errors out when positives cover at least half
    of all unordered pairs, where rejection sampling would stall.
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
    excluded = np.unique(_encode(related, n_items))
    if len(excluded) != m:
        raise DataError("duplicate positive pairs")
    taken = []
    need = m
    while need > 0:
        batch = max(4096, 2 * need)
        a = rng.integers(0, n_items, size=batch)
        b = rng.integers(0, n_items, size=batch)
        lo, hi = np.minimum(a, b), np.maximum(a, b)
        keep = lo != hi
        keys = lo[keep] * np.int64(n_items) + hi[keep]
        # Dedup within the batch keeping first occurrence in draw order, so the
        # result matches one-at-a-time rejection exactly.
        _, first = np.unique(keys, return_index=True)
        keys = keys[np.sort(first)]
        keys = keys[~np.isin(keys, excluded)]
        if len(keys) > need:
            keys = keys[:need]
        if len(keys):
            taken.append(keys)
            excluded = np.union1d(excluded, keys)
            need -= len(keys)
    keys = np.concatenate(taken)
    out = np.empty((m, 2), dtype=np.int64)
    out[:, 0] = keys // n_items
    out[:, 1] = keys % n_items
    return out


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
    derived from (seed, user position), making results order-stable.
    """
    n = features.n_items
    by_user: dict = {}
    for a, b, u in triples.triples:
        by_user.setdefault(u, []).append((a, b))
    all_pos_keys = set()
    for a, b, _ in triples.triples:
        ia, ib = features.index_of(a), features.index_of(b)
        lo, hi = (ia, ib) if ia < ib else (ib, ia)
        all_pos_keys.add(lo * n + hi)
    qualified = []
    for u in sorted(by_user):
        items = set()
        for a, b in by_user[u]:
            items.add(a)
            items.add(b)
        if len(items) >= MIN_PURCHASES:
            qualified.append(u)
    if not qualified:
        raise DataError(f"no user has at least {MIN_PURCHASES} distinct purchased items")

    seen_pos: set = set()
    seen_neg: set = set()
    rows, labels, users = [], [], []
    for uidx, u in enumerate(qualified):
        rng = np.random.default_rng(np.random.SeedSequence([seed, uidx]))
        cand = []
        for a, b in sorted(by_user[u]):
            ia, ib = features.index_of(a), features.index_of(b)
            lo, hi = (ia, ib) if ia < ib else (ib, ia)
            key = lo * n + hi
            if key not in seen_pos:
                cand.append((lo, hi, key))
        if len(cand) > PAIRS_PER_USER:
            picks = rng.choice(len(cand), size=PAIRS_PER_USER, replace=False)
            cand = [cand[p] for p in picks]
        for lo, hi, key in cand:
            seen_pos.add(key)
            rows.append((lo, hi))
        need = len(cand)
        labels += [True] * need + [False] * need
        users += [uidx] * (2 * need)
        while need > 0:
            a = int(rng.integers(0, n))
            b = int(rng.integers(0, n))
            if a == b:
                continue
            lo, hi = (a, b) if a < b else (b, a)
            key = lo * n + hi
            if key in all_pos_keys or key in seen_neg:
                continue
            seen_neg.add(key)
            rows.append((lo, hi))
            need -= 1
    return LabeledPairSet(features.item_ids, rows, labels, "all",
                          [str(u) for u in qualified], users)


def save_pairs(pairs: LabeledPairSet, path):
    ids = pairs.item_ids
    if pairs.user_ids is None:
        tails = [""] * pairs.n_pairs
    else:
        tails = [f"\t{pairs.user_ids[u]}" for u in pairs.users.tolist()]
    with atomic_writer(path) as f:
        f.write(f"#partition {pairs.partition}\n")
        for (i, j), related, tail in zip(pairs.pairs.tolist(), pairs.labels.tolist(), tails):
            f.write(f"{ids[i]}\t{ids[j]}\t{_LABELS[related]}{tail}\n")


def load_pairs(path, features: FeatureMatrix) -> LabeledPairSet:
    """Read a pair file back into index space against a feature matrix.

    Rows come back related first, each half in file order.
    """
    records = read_records(path, (3, 4), header="#partition <tag>")
    _, (partition,) = next(records)
    rows, labels, users = [], [], []
    for lineno, fields in records:
        if fields[2] not in _LABELS:
            raise DataError(f"{path}:{lineno}: unknown label {fields[2]!r}")
        ia, ib = features.index_of(fields[0]), features.index_of(fields[1])
        if ia == ib:
            raise DataError(f"{path}:{lineno}: self-pair")
        rows.append((ia, ib) if ia < ib else (ib, ia))
        labels.append(fields[2] == "related")
        users.append(fields[3] if len(fields) == 4 else None)
    user_ids = None
    if any(u is not None for u in users):
        if None in users:
            raise DataError(f"{path}: user column present on some lines but not all")
        user_ids = sorted(set(users))
        index = {u: k for k, u in enumerate(user_ids)}
        users = [index[u] for u in users]
    return LabeledPairSet(features.item_ids, rows, labels, partition, user_ids,
                          None if user_ids is None else users)
