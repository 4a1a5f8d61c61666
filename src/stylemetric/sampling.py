"""Balanced labeled datasets: negative sampling, splits, per-user datasets.

All functions here work in index space; callers map item id strings to dense
indices through a FeatureMatrix (see graph_to_pairs). Pairs are canonical
(i < j) int64 arrays of shape (m, 2).

Pair files are tab-separated with item id strings, one pair per line
(``<i>\\t<j>\\t<label>[\\t<user>]``) under a ``#partition <tag>`` header line.
"""

import numpy as np

from .catalog import (DataError, FeatureMatrix, RelationGraph, UserTripleSet,
                      atomic_writer, read_records)

PARTITIONS = ("train", "validation", "test", "all")
TRAIN_POSITIVE_CAP = 2_000_000

_VAL_FRACTION = 0.10
_TEST_FRACTION = 0.10


class LabeledPairSet:
    """Balanced related/unrelated index pairs, optionally user-annotated.

    pos_pairs and neg_pairs are (m, 2) int64 arrays with i < j per row. When
    user annotations are present, pos_users/neg_users hold per-pair indices
    into user_ids. The two label sets are disjoint and equally sized.
    """

    def __init__(self, item_ids, pos_pairs, neg_pairs, partition,
                 user_ids=None, pos_users=None, neg_users=None):
        self.item_ids = list(item_ids)
        self.pos_pairs = np.ascontiguousarray(pos_pairs, dtype=np.int64).reshape(-1, 2)
        self.neg_pairs = np.ascontiguousarray(neg_pairs, dtype=np.int64).reshape(-1, 2)
        self.partition = partition
        self.user_ids = None if user_ids is None else list(user_ids)
        self.pos_users = None if pos_users is None else np.ascontiguousarray(pos_users, dtype=np.int64)
        self.neg_users = None if neg_users is None else np.ascontiguousarray(neg_users, dtype=np.int64)
        self._validate()

    def _validate(self):
        if self.partition not in PARTITIONS:
            raise DataError(f"unknown partition tag: {self.partition!r}")
        if len(self.pos_pairs) != len(self.neg_pairs):
            raise DataError(
                f"unbalanced pair set: {len(self.pos_pairs)} related vs "
                f"{len(self.neg_pairs)} unrelated"
            )
        n = len(self.item_ids)
        for name, pairs in (("related", self.pos_pairs), ("unrelated", self.neg_pairs)):
            if len(pairs) == 0:
                continue
            if pairs.min() < 0 or pairs.max() >= n:
                raise DataError(f"{name} pair index out of range")
            if np.any(pairs[:, 0] >= pairs[:, 1]):
                raise DataError(f"{name} pairs must be canonical (i < j, no self-pairs)")
        pos_keys = self.pos_pairs[:, 0] * n + self.pos_pairs[:, 1]
        neg_keys = self.neg_pairs[:, 0] * n + self.neg_pairs[:, 1]
        if np.intersect1d(pos_keys, neg_keys).size:
            raise DataError("a pair appears with both labels")
        has_users = self.user_ids is not None
        if has_users != (self.pos_users is not None) or has_users != (self.neg_users is not None):
            raise DataError("user annotations must be all present or all absent")
        if has_users:
            if len(self.pos_users) != len(self.pos_pairs) or len(self.neg_users) != len(self.neg_pairs):
                raise DataError("user annotation length mismatch")
            u = len(self.user_ids)
            for users in (self.pos_users, self.neg_users):
                if len(users) and (users.min() < 0 or users.max() >= u):
                    raise DataError("user index out of range")

    @property
    def n_pairs(self) -> int:
        return len(self.pos_pairs) + len(self.neg_pairs)

    def arrays(self):
        """(i_idx, j_idx, labels, user_idx or None) over positives then negatives."""
        i_idx = np.concatenate([self.pos_pairs[:, 0], self.neg_pairs[:, 0]])
        j_idx = np.concatenate([self.pos_pairs[:, 1], self.neg_pairs[:, 1]])
        labels = np.concatenate([
            np.ones(len(self.pos_pairs), dtype=bool),
            np.zeros(len(self.neg_pairs), dtype=bool),
        ])
        users = None
        if self.user_ids is not None:
            users = np.concatenate([self.pos_users, self.neg_users])
        return i_idx, j_idx, labels, users


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


def sample_negatives(pos_pairs: np.ndarray, n_items: int, seed: int) -> np.ndarray:
    """Uniform rejection sample of |R| unordered non-edges.

    Returns an (m, 2) int64 array disjoint from pos_pairs, without self-pairs
    or duplicates. Errors out when positives cover at least half of all
    unordered pairs, where rejection sampling would stall.
    """
    pos_pairs = np.asarray(pos_pairs, dtype=np.int64).reshape(-1, 2)
    m = len(pos_pairs)
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
    excluded = np.unique(_encode(pos_pairs, n_items))
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


def split(pos_pairs, neg_pairs, seed, item_ids=None, user_ids=None,
          pos_users=None, neg_users=None) -> dict:
    """Shuffle and split balanced positives/negatives 80/10/10 by count.

    Validation and test sizes are floor(0.1 m); the remainder goes to train,
    with train positives capped at 2,000,000 (negatives trimmed to match).
    Returns {"train": ..., "validation": ..., "test": ...} LabeledPairSets.
    """
    pos_pairs = np.asarray(pos_pairs, dtype=np.int64).reshape(-1, 2)
    neg_pairs = np.asarray(neg_pairs, dtype=np.int64).reshape(-1, 2)
    m = len(pos_pairs)
    if len(neg_pairs) != m:
        raise DataError(f"positives ({m}) and negatives ({len(neg_pairs)}) must balance")
    if m < 10:
        raise DataError(f"need at least 10 positive pairs to split, got {m}")
    if item_ids is None:
        top = int(max(pos_pairs.max(), neg_pairs.max())) + 1
        item_ids = [str(i) for i in range(top)]
    rng = np.random.default_rng(seed)
    pos_order = rng.permutation(m)
    neg_order = rng.permutation(m)
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
        p_sel, n_sel = pos_order[lo:hi], neg_order[lo:hi]
        out[tag] = LabeledPairSet(
            item_ids, pos_pairs[p_sel], neg_pairs[n_sel], tag,
            user_ids,
            None if pos_users is None else np.asarray(pos_users, dtype=np.int64)[p_sel],
            None if neg_users is None else np.asarray(neg_users, dtype=np.int64)[n_sel],
        )
    return out


def build_user_dataset(triples: UserTripleSet, features: FeatureMatrix, seed: int,
                       min_purchases: int = 20, pairs_per_user: int = 50) -> LabeledPairSet:
    """Per-user co-purchase dataset: 50 positives and 50 negatives per user.

    Users with fewer than min_purchases distinct purchased items are skipped.
    Positive pairs are the user's observed co-purchases (all of them when
    fewer than pairs_per_user exist); negatives are drawn from the full item
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
        if len(items) >= min_purchases:
            qualified.append(u)
    if not qualified:
        raise DataError(f"no user has at least {min_purchases} distinct purchased items")

    seen_pos: set = set()
    seen_neg: set = set()
    pos_rows, pos_users = [], []
    neg_rows, neg_users = [], []
    for uidx, u in enumerate(qualified):
        rng = np.random.default_rng(np.random.SeedSequence([seed, uidx]))
        cand = []
        for a, b in sorted(by_user[u]):
            ia, ib = features.index_of(a), features.index_of(b)
            lo, hi = (ia, ib) if ia < ib else (ib, ia)
            key = lo * n + hi
            if key not in seen_pos:
                cand.append((lo, hi, key))
        if len(cand) > pairs_per_user:
            picks = rng.choice(len(cand), size=pairs_per_user, replace=False)
            cand = [cand[p] for p in picks]
        for lo, hi, key in cand:
            seen_pos.add(key)
            pos_rows.append((lo, hi))
            pos_users.append(uidx)
        need = len(cand)
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
            neg_rows.append((lo, hi))
            neg_users.append(uidx)
            need -= 1
    return LabeledPairSet(
        features.item_ids,
        np.array(pos_rows, dtype=np.int64).reshape(-1, 2),
        np.array(neg_rows, dtype=np.int64).reshape(-1, 2),
        "all",
        [str(u) for u in qualified],
        np.array(pos_users, dtype=np.int64),
        np.array(neg_users, dtype=np.int64),
    )


def save_pairs(pairs: LabeledPairSet, path):
    with atomic_writer(path) as f:
        f.write(f"#partition {pairs.partition}\n")
        for row in range(len(pairs.pos_pairs)):
            i, j = pairs.pos_pairs[row]
            line = f"{pairs.item_ids[i]}\t{pairs.item_ids[j]}\trelated"
            if pairs.user_ids is not None:
                line += f"\t{pairs.user_ids[pairs.pos_users[row]]}"
            f.write(line + "\n")
        for row in range(len(pairs.neg_pairs)):
            i, j = pairs.neg_pairs[row]
            line = f"{pairs.item_ids[i]}\t{pairs.item_ids[j]}\tunrelated"
            if pairs.user_ids is not None:
                line += f"\t{pairs.user_ids[pairs.neg_users[row]]}"
            f.write(line + "\n")


def load_pairs(path, features: FeatureMatrix) -> LabeledPairSet:
    """Read a pair file back into index space against a feature matrix."""
    records = read_records(path, (3, 4), header="#partition <tag>")
    _, (partition,) = next(records)
    rows = []  # (i, j, related, user or None)
    for lineno, fields in records:
        a, b, label = fields[0], fields[1], fields[2]
        if label not in ("related", "unrelated"):
            raise DataError(f"{path}:{lineno}: unknown label {label!r}")
        ia, ib = features.index_of(a), features.index_of(b)
        if ia == ib:
            raise DataError(f"{path}:{lineno}: self-pair")
        user = fields[3] if len(fields) == 4 else None
        rows.append((min(ia, ib), max(ia, ib), label == "related", user))
    has_users = any(r[3] is not None for r in rows)
    if has_users and not all(r[3] is not None for r in rows):
        raise DataError(f"{path}: user column present on some lines but not all")
    user_ids = sorted({r[3] for r in rows}) if has_users else None
    uindex = {u: k for k, u in enumerate(user_ids)} if has_users else None
    pos = [(i, j) for i, j, rel, _ in rows if rel]
    neg = [(i, j) for i, j, rel, _ in rows if not rel]
    pos_users = [uindex[u] for i, j, rel, u in rows if rel] if has_users else None
    neg_users = [uindex[u] for i, j, rel, u in rows if not rel] if has_users else None
    return LabeledPairSet(
        features.item_ids,
        np.array(pos, dtype=np.int64).reshape(-1, 2),
        np.array(neg, dtype=np.int64).reshape(-1, 2),
        partition,
        user_ids, pos_users, neg_users,
    )
