"""Seeded workload inputs, written in the formats the program documents.

The data is made with numpy alone; the only program function used here is
``stylemetric.catalog.save_model``, so model files are the ones the program
itself writes. The same seed always gives byte-identical files.
"""

import struct

import numpy as np

DRAWS_PER_PAIR = 4  # candidate pairs drawn per pair kept of each label


def ids(prefix, n):
    width = len(str(n - 1))
    return [f"{prefix}{k:0{width}d}" for k in range(n)]


def write_text_features(path, items, X):
    """``#features <N> <F>`` then ``<id>\\t<v1>..<vF>`` with repr() values."""
    with open(path, "w", encoding="utf-8") as f:
        f.write(f"#features {X.shape[0]} {X.shape[1]}\n")
        for item, row in zip(items, X.tolist()):
            f.write(item + "\t" + "\t".join(map(repr, row)) + "\n")


def write_binary_features(path, items, X):
    """SMF1 mirror: magic, u64 N and F, u32-prefixed ids, row-major f64."""
    with open(path, "wb") as f:
        f.write(b"SMF1")
        f.write(struct.pack("<QQ", X.shape[0], X.shape[1]))
        for item in items:
            raw = item.encode("utf-8")
            f.write(struct.pack("<I", len(raw)))
            f.write(raw)
        f.write(np.ascontiguousarray(X, dtype="<f8").tobytes())


def write_pairs(path, partition, items, users, pos, pos_users, neg, neg_users):
    """``#partition <tag>`` then ``<i>\\t<j>\\t<label>\\t<user>`` per pair."""
    with open(path, "w", encoding="utf-8") as f:
        f.write(f"#partition {partition}\n")
        for label, pairs, owners in (("related", pos, pos_users),
                                     ("unrelated", neg, neg_users)):
            for (i, j), u in zip(pairs.tolist(), owners.tolist()):
                f.write(f"{items[i]}\t{items[j]}\t{label}\t{users[u]}\n")


def cross_feature_transform(n_features, rank):
    """Planted Y*: column k is (e_2k - e_2k+1) / sqrt(2)."""
    Y = np.zeros((n_features, rank))
    for k in range(rank):
        Y[2 * k, k] = 1.0 / np.sqrt(2.0)
        Y[2 * k + 1, k] = -1.0 / np.sqrt(2.0)
    return Y


def fit_inputs(out_dir, seed, n_items, n_features, rank, n_users,
               train_per_label, test_per_label, noise):
    """Binary features plus user-annotated train and test pair files.

    Pairs are labelled by a planted rank-``rank`` cross-feature metric seen
    through each user's mask: users alternate between two populations, each
    watching half of the style dimensions. The threshold is the median masked
    distance, so labels are balanced before a ``noise`` share is flipped.
    """
    rng = np.random.default_rng(np.random.SeedSequence([seed, 1]))
    X = rng.standard_normal((n_items, n_features))
    S = X @ cross_feature_transform(n_features, rank)
    masks = np.zeros((2, rank))
    masks[0, : rank // 2] = 1.0
    masks[1, rank // 2:] = 1.0

    per_label = train_per_label + test_per_label
    draws = DRAWS_PER_PAIR * per_label
    a = rng.integers(0, n_items, size=draws)
    b = rng.integers(0, n_items, size=draws)
    lo, hi = np.minimum(a, b), np.maximum(a, b)
    keys = lo * np.int64(n_items) + hi
    _, first = np.unique(keys, return_index=True)
    keep = np.sort(first[lo[first] != hi[first]])
    lo, hi = lo[keep], hi[keep]
    owners = rng.integers(0, n_users, size=len(lo))
    v = (S[lo] - S[hi]) * masks[owners % 2]
    d = np.einsum("ij,ij->i", v, v)
    related = d < np.median(d)
    related ^= rng.random(len(d)) < noise

    pos = np.flatnonzero(related)[:per_label]
    neg = np.flatnonzero(~related)[:per_label]
    if len(pos) < per_label or len(neg) < per_label:
        raise ValueError("too few candidate pairs for the requested pair counts")
    pairs = np.stack([lo, hi], axis=1)
    items, users = ids("i", n_items), ids("u", n_users)
    write_binary_features(out_dir / "features.bin", items, X)
    for name, part in (("train", slice(0, train_per_label)),
                       ("test", slice(train_per_label, per_label))):
        write_pairs(out_dir / f"{name}.pairs", name, items, users,
                    pairs[pos[part]], owners[pos[part]],
                    pairs[neg[part]], owners[neg[part]])


def catalog_inputs(out_dir, seed, n_items, n_features, rank):
    """Text features and a dense rank-``rank`` low_rank model.bin.

    The threshold is the median distance over 1,000 random pairs, so about
    half of all pairs read as related. Returns (ids, X, Y, threshold) for
    reference answers computed without the program.
    """
    from stylemetric.catalog import MetricModel, save_model

    rng = np.random.default_rng(np.random.SeedSequence([seed, 2]))
    X = rng.standard_normal((n_items, n_features))
    Y = rng.standard_normal((n_features, rank)) / np.sqrt(n_features)
    a = rng.integers(0, n_items, size=1000)
    b = rng.integers(0, n_items, size=1000)
    v = (X[a] - X[b]) @ Y
    threshold = float(np.median(np.einsum("ij,ij->i", v, v)))
    items = ids("i", n_items)
    write_text_features(out_dir / "features.tsv", items, X)
    save_model(MetricModel("low_rank", Y, threshold, metadata={"feature_norm": "none"}),
               out_dir / "model.bin")
    return items, X, Y, threshold
