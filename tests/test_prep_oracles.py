"""The array tables and chunked text readers and writers of prep against the
set-based, line-by-line code they replaced, kept here as the oracle: the
same tables, the same bytes written, and the same DataError, message for
message, on any input, whatever the chunk sizes."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from stylemetric import catalog, sampling
from stylemetric.catalog import (RELATION_CLASSES, DataError, FeatureMatrix,
                                 RelationGraph, UserTripleSet, load_edges, load_triples,
                                 read_matrix, save_edges, save_triples)
from stylemetric.sampling import (LabeledPairSet, build_user_dataset, graph_to_pairs,
                                  load_pairs, sample_negatives)

# ---------------------------------------------------------------------------
# the oracle: the set-based and per-line code as it was


def _oracle_read_records(path, n_fields=None, header=None, comments=True):
    usage = header.split() if header else None
    counts = (n_fields,) if isinstance(n_fields, int) else n_fields
    lineno = 0
    with open(path, "rb") as f:
        for lineno, raw in enumerate(f, start=1):
            try:
                line = raw.decode("utf-8").rstrip("\r\n")
            except UnicodeDecodeError:
                raise DataError(f"{path}:{lineno}: not UTF-8 text") from None
            if lineno == 1 and usage:
                words = line.split()
                if len(words) != len(usage) or words[0] != usage[0]:
                    raise DataError(f"{path}:1: expected '{header}' header")
                yield 1, words[1:]
            elif line and not (comments and line[0] == "#"):
                fields = line.split("\t")
                if counts and len(fields) not in counts:
                    raise DataError(
                        f"{path}:{lineno}: expected {' or '.join(map(str, counts))} "
                        f"tab-separated fields, got {len(fields)}"
                    )
                yield lineno, fields
    if usage and lineno == 0:
        raise DataError(f"{path}:1: expected '{header}' header")


def _oracle_read_matrix(path, tag):
    records = _oracle_read_records(path, header=f"#{tag} <N> <F>", comments=False)
    _, header = next(records)
    try:
        n_rows, n_cols = (int(v) for v in header)
    except ValueError:
        raise DataError(f"{path}:1: malformed {tag} header") from None
    if n_rows < 0 or n_cols < 0:
        raise DataError(f"{path}:1: negative size in {tag} header")
    ids, seen, rows = [], set(), []
    for lineno, fields in records:
        item = fields[0]
        if item in seen:
            raise DataError(f"{path}:{lineno}: duplicate item id {item!r}")
        if len(fields) - 1 != n_cols:
            raise DataError(f"{path}:{lineno}: expected {n_cols} values, got {len(fields) - 1}")
        try:
            row = np.array([float(v) for v in fields[1:]], dtype=np.float64)
        except ValueError:
            raise DataError(f"{path}:{lineno}: unparseable value") from None
        if not np.all(np.isfinite(row)):
            raise DataError(f"{path}:{lineno}: non-finite value")
        seen.add(item)
        ids.append(item)
        rows.append(row)
    if len(ids) != n_rows:
        raise DataError(f"{path}: header says {n_rows} items but file has {len(ids)}")
    return ids, np.vstack(rows) if rows else np.zeros((0, n_cols))


def _oracle_load_edges(path, class_filter=None, features=None):
    """(set of (a, b, class), dropped self-edges, duplicates, reversed)."""
    if class_filter is not None:
        class_filter = set(class_filter)
        unknown = class_filter - set(RELATION_CLASSES)
        if unknown:
            raise DataError(f"unknown relation class in filter: {sorted(unknown)}")
    edges, dropped_self, duplicates, reversed_count = set(), 0, 0, 0
    for lineno, (src, dst, cls) in _oracle_read_records(path, 3):
        if cls not in RELATION_CLASSES:
            raise DataError(f"{path}:{lineno}: unknown relation class {cls!r}")
        if class_filter is not None and cls not in class_filter:
            continue
        if src == dst:
            dropped_self += 1
            continue
        if features is not None:
            if src not in features:
                raise DataError(f"{path}:{lineno}: endpoint {src!r} missing from features")
            if dst not in features:
                raise DataError(f"{path}:{lineno}: endpoint {dst!r} missing from features")
        if src > dst:
            reversed_count += 1
        edge = (min(src, dst), max(src, dst), cls)
        if edge in edges:
            duplicates += 1
        else:
            edges.add(edge)
    return edges, dropped_self, duplicates, reversed_count


def _oracle_load_triples(path, features=None):
    triples = set()
    for lineno, (a, b, user) in _oracle_read_records(path, 3):
        if a == b:
            raise DataError(f"{path}:{lineno}: self-pair in user triple")
        if features is not None and (a not in features or b not in features):
            raise DataError(f"{path}:{lineno}: triple endpoint missing from features")
        triples.add((min(a, b), max(a, b), user))
    return triples


def _oracle_save_rows(rows):
    """The bytes save_edges and save_triples wrote: sorted tuples, one a line."""
    return "".join(f"{a}\t{b}\t{c}\n" for a, b, c in sorted(rows)).encode()


def _oracle_graph_to_pairs(edges, features):
    pairs = sorted({(a, b) for a, b, _ in edges})
    out = np.empty((len(pairs), 2), dtype=np.int64)
    for row, (a, b) in enumerate(pairs):
        ia, ib = features.index_of(a), features.index_of(b)
        out[row] = (ia, ib) if ia < ib else (ib, ia)
    return out


def _oracle_sample_negatives(related, n_items, seed):
    """The batch sampler as it was, without its argument checks."""
    m = len(related)
    rng = np.random.default_rng(seed)
    excluded = np.unique(related[:, 0] * np.int64(n_items) + related[:, 1])
    taken, need = [], m
    while need > 0:
        batch = max(4096, 2 * need)
        a = rng.integers(0, n_items, size=batch)
        b = rng.integers(0, n_items, size=batch)
        lo, hi = np.minimum(a, b), np.maximum(a, b)
        keep = lo != hi
        keys = lo[keep] * np.int64(n_items) + hi[keep]
        _, first = np.unique(keys, return_index=True)
        keys = keys[np.sort(first)]
        keys = keys[~np.isin(keys, excluded)][:need]
        if len(keys):
            taken.append(keys)
            excluded = np.union1d(excluded, keys)
            need -= len(keys)
    keys = np.concatenate(taken)
    return np.stack([keys // n_items, keys % n_items], axis=1)


def _oracle_build_user_dataset(triples, features, seed):
    n = features.n_items
    by_user = {}
    for a, b, u in triples:
        by_user.setdefault(u, []).append((a, b))
    all_pos_keys = set()
    for a, b, _ in triples:
        ia, ib = features.index_of(a), features.index_of(b)
        lo, hi = (ia, ib) if ia < ib else (ib, ia)
        all_pos_keys.add(lo * n + hi)
    qualified = []
    for u in sorted(by_user):
        items = set()
        for a, b in by_user[u]:
            items.add(a)
            items.add(b)
        if len(items) >= sampling.MIN_PURCHASES:
            qualified.append(u)
    if not qualified:
        raise DataError(f"no user has at least {sampling.MIN_PURCHASES} distinct purchased items")
    seen_pos, seen_neg = set(), set()
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
        if len(cand) > sampling.PAIRS_PER_USER:
            picks = rng.choice(len(cand), size=sampling.PAIRS_PER_USER, replace=False)
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


def _oracle_load_pairs(path, features):
    """The per-line reader, with its one change: the mixed user column error
    names the first line that disagrees with the first record."""
    records = _oracle_read_records(path, (3, 4), header="#partition <tag>")
    _, (partition,) = next(records)
    rows, labels, users, linenos = [], [], [], []
    for lineno, fields in records:
        if fields[2] not in ("unrelated", "related"):
            raise DataError(f"{path}:{lineno}: unknown label {fields[2]!r}")
        ia, ib = features.index_of(fields[0]), features.index_of(fields[1])
        if ia == ib:
            raise DataError(f"{path}:{lineno}: self-pair")
        rows.append((ia, ib) if ia < ib else (ib, ia))
        labels.append(fields[2] == "related")
        users.append(fields[3] if len(fields) == 4 else None)
        linenos.append(lineno)
    user_ids = None
    if any(u is not None for u in users):
        if None in users:
            first = next(k for k, u in enumerate(users) if (u is None) != (users[0] is None))
            raise DataError(f"{path}:{linenos[first]}: user column present on some "
                            "lines but not all")
        user_ids = sorted(set(users))
        index = {u: k for k, u in enumerate(user_ids)}
        users = [index[u] for u in users]
    return LabeledPairSet(features.item_ids, rows, labels, partition, user_ids,
                          None if user_ids is None else users)


# ---------------------------------------------------------------------------
# strategies and helpers

IDS = ["a", "b", "c", "d", "e", "f", "é", "a b"]
USERS = ["u1", "u2", "u3", "v"]
CHUNK_BYTES = st.sampled_from([1, 5, 23, catalog._TEXT_CHUNK_BYTES])


def _outcome(fn):
    """("ok", fn()) or ("error", the DataError's message)."""
    try:
        return "ok", fn()
    except DataError as exc:
        return "error", str(exc)


def _feature_matrix(ids, seed):
    """Features over ids in a shuffled order, so that row order is not id order."""
    order = np.random.default_rng(seed).permutation(len(ids))
    return FeatureMatrix([ids[k] for k in order], np.zeros((len(ids), 1)))


def _edge_set(graph):
    return {(graph.item_ids[a], graph.item_ids[b], RELATION_CLASSES[c])
            for (a, b), c in zip(graph.pairs.tolist(), graph.classes.tolist())}


def _triple_set(triples):
    return {(triples.item_ids[a], triples.item_ids[b], triples.user_ids[u])
            for (a, b), u in zip(triples.pairs.tolist(), triples.users.tolist())}


def _table(rows, names, seed):
    """(ids in a shuffled order, (m, 2) index pairs) for rows of id pairs;
    names are the ids the table holds."""
    order = np.random.default_rng(seed).permutation(len(names))
    ids = [names[k] for k in order]
    at = {name: k for k, name in enumerate(ids)}
    return ids, np.array([(at[a], at[b]) for a, b in rows], dtype=np.int64).reshape(-1, 2)


def _graph(edges, seed):
    ids, pairs = _table([(a, b) for a, b, _ in edges],
                        sorted({x for a, b, _ in edges for x in (a, b)}), seed)
    return RelationGraph(ids, pairs, [RELATION_CLASSES.index(c) for _, _, c in edges])


def _triples(triples, seed):
    ids, pairs = _table([(a, b) for a, b, _ in triples],
                        sorted({x for a, b, _ in triples for x in (a, b)}), seed)
    users = sorted({u for _, _, u in triples})
    users = [users[k] for k in np.random.default_rng(seed + 1).permutation(len(users))]
    return UserTripleSet(ids, pairs, users, [users.index(u) for _, _, u in triples])


@st.composite
def _text(draw, record, extra):
    """The bytes of a text file: records drawn from record, comments, blank
    lines and the lines of extra, each ending in LF or CRLF, the last maybe
    in CR or nothing."""
    line = st.one_of(record, record, record, extra, st.sampled_from(
        [b"# a comment", b"", b"#", b"\r", b"\xff\tb\tc"]))
    lines = draw(st.lists(line, max_size=24))
    ends = draw(st.lists(st.sampled_from([b"\n", b"\r\n"]), min_size=len(lines),
                         max_size=len(lines)))
    text = b"".join(a + b for a, b in zip(lines, ends))
    return text[:-1] if lines and draw(st.booleans()) else text


def _fields(*columns):
    return st.tuples(*columns).map(lambda fields: "\t".join(fields).encode())


def _pair_file(draw):
    """A pair file that is balanced and valid more often than not, then
    maybe damaged."""
    k = draw(st.integers(0, 6))
    keys = draw(st.lists(st.tuples(st.sampled_from(IDS), st.sampled_from(IDS))
                         .filter(lambda p: p[0] < p[1]), min_size=2 * k, max_size=2 * k,
                         unique=True))
    with_users = draw(st.booleans())
    lines = []
    for n, (a, b) in enumerate(keys):
        a, b = (b, a) if draw(st.booleans()) else (a, b)
        fields = [a, b, "related" if n < k else "unrelated"]
        if with_users:
            fields.append(draw(st.sampled_from(USERS)))
        lines.append("\t".join(fields).encode())
    lines = draw(st.permutations(lines))
    damage = st.one_of(
        _fields(st.sampled_from(["a", "zz"]), st.sampled_from(["a", "b", "zz"]),
                st.sampled_from(["related", "Related"])),
        _fields(st.sampled_from(IDS), st.sampled_from(IDS), st.just("related"),
                st.sampled_from(USERS)),
        st.sampled_from([b"a\tb", b"a\tb\trelated\tu1\textra", b"a\ta\trelated",
                         b"#partition all", b"\xff\tb\trelated"]))
    for _ in range(draw(st.sampled_from([0, 0, 0, 1, 2]))):
        lines.insert(draw(st.integers(0, len(lines))), draw(damage))
    return lines


# ---------------------------------------------------------------------------
# properties


@given(data=st.data(), chunk=CHUNK_BYTES, with_features=st.booleans(),
       class_filter=st.one_of(st.none(), st.lists(st.sampled_from(RELATION_CLASSES)),
                              st.just(["also_bought", "viewed"])))
def test_load_edges_matches_the_set_oracle(tmp_path_factory, data, chunk, with_features,
                                           class_filter):
    """Class filters, self-edges, duplicate and reversed edges, comments,
    CRLF and damaged lines: the same edges and counters, or the same error.
    The table holds the kept edges' ids, sorted, and the edges come in the
    order of the file save_edges writes."""
    edge = _fields(st.sampled_from(IDS), st.sampled_from(IDS),
                   st.sampled_from(RELATION_CLASSES + ("bought",)))
    text = data.draw(_text(edge, st.sampled_from([b"a\tb", b"a\tb\tc\td"])))
    path = tmp_path_factory.mktemp("edges") / "e.tsv"
    path.write_bytes(text)
    features = _feature_matrix(IDS[:-2], 0) if with_features else None
    want = _outcome(lambda: _oracle_load_edges(path, class_filter, features))
    with mock.patch.object(catalog, "_TEXT_CHUNK_BYTES", chunk):
        got = _outcome(lambda: load_edges(path, class_filter, features))
    if want[0] == "error":
        assert got == want
        return
    assert got[0] == "ok"
    g, (edges, *counters) = got[1], want[1]
    assert _edge_set(g) == edges
    assert [g.dropped_self_edges, g.duplicate_edges, g.reversed_edges] == counters
    assert g.item_ids == sorted({x for a, b, _ in edges for x in (a, b)})
    rows = [(g.item_ids[a], g.item_ids[b], RELATION_CLASSES[c])
            for (a, b), c in zip(g.pairs.tolist(), g.classes.tolist())]
    assert rows == sorted(edges)


@given(data=st.data(), chunk=CHUNK_BYTES, with_features=st.booleans())
def test_load_triples_matches_the_set_oracle(tmp_path_factory, data, chunk, with_features):
    triple = _fields(st.sampled_from(IDS), st.sampled_from(IDS), st.sampled_from(USERS))
    text = data.draw(_text(triple, st.just(b"a\tb")))
    path = tmp_path_factory.mktemp("triples") / "t.tsv"
    path.write_bytes(text)
    features = _feature_matrix(IDS[:-2], 0) if with_features else None
    want = _outcome(lambda: _oracle_load_triples(path, features))
    with mock.patch.object(catalog, "_TEXT_CHUNK_BYTES", chunk):
        got = _outcome(lambda: load_triples(path, features))
    if want[0] == "error":
        assert got == want
        return
    assert got[0] == "ok" and _triple_set(got[1]) == want[1]
    assert got[1].item_ids == sorted({x for a, b, _ in want[1] for x in (a, b)})
    assert got[1].user_ids == sorted({u for _, _, u in want[1]})


_EDGES = st.sets(st.tuples(st.sampled_from(IDS), st.sampled_from(IDS),
                           st.sampled_from(RELATION_CLASSES)).filter(lambda e: e[0] < e[1]),
                 max_size=30)
_TRIPLES = st.sets(st.tuples(st.sampled_from(IDS), st.sampled_from(IDS),
                             st.sampled_from(USERS)).filter(lambda t: t[0] < t[1]),
                   max_size=30)


@given(edges=_EDGES, triples=_TRIPLES, seed=st.integers(0, 1000),
       rows=st.sampled_from([1, 3, catalog._WRITE_ROWS]))
def test_saved_edges_and_triples_have_the_oracle_bytes(tmp_path_factory, edges, triples,
                                                       seed, rows):
    """Over id and user tables in any order, and in any row order."""
    root = tmp_path_factory.mktemp("saved")
    edges, triples = list(edges), list(triples)
    with mock.patch.object(catalog, "_WRITE_ROWS", rows):
        save_edges(_graph(edges, seed), root / "e.tsv")
        save_triples(_triples(triples, seed), root / "t.tsv")
    assert (root / "e.tsv").read_bytes() == _oracle_save_rows(edges)
    assert (root / "t.tsv").read_bytes() == _oracle_save_rows(triples)


@given(edges=_EDGES, seed=st.integers(0, 1000), known=st.booleans())
def test_graph_to_pairs_matches_the_set_oracle(edges, seed, known):
    """Features in another order than the ids; several classes on a pair
    collapse to one row."""
    edges = list(edges)
    features = _feature_matrix(IDS if known else IDS[:-1], seed)
    want = _outcome(lambda: _oracle_graph_to_pairs(edges, features))
    got = _outcome(lambda: graph_to_pairs(_graph(edges, seed), features))
    if want[0] == "error":
        assert got[0] == "error"
        return
    assert got[0] == "ok" and got[1].tolist() == want[1].tolist()


@given(n=st.integers(3, 120), density=st.floats(0.0, 0.49), seed=st.integers(0, 2**32 - 1),
       step=st.sampled_from([1, 7, 64, sampling._NEGATIVE_STEP]))
def test_sample_negatives_matches_the_batch_oracle(n, density, seed, step):
    """Dense and sparse graphs, several batches, any step: the same pairs
    in the same order, from the same draws."""
    universe = n * (n - 1) // 2
    m = max(1, min(int(density * universe), (universe - 1) // 2))
    rng = np.random.default_rng(seed)
    a, b = np.triu_indices(n, 1)
    keys = rng.choice(universe, size=m, replace=False)
    related = np.stack([a[keys], b[keys]], axis=1).astype(np.int64)
    with mock.patch.object(sampling, "_NEGATIVE_STEP", step):
        got = sample_negatives(related, n, seed)
    assert got.tolist() == _oracle_sample_negatives(related, n, seed).tolist()


def _assert_same_pair_set(got, want):
    assert got.item_ids == want.item_ids and got.partition == want.partition
    assert got.pairs.tolist() == want.pairs.tolist()
    assert got.labels.tolist() == want.labels.tolist()
    assert got.user_ids == want.user_ids
    assert (got.users is None and want.users is None) or \
        got.users.tolist() == want.users.tolist()


@given(triples=_TRIPLES, seed=st.integers(0, 2**32 - 1), floor=st.integers(2, 6),
       cap=st.integers(1, 8))
def test_build_user_dataset_matches_the_set_oracle(triples, seed, floor, cap):
    """Users below the purchase floor, caps that bind or not, pairs shared by
    users: the same rows, labels and users, draw for draw."""
    triples = list(triples)
    ids = IDS + [f"x{k}" for k in range(12)]  # room for the negatives
    features = _feature_matrix(ids, seed % 1000)
    with mock.patch.object(sampling, "MIN_PURCHASES", floor), \
            mock.patch.object(sampling, "PAIRS_PER_USER", cap):
        want = _outcome(lambda: _oracle_build_user_dataset(triples, features, seed))
        got = _outcome(lambda: build_user_dataset(_triples(triples, seed % 1000),
                                                  features, seed))
    assert got[0] == want[0]
    if want[0] == "error":
        assert got == want
    else:
        _assert_same_pair_set(got[1], want[1])


@given(data=st.data(), chunk=CHUNK_BYTES)
def test_load_pairs_matches_the_per_line_oracle(tmp_path_factory, data, chunk):
    """CRLF endings, comments and blank lines, 3- and 4-field files, and
    every error, by its message."""
    header = st.sampled_from([b"#partition train", b"#partition all", b"#partition",
                              b"#partition bogus", b"#part train", b"\xff"])
    lines = [data.draw(header)] + _pair_file(data.draw)
    filler = st.sampled_from([b"# a comment", b"", b"\r"])
    for _ in range(data.draw(st.integers(0, 3))):
        lines.insert(data.draw(st.integers(1, len(lines))), data.draw(filler))
    ends = data.draw(st.lists(st.sampled_from([b"\n", b"\r\n"]), min_size=len(lines),
                              max_size=len(lines)))
    text = b"".join(a + b for a, b in zip(lines, ends))
    if data.draw(st.booleans()):
        text = text.rstrip(b"\r\n")
    path = tmp_path_factory.mktemp("pairs") / "p.tsv"
    path.write_bytes(text)
    features = _feature_matrix(IDS, 1)
    want = _outcome(lambda: _oracle_load_pairs(path, features))
    with mock.patch.object(catalog, "_TEXT_CHUNK_BYTES", chunk):
        got = _outcome(lambda: load_pairs(path, features))
    assert got[0] == want[0], (got, want)
    if want[0] == "error":
        assert got == want
    else:
        _assert_same_pair_set(got[1], want[1])


@pytest.mark.parametrize("body", [
    b"a\tzz\tRelated\n",  # a label error comes before an unknown id
    b"zz\tb\tRelated\n",
    b"zz\tzz\trelated\n",  # the first id before the second, both before a self-pair
    b"a\ta\tRelated\n",
    b"a\tb\trelated\tu1\nb\tc\tunrelated\na\tzz\trelated\tu1\n",  # a line's own error first
    b"a\tb\trelated\nb\tc\tRelated\tu1\tx\n",  # a field count before a label
    b"a\tb\trelated\n\xff\ta\tRelated\n",  # text that is not UTF-8, then
])
def test_load_pairs_meets_errors_in_the_oracle_order(tmp_path, body):
    path = tmp_path / "p.tsv"
    path.write_bytes(b"#partition all\n" + body)
    features = _feature_matrix(IDS, 1)
    want = _outcome(lambda: _oracle_load_pairs(path, features))
    assert want[0] == "error"
    for chunk in (1, catalog._TEXT_CHUNK_BYTES):
        with mock.patch.object(catalog, "_TEXT_CHUNK_BYTES", chunk):
            assert _outcome(lambda: load_pairs(path, features)) == want


@pytest.mark.parametrize("body, class_filter", [
    (b"a\tzz\tbought\n", None),  # a class error comes before a missing endpoint
    (b"zz\tzz\talso_bought\n", None),  # a self-edge is dropped before endpoints are checked
    (b"a\tzz\talso_viewed\nzz\tb\talso_bought\n", ["also_viewed"]),  # filtered out first
    (b"zz\ta\talso_bought\n", None),
    (b"a\tb\talso_bought\nb\tzz\tbought\n", ["also_viewed"]),  # unknown before filtered
])
def test_load_edges_meets_errors_in_the_oracle_order(tmp_path, body, class_filter):
    path = tmp_path / "e.tsv"
    path.write_bytes(body)
    features = _feature_matrix(IDS, 1)
    want = _outcome(lambda: _oracle_load_edges(path, class_filter, features))
    got = _outcome(lambda: load_edges(path, class_filter, features))
    if want[0] == "error":
        assert got == want
    else:
        assert got[0] == "ok" and _edge_set(got[1]) == want[1][0]


@given(data=st.data(), chunk=CHUNK_BYTES)
def test_read_matrix_matches_the_per_line_oracle(tmp_path_factory, data, chunk):
    """Headers that over- and under-count, duplicate ids, wrong value counts,
    values float() rejects or reads as non-finite, '#' ids, blank lines."""
    k = data.draw(st.integers(0, 4))
    ids = data.draw(st.lists(st.sampled_from(IDS + ["#c"]), min_size=k, max_size=k,
                             unique=True))
    good = st.sampled_from(["0.5", "-1e3", "1_0", " 2 ", "+.5", "1e-320"])
    lines = [data.draw(st.sampled_from([f"#features {k} 2"] * 4 + [f"#features {k + 1} 2",
                                        "#features 0 2", "#features 2 x", "#features -1 2",
                                        "#features 1 0", "#style 2 2"])).encode()]
    lines += [data.draw(_fields(st.just(item), good, good)) for item in ids]
    bad = st.sampled_from(["x", "", "nan", "-inf", "1e999"])
    damage = st.one_of(_fields(st.sampled_from(IDS), good, bad),
                       _fields(st.sampled_from(IDS), good, good),
                       _fields(st.sampled_from(IDS), good),
                       st.sampled_from([b"", b"\r", b"a", b"\xff\t1\t2"]))
    for _ in range(data.draw(st.sampled_from([0, 0, 0, 1, 2]))):
        lines.insert(data.draw(st.integers(1, len(lines))), data.draw(damage))
    ends = data.draw(st.lists(st.sampled_from([b"\n", b"\r\n"]), min_size=len(lines),
                              max_size=len(lines)))
    text = b"".join(a + b for a, b in zip(lines, ends))
    path = tmp_path_factory.mktemp("matrix") / "m.tsv"
    path.write_bytes(text.rstrip(b"\r\n") if data.draw(st.booleans()) else text)
    want = _outcome(lambda: _oracle_read_matrix(path, "features"))
    with mock.patch.object(catalog, "_TEXT_CHUNK_BYTES", chunk):
        got = _outcome(lambda: read_matrix(path, "features"))
    assert got[0] == want[0], (got, want)
    if want[0] == "error":
        assert got == want
    else:
        assert got[1][0] == want[1][0]
        assert got[1][1].shape == want[1][1].shape
        assert np.array_equal(got[1][1], want[1][1])


def test_the_pair_file_strategy_reaches_successes(tmp_path):
    """Most drawn pair files load: the property compares tables, not only
    errors."""
    outcomes = []

    @given(data=st.data())
    def draw(data):
        path = tmp_path / "p.tsv"
        path.write_bytes(b"\n".join([b"#partition all"] + _pair_file(data.draw)) + b"\n")
        outcomes.append(_outcome(lambda: _oracle_load_pairs(path, _feature_matrix(IDS, 1)))[0])

    draw()
    assert outcomes.count("ok") > len(outcomes) // 4
