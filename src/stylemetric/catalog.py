"""Data catalog: item features, relationship edges, user triples, models.

Everything here is plain file IO plus validation. Item and user ids are opaque
strings; they are mapped to dense integer indices at load time and all numeric
code downstream works on indices. Loaded structures are immutable by convention
and safe to share across threads. The convention is load-bearing:
metric.model_distances keeps a style table on a FeatureMatrix, keyed by the
identity of its ``values`` array and of the model's ``transform``, so an
in-place write to either after a distance call is not seen. Assign a new
array instead.

Relation graphs and user triples are array tables: an id table, (m, 2)
int64 index pairs into it, and a small class or user code column. They are
read and written in the text formats below, unchanged, with edges and
triples sorted by id.

This module owns the mechanics of every file the program reads or writes:
text files are read through read_chunks, which splits a fixed amount of
text at a time into columns, so no reader holds a Python object per line of
a whole file; tables are written through write_table, a fixed number of
rows at a time; the ``#<tag> <N> <F>`` matrices go through read_matrix /
write_matrix; and every output goes through atomic_writer, which writes
``<path>.tmp`` and renames it over ``<path>``, so an output is either the
old file or the whole new one. A corrupt or truncated input raises
DataError, with ``path:line`` for text files: the error a line-by-line read
would meet first.

File formats (text files are tab-separated, UTF-8; '#' lines are comments
where noted):

* features:   ``#features <N> <F>`` header, then ``<item_id>\\t<v1>..<vF>``.
              Binary mirror: magic ``SMF1``, little-endian u64 N and F, an id
              table of u32-length-prefixed UTF-8 strings, then N*F f64 values
              row-major.
* style vectors (stylespace): the features layout under a ``#style <N> <K>``
              header, one embedded item per line.
* edges:      ``<src>\\t<dst>\\t<class>`` per line; '#' comments.
* triples:    ``<item_i>\\t<item_j>\\t<user>`` per line; '#' comments.
* pairs (sampling): ``#partition <tag>`` header, then
              ``<i>\\t<j>\\t<related|unrelated>[\\t<user>]``; '#' comments.
* id lists (cli): one item id per line; '#' comments.
* clustering (stylespace, written only): ``<item_id>\\t<cluster>`` per item,
              then ``#centroid\\t<c>\\t<v1>..<vK>`` per cluster and
              ``#objective\\t<value>``.
* path (stylespace, written only): ``#total\\t<cost>``, then
              ``<item_id>\\t<hop cost>`` per item along the path.
* model:      magic ``SMM1``, u32 version, then header + f64 parameter blocks
              (see save_model).
* written only by cli: ``representatives.tsv``
              (``<cluster>\\t<position>\\t<item_id>``), ``train_log.tsv``
              (``<iteration>\\t<log-likelihood>\\t<accuracy>``), the reports
              of eval, recommend, build-outfit, score-outfit and
              makeover-delta (the lines the command prints), and the JSON
              files ``run_manifest.json``, ``train_report.json`` and
              ``synth_info.json`` (write_json).
"""

import json
import math
import operator
import os
import struct
from contextlib import contextmanager
from dataclasses import dataclass, field
from itertools import chain, compress, repeat

import numpy as np

from . import FEATURE_NORMS, DataError

RELATION_CLASSES = ("also_viewed", "buy_after_viewing", "also_bought", "bought_together")

_FEATURE_MAGIC = b"SMF1"
_MODEL_MAGIC = b"SMM1"
_MODEL_VERSION = 1
_U32 = struct.Struct("<I")
_SMF1_HEAD = struct.Struct("<4sQQ")  # magic, N, F
# Bytes of the bool mask one step of FeatureMatrix's finiteness check builds;
# checking rows in blocks keeps the check from holding an N x F mask.
_FINITE_CHECK_BYTES = 1 << 16
# Bytes of text one step of read_chunks decodes and splits, and rows per
# step of the table writers. They bound the temporaries of text I/O and
# never change a result.
_TEXT_CHUNK_BYTES = 1 << 16
_WRITE_ROWS = 1 << 12


def normalize_rows(values: np.ndarray, kind: str) -> np.ndarray:
    """Feature rows with per-row normalization applied.

    ``none`` returns ``values`` itself; ``l2_unit`` rescales every row to unit
    L2 norm (zero rows are left as-is). Each row depends only on itself, so
    normalizing some rows gives the same bits as those rows of the whole.
    """
    if kind == "none":
        return values
    if kind != "l2_unit":
        raise ValueError(f"unknown normalization kind: {kind!r}")
    norms = np.linalg.norm(values, axis=1, keepdims=True)
    norms[norms == 0.0] = 1.0
    return values / norms


@dataclass
class FeatureMatrix:
    """Dense per-item vectors, one row per item id: the catalog's features,
    or the style vectors s_i = x_i Y that stylespace.embed_all projects."""

    item_ids: list[str]
    values: np.ndarray  # (N, F) float64

    def __post_init__(self):
        self.values = np.ascontiguousarray(self.values, dtype=np.float64)
        if self.values.ndim != 2:
            raise DataError("item values must be a 2-d array")
        if len(self.item_ids) != self.values.shape[0]:
            raise DataError(
                f"{len(self.item_ids)} item ids but {self.values.shape[0]} value rows"
            )
        self._index = {item: i for i, item in enumerate(self.item_ids)}
        if len(self._index) != len(self.item_ids):
            raise DataError("duplicate item id in item table")
        step = max(1, _FINITE_CHECK_BYTES // max(1, self.values.shape[1]))
        for lo in range(0, len(self.values), step):
            if not np.isfinite(self.values[lo:lo + step]).all():
                raise DataError("non-finite value")
        # The style table metric.model_distances has filled so far, with the
        # transform, values and normalization it belongs to (see
        # metric._style_table); not part of equality.
        self._styles = None

    @property
    def n_items(self) -> int:
        return self.values.shape[0]

    @property
    def n_features(self) -> int:
        return self.values.shape[1]

    def index_of(self, item_id: str) -> int:
        try:
            return self._index[item_id]
        except KeyError:
            raise DataError(f"unknown item id: {item_id!r}") from None

    def find(self, item_ids) -> np.ndarray:
        """Row indices of a sequence of item ids as one int64 array, with -1
        for an id not in the matrix."""
        return np.fromiter(map(self._index.get, item_ids, repeat(-1)), np.int64,
                           len(item_ids))

    def indices_of(self, item_ids) -> np.ndarray:
        """Row indices of a sequence of item ids, as one int64 array."""
        idx = self.find(item_ids)
        missing = np.flatnonzero(idx < 0)
        if len(missing):
            raise DataError(f"unknown item id: {item_ids[missing[0]]!r}")
        return idx

    def __contains__(self, item_id: str) -> bool:
        return item_id in self._index

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, FeatureMatrix)
            and self.item_ids == other.item_ids
            and self.values.shape == other.values.shape
            and np.array_equal(self.values, other.values)
        )


@dataclass(eq=False)
class RelationGraph:
    """Typed item-relationship edges, as one table.

    item_ids is the graph's own id table (unique ids, in any order); pairs
    is (m, 2) int64 rows into it, each pair in lexicographic id order (so no
    self-edges), and classes is (m,) int8 codes into RELATION_CLASSES. No
    edge appears twice. ranks, computed here, is each id's position in
    sorted id order, which is the order save_edges writes. Edges are stored
    as unordered pairs even for the directional "buy after viewing" class:
    every distance in this package is symmetric, so direction is kept only
    as counts in the provenance fields.
    """

    item_ids: list[str]
    pairs: np.ndarray
    classes: np.ndarray
    dropped_self_edges: int = 0
    duplicate_edges: int = 0
    reversed_edges: int = 0

    def __post_init__(self):
        self.pairs = np.asarray(self.pairs, dtype=np.int64).reshape(-1, 2)
        self.classes = np.asarray(self.classes, dtype=np.int8).reshape(-1)
        if len(self.classes) != len(self.pairs):
            raise DataError(f"{len(self.pairs)} edges but {len(self.classes)} classes")
        bad = np.flatnonzero((self.classes < 0) | (self.classes >= len(RELATION_CLASSES)))
        if len(bad):
            raise DataError(f"unknown relation class code: {self.classes[bad[0]]}")
        self.ranks = _canonical_ranks(self.item_ids, self.pairs, "edge")
        if _repeated_rows(self.ranks, self.pairs, self.classes):
            raise DataError("duplicate edge")


@dataclass(eq=False)
class UserTripleSet:
    """Co-purchase pairs annotated with the purchasing user, as one table.

    item_ids and user_ids are id tables (unique ids, in any order); pairs is
    (m, 2) int64 rows into item_ids, each pair in lexicographic id order,
    and users is (m,) int64 rows into user_ids. No (pair, user) row appears
    twice. ranks and user_ranks, computed here, are each item id's and each
    user id's position in sorted id order.
    """

    item_ids: list[str]
    pairs: np.ndarray
    user_ids: list[str]
    users: np.ndarray

    def __post_init__(self):
        self.pairs = np.asarray(self.pairs, dtype=np.int64).reshape(-1, 2)
        self.users = np.asarray(self.users, dtype=np.int64).reshape(-1)
        if len(self.users) != len(self.pairs):
            raise DataError(f"{len(self.pairs)} triple pairs but {len(self.users)} users")
        self.ranks = _canonical_ranks(self.item_ids, self.pairs, "triple pair")
        self.user_ranks = _id_ranks(self.user_ids, "user")
        if len(self.users) and (self.users.min() < 0 or self.users.max() >= len(self.user_ids)):
            raise DataError("user index out of range in user triples")
        if _repeated_rows(self.ranks, self.pairs, self.users):
            raise DataError("duplicate user triple")


def _sorted_order(ids) -> list:
    """Positions of ids in sorted id order."""
    return sorted(range(len(ids)), key=ids.__getitem__)


def _ranks(order) -> np.ndarray:
    """The inverse of a permutation: each position's place in order."""
    ranks = np.empty(len(order), dtype=np.int64)
    ranks[order] = np.arange(len(order))
    return ranks


def _id_ranks(ids, what) -> np.ndarray:
    """Each id's position in sorted id order; the ids must be unique."""
    order = _sorted_order(ids)
    if any(map(operator.eq, (ids[k] for k in order[1:]), (ids[k] for k in order))):
        raise DataError(f"duplicate {what} id in table")
    return _ranks(order)


def _canonical_ranks(ids, pairs, what) -> np.ndarray:
    """_id_ranks(ids), once every row of pairs indexes two ids in sorted order."""
    ranks = _id_ranks(ids, "item")
    if len(pairs) and (pairs.min() < 0 or pairs.max() >= len(ids)):
        raise DataError(f"{what} index out of range")
    bad = np.flatnonzero(ranks[pairs[:, 0]] >= ranks[pairs[:, 1]])
    if len(bad):
        a, b = (ids[k] for k in pairs[bad[0]].tolist())
        raise DataError(f"self-{what} on {a!r}" if a == b
                        else f"{what} ({a!r}, {b!r}) not canonical")
    return ranks


def _lex_order(ranks, pairs, minor) -> np.ndarray:
    """Row order by (ranks of the first ids, ranks of the second, minor)."""
    return np.lexsort((minor, ranks[pairs[:, 1]], ranks[pairs[:, 0]]))


def _first_of_runs(pairs, minor) -> np.ndarray:
    """Which rows of a lexsorted table differ from the row before them."""
    fresh = np.ones(len(pairs), dtype=bool)
    fresh[1:] = (pairs[1:] != pairs[:-1]).any(axis=1) | (minor[1:] != minor[:-1])
    return fresh


def _repeated_rows(ranks, pairs, minor) -> bool:
    """Whether two rows hold the same pair and the same minor code."""
    order = _lex_order(ranks, pairs, minor)
    return not _first_of_runs(pairs[order], minor[order]).all()


@dataclass
class MetricModel:
    """A learned distance model plus its decision threshold.

    kind selects the parameterization:

    * ``weighted_nn``:   transform is a per-feature weight vector w (F,) and
                         the distance is ||w o (x_i - x_j)||^2.
    * ``low_rank``:      transform is Y (F, K) and the distance is
                         ||(x_i - x_j) Y||^2.
    * ``personalized``:  low_rank plus nonnegative per-user weights over the
                         K projected dimensions.
    """

    kind: str
    transform: np.ndarray  # (F,) for weighted_nn, (F, K) otherwise
    threshold: float  # c: distance at which link probability is 0.5
    user_ids: list[str] | None = None
    user_weights: np.ndarray | None = None  # (U, K), entries >= 0
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        self.transform = np.ascontiguousarray(self.transform, dtype=np.float64)
        if self.kind == "weighted_nn":
            if self.transform.ndim != 1:
                raise DataError("weighted_nn expects a 1-d weight vector")
        elif self.kind in ("low_rank", "personalized"):
            if self.transform.ndim != 2:
                raise DataError(f"{self.kind} expects a 2-d transform matrix")
        else:
            raise DataError(f"unknown model kind: {self.kind!r}")
        if not np.all(np.isfinite(self.transform)):
            raise DataError("non-finite model parameter")
        if not np.isfinite(self.threshold):
            raise DataError("non-finite threshold")
        if not isinstance(self.metadata, dict) or self.feature_norm not in FEATURE_NORMS:
            raise DataError("model metadata must be an object whose feature_norm is "
                            + " or ".join(FEATURE_NORMS))
        if (self.user_ids is None) != (self.user_weights is None):
            raise DataError("user_ids and user_weights must be supplied together")
        if self.user_weights is not None:
            self.user_weights = np.ascontiguousarray(self.user_weights, dtype=np.float64)
            if self.user_weights.shape != (len(self.user_ids), self.rank):
                raise DataError(
                    f"user weight table {self.user_weights.shape} does not match "
                    f"{len(self.user_ids)} users x rank {self.rank}"
                )
            if not np.all(np.isfinite(self.user_weights)):
                raise DataError("non-finite user weight")
            if np.any(self.user_weights < 0.0):
                raise DataError("negative user weight")
        users = self.user_ids or ()
        self._user_rows = {user: row for row, user in enumerate(users)}
        if len(self._user_rows) != len(users):
            raise DataError("duplicate user id in model")

    @property
    def n_features(self) -> int:
        return self.transform.shape[0]

    @property
    def rank(self) -> int:
        # weighted_nn is a diagonal metric over the full feature space.
        return self.transform.shape[0] if self.kind == "weighted_nn" else self.transform.shape[1]

    @property
    def feature_norm(self) -> str:
        return self.metadata.get("feature_norm", "none")

    def user_index(self, user_id: str) -> int:
        try:
            return self._user_rows[user_id]
        except KeyError:
            raise DataError(f"unknown user id: {user_id!r}") from None

    def __eq__(self, other) -> bool:
        if not isinstance(other, MetricModel):
            return False
        same_users = self.user_ids == other.user_ids and (
            self.user_weights is None
            or np.array_equal(self.user_weights, other.user_weights)
        )
        return (
            self.kind == other.kind
            and np.array_equal(self.transform, other.transform)
            and self.threshold == other.threshold
            and same_users
            and self.metadata == other.metadata
        )


# ---------------------------------------------------------------------------
# reading and writing files


@contextmanager
def atomic_writer(path, binary=False):
    """A file opened for writing whose contents replace path only when the
    with-block completes; if the block raises, path is left as it was.

    The data goes to <path>.tmp, which os.replace then renames over path.
    """
    tmp = f"{path}.tmp"
    try:
        with open(tmp, "wb" if binary else "w", encoding=None if binary else "utf-8") as f:
            yield f
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)


def write_json(path, obj):
    """obj as JSON indented by 2 with sorted keys and a final newline."""
    with atomic_writer(path) as f:
        json.dump(obj, f, indent=2, sort_keys=True)
        f.write("\n")


class TextChunk:
    """The records of one step of read_chunks, and the first error among them.

    records holds each record's text and widths its number of fields. Checks
    run over the whole chunk, and each marks the rows it rejects; the chunk
    keeps the error of the earliest rejected row, where a tie goes to the
    check made first, and n is the number of rows before that one. So when
    the caller makes one record's checks in the order a line-by-line reader
    would, raise_error raises the error that reader would meet first.
    """

    def __init__(self, path, records, linenos, error=None):
        self.path = path
        self.records = records
        self.linenos = linenos  # the file line of each record
        self.widths = np.fromiter(map(str.count, records, repeat("\t")), np.int64,
                                  len(records)) + 1
        self.n = len(records)
        self.error = error  # of the line after the last record, if any

    def where(self, k) -> str:
        """'path:line' of row k."""
        return f"{self.path}:{self.linenos[k]}"

    def check(self, bad, message):
        """Reject the first row k < n at which bad holds, with message(k)."""
        hits = np.flatnonzero(bad[:self.n])
        if len(hits):
            self.n = int(hits[0])
            self.error = message(self.n)

    def raise_error(self):
        if self.error is not None:
            raise DataError(self.error)

    def rows(self) -> list:
        """The first n rows, each as its list of fields."""
        return [record.split("\t") for record in self.records[:self.n]]

    def columns(self, count) -> list:
        """Fields 0 to count - 1 of the first n rows, which hold at least
        count fields each, as count sequences. Rows of one width, as in any
        valid file, are split all at once."""
        records, widths = self.records[:self.n], self.widths[:self.n]
        if len(records) and (widths == widths[0]).all():
            fields = "\t".join(records).split("\t")
            return [fields[j::int(widths[0])] for j in range(count)]
        return list(zip(*self.rows()))[:count] or [()] * count


def read_chunks(path, n_fields=None, header=None, comments=True):
    """Yield the records of a tab-separated UTF-8 file, as TextChunks.

    Blank lines are skipped, and so are lines starting with '#' when comments
    is true. n_fields, when given, is the number of fields every record must
    have, or a tuple of the numbers allowed. header, when given, is the usage
    of a required first line, such as '#features <N> <F>': the line must hold
    as many whitespace-separated words and start with the same tag, and its
    words after the tag are yielded first. Each chunk holds the records of
    about _TEXT_CHUNK_BYTES of text and whole lines. A line that is not UTF-8
    or has a wrong field count ends its chunk, as the chunk's error; the
    caller checks the rows before it, then calls raise_error() on every
    chunk. Every error names the path and line.
    """
    usage = header.split() if header else None
    counts = (n_fields,) if isinstance(n_fields, int) else n_fields
    first = 1
    with open(path, "rb") as f:
        if usage:
            try:
                words = f.readline().decode("utf-8").split()
            except UnicodeDecodeError:
                raise DataError(f"{path}:1: not UTF-8 text") from None
            if len(words) != len(usage) or words[0] != usage[0]:
                raise DataError(f"{path}:1: expected '{header}' header")
            yield words[1:]
            first = 2
        while raw := f.read(_TEXT_CHUNK_BYTES):
            if not raw.endswith(b"\n"):
                raw += f.readline()
            chunk, n_lines = _text_chunk(path, raw, first, counts, comments)
            yield chunk
            first += n_lines


def _text_chunk(path, raw, first, counts, comments):
    """(TextChunk of raw's lines, the number of lines) for read_chunks."""
    error = None
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        text = raw[:raw.rfind(b"\n", 0, exc.start) + 1].decode("utf-8")
        error = "not UTF-8 text"
    lines = text.split("\n")
    if not lines[-1]:
        lines.pop()  # what follows the last newline
    if error:
        error = f"{path}:{first + len(lines)}: {error}"
    if "\r" in text:
        lines = [line.rstrip("\r") for line in lines]
    if "" in lines or (comments and (text[:1] == "#" or "\n#" in text)):
        keep = [k for k, line in enumerate(lines) if line and not (comments and line[0] == "#")]
        records = [lines[k] for k in keep]
        linenos = [first + k for k in keep]
    else:
        records, linenos = lines, range(first, first + len(lines))
    chunk = TextChunk(path, records, linenos, error)
    if counts:
        chunk.check(~np.isin(chunk.widths, counts),
                    lambda k: f"{path}:{linenos[k]}: expected "
                              f"{' or '.join(map(str, counts))} tab-separated fields, "
                              f"got {chunk.widths[k]}")
    return chunk, len(lines)


def _float_array(buf, shape, start, where):
    """The float64 values of buf from byte start on, in the given shape."""
    try:
        return np.frombuffer(buf, "<f8", math.prod(shape), start).reshape(shape)
    except ValueError:
        raise DataError(f"{where}: declared shape {shape} is too large") from None


def read_matrix(path, tag):
    """(ids, (N, F) float64 values) of a text matrix under '#<tag> <N> <F>'.

    The values are parsed chunk by chunk into one (N, F) array, allocated
    once from the header. A row holds at least a tab and a character per
    value, so N is first capped at the rows the file's size can hold, and a
    corrupt header cannot ask for more memory than the file could fill.
    Raises DataError with the offending line on a bad header, duplicate id,
    wrong value count, or a value that is not a finite number.
    """
    chunks = read_chunks(path, header=f"#{tag} <N> <F>", comments=False)
    header = next(chunks)
    try:
        n_rows, n_cols = (int(v) for v in header)
    except ValueError:
        raise DataError(f"{path}:1: malformed {tag} header") from None
    if n_rows < 0 or n_cols < 0:
        raise DataError(f"{path}:1: negative size in {tag} header")
    capacity = min(n_rows, os.path.getsize(path) // max(1, 2 * n_cols))
    values = np.empty((capacity, n_cols)) if capacity else None
    ids: list[str] = []
    seen: set = set()
    for chunk in chunks:
        rows = chunk.rows()
        names = [row[0] for row in rows]
        if len(set(names)) != len(names) or not seen.isdisjoint(names):
            chunk.check(_repeats(names, seen),
                        lambda k: f"{chunk.where(k)}: duplicate item id {names[k]!r}")
        chunk.check(chunk.widths != n_cols + 1,
                    lambda k: f"{chunk.where(k)}: expected {n_cols} values, "
                              f"got {chunk.widths[k] - 1}")
        block = _parse_values(chunk, rows, n_cols)
        chunk.check(~np.isfinite(block).all(axis=1),
                    lambda k: f"{chunk.where(k)}: non-finite value")
        chunk.raise_error()
        stored = block[:max(0, capacity - len(ids))]
        if len(stored):
            values[len(ids):len(ids) + len(stored)] = stored
        seen.update(names)
        ids += names
    if len(ids) != n_rows:
        raise DataError(f"{path}: header says {n_rows} items but file has {len(ids)}")
    if values is None:
        values = _float_array(b"", (0, n_cols), 0, path)
    return ids, values


def _repeats(names, seen) -> np.ndarray:
    """Whether each name is in seen or earlier in names."""
    earlier: set = set()
    out = np.zeros(len(names), dtype=bool)
    for k, name in enumerate(names):
        out[k] = name in seen or name in earlier
        earlier.add(name)
    return out


def _parse_values(chunk, rows, n_cols) -> np.ndarray:
    """The values of rows[:chunk.n], each an id and n_cols strings, as an
    (n, n_cols) array; a value float() rejects is the chunk's error."""
    rows = rows[:chunk.n]
    try:
        flat = np.fromiter(map(float, chain.from_iterable(row[1:] for row in rows)),
                           np.float64, len(rows) * n_cols)
    except ValueError:
        chunk.check([not _all_floats(row[1:]) for row in rows],
                    lambda k: f"{chunk.where(k)}: unparseable value")
        return _parse_values(chunk, rows, n_cols)
    return flat.reshape(len(rows), n_cols)


def _all_floats(strings) -> bool:
    try:
        for v in strings:
            float(v)
    except ValueError:
        return False
    return True


def write_matrix(path, tag, ids, values):
    """The text matrix that read_matrix(path, tag) reads back exactly."""
    with atomic_writer(path) as f:
        f.write(f"#{tag} {len(ids)} {values.shape[1]}\n")
        # repr() is the shortest string that round-trips a float64 exactly;
        # one row at a time keeps the Python floats bounded.
        for item, row in zip(ids, values):
            f.write(item + "\t" + "\t".join(map(repr, row.tolist())) + "\n")


def _write_strings(f, strings):
    """u32-length-prefixed UTF-8 strings, as _Reader.strings reads them."""
    for text in strings:
        raw = text.encode("utf-8")
        f.write(_U32.pack(len(raw)))
        f.write(raw)


class _Reader:
    """A binary file, or the part of it in buf, consumed front to back.

    Every length a header declares is checked against the bytes left before
    it is used, so a corrupt or truncated file raises DataError instead of
    an overflow or a huge allocation.
    """

    def __init__(self, path, what, buf=None):
        if buf is None:
            with open(path, "rb") as f:
                buf = f.read()
        self.buf = buf
        self.pos = 0
        self.path = path
        self.what = what

    def _truncated(self, field):
        return DataError(f"{self.path}: truncated {self.what} ({field})")

    def _advance(self, n, field):
        """Start of the next n bytes, which must lie inside the file."""
        if n > len(self.buf) - self.pos:
            raise self._truncated(field)
        self.pos += n
        return self.pos - n

    def take(self, n, field):
        return self.buf[self._advance(n, field):self.pos]

    def unpack(self, fmt, field):
        return struct.unpack(fmt, self.take(struct.calcsize(fmt), field))

    def decode(self, raw, field):
        """raw as UTF-8 text; every string of the file is read through here."""
        try:
            return raw.decode("utf-8")
        except UnicodeDecodeError:
            raise DataError(f"{self.path}: {self.what} {field} is not UTF-8") from None

    def strings(self, count, field):
        """count u32-length-prefixed UTF-8 strings."""
        buf, pos, size, out = self.buf, self.pos, len(self.buf), []
        for _ in range(count):
            if size - pos < 4:
                raise self._truncated(field)
            (length,) = _U32.unpack_from(buf, pos)
            pos += 4
            if length > size - pos:
                raise self._truncated(field)
            out.append(self.decode(buf[pos:pos + length], field))
            pos += length
        self.pos = pos
        return out

    def floats(self, shape, field):
        """A float64 array of the given shape, copied out of the file."""
        start = self._advance(math.prod(shape) * 8, field)
        return _float_array(self.buf, shape, start, f"{self.path}: {self.what} {field}").copy()

    def finish(self):
        if self.pos != len(self.buf):
            raise DataError(f"{self.path}: trailing bytes after {self.what} payload")


# ---------------------------------------------------------------------------
# feature files


def save_features(features: FeatureMatrix, path, binary: bool = False):
    if not binary:
        write_matrix(path, "features", features.item_ids, features.values)
        return
    with atomic_writer(path, binary=True) as f:
        f.write(_FEATURE_MAGIC)
        f.write(struct.pack("<QQ", features.n_items, features.n_features))
        _write_strings(f, features.item_ids)
        f.write(features.values.tobytes(order="C"))


def load_features(path) -> FeatureMatrix:
    """Load a feature file (text or binary mirror, sniffed by magic bytes).

    Raises DataError with the offending line number on dimension mismatch,
    duplicate item id, or non-finite values.
    """
    with open(path, "rb") as f:
        magic = f.read(4)
    if magic == _FEATURE_MAGIC:
        return _load_features_binary(path)
    return FeatureMatrix(*read_matrix(path, "features"))


def _load_features_binary(path) -> FeatureMatrix:
    """The SMF1 file at path, with its payload read straight into the array.

    The file size fixes the id table's length once the header's N x F
    payload is known, so the table is read alone and the payload goes into
    its final array: no byte is held twice.
    """
    what = "binary feature file"
    with open(path, "rb") as f:
        size = os.fstat(f.fileno()).st_size
        r = _Reader(path, what, f.read(_SMF1_HEAD.size))
        r.take(4, "magic")
        n_items, n_features = r.unpack("<QQ", "header")
        payload = n_items * n_features * 8
        table = size - _SMF1_HEAD.size - payload
        if table < 4 * n_items:
            raise DataError(f"{path}: truncated {what} (id table and payload)")
        r = _Reader(path, what, f.read(table))
        item_ids = r.strings(n_items, "id table")
        r.finish()
        try:
            values = np.empty((n_items, n_features), "<f8")
        except ValueError:
            raise DataError(f"{path}: {what} declared shape {(n_items, n_features)} "
                            "is too large") from None
        if f.readinto(values) != payload:
            raise DataError(f"{path}: truncated {what} (feature payload)")
    return FeatureMatrix(item_ids, values)


# ---------------------------------------------------------------------------
# edge / triple / category files


_CLASS_CODES = {cls: code for code, cls in enumerate(RELATION_CLASSES)}
# The rank of each class code's name among the sorted names: the order of
# one pair's edges in an edge file.
_CLASS_RANKS = np.argsort(np.argsort(RELATION_CLASSES))


def codes_of(table, names) -> np.ndarray:
    """The codes of names in table (id -> code), adding the ids not in it."""
    new = [name for name in dict.fromkeys(names) if name not in table]
    table.update(zip(new, range(len(table), len(table) + len(new))))
    return np.fromiter(map(table.__getitem__, names), np.int64, len(names))


def sorted_ids(table):
    """(the ids of table in sorted order, each code's position among them)."""
    names = list(table)
    order = _sorted_order(names)
    return [names[k] for k in order], _ranks(order)


def _canonical_rows(ranks, parts, minor_ranks):
    """Distinct canonical rows of the per-chunk (first, second, minor) codes
    in parts, which it empties, in lexicographic order: ((m, 2) pairs of
    ranks, minor codes, the number of repeated rows dropped). ranks maps an
    item code to its rank, and minor_ranks a minor code to its sort key."""
    a, b, minor = (np.concatenate(column) for column in zip(*parts))
    del parts[:]
    a, b = ranks[a], ranks[b]
    pairs = np.empty((len(a), 2), dtype=np.int64)
    np.minimum(a, b, out=pairs[:, 0])
    np.maximum(a, b, out=pairs[:, 1])
    del a, b
    order = np.lexsort((minor_ranks[minor], pairs[:, 1], pairs[:, 0]))
    pairs, minor = pairs[order], minor[order]
    fresh = _first_of_runs(pairs, minor)
    return pairs[fresh], minor[fresh], len(fresh) - int(np.count_nonzero(fresh))


def write_table(path, columns, header=None, order=None):
    """Write one tab-separated line per row of a table of codes.

    columns is a list of (ids, codes): ids[codes[k]] is the field of row k.
    Rows are written in order (a permutation of the rows) when given, under
    a header line when given, and _WRITE_ROWS at a time.
    """
    n_rows = len(columns[0][1])
    with atomic_writer(path) as f:
        if header is not None:
            f.write(header + "\n")
        for lo in range(0, n_rows, _WRITE_ROWS):
            rows = slice(lo, lo + _WRITE_ROWS) if order is None else order[lo:lo + _WRITE_ROWS]
            fields = [map(ids.__getitem__, codes[rows].tolist()) for ids, codes in columns]
            f.write("\n".join(map("\t".join, zip(*fields))) + "\n")


def load_edges(path, class_filter=None, features: FeatureMatrix | None = None) -> RelationGraph:
    """Load relationship edges, canonicalized and deduplicated.

    class_filter, when given, keeps only the listed relation classes.
    Self-edges are dropped and counted rather than treated as fatal. When a
    FeatureMatrix is supplied, endpoints are validated against it. The
    graph's id table holds the kept edges' ids in sorted order, and its
    edges come in the order save_edges writes.
    """
    keep_class = np.ones(len(RELATION_CLASSES) + 1, dtype=bool)
    keep_class[-1] = False  # at code -1, an unknown class
    if class_filter is not None:
        class_filter = set(class_filter)
        unknown = class_filter - set(RELATION_CLASSES)
        if unknown:
            raise DataError(f"unknown relation class in filter: {sorted(unknown)}")
        keep_class[:-1] = [cls in class_filter for cls in RELATION_CLASSES]
    table: dict = {}  # item id -> code, in first-seen order
    parts = [(np.empty(0, np.int64), np.empty(0, np.int64), np.empty(0, np.int8))]
    dropped_self = reversed_count = 0
    for chunk in read_chunks(path, 3):
        src, dst, cls = chunk.columns(3)
        codes = np.fromiter(map(_CLASS_CODES.get, cls, repeat(-1)), np.int8, len(cls))
        chunk.check(codes < 0,
                    lambda k: f"{chunk.where(k)}: unknown relation class {cls[k]!r}")
        kept = keep_class[codes]
        same = np.fromiter(map(operator.eq, src, dst), bool, len(src))
        if features is not None:
            for ends in (src, dst):
                chunk.check(kept & ~same & (features.find(ends) < 0),
                            lambda k: f"{chunk.where(k)}: endpoint {ends[k]!r} "
                                      "missing from features")
        chunk.raise_error()
        dropped_self += int(np.count_nonzero(kept & same))
        kept &= ~same
        src, dst = list(compress(src, kept)), list(compress(dst, kept))
        reversed_count += sum(map(operator.gt, src, dst))
        parts.append((codes_of(table, src), codes_of(table, dst), codes[kept]))
    item_ids, ranks = sorted_ids(table)
    pairs, classes, duplicates = _canonical_rows(ranks, parts, _CLASS_RANKS)
    return RelationGraph(item_ids, pairs, classes, dropped_self, duplicates, reversed_count)


def save_edges(graph: RelationGraph, path):
    """The edges, one '<a>\\t<b>\\t<class>' line each, sorted by (a, b, class)."""
    order = _lex_order(graph.ranks, graph.pairs, _CLASS_RANKS[graph.classes])
    write_table(path, [(graph.item_ids, graph.pairs[:, 0]), (graph.item_ids, graph.pairs[:, 1]),
                       (RELATION_CLASSES, graph.classes)], order=order)


def load_triples(path, features: FeatureMatrix | None = None) -> UserTripleSet:
    """Load user triples, canonicalized and deduplicated, over sorted id
    tables and in the order save_triples writes."""
    items: dict = {}  # item id -> code, in first-seen order
    users: dict = {}  # user id -> code, in first-seen order
    parts = [(np.empty(0, np.int64),) * 3]
    for chunk in read_chunks(path, 3):
        a, b, u = chunk.columns(3)
        chunk.check(np.fromiter(map(operator.eq, a, b), bool, len(a)),
                    lambda k: f"{chunk.where(k)}: self-pair in user triple")
        if features is not None:
            chunk.check((features.find(a) < 0) | (features.find(b) < 0),
                        lambda k: f"{chunk.where(k)}: triple endpoint missing from features")
        chunk.raise_error()
        parts.append((codes_of(items, a), codes_of(items, b), codes_of(users, u)))
    item_ids, ranks = sorted_ids(items)
    user_ids, user_ranks = sorted_ids(users)
    pairs, user_codes, _ = _canonical_rows(ranks, parts, user_ranks)
    return UserTripleSet(item_ids, pairs, user_ids, user_ranks[user_codes])


def save_triples(triples: UserTripleSet, path):
    """The triples, one '<a>\\t<b>\\t<user>' line each, sorted by (a, b, user)."""
    order = _lex_order(triples.ranks, triples.pairs, triples.user_ranks[triples.users])
    write_table(path, [(triples.item_ids, triples.pairs[:, 0]),
                       (triples.item_ids, triples.pairs[:, 1]),
                       (triples.user_ids, triples.users)], order=order)


# ---------------------------------------------------------------------------
# model files


def save_model(model: MetricModel, path):
    """Write a model file. save_model / load_model round-trip bit-exactly."""
    meta = json.dumps(model.metadata, sort_keys=True).encode("utf-8")
    with atomic_writer(path, binary=True) as f:
        f.write(_MODEL_MAGIC)
        f.write(struct.pack("<I", _MODEL_VERSION))
        kind_raw = model.kind.encode("ascii")
        f.write(struct.pack("<I", len(kind_raw)))
        f.write(kind_raw)
        f.write(struct.pack("<QQ", model.n_features, model.rank))
        f.write(struct.pack("<d", model.threshold))
        f.write(struct.pack("<I", len(meta)))
        f.write(meta)
        f.write(model.transform.tobytes(order="C"))
        has_users = model.user_weights is not None
        f.write(struct.pack("<B", 1 if has_users else 0))
        if has_users:
            f.write(struct.pack("<Q", len(model.user_ids)))
            _write_strings(f, model.user_ids)
            f.write(model.user_weights.tobytes(order="C"))


def load_model(path) -> MetricModel:
    r = _Reader(path, "model file")
    if r.take(4, "magic") != _MODEL_MAGIC:
        raise DataError(f"{path}: not a model file")
    (version,) = r.unpack("<I", "version")
    if version != _MODEL_VERSION:
        raise DataError(f"{path}: model version {version} not supported")
    (kind_len,) = r.unpack("<I", "kind")
    kind = r.decode(r.take(kind_len, "kind"), "kind")
    n_features, rank, threshold, meta_len = r.unpack("<QQdI", "header")
    try:
        metadata = json.loads(r.decode(r.take(meta_len, "metadata"), "metadata"))
    except (ValueError, RecursionError):
        raise DataError(f"{path}: model metadata is not valid JSON") from None
    if kind == "weighted_nn":
        if rank != n_features:
            raise DataError(f"{path}: weighted_nn requires K == F")
        transform = r.floats((n_features,), "transform")
    else:
        transform = r.floats((n_features, rank), "transform")
    (has_users,) = r.unpack("<B", "user flag")
    user_ids = None
    user_weights = None
    if has_users:
        (n_users,) = r.unpack("<Q", "user table")
        user_ids = r.strings(n_users, "user table")
        user_weights = r.floats((n_users, rank), "user weights")
    r.finish()
    return MetricModel(kind, transform, threshold, user_ids, user_weights, metadata)
