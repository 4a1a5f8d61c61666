"""Data catalog: item features, relationship edges, user triples, models.

Everything here is plain file IO plus validation. Item and user ids are opaque
strings; they are mapped to dense integer indices at load time and all numeric
code downstream works on indices. Loaded structures are immutable by convention
and safe to share across threads.

This module owns the mechanics of every file the program reads or writes:
text files go through read_records, the ``#<tag> <N> <F>`` matrices through
read_matrix / write_matrix, and every output through atomic_writer, which
writes ``<path>.tmp`` and renames it over ``<path>``, so an output is either
the old file or the whole new one. A corrupt or truncated input raises
DataError, with ``path:line`` for text files.

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
import os
import struct
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

RELATION_CLASSES = ("also_viewed", "buy_after_viewing", "also_bought", "bought_together")
FEATURE_NORMS = ("none", "l2_unit")

_FEATURE_MAGIC = b"SMF1"
_MODEL_MAGIC = b"SMM1"
_MODEL_VERSION = 1
_U32 = struct.Struct("<I")


class DataError(Exception):
    """A file or in-memory structure violates the catalog contracts."""


def canonical_pair(a: str, b: str) -> tuple[str, str]:
    """Unordered item pair in canonical (sorted) order."""
    return (a, b) if a <= b else (b, a)


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
    """Dense per-item feature vectors, one row per item id."""

    item_ids: list[str]
    values: np.ndarray  # (N, F) float64

    def __post_init__(self):
        self.values = np.ascontiguousarray(self.values, dtype=np.float64)
        if self.values.ndim != 2:
            raise DataError("feature values must be a 2-d array")
        if len(self.item_ids) != self.values.shape[0]:
            raise DataError(
                f"{len(self.item_ids)} item ids but {self.values.shape[0]} feature rows"
            )
        if len(set(self.item_ids)) != len(self.item_ids):
            raise DataError("duplicate item id in feature matrix")
        if not np.all(np.isfinite(self.values)):
            raise DataError("non-finite feature value")
        self._index = {item: i for i, item in enumerate(self.item_ids)}

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

    def __contains__(self, item_id: str) -> bool:
        return item_id in self._index

    def row(self, item_id: str) -> np.ndarray:
        return self.values[self.index_of(item_id)]

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, FeatureMatrix)
            and self.item_ids == other.item_ids
            and self.values.shape == other.values.shape
            and np.array_equal(self.values, other.values)
        )


@dataclass
class RelationGraph:
    """Typed, canonicalized item-relationship edges.

    Edges are stored as unordered pairs (lexicographic id order) even for the
    directional "buy after viewing" class: every distance in this package is
    symmetric, so direction is kept only as counts in the provenance fields.
    """

    edges: set  # of (a, b, relation_class) with a < b
    dropped_self_edges: int = 0
    duplicate_edges: int = 0
    reversed_edges: int = 0

    def __post_init__(self):
        for a, b, cls in self.edges:
            if a == b:
                raise DataError(f"self-edge on {a!r}")
            if a > b:
                raise DataError(f"edge ({a!r}, {b!r}) not canonical")
            if cls not in RELATION_CLASSES:
                raise DataError(f"unknown relation class: {cls!r}")

    @property
    def n_edges(self) -> int:
        return len(self.edges)

    def pairs(self) -> set:
        """Unordered endpoint pairs, classes collapsed."""
        return {(a, b) for a, b, _ in self.edges}


@dataclass
class UserTripleSet:
    """Co-purchase pairs annotated with the purchasing user."""

    triples: set  # of (a, b, user) with a < b

    def __post_init__(self):
        for a, b, _ in self.triples:
            if a == b:
                raise DataError(f"self-pair on {a!r} in user triples")
            if a > b:
                raise DataError(f"triple pair ({a!r}, {b!r}) not canonical")

    def user_ids(self) -> list[str]:
        return sorted({u for _, _, u in self.triples})


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


def read_records(path, n_fields=None, header=None, comments=True):
    """Yield (line number, fields) for each record of a tab-separated UTF-8 file.

    Blank lines are skipped, and so are lines starting with '#' when comments
    is true. n_fields, when given, is the number of fields every record must
    have, or a tuple of the numbers allowed. header, when given, is the usage
    of a required first line, such as '#features <N> <F>': the line must hold
    as many whitespace-separated words and start with the same tag, and its
    words after the tag are yielded first, as (1, words). Every error is a
    DataError that names the path and line.
    """
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


def _float_array(buf, shape, start, where):
    """The float64 values of buf from byte start on, in the given shape."""
    try:
        return np.frombuffer(buf, "<f8", math.prod(shape), start).reshape(shape)
    except ValueError:
        raise DataError(f"{where}: declared shape {shape} is too large") from None


def read_matrix(path, tag):
    """(ids, (N, F) float64 values) of a text matrix under '#<tag> <N> <F>'.

    Each row becomes its own float64 array as it is read, so the peak memory
    stays near the size of the result. Raises DataError with the offending
    line on a bad header, duplicate id, wrong value count, or a value that
    is not a finite number.
    """
    records = read_records(path, header=f"#{tag} <N> <F>", comments=False)
    _, header = next(records)
    try:
        n_rows, n_cols = (int(v) for v in header)
    except ValueError:
        raise DataError(f"{path}:1: malformed {tag} header") from None
    if n_rows < 0 or n_cols < 0:
        raise DataError(f"{path}:1: negative size in {tag} header")
    ids: list[str] = []
    seen: set = set()
    rows = []
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
    values = np.vstack(rows) if rows else _float_array(b"", (0, n_cols), 0, path)
    return ids, values


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
    """A binary file read whole and consumed front to back.

    Every length a header declares is checked against the bytes left before
    it is used, so a corrupt or truncated file raises DataError instead of
    an overflow or a huge allocation.
    """

    def __init__(self, path, what):
        with open(path, "rb") as f:
            self.buf = f.read()
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
    r = _Reader(path, "binary feature file")
    r.take(4, "magic")
    n_items, n_features = r.unpack("<QQ", "header")
    item_ids = r.strings(n_items, "id table")
    values = r.floats((n_items, n_features), "feature payload")
    r.finish()
    return FeatureMatrix(item_ids, values)


# ---------------------------------------------------------------------------
# edge / triple / category files


def load_edges(path, class_filter=None, features: FeatureMatrix | None = None) -> RelationGraph:
    """Load relationship edges, canonicalized and deduplicated.

    class_filter, when given, keeps only the listed relation classes.
    Self-edges are dropped and counted rather than treated as fatal. When a
    FeatureMatrix is supplied, endpoints are validated against it.
    """
    if class_filter is not None:
        class_filter = set(class_filter)
        unknown = class_filter - set(RELATION_CLASSES)
        if unknown:
            raise DataError(f"unknown relation class in filter: {sorted(unknown)}")
    edges: set = set()
    dropped_self = 0
    duplicates = 0
    reversed_count = 0
    for lineno, (src, dst, cls) in read_records(path, 3):
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
        edge = canonical_pair(src, dst) + (cls,)
        if edge in edges:
            duplicates += 1
        else:
            edges.add(edge)
    return RelationGraph(edges, dropped_self, duplicates, reversed_count)


def save_edges(graph: RelationGraph, path):
    with atomic_writer(path) as f:
        for a, b, cls in sorted(graph.edges):
            f.write(f"{a}\t{b}\t{cls}\n")


def load_triples(path, features: FeatureMatrix | None = None) -> UserTripleSet:
    triples: set = set()
    for lineno, (a, b, user) in read_records(path, 3):
        if a == b:
            raise DataError(f"{path}:{lineno}: self-pair in user triple")
        if features is not None and (a not in features or b not in features):
            raise DataError(f"{path}:{lineno}: triple endpoint missing from features")
        triples.add(canonical_pair(a, b) + (user,))
    return UserTripleSet(triples)


def save_triples(triples: UserTripleSet, path):
    with atomic_writer(path) as f:
        for a, b, user in sorted(triples.triples):
            f.write(f"{a}\t{b}\t{user}\n")


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
