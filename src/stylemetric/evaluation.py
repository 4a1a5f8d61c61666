"""Link-prediction evaluation and the two non-metric baselines.

The decision rule everywhere is the probability threshold 0.5, which by
monotonicity of the shifted sigmoid is exactly the distance rule d < c; ties
(d == c) are classified unrelated.
"""

import hashlib
from dataclasses import dataclass, replace

import numpy as np

from .catalog import CategoryMap, DataError, MetricModel, RelationGraph
from .metric import model_distances
from .sampling import LabeledPairSet
from .training import TrainConfig, _pair_arrays, _users_for_model, train

EVAL_TSV_HEADER = "kind\trank\tpartition\tpairs\taccuracy\ttp\ttn\tfp\tfn\tmodel_digest"


def model_digest(model: MetricModel) -> str:
    """Short content hash of a model's parameters, for report provenance."""
    h = hashlib.sha256()
    h.update(model.kind.encode())
    h.update(np.asarray(model.transform.shape, dtype=np.int64).tobytes())
    h.update(model.transform.tobytes())
    h.update(np.float64(model.threshold).tobytes())
    if model.user_weights is not None:
        h.update("\x00".join(model.user_ids).encode())
        h.update(model.user_weights.tobytes())
    return h.hexdigest()[:16]


@dataclass
class EvalReport:
    accuracy: float
    tp: int
    tn: int
    fp: int
    fn: int
    n_pairs: int
    model_digest: str
    partition: str
    kind: str = ""
    rank: int = 0

    def tsv_line(self) -> str:
        return (f"{self.kind}\t{self.rank}\t{self.partition}\t{self.n_pairs}\t"
                f"{self.accuracy:.6f}\t{self.tp}\t{self.tn}\t{self.fp}\t{self.fn}\t"
                f"{self.model_digest}")

    def text_block(self) -> str:
        return (f"partition: {self.partition}\n"
                f"model: {self.kind} rank={self.rank} digest={self.model_digest}\n"
                f"pairs: {self.n_pairs}\n"
                f"accuracy: {self.accuracy:.6f}\n"
                f"tp: {self.tp}  tn: {self.tn}  fp: {self.fp}  fn: {self.fn}\n")


def evaluate(model: MetricModel, features, pairs) -> EvalReport:
    """Confusion counts and accuracy of the d < c rule on a labeled pair set."""
    X = features.normalized(model.feature_norm).values
    i_idx, j_idx, labels, users = _pair_arrays(pairs, features)
    users = _users_for_model(model, pairs, users)
    d = model_distances(model, X, i_idx, j_idx, users)
    pred = d < model.threshold
    tp = int(np.sum(pred & labels))
    tn = int(np.sum(~pred & ~labels))
    fp = int(np.sum(pred & ~labels))
    fn = int(np.sum(~pred & labels))
    total = len(labels)
    partition = pairs.partition if isinstance(pairs, LabeledPairSet) else "all"
    return EvalReport((tp + tn) / total if total else 0.0, tp, tn, fp, fn, total,
                      model_digest(model), partition, model.kind, model.rank)


def fit_wnn(config: TrainConfig, features, pairs, progress=None):
    """Train the per-feature-weight baseline with the shared likelihood machinery."""
    wnn_config = replace(config, kind="weighted_nn")
    return train(wnn_config, features, pairs, progress=progress)


class CTPredictor:
    """Category co-occurrence baseline.

    For each category the predictor keeps a "linked" set: the most frequent
    partner categories, truncated at half. A pair is predicted related when
    either endpoint's category is in the other's linked set.
    """

    def __init__(self, linked: dict, categories: CategoryMap):
        self.linked = {cat: frozenset(parts) for cat, parts in linked.items()}
        self.categories = categories

    def linked_categories(self, category_id: str) -> frozenset:
        return self.linked.get(category_id, frozenset())


def fit_ct(categories: CategoryMap, train_graph: RelationGraph,
           mode: str = "category_count") -> CTPredictor:
    """Build the category-tree baseline from training edges only.

    mode "category_count" keeps, per category, the smallest most-frequent
    prefix covering at least half of its distinct partner categories;
    "count_mass" keeps the smallest prefix covering at least half of the
    total co-occurrence count. Ties in frequency break by category id.
    """
    if mode not in ("category_count", "count_mass"):
        raise DataError(f"unknown category-tree mode: {mode!r}")
    counts: dict = {}
    for a, b, _ in train_graph.edges:
        ca, cb = categories.category(a), categories.category(b)
        counts.setdefault(ca, {}).setdefault(cb, 0)
        counts[ca][cb] += 1
        if ca != cb:
            counts.setdefault(cb, {}).setdefault(ca, 0)
            counts[cb][ca] += 1
    linked = {}
    for cat, partners in counts.items():
        ranked = sorted(partners.items(), key=lambda kv: (-kv[1], kv[0]))
        if mode == "category_count":
            keep = (len(ranked) + 1) // 2
        else:
            total = sum(n for _, n in ranked)
            mass = 0
            keep = 0
            for _, n in ranked:
                if 2 * mass >= total:
                    break
                mass += n
                keep += 1
        linked[cat] = {partner for partner, _ in ranked[:keep]}
    return CTPredictor(linked, categories)


def predict_ct(predictor: CTPredictor, item_i: str, item_j: str) -> bool:
    """Related iff either item's category is linked from the other's."""
    ci = predictor.categories.category(item_i)
    cj = predictor.categories.category(item_j)
    return cj in predictor.linked_categories(ci) or ci in predictor.linked_categories(cj)
