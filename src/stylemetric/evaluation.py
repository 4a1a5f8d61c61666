"""Link-prediction evaluation: threshold-rule scoring and the model digest.

The decision rule everywhere is the probability threshold 0.5, which by
monotonicity of the shifted sigmoid is exactly the distance rule d < c; ties
(d == c) are classified unrelated.
"""

import hashlib
from dataclasses import dataclass

import numpy as np

from .catalog import MetricModel
from .metric import model_distances
from .sampling import LabeledPairSet, _pair_arrays, _users_for_model

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
    i_idx, j_idx, labels, users = _pair_arrays(pairs, features)
    users = _users_for_model(model, pairs, users)
    d = model_distances(model, features, i_idx, j_idx, users)
    pred = d < model.threshold
    tp = int(np.sum(pred & labels))
    tn = int(np.sum(~pred & ~labels))
    fp = int(np.sum(pred & ~labels))
    fn = int(np.sum(~pred & labels))
    total = len(labels)
    partition = pairs.partition if isinstance(pairs, LabeledPairSet) else "all"
    return EvalReport((tp + tn) / total if total else 0.0, tp, tn, fp, fn, total,
                      model_digest(model), partition, model.kind, model.rank)

