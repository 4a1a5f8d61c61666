"""Recommendation, outfit assembly, and outfit-coherence scoring.

Everything here reduces to distances from metric.model_distances plus the
link probability, so rankings by probability and by ascending distance are
the same ordering. A query's items are looked up in the catalog and their
distances read from its style table: a row is normalized and projected once
per catalog and transform, the first time any query or evaluation needs it.
"""

from dataclasses import dataclass

import numpy as np

from .catalog import DataError, FeatureMatrix, MetricModel
from .metric import link_probability, log_link_probability, model_distances


@dataclass
class OutfitScore:
    items: list
    mean_pair_loglik: float
    pair_count: int


def _distances(model: MetricModel, features: FeatureMatrix, items,
               i_idx, j_idx) -> np.ndarray:
    """Distances under the model between pairs (i, j) of positions in items."""
    idx = features.indices_of(items)
    return model_distances(model, features, idx.take(i_idx), idx.take(j_idx))


def _distances_to_query(model: MetricModel, features: FeatureMatrix,
                        query_item: str, candidates) -> np.ndarray:
    n = len(candidates)
    return _distances(model, features, [query_item, *candidates],
                      np.zeros(n, dtype=np.int64), np.arange(1, n + 1))


def rank_candidates(model: MetricModel, features: FeatureMatrix,
                    query_item: str, candidates):
    """All candidates as (item, distance, probability), nearest first.

    Sorted by ascending distance with ties broken by item id; by sigmoid
    monotonicity this is also descending probability. The query must not be
    among the candidates.
    """
    candidates = list(candidates)
    if not candidates:
        raise DataError("no candidates to rank")
    if query_item in candidates:
        raise DataError("query item must be excluded from the candidate set")
    d = _distances_to_query(model, features, query_item, candidates)
    # A stable argsort puts the candidates in distance order; sorted then only
    # orders equal distances by item id, in about one pass over its input.
    order = np.argsort(d, kind="stable")
    d = d[order]
    ranked = sorted(zip(d.tolist(), map(candidates.__getitem__, order.tolist())))
    probs = link_probability(d, model.threshold)
    return [(item, dist, prob) for (dist, item), prob in zip(ranked, probs.tolist())]


def build_outfit(model: MetricModel, features: FeatureMatrix, query_item: str,
                 categories) -> list:
    """Pick the most query-compatible item from each category, independently.

    categories is a sequence of item-id collections, one per wardrobe slot;
    none may contain the query item (a slot for the query's own category makes
    no sense) and none may be empty. Returns one item id per category, in the
    order given. Each pick is its slot's smallest (distance, item id), the
    first item rank_candidates would give for that slot alone; one distance
    call covers the members of every slot.
    """
    slots = [list(members) for members in categories]
    for pos, members in enumerate(slots):
        if not members:
            raise DataError(f"category {pos} is empty")
        if query_item in members:
            raise DataError(f"category {pos} contains the query item")
    members = [item for slot in slots for item in slot]
    d = _distances_to_query(model, features, query_item, members)
    picks, lo = [], 0
    for slot in slots:
        dist = d[lo:lo + len(slot)]
        ties = np.flatnonzero(dist == dist.min()).tolist()
        picks.append(min(slot[t] for t in ties))
        lo += len(slot)
    return picks


def outfit_coherence(model: MetricModel, features: FeatureMatrix, items,
                     normalize: str = "pairs") -> OutfitScore:
    """Mean log link-likelihood over all unordered pairs of outfit members.

    normalize "pairs" (the default) divides the summed pair log-likelihoods
    by the number of pairs; "components" divides by the number of items
    instead. Both are order-invariant; only "pairs" is size-unbiased.
    """
    items = list(items)
    if len(items) < 2:
        raise DataError("an outfit needs at least 2 items")
    if normalize not in ("pairs", "components"):
        raise DataError(f"unknown normalization: {normalize!r}")
    n = len(items)
    d = _distances(model, features, items, *np.triu_indices(n, k=1))
    logliks = log_link_probability(d, model.threshold)
    # Summing in sorted order makes the score exactly invariant to the order
    # the items were listed in, not merely up to rounding.
    total = float(np.sum(np.sort(logliks)))
    denom = len(logliks) if normalize == "pairs" else n
    return OutfitScore(items, total / denom, len(logliks))


def makeover_delta(model: MetricModel, features: FeatureMatrix,
                   before_items, after_items, normalize: str = "pairs") -> float:
    """Coherence change from an outfit makeover; positive means improvement."""
    before = outfit_coherence(model, features, before_items, normalize)
    after = outfit_coherence(model, features, after_items, normalize)
    return after.mean_pair_loglik - before.mean_pair_loglik
