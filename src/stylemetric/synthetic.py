"""Synthetic catalogs with a planted low-rank metric.

The generator samples i.i.d. standard normal features, plants a ground-truth
transform Y*, and labels the closest pairs under the planted metric as
related. Because the planted rule is evaluated through the same distance
kernels the rest of the package uses, a model holding (Y*, c*) reproduces the
noise-free labels exactly, which is what makes the generator its own oracle.
The closest pairs are selected in one blocked pass over the upper triangle,
so no table of all N(N-1)/2 pairs is ever built.

Modes:

* axis_aligned: Y* selects the first K* coordinates. A per-feature weight
  vector can represent the rule, so the diagonal baseline is competitive.
* cross_feature: each of the K* columns of Y* is a 45-degree rotation
  difference of a coordinate pair, (e_{2k} - e_{2k+1})/sqrt(2). The rule then
  keys on coordinates moving together, which no per-feature weighting can
  express; near the selective thresholds used here the diagonal baseline is
  blind to it.
* two_population_users: axis-aligned base metric plus synthetic users, each
  attending to one of two disjoint halves of the style dimensions; emits
  per-user co-purchase triples for personalization experiments.
"""

from dataclasses import dataclass, field

import numpy as np

from . import MODES
from .catalog import (RELATION_CLASSES, FeatureMatrix, MetricModel, RelationGraph,
                      UserTripleSet)
from .metric import pair_distances_style, pair_terms, project_rows
from .sampling import MIN_PURCHASES, PAIRS_PER_USER

_USER_THRESHOLD_QUANTILE = 0.10
_USER_CANDIDATE_DRAWS = 4096
# Pairs per step of generate's pass over the upper triangle. It bounds the
# pass's temporary memory and never changes a result.
_TRIU_BLOCK = 1 << 16


@dataclass
class SynthConfig:
    n_items: int
    n_features: int
    true_rank: int
    n_edges: int
    noise: float = 0.0
    mode: str = "axis_aligned"
    seed: int = 0
    c_star: float | None = None  # None: set so exactly n_edges pairs fall inside

    def validate(self):
        if self.n_items < 2:
            raise ValueError("need at least 2 items")
        if self.n_features < 1:
            raise ValueError("need at least 1 feature")
        if not 1 <= self.true_rank <= self.n_features:
            raise ValueError("true_rank must lie in [1, n_features]")
        universe = self.n_items * (self.n_items - 1) // 2
        if not 1 <= self.n_edges < universe:
            raise ValueError(f"n_edges must lie in [1, {universe})")
        if not 0.0 <= self.noise < 0.5:
            raise ValueError("noise must lie in [0, 0.5)")
        if self.mode not in MODES:
            raise ValueError(f"unknown mode: {self.mode!r}")
        if self.mode == "cross_feature" and 2 * self.true_rank > self.n_features:
            raise ValueError("cross_feature needs n_features >= 2 * true_rank")
        if self.mode == "two_population_users":
            if self.true_rank < 2:
                raise ValueError("two_population_users needs true_rank >= 2")
            if self.n_edges < PAIRS_PER_USER:
                raise ValueError(
                    f"two_population_users needs n_edges >= {PAIRS_PER_USER} "
                    "(one user's worth of pairs)"
                )


@dataclass
class SynthResult:
    features: FeatureMatrix
    graph: RelationGraph
    transform: np.ndarray  # planted Y* (F, K*)
    threshold: float  # planted (possibly auto-adjusted) c*
    triples: UserTripleSet | None = None
    info: dict = field(default_factory=dict)

    def ground_truth_model(self) -> MetricModel:
        return MetricModel("low_rank", self.transform, self.threshold,
                           metadata={"feature_norm": "none", "planted": True})


def _planted_transform(config: SynthConfig) -> np.ndarray:
    F, K = config.n_features, config.true_rank
    Y = np.zeros((F, K))
    if config.mode == "cross_feature":
        r = 1.0 / np.sqrt(2.0)
        for k in range(K):
            Y[2 * k, k] = r
            Y[2 * k + 1, k] = -r
    else:
        for k in range(K):
            Y[k, k] = 1.0
    return Y


def _item_ids(n: int):
    width = len(str(n - 1))
    return [f"i{idx:0{width}d}" for idx in range(n)]


def _row_starts(n: int) -> np.ndarray:
    """Linear index of pair (i, i+1) in row-major upper-triangle order.

    starts[i] = i(2n - i - 1)/2 in exact int64 arithmetic; starts[n-1] is the
    pair count, so row i holds the linear indices [starts[i], starts[i+1]).
    """
    i = np.arange(n, dtype=np.int64)
    return i * (2 * n - i - 1) // 2


def _triu_pairs(t, starts: np.ndarray):
    """Map linear upper-triangle indices t to their (i, j), exactly."""
    i = np.searchsorted(starts, t, side="right") - 1
    return i, t - starts[i] + i + 1


def _triu_distance_blocks(S: np.ndarray, starts: np.ndarray):
    """Yield (t0, d) for consecutive _TRIU_BLOCK-pair runs of the upper triangle.

    d[k] is the planted distance of linear pair t0 + k. Each row's share of a
    block is one pair_terms call on the row slice S[j0:j1], which gives the
    same bits as the gathered index pairs would.
    """
    rows = starts.tolist()
    n_pairs = rows[-1]
    i = 0
    for t0 in range(0, n_pairs, _TRIU_BLOCK):
        t1 = min(t0 + _TRIU_BLOCK, n_pairs)
        parts = []
        t = t0
        while t < t1:
            while rows[i + 1] <= t:
                i += 1
            stop = min(t1, rows[i + 1])
            j0 = t - rows[i] + i + 1
            parts.append(pair_terms(S, i, slice(j0, j0 + stop - t))[2])
            t = stop
        yield t0, parts[0] if len(parts) == 1 else np.concatenate(parts)


def _smallest(d: np.ndarray, t: np.ndarray, keep: int):
    if len(d) <= keep:
        return d, t
    idx = np.argpartition(d, keep - 1)[:keep]
    return d[idx], t[idx]


def _scan_planted_distances(S: np.ndarray, starts: np.ndarray, keep: int, c_star):
    """One pass over the upper triangle, holding no pair table.

    Returns the `keep` smallest distances with their linear indices (ties at
    the largest kept value are broken arbitrarily) and, for an explicit
    c_star, the number of pairs with d < c_star. The selection buffers
    candidates and drops every distance above the current keep-th smallest,
    so it holds at most about 2 * keep pairs.
    """
    buf_d, buf_t, held = [], [], 0
    cutoff = np.inf
    below = 0
    for t0, d in _triu_distance_blocks(S, starts):
        if c_star is not None:
            below += int(np.count_nonzero(d < c_star))
        hit = np.flatnonzero(d < cutoff)
        buf_d.append(d[hit])
        buf_t.append(t0 + hit)
        held += len(hit)
        if held >= 2 * keep:
            small_d, small_t = _smallest(np.concatenate(buf_d), np.concatenate(buf_t), keep)
            cutoff = small_d.max()
            buf_d, buf_t, held = [small_d], [small_t], keep
    small_d, small_t = _smallest(np.concatenate(buf_d), np.concatenate(buf_t), keep)
    return small_d, small_t, below


def _pairs_below_at(S: np.ndarray, starts: np.ndarray, c_star: float, ranks: np.ndarray):
    """Linear indices of the pairs with d < c_star at the given ascending ranks.

    Rank r is the r-th such pair in linear order. A second pass over the
    upper triangle counts them off, so it holds one block and the answer.
    """
    out, seen, lo = [], 0, 0
    for t0, d in _triu_distance_blocks(S, starts):
        hit = np.flatnonzero(d < c_star)
        hi = int(np.searchsorted(ranks, seen + len(hit)))
        out.append(t0 + hit[ranks[lo:hi] - seen])
        seen, lo = seen + len(hit), hi
        if lo == len(ranks):
            break
    return np.concatenate(out)


def generate(config: SynthConfig) -> SynthResult:
    """Sample a catalog, plant a metric, and emit labeled relationships.

    The threshold c* defaults to the (n_edges+1)-th smallest planted distance,
    so that exactly n_edges pairs satisfy d < c* and the emitted edge set is
    precisely the planted rule's positive set. An explicit c* that admits too
    few positives is adjusted the same way (and recorded in info); one that
    admits more than n_edges leads to uniform subsampling of the positives.

    With noise > 0, a Binomial(n_edges, noise) number of emitted edges are
    swapped for uniformly drawn rule-negative pairs, so the edge list keeps
    its size while that fraction of labels contradicts the planted rule.
    When fewer rule-negative pairs exist than flips (a loose explicit c*, or
    n_edges close to the pair count), generate raises ValueError.

    The planted distances are computed in one blocked pass over the upper
    triangle that keeps only the n_edges+1 smallest (and, for an explicit c*,
    counts the pairs below it), so memory grows with n_edges rather than with
    the N(N-1)/2 pairs. When more than n_edges pairs lie below c*, a second
    pass maps the drawn ranks among them to pairs. Pairs are numbered by
    their row-major upper-triangle index t, and a flip draw maps t to (i, j)
    and computes that one pair's distance, with the same bits as the pass.
    """
    config.validate()
    rng = np.random.default_rng(config.seed)
    N, F, E = config.n_items, config.n_features, config.n_edges
    X = rng.standard_normal((N, F))
    item_ids = _item_ids(N)
    features = FeatureMatrix(item_ids, X)
    Y = _planted_transform(config)
    S = project_rows(X, Y)

    info = {"mode": config.mode, "requested_c_star": config.c_star}
    if config.mode == "two_population_users":
        return _generate_two_population(config, features, Y, S, info)

    starts = _row_starts(N)
    n_pairs = int(starts[-1])
    explicit = None if config.c_star is None else float(config.c_star)
    small_d, small_t, rule_count = _scan_planted_distances(S, starts, E + 1, explicit)
    if explicit is not None and rule_count >= E:
        c_star = explicit
        info["c_star_source"] = "explicit"
    else:
        # the (E+1)-th smallest distance
        c_star = float(small_d.max())
        info["c_star_source"] = ("fit_to_edge_count" if explicit is None
                                 else "adjusted_up_to_edge_count")
    if rule_count > E:
        sel = rng.choice(rule_count, size=E, replace=False)
        chosen = _pairs_below_at(S, starts, c_star, np.sort(sel))
    else:
        # at most E pairs lie below c_star, so all of them are in small_t
        chosen = np.sort(small_t[small_d < c_star])
        rule_count = len(chosen)
    info["rule_positive_count"] = rule_count

    flip_count = int(rng.binomial(E, config.noise)) if config.noise > 0.0 else 0
    rule_neg_count = n_pairs - rule_count
    if flip_count > rule_neg_count:
        raise ValueError(
            f"c_star {c_star} leaves {rule_neg_count} rule-negative pairs, "
            f"fewer than the {flip_count} noise flips"
        )
    used = set(chosen.tolist())
    if flip_count:
        flip_at = rng.choice(E, size=flip_count, replace=False)
        for pos in flip_at:
            while True:
                t = int(rng.integers(0, n_pairs))
                if t in used:
                    continue
                i, j = _triu_pairs(t, starts)
                if pair_distances_style(S, [i], [j])[0] >= c_star:
                    used.add(t)
                    chosen[pos] = t
                    break
    info["flip_count"] = flip_count

    graph = RelationGraph(item_ids, np.stack(_triu_pairs(chosen, starts), axis=1),
                          np.full(len(chosen), RELATION_CLASSES.index("also_bought")))
    info["c_star_used"] = c_star
    return SynthResult(features, graph, Y, c_star, None, info)


def _generate_two_population(config, features, Y, S, info):
    """Users in two populations, each watching half of the style dimensions.

    Each user's co-purchases are pairs close under their masked style metric,
    with the personal threshold at the 10% quantile of that user's candidate
    distances. n_edges is realized as (n_edges // PAIRS_PER_USER) users with
    PAIRS_PER_USER pairs each, and each user must touch MIN_PURCHASES items,
    the per-user dataset's constants in sampling. The per-user generators are
    derived from (seed, salt, user index) so user blocks are independent of
    processing order.
    """
    N = config.n_items
    K = config.true_rank
    item_ids = features.item_ids
    n_users = config.n_edges // PAIRS_PER_USER
    half = K // 2
    masks = np.zeros((2, K))
    masks[0, :half] = 1.0
    masks[1, half:] = 1.0
    width = len(str(n_users - 1))
    flip_total = 0
    user_thresholds = []
    pairs = []  # per user, (lo, hi) with lo < hi
    for uidx in range(n_users):
        urng = np.random.default_rng(np.random.SeedSequence([config.seed, 101, uidx]))
        mask = masks[uidx % 2]
        user = f"u{uidx:0{width}d}"
        a = urng.integers(0, N, size=_USER_CANDIDATE_DRAWS)
        b = urng.integers(0, N, size=_USER_CANDIDATE_DRAWS)
        keep = a != b
        cand_d = pair_distances_style(S, a[keep], b[keep], mask)
        c_u = float(np.quantile(cand_d, _USER_THRESHOLD_QUANTILE))
        user_thresholds.append(c_u)
        flips = int(urng.binomial(PAIRS_PER_USER, config.noise)) if config.noise > 0 else 0
        flip_total += flips
        quota = [PAIRS_PER_USER - flips, flips]  # [rule-positive, rule-negative]
        got = [0, 0]
        mine: dict = {}  # the user's pairs, in draw order
        while got[0] < quota[0] or got[1] < quota[1]:
            p = int(urng.integers(0, N))
            q = int(urng.integers(0, N))
            if p == q:
                continue
            pair = (p, q) if p < q else (q, p)
            if pair in mine:
                continue
            du = float(pair_distances_style(S, [pair[0]], [pair[1]], mask)[0])
            bucket = 0 if du < c_u else 1
            if got[bucket] >= quota[bucket]:
                continue
            got[bucket] += 1
            mine[pair] = None
        pairs.append(list(mine))
        items_touched = {item for pair in mine for item in pair}
        if len(items_touched) < MIN_PURCHASES:
            raise ValueError(
                f"user {user} touches only {len(items_touched)} distinct items; "
                f"increase n_items so users meet the {MIN_PURCHASES}-purchase floor"
            )
    user_ids = [f"u{uidx:0{width}d}" for uidx in range(n_users)]
    triple_set = UserTripleSet(item_ids, np.concatenate(pairs),
                               user_ids, np.repeat(np.arange(n_users), PAIRS_PER_USER))
    keys = np.unique(triple_set.pairs[:, 0] * np.int64(N) + triple_set.pairs[:, 1])
    graph = RelationGraph(item_ids, np.stack([keys // N, keys % N], axis=1),
                          np.full(len(keys), RELATION_CLASSES.index("bought_together")))
    c_star = float(np.median(np.asarray(user_thresholds)))
    info.update({
        "n_users": n_users,
        "pairs_per_user": PAIRS_PER_USER,
        "user_thresholds": user_thresholds,
        "flip_count": flip_total,
        "c_star_used": c_star,
        "c_star_source": "median_user_threshold",
        "population_masks": masks.tolist(),
    })
    return SynthResult(features, graph, Y, c_star, triple_set, info)
