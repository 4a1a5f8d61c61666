"""Spans around calls into the program's layers, recorded from outside it.

Each wrapped function records one span per call: name, start, end, the span
that was open when it was called, and the request (outermost span) it belongs
to. Spans stay in memory until the run writes them out. A layer's self time is
its span durations minus the time its child spans cover.

Modules import kernels by name (``from .metric import project_rows``), so a
function is patched by identity in every ``stylemetric.*`` module that binds
it. A layer a later refactor removes is reported as absent, not as an error.
"""

import importlib
import inspect
import math
import os
import sys
import time
from collections import defaultdict
from contextlib import contextmanager

# (layer, module, attribute, {counter metric: f(bound arguments, result)})
LAYERS = [
    ("training.train", "stylemetric.training", "train",
     {"training.iterations": lambda a, r: r[1].iterations}),
    ("training.train_personalized", "stylemetric.training", "train_personalized",
     {"training.iterations": lambda a, r: r[1].iterations}),
    ("training.value_and_grad", "stylemetric.training", "_Objective.value_and_grad", {}),
    ("training.loglik", "stylemetric.training", "_Objective.loglik", {}),
    ("parallel.map_reduce_blocks", "stylemetric.parallel", "map_reduce_blocks",
     {"parallel.map_reduce_blocks.blocks":
      lambda a, r: max(1, math.ceil(a["n"] / a["block_size"]))}),
    ("metric.project_rows", "stylemetric.metric", "project_rows",
     {"metric.project_rows.rows": lambda a, r: len(r)}),
    ("metric.model_distances", "stylemetric.metric", "model_distances",
     {"metric.model_distances.pairs": lambda a, r: len(r)}),
    ("metric.pair_distances_style", "stylemetric.metric", "pair_distances_style", {}),
    ("recommend.rank_candidates", "stylemetric.recommend", "rank_candidates", {}),
    ("recommend.build_outfit", "stylemetric.recommend", "build_outfit", {}),
    ("recommend.outfit_coherence", "stylemetric.recommend", "outfit_coherence", {}),
    ("stylespace.navigate", "stylemetric.stylespace", "navigate", {}),
    ("stylespace._knn_graph", "stylemetric.stylespace", "_knn_graph", {}),
    ("stylespace.kmeans", "stylemetric.stylespace", "kmeans",
     {"stylespace.kmeans.iterations": lambda a, r: len(r.objective_trace)}),
    ("stylespace._nearest", "stylemetric.stylespace", "_nearest", {}),
    ("stylespace.embed_all", "stylemetric.stylespace", "embed_all", {}),
    ("stylespace.save_embedding", "stylemetric.stylespace", "save_embedding", {}),
    ("stylespace.save_clustering", "stylemetric.stylespace", "save_clustering", {}),
    ("synthetic.generate", "stylemetric.synthetic", "generate", {}),
    ("sampling.graph_to_pairs", "stylemetric.sampling", "graph_to_pairs", {}),
    ("sampling.sample_negatives", "stylemetric.sampling", "sample_negatives", {}),
    ("sampling.split", "stylemetric.sampling", "split", {}),
    ("sampling.save_pairs", "stylemetric.sampling", "save_pairs", {}),
    ("sampling.load_pairs", "stylemetric.sampling", "load_pairs", {}),
    ("catalog.load_features", "stylemetric.catalog", "load_features",
     {"catalog.load_features.mb": lambda a, r: os.path.getsize(a["path"]) / 2**20}),
    ("catalog.save_features", "stylemetric.catalog", "save_features", {}),
    ("catalog.save_edges", "stylemetric.catalog", "save_edges", {}),
    ("catalog.load_edges", "stylemetric.catalog", "load_edges", {}),
    ("evaluation.evaluate", "stylemetric.evaluation", "evaluate",
     {"evaluation.evaluate.pairs": lambda a, r: r.n_pairs}),
]


class Tracer:
    """In-memory spans and counters; install() patches, uninstall() restores."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index, request index]
        self.counts = defaultdict(float)
        self.absent = set()
        self._stack = []
        self._patches = []

    @contextmanager
    def span(self, name):
        index = self._open(name)
        try:
            yield
        finally:
            self._close(index)

    def _open(self, name):
        parent = self._stack[-1] if self._stack else -1
        index = len(self.spans)
        request = self.spans[parent][4] if parent >= 0 else index
        self.spans.append([name, time.perf_counter(), None, parent, request])
        self._stack.append(index)
        return index

    def _close(self, index):
        self.spans[index][2] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, layer, fn, counters):
        signature = inspect.signature(fn)
        tracer = self

        def traced(*args, **kwargs):
            index = tracer._open(layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(index)
            tracer.counts[f"{layer}.calls"] += 1
            if counters:
                try:
                    bound = signature.bind(*args, **kwargs)
                    bound.apply_defaults()
                    arguments = bound.arguments
                except TypeError:
                    arguments = {}
                for key, count in counters.items():
                    try:
                        tracer.counts[key] += count(arguments, result)
                    except (AttributeError, KeyError, TypeError, IndexError):
                        tracer.absent.add(key)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self):
        importlib.import_module("stylemetric.cli")  # binds every module's names
        modules = [m for name, m in sys.modules.items()
                   if name == "stylemetric" or name.startswith("stylemetric.")]
        for layer, module_name, attr, counters in LAYERS:
            try:
                owner = importlib.import_module(module_name)
                *path, name = attr.split(".")
                for part in path:
                    owner = getattr(owner, part)
                original = getattr(owner, name)
            except (ImportError, AttributeError):
                self.absent.update([layer, *counters])
                continue
            wrapper = self._wrap(layer, original, counters)
            if path:
                self._patch(owner, name, original, wrapper)
                continue
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, key, original, wrapper)

    def _patch(self, owner, name, original, wrapper):
        setattr(owner, name, wrapper)
        self._patches.append((owner, name, original))

    def uninstall(self):
        while self._patches:
            owner, name, original = self._patches.pop()
            setattr(owner, name, original)

    def self_times(self):
        """Per layer: summed span duration minus time covered by child spans."""
        own = [end - start for _, start, end, _, _ in self.spans]
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                own[parent] -= end - start
        out = defaultdict(float)
        for (name, *_), seconds in zip(self.spans, own):
            out[name] += seconds
        return out

