"""Command-line entry point.

One executable with subcommands, sharing seed/manifest plumbing:
data preparation (synth, sample, split), fitting (train, train-personalized),
measurement (eval), and style-space applications (embed, cluster, navigate,
recommend, build-outfit, score-outfit, makeover-delta).

Exit codes: 0 success, 1 usage error, 2 data or validation error. Every
output replaces its file atomically, and every command that writes files
also writes a run_manifest.json next to them with input digests, the parsed
arguments, and wall time, so a run can be reproduced exactly.

Start-up is kept off each command's path. Building the parser imports no
numpy and no other module of the package: each handler imports the layers
it runs. Every flag that names an input file is declared with _add_input;
when the command writes a manifest, main opens those files before the
handler starts and hashes the open files after it ends, so each digest is
of the file the command read even when the command replaces it.
"""

import argparse
import hashlib
import io
import os
import sys
import time

from . import FEATURE_NORMS, MODES, DataError, TrainingError

_HASH_BLOCK = 1 << 20


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on usage errors; the contract here is exit 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _positive_int(raw):
    value = int(raw)
    if value < 1:
        raise argparse.ArgumentTypeError(f"{value} is not a positive integer")
    return value


def _nonneg_int(raw):
    value = int(raw)
    if value < 0:
        raise argparse.ArgumentTypeError(f"{value} is negative")
    return value


def _open_inputs(args):
    """{path: open binary file} of the input files the subcommand declared,
    opened before it runs, when it writes a manifest. A path that cannot be
    opened maps to its OSError, left for the command's own loader to report."""
    files = {}
    if args.out:
        for path in dict.fromkeys(_input_paths(args)):
            try:
                files[path] = open(path, "rb")
            except OSError as exc:
                files[path] = exc
    return files


def _digest(f) -> str:
    if isinstance(f, OSError):
        raise f
    h = hashlib.sha256()
    for block in iter(lambda: f.read(_HASH_BLOCK), b""):
        h.update(block)
    return h.hexdigest()


def _input_paths(args):
    """The paths of the input flags the subcommand declared, in declaration order."""
    paths = []
    for dest, separator in getattr(args, "inputs", ()):
        value = getattr(args, dest)
        if value is not None:
            paths += value.split(separator) if separator else [value]
    return paths


def _write_manifest(args, inputs, outputs, wall_time):
    from .catalog import write_json

    config = {key: value for key, value in sorted(vars(args).items())
              if key not in ("func", "inputs")}
    manifest = {
        "subcommand": args.subcommand,
        "config": config,
        "inputs": {path: _digest(f) for path, f in inputs.items()},
        "outputs": [os.path.basename(str(p)) for p in outputs],
        "seed": getattr(args, "seed", None),
        "wall_time": wall_time,
    }
    write_json(os.path.join(args.out, "run_manifest.json"), manifest)


def _ensure_out(args):
    os.makedirs(args.out, exist_ok=True)
    return args.out


def _write_optional(args, name, text):
    """Write text to <out>/name when --out was given; returns the paths written."""
    from .catalog import atomic_writer

    if not args.out:
        return []
    path = os.path.join(_ensure_out(args), name)
    with atomic_writer(path) as f:
        f.write(text)
    return [path]


def _read_id_list(path):
    """Item ids, one per line; surrounding whitespace is ignored."""
    from .catalog import read_chunks

    items = []
    for chunk in read_chunks(path, 1):
        chunk.raise_error()
        items += (item.strip() for item in chunk.columns(1)[0])
    return [item for item in items if item]


def _train_config_from_args(args):
    """TrainConfig from the flags; a flag left unset keeps the default."""
    from .training import TrainConfig

    settings = {}
    for flag, field in (("kind", "kind"), ("rank", "rank"),
                        ("max_iter", "max_iterations"), ("tolerance", "tolerance"),
                        ("init_scale", "init_scale"), ("feature_norm", "feature_norm"),
                        ("c0", "c0"), ("l2_penalty", "l2_penalty")):
        value = getattr(args, flag, None)
        if value is not None:
            settings[field] = value
    config = TrainConfig(seed=args.seed, **settings)
    config.validate()
    return config


def _train_outputs(args, fit):
    """Run fit(config, features, pairs, progress=log) and write its model,
    report and log; shared by train and train-personalized."""
    from .catalog import atomic_writer, load_features, save_model, write_json
    from .sampling import load_pairs

    out = _ensure_out(args)
    features = load_features(args.features)
    pairs = load_pairs(args.pairs, features)
    log = io.StringIO()
    model, report = fit(_train_config_from_args(args), features, pairs, progress=log)
    model_path = os.path.join(out, "model.bin")
    save_model(model, model_path)
    report_path = os.path.join(out, "train_report.json")
    write_json(report_path, {
        "trace": report.trace,
        "train_accuracy": report.train_accuracy,
        "iterations": report.iterations,
        "termination": report.termination,
    })
    log_path = os.path.join(out, "train_log.tsv")
    with atomic_writer(log_path) as f:
        f.write(log.getvalue())
    print(f"final log-likelihood {report.trace[-1]:.6f}, "
          f"train accuracy {report.train_accuracy:.4f}, "
          f"{report.iterations} iterations ({report.termination})")
    return [model_path, report_path, log_path]


# ---------------------------------------------------------------------------
# subcommand handlers; each imports the layers it runs and returns the paths
# it wrote


def _cmd_synth(args):
    from .catalog import save_edges, save_features, save_model, save_triples, write_json
    from .synthetic import SynthConfig, generate

    out = _ensure_out(args)
    config = SynthConfig(args.n, args.f, args.k, args.edges, args.noise,
                         args.mode, args.seed, args.c_star)
    try:
        result = generate(config)
    except ValueError as exc:
        raise DataError(str(exc)) from exc
    features_path = os.path.join(out, "features.tsv")
    edges_path = os.path.join(out, "edges.tsv")
    model_path = os.path.join(out, "ground_truth.model")
    info_path = os.path.join(out, "synth_info.json")
    save_features(result.features, features_path)
    save_edges(result.graph, edges_path)
    save_model(result.ground_truth_model(), model_path)
    outputs = [features_path, edges_path, model_path, info_path]
    if result.triples is not None:
        triples_path = os.path.join(out, "triples.tsv")
        save_triples(result.triples, triples_path)
        outputs.append(triples_path)
    write_json(info_path, result.info)
    return outputs


def _cmd_sample(args):
    import numpy as np

    from .catalog import load_edges, load_features, load_triples
    from .sampling import (LabeledPairSet, build_user_dataset, graph_to_pairs,
                           sample_negatives, save_pairs)

    out = _ensure_out(args)
    features = load_features(args.features)
    class_filter = args.classes.split(",") if args.classes else None
    # With --triples the graph goes unused, but a corrupt edge file still
    # fails the command: the edge file is one of its inputs.
    graph = load_edges(args.edges, class_filter, features)
    if args.triples:
        triples = load_triples(args.triples, features)
        pairs = build_user_dataset(triples, features, args.seed)
    else:
        pos = graph_to_pairs(graph, features)
        neg = sample_negatives(pos, features.n_items, args.seed)
        labels = np.repeat([True, False], len(pos))
        pairs = LabeledPairSet(features.item_ids, np.concatenate([pos, neg]), labels, "all")
    pairs_path = os.path.join(out, "pairs.tsv")
    save_pairs(pairs, pairs_path)
    return [pairs_path]


def _cmd_split(args):
    from .catalog import load_features
    from .sampling import load_pairs, save_pairs, split

    out = _ensure_out(args)
    features = load_features(args.features)
    pairs = load_pairs(args.pairs, features)
    parts = split(pairs, args.seed)
    outputs = []
    for tag in ("train", "validation", "test"):
        path = os.path.join(out, f"{tag}.pairs")
        save_pairs(parts[tag], path)
        outputs.append(path)
    return outputs


def _cmd_train(args):
    from .training import train

    return _train_outputs(args, train)


def _cmd_train_personalized(args):
    from .catalog import load_model
    from .training import train_personalized

    def fit(config, features, pairs, progress):
        return train_personalized(config, features, pairs, load_model(args.warm_start),
                                  freeze_user_weights=args.freeze_user_weights,
                                  progress=progress)
    return _train_outputs(args, fit)


def _cmd_eval(args):
    from .catalog import load_features, load_model
    from .evaluation import EVAL_TSV_HEADER, evaluate
    from .sampling import load_pairs

    features = load_features(args.features)
    pairs = load_pairs(args.pairs, features)
    model = load_model(args.model)
    report = evaluate(model, features, pairs)
    if args.format == "tsv":
        print(report.tsv_line())
        name, text = "eval_report.tsv", EVAL_TSV_HEADER + "\n" + report.tsv_line() + "\n"
    else:
        print(report.text_block(), end="")
        name, text = "eval_report.txt", report.text_block()
    return _write_optional(args, name, text)


def _cmd_embed(args):
    from .catalog import load_features, load_model
    from .stylespace import embed_all, save_embedding

    out = _ensure_out(args)
    features = load_features(args.features)
    model = load_model(args.model)
    emb = embed_all(model, features)
    path = os.path.join(out, "embedding.tsv")
    save_embedding(emb, path)
    return [path]


def _cmd_cluster(args):
    from .catalog import atomic_writer, load_features, load_model
    from .stylespace import embed_all, kmeans, representatives, save_clustering

    out = _ensure_out(args)
    features = load_features(args.features)
    model = load_model(args.model)
    emb = embed_all(model, features)
    clustering = kmeans(emb, args.k, args.seed, args.max_iter, args.seeding)
    path = os.path.join(out, "clustering.tsv")
    save_clustering(clustering, emb, path)
    outputs = [path]
    if args.representatives:
        reps = representatives(clustering, emb, args.representatives)
        rep_path = os.path.join(out, "representatives.tsv")
        with atomic_writer(rep_path) as f:
            for cluster in sorted(reps):
                for position, item in enumerate(reps[cluster]):
                    f.write(f"{cluster}\t{position}\t{item}\n")
        outputs.append(rep_path)
    print(f"k={clustering.k} objective {clustering.objective:.6f} "
          f"({len(clustering.objective_trace)} iterations)")
    return outputs


def _cmd_navigate(args):
    from .catalog import load_features, load_model
    from .stylespace import embed_all, navigate, save_path

    out = _ensure_out(args)
    features = load_features(args.features)
    model = load_model(args.model)
    emb = embed_all(model, features)
    items, cost, hops = navigate(emb, args.source, args.target, args.knn_k)
    path = os.path.join(out, "path.tsv")
    save_path(items, cost, hops, path)
    print(" -> ".join(items))
    print(f"total cost {cost:.6f} over {len(hops)} hops")
    return [path]


def _cmd_recommend(args):
    from .catalog import load_features, load_model
    from .recommend import rank_candidates

    features = load_features(args.features)
    model = load_model(args.model)
    candidates = _read_id_list(args.category_file)
    ranked = rank_candidates(model, features, args.query, candidates)[: args.top]
    lines = [f"{item}\t{dist!r}\t{prob!r}" for item, dist, prob in ranked]
    print("\n".join(lines))
    return _write_optional(args, "recommendations.tsv", "\n".join(lines) + "\n")


def _cmd_build_outfit(args):
    from .catalog import load_features, load_model
    from .recommend import build_outfit, rank_candidates

    features = load_features(args.features)
    model = load_model(args.model)
    category_files = args.category_files.split(",")
    categories = [_read_id_list(p) for p in category_files]
    picks = build_outfit(model, features, args.query, categories)
    scored = {item: (dist, prob)
              for item, dist, prob in rank_candidates(model, features, args.query, picks)}
    lines = []
    for path, pick in zip(category_files, picks):
        dist, prob = scored[pick]
        lines.append(f"{os.path.basename(path)}\t{pick}\t{dist!r}\t{prob!r}")
    print("\n".join(lines))
    return _write_optional(args, "outfit.tsv", "\n".join(lines) + "\n")


def _cmd_score_outfit(args):
    from .catalog import load_features, load_model
    from .recommend import outfit_coherence

    features = load_features(args.features)
    model = load_model(args.model)
    items = args.items.split(",")
    score = outfit_coherence(model, features, items, args.normalize)
    line = f"{','.join(score.items)}\t{score.pair_count}\t{score.mean_pair_loglik!r}"
    print(line)
    return _write_optional(args, "outfit_score.tsv", line + "\n")


def _cmd_makeover_delta(args):
    from .catalog import load_features, load_model
    from .recommend import makeover_delta

    features = load_features(args.features)
    model = load_model(args.model)
    before = args.before.split(",")
    after = args.after.split(",")
    delta = makeover_delta(model, features, before, after, args.normalize)
    print(repr(delta))
    return _write_optional(args, "makeover_delta.tsv", repr(delta) + "\n")


# ---------------------------------------------------------------------------
# parser assembly


def _add_input(parser, flag, separator=None, **kwargs):
    """Add a flag that names an input file (several, joined by separator):
    main opens what it names up front and hashes it for the run manifest."""
    dest = parser.add_argument(flag, **kwargs).dest
    parser.set_defaults(inputs=[*(parser.get_default("inputs") or ()), (dest, separator)])


def _add_common(parser, out_required=True):
    parser.add_argument("--seed", type=int, default=0,
                        help="seed for every random choice this command makes")
    if out_required:
        parser.add_argument("--out", required=True, help="output directory")
    else:
        parser.add_argument("--out", default=None, help="optional output directory")


def _add_train_flags(parser, warm_started):
    # A warm-started fit takes its rank, normalization and starting point
    # from the warm start, so it has no flags for them.
    if not warm_started:
        parser.add_argument("--rank", type=_positive_int, default=None)
        parser.add_argument("--init-scale", dest="init_scale", type=float, default=None)
        parser.add_argument("--feature-norm", dest="feature_norm",
                            choices=FEATURE_NORMS, default=None)
        parser.add_argument("--c0", type=float, default=None)
    parser.add_argument("--max-iter", dest="max_iter", type=_nonneg_int, default=None)
    parser.add_argument("--tolerance", type=float, default=None)
    parser.add_argument("--l2-penalty", dest="l2_penalty", type=float, default=None)


def _build_parser() -> _Parser:
    parser = _Parser(prog="stylemetric",
                     description="Learned style metrics over item feature vectors.")
    sub = parser.add_subparsers(dest="subcommand", required=True,
                                parser_class=_Parser)

    p = sub.add_parser("synth", help="generate a planted-metric dataset")
    p.add_argument("--n", type=_positive_int, required=True, help="item count")
    p.add_argument("--f", type=_positive_int, required=True, help="feature count")
    p.add_argument("--k", type=_positive_int, required=True, help="planted rank")
    p.add_argument("--edges", type=_positive_int, required=True)
    p.add_argument("--noise", type=float, default=0.0)
    p.add_argument("--mode", choices=MODES, default="axis_aligned")
    p.add_argument("--c-star", dest="c_star", type=float, default=None)
    _add_common(p)
    p.set_defaults(func=_cmd_synth)

    p = sub.add_parser("sample", help="balance edges with sampled negatives")
    _add_input(p, "--features", required=True)
    _add_input(p, "--edges", required=True)
    p.add_argument("--classes", default=None,
                   help="comma-separated relation classes to keep")
    _add_input(p, "--triples", default=None,
                   help="user triple file: build the per-user dataset instead "
                        "(--edges is still read and checked)")
    _add_common(p)
    p.set_defaults(func=_cmd_sample)

    p = sub.add_parser("split", help="80/10/10 train/validation/test split")
    _add_input(p, "--features", required=True)
    _add_input(p, "--pairs", required=True)
    _add_common(p)
    p.set_defaults(func=_cmd_split)

    p = sub.add_parser("train", help="fit a metric by maximum likelihood")
    _add_input(p, "--features", required=True)
    _add_input(p, "--pairs", required=True)
    p.add_argument("--kind", choices=("low_rank", "weighted_nn"), default=None)
    _add_train_flags(p, warm_started=False)
    _add_common(p)
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("train-personalized",
                       help="fit per-user weights from a global warm start")
    _add_input(p, "--features", required=True)
    _add_input(p, "--pairs", required=True)
    _add_input(p, "--warm-start", dest="warm_start", required=True)
    p.add_argument("--freeze-user-weights", dest="freeze_user_weights",
                   action="store_true")
    _add_train_flags(p, warm_started=True)
    _add_common(p)
    p.set_defaults(func=_cmd_train_personalized)

    p = sub.add_parser("eval", help="link-prediction accuracy report")
    _add_input(p, "--features", required=True)
    _add_input(p, "--pairs", required=True)
    _add_input(p, "--model", required=True)
    p.add_argument("--format", choices=("tsv", "text"), default="text")
    _add_common(p, out_required=False)
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("embed", help="write style vectors for all items")
    _add_input(p, "--features", required=True)
    _add_input(p, "--model", required=True)
    _add_common(p)
    p.set_defaults(func=_cmd_embed)

    p = sub.add_parser("cluster", help="k-means over style vectors")
    _add_input(p, "--features", required=True)
    _add_input(p, "--model", required=True)
    p.add_argument("--k", type=_positive_int, required=True)
    p.add_argument("--max-iter", dest="max_iter", type=_positive_int, default=100)
    p.add_argument("--seeding", choices=("weighted", "random"), default="weighted")
    p.add_argument("--representatives", type=_positive_int, default=None,
                   help="also write the m nearest items per centroid")
    _add_common(p)
    p.set_defaults(func=_cmd_cluster)

    p = sub.add_parser("navigate", help="min-cost path between two items")
    _add_input(p, "--features", required=True)
    _add_input(p, "--model", required=True)
    p.add_argument("--source", required=True)
    p.add_argument("--target", required=True)
    p.add_argument("--knn-k", dest="knn_k", type=_positive_int, default=10)
    _add_common(p)
    p.set_defaults(func=_cmd_navigate)

    p = sub.add_parser("recommend", help="rank candidates against a query item")
    _add_input(p, "--features", required=True)
    _add_input(p, "--model", required=True)
    p.add_argument("--query", required=True)
    _add_input(p, "--category-file", dest="category_file", required=True,
                   help="file of candidate item ids, one per line")
    p.add_argument("--top", type=_positive_int, default=10)
    _add_common(p, out_required=False)
    p.set_defaults(func=_cmd_recommend)

    p = sub.add_parser("build-outfit", help="pick one item per category")
    _add_input(p, "--features", required=True)
    _add_input(p, "--model", required=True)
    p.add_argument("--query", required=True)
    _add_input(p, "--category-files", separator=",", dest="category_files", required=True,
                   help="comma-separated candidate files, one per slot")
    _add_common(p, out_required=False)
    p.set_defaults(func=_cmd_build_outfit)

    p = sub.add_parser("score-outfit", help="mean pairwise log-likelihood")
    _add_input(p, "--features", required=True)
    _add_input(p, "--model", required=True)
    p.add_argument("--items", required=True, help="comma-separated item ids")
    p.add_argument("--normalize", choices=("pairs", "components"), default="pairs")
    _add_common(p, out_required=False)
    p.set_defaults(func=_cmd_score_outfit)

    p = sub.add_parser("makeover-delta", help="coherence change between outfits")
    _add_input(p, "--features", required=True)
    _add_input(p, "--model", required=True)
    p.add_argument("--before", required=True, help="comma-separated item ids")
    p.add_argument("--after", required=True, help="comma-separated item ids")
    p.add_argument("--normalize", choices=("pairs", "components"), default="pairs")
    _add_common(p, out_required=False)
    p.set_defaults(func=_cmd_makeover_delta)

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    inputs = _open_inputs(args)
    try:
        start = time.perf_counter()
        outputs = args.func(args)
        if args.out:
            _write_manifest(args, inputs, outputs, time.perf_counter() - start)
    except (DataError, TrainingError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        for f in inputs.values():
            if not isinstance(f, OSError):
                f.close()
    return 0


if __name__ == "__main__":
    sys.exit(main())
