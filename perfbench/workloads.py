"""The four workloads: inputs, the timed work, output checks, a traced pass.

prep, fit and explore run CLI sequences, one child process per command, and
time each child from start to exit. serve calls the recommendation API in
process from one client that waits for each answer before the next query.
A traced run makes one untraced pass for the CLI breakdown, then runs the
same pass in process twice, untraced and traced, for the per-layer numbers
and the tracing overhead.
"""

import contextlib
import hashlib
import io
import json
import os
import resource
import statistics
import subprocess
import sys
import threading
import time
from collections import namedtuple

import numpy as np

import gen
from tracing import LAYERS, Tracer

SETUP_REPS = 3
CHILD_TIMEOUT_S = 150
MIN_PREP_PASSES = 2  # prep compares its outputs across passes
NOISE = 0.1
TRAIN_ITERS = 12
PERSONALIZED_ITERS = 8
CLUSTERS = 32
CLUSTER_ITERS = 40  # below every seed's convergence, so each seed does the same work
REPRESENTATIVES = 4
KNN_K = 10
REL_TOL = 1e-12

# Accuracy floors sit well below every seed measured at the parent commit
# (seeds 101-110: low_rank 0.594-0.649, personalized 0.647-0.674), so only a
# real loss of accuracy trips them; an untrained model scores about 0.5.
SIZES = {
    "full": {
        "prep": {"n": 8000, "f": 128, "k": 8, "edges": 80000},
        "fit": {"n": 20000, "f": 256, "rank": 10, "users": 200,
                "train": 80000, "test": 10000,
                "floors": {"low_rank": 0.55, "personalized": 0.62}},
        "explore": {"n": 8000, "f": 128, "rank": 10},
        "serve": {"n": 5000, "f": 128, "rank": 10, "candidates": 500, "slots": 4,
                  "slot_size": 100, "outfit": 5, "pass_queries": 336,
                  "min_queries": 1000},
    },
    "toy": {
        "prep": {"n": 300, "f": 16, "k": 4, "edges": 2000},
        "fit": {"n": 400, "f": 32, "rank": 4, "users": 10,
                "train": 1000, "test": 200,
                "floors": {"low_rank": 0.5, "personalized": 0.5}},
        "explore": {"n": 300, "f": 16, "rank": 4},
        "serve": {"n": 300, "f": 16, "rank": 4, "candidates": 50, "slots": 4,
                  "slot_size": 10, "outfit": 5, "pass_queries": 15,
                  "min_queries": 30},
    },
}

Step = namedtuple("Step", "command args out check")


class Context:
    """One invocation: where it works, its inputs, and the children's environment."""

    def __init__(self, root, workload, seed, seconds, size, work):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.params = SIZES[size][workload]
        self.work = work
        self.inputs = work / "inputs"
        self.inputs.mkdir(parents=True, exist_ok=True)
        self.ids = None  # item ids of the generated catalog, where a workload needs them
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [str(root / "src"), os.environ.get("PYTHONPATH")]))


class Outcome:
    """What a workload reports: operation counts, problems, metrics, details."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.metrics = {}
        self.absent = set()
        self.spans = []
        self.details = {}

    def fail(self, what, problems):
        self.failed += 1
        self.problems.extend(f"{what}: {p}" for p in problems)


# ---------------------------------------------------------------------------
# shared helpers


def _digest(paths):
    h = hashlib.sha256()
    for path in sorted(paths):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def _output_digest(out_dir):
    # The manifest holds wall time and absolute paths, which differ by design.
    return _digest([p for p in out_dir.iterdir() if p.name != "run_manifest.json"])


def _close(a, b):
    a, b = np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64)
    return a.shape == b.shape and bool(np.all(np.abs(a - b) <= REL_TOL * np.abs(b)))


def _percentiles_ms(seconds):
    ms = np.asarray(seconds) * 1e3
    return float(np.percentile(ms, 50)), float(np.percentile(ms, 99))


def _passes(seconds, minimum):
    """Pass numbers while another pass as long as the last still fits in seconds."""
    start = time.perf_counter()
    k, last = 0, 0.0
    while k < minimum or time.perf_counter() - start + last <= seconds:
        pass_start = time.perf_counter()
        yield k
        last = time.perf_counter() - pass_start
        k += 1


def _data_lines(path):
    with open(path, encoding="utf-8") as f:
        return [line.rstrip("\n") for line in f if line.strip()]


def run_child(ctx, argv, log_path):
    """Run ``python -m stylemetric.cli argv``; (exit code, wall s, peak RSS MiB)."""
    with open(log_path, "wb") as log:
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-m", "stylemetric.cli", *map(str, argv)],
                                cwd=ctx.work, env=ctx.env,
                                stdout=subprocess.DEVNULL, stderr=log)
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_maxrss / 1024


# ---------------------------------------------------------------------------
# CLI workloads


def _prep_setup(ctx):
    """prep makes its own inputs: synth is part of the timed sequence."""


def _prep_steps(ctx, pass_dir):
    p, seed = ctx.params, ctx.seed
    synth, sample, split = pass_dir / "synth", pass_dir / "sample", pass_dir / "split"
    features = synth / "features.tsv"
    n_test = int(p["edges"] * 0.1)
    expect = {"train": p["edges"] - 2 * n_test, "validation": n_test, "test": n_test}
    return [
        Step("synth", ["--n", p["n"], "--f", p["f"], "--k", p["k"], "--edges", p["edges"],
                       "--noise", NOISE, "--mode", "cross_feature", "--seed", seed,
                       "--out", synth],
             synth, lambda out: _check_synth(out, p)),
        Step("sample", ["--features", features, "--edges", synth / "edges.tsv",
                        "--seed", seed, "--out", sample],
             sample, lambda out: _check_pairs(out / "pairs.tsv", "all", p["edges"])),
        Step("split", ["--features", features, "--pairs", sample / "pairs.tsv",
                       "--seed", seed, "--out", split],
             split, lambda out: [problem for tag, count in expect.items()
                                 for problem in _check_pairs(out / f"{tag}.pairs", tag, count)]),
    ]


def _check_synth(out, p):
    header = _data_lines(out / "features.tsv")[0]
    problems = []
    if header != f"#features {p['n']} {p['f']}":
        problems.append(f"features header {header!r}")
    edges = len(_data_lines(out / "edges.tsv"))
    if edges != p["edges"]:
        problems.append(f"{edges} edges, expected {p['edges']}")
    return problems


def _check_pairs(path, partition, per_label):
    lines = _data_lines(path)
    labels = [line.split("\t")[2] for line in lines[1:]]
    related, unrelated = labels.count("related"), labels.count("unrelated")
    if lines[0] != f"#partition {partition}" or related != per_label or unrelated != per_label:
        return [f"{path.name}: {lines[0]!r} with {related} related and {unrelated} "
                f"unrelated pairs, expected {partition} with {per_label} each"]
    return []


def _fit_setup(ctx):
    p = ctx.params
    gen.fit_inputs(ctx.inputs, ctx.seed, p["n"], p["f"], p["rank"], p["users"],
                   p["train"], p["test"], NOISE)


def _fit_steps(ctx, pass_dir):
    p, seed = ctx.params, ctx.seed
    features = ctx.inputs / "features.bin"
    train, test = ctx.inputs / "train.pairs", ctx.inputs / "test.pairs"
    low_rank, personalized = pass_dir / "low_rank", pass_dir / "personalized"
    steps = [
        Step("train", ["--features", features, "--pairs", train, "--rank", p["rank"],
                       "--max-iter", TRAIN_ITERS, "--seed", seed, "--out", low_rank],
             low_rank, lambda out: _check_training(out, TRAIN_ITERS)),
        Step("train-personalized", ["--features", features, "--pairs", train,
                                    "--warm-start", low_rank / "model.bin",
                                    "--max-iter", PERSONALIZED_ITERS, "--seed", seed,
                                    "--out", personalized],
             personalized, lambda out: _check_training(out, PERSONALIZED_ITERS)),
    ]
    for model_dir in (low_rank, personalized):
        out = pass_dir / f"eval_{model_dir.name}"
        floor = p["floors"][model_dir.name]
        steps.append(Step("eval", ["--features", features, "--pairs", test,
                                   "--model", model_dir / "model.bin", "--format", "tsv",
                                   "--seed", seed, "--out", out],
                          out, lambda out, floor=floor: _check_eval(out, floor, 2 * p["test"])))
    return steps


def _check_training(out, iterations):
    report = json.loads((out / "train_report.json").read_text())
    problems = []
    if report["iterations"] != iterations or report["termination"] != "max_iterations":
        problems.append(f"{report['iterations']} iterations ending by "
                        f"{report['termination']}, expected {iterations} by max_iterations")
    trace = report["trace"]
    if any(b < a for a, b in zip(trace, trace[1:])):
        problems.append("log-likelihood trace decreases")
    return problems


def _eval_result(out):
    header, line = _data_lines(out / "eval_report.tsv")[:2]
    row = dict(zip(header.split("\t"), line.split("\t")))
    return float(row["accuracy"]), int(row["pairs"])


def _fit_accuracies(pass_dir):
    return {name: _eval_result(pass_dir / f"eval_{name}")[0]
            for name in ("low_rank", "personalized")}


def _check_eval(out, floor, pairs):
    accuracy, counted = _eval_result(out)
    problems = []
    if accuracy < floor:
        problems.append(f"accuracy {accuracy} below the floor {floor}")
    if counted != pairs:
        problems.append(f"{counted} pairs evaluated, expected {pairs}")
    return problems


def _explore_setup(ctx):
    p = ctx.params
    ctx.ids = gen.catalog_inputs(ctx.inputs, ctx.seed, p["n"], p["f"], p["rank"])[0]


def _explore_steps(ctx, pass_dir):
    p, seed = ctx.params, ctx.seed
    common = ["--features", ctx.inputs / "features.tsv", "--model", ctx.inputs / "model.bin"]
    source, target = ctx.ids[0], ctx.ids[-1]
    embed, cluster, navigate = (pass_dir / name for name in ("embed", "cluster", "navigate"))
    return [
        Step("embed", common + ["--seed", seed, "--out", embed],
             embed, lambda out: _check_embedding(out, ctx.ids, p["rank"])),
        Step("cluster", common + ["--k", CLUSTERS, "--max-iter", CLUSTER_ITERS,
                                  "--representatives", REPRESENTATIVES,
                                  "--seed", seed, "--out", cluster],
             cluster, lambda out: _check_clustering(out, ctx.ids)),
        Step("navigate", common + ["--source", source, "--target", target,
                                   "--knn-k", KNN_K, "--seed", seed, "--out", navigate],
             navigate, lambda out: _check_path(out, source, target)),
    ]


def _check_embedding(out, ids, rank):
    lines = _data_lines(out / "embedding.tsv")
    rows = [line.split("\t")[0] for line in lines[1:]]
    if lines[0] != f"#style {len(ids)} {rank}" or rows != ids:
        return [f"embedding has header {lines[0]!r} and {len(rows)} rows in another order"]
    return []


def _check_clustering(out, ids):
    rows = [line.split("\t") for line in _data_lines(out / "clustering.tsv")
            if not line.startswith("#")]
    problems = []
    if [r[0] for r in rows] != ids:
        problems.append("clustering does not list every item once, in catalog order")
    if any(not 0 <= int(r[1]) < CLUSTERS for r in rows):
        problems.append("cluster index out of range")
    representatives = len(_data_lines(out / "representatives.tsv"))
    if not CLUSTERS <= representatives <= CLUSTERS * REPRESENTATIVES:
        problems.append(f"{representatives} representatives for {CLUSTERS} clusters")
    return problems


def _check_path(out, source, target):
    lines = _data_lines(out / "path.tsv")
    total = float(lines[0].split("\t")[1])
    items = [line.split("\t")[0] for line in lines[1:]]
    cost = 0.0  # left to right like the search; sum() compensates on Python 3.12+
    for line in lines[2:]:
        cost += float(line.split("\t")[1])
    problems = []
    if not items or items[0] != source or items[-1] != target:
        problems.append(f"path runs {items[:1]} to {items[-1:]}, expected {source} to {target}")
    if not _close(cost, total):
        problems.append(f"hop costs sum to {cost!r}, #total says {total!r}")
    return problems


CLI_WORKLOADS = {
    "prep": (_prep_setup, _prep_steps),
    "fit": (_fit_setup, _fit_steps),
    "explore": (_explore_setup, _explore_steps),
}


def _setup(ctx, reps, make_inputs, start_program):
    """Median seconds to write the inputs and start the program, over reps.

    Every repetition must write byte-identical inputs.
    """
    times, digests = [], set()
    for _ in range(reps):
        start = time.perf_counter()
        make_inputs(ctx)
        start_program()
        times.append(time.perf_counter() - start)
        digests.add(_digest([p for p in ctx.inputs.iterdir() if p.is_file()]))
    if len(digests) != 1:
        raise RuntimeError("one seed wrote different inputs on different set-ups")
    return statistics.median(times)


def _step_done(outcome, steps, k, code):
    """Count step k's exit and output checks; False when the pass must stop."""
    step = steps[k]
    outcome.attempted += 1
    if code != 0:
        skipped = len(steps) - k - 1
        outcome.fail(step.command, [f"exit code {code}"])
        outcome.attempted += skipped
        outcome.failed += skipped
        return False
    try:
        problems = step.check(step.out)
    except (OSError, ValueError, KeyError, IndexError) as exc:
        problems = [f"unreadable output: {exc!r}"]
    if problems:
        outcome.fail(step.command, problems)
    return True


def _child_pass(ctx, steps, outcome, log_dir):
    """Run the steps as child processes; per step (command, wall s, startup s)."""
    rows = []
    peak = 0.0
    for k, step in enumerate(steps):
        code, wall, rss = run_child(ctx, [step.command, *step.args],
                                    log_dir / f"{k}-{step.command}.stderr")
        peak = max(peak, rss)
        if not _step_done(outcome, steps, k, code):
            break
        try:
            manifest = json.loads((step.out / "run_manifest.json").read_text())
        except (OSError, ValueError) as exc:
            outcome.fail(step.command, [f"unreadable run manifest: {exc!r}"])
            manifest = {"wall_time": wall}
        rows.append((step.command, wall, wall - manifest["wall_time"]))
    return rows, peak


def _in_process_pass(steps, outcome, tracer):
    """Run the steps through stylemetric.cli.main under the tracer; run seconds."""
    from stylemetric import cli

    seconds = 0.0
    for k, step in enumerate(steps):
        start = time.perf_counter()
        with tracer.span(f"cli.{step.command}"), contextlib.redirect_stdout(io.StringIO()):
            try:
                code = cli.main([step.command, *map(str, step.args)])
            except Exception as exc:  # counted as a failed operation, like a crash
                code = repr(exc)
        seconds += time.perf_counter() - start
        if not _step_done(outcome, steps, k, code):
            break
    return seconds


def run_cli(ctx, trace):
    make_inputs, make_steps = CLI_WORKLOADS[ctx.workload]
    outcome = Outcome()

    def start_program():
        code = run_child(ctx, ["--help"], ctx.work / "start.stderr")[0]
        if code != 0:
            raise RuntimeError(f"the program does not start: exit code {code}")

    setup_s = _setup(ctx, 1 if trace else SETUP_REPS, make_inputs, start_program)
    if trace:
        _traced_cli(ctx, make_steps, outcome)
        return outcome

    pass_seconds, peak, digests = [], 0.0, []
    for k in _passes(ctx.seconds, MIN_PREP_PASSES if ctx.workload == "prep" else 1):
        pass_dir = ctx.work / f"pass{k}"
        pass_dir.mkdir()
        steps = make_steps(ctx, pass_dir)
        rows, rss = _child_pass(ctx, steps, outcome, pass_dir)
        peak = max(peak, rss)
        pass_seconds.append(sum(wall for _, wall, _ in rows))
        if len(rows) == len(steps) and ctx.workload == "prep":
            digests.append([_output_digest(step.out) for step in steps])
            for step, first, now in zip(steps, digests[0], digests[-1]):
                if first != now:
                    outcome.fail(step.command, ["outputs differ from the first pass"])
    # A request to a CLI workload is its whole sequence, so the latency
    # percentiles run over passes.
    p50, p99 = _percentiles_ms(pass_seconds)
    outcome.metrics = {"setup_s": setup_s, "run_s": statistics.median(pass_seconds),
                       "peak_rss_mb": peak, "query_p50_ms": p50, "query_p99_ms": p99}
    outcome.details = {"passes": len(pass_seconds)}
    if ctx.workload == "fit" and not outcome.failed:
        outcome.details["test_accuracy"] = _fit_accuracies(ctx.work / "pass0")
    return outcome


def _traced_cli(ctx, make_steps, outcome):
    """Child pass for the CLI breakdown, then untraced and traced in-process passes.

    The overhead compares the two in-process passes, because children also
    pay interpreter start-up, which cli.startup_s reports on its own.
    """
    passes = {name: ctx.work / name for name in ("children", "untraced", "traced")}
    for pass_dir in passes.values():
        pass_dir.mkdir()
    rows, _ = _child_pass(ctx, make_steps(ctx, passes["children"]), outcome,
                          passes["children"])
    untraced_s = _in_process_pass(make_steps(ctx, passes["untraced"]), outcome, Tracer())
    tracer = Tracer()
    tracer.install()
    try:
        traced_s = _in_process_pass(make_steps(ctx, passes["traced"]), outcome, tracer)
    finally:
        tracer.uninstall()
    metrics = layer_metrics(tracer, traced_s)
    for command, wall, _ in rows:
        key = f"cli.{command}.s"
        metrics[key] = metrics.get(key, 0.0) + wall
    if rows:
        metrics["cli.startup_s"] = statistics.median(startup for *_, startup in rows)
    metrics["trace.overhead_s"] = traced_s - untraced_s
    if ctx.workload == "fit" and not outcome.failed:
        accuracy = _fit_accuracies(passes["traced"])
        metrics["evaluation.test_accuracy"] = accuracy["low_rank"]
        metrics["evaluation.personalized_test_accuracy"] = accuracy["personalized"]
    outcome.metrics = metrics
    outcome.absent = tracer.absent
    outcome.spans = tracer.spans


def layer_metrics(tracer, run_s):
    """Self seconds and counts per layer, line-search ratios, span coverage."""
    own = tracer.self_times()
    metrics = dict(tracer.counts)
    for layer, *_ in LAYERS:
        metrics[f"{layer}.s"] = own.get(layer, 0.0)
    iterations = metrics.get("training.iterations", 0)
    evals = metrics.get("training.loglik.calls", 0)
    metrics["training.linesearch_evals_per_iter"] = evals / iterations if iterations else 0.0
    metrics["training.linesearch_accept_ratio"] = iterations / evals if evals else 0.0
    if "training.loglik" in tracer.absent:
        tracer.absent.update(["training.linesearch_evals_per_iter",
                              "training.linesearch_accept_ratio"])
    named = sum(s for name, s in own.items() if not name.startswith("cli."))
    metrics["trace.run_s"] = run_s
    metrics["trace.coverage"] = named / run_s if run_s else 0.0
    return metrics


# ---------------------------------------------------------------------------
# serve


def _serve_queries(rng, n, p):
    """One pass: rank, outfit and coherence queries in turn, as index arrays."""
    queries = []
    for k in range(p["pass_queries"]):
        q = int(rng.integers(0, n))
        kind = ("rank_candidates", "build_outfit", "outfit_coherence")[k % 3]
        if kind == "outfit_coherence":
            queries.append((kind, q, rng.choice(n, size=p["outfit"], replace=False)))
            continue
        size = p["candidates"] if kind == "rank_candidates" else p["slots"] * p["slot_size"]
        others = rng.choice(n - 1, size=size, replace=False)
        others += others >= q
        queries.append((kind, q, others))
    return queries


class _ServeCase:
    """A query's arguments for the program and its numpy reference answer."""

    def __init__(self, kind, q, items, ids, S, threshold, p, model, features):
        self.kind = kind
        names = [ids[i] for i in items]

        def dist(a, b):
            v = S[a] - S[b]
            return np.einsum("ij,ij->i", v, v)

        if kind == "outfit_coherence":
            self.args = (model, features, names)
            ii, jj = np.triu_indices(len(items), k=1)
            d = dist(items[ii], items[jj])
            self.expect = (len(d), float(np.mean(-np.logaddexp(0.0, d - threshold))))
            return
        if kind == "rank_candidates":
            self.args = (model, features, ids[q], names)
            d = dist(np.full(len(items), q), items)
            ranked = sorted(zip(d.tolist(), names))
            self.expect = ([name for _, name in ranked], [value for value, _ in ranked])
            return
        slots = [names[s * p["slot_size"]:(s + 1) * p["slot_size"]] for s in range(p["slots"])]
        self.args = (model, features, ids[q], slots)
        d = dist(np.full(len(items), q), items).tolist()
        self.expect = [min(zip(d[s * p["slot_size"]:(s + 1) * p["slot_size"]], slot))[1]
                       for s, slot in enumerate(slots)]

    def check(self, answer):
        if self.kind == "outfit_coherence":
            pairs, mean = self.expect
            if answer.pair_count != pairs or not _close(answer.mean_pair_loglik, mean):
                return [f"coherence {answer.mean_pair_loglik!r} over {answer.pair_count} "
                        f"pairs, expected {mean!r} over {pairs}"]
        elif self.kind == "rank_candidates":
            order, dists = self.expect
            if [a[0] for a in answer] != order:
                return ["ranking order differs from the reference"]
            if not _close([a[1] for a in answer], dists):
                return ["ranked distances differ from the reference"]
        elif answer != self.expect:
            return [f"outfit {answer}, expected {self.expect}"]
        return []


def _serve_pass(cases, outcome, recommend):
    latencies = []
    for case in cases:
        outcome.attempted += 1
        call = getattr(recommend, case.kind)
        start = time.perf_counter()
        try:
            answer = call(*case.args)
        except Exception as exc:  # the loop reports failures and keeps serving
            latencies.append(time.perf_counter() - start)
            outcome.fail(case.kind, [repr(exc)])
            continue
        latencies.append(time.perf_counter() - start)
        problems = case.check(answer)
        if problems:
            outcome.fail(case.kind, problems)
    return latencies


def run_serve(ctx, trace):
    from stylemetric import recommend
    from stylemetric.catalog import load_features, load_model

    p = ctx.params
    outcome = Outcome()
    loaded = {}

    def make_inputs(ctx):
        loaded["data"] = gen.catalog_inputs(ctx.inputs, ctx.seed, p["n"], p["f"], p["rank"])

    def start_program():
        loaded["features"] = load_features(ctx.inputs / "features.tsv")
        loaded["model"] = load_model(ctx.inputs / "model.bin")

    setup_s = _setup(ctx, 1 if trace else SETUP_REPS, make_inputs, start_program)
    ids, X, Y, threshold = loaded["data"]
    S = X @ Y
    rng = np.random.default_rng(np.random.SeedSequence([ctx.seed, 3]))

    def next_cases():
        return [_ServeCase(kind, q, items, ids, S, threshold, p,
                           loaded["model"], loaded["features"])
                for kind, q, items in _serve_queries(rng, p["n"], p)]

    for case in next_cases()[:3]:  # lazy set-up finishes before timing
        getattr(recommend, case.kind)(*case.args)

    if trace:
        cases = next_cases()
        untraced_s = sum(_serve_pass(cases, outcome, recommend))
        tracer = Tracer()
        tracer.install()
        try:
            traced_s = sum(_serve_pass(cases, outcome, recommend))
        finally:
            tracer.uninstall()
        outcome.metrics = layer_metrics(tracer, traced_s)
        outcome.metrics["trace.overhead_s"] = traced_s - untraced_s
        outcome.absent = tracer.absent
        outcome.spans = tracer.spans
        return outcome

    # Every pass asks new queries, so nothing answered before is asked again.
    pass_seconds, latencies = [], []
    for k in _passes(ctx.seconds, -(-p["min_queries"] // p["pass_queries"])):
        pass_latencies = _serve_pass(next_cases(), outcome, recommend)
        latencies += pass_latencies
        pass_seconds.append(sum(pass_latencies))
    p50, p99 = _percentiles_ms(latencies)
    outcome.metrics = {
        "setup_s": setup_s, "run_s": statistics.median(pass_seconds),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "query_p50_ms": p50, "query_p99_ms": p99}
    outcome.details = {"passes": len(pass_seconds), "queries": len(latencies)}
    return outcome


def run(ctx, trace):
    return run_serve(ctx, trace) if ctx.workload == "serve" else run_cli(ctx, trace)

