"""The command-line surface: pipeline wiring, exit codes, manifests, and
byte-stable re-runs."""

import hashlib
import json
import os
import pathlib
import struct
import subprocess
import sys

import numpy as np
import pytest

from stylemetric import cli
from stylemetric.catalog import (FeatureMatrix, MetricModel, load_features, load_model,
                                 save_features, save_model)
from stylemetric.recommend import rank_candidates


def run(*argv):
    return cli.main([str(a) for a in argv])


def run_usage_error(*argv):
    """Usage failures arrive as SystemExit(1) out of argparse."""
    with pytest.raises(SystemExit) as e:
        cli.main([str(a) for a in argv])
    return e.value.code


def _tree_digests(root, skip=("run_manifest.json",)):
    out = {}
    for dirpath, _, filenames in os.walk(root):
        for name in filenames:
            if name in skip:
                continue
            p = os.path.join(dirpath, name)
            rel = os.path.relpath(p, root)
            out[rel] = hashlib.sha256(pathlib.Path(p).read_bytes()).hexdigest()
    return out


@pytest.fixture
def pipeline(tmp_path):
    """synth -> sample -> split, shared by several tests."""
    data = tmp_path / "data"
    assert run("synth", "--n", 120, "--f", 8, "--k", 2, "--edges", 500,
               "--noise", 0.05, "--seed", 5, "--out", data) == 0
    sampled = tmp_path / "sampled"
    assert run("sample", "--features", data / "features.tsv",
               "--edges", data / "edges.tsv", "--seed", 5, "--out", sampled) == 0
    splits = tmp_path / "splits"
    assert run("split", "--features", data / "features.tsv",
               "--pairs", sampled / "pairs.tsv", "--seed", 5, "--out", splits) == 0
    return tmp_path


def test_synth_writes_expected_files(tmp_path):
    out = tmp_path / "d"
    assert run("synth", "--n", 60, "--f", 6, "--k", 2, "--edges", 200,
               "--seed", 1, "--out", out) == 0
    for name in ("features.tsv", "edges.tsv", "ground_truth.model",
                 "synth_info.json", "run_manifest.json"):
        assert (out / name).exists(), name


def test_full_pipeline_trains_and_evaluates(pipeline, capsys):
    data, splits = pipeline / "data", pipeline / "splits"
    fit = pipeline / "fit"
    assert run("train", "--features", data / "features.tsv",
               "--pairs", splits / "train.pairs", "--rank", 2,
               "--max-iter", 80, "--seed", 0, "--out", fit) == 0
    assert (fit / "model.bin").exists()
    assert (fit / "train_report.json").exists()
    assert (fit / "train_log.tsv").exists()
    capsys.readouterr()
    assert run("eval", "--features", data / "features.tsv",
               "--pairs", splits / "test.pairs",
               "--model", fit / "model.bin", "--format", "tsv") == 0
    line = capsys.readouterr().out.strip()
    fields = line.split("\t")
    assert fields[0] == "low_rank"
    assert fields[2] == "test"
    acc = float(fields[4])
    assert 0.5 <= acc <= 1.0


def test_train_log_lines_are_well_formed(pipeline):
    data, splits = pipeline / "data", pipeline / "splits"
    fit = pipeline / "fit"
    run("train", "--features", data / "features.tsv",
        "--pairs", splits / "train.pairs", "--rank", 2,
        "--max-iter", 20, "--seed", 0, "--out", fit)
    lines = (fit / "train_log.tsv").read_text().strip().split("\n")
    assert len(lines) >= 1
    prev = -np.inf
    for line in lines:
        it, ll, acc = line.split("\t")
        int(it)
        assert float(ll) >= prev
        prev = float(ll)
        assert 0.0 <= float(acc) <= 1.0


def test_manifest_digests_match_inputs(pipeline):
    data = pipeline / "data"
    sampled = pipeline / "sampled"
    manifest = json.loads((sampled / "run_manifest.json").read_text())
    assert manifest["subcommand"] == "sample"
    assert manifest["seed"] == 5
    assert "pairs.tsv" in manifest["outputs"]
    for path, digest in manifest["inputs"].items():
        want = hashlib.sha256(pathlib.Path(path).read_bytes()).hexdigest()
        assert digest == want


def test_rerun_with_same_seed_is_byte_identical(pipeline):
    """Data files from a re-run must hash identically; the manifest is run
    metadata (it records wall time) and is the one exclusion."""
    data, splits = pipeline / "data", pipeline / "splits"
    fit1, fit2 = pipeline / "fit1", pipeline / "fit2"
    for fit in (fit1, fit2):
        assert run("train", "--features", data / "features.tsv",
                   "--pairs", splits / "train.pairs", "--rank", 2,
                   "--max-iter", 40, "--seed", 3, "--out", fit) == 0
    assert _tree_digests(fit1) == _tree_digests(fit2)


def test_different_seed_changes_the_model(pipeline):
    data, splits = pipeline / "data", pipeline / "splits"
    fit1, fit2 = pipeline / "fita", pipeline / "fitb"
    run("train", "--features", data / "features.tsv",
        "--pairs", splits / "train.pairs", "--rank", 2, "--max-iter", 10,
        "--seed", 1, "--out", fit1)
    run("train", "--features", data / "features.tsv",
        "--pairs", splits / "train.pairs", "--rank", 2, "--max-iter", 10,
        "--seed", 2, "--out", fit2)
    a = (fit1 / "model.bin").read_bytes()
    b = (fit2 / "model.bin").read_bytes()
    assert a != b


def test_style_space_commands(pipeline, capsys):
    data, splits = pipeline / "data", pipeline / "splits"
    fit = pipeline / "fit"
    run("train", "--features", data / "features.tsv",
        "--pairs", splits / "train.pairs", "--rank", 2, "--max-iter", 60,
        "--seed", 0, "--out", fit)
    emb = pipeline / "emb"
    assert run("embed", "--features", data / "features.tsv",
               "--model", fit / "model.bin", "--out", emb) == 0
    assert (emb / "embedding.tsv").exists()
    clu = pipeline / "clu"
    assert run("cluster", "--features", data / "features.tsv",
               "--model", fit / "model.bin", "--k", 4, "--seed", 2,
               "--representatives", 3, "--out", clu) == 0
    assert (clu / "clustering.tsv").exists()
    assert (clu / "representatives.tsv").exists()
    nav = pipeline / "nav"
    assert run("navigate", "--features", data / "features.tsv",
               "--model", fit / "model.bin", "--source", "i000",
               "--target", "i064", "--out", nav) == 0
    out = capsys.readouterr().out
    assert "i000" in out and "i064" in out
    assert (nav / "path.tsv").exists()


def test_recommend_and_outfit_commands(pipeline, tmp_path, capsys):
    data, splits = pipeline / "data", pipeline / "splits"
    fit = pipeline / "fit"
    run("train", "--features", data / "features.tsv",
        "--pairs", splits / "train.pairs", "--rank", 2, "--max-iter", 60,
        "--seed", 0, "--out", fit)
    cands = tmp_path / "cands.txt"
    cands.write_text("i001\ni002\ni003\ni004\n")
    capsys.readouterr()
    assert run("recommend", "--features", data / "features.tsv",
               "--model", fit / "model.bin", "--query", "i000",
               "--category-file", cands, "--top", 2) == 0
    lines = capsys.readouterr().out.strip().split("\n")
    assert len(lines) == 2
    item, dist, prob = lines[0].split("\t")
    assert item.startswith("i0")
    assert float(dist) >= 0.0
    assert 0.0 < float(prob) < 1.0

    slot2 = tmp_path / "slot2.txt"
    slot2.write_text("i010\ni011\n")
    assert run("build-outfit", "--features", data / "features.tsv",
               "--model", fit / "model.bin", "--query", "i000",
               "--category-files", f"{cands},{slot2}") == 0
    lines = capsys.readouterr().out.strip().split("\n")
    assert len(lines) == 2

    assert run("score-outfit", "--features", data / "features.tsv",
               "--model", fit / "model.bin", "--items", "i000,i001,i002") == 0
    items, pair_count, score = capsys.readouterr().out.strip().split("\t")
    assert int(pair_count) == 3
    assert float(score) < 0.0

    assert run("makeover-delta", "--features", data / "features.tsv",
               "--model", fit / "model.bin", "--before", "i000,i001",
               "--after", "i000,i001") == 0
    assert float(capsys.readouterr().out.strip()) == 0.0


def test_build_outfit_reports_each_pick_as_ranked_alone(pipeline, tmp_path, capsys):
    """One pick may fill two slots; every line carries the pick's own
    distance and probability, as rank_candidates gives them for it alone."""
    data, splits = pipeline / "data", pipeline / "splits"
    fit = pipeline / "fit"
    assert run("train", "--features", data / "features.tsv",
               "--pairs", splits / "train.pairs", "--rank", 2, "--max-iter", 20,
               "--feature-norm", "l2_unit", "--seed", 0, "--out", fit) == 0
    wide, narrow = tmp_path / "wide.txt", tmp_path / "narrow.txt"
    wide.write_text("".join(f"i{z:03d}\n" for z in range(1, 60)))
    narrow.write_text("i070\ni071\ni072\n")
    capsys.readouterr()
    assert run("build-outfit", "--features", data / "features.tsv",
               "--model", fit / "model.bin", "--query", "i000",
               "--category-files", f"{wide},{narrow},{wide}", "--out", tmp_path / "o") == 0
    lines = capsys.readouterr().out.strip().split("\n")
    assert (tmp_path / "o" / "outfit.tsv").read_text() == "\n".join(lines) + "\n"
    assert [line.split("\t")[0] for line in lines] == ["wide.txt", "narrow.txt", "wide.txt"]
    assert lines[0] == lines[2]
    features, model = load_features(data / "features.tsv"), load_model(fit / "model.bin")
    for line in lines:
        _, pick, dist, prob = line.split("\t")
        [(_, want_dist, want_prob)] = rank_candidates(model, features, "i000", [pick])
        assert (dist, prob) == (repr(want_dist), repr(want_prob))


def test_outputs_do_not_depend_on_the_blas_thread_count(tmp_path):
    """train, embed and navigate write the same bytes with one BLAS thread
    and with two. The catalog is large enough for OpenBLAS to split its
    matrix products across threads."""
    data, sampled, splits = tmp_path / "data", tmp_path / "sampled", tmp_path / "splits"
    assert run("synth", "--n", 1200, "--f", 32, "--k", 4, "--edges", 6000,
               "--noise", 0.05, "--seed", 7, "--out", data) == 0
    assert run("sample", "--features", data / "features.tsv",
               "--edges", data / "edges.tsv", "--seed", 7, "--out", sampled) == 0
    assert run("split", "--features", data / "features.tsv",
               "--pairs", sampled / "pairs.tsv", "--seed", 7, "--out", splits) == 0
    src = os.path.dirname(os.path.dirname(cli.__file__))
    digests = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        out = tmp_path / f"threads{threads}"
        fit = out / "fit"
        for argv in (
            ["train", "--features", data / "features.tsv", "--pairs",
             splits / "train.pairs", "--rank", 4, "--max-iter", 15, "--seed", 0,
             "--out", fit],
            ["embed", "--features", data / "features.tsv", "--model",
             fit / "model.bin", "--out", out / "emb"],
            ["navigate", "--features", data / "features.tsv", "--model",
             fit / "model.bin", "--source", "i0000", "--target", "i1199",
             "--knn-k", 10, "--out", out / "nav"],
        ):
            subprocess.run([sys.executable, "-m", "stylemetric.cli", *map(str, argv)],
                           env=env, check=True, capture_output=True)
        digests.append(_tree_digests(out))
    assert sorted(digests[0]) == ["emb/embedding.tsv", "fit/model.bin", "fit/train_log.tsv",
                                  "fit/train_report.json", "nav/path.tsv"]
    assert digests[0] == digests[1]


class TestExitCodes:
    def test_usage_error_is_exit_1(self):
        assert run_usage_error("train", "--rank", 2) == 1  # missing required
        assert run_usage_error("no-such-command") == 1
        assert run_usage_error() == 1

    def test_rank_zero_is_a_usage_error(self, pipeline):
        data, splits = pipeline / "data", pipeline / "splits"
        code = run_usage_error("train", "--features", data / "features.tsv",
                               "--pairs", splits / "train.pairs",
                               "--rank", 0, "--out", pipeline / "x")
        assert code == 1

    def test_removed_optimizer_settings_are_rejected(self, pipeline, tmp_path):
        """The optimizer and step flags and the config-file flag are gone:
        each is a usage error (exit 1)."""
        data, splits = pipeline / "data", pipeline / "splits"
        cfg = tmp_path / "t.cfg"
        cfg.write_text("rank = 2\n")
        train_args = ("train", "--features", data / "features.tsv",
                      "--pairs", splits / "train.pairs", "--out", tmp_path / "o")
        for flag, value in (("--optimizer", "gradient_ascent"),
                            ("--initial-step", "0.5"),
                            ("--step-decay", "0.5"),
                            ("--config", cfg)):
            assert run_usage_error(*train_args, flag, value) == 1

    def test_missing_file_is_exit_2(self, tmp_path, capsys):
        assert run("split", "--features", tmp_path / "nope.tsv",
                   "--pairs", tmp_path / "also-nope.tsv",
                   "--out", tmp_path / "o") == 2
        assert "error:" in capsys.readouterr().err

    def test_corrupt_model_is_exit_2(self, pipeline, tmp_path):
        bad = tmp_path / "bad.model"
        data, splits = pipeline / "data", pipeline / "splits"
        # the second declares a weighted_nn transform of 2**62 floats and holds
        # none; the third is a whole 8 x 1 model whose metadata is a list
        for blob in (b"not a model at all",
                     b"SMM1" + struct.pack("<II", 1, 11) + b"weighted_nn"
                     + struct.pack("<QQdI", 2**62, 2**62, 1.0, 2) + b"{}",
                     b"SMM1" + struct.pack("<II", 1, 8) + b"low_rank"
                     + struct.pack("<QQdI", 8, 1, 1.0, 2) + b"[]" + bytes(8 * 8 + 1)):
            bad.write_bytes(blob)
            assert run("eval", "--features", data / "features.tsv",
                       "--pairs", splits / "test.pairs", "--model", bad) == 2

    def test_personalized_model_without_the_pairs_users_is_exit_2(self, tmp_path, capsys):
        """A user the model's table lacks is a data error, also when the
        table is empty."""
        features, pairs, model = tmp_path / "f.tsv", tmp_path / "p.tsv", tmp_path / "m.bin"
        save_features(FeatureMatrix(["a", "b", "c"], np.eye(3)[:, :2]), features)
        pairs.write_text("#partition test\na\tb\trelated\tu1\na\tc\tunrelated\tu1\n")
        for user_ids in ([], ["u2"]):
            save_model(MetricModel("personalized", np.ones((2, 1)), 1.0, user_ids,
                                   np.ones((len(user_ids), 1))), model)
            capsys.readouterr()
            assert run("eval", "--features", features, "--pairs", pairs,
                       "--model", model) == 2
            assert "unknown user id: 'u1'" in capsys.readouterr().err

    def test_text_that_is_not_utf8_is_exit_2(self, pipeline, tmp_path, capsys):
        data = pipeline / "data"
        bad = tmp_path / "bad.tsv"
        bad.write_bytes(b"i001\n\xff\n")
        capsys.readouterr()
        assert run("recommend", "--features", data / "features.tsv",
                   "--model", data / "ground_truth.model", "--query", "i000",
                   "--category-file", bad) == 2
        assert f"{bad}:2: not UTF-8" in capsys.readouterr().err
        bad.write_bytes(b"i000\ti001\talso_bought\n\xff\n")
        assert run("sample", "--features", data / "features.tsv", "--edges", bad,
                   "--out", tmp_path / "s") == 2
        assert f"{bad}:2: not UTF-8" in capsys.readouterr().err

    def test_features_with_zero_columns_are_exit_2(self, tmp_path, capsys):
        """Training on an F = 0 feature file is refused, not fitted into an
        empty model."""
        features, pairs = tmp_path / "f.tsv", tmp_path / "p.tsv"
        features.write_text("#features 3 0\na\nb\nc\n")
        pairs.write_text("#partition train\na\tb\trelated\nb\tc\tunrelated\n")
        out = tmp_path / "o"
        capsys.readouterr()
        assert run("train", "--features", features, "--pairs", pairs, "--out", out) == 2
        assert "zero columns" in capsys.readouterr().err
        assert not (out / "model.bin").exists()

    def test_unknown_item_is_exit_2(self, pipeline, tmp_path):
        data, splits = pipeline / "data", pipeline / "splits"
        fit = pipeline / "fit"
        run("train", "--features", data / "features.tsv",
            "--pairs", splits / "train.pairs", "--rank", 2, "--max-iter", 5,
            "--seed", 0, "--out", fit)
        assert run("navigate", "--features", data / "features.tsv",
                   "--model", fit / "model.bin", "--source", "ghost",
                   "--target", "i001", "--out", tmp_path / "nav") == 2


def test_outputs_leave_no_tmp_files(pipeline, tmp_path):
    """Every output is written to <name>.tmp and renamed into place."""
    data, splits = pipeline / "data", pipeline / "splits"
    model = pipeline / "fit" / "model.bin"
    cands = tmp_path / "cands.txt"
    cands.write_text("i001\ni002\ni003\n")
    features = ("--features", data / "features.tsv")
    assert run("train", *features, "--pairs", splits / "train.pairs", "--rank", 2,
               "--max-iter", 5, "--out", pipeline / "fit") == 0
    for command, *argv in (
            ("eval", "--pairs", splits / "test.pairs", "--model", model),
            ("embed", "--model", model),
            ("cluster", "--model", model, "--k", 3, "--representatives", 2),
            ("navigate", "--model", model, "--source", "i000", "--target", "i064",
             "--knn-k", 119),
            ("recommend", "--model", model, "--query", "i000", "--category-file", cands),
            ("build-outfit", "--model", model, "--query", "i000",
             "--category-files", f"{cands},{cands}"),
            ("score-outfit", "--model", model, "--items", "i000,i001,i002"),
            ("makeover-delta", "--model", model, "--before", "i000,i001",
             "--after", "i000,i002")):
        assert run(command, *features, *argv, "--out", pipeline / command) == 0
        assert len(os.listdir(pipeline / command)) >= 2
    assert sorted(pipeline.rglob("*.tmp")) == []


def test_eval_text_format_and_report_file(pipeline, capsys, tmp_path):
    data, splits = pipeline / "data", pipeline / "splits"
    fit = pipeline / "fit"
    run("train", "--features", data / "features.tsv",
        "--pairs", splits / "train.pairs", "--rank", 2, "--max-iter", 30,
        "--seed", 0, "--out", fit)
    capsys.readouterr()
    out_dir = tmp_path / "evalout"
    assert run("eval", "--features", data / "features.tsv",
               "--pairs", splits / "validation.pairs",
               "--model", fit / "model.bin", "--format", "text",
               "--out", out_dir) == 0
    text = capsys.readouterr().out
    assert "accuracy:" in text
    assert "partition: validation" in text
    assert (out_dir / "eval_report.txt").exists()
