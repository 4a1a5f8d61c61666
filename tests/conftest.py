"""Hypothesis settings for the whole suite: derandomized and without an
example database, so every run draws the same examples; no deadline, and a
bounded number of examples. Hypothesis also caches what it learns from the
source under its storage directory, .hypothesis/ in the working directory by
default; the suite moves that to a temporary directory removed at exit, so a
test run writes nothing into the checkout.

The every_command fixture runs each subcommand once, for the tests of its
manifest and of what it imports."""

import tempfile

import pytest
from hypothesis import settings
from hypothesis.configuration import set_hypothesis_home_dir

settings.register_profile("stylemetric", derandomize=True, database=None,
                          deadline=None, max_examples=100)
settings.load_profile("stylemetric")


def pytest_configure(config):
    storage = tempfile.TemporaryDirectory(prefix="hypothesis-")
    config.add_cleanup(storage.cleanup)
    set_hypothesis_home_dir(storage.name)


@pytest.fixture(scope="session")
def every_command(tmp_path_factory):
    """Each subcommand run once in process, in pipeline order, with --out
    <root>/<command> as its last flag: {command: (argv, its input files)}.
    Later commands read what earlier ones wrote. sample reads --triples,
    train-personalized --warm-start, and build-outfit two slot files."""
    from stylemetric import cli

    root = tmp_path_factory.mktemp("every_command")
    data, splits, fit = root / "synth", root / "split", root / "train"
    features, model, train = data / "features.tsv", fit / "model.bin", splits / "train.pairs"
    slot_a, slot_b = root / "slot_a.txt", root / "slot_b.txt"
    slot_a.write_text("i001\ni002\ni003\n")
    slot_b.write_text("i010\ni011\n")
    style = ["--features", features, "--model", model]
    steps = [
        ("synth", ["--n", 300, "--f", 8, "--k", 2, "--edges", 100,
                   "--mode", "two_population_users", "--seed", 4], []),
        ("sample", ["--features", features, "--edges", data / "edges.tsv",
                    "--triples", data / "triples.tsv", "--seed", 4],
         [features, data / "edges.tsv", data / "triples.tsv"]),
        ("split", ["--features", features, "--pairs", root / "sample" / "pairs.tsv",
                   "--seed", 4], [features, root / "sample" / "pairs.tsv"]),
        ("train", ["--features", features, "--pairs", train, "--rank", 2, "--max-iter", 5],
         [features, train]),
        ("train-personalized", ["--features", features, "--pairs", train,
                                "--warm-start", model, "--max-iter", 3],
         [features, train, model]),
        ("eval", ["--features", features, "--pairs", splits / "test.pairs",
                  "--model", root / "train-personalized" / "model.bin"],
         [features, splits / "test.pairs", root / "train-personalized" / "model.bin"]),
        ("embed", style, [features, model]),
        ("cluster", [*style, "--k", 3, "--representatives", 2], [features, model]),
        ("navigate", [*style, "--source", "i000", "--target", "i100"], [features, model]),
        ("recommend", [*style, "--query", "i000", "--category-file", slot_a],
         [features, model, slot_a]),
        ("build-outfit", [*style, "--query", "i000", "--category-files", f"{slot_a},{slot_b}"],
         [features, model, slot_a, slot_b]),
        ("score-outfit", [*style, "--items", "i000,i001,i002"], [features, model]),
        ("makeover-delta", [*style, "--before", "i000,i001", "--after", "i000,i002"],
         [features, model]),
    ]
    commands = {}
    for command, argv, inputs in steps:
        argv = [command, *map(str, argv), "--out", str(root / command)]
        assert cli.main(argv) == 0, argv
        commands[command] = (argv, [str(p) for p in inputs])
    return commands
