"""Every module-level import in the package and its tests is read, the CLI
imports nothing outside the stdlib but numpy, and each command loads only the
layers it runs.

A stdlib ast walk: each name a top-level import binds must appear as a name
somewhere in its module, so deleting code cannot leave dead imports behind.
"""

import ast
import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]

# The package's modules each subcommand loads, besides stylemetric.cli.
LAYERS = {
    "synth": ["catalog", "metric", "sampling", "synthetic"],
    "sample": ["catalog", "sampling"],
    "split": ["catalog", "sampling"],
    "train": ["catalog", "metric", "sampling", "training"],
    "train-personalized": ["catalog", "metric", "sampling", "training"],
    "eval": ["catalog", "evaluation", "metric", "sampling"],
    "embed": ["catalog", "metric", "stylespace"],
    "cluster": ["catalog", "metric", "stylespace"],
    "navigate": ["catalog", "metric", "stylespace"],
    "recommend": ["catalog", "metric", "recommend"],
    "build-outfit": ["catalog", "metric", "recommend"],
    "score-outfit": ["catalog", "metric", "recommend"],
    "makeover-delta": ["catalog", "metric", "recommend"],
}

# Runs cli.main(argv) and prints its exit code and the numpy and stylemetric
# modules then loaded as the last line.
_PROBE = ("import sys\n"
          "from stylemetric import cli\n"
          "try:\n"
          "    code = cli.main(sys.argv[1:])\n"
          "except SystemExit as exc:\n"
          "    code = exc.code\n"
          "print(code, *sorted(name for name in sys.modules\n"
          "                    if name == 'numpy' or name.partition('.')[0] == 'stylemetric'))\n")


def _env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return env


def _loaded(argv):
    """(exit code, numpy and stylemetric modules loaded) of cli.main(argv),
    run in a fresh interpreter."""
    done = subprocess.run([sys.executable, "-c", _PROBE, *map(str, argv)], env=_env(),
                          capture_output=True, text=True, timeout=60)
    code, *modules = done.stdout.splitlines()[-1].split()
    return int(code), modules


def _unused_imports(source):
    """(line, name) of every top-level import whose bound name is never used."""
    tree = ast.parse(source)
    bound = {}
    for node in tree.body:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in bound.items() if name not in used)


def test_the_check_finds_an_unused_import():
    source = "import os\nimport sys\nfrom a.b import c as d, e\nsys.exit(e)\n"
    assert _unused_imports(source) == [(1, "os"), (3, "d")]


def test_no_unused_module_level_imports():
    paths = sorted([*ROOT.glob("src/stylemetric/*.py"), *ROOT.glob("tests/*.py")])
    unused = [f"{path.relative_to(ROOT)}:{line}: {name}"
              for path in paths
              for line, name in _unused_imports(path.read_text(encoding="utf-8"))]
    assert unused == []


def test_the_cli_imports_only_the_stdlib_and_numpy():
    """Importing the CLI loads no third-party package but numpy: every other
    import would be paid by every command's start-up."""
    probe = ("import sys\n"
             "before = set(sys.modules)\n"
             "import stylemetric.cli\n"
             "print(*sorted({name.split('.')[0] for name in set(sys.modules) - before}))\n")
    out = subprocess.run([sys.executable, "-c", probe], env=_env(), capture_output=True,
                         text=True, check=True, timeout=60).stdout.split()
    assert "stylemetric" in out
    assert [name for name in out
            if name not in sys.stdlib_module_names and name not in ("numpy", "stylemetric")] == []


@pytest.mark.parametrize("argv, code", [(["--help"], 0), (["train", "--help"], 0),
                                        (["train", "--rank", "0"], 1)])
def test_the_parser_loads_no_numpy_and_no_layer(argv, code):
    """Help and usage errors build the parser alone: no numpy, and no module
    of the package but the CLI."""
    assert _loaded(argv) == (code, ["stylemetric", "stylemetric.cli"])


def test_every_subcommand_has_its_layers_listed(every_command):
    assert sorted(LAYERS) == sorted(every_command)


@pytest.mark.parametrize("command", sorted(LAYERS))
def test_each_subcommand_loads_only_its_own_layers(every_command, command, tmp_path):
    argv = every_command[command][0]
    assert _loaded([*argv[:-1], tmp_path / "out"]) == (
        0, sorted(["numpy", "stylemetric", "stylemetric.cli",
                   *(f"stylemetric.{layer}" for layer in LAYERS[command])]))
