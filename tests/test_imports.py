"""Every module-level import in the package and its tests is read.

A stdlib ast walk: each name a top-level import binds must appear as a name
somewhere in its module, so deleting code cannot leave dead imports behind.
"""

import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parents[1]


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
