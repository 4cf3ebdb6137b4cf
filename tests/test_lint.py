"""Lint step on the standard library: no module imports a name it never uses.

An import counts as used if its bound name is read anywhere in the module,
appears in a string annotation, or is listed in `__all__`.  `__future__`
imports and star imports are not checked.
"""
import ast
import os

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DIRECTORIES = ["src", "tests", "demos", "perfbench"]


def _python_files(directory):
    for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, directory)):
        dirnames[:] = sorted(d for d in dirnames if not d.startswith("."))
        for name in sorted(filenames):
            if name.endswith(".py"):
                yield os.path.join(dirpath, name)


def _imports(tree):
    """(bound name, line) of every checked import in the module."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.partition(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                if alias.name != "*":
                    yield alias.asname or alias.name, node.lineno


def _used_names(tree):
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, (ast.arg, ast.FunctionDef, ast.AsyncFunctionDef, ast.AnnAssign)):
            # a quoted annotation names its types inside a string
            for ann in (getattr(node, "annotation", None), getattr(node, "returns", None)):
                if isinstance(ann, ast.Constant) and isinstance(ann.value, str):
                    used |= {n.id for n in ast.walk(ast.parse(ann.value, mode="eval"))
                             if isinstance(n, ast.Name)}
        elif (isinstance(node, ast.Assign)
              and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            used |= {c.value for c in ast.walk(node.value)
                     if isinstance(c, ast.Constant) and isinstance(c.value, str)}
    return used


def unused_imports(path):
    with open(path, encoding="utf-8") as f:
        tree = ast.parse(f.read(), filename=path)
    used = _used_names(tree)
    rel = os.path.relpath(path, ROOT)
    return [f"{rel}:{line}: {name}" for name, line in _imports(tree) if name not in used]


@pytest.mark.parametrize("directory", DIRECTORIES)
def test_no_unused_imports(directory):
    files = list(_python_files(directory))
    assert files
    assert [hit for path in files for hit in unused_imports(path)] == []


def test_scan_finds_an_unused_import(tmp_path):
    path = tmp_path / "sample.py"
    path.write_text("from __future__ import annotations\nimport math\nimport os.path\n"
                    "from json import dumps as d, loads\n"
                    "def f(x: 'Sequence') -> None:\n    return os.path.join(loads(x))\n")
    assert [hit.rpartition(": ")[2] for hit in unused_imports(str(path))] == ["math", "d"]
