"""Lint steps on the standard library.

No module imports a name it never uses.  An import counts as used if its
bound name is read anywhere in the module, appears in a string annotation,
or is listed in `__all__`.  `__future__` imports and star imports are not
checked.

No module of the package imports or reads a `_`-prefixed name of another
package module, save the band kernel and the argument checks of `spectral`
(its private transforms and band layout, which the integrators run on, and
`_check_int` and `_check_real`).  Dunder names such as `__version__` are not
private.

The package tests an argument for being an integer (`numbers.Integral`) only
in `spectral._check_int`, and for being finite by a chained comparison ending
in `math.inf` only in `spectral._check_real`.  Array checks combine their
comparisons with `&` and are not chained.
"""
import ast
import os

import pytest

from conftest import name_reads

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


PACKAGE = "bardina"
SHARED_PRIVATE = {"spectral"}  # the band kernel and the argument checks


def _private(name):
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def private_reads(path):
    """`path:line: module.name` of every `_`-prefixed name of another package
    module that the module at path imports, or reads as an attribute of an
    imported package module."""
    with open(path, encoding="utf-8") as f:
        tree = ast.parse(f.read(), filename=path)
    rel = os.path.relpath(path, ROOT)
    modules, hits = {}, []  # bound name -> package module
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            if node.level == 0 and (node.module or "").partition(".")[0] != PACKAGE:
                continue
            module = (node.module or "").removeprefix(PACKAGE).lstrip(".")
            for alias in node.names:
                if not module:  # from . import spectral
                    modules[alias.asname or alias.name] = alias.name
                elif _private(alias.name):
                    hits.append((node.lineno, module, alias.name))
        elif isinstance(node, ast.Import):
            for alias in node.names:
                head, _, module = alias.name.partition(".")
                if head == PACKAGE and module and alias.asname:
                    modules[alias.asname] = module
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in modules and _private(node.attr)):
            hits.append((node.lineno, modules[node.value.id], node.attr))
    return [f"{rel}:{line}: {module}.{name}" for line, module, name in sorted(hits)
            if module not in SHARED_PRIVATE]


def test_no_private_name_crosses_a_package_module():
    files = list(_python_files(os.path.join("src", PACKAGE)))
    assert files
    assert [hit for path in files for hit in private_reads(path)] == []


def test_scan_finds_a_private_name_of_another_module(tmp_path):
    path = tmp_path / "sample.py"
    path.write_text("from . import __version__, instability as inst\n"
                    "from .spectral import _band, make_grid\n"
                    "from .dynamics import _check_tangent\n"
                    "from bardina.bounds import _region_empty\n"
                    "import bardina.io as ckpt\n"
                    "import bardina.spectral as sp\n"
                    "x = inst._region_points(1, 0.5), inst.region_lattice, ckpt._HEADER\n"
                    "y = sp._full, make_grid(8)._neg, _band, _check_tangent, __version__\n")
    assert [hit.rpartition(": ")[2] for hit in private_reads(str(path))] == [
        "dynamics._check_tangent", "bounds._region_empty",
        "instability._region_points", "io._HEADER"]


def _module_level_private(tree):
    """Every `_`-prefixed function, class or assigned name at the top level of the module."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            names = [t.id for t in (node.targets if isinstance(node, ast.Assign) else [node.target])
                     if isinstance(t, ast.Name)]
        else:
            continue
        yield from filter(_private, names)


def unread_private(package_dir):
    """`module.name` of every `_`-prefixed module-level name of a package module that
    no module of the package reads outside its own definition."""
    trees = {}
    for name in sorted(os.listdir(package_dir)):
        if name.endswith(".py"):
            with open(os.path.join(package_dir, name), encoding="utf-8") as f:
                trees[name[:-3]] = ast.parse(f.read(), filename=name)
    read = set().union(*map(name_reads, trees.values()))
    return [f"{module}.{name}" for module, tree in trees.items()
            for name in _module_level_private(tree) if name not in read]


def test_every_private_helper_is_read_in_the_package():
    # a private name that nothing in the package reads is dead code, whatever the tests call
    assert unread_private(os.path.join(ROOT, "src", PACKAGE)) == []


def test_scan_finds_a_private_name_only_its_own_definition_reads(tmp_path):
    (tmp_path / "a.py").write_text(
        "_USED = 1\n_SPARE = 2\n__version__ = '1'\n"
        "def _recursive(n): return _recursive(n - 1)\n"
        "def _helper(): return _USED\n"
        "class _Shape:\n    def copy(self): return _Shape()\n"
        "def public(): 'reads _SPARE'\n")
    (tmp_path / "b.py").write_text("from . import a\nx = a._helper()\n_written: int = 3\n"
                                   "_written = 4\n")
    assert unread_private(str(tmp_path)) == [
        "a._SPARE", "a._recursive", "a._Shape", "b._written", "b._written"]


ARGUMENT_CHECKS = {"numbers.Integral": ("spectral", "_check_int"),
                   "math.inf": ("spectral", "_check_real")}  # idiom -> its one place


def _dotted(node):
    if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
        return f"{node.value.id}.{node.attr}"
    return None


def argument_checks(package_dir):
    """`module.function:line: idiom` of every read of numbers.Integral and every
    chained comparison ending in math.inf in the package, outside the helper
    that owns the idiom."""
    hits = []
    for name in sorted(os.listdir(package_dir)):
        if not name.endswith(".py"):
            continue
        with open(os.path.join(package_dir, name), encoding="utf-8") as f:
            tree = ast.parse(f.read(), filename=name)

        def visit(node, function):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                function = node.name
            idiom = _dotted(node)
            if isinstance(node, ast.Compare) and len(node.ops) > 1:
                idiom = _dotted(node.comparators[-1])
            elif idiom == "math.inf":  # a plain read or a single comparison is no check
                idiom = None
            if idiom in ARGUMENT_CHECKS and ARGUMENT_CHECKS[idiom] != (name[:-3], function):
                hits.append(f"{name[:-3]}.{function}:{node.lineno}: {idiom}")
            for child in ast.iter_child_nodes(node):
                visit(child, function)

        visit(tree, None)
    return hits


def test_every_argument_check_is_one_of_the_two_helpers():
    # one rule, one message shape: integers by spectral._check_int, reals by _check_real
    assert argument_checks(os.path.join(ROOT, "src", PACKAGE)) == []


def test_scan_finds_an_argument_check_outside_its_helper(tmp_path):
    (tmp_path / "spectral.py").write_text(
        "import math, numbers\n"
        "def _check_int(name, value):\n    return isinstance(value, numbers.Integral)\n"
        "def _check_real(name, value):\n    return 0 < value < math.inf\n"
        "def smooth(alpha):\n    return 0 <= alpha < math.inf\n")
    (tmp_path / "other.py").write_text(
        "import math, numbers\n"
        "def count(n):\n    return isinstance(n, numbers.Integral)\n"
        "def grid(x):\n    return (x > 0) & (x < math.inf), 0 < x < 1, x < math.inf\n")
    assert argument_checks(str(tmp_path)) == [
        "other.count:3: numbers.Integral", "spectral.smooth:7: math.inf"]
