"""No imported name goes unused, in the package or in its tests, no
function or class of the package, public or private, is left for the
tests alone, no module spells the per-sample planar pairing itself, and no
function builds or takes a curve's frame in place of DiscreteCurve.frame.

The package's __init__ and the tests' conftest re-export what they import
(`from conftest import circle` in the test modules), so they are exempt
from the import check.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
EXEMPT = {"src/curveflow/__init__.py", "tests/conftest.py"}


def unused_imports(source: str) -> list[tuple[int, str]]:
    """(line, name) of every name bound by an import and never read."""
    tree = ast.parse(source)
    bound = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound += [(node.lineno, a.asname or a.name.split(".")[0]) for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [(node.lineno, a.asname or a.name) for a in node.names]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [(line, name) for line, name in bound if name not in used]


def test_unused_imports_are_found():
    source = "import os\nimport numpy as np\nfrom json import dumps, loads\nnp.zeros(loads('1'))\n"
    assert unused_imports(source) == [(1, "os"), (3, "dumps")]


def test_no_unused_imports():
    files = sorted(ROOT.glob("src/curveflow/*.py")) + sorted(ROOT.glob("tests/*.py"))
    found = [f"{path.relative_to(ROOT)}:{line} imports {name}"
             for path in files if str(path.relative_to(ROOT)) not in EXEMPT
             for line, name in unused_imports(path.read_text())]
    assert files and not found, "\n".join(found)


def unreferenced(sources: dict) -> list[tuple[str, int, str]]:
    """(file, line, name) of every module-level function or class, public
    or private (not a dunder name), in the sources, a dict of file name ->
    source text, that none of the sources references: by name, as an
    attribute or in an import, so a re-export from __init__ counts."""
    trees = {name: ast.parse(text) for name, text in sources.items()}
    used = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                used.update(a.name for a in node.names)
    return [(name, node.lineno, node.name) for name, tree in trees.items()
            for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))
            and not node.name.startswith("__") and node.name not in used]


def test_unreferenced_private_helpers_are_found():
    sources = {"a.py": "def _kept():\n    pass\n\n\ndef _called():\n    return _kept\n\n\n"
                       "class _Alone:\n    def _method(self):\n        pass\n\n\n"
                       "def exported():\n    pass\n\n\ndef alone():\n    pass\n",
               "b.py": "from a import _kept\nimport a\na._called()\n",
               "__init__.py": "from .a import exported\n"}
    assert unreferenced(sources) == [("a.py", 9, "_Alone"), ("a.py", 18, "alone")]


# perfbench/sweep.py looks up the traced span of this name and fails if the
# function is gone; it goes when the benchmark counts fiber solves otherwise
READ_BY_BENCHMARK = {"fiber_distance"}


def test_no_test_only_private_helpers():
    sources = {str(path.relative_to(ROOT)): path.read_text()
               for path in sorted(ROOT.glob("src/curveflow/*.py"))}
    found = [f"{path}:{line} defines {name}, which no module of the package uses"
             for path, line, name in unreferenced(sources) if name not in READ_BY_BENCHMARK]
    assert sources
    assert not found, "\n".join(found)


# fiber pairings run over d = 2..4 components; validation is reference code
PAIRING_EXEMPT = {"src/curveflow/pointwise_geometry.py", "src/curveflow/validation.py"}


def planar_pairings(source: str) -> list[int]:
    """Lines that spell <a_k, b_k> as einsum("ki,ki->k", a, b), which
    curve_core._dot and FieldJet define once."""
    return [node.lineno for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Call)
            and getattr(node.func, "attr", getattr(node.func, "id", None)) == "einsum"
            and node.args and isinstance(node.args[0], ast.Constant)
            and str(node.args[0].value).replace(" ", "") == "ki,ki->k"]


def test_planar_pairings_are_found():
    source = ('import numpy as np\nfrom numpy import einsum\n'
              'a = np.einsum("ki,ki->k", x, y)\nb = np.einsum("kij,kj->ki", g, x)\n'
              'c = einsum("ki, ki -> k", x, y)\n')
    assert planar_pairings(source) == [3, 5]


def test_no_planar_pairing_outside_the_jet():
    files = [path for path in sorted(ROOT.glob("src/curveflow/*.py"))
             if str(path.relative_to(ROOT)) not in PAIRING_EXEMPT]
    found = [f"{path.relative_to(ROOT)}:{line} pairs with einsum; use curve_core._dot"
             for path in files for line in planar_pairings(path.read_text())]
    assert files and not found, "\n".join(found)


def frame_rebuilds(source: str) -> list[tuple[int, str]]:
    """(line, what) of every call of build_frame outside DiscreteCurve,
    whose cached frame is the one build, and of every parameter named frame
    with a default, a cache that DiscreteCurve.frame makes redundant."""
    tree = ast.parse(source)
    home = {id(node) for cls in ast.walk(tree)
            if isinstance(cls, ast.ClassDef) and cls.name == "DiscreteCurve"
            for node in ast.walk(cls)}
    found = []
    for node in ast.walk(tree):
        if (isinstance(node, ast.Call) and id(node) not in home
                and getattr(node.func, "attr", getattr(node.func, "id", None)) == "build_frame"):
            found.append((node.lineno, "calls build_frame"))
        elif isinstance(node, (ast.FunctionDef, ast.Lambda)):
            args = node.args
            positional = args.posonlyargs + args.args
            defaulted = positional[len(positional) - len(args.defaults):] + [
                a for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None]
            found += [(node.lineno, "takes frame=") for a in defaulted if a.arg == "frame"]
    return sorted(found)


def test_frame_rebuilds_are_found():
    source = ("import curveflow.curve_core as cc\nfrom curveflow.curve_core import build_frame\n"
              "def f(curve, frame=None):\n    return frame or build_frame(curve)\n"
              "def g(curve, *, frame=None, fr=None):\n    return cc.build_frame(curve)\n"
              "def _integrand(metric_id, frame, jh):\n    return frame.v\n"
              "h = lambda curve, frame=None: frame\n"
              "class DiscreteCurve:\n    frame = property(lambda self: build_frame(self))\n")
    assert frame_rebuilds(source) == [(3, "takes frame="), (4, "calls build_frame"),
                                      (5, "takes frame="), (6, "calls build_frame"),
                                      (9, "takes frame=")]


def test_the_curve_builds_its_frame():
    files = sorted(ROOT.glob("src/curveflow/*.py"))
    found = [f"{path.relative_to(ROOT)}:{line} {what}; read curve.frame"
             for path in files for line, what in frame_rebuilds(path.read_text())]
    assert files and not found, "\n".join(found)
