"""No imported name goes unused, in the package or in its tests.

The package's __init__ and the tests' conftest re-export what they import
(`from conftest import circle` in the test modules), so they are exempt.
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
