"""No imported name goes unused, in the package or in its tests, no
function or class of the package, public or private, is left for the
tests alone, no module spells the per-sample planar pairing or the fiber
metric's sixth powers itself, shifts samples with np.roll or takes an
FFT, only the two projections read an M3 point's Gram solve, no
function builds or takes a curve's frame in place of
DiscreteCurve.frame, no module imports scipy's splines, and importing the
package, or running its M3, M2 and projection solvers, loads neither
scipy's quadrature nor its splines.

The package's __init__ and the tests' conftest re-export what they import
(`from conftest import circle` in the test modules), so they are exempt
from the import check.
"""

import ast
import json
import os
import subprocess
import sys
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


# the fiber metric g = diag(4, q1^2, q1^-6) and its M2/M4 kin are spelled
# once, by pointwise_geometry._fiber; validation is reference code
FIBER_EXEMPT = {"src/curveflow/pointwise_geometry.py", "src/curveflow/validation.py"}


def fiber_powers(source: str) -> list[int]:
    """Lines that raise a non-constant base to the power 6 or -6, the
    q1^-6 weight of the fiber metric and the q1^6 of its inverse."""
    def sixth(node):
        if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
            node = node.operand
        return isinstance(node, ast.Constant) and node.value == 6

    return sorted(node.lineno for node in ast.walk(ast.parse(source))
                  if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Pow)
                  and sixth(node.right) and not isinstance(node.left, ast.Constant))


def test_fiber_powers_are_found():
    source = ("w = q[:, 0] ** -6\nc = 2.0 ** -6 * q1 ** 2\nv = (x / y) ** 6\n"
              "u = x ** 6.0 + x ** 5 + x ** -(6)\nt = 6 ** x\n")
    assert fiber_powers(source) == [1, 3, 4, 4]


def test_only_pointwise_geometry_spells_the_fiber_metric():
    files = [path for path in sorted(ROOT.glob("src/curveflow/*.py"))
             if str(path.relative_to(ROOT)) not in FIBER_EXEMPT]
    found = [f"{path.relative_to(ROOT)}:{line} raises to the power 6; "
             "read the fiber metric from pointwise_geometry"
             for path in files for line in fiber_powers(path.read_text())]
    assert files and not found, "\n".join(found)


# the cyclic shift along the samples is curve_core._shift; validation is
# reference code
ROLL_EXEMPT = {"src/curveflow/validation.py"}


def rolls(source: str) -> list[int]:
    """Lines that call np.roll, or a roll imported from numpy."""
    return sorted(node.lineno for node in ast.walk(ast.parse(source))
                  if isinstance(node, ast.Call)
                  and getattr(node.func, "attr", getattr(node.func, "id", None)) == "roll")


def test_rolls_are_found():
    source = ("import numpy as np\nfrom numpy import roll\n"
              "a = np.roll(x, -1, axis=0) - np.roll(x, 1, axis=0)\nb = _shift(x, 1)\n"
              "c = roll(x, 2)\nd = numpy.roll\ne = np.rollaxis(x, 1)\n")
    assert rolls(source) == [3, 3, 5]


def test_no_roll_in_the_library():
    files = [path for path in sorted(ROOT.glob("src/curveflow/*.py"))
             if str(path.relative_to(ROOT)) not in ROLL_EXEMPT]
    found = [f"{path.relative_to(ROOT)}:{line} calls np.roll; use curve_core._shift"
             for path in files for line in rolls(path.read_text())]
    assert files and not found, "\n".join(found)


def ffts(source: str) -> list[int]:
    """Lines that reach an FFT: an attribute named fft, or an import of an
    fft module or of a name from one."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute):
            found += [node.lineno] * (node.attr == "fft")
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names = [getattr(node, "module", None) or ""] + [a.name for a in node.names]
            found += [node.lineno] * any("fft" in name.split(".") for name in names)
    return sorted(found)


def test_ffts_are_found():
    source = ("import numpy as np\nfrom numpy import fft\nfrom numpy.fft import ifft\n"
              "import scipy.fft as sf\na = np.fft.fft(x)\nb = np.fft.rfftfreq(4)\n"
              "c = fft_size + np.fftpack + x.fft_plan\n")
    assert ffts(source) == [2, 3, 4, 5, 5, 6]


def test_no_fft_in_the_library():
    files = sorted(ROOT.glob("src/curveflow/*.py"))
    found = [f"{path.relative_to(ROOT)}:{line} uses an FFT; solve cyclic systems "
             "with rtransform.CyclicFactor"
             for path in files for line in ffts(path.read_text())]
    assert files and not found, "\n".join(found)


# the hidden-constraint projection and the image projection: every other
# solve with the Gram system J g^-1 J^T goes through one of them
GRAM_READERS = {"src/curveflow/constrained_hamiltonian.py": "_tangent_momentum",
                "src/curveflow/rtransform.py": "project_image"}


def gram_reads(source: str, reader: str | None) -> list[tuple[int, str]]:
    """(line, function) of every read of an attribute named gram (the M3
    point's Gram solve, _M3Point.gram) outside the module-level function
    named reader; function is the module-level definition it is in, or
    "<module>"."""
    found = []
    for top in ast.parse(source).body:
        name = getattr(top, "name", "<module>")
        found += [(node.lineno, name) for node in ast.walk(top)
                  if isinstance(node, ast.Attribute) and node.attr == "gram"
                  and isinstance(node.ctx, ast.Load) and name != reader]
    return sorted(found)


def test_gram_reads_are_found():
    source = ("def _tangent_momentum(pt, p):\n    return pt.gram(pt.jac.apply(p))\n"
              "def _hidden_multiplier(pt, p):\n    return pt.gram(p)\n"
              "class Point:\n    def solve(self, h):\n        solve = self.gram\n"
              "        return solve(h)\n"
              "gram = 1\nx = pt.gram_bands(g) + gram\n")
    assert gram_reads(source, "_tangent_momentum") == [(4, "_hidden_multiplier"),
                                                       (7, "Point")]
    assert gram_reads(source, None) == [(2, "_tangent_momentum"), (4, "_hidden_multiplier"),
                                        (7, "Point")]


def test_only_the_projections_solve_the_gram_system():
    files = sorted(ROOT.glob("src/curveflow/*.py"))
    found = [f"{path.relative_to(ROOT)}:{line} reads the Gram solve in {name}; project "
             "with constrained_hamiltonian._tangent_momentum or rtransform.project_image"
             for path in files
             for line, name in gram_reads(path.read_text(),
                                          GRAM_READERS.get(str(path.relative_to(ROOT))))]
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


# only F_integral and validate integrate with scipy; the rest of scipy that
# this loads (optimize, special, sparse, spatial) comes with it.  The M2
# tables are numpy ports of scipy's splines, so no module imports those.
DEFERRED = ("scipy.integrate", "scipy.interpolate")
BANNED = ("scipy.interpolate",)


def deferred_imports(source: str) -> list[tuple[int, str]]:
    """(line, module) of every import of a DEFERRED module, or of a name in
    it, that runs when the source is imported: at module level or in a
    class body, not in a function; and of every import of a BANNED module,
    in a function too."""
    found, todo = [], [(ast.parse(source), DEFERRED)]
    while todo:
        parent, watched = todo.pop()
        for node in ast.iter_child_nodes(parent):
            if isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom) and node.module:
                names = [f"{node.module}.{a.name}" for a in node.names]
            else:
                names = []
            found += [(node.lineno, module) for module in watched
                      if any(n == module or n.startswith(module + ".") for n in names)]
            in_function = isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
            todo.append((node, BANNED if in_function else watched))
    return sorted(found)


def test_deferred_imports_are_found():
    source = ("import scipy.integrate\nfrom scipy.interpolate import CubicSpline\n"
              "from scipy import integrate, linalg\nfrom scipy.linalg import solve\n"
              "import scipy.interpolate._cubic as cubic\n"
              "if True:\n    from scipy.integrate import quad\n"
              "class T:\n    from scipy import interpolate\n"
              "def f():\n    from scipy.integrate import solve_ivp\n    return solve_ivp\n"
              "class S:\n    def g(self):\n        from scipy.interpolate import CubicSpline\n"
              "        return CubicSpline\n")
    assert deferred_imports(source) == [
        (1, "scipy.integrate"), (2, "scipy.interpolate"), (3, "scipy.integrate"),
        (5, "scipy.interpolate"), (7, "scipy.integrate"), (9, "scipy.interpolate"),
        (15, "scipy.interpolate")]


def test_library_defers_quadrature_and_splines():
    files = sorted(ROOT.glob("src/curveflow/*.py"))
    found = [f"{path.relative_to(ROOT)}:{line} imports {name}; " + (
                 "the package uses no scipy splines" if name in BANNED else
                 "import it in the function that calls it, not at import time")
             for path in files for line, name in deferred_imports(path.read_text())]
    assert files and not found, "\n".join(found)


# run in a fresh interpreter: prints, after each stage, which of HEAVY are loaded
IMPORT_BUDGET = """
import json, sys
import numpy as np
HEAVY = ("scipy.integrate", "scipy.interpolate", "scipy.optimize", "scipy.special",
         "scipy.sparse", "scipy.spatial")
loaded = {}
def note(stage):
    loaded[stage] = [m for m in HEAVY if m in sys.modules]
import curveflow
note("import curveflow")
import curveflow.cli
note("import curveflow.cli")
from curveflow import curve_core as cc, geodesic_api as ga, validation as va
c0 = va.circle(32)
th = c0.theta
c1 = cc.DiscreteCurve(np.stack([1.15 * np.cos(th), 0.87 * np.sin(th)], 1), True)
ga.geodesic_ivp("M3", c0, 0.3 * c0.points, 0.2, steps=2)
note("M3 geodesic_ivp")
ga.geodesic_bvp("M3", c0, c1, K=5, T=1.0, dt=0.05, modes=4, tol=5e-3, max_iter=25)
note("M3 geodesic_bvp")
ga.horizontal_project(c0, np.stack([np.cos(2 * th), np.sin(3 * th)], 1))
note("horizontal_project")
d = ga.distance("M2", va.wavy_curve(64, seed=1, closed=False),
                va.wavy_curve(64, seed=2, closed=False)).value
note("M2 distance")
from curveflow import pointwise_geometry as pg
pg.F_integral(0.5)
note("F_integral")
print(json.dumps({"loaded": loaded, "m2_distance": d}))
"""


def test_import_budget():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")])))
    proc = subprocess.run([sys.executable, "-c", IMPORT_BUDGET], capture_output=True,
                          text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout.splitlines()[-1])
    loaded = out["loaded"]
    early = {stage: mods for stage, mods in loaded.items() if mods and stage != "F_integral"}
    assert len(loaded) == 7 and not early, early
    # the probe sees a deferred load: F_integral imports quad
    assert "scipy.integrate" in loaded["F_integral"]
    assert 0 < out["m2_distance"] < float("inf")
