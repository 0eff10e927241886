"""Every function and class defined in the package has a user.

A definition counts as used when its name appears anywhere in the
package, the tests or the benchmark scripts: as a name, an attribute,
an imported name or a string constant (the benchmark tracer names
``Matrix`` methods by string).  Dunder methods are used implicitly.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "zzqh"


def _trees(paths):
    for path in paths:
        yield path, ast.parse(path.read_text(), filename=str(path))


def test_every_definition_is_used():
    defined = {}
    for path, tree in _trees(sorted(PACKAGE.glob("*.py"))):
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)):
                defined.setdefault(node.name, []).append(
                    f"{path.name}:{node.lineno}")
    sources = (sorted((ROOT / "src").rglob("*.py"))
               + sorted((ROOT / "tests").glob("*.py"))
               + sorted((ROOT / "bench").glob("*.py")))
    used = set()
    for _, tree in _trees(sources):
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.alias):
                used.add(node.name.rsplit(".", 1)[-1])
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                used.add(node.value)
    unused = sorted((name, where) for name, where in defined.items()
                    if name not in used
                    and not (name.startswith("__") and name.endswith("__")))
    assert not unused, unused


def test_the_engine_draws_no_random_numbers():
    """Every answer is certified, never searched for: no module of the
    package imports ``random``."""
    found = []
    for path, tree in _trees(sorted(PACKAGE.glob("*.py"))):
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            found += [f"{path.name}:{node.lineno}" for name in names
                      if name.split(".")[0] == "random"]
    assert not found, found


RETIRED_PRODUCTS = {"normal_form", "multiply", "free_mul"}


def _second_product_routes(tree, name):
    """``name:line`` for each call of ``reduce_path`` and each definition
    of a retired product in ``tree``."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            func = node.func
            called = func.attr if isinstance(func, ast.Attribute) else (
                func.id if isinstance(func, ast.Name) else None)
            if called == "reduce_path":
                found.append(f"{name}:{node.lineno}")
        elif (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
              and node.name in RETIRED_PRODUCTS):
            found.append(f"{name}:{node.lineno}")
    return found


def test_the_engine_has_one_product_route():
    """Every product outside ``compute_basis`` is an action row of a
    projective: no module of the package calls ``reduce_path``, the
    oracle the tests check those rows against, or defines the retired
    ``Element`` products ``normal_form``, ``multiply`` or ``free_mul``.
    The scan itself sees each of them in a snippet."""
    snippet = ast.parse("a.reduce_path(p)\nreduce_path(p)\n"
                        "def normal_form(e): pass\n"
                        "class E:\n    def free_mul(self, o): pass\n"
                        "    def multiply(self, o): pass\n")
    assert sorted(_second_product_routes(snippet, "s")) == [
        "s:1", "s:2", "s:3", "s:5", "s:6"]
    found = [hit for path, tree in _trees(sorted(PACKAGE.glob("*.py")))
             for hit in _second_product_routes(tree, path.name)]
    assert not found, found


RETIRED_LIFTS = {"step_at", "_lift_generators"}


def _second_lift_routes(tree, name):
    """``name:line`` for each definition of a retired lift in ``tree`` and
    each call of a ``.solve`` method outside ``Resolution.lift``."""
    inside = {id(node) for cls in ast.walk(tree)
              if isinstance(cls, ast.ClassDef) and cls.name == "Resolution"
              for fn in cls.body
              if isinstance(fn, ast.FunctionDef) and fn.name == "lift"
              for node in ast.walk(fn)}
    found = []
    for node in ast.walk(tree):
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr == "solve" and id(node) not in inside):
            found.append(f"{name}:{node.lineno}")
        elif (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
              and node.name in RETIRED_LIFTS):
            found.append(f"{name}:{node.lineno}")
    return found


def test_the_engine_has_one_lift_route():
    """Every lift through a resolution is ``Resolution.lift``, one solve
    on one (vertex, bidegree) block: no module of the package defines the
    retired ``step_at`` or ``_lift_generators``, or calls ``.solve``
    anywhere else.  ``Matrix.solve`` itself stays, for the benchmark
    tracer.  The scan itself sees each of them in a snippet, and passes
    the solve inside ``Resolution.lift``."""
    snippet = ast.parse("class Resolution:\n"
                        "    def lift(self, k, row):\n"
                        "        return d.solve(row)\n"
                        "    def step_at(self, k, v): pass\n"
                        "def _lift_generators(res, k, rhs, src): pass\n"
                        "def other(d):\n"
                        "    return d.solve([])\n"
                        "class Other:\n"
                        "    def lift(self, d):\n"
                        "        return d.solve([])\n")
    assert sorted(_second_lift_routes(snippet, "s")) == [
        "s:10", "s:4", "s:5", "s:7"]
    found = [hit for path, tree in _trees(sorted(PACKAGE.glob("*.py")))
             for hit in _second_lift_routes(tree, path.name)]
    assert not found, found


def test_the_tracer_patches_methods_that_exist():
    """``bench/tracing.py`` patches the ``Matrix`` methods named by the
    keys of its ``MATRIX_METHODS``; each must still be defined, whether
    or not the package itself calls it."""
    from zzqh.linalg import Matrix

    tree = ast.parse((ROOT / "bench" / "tracing.py").read_text())
    names = next(ast.literal_eval(node.value) for node in tree.body
                 if isinstance(node, ast.Assign)
                 and any(isinstance(t, ast.Name) and t.id == "MATRIX_METHODS"
                         for t in node.targets))
    assert names and all(callable(vars(Matrix).get(name)) for name in names)


LINE_BUDGET = 4000


def test_src_stays_within_its_line_budget():
    """The package keeps to its line budget: a change that adds lines
    pays for them elsewhere."""
    total = sum(len(path.read_text().splitlines())
                for path in PACKAGE.glob("*.py"))
    assert total <= LINE_BUDGET, total
