"""Static checks of the package source, and of the imports of the tests and demos."""

import ast
import re
from collections import Counter
from pathlib import Path

import ellstab

SRC = Path(ellstab.__file__).parent
ROOT = Path(__file__).resolve().parents[1]


def unused_imports(tree: ast.Module) -> list[str]:
    """Names bound by module-level imports that the module never reads."""
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[(alias.asname or alias.name).split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [f"{name} (line {line})" for name, line in sorted(bound.items())
            if name not in read]


def test_unused_imports_detected():
    tree = ast.parse("import os\nfrom a import b, c\nprint(c)\n")
    assert unused_imports(tree) == ["b (line 2)", "os (line 1)"]


def test_no_unused_module_level_imports():
    """Over the package, the tests and the demos; ``__init__.py`` is exempt:
    its imports are the package's exports."""
    found = {}
    for folder in (SRC, ROOT / "tests", ROOT / "demos"):
        for path in sorted(folder.glob("*.py")):
            if path.name == "__init__.py":
                continue
            names = unused_imports(ast.parse(path.read_text()))
            if names:
                found[f"{folder.name}/{path.name}"] = names
    assert found == {}


def unread_private_definitions(trees: dict[str, ast.Module]) -> list[str]:
    """Private module-level functions and classes that no module reads,
    by name or as an attribute, outside their own definition."""
    def reads(node) -> Counter:
        return Counter(n.id if isinstance(n, ast.Name) else n.attr
                       for n in ast.walk(node)
                       if isinstance(n, (ast.Name, ast.Attribute))
                       and isinstance(n.ctx, ast.Load))
    everywhere = sum((reads(tree) for tree in trees.values()), Counter())
    return [f"{module}:{node.name}" for module, tree in trees.items()
            for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            and node.name.startswith("_") and not node.name.startswith("__")
            and everywhere[node.name] == reads(node)[node.name]]


def test_unread_private_definitions_detected():
    trees = {"a.py": ast.parse("def _used(): pass\ndef _only_self(n):\n"
                               "    return _only_self(n - 1)\n"
                               "class _Unread: pass\ndef __dunder__(): pass\n"
                               "def public(): pass\n"),
             "b.py": ast.parse("import a\nx = a._used\n_unbound = 1\n")}
    assert unread_private_definitions(trees) == ["a.py:_only_self", "a.py:_Unread"]


def test_private_definitions_are_read_in_the_package():
    """A private helper that only tests read is a second implementation
    kept alive for them: every private module-level function and class is
    read somewhere in the package."""
    trees = {path.name: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    assert unread_private_definitions(trees) == []


def function_imports(tree: ast.Module) -> list[str]:
    """``import`` statements inside a function body, with their lines."""
    return [f"{ast.unparse(node)} (line {node.lineno})"
            for fn in ast.walk(tree)
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
            for node in ast.walk(fn)
            if isinstance(node, (ast.Import, ast.ImportFrom))]


def test_function_imports_detected():
    tree = ast.parse("import os\ndef f():\n    from a import b\n    return b\n")
    assert function_imports(tree) == ["from a import b (line 3)"]


def test_no_imports_inside_functions():
    """Every import sits at module level, where its dependency is visible."""
    found = {}
    for path in sorted(SRC.glob("*.py")):
        names = function_imports(ast.parse(path.read_text()))
        if names:
            found[path.name] = names
    assert found == {}


def module_constants(tree: ast.Module) -> list[str]:
    """UPPER_CASE names assigned at module level, tuple targets included."""
    targets = [t for node in tree.body if isinstance(node, ast.Assign)
               for t in node.targets]
    targets += [node.target for node in tree.body
                if isinstance(node, ast.AnnAssign)]
    return sorted(n.id for t in targets for n in ast.walk(t)
                  if isinstance(n, ast.Name) and n.id.isupper())


def test_module_constants_detected():
    tree = ast.parse("A = 1\nB, C = 2, 3\nD: int = 4\nlower = 5\n"
                     "def f():\n    E = 6\n")
    assert module_constants(tree) == ["A", "B", "C", "D"]


def test_each_constant_defined_once():
    """A constant lives in one module; the others import it from there."""
    where: dict[str, list[str]] = {}
    for path in sorted(SRC.glob("*.py")):
        for name in module_constants(ast.parse(path.read_text())):
            where.setdefault(name, []).append(path.name)
    assert {name: mods for name, mods in where.items() if len(mods) > 1} == {}


#: the one memo allowed to live as long as the process: partitions of n are
#: pure combinatorics, the same for every parameter point and caller
PROCESS_MEMOS_ALLOWED = {"partitions.py:partitions_of"}

_MEMO_NAMES = {"cache", "lru_cache"}


def process_memos(tree: ast.Module) -> list[str]:
    """Functions that ``functools.cache`` or ``lru_cache`` decorate, by name,
    and any other use of the two, by line."""
    imported = {alias.asname or alias.name for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) and node.module == "functools"
                for alias in node.names if alias.name in _MEMO_NAMES}
    modules = {alias.asname or alias.name for node in ast.walk(tree)
               if isinstance(node, ast.Import)
               for alias in node.names if alias.name == "functools"}

    def is_memo(expr) -> bool:
        if isinstance(expr, ast.Name):
            return expr.id in imported
        return (isinstance(expr, ast.Attribute) and expr.attr in _MEMO_NAMES
                and isinstance(expr.value, ast.Name) and expr.value.id in modules)

    found, decorators = [], set()
    for fn in ast.walk(tree):
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for dec in fn.decorator_list:
                if is_memo(dec.func if isinstance(dec, ast.Call) else dec):
                    found.append(fn.name)
                    decorators.add(id(dec))
    found += [f"line {node.lineno}" for node in ast.walk(tree)
              if isinstance(node, ast.Call) and id(node) not in decorators
              and is_memo(node.func)]
    return found


def test_process_memos_detected():
    tree = ast.parse("import functools\nfrom functools import lru_cache as lc\n"
                     "@functools.cache\ndef a(): pass\n"
                     "@lc(maxsize=None)\ndef b(): pass\n"
                     "@functools.wraps(a)\ndef c(): pass\n"
                     "d = functools.lru_cache()(c)\n")
    assert process_memos(tree) == ["a", "b", "line 9"]
    tree = ast.parse("import functools as ft\n@ft.lru_cache\ndef a(): pass\n"
                     "@functools.cache\ndef b(): pass\n")
    assert process_memos(tree) == ["a"]


def test_no_process_wide_memos():
    """A memo that outlives its call would let a benchmark time warm caches
    that a one-shot command never gets.  Reuse stays scoped to one call, or
    to one ``ParamPoint`` (its q-Pochhammer memo, compiled envelopes,
    chamber bases, vertex tables and restriction points), which the
    benchmark renews for every check."""
    found = {f"{path.name}:{name}" for path in sorted(SRC.glob("*.py"))
             for name in process_memos(ast.parse(path.read_text()))}
    assert found <= PROCESS_MEMOS_ALLOWED


def sites(tree: ast.Module, match) -> list[tuple[ast.AST, str]]:
    """(node, where) for every node that ``match`` accepts, where is the
    dotted path of the classes and functions that hold it (``<module>``
    outside any), in source order."""
    found = []

    def visit(node, where):
        for child in ast.iter_child_nodes(node):
            if match(child):
                found.append((child, ".".join(where) or "<module>"))
            inner = (where + [child.name]
                     if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                           ast.ClassDef)) else where)
            visit(child, inner)

    visit(tree, [])
    return found


def builds(tree: ast.Module, name: str) -> list[str]:
    """Where ``name`` is called, by name or as a module attribute
    (``sites``)."""
    def is_build(node) -> bool:
        if not isinstance(node, ast.Call):
            return False
        fn = node.func
        return ((isinstance(fn, ast.Name) and fn.id == name)
                or (isinstance(fn, ast.Attribute) and fn.attr == name))
    return [where for _, where in sites(tree, is_build)]


def test_envelope_builds_detected():
    tree = ast.parse("e = Envelope(s)\n"
                     "def f(spec):\n    return envelopes.Envelope(spec)\n"
                     "class C:\n    def g(self):\n"
                     "        def h():\n            return [Envelope(x) for x in y]\n"
                     "        return Envelope.__init__, EnvelopeSpec(z)\n")
    assert builds(tree, "Envelope") == ["<module>", "f", "C.g.h"]


def test_envelopes_are_built_only_by_the_accessor():
    """A parameter point owns its compiled envelopes: every module takes
    them from ``envelopes.compiled``, the one caller of ``Envelope``."""
    found = [f"{path.name}:{where}" for path in sorted(SRC.glob("*.py"))
             for where in builds(ast.parse(path.read_text()), "Envelope")]
    assert found == ["envelopes.py:compiled"]


def test_criterion_record_builds_detected():
    tree = ast.parse("def criterion(number):\n    def register(check):\n"
                     "        def run(seed):\n"
                     "            return CriterionResult(number, check(seed))\n"
                     "        return run\n    return register\n"
                     "def criterion_x(seed):\n"
                     "    return acceptance.CriterionResult(1), CriterionResult\n")
    assert builds(tree, "CriterionResult") == ["criterion.register.run",
                                               "criterion_x"]


def test_criterion_records_are_built_only_by_the_registry():
    """Every acceptance record is timed and built in one place:
    ``acceptance.criterion``, the one caller of ``CriterionResult``."""
    found = [f"{path.name}:{where}" for path in sorted(SRC.glob("*.py"))
             for where in builds(ast.parse(path.read_text()), "CriterionResult")]
    assert found == ["acceptance.py:criterion.register.run"]


def numpy_solves(tree: ast.Module) -> list[str]:
    """Where ``np.linalg.solve`` is named, called or not (``sites``)."""
    def is_solve(node) -> bool:
        return (isinstance(node, ast.Attribute) and node.attr == "solve"
                and ast.unparse(node.value) == "np.linalg")
    return [where for _, where in sites(tree, is_solve)]


def complex_dtypes(tree: ast.Module) -> list[str]:
    """Where a call passes ``dtype=complex`` (``sites``)."""
    def is_complex(node) -> bool:
        return (isinstance(node, ast.keyword) and node.arg == "dtype"
                and isinstance(node.value, ast.Name) and node.value.id == "complex")
    return [where for _, where in sites(tree, is_complex)]


def test_solves_and_complex_dtypes_detected():
    tree = ast.parse("def f(a, b):\n    return np.linalg.solve(a, b)\n"
                     "class C:\n    def g(self):\n        s = np.linalg.solve\n"
                     "        return np.zeros(3, dtype=complex), np.ones(2, dtype=float)\n"
                     "x = np.array([], dtype=complex), linalg.solve, np.linalg.lstsq\n")
    assert numpy_solves(tree) == ["f", "C.g"]
    assert complex_dtypes(tree) == ["C.g", "<module>"]


def test_rmatrix_solves_once_and_takes_its_dtypes_from_the_entries():
    """The R-matrix path solves through one function, ``rmatrix._solve``,
    which defers to the solve of a point of another number type
    (``ParamPoint.solve``), and its arrays take their type from their
    entries: only the empty restriction matrix, which has none, names one."""
    tree = ast.parse((SRC / "rmatrix.py").read_text())
    assert numpy_solves(tree) == ["_solve"]
    assert complex_dtypes(tree) == ["restriction_matrix"]


#: each memo of a ``ParamPoint`` and its one accessor
MEMO_ACCESSORS = {
    "_qpoch_memo": "core.py:ParamPoint.qpoch_inf",
    "_series_tables": "scalars.py:series_table",
    "_envelopes": "envelopes.py:compiled",
    "_chamber_bases": "rmatrix.py:ChamberMatrices.build",
    "_vertex_tables": "vertex.py:vertex_table",
    "_restriction_points": "rmatrix.py:restriction_point",
}


def point_memos(tree: ast.Module) -> list[str]:
    """The attributes that ``ParamPoint.__init__`` starts as an empty dict."""
    init = next(fn for cls in tree.body
                if isinstance(cls, ast.ClassDef) and cls.name == "ParamPoint"
                for fn in cls.body
                if isinstance(fn, ast.FunctionDef) and fn.name == "__init__")
    return [t.attr for node in ast.walk(init)
            if isinstance(node, (ast.Assign, ast.AnnAssign))
            and isinstance(node.value, ast.Dict) and not node.value.keys
            for t in (node.targets if isinstance(node, ast.Assign) else [node.target])
            if isinstance(t, ast.Attribute)]


def attribute_uses(tree: ast.Module, names) -> list[tuple[str, str]]:
    """(attribute, where) for every use of an attribute in ``names``
    (``sites``)."""
    return [(node.attr, where) for node, where in
            sites(tree, lambda n: isinstance(n, ast.Attribute) and n.attr in names)]


def test_memo_uses_detected():
    tree = ast.parse("class ParamPoint:\n    def __init__(self):\n"
                     "        self._a = {}\n        self._b: dict = {}\n"
                     "        self.c = {1: 2}\n        self.d = dict()\n"
                     "def f(pp):\n    return pp._a.get(1)\n"
                     "class C:\n    def g(self, pp):\n"
                     "        def h():\n            return pp._b\n"
                     "        return h, pp._c\n"
                     "x = ParamPoint()._a\n")
    assert point_memos(tree) == ["_a", "_b"]
    assert attribute_uses(tree, {"_a", "_b"}) == [
        ("_a", "ParamPoint.__init__"), ("_b", "ParamPoint.__init__"),
        ("_a", "f"), ("_b", "C.g.h"), ("_a", "<module>")]


def test_point_memos_are_used_only_by_their_accessors():
    """A parameter point owns its memos: each is touched in the package only
    where ``ParamPoint`` makes or shares it and by its one accessor, so no
    caller reaches into a memo or threads a copy of it."""
    core = ast.parse((SRC / "core.py").read_text())
    assert sorted(point_memos(core)) == sorted(MEMO_ACCESSORS)
    found = {(name, f"{path.name}:{where}") for path in sorted(SRC.glob("*.py"))
             for name, where in attribute_uses(ast.parse(path.read_text()),
                                               MEMO_ACCESSORS)}
    allowed = {(name, f"core.py:ParamPoint.{method}") for name in MEMO_ACCESSORS
               for method in ("__init__", "extended")}
    assert found - allowed == set(MEMO_ACCESSORS.items())


#: f-string shapes that spell a variable name, each formatted value read as
#: ``{}``: a Chern root x{i}_{j} (or a framing weight with a written prefix,
#: u{k}_{j}), a Kahler parameter z{i} and a framing weight {prefix}{k}_{j}
_VARIABLE_NAME = re.compile(r"\b[a-z]+\{\}_\{\}|\bz\{\}|\{\}\{\}_\{\}")


def variable_name_fstrings(tree: ast.Module) -> list[str]:
    """f-strings shaped like a u, x or z variable name, with their lines."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.JoinedStr):
            shape = "".join(v.value if isinstance(v, ast.Constant) else "{}"
                            for v in node.values)
            if _VARIABLE_NAME.search(shape):
                found.append(f"{ast.unparse(node)} (line {node.lineno})")
    return found


def test_variable_name_fstrings_detected():
    tree = ast.parse('a = f"x{i}_{j}"\nb = f"z{k + 1}"\nc = f"{p}{k}_{j}"\n'
                     'd = f"--{name} {text}: {exc}"\ne = f"A_{v}"\n'
                     'f = f"size{n}"\ng = f"x{i}"\nh = f"ua{k}_{j}"\n')
    assert variable_name_fstrings(tree) == [
        "f'x{i}_{j}' (line 1)", "f'z{k + 1}' (line 2)", "f'{p}{k}_{j}' (line 3)",
        "f'ua{k}_{j}' (line 8)"]


def test_variable_names_are_spelled_only_in_partitions():
    """Framing weights (``FramingSlot.u_var``), Chern roots (``chern_var``)
    and Kahler parameters (``kahler_var``) are named in ``partitions``; every
    other module asks it."""
    found = {}
    for path in sorted(SRC.glob("*.py")):
        if path.name == "partitions.py":
            continue
        names = variable_name_fstrings(ast.parse(path.read_text()))
        if names:
            found[path.name] = names
    assert found == {}


#: a framing weight (with at most a one-letter prefix after the u), Chern root
#: or Kahler parameter written out: u0_1, ua2_1, x1_2, z0
_VARIABLE_LITERAL = re.compile(r"(u[a-z]?|x|z)\d+(_\d+)?")


def variable_name_literals(tree: ast.Module) -> list[str]:
    """String constants spelled like a u, x or z variable name, and
    ``startswith`` calls that tell those names apart by their first letter,
    with their lines, in line order."""
    found = []
    for node in ast.walk(tree):
        if (isinstance(node, ast.Constant) and isinstance(node.value, str)
                and _VARIABLE_LITERAL.fullmatch(node.value)):
            found.append((node.lineno, repr(node.value)))
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
              and node.func.attr == "startswith"):
            prefixes = [c for arg in node.args
                        for c in (arg.elts if isinstance(arg, ast.Tuple) else [arg])]
            if any(isinstance(c, ast.Constant) and c.value in ("u", "x", "z")
                   for c in prefixes):
                found.append((node.lineno, ast.unparse(node)))
    return [f"{text} (line {line})" for line, text in sorted(found)]


def test_variable_name_literals_detected():
    tree = ast.parse('a = d["z0"]\nb = d["u0_1"]\nc = "ua2_3"\ne = "x1_2"\n'
                     'f = name.startswith("x")\ng = v.startswith(("t", "z"))\n'
                     'h = "t1"\ni = "x"\nj = name.startswith("ellstab.")\n'
                     'k = "zz1"\nl = "x1_"\nm = f"x{i}_{j}"\n')
    assert variable_name_literals(tree) == [
        "'z0' (line 1)", "'u0_1' (line 2)", "'ua2_3' (line 3)", "'x1_2' (line 4)",
        "name.startswith('x') (line 5)", "v.startswith(('t', 'z')) (line 6)"]


def test_variable_names_are_not_written_out():
    """Outside ``partitions`` no module writes a variable name as a string
    or tells a Chern root, framing weight or Kahler parameter by its first
    letter: it asks ``partitions`` for the name (``chern_var``,
    ``kahler_var``, ``FramingSlot.u_var``), or compares against the names
    it holds."""
    found = {}
    for path in sorted(SRC.glob("*.py")):
        if path.name == "partitions.py":
            continue
        names = variable_name_literals(ast.parse(path.read_text()))
        if names:
            found[path.name] = names
    assert found == {}


def theta_reads(tree: ast.Module) -> list[str]:
    """Where an attribute named ``theta`` is read, called or bound
    (``sites``): ``pp.theta(z)`` and ``theta = pp.theta`` alike."""
    return [where for _, where in
            sites(tree, lambda n: isinstance(n, ast.Attribute) and n.attr == "theta")]


def test_theta_reads_detected():
    tree = ast.parse("def f(pp, z):\n    return pp.theta(z)\n"
                     "class C:\n    def g(self, pp):\n        theta = pp.theta\n"
                     "        return theta(1), self.theta_p, theta_p(2)\n"
                     "x = ThetaProduct([m]).eval(pp, False)\n")
    assert theta_reads(tree) == ["f", "C.g"]


def test_thetas_are_taken_only_by_the_lowered_sum():
    """A theta value carries no grading: every product of thetas in the
    package is a ``ThetaProduct``, whose grading is exact, evaluated by
    ``LoweredSum``.  Only that evaluator, and ``ParamPoint.phi`` (kept for
    the tests and the tracer), take a theta through ``ParamPoint.theta``."""
    found = {f"{path.name}:{where}" for path in sorted(SRC.glob("*.py"))
             for where in theta_reads(ast.parse(path.read_text()))}
    assert found == {"core.py:ParamPoint.phi", "envelopes.py:LoweredSum._pole_exit",
                     "envelopes.py:LoweredSum.eval"}
