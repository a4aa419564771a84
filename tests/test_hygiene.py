"""Static checks of the package source."""

import ast
from pathlib import Path

import ellstab

SRC = Path(ellstab.__file__).parent


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
    """``__init__.py`` is exempt: its imports are the package's exports."""
    found = {}
    for path in sorted(SRC.glob("*.py")):
        if path.name == "__init__.py":
            continue
        names = unused_imports(ast.parse(path.read_text()))
        if names:
            found[path.name] = names
    assert found == {}


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
PROCESS_MEMOS_ALLOWED = {"partitions.py:_partitions_of"}

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
    to one ``ParamPoint`` (its q-Pochhammer memo and vertex tables), which
    the benchmark renews for every check."""
    found = {f"{path.name}:{name}" for path in sorted(SRC.glob("*.py"))
             for name in process_memos(ast.parse(path.read_text()))}
    assert found <= PROCESS_MEMOS_ALLOWED
