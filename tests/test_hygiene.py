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
