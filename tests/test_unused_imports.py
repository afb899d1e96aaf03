"""Every name a module of the package imports is used in that module, and
every name it exports exists."""

import ast
import importlib
import pathlib

import pytest

import anglekit

MODULES = sorted(
    path
    for path in pathlib.Path(anglekit.__file__).parent.glob("*.py")
    if path.name != "__init__.py"  # the package's re-exports
)


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        # names a module lists in __all__ count as used
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used.update(ast.literal_eval(node.value))
    return [f"{name} (line {line})" for name, line in imported.items() if name not in used]


@pytest.mark.parametrize("path", MODULES, ids=[path.name for path in MODULES])
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_the_check_sees_an_unused_import():
    source = "from __future__ import annotations\nimport math\nfrom .exact import ZERO, PI\nx = PI\n"
    assert unused_imports(source) == ["math (line 2)", "ZERO (line 3)"]


@pytest.mark.parametrize("path", MODULES, ids=[path.name for path in MODULES])
def test_every_export_is_defined(path):
    module = importlib.import_module(f"anglekit.{path.stem}")
    exports = getattr(module, "__all__", [])
    assert [name for name in exports if not hasattr(module, name)] == []
    assert len(set(exports)) == len(exports)


def test_the_package_exports_exactly_what_it_imports():
    tree = ast.parse(pathlib.Path(anglekit.__file__).read_text(encoding="utf-8"))
    imported = [
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    ]
    assert sorted(anglekit.__all__) == sorted(imported)


def private_names_never_loaded(sources: list[str]) -> list[str]:
    """Module-level _names that the sources define and never load by name or attribute."""
    defined, loaded = {}, set()
    for source in sources:
        tree = ast.parse(source)
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [n.id for target in targets for n in ast.walk(target) if isinstance(n, ast.Name)]
            else:
                continue
            for name in names:
                if name.startswith("_") and not name.startswith("__"):
                    defined[name] = node.lineno
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                loaded.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                loaded.add(node.attr)
    return [f"{name} (line {line})" for name, line in defined.items() if name not in loaded]


def test_every_private_module_name_is_used():
    package = pathlib.Path(anglekit.__file__).parent
    sources = [path.read_text(encoding="utf-8") for path in sorted(package.glob("*.py"))]
    assert private_names_never_loaded(sources) == []


def test_the_check_sees_an_unused_private_name():
    source = "_A = 1\n_B, _C = 2, 3\ndef _f():\n    return _A\nclass _K:\n    pass\nx = _K.__name__ + str(_C)\n"
    assert private_names_never_loaded([source, "import m\nm._B\n"]) == ["_f (line 3)"]
