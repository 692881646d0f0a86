"""The installed package holds only what runs: every module under
`src/evmsem` is reached, through its imports, from the package itself or
from the command-line front end. Code that only tests call lives in tests/.
And it has one record kind, the NamedTuple: no module imports dataclasses."""

import ast
from importlib.util import resolve_name
from pathlib import Path

import evmsem

PACKAGE = Path(evmsem.__file__).parent
ENTRY_POINTS = ("evmsem", "evmsem.cli", "evmsem.__main__")


def _module_name(path: Path) -> str:
    parts = path.relative_to(PACKAGE.parent).with_suffix("").parts
    return ".".join(parts[:-1] if parts[-1] == "__init__" else parts)


def _imported_names(path: Path, name: str):
    """Every dotted name an import in the module at `path` may load,
    imports inside functions included."""
    package = name if path.name == "__init__.py" else name.rpartition(".")[0]
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = resolve_name("." * node.level + (node.module or ""), package)
            yield base
            yield from (f"{base}.{alias.name}" for alias in node.names)


def test_every_package_module_is_reached_from_an_entry_point():
    modules = {_module_name(p): p for p in PACKAGE.rglob("*.py")}
    reached = set()
    todo = list(ENTRY_POINTS)
    while todo:
        name = todo.pop()
        if name in modules and name not in reached:
            reached.add(name)
            todo.extend(_imported_names(modules[name], name))
    assert sorted(set(modules) - reached) == []


def test_no_package_module_imports_dataclasses():
    importers = [name for name, path in ((_module_name(p), p) for p in PACKAGE.rglob("*.py"))
                 if any(n.partition(".")[0] == "dataclasses"
                        for n in _imported_names(path, name))]
    assert importers == []
