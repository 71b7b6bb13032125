"""The package's public names: `hopfloop.__all__` is exactly what its
`__init__` imports, so a deleted name cannot stay exported and a new one
cannot be left out.  And every other module uses each name it imports,
so a deleted caller takes its import with it."""

import ast
from pathlib import Path

import hopfloop


def test_all_lists_every_imported_name_once():
    tree = ast.parse(Path(hopfloop.__file__).read_text())
    imported = {alias.asname or alias.name
                for node in tree.body
                if isinstance(node, ast.ImportFrom) and node.level == 1
                for alias in node.names}
    names = hopfloop.__all__
    assert len(names) == len(set(names))
    assert all(hasattr(hopfloop, name) for name in names)
    assert set(names) == {name for name in imported
                          if not name.startswith("_")}


def test_every_module_uses_what_it_imports():
    for path in sorted(Path(hopfloop.__file__).parent.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        imported = {(alias.asname or alias.name).split(".")[0]
                    for node in ast.walk(tree)
                    if isinstance(node, (ast.Import, ast.ImportFrom))
                    and getattr(node, "module", None) != "__future__"
                    for alias in node.names}
        used = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name)}
        assert imported <= used, (path.name, sorted(imported - used))
