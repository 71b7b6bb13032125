"""The package's public names: `hopfloop.__all__` is exactly what its
`__init__` imports, so a deleted name cannot stay exported and a new one
cannot be left out."""

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
