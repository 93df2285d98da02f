import ast
from pathlib import Path

import cqa


def _unused_imports(source: str) -> list[str]:
    """The names `source` imports and never reads, each with its line; a
    name imported from `__future__` turns on a feature and is skipped."""
    tree = ast.parse(source)
    imported: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update((a.asname or a.name.partition(".")[0], node.lineno) for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update((a.asname or a.name, node.lineno) for a in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{line}: {name}" for name, line in imported.items() if name not in used]


def test_every_module_uses_each_name_it_imports():
    # `__init__.py` imports names to re-export them, so it is left out
    root = Path(cqa.__file__).parent
    unused = {path.name: _unused_imports(path.read_text(encoding="utf-8"))
              for path in sorted(root.glob("*.py")) if path.name != "__init__.py"}
    assert len(unused) >= 9
    assert not {name: names for name, names in unused.items() if names}
    sample = "from __future__ import annotations\nimport os.path\nfrom a.b import c as d\n"
    assert _unused_imports(sample) == ["2: os", "3: d"]
