import ast
from pathlib import Path

import qkdattack

PACKAGE_DIR = Path(qkdattack.__file__).parent


def test_all_names_resolve():
    missing = [name for name in qkdattack.__all__ if not hasattr(qkdattack, name)]
    assert missing == []


def test_all_has_no_duplicates():
    assert len(qkdattack.__all__) == len(set(qkdattack.__all__))


def _unused_imports(tree: ast.Module) -> list[str]:
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in imported.items() if name not in used]


def test_modules_use_every_name_they_import():
    # __init__.py imports to re-export, so it is the one exception
    unused = {}
    for path in sorted(PACKAGE_DIR.glob("*.py")):
        if path.name == "__init__.py":
            continue
        names = _unused_imports(ast.parse(path.read_text(encoding="utf-8")))
        if names:
            unused[path.name] = names
    assert unused == {}
