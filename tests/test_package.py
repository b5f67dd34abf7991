import ast
import json
import re
import subprocess
import sys
from pathlib import Path

import qkdattack

PACKAGE_DIR = Path(qkdattack.__file__).parent
DEMO_DIR = Path(__file__).resolve().parent.parent / "demos"
PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"


def test_all_names_resolve():
    missing = [name for name in qkdattack.__all__ if not hasattr(qkdattack, name)]
    assert missing == []


def test_all_has_no_duplicates():
    assert len(qkdattack.__all__) == len(set(qkdattack.__all__))


def test_declared_numpy_floor_has_the_arrays_the_optimizer_uses():
    # the optimizer transposes stacks with ndarray.mT, which numpy 1.x lacks
    floor = re.search(r'"numpy>=(\d+)\.(\d+)', PYPROJECT.read_text(encoding="utf-8"))
    assert floor is not None
    assert tuple(map(int, floor.groups())) >= (2, 0)


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


def _unread_private_names(tree: ast.Module) -> list[str]:
    """Module-level ``_x = ...``, ``def _f`` and ``class _C`` that nothing in the module reads."""
    defined = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
        else:
            continue
        for name in names:
            if name.startswith("_") and not name.startswith("__"):
                defined[name] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return [f"{name} (line {line})" for name, line in defined.items() if name not in read]


def test_modules_use_every_name_they_import():
    # __init__.py imports to re-export, so it is the one exception for imports;
    # a private module-level name is for its own module, so every module must read it.
    # The demos are held to the same rules.
    unused = {}
    for path in sorted(PACKAGE_DIR.glob("*.py")) + sorted(DEMO_DIR.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        names = _unread_private_names(tree)
        if path.name != "__init__.py":
            names += _unused_imports(tree)
        if names:
            unused[path.name] = names
    assert unused == {}


def test_modules_import_no_private_name_of_a_sibling():
    # a private name belongs to its module; a sibling that needs it asks that module for a public function
    private = {}
    for path in sorted(PACKAGE_DIR.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and node.level >= 1:
                names = [a.name for a in node.names if a.name.startswith("_") and not a.name.startswith("__")]
                if names:
                    private[f"{path.name}:{node.lineno}"] = names
    assert private == {}


def _read_names(path: Path) -> set[str]:
    """Every name a file loads, bare (``f``) or as an attribute (``module.f``)."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    return {
        node.id if isinstance(node, ast.Name) else node.attr
        for node in ast.walk(tree)
        if isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load)
    }


# mutual_info_ae is the reference estimator, kept as an independent check on the
# optimizer's objective; the benchmark's montecarlo workload draws its rounds
# with sample_rounds and scores them with empirical_stats, while
# sampled_estimates counts its draws without storing them: only tests and the
# benchmark read these three
_EXPORTED_FOR_CHECKS = {"mutual_info_ae", "empirical_stats", "sample_rounds"}


def test_every_export_is_read_by_the_product():
    # a public name that only tests reach belongs in a test helper
    files = [p for p in PACKAGE_DIR.glob("*.py") if p.name != "__init__.py"] + sorted(DEMO_DIR.glob("*.py"))
    assert DEMO_DIR.is_dir()
    read = set().union(*map(_read_names, files))
    unread = [name for name in qkdattack.__all__ if name not in read and name not in _EXPORTED_FOR_CHECKS]
    assert unread == []


_IMPORT_PROBE = """
import json, os, sys
import qkdattack.cli
from qkdattack import BB84, OptimizerConfig, optimize_attack
optimize_attack(BB84, 0.1, OptimizerConfig(restarts=32, max_iters=50))
try:
    os.waitpid(-1, os.WNOHANG)
    children = True
except ChildProcessError:
    children = False
loaded = [m for m in ("multiprocessing", "concurrent.futures.process") if m in sys.modules]
print(json.dumps({"loaded": loaded, "children": children}))
"""


def test_cli_import_loads_no_process_machinery():
    # an attack runs in the calling process: neither the import nor a 32-row
    # ascent loads process machinery or starts a child
    src = str(PACKAGE_DIR.parent)
    done = subprocess.run(
        [sys.executable, "-c", _IMPORT_PROBE], env={"PYTHONPATH": src, "PYTHONDONTWRITEBYTECODE": "1"}, capture_output=True, text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout) == {"loaded": [], "children": False}
