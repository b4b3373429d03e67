"""Source hygiene: no module-level import goes unused."""

import ast
import glob
import os

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _unused_imports(path):
    with open(path, encoding="utf-8") as fh:
        tree = ast.parse(fh.read(), filename=path)
    imported = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    rel = os.path.relpath(path, ROOT)
    return [f"{rel}:{line}: {name}" for name, line in sorted(imported.items())
            if name not in used]


def test_no_unused_module_level_imports():
    paths = glob.glob(os.path.join(ROOT, "src", "enermod", "*.py"))
    paths += glob.glob(os.path.join(ROOT, "tests", "*.py"))
    unused = [hit for path in sorted(paths)
              if os.path.basename(path) != "__init__.py"
              for hit in _unused_imports(path)]
    assert paths and not unused, "\n".join(unused)
