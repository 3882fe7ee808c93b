"""Every module imports only names it uses.

An AST scan of each file under ``src/contextvit`` and ``tests``: a name
bound by an import statement must be read somewhere in the same file, or be
listed in its ``__all__`` (a re-export).
"""

import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent
FILES = sorted((ROOT / "src" / "contextvit").glob("*.py")) + sorted((ROOT / "tests").glob("*.py"))


def unused_imports(source: str) -> list[tuple[int, str]]:
    """(line, name) of every imported name the source never reads."""
    tree = ast.parse(source)
    imported: dict[str, int] = {}
    used: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            used.update(ast.literal_eval(node.value))
    return [(line, name) for name, line in imported.items() if name not in used]


def test_no_unused_imports():
    assert len(FILES) > 20
    unused = [f"{path.relative_to(ROOT)}:{line} {name}"
              for path in FILES for line, name in unused_imports(path.read_text(encoding="utf-8"))]
    assert not unused, "unused imports:\n" + "\n".join(unused)


def test_scan_finds_an_unused_import():
    source = "import os.path\nfrom typing import Optional, Sequence\n__all__ = ['Sequence']\nos.getcwd()\n"
    assert unused_imports(source) == [(2, "Optional")]
