"""Source hygiene that no linter in the toolchain checks: every name a
fracwave module imports is used in that module.  Names listed in a module's
__all__ are exempt, and so is __init__.py, whose imports are re-exports."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "fracwave"


def _unused_imports(path: Path) -> list[str]:
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            used |= set(ast.literal_eval(node.value))
    return sorted(f"{name} (line {line})" for name, line in imported.items() if name not in used)


def test_no_unused_imports():
    modules = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
    assert len(modules) >= 5
    unused = {p.name: _unused_imports(p) for p in modules}
    assert {name: names for name, names in unused.items() if names} == {}
