"""Every imported name is used: no linter runs here, so this scan stands in
for the unused-import check (pyflakes F401) over the package, the tests and
the demos."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
# the package's __init__ imports its public names only to re-export them
FILES = sorted(
    path for folder in ("src", "tests", "demos") for path in (ROOT / folder).rglob("*.py")
    if path != ROOT / "src" / "photonrc" / "__init__.py"
)


def _unused_imports(path):
    """(line, name) of each name an import in ``path`` binds that the module
    never reads, but for an import whose first line is marked ``# noqa: F401``."""
    text = path.read_text(encoding="utf-8")
    lines = text.splitlines()
    tree = ast.parse(text)
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [
        (node.lineno, alias.asname or alias.name.split(".")[0])
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom))
        and "# noqa: F401" not in lines[node.lineno - 1]
        for alias in node.names
        if (alias.asname or alias.name.split(".")[0]) not in read
    ]


@pytest.mark.parametrize("path", FILES, ids=lambda path: str(path.relative_to(ROOT)))
def test_every_imported_name_is_used(path):
    assert _unused_imports(path) == []
