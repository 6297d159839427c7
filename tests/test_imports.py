"""Every imported name is used: no linter runs here, so this scan stands in
for the unused-import check (pyflakes F401) over the package, the tests and
the demos.  An import marked ``# noqa: F401`` is exempt, and its names must
stay unread."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
# the package's __init__ imports its public names only to re-export them
FILES = sorted(
    path for folder in ("src", "tests", "demos") for path in (ROOT / folder).rglob("*.py")
    if path != ROOT / "src" / "photonrc" / "__init__.py"
)


def _imports(path):
    """The names the module at ``path`` reads, and (line, name, marked) of
    each name an import in it binds, ``marked`` if the import's first line
    is marked ``# noqa: F401``."""
    text = path.read_text(encoding="utf-8")
    lines = text.splitlines()
    tree = ast.parse(text)
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    bound = [
        (
            node.lineno,
            alias.asname or alias.name.split(".")[0],
            "# noqa: F401" in lines[node.lineno - 1],
        )
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom))
        for alias in node.names
    ]
    return read, bound


@pytest.mark.parametrize("path", FILES, ids=lambda path: str(path.relative_to(ROOT)))
def test_every_imported_name_is_used(path):
    read, bound = _imports(path)
    assert [(line, name) for line, name, marked in bound if not marked and name not in read] == []


@pytest.mark.parametrize("path", FILES, ids=lambda path: str(path.relative_to(ROOT)))
def test_a_name_imported_for_tracing_alone_is_never_read(path):
    # the marker says the name is bound only so that perfbench/tracing.py can
    # patch it on this module; a name the module calls is imported plainly
    read, bound = _imports(path)
    assert [(line, name) for line, name, marked in bound if marked and name in read] == []
