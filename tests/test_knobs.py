"""The package's settable values are counted, so a new one is a visible
edit of :data:`SETTABLE_VALUES`.

A settable value is an optional parameter of a public function or method
(``__init__`` included, other dunders not), or a field of a public
dataclass, in ``src/photonrc``: each is a value a caller can set, which a
test or a caller has to justify.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "photonrc"

SETTABLE_VALUES = 124


def _optional_parameters(function):
    args = function.args
    return len(args.defaults) + sum(default is not None for default in args.kw_defaults)


def _is_dataclass(cls):
    return any(
        ast.unparse(decorator.func if isinstance(decorator, ast.Call) else decorator)
        in ("dataclass", "dataclasses.dataclass")
        for decorator in cls.decorator_list
    )


def _public(name):
    return not name.startswith("_") or name == "__init__"


def settable_values(tree):
    """The settable values a module's AST defines."""
    count = 0
    for node in tree.body:
        if isinstance(node, ast.FunctionDef) and _public(node.name):
            count += _optional_parameters(node)
        elif isinstance(node, ast.ClassDef) and _public(node.name):
            for member in node.body:
                if isinstance(member, ast.FunctionDef) and _public(member.name):
                    count += _optional_parameters(member)
                elif isinstance(member, ast.AnnAssign) and _is_dataclass(node):
                    count += 1
    return count


def test_settable_values_are_pinned():
    count = sum(
        settable_values(ast.parse(path.read_text(encoding="utf-8")))
        for path in PACKAGE.glob("*.py")
    )
    assert count <= SETTABLE_VALUES, (
        f"{count} settable values, {SETTABLE_VALUES} pinned: a new knob needs a caller "
        "that sets it, and an edit of SETTABLE_VALUES"
    )
