"""The package's settable values, code lines and public names are counted,
so a new knob, a longer package or a new public name is a visible edit of
:data:`SETTABLE_VALUES`, :data:`CODE_LINES` or :data:`PUBLIC_NAMES`.

A settable value is an optional parameter of a public function or method
(``__init__`` included, other dunders not), or a field of a public
dataclass, in ``src/photonrc``: each is a value a caller can set, which a
test or a caller has to justify.  A code line is a line of a module in
``src/photonrc`` that holds a token other than a comment, outside the
docstrings of the module, its classes and its functions.  A public name is
a module-level ``def``, ``class`` or assigned name in ``src/photonrc`` that
does not start with ``_``; the names ``__init__`` re-exports are imports,
so they do not count.
"""

import ast
import io
import tokenize
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "photonrc"

SETTABLE_VALUES = 114
CODE_LINES = 2350
PUBLIC_NAMES = 165

# tokens that hold no code: comments, line ends and the indentation markers
_NOT_CODE = {
    tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
    tokenize.ENDMARKER,
}


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


def _docstring_lines(tree):
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (
                isinstance(first, ast.Expr)
                and isinstance(first.value, ast.Constant)
                and isinstance(first.value.value, str)
            ):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(text):
    """The code lines of a module's source ``text``."""
    lines = set()
    for token in tokenize.generate_tokens(io.StringIO(text).readline):
        if token.type not in _NOT_CODE:
            lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines - _docstring_lines(ast.parse(text)))


def test_code_lines_are_pinned():
    count = sum(code_lines(path.read_text(encoding="utf-8")) for path in PACKAGE.glob("*.py"))
    assert count <= CODE_LINES, (
        f"{count} code lines, {CODE_LINES} pinned: the package grew, so lower what it "
        "no longer needs or raise CODE_LINES with a reason"
    )


def public_names(tree):
    """The public names a module's AST defines."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name))
    return {name for name in names if not name.startswith("_")}


def test_public_names_are_pinned():
    count = sum(
        len(public_names(ast.parse(path.read_text(encoding="utf-8"))))
        for path in PACKAGE.glob("*.py")
    )
    assert count <= PUBLIC_NAMES, (
        f"{count} public names, {PUBLIC_NAMES} pinned: a new name needs a caller outside "
        "its module, or a leading underscore, and an edit of PUBLIC_NAMES"
    )
