"""The package's settable values and code lines are counted, so a new knob
or a longer package is a visible edit of :data:`SETTABLE_VALUES` or
:data:`CODE_LINES`.

A settable value is an optional parameter of a public function or method
(``__init__`` included, other dunders not), or a field of a public
dataclass, in ``src/photonrc``: each is a value a caller can set, which a
test or a caller has to justify.  A code line is a line of a module in
``src/photonrc`` that holds a token other than a comment, outside the
docstrings of the module, its classes and its functions.
"""

import ast
import io
import tokenize
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "photonrc"

SETTABLE_VALUES = 121
CODE_LINES = 2323

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
