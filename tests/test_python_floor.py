"""The package declares ``requires-python = ">=3.10"``. A newer interpreter
accepts syntax and regular-expression features that 3.10 rejects, so these
checks hold the floor whichever interpreter runs the suite."""

import ast
import re
from pathlib import Path

import pytest

import classaudit
from classaudit.javamodel import tokens

FLOOR = (3, 10)
PACKAGE = Path(classaudit.__file__).resolve().parent
PYPROJECT = PACKAGE.parent.parent / "pyproject.toml"

# Python 3.11 added possessive quantifiers and atomic groups to `re`.
_NEWER_THAN_FLOOR = {"POSSESSIVE_REPEAT", "ATOMIC_GROUP"}


def regex_ops(pattern):
    """Names of the opcodes in a compiled pattern's parse tree."""
    parser = getattr(re, "_parser", None)
    if parser is None:  # before 3.11 such opcodes fail to compile at import
        pytest.skip("the regex parser is only inspected from Python 3.11 on")
    stack = [parser.parse(pattern.pattern, pattern.flags)]
    while stack:
        node = stack.pop()
        if isinstance(node, parser.SubPattern):
            for op, arg in node:
                yield str(op)
                stack.append(arg)
        elif isinstance(node, (list, tuple)):
            stack.extend(node)


def test_pyproject_declares_the_floor():
    if PYPROJECT.is_file():
        floor = ".".join(map(str, FLOOR))
        assert f'requires-python = ">={floor}"' in PYPROJECT.read_text()


@pytest.mark.parametrize(
    "path",
    sorted(PACKAGE.rglob("*.py")),
    ids=lambda p: str(p.relative_to(PACKAGE)),
)
def test_source_parses_at_the_floor(path):
    ast.parse(path.read_text(), str(path), feature_version=FLOOR)


@pytest.mark.parametrize(
    "pattern",
    [tokens._LEXEME, *map(re.compile, tokens._CLOSED.values())],
    ids=["lexeme", *tokens._CLOSED],
)
def test_lexer_patterns_use_no_newer_regex_features(pattern):
    ops = set(regex_ops(pattern))
    assert ops & {"MAX_REPEAT", "MIN_REPEAT"}  # the walk reached the quantifiers
    assert not ops & _NEWER_THAN_FLOOR
