"""Lexer for Java source text.

Produces a flat token stream with comments and whitespace removed and the
1-based source line attached to every token. String/char literals are kept
as single tokens so that braces or keywords inside them can never confuse
the structural passes. Generic angle brackets are emitted as single ``<``
and ``>`` tokens (never ``>>``), which keeps nested type arguments
balanced; the shift operators nothing downstream cares about are simply
split.

``match_brackets`` pairs the ``()``, ``[]`` and ``{}`` tokens of a stream
in one pass, so the structural passes find the extent of a group by one
lookup instead of rescanning from its opener.
"""

from typing import List, NamedTuple, Sequence

from ..errors import ParseError

IDENT = "ident"
NUMBER = "number"
STRING = "string"
CHAR = "char"
OP = "op"


class Token(NamedTuple):
    kind: str
    text: str
    line: int


KEYWORDS = frozenset(
    """abstract assert boolean break byte case catch char class const continue
    default do double else enum extends final finally float for goto if
    implements import instanceof int interface long native new package
    private protected public return short static strictfp super switch
    synchronized this throw throws transient try void volatile while""".split()
)

MODIFIER_WORDS = frozenset(
    """public protected private static final abstract synchronized native
    strictfp transient volatile default sealed""".split()
)

PRIMITIVE_TYPES = frozenset(
    "boolean byte char double float int long short void".split()
)

# Multi-char operators that matter downstream. '>>'/'<<' are intentionally
# absent so generics stay balanced.
_TWO_CHAR_OPS = frozenset(
    ["&&", "||", "==", "!=", "<=", ">=", "+=", "-=", "*=", "/=",
     "%=", "&=", "|=", "^=", "->", "::", "++", "--"]
)

_IDENT_EXTRA = "_$"

CLOSING = {"(": ")", "[": "]", "{": "}"}
_OPENING = {close: open_ for open_, close in CLOSING.items()}
_BRACKETS = frozenset(CLOSING) | frozenset(_OPENING)


def _is_ident_start(ch: str) -> bool:
    return ch.isalpha() or ch in _IDENT_EXTRA


def _is_ident_part(ch: str) -> bool:
    return ch.isalnum() or ch in _IDENT_EXTRA


def tokenize(text: str, file_id: str = "<memory>") -> List[Token]:
    """Tokenize Java source; raises ParseError on malformed lexical input."""
    tokens: List[Token] = []
    i = 0
    n = len(text)
    line = 1
    while i < n:
        ch = text[i]
        if ch == "\n":
            line += 1
            i += 1
            continue
        if ch.isspace():
            i += 1
            continue
        if ch == "/" and i + 1 < n:
            nxt = text[i + 1]
            if nxt == "/":
                j = text.find("\n", i)
                i = n if j < 0 else j
                continue
            if nxt == "*":
                j = text.find("*/", i + 2)
                if j < 0:
                    raise ParseError(file_id, line, "unterminated block comment")
                line += text.count("\n", i, j)
                i = j + 2
                continue
        if ch == '"':
            if text.startswith('"""', i):
                j = text.find('"""', i + 3)
                if j < 0:
                    raise ParseError(file_id, line, "unterminated text block")
                start_line = line
                line += text.count("\n", i, j)
                tokens.append(Token(STRING, text[i:j + 3], start_line))
                i = j + 3
                continue
            j = i + 1
            while j < n:
                if text[j] == "\\":
                    j += 2
                    continue
                if text[j] == '"':
                    break
                if text[j] == "\n":
                    raise ParseError(file_id, line, "unterminated string literal")
                j += 1
            if j >= n:
                raise ParseError(file_id, line, "unterminated string literal")
            tokens.append(Token(STRING, text[i:j + 1], line))
            i = j + 1
            continue
        if ch == "'":
            j = i + 1
            while j < n:
                if text[j] == "\\":
                    j += 2
                    continue
                if text[j] == "'":
                    break
                if text[j] == "\n":
                    raise ParseError(file_id, line, "unterminated char literal")
                j += 1
            if j >= n:
                raise ParseError(file_id, line, "unterminated char literal")
            tokens.append(Token(CHAR, text[i:j + 1], line))
            i = j + 1
            continue
        if ch.isdigit():
            j = i + 1
            while j < n:
                c = text[j]
                if c.isalnum() or c == "_":
                    j += 1
                elif c == "." and j + 1 < n and text[j + 1].isdigit():
                    j += 1
                else:
                    break
            tokens.append(Token(NUMBER, text[i:j], line))
            i = j
            continue
        if _is_ident_start(ch):
            j = i + 1
            while j < n and _is_ident_part(text[j]):
                j += 1
            tokens.append(Token(IDENT, text[i:j], line))
            i = j
            continue
        if text.startswith("...", i):
            tokens.append(Token(OP, "...", line))
            i += 3
            continue
        two = text[i:i + 2]
        if two in _TWO_CHAR_OPS:
            tokens.append(Token(OP, two, line))
            i += 2
            continue
        tokens.append(Token(OP, ch, line))
        i += 1
    return tokens


def match_brackets(tokens: Sequence[Token]) -> List[int]:
    """Index of each bracket token's partner; -1 for unpaired brackets and
    for every other token.

    Each kind is paired on its own stack, so a closer pairs with the nearest
    open bracket of its kind whatever other kinds lie between, and a closer
    with no open bracket of its kind is left unpaired.
    """
    partner = [-1] * len(tokens)
    open_at = {open_: [] for open_ in CLOSING}
    for i, tok in enumerate(tokens):
        t = tok.text
        if t not in _BRACKETS:
            continue
        if t in open_at:
            open_at[t].append(i)
            continue
        stack = open_at[_OPENING[t]]
        if stack:
            j = stack.pop()
            partner[i] = j
            partner[j] = i
    return partner
