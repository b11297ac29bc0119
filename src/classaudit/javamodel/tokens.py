"""Lexer for Java source text.

``tokenize`` gives one file's tokens as parallel ``texts``, ``kinds`` and
``lines`` lists (comments and whitespace removed, 1-based source lines).
String/char literals are kept as single tokens so that braces or keywords
inside them can never confuse the structural passes. Generic angle
brackets are emitted as single ``<`` and ``>`` tokens (never ``>>``),
which keeps nested type arguments balanced; the shift operators nothing
downstream cares about are simply split. ``texts`` and ``kinds`` end in a
``""`` sentinel, so reading one past either end (index n, or -1) needs no
bounds check.

The whole file is scanned once, by ``findall`` with one compiled pattern,
and the lists are built from the result by ``map``/``compress``, so no
Python code runs per token. Each match skips blanks without a newline
and comments that close on their own line, uncaptured, then captures one
lexeme: a token, a ``\\n``, a block comment spanning lines, or ``""`` at the
end of the text. As that group matches wherever the skip stops, the scan
never backtracks into skipped text, which keeps it linear without the
possessive quantifiers ``re`` has only from Python 3.11. A lexeme's
line is one plus the newlines in the lexemes before it; newlines and
comments are then dropped, and a token's kind comes from its first
character. An unterminated comment, text block, string or char literal
matches as one lexeme running to the end of the text, so it can only be the
last lexeme, and matching that one against its closed form finds it.

``match_brackets`` pairs the ``()``, ``[]`` and ``{}`` tokens of a stream
in one pass, once per file; the parser and the body walker find the extent
of every such group in that table, by one lookup. Over a range of the
stream, a partner outside it read as -1, the file's table equals the
range's own: a closer pairs with the innermost open bracket of its kind,
which is inside the range whenever one there is open. ``split_commas``
jumps groups by the table and counts only ``<>``, which the table cannot
hold, ``<`` being also less-than. On malformed input, a scan over a range
takes an unpaired bracket as an ordinary token, and ends at a group whose
partner lies past its end.
"""

import re
from itertools import accumulate, compress, repeat
from operator import itemgetter, not_
from typing import List, Sequence

from ..errors import ParseError

IDENT = "ident"
NUMBER = "number"
STRING = "string"
CHAR = "char"
OP = "op"


MODIFIER_WORDS = frozenset(
    """public protected private static final abstract synchronized native
    strictfp transient volatile default sealed""".split()
)

PRIMITIVE_TYPES = frozenset(
    "boolean byte char double float int long short void".split()
)

# Multi-char operators that matter downstream. '>>'/'<<' are intentionally
# absent so generics stay balanced.
_TWO_CHAR_OPS = ("&&", "||", "==", "!=", "<=", ">=", "+=", "-=", "*=", "/=",
                 "%=", "&=", "|=", "^=", "->", "::", "++", "--")

# Blanks other than '\n', line comments and block comments closed on their
# line, written so that any skipped text has exactly one parse.
_SKIP = r"[^\S\n]*(?:(?://[^\n]*|/\*[^\n]*?\*/)[^\S\n]*)*"
# Each comment or literal that may run past its line, closed, by opener.
# Text blocks come before strings so that '"""' is never read as '"'.
_CLOSED = {
    "/*": r"/\*(?s:.*?)\*/",
    '"""': r'"""(?s:.*?)"""',
    '"': r'"[^"\\\n]*(?:\\(?s:.)[^"\\\n]*)*"',
    "'": r"'[^'\\\n]*(?:\\(?s:.)[^'\\\n]*)*'",
}
# One lexeme after any skipped text. The group must keep matching at the
# end of the text (``\Z``), or a skip reaching it would be backtracked. A
# comment or literal not closed runs to the end by its opener's second branch.
_LEXEME = re.compile(
    _SKIP + r"(\n|"
    + "|".join(f"{closed}|{re.escape(opener)}(?s:.*)"
               for opener, closed in _CLOSED.items())
    + r"""
      | \d\w*(?:\.(?=\d)\w*)*                    # number
      | (?:[^\W\d]|\$)[\w$]*                     # identifier
      | \.\.\.
      | """ + "|".join(map(re.escape, _TWO_CHAR_OPS)) + r"""
      | \S
      | \Z
    )""",
    re.VERBOSE,
)
_UNTERMINATED_MESSAGE = {
    "/*": "unterminated block comment",
    '"""': "unterminated text block",
    '"': "unterminated string literal",
    "'": "unterminated char literal",
}
_NOT_TOKEN = ("\n", "/*")


class _KindOf(dict):
    """Token kind by a lexeme's first character, filled in on first use."""

    def __missing__(self, ch: str) -> str:
        if ch.isdigit():
            kind = NUMBER
        elif ch.isalpha() or ch in "_$":
            kind = IDENT
        else:
            kind = OP
        self[ch] = kind
        return kind


_KIND = _KindOf({'"': STRING, "'": CHAR})

CLOSING = {"(": ")", "[": "]", "{": "}"}
_OPENING = {close: open_ for open_, close in CLOSING.items()}
_BRACKETS = frozenset(CLOSING) | frozenset(_OPENING)


def _unclosed_opener(lexeme: str) -> str:
    """The opener of a comment or literal lexeme left unclosed, else ""."""
    for opener, closed in _CLOSED.items():
        if lexeme.startswith(opener):
            return "" if re.fullmatch(closed, lexeme) else opener
    return ""


class Tokens:
    """One file's tokens: ``texts``/``kinds`` (sentinel-ended), ``lines``,
    and ``match``, the bracket table of ``texts``. ``len()`` counts tokens."""

    def __init__(self, texts: List[str], kinds: List[str], lines: List[int]):
        self.texts = texts
        self.kinds = kinds
        self.lines = lines
        self.match = match_brackets(texts)

    def __len__(self) -> int:
        return len(self.lines)

    def split_commas(self, lo: int, hi: int) -> List[range]:
        """The comma-separated items of ``[lo, hi)``: a comma splits only
        outside every bracket group and at ``<>`` depth 0 (floored at 0)."""
        texts, match = self.texts, self.match
        items = []
        angle = 0
        i = start = lo
        while i < hi:
            t = texts[i]
            j = match[i]
            if j > i:  # a group: jump it, and past hi end the scan
                i = j
            elif t == "<":
                angle += 1
            elif t == ">":
                angle = max(0, angle - 1)
            elif t == "," and not angle:
                items.append(range(start, i))
                start = i + 1
            i += 1
        items.append(range(start, hi))
        return items


def tokenize(text: str, file_id: str = "<memory>") -> Tokens:
    """Tokenize Java source; raises ParseError on malformed lexical input."""
    lexemes = _LEXEME.findall(text)
    del lexemes[lexemes.index(""):]  # "" is captured only at the end
    if lexemes:
        opener = _unclosed_opener(lexemes[-1])
        if opener:
            line = text.count("\n") + 1 - lexemes[-1].count("\n")
            raise ParseError(file_id, line, _UNTERMINATED_MESSAGE[opener])
    keep = list(map(not_, map(str.startswith, lexemes, repeat(_NOT_TOKEN))))
    texts = list(compress(lexemes, keep))
    kinds = map(_KIND.__getitem__, map(itemgetter(0), texts))
    starts = accumulate(map(str.count, lexemes, repeat("\n")), initial=1)
    return Tokens([*texts, ""], [*kinds, ""], list(compress(starts, keep)))


def match_brackets(texts: Sequence[str]) -> List[int]:
    """Index of each bracket token's partner; -1 for unpaired brackets and
    for every other token.

    Each kind is paired on its own stack, so a closer pairs with the nearest
    open bracket of its kind whatever other kinds lie between, and a closer
    with no open bracket of its kind is left unpaired.
    """
    partner = [-1] * len(texts)
    open_at = {open_: [] for open_ in CLOSING}
    for i, t in enumerate(texts):
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
