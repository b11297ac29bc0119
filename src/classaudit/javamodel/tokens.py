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

The whole file is scanned once, by ``split`` with one compiled pattern of
two groups, the skipped text and one token, and the lists are built from
the result by slices and ``map``, so no Python code runs per token. The
skip takes every blank, newline and closed comment, comments that span
lines included; the token group matches wherever that greedy skip stops,
at a non-blank or at ``\\Z``, so the scan never backtracks into skipped
text, which keeps it linear without the possessive quantifiers ``re`` has
only from Python 3.11. The split reads ``["", skip0, token0, "", skip1,
token1, ...]``: every third piece from the third is a token, up to the
first ``\\Z`` match, which is the sentinel (skipped text at the end gives
a second one). A token's line is one plus the newlines skipped up to it, one
``str.count`` per token. That misses only the newlines inside tokens (a
text block, or a string with a ``\\``-newline), so when the text holds more
newlines than were skipped, the lines are counted again with each token's
own. A token's kind comes from its first character. An unterminated
comment, text block, string or char literal matches as one token running
to the end of the text, so it can only be the last token, and matching
that one against its closed form finds it.

``match_brackets`` pairs the ``()``, ``[]`` and ``{}`` tokens of a stream
in one pass, once per file; the parser and the body walker find the extent
of every such group in that table, by one lookup. Over a range of the
stream, a partner outside it read as -1, the file's table equals the
range's own: a closer pairs with the innermost open bracket of its kind,
which is inside the range whenever one there is open.

The parser and the body walker share the token-level rules on ``Tokens``:
``skip_annotation`` skips ``@a.b.C(...)``, ``skip_angles`` a balanced
``<...>`` of type arguments, ``read_type`` a type, and ``type_decl_at``
tells a class, interface, enum or record declaration. ``split_commas``
cuts the items of a list. Each jumps groups by the table, and all follow
one rule on malformed input: a scan over a range takes an unpaired bracket
as an ordinary token, and ends at a group whose partner lies past its end.
``read_type`` reads forward and builds no text: dotted names, each after
its annotations (or a ``final``) and before its type arguments, then ``[]``
pairs and a ``...``, each after its annotations. It and ``skip_angles``
give ``~stop`` where they cannot read on, for a caller to resume at
``stop`` without reading again what they read. ``skip_angles`` and
``split_commas`` count ``<>``, which the table cannot hold, ``<`` being
also less-than. They differ on a ``<`` that never closes: ``skip_angles``
stops at the first token that ends a type argument list as an expression
instead (``NOT_IN_ANGLES``, where a ``{`` stops it paired or not), while
``split_commas`` must cut every list it is given, so it keeps its own
counter, which takes a stray ``<`` as one more level: the commas after it
split nothing.
"""

import re
from itertools import accumulate, chain, islice, repeat
from operator import add, itemgetter
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

# Each comment or literal that may run past its line, closed, by opener.
# Text blocks come before strings so that '"""' is never read as '"'.
_CLOSED = {
    "/*": r"/\*(?s:.*?)\*/",
    '"""': r'"""(?s:.*?)"""',
    '"': r'"[^"\\\n]*(?:\\(?s:.)[^"\\\n]*)*"',
    "'": r"'[^'\\\n]*(?:\\(?s:.)[^'\\\n]*)*'",
}
# Every blank, newline and closed comment before a token, written so that
# any skipped text has exactly one parse.
_SKIP = r"\s*(?:(?://[^\n]*|" + _CLOSED["/*"] + r")\s*)*"
# The skipped text, then one token. The token group must match wherever the
# skip stops (a non-blank, or ``\Z`` at the end of the text), or the skip
# would be backtracked. A ``/*`` there is one the skip found no close for;
# it, and a literal not closed, runs to the end of the text.
_LEXEME = re.compile(
    f"({_SKIP})(" + r"/\*(?s:.*)|"
    + "|".join(f"{_CLOSED[opener]}|{re.escape(opener)}(?s:.*)"
               for opener in ('"""', '"', "'"))
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

_TYPE_KEYWORDS = frozenset({"class", "interface", "enum"})
# Tokens that end a type argument list as an expression instead.
NOT_IN_ANGLES = frozenset({";", "{", "}", ")", "(", "&&", "||", "+", "-", "*", "/"})

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

    def skip_annotation(self, i: int, end: int) -> int:
        """At '@': the index past the annotation, its dotted name
        ``a.b.C`` and that name's ``(...)`` arguments, at most ``end``."""
        texts, kinds = self.texts, self.kinds
        i += 1
        if kinds[i] == IDENT:
            i += 1
            while texts[i] == "." and kinds[i + 1] == IDENT:
                i += 2
        if texts[i] == "(" and self.match[i] > i:
            i = self.match[i] + 1
        return min(i, end)

    def skip_angles(self, i: int, end: int) -> int:
        """At '<': the index past its balanced ``<...>``, ``(...)`` and
        ``[...]`` groups jumped; ``~stop`` at ``end`` or at a token of
        ``NOT_IN_ANGLES``, ``stop`` being where it stopped."""
        texts, match = self.texts, self.match
        level = 0
        while i < end:
            t = texts[i]
            j = match[i]
            if t == "<":
                level += 1
            elif t == ">":
                level -= 1
                if not level:
                    return i + 1
            elif j > i and t != "{":  # a group: jump it; past end ends the scan
                i = j
            elif t in NOT_IN_ANGLES:
                return ~i
            i += 1
        return ~end

    def read_type(self, i: int, end: int) -> int:
        """At a type, or the annotations and ``final`` before it: the index
        past it, at most ``end``; ``~stop`` when no type can be read, ``stop``
        being where reading stopped."""
        texts, kinds = self.texts, self.kinds
        while True:  # a dotted name
            while (texts[i] == "@" or texts[i] == "final") and i < end:
                i = self.skip_annotation(i, end) if texts[i] == "@" else i + 1
            if kinds[i] != IDENT or i >= end:
                return ~i
            i += 1
            if texts[i] == "<":
                i = self.skip_angles(i, end)
                if i < 0:
                    return i
            if texts[i] != "." or i >= end:
                break
            i += 1
        k = i
        while True:  # array dimensions, then varargs, each may be annotated
            while texts[k] == "@" and k < end:
                k = self.skip_annotation(k, end)
            if texts[k] != "[" or texts[k + 1] != "]" or k + 1 >= end:
                return k + 1 if texts[k] == "..." and k < end else i
            i = k = k + 2

    def type_decl_at(self, i: int) -> bool:
        """Whether a class, interface or enum declaration (keyword, then a
        name), or a record's (``record Name (``), starts at i."""
        t = self.texts[i]
        if t == "record":
            return self.kinds[i + 1] == IDENT and self.texts[i + 2] == "("
        return t in _TYPE_KEYWORDS and self.kinds[i + 1] == IDENT

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
    """Tokenize Java source; raises ParseError on malformed lexical input.

    One ``_LEXEME.split`` of the whole text gives the tokens by one slice
    and their lines from the skipped text (see the module docstring).
    """
    pieces = _LEXEME.split(text)
    texts = pieces[2::3]
    if len(texts) > 1 and not texts[-2]:  # skipped text at the end: two \Z
        del texts[-1]
    n = len(texts) - 1
    skipped = pieces[1:3 * n + 3:3]  # before each token and the sentinel
    lines = list(accumulate(map(str.count, skipped, repeat("\n")), initial=1))
    if lines[-1] != text.count("\n") + 1:  # a token holds a newline
        held = chain((0,), map(str.count, texts, repeat("\n")))
        lines = list(accumulate(
            map(add, map(str.count, skipped, repeat("\n")), held), initial=1))
    del lines[0], lines[-1]
    if n:
        opener = _unclosed_opener(texts[n - 1])
        if opener:
            raise ParseError(file_id, lines[n - 1], _UNTERMINATED_MESSAGE[opener])
    kinds = list(map(_KIND.__getitem__, map(itemgetter(0), islice(texts, n))))
    kinds.append("")
    return Tokens(texts, kinds, lines)


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
