"""Lexer for Java source text.

``tokenize`` gives one file's tokens as a ``Tokens``: their ``texts``
(comments and whitespace removed), ``idents``, which marks the identifiers
(keywords included), and ``match``, the bracket table. String/char literals
are kept as single tokens so that braces or keywords inside them can never
confuse the structural passes. Generic angle brackets are emitted as single
``<`` and ``>`` tokens (never ``>>``), which keeps nested type arguments
balanced; the shift operators nothing downstream cares about are simply
split. ``texts`` and ``idents`` end in a sentinel, ``""`` and ``None``, so
reading one past either end (index n, or -1) needs no bounds check.

The whole file is scanned once, by ``split`` with one pattern of four
groups: the skipped text, one token, and two marks inside the token, the
first character of an identifier and a bracket. There are two such
patterns, built from one template and chosen by ``text.isascii()``:
``_LEXEME``, compiled at import with ASCII classes, which are cheaper to
match, and for text that is not ASCII one with Unicode classes, compiled on
first use. On ASCII text both split alike. The lists are slices of the
result, so no Python code runs per token of an ASCII text. The skip takes
every blank, newline and closed comment, comments that span lines included,
and enters its comment loop only at a ``//`` or ``/*``; the token group
matches wherever that greedy skip stops, at a non-blank or at ``\\Z``, so
the scan never backtracks into skipped text, which keeps it linear without
the possessive quantifiers ``re`` has only from Python 3.11. The split
reads ``["", skip0, token0, ident0, bracket0, "", skip1, ...]``: every
fifth piece from the third is a token, up to the first ``\\Z`` match, which
is the sentinel (skipped text at the end gives a second one), and a mark is
``None`` where its group took no part. An identifier starts with a letter
(``str.isalpha``), ``_`` or ``$``; the Unicode pattern's identifier branch
starts at any word character but a decimal digit, such as ``½`` or ``²``
too, so the marks of a text that is not ASCII are checked one by one. An
unterminated comment, text block, string or char literal matches as one
token running to the end of the text, so it can only be the last token, and
matching that one against its closed form finds it.

The skipped texts are kept, one before each token and the sentinel, and a
token's 1-based line is found only when asked for, by ``Tokens.line``: one
plus the newlines in the skipped texts up to it and in the tokens before it
(a text block, or a string with a ``\\``-newline, holds some). The parser
asks for few lines, in source order: a class's first and last, and a
``ParseError``'s. So ``line`` counts on from the token it was last asked
about, and from the first token only when asked about an earlier one; the
lines of a whole file, asked for in order, cost one pass over it.

``match_brackets`` pairs the ``()``, ``[]`` and ``{}`` tokens of a stream
in one pass over the brackets alone, once per file; the parser and the body
walker find the extent of every such group in that table, by one lookup.
Over a range of the stream, a partner outside it read as -1, the file's
table equals the range's own: a closer pairs with the innermost open
bracket of its kind, which is inside the range whenever one there is open.

The parser and the body walker share the token-level rules on ``Tokens``:
``skip_annotation`` skips ``@a.b.C(...)``, ``skip_angles`` a balanced
``<...>`` of type arguments, ``read_type`` a type, ``skip_dims`` a
declarator's ``[]`` pairs, and ``type_decl_at`` tells a class, interface,
enum or record declaration. ``split_commas`` cuts the items of a list, and
``head_end`` finds the end of a declaration's head. Each jumps groups by the
table, and all follow one rule on malformed input: a scan over a range takes
an unpaired bracket as an ordinary token, and ends at a group whose partner
lies past its end; ``head_end`` alone gives ``~stop`` at an unpaired ``(``.
``read_type`` reads forward and builds no text: dotted names, each after
its annotations (or a ``final``) and before its type arguments, then ``[]``
pairs and a ``...``, each after its annotations. It and ``skip_angles``
give ``~stop`` where they cannot read on, for a caller to resume at
``stop`` without reading again what they read. ``skip_angles`` and
``split_commas`` count ``<>``, which the table cannot hold, ``<`` being
also less-than. They differ on a ``<`` that never closes: ``skip_angles``
stops at the first token that ends a type argument list as an expression
or a type declaration instead (``NOT_IN_ANGLES``, where a ``{`` stops it
paired or not), while ``split_commas`` must cut every list it is given, so
it keeps its own counter, which takes a stray ``<`` as one more level: the
commas after it split nothing.
"""

import re
from itertools import compress, islice
from typing import Iterable, List, Optional, Sequence

from ..errors import ParseError

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


def _lexeme_source(blank: str, non_blank: str, ident_start: str) -> str:
    """The token pattern, over a class of whitespace, ``blank``, its
    complement ``non_blank`` and the class of an identifier's first
    character, ``ident_start``.

    The skipped text comes first, then one token. The skip takes every blank,
    newline and closed comment, written so that any skipped text has exactly
    one parse, and enters the comment loop only at a ``//`` or ``/*``. The
    token group must match wherever the skip stops (a non-blank, or ``\\Z``
    at the end of the text), or the skip would be backtracked. A ``/*`` there
    is one the skip found no close for; it, and a literal not closed, runs to
    the end of the text. Two groups in the token mark it, each by one
    character, so no identifier is copied: an identifier's first, and a
    bracket. The most frequent tokens are tried first, and those of one
    character before the operators of two."""
    skip = f"{blank}*(?:(?=/[/*])(?:(?://[^\\n]*|{_CLOSED['/*']}){blank}*)*|)"
    return f"({skip})(({ident_start})" + r"""[\w$]*    # identifier
      | ([(){}[\]])                              # bracket
      | [;,@?~]                                  # starts no longer token
      | /\*(?s:.*)
      | """ + "|".join(f"{_CLOSED[opener]}|{re.escape(opener)}(?s:.*)"
                       for opener in ('"""', '"', "'")) + r"""
      | \d\w*(?:\.(?=\d)\w*)*                    # number
      | \.\.\.
      | """ + "|".join(map(re.escape, _TWO_CHAR_OPS)) + f"""
      | {non_blank}
      | \\Z
    )"""


# The pattern for ASCII text. Its whitespace is what ``str.isspace`` takes
# among ASCII characters, written out: ``re.ASCII``'s own ``\s`` leaves out
# ``\x1c``-``\x1f``.
_LEXEME = re.compile(_lexeme_source(r"[\t-\r\x1c-\x20]", r"[^\t-\r\x1c-\x20]", "[A-Za-z_$]"),
                     re.VERBOSE | re.ASCII)
_UNICODE_SOURCE = _lexeme_source(r"\s", r"\S", r"[^\W\d]|\$")


def _unicode_lexeme() -> re.Pattern:
    """The pattern for text that is not ASCII, compiled on first use and
    cached by ``re`` from then on."""
    return re.compile(_UNICODE_SOURCE, re.VERBOSE)


_UNTERMINATED_MESSAGE = {
    "/*": "unterminated block comment",
    '"""': "unterminated text block",
    '"': "unterminated string literal",
    "'": "unterminated char literal",
}


_TYPE_KEYWORDS = frozenset({"class", "interface", "enum"})
# Tokens that end a type argument list as an expression or a type
# declaration instead.
NOT_IN_ANGLES = frozenset({";", "{", "}", ")", "(", "&&", "||", "+", "-", "*", "/",
                           "class", "interface", "enum"})

CLOSING = {"(": ")", "[": "]", "{": "}"}
_OPENING = {close: open_ for open_, close in CLOSING.items()}


def _unclosed_opener(lexeme: str) -> str:
    """The opener of a comment or literal lexeme left unclosed, else ""."""
    for opener, closed in _CLOSED.items():
        if lexeme.startswith(opener):
            return "" if re.fullmatch(closed, lexeme) else opener
    return ""


class Tokens:
    """One file's tokens: ``texts`` and ``idents`` (sentinel-ended),
    ``skipped``, the text before each token and the sentinel, and ``match``,
    the bracket table of ``texts``, paired from ``brackets`` (true at the
    bracket tokens). ``len()`` counts tokens."""

    def __init__(self, texts: List[str], idents: List[Optional[str]], skipped: List[str],
                 brackets: Iterable):
        self.texts = texts
        self.idents = idents
        self.skipped = skipped
        self.match = match_brackets(texts, brackets)
        self._cursor = (0, 1)  # a token index, and the line its skipped text starts on

    def __len__(self) -> int:
        return len(self.texts) - 1

    def line(self, i: int) -> int:
        """The 1-based source line of token i (or of the sentinel): counted on
        from the last token asked about, or from the first, for an earlier
        one."""
        at, line = self._cursor
        if i < at:
            at, line = 0, 1
        line += ("".join(self.skipped[at:i]).count("\n")
                 + "".join(self.texts[at:i]).count("\n"))
        self._cursor = (i, line)
        return line + self.skipped[i].count("\n")

    def skip_annotation(self, i: int, end: int) -> int:
        """At '@': the index past the annotation, its dotted name
        ``a.b.C`` and that name's ``(...)`` arguments, at most ``end``."""
        texts, idents = self.texts, self.idents
        i += 1
        if idents[i] is not None:
            i += 1
            while texts[i] == "." and idents[i + 1] is not None:
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
        texts, idents = self.texts, self.idents
        while True:  # a dotted name
            while (texts[i] == "@" or texts[i] == "final") and i < end:
                i = self.skip_annotation(i, end) if texts[i] == "@" else i + 1
            if idents[i] is None or i >= end:
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

    def head_end(self, i: int, end: int) -> int:
        """The index of the first ``{`` or ``;`` from i, ``(...)`` groups
        jumped, else ``end``: the end of a type declaration's head or of a
        ``throws`` clause. ``~stop`` at an unpaired ``(``, at ``stop``."""
        texts, match = self.texts, self.match
        while i < end and texts[i] != "{" and texts[i] != ";":
            if texts[i] == "(":
                if match[i] < 0:
                    return ~i
                i = match[i]
            i += 1
        return min(i, end)

    def skip_dims(self, i: int) -> int:
        """The index past the ``[]`` pairs at i: a declarator's dimensions."""
        texts = self.texts
        while texts[i] == "[" and texts[i + 1] == "]":
            i += 2
        return i

    def type_decl_at(self, i: int) -> bool:
        """Whether a class, interface or enum declaration (keyword, then a
        name), or a record's (``record Name (``), starts at i."""
        t = self.texts[i]
        if t == "record":
            return self.idents[i + 1] is not None and self.texts[i + 2] == "("
        return t in _TYPE_KEYWORDS and self.idents[i + 1] is not None

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

    One ``split`` of the whole text, by ``_LEXEME`` or, for text that is
    not ASCII, by ``_unicode_lexeme()``, gives the tokens, the skipped texts
    and the marks of the identifiers and the brackets, each by one slice
    (see the module docstring).
    """
    ascii_text = text.isascii()
    pieces = (_LEXEME if ascii_text else _unicode_lexeme()).split(text)
    skipped = pieces[1::5]
    texts = pieces[2::5]
    idents = pieces[3::5]
    if len(texts) > 1 and not texts[-2]:  # skipped text at the end: two \Z
        del skipped[-1], texts[-1], idents[-1]
    if not ascii_text:  # the identifier branch takes '½' and '²' too
        idents = [None if mark is None or not (mark.isalpha() or mark in "_$") else mark
                  for mark in idents]
    tokens = Tokens(texts, idents, skipped, islice(pieces, 4, None, 5))
    n = len(texts) - 1
    if n:
        opener = _unclosed_opener(texts[n - 1])
        if opener:
            raise ParseError(file_id, tokens.line(n - 1), _UNTERMINATED_MESSAGE[opener])
    return tokens


def match_brackets(texts: Sequence[str], brackets: Iterable) -> List[int]:
    """Index of each bracket token's partner; -1 for unpaired brackets and
    for every other token. ``brackets`` is true at the bracket tokens, and
    only those are read.

    Each kind is paired on its own stack, so a closer pairs with the nearest
    open bracket of its kind whatever other kinds lie between, and a closer
    with no open bracket of its kind is left unpaired.
    """
    partner = [-1] * len(texts)
    open_at = {open_: [] for open_ in CLOSING}
    for i in compress(range(len(texts)), brackets):
        t = texts[i]
        stack = open_at.get(t)
        if stack is not None:
            stack.append(i)
            continue
        stack = open_at[_OPENING[t]]
        if stack:
            j = stack.pop()
            partner[i] = j
            partner[j] = i
    return partner
