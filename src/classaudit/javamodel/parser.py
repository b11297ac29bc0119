"""Structural parser: Java compilation unit -> SourceClass records.

This is a lenient token-level parser, not a full grammar. One member loop
reads the compilation unit, after its package declaration, and the body of
every class, interface, enum, record and annotation type. It separates
fields from methods from constructors, and hands the method bodies of
classes to the body analyzer. Method bodies, initializers and enum
constants' bodies are jumped, so the classes declared in them, local and
anonymous ones, are no units. Member classes, of any type, become
independent units: their members are excluded from the enclosing class,
while the enclosing line span still covers their text. A class's span
starts where the loop starts reading its declaration, at its first
annotation or modifier.

Each file is tokenized, with its bracket table, and its blank lines are
counted, as a running count, once. Token lists are indexed directly (their
``""`` sentinel is read past either end), bracket extents are table
lookups, parameter lists are cut by ``Tokens.split_commas``, and each
method body goes to the walker as an index range of the lists. Annotations,
types and type declarations are read by the rules the walker reads them by,
the ``Tokens`` methods. Members are read forward, ``[type parameters]
[type] name`` then ``(`` or the declarators, and one that cannot be read is
given up where reading stopped, or at the name read, and not reread.
"""

from itertools import accumulate
from operator import not_
from typing import Dict, List, Sequence, Set, Tuple

from ..errors import ParseError, SpanOutOfBounds
from .body import analyze_body
from .model import Event, MethodView, SourceClass
from .tokens import _TYPE_KEYWORDS, CLOSING, IDENT, MODIFIER_WORDS, Tokens, tokenize


def count_loc_and_blank(blank_before: Sequence[int],
                        line_span: Tuple[int, int]) -> Tuple[int, int]:
    """Physical and blank line counts for a 1-based inclusive span of a file's
    lines (split at ``\n`` only, as the tokenizer numbers them), of which
    the first k hold ``blank_before[k]`` blank lines."""
    first, last = line_span
    lines = len(blank_before) - 1
    if first < 1 or last > lines or first > last:
        raise SpanOutOfBounds(f"span {line_span} outside file of {lines} lines")
    return last - first + 1, blank_before[last] - blank_before[first - 1]


def parse_compilation_unit(source_text: str, file_id: str = "<memory>") -> List[SourceClass]:
    """Extract one SourceClass per top-level or member ``class`` declaration.

    Interfaces, enums, records and annotation types yield no unit, but
    their member classes still do. Local and anonymous classes, in method
    bodies, initializers or enum constants' bodies, yield none. Raises
    ParseError when the text cannot be tokenized or braces do not balance.
    """
    tokens = tokenize(source_text, file_id)
    parser = _UnitParser(tokens, source_text, file_id)
    return parser.parse_top_level()


class _UnitParser:
    def __init__(self, tokens: Tokens, source_text: str, file_id: str):
        self.toks = tokens
        self.n = len(tokens)
        self.texts = tokens.texts
        self.kinds = tokens.kinds
        self.lines = tokens.lines
        self.match = tokens.match
        lines = source_text.split("\n")
        if source_text.endswith("\n"):
            lines.pop()
        self.blank_before = list(accumulate(map(not_, map(str.strip, lines)), initial=0))
        self.file_id = file_id

    # ---- token helpers ----------------------------------------------------

    def close_of(self, i: int) -> int:
        """Index of the bracket closing the one opened at i; ParseError at
        the opener's line when it has none."""
        j = self.match[i]
        if j < 0:
            t = self.texts[i]
            raise ParseError(self.file_id, self.lines[i], f"unbalanced {t}{CLOSING[t]}")
        return j

    # ---- top level and type bodies ----------------------------------------

    def parse_top_level(self) -> List[SourceClass]:
        """Read the package declaration, if the file starts with one, then
        the compilation unit's members; returns the top-level units."""
        texts = self.texts
        i = j = 0
        if texts[0] == "package":
            j = 1
            while texts[j] != ";" and j < self.n:
                j += 1
            i = j + 1
        units: List[SourceClass] = []
        self._read_members(i, self.n, "", "".join(texts[1:j]), units)
        return units

    def _read_members(self, i: int, end: int, owner: str, prefix: str,
                      nested: List[SourceClass]):
        """Read the members in [i, end), of a type body or the compilation
        unit, forward. Type declarations go to ``nested``, qualified by
        ``prefix``; a method named ``owner`` with no return type is a
        constructor. Returns the field names (in declaration order), the
        methods as (name, parameter types, parameter names, body span) and
        whether a field or method is static."""
        texts = self.texts
        attributes: Dict[str, None] = {}
        raw_methods: List[Tuple[str, List[str], List[str], Tuple[int, int]]] = []
        has_static = False
        while i < end:
            if texts[i] == ";":
                i += 1
                continue
            start = i
            mods: Set[str] = set()
            while i < end:
                t = texts[i]
                if t == "@" and texts[i + 1] != "interface":
                    i = self.toks.skip_annotation(i, end)
                elif t in MODIFIER_WORDS:
                    mods.add(t)
                    i += 1
                elif t == "non" and texts[i + 1] == "-" and texts[i + 2] == "sealed":
                    i += 3
                else:
                    break
            if i >= end:
                break
            t = texts[i]
            if t == "{":  # initializer block, or an enum constant's body
                i = self.close_of(i) + 1
                continue
            if t == "@":  # the loop above stops at '@' only before 'interface'
                i += 1
            # _parse_type_decl steps over a type keyword not followed by a name
            if texts[i] in _TYPE_KEYWORDS or self.toks.type_decl_at(i):
                i = self._parse_type_decl(i, end, self.lines[start], prefix, nested)
                continue
            i, kind_, mname, param_types, param_names, body_span = self._parse_member(
                i, end, owner)
            if kind_ == "field":
                if "static" in mods:
                    has_static = True
                for fname in param_types:  # declarator names for fields
                    attributes[fname] = None
            elif kind_ == "method":
                if "static" in mods:
                    has_static = True
                raw_methods.append((mname, param_types, param_names, body_span))
            # constructors contribute nothing
        return attributes, raw_methods, has_static

    def _parse_type_decl(self, i: int, end: int, first_line: int, prefix: str,
                         units: List[SourceClass]) -> int:
        """Read the type declaration whose keyword is at i, in a range that
        ends at ``end``; returns the index after it. A ``class`` becomes a
        unit in ``units``, with the classes declared among its members as
        its nested units. Any other type is no unit, and the classes among
        its members go to ``units``. A head with no ``{`` before ``end`` is
        given up there, or at the end of the file is a ParseError."""
        keyword = self.texts[i]
        name_idx = i + 1
        if self.kinds[name_idx] != IDENT:
            return i + 1
        name = self.texts[name_idx]
        j = name_idx + 1
        # skip type parameters / record header / extends-implements-permits
        while j < end and self.texts[j] != "{":
            if self.texts[j] == "(":
                j = self.close_of(j) + 1
                continue
            if self.texts[j] == ";":  # bodyless declaration
                return j + 1
            j += 1
        if j >= end:
            if end < self.n:  # the enclosing body closes first
                return end
            raise ParseError(self.file_id, self.lines[i], f"missing body for {keyword} {name}")
        body_close = self.close_of(j)
        qualified = f"{prefix}.{name}" if prefix else name
        if keyword != "class":
            self._read_members(j + 1, body_close, name, qualified, units)
            return body_close + 1
        nested: List[SourceClass] = []
        attributes, raw_methods, has_static = self._read_members(
            j + 1, body_close, name, qualified, nested)

        methods: List[MethodView] = []
        for mname, ptypes, pnames, body_span in raw_methods:
            if body_span == (0, 0):
                accessed: Set[str] = set()
                events: List[Event] = []
            else:
                span = range(*body_span)
                accessed, events = analyze_body(span, self.toks, attributes, pnames, mname)
            methods.append(
                MethodView(
                    name=mname,
                    parameter_types=ptypes,
                    accessed_attributes=accessed,
                    events=events,
                )
            )

        last_line = self.lines[body_close]
        loc, blank = count_loc_and_blank(self.blank_before, (first_line, last_line))
        units.append(SourceClass(
            name=name,
            qualified_name=qualified,
            attributes=list(attributes),
            methods=methods,
            has_static_member=has_static,
            line_span=(first_line, last_line),
            loc=loc,
            blank_lines=blank,
            nested=nested,
        ))
        return body_close + 1

    def _parse_member(self, i: int, end: int, class_name: str):
        """Read one field, method or constructor forward.

        Returns (next_index, kind, name, types, names, body_span) where for
        fields `types` carries the declarator names. When the tokens are no
        member, kind is None and next_index, past i, is where reading
        stopped or the name read, for the caller to resume at.
        """
        toks, texts = self.toks, self.texts
        head = toks.skip_angles(i, end) if texts[i] == "<" else i
        j = toks.read_type(head, end) if head >= 0 else head
        if j < 0:
            return (max(~j, i + 1), None, "", [], [], (0, 0))
        if texts[j] == "(" and j == head + 1:  # a name with no return type
            return self._parse_callable(head, j, end, class_name, False)
        if self.kinds[j] != IDENT:  # j may be the sentinel, at the stream's end
            return (j, None, "", [], [], (0, 0))
        k = j + 1
        while texts[k] == "[" and texts[k + 1] == "]":
            k += 2
        if texts[k] == "(":
            return self._parse_callable(j, k, end, class_name, True)
        if texts[k] in ("=", ";", ","):
            return self._parse_field(j, k, end)
        return (j, None, "", [], [], (0, 0))

    def _parse_field(self, name_idx: int, delim: int, end: int):
        names = [self.texts[name_idx]]
        i = delim
        while i < end:
            t = self.texts[i]
            if t == ";":
                return (i + 1, "field", "", names, [], (0, 0))
            if t == "=":
                i = self._skip_initializer(i + 1, end)
                continue
            if t == ",":
                i += 1
                if self.kinds[i] == IDENT:
                    names.append(self.texts[i])
                    i += 1
                continue
            i += 1
        return (end, "field", "", names, [], (0, 0))

    def _skip_initializer(self, i: int, end: int) -> int:
        """Skip an initializer expression up to a ',' or ';' outside its
        bracket groups, or to ``end``."""
        while i < end and self.texts[i] not in (",", ";"):
            i = max(self.match[i], i) + 1
        return min(i, end)

    def _parse_callable(self, name_idx: int, paren: int, end: int, class_name: str,
                        has_return_type: bool):
        mname = self.texts[name_idx]
        params_close = self.close_of(paren)
        param_types, param_names = self._parse_params(paren + 1, params_close)
        # throws clause, then body or ';'
        i = params_close + 1
        while i < end and self.texts[i] not in ("{", ";"):
            if self.texts[i] == "(":
                i = self.close_of(i) + 1
                continue
            i += 1
        if self.texts[i] == "{":
            body_close = self.close_of(i)
            body_span = (i + 1, body_close)
            nxt = body_close + 1
        else:
            body_span = (0, 0)
            nxt = i + 1
        if not has_return_type and mname == class_name:
            return (nxt, "ctor", mname, [], [], (0, 0))
        return (nxt, "method", mname, param_types, param_names, body_span)

    def _parse_params(self, i: int, close: int):
        """Parameter list between ( and ): normalized types + names."""
        types: List[str] = []
        names: List[str] = []
        for item in self.toks.split_commas(i, close):
            seg = self._param_segment(item.start, item.stop)
            if seg is not None:
                types.append(seg[0])
                names.append(seg[1])
        return types, names

    def _param_segment(self, i: int, end: int):
        """One parameter: [annotations] [final] Type name [ '[]'* ]. The
        type's text drops the ``final`` and every annotation."""
        texts, toks = self.texts, self.toks
        j = toks.read_type(i, end)
        if j < 0 or self.kinds[j] != IDENT or texts[j] == "this":
            return None  # no type, or not a name
        k = j + 1
        while texts[k] == "[" and texts[k + 1] == "]":
            k += 2
        if k != end:
            return None
        parts = texts[i:j]
        if "@" in parts or "final" in parts:
            parts = []
            while i < j:
                if texts[i] == "@":
                    i = toks.skip_annotation(i, j)
                    continue
                if texts[i] != "final":
                    parts.append(texts[i])
                i += 1
        return ("".join(parts) + "[]" * ((k - j - 1) // 2), texts[j])
