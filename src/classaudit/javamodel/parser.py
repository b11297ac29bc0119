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
counted, as a running count, once. A class's first and last lines are
asked of ``Tokens.line`` in source order, which counts each file's
newlines once. Token lists are indexed directly (their ``""`` and ``None``
sentinels are read past either end), bracket extents are table lookups,
parameter lists are cut by ``Tokens.split_commas``, and each method body
goes to the walker as an index range of the lists. Annotations,
types and type declarations are read by the rules the walker reads them by,
the ``Tokens`` methods. Each member is read inside the one loop, forward:
``[type parameters] [type] name``, then ``(`` or the declarators. Field
names go straight to the class's attributes and methods to its method
list; a name with no return type that is the class's own is a
constructor, and counts for nothing. A member that cannot be read is given
up in one branch of the loop, where reading stopped or at the name read,
and not reread. One rule, ``Tokens.head_end``, finds the ``{`` or ``;``
that ends a type declaration's head and a method's ``throws`` clause, never
past the enclosing body's end.
"""

from itertools import accumulate
from operator import not_
from typing import Dict, List, Optional, Sequence, Set, Tuple

from ..errors import ParseError, SpanOutOfBounds
from .body import analyze_body
from .model import Event, MethodView, SourceClass
from .tokens import _TYPE_KEYWORDS, CLOSING, MODIFIER_WORDS, Tokens, tokenize


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
        self.idents = tokens.idents
        self.line = tokens.line
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
            raise ParseError(self.file_id, self.line(i), f"unbalanced {t}{CLOSING[t]}")
        return j

    def _head_end(self, i: int, end: int) -> int:
        """``Tokens.head_end``, with a ParseError at an unpaired ``(``."""
        j = self.toks.head_end(i, end)
        if j < 0:
            self.close_of(~j)  # raises: the '(' at ~j has no partner
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
        unit, forward, in one loop. Type declarations go to ``nested``,
        qualified by ``prefix``. Any other member is read as ``[type
        parameters] [type] name``, then ``(`` or the declarators: a name
        with no return type that is ``owner`` is a constructor, which
        counts for nothing. A member that cannot be read is given up in one
        branch, where reading stopped or at the name read, and not reread.
        Returns the field names (in declaration order), the methods as
        (name, parameter types, parameter names, body range or ``None``)
        and whether a field or method is static."""
        toks, texts, idents = self.toks, self.texts, self.idents
        attributes: Dict[str, None] = {}
        methods: List[Tuple[str, List[str], List[str], Optional[range]]] = []
        has_static = False
        while i < end:
            if texts[i] == ";":
                i += 1
                continue
            start = i
            static = False
            while i < end:
                t = texts[i]
                if t == "@" and texts[i + 1] != "interface":
                    i = toks.skip_annotation(i, end)
                elif t in MODIFIER_WORDS:
                    static = static or t == "static"
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
            if texts[i] in _TYPE_KEYWORDS or toks.type_decl_at(i):
                i = self._parse_type_decl(i, end, self.line(start), prefix, nested)
                continue
            head = toks.skip_angles(i, end) if texts[i] == "<" else i
            name = toks.read_type(head, end) if head >= 0 else head
            if name == head + 1 and texts[name] == "(":  # a name with no return type
                name = head
            # k is -1, at the sentinel, when no name was read
            k = toks.skip_dims(name + 1) if name >= 0 and idents[name] is not None else -1
            if texts[k] == "(":
                close = self.close_of(k)
                i = self._head_end(close + 1, end)  # past a throws clause
                body = None
                if texts[i] == "{":
                    body = range(i + 1, self.close_of(i))
                    i = body.stop
                i += 1
                if name > head or texts[name] != owner:  # else a constructor
                    has_static = has_static or static
                    types, names = self._parse_params(k + 1, close)
                    methods.append((texts[name], types, names, body))
            elif texts[k] in ("=", ";", ","):
                has_static = has_static or static
                attributes[texts[name]] = None
                i = k
                while i < end and texts[i] != ";":  # the declarators
                    if texts[i] == "=":
                        i = self._skip_initializer(i + 1, end)
                    elif texts[i] == "," and idents[i + 1] is not None:
                        attributes[texts[i + 1]] = None
                        i += 2
                    else:
                        i += 1
                i += 1  # past the ';'
            else:  # no member: give it up
                i = max(~name, i + 1) if name < 0 else name
        return attributes, methods, has_static

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
        if self.idents[name_idx] is None:
            return i + 1
        name = self.texts[name_idx]
        # past type parameters, a record header, extends, implements, permits
        j = self._head_end(name_idx + 1, end)
        if j >= end:
            if end < self.n:  # the enclosing body closes first
                return end
            raise ParseError(self.file_id, self.line(i), f"missing body for {keyword} {name}")
        if self.texts[j] == ";":  # bodyless declaration
            return j + 1
        body_close = self.close_of(j)
        qualified = f"{prefix}.{name}" if prefix else name
        if keyword != "class":
            self._read_members(j + 1, body_close, name, qualified, units)
            return body_close + 1
        nested: List[SourceClass] = []
        attributes, raw_methods, has_static = self._read_members(
            j + 1, body_close, name, qualified, nested)

        methods: List[MethodView] = []
        for mname, ptypes, pnames, body in raw_methods:
            accessed: Set[str] = set()
            events: List[Event] = []
            if body is not None:
                accessed, events = analyze_body(body, self.toks, attributes, pnames, mname)
            methods.append(MethodView(mname, ptypes, accessed, events))

        last_line = self.line(body_close)
        loc, blank = count_loc_and_blank(self.blank_before, (first_line, last_line))
        units.append(SourceClass(name, qualified, list(attributes), methods, has_static,
                                 (first_line, last_line), loc, blank, nested))
        return body_close + 1

    def _skip_initializer(self, i: int, end: int) -> int:
        """Skip an initializer expression up to a ',' or ';' outside its
        bracket groups and the type arguments after a ``new`` or a ``.``,
        or to ``end``; where those cannot be read, on from where reading stopped."""
        texts, toks = self.texts, self.toks
        while i < end and texts[i] not in (",", ";"):
            if texts[i] == "new":
                i = toks.read_type(i + 1, end)
            elif texts[i] == "." and texts[i + 1] == "<":
                i = toks.skip_angles(i + 1, end)
            else:
                i = max(self.match[i], i) + 1
            i = max(i, ~i)  # at ``stop`` when read_type or skip_angles gave ``~stop``
        return min(i, end)

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
        if j < 0 or self.idents[j] is None or texts[j] == "this":
            return None  # no type, or not a name
        k = toks.skip_dims(j + 1)
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
