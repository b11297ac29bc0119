"""Structural parser: Java compilation unit -> SourceClass records.

This is a lenient token-level parser, not a full grammar. It finds type
declarations, separates fields from methods from constructors inside class
bodies, and hands method bodies to the body analyzer. Nested named classes
become independent units: their members are excluded from the enclosing
class, while the enclosing line span still covers their text.

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
    """Extract one SourceClass per named ``class`` declaration.

    Interfaces, enums, records, annotation types and anonymous classes yield
    no unit, but named classes nested inside them still do. Raises
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
        self.package = ""

    # ---- token helpers ----------------------------------------------------

    def close_of(self, i: int) -> int:
        """Index of the bracket closing the one opened at i; ParseError at
        the opener's line when it has none."""
        j = self.match[i]
        if j < 0:
            t = self.texts[i]
            raise ParseError(self.file_id, self.lines[i], f"unbalanced {t}{CLOSING[t]}")
        return j

    # ---- top level ----------------------------------------------------------

    def parse_top_level(self) -> List[SourceClass]:
        units: List[SourceClass] = []
        i = 0
        while i < self.n:
            t = self.texts[i]
            if t == "package":
                j = i + 1
                parts = []
                while self.texts[j] != ";" and j < self.n:
                    parts.append(self.texts[j])
                    j += 1
                self.package = "".join(parts)
                i = j + 1
                continue
            if t == "import":
                while i < self.n and self.texts[i] != ";":
                    i += 1
                i += 1
                continue
            i = self._scan_region(i, self.package, units)
        return units

    def _scan_region(self, i: int, prefix: str, units: List[SourceClass]) -> int:
        """Handle one construct starting at i; returns the index after it.
        Collects class units found anywhere inside."""
        t = self.texts[i]
        if t == "@" and self.texts[i + 1] != "interface":
            return self.toks.skip_annotation(i, self.n)
        if t in MODIFIER_WORDS:
            return i + 1
        if self.toks.type_decl_at(i):
            return self._parse_type_decl(i, prefix, units)
        if t == "{":
            close = self.close_of(i)
            self._scan_nested_types(i + 1, close, prefix, units)
            return close + 1
        if t == "(":
            return self.close_of(i) + 1
        return i + 1

    def _decl_first_index(self, i: int) -> int:
        """Walk back from the token at i over modifiers and annotations
        (``@a.b.C``, ``@a.b.C(...)``) to the declaration start."""
        texts, kinds = self.texts, self.kinds
        j = i
        while True:
            prev = texts[j - 1]
            if prev in MODIFIER_WORDS or prev == "non" or prev == "-":
                j -= 1
                continue
            k = j - 1  # the annotation's last name token
            if prev == ")":
                k = self.match[k] - 1  # before its '(', or -2 if unpaired
            if k < 0 or kinds[k] != IDENT:
                return j
            k -= 1
            while texts[k] == "." and kinds[k - 1] == IDENT:
                k -= 2
            if texts[k] != "@":
                return j
            j = k

    def _parse_type_decl(self, i: int, prefix: str, units: List[SourceClass]) -> int:
        keyword = self.texts[i]
        is_annotation_decl = keyword == "interface" and self.texts[i - 1] == "@"
        name_idx = i + 1
        if self.kinds[name_idx] != IDENT:
            return i + 1
        name = self.texts[name_idx]
        j = name_idx + 1
        # skip type parameters / record header / extends-implements-permits
        while j < self.n and self.texts[j] != "{":
            if self.texts[j] == "(":
                j = self.close_of(j) + 1
                continue
            if self.texts[j] == ";":  # bodyless declaration
                return j + 1
            j += 1
        if j >= self.n:
            raise ParseError(self.file_id, self.lines[i], f"missing body for {keyword} {name}")
        body_open = j
        body_close = self.close_of(body_open)
        qualified = f"{prefix}.{name}" if prefix else name
        if keyword == "class" and not is_annotation_decl:
            first_line = self.lines[self._decl_first_index(i)]
            unit = self._build_class(
                name, qualified, body_open, body_close, first_line
            )
            units.append(unit)
        else:
            # not a unit, but classes nested inside still are
            self._scan_nested_types(body_open + 1, body_close, qualified, units)
        return body_close + 1

    def _scan_nested_types(self, i: int, end: int, prefix: str, units: List[SourceClass]):
        """Find type declarations anywhere in [i, end) without modeling the
        surrounding construct (interface/enum/record bodies, initializers)."""
        while i < end:
            t = self.texts[i]
            if self.toks.type_decl_at(i):
                i = self._parse_type_decl(i, prefix, units)
                continue
            if t == "{":
                close = self.close_of(i)
                self._scan_nested_types(i + 1, close, prefix, units)
                i = close + 1
                continue
            i += 1

    # ---- class bodies ---------------------------------------------------------

    def _build_class(
        self,
        name: str,
        qualified: str,
        body_open: int,
        body_close: int,
        first_line: int,
    ) -> SourceClass:
        attributes: Dict[str, None] = {}  # names, in declaration order
        nested: List[SourceClass] = []
        raw_methods: List[Tuple[str, List[str], List[str], Tuple[int, int]]] = []
        has_static = False

        i = body_open + 1
        while i < body_close:
            t = self.texts[i]
            if t == ";":
                i += 1
                continue
            mods: Set[str] = set()
            while i < body_close:
                t = self.texts[i]
                if t == "@" and self.texts[i + 1] != "interface":
                    i = self.toks.skip_annotation(i, body_close)
                elif t in MODIFIER_WORDS:
                    mods.add(t)
                    i += 1
                elif t == "non" and self.texts[i + 1] == "-" and self.texts[i + 2] == "sealed":
                    i += 3
                else:
                    break
            t = self.texts[i]
            if i >= body_close:
                break
            if t == "{":  # initializer block (static or instance)
                i = self.close_of(i) + 1
                continue
            if t == "@":  # the loop above stops at '@' only before 'interface'
                i += 1
            # _parse_type_decl steps over a type keyword not followed by a name
            if self.texts[i] in _TYPE_KEYWORDS or self.toks.type_decl_at(i):
                i = self._parse_type_decl(i, qualified, nested)
                continue
            i, kind_, mname, param_types, param_names, body_span = self._parse_member(
                i, body_close, name)
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
        return SourceClass(
            name=name,
            qualified_name=qualified,
            attributes=list(attributes),
            methods=methods,
            has_static_member=has_static,
            line_span=(first_line, last_line),
            loc=loc,
            blank_lines=blank,
            nested=nested,
        )

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
        k = j + 1
        while texts[k] == "[" and texts[k + 1] == "]":
            k += 2
        if self.kinds[j] == IDENT and texts[k] == "(":
            return self._parse_callable(j, k, end, class_name, True)
        if self.kinds[j] == IDENT and texts[k] in ("=", ";", ","):
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
