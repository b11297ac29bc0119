"""Single-pass analysis of one method body's token stream.

One lenient recursive-descent walk produces two things at once:

* the set of owning-class attributes the body reads or writes,
* one ``(kind, nesting_depth)`` event per decision construct, in source
  order: if / else-if / else, loop, switch, case label, catch, ternary,
  ``&&``/``||`` (``bool_run`` for the operator that starts a run of one
  operator, ``bool_op`` for each that continues it) and direct recursion.
  Cyclomatic and cognitive complexity are both computed from this list.

Resolution is purely lexical and intra-class. A bare identifier counts as an
attribute access when it matches a declared attribute, is not qualified by
``.``/``::``/``new``, is not a call (`name(` is an invocation, fields and
methods live in separate namespaces), and is not shadowed by a parameter or
a local declared earlier in an enclosing scope. ``this.name`` always counts,
shadowed or not. Scoping is block-granular, no flow analysis: every ``{…}``
block of statements opens a scope at its ``{`` and closes it at its ``}``,
so a local ends there. That holds for ``try``, ``catch`` and ``finally``
blocks too, which scope even though ``try`` and ``finally`` do not nest; a
catch parameter and a lambda's parameters are in the scope of the block they
head. A ``for`` header, ``try`` resources and a ``switch`` block scope their
own declarations the same way. In an arrow-form ``case`` label, ``A ->``
ends the label: it is never a lambda. A type or
record pattern binds like a local after ``instanceof``, and for its own arm
only in a ``case`` label; a record pattern binds each component's last
identifier, or a nested record pattern's bindings.

Nesting-depth convention (pinned so hand oracles can match it): the method
body is depth 0; bodies of if/else branches, loops, switch blocks, catch
blocks, ternary branch operands, lambda bodies and anonymous/local class
bodies are one deeper. ``try``/``finally`` blocks, plain ``{}`` blocks, and
control-clause expressions stay at the construct's own depth.

The walker reads the file's token lists in place, over the body's index
range ``span``. The token at ``span.stop`` must be the body's closing ``}``
or the stream's ``""`` sentinel; ``analyze_body`` checks this once. The
cursor never passes ``span.stop``, and every look-ahead reads past a token
only after testing it for something neither ``}`` nor ``""`` is, so no read
goes beyond ``span.stop`` and the walk sees the body as if it were all there
is. The token before the cursor reads as ``""`` at ``span.start``. A bracket
partner outside the body reads -1, which is the body's own table (see
``tokens``).
"""

from typing import Iterable, List, Sequence, Set, Tuple

from .model import (
    EVENT_BOOL_OP,
    EVENT_BOOL_RUN,
    EVENT_CASE,
    EVENT_CATCH,
    EVENT_ELSE,
    EVENT_ELSE_IF,
    EVENT_IF,
    EVENT_LOOP,
    EVENT_RECURSION,
    EVENT_SWITCH,
    EVENT_TERNARY,
    Event,
)
from .tokens import IDENT, PRIMITIVE_TYPES, Tokens

# Identifier may not be an access when directly preceded by one of these.
_QUALIFIER_PREV = frozenset({".", "::", "new", "@", "instanceof"})
_VALUE_KEYWORDS = frozenset({"null", "true", "false"})
# Tokens parse_expr handles by text; any other token is an identifier or
# is simply eaten, unless it stops the expression.
_EXPR_SPECIAL = frozenset({
    "}", ";", "(", "[", "{", "&&", "||", ",", "?", ":", "switch", "instanceof",
})
_SEMI = frozenset({";"})
_RPAREN = frozenset({")"})
_RBRACKET = frozenset({"]"})
_RBRACE = frozenset({"}"})
_COLON = frozenset({":"})
_CASE_LABEL = frozenset({":", "->"})
_RESOURCE_END = frozenset({";", ")"})


def analyze_body(
    span: range,
    tokens: Tokens,
    attr_names: Iterable[str],
    param_names: Sequence[str],
    method_name: str,
) -> Tuple[Set[str], List[Event]]:
    """Analyze the tokens at ``span``: a method's, between its braces.

    Raises ``ValueError`` unless ``0 <= span.start <= span.stop`` and the
    token at ``span.stop`` is ``}`` or the stream's ``""`` sentinel.
    """
    texts = tokens.texts
    if not (0 <= span.start <= span.stop < len(texts) and texts[span.stop] in ("}", "")):
        raise ValueError(f"body span {span} does not end at a '}}' or the stream's end")
    walker = _BodyWalker(span, tokens, attr_names, param_names, method_name)
    walker.run()
    return walker.accessed, walker.events


class _BodyWalker:
    def __init__(self, span, tokens, attr_names, param_names, method_name):
        self.toks = tokens
        self.texts = tokens.texts
        self.kinds = tokens.kinds
        self.match = tokens.match
        self.i = span.start
        self.start = span.start
        self.end = span.stop
        self.attrs = set(attr_names)
        self.method_name = method_name
        self.scopes: List[Set[str]] = [set(param_names)]
        self.accessed: Set[str] = set()
        self.events: List[Event] = []

    # ---- cursor helpers -------------------------------------------------

    def prev(self, i: int) -> str:
        """Text of the token before index i inside the body, else ""."""
        return self.texts[i - 1] if i > self.start else ""

    def close_of(self, i: int) -> int:
        """Partner of the opener at i inside the body, else -1."""
        j = self.match[i]
        return j if j < self.end else -1

    def eat(self):
        if self.i < self.end:
            self.i += 1

    def eat_if(self, text: str) -> bool:
        """Eat the current token if it reads ``text``, never ``}`` or ``""``."""
        if self.texts[self.i] == text:
            self.i += 1
            return True
        return False

    # ---- scopes ----------------------------------------------------------

    def is_shadowed(self, name: str) -> bool:
        for scope in self.scopes:
            if name in scope:
                return True
        return False

    # ---- entry -----------------------------------------------------------

    def run(self):
        texts, end = self.texts, self.end
        while self.i < end:
            if texts[self.i] == "}":
                self.i += 1  # unbalanced close; tolerate
                continue
            self.parse_statement(0)

    # ---- statements -------------------------------------------------------

    def block(self, depth: int, names=()) -> bool:
        """At '{': eat it, parse statements up to the matching '}' in a new
        scope that holds ``names``, close that scope and return True.
        At any other token return False and eat nothing."""
        texts, end = self.texts, self.end
        if texts[self.i] != "{":
            return False
        self.i += 1
        self.scopes.append(set(names))
        while self.i < end:
            if texts[self.i] == "}":
                self.i += 1
                break
            self.parse_statement(depth)
        self.scopes.pop()
        return True

    def parse_statement(self, depth: int):
        texts, kinds = self.texts, self.kinds
        i = self.i
        t = texts[i]
        if t == ";":
            self.i = i + 1
            return
        if t == "{":
            self.block(depth)  # plain block, no nesting increment
            return
        if t == "if":
            self.parse_if(depth)
            return
        if t == "for":
            self.parse_for(depth)
            return
        if t == "while":
            self.i = i + 1
            self.events.append((EVENT_LOOP, depth))
            self.parse_paren_expr(depth)
            self.parse_statement(depth + 1)
            return
        if t == "do":
            self.i = i + 1
            self.events.append((EVENT_LOOP, depth))
            self.parse_statement(depth + 1)
            if self.eat_if("while"):  # tail condition, not a second loop
                self.parse_paren_expr(depth)
            self.eat_if(";")
            return
        if t == "switch":
            self.parse_switch(depth)
            return
        if t == "try":
            self.parse_try(depth)
            return
        if t == "synchronized":
            self.i = i + 1
            self.parse_paren_expr(depth)
            self.block(depth)
            return
        if t in ("return", "throw"):
            self.i = i + 1
            if texts[i + 1] != ";":
                self.parse_expr(_SEMI, depth)
            self.eat_if(";")
            return
        if t in ("break", "continue"):
            i += 1
            if kinds[i] == IDENT and texts[i] not in ("case", "default"):
                i += 1  # jump label, never an attribute access
            self.i = i
            self.eat_if(";")
            return
        if t == "assert" or (t == "yield" and texts[i + 1] != "="):
            self.i = i + 1
            self.parse_expr(_SEMI, depth)
            self.eat_if(";")
            return
        if self.toks.type_decl_at(i):
            self.parse_local_type(depth)
            return
        if t == "@":
            self.i = self.toks.skip_annotation(i, self.end)
            return
        if kinds[i] == IDENT and texts[i + 1] == ":" and texts[i + 2] != ":":
            self.i = i + 2  # statement label such as `outer:`
            return
        # declaration or expression statement
        if self.try_parse_declaration(depth, terminators=(";",)):
            self.eat_if(";")
            return
        self.parse_expr(_SEMI, depth)
        self.eat_if(";")
        if self.i == i:
            self.eat()  # guarantee progress on malformed input

    def parse_if(self, depth: int):
        """An if and its else-if links: a loop, as each link is flat."""
        kind = EVENT_IF
        while self.eat_if("if"):
            self.events.append((kind, depth))
            self.parse_paren_expr(depth)
            self.parse_statement(depth + 1)
            if not self.eat_if("else"):
                return
            kind = EVENT_ELSE_IF
        self.events.append((EVENT_ELSE, depth))
        self.parse_statement(depth + 1)

    def parse_for(self, depth: int):
        texts = self.texts
        self.i += 1  # 'for'
        self.events.append((EVENT_LOOP, depth))
        if texts[self.i] != "(":
            self.parse_statement(depth + 1)
            return
        classic = self._for_control_has_semicolon()
        self.i += 1  # '('
        self.scopes.append(set())
        if classic:
            if not self.eat_if(";"):
                if not self.try_parse_declaration(depth, terminators=(";",)):
                    self.parse_expr(_SEMI, depth)
                self.eat_if(";")
            if texts[self.i] != ";":
                self.parse_expr(_SEMI, depth)
            self.eat_if(";")
            if texts[self.i] != ")":
                self.parse_expr(_RPAREN, depth)
            self.eat_if(")")
        else:
            if self.try_parse_declaration(depth, terminators=(":",)):
                self.eat_if(":")
            self.parse_expr(_RPAREN, depth)
            self.eat_if(")")
        self.parse_statement(depth + 1)
        self.scopes.pop()

    def parse_switch(self, depth: int):
        texts, end = self.texts, self.end
        self.i += 1  # 'switch'
        self.events.append((EVENT_SWITCH, depth))
        self.parse_paren_expr(depth)
        if not self.eat_if("{"):
            return
        bound: Set[str] = set()  # the current arm's pattern bindings
        self.scopes.append(bound)
        self.scopes.append(set())  # locals, which reach every later arm
        while self.i < end:
            t = texts[self.i]
            if t == "}":
                self.i += 1
                break
            if t == "case":
                self.i += 1
                self.events.append((EVENT_CASE, depth))
                bound.clear()
                self._parse_case_label(bound, depth)
            elif t == "default":
                self.i += 1
                bound.clear()
            elif t == ":":
                self.i += 1
            elif t == "->":
                self.i += 1
                self.parse_statement(depth + 1)
            else:
                self.parse_statement(depth + 1)
        self.scopes.pop()
        self.scopes.pop()

    def _parse_case_label(self, bound: Set[str], depth: int):
        """A case label, up to its ':' or '->'. Its type and record patterns
        bind into ``bound``; constants, and a ``when`` guard with the
        bindings in scope, are parsed as an expression."""
        while True:
            i = self.toks.read_type(self.i, self.end)
            if i < 0 or not self._bind_pattern(i, bound):
                break  # a constant such as `RED` or `Color.RED`
            if not self.eat_if(","):
                self.eat_if("when")
                break
        self.parse_expr(_CASE_LABEL, depth)

    def parse_try(self, depth: int):
        texts, kinds, end = self.texts, self.kinds, self.end
        self.i += 1  # 'try'
        has_resources = self.eat_if("(")
        if has_resources:
            self.scopes.append(set())
            while self.i < end and texts[self.i] != ")":
                before = self.i
                if not self.try_parse_declaration(depth, terminators=(";", ")")):
                    self.parse_expr(_RESOURCE_END, depth)
                self.eat_if(";")
                if self.i == before:
                    break  # a '}' ends the resource list unclosed
            self.eat_if(")")
        self.block(depth)  # try body does not nest
        if has_resources:
            self.scopes.pop()
        while self.eat_if("catch"):
            self.events.append((EVENT_CATCH, depth))
            names = ()
            if self.eat_if("("):
                i = self.i
                while i < end and texts[i] != ")":
                    if kinds[i] == IDENT:
                        names = (texts[i],)
                    i += 1
                self.i = i
                self.eat_if(")")
            self.block(depth + 1, names)
        if self.eat_if("finally"):
            self.block(depth)

    def parse_local_type(self, depth: int):
        """Local class/interface/enum/record: body is a nested region."""
        texts, end = self.texts, self.end
        while self.i < end and texts[self.i] != "{":
            if texts[self.i] == "(":  # record header; unpaired, to the end
                close = self.close_of(self.i)
                self.i = close + 1 if close >= 0 else end
                continue
            self.i += 1
        self.block(depth + 1)

    # ---- expressions ------------------------------------------------------

    def parse_paren_expr(self, depth: int):
        if self.eat_if("("):
            self.parse_expr(_RPAREN, depth)
            self.eat_if(")")

    def parse_expr(self, stop: Set[str], depth: int):
        """Consume an expression; returns with the stop token current.

        '}' and ';' are implicit hard stops unless explicitly requested.
        Each call frame is one run context for boolean-operator sequences,
        and so is a ternary's last operand, which continues the loop one
        level deeper (a ternary chain needs no recursion) up to a ','.
        """
        texts, kinds, end = self.texts, self.kinds, self.end
        last_bool = None
        resume = None  # (stop, depth) that a ',' after a ternary goes back to
        while self.i < end:
            i = self.i
            t = texts[i]
            if t not in _EXPR_SPECIAL and t not in stop:
                if kinds[i] == IDENT:
                    self._expr_ident(depth, stop)
                else:
                    self.i = i + 1
                continue
            if t in stop or t == "}" or t == ";":
                if t == "," and resume:
                    stop, depth = resume
                    resume = None
                    last_bool = None
                    self.i = i + 1
                    continue
                return
            if t == "(":
                if self._try_lambda_params(depth, stop):
                    continue
                self.i = i + 1
                self.parse_expr(_RPAREN, depth)
                self.eat_if(")")
            elif t == "[":
                self.i = i + 1
                self.parse_expr(_RBRACKET, depth)
                self.eat_if("]")
            elif t == "{":
                if self.prev(i) == ")":
                    self.block(depth + 1)  # anonymous class body after `new T(...)`
                else:
                    # array initializer or similar brace region
                    self.i = i + 1
                    self.parse_expr(_RBRACE, depth)
                    if self.i < end and texts[self.i] == "}":
                        self.i += 1
            elif t == "&&" or t == "||":
                kind = EVENT_BOOL_OP if t == last_bool else EVENT_BOOL_RUN
                self.events.append((kind, depth))
                last_bool = t
                self.i = i + 1
            elif t == "," or t == ":":
                last_bool = None
                self.i = i + 1
            elif t == "?":
                self.i = i + 1
                if self._is_wildcard(i):
                    continue
                self.events.append((EVENT_TERNARY, depth))
                self.parse_expr(_COLON, depth + 1)
                self.eat_if(":")
                if "," not in stop:
                    resume = (stop, depth)
                    stop = stop | {","}
                depth += 1
                last_bool = None
            elif t == "switch":
                self.parse_switch(depth)
            else:  # 'instanceof'
                self._parse_instanceof()

    def _expr_ident(self, depth: int, stop: Set[str]):
        texts = self.texts
        i = self.i
        name = texts[i]
        nxt = texts[i + 1]
        if nxt == "." and name == "this" and self.kinds[i + 2] == IDENT:
            member = texts[i + 2]
            if texts[i + 3] == "(":
                if member == self.method_name:
                    self.events.append((EVENT_RECURSION, depth))
            elif member in self.attrs:
                self.accessed.add(member)
            self.i = i + 3
            return
        if nxt == "->" and "->" not in stop:
            # single-parameter lambda; in a case label '->' ends the label
            self.i = i + 2
            self._lambda_body(depth, stop, (name,))
            return
        self.i = i + 1
        if name not in _VALUE_KEYWORDS and (
            texts[i - 1] not in _QUALIFIER_PREV or i == self.start
        ):
            if nxt == "(":
                if name == self.method_name:
                    self.events.append((EVENT_RECURSION, depth))
            elif name in self.attrs and not self.is_shadowed(name):
                self.accessed.add(name)

    def _lambda_body(self, depth: int, stop: Set[str], params):
        if not self.block(depth + 1, params):
            self.scopes.append(set(params))
            self.parse_expr(stop | {","}, depth + 1)
            self.scopes.pop()

    def _try_lambda_params(self, depth: int, stop: Set[str]) -> bool:
        """At '(': if the parenthesized group is a lambda parameter list,
        consume it plus the body and return True. In a case label '->'
        ends the label, so there the group is never one."""
        close = self.close_of(self.i)
        if close < 0 or self.texts[close + 1] != "->" or "->" in stop:
            return False
        params = []
        for item in self.toks.split_commas(self.i + 1, close):
            idents = [j for j in item if self.kinds[j] == IDENT]
            if idents:
                params.append(self.texts[idents[-1]])
        self.i = close + 2  # past ')' and '->'
        self._lambda_body(depth, stop, params)
        return True

    def _is_wildcard(self, i: int) -> bool:
        """Whether the '?' at i is a type argument's wildcard."""
        return self.prev(i) in ("<", ",") and self.texts[i + 1] in ("extends", "super", ">", ",")

    def _parse_instanceof(self):
        self.i += 1  # 'instanceof'
        i = self.toks.read_type(self.i, self.end)
        if i >= 0 and not self._bind_pattern(i, self.scopes[-1]):
            self.i = i  # a type alone

    def _bind_pattern(self, i: int, scope: Set[str]) -> bool:
        """After a pattern's type, which ends before i: bind the names of a
        type or record pattern into ``scope``, move past it and return
        True; return False, and move nothing, if no pattern follows."""
        texts = self.texts
        if texts[i] == "(" and self.close_of(i) >= 0:  # record pattern
            self._bind_components(i, scope)
            self.i = self.match[i] + 1
        elif self.kinds[i] == IDENT:  # type pattern
            scope.add(texts[i])
            self.i = i + 1
        else:
            return False
        return True

    def _bind_components(self, open_: int, scope: Set[str]):
        """Add to ``scope`` the bindings of the record pattern whose '(' is
        at ``open_``, paired inside the body: each component's last
        identifier, or a nested record pattern's own bindings."""
        texts, kinds = self.texts, self.kinds
        for item in self.toks.split_commas(open_ + 1, self.match[open_]):
            name = ""
            for j in item:
                if texts[j] == "(":
                    self._bind_components(j, scope)
                    break
                if kinds[j] == IDENT:
                    name = texts[j]
            else:
                if name:
                    scope.add(name)

    # ---- declarations -----------------------------------------------------

    def try_parse_declaration(self, depth: int, terminators: Tuple[str, ...]) -> bool:
        """Parse `Type name [= init][, name2 ...]` if present.

        On success the cursor rests on the terminator (not consumed) and all
        declarator names are in scope. On failure the cursor is untouched.
        """
        texts, kinds = self.texts, self.kinds
        i = self.toks.read_type(self.i, self.end)
        if i < 0 or kinds[i] != IDENT or texts[i] in PRIMITIVE_TYPES:
            return False
        nxt = texts[i + 1]
        if not (nxt in terminators or nxt == "=" or nxt == ","
                or (nxt == "[" and texts[i + 2] == "]")):
            return False
        stops = set(terminators) | {","}
        while kinds[i] == IDENT:  # a declarator: name, dimensions, initializer
            self.scopes[-1].add(texts[i])
            i += 1
            while texts[i] == "[" and texts[i + 1] == "]":
                i += 2
            self.i = i
            if self.eat_if("="):
                self.parse_expr(stops, depth)
            if not self.eat_if(","):
                break
            i = self.i
        return True

    # ---- misc ---------------------------------------------------------------

    def _for_control_has_semicolon(self) -> bool:
        """Classic for, not enhanced: a ';' before the ')' closing the
        control, outside nested () and {} groups."""
        close = self.close_of(self.i)
        end = close if close >= 0 else self.end
        j = self.i + 1
        while j < end:
            t = self.texts[j]
            if t == ";":
                return True
            if t in ("(", "{"):
                j = self.close_of(j)
                if j < 0:
                    return False
            j += 1
        return False
