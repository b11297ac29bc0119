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
shadowed or not. Scoping is block-granular, no flow analysis.

Nesting-depth convention (pinned so hand oracles can match it): the method
body is depth 0; bodies of if/else branches, loops, switch blocks, catch
blocks, ternary branch operands, lambda bodies and anonymous/local class
bodies are one deeper. ``try``/``finally`` blocks, plain ``{}`` blocks, and
control-clause expressions stay at the construct's own depth.

The walker reads the file's token lists over the body's index range as if
it were all there is: look-ahead past its end reads ``""``, and a bracket
partner outside it reads -1, which is the body's own table (see ``tokens``).
"""

from typing import List, Sequence, Set, Tuple

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

_DECL_HEAD_SKIP = frozenset({"final"})
# Identifier may not be an access when directly preceded by one of these.
_QUALIFIER_PREV = frozenset({".", "::", "new", "@", "instanceof"})
_VALUE_KEYWORDS = frozenset({"null", "true", "false"})


def analyze_body(
    span: range,
    tokens: Tokens,
    attr_names: Set[str],
    param_names: Sequence[str],
    method_name: str,
) -> Tuple[Set[str], List[Event]]:
    """Analyze the tokens at ``span``: a method's, between its braces."""
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
        self.end = span.stop
        self.attrs = set(attr_names)
        self.method_name = method_name
        self.scopes: List[Set[str]] = [set(param_names)]
        self.accessed: Set[str] = set()
        self.events: List[Event] = []
        self.last = ""  # text of the token eaten last

    # ---- cursor helpers -------------------------------------------------

    def txt(self, k: int = 0) -> str:
        j = self.i + k
        return self.texts[j] if j < self.end else ""

    def kind(self, k: int = 0) -> str:
        j = self.i + k
        return self.kinds[j] if j < self.end else ""

    def close_of(self, i: int) -> int:
        """Partner of the opener at i inside the body, else -1."""
        j = self.match[i]
        return j if j < self.end else -1

    def eat(self):
        if self.i < self.end:
            self.last = self.texts[self.i]
            self.i += 1

    def eat_if(self, text: str) -> bool:
        if self.txt() == text:
            self.eat()
            return True
        return False

    # ---- scopes ----------------------------------------------------------

    def push_scope(self, names=()):
        self.scopes.append(set(names))

    def pop_scope(self):
        if len(self.scopes) > 1:
            self.scopes.pop()

    def declare(self, name: str):
        self.scopes[-1].add(name)

    def is_shadowed(self, name: str) -> bool:
        return any(name in scope for scope in self.scopes)

    # ---- entry -----------------------------------------------------------

    def run(self):
        while self.i < self.end:
            if self.txt() == "}":
                self.eat()  # unbalanced close; tolerate
                continue
            self.parse_statement(0)

    # ---- statements -------------------------------------------------------

    def parse_block(self, depth: int):
        """Statements until the matching '}' (opening brace already eaten)."""
        while self.i < self.end:
            if self.txt() == "}":
                self.eat()
                return
            self.parse_statement(depth)

    def embedded(self, depth: int):
        """Body of a control construct: block or single statement."""
        if self.txt() == "{":
            self.eat()
            self.push_scope()
            self.parse_block(depth)
            self.pop_scope()
        else:
            self.parse_statement(depth)

    def parse_statement(self, depth: int):
        t = self.txt()
        if t == ";":
            self.eat()
            return
        if t == "{":
            self.eat()
            self.push_scope()
            self.parse_block(depth)  # plain block, no nesting increment
            self.pop_scope()
            return
        if t == "if":
            self.parse_if(depth)
            return
        if t == "for":
            self.parse_for(depth)
            return
        if t == "while":
            self.eat()
            self.events.append((EVENT_LOOP, depth))
            self.parse_paren_expr(depth)
            self.embedded(depth + 1)
            return
        if t == "do":
            self.eat()
            self.events.append((EVENT_LOOP, depth))
            self.embedded(depth + 1)
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
            self.eat()
            self.parse_paren_expr(depth)
            if self.eat_if("{"):
                self.push_scope()
                self.parse_block(depth)
                self.pop_scope()
            return
        if t in ("return", "throw"):
            self.eat()
            if self.txt() != ";":
                self.parse_expr({";"}, depth)
            self.eat_if(";")
            return
        if t in ("break", "continue"):
            self.eat()
            if self.kind() == IDENT and self.txt() not in ("case", "default"):
                self.eat()  # jump label, never an attribute access
            self.eat_if(";")
            return
        if t == "assert":
            self.eat()
            self.parse_expr({";"}, depth)
            self.eat_if(";")
            return
        if t == "yield" and self.txt(1) != "=":
            self.eat()
            self.parse_expr({";"}, depth)
            self.eat_if(";")
            return
        if t in ("class", "interface", "enum") or self._record_decl_ahead():
            self.parse_local_type(depth)
            return
        if t == "@":
            self._skip_annotation()
            return
        if self.kind() == IDENT and self.txt(1) == ":" and self.txt(2) != ":":
            # statement label such as `outer:`
            self.eat()
            self.eat()
            return
        # declaration or expression statement
        if self.try_parse_declaration(depth, terminators=(";",)):
            self.eat_if(";")
            return
        before = self.i
        self.parse_expr({";"}, depth)
        self.eat_if(";")
        if self.i == before:
            self.eat()  # guarantee progress on malformed input

    def parse_if(self, depth: int):
        """An if and its else-if links: a loop, as each link is flat."""
        kind = EVENT_IF
        while self.eat_if("if"):
            self.events.append((kind, depth))
            self.parse_paren_expr(depth)
            self.embedded(depth + 1)
            if not self.eat_if("else"):
                return
            kind = EVENT_ELSE_IF
        self.events.append((EVENT_ELSE, depth))
        self.embedded(depth + 1)

    def parse_for(self, depth: int):
        self.eat()  # 'for'
        self.events.append((EVENT_LOOP, depth))
        if self.txt() != "(":
            self.embedded(depth + 1)
            return
        classic = self._for_control_has_semicolon()
        self.eat()  # '('
        self.push_scope()
        if classic:
            if not self.eat_if(";"):
                if not self.try_parse_declaration(depth, terminators=(";",)):
                    self.parse_expr({";"}, depth)
                self.eat_if(";")
            if self.txt() != ";":
                self.parse_expr({";"}, depth)
            self.eat_if(";")
            if self.txt() != ")":
                self.parse_expr({")"}, depth)
            self.eat_if(")")
        else:
            if self.try_parse_declaration(depth, terminators=(":",)):
                self.eat_if(":")
            self.parse_expr({")"}, depth)
            self.eat_if(")")
        self.embedded(depth + 1)
        self.pop_scope()

    def parse_switch(self, depth: int):
        self.eat()  # 'switch'
        self.events.append((EVENT_SWITCH, depth))
        self.parse_paren_expr(depth)
        if not self.eat_if("{"):
            return
        self.push_scope()
        while self.i < self.end and self.txt() != "}":
            t = self.txt()
            if t == "case":
                self.eat()
                self.events.append((EVENT_CASE, depth))
                self.parse_expr({":", "->"}, depth)
            elif t == "default":
                self.eat()
            elif t == ":":
                self.eat()
            elif t == "->":
                self.eat()
                if self.txt() == "{":
                    self.eat()
                    self.push_scope()
                    self.parse_block(depth + 1)
                    self.pop_scope()
                else:
                    self.parse_statement(depth + 1)
            else:
                self.parse_statement(depth + 1)
        self.eat_if("}")
        self.pop_scope()

    def parse_try(self, depth: int):
        self.eat()  # 'try'
        has_resources = False
        if self.txt() == "(":
            has_resources = True
            self.eat()
            self.push_scope()
            while self.i < self.end and self.txt() != ")":
                before = self.i
                if not self.try_parse_declaration(depth, terminators=(";", ")")):
                    self.parse_expr({";", ")"}, depth)
                self.eat_if(";")
                if self.i == before:
                    break  # a '}' ends the resource list unclosed
            self.eat_if(")")
        if self.eat_if("{"):
            self.parse_block(depth)  # try body does not nest
        if has_resources:
            self.pop_scope()
        while self.txt() == "catch":
            self.eat()
            self.events.append((EVENT_CATCH, depth))
            self.push_scope()
            if self.eat_if("("):
                last_ident = None
                while self.i < self.end and self.txt() != ")":
                    if self.kind() == IDENT:
                        last_ident = self.txt()
                    self.eat()
                self.eat_if(")")
                if last_ident:
                    self.declare(last_ident)
            if self.eat_if("{"):
                self.parse_block(depth + 1)
            self.pop_scope()
        if self.eat_if("finally"):
            if self.eat_if("{"):
                self.parse_block(depth)

    def parse_local_type(self, depth: int):
        """Local class/interface/enum/record: body is a nested region."""
        while self.i < self.end and self.txt() != "{":
            if self.txt() == "(":  # record header
                self.skip_parens()
                continue
            self.eat()
        if self.eat_if("{"):
            self.push_scope()
            self.parse_block(depth + 1)
            self.pop_scope()

    # ---- expressions ------------------------------------------------------

    def parse_paren_expr(self, depth: int):
        if self.eat_if("("):
            self.parse_expr({")"}, depth)
            self.eat_if(")")

    def parse_expr(self, stop: Set[str], depth: int):
        """Consume an expression; returns with the stop token current.

        '}' and ';' are implicit hard stops unless explicitly requested.
        Each call frame is one run context for boolean-operator sequences,
        and so is a ternary's last operand, which continues the loop one
        level deeper (a ternary chain needs no recursion) up to a ','.
        """
        last_bool = None
        resume = None  # (stop, depth) that a ',' after a ternary goes back to
        while self.i < self.end:
            t = self.txt()
            if t in stop or (t in ("}", ";") and t not in stop):
                if t == "," and resume:
                    stop, depth = resume
                    resume = None
                    last_bool = None
                    self.eat()
                    continue
                return
            if t == "(":
                if self._try_lambda_params(depth, stop):
                    continue
                self.eat()
                self.parse_expr({")"}, depth)
                self.eat_if(")")
                continue
            if t == "[":
                self.eat()
                self.parse_expr({"]"}, depth)
                self.eat_if("]")
                continue
            if t == "{":
                if self.last == ")":
                    # anonymous class body after `new T(...)`
                    self.eat()
                    self.push_scope()
                    self.parse_block(depth + 1)
                    self.pop_scope()
                else:
                    # array initializer or similar brace region
                    self.eat()
                    self.parse_expr({"}"}, depth)
                    self.eat_if("}")
                continue
            if t in ("&&", "||"):
                kind = EVENT_BOOL_OP if t == last_bool else EVENT_BOOL_RUN
                self.events.append((kind, depth))
                last_bool = t
                self.eat()
                continue
            if t == ",":
                last_bool = None
                self.eat()
                continue
            if t == "?":
                if self._is_wildcard():
                    self.eat()
                    continue
                self.events.append((EVENT_TERNARY, depth))
                self.eat()
                self.parse_expr({":"}, depth + 1)
                self.eat_if(":")
                if "," not in stop:
                    resume = (stop, depth)
                    stop = stop | {","}
                depth += 1
                last_bool = None
                continue
            if t == ":":
                last_bool = None
                self.eat()
                continue
            if t == "switch":
                self.parse_switch(depth)
                continue
            if t == "instanceof":
                self._parse_instanceof()
                continue
            if self.kind() == IDENT:
                self._expr_ident(depth, stop)
                continue
            self.eat()

    def _expr_ident(self, depth: int, stop: Set[str]):
        name = self.txt()
        if name == "this" and self.txt(1) == "." and self.kind(2) == IDENT:
            member = self.txt(2)
            if self.txt(3) == "(":
                if member == self.method_name:
                    self.events.append((EVENT_RECURSION, depth))
            elif member in self.attrs:
                self.accessed.add(member)
            self.eat()
            self.eat()
            self.eat()
            return
        if self.txt(1) == "->":
            # single-parameter lambda
            self.eat()
            self.eat()  # '->'
            self.push_scope([name])
            self._lambda_body(depth, stop)
            self.pop_scope()
            return
        if self.last not in _QUALIFIER_PREV and name not in _VALUE_KEYWORDS:
            if self.txt(1) == "(":
                if name == self.method_name:
                    self.events.append((EVENT_RECURSION, depth))
            elif name in self.attrs and not self.is_shadowed(name):
                self.accessed.add(name)
        self.eat()

    def _lambda_body(self, depth: int, stop: Set[str]):
        if self.txt() == "{":
            self.eat()
            self.parse_block(depth + 1)
        else:
            self.parse_expr(stop | {","}, depth + 1)

    def _try_lambda_params(self, depth: int, stop: Set[str]) -> bool:
        """At '(': if the parenthesized group is a lambda parameter list,
        consume it plus the body and return True."""
        close = self.close_of(self.i)
        if close < 0 or close + 1 >= self.end or self.texts[close + 1] != "->":
            return False
        params = []
        for item in self.toks.split_commas(self.i + 1, close):
            idents = [j for j in item if self.kinds[j] == IDENT]
            if idents:
                params.append(self.texts[idents[-1]])
        self.skip_parens()
        self.eat()  # '->'
        self.push_scope(params)
        self._lambda_body(depth, stop)
        self.pop_scope()
        return True

    def _is_wildcard(self) -> bool:
        nxt = self.txt(1)
        return self.last in ("<", ",") and nxt in ("extends", "super", ">", ",")

    def _parse_instanceof(self):
        self.eat()  # 'instanceof'
        self.eat_if("final")
        if self.kind() == IDENT:
            self.eat()
            while self.txt() == "." and self.kind(1) == IDENT:
                self.eat()
                self.eat()
        if self.txt() == "<":
            self._skip_angles()
        while self.txt() == "[" and self.txt(1) == "]":
            self.eat()
            self.eat()
        if self.kind() == IDENT:  # pattern variable
            self.declare(self.txt())
            self.eat()

    # ---- declarations -----------------------------------------------------

    def try_parse_declaration(self, depth: int, terminators: Tuple[str, ...]) -> bool:
        """Parse `Type name [= init][, name2 ...]` if present.

        On success the cursor rests on the terminator (not consumed) and all
        declarator names are in scope. On failure the cursor is untouched.
        """
        save_i, save_last = self.i, self.last
        while self.txt() in _DECL_HEAD_SKIP:
            self.eat()
        if self.txt() == "@":  # local annotation
            self._skip_annotation()
        ok = self._scan_type()
        if ok and self.kind() == IDENT and self.txt() not in PRIMITIVE_TYPES:
            name = self.txt()
            nxt = self.txt(1)
            allowed = set(terminators) | {"=", ","}
            if nxt in allowed or (nxt == "[" and self.txt(2) == "]"):
                self.eat()  # name
                while self.txt() == "[" and self.txt(1) == "]":
                    self.eat()
                    self.eat()
                self.declare(name)
                self._declarator_rest(depth, terminators)
                return True
        self.i, self.last = save_i, save_last
        return False

    def _declarator_rest(self, depth: int, terminators: Tuple[str, ...]):
        stops = set(terminators) | {","}
        while True:
            if self.txt() == "=":
                self.eat()
                self.parse_expr(stops, depth)
            if self.txt() == "," and "," not in terminators:
                self.eat()
                if self.kind() == IDENT:
                    self.declare(self.txt())
                    self.eat()
                    while self.txt() == "[" and self.txt(1) == "]":
                        self.eat()
                        self.eat()
                    continue
            return

    def _scan_type(self) -> bool:
        """Consume a type reference; False (cursor untouched) if absent."""
        save_i, save_last = self.i, self.last
        t = self.txt()
        if t in PRIMITIVE_TYPES or t == "var":
            self.eat()
        elif self.kind() == IDENT and t not in ("new", "this", "super"):
            self.eat()
            while self.txt() == "." and self.kind(1) == IDENT:
                self.eat()
                self.eat()
        else:
            return False
        if self.txt() == "<":
            if not self._skip_angles():
                self.i, self.last = save_i, save_last
                return False
        while self.txt() == "[" and self.txt(1) == "]":
            self.eat()
            self.eat()
        return True

    def _skip_angles(self) -> bool:
        """Consume a balanced <...> group; abort on expression-ish tokens."""
        save_i, save_last = self.i, self.last
        level = 0
        while self.i < self.end:
            t = self.txt()
            if t == "<":
                level += 1
            elif t == ">":
                level -= 1
                if level == 0:
                    self.eat()
                    return True
            elif t in (";", "{", "}", ")", "(", "&&", "||", "+", "-", "*", "/"):
                break
            self.eat()
        self.i, self.last = save_i, save_last
        return False

    # ---- misc ---------------------------------------------------------------

    def skip_parens(self):
        """At '(': move past its ')', which becomes `last` as if eaten; an
        unpaired '(' runs to the end of the body."""
        close = self.close_of(self.i)
        if close < 0:
            close = self.end - 1
        self.i = close + 1
        self.last = self.texts[close]

    def _skip_annotation(self):
        """At '@': eat it, the annotation's dotted name and its arguments."""
        self.eat()
        if self.kind() == IDENT:
            self.eat()
            while self.txt() == "." and self.kind(1) == IDENT:
                self.eat()
                self.eat()
        if self.txt() == "(":
            self.skip_parens()

    def _record_decl_ahead(self) -> bool:
        return (
            self.txt() == "record"
            and self.kind(1) == IDENT
            and self.txt(2) == "("
        )

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
