"""Differential test: generate random structured method bodies while
tracking, by construction, how many events of each kind the walk must
emit and what cyclomatic and cognitive complexity must be; then check the
analyzer reproduces them exactly. The generator's bookkeeping shares no
code with the analyzer, so systematic walking bugs cannot hide."""

import random
from collections import Counter

import pytest

from classaudit.javamodel import analyze_body, tokenize
from classaudit.metrics import method_cc, method_coco
from classaudit.javamodel.model import MethodView

# McCabe's decision points: each `if`, loop, `case` label, `catch`, ternary
# and `&&`/`||` token adds one to CC.
DECISION_KINDS = ("if", "else_if", "loop", "case", "catch", "ternary", "bool_run", "bool_op")


class BodyGen:
    """Emits Java statements and tallies expected counts as it goes."""

    def __init__(self, rng: random.Random):
        self.rng = rng
        self.expected = Counter()
        self.coco = 0
        self.n = 0

    def fresh(self) -> str:
        self.n += 1
        return f"v{self.n}"

    def condition(self, depth: int, allow_ops=True) -> str:
        """Flat chain of comparisons; counts operator tokens and runs."""
        atoms = self.rng.randint(1, 3) if allow_ops else 1
        parts = [f"p{self.rng.randint(0, 3)} > {self.rng.randint(0, 9)}"]
        prev_op = None
        for _ in range(atoms - 1):
            op = self.rng.choice(["&&", "||"])
            if op != prev_op:
                self.expected["bool_run"] += 1
                self.coco += 1  # new homogeneous run
                prev_op = op
            else:
                self.expected["bool_op"] += 1
            parts.append(f"p{self.rng.randint(0, 3)} < {self.rng.randint(10, 99)}")
            parts.insert(-1, op)
        return " ".join(parts)

    def statements(self, depth: int, budget: int) -> str:
        out = []
        while budget > 0:
            kind = self.rng.choice(
                ["plain", "plain", "if", "while", "dowhile", "for", "foreach",
                 "switch", "try", "ternary", "lambda", "recursion"]
            )
            budget -= 1
            out.append(getattr(self, "gen_" + kind)(depth, budget))
            if kind in ("if", "while", "dowhile", "for", "foreach", "switch", "try", "lambda"):
                budget -= 2
        return "\n".join(out)

    def gen_plain(self, depth, budget) -> str:
        v = self.fresh()
        return f"int {v} = p0 + {self.rng.randint(0, 9)}; use({v});"

    def gen_if(self, depth, budget) -> str:
        self.expected["if"] += 1
        self.coco += 1 + depth
        code = f"if ({self.condition(depth)}) {{\n{self.statements(depth + 1, min(budget, 2))}\n}}"
        if self.rng.random() < 0.4:
            self.expected["else_if"] += 1
            self.coco += 1  # else-if is flat
            code += f" else if ({self.condition(depth)}) {{\n{self.statements(depth + 1, 1)}\n}}"
        if self.rng.random() < 0.4:
            self.expected["else"] += 1
            self.coco += 1  # else is flat
            code += f" else {{\n{self.statements(depth + 1, 1)}\n}}"
        return code

    def gen_while(self, depth, budget) -> str:
        self.expected["loop"] += 1
        self.coco += 1 + depth
        return f"while ({self.condition(depth)}) {{\n{self.statements(depth + 1, min(budget, 2))}\n}}"

    def gen_dowhile(self, depth, budget) -> str:
        self.expected["loop"] += 1
        self.coco += 1 + depth
        body = self.statements(depth + 1, min(budget, 2))
        return f"do {{\n{body}\n}} while ({self.condition(depth)});"

    def gen_for(self, depth, budget) -> str:
        self.expected["loop"] += 1
        self.coco += 1 + depth
        v = self.fresh()
        return (f"for (int {v} = 0; {v} < 10; {v}++) "
                f"{{\n{self.statements(depth + 1, min(budget, 2))}\n}}")

    def gen_foreach(self, depth, budget) -> str:
        self.expected["loop"] += 1
        self.coco += 1 + depth
        v = self.fresh()
        return f"for (String {v} : labels) {{\n{self.statements(depth + 1, min(budget, 2))}\n}}"

    def gen_switch(self, depth, budget) -> str:
        self.expected["switch"] += 1
        self.coco += 1 + depth
        cases = self.rng.randint(1, 3)
        self.expected["case"] += cases  # cases add CC but no CoCo
        arms = []
        for i in range(cases):
            arms.append(f"case {i}:\n{self.statements(depth + 1, 1)}\nbreak;")
        if self.rng.random() < 0.5:
            arms.append(f"default:\n{self.statements(depth + 1, 1)}")
        body = "\n".join(arms)
        return f"switch (p0) {{\n{body}\n}}"

    def gen_try(self, depth, budget) -> str:
        catches = self.rng.randint(1, 2)
        self.expected["catch"] += catches
        self.coco += (1 + depth) * catches
        code = f"try {{\n{self.statements(depth, min(budget, 2))}\n}}"  # try does not nest
        for i in range(catches):
            v = self.fresh()
            code += f" catch (RuntimeException {v}) {{\n{self.statements(depth + 1, 1)}\n}}"
        if self.rng.random() < 0.3:
            code += f" finally {{\n{self.statements(depth, 1)}\n}}"
        return code

    def gen_ternary(self, depth, budget) -> str:
        self.expected["ternary"] += 1
        self.coco += 1 + depth
        v = self.fresh()
        return f"int {v} = {self.condition(depth)} ? 1 : 2; use({v});"

    def gen_lambda(self, depth, budget) -> str:
        # the lambda body nests without its own increment
        v = self.fresh()
        return (f"Runnable {v} = () -> {{\n{self.statements(depth + 1, min(budget, 2))}\n}};"
                f" use({v});")

    def gen_recursion(self, depth, budget) -> str:
        self.expected["recursion"] += 1
        self.coco += 1
        return "m(p0 - 1);"


@pytest.mark.parametrize("seed", range(60))
def test_generated_bodies_match_constructed_expectations(seed):
    rng = random.Random(900_000 + seed)
    gen = BodyGen(rng)
    body = gen.statements(0, rng.randint(3, 10))
    tokens = tokenize("{" + body + "}", f"gen{seed}.java")
    accessed, events = analyze_body(
        range(1, len(tokens) - 1), tokens, set(), ["p0", "p1", "p2", "p3", "labels"], "m"
    )
    view = MethodView(
        name="m", parameter_types=[], accessed_attributes=accessed,
        events=events,
    )
    kinds = Counter(kind for kind, _ in events)
    assert kinds == gen.expected, f"event kind mismatch for seed {seed}:\n{body}"
    assert method_cc(view) == 1 + sum(gen.expected[k] for k in DECISION_KINDS)
    assert method_coco(view) == gen.coco, f"coco mismatch for seed {seed}:\n{body}"
    assert accessed == set()
