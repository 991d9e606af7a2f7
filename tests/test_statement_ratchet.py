"""A ratchet on the size of `src/llp_lab`: a ceiling on each module's statements.

A module's count is its AST statements, docstrings excluded, so dropping
comments, docstrings or blank lines changes nothing and reflowing a line
changes nothing either.  A count may fall but never rise above its ceiling
here.  Lower a ceiling when a change shrinks its module.  Raise one only in
a change that states why the module grew, as a golden regeneration is
stated.  Every module needs a ceiling, so a new module is a stated step too.

Beside it, a rule on the same syntax trees: no `==` or `!=` comparison
with a `.class_id` attribute.  What differs between class ids belongs to
their rows (`hypotheses._CLASSES`), which code reaches by looking the id
up, never by matching it.
"""

import ast
from pathlib import Path

import llp_lab

CEILINGS = {
    "__init__": 11,
    "_pcg64": 213,
    "bounds": 91,
    "cli": 259,
    "core": 498,
    "errors": 22,
    "generators": 71,
    "hypotheses": 564,
    "learners": 168,
    "oracles": 163,
    "reductions": 289,
    "sampling": 93,
    "trials": 318,
}

_BODIES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def _statements(source: str) -> int:
    """The AST statements of `source`, less the docstrings of its module, classes and functions."""
    tree = ast.parse(source)
    docstrings = 0
    for node in ast.walk(tree):
        if isinstance(node, _BODIES) and node.body:
            first = node.body[0]
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant):
                docstrings += isinstance(first.value.value, str)
    return sum(isinstance(node, ast.stmt) for node in ast.walk(tree)) - docstrings


def test_the_count_skips_docstrings_comments_and_layout():
    source = (
        '"""Module docstring."""\n'
        "import math  # a comment\n"
        "class K:\n"
        '    """Class docstring."""\n'
        "    x = 1\n"
        "    def f(self, y):\n"
        '        """Method docstring."""\n'
        "        if y:\n"
        "            return (y +\n"
        "                    1)\n"
        "        'a string statement that is not a docstring'\n"
        "        return 0\n"
    )
    # import, class, x = 1, def, if, return, the string statement, return
    assert _statements(source) == 8
    assert _statements("async def g():\n    '''doc'''\n    pass\n") == 2


def test_no_module_grows_past_its_ceiling():
    modules = sorted(Path(llp_lab.__file__).parent.glob("*.py"))
    counts = {p.stem: _statements(p.read_text()) for p in modules}
    unnamed = sorted(set(counts) - set(CEILINGS))
    assert not unnamed, f"modules without a statement ceiling: {unnamed}"
    over = {name: (n, CEILINGS[name]) for name, n in counts.items() if n > CEILINGS[name]}
    assert not over, f"statements above their ceiling (count, ceiling): {over}"


def _class_id_matches(source: str) -> list[int]:
    """The lines of `==` and `!=` comparisons in `source` with a `.class_id` attribute on either side."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Compare):
            operands = [node.left, *node.comparators]
            for op, pair in zip(node.ops, zip(operands, operands[1:])):
                if isinstance(op, (ast.Eq, ast.NotEq)) and any(
                    isinstance(x, ast.Attribute) and x.attr == "class_id" for x in pair
                ):
                    lines.append(node.lineno)
    return lines


def test_the_class_id_rule_finds_each_match_and_nothing_else():
    source = (
        'if desc.class_id == "parity":\n'  # 1
        '    pass\n'
        'ok = "window" != self.desc.class_id\n'  # 3
        'chained = 0 < n and a < b == d.class_id\n'  # 4, past an ordering
        'fine = args.class_id is None or desc.class_id in ROWS\n'
        'class_id = "monotone_disjunction" if bit else "monotone_conjunction"\n'
        'same = class_id == "parity"\n'  # a bare name, not the attribute
        'row = _CLASSES[desc.class_id]\n'
    )
    assert _class_id_matches(source) == [1, 3, 4]


def test_no_class_id_is_matched_outside_the_rows():
    modules = sorted(Path(llp_lab.__file__).parent.glob("*.py"))
    found = {p.name: lines for p in modules if (lines := _class_id_matches(p.read_text()))}
    assert not found, f"class_id compared with == or != (module: lines): {found}"
