"""A ratchet on the size of `src/llp_lab`: a ceiling on each module's statements.

A module's count is its AST statements, docstrings excluded, so dropping
comments, docstrings or blank lines changes nothing and reflowing a line
changes nothing either.  A count may fall but never rise above its ceiling
here.  Lower a ceiling when a change shrinks its module.  Raise one only in
a change that states why the module grew, as a golden regeneration is
stated.  Every module needs a ceiling, so a new module is a stated step too.
"""

import ast
from pathlib import Path

import llp_lab

CEILINGS = {
    "__init__": 11,
    "_pcg64": 213,
    "bounds": 85,
    "cli": 259,
    "core": 497,
    "errors": 22,
    "generators": 71,
    "hypotheses": 574,
    "learners": 168,
    "oracles": 163,
    "reductions": 289,
    "sampling": 92,
    "trials": 316,
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
