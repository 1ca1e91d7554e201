"""The README "Library" example runs as written.

Each statement of the block runs in turn; each bare expression carries a
`# expected` comment, and its value must equal that comment's value.  Both
are evaluated in a namespace that holds toruscut's exports and Fraction.
"""

import ast
import re
from fractions import Fraction
from pathlib import Path

import toruscut

README = Path(__file__).resolve().parent.parent / "README.md"


def library_block() -> str:
    text = README.read_text(encoding="utf-8")
    section = text[text.index("\n## Library\n") :]
    return re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)


def test_library_example_gives_the_values_it_states():
    source = library_block()
    lines = source.splitlines()
    namespace = {name: getattr(toruscut, name) for name in dir(toruscut) if name[0] != "_"}
    namespace["Fraction"] = Fraction
    checked = 0
    for node in ast.parse(source).body:
        if not isinstance(node, ast.Expr):
            exec(compile(ast.Module([node], []), "README.md", "exec"), namespace)
            continue
        comment = re.search(r"#\s*(.+)$", lines[node.end_lineno - 1])
        assert comment, f"README line {node.lineno} states no expected value"
        expr, expected = ast.get_source_segment(source, node), comment.group(1)
        assert eval(expr, namespace) == eval(expected, namespace), expr
        checked += 1
    assert checked


def test_library_example_reads_a_reduced_circle():
    # a ReducedCircle holds its index, point and coefficient; the example
    # reads its angle and its complement from the public functions
    calls = {
        node.func.id
        for node in ast.walk(ast.parse(library_block()))
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
    }
    assert {"contact_reduce", "add_half_turns", "complement_vector"} <= calls
