"""README's library tour, run as written.

The ```python block of README.md is executed statement by statement. An
expression statement with a trailing `# value` comment must give that
value: its repr equals the comment's text up to any `: remark`, or, when
the text ends in "...", starts with the text before the dots.
"""

import ast
import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def tour_block() -> str:
    (block,) = re.findall(r"^```python\n(.*?)^```$", README.read_text(), re.M | re.S)
    return block


def documented_value(line: str) -> str | None:
    """The value a trailing comment documents, without its remark."""
    code, sep, comment = line.partition("#")
    if not sep or not code.strip():
        return None
    return comment.strip().split(": ", 1)[0]


def test_readme_tour_gives_its_documented_values():
    source = tour_block()
    lines = source.splitlines()
    namespace: dict = {}
    checked = []
    for statement in ast.parse(source).body:
        code = compile(ast.Module([statement], []), "README.md", "exec")
        if not isinstance(statement, ast.Expr):
            exec(code, namespace)
            continue
        value = eval(compile(ast.Expression(statement.value), "README.md", "eval"), namespace)
        expected = documented_value(lines[statement.end_lineno - 1])
        if expected is None:
            continue
        if expected.endswith("..."):
            assert isinstance(value, float) and repr(value).startswith(expected[:-3]), (expected, value)
        else:
            assert repr(value) == expected, (expected, value)
        checked.append(expected)
    assert checked == ["(1, 0, 1)", "(0, 0, 1)", "(True, [])", "0.69988..."]
