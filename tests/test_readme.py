"""The README's library examples run, and each line that prints a value
carries that value in its comment."""

import ast
import contextlib
import io
import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def _python_blocks() -> list[str]:
    return re.findall(r"```python\n(.*?)```", README.read_text(), re.DOTALL)


def test_readme_python_blocks_print_their_comments():
    blocks = _python_blocks()
    assert len(blocks) == 2
    namespace: dict = {}
    checked = []
    # the blocks run in order in one namespace: the second reads g and
    # bounds from the first
    for block in blocks:
        lines = block.splitlines()
        for stmt in ast.parse(block).body:
            code = compile(ast.Module([stmt], type_ignores=[]), str(README), "exec")
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                exec(code, namespace)
            _, hash_, comment = lines[stmt.end_lineno - 1].partition("#")
            if hash_:
                assert out.getvalue() == comment.strip() + "\n", lines[stmt.lineno - 1]
                checked.append(comment.strip())
            else:
                assert out.getvalue() == "", lines[stmt.lineno - 1]
    # every comment was on a statement's last line, and so was checked
    assert len(checked) == sum(block.count("#") for block in blocks) > 0
