"""The package source never depends on Python's -O flag.

-O strips `assert` statements and the code under `if __debug__:`.  The
package raises explicit errors instead of asserting, so with neither in
its source, -O cannot change what it does.  This reads every line of
every module, including the lines no test happens to run.
"""

import ast
from pathlib import Path

import lscrystal

MODULES = sorted(Path(lscrystal.__file__).parent.glob("*.py"))


def test_package_has_no_assert_and_no_debug_flag():
    found = []
    for path in MODULES:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Assert) or (isinstance(node, ast.Name) and node.id == "__debug__"):
                found.append(f"{path.name}:{node.lineno}")
    assert "oracle.py" in {path.name for path in MODULES}
    assert found == []
