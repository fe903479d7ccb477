"""Properties of the package source itself."""

import ast
from pathlib import Path

import normeuclid

SOURCE = Path(normeuclid.__file__).parent


def test_no_assert_statements_in_package():
    # correctness guards must raise, because python -O strips assert
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SOURCE.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert len(list(SOURCE.glob("*.py"))) >= 7
    assert found == []
