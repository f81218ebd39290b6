import ast
from pathlib import Path

SOURCES = sorted((Path(__file__).parents[1] / "src" / "schurweyl").glob("*.py"))


def test_invariants_do_not_use_assert():
    # `python -O` strips assert statements; invariants raise ConsistencyError
    assert SOURCES
    found = [
        f"{path.name}:{node.lineno}"
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []
