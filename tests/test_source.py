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


def test_characters_import_no_higher_layer():
    # the layering runs one way: characters reads partitions and errors
    # only, so no memo above it has to be cleared from here
    path = SOURCES[0].parent / "characters.py"
    tree = ast.parse(path.read_text(), filename=str(path))
    local = {node.module for node in ast.walk(tree)
             if isinstance(node, ast.ImportFrom) and node.level}
    assert local == {"errors", "partitions"}
