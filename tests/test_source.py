import ast
import re
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


SIZE_NAMES = re.compile(r"(?<!\w)(?:n|d|k|p|q|keep|max_rows|lam_min)(?!\w)")
SIZE_RULES = re.compile(r"must be (?:positive|non-negative|an integer)")


def test_sizes_are_read_only_by_partitions_size():
    # every size argument goes through partitions._size: a module that reads
    # an integer itself, or words the range of a named size itself, holds a
    # second copy of that decision
    found = []
    for path in SOURCES:
        if path.name == "partitions.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if (isinstance(node, ast.ImportFrom) and node.module == "operator"
                    and any(alias.name == "index" for alias in node.names)
                    or isinstance(node, ast.Attribute) and node.attr == "index"
                    and isinstance(node.value, ast.Name) and node.value.id == "operator"):
                found.append(f"{path.name}:{node.lineno} operator.index")
            if (isinstance(node, ast.Raise) and isinstance(node.exc, ast.Call)
                    and isinstance(node.exc.func, ast.Name) and node.exc.func.id == "ValueError"):
                text = "".join(part.value for part in ast.walk(node.exc)
                               if isinstance(part, ast.Constant) and isinstance(part.value, str))
                if SIZE_RULES.search(text) and SIZE_NAMES.search(text):
                    found.append(f"{path.name}:{node.lineno} {text!r}")
    assert found == []


def _calls(name):
    """path:line of every call of `name` or `x.name` in the sources."""
    return [
        f"{path.name}:{node.lineno}"
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Call)
        and (isinstance(node.func, ast.Name) and node.func.id == name
             or isinstance(node.func, ast.Attribute) and node.func.attr == name)
    ]


def test_factorial_determinants_are_built_only_in_symfunc():
    # symfunc._skew_dets is the one builder of factorial determinants, so no
    # other module eliminates a matrix of its own
    assert [c for c in _calls("_det") if not c.startswith("symfunc.py:")] == []


def test_tableau_operators_are_built_by_one_function():
    # oracle._tableau_operator is the one builder of tableau operators, so
    # the Jucys-Murphy idempotent is multiplied out from one call site
    found = _calls("_jucys_murphy_idempotent")
    assert len(found) == 1, found
