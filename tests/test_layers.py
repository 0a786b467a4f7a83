"""The package imports strictly downward, function bodies included."""

import ast
from pathlib import Path

import genus0

# each module may import only from modules of a lower rank
RANK = {
    "cache": 0,
    "linalg": 0,
    "trees": 0,
    "intersect": 1,
    "keelring": 2,
    "taut": 3,
    "cohft": 4,
    "cli": 5,
    "__init__": 6,
}

# the pairing oracle is ring reduction by definition
UPWARD = {("intersect", "pair_oracle", "keelring")}


def _imports(tree):
    """(enclosing function or None, imported module) of each package import.

    Imports under ``if TYPE_CHECKING:`` never run and are skipped.
    """
    out = []

    def visit(node, func):
        if isinstance(node, ast.If) and getattr(node.test, "id", None) == "TYPE_CHECKING":
            for child in node.orelse:
                visit(child, func)
            return
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            func = node.name
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            targets = [node.module] if node.module else [a.name for a in node.names]
            out.extend((func, t) for t in targets)
        for child in ast.iter_child_nodes(node):
            visit(child, func)

    visit(tree, None)
    return out


def test_imports_point_downward():
    src = Path(genus0.__file__).parent
    modules = sorted(p.stem for p in src.glob("*.py"))
    assert modules == sorted(RANK)
    upward, local = set(), set()
    for name in modules:
        tree = ast.parse((src / f"{name}.py").read_text())
        for func, target in _imports(tree):
            if func is not None:
                local.add((name, func, target))
            if RANK[target] >= RANK[name]:
                upward.add((name, func, target))
    assert upward == UPWARD
    assert local == UPWARD


def test_no_asserts_in_src():
    # ``python -O`` strips asserts and sets __debug__ false, so an
    # exactness invariant must be an explicit check that raises
    src = Path(genus0.__file__).parent
    found = []
    for path in sorted(src.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Assert) or (
                isinstance(node, ast.Name) and node.id == "__debug__"
            ):
                found.append(f"{path.name}:{node.lineno}")
    assert found == []
