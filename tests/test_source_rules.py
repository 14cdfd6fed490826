"""Rules the library's source code keeps, checked on its syntax trees."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"


def numpy_unique_uses(tree: ast.AST) -> list[int]:
    """Line numbers of every np.unique / numpy.unique reference and every
    `from numpy import unique`."""
    lines = []
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and node.attr == "unique"
                and isinstance(node.value, ast.Name) and node.value.id in ("np", "numpy")):
            lines.append(node.lineno)
        elif (isinstance(node, ast.ImportFrom) and node.module == "numpy"
                and any(alias.name == "unique" for alias in node.names)):
            lines.append(node.lineno)
    return sorted(lines)


def test_src_calls_no_numpy_unique():
    # numpy's unique runs a hash kernel that is 40-80x slower than one sort
    # and an adjacent compare on int64 arrays (core._sorted_unique).
    sample = "import numpy as np\nfrom numpy import unique\nx = np.unique([1])\nf = numpy.unique\ny = z.unique()\n"
    assert numpy_unique_uses(ast.parse(sample)) == [2, 3, 4]
    files = sorted(SRC.rglob("*.py"))
    assert files
    found = {
        str(path.relative_to(SRC)): lines
        for path in files
        if (lines := numpy_unique_uses(ast.parse(path.read_text(), filename=str(path))))
    }
    assert found == {}
