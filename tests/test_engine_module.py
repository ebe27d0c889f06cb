"""The engine module holds no dense linear algebra.

oscgauss works on sparse rows of Python floats: a solve, an outer product, a
fancy index or a matrix product of the dense A belongs in the tests or in
perfbench/, never in src/.  This test reads oscgauss.py's syntax tree and
fails on a reference to np.linalg, np.outer or np.ix_, on a name imported
from numpy past the np prefix, and on the @ operator (a decorator is not an
operator).
"""

import ast
from pathlib import Path

ENGINE = Path(__file__).resolve().parents[1] / "src" / "mdclab" / "oscgauss.py"
DENSE = {"linalg", "outer", "ix_"}


def dense_algebra(tree):
    """Each (line, what) in the tree, by line: a numpy attribute in DENSE, an import from numpy, or an @ or @=
    operator."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr in DENSE and isinstance(node.value, ast.Name) \
                and node.value.id in ("np", "numpy"):
            found.append((node.lineno, f"{node.value.id}.{node.attr}"))
        elif isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult):
            found.append((node.lineno, "@"))
        elif isinstance(node, ast.ImportFrom) and node.module in ("numpy", "numpy.linalg"):
            found.append((node.lineno, f"from {node.module} import"))
    return sorted(found)


def test_the_engine_module_holds_no_dense_linear_algebra():
    assert dense_algebra(ast.parse(ENGINE.read_text(encoding="utf-8"), filename=str(ENGINE))) == []


def test_the_check_sees_each_form_it_refuses():
    source = "x = np.linalg.solve(a, b)\ny = np.outer(s, s)\nz = A[np.ix_(p, p)]\nw = a @ b\nw @= a\n" \
             "from numpy import outer\n@dataclass\nclass K:\n    pass\n"
    assert [what for _, what in dense_algebra(ast.parse(source))] == \
        ["np.linalg", "np.outer", "np.ix_", "@", "@", "from numpy import"]
