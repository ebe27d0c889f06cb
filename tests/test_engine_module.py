"""The engine module holds no dense linear algebra.

oscgauss works on sparse rows of Python floats: a solve, an outer product, a
fancy index or a matrix product of the dense A belongs in the tests or in
perfbench/, never in src/.  This test reads oscgauss.py's syntax tree and
fails on a reference to np.linalg, np.outer or np.ix_, on a name imported
from numpy past the np prefix, and on the @ operator (a decorator is not an
operator).  It also fails on any np. or numpy. reference outside the
OscKernel.A property, the one place that builds the dense matrix, so that
no dense input comes back into the constructor or the engine.
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


def numpy_outside_dense_a(tree):
    """Each (line, what) in the tree, by line: an np. or numpy. attribute outside the A method of class OscKernel."""
    inside = {id(node) for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef) and cls.name == "OscKernel"
              for method in cls.body if isinstance(method, ast.FunctionDef) and method.name == "A"
              for node in ast.walk(method)}
    return sorted((node.lineno, f"{node.value.id}.{node.attr}") for node in ast.walk(tree)
                  if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                  and node.value.id in ("np", "numpy") and id(node) not in inside)


def test_the_engine_module_uses_numpy_only_in_the_dense_a():
    assert numpy_outside_dense_a(ast.parse(ENGINE.read_text(encoding="utf-8"), filename=str(ENGINE))) == []


def test_the_numpy_check_sees_each_reference_outside_the_dense_a():
    source = "import numpy as np\nclass OscKernel:\n    def __init__(self, A):\n        A = np.array(A)\n" \
             "    @property\n    def A(self) -> np.ndarray:\n        return np.zeros((1, 1))\n" \
             "class Other:\n    def A(self):\n        return numpy.eye(2)\ndef A():\n    return np.triu(x)\n"
    assert numpy_outside_dense_a(ast.parse(source)) == [(4, "np.array"), (10, "numpy.eye"), (12, "np.triu")]
