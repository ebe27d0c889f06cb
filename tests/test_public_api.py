"""Every public function and class of the library has a caller outside tests.

A public name is a module-level `def` or `class` in src/mdclab whose name does
not start with an underscore.  It counts as used when src/mdclab, scripts/ or
perfbench/ reference it as a name, an attribute or an import alias outside its
own definition and outside every unused public definition, so a helper whose
only caller is itself unused is unused too.  Code that only tests reach
belongs in the tests.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
LIBRARY = ROOT / "src" / "mdclab"
CALLER_TREES = (LIBRARY, ROOT / "scripts", ROOT / "perfbench")
DEFINITIONS = (ast.FunctionDef, ast.ClassDef)

# ROADMAP, "Decisions that stand": "`glue` and `marginalize` stay public.
# Since PR 15 only tests call them, but they are the calculus's documented
# primitives, and the chain property uses `glue` as its reference."
DOCUMENTED_PRIMITIVES = {("oscgauss", "glue"), ("oscgauss", "marginalize")}


def _references(node):
    """Every name, attribute and import alias under node."""
    found = set()
    for item in ast.walk(node):
        if isinstance(item, ast.Name):
            found.add(item.id)
        elif isinstance(item, ast.Attribute):
            found.add(item.attr)
        elif isinstance(item, ast.alias):
            found.add(item.name)
    return found


def _top_level_statements():
    """(owner, references) for each top-level statement of the caller trees;
    owner is the (module, name) that a library def or class defines, else None."""
    statements = []
    for root in CALLER_TREES:
        for path in sorted(root.rglob("*.py")):
            for node in ast.parse(path.read_text(encoding="utf-8"), filename=str(path)).body:
                owner = (path.stem, node.name) if path.parent == LIBRARY and isinstance(node, DEFINITIONS) else None
                statements.append((owner, _references(node)))
    return statements


def unused_public_names(statements):
    public = {owner for owner, _ in statements if owner and not owner[1].startswith("_")}
    unused = set()
    while True:
        live = set()
        for owner, names in statements:
            if owner is None:
                live |= names
            elif owner not in unused:
                live |= names - {owner[1]}
        found = {owner for owner in public - DOCUMENTED_PRIMITIVES if owner[1] not in live}
        if found == unused:
            return sorted(f"{module}.{name}" for module, name in unused)
        unused = found


def test_every_public_library_name_has_a_caller_outside_tests():
    statements = _top_level_statements()
    assert DOCUMENTED_PRIMITIVES <= {owner for owner, _ in statements}
    assert unused_public_names(statements) == []
