"""Every public function, class and method of the library has a caller outside
tests, and the library's keyword knobs are the listed ones.

A public name is a module-level `def` or `class` in src/mdclab, or a method of
such a class, whose name does not start with an underscore.  It counts as used
when src/mdclab, scripts/ or perfbench/ reference it as a name, an attribute or
an import alias outside its own definition and outside every unused public
definition, so a helper whose only caller is itself unused is unused too.  A
method counts only attribute references, by its name alone.  Code that only
tests reach belongs in the tests.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
LIBRARY = ROOT / "src" / "mdclab"
CALLER_TREES = (LIBRARY, ROOT / "scripts", ROOT / "perfbench")
DEFINITIONS = (ast.FunctionDef, ast.ClassDef)

#: Public names that may have no caller outside tests, each with its reason.
EXEMPT = {
    # ROADMAP, "Decisions that stand": `glue` and `marginalize` are the calculus's
    # documented primitives, and the chain property uses `glue` as its reference.
    ("oscgauss", "glue"): "documented primitive of the kernel calculus",
    ("oscgauss", "marginalize"): "documented primitive of the kernel calculus",
    # `mdclab surface-kernel` publishes kernel JSON and this is its reader;
    # ROADMAP item 1 asks for it to give every published kernel back exactly.
    ("oscgauss", "OscKernel.from_json"): "reader of the published canonical kernel JSON",
}

#: Every defaulted parameter of a public `def` in src/mdclab, as module.function.parameter.
KNOBS = {
    "cli.main.argv",
    "harness.probe.stat",
    "lattice.classify_general_quad_lagrangian.seed",
    "oscgauss.from_terms.amp",
    "oscgauss.from_terms.pihbar_pow",
    "p3.p3_joint_solution_residual.nu_shift",
    "qprop1d.momentum_factorized_kernel.direction",
    "qprop1d.momentum_factorized_kernel.zero_potential",
    "qprop1d.n_step_kernel.direction",
    "qprop1d.path_kernel.coeffs",
    "qprop1d.path_independent_coeffs.gamma",
    "qprop1d.path_independent_coeffs.f",
    "qsurface.canonical_lattice_coeffs.gauge",
    "reduction.continuous_flow_fd_error.h",
}


def _references(*nodes):
    """Every name and import alias under the nodes, and every attribute as ".attr"."""
    found = set()
    for node in nodes:
        for item in ast.walk(node):
            if isinstance(item, ast.Name):
                found.add(item.id)
            elif isinstance(item, ast.Attribute):
                found.add("." + item.attr)
            elif isinstance(item, ast.alias):
                found.add(item.name)
    return found


def _public_methods(node):
    if not isinstance(node, ast.ClassDef) or node.name.startswith("_"):
        return []
    return [item for item in node.body if isinstance(item, ast.FunctionDef) and not item.name.startswith("_")]


def _statements():
    """(owner, references) for each top-level statement of the caller trees and
    each public method of a public library class.  The owner is the (module,
    name) or (module, "Class.method") that a library definition defines, else
    None; a class keeps the references of its members other than those methods."""
    statements = []
    for root in CALLER_TREES:
        for path in sorted(root.rglob("*.py")):
            for node in ast.parse(path.read_text(encoding="utf-8"), filename=str(path)).body:
                if path.parent != LIBRARY or not isinstance(node, DEFINITIONS):
                    statements.append((None, _references(node)))
                    continue
                members = (node,)
                if methods := _public_methods(node):
                    for method in methods:
                        statements.append(((path.stem, f"{node.name}.{method.name}"), _references(method)))
                    rest = [item for item in node.body if item not in methods]
                    members = (*node.bases, *node.keywords, *node.decorator_list, *rest)
                statements.append(((path.stem, node.name), _references(*members)))
    return statements


def _uses(owner):
    """The references that use owner: a method's attribute, or a module-level
    name as a name, an import alias or an attribute."""
    cls, _, name = owner[1].rpartition(".")
    return {"." + name} if cls else {name, "." + name}


def unused_public_names(statements):
    public = {owner for owner, _ in statements if owner and not owner[1].rpartition(".")[2].startswith("_")}
    unused = set()
    while True:
        live = set()
        for owner, names in statements:
            if owner is None:
                live |= names
            elif owner not in unused:
                live |= names - _uses(owner)
        found = {owner for owner in public - EXEMPT.keys() if not _uses(owner) & live}
        if found == unused:
            return sorted(f"{module}.{name}" for module, name in unused)
        unused = found


def test_every_public_library_name_has_a_caller_outside_tests():
    statements = _statements()
    assert EXEMPT.keys() <= {owner for owner, _ in statements}
    assert unused_public_names(statements) == []


def test_the_keyword_knobs_are_the_listed_ones():
    # a new knob, or one that goes, shows up as an edit to KNOBS
    knobs = set()
    for path in sorted(LIBRARY.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
            if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
                args = node.args
                positional = args.posonlyargs + args.args
                defaulted = positional[len(positional) - len(args.defaults):]
                defaulted += [arg for arg, default in zip(args.kwonlyargs, args.kw_defaults) if default is not None]
                knobs |= {f"{path.stem}.{node.name}.{arg.arg}" for arg in defaulted}
    assert knobs == KNOBS
    assert len(KNOBS) == 14
