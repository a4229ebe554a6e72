"""Every public top-level function and class of the package has a user.

A user is a code reference in the package sources or the benchmark scripts,
outside the definition itself.  Outside its own module a use names the module
(``abgrp.lattices_equal``) or imports the name from it; inside its own module
it is a reference to the name (an AST ``Name``).  Prose does not count: a
word in a docstring, a comment or the README is not a use.  A public name
that only tests reach is dead weight: delete it with the tests that pin it,
or exempt it here with the reason it stays.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "realcycle"

EXEMPT = {
    "finite_field": "the constructor of the F_p context, which qform and mwk support",
    "second_residue": "deciding Witt classes over Q(t) (ROADMAP item 14) reads it",
    "contains": "lattice membership, which the README's `realcycle.abgrp` bullet offers",
}


def public_definitions():
    """(name, file, first line, last line) of every public top-level
    function and class in the package."""
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if (isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    and not node.name.startswith("_")):
                yield node.name, path, node.lineno, node.end_lineno


def _module_of(node: ast.expr):
    """The module an attribute is read from: ``abgrp`` in ``abgrp.x`` and in
    ``realcycle.abgrp.x``."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


def qualified_uses():
    """(module, name) for every ``module.name`` read and every name imported
    from a package module, in the package and the benchmark scripts."""
    uses = set()
    files = sorted(PACKAGE.glob("*.py")) + sorted((ROOT / "perfbench").glob("*.py"))
    for path in files:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Attribute):
                uses.add((_module_of(node.value), node.attr))
            elif isinstance(node, ast.ImportFrom) and node.module:
                module = node.module.rpartition(".")[2]
                uses.update((module, alias.name) for alias in node.names)
    return uses


def local_references(path: Path):
    """(name, line) of every ``Name`` node in a package module."""
    return {(node.id, node.lineno) for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.Name)}


def test_every_public_name_has_a_user():
    qualified = qualified_uses()
    local = {path: local_references(path) for path in sorted(PACKAGE.glob("*.py"))}
    unused = []
    for name, where, first, last in public_definitions():
        if name in EXEMPT or (where.stem, name) in qualified:
            continue
        if any(ref == name and not first <= no <= last for ref, no in local[where]):
            continue
        unused.append(f"{where.name}:{first} {name}")
    assert not unused, "public names with no user outside tests: " + ", ".join(unused)


def test_exempt_names_still_exist():
    names = {name for name, *_ in public_definitions()}
    assert set(EXEMPT) <= names
