"""Every public top-level function and class of the package has a user.

A user is a mention anywhere in the package sources, the benchmark scripts or
the README, outside the definition itself.  A public name that only tests
reach is dead weight: delete it with the tests that pin it, or exempt it here
with the reason it stays.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "realcycle"

EXEMPT = {
    "finite_field": "the constructor of the F_p context, which qform and mwk support",
    "second_residue": "deciding Witt classes over Q(t) (ROADMAP item 14) reads it",
}


def public_definitions():
    """(name, file, first line, last line) of every public top-level
    function and class in the package."""
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if (isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    and not node.name.startswith("_")):
                yield node.name, path, node.lineno, node.end_lineno


def corpus():
    """The lines of every file whose mentions count as uses."""
    files = sorted(PACKAGE.glob("*.py")) + sorted((ROOT / "perfbench").glob("*.py"))
    return {path: path.read_text().splitlines() for path in files + [ROOT / "README.md"]}


def test_every_public_name_has_a_user():
    lines = corpus()
    unused = []
    for name, where, first, last in public_definitions():
        if name in EXEMPT:
            continue
        word = re.compile(rf"\b{re.escape(name)}\b")
        used = any(word.search(line)
                   for path, text in lines.items()
                   for no, line in enumerate(text, 1)
                   if not (path == where and first <= no <= last))
        if not used:
            unused.append(f"{where.name}:{first} {name}")
    assert not unused, "public names with no user outside tests: " + ", ".join(unused)


def test_exempt_names_still_exist():
    names = {name for name, *_ in public_definitions()}
    assert set(EXEMPT) <= names
