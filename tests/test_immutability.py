"""Value types are immutable by convention: they are hashed by their fields,
so no code may assign a field once it holds a value.  The guard here makes
such an assignment raise, on every dataclass of the computing modules, while
the acceptance suite and the README examples run.
"""

import dataclasses
import hashlib
import inspect
import shlex

import pytest

from realcycle import abgrp, cycleclass, mwk, numeric, qform, realcurve
from realcycle.numeric import UPoly
from realcycle.suite import run_suite

from test_cli import README_PINS, run_cli

MODULES = (numeric, qform, mwk, abgrp, realcurve, cycleclass)


def value_classes():
    return [obj for mod in MODULES for obj in vars(mod).values()
            if inspect.isclass(obj) and dataclasses.is_dataclass(obj)
            and obj.__module__ == mod.__name__]


def _guard(cls):
    """A __setattr__ for cls that raises when a field already holds a value.

    A slotted class (UPoly) is read through its slot descriptors, which raise
    until __init__ sets the slot; any other through the instance's __dict__,
    since a class-level default such as DiagForm.pfister_terms would make
    hasattr true before __init__ has set the field."""
    names = {f.name for f in dataclasses.fields(cls)}
    slotted = "__slots__" in vars(cls)

    def __setattr__(self, name, value):
        if name in names and (hasattr(self, name) if slotted else name in self.__dict__):
            raise AttributeError(f"{cls.__name__}.{name} is assigned after construction")
        object.__setattr__(self, name, value)

    return __setattr__


@pytest.fixture(scope="module")
def guarded():
    with pytest.MonkeyPatch.context() as mp:
        for cls in value_classes():
            mp.setattr(cls, "__setattr__", _guard(cls))
        yield


def test_every_module_has_value_classes():
    assert {cls.__module__ for cls in value_classes()} == {mod.__name__ for mod in MODULES}


def test_suite_passes_under_the_guard(guarded):
    rows = run_suite()
    assert [row.ident for row in rows if not row.ok] == []
    assert len(rows) == 12


@pytest.mark.parametrize("line", list(README_PINS))
def test_readme_examples_under_the_guard(guarded, line):
    code, out = run_cli(*shlex.split(line)[1:])
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == README_PINS[line]


def test_guard_catches_an_assigned_field(guarded):
    p = UPoly.of(1, 2)
    with pytest.raises(AttributeError):
        p.den = 5
    assert p == UPoly.of(1, 2)
    form = qform.DiagForm.make(qform.RATIONALS, [1, 2])
    with pytest.raises(AttributeError):
        form.pfister_terms = None
