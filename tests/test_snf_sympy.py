"""Development cross-check: invariant factors against sympy's Smith normal
form.  sympy is not a dependency of the package; without it this module is
skipped."""

import random

import pytest

sympy = pytest.importorskip("sympy")
from sympy.matrices.normalforms import invariant_factors as sympy_invariant_factors  # noqa: E402

from realcycle.abgrp import FgAbGroup, free_rank, invariant_factors, smith_normal_form  # noqa: E402


@pytest.mark.parametrize("seed", range(4))
def test_invariant_factors_match_sympy(seed):
    rng = random.Random(seed)
    for _ in range(25):
        rows, cols = rng.randint(1, 7), rng.randint(1, 7)
        m = [[rng.randint(-9, 9) for _ in range(cols)] for _ in range(rows)]
        expected = tuple(int(d) for d in sympy_invariant_factors(sympy.Matrix(m), domain=sympy.ZZ))
        assert smith_normal_form(m).diagonal == expected
        # the group's invariants come from the diagonal computed without transforms
        group = FgAbGroup(tuple(f"g{i}" for i in range(rows)), tuple(map(tuple, m)))
        assert invariant_factors(group) == tuple(d for d in expected if d not in (0, 1))
        assert free_rank(group) == rows - sum(1 for d in expected if d)
