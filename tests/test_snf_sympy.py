"""Cross-check: invariant factors against sympy's Smith normal form.  sympy
is not a dependency of the package; the CI workflow installs it for this
module, and without it the module is skipped."""

import random

import pytest

sympy = pytest.importorskip("sympy")
from sympy.matrices.normalforms import invariant_factors as sympy_invariant_factors  # noqa: E402

from realcycle.abgrp import (  # noqa: E402
    FgAbGroup,
    free_rank,
    invariant_factors,
    quotient,
    smith_normal_form,
)
from realcycle.cycleclass import knebusch_gamma  # noqa: E402


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


def sympy_factors(m):
    return tuple(int(d) for d in sympy_invariant_factors(sympy.Matrix(m), domain=sympy.ZZ))


def group_invariants(group):
    return free_rank(group), invariant_factors(group)


def expected_invariants(m):
    factors = sympy_factors(m)
    return len(m) - sum(1 for d in factors if d), tuple(d for d in factors if d not in (0, 1))


@pytest.mark.parametrize("m", [1, 2, 5, 17, 41])
def test_gamma0_quotients_match_sympy(m):
    q = quotient(knebusch_gamma(m))
    assert group_invariants(q) == expected_invariants([list(r) for r in q.relations])
    assert group_invariants(q) == (0, (2,) * (m - 1))


@pytest.mark.parametrize("seed", range(4))
def test_unit_rich_invariants_match_sympy(seed):
    """Rows with a single +-1 over a diagonal and a small dense block, the
    units lower-triangular (so a split can free another) and coupled to
    every other row, with rows and columns shuffled."""
    rng = random.Random(seed)
    for _ in range(10):
        units, diag, dense = rng.randint(0, 8), rng.randint(0, 8), rng.randint(0, 3)
        n = units + diag + dense
        m = [[0] * n for _ in range(n)]
        for i in range(units):
            m[i][i] = rng.choice([1, -1])
            for j in range(i):
                m[i][j] = rng.choice([0, 0, 1, -2])
        for i in range(units, n):
            for j in range(units):
                m[i][j] = rng.choice([0, 0, 1, 3])
        for i in range(units, units + diag):
            m[i][i] = rng.randint(-12, 12)
        for i in range(units + diag, n):
            for j in range(units + diag, n):
                m[i][j] = rng.randint(-9, 9)
        rng.shuffle(m)
        order = list(range(n))
        rng.shuffle(order)
        m = [[row[j] for j in order] for row in m]
        if not m:
            continue
        group = FgAbGroup(tuple(f"g{i}" for i in range(n)), tuple(map(tuple, m)))
        assert group_invariants(group) == expected_invariants(m)


@pytest.mark.parametrize("n", [12, 20])
def test_dense_invariants_match_sympy(n):
    """Dense n x n matrices with entries in [-99, 99], as drawn, with rows
    scaled by 2, 3 and 6 so that torsion shows, and made rank-deficient by a
    row that is a combination of two others."""
    rng = random.Random(n)
    m = [[rng.randint(-99, 99) for _ in range(n)] for _ in range(n)]
    scaled = [[c * x for x in row] for c, row in zip([2, 3, 6] * n, m)]
    deficient = [row[:] for row in m]
    deficient[-1] = [3 * x - 2 * y for x, y in zip(m[0], m[1])]
    for rows in (m, scaled, deficient):
        group = FgAbGroup(tuple(f"g{i}" for i in range(n)), tuple(map(tuple, rows)))
        assert group_invariants(group) == expected_invariants(rows)
