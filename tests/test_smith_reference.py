"""The Smith elimination against a reference copy of its earlier loop, and the
work the lattice code is expected to skip.

``reference_smith`` is the elimination as it was before the loop learned to
stop at a diagonal column pass: a row pass after every column pass, a
generator over every entry for the off-diagonal test, and a plain search for
the first non-dividing pair.  It runs on ``abgrp.hermite_form``, which both
share, so every D, U, V and diagonal must come out the same, entry for entry.
"""

from hypothesis import example, given, settings
from hypothesis import strategies as st

from realcycle import abgrp
from realcycle.abgrp import (
    FgAbGroup,
    GroupMap,
    Lattice,
    hermite_form,
    identity_matrix,
    kernel_presentation,
    lattices_equal,
    smith_normal_form,
)
from realcycle.cycleclass import knebusch_gamma

SETTINGS = settings(max_examples=300, deadline=None, derandomize=True)


# --- the reference loop --------------------------------------------------------

def _transpose(m, width):
    return [[row[j] for row in m] for j in range(width)]


def _row_form(a, t, width):
    """Hermite form of the rows of a, applying the same row operations to t."""
    basis, rest = hermite_form([x + y for x, y in zip(a, t)], width)
    out = basis + rest
    return [r[:width] for r in out], [r[width:] for r in out]


def _smith_elimination(m, u, vt):
    a = [list(row) for row in m]
    rows = len(a)
    cols = len(a[0]) if rows else 0
    while True:
        a, u = _row_form(a, u, cols)
        if any(x for i, row in enumerate(a) for j, x in enumerate(row) if i != j):
            at, vt = _row_form(_transpose(a, cols), vt, rows)
            a = _transpose(at, rows)
            continue
        diag = [a[i][i] for i in range(min(rows, cols))]
        stray = next(((i, j) for i in range(len(diag)) for j in range(i + 1, len(diag))
                      if diag[i] and diag[j] % diag[i]), None)
        if stray is None:
            return a, u, vt, tuple(diag)
        i, j = stray
        for row in a:
            row[i] += row[j]
        vt[i] = [x + y for x, y in zip(vt[i], vt[j])]


def reference_smith(m):
    """(D, U, V, diagonal) of the reference loop."""
    rows = len(m)
    cols = len(m[0]) if rows else 0
    d, u, vt, diagonal = _smith_elimination(m, identity_matrix(rows), identity_matrix(cols))
    return d, u, _transpose(vt, cols), diagonal


# --- inputs --------------------------------------------------------------------

@st.composite
def sparse_matrices(draw):
    """0-7 rows by 0-7 columns, most entries zero."""
    rows, cols = draw(st.integers(0, 7)), draw(st.integers(0, 7))
    cell = st.one_of(st.just(0), st.just(0), st.just(0), st.integers(-9, 9))
    return draw(st.lists(st.lists(cell, min_size=cols, max_size=cols),
                         min_size=rows, max_size=rows))


@st.composite
def triangular_matrices(draw):
    """Square upper or lower triangular matrices, some of them diagonal."""
    n = draw(st.integers(1, 7))
    shape = draw(st.sampled_from(["upper", "lower", "diagonal"]))
    keep = {"upper": lambda i, j: i <= j, "lower": lambda i, j: i >= j,
            "diagonal": lambda i, j: i == j}[shape]
    return [[draw(st.integers(-12, 12)) if keep(i, j) else 0 for j in range(n)]
            for i in range(n)]


@st.composite
def chosen_diagonals(draw):
    """Diagonal matrices from a few values, so entries repeat and often do not
    divide one another, such as diag(2, 3) and diag(4, 6, 6)."""
    values = draw(st.lists(st.sampled_from([0, 1, 2, 3, 4, 6, 9, 12]), min_size=1, max_size=6))
    n = len(values)
    return [[values[i] if i == j else 0 for j in range(n)] for i in range(n)]


def staircase_relations(m):
    """The transposed Hermite basis of the sign vectors of a line with m - 1
    punctures: the relations of its gamma0 cokernel."""
    signs = [[-1] * m] + [[-1] * k + [1] * (m - k) for k in range(1, m)]
    return _transpose(hermite_form(signs, m)[0], m)


matrices = st.one_of(sparse_matrices(), triangular_matrices(), chosen_diagonals(),
                     st.integers(1, 41).map(staircase_relations))


@SETTINGS
@given(matrices)
@example([[2, 0], [0, 3]])
@example([[4, 0, 0], [0, 6, 0], [0, 0, 6]])
@example([[6, 0, 0], [0, 4, 0], [0, 0, 0]])
@example(staircase_relations(41))
def test_smith_form_is_the_reference_loops(m):
    d, u, v, diagonal = reference_smith(m)
    snf = smith_normal_form(m)
    assert (snf.d, snf.u, snf.v, snf.diagonal) == (d, u, v, diagonal)
    group = FgAbGroup(tuple(f"g{i}" for i in range(len(m))), tuple(map(tuple, m)))
    assert group.normal_form == (len(m) - sum(1 for x in diagonal if x),
                                 tuple(x for x in diagonal if x not in (0, 1)))


# --- work counts ---------------------------------------------------------------

def test_a_diagonal_column_pass_ends_the_passes(monkeypatch):
    m = [[2, 4], [0, 6]]      # the row pass keeps the 4; the column pass clears it
    calls = []
    row_form = abgrp._row_form

    def counted(a, t, width):
        calls.append(width)
        return row_form(a, t, width)

    monkeypatch.setattr(abgrp, "_row_form", counted)
    snf = smith_normal_form(m)
    assert snf.diagonal == (2, 6)
    assert len(calls) == 2        # row pass, column pass; the reference adds a row pass
    assert (snf.d, snf.u, snf.v, snf.diagonal) == reference_smith(m)


def test_a_scalar_map_and_its_kernel_eliminate_the_relations_once(monkeypatch):
    group = FgAbGroup.of_cyclics("a", "b", "c", orders=(4, 6, 0))
    eliminated = []
    original = abgrp.hermite_form

    def counted(rows, width):
        if [list(r) for r in rows] == group.relation_columns:
            eliminated.append(width)
        return original(rows, width)

    monkeypatch.setattr(abgrp, "hermite_form", counted)
    ker, inclusion = kernel_presentation(GroupMap.scalar(group, 2))
    assert ker.relations and inclusion.target is group
    assert len(eliminated) == 1


def test_the_parity_lattice_is_generated_by_its_hermite_basis():
    # the basis is stored when the lattice is built, so the elimination it
    # skips is the oracle: it returns that basis with nothing left over
    for m in range(1, 42):
        gamma = knebusch_gamma(m)
        assert hermite_form(gamma.generators, m) == ([list(b) for b in gamma.hermite_basis], [])
        assert gamma.hermite_basis == gamma.generators
        doubled_first = (2,) + (0,) * (m - 1)
        assert lattices_equal(gamma, Lattice(gamma.ambient, gamma.generators + (doubled_first,)))
