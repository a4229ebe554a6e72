"""Property tests on generated inputs, each against an independent oracle.

Sizes are kept small (dimension <= 5, entries <= 9, degree <= 8 and 24 for
planted factorisations; Smith forms up to 12 x 12, up to 41 x 41 when
sparse, and one dense 40 x 40 example; primes up to 31) so that the whole
module runs in a few seconds; the example order is derandomised, so a run is
reproducible.
"""

import inspect
import io
import json
import random
import sys
from contextlib import redirect_stdout
from fractions import Fraction
from itertools import combinations, product as cartesian, zip_longest
from math import floor, gcd, isqrt, lcm, prod
from unittest import mock

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from isolation_oracle import (
    fraction_bisect,
    fraction_refined,
    fraction_refined_to,
    kernel_reads,
    skip_bound,
)
from realcycle.abgrp import (
    FgAbGroup,
    GroupMap,
    Lattice,
    cokernel_presentation,
    contains,
    exponent,
    free_rank,
    hermite_form,
    image_presentation,
    invariant_factors,
    kernel_presentation,
    lattice_basis,
    lattices_equal,
    order_of,
    quotient,
    smith_normal_form,
)
from realcycle import abgrp, cli, cycleclass, numeric, realcurve
from realcycle.cycleclass import (
    STATUS_DOUBLE,
    STATUS_EXACT,
    STATUS_FAILED,
    ConjugatePair,
    RationalPoint,
    UnitCoefficient,
    WitnessCertificate,
    ZeroCycle,
    ZeroCycleTerm,
    class_of_zero_cycle,
    coker_report,
    gamma0_image,
    gamma_top_witness_search,
    knebusch_gamma,
)
from realcycle.numeric import (
    IsolatingInterval,
    UPoly,
    coprime_basis,
    gap_samples,
    is_rational_square,
    isolate_coprime_roots,
    isolate_real_roots,
    odd_multiplicity_part,
    rational_root,
    root_bound,
    sign_of,
    squarefree_decomposition,
    squarefree_sign_at,
)
from realcycle.qform import (
    COMPLEXES,
    RATFUNC,
    RATIONALS,
    REAL_CLOSED,
    DiagForm,
    Fp,
    GWElem,
    Membership,
    Ordering,
    Place,
    RatFunc,
    discriminant,
    finite_field,
    gw_mul,
    gw_to_form,
    has_trivial_discriminant,
    hilbert_symbol,
    hyperbolic_pairing,
    in_fundamental_power,
    is_square,
    pfister,
    second_residue,
    signature,
    square_class,
    squarefree_int,
    tensor,
)
from realcycle.realcurve import (
    BRANCH_BOTH,
    BRANCH_MINUS,
    Hyperelliptic,
    PuncturedLine,
    component_containing,
    real_components,
)
from sample_points import evaluated_signs, sample_point

SETTINGS = settings(max_examples=60, deadline=None, derandomize=True)

entries = st.integers(-9, 9)
small_fractions = st.builds(Fraction, st.integers(-40, 40), st.integers(1, 8))
nonzero_fractions = small_fractions.filter(lambda r: r != 0)


def rank_over_q(vectors):
    """Rank by Fraction Gaussian elimination, independent of the SNF code."""
    rows = [[Fraction(x) for x in v] for v in vectors]
    rank = 0
    for col in range(len(rows[0]) if rows else 0):
        piv = next((i for i in range(rank, len(rows)) if rows[i][col] != 0), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        for i in range(len(rows)):
            if i != rank and rows[i][col] != 0:
                c = rows[i][col] / rows[rank][col]
                rows[i] = [a - c * b for a, b in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def hermite_rows(vectors, dim):
    """Row Hermite normal form of the integer span of the vectors, by
    Euclidean row steps: the lattice's canonical basis, computed without the
    Smith normal form code."""
    rows = [list(v) for v in vectors]
    out = []
    for col in range(dim):
        while sum(1 for r in rows if r[col]) > 1:
            rows.sort(key=lambda r: (r[col] == 0, abs(r[col])))
            for r in rows[1:]:
                q = r[col] // rows[0][col]
                r[:] = [a - q * b for a, b in zip(r, rows[0])]
        at = next((i for i, r in enumerate(rows) if r[col]), None)
        if at is None:
            continue
        pivot = rows.pop(at)
        if pivot[col] < 0:
            pivot = [-x for x in pivot]
        for i, r in enumerate(out):
            q = r[col] // pivot[col]
            out[i] = [a - q * b for a, b in zip(r, pivot)]
        out.append(pivot)
    return out


@st.composite
def generator_sets(draw):
    dim = draw(st.integers(1, 5))
    vec = st.lists(entries, min_size=dim, max_size=dim)
    gens = draw(st.lists(vec, max_size=5))
    return dim, gens


@st.composite
def spans_cases(draw):
    dim, gens = draw(generator_sets())
    vec = st.lists(entries, min_size=dim, max_size=dim)
    vectors = draw(st.lists(vec, max_size=3))
    if gens:
        # one vector that is in the span by construction
        coeffs = draw(st.lists(st.integers(-3, 3), min_size=len(gens), max_size=len(gens)))
        vectors.append([sum(c * g[i] for c, g in zip(coeffs, gens)) for i in range(dim)])
    return dim, gens, draw(st.permutations(vectors))


@SETTINGS
@given(spans_cases())
def test_contains_agrees_with_the_reference_hermite_form(case):
    # v lies in the span of gens iff adding it leaves the Hermite form as is
    dim, gens, vectors = case
    lat = Lattice(FgAbGroup.free(*(f"e{i}" for i in range(dim))), tuple(map(tuple, gens)))
    for v in vectors:
        assert contains(lat, v) == (hermite_rows(gens + [v], dim) == hermite_rows(gens, dim))


@SETTINGS
@given(generator_sets())
def test_lattice_basis_has_rank_many_vectors_with_the_same_span(case):
    dim, gens = case
    lat = Lattice(FgAbGroup.free(*(f"e{i}" for i in range(dim))), tuple(map(tuple, gens)))
    basis = lattice_basis(lat)
    rank = rank_over_q(gens)
    assert len(basis) == rank
    assert rank_over_q(basis) == rank
    assert hermite_rows(basis, dim) == hermite_rows(gens, dim)
    # the basis is the Hermite form itself, and feeding it back terminates
    assert basis == hermite_rows(gens, dim)
    assert lattices_equal(lat, Lattice(lat.ambient, tuple(map(tuple, basis))))


@st.composite
def mixed_generator_sets(draw):
    """A generator set, a permutation of it, and a unimodular mixture of it
    (random shears and sign flips of the generators)."""
    dim, gens = draw(generator_sets())
    mixed = [list(g) for g in draw(st.permutations(gens))]
    for _ in range(draw(st.integers(0, 6)) if len(mixed) > 1 else 0):
        i, j = draw(st.sampled_from([(i, j) for i in range(len(mixed))
                                     for j in range(len(mixed)) if i != j]))
        c = draw(st.integers(-3, 3))
        mixed[i] = [a + c * b for a, b in zip(mixed[i], mixed[j])]
        if draw(st.booleans()):
            mixed[j] = [-b for b in mixed[j]]
    return dim, gens, mixed


@SETTINGS
@given(mixed_generator_sets())
def test_lattice_basis_is_canonical(case):
    dim, gens, mixed = case
    ambient = FgAbGroup.free(*(f"e{i}" for i in range(dim)))
    assert lattice_basis(Lattice(ambient, tuple(map(tuple, gens)))) == \
        lattice_basis(Lattice(ambient, tuple(map(tuple, mixed))))


def det_bareiss(m):
    """Determinant by fraction-free elimination, independent of the SNF code."""
    a = [list(r) for r in m]
    n, sign, prev = len(a), 1, 1
    for k in range(n - 1):
        if a[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if a[i][k]), None)
            if swap is None:
                return 0
            a[k], a[swap] = a[swap], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[-1][-1] if n else 1


def product(a, b):
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]


@st.composite
def integer_matrices(draw):
    rows, cols = draw(st.integers(1, 12)), draw(st.integers(1, 12))
    return draw(st.lists(st.lists(entries, min_size=cols, max_size=cols),
                         min_size=rows, max_size=rows))


@SETTINGS
@given(integer_matrices())
def test_smith_normal_form_is_certified_with_bounded_entries(m):
    rows, cols = len(m), len(m[0])
    snf = smith_normal_form(m)
    assert product(product(snf.u, m), snf.v) == snf.d
    assert abs(det_bareiss(snf.u)) == 1 and abs(det_bareiss(snf.v)) == 1
    assert all(snf.d[i][j] == 0 for i in range(rows) for j in range(cols) if i != j)
    diag = list(snf.diagonal)
    assert diag == [snf.d[i][i] for i in range(min(rows, cols))]
    assert all(d >= 0 for d in diag)
    for a, b in zip(diag, diag[1:]):
        assert (b == 0) if a == 0 else (b % a == 0)
    n = max(rows, cols)
    assert all(abs(x).bit_length() < 32 * n for t in (snf.d, snf.u, snf.v) for r in t for x in r)


def determinantal_invariants(m):
    """(rank, invariant factors) from the determinantal divisors: d_k is the
    gcd of the k x k minors, and the k-th diagonal entry of the Smith form is
    d_k / d_(k-1).  Independent of the elimination code; small matrices only."""
    rows, cols = len(m), len(m[0]) if m else 0
    divisors = [1]
    for k in range(1, min(rows, cols) + 1):
        d = 0
        for rs in combinations(range(rows), k):
            for cs in combinations(range(cols), k):
                d = gcd(d, det_bareiss([[m[i][j] for j in cs] for i in rs]))
        if d == 0:
            break
        divisors.append(d)
    factors = tuple(b // a for a, b in zip(divisors, divisors[1:]))
    return len(factors), tuple(f for f in factors if f != 1)


@st.composite
def unit_rich_matrices(draw, dense=True):
    """Up to 41 x 41, with rows and columns shuffled: rows with a single +-1
    (a lower-triangular block with a +-1 diagonal, so that splitting one off
    can leave another, and any other row may hold entries in its columns),
    a diagonal block with 0s, a dense block of up to 3 x 3 unless ``dense``
    is false, and zero rows and columns."""
    units = draw(st.integers(0, 16))
    diagonal = draw(st.lists(st.integers(-12, 12), max_size=17))
    dense_rows, dense_cols = (draw(st.integers(0, 3)), draw(st.integers(0, 3))) if dense else (0, 0)
    zero_rows, zero_cols = draw(st.integers(0, 5)), draw(st.integers(0, 5))
    rows = units + len(diagonal) + dense_rows + zero_rows
    cols = units + len(diagonal) + dense_cols + zero_cols
    m = [[0] * cols for _ in range(rows)]
    sparse = st.sampled_from([0, 0, 0, 1, -1, 2, -3])
    for i in range(units):
        m[i][i] = draw(st.sampled_from([1, -1]))
        for j in range(i):
            m[i][j] = draw(sparse)
    for i in range(units, rows - zero_rows):
        for j in range(units):
            m[i][j] = draw(sparse)
    for k, d in enumerate(diagonal):
        m[units + k][units + k] = d
    corner = units + len(diagonal)
    for i in range(dense_rows):
        for j in range(dense_cols):
            m[corner + i][corner + j] = draw(entries)
    m = draw(st.permutations(m))
    order = draw(st.permutations(range(cols)))
    return [[row[j] for j in order] for row in m]


@st.composite
def relation_matrices(draw):
    """0-12 rows by 0-12 columns, half of them at most 4 x 4; some all zero,
    and some with every entry a multiple of 2 or 3, so that torsion shows.
    A third are the unit-rich matrices above."""
    if draw(st.integers(0, 2)) == 0:
        return draw(unit_rich_matrices())
    limit = draw(st.sampled_from([4, 12]))
    rows, cols = draw(st.integers(0, limit)), draw(st.integers(0, limit))
    scale = draw(st.sampled_from([0, 1, 1, 2, 3]))
    cell = st.integers(-(9 // scale), 9 // scale).map(lambda x: scale * x) if scale else st.just(0)
    return draw(st.lists(st.lists(cell, min_size=cols, max_size=cols),
                         min_size=rows, max_size=rows))


# The relations of the gamma0 quotient of a line with 40 punctures: the
# transposed Hermite basis (1, ..., 1), 2*e_1, ..., 2*e_40.
GAMMA0_RELATIONS = [[1] + [0] * 40] + [[1] + [2 * (j == i) for j in range(1, 41)]
                                       for i in range(1, 41)]


@SETTINGS
@given(relation_matrices())
@example([])
@example([[], [], []])
@example([[0, 0, 0], [0, 0, 0]])
@example([[2, 4, 4], [-6, 6, 12], [10, -4, -16]])
@example(GAMMA0_RELATIONS)
@example([[2, 0, 0], [0, 0, 0], [0, 0, 3]])
@example([[4, 0], [0, 6]])
@example([[1, 2, 0], [0, 0, 6], [0, -1, 0]])
@example([[0, 1], [1, 0]])
@example([[2], [3]])
def test_group_invariants_are_the_smith_diagonal(m):
    group = FgAbGroup(tuple(f"g{i}" for i in range(len(m))), tuple(map(tuple, m)))
    diagonal = smith_normal_form(m).diagonal
    rank = sum(1 for d in diagonal if d)
    assert free_rank(group) == len(m) - rank
    assert invariant_factors(group) == tuple(d for d in diagonal if d not in (0, 1))
    if len(m) <= 4 and (not m or len(m[0]) <= 4):
        oracle_rank, oracle_factors = determinantal_invariants(m)
        assert free_rank(group) == len(m) - oracle_rank
        assert invariant_factors(group) == oracle_factors


def refused(*args):
    raise AssertionError("called")


@SETTINGS
@given(unit_rich_matrices(dense=False))
@example(GAMMA0_RELATIONS)
@example([[1, 2, 0], [0, 1, 0], [1, 0, 5]])
def test_unit_rows_over_a_diagonal_run_no_elimination(m):
    # every unit row splits off, in any order, and leaves the diagonal block
    group = FgAbGroup(tuple(f"g{i}" for i in range(len(m))), tuple(map(tuple, m)))
    with mock.patch.object(abgrp, "_diagonalize", refused):
        group.normal_form


@st.composite
def lone_entries_beside_a_dense_block(draw):
    """(m, the rows of m that cannot split, with the unit columns zeroed).

    Rows with a single +-1 in a column of their own, each possibly with
    entries in the unit columns before it; rows with one entry of at least 2
    in a column of their own, some with entries in unit columns too, so
    that they are single only after a unit split; a dense block of all
    nonzero entries, at least two wide, which cannot split; rows with
    entries only in unit columns, which a unit split makes zero; zero rows
    and columns.  Rows and columns are shuffled."""
    units = draw(st.integers(0, 6))
    lone = draw(st.lists(st.sampled_from([x for x in range(-12, 13) if abs(x) > 1]), max_size=8))
    dense_rows, dense_cols = draw(st.integers(0, 4)), draw(st.integers(2, 4))
    emptied, zero_rows, zero_cols = (draw(st.integers(0, 2)) for _ in range(3))
    cols = units + len(lone) + dense_cols + zero_cols
    sparse = st.sampled_from([0, 0, 1, -1, 2, -3])
    rows = []
    for i in range(units):
        row = [draw(sparse) for _ in range(i)] + [draw(st.sampled_from([1, -1]))]
        rows.append(("unit", row + [0] * (cols - i - 1)))
    for k, x in enumerate(lone):
        row = [draw(sparse) for _ in range(units)] + [0] * (cols - units)
        row[units + k] = x
        rows.append(("lone", row))
    nonzero = st.sampled_from([x for x in range(-9, 10) if x])
    for _ in range(dense_rows):
        row = ([draw(sparse) for _ in range(units)] + [0] * len(lone)
               + [draw(nonzero) for _ in range(dense_cols)] + [0] * zero_cols)
        rows.append(("dense", row))
    for _ in range(emptied):
        rows.append(("emptied", [draw(sparse) for _ in range(units)] + [0] * (cols - units)))
    rows += [("zero", [0] * cols)] * zero_rows
    rows = draw(st.permutations(rows))
    order = draw(st.permutations(range(cols)))
    m = [[row[j] for j in order] for _, row in rows]
    rest = [[0 if j < units else row[j] for j in order] for kind, row in rows if kind == "dense"]
    return m, rest


@SETTINGS
@given(lone_entries_beside_a_dense_block())
@example(([[3, 2], [0, 1]], []))                  # single only once the unit splits
@example(([[4, 0, 0], [0, 6, 6], [0, 2, 4]], [[0, 6, 6], [0, 2, 4]]))
@example(([[0, 5, 0, 0], [1, 0, 0, 0], [7, 0, 9, 0], [2, 0, 0, 0]], []))
def test_the_split_leaves_only_the_rows_that_cannot_split(case):
    m, rest = case
    group = FgAbGroup(tuple(f"g{i}" for i in range(len(m))), tuple(map(tuple, m)))
    diagonal = smith_normal_form(m).diagonal
    expected = (len(m) - sum(1 for d in diagonal if d), tuple(d for d in diagonal if d not in (0, 1)))
    with mock.patch.object(abgrp, "_diagonalize", wraps=abgrp._diagonalize) as spy:
        assert group.normal_form == expected
    assert [[list(r) for r in call.args[0]] for call in spy.call_args_list] == ([rest] if rest else [])


def test_a_diagonal_rest_is_fixed_up_to_a_divisibility_chain():
    def group(m):
        return FgAbGroup(tuple(f"g{i}" for i in range(len(m))), tuple(map(tuple, m)))

    assert invariant_factors(group([[4, 0], [0, 6]])) == (2, 12)
    assert invariant_factors(group([[0, -6], [4, 0]])) == (2, 12)
    assert (free_rank(group([[2, 0, 0], [0, 0, 0], [0, 0, 3]])),
            invariant_factors(group([[2, 0, 0], [0, 0, 0], [0, 0, 3]]))) == (1, (6,))
    assert invariant_factors(group([[1, 0, 0], [5, 4, 0], [7, 0, 6]])) == (2, 12)


def dense_matrix(rows, cols, seed, bound=99):
    rng = random.Random(seed)
    return [[rng.randint(-bound, bound) for _ in range(cols)] for _ in range(rows)]


@SETTINGS
@given(st.one_of(integer_matrices(), relation_matrices()))
@example(dense_matrix(40, 40, 1))
@example(dense_matrix(3, 8, 2))
@example(dense_matrix(8, 3, 3))
@example([[1, 2, 3], [2, 4, 6], [3, 6, 9]])                  # rank 1
@example([[2, 4, -6], [-4, 6, 2], [2, 18, -16]])             # rank 2, third row 3 * first + second
@example([[0, 0, 0, 0], [0, 4, 0, 6], [0, 0, 0, 0], [0, 6, 0, 8]])
@example([[-2, 3], [5, -7]])
@example([[-3, 6, 9], [6, -4, 10], [9, 10, -5]])
@example([[0, -4, 6], [-4, 10, 0]])
@example([[2, 2], [0, 3]])                                   # diagonal (2, 3) needs the fix-up
def test_normal_form_runs_no_hermite_or_smith_pass(m):
    diagonal = smith_normal_form(m).diagonal
    expected = (len(m) - sum(1 for d in diagonal if d), tuple(d for d in diagonal if d not in (0, 1)))
    group = FgAbGroup(tuple(f"g{i}" for i in range(len(m))), tuple(map(tuple, m)))
    with mock.patch.object(abgrp, "hermite_form", refused), \
            mock.patch.object(abgrp, "_smith_elimination", refused):
        assert group.normal_form == expected


def traced_diagonalize(m):
    """Run ``abgrp._diagonalize`` on m under a line tracer.  Returns (its
    entries, and the largest bit length of an entry of its working matrix at
    the top of each pass).  A pivot that is not a least nonzero |entry|
    raises AssertionError at once, in the traced call: with another pivot
    the passes need not end."""
    source, first = inspect.getsourcelines(abgrp._diagonalize)
    top = first + next(i for i, line in enumerate(source) if line.strip() == "while a:")
    chosen = first + next(i for i, line in enumerate(source) if line.strip() == "clear = True")
    peak = 0

    def local(frame, event, arg):
        nonlocal peak
        if event == "line" and frame.f_lineno in (top, chosen):
            a = frame.f_locals["a"]
            if frame.f_lineno == top:
                peak = max([peak] + [abs(x).bit_length() for r in a for x in r])
            else:
                least = min(abs(x) for r in a for x in r if x)
                assert abs(frame.f_locals["p"]) == least, "the pivot is not a least entry"
        return local

    def calls(frame, event, arg):
        return local if frame.f_code is abgrp._diagonalize.__code__ else None

    outer = sys.gettrace()
    sys.settrace(calls)
    try:
        entries = abgrp._diagonalize(m)
    finally:
        sys.settrace(outer)
    return entries, peak


@SETTINGS
@given(integer_matrices())
@example(dense_matrix(40, 40, 1))
@example([[-2, 3], [5, -7]])
def test_diagonalize_pivots_on_a_least_entry_with_bounded_entries(m):
    entries, peak = traced_diagonalize(m)
    assert peak < 32 * max(len(m), len(m[0]))
    # the entries are a diagonal form: their product is the product of the
    # nonzero Smith invariants, and there are rank many
    diagonal = [d for d in smith_normal_form(m).diagonal if d]
    assert len(entries) == len(diagonal) and prod(entries) == prod(diagonal)


@st.composite
def sublattices(draw):
    """Lattices in Z^0..Z^5: empty ones, zero generators, and generators that
    repeat integer combinations of the others (so rank-deficient ones)."""
    dim = draw(st.integers(0, 5))
    vec = st.lists(entries, min_size=dim, max_size=dim)
    gens = draw(st.lists(vec, max_size=4))
    for _ in range(draw(st.integers(0, 2))):
        coeffs = [draw(st.integers(-3, 3)) for _ in gens]
        gens.append([sum(c * g[i] for c, g in zip(coeffs, gens)) for i in range(dim)])
    if draw(st.booleans()):
        gens.append([0] * dim)
    gens = draw(st.permutations(gens))
    return Lattice(FgAbGroup.free(*(f"e{i}" for i in range(dim))), tuple(map(tuple, gens)))


def invariants(group):
    return free_rank(group), invariant_factors(group), order_of(group), exponent(group)


@SETTINGS
@given(sublattices())
def test_quotient_by_the_hermite_basis_matches_the_generator_presentation(sub):
    ambient = sub.ambient
    by_generators = FgAbGroup(ambient.labels, tuple(
        tuple(g[i] for g in sub.generators) for i in range(ambient.n_generators)))
    assert invariants(quotient(sub)) == invariants(by_generators)


@st.composite
def cyclic_maps(draw):
    """Orders a_j and b_i in 1..12, at most two of each, and the matrix of a
    map from sum Z/a_j to sum Z/b_i: the entry in row i, column j is a multiple
    of b_i / gcd(a_j, b_i), so a_j times column j lies in the target relations."""
    a = draw(st.lists(st.integers(1, 12), max_size=2))
    b = draw(st.lists(st.integers(1, 12), max_size=2))
    return a, b, [[draw(st.integers(-3, 3)) * (bi // gcd(aj, bi)) for aj in a] for bi in b]


def elements(orders):
    """Every element of sum Z/orders, as a tuple of residues."""
    return list(cartesian(*(range(n) for n in orders)))


def subgroup_invariants(members, orders):
    """(order, exponent) of a subgroup of sum Z/orders, given all its elements."""
    return len(members), lcm(1, *(n // gcd(n, xi) for x in members for n, xi in zip(orders, x)))


@SETTINGS
@given(cyclic_maps())
@example(([], [3], [[]]))
@example(([4, 6], [], []))
@example(([4, 6], [2, 3], [[1, 1], [0, 1]]))
@example(([12, 12], [12, 12], [[2, 4], [6, 3]]))
def test_kernel_image_and_cokernel_agree_with_enumeration(case):
    a, b, matrix = case
    f = GroupMap.make(FgAbGroup.of_cyclics(*(f"s{j}" for j in range(len(a))), orders=a),
                      FgAbGroup.of_cyclics(*(f"t{i}" for i in range(len(b))), orders=b),
                      matrix)

    def apply(x):
        return tuple(sum(c * xj for c, xj in zip(row, x)) % bi for row, bi in zip(matrix, b))

    source, target = elements(a), elements(b)
    image = {apply(x) for x in source}
    ker, incl = kernel_presentation(f)
    assert (order_of(ker), exponent(ker)) == subgroup_invariants(
        [x for x in source if not any(apply(x))], a)
    im = image_presentation(f)
    assert (order_of(im), exponent(im)) == subgroup_invariants(image, b)
    coker = cokernel_presentation(f)
    coker_exponent = next(e for e in range(1, len(target) + 1)
                          if all(tuple(e * yi % bi for yi, bi in zip(y, b)) in image
                                 for y in target))
    assert (order_of(coker), exponent(coker)) == (len(target) // len(image), coker_exponent)
    # f after the inclusion is zero: each kernel generator maps into the relations
    assert incl.source == ker and incl.target == f.source
    for gen in zip(*incl.matrix):
        assert not any(apply(gen))


@SETTINGS
@given(small_fractions, st.booleans(), st.sampled_from([1, -1]))
def test_is_rational_square_agrees_with_isqrt(r, square_it, sign):
    x = sign * (r * r if square_it else r)
    a, b = x.numerator, x.denominator
    # a/b in lowest terms is a square iff a*b is, and then sqrt(x) = isqrt(ab)/b
    expected = x > 0 and Fraction(isqrt(a * b), b) ** 2 == x
    assert is_rational_square(x) == expected


@SETTINGS
@given(st.lists(st.integers(-10 ** 6, 10 ** 6), max_size=8), st.integers(-10 ** 4, 10 ** 4),
       st.integers(1, 10 ** 4))
@example([], 3, 2)                  # the empty sum
@example([5, -1, 0], 7, 3)          # a zero top coefficient still counts in d
@example([2, 0, -3, 1], -7, 1)      # q = 1 and a negative p
def test_eval_homogeneous_is_the_direct_sum(cs, p, q):
    d = len(cs) - 1
    assert (numeric.eval_homogeneous(cs, p, q)
            == sum(c * p ** i * q ** (d - i) for i, c in enumerate(cs)))


@st.composite
def square_free_curves(draw):
    roots = draw(st.lists(small_fractions, max_size=4, unique=True))
    extra = draw(st.lists(st.integers(-6, 6), min_size=1, max_size=4).filter(lambda cs: cs[-1] != 0))
    f = UPoly.from_roots(roots, lead=draw(st.sampled_from([1, -1, 2]))) * UPoly.of(*extra)
    assume(f.degree >= 1 and f.gcd(f.deriv()).degree == 0)
    return Hyperelliptic(f, draw(st.booleans())), roots


def sturm_count_below(f, x):
    """The distinct roots of a square-free f below x, by the sign variations
    of its Sturm chain at -inf and at x: their difference counts the roots
    up to and including x."""
    chain = numeric._sturm_chain(f)
    at_minus_inf = sign_variations([sign_of(g.nums[-1]) * (-1) ** g.degree for g in chain])
    at_x = sign_variations([g.sign_at(x) for g in chain])
    return at_minus_inf - at_x - (f.sign_at(x) == 0)


def locate_by_counting(curve, components, x, y_sign=None):
    """The component holding abscissa x, found by Sturm root counts below x
    instead of by the isolating intervals of the components; y_sign picks a
    sheet where the two sheets are separate components."""
    f = curve.f
    if f.eval_at(x) < 0:
        return None
    below = sturm_count_below(f, x)
    on_root = f.eval_at(x) == 0

    def compare(end):           # sign of x minus the end
        if end.kind in ("-inf", "+inf"):
            return 1 if end.kind == "-inf" else -1
        if on_root and below == end.index:
            return 0
        return -1 if below + on_root <= end.index else 1

    for comp in components:
        if comp.branch != BRANCH_BOTH and y_sign is not None \
                and (comp.branch == "plus") != (y_sign > 0):
            continue
        for lo, hi in comp.arcs:
            cl, ch = compare(lo), compare(hi)
            if (cl == 0 and lo.kind == "root") or (ch == 0 and hi.kind == "root") \
                    or (cl > 0 and ch < 0):
                return comp
    return None


def located_points(curve):
    """Abscissae where location is delicate: the ends of the root intervals
    of f, and points inside them on both sides of the root and at their
    midpoints."""
    xs = []
    for iv in curve.root_intervals:
        finer = iv.refined_to((iv.hi - iv.lo) / 64)
        xs += [iv.lo, iv.hi, (iv.lo + iv.hi) / 2, finer.lo, finer.hi]
    return xs


@SETTINGS
@given(square_free_curves(), st.lists(small_fractions, max_size=4),
       st.sampled_from([None, 1, -1]))
@example((Hyperelliptic(UPoly.of(1, 0, 0, 0, 1)), []), [Fraction(0), Fraction(-5, 2)], 1)
@example((Hyperelliptic(UPoly.of(1, 0, 1), True), []), [Fraction(3, 4)], -1)
@example((Hyperelliptic(UPoly.from_roots([-2, Fraction(1, 3), 1], -1)),
          [-2, Fraction(1, 3), 1]), [], None)
def test_component_containing_agrees_with_root_counts(case, points, y_sign):
    # at the rational roots, at the ends of and inside the root intervals,
    # and on either sheet where the two sheets are separate components
    curve, roots = case
    comps = real_components(curve)
    for x in roots + located_points(curve) + points:
        assert (component_containing(curve, x, y_sign)
                == locate_by_counting(curve, comps, x, y_sign)), x


@SETTINGS
@given(square_free_curves())
@example((Hyperelliptic(UPoly.from_roots([-1, 1])), [-1, 1]))
@example((Hyperelliptic(UPoly.from_roots([-2, -1, 1, 2], -1)), [-2, -1, 1, 2]))
@example((Hyperelliptic(UPoly.from_roots([-1, 0, 1])), [-1, 0, 1]))
@example((Hyperelliptic(UPoly.from_roots([-2, Fraction(1, 3), 1], -1)), [-2, Fraction(1, 3), 1]))
def test_locator_signs_left_of_the_roots_are_the_signs_at_the_interval_ends(case):
    # the examples take both signs of lc f and both parities of deg f
    curve, _ = case
    locator = realcurve._Locator(curve)
    assert locator.left_signs == [curve.f.sign_at(iv.lo) for iv in curve.root_intervals]


def sample_by_fraction_operations(comp):
    """A component's sample abscissa, by Fraction addition and division."""
    lo, hi = comp.arcs[0]
    if lo.kind == "-inf" and hi.kind == "+inf":
        return Fraction(0)
    if lo.kind == "-inf":
        return hi.value - 1 if hi.kind == "rational" else hi.interval.lo
    if hi.kind == "+inf":
        return lo.value + 1 if lo.kind == "rational" else lo.interval.hi
    if lo.kind == "rational":
        return (lo.value + hi.value) / 2
    return (lo.interval.hi + hi.interval.lo) / 2


wide_fractions = st.builds(Fraction, st.integers(-10 ** 9, 10 ** 9), st.integers(1, 10 ** 6))


@SETTINGS
@given(st.one_of(st.lists(st.one_of(small_fractions, wide_fractions), max_size=8,
                          unique=True).map(PuncturedLine.make),
                 square_free_curves().map(lambda case: case[0])))
def test_sample_points_are_the_fraction_formula_inside_their_component(curve):
    comps = real_components(curve)
    for comp in comps:
        pt = sample_point(comp, curve)
        assert pt.x == sample_by_fraction_operations(comp)
        lo, hi = comp.arcs[0]
        assert lo.kind != "rational" or lo.value < pt.x
        assert hi.kind != "rational" or pt.x < hi.value
        assert component_containing(curve, pt.x, pt.branch or None) == comp


# --- the witness search against the plain Fraction walk -----------------------

def heights_in_window(lo, hi, budget):
    """Every x = p/q in lowest terms with lo < x < hi, q = 1..budget, then p
    ascending: the walk order of the witness search, enumerated by Fractions."""
    for q in range(1, budget + 1):
        for p in range(floor(lo * q) + 1, floor(hi * q) + 1):
            x = Fraction(p, q)
            if lo < x < hi and x.denominator == q:
                yield x


def witness_by_fraction_walk(curve, bits, comp, budget):
    """The certificate of a circle without rational root ends, from f(x)
    evaluated as a Fraction at every candidate: the first rational square
    gives a point, else the first x with f(x) > 0 gives a conjugate pair."""
    sheet = -1 if comp.branch == BRANCH_MINUS else 1
    pair_x = None
    cycle, status = None, STATUS_DOUBLE
    for x in heights_in_window(*cycleclass._interior_window(comp), budget):
        fx = curve.f.eval_at(x)
        if is_rational_square(fx):
            y = Fraction(isqrt(fx.numerator), isqrt(fx.denominator))
            cycle, status = ZeroCycle.single(RationalPoint(x, sheet * y)), STATUS_EXACT
            break
        if pair_x is None and fx > 0:
            pair_x = x
    if cycle is None and pair_x is not None:
        terms = (ZeroCycleTerm(ConjugatePair(pair_x)),)
        if comp.branch != BRANCH_BOTH:
            terms += (ZeroCycleTerm(ConjugatePair(pair_x), UnitCoefficient(UPoly.of(sheet), 1)),)
        cycle = ZeroCycle(terms)
    if cycle is None:
        return WitnessCertificate(comp.id, STATUS_FAILED, None, {})
    return WitnessCertificate(comp.id, status, cycle, class_of_zero_cycle(curve, bits, cycle))


@st.composite
def search_curves(draw):
    """Square-free f of degree 1..8 with fractional coefficients and either
    sign: products of quadratics (x - c)^2 - s with irrational roots, which
    bound ovals, an oval through a planted rational point, separate-sheet
    shapes x^(2m) + c, or random coefficients."""
    shape = draw(st.sampled_from(["ovals", "planted", "sheets", "random"]))
    lead = draw(nonzero_fractions)
    if shape == "planted":
        # the oval s - (x - c)^2 times factors positive on it, with s chosen
        # so that f(x0) = y0^2: the search has rational points to find
        c, x0, y0 = draw(small_fractions), draw(small_fractions), draw(nonzero_fractions)
        g = UPoly.of(abs(lead))
        for _ in range(draw(st.integers(0, 3))):
            e, t = draw(small_fractions), abs(draw(nonzero_fractions))
            g = g * UPoly.of(e * e + t, -2 * e, 1)
        s = (x0 - c) ** 2 + y0 * y0 / g.eval_at(x0)
        f = g * UPoly.of(s - c * c, 2 * c, -1)
    elif shape == "ovals":
        f = UPoly.of(lead)
        for _ in range(draw(st.integers(1, 4))):
            c = draw(st.builds(Fraction, st.integers(-6, 6), st.integers(1, 3)))
            # 2, 5, 10, 13, 1/2 and 5/4 are sums of two rational squares, so
            # the conic (x - c)^2 + y^2 = s has rational points; 3, 6, 7 are not
            s = draw(st.sampled_from([2, 3, 5, 6, 7, 10, 13, Fraction(1, 2), Fraction(5, 4)]))
            f = f * UPoly.of(c * c - s, -2 * c, 1)
        if draw(st.booleans()):
            f = f * UPoly.of(-draw(small_fractions), 1)
    elif shape == "sheets":
        m = draw(st.integers(1, 4))
        f = UPoly.of(*([draw(small_fractions.filter(lambda r: r != 0))] + [0] * (2 * m - 1)
                       + [abs(lead)]))
    else:
        f = UPoly.of(*draw(st.lists(small_fractions, min_size=2, max_size=9)))
    assume(1 <= f.degree <= 8 and f.gcd(f.deriv()).degree == 0)
    return Hyperelliptic(f, draw(st.booleans()))


# the quartic ovals of the benchmark's budget-50 slots, whose walks run to
# the budget: ((x - c)^2 - s)((x - c)^2 - t) and its negative
BENCH_OVALS = [
    UPoly.of(11, 8, 1) * UPoly.of(10, 8, 1),                       # c = -4, s, t = 5, 6
    (UPoly.of(Fraction(-5, 9), Fraction(-14, 3), 1)
     * UPoly.of(Fraction(-50, 9), Fraction(-14, 3), 1)).scale(-1),  # c = 7/3, s, t = 6, 11
    UPoly.of(79, 18, 1) * UPoly.of(74, 18, 1),                     # c = -9, s, t = 2, 7
]


@SETTINGS
@given(search_curves(), st.integers(1, 40))
@example(Hyperelliptic(BENCH_OVALS[0], True), 40)
@example(Hyperelliptic(BENCH_OVALS[1], False), 40)
@example(Hyperelliptic(BENCH_OVALS[2], True), 33)
def test_witness_search_agrees_with_the_fraction_walk(curve, budget):
    comps = real_components(curve)
    bits = {c.id: 0 for c in comps}
    certs = gamma_top_witness_search(curve, bits, budget)
    circles = [c for c in comps if c.is_circle]
    assert [c.generator for c in certs] == [c.id for c in circles]
    for cert, comp in zip(certs, circles):
        if any(end.kind == "root" and rational_root(end.interval) is not None
               for arc in comp.arcs for end in arc):
            continue        # witnessed by a rational root end, before any search
        assert cert == witness_by_fraction_walk(curve, bits, comp, budget)


@settings(SETTINGS, max_examples=200)
@given(st.lists(small_fractions, min_size=1, max_size=8),
       st.builds(Fraction, st.integers(-60, 60), st.integers(1, 12)),
       st.lists(st.builds(Fraction, st.integers(1, 10 ** 4), st.integers(1, 8)),
                min_size=1, max_size=8))
def test_search_finds_a_planted_point_first(coeffs, x0, heights):
    # f(x0) = y0^2; a window narrower than 1/q0^2 around x0 = p0/q0 holds no
    # other p/q with q <= q0, so x0 is the first candidate and must be taken
    g = UPoly.of(*coeffs, 1)
    q0 = x0.denominator
    delta, budget = Fraction(1, 2 * q0 * q0), q0 + 2
    rows = range(1, budget + 1)
    assert cycleclass._first_rational(x0 - delta, x0 + delta, budget) == x0
    for y0 in heights:
        f = g - UPoly.of(g.eval_at(x0) - y0 * y0)
        assert (cycleclass._height_search(f, x0 - delta, x0 + delta, rows, cycleclass._Sieve(f))
                == (x0, y0))
        # but never as an end of the open window, nor where f has a root
        root = g - UPoly.of(g.eval_at(x0))
        for h, lo, hi in ((f, x0 - delta, x0), (f, x0, x0 + delta), (root, x0 - delta, x0 + delta)):
            point = cycleclass._height_search(h, lo, hi, rows, cycleclass._Sieve(h))
            assert point is None or point[0] != x0
    assert x0 not in (cycleclass._first_rational(x0 - delta, x0, budget),
                      cycleclass._first_rational(x0, x0 + delta, budget))


def locate_on_line(components, x):
    """The component of a punctured line holding x, by comparing x with the
    ends of every arc."""
    for comp in components:
        for lo, hi in comp.arcs:
            if (lo.kind == "-inf" or lo.value < x) and (hi.kind == "+inf" or x < hi.value):
                return comp
    return None


@SETTINGS
@given(st.lists(st.one_of(small_fractions, wide_fractions), max_size=8, unique=True),
       st.lists(small_fractions, max_size=4), st.sampled_from([None, 1, -1]))
@example([Fraction(0)], [], None)
@example([Fraction(-1), Fraction(1, 3), Fraction(2)], [Fraction(1, 3), Fraction(0)], 1)
def test_location_on_lines_agrees_with_end_comparisons(punctures, points, y_sign):
    curve = PuncturedLine.make(punctures)
    comps = real_components(curve)
    near = [a + d for a in punctures for d in (Fraction(-1, 10 ** 6), Fraction(1, 10 ** 6))]
    for x in punctures + near + points:
        assert component_containing(curve, x, y_sign) == locate_on_line(comps, x), x


def height_search_by_fractions(f, lo, hi, budget):
    """``_height_search`` from f evaluated as a Fraction at every candidate
    of the walk: the first x with f(x) a nonzero rational square, with its
    square root."""
    for x in heights_in_window(lo, hi, budget):
        fx = f.eval_at(x)
        if is_rational_square(fx):
            return x, Fraction(isqrt(fx.numerator), isqrt(fx.denominator))
    return None


@st.composite
def sieved_walks(draw):
    """(f, lo, hi, budget) with windows wide enough for many candidates a
    row, so the walk reaches the sieve: f of degree 1..6, odd or even, with
    a leading coefficient of either sign, and half the time a point planted
    at a height q0 that is a multiple of a sieve prime, so that a row with
    q = 0 mod l holds a square."""
    f = UPoly.of(*draw(st.lists(small_fractions, min_size=2, max_size=7)
                       .filter(lambda cs: cs[-1] != 0)))
    centre = draw(st.builds(Fraction, st.integers(-30, 30), st.integers(1, 4)))
    half = draw(st.builds(Fraction, st.integers(1, 12), st.integers(1, 3)))
    budget = draw(st.integers(1, 16))
    if draw(st.booleans()):
        q0 = draw(st.sampled_from([3, 5, 6, 7, 9, 10, 11, 13, 14, 15]))
        p0 = draw(st.integers(floor((centre - half) * q0) + 1, floor((centre + half) * q0)))
        assume(centre - half < Fraction(p0, q0) < centre + half and gcd(p0, q0) == 1)
        y0 = draw(nonzero_fractions)
        f = f - UPoly.of(f.eval_at(Fraction(p0, q0)) - y0 * y0)
        budget = max(budget, q0)
    return f, centre - half, centre + half, budget


@settings(SETTINGS, max_examples=150)
@given(sieved_walks())
# odd degree, negative leading coefficient, a point at height 3: 3 - 2x^3 is
# 79/27 at x = 1/3, so f = 3 - 2x^3 - 79/27 + 25/9 has the point (1/3, 5/3)
@example((UPoly.of(3, 0, 0, -2) - UPoly.of(Fraction(79, 27) - Fraction(25, 9)),
          Fraction(-7), Fraction(9), 8))
# the points (-2/5, 3/5) and (2/5, 3/5) of x^2 + y^2 = 13/25, in the row q = 5
@example((UPoly.of(Fraction(13, 25), 0, -1), Fraction(-1, 2), Fraction(1, 2), 12))
# the point (5/7, 144/49) of y^2 = c + x - x^4, a quartic with lc < 0
@example((UPoly.of(Fraction(20736, 2401) + Fraction(625, 2401) - Fraction(5, 7),
                   1, 0, 0, -1), Fraction(-5), Fraction(5), 14))
@example((BENCH_OVALS[0], Fraction(-6), Fraction(-2), 16))
@example((BENCH_OVALS[1], Fraction(-1), Fraction(6), 16))
def test_height_search_agrees_with_the_fraction_walk(walk):
    f, lo, hi, budget = walk
    assert (cycleclass._height_search(f, lo, hi, range(1, budget + 1), cycleclass._Sieve(f))
            == height_search_by_fractions(f, lo, hi, budget))


# window ends: integers, fractions of either sign, and a width down to far
# below 1/budget^2, where the window holds at most one x of height <= budget
window_ends = st.one_of(st.integers(-30, 30).map(Fraction),
                        st.builds(Fraction, st.integers(-10 ** 4, 10 ** 4), st.integers(1, 60)))
window_widths = st.one_of(st.builds(Fraction, st.integers(1, 12), st.integers(1, 3)),
                          st.builds(Fraction, st.just(1), st.integers(1, 10 ** 7)))


@settings(SETTINGS, max_examples=300)
@given(window_ends, window_widths, st.integers(1, 40))
@example(Fraction(0), Fraction(1), 1)                  # no integer strictly inside
@example(Fraction(0), Fraction(1), 2)                  # 1/2
@example(Fraction(-3), Fraction(1), 5)                 # -5/2, between two integer ends
@example(Fraction(-1, 3) - Fraction(1, 10 ** 6), Fraction(2, 10 ** 6), 2)
@example(Fraction(-1, 3) - Fraction(1, 10 ** 6), Fraction(2, 10 ** 6), 3)
def test_first_rational_is_the_first_x_of_the_walk(lo, width, budget):
    hi = lo + width
    assert (cycleclass._first_rational(lo, hi, budget)
            == next(heights_in_window(lo, hi, budget), None))


def divisors(n):
    small = [d for d in range(1, isqrt(n) + 1) if n % d == 0]
    return sorted(set(small + [n // d for d in small]))


def rational_roots_by_divisors(f):
    """Distinct rational roots by the rational root theorem: strip the factors
    of x, clear denominators, and try every p/q with p | a_0 and q | a_n."""
    coeffs = list(f.coeffs)
    roots = set()
    while coeffs[0] == 0:
        roots.add(Fraction(0))
        coeffs.pop(0)
    den = lcm(*(c.denominator for c in coeffs))
    ints = [int(c * den) for c in coeffs]
    n = len(ints) - 1
    for q in divisors(abs(ints[-1])):
        for p in divisors(abs(ints[0])):
            for num in (p, -p):
                # q^n f(num/q), in integers
                if gcd(p, q) == 1 and sum(c * num ** i * q ** (n - i) for i, c in enumerate(ints)) == 0:
                    roots.add(Fraction(num, q))
    return sorted(roots)


@st.composite
def polys_with_rational_roots(draw):
    """Non-monic f of degree <= 8 over Q: planted rational roots, with zero and
    repeats allowed, times a random rational cofactor."""
    roots = draw(st.lists(st.builds(Fraction, st.integers(-12, 12), st.integers(1, 6)), max_size=6))
    cofactor = draw(st.lists(small_fractions, min_size=1, max_size=3).filter(lambda cs: cs[-1] != 0))
    f = UPoly.from_roots(roots, lead=draw(nonzero_fractions)) * UPoly.of(*cofactor)
    assume(f.degree <= 8)
    return f, roots


@SETTINGS
@given(polys_with_rational_roots())
def test_rational_roots_agree_with_divisor_pairs(case):
    f, roots = case
    found = [r for r in map(rational_root, isolate_real_roots(f)) if r is not None]
    assert found == rational_roots_by_divisors(f)
    assert set(roots) <= set(found)


@SETTINGS
@given(st.lists(small_fractions, max_size=5, unique=True), nonzero_fractions,
       st.sampled_from([2, 3, 5, 6, 7]))
def test_rational_root_reads_the_planted_root_or_none(roots, lead, k):
    # the cofactor x^2 - k has the two irrational roots +-sqrt(k)
    f = UPoly.from_roots(roots, lead=lead) * UPoly.of(-k, 0, 1)
    ivs = isolate_real_roots(f)
    assert len(ivs) == len(roots) + 2
    for iv in ivs:
        planted = [r for r in roots if iv.contains(r)]
        assert rational_root(iv) == (planted[0] if planted else None)


# --- polynomial arithmetic against Fraction lists ------------------------------

def trimmed(cs):
    cs = list(cs)
    while cs and cs[-1] == 0:
        cs.pop()
    return cs


def list_add(a, b):
    n = max(len(a), len(b))
    return trimmed((a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0) for i in range(n))


def list_mul(a, b):
    out = [Fraction(0)] * max(len(a) + len(b) - 1, 0)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return trimmed(out)


def list_divmod(a, b):
    """Schoolbook long division over Q, the divisor's leading term first."""
    rem, quo = list(a), [Fraction(0)] * max(len(a) - len(b) + 1, 0)
    for k in range(len(quo) - 1, -1, -1):
        c = rem[k + len(b) - 1] / b[-1]
        quo[k] = c
        for j, y in enumerate(b):
            rem[k + j] -= c * y
    return trimmed(quo), trimmed(rem)


def list_gcd(a, b):
    while b:
        a, b = b, list_divmod(a, b)[1]
    return [c / a[-1] for c in a]


fraction_lists = st.lists(small_fractions, max_size=6).map(trimmed)


@SETTINGS
@given(fraction_lists, fraction_lists, small_fractions)
def test_upoly_arithmetic_agrees_with_fraction_lists(a, b, x):
    p, q = UPoly.of(*a), UPoly.of(*b)
    assert list(p.coeffs) == a
    assert list((p + q).coeffs) == list_add(a, b)
    assert list((p - q).coeffs) == list_add(a, [-c for c in b])
    assert list((p * q).coeffs) == list_mul(a, b)
    assert list(p.scale(x).coeffs) == trimmed(c * x for c in a)
    assert list(p.deriv().coeffs) == trimmed(i * c for i, c in enumerate(a) if i)
    assert p.eval_at(x) == sum(c * x ** i for i, c in enumerate(a))
    assert p.sign_at(x) == sign_of(p.eval_at(x))
    if a:
        assert list(p.monic().coeffs) == [c / a[-1] for c in a]


@SETTINGS
@given(fraction_lists, fraction_lists.filter(bool), fraction_lists)
def test_upoly_divmod_and_gcd_agree_with_fraction_lists(a, b, common):
    p, q = UPoly.of(*a), UPoly.of(*b)
    quo, rem = p.divmod(q)
    assert quo * q + rem == p and rem.degree < q.degree
    assert (list(quo.coeffs), list(rem.coeffs)) == list_divmod(a, b)
    # a planted common factor makes the gcd nontrivial
    c = UPoly.of(*common) if common else UPoly.one()
    p, q = p * c, q * c
    g = p.gcd(q)
    assert g.lc == 1
    assert p.divmod(g)[1].is_zero and q.divmod(g)[1].is_zero
    assert list(g.coeffs) == list_gcd(list(p.coeffs), list(q.coeffs))


def squarefree(p):
    """p over the monic gcd(p, p'): its square-free part, with p's leading
    coefficient."""
    return p // p.gcd(p.deriv())


def single_chain_isolation(p):
    """The Fraction bisection over one Sturm chain of the square-free part
    of p."""
    return fraction_bisect([numeric._sturm_chain(squarefree(p))])


def one_sided_sign(p, base, side):
    """The sign of p just right (``side`` +1) or left (-1) of a rational
    ``base`` by a Fraction Taylor shift: p(a + s) has the sign of its lowest
    nonzero coefficient c_k just right of a, and that of c_k (-1)^k just left
    of it.  With no base, the sign at +inf or -inf."""
    cs = list(p.coeffs)
    if not cs:
        return 0
    if base is None:
        return sign_of(cs[-1]) * (-1 if side < 0 and len(cs) % 2 == 0 else 1)
    for i in range(len(cs)):              # repeated synthetic division by t - a
        for j in range(len(cs) - 2, i - 1, -1):
            cs[j] += base * cs[j + 1]
    k = next(k for k, c in enumerate(cs) if c)
    return sign_of(cs[k]) * (-1 if side < 0 and k % 2 else 1)


def fraction_sturm_chain(p):
    """Sturm chain of p's square-free part with remainders kept over Q."""
    q = list(squarefree(p).coeffs)
    chain = [q, trimmed(i * c for i, c in enumerate(q) if i)]
    while len(chain[-1]) > 1:
        chain.append([-c for c in list_divmod(chain[-2], chain[-1])[1]])
    return chain


def sign_variations(signs):
    nonzero = [s for s in signs if s]
    return sum(1 for a, b in zip(nonzero, nonzero[1:]) if a != b)


@SETTINGS
@given(fraction_lists.filter(lambda cs: len(cs) >= 2), st.lists(small_fractions, max_size=6))
# t^3 - 2 over 3t^2: one elimination step, so one multiplier decides the sign
@example([Fraction(-2), Fraction(0), Fraction(0), Fraction(1)], [])
def test_sturm_chain_signs_agree_with_fraction_remainders(coeffs, points):
    p = UPoly.of(*coeffs)
    chain, oracle = numeric._sturm_chain(squarefree(p)), fraction_sturm_chain(p)
    assert len(chain) == len(oracle)
    # each element is a positive multiple of the oracle's, so every sign agrees
    for g, want in zip(chain, oracle):
        scale = want[-1] / g.lc
        assert scale > 0 and [c * scale for c in g.coeffs] == want
    for x in points:
        signs = [sign_of(g.eval_at(x)) for g in chain]
        want = [sign_of(sum(c * x ** i for i, c in enumerate(g))) for g in oracle]
        assert signs == want
        assert sign_variations(signs) == sign_variations(want)


def negative_lead(cs):
    return cs[:-1] + [-abs(cs[-1])] if cs else cs


@SETTINGS
@given(st.just([]) | fraction_lists.map(negative_lead), st.just([]) | fraction_lists,
       fraction_lists.filter(bool).map(negative_lead))
@example([], [], [Fraction(-2), Fraction(-1)])
def test_upoly_gcd_agrees_with_fraction_euclid_on_zeros_and_negative_leads(a, b, common):
    # either input, or both, may be zero; a planted common factor makes the
    # gcd nontrivial
    a, b = list_mul(a, common), list_mul(b, common)
    p, q = UPoly.of(*a), UPoly.of(*b)
    assert list(p.gcd(q).coeffs) == list_gcd(a, b)
    assert list(q.gcd(p).coeffs) == list_gcd(b, a)


@SETTINGS
@given(fraction_lists, fraction_lists.filter(bool), nonzero_fractions)
def test_upoly_form_is_canonical(a, b, x):
    p = UPoly.of(*a)
    assert p.den > 0 and gcd(p.den, *p.nums) == 1
    assert not p.nums or p.nums[-1] != 0
    assert UPoly.of(*p.coeffs) == p
    q = UPoly.of(*b)
    for same in ((p * q) // q, p.scale(x).scale(1 / x), p + q - q):
        assert same == p and hash(same) == hash(p)
        assert (same.nums, same.den) == (p.nums, p.den)


def fraction_to_str(p, var):
    """The polynomial formatted from its Fraction coefficients."""
    if p.is_zero:
        return "0"
    parts = []
    for i, c in reversed(list(enumerate(p.coeffs))):
        if c == 0:
            continue
        if i == 0:
            mono = str(abs(c))
        else:
            head = "" if abs(c) == 1 else f"{abs(c)}*"
            mono = f"{head}{var}" if i == 1 else f"{head}{var}^{i}"
        if not parts:
            parts.append(mono if c > 0 else f"-{mono}")
        else:
            parts.append(f"+ {mono}" if c > 0 else f"- {mono}")
    return " ".join(parts)


@settings(SETTINGS, max_examples=200)
@given(st.lists(st.one_of(st.sampled_from([0, 1, -1]).map(Fraction), small_fractions), max_size=6),
       st.sampled_from(["t", "x"]))
@example([], "t")
@example([Fraction(-1), 0, Fraction(1)], "x")
@example([Fraction(3, 4), Fraction(-1), 0, Fraction(-5, 2)], "t")
@example([Fraction(6), Fraction(-2, 6), Fraction(1)], "x")
def test_upoly_to_str_agrees_with_the_fraction_formatter(coeffs, var):
    p = UPoly.of(*coeffs)
    assert p.to_str(var) == fraction_to_str(p, var)
    assert str(p) == fraction_to_str(p, "t")


# pairwise coprime monic irreducibles over Q
PLANTABLE = ([UPoly.of(-r, 1) for r in (Fraction(-3), Fraction(0), Fraction(1, 2), Fraction(2))]
             + [UPoly.of(k, 0, 1) for k in (1, 2, 5)])


@SETTINGS
@given(st.dictionaries(st.sampled_from(PLANTABLE), st.integers(1, 4), max_size=3),
       nonzero_fractions)
def test_odd_multiplicity_part_keeps_the_odd_planted_factors(mults, lead):
    p, odd = UPoly.of(lead), UPoly.one()
    for factor, m in mults.items():
        for _ in range(m):
            p = p * factor
        if m % 2:
            odd = odd * factor
    assert odd_multiplicity_part(squarefree_decomposition(p)) == odd


# --- a coprime basis, and root isolation over it ---------------------------------

# shared linear factors, quadratics with two real roots (t^2 - 2, t^2 - t - 1)
# and with none (t^2 + 1, t^2 + t + 1)
SHARED_FACTORS = ([UPoly.of(-r, 1) for r in (-3, -1, 0, Fraction(1, 3), 1, 2)]
                  + [UPoly.of(-2, 0, 1), UPoly.of(-1, -1, 1), UPoly.of(1, 0, 1), UPoly.of(1, 1, 1)])
random_factors = st.lists(small_fractions, min_size=2, max_size=3).filter(
    lambda cs: cs[-1] != 0).map(lambda cs: UPoly.of(*cs))


@st.composite
def entry_polys(draw):
    """Numerators and denominators of a few Q(t) entries: a scalar times
    powers of shared factors and of random linear and quadratic ones."""
    polys = []
    for _ in range(draw(st.integers(0, 6))):
        p = UPoly.of(draw(nonzero_fractions))
        for _ in range(draw(st.integers(0, 3))):
            factor = draw(st.sampled_from(SHARED_FACTORS) | random_factors)
            for _ in range(draw(st.integers(1, 3))):
                p = p * factor
        polys.append(p)
    return polys


def multiplicity(b, p):
    k = 0
    while True:
        q, r = p.divmod(b)
        if not r.is_zero:
            return k
        p, k = q, k + 1


@SETTINGS
@given(entry_polys())
def test_coprime_basis_is_a_gcd_free_basis_of_its_inputs(polys):
    basis = coprime_basis(polys)
    for i, b in enumerate(basis):
        assert b.degree > 0 and b.lc == 1 and b.gcd(b.deriv()).degree == 0
        assert all(b.gcd(c).degree == 0 for c in basis[i + 1:])
        assert any(multiplicity(b, p) for p in polys)
    for p in polys:
        # p is a constant times a product of powers of the basis
        rest = p
        for b in basis:
            for _ in range(multiplicity(b, p)):
                rest = rest // b
        assert rest.degree == 0


def isolates_alike(polys):
    """The coprime isolation against one chain of the product, interval by
    interval; each interval carries the basis polynomial whose root it holds."""
    basis = coprime_basis(polys)
    got = isolate_coprime_roots(basis)
    want = single_chain_isolation(prod(polys, start=UPoly.one()))
    assert [(iv.lo, iv.hi) for iv in got] == [(iv.lo, iv.hi) for iv in want]
    for iv in got:
        assert iv.poly in basis and iv.poly.sign_at(iv.lo) * iv.poly.sign_at(iv.hi) == -1


@SETTINGS
@given(entry_polys())
def test_coprime_isolation_is_the_products_interval_by_interval(polys):
    isolates_alike(polys)


@SETTINGS
@given(entry_polys(), entry_polys())
def test_form_panel_samples_the_gaps_of_the_products_roots(nums, dens):
    # the panel's basis refines the entries' factors; its product is the
    # radical of every numerator and denominator, so the gaps are those of
    # the product's own isolation, and the signatures read off its sign
    # table are the entries' signs summed
    entries = [RatFunc.make(n, d) for n, d in
               zip_longest(nums, dens, fillvalue=UPoly.one())]
    panel = cli._ordering_panel(entries)
    whole = prod((e.num * e.den for e in entries), start=UPoly.one())
    assert [o.base for _, o, _ in panel[1:-1]] == gap_samples(single_chain_isolation(whole))
    for _, o, value in panel:
        assert value == sum(one_sided_sign(e.num, o.base, o.side)
                            * one_sided_sign(e.den, o.base, o.side) for e in entries)


@pytest.mark.parametrize("roots, at_midpoints", [
    ((-1, 0, 1), (0,)),                   # bound 2: 0, and +-1 on the window around it
    ((-2, -1), (-2, -1)),                 # bound 4: -bound/2, -bound/4
    ((-1, Fraction(-2, 3)), (-1,)),       # bound 8/3: -3 bound/8
    ((0, Fraction(1, 3), 4), (0, Fraction(1, 3))),  # bound 16/3: 0, bound/16
])
def test_roots_at_bisection_midpoints_isolate_alike(roots, at_midpoints, monkeypatch):
    # one entry per root, so a midpoint root belongs to one basis element
    # and the others do not vanish there; the kernel reads 0 at it
    polys = [UPoly.of(-r, 1) for r in roots]
    reads = kernel_reads(monkeypatch)
    isolate_coprime_roots(coprime_basis(polys))
    monkeypatch.undo()
    assert {x for _, x, s in reads if s == 0} >= set(at_midpoints)
    isolates_alike(polys)


@st.composite
def spread_polys(draw):
    """Entries whose factors' root bounds lie up to six orders of magnitude
    apart: f(t / 10^k) has the roots of f scaled by 10^k."""
    polys = []
    for _ in range(draw(st.integers(1, 4))):
        f = draw(st.sampled_from(SHARED_FACTORS) | random_factors)
        k = draw(st.integers(0, 6))
        polys.append(UPoly.of(*(c * 10 ** (k * (f.degree - i)) for i, c in enumerate(f.coeffs))))
    return polys


@SETTINGS
@given(spread_polys())
@example([UPoly.of(-10 ** 6, 1), UPoly.of(-2, 0, 1), UPoly.of(1, 3)])
def test_coprime_isolation_with_spread_bounds_is_the_products(polys):
    isolates_alike(polys)


@SETTINGS
@given(entry_polys())
@example([UPoly.of(-2, 0, 1), UPoly.of(1, 3), UPoly.of(Fraction(-1, 2), 0, 0, 1)])
@example([UPoly.of(-2, 0, 1), UPoly.of(-2, 0, 1), UPoly.of(1, 3)])
def test_isolation_is_the_single_chain_bisection_of_the_squarefree_part(polys):
    # the entries' product has repeated roots, irrational factors and a
    # fractional lead of either sign
    p = prod(polys, start=UPoly.one())
    remainder = numeric._primitive_remainder
    calls = []

    def counted(a, b):
        calls.append(len(b))
        return remainder(a, b)

    with mock.patch.object(numeric, "_primitive_remainder", counted):
        got = isolate_real_roots(p)
        isolating = len(calls)
        if p.degree <= 0 or p.gcd(p.deriv()).degree == 0:
            # a square-free p pays for one remainder sequence of (p, p'):
            # its Sturm chain, which is also the square-free test
            calls.clear()
            numeric._sturm_chain(p.monic())
            assert isolating == len(calls)
    want = single_chain_isolation(p)
    assert [(iv.lo, iv.hi) for iv in got] == [(iv.lo, iv.hi) for iv in want]
    assert list(map(rational_root, got)) == list(map(rational_root, want))
    assert got == isolate_coprime_roots(coprime_basis((p,)))


@st.composite
def isolation_entries(draw):
    """Entries whose coprime basis has several chains: linear factors at
    dyadic points, which the bisection can meet as midpoints; factors spread
    over up to six orders of magnitude; and factors with 64-bit numerators
    over denominators up to 10^9, whose product's bound N/D has a large N
    and D."""
    polys = [UPoly.of(-r, 1) for r in draw(st.lists(
        st.builds(Fraction, st.integers(-32, 32), st.sampled_from([1, 2, 4, 8])), max_size=4))]
    if draw(st.booleans()):
        polys += draw(spread_polys())
    for _ in range(draw(st.integers(0, 2))):
        cs = draw(st.lists(st.builds(Fraction, st.integers(-2 ** 64, 2 ** 64),
                                     st.integers(1, 10 ** 9)), min_size=2, max_size=4))
        if cs[-1]:
            polys.append(UPoly.of(*cs))
    return polys


@SETTINGS
@given(isolation_entries())
@example([UPoly.of(-r, 1) for r in (-1, 0, 1, Fraction(1, 2))])
@example([UPoly.of(-10 ** 6, 1), UPoly.of(Fraction(-2 ** 64 + 1, 10 ** 9 - 7), 3, 0, -1)])
def test_coprime_isolation_is_the_fraction_bisection(polys):
    # interval by interval against the Fraction oracle over the same
    # chains, each interval with its basis polynomial; and each interval
    # refined as rational_root and the interior windows refine it
    basis = coprime_basis(polys)
    got = isolate_coprime_roots(basis)
    assert got == fraction_bisect([numeric._sturm_chain(b) for b in basis])
    for iv in got:
        nums = iv.poly.nums
        assert iv.refined() == fraction_refined(iv)
        for width in (Fraction(1, 8), Fraction(gcd(*nums), abs(nums[-1]))):
            assert iv.refined_to(width) == fraction_refined_to(iv, width)


def test_refinement_reads_no_sign_once_a_midpoint_is_the_root(monkeypatch):
    # the root 1 is the midpoint of (0, 2), and so of every later window:
    # the sign is read at lo and at 1, and then no more
    iv = IsolatingInterval(Fraction(0), Fraction(2), UPoly.of(-1, 1))
    reads = kernel_reads(monkeypatch)
    got = iv.refined_to(Fraction(1, 2 ** 20))
    assert [(x, s) for _, x, s in reads] == [(0, -1), (1, 0)]
    assert (got.lo, got.hi) == (1 - Fraction(1, 2 ** 21), 1 + Fraction(1, 2 ** 21))
    assert got == fraction_refined_to(iv, Fraction(1, 2 ** 20))


@pytest.mark.parametrize("roots", [
    (0, 1),                      # bound 2: the window around 0 reaches +-1, t's skip bound
    (-2, -1),                    # bound 4: -2, t + 1's skip bound, is the midpoint root of t + 2
    (-5, -3),                    # bound 16: -8 and -4, the skip bounds of t + 5 and t + 3
    (-7, -3, -1),                # bound 32: -8, -4 and -2
    (-7, -5, Fraction(1, 3)),    # bound 32: -8, the skip bound of t + 7 and of t + 5
    (6, Fraction(5, 2)),         # bound 16: 8 and 4
])
def test_points_on_a_chains_bound_isolate_alike(roots, monkeypatch):
    # a point of the tree lies on a basis element's skip bound, in an
    # interval that holds the element's root: there the element's chain
    # takes the near end's variation, unread.  The oracle reads every point
    # of the tree, so its reads list the points
    polys = [UPoly.of(-r, 1) for r in roots]
    basis = coprime_basis(polys)
    points = set()
    sign_at = UPoly.sign_at

    def recorded(p, x):
        points.add(abs(x))
        return sign_at(p, x)

    monkeypatch.setattr(UPoly, "sign_at", recorded)
    single_chain_isolation(prod(polys, start=UPoly.one()))
    monkeypatch.undo()
    bound = root_bound(prod(polys, start=UPoly.one()))
    assert any(skip_bound(b) in points and skip_bound(b) < bound for b in basis)
    reads = kernel_reads(monkeypatch)
    isolate_coprime_roots(basis)
    monkeypatch.undo()
    for b in basis:
        assert all(abs(x) < skip_bound(b) for nums, x, _ in reads if nums == b.nums)
    isolates_alike(polys)


@SETTINGS
@given(st.lists(small_fractions | st.builds(lambda s, k: s * Fraction(2) ** k,
                                            st.sampled_from([-1, 1]), st.integers(-8, 40)),
                min_size=1, max_size=6),
       nonzero_fractions, st.lists(st.integers(-9, 9), max_size=2))
@example([Fraction(2 ** 20)], Fraction(1), [])          # t - 2^20: Fujiwara's bound is its root
@example([Fraction(-1, 2 ** 8)], Fraction(3, 7), [])
@example([Fraction(2 ** 40), Fraction(-2 ** 40)], Fraction(-1, 8), [])
def test_skip_bound_is_strict_on_planted_roots(roots, lead, quadratics):
    # planted rational roots, some at +-2^k, under a fractional lead, and
    # the real roots +-sqrt(c) of quadratic factors t^2 - c
    p = UPoly.from_roots(roots, lead)
    for c in quadratics:
        p = p * UPoly.of(-c, 0, 1)
    bound = skip_bound(p)
    assert all(abs(r) < bound for r in roots)
    assert all(c < bound ** 2 for c in quadratics)
    if any(roots) and not quadratics:
        # Fujiwara's bound is at most 2 deg(p) times the largest root, and
        # its power of two at most 8 times Fujiwara's bound
        assert bound < 16 * p.degree * max(map(abs, roots))


# --- field elements and forms ---------------------------------------------------

primes = st.sampled_from([3, 5, 7, 11, 13, 31])
wide_ints = st.integers(-10 ** 6, 10 ** 6)


@SETTINGS
@given(primes, wide_ints, wide_ints)
def test_fp_operators_agree_with_reduction(p, a, b):
    x, y = Fp(a, p), Fp(b, p)
    for got, want in ((x * y, a * b), (x + y, a + b), (x - y, a - b), (-x, -a),
                      (a * y, a * b), (a + y, a + b), (a - y, a - b),
                      (x * b, a * b), (x + b, a + b), (x - b, a - b)):
        assert type(got) is Fp and got.p == p
        assert got == want % p


@st.composite
def ratfuncs(draw):
    """(num, den) with den monic, and the element of Q(t) they make."""
    num = UPoly.of(*draw(st.lists(st.integers(-4, 4), min_size=1, max_size=3).filter(any)))
    den = UPoly.of(*draw(st.lists(st.integers(-4, 4), max_size=2)), 1)
    return num, den, RatFunc.make(num, den)


def subset_products(slots, one, times):
    """Entries of the Pfister form on the slots: entry i is the product of -a_j
    over the slots j whose bit is set in i, the first slot the highest bit."""
    n = len(slots)
    out = []
    for i in range(2 ** n):
        e = one
        for j, a in enumerate(slots):
            if i >> (n - 1 - j) & 1:
                e = times(e, a)
        out.append(e)
    return out


@SETTINGS
@given(st.lists(small_fractions.filter(lambda r: r != 0), max_size=4))
def test_pfister_entries_are_subset_products_over_q(slots):
    form = pfister(RATIONALS, *slots)
    assert list(form.entries) == subset_products(slots, Fraction(1), lambda e, a: -e * a)


@SETTINGS
@given(primes, st.lists(wide_ints, max_size=4))
def test_pfister_entries_are_subset_products_over_fp(p, slots):
    assume(all(a % p for a in slots))
    form = pfister(finite_field(p), *slots)
    assert list(form.entries) == subset_products(slots, 1, lambda e, a: -e * a % p)


@SETTINGS
@given(st.lists(ratfuncs(), max_size=3))
def test_pfister_entries_are_subset_products_over_qt(slots):
    form = pfister(RATFUNC, *(f for _, _, f in slots))
    pairs = subset_products([(num, den) for num, den, _ in slots], (UPoly.one(), UPoly.one()),
                            lambda e, a: (-e[0] * a[0], e[1] * a[1]))
    assert len(form.entries) == len(pairs)
    for e, (num, den) in zip(form.entries, pairs):
        assert e.num * den == num * e.den


@SETTINGS
@given(primes, wide_ints, wide_ints)
def test_binary_fp_forms_are_hyperbolic_exactly_when_isotropic(p, a, b):
    assume(a % p and b % p)
    isotropic = any((a * x * x + b * y * y) % p == 0
                    for x in range(p) for y in range(p) if x or y)
    assert hyperbolic_pairing(DiagForm.make(finite_field(p), [a, b])) == isotropic


@SETTINGS
@given(primes, st.lists(wide_ints, max_size=5))
def test_fp_discriminant_is_the_class_of_the_signed_product(p, es):
    assume(all(e % p for e in es))
    n = len(es)
    d = (-1) ** (n * (n - 1) // 2)
    for e in es:
        d = d * e % p
    squares = {x * x % p for x in range(1, p)}
    nonresidue = min(x for x in range(2, p) if x not in squares)
    assert discriminant(DiagForm.make(finite_field(p), es)) == (1 if d in squares else nonresidue)


orderings = st.one_of(
    st.just(Ordering.at_pos_inf()), st.just(Ordering.at_neg_inf()),
    st.builds(Ordering.above, small_fractions), st.builds(Ordering.below, small_fractions))


@SETTINGS
@given(st.lists(ratfuncs(), min_size=1, max_size=4), orderings)
def test_qt_signature_is_the_sign_of_num_times_den(entries, ordering):
    form = DiagForm.make(RATFUNC, [f for _, _, f in entries])
    want = sum(one_sided_sign(e.num * e.den, ordering.base, ordering.side) for e in form.entries)
    assert signature(form, ordering) == want


# --- integer signs and Q(t) square classes -------------------------------------

@SETTINGS
@given(fraction_lists.filter(lambda cs: len(cs) >= 2), st.lists(small_fractions, max_size=6),
       nonzero_fractions)
def test_integer_sign_is_the_sign_of_the_value(coeffs, points, root):
    p = UPoly.of(*coeffs)
    planted = p * UPoly.of(-root, 1)
    assume(p.den > 1 and planted.den > 1)
    for f in (p, planted):
        for x in points + [root]:
            want = sign_of(sum(c * x ** i for i, c in enumerate(f.coeffs)))
            assert f.sign_at(x) == sign_of(f.eval_at(x)) == want
    assert planted.sign_at(root) == 0


@st.composite
def planted_ratfuncs(draw):
    """(element, multiplicity of each planted factor): the factors, repeated
    up to four times, go to the numerator or the denominator, and both carry
    a fractional scalar."""
    mults = draw(st.dictionaries(st.sampled_from(PLANTABLE), st.integers(1, 4), max_size=3))
    num, den = UPoly.of(draw(nonzero_fractions)), UPoly.of(draw(nonzero_fractions))
    for factor, m in mults.items():
        below = draw(st.booleans())
        for _ in range(m):
            if below:
                den = den * factor
            else:
                num = num * factor
    return RatFunc.make(num, den), mults


def signed_product(es):
    n = len(es)
    out = RatFunc.coerce(-1 if (n * (n - 1) // 2) % 2 else 1)
    for e in es:
        out = out * e
    return out


@SETTINGS
@given(st.lists(planted_ratfuncs(), max_size=4))
def test_qt_discriminant_is_the_class_of_the_signed_product(planted):
    es = [e for e, _ in planted]
    disc = discriminant(DiagForm.make(RATFUNC, es))
    assert disc == square_class(RATFUNC, signed_product(es))
    # negation carries the odd parts computed above over to the new entries
    negated = [-e for e in es]
    assert discriminant(DiagForm.make(RATFUNC, negated)) == square_class(
        RATFUNC, signed_product([RatFunc.make(e.num, e.den) for e in negated]))
    # the odd part is the product of the factors of odd total multiplicity
    total = {}
    for _, mults in planted:
        for factor, m in mults.items():
            total[factor] = total.get(factor, 0) + m
    odd = UPoly.one()
    for factor, m in total.items():
        if m % 2:
            odd = odd * factor
    assert disc.monic() == odd


# bases that share factors: t^2 - t is t*(t - 1), and t^3 - t is t^2 - t times t + 1
SHARED_BASES = [UPoly.x(), UPoly.of(-1, 1), UPoly.of(0, -1, 1), UPoly.of(0, -1, 0, 1),
                UPoly.of(1, 0, 1)]


def typed_powers(lead, powers):
    """lead times the powers b^e, with the bases b as its factors."""
    num = UPoly.of(lead)
    for b, e in powers:
        for _ in range(e):
            num = num * b
    return RatFunc.from_powers(num, powers)


@st.composite
def shared_base_ratfuncs(draw):
    """An element of Q(t) typed as a product of powers of SHARED_BASES, over
    a denominator made of them too: entries of one form then carry a common
    factor in different bases (t^2 - t in one, t and t - 1 in another)."""
    powers = draw(st.lists(st.tuples(st.sampled_from(SHARED_BASES), st.integers(1, 3)),
                           max_size=3))
    out = typed_powers(draw(nonzero_fractions), powers)
    den = prod(draw(st.lists(st.sampled_from(SHARED_BASES), max_size=2)), start=UPoly.one())
    return out * RatFunc.make(UPoly.one(), den)


@st.composite
def shared_base_forms(draw):
    """Shuffled entries of shared_base_ratfuncs, some of them repeated."""
    es = draw(st.lists(shared_base_ratfuncs(), max_size=5))
    if es:
        es += draw(st.lists(st.sampled_from(es), max_size=2))
    return draw(st.permutations(es))


def discriminant_by_expansion(es):
    """(square class, is it 1) of the signed product of the entries,
    multiplied out: the odd-multiplicity part of num*den from one square-free
    decomposition, scaled by the square-free part of the leading
    coefficient."""
    n = len(es)
    p = UPoly.of((-1) ** (n * (n - 1) // 2))
    for e in es:
        p = p * e.num * e.den
    odd = prod((a for a, i in squarefree_decomposition(p) if i % 2), start=UPoly.one())
    lead = p.lc
    return (odd.scale(squarefree_int(lead.numerator * lead.denominator)),
            odd == UPoly.one() and is_rational_square(lead))


# <1, -a, -b, ab> with coprime a and b, and with a and b sharing the factor t
_A, _B = typed_powers(2, [(UPoly.of(1, 0, 1), 1)]), typed_powers(-1, [(UPoly.of(0, -1, 1), 3)])
_C = typed_powers(Fraction(1, 3), [(UPoly.x(), 1), (UPoly.of(1, 0, 1), 2)])


@settings(SETTINGS, max_examples=200)
@given(shared_base_forms())
@example([RatFunc.coerce(1), -_A, -_B, _A * _B])
@example([RatFunc.coerce(1), -_B, -_C, _B * _C])
def test_qt_parity_discriminant_is_the_class_of_the_expanded_product(es):
    phi = DiagForm.make(RATFUNC, es)
    disc, trivial = discriminant_by_expansion(es)
    assert discriminant(phi) == disc
    assert has_trivial_discriminant(phi) == trivial


@SETTINGS
@given(st.lists(small_fractions, min_size=1, max_size=5, unique=True),
       st.sets(st.sampled_from([UPoly.of(1, 0, 1), UPoly.of(-2, 0, 1), UPoly.of(1, 1, 1)])),
       nonzero_fractions, st.lists(small_fractions, max_size=3))
def test_derivative_sign_at_a_root_is_the_one_sided_sign(roots, quadratics, lead, points):
    # distinct rational roots and quadratics without rational roots: a
    # square-free polynomial, whose one-sided signs at each root come from
    # its derivative
    p = prod(quadratics, start=UPoly.from_roots(roots, lead))
    sides = [(None, -1), (None, 1)] + [(x, side) for x in roots + points for side in (1, -1)]
    for base, side in sides:
        assert squarefree_sign_at(p, base, side) == one_sided_sign(p, base, side)
    assert not any(p.sign_at(x) for x in roots)


def residue_by_division(phi, a):
    """The second residue at t = a, found by dividing t - a out of each
    entry's num and den as often as it goes."""
    linear, out = UPoly.of(-a, 1), []
    for e in phi.entries:
        k, units = 0, []
        for p, step in ((e.num, 1), (e.den, -1)):
            while p.divmod(linear)[1].is_zero:
                p, k = p // linear, k + step
            units.append(p)
        if k % 2:
            out.append(units[0].eval_at(a) / units[1].eval_at(a))
    return DiagForm.make(RATIONALS, out)


@SETTINGS
@given(st.lists(planted_ratfuncs(), min_size=1, max_size=4),
       st.lists(st.sampled_from([-3, 0, Fraction(1, 2), 2]) | small_fractions, max_size=4))
# t(t - 2)/3 is one basis of degree 2, whose derivative is -2 at 0 and 2 at 2
@example([(RatFunc.make(UPoly.from_roots([0, 2], Fraction(1, 3))), {})], [0, 2])
def test_second_residue_is_the_split_root_residue(planted, places):
    # the places include the roots of the planted linear factors; a product
    # carries the factors of its operands
    es = [e for e, _ in planted]
    phi = DiagForm.make(RATFUNC, es + [es[0] * es[-1]])
    for a in places:
        assert second_residue(phi, Place.finite(a)) == residue_by_division(phi, a)


def factor_groups(e):
    """Signed multiplicity -> the monic product of the factors of e with it,
    from the carried factors after checking that they are monic, square-free
    and pairwise coprime."""
    bases = [b for b, _ in e.factors]
    out = {}
    for i, (b, k) in enumerate(e.factors):
        assert k and b.degree > 0 and b.lc == 1 and b.gcd(b.deriv()).degree == 0
        assert all(b.gcd(c).degree == 0 for c in bases[i + 1:])
        out[k] = out.get(k, UPoly.one()) * b
    return out


def yun_groups(e):
    """The same grouping from Yun decompositions of the expanded num and den."""
    out = dict((k, b) for b, k in squarefree_decomposition(e.num))
    out.update((-k, b) for b, k in squarefree_decomposition(e.den))
    return out


@SETTINGS
@given(st.lists(planted_ratfuncs(), min_size=1, max_size=3),
       st.lists(planted_ratfuncs(), min_size=1, max_size=2))
def test_products_carry_the_factors_of_their_expansion(left, right):
    # every entry built by *, negation, tensor, pfister and gw_mul keeps its
    # operands' factors; they are those of its expanded num and den, grouped
    # by multiplicity, and give its odd part
    a = [e for e, _ in left]
    b = [e for e, _ in right]
    phi, psi = DiagForm.make(RATFUNC, a), DiagForm.make(RATFUNC, b)
    built = [x * y for x in a for y in b] + [-x for x in a]
    built += list(tensor(phi, psi).entries) + list(pfister(RATFUNC, *a).entries)
    built += list(gw_to_form(gw_mul(GWElem(phi, psi), GWElem(psi, phi))).entries)
    for e in built:
        assert "factors" in e.__dict__ or e.num.degree == e.den.degree == 0
        assert factor_groups(e) == yun_groups(e)
        fresh = RatFunc.make(e.num, e.den)
        assert e.odd_part == fresh.odd_part == odd_multiplicity_part(squarefree_decomposition(
            e.num * e.den))


@SETTINGS
@given(st.lists(planted_ratfuncs(), min_size=1, max_size=4),
       st.lists(st.sampled_from(PLANTABLE[:4]), max_size=3), st.lists(orderings, max_size=3))
def test_qt_signature_is_the_sum_of_the_entry_signs(planted, at_roots, sampled):
    # orderings at the roots of the planted linear factors, and entries with
    # denominators
    es = [e for e, _ in planted]
    pool = sampled + [side(-b.coeffs[0]) for b in at_roots for side in (Ordering.above, Ordering.below)]
    for p in pool:
        signs = [one_sided_sign(e.num, p.base, p.side) * one_sided_sign(e.den, p.base, p.side)
                 for e in es]
        assert signature(DiagForm.make(RATFUNC, es), p) == sum(signs)
        half = DiagForm.make(RATFUNC, es[1:])
        assert signature(GWElem(half, DiagForm.make(RATFUNC, es[:1])), p) == sum(signs[1:]) - signs[0]


# typed bases, some neither square-free nor coprime to the others
TYPED_BASES = ["t", "(t-1)", "(t+1)", "(2*t+3)", "(t^2-1)", "(t^2-2*t+1)", "(t^2+1)", "(t^2-2)",
               "(t^3-t)", "(t^2+t)", "(-t+1/2)"]


@st.composite
def typed_entries(draw):
    """An entry spelled as a product of powers, with scalars and unary minus
    inside the product."""
    parts = [draw(st.sampled_from(["", "2", "-3", "1/2", "-5/4"]))]
    for _ in range(draw(st.integers(0, 4))):
        base = draw(st.sampled_from(TYPED_BASES))
        power = draw(st.integers(1, 5))
        sign = draw(st.sampled_from(["", "", "-"]))
        parts.append(f"{sign}{base}" + (f"^{power}" if power > 1 else ""))
    parts = [p for p in parts if p] or ["1"]
    return "*".join(parts)


@settings(SETTINGS, max_examples=100)
@given(st.lists(typed_entries(), min_size=1, max_size=4))
@example(["(t^2-1)*(t-1)^3", "2*-t"])
@example(["(t^2-2*t+1)^2*(t^3-t)", "-(t^2+t)*(t+1)^2*-t"])
def test_factored_and_expanded_spellings_report_alike(typed):
    # the typed factors and those of one decomposition of the expanded
    # entry give the same report, byte for byte
    expanded = [cli.parse_poly(e, "t").to_str() for e in typed]
    assert all("(" not in e for e in expanded)
    outputs = []
    for spelling in (typed, expanded):
        buf = io.StringIO()
        with redirect_stdout(buf):
            code = cli.main(["form", "<" + ",".join(spelling) + ">"])
        outputs.append((code, buf.getvalue()))
    assert outputs[0] == outputs[1] and outputs[0][0] == 0


def greedy_pairing(es):
    """The hyperbolic pairing walk on the product of each candidate pair."""
    es = list(es)
    if len(es) % 2:
        return False
    while es:
        a = es.pop()
        for i, b in enumerate(es):
            if is_square(RATFUNC, -(a * b)):
                es.pop(i)
                break
        else:
            return False
    return True


# entries drawn from few square classes, so that pairs are often hyperbolic
squares = st.builds(lambda c, h: RatFunc.make(h * h * UPoly.of(c)),
                    st.sampled_from([1, 4, Fraction(1, 9)]),
                    st.sampled_from([UPoly.one(), UPoly.of(2, 1), UPoly.of(Fraction(-1, 3), 1)]))
pairing_entries = st.builds(
    lambda base, scalar, square: RatFunc.make(base * UPoly.of(scalar)) * square,
    st.sampled_from([UPoly.one(), UPoly.x(), UPoly.of(-1, 1), UPoly.of(1, 0, 1),
                     UPoly.of(0, -1, 1)]),
    st.sampled_from([1, -1, 2, -2, Fraction(-9, 2), 3]),
    squares)


@st.composite
def pairing_forms(draw):
    """Entries in a shuffled order, most of them planted in hyperbolic pairs
    <a, -a*s> with s a square, some free."""
    anything = st.one_of(pairing_entries, planted_ratfuncs().map(lambda case: case[0]))
    es = []
    for a, s, free in draw(st.lists(st.tuples(anything, squares, st.integers(0, 3)),
                                    max_size=3)):
        es += [a, draw(pairing_entries) if free == 3 else -(a * s)]
    if draw(st.integers(0, 3)) == 3:
        es.append(draw(anything))
    return draw(st.permutations(es))


# one entry with the single base t^2 - t, the other with the bases t and t - 1
_SPLIT = typed_powers(1, [(UPoly.x(), 1), (UPoly.of(-1, 1), 1)])
_WHOLE = typed_powers(1, [(UPoly.of(0, -1, 1), 1)])


@settings(SETTINGS, max_examples=200)
@given(pairing_forms())
@example([_WHOLE, -_SPLIT])
@example([_WHOLE, _SPLIT * RatFunc.coerce(4)])
def test_qt_hyperbolic_pairing_agrees_with_the_product_walk(es):
    assert hyperbolic_pairing(DiagForm.make(RATFUNC, es)) == greedy_pairing(es)


@SETTINGS
@given(fraction_lists.filter(bool), nonzero_fractions)
def test_ratfunc_make_with_a_constant_denominator_takes_the_gcd_path(coeffs, c):
    num, den = UPoly.of(*coeffs), UPoly.of(c)
    g = num.gcd(den)
    num, den = num // g, den // g
    lead = den.lc
    want = (num.scale(1 / lead), den.scale(1 / lead))
    got = RatFunc.make(UPoly.of(*coeffs), UPoly.of(c))
    assert (got.num, got.den) == want


# --- I^2 by the discriminant ----------------------------------------------------

@st.composite
def forms_in_every_context(draw):
    """(form, whether the signed product of its entries is a square), over each
    of the five contexts, the square read by that context's own test."""
    kind = draw(st.sampled_from(["rationals", "real-closed", "complexes", "finite", "ratfunc"]))
    n = draw(st.integers(0, 5))
    sign = -1 if (n * (n - 1) // 2) % 2 else 1
    if kind == "ratfunc":
        es = draw(st.lists(pairing_entries, min_size=n, max_size=n))
        d = signed_product(es)
        odd = odd_multiplicity_part(squarefree_decomposition(d.num * d.den))
        square = is_rational_square(d.num.lc) and odd.degree == 0
        return DiagForm.make(RATFUNC, es), square
    if kind == "finite":
        p = draw(primes)
        es = draw(st.lists(wide_ints.filter(lambda e: e % p), min_size=n, max_size=n))
        d = sign
        for e in es:
            d = d * e % p
        return DiagForm.make(finite_field(p), es), d % p in {x * x % p for x in range(1, p)}
    es = draw(st.lists(nonzero_fractions, min_size=n, max_size=n))
    d = Fraction(sign)
    for e in es:
        d *= e
    ctx = {"rationals": RATIONALS, "real-closed": REAL_CLOSED, "complexes": COMPLEXES}[kind]
    square = {"rationals": is_rational_square(d), "real-closed": d > 0, "complexes": True}[kind]
    return DiagForm.make(ctx, es), square


@settings(SETTINGS, max_examples=200)
@given(forms_in_every_context(), st.lists(orderings, max_size=3))
def test_second_power_is_even_rank_and_trivial_discriminant(case, sample):
    form, square = case
    want = Membership.YES if form.dim % 2 == 0 and square else Membership.NO
    assert in_fundamental_power(form, 2, sample if form.ctx == RATFUNC else ()) is want


# --- Hilbert symbols and conics ---------------------------------------------------

def locally_soluble(a, b, p, k):
    """Does z^2 = a*x^2 + b*y^2 have a solution mod p^k with x, y, z not all
    divisible by p?  For square-free a and b, such a solution mod p^3 (p odd)
    or mod 2^5 lifts to Z_p by Hensel's lemma, so this decides solubility over
    Q_p.  Scaling by a unit makes the first unit coordinate 1, and z = 1 with
    p dividing x and y is impossible, since then p^2 divides a*x^2 + b*y^2."""
    m = p ** k
    squares = {z * z % m for z in range(m)}
    return (any((a + b * y * y) % m in squares for y in range(m))
            or any((a * x * x + b) % m in squares for x in range(0, m, p)))


squarefree_classes = st.builds(lambda sign, ps: sign * prod(ps), st.sampled_from([1, -1]),
                               st.sets(st.sampled_from([2, 3, 5, 7, 11, 13, 17]), max_size=3))
rational_squares = nonzero_fractions.map(lambda r: r * r)


@settings(SETTINGS, max_examples=300)
@given(squarefree_classes, squarefree_classes, st.sampled_from([2, 3, 5, 7, 11, 13]),
       rational_squares, rational_squares)
def test_hilbert_symbol_is_local_solubility(a, b, p, r, s):
    want = 1 if locally_soluble(a, b, p, 5 if p == 2 else 3) else -1
    assert hilbert_symbol(a * r, b * s, p) == want


def prime_factors(n):
    out, d, n = set(), 2, abs(n)
    while d * d <= n:
        while n % d == 0:
            out.add(d)
            n //= d
        d += 1
    return out | ({n} if n > 1 else set())


wide_fractions = st.builds(Fraction, st.integers(-10 ** 4, 10 ** 4).filter(bool),
                           st.integers(1, 60))


@settings(SETTINGS, max_examples=200)
@given(wide_fractions, wide_fractions)
def test_hilbert_symbols_satisfy_the_product_formula(a, b):
    bad = prime_factors(a.numerator * a.denominator * b.numerator * b.denominator) | {2}
    assert prod(hilbert_symbol(a, b, v) for v in bad | {0}) == 1
    assert hilbert_symbol(a, b, 0) == (-1 if a < 0 and b < 0 else 1)
    # two units at an odd prime have symbol 1
    assert all(hilbert_symbol(a, b, p) == 1 for p in (3, 5, 7, 11, 13, 17, 19) if p not in bad)


@st.composite
def conics(draw):
    """(y^2 = f(x) with deg f = 2, whether a rational point was planted): f of
    either sign and closure with fractional coefficients, from random
    coefficients, a rational multiple of a circle (x - c)^2 + y^2 = s (soluble
    for s = 2, 5, 13, 1/2, 5/4; not for s = 3, 6, 7, 21, 3/4, 7/9), or
    through a planted rational point."""
    shape = draw(st.sampled_from(["random", "circle", "planted"]))
    if shape == "circle":
        c = draw(small_fractions)
        s = draw(st.sampled_from([2, 3, 5, 6, 7, 13, 21, Fraction(1, 2), Fraction(5, 4),
                                  Fraction(3, 4), Fraction(7, 9)]))
        f = UPoly.of(s - c * c, 2 * c, -1).scale(draw(nonzero_fractions))
    elif shape == "planted":
        x0, y0, a1, a2 = (draw(small_fractions), draw(nonzero_fractions),
                          draw(small_fractions), draw(nonzero_fractions))
        f = UPoly.of(y0 * y0 - a1 * x0 - a2 * x0 * x0, a1, a2)
    else:
        f = UPoly.of(draw(small_fractions), draw(small_fractions), draw(nonzero_fractions))
    assume(f.coeffs[1] ** 2 != 4 * f.coeffs[0] * f.coeffs[2])
    return Hyperelliptic(f, draw(st.booleans())), shape == "planted"


@settings(SETTINGS, max_examples=300)
@given(conics(), st.integers(1, 40))
@example((Hyperelliptic(UPoly.of(Fraction(3, 4), 0, -1)), False), 40)
@example((Hyperelliptic(UPoly.of(Fraction(5, 3), 0, Fraction(9, 7)), True), False), 40)
@example((Hyperelliptic(UPoly.of(Fraction(13, 289), 0, -1)), True), 40)
def test_conic_certificates_equal_the_full_walk(case, budget):
    """The certificate equals the full Fraction walk's; an obstruction is a
    place where the Hilbert symbol of the completed square is -1, and then no
    point of small height exists."""
    curve, planted = case
    f = curve.f
    a, b = f.lc, f.eval_at(-f.coeffs[1] / (2 * f.lc))        # y^2 = a*u^2 + b
    comps = real_components(curve)
    bits = {c.id: 0 for c in comps}
    certs = gamma_top_witness_search(curve, bits, budget)
    for cert, comp in zip(certs, [c for c in comps if c.is_circle]):
        if any(end.kind == "root" and rational_root(end.interval) is not None
               for arc in comp.arcs for end in arc):
            continue        # witnessed by a rational root end, before any search
        assert cert == witness_by_fraction_walk(curve, bits, comp, budget)
        assert cert.obstruction in (None, cycleclass._conic_obstruction(f))
    place = cycleclass._conic_obstruction(f)
    if place is None:
        assert all(hilbert_symbol(a, b, v) == 1 for v in (0, 2, 3, 5, 7, 11, 13))
        return
    assert not planted and hilbert_symbol(a, b, place) == -1
    for u, z in cartesian(range(-12, 13), range(13)):
        v = a * u * u + b * z * z
        assert (u, z) == (0, 0) or (v != 0 and not (v > 0 and is_rational_square(v)))


@settings(SETTINGS, max_examples=200)
@given(st.dictionaries(st.sampled_from([2, 3, 5, 7919, 104729]), st.integers(1, 3), max_size=3),
       st.sampled_from([1, 1000003, 999999999989, 2305843009213693951]), st.integers(1, 2),
       st.sampled_from([1, -1]))
def test_squarefree_int_of_planted_factorisations(powers, big, e, sign):
    # one prime above 10^6, once or squared: trial division leaves it, or its
    # square, as the cofactor; 2^61 - 1 is past 10^18 but proven prime
    powers[big] = e
    n = sign * prod(p ** k for p, k in powers.items())
    assert squarefree_int(n) == sign * prod(p for p, k in powers.items() if k % 2)


# --- punctured-line sign vectors ------------------------------------------------

@st.composite
def lines_on_components(draw):
    """A punctured line and its own components, in order."""
    points = st.lists(st.one_of(small_fractions, wide_fractions), max_size=8, unique=True)
    curve = PuncturedLine.make(draw(points))
    return curve, real_components(curve)


@settings(SETTINGS, max_examples=200)
@given(lines_on_components())
def test_gamma0_generators_span_the_signature_vectors_lattice(case):
    curve, comps = case
    image = gamma0_image(curve)
    vectors = evaluated_signs(curve, comps)
    assert len(image.generators) == len(vectors)
    assert hermite_form(image.generators, len(comps))[0] == hermite_form(vectors, len(comps))[0]


def test_gamma0_image_evaluates_no_polynomial(monkeypatch):
    calls = []
    sign_at = UPoly.sign_at

    def counted(self, x):
        calls.append(x)
        return sign_at(self, x)

    monkeypatch.setattr(UPoly, "sign_at", counted)
    for n in (0, 1, 7, 40):
        curve = PuncturedLine.make([Fraction(i * i - 30, i % 5 + 1) for i in range(n)])
        assert len(gamma0_image(curve).generators) == n + 1
    assert calls == []


def test_gamma0_cokernel_runs_no_elimination(monkeypatch):
    for name in ("hermite_form", "_smith_elimination", "_diagonalize"):
        monkeypatch.setattr(abgrp, name, refused)
    curve = PuncturedLine.make(range(400))
    assert coker_report(gamma0_image(curve)) == (2 ** 400, 2)


@st.composite
def square_sublattices(draw):
    """n generators in Z^n, n <= 7: dense ones, ones with rows that are a
    signed unit vector, a diagonal scaled and permuted, and the parity
    shape (1, ..., 1), d_1*e_1, ...; any of them may be made rank-deficient
    by replacing a row with a combination of the others."""
    n = draw(st.integers(1, 7))
    shape = draw(st.sampled_from(["dense", "units", "diagonal", "parity"]))
    if shape == "dense":
        rows = draw(st.lists(st.lists(st.integers(-4, 4), min_size=n, max_size=n),
                             min_size=n, max_size=n))
    elif shape == "units":
        rows = draw(st.lists(st.lists(st.sampled_from([0, 0, 1, -1, 2]), min_size=n, max_size=n),
                             min_size=n, max_size=n))
        for i in draw(st.sets(st.integers(0, n - 1))):
            rows[i] = [0] * n
            rows[i][draw(st.integers(0, n - 1))] = draw(st.sampled_from([1, -1]))
    else:
        scales = draw(st.lists(st.integers(-12, 12), min_size=n, max_size=n))
        rows = [[d * (i == j) for j in range(n)] for i, d in enumerate(scales)]
        if shape == "parity":
            rows[0] = [1] * n
        rows = draw(st.permutations(rows))
    if n > 1 and draw(st.booleans()):
        coeffs = draw(st.lists(st.integers(-2, 2), min_size=n - 1, max_size=n - 1))
        rows[-1] = [sum(c * r[j] for c, r in zip(coeffs, rows)) for j in range(n)]
    return Lattice(FgAbGroup.free(*(f"e{i}" for i in range(n))), tuple(map(tuple, rows)))


@settings(SETTINGS, max_examples=200)
@given(square_sublattices())
@example(knebusch_gamma(41))
@example(Lattice(FgAbGroup.free("a", "b"), ((0, 0), (0, 3))))
def test_coker_report_is_the_determinant_and_the_last_smith_entry(image):
    gens = [list(g) for g in image.generators]
    det = det_bareiss(gens)
    if det == 0:
        assert coker_report(image) == (None, 0)
    else:
        assert coker_report(image) == (abs(det), smith_normal_form(gens).diagonal[-1])


# --- the report renderer -----------------------------------------------------------

JSON_TEXT = st.text() | st.text(alphabet='"\\/\x00\x08\x1f\x7f\n\t aé€ \U0001f600')
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | JSON_TEXT
    | st.integers() | st.integers(min_value=-10 ** 400, max_value=10 ** 400),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(JSON_TEXT, inner, max_size=4),
    max_leaves=20)


@settings(SETTINGS, max_examples=300)
@given(JSON_VALUES)
@example([])
@example({})
@example({"": [[], {}, [{}]], "a\"b\\c": {"\x01é": -(10 ** 300)}})
@example([[1, -2, 10 ** 400], [0, True], [False, 1], [None, 3], [2, "2"]])
def test_render_json_is_json_dumps_indent_2(value):
    assert cli.render_json(value) == json.dumps(value, indent=2)
