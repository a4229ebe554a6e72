"""Property tests on generated inputs, each against an independent oracle.

Sizes are kept small (dimension <= 5, entries <= 9, degree <= 8; Smith forms
up to 12 x 12) so that the whole module runs in a few seconds; the example
order is derandomised, so a run is reproducible.
"""

from fractions import Fraction
from math import gcd, isqrt, lcm

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from realcycle.abgrp import (
    FgAbGroup,
    Lattice,
    lattice_basis,
    lattice_spans,
    lattices_equal,
    smith_normal_form,
    solve_in_lattice,
)
from realcycle.cycleclass import rational_roots
from realcycle.numeric import (
    ExtendedPoint,
    UPoly,
    count_real_roots,
    is_rational_square,
    isolate_real_roots,
    rational_root,
    split_root,
)
from realcycle.realcurve import Hyperelliptic, component_containing, real_components

SETTINGS = settings(max_examples=60, deadline=None, derandomize=True)

entries = st.integers(-9, 9)
small_fractions = st.builds(Fraction, st.integers(-40, 40), st.integers(1, 8))


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
def test_lattice_spans_agrees_with_solve_per_vector(case):
    dim, gens, vectors = case
    expected = all(solve_in_lattice(gens, v) is not None for v in vectors)
    assert lattice_spans(gens, vectors, dim) == expected
    for v in vectors:
        coeffs = solve_in_lattice(gens, v)
        if coeffs is not None:
            assert [sum(c * g[i] for c, g in zip(coeffs, gens)) for i in range(dim)] == list(v)


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
    assert lattice_spans(basis, gens, dim)
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


@SETTINGS
@given(st.lists(small_fractions, min_size=1, max_size=5).filter(lambda cs: cs[-1] != 0),
       small_fractions, st.integers(0, 3))
def test_split_root_reconstructs(coeffs, a, k):
    p = UPoly.of(*coeffs)
    linear = UPoly.of(-a, 1)
    for _ in range(k):
        p = p * linear
    u, m = split_root(p, a)
    assert m >= k
    assert u.eval_at(a) != 0
    power = UPoly.one()
    for _ in range(m):
        power = power * linear
    assert power * u == p


@SETTINGS
@given(small_fractions, st.booleans(), st.sampled_from([1, -1]))
def test_is_rational_square_agrees_with_isqrt(r, square_it, sign):
    x = sign * (r * r if square_it else r)
    a, b = x.numerator, x.denominator
    # a/b in lowest terms is a square iff a*b is, and then sqrt(x) = isqrt(ab)/b
    expected = x > 0 and Fraction(isqrt(a * b), b) ** 2 == x
    assert is_rational_square(x) == expected


@st.composite
def square_free_curves(draw):
    roots = draw(st.lists(small_fractions, max_size=4, unique=True))
    extra = draw(st.lists(st.integers(-6, 6), min_size=1, max_size=4).filter(lambda cs: cs[-1] != 0))
    f = UPoly.from_roots(roots, lead=draw(st.sampled_from([1, -1, 2]))) * UPoly.of(*extra)
    assume(f.degree >= 1 and f.gcd(f.deriv()).degree == 0)
    return Hyperelliptic(f, draw(st.booleans())), roots


def locate_by_counting(curve, components, x):
    """The component holding abscissa x, found by Sturm root counts below x
    instead of by the isolating intervals of the components."""
    f = curve.f
    if f.eval_at(x) < 0:
        return None
    below = count_real_roots(f, ExtendedPoint.neg_inf(), ExtendedPoint.at(x))
    on_root = f.eval_at(x) == 0

    def compare(end):           # sign of x minus the end
        if end.kind in ("-inf", "+inf"):
            return 1 if end.kind == "-inf" else -1
        if on_root and below == end.root_index:
            return 0
        return -1 if below + on_root <= end.root_index else 1

    for comp in components:
        for lo, hi in comp.arcs:
            cl, ch = compare(lo), compare(hi)
            if (cl == 0 and lo.kind == "root") or (ch == 0 and hi.kind == "root") \
                    or (cl > 0 and ch < 0):
                return comp
    return None


@SETTINGS
@given(square_free_curves(), st.lists(small_fractions, max_size=4))
def test_component_containing_agrees_with_root_counts(case, points):
    curve, roots = case
    comps = real_components(curve)
    for x in roots + points:
        assert component_containing(curve, comps, x) == locate_by_counting(curve, comps, x)


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


nonzero_fractions = small_fractions.filter(lambda r: r != 0)


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
    found = rational_roots(f)
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
