"""Property tests on generated inputs, each against an independent oracle.

Sizes are kept small (dimension <= 5, entries <= 9, degree <= 8 and 24 for
planted factorisations; Smith forms up to 12 x 12; primes up to 31) so that the
whole module runs in a few seconds; the example order is derandomised, so a
run is reproducible.
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
    odd_multiplicity_part,
    rational_root,
    sign_at,
    split_root,
)
from realcycle.qform import (
    RATFUNC,
    RATIONALS,
    DiagForm,
    Fp,
    Ordering,
    RatFunc,
    discriminant,
    finite_field,
    hyperbolic_pairing,
    pfister,
    signature,
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
    assert odd_multiplicity_part(p) == odd


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
    want = sum(sign_at(e.num * e.den, ordering.point) for e in form.entries)
    assert signature(form, ordering) == want
