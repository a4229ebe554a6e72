import random
import sys
from fractions import Fraction
from math import prod

import pytest

from realcycle import numeric
from realcycle.errors import NotSquareFree, ZeroPolynomial
from realcycle.numeric import (
    UPoly,
    _sturm_chain,
    _variations,
    coprime_basis,
    isolate_coprime_roots,
    isolate_real_roots,
    odd_multiplicity_part,
    rational_root,
    root_bound,
    sign_of,
    squarefree_decomposition,
    squarefree_sign_at,
)

NEG_INF = (None, -1)
POS_INF = (None, 1)


def brute_sign_scan_roots(p, lo, hi, steps=2000):
    """Independent root counter for polynomials with well-separated roots:
    scan a fine rational grid and count sign changes."""
    count = 0
    prev = None
    for k in range(steps + 1):
        x = lo + Fraction(k * (hi - lo), steps)
        v = p.eval_at(x)
        s = (v > 0) - (v < 0)
        if s == 0:
            count += 1
            prev = None
            continue
        if prev is not None and s != prev:
            count += 1
        prev = s
    return count


class TestArithmetic:
    def test_mul_and_divmod_roundtrip(self):
        p = UPoly.of(1, 2, 3)
        q = UPoly.of(-1, 1)
        prod = p * q
        quo, rem = prod.divmod(q)
        assert quo == p and rem.is_zero

    def test_eval(self):
        p = UPoly.of(-2, 0, 1)  # t^2 - 2
        assert p.eval_at(2) == 2
        assert p.eval_at(Fraction(3, 2)) == Fraction(1, 4)

    def test_from_roots(self):
        p = UPoly.from_roots([1, -1, 0])
        assert p == UPoly.of(0, -1, 0, 1)  # t^3 - t

    def test_gcd_is_monic(self):
        p = UPoly.of(-2, 0, 2)   # 2t^2 - 2
        q = UPoly.of(-3, 3)      # 3t - 3
        assert p.gcd(q) == UPoly.of(-1, 1)


def sturm_count(q, lo=None, hi=None):
    """Distinct roots of a square-free q in (lo, hi), neither end a root, by
    the sign variations of its Sturm chain; None stands for infinity."""
    chain = _sturm_chain(q)

    def variations(x, side):
        if x is None:
            return _variations([sign_of(g.nums[-1]) * side ** g.degree for g in chain])
        return _variations([g.sign_at(x) for g in chain])

    return variations(lo, -1) - variations(hi, 1)


class TestSturmChain:
    def test_t2_minus_2(self):
        chain = _sturm_chain(UPoly.of(-2, 0, 1))
        assert chain == (UPoly.of(-2, 0, 1), UPoly.of(0, 2), UPoly.of(1))

    def test_remainders_stay_small(self):
        # twenty roots with denominators 1..7: Q-remainders reach 15332 bits
        p = UPoly.from_roots([Fraction(i, (i % 7) + 1) for i in range(1, 21)])
        chain = _sturm_chain(p)
        assert all(g.den == 1 for g in chain[2:])
        assert max(max(abs(n).bit_length() for n in g.nums) + g.den.bit_length()
                   for g in chain) < 1000
        assert sturm_count(p) == 20

    def test_constant(self):
        assert _sturm_chain(UPoly.of(5)) == (UPoly.of(5),)

    def test_square_is_refused(self):
        # the chain of t^2 ends at gcd(t^2, 2t) = t
        with pytest.raises(NotSquareFree):
            _sturm_chain(UPoly.of(0, 0, 1))

    def test_sqrt2_in_0_2(self):
        p = UPoly.of(-2, 0, 1)
        assert sturm_count(p, Fraction(0), Fraction(2)) == 1
        assert brute_sign_scan_roots(p, Fraction(0), Fraction(2)) == 1

    def test_positive_definite(self):
        assert sturm_count(UPoly.of(1, 0, 1)) == 0

    def test_t3_minus_t(self):
        assert sturm_count(UPoly.of(0, -1, 0, 1)) == 3

    def test_random_products_of_linear_factors(self):
        rng = random.Random(20240)
        for _ in range(100):
            n = rng.randint(1, 6)
            roots = set()
            while len(roots) < n:
                roots.add(Fraction(rng.randint(-12, 12), rng.randint(1, 8)))
            lead = rng.choice([-3, -1, 1, 2])
            p = UPoly.from_roots(sorted(roots), lead)
            assert sturm_count(p) == n
            assert len(isolate_real_roots(p)) == n


class TestIsolateRealRoots:
    def test_t3_minus_t(self):
        ivs = isolate_real_roots(UPoly.of(0, -1, 0, 1))
        assert len(ivs) == 3
        for iv, root in zip(ivs, (-1, 0, 1)):
            assert iv.lo < root < iv.hi

    def test_no_real_roots(self):
        assert isolate_real_roots(UPoly.of(1, 0, 1)) == ()

    def test_multiple_root_isolated_once(self):
        ivs = isolate_real_roots(UPoly.of(1, -2, 1))  # (t-1)^2
        assert len(ivs) == 1
        assert ivs[0].lo < 1 < ivs[0].hi
        # the interval carries the basis polynomial t - 1
        assert ivs[0].poly == UPoly.of(-1, 1)

    def test_zero_rejected(self):
        with pytest.raises(ZeroPolynomial):
            isolate_real_roots(UPoly.zero())

    def test_one_sign_change_per_interval(self):
        rng = random.Random(77)
        for _ in range(100):
            n = rng.randint(1, 5)
            roots = set()
            while len(roots) < n:
                roots.add(Fraction(rng.randint(-10, 10), rng.randint(1, 6)))
            p = UPoly.from_roots(sorted(roots), rng.choice([-2, 1, 3]))
            ivs = isolate_real_roots(p)
            assert len(ivs) == n
            for iv in ivs:
                signs = [
                    (v > 0) - (v < 0)
                    for v in (iv.poly.eval_at(iv.lo), iv.poly.eval_at((iv.lo + iv.hi) / 2), iv.poly.eval_at(iv.hi))
                ]
                nonzero = [s for s in signs if s]
                changes = sum(1 for a, b in zip(nonzero, nonzero[1:]) if a != b)
                assert changes == 1
            # disjoint and sorted
            for left, right in zip(ivs, ivs[1:]):
                assert left.hi <= right.lo


    def test_one_root_scales_and_reads_no_chain(self, monkeypatch):
        # f = t^30 + (t - c)^36 t - t, the shape of the slow-gcd curve's f
        # with a smaller c, has one real root: [-bound, bound] is its
        # interval, so no chain element is scaled, let alone read
        def refused(*args):
            raise AssertionError("a chain element was scaled or read")

        f = UPoly.of(*[0] * 30, 1) + UPoly.from_roots([1000] * 36) * UPoly.x() - UPoly.x()
        monkeypatch.setattr(numeric, "_scaled", refused)
        monkeypatch.setattr(numeric, "_dyadic_sign", refused)
        ivs = isolate_real_roots(f)
        assert [(iv.lo, iv.hi) for iv in ivs] == [(-root_bound(f.monic()), root_bound(f.monic()))]


class TestIsolateCoprimeRoots:
    def test_a_repeated_root_is_refused(self):
        # the chain of (t-1)^2 (t-2) ends at gcd(p, p') = t - 1, not at a
        # constant; cut short there, it would isolate the double root in an
        # interval that refines away from it
        with pytest.raises(NotSquareFree):
            isolate_coprime_roots([UPoly.from_roots([1, 1, 2])])


class TestRationalRoot:
    def test_reads_rational_roots_off_the_intervals(self):
        # (3t - 1)(t^2 - 2)(2t + 5)/7: roots -5/2, -sqrt 2, 1/3, sqrt 2
        p = (UPoly.of(-1, 3) * UPoly.of(-2, 0, 1) * UPoly.of(5, 2)).scale(Fraction(1, 7))
        got = [rational_root(iv) for iv in isolate_real_roots(p)]
        assert got == [Fraction(-5, 2), None, Fraction(1, 3), None]

    def test_zero_and_repeated_roots(self):
        p = UPoly.from_roots([0, 0, Fraction(-2, 3), Fraction(-2, 3), 4])
        assert [rational_root(iv) for iv in isolate_real_roots(p)] == [Fraction(-2, 3), 0, 4]


class TestSquarefreeSignAt:
    def test_side_plus_after_root(self):
        assert squarefree_sign_at(UPoly.of(0, -1, 0, 1), 0, 1) == -1

    def test_leading_behavior(self):
        assert squarefree_sign_at(UPoly.x(), *POS_INF) == 1
        assert squarefree_sign_at(UPoly.x(), *NEG_INF) == -1
        assert squarefree_sign_at(UPoly.of(1, 0, -1), *NEG_INF) == -1

    def test_sides_of_a_root(self):
        t = UPoly.x()
        assert squarefree_sign_at(t, 0, -1) == -1
        assert squarefree_sign_at(t, 0, 1) == 1

    def test_multiplicative_on_sides(self):
        # p and q have distinct rational roots, none shared, so p*q is
        # square-free; the points include both sides of some of the roots
        rng = random.Random(5)
        pts = [(0, 1), (1, -1), NEG_INF, POS_INF, (Fraction(-1, 2), 1), (Fraction(-1, 2), -1)]
        for _ in range(60):
            roots = list({Fraction(rng.randint(-2, 2), rng.randint(1, 2)) for _ in range(5)})
            k = rng.randint(1, len(roots) - 1) if len(roots) > 1 else 1
            p = UPoly.from_roots(roots[:k], rng.choice([-3, -1, 2]))
            q = UPoly.from_roots(roots[k:], rng.choice([-1, 1, Fraction(1, 2)]))
            for x in pts:
                assert squarefree_sign_at(p * q, *x) == (
                    squarefree_sign_at(p, *x) * squarefree_sign_at(q, *x))


class TestSquarefree:
    def test_basis_of_one_polynomial_is_its_squarefree_part(self):
        assert coprime_basis([UPoly.of(0, 0, 1)]) == (UPoly.x(),)
        shape = UPoly.of(-1, 1) * UPoly.of(-1, 1) * UPoly.of(2, 1)
        assert prod(coprime_basis([shape]), start=UPoly.one()) == UPoly.of(-1, 1) * UPoly.of(2, 1)
        assert coprime_basis([UPoly.of(-2, 0, 1)]) == (UPoly.of(-2, 0, 1),)
        assert coprime_basis([UPoly.of(0, 0, -2)]) == (UPoly.x(),)

    def test_idempotent(self):
        rng = random.Random(11)
        for _ in range(60):
            p = UPoly.of(*(rng.randint(-5, 5) for _ in range(rng.randint(1, 6))))
            if p.is_zero:
                continue
            s = prod(coprime_basis([p]), start=UPoly.one())
            assert prod(coprime_basis([s]), start=UPoly.one()) == s

    def test_decomposition(self):
        p = UPoly.from_roots([1, 1, -2])  # (t-1)^2 (t+2)
        assert odd_multiplicity_part(squarefree_decomposition(p)) == UPoly.of(2, 1)

    def test_thousandth_power_takes_one_full_degree_gcd(self, monkeypatch):
        # Yun's recurrence works on the square-free part t + 1 after the
        # first gcd; the rung-by-rung ladder took 999 gcds above degree 1
        degrees = []
        gcd = UPoly.gcd
        monkeypatch.setattr(UPoly, "gcd", lambda p, q: degrees.append(p.degree) or gcd(p, q))
        assert squarefree_decomposition(UPoly.from_roots([-1] * 1000)) == ((UPoly.of(1, 1), 1000),)
        assert [d for d in degrees if d > 1] == [1000]

    def test_quadratics_take_no_gcd(self, monkeypatch):
        monkeypatch.setattr(UPoly, "gcd", None)
        assert squarefree_decomposition(UPoly.of(3, -6)) == ((UPoly.of(Fraction(-1, 2), 1), 1),)
        assert squarefree_decomposition(UPoly.of(2, -4, 2)) == ((UPoly.of(-1, 1), 2),)
        assert squarefree_decomposition(UPoly.of(-2, 0, 4)) == ((UPoly.of(Fraction(-1, 2), 0, 1), 1),)

    def test_odd_part_of_a_thousandth_power(self):
        # one multiplicity level per power: more levels than the default
        # recursion limit has frames
        old = sys.getrecursionlimit()
        sys.setrecursionlimit(1000)
        try:
            factors = squarefree_decomposition(UPoly.from_roots([-1] * 1000))
            assert factors == ((UPoly.of(1, 1), 1000),)
            assert odd_multiplicity_part(factors) == UPoly.one()
        finally:
            sys.setrecursionlimit(old)
