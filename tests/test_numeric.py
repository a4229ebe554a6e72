import random
import sys
from fractions import Fraction

import pytest

from realcycle.errors import BadInterval, NotSquareFree, ZeroPolynomial
from realcycle.numeric import (
    ExtendedPoint,
    UPoly,
    count_real_roots,
    isolate_coprime_roots,
    isolate_real_roots,
    odd_multiplicity_part,
    rational_root,
    sign_at,
    squarefree_decomposition,
    squarefree_part,
    sturm_sequence,
)

NEG_INF = ExtendedPoint.neg_inf()
POS_INF = ExtendedPoint.pos_inf()


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


class TestSturmSequence:
    def test_t2_minus_2(self):
        chain = sturm_sequence(UPoly.of(-2, 0, 1))
        assert chain == (UPoly.of(-2, 0, 1), UPoly.of(0, 2), UPoly.of(1))

    def test_remainders_stay_small(self):
        # twenty roots with denominators 1..7: Q-remainders reach 15332 bits
        p = UPoly.from_roots([Fraction(i, (i % 7) + 1) for i in range(1, 21)])
        chain = sturm_sequence(p)
        assert all(g.den == 1 for g in chain[2:])
        assert max(max(abs(n).bit_length() for n in g.nums) + g.den.bit_length()
                   for g in chain) < 1000
        assert count_real_roots(p, NEG_INF, POS_INF) == 20

    def test_constant(self):
        assert sturm_sequence(UPoly.of(5)) == (UPoly.of(5),)

    def test_square_reduces(self):
        chain = sturm_sequence(UPoly.of(0, 0, 1))  # t^2
        assert chain == (UPoly.of(0, 1), UPoly.of(1))

    def test_zero_rejected(self):
        with pytest.raises(ZeroPolynomial):
            sturm_sequence(UPoly.zero())


class TestCountRealRoots:
    def test_sqrt2_in_0_2(self):
        p = UPoly.of(-2, 0, 1)
        assert count_real_roots(p, ExtendedPoint.at(0), ExtendedPoint.at(2)) == 1
        assert brute_sign_scan_roots(p, Fraction(0), Fraction(2)) == 1

    def test_positive_definite(self):
        assert count_real_roots(UPoly.of(1, 0, 1), NEG_INF, POS_INF) == 0

    def test_t3_minus_t(self):
        assert count_real_roots(UPoly.of(0, -1, 0, 1), NEG_INF, POS_INF) == 3

    def test_root_at_endpoint_excluded(self):
        p = UPoly.of(0, 1)  # t
        assert count_real_roots(p, ExtendedPoint.at(0), ExtendedPoint.at(1)) == 0
        assert count_real_roots(p, ExtendedPoint.at(-1), ExtendedPoint.at(0)) == 0
        assert count_real_roots(p, ExtendedPoint.below(0), ExtendedPoint.at(1)) == 1

    def test_bad_interval(self):
        with pytest.raises(BadInterval):
            count_real_roots(UPoly.of(0, 1), ExtendedPoint.at(2), ExtendedPoint.at(1))

    def test_random_products_of_linear_factors(self):
        rng = random.Random(20240)
        for _ in range(100):
            n = rng.randint(1, 6)
            roots = set()
            while len(roots) < n:
                roots.add(Fraction(rng.randint(-12, 12), rng.randint(1, 8)))
            lead = rng.choice([-3, -1, 1, 2])
            p = UPoly.from_roots(sorted(roots), lead)
            assert count_real_roots(p, NEG_INF, POS_INF) == n


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
                    for v in (iv.poly.eval_at(iv.lo), iv.poly.eval_at(iv.midpoint()), iv.poly.eval_at(iv.hi))
                ]
                nonzero = [s for s in signs if s]
                changes = sum(1 for a, b in zip(nonzero, nonzero[1:]) if a != b)
                assert changes == 1
            # disjoint and sorted
            for left, right in zip(ivs, ivs[1:]):
                assert left.hi <= right.lo


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


class TestSignAt:
    def test_side_plus_after_root(self):
        assert sign_at(UPoly.of(0, -1, 0, 1), ExtendedPoint.above(0)) == -1

    def test_leading_behavior(self):
        assert sign_at(UPoly.x(), POS_INF) == 1
        assert sign_at(UPoly.x(), NEG_INF) == -1
        assert sign_at(UPoly.of(0, 0, -1), NEG_INF) == -1

    def test_exact_root(self):
        assert sign_at(UPoly.of(-1, 1), ExtendedPoint.at(1)) == 0

    def test_zero_polynomial(self):
        assert sign_at(UPoly.zero(), ExtendedPoint.above(0)) == 0

    def test_double_root_sides(self):
        p = UPoly.of(0, 0, 1)  # t^2
        assert sign_at(p, ExtendedPoint.above(0)) == 1
        assert sign_at(p, ExtendedPoint.below(0)) == 1
        p3 = UPoly.of(0, 0, 0, 1)  # t^3
        assert sign_at(p3, ExtendedPoint.below(0)) == -1

    def test_multiplicative_on_sides(self):
        rng = random.Random(5)
        pts = [ExtendedPoint.above(0), ExtendedPoint.below(1), NEG_INF, POS_INF,
               ExtendedPoint.above(Fraction(-1, 2))]
        for _ in range(60):
            p = UPoly.of(*(rng.randint(-4, 4) for _ in range(rng.randint(1, 5))))
            q = UPoly.of(*(rng.randint(-4, 4) for _ in range(rng.randint(1, 5))))
            if p.is_zero or q.is_zero:
                continue
            for x in pts:
                assert sign_at(p * q, x) == sign_at(p, x) * sign_at(q, x)


class TestSquarefree:
    def test_examples(self):
        assert squarefree_part(UPoly.of(0, 0, 1)) == UPoly.x()
        shape = UPoly.of(-1, 1) * UPoly.of(-1, 1) * UPoly.of(2, 1)
        assert squarefree_part(shape) == UPoly.of(-1, 1) * UPoly.of(2, 1)
        assert squarefree_part(UPoly.of(-2, 0, 1)) == UPoly.of(-2, 0, 1)

    def test_sign_convention(self):
        p = UPoly.of(0, 0, -2)  # -2t^2
        assert squarefree_part(p) == UPoly.of(0, -1)

    def test_idempotent(self):
        rng = random.Random(11)
        for _ in range(60):
            p = UPoly.of(*(rng.randint(-5, 5) for _ in range(rng.randint(1, 6))))
            if p.is_zero:
                continue
            s = squarefree_part(p)
            assert squarefree_part(s) == s

    def test_part_climbs_one_rung(self, monkeypatch):
        # the first rung costs one gcd, and a linear one none
        calls = []
        gcd = UPoly.gcd
        monkeypatch.setattr(UPoly, "gcd", lambda p, q: calls.append(p) or gcd(p, q))
        assert squarefree_part(UPoly.from_roots([-1] * 50, -2)) == UPoly.of(-1, -1)
        assert squarefree_part(UPoly.of(3, 2)) == UPoly.of(Fraction(3, 2), 1)
        assert len(calls) == 1

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
