import random
import time
from fractions import Fraction

import pytest

from realcycle import qform
from realcycle.errors import (
    ContextMismatch,
    FactorizationLimit,
    UnorderedContext,
    UnsupportedContext,
    ZeroEntry,
)
from realcycle.numeric import UPoly
from realcycle.qform import (
    COMPLEXES,
    RATFUNC,
    RATIONALS,
    REAL_CLOSED,
    DiagForm,
    GWElem,
    Membership,
    Ordering,
    Place,
    RatFunc,
    direct_sum,
    discriminant,
    finite_field,
    form_value,
    gw_to_form,
    hyperbolic_pairing,
    in_fundamental_power,
    is_isotropic_vector,
    is_square,
    mult_by_pfister_minus_one,
    pfister,
    second_residue,
    signature,
    square_class,
    squarefree_int,
    tensor,
)

T = UPoly.x()


def rf_form(*polys):
    return DiagForm.make(RATFUNC, [RatFunc.coerce(p) for p in polys])


def random_ratfunc_form(rng, dim_max=4, deg_max=2):
    entries = []
    for _ in range(rng.randint(1, dim_max)):
        while True:
            p = UPoly.of(*(rng.randint(-4, 4) for _ in range(rng.randint(1, deg_max + 1))))
            if not p.is_zero:
                entries.append(p)
                break
    return rf_form(*entries)


def random_ratfunc_ordering(rng):
    roll = rng.random()
    if roll < 0.1:
        return Ordering.at_neg_inf()
    if roll < 0.2:
        return Ordering.at_pos_inf()
    base = Fraction(rng.randint(-8, 8), rng.randint(1, 5))
    return Ordering.above(base) if rng.random() < 0.5 else Ordering.below(base)


class TestSumAndProduct:
    def test_direct_sum(self):
        phi = DiagForm.make(RATIONALS, [1])
        psi = DiagForm.make(RATIONALS, [-1])
        assert direct_sum(phi, psi).entries == (Fraction(1), Fraction(-1))

    def test_tensor_scales(self):
        two = DiagForm.make(RATIONALS, [1, 1])
        a = DiagForm.make(RATIONALS, [5])
        assert tensor(two, a).entries == (Fraction(5), Fraction(5))

    def test_binary_pfister_product(self):
        a, b = Fraction(3), Fraction(7)
        lhs = tensor(DiagForm.make(RATIONALS, [1, -a]), DiagForm.make(RATIONALS, [1, -b]))
        assert lhs.entries == (Fraction(1), -b, -a, a * b)

    def test_context_mismatch(self):
        with pytest.raises(ContextMismatch):
            direct_sum(DiagForm.make(RATIONALS, [1]), DiagForm.make(REAL_CLOSED, [1]))


class TestPfister:
    def test_minus_one_slot(self):
        assert pfister(RATIONALS, -1).entries == (Fraction(1), Fraction(1))

    def test_steinberg_isotropy(self):
        a = Fraction(5)
        phi = pfister(RATIONALS, a, 1 - a)
        assert phi.entries == (1, -(1 - a), -a, a * (1 - a))
        assert is_isotropic_vector(phi, (1, 1, 1, 0))

    def test_empty_product(self):
        assert pfister(RATIONALS).entries == (Fraction(1),)

    def test_zero_slot_rejected(self):
        with pytest.raises(ZeroEntry):
            pfister(RATIONALS, 0)

    def test_steinberg_isotropy_random(self):
        rng = random.Random(303)
        for _ in range(200):
            a = Fraction(rng.randint(-30, 30), rng.randint(1, 10))
            if a in (0, 1):
                continue
            phi = pfister(RATIONALS, a, 1 - a)
            assert form_value(phi, (1, 1, 1, 0)) == 0


class TestOrdering:
    def test_describe(self):
        got = [o.describe() for o in (Ordering.archimedean(), Ordering.at_neg_inf(),
                                      Ordering.at_pos_inf(), Ordering.above(Fraction(1, 2)),
                                      Ordering.below(3))]
        assert got == ["archimedean", "-inf", "+inf", "1/2+", "3-"]

    def test_exact_point_is_not_an_ordering(self):
        with pytest.raises(UnorderedContext, match="exact point"):
            Ordering(Fraction(1, 2))


class TestSignature:
    def test_hyperbolic_is_zero(self):
        phi = DiagForm.make(RATIONALS, [1, -1])
        assert signature(phi, Ordering.archimedean()) == 0

    def test_side_orderings_over_ratfunc(self):
        phi = rf_form(T)
        assert signature(phi, Ordering.above(0)) == 1
        assert signature(phi, Ordering.below(0)) == -1

    def test_doubling_example(self):
        phi = rf_form(T, T - UPoly.one(), UPoly.of(-1))
        p = Ordering.above(Fraction(1, 2))
        assert signature(phi, p) == -1
        assert signature(mult_by_pfister_minus_one(phi), p) == -2

    def test_unordered_context(self):
        with pytest.raises(UnorderedContext):
            signature(DiagForm.make(COMPLEXES, [1]), Ordering.archimedean())
        with pytest.raises(UnorderedContext):
            signature(DiagForm.make(finite_field(5), [1]), Ordering.archimedean())

    def test_ratfunc_needs_a_point(self):
        # the archimedean ordering has no side, so it orders no entry of Q(t)
        with pytest.raises(UnorderedContext, match="needs a point"):
            signature(rf_form(T), Ordering.archimedean())

    def test_gw_difference(self):
        x = GWElem(DiagForm.make(RATIONALS, [1, 1]), DiagForm.make(RATIONALS, [1]))
        assert signature(x, Ordering.archimedean()) == 1

    def test_doubling_a_difference_doubles_each_half(self):
        x = GWElem(DiagForm.make(RATIONALS, [1, 3]), DiagForm.make(RATIONALS, [-2]))
        doubled = mult_by_pfister_minus_one(x)
        two = pfister(RATIONALS, -1)
        assert doubled.plus.entries == tensor(x.plus, two).entries
        assert doubled.minus.entries == tensor(x.minus, two).entries
        assert signature(doubled, Ordering.archimedean()) == 2 * signature(x, Ordering.archimedean()) == 6

    def test_multiplicative(self):
        rng = random.Random(99)
        for _ in range(50):
            phi = random_ratfunc_form(rng)
            psi = random_ratfunc_form(rng)
            p = random_ratfunc_ordering(rng)
            assert signature(tensor(phi, psi), p) == signature(phi, p) * signature(psi, p)

class TestDiscriminant:
    def test_binary(self):
        a = Fraction(5)
        assert discriminant(DiagForm.make(RATIONALS, [1, -a])) == 5

    def test_unary(self):
        assert discriminant(DiagForm.make(RATIONALS, [1])) == 1

    def test_square_canonicalisation(self):
        assert discriminant(DiagForm.make(RATIONALS, [2, 8])) == -1

    def test_squarefree_int(self):
        assert squarefree_int(-16) == -1
        assert squarefree_int(12) == 3
        assert squarefree_int(1) == 1

    def test_squarefree_int_past_trial_division(self):
        # cofactors with no prime factor up to 10^6: a square, a prime, a
        # product of two primes
        p, q = 1000003, 1000033
        for s, k in ((-6, p), (15, 6 * q), (2, p * q), (-q, 1), (7 * p, 2),
                     (p * q, 1), (-2 * p * q, 15)):
            assert squarefree_int(s * k * k) == s
        assert squarefree_int(p * p) == 1

    def test_squarefree_int_limit(self):
        p, q, r = 1000003, 1000033, 1000037
        for n in (p * q * r, -5 * p * q * q):
            with pytest.raises(FactorizationLimit):
                squarefree_int(n)

    def test_witt_invariance_under_hyperbolic_pairs(self):
        rng = random.Random(7)
        for _ in range(50):
            entries = [Fraction(rng.choice([-7, -3, -1, 1, 2, 5])) for _ in range(rng.randint(2, 4))]
            if len(entries) % 2:
                entries.append(Fraction(1))
            phi = DiagForm.make(RATIONALS, entries)
            c = Fraction(rng.choice([2, 3, -5]))
            padded = direct_sum(phi, DiagForm.make(RATIONALS, [c, -c]))
            assert discriminant(phi) == discriminant(padded)

    def test_ratfunc_square_class(self):
        # class of 2t^2 is the constant 2; class of (t-1)^2 is trivial
        assert square_class(RATFUNC, RatFunc.coerce(T * T * UPoly.of(2))) == UPoly.of(2)
        sq = RatFunc.coerce(UPoly.from_roots([1, 1]))
        assert square_class(RATFUNC, sq) == UPoly.of(1)
        assert discriminant(rf_form(UPoly.one(), -T)) == T

    def test_negation_inherits_the_ladder(self):
        # num*den changes only by its sign, so -x decomposes nothing of its own
        x = RatFunc.make(UPoly.from_roots([1, 1, 1, -2]), UPoly.of(3, 1))
        assert x.factors == ((UPoly.of(2, 1), 1), (UPoly.of(-1, 1), 3), (UPoly.of(3, 1), -1))
        assert x.odd_part == UPoly.from_roots([1, -2, -3])
        y = -x
        assert y.__dict__["factors"] is x.factors


class TestFiniteFieldContext:
    def test_large_prime_builds_quickly(self):
        # trial division up to the square root took longer than 20 s
        start = time.perf_counter()
        f = finite_field(2 ** 61 - 1)
        assert time.perf_counter() - start < 1
        assert discriminant(DiagForm.make(f, [1, -1])) == 1

    @pytest.mark.parametrize("n", [561, 3215031751, 3825123056546413051])
    def test_pseudoprimes_are_rejected(self, n):
        # a Carmichael number, and strong pseudoprimes to the bases 2..7 and 2..23
        with pytest.raises(UnsupportedContext):
            finite_field(n)

    def test_primality_matches_trial_division(self):
        primes = [n for n in range(3, 3000, 2) if all(n % d for d in range(2, int(n ** 0.5) + 1))]
        for n in range(3, 3000, 2):
            try:
                finite_field(n)
                built = True
            except UnsupportedContext:
                built = False
            assert built == (n in primes)

    def test_uncertified_size_is_unsupported(self):
        with pytest.raises(UnsupportedContext, match="not certified"):
            finite_field(3_317_044_064_679_887_385_961_981)

    def test_binary_isotropy_matches_is_square(self):
        # <1, n> with n a non-square is isotropic iff -n is a square and iff
        # its entries pair hyperbolically; isotropy by brute-force search
        for p in (3, 5, 7, 11, 13, 97):
            fp = finite_field(p)
            n = next(n for n in range(1, p) if pow(n, (p - 1) // 2, p) != 1)
            isotropic = any(
                (x * x + n * y * y) % p == 0
                for x in range(p) for y in range(p) if (x, y) != (0, 0)
            )
            assert is_square(fp, (-n) % p) == isotropic
            assert hyperbolic_pairing(DiagForm.make(fp, [1, n])) == isotropic


class TestFundamentalPower:
    def test_pfister_in_its_power(self):
        phi = pfister(RATIONALS, 3, 5)
        assert in_fundamental_power(phi, 2) is Membership.YES

    def test_signature_obstruction(self):
        phi = DiagForm.make(REAL_CLOSED, [1, 1])
        assert in_fundamental_power(phi, 2) is Membership.NO

    def test_hyperbolic_recognizer(self):
        phi = DiagForm.make(RATIONALS, [1, -1, 1, -1])
        assert in_fundamental_power(phi, 3) is Membership.YES
        # trivial rank, discriminant and signature, but no certificate in sight
        plain = DiagForm.make(RATIONALS, [2, 3, -1, -6])
        assert in_fundamental_power(plain, 3) is Membership.UNKNOWN

    def test_odd_rank_rejected(self):
        assert in_fundamental_power(DiagForm.make(RATIONALS, [1]), 1) is Membership.NO

    def test_even_rank_is_enough_for_first_power(self):
        assert in_fundamental_power(DiagForm.make(RATIONALS, [3, 5]), 1) is Membership.YES

    @pytest.mark.parametrize("ctx, entries, n, want", [
        # over R the signature decides: 8 and 0 are multiples of 2^3, 4 is not
        (REAL_CLOSED, [1] * 8, 3, Membership.YES),
        (REAL_CLOSED, [1] * 4 + [-1] * 4, 3, Membership.YES),
        (REAL_CLOSED, [1] * 4, 3, Membership.NO),
        # over C an even rank form is hyperbolic, and over F_p, I^2 = 0
        (COMPLEXES, [1, 2, 3, 5], 3, Membership.YES),
        (finite_field(7), [1, 1, 3, 3], 4, Membership.YES),
    ])
    def test_higher_powers_over_decided_contexts(self, ctx, entries, n, want):
        assert in_fundamental_power(DiagForm.make(ctx, entries), n) is want

    def test_higher_powers_of_a_recorded_pfister_form(self):
        # <<2, 3, 5>> has signature 0 at the real place; its recorded arity
        # certifies I^3, and nothing certifies I^4
        phi = pfister(RATIONALS, 2, 3, 5)
        assert in_fundamental_power(phi, 3) is Membership.YES
        assert in_fundamental_power(phi, 4) is Membership.UNKNOWN

    def test_first_power_needs_no_signature(self, monkeypatch):
        def refuse(phi, p):
            raise AssertionError("I^1 membership is decided by rank parity")

        monkeypatch.setattr(qform, "signature", refuse)
        t = RatFunc.make(UPoly.x())
        panel = [Ordering.at_neg_inf(), Ordering.below(0), Ordering.above(0),
                 Ordering.at_pos_inf(), Ordering.archimedean()]
        even = DiagForm.make(RATFUNC, [t, RatFunc.coerce(-3)])
        odd = DiagForm.make(RATFUNC, [t, RatFunc.coerce(-3), t])
        assert in_fundamental_power(even, 1, panel) is Membership.YES
        assert in_fundamental_power(odd, 1, panel) is Membership.NO


class TestHyperbolicPairing:
    def test_scaled_pairs(self):
        phi = DiagForm.make(RATIONALS, [2, -8])    # -(2 * -8) = 16, a square
        assert hyperbolic_pairing(phi)

    def test_ratfunc_pairs(self):
        phi = rf_form(T, -T)
        assert hyperbolic_pairing(phi)

    def test_not_everything_pairs(self):
        assert not hyperbolic_pairing(DiagForm.make(RATIONALS, [1, 2]))


class TestSecondResidue:
    def test_uniformizer_times_constant(self):
        phi = rf_form(T.scale(5))
        res = second_residue(phi, Place.finite(0))
        assert res.entries == (Fraction(5),)

    def test_unit_has_no_residue(self):
        phi = rf_form(T + UPoly.one())
        assert second_residue(phi, Place.finite(0)).entries == ()

    def test_hyperbolic_residue(self):
        phi = rf_form(T, -T)
        res = second_residue(phi, Place.finite(0))
        assert res.entries == (Fraction(1), Fraction(-1))

    def test_infinity(self):
        # 1/t has a simple zero of order 1 at infinity: odd, unit value 1
        phi = DiagForm.make(RATFUNC, [RatFunc.make(UPoly.one(), T)])
        res = second_residue(phi, Place.infinity())
        assert res.entries == (Fraction(1),)

    def test_additive(self):
        rng = random.Random(17)
        for _ in range(40):
            phi = random_ratfunc_form(rng)
            psi = random_ratfunc_form(rng)
            v = Place.finite(rng.randint(-3, 3))
            lhs = second_residue(direct_sum(phi, psi), v)
            rhs = direct_sum(second_residue(phi, v), second_residue(psi, v))
            assert lhs.entries == rhs.entries

    def test_units_vanish_everywhere(self):
        rng = random.Random(18)
        places = [Place.finite(a) for a in range(-3, 4)]
        for _ in range(30):
            c = Fraction(rng.choice([-5, -2, -1, 1, 2, 3]))
            phi = rf_form(UPoly.of(c))
            for v in places:
                assert second_residue(phi, v).entries == ()


class TestGwHelpers:
    def test_gw_to_form_negates_minus(self):
        x = GWElem(DiagForm.make(RATIONALS, [1]), DiagForm.make(RATIONALS, [1, -5]))
        assert gw_to_form(x).entries == (Fraction(1), Fraction(-1), Fraction(5))

    def test_iterated_doubling(self):
        phi = DiagForm.make(RATIONALS, [1])
        for _ in range(3):
            phi = mult_by_pfister_minus_one(phi)
        assert phi.entries == tuple(Fraction(1) for _ in range(8))
