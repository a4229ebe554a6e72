from fractions import Fraction

import pytest

from realcycle import mwk, qform
from realcycle.errors import CompatibilityError, ZeroEntry
from realcycle.mwk import (
    Comparison,
    KmwElem,
    add,
    compare,
    eta_mul,
    gw_identity_check,
    gw_unit,
    integer,
    is_zero_certified,
    product,
    symbol,
)
from realcycle.numeric import UPoly
from realcycle.qform import (
    RATFUNC,
    RATIONALS,
    REAL_CLOSED,
    Ordering,
    DiagForm,
    GWElem,
    RatFunc,
    finite_field,
    gw_mul,
    signature,
)

T = UPoly.x()


def ratfunc_orderings():
    return [Ordering.above(0), Ordering.below(0), Ordering.above(1),
            Ordering.below(-2), Ordering.at_pos_inf(), Ordering.at_neg_inf()]


class TestSymbol:
    def test_degree_one_witt_signs(self):
        x = symbol(REAL_CLOSED, 7)      # a > 0: <a> - 1 has signature 0
        assert signature(x.witt, Ordering.archimedean()) == 0
        y = symbol(REAL_CLOSED, -7)     # a < 0: signature -2
        assert signature(y.witt, Ordering.archimedean()) == -2

    def test_symbol_of_one_is_zero(self):
        x = symbol(RATIONALS, 1)
        assert x.milnor_is_zero()
        assert is_zero_certified(x)

    def test_steinberg_symbol_is_zero(self):
        a = Fraction(5)
        x = symbol(RATIONALS, a, 1 - a)
        assert x.milnor_is_zero()
        assert is_zero_certified(x, isotropy_vector=(1, 1, 1, 0))

    def test_zero_entry_rejected(self):
        with pytest.raises(ZeroEntry):
            symbol(RATIONALS, 0)


class TestEta:
    def test_eta_kills_milnor(self):
        x = eta_mul(symbol(RATIONALS, 5))
        assert x.degree == 0
        assert x.milnor == 0

    def test_eta_witt_class(self):
        x = eta_mul(symbol(REAL_CLOSED, 5))
        # Witt class <a> - <1>: signature 0 at the ordering where a > 0
        assert signature(x.witt, Ordering.archimedean()) == 0

    def test_eta_on_hyperbolic_lift_is_zero(self):
        # h = 1 + <-1> lifts to degree 1 as [a] + <-1>[a]; eta kills it
        for a in (Fraction(3), Fraction(-2)):
            x = symbol(RATIONALS, a)
            # <-1>[a]: the Milnor half of [a], its Witt half scaled by <-1>
            minus_x = KmwElem(1, x.milnor, gw_mul(x.witt, gw_unit(RATIONALS, -1).witt))
            lift = add(x, minus_x)
            out = eta_mul(lift)
            assert out.milnor == 0
            assert is_zero_certified(out)


class TestGwIdentity:
    def test_minus_one_real(self):
        lhs = add(gw_unit(REAL_CLOSED, 1), eta_mul(symbol(REAL_CLOSED, -1)))
        rhs = gw_unit(REAL_CLOSED, -1)
        assert lhs.rank == rhs.rank == 1
        p = Ordering.archimedean()
        assert signature(lhs.witt, p) == signature(rhs.witt, p) == -1
        assert gw_identity_check(REAL_CLOSED, -1)

    def test_trivial_unit(self):
        assert gw_identity_check(RATIONALS, 1)

    def test_coordinate_function(self):
        assert gw_identity_check(RATFUNC, T, ratfunc_orderings())

    def test_ratfunc_without_orderings_compares_rank(self):
        # with no sampled ordering of Q(t) only the ranks are compared, as in
        # compare and in_fundamental_power
        assert gw_identity_check(RATFUNC, T)
        assert gw_identity_check(RATFUNC, -1)

    def test_finite_field(self):
        assert gw_identity_check(finite_field(7), 3)

class TestProduct:
    def test_witt_part_is_pfister_product(self):
        x = product(symbol(RATIONALS, 3), symbol(RATIONALS, 5))
        direct = symbol(RATIONALS, 3, 5)
        assert compare(x, direct, [Ordering.archimedean()]) is Comparison.EQUAL

    def test_finite_field_relations(self):
        # 3 + 5 = 1 and 3 + 4 = 0 in F_7: Steinberg and {a, -a}
        f7 = finite_field(7)
        assert symbol(f7, 3, 5).milnor_is_zero()
        assert symbol(f7, 3, 4).milnor_is_zero()
        assert symbol(f7, 3, 3).milnor == ((1, (3, 3)),)
        assert add(symbol(f7, 3), symbol(f7, 5)).milnor == 1

    def test_degree_two_sums_merge_in_a_stable_order(self):
        # {2,3} + {5,7} is the same two-term sum either way round, sorted by
        # the entries, and a symbol added to itself merges into coefficient 2
        x, y = symbol(RATIONALS, 2, 3), symbol(RATIONALS, 5, 7)
        two, three, five, seven = (Fraction(n) for n in (2, 3, 5, 7))
        assert add(x, y).milnor == add(y, x).milnor \
            == ((1, (two, three)), (1, (five, seven)))
        assert add(x, x).milnor == ((2, (two, three)),)

    def test_steinberg_product_is_zero(self):
        a = Fraction(7)
        x = product(symbol(RATIONALS, a), symbol(RATIONALS, 1 - a))
        assert x.milnor_is_zero()
        assert is_zero_certified(x, isotropy_vector=(1, 1, 1, 0))

    def test_square_symbol_relation(self):
        # [a][a] and [a][-1] have equal signatures at all sampled orderings
        pool = ratfunc_orderings()
        for a in (RatFunc.coerce(T), RatFunc.coerce(T + UPoly.of(2))):
            lhs = product(symbol(RATFUNC, a), symbol(RATFUNC, a))
            rhs = product(symbol(RATFUNC, a), symbol(RATFUNC, -1))
            for p in pool:
                assert signature(lhs.witt, p) == signature(rhs.witt, p)

    def test_eta_commutes_into_lower_degree(self):
        pool = ratfunc_orderings()
        x = symbol(RATFUNC, T)
        y = symbol(RATFUNC, T + UPoly.one())
        low = eta_mul(product(x, y))
        assert low.degree == 1
        assert low.milnor_is_zero()
        for p in pool:
            assert signature(low.witt, p) == signature(product(x, y).witt, p)


class TestCompare:
    def test_distinct_by_signature(self):
        x = gw_unit(REAL_CLOSED, 1)
        y = gw_unit(REAL_CLOSED, -1)
        assert compare(x, y) is Comparison.DISTINCT

    def test_equal_zero_elements(self):
        a = integer(RATIONALS, 0)
        b = add(integer(RATIONALS, 0), integer(RATIONALS, 0))
        assert compare(a, b) is Comparison.EQUAL

    @pytest.mark.parametrize("x, y", [
        (integer(RATIONALS, 2), symbol(RATIONALS, 2)),      # degrees 0 and 1
        (integer(RATIONALS, 2), integer(RATIONALS, 3)),     # ranks in degree 0
        (symbol(RATIONALS, 2), symbol(RATIONALS, 3)),       # Milnor parts in degree 1
    ])
    def test_distinct_before_any_witt_difference(self, x, y, monkeypatch):
        # degree, rank and the degree-1 Milnor part answer before the Witt
        # halves are subtracted
        def refused(*args):
            raise AssertionError("the Witt halves were subtracted")

        monkeypatch.setattr(mwk, "gw_add", refused)
        assert compare(x, y) is Comparison.DISTINCT
        assert compare(y, x) is Comparison.DISTINCT

    def test_indistinguishable_is_honest(self):
        # <2,3> and <1,6> share rank, discriminant and signatures; the module
        # does not decide rational Witt equivalence, so it must not say Equal
        x = add(gw_unit(RATIONALS, 2), gw_unit(RATIONALS, 3))
        y = add(gw_unit(RATIONALS, 1), gw_unit(RATIONALS, 6))
        assert compare(x, y) is Comparison.INDISTINGUISHABLE

    def test_product_compare_forms_no_product_to_test_squares(self, monkeypatch):
        # over Q(t) with coprime a and b, hyperbolic pairing compares the
        # entries' odd parts, and in the compatibility checks of symbol and
        # product every base occurs an even number of times
        a = RatFunc.make(UPoly.of(0, 4, 0, 2))
        b = RatFunc.make(UPoly.of(Fraction(-1, 3), 1), UPoly.of(1, 0, 1))
        scope, entered, calls = [], {}, {}

        def enter(func, name):
            def wrapped(*args):
                entered[name] = entered.get(name, 0) + 1
                scope.append(name)
                try:
                    return func(*args)
                finally:
                    scope.pop()
            return wrapped

        def count(func, name):
            def wrapped(*args):
                if name in scope:
                    calls[name] = calls.get(name, 0) + 1
                return func(*args)
            return wrapped

        monkeypatch.setattr(mwk, "hyperbolic_pairing", enter(mwk.hyperbolic_pairing, "pairing"))
        monkeypatch.setattr(mwk, "_check_compatibility",
                            enter(mwk._check_compatibility, "compatibility"))
        monkeypatch.setattr(RatFunc, "__mul__", count(RatFunc.__mul__, "pairing"))
        monkeypatch.setattr(qform, "coprime_refinement",
                            count(qform.coprime_refinement, "compatibility"))
        x = product(symbol(RATFUNC, a), symbol(RATFUNC, b))
        y = product(symbol(RATFUNC, a), symbol(RATFUNC, b))
        assert compare(x, y, ratfunc_orderings()) is Comparison.EQUAL
        assert entered == {"compatibility": 6, "pairing": 1}
        assert calls == {}


class TestFibreCompatibility:
    def test_rank_parity_enforced(self):
        with pytest.raises(CompatibilityError):
            KmwElem(0, 1, GWElem(DiagForm.make(RATIONALS, [1, 1]), DiagForm.empty(RATIONALS)))

    def test_degree_one_discriminant_enforced(self):
        with pytest.raises(CompatibilityError):
            KmwElem(1, Fraction(3),
                    GWElem(DiagForm.make(RATIONALS, [1, -5]), DiagForm.empty(RATIONALS)))

    def test_degree_three_is_refused(self):
        with pytest.raises(ValueError, match="degrees are capped at 0..2"):
            KmwElem(3, (), GWElem(DiagForm.empty(RATIONALS), DiagForm.empty(RATIONALS)))


@pytest.mark.parametrize("ctx, a, b", [
    (RATIONALS, 3, 5),
    (finite_field(7), 3, 3),
    (RATFUNC, T, T + UPoly.one()),
], ids=["Q", "F7", "Q(t)"])
def test_milnor_is_zero_in_each_degree(ctx, a, b):
    # one zero and one nonzero element in each of the degrees 0, 1 and 2: the
    # zero is 0, the unit 1 and the empty sum of 2-symbols
    zeros = [eta_mul(symbol(ctx, a)), symbol(ctx, 1), product(symbol(ctx, a), symbol(ctx, -a))]
    others = [integer(ctx, 2), symbol(ctx, a), product(symbol(ctx, a), symbol(ctx, b))]
    assert [x.degree for x in zeros] == [x.degree for x in others] == [0, 1, 2]
    assert all(x.milnor_is_zero() for x in zeros)
    assert not any(x.milnor_is_zero() for x in others)
