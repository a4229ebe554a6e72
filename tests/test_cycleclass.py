import itertools
import random
from fractions import Fraction

import pytest

from realcycle.abgrp import Lattice, contains, lattices_equal
from realcycle.cycleclass import (
    STATUS_DOUBLE,
    STATUS_EXACT,
    ConjugatePair,
    IntervalPoint,
    RationalPoint,
    UnitCoefficient,
    ZeroCycle,
    class_of_zero_cycle,
    coker_report,
    exponent_oracle,
    gamma0_image,
    gamma_top_witness_search,
    knebusch_gamma,
    mod2_spans_everything,
    punctured_affine_report,
    rational_roots,
    unit_sign_vectors,
)
from realcycle.errors import BadDimension, NegativeInput, PointOffCurve, UnsupportedTwist
from realcycle.numeric import UPoly
from realcycle.realcurve import (
    Hyperelliptic,
    ProjectiveLine,
    PuncturedLine,
    real_components,
)

X = UPoly.x()
TWO_OVALS = (UPoly.of(-1, 0, 1) * UPoly.of(-4, 0, 1)).scale(-1)   # -(x^2-1)(x^2-4)


def untwisted(comps):
    return {c.id: 0 for c in comps}


def closure_oracle(vectors, dim, coeff_range=6):
    """Brute-force subgroup closure: all small integer combinations of the
    generators.  Sound but not complete; used only on lattices whose relevant
    elements are reachable with small coefficients."""
    points = set()
    for coeffs in itertools.product(range(-coeff_range, coeff_range + 1), repeat=len(vectors)):
        v = tuple(sum(c * g[i] for c, g in zip(coeffs, vectors)) for i in range(dim))
        points.add(v)
    return points


class TestGamma0:
    def test_affine_line_is_full(self):
        curve = PuncturedLine.make()
        image = gamma0_image(curve)
        assert contains(image, (1,)) and contains(image, (-1,))
        assert coker_report(image) == (1, 1)

    def test_once_punctured_line_is_parity_lattice(self):
        curve = PuncturedLine.make([0])
        image = gamma0_image(curve)
        assert lattices_equal(image, knebusch_gamma(2))
        assert not contains(image, (1, 0))
        assert contains(image, (3, 1))
        assert coker_report(image) == (2, 2)

    def test_twice_punctured_line_coker(self):
        curve = PuncturedLine.make([0, 1])
        image = gamma0_image(curve)
        order, exp = coker_report(image)
        assert (order, exp) == (4, 2)

        # brute-force closure over the four unit sign vectors
        vectors = unit_sign_vectors(curve, real_components(curve))
        vectors.append(tuple(-v for v in vectors[0]))   # <1> alongside <-1>
        points = closure_oracle(vectors, 3)
        classes = []
        for rep in itertools.product(range(4), repeat=3):
            for cls in classes:
                if tuple(a - b for a, b in zip(rep, cls[0])) in points:
                    cls.append(rep)
                    break
            else:
                classes.append([rep])
        assert len(classes) == 4
        orders = {next(k for k in range(1, 9)
                       if tuple(k * r for r in cls[0]) in points)
                  for cls in classes}
        assert max(orders) == 2

    def test_twist_not_supported(self):
        curve = PuncturedLine.make([0])
        comps = real_components(curve)
        with pytest.raises(UnsupportedTwist):
            gamma0_image(curve, comps, {comps[0].id: 1, comps[1].id: 0})

    def test_knebusch_equality_random(self):
        rng = random.Random(606)
        for _ in range(100):
            k = rng.randint(1, 6)
            pts = set()
            while len(pts) < k:
                pts.add(Fraction(rng.randint(-30, 30), rng.randint(1, 8)))
            curve = PuncturedLine.make(sorted(pts))
            comps = real_components(curve)
            image = gamma0_image(curve, comps)
            assert lattices_equal(image, knebusch_gamma(k + 1))
            assert mod2_spans_everything(curve, comps)

    def test_mod2_span_falls_short(self):
        # the units 1 and t of "line punctures=0" give two rows on the four
        # components of "line punctures=0,1,2"
        comps = real_components(PuncturedLine.make([0, 1, 2]))
        assert not mod2_spans_everything(PuncturedLine.make([0]), comps)

    def test_inclusion_chain(self):
        # 2 H^0 <= image <= H^0 for every punctured line
        rng = random.Random(607)
        for _ in range(20):
            k = rng.randint(0, 4)
            pts = rng.sample(range(-10, 11), k)
            curve = PuncturedLine.make(pts)
            image = gamma0_image(curve)
            m = k + 1
            for i in range(m):
                doubled = tuple(2 if j == i else 0 for j in range(m))
                assert contains(image, doubled)
            _, exp = coker_report(image)
            assert exp in (1, 2)


class TestKnebuschGamma:
    def test_rank_one_full(self):
        gamma = knebusch_gamma(1)
        assert coker_report(gamma) == (1, 1)

    def test_rank_two_index(self):
        assert coker_report(knebusch_gamma(2)) == (2, 2)

    def test_rank_three(self):
        assert coker_report(knebusch_gamma(3)) == (4, 2)

    def test_double_lattice(self):
        amb3 = knebusch_gamma(3).ambient
        doubled = Lattice(amb3, tuple(
            tuple(2 if i == j else 0 for j in range(3)) for i in range(3)))
        assert coker_report(doubled) == (8, 2)


class TestClassOfZeroCycle:
    def setup_method(self):
        self.curve = Hyperelliptic(TWO_OVALS)
        self.comps = real_components(self.curve)
        self.bits = untwisted(self.comps)

    def test_branch_point_hits_generator(self):
        cycle = ZeroCycle.single(RationalPoint(Fraction(1), Fraction(0)))
        cls = class_of_zero_cycle(self.curve, self.comps, self.bits, cycle)
        right = [c for c in self.comps if c.id == "c1"][0]
        assert cls == {"c0": 0, "c1": 1} and right.is_circle

    def test_unit_sign_flips_class(self):
        unit = UnitCoefficient(UPoly.of(-1))
        cycle = ZeroCycle.single(RationalPoint(Fraction(1), Fraction(0)), unit)
        cls = class_of_zero_cycle(self.curve, self.comps, self.bits, cycle)
        assert cls == {"c0": 0, "c1": -1}

    def test_conjugate_pair_with_unit_y_cancels(self):
        unit = UnitCoefficient(UPoly.one(), y_exponent=1)
        cycle = ZeroCycle.single(ConjugatePair(Fraction(3, 2)), unit)
        cls = class_of_zero_cycle(self.curve, self.comps, self.bits, cycle)
        assert cls == {"c0": 0, "c1": 0}

    def test_conjugate_pair_with_constant_unit_doubles(self):
        cycle = ZeroCycle.single(ConjugatePair(Fraction(3, 2)))
        cls = class_of_zero_cycle(self.curve, self.comps, self.bits, cycle)
        assert cls == {"c0": 0, "c1": 2}

    def test_point_off_curve_rejected(self):
        with pytest.raises(PointOffCurve):
            class_of_zero_cycle(self.curve, self.comps, self.bits,
                                ZeroCycle.single(RationalPoint(Fraction(0), Fraction(1))))

    def test_interval_point_contributes_zero(self):
        curve = Hyperelliptic(UPoly.of(0, -1, 0, 1))     # x^3 - x, affine
        comps = real_components(curve)
        bits = untwisted(comps)
        cycle = ZeroCycle.single(IntervalPoint(Fraction(2)))
        cls = class_of_zero_cycle(curve, comps, bits, cycle)
        assert all(v == 0 for v in cls.values())


class TestWitnessSearch:
    def test_unit_circle(self):
        curve = Hyperelliptic(UPoly.of(1, 0, -1))
        certs = gamma_top_witness_search(curve)
        assert len(certs) == 1 and certs[0].status == STATUS_EXACT

    def test_two_ovals(self):
        certs = gamma_top_witness_search(Hyperelliptic(TWO_OVALS))
        assert len(certs) == 2
        assert all(c.status == STATUS_EXACT for c in certs)

    def test_elliptic_projective(self):
        certs = gamma_top_witness_search(Hyperelliptic(UPoly.of(0, -1, 0, 1), projective=True))
        assert len(certs) == 2
        assert all(c.status == STATUS_EXACT for c in certs)

    def test_empty_locus_has_no_generators(self):
        certs = gamma_top_witness_search(Hyperelliptic(UPoly.of(-1, 0, -1)))
        assert certs == []

    def test_projective_line(self):
        certs = gamma_top_witness_search(ProjectiveLine())
        assert len(certs) == 1 and certs[0].status == STATUS_EXACT

    def test_twisted_circle_generator_witnessed(self):
        curve = Hyperelliptic(UPoly.of(1, 0, -1))
        comps = real_components(curve)
        bits = {comps[0].id: 1}
        certs = gamma_top_witness_search(curve, comps, bits)
        assert certs[0].status == STATUS_EXACT
        assert certs[0].achieved == {comps[0].id: 1}

    def test_double_only_fallback(self):
        # y^2 = 3 - x^2: the circle x^2 + y^2 = 3 has no rational points
        # (3 is not a sum of two rational squares), so the search must fall
        # back to a conjugate pair
        curve = Hyperelliptic(UPoly.of(3, 0, -1))
        certs = gamma_top_witness_search(curve, budget=20)
        assert len(certs) == 1
        assert certs[0].status == STATUS_DOUBLE
        assert certs[0].achieved[certs[0].generator] == 2

    @pytest.mark.parametrize("f, status", [(UPoly.of(1, 0, 0, 0, 1), STATUS_EXACT),
                                           (UPoly.of(2, 0, 0, 0, 1), STATUS_DOUBLE)])
    def test_separate_sheets(self, f, status):
        # y^2 = x^4 + 1 has the points (0, +-1); on y^2 = x^4 + 2 the search
        # finds none, so a conjugate pair.  Each sheet is its own circle, and
        # each witness hits its own circle only.
        curve = Hyperelliptic(f, projective=True)
        comps = real_components(curve)
        certs = gamma_top_witness_search(curve, comps, budget=20)
        assert [(c.generator, c.status) for c in certs] == [("c0", status), ("c1", status)]
        for cert, sheet, other in zip(certs, (1, -1), ("c1", "c0")):
            achieved = class_of_zero_cycle(curve, comps, untwisted(comps), cert.witness)
            assert achieved == cert.achieved
            assert achieved == {cert.generator: 1 if status == STATUS_EXACT else 2, other: 0}
            if status == STATUS_EXACT:
                assert cert.witness.terms[0].point.y * sheet > 0

    def test_rational_roots_helper(self):
        f = UPoly.from_roots([1, Fraction(-1, 2)]) * UPoly.of(1, 0, 1)
        assert rational_roots(f) == [Fraction(-1, 2), Fraction(1)]

    def test_fractional_branch_points_of_degree_12(self):
        # f = -prod (x - r) over twelve non-integral roots: six ovals, each
        # witnessed exactly by the root at its left end
        roots = sorted(Fraction(n, d) for n, d in [(1, 2), (4, 3), (11, 5), (13, 4), (23, 6), (9, 2),
                                                  (17, 3), (31, 5), (27, 4), (43, 6), (15, 2), (25, 3)])
        curve = Hyperelliptic(UPoly.from_roots(roots, lead=-1))
        certs = gamma_top_witness_search(curve)
        assert len(certs) == 6
        for i, cert in enumerate(certs):
            assert cert.status == STATUS_EXACT
            assert cert.witness.terms[0].point == RationalPoint(roots[2 * i], Fraction(0))


class TestExponentOracle:
    def test_curve_cases(self):
        rep = exponent_oracle(1, 0)
        assert rep.proven_bound == 2 and rep.conjectured_bound == 2

    def test_threefold_with_vanishing(self):
        rep = exponent_oracle(3, 1, etale_vanishing=True)
        assert rep.proven_bound == 4 and rep.conjectured_bound == 4

    def test_surface_components(self):
        rep = exponent_oracle(2, 0)
        assert rep.proven_bound == 4 and rep.conjectured_bound == 4

    def test_general_cell(self):
        rep = exponent_oracle(5, 2)
        assert rep.proven_bound == 16 and rep.conjectured_bound == 8

    def test_above_dimension(self):
        assert exponent_oracle(2, 5).proven_bound == 1

    def test_kernel_bounds(self):
        assert exponent_oracle(1, 1).kernel_bound == 1            # not proper
        assert exponent_oracle(1, 1, proper=True).kernel_bound == 4
        assert exponent_oracle(1, 1, proper=True, real_nonempty=True).kernel_bound == 1
        assert exponent_oracle(1, 0).kernel_bound == 16           # 2^(2*(d+1-c))

    def test_negative_rejected(self):
        with pytest.raises(NegativeInput):
            exponent_oracle(-1, 0)

    def test_table_and_monotonicity(self):
        for d in range(0, 7):
            for c in range(0, 7):
                base = exponent_oracle(d, c)
                flagged = exponent_oracle(d, c, etale_vanishing=True,
                                          real_nonempty=True)
                assert base.proven_bound % base.conjectured_bound == 0
                assert flagged.proven_bound <= base.proven_bound
                if c > d:
                    assert base.proven_bound == 1
                elif c == d:
                    assert base.proven_bound == 1
                elif c == d - 1:
                    assert base.proven_bound == 2
                elif c == 0:
                    assert base.proven_bound == 2 ** d
                else:
                    assert base.proven_bound == 2 ** (d + 1 - c)
                if c == d - 2:
                    assert flagged.proven_bound == min(4, base.proven_bound)

    def test_sources_present(self):
        rep = exponent_oracle(1, 0)
        assert "refined-prediction" in rep.sources
        assert any(s != "refined-prediction" for s in rep.sources)

    def test_known_sharp_cells_consistent_with_oracle(self):
        from realcycle.cycleclass import KNOWN_SHARP_CELLS
        assert len(KNOWN_SHARP_CELLS) == 2
        # codimension d-1: predicted exponent 2 equals the proved bound
        for d in (2, 3, 4):
            rep = exponent_oracle(d, d - 1)
            assert rep.proven_bound == rep.conjectured_bound == 2
        # surfaces in codimension 0: predicted 4 equals the proved bound
        rep = exponent_oracle(2, 0)
        assert rep.proven_bound == rep.conjectured_bound == 4


class TestPuncturedAffine:
    def test_d2_and_d3(self):
        for d in (2, 3):
            rep = punctured_affine_report(d)
            assert rep.topological_rank == 1
            assert rep.chow_group_vanishes
            assert rep.coker_order == 2 and rep.coker_exponent == 2
            assert rep.witnesses_sharpness
            assert contains(rep.image, (2,)) and not contains(rep.image, (1,))

    def test_d1_rejected(self):
        with pytest.raises(BadDimension):
            punctured_affine_report(1)


class TestEmptyLocusConsistency:
    def test_everything_trivial(self):
        from realcycle.abgrp import order_of
        from realcycle.realcurve import twisted_cohomology
        curve = Hyperelliptic(UPoly.of(-1, 0, -1))
        comps = real_components(curve)
        assert comps == ()
        coh = twisted_cohomology(comps, {})
        assert order_of(coh.h0) == 1 and order_of(coh.h1) == 1
        assert gamma_top_witness_search(curve) == []
