import itertools
import random
import tracemalloc
from fractions import Fraction
from math import gcd

import pytest

from realcycle import cycleclass
from realcycle.abgrp import FgAbGroup, Lattice, contains, lattices_equal
from realcycle.cycleclass import (
    STATUS_DOUBLE,
    STATUS_EXACT,
    ConjugatePair,
    RationalPoint,
    UnitCoefficient,
    ZeroCycle,
    class_of_zero_cycle,
    coker_report,
    exponent_oracle,
    gamma0_image,
    gamma_top_witness_search,
    knebusch_gamma,
)
from realcycle.errors import (
    NegativeInput,
    PointOffCurve,
    UnsupportedClosure,
)
from realcycle.numeric import UPoly, isolate_real_roots, rational_root
from realcycle.qform import hilbert_obstruction
from realcycle.realcurve import (
    Hyperelliptic,
    ProjectiveLine,
    PuncturedLine,
    real_components,
)
from sample_points import evaluated_signs

X = UPoly.x()
TWO_OVALS = (UPoly.of(-1, 0, 1) * UPoly.of(-4, 0, 1)).scale(-1)   # -(x^2-1)(x^2-4)


def untwisted(comps):
    return {c.id: 0 for c in comps}


def signature_lattice(curve):
    """The lattice spanned by the evaluated signs of the line's unit forms."""
    comps = real_components(curve)
    return Lattice(FgAbGroup.free(*(c.id for c in comps)),
                   tuple(evaluated_signs(curve, comps)))


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
        assert lattices_equal(image, signature_lattice(curve))
        assert not contains(image, (1, 0))
        assert contains(image, (3, 1))
        assert coker_report(image) == (2, 2)

    def test_twice_punctured_line_coker(self):
        curve = PuncturedLine.make([0, 1])
        image = gamma0_image(curve)
        order, exp = coker_report(image)
        assert (order, exp) == (4, 2)

        # brute-force closure over the four evaluated unit sign vectors
        vectors = evaluated_signs(curve, real_components(curve))
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

    def test_only_punctured_lines(self):
        for curve in (ProjectiveLine(), Hyperelliptic(UPoly.of(1, 0, -1))):
            with pytest.raises(UnsupportedClosure):
                gamma0_image(curve)

    def test_knebusch_equality_random(self):
        rng = random.Random(606)
        for _ in range(100):
            k = rng.randint(1, 6)
            pts = set()
            while len(pts) < k:
                pts.add(Fraction(rng.randint(-30, 30), rng.randint(1, 8)))
            curve = PuncturedLine.make(sorted(pts))
            signs = signature_lattice(curve)
            assert lattices_equal(gamma0_image(curve), signs)
            assert lattices_equal(signs, knebusch_gamma(k + 1))

    def test_image_is_the_parity_lattice_on_the_lines_components(self):
        for punctures in ([], [0], [Fraction(-7, 3), 0, Fraction(1, 6), 5], range(40)):
            curve = PuncturedLine.make(punctures)
            k = len(curve.punctures)
            image = gamma0_image(curve)
            assert image == knebusch_gamma(k + 1)
            assert image.ambient.labels == tuple(c.id for c in real_components(curve))

    def test_only_the_lines_own_components_are_accepted(self):
        # the bench passes the line's own tuple, or an equal one; another
        # line's components raise
        curve = PuncturedLine.make([0, 1, 2])
        own = real_components(curve)
        assert gamma0_image(curve, own) == gamma0_image(curve)
        assert gamma0_image(curve, list(real_components(PuncturedLine.make([0, 1, 2])))) \
            == gamma0_image(curve)
        for other in ([0], [0, 1, 3], [0, 1, 2, 3]):
            with pytest.raises(UnsupportedClosure):
                gamma0_image(curve, real_components(PuncturedLine.make(other)))
        with pytest.raises(UnsupportedClosure):
            gamma0_image(curve, own[::-1])

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
        cls = class_of_zero_cycle(self.curve, self.bits, cycle)
        right = [c for c in self.comps if c.id == "c1"][0]
        assert cls == {"c0": 0, "c1": 1} and right.is_circle

    def test_unit_sign_flips_class(self):
        unit = UnitCoefficient(UPoly.of(-1))
        cycle = ZeroCycle.single(RationalPoint(Fraction(1), Fraction(0)), unit)
        cls = class_of_zero_cycle(self.curve, self.bits, cycle)
        assert cls == {"c0": 0, "c1": -1}

    def test_conjugate_pair_with_unit_y_cancels(self):
        unit = UnitCoefficient(UPoly.one(), y_exponent=1)
        cycle = ZeroCycle.single(ConjugatePair(Fraction(3, 2)), unit)
        cls = class_of_zero_cycle(self.curve, self.bits, cycle)
        assert cls == {"c0": 0, "c1": 0}

    def test_conjugate_pair_with_constant_unit_doubles(self):
        cycle = ZeroCycle.single(ConjugatePair(Fraction(3, 2)))
        cls = class_of_zero_cycle(self.curve, self.bits, cycle)
        assert cls == {"c0": 0, "c1": 2}

    def test_point_off_curve_rejected(self):
        with pytest.raises(PointOffCurve):
            class_of_zero_cycle(self.curve, self.bits,
                                ZeroCycle.single(RationalPoint(Fraction(0), Fraction(1))))

    @pytest.mark.parametrize("curve, point, unit", [
        # <x> vanishes at (0, 1) on y^2 = 1 - x^2
        (Hyperelliptic(UPoly.of(1, 0, -1)), RationalPoint(Fraction(0), Fraction(1)),
         UnitCoefficient(UPoly.x())),
        # x = 0 is the puncture, off the locus
        (PuncturedLine.make([0]), RationalPoint(Fraction(0)), UnitCoefficient()),
        # a line carries no y-coordinate, and no conjugate pair
        (PuncturedLine.make([0]), RationalPoint(Fraction(1), Fraction(1)), UnitCoefficient()),
        (PuncturedLine.make([0]), ConjugatePair(Fraction(1)), UnitCoefficient()),
        # f(0) = 1 is a square and f(2) = -3 is negative on y^2 = 1 - x^2
        (Hyperelliptic(UPoly.of(1, 0, -1)), ConjugatePair(Fraction(0)), UnitCoefficient()),
        (Hyperelliptic(UPoly.of(1, 0, -1)), ConjugatePair(Fraction(2)), UnitCoefficient()),
    ], ids=["unit-vanishes", "off-locus", "y-on-a-line", "pair-on-a-line", "square-f",
            "negative-f"])
    def test_refusals(self, curve, point, unit):
        bits = untwisted(real_components(curve))
        with pytest.raises(PointOffCurve):
            class_of_zero_cycle(curve, bits, ZeroCycle.single(point, unit))

    def test_interval_point_contributes_zero(self):
        # x^3 - x, affine: an oval over [-1, 0] and an interval over [1, oo);
        # the places over x = 2 (f = 6) and the branch point (1, 0) sit on
        # the interval
        curve = Hyperelliptic(UPoly.of(0, -1, 0, 1))
        comps = real_components(curve)
        bits = untwisted(comps)
        for point in (ConjugatePair(Fraction(2)), RationalPoint(Fraction(1), Fraction(0))):
            cls = class_of_zero_cycle(curve, bits, ZeroCycle.single(point))
            assert cls == {"c0": 0}


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
        certs = gamma_top_witness_search(curve, bits)
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
        # the proof: (-1, 3)_2 = -1, so x^2 + y^2 = 3 has no point over Q_2
        assert certs[0].obstruction == 2

    def test_conic_past_the_factorisation_limit_falls_back_to_a_pair(self):
        # y^2 = 2 - 1000003*1000033*x^2: the coefficient's two prime factors
        # are past trial division, so no place is proved and the search ends
        # in the conjugate pair over x = 0
        f = UPoly.of(2, 0, -1000003 * 1000033)
        assert cycleclass._conic_obstruction(f) is None
        certs = gamma_top_witness_search(Hyperelliptic(f))
        assert [c.status for c in certs] == [STATUS_DOUBLE]
        assert certs[0].obstruction is None
        assert certs[0].witness.terms[0].point == ConjugatePair(Fraction(0))

    def test_insoluble_conic_stops_after_height_one(self, monkeypatch):
        # the walk calls gcd once per sieve survivor; y^2 = 3 - x^2 is proved
        # insoluble after height 1, whose three candidates of the window
        # (-13/8, 13/8) are the only ones walked, and the pair is over the
        # window's first rational, x = -1; a walk to height 1000 would have
        # 1,626,500 candidates
        calls = []

        def counted(a, b):
            calls.append((a, b))
            return gcd(a, b)

        monkeypatch.setattr(cycleclass, "gcd", counted)
        certs = gamma_top_witness_search(Hyperelliptic(UPoly.of(3, 0, -1)), budget=1000)
        assert certs[0].status == STATUS_DOUBLE
        assert certs[0].witness.terms[0].point == ConjugatePair(Fraction(-1))
        assert len(calls) <= 3
        # a soluble conic still walks to its first point, (-3/17, 2/17) on
        # x^2 + y^2 = 13/289: up to height 17, and no further
        calls.clear()
        certs = gamma_top_witness_search(Hyperelliptic(UPoly.of(Fraction(13, 289), 0, -1)),
                                         budget=1000)
        assert certs[0].witness.terms[0].point == RationalPoint(Fraction(-3, 17), Fraction(2, 17))
        assert certs[0].obstruction is None and max(q for _, q in calls) == 17

    def test_sieve_keeps_most_candidates_from_the_gcd(self, monkeypatch):
        # a quartic whose two ovals hold no point up to height 50: only the
        # survivors of the sieve reach the gcd, which is called once each
        # (43 of the 8,127 candidates)
        calls = []

        def counted(a, b):
            calls.append((a, b))
            return gcd(a, b)

        monkeypatch.setattr(cycleclass, "gcd", counted)
        curve = Hyperelliptic(UPoly.of(11, 8, 1) * UPoly.of(10, 8, 1), True)   # (x+4)^2 - 5, - 6
        comps = real_components(curve)
        certs = gamma_top_witness_search(curve, budget=50)
        assert [c.status for c in certs] == [STATUS_DOUBLE] * 2
        sieve = cycleclass._Sieve(curve.f)
        candidates, survivors = 0, set()
        for comp in comps:
            lo, hi = cycleclass._interior_window(comp)
            for q in range(1, 51):
                row = cycleclass._row(lo, hi, q)
                candidates += len(row)
                survivors.update((p, q) for p in sieve.survivors(q, row))
        assert len(set(calls)) == len(calls) and set(calls) <= survivors
        assert candidates > 8000 and len(calls) <= candidates // 10

    def test_sieve_memory_does_not_grow_with_the_window(self):
        # at height 1 the window of y^2 = 3*10^12 - x^2 holds 3.46 million
        # candidates; sieved in blocks, the walk holds a few kilobytes, where
        # one bit mask over the row would take 433 kB
        tracemalloc.start()
        try:
            certs = gamma_top_witness_search(Hyperelliptic(UPoly.of(3 * 10 ** 12, 0, -1)),
                                             budget=50)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert certs[0].witness.terms[0].point == ConjugatePair(Fraction(-1732050))
        assert peak < 64 * 1024

    def test_a_point_at_height_one_needs_no_factoring(self, monkeypatch):
        # y^2 = 1 - N*x^2 with N = 999999999989 * 999983 has the point (0, 1):
        # the walk finds it at height 1, before the conic test would factor
        # N, whose prime 999983 costs half a million trial divisions
        calls = []

        def counted(a, b):
            calls.append((a, b))
            return hilbert_obstruction(a, b)

        monkeypatch.setattr(cycleclass, "hilbert_obstruction", counted)
        f = UPoly.of(1, 0, -999999999989 * 999983)
        certs = gamma_top_witness_search(Hyperelliptic(f), budget=1000)
        assert certs[0].witness.terms[0].point == RationalPoint(Fraction(0), Fraction(1))
        assert calls == []
        # y^2 = 3 - x^2 has no point at height 1, so it is factored once
        certs = gamma_top_witness_search(Hyperelliptic(UPoly.of(3, 0, -1)), budget=1000)
        assert certs[0].obstruction == 2 and calls == [(-1, 12)]

    def test_obstruction_only_on_insoluble_conics(self):
        # 5 = 1 + 4 and 1/2 = 1/4 + 1/4 are sums of two squares, 3 and 7 not;
        # y^2 = 3x^2 + 5 has points over Q_2 but none over Q_3 or Q_5, and is
        # a circle only when closed up through infinity; quartics are never
        # decided, and -(x^2-3)(x^2-7) has no rational root
        cases = [(UPoly.of(5, 0, -1), (False, True), None),
                 (UPoly.of(Fraction(1, 2), 0, -1), (False, True), None),
                 (UPoly.of(7, 0, -1), (False, True), 2),
                 (UPoly.of(5, 0, 3), (True,), 3),
                 (UPoly.of(21, 0, -10, 0, 1).scale(-1), (False, True), None)]
        for f, closures, place in cases:
            for projective in closures:
                certs = gamma_top_witness_search(Hyperelliptic(f, projective), budget=10)
                assert certs and all(c.obstruction == place for c in certs)

    @pytest.mark.parametrize("f, status", [(UPoly.of(1, 0, 0, 0, 1), STATUS_EXACT),
                                           (UPoly.of(2, 0, 0, 0, 1), STATUS_DOUBLE)])
    def test_separate_sheets(self, f, status):
        # y^2 = x^4 + 1 has the points (0, +-1); on y^2 = x^4 + 2 the search
        # finds none, so a conjugate pair.  Each sheet is its own circle, and
        # each witness hits its own circle only.
        curve = Hyperelliptic(f, projective=True)
        comps = real_components(curve)
        certs = gamma_top_witness_search(curve, budget=20)
        assert [(c.generator, c.status) for c in certs] == [("c0", status), ("c1", status)]
        for cert, sheet, other in zip(certs, (1, -1), ("c1", "c0")):
            achieved = class_of_zero_cycle(curve, untwisted(comps), cert.witness)
            assert achieved == cert.achieved
            assert achieved == {cert.generator: 1 if status == STATUS_EXACT else 2, other: 0}
            if status == STATUS_EXACT:
                assert cert.witness.terms[0].point.y * sheet > 0

    def test_rational_roots_helper(self):
        # the witness search reads rational branch points off the isolating
        # intervals; the quadratic factor t^2 + 1 has no real root
        f = UPoly.from_roots([1, Fraction(-1, 2)]) * UPoly.of(1, 0, 1)
        assert [rational_root(iv) for iv in isolate_real_roots(f)] == [Fraction(-1, 2), Fraction(1)]

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

    def test_predicted_exponent_meets_the_proved_bound_in_sharp_cells(self):
        # codimension d-1: predicted exponent 2 equals the proved bound
        for d in (2, 3, 4):
            rep = exponent_oracle(d, d - 1)
            assert rep.proven_bound == rep.conjectured_bound == 2
        # surfaces in codimension 0: predicted 4 equals the proved bound
        rep = exponent_oracle(2, 0)
        assert rep.proven_bound == rep.conjectured_bound == 4


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
