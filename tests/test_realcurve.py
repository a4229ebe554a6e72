import random
from fractions import Fraction

import pytest

from realcycle import abgrp
from realcycle.abgrp import FgAbGroup, GroupMap, check_exact, free_rank, invariant_factors
from realcycle.errors import MarkerOffComponent, NotSquareFree, UnsupportedClosure
from realcycle.numeric import UPoly
from realcycle.suite import ladder_cases
from realcycle.realcurve import (
    Hyperelliptic,
    ProjectiveLine,
    PuncturedLine,
    TwistDivisor,
    TwistMarker,
    bockstein_ladder,
    component_containing,
    real_components,
    twist_class,
    twisted_cohomology,
)
from sample_points import sample_point

X = UPoly.x()


def hyper(f, projective=False):
    return Hyperelliptic(f, projective)


def circle_count(components):
    return sum(1 for c in components if c.is_circle)


def reaches_infinity(component):
    return any(end.kind != "root" for arc in component.arcs for end in arc)


def untwisted(components):
    return {c.id: 0 for c in components}


class TestPuncturedLine:
    def test_single_puncture(self):
        comps = real_components(PuncturedLine.make([0]))
        assert len(comps) == 2
        assert all(c.kind == "interval" and not c.compact for c in comps)

    def test_no_punctures(self):
        comps = real_components(PuncturedLine.make())
        assert len(comps) == 1

    def test_duplicate_punctures_rejected(self):
        with pytest.raises(Exception):
            PuncturedLine.make([1, 1])
        with pytest.raises(UnsupportedClosure):
            PuncturedLine.make([Fraction(1, 2), 0, Fraction(2, 4)])

    def test_fractions_pass_through_and_others_convert(self):
        half = Fraction(1, 2)
        line = PuncturedLine.make([3, half, "-7/3"])
        assert line.punctures == (Fraction(-7, 3), half, Fraction(3))
        assert line.punctures[1] is half
        assert all(type(p) is Fraction for p in line.punctures)


class TestProjectiveLine:
    def test_one_circle(self):
        comps = real_components(ProjectiveLine())
        assert len(comps) == 1
        assert comps[0].is_circle and comps[0].compact


class TestHyperelliptic:
    def test_unit_circle(self):
        comps = real_components(hyper(UPoly.of(1, 0, -1)))     # 1 - x^2
        assert len(comps) == 1
        assert comps[0].is_circle and comps[0].compact

    def test_two_ovals(self):
        f = (UPoly.of(-1, 0, 1) * UPoly.of(-4, 0, 1)).scale(-1)   # -(x^2-1)(x^2-4)
        comps = real_components(hyper(f))
        assert circle_count(comps) == 2 and len(comps) == 2

    def test_elliptic_projective(self):
        comps = real_components(hyper(UPoly.of(0, -1, 0, 1), projective=True))   # x^3 - x
        assert len(comps) == 2
        assert all(c.is_circle and c.compact for c in comps)
        assert any(reaches_infinity(c) for c in comps)

    def test_elliptic_affine(self):
        comps = real_components(hyper(UPoly.of(0, -1, 0, 1)))
        kinds = sorted(c.kind for c in comps)
        assert kinds == ["circle", "interval"]

    def test_empty_locus(self):
        assert real_components(hyper(UPoly.of(-1, 0, -1))) == ()   # y^2 = -(x^2+1)

    def test_positive_definite_affine_gives_two_lines(self):
        comps = real_components(hyper(UPoly.of(1, 0, 1)))          # y^2 = x^2+1
        assert len(comps) == 2
        assert {c.branch for c in comps} == {"plus", "minus"}

    def test_positive_definite_projective_closes(self):
        # deg 2, half-degree odd: the two sheets close into one circle
        comps = real_components(hyper(UPoly.of(1, 0, 1), projective=True))
        assert len(comps) == 1 and comps[0].is_circle
        # deg 4, half-degree even: two disjoint circles
        comps4 = real_components(hyper(UPoly.of(1, 0, 0, 0, 1), projective=True))
        assert len(comps4) == 2 and all(c.is_circle for c in comps4)

    def test_even_degree_with_roots_wraps_once(self):
        f = UPoly.of(-4, 0, 5, 0, -1).scale(-1)    # (x^2-1)(x^2-4)
        affine = real_components(hyper(f))
        assert circle_count(affine) == 1 and len(affine) == 3
        closed = real_components(hyper(f, projective=True))
        assert len(closed) == 2 and all(c.is_circle for c in closed)
        wrap = [c for c in closed if reaches_infinity(c)]
        assert len(wrap) == 1 and len(wrap[0].arcs) == 2

    def test_projective_negative_leading_even_degree_adds_nothing(self):
        f = (UPoly.of(-1, 0, 1) * UPoly.of(-4, 0, 1)).scale(-1)
        assert real_components(hyper(f, projective=True)) == real_components(hyper(f))

    def test_double_root_rejected(self):
        with pytest.raises(NotSquareFree):
            hyper(UPoly.of(0, 0, 1))
        with pytest.raises(NotSquareFree):
            hyper(X * X * (X - UPoly.one()))

    def test_root_intervals_are_a_cache_not_a_field(self):
        f = UPoly.from_roots([-1, 0, 1])
        a, b = hyper(f), hyper(f)
        assert a.root_intervals is a.root_intervals
        assert [(iv.lo, iv.hi, iv.poly) for iv in a.root_intervals] == [
            (iv.lo, iv.hi, f) for iv in b.root_intervals]
        assert a == b and hash(a) == hash(b)
        assert a != hyper(f, projective=True)

    def test_component_count_matches_construction(self):
        rng = random.Random(2024)
        for _ in range(100):
            n = rng.randint(1, 6)
            roots = set()
            while len(roots) < n:
                roots.add(Fraction(rng.randint(-10, 10), rng.randint(1, 4)))
            roots = sorted(roots)
            lead = rng.choice([-2, -1, 1, 3])
            f = UPoly.from_roots(roots, lead)
            comps = real_components(hyper(f))
            # count maximal f >= 0 intervals by dense sampling between the
            # known roots (independent of the Sturm machinery)
            probes = [roots[0] - 1]
            for a, b in zip(roots, roots[1:]):
                probes.append((a + b) / 2)
            probes.append(roots[-1] + 1)
            positives = [f.eval_at(x) > 0 for x in probes]
            bounded = sum(1 for i in range(1, n) if positives[i])
            unbounded = int(positives[0]) + int(positives[-1])
            assert circle_count(comps) == bounded
            assert len(comps) - circle_count(comps) == unbounded

    def test_euler_characteristic_shadow(self):
        rng = random.Random(31415)
        for _ in range(40):
            n = rng.randint(2, 5)
            roots = sorted(rng.sample(range(-8, 9), n))
            f = UPoly.from_roots(roots, rng.choice([-1, 1]))
            comps = real_components(hyper(f))
            probes = [(a + b) / Fraction(2) for a, b in zip(roots, roots[1:])]
            bounded_positive = sum(1 for x in probes if f.eval_at(x) > 0)
            assert circle_count(comps) == bounded_positive


class TestLocation:
    def test_point_on_oval(self):
        curve = hyper(UPoly.of(1, 0, -1))
        comps = real_components(curve)
        assert component_containing(curve, Fraction(1, 2)).id == comps[0].id
        assert component_containing(curve, 1).id == comps[0].id   # root endpoint
        assert component_containing(curve, 2) is None

    def test_branch_split(self):
        curve = hyper(UPoly.of(1, 0, 1))
        plus = component_containing(curve, 0, y_sign=1)
        minus = component_containing(curve, 0, y_sign=-1)
        assert plus.branch == "plus" and minus.branch == "minus"

    def test_puncture_is_off_curve(self):
        curve = PuncturedLine.make([0])
        assert component_containing(curve, 0) is None
        assert component_containing(curve, -3).id == "c0"

    @pytest.mark.parametrize("curve, at_five_halves", [
        (PuncturedLine.make([Fraction(-7, 3), 0, Fraction(1, 6), 5]), "c3"),
        (ProjectiveLine(), "c0"),
        (hyper(UPoly.of(-1, 0, 1)), "c1"),
        (hyper(UPoly.of(1, 0, 0, 0, 1), projective=True), "c0"),
        (hyper((UPoly.of(-1, 0, 1) * UPoly.of(-4, 0, 1)).scale(-1)), None),
    ])
    def test_located_components_are_the_curves_own(self, curve, at_five_halves):
        # the components are computed once and kept on the curve; a point is
        # located on one of them, never on an equal copy, at x = 5/2 too
        # (right of the roots of x^2 - 1, and on the arc of P^1)
        comps = real_components(curve)
        assert real_components(curve) is comps
        for x in (Fraction(5, 2), -3, -1, 0, Fraction(1, 6), 1, Fraction(3, 2), 2, 7):
            for y_sign in (None, 1, -1):
                comp = component_containing(curve, x, y_sign)
                assert comp is None or any(comp is own for own in comps), (x, y_sign)
        comp = component_containing(curve, Fraction(5, 2))
        assert (comp and comp.id) == at_five_halves

    def test_sample_points_lie_inside(self):
        cases = [
            hyper(UPoly.of(1, 0, -1)),
            hyper((UPoly.of(-1, 0, 1) * UPoly.of(-4, 0, 1)).scale(-1)),
            hyper(UPoly.of(0, -1, 0, 1), projective=True),
            PuncturedLine.make([0, 1]),
            ProjectiveLine(),
        ]
        for curve in cases:
            comps = real_components(curve)
            for comp in comps:
                pt = sample_point(comp, curve)
                located = component_containing(curve, pt.x,
                                               pt.branch if pt.branch else None)
                assert located is not None and located.id == comp.id

    def test_interval_sample(self):
        curve = PuncturedLine.make([0])
        comps = real_components(curve)
        right = sample_point(comps[1], curve)
        assert right.x > 0


class TestTwist:
    def unit_circle(self):
        curve = hyper(UPoly.of(1, 0, -1))
        comps = real_components(curve)
        return curve, comps

    def test_single_marker_twists(self):
        curve, comps = self.unit_circle()
        div = TwistDivisor((TwistMarker(Fraction(0), 1, 1),))
        assert twist_class(curve, div) == {comps[0].id: 1}

    def test_two_markers_cancel(self):
        curve, comps = self.unit_circle()
        div = TwistDivisor((
            TwistMarker(Fraction(0), 1, 1),
            TwistMarker(Fraction(1, 2), 1, 1),
        ))
        assert twist_class(curve, div) == {comps[0].id: 0}

    def test_empty_divisor(self):
        curve, comps = self.unit_circle()
        assert twist_class(curve, TwistDivisor.empty()) == {comps[0].id: 0}

    def test_marker_off_component(self):
        curve, comps = self.unit_circle()
        with pytest.raises(MarkerOffComponent, match="x=5 is not on the real locus"):
            twist_class(curve, TwistDivisor((TwistMarker(Fraction(5), 1, 1),)))

    def test_interval_markers_stay_trivial(self):
        curve = PuncturedLine.make([0])
        comps = real_components(curve)
        div = TwistDivisor((TwistMarker(Fraction(2), 1, 1),))
        assert twist_class(curve, div) == {"c0": 0, "c1": 0}


class TestTwistedCohomology:
    def test_untwisted_circle(self):
        comps = real_components(hyper(UPoly.of(1, 0, -1)))
        coh = twisted_cohomology(comps, untwisted(comps))
        assert free_rank(coh.h0) == 1 and invariant_factors(coh.h0) == ()
        assert free_rank(coh.h1) == 1 and invariant_factors(coh.h1) == ()

    def test_twisted_circle(self):
        comps = real_components(hyper(UPoly.of(1, 0, -1)))
        bits = {comps[0].id: 1}
        coh = twisted_cohomology(comps, bits)
        assert free_rank(coh.h0) == 0 and coh.h0.n_generators == 0
        assert free_rank(coh.h1) == 0 and invariant_factors(coh.h1) == (2,)

    def test_two_intervals(self):
        comps = real_components(PuncturedLine.make([0]))
        coh = twisted_cohomology(comps, untwisted(comps))
        assert free_rank(coh.h0) == 2
        assert coh.h1.n_generators == 0

    def test_h0_rank_bookkeeping(self):
        f = (UPoly.of(-1, 0, 1) * UPoly.of(-4, 0, 1)).scale(-1)
        comps = real_components(hyper(f))
        bits = {comps[0].id: 1, comps[1].id: 0}
        coh = twisted_cohomology(comps, bits)
        assert free_rank(coh.h0) == 1   # only the untwisted circle contributes


class TestBocksteinLadder:
    def corpus(self):
        return [
            real_components(PuncturedLine.make()),
            real_components(PuncturedLine.make([0])),
            real_components(PuncturedLine.make([0, 1])),
            real_components(ProjectiveLine()),
            real_components(hyper(UPoly.of(1, 0, -1))),
            real_components(hyper((UPoly.of(-1, 0, 1) * UPoly.of(-4, 0, 1)).scale(-1))),
            real_components(hyper(UPoly.of(0, -1, 0, 1), projective=True)),
            real_components(hyper(UPoly.of(-1, 0, -1))),   # empty locus
        ]

    def test_untwisted_ladders_exact(self):
        for comps in self.corpus():
            report = check_exact(bockstein_ladder(comps, untwisted(comps)))
            assert report.ok, report

    def test_twisted_ladders_exact(self):
        for comps in self.corpus():
            circles = [c.id for c in comps if c.is_circle]
            if not circles:
                continue
            for target in circles:
                bits = {c.id: (1 if c.id == target else 0) for c in comps}
                report = check_exact(bockstein_ladder(comps, bits))
                assert report.ok, report

    def test_exactness_runs_two_hermite_forms_per_interior_node(self, monkeypatch):
        # at each of the six nodes: one for the kernel of the map out of it,
        # which is its Hermite basis, and one for the image of the map into it
        calls = []
        original = abgrp.hermite_form

        def counted(rows, width):
            calls.append(width)
            return original(rows, width)

        monkeypatch.setattr(abgrp, "hermite_form", counted)
        for comps in self.corpus():
            circles = [c.id for c in comps if c.is_circle]
            for bits in [untwisted(comps)] + [{c.id: int(c.id == t) for c in comps} for t in circles]:
                maps = bockstein_ladder(comps, bits)
                calls.clear()
                assert check_exact(maps).ok
                assert len(calls) == 12, (comps, bits)

    def test_twisted_circle_shape(self):
        comps = real_components(hyper(UPoly.of(1, 0, -1)))
        bits = {comps[0].id: 1}
        maps = bockstein_ladder(comps, bits)
        groups = [maps[0].target] + [m.target for m in maps[1:]]
        assert free_rank(groups[0]) == 0                      # H^0(Z(L)) = 0
        assert invariant_factors(groups[2]) == (2,)            # H^0(Z/2)
        assert invariant_factors(groups[3]) == (2,)            # H^1(Z(L))
        assert check_exact(maps).ok

    def test_ladder_matches_the_presentations_written_out(self):
        """Every (curve, twist) of the ``bockstein-ladders`` suite check: the
        cohomology groups and the seven maps equal, field by field, the ones
        written out entry by entry here."""
        def fields(m):
            return (m.source.labels, m.source.relations, m.target.labels,
                    m.target.relations, m.matrix)

        for _, comps, bits in ladder_cases():
            ids = [c.id for c in comps]
            circles = [c.id for c in comps if c.is_circle]
            h0_ids = [i for i in ids if i not in circles or bits[i] == 0]
            twisted = [i for i in circles if bits[i] == 1]
            h0 = FgAbGroup(tuple(h0_ids), tuple(() for _ in h0_ids))
            h1 = FgAbGroup(tuple(circles),
                           tuple(tuple(2 if c == t else 0 for t in twisted) for c in circles))
            coh = twisted_cohomology(comps, bits)
            assert (coh.h0.labels, coh.h0.relations) == (h0.labels, h0.relations)
            assert (coh.h1.labels, coh.h1.relations) == (h1.labels, h1.relations)

            def mod2(labels):
                n = len(labels)
                return FgAbGroup(tuple(labels), tuple(
                    tuple(2 if i == j else 0 for j in range(n)) for i in range(n)))

            def matrix(rows, cols, entry):
                return tuple(tuple(entry(r, c) for c in cols) for r in rows)

            h0_mod2, h1_mod2, zero = mod2(ids), mod2(circles), FgAbGroup((), ())
            want = [
                GroupMap(zero, h0, tuple(() for _ in h0_ids)),
                GroupMap(h0, h0, matrix(h0_ids, h0_ids, lambda r, c: 2 * (r == c))),
                GroupMap(h0, h0_mod2, matrix(ids, h0_ids, lambda r, c: int(r == c))),
                GroupMap(h0_mod2, h1, matrix(circles, ids,
                                             lambda r, c: int(r == c and bits[c] == 1))),
                GroupMap(h1, h1, matrix(circles, circles, lambda r, c: 2 * (r == c))),
                GroupMap(h1, h1_mod2, matrix(circles, circles, lambda r, c: int(r == c))),
                GroupMap(h1_mod2, zero, ()),
            ]
            got = bockstein_ladder(comps, bits)
            assert [fields(m) for m in got] == [fields(m) for m in want]
