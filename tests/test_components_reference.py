"""The components of a hyperelliptic curve against a reference copy of their
earlier builder.

``reference_components`` is ``realcurve._hyperelliptic_components`` as it was
before the one pass over the gaps of f: placeholder ids, a sort key of the
left root index and the branch rank, and a renumbering pass, run on the
intervals of the Fraction bisection (``isolation_oracle``) over one Sturm
chain of f/|lc f|.  Every field of every component must come out the same.
The isolating intervals must have the same ends; their polynomial is now f
itself, where the reference carries f/|lc f|, so the two agree up to a
positive scale.
"""

from fractions import Fraction

from hypothesis import example, given, settings
from hypothesis import strategies as st

from isolation_oracle import fraction_bisect
from realcycle import numeric
from realcycle.numeric import UPoly, gap_samples
from realcycle.realcurve import (
    BRANCH_BOTH,
    BRANCH_MINUS,
    BRANCH_PLUS,
    END_NEG_INF,
    END_POS_INF,
    END_ROOT,
    KIND_CIRCLE,
    KIND_INTERVAL,
    Arc,
    ArcEnd,
    Hyperelliptic,
    RealComponent,
    real_components,
)

SETTINGS = settings(max_examples=300, deadline=None, derandomize=True)


# --- the reference builder ------------------------------------------------------

def reference_components(curve: Hyperelliptic) -> tuple[RealComponent, ...]:
    f = curve.f
    ivs = fraction_bisect([numeric._sturm_chain(f.scale(1 / abs(f.lc)))])
    k = len(ivs)
    signs = [f.sign_at(x) for x in gap_samples(ivs)]
    assert all(s != 0 for s in signs)
    for a, b in zip(signs, signs[1:]):
        assert a != b, "simple roots must separate signs"

    root_end = [ArcEnd.root(i, iv) for i, iv in enumerate(ivs)]
    deg, lead = f.degree, f.lc
    has_infinity = curve.projective and (deg % 2 == 1 or lead > 0)

    # sort key: leftmost root index (-1 for unbounded left), then branch
    pieces: list[tuple[int, int, RealComponent]] = []

    def add(left_idx, branch_rank, comp):
        pieces.append((left_idx, branch_rank, comp))

    # bounded ovals
    for g in range(1, k):
        if signs[g] > 0:
            arc = ((root_end[g - 1], root_end[g]),)
            add(g - 1, 0, RealComponent("?", KIND_CIRCLE, True, arc))

    if k == 0:
        if signs[0] > 0:
            whole: Arc = (ArcEnd.neg_inf(), ArcEnd.pos_inf())
            if has_infinity:
                # two branches over the whole line, closing up through the two
                # (resp. one) real points at infinity
                if deg % 2 == 1:
                    raise AssertionError("odd degree forces a real root")
                if (deg // 2) % 2 == 0:
                    add(-1, 0, RealComponent("?", KIND_CIRCLE, True, (whole,),
                                             branch=BRANCH_PLUS))
                    add(-1, 1, RealComponent("?", KIND_CIRCLE, True, (whole,),
                                             branch=BRANCH_MINUS))
                else:
                    add(-1, 0, RealComponent("?", KIND_CIRCLE, True, (whole,)))
            else:
                add(-1, 0, RealComponent("?", KIND_INTERVAL, False, (whole,),
                                         branch=BRANCH_PLUS))
                add(-1, 1, RealComponent("?", KIND_INTERVAL, False, (whole,),
                                         branch=BRANCH_MINUS))
    else:
        left_open = signs[0] > 0
        right_open = signs[k] > 0
        left_arc: Arc = (ArcEnd.neg_inf(), root_end[0])
        right_arc: Arc = (root_end[k - 1], ArcEnd.pos_inf())
        if has_infinity and deg % 2 == 0:
            # both ends reach infinity and meet there: one circle through both
            assert left_open and right_open
            add(-1, 0, RealComponent("?", KIND_CIRCLE, True, (left_arc, right_arc)))
        else:
            if left_open:
                closes = has_infinity and deg % 2 == 1 and lead < 0
                add(-1, 0, RealComponent("?", KIND_CIRCLE if closes else KIND_INTERVAL,
                                         closes, (left_arc,)))
            if right_open:
                closes = has_infinity and deg % 2 == 1 and lead > 0
                add(k - 1, 0, RealComponent("?", KIND_CIRCLE if closes else KIND_INTERVAL,
                                            closes, (right_arc,)))

    pieces.sort(key=lambda t: (t[0], t[1]))
    out = []
    for i, (_, _, comp) in enumerate(pieces):
        out.append(RealComponent(f"c{i}", comp.kind, comp.compact, comp.arcs, comp.branch))
    return tuple(out)


# --- inputs ---------------------------------------------------------------------

def _positive_multiple(p: UPoly, q: UPoly) -> bool:
    """Is p a positive rational multiple of q?"""
    return p.degree == q.degree and p.scale(q.lc / p.lc) == q and q.lc / p.lc > 0


fractional = st.builds(Fraction, st.integers(-40, 40), st.integers(1, 9))
far = st.builds(lambda n, e: Fraction(n * 10 ** e), st.integers(-9, 9), st.integers(3, 20))
planted = st.lists(st.one_of(fractional, far), max_size=7, unique=True).map(sorted)
# x^2 + c with c > 0 has no real root, so a product of them leaves k = 0
positive_cs = st.lists(st.builds(Fraction, st.integers(1, 50), st.integers(1, 7)),
                       max_size=3, unique=True)
leads = st.builds(Fraction, st.integers(1, 30), st.integers(1, 30)).flatmap(
    lambda c: st.sampled_from((c, -c)))


def _curve(roots, cs, lead, projective) -> Hyperelliptic:
    f = UPoly.from_roots(roots, lead)
    for c in cs:
        f = f * UPoly.of(c, 0, 1)
    return Hyperelliptic(f, projective)


# --- the properties ---------------------------------------------------------------

def _assert_same_component(got: RealComponent, want: RealComponent):
    assert (got.id, got.kind, got.compact, got.branch) == (
        want.id, want.kind, want.compact, want.branch)
    assert len(got.arcs) == len(want.arcs)
    for got_arc, want_arc in zip(got.arcs, want.arcs):
        for g, w in zip(got_arc, want_arc):
            assert (g.kind, g.value, g.index) == (w.kind, w.value, w.index)
            assert (g.interval is None) == (w.interval is None)
            if g.interval is not None:
                assert (g.interval.lo, g.interval.hi) == (w.interval.lo, w.interval.hi)
                assert _positive_multiple(g.interval.poly, w.interval.poly)


@given(planted, positive_cs, leads, st.booleans())
@example([], [Fraction(1)], Fraction(1), True)                  # x^2 + 1: deg/2 odd
@example([], [Fraction(1), Fraction(2)], Fraction(1), True)     # deg/2 even
@example([], [Fraction(1), Fraction(2)], Fraction(1), False)
@example([], [Fraction(1)], Fraction(-1), True)                 # empty locus
@example([0], [], Fraction(-1), True)
@example([-1, 0, 1], [], Fraction(1), True)
@SETTINGS
def test_components_are_the_reference_builders(roots, cs, lead, projective):
    curve = _curve(roots, cs, lead, projective)
    got, want = real_components(curve), reference_components(curve)
    assert len(got) == len(want)
    for g, w in zip(got, want):
        _assert_same_component(g, w)


@given(st.lists(fractional, min_size=1, max_size=7, unique=True).map(sorted),
       positive_cs, leads, st.booleans())
@SETTINGS
def test_planted_roots_follow_the_gap_parity_rule(roots, cs, lead, projective):
    """f has the sign of lc(f) * (-1)^(k - j) in gap j, between roots j - 1 and
    j: the components cover exactly the positive gaps, each once, and in
    increasing order of their leftmost gap; only a projective even-degree f
    joins its two unbounded gaps, and only a projective model closes one."""
    curve = _curve(roots, cs, lead, projective)
    k, deg = len(roots), curve.f.degree
    positive = [j for j in range(k + 1) if (1 if lead > 0 else -1) * (-1) ** (k - j) > 0]

    def gap_of(arc) -> int:
        lo, hi = arc
        if lo.kind == END_NEG_INF:
            assert hi.kind == END_ROOT and hi.index == 0
            return 0
        assert lo.kind == END_ROOT and (hi.kind == END_POS_INF or hi.index == lo.index + 1)
        assert lo.interval.lo < roots[lo.index] < lo.interval.hi
        return lo.index + 1

    comps = real_components(curve)
    covered = [[gap_of(arc) for arc in comp.arcs] for comp in comps]
    assert sorted(j for gaps in covered for j in gaps) == positive
    assert [gaps[0] for gaps in covered] == sorted(gaps[0] for gaps in covered)
    assert ([0, k] in covered) == (projective and deg % 2 == 0 and 0 in positive)
    for comp, gaps in zip(comps, covered):
        unbounded = [j for j in gaps if j in (0, k)]
        if len(gaps) == 2:
            assert gaps == [0, k] and projective and deg % 2 == 0
        assert comp.branch == BRANCH_BOTH
        assert comp.is_circle == comp.compact == (projective or not unbounded)
