"""Topology of the real locus of the supported curve models.

Three model families are supported: the affine line minus rational punctures,
the projective line, and hyperelliptic curves y^2 = f(x) with f square-free,
optionally closed up projectively.  Components of the real locus are computed
by exact sign analysis of f: each maximal interval where f >= 0 carries two
branches glued at simple roots, and the projective closure attaches real
points at infinity combinatorially, by the parity of deg f and the sign of the
leading coefficient.

Components carry enough exact data (isolating intervals for their root
endpoints) to place rational points on them, to evaluate twist parities of
divisors, and to build the integral/mod-2 coefficient ladder as explicit maps
between presented groups.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence, Union

from .abgrp import FgAbGroup, GroupMap
from .errors import MarkerOffComponent, NotSquareFree, UnsupportedClosure
from .numeric import IsolatingInterval, UPoly, gap_samples, isolate_real_roots, sign_of

# --- curve models -------------------------------------------------------------


@dataclass(frozen=True)
class PuncturedLine:
    """The affine line minus a finite set of rational points."""

    punctures: tuple[Fraction, ...]

    @staticmethod
    def make(punctures: Sequence = ()) -> "PuncturedLine":
        pts = sorted(Fraction(p) for p in punctures)
        for a, b in zip(pts, pts[1:]):
            if a == b:
                raise UnsupportedClosure("punctures must be distinct")
        return PuncturedLine(tuple(pts))


@dataclass(frozen=True)
class ProjectiveLine:
    pass


@dataclass(frozen=True)
class Hyperelliptic:
    """The curve y^2 = f(x), affine or with its smooth projective closure."""

    f: UPoly
    projective: bool = False

    def __post_init__(self):
        if self.f.is_zero:
            raise NotSquareFree("f must be nonzero")
        if self.f.degree >= 1 and self.f.gcd(self.f.deriv()).degree > 0:
            raise NotSquareFree("f has a repeated root")


CurveModel = Union[PuncturedLine, ProjectiveLine, Hyperelliptic]


# --- components ----------------------------------------------------------------

END_NEG_INF = "-inf"
END_POS_INF = "+inf"
END_RATIONAL = "rational"
END_ROOT = "root"

KIND_INTERVAL = "interval"
KIND_CIRCLE = "circle"

BRANCH_BOTH = "both"
BRANCH_PLUS = "plus"
BRANCH_MINUS = "minus"


@dataclass(frozen=True)
class ArcEnd:
    kind: str
    value: Optional[Fraction] = None                    # rational endpoint
    root_index: Optional[int] = None                    # index into sorted roots of f
    interval: Optional[IsolatingInterval] = None        # isolates that root

    @staticmethod
    def neg_inf() -> "ArcEnd":
        return ArcEnd(END_NEG_INF)

    @staticmethod
    def pos_inf() -> "ArcEnd":
        return ArcEnd(END_POS_INF)

    @staticmethod
    def rational(x: Fraction) -> "ArcEnd":
        return ArcEnd(END_RATIONAL, value=x)

    @staticmethod
    def root(i: int, iv: IsolatingInterval) -> "ArcEnd":
        return ArcEnd(END_ROOT, root_index=i, interval=iv)

    def describe(self):
        if self.kind in (END_NEG_INF, END_POS_INF):
            return self.kind
        if self.kind == END_RATIONAL:
            return str(self.value)
        return {"root_between": [str(self.interval.lo), str(self.interval.hi)]}


Arc = tuple[ArcEnd, ArcEnd]


@dataclass(frozen=True)
class RealComponent:
    """A connected component of the real locus of a curve.

    ``arcs`` lists the x-ranges covered (two of them for a circle closed up
    through infinity); ``branch`` restricts to one sheet of y = +-sqrt(f) in
    the one case where the sheets are separate components.  Circles are
    oriented by increasing x on the plus branch.
    """

    id: str
    kind: str
    compact: bool
    arcs: tuple[Arc, ...]
    branch: str = BRANCH_BOTH
    through_infinity: bool = False

    @property
    def is_circle(self) -> bool:
        return self.kind == KIND_CIRCLE


def real_components(curve: CurveModel) -> tuple[RealComponent, ...]:
    if isinstance(curve, PuncturedLine):
        ends = [ArcEnd.neg_inf()] + [ArcEnd.rational(p) for p in curve.punctures] + [ArcEnd.pos_inf()]
        return tuple(
            RealComponent(f"c{i}", KIND_INTERVAL, False, ((lo, hi),))
            for i, (lo, hi) in enumerate(zip(ends, ends[1:]))
        )
    if isinstance(curve, ProjectiveLine):
        return (RealComponent("c0", KIND_CIRCLE, True,
                              ((ArcEnd.neg_inf(), ArcEnd.pos_inf()),),
                              through_infinity=True),)
    return _hyperelliptic_components(curve)


def _hyperelliptic_components(curve: Hyperelliptic) -> tuple[RealComponent, ...]:
    f = curve.f
    ivs = isolate_real_roots(f)
    k = len(ivs)
    signs = [sign_of(f.eval_at(x)) for x in gap_samples(ivs)]
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
                                             branch=BRANCH_PLUS, through_infinity=True))
                    add(-1, 1, RealComponent("?", KIND_CIRCLE, True, (whole,),
                                             branch=BRANCH_MINUS, through_infinity=True))
                else:
                    add(-1, 0, RealComponent("?", KIND_CIRCLE, True, (whole,),
                                             through_infinity=True))
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
            add(-1, 0, RealComponent("?", KIND_CIRCLE, True, (left_arc, right_arc),
                                     through_infinity=True))
        else:
            if left_open:
                closes = has_infinity and deg % 2 == 1 and lead < 0
                add(-1, 0, RealComponent("?", KIND_CIRCLE if closes else KIND_INTERVAL,
                                         closes, (left_arc,), through_infinity=closes))
            if right_open:
                closes = has_infinity and deg % 2 == 1 and lead > 0
                add(k - 1, 0, RealComponent("?", KIND_CIRCLE if closes else KIND_INTERVAL,
                                            closes, (right_arc,), through_infinity=closes))

    pieces.sort(key=lambda t: (t[0], t[1]))
    out = []
    for i, (_, _, comp) in enumerate(pieces):
        out.append(RealComponent(f"c{i}", comp.kind, comp.compact, comp.arcs,
                                 comp.branch, comp.through_infinity))
    return tuple(out)


# --- locating rational points ---------------------------------------------------

def _compare_to_end(x: Fraction, end: ArcEnd) -> int:
    """-1, 0, +1 for x left of / at / right of the arc end."""
    if end.kind == END_NEG_INF:
        return 1
    if end.kind == END_POS_INF:
        return -1
    if end.kind == END_RATIONAL:
        return sign_of(x - end.value)
    # refine the root's isolating interval until x falls outside, unless x is
    # that root
    iv = end.interval
    if iv.contains(x) and iv.poly.eval_at(x) == 0:
        return 0
    while iv.contains(x):
        iv = iv.refined()
    return -1 if x <= iv.lo else 1


def _x_on_arc(x: Fraction, arc: Arc) -> bool:
    """Root endpoints belong to the arc; rational and infinite ends do not."""
    lo, hi = arc
    cl = _compare_to_end(x, lo)
    ch = _compare_to_end(x, hi)
    if cl == 0:
        return lo.kind == END_ROOT
    if ch == 0:
        return hi.kind == END_ROOT
    return cl > 0 and ch < 0


def component_containing(curve: CurveModel, components: Sequence[RealComponent],
                         x, y_sign: Optional[int] = None) -> Optional[RealComponent]:
    """The component holding the real point with abscissa x (branch sign used
    only where the two sheets are separate components).  None when the point
    is not on the real locus."""
    x = Fraction(x)
    if isinstance(curve, PuncturedLine) and x in curve.punctures:
        return None
    if isinstance(curve, Hyperelliptic) and curve.f.eval_at(x) < 0:
        return None
    for comp in components:
        if comp.branch != BRANCH_BOTH and y_sign is not None:
            if (comp.branch == BRANCH_PLUS) != (y_sign > 0):
                continue
        if any(_x_on_arc(x, arc) for arc in comp.arcs):
            return comp
    return None


@dataclass(frozen=True)
class SamplePoint:
    x: Fraction
    branch: int      # +1 / -1 sheet, 0 where y is not part of the model


def sample_point(component: RealComponent, curve: CurveModel) -> SamplePoint:
    """A rational-x point strictly inside the component, on the plus branch."""
    lo, hi = component.arcs[0]
    if lo.kind == END_NEG_INF and hi.kind == END_POS_INF:
        x = Fraction(0)
    elif lo.kind == END_NEG_INF:
        x = (hi.value - 1) if hi.kind == END_RATIONAL else hi.interval.lo
    elif hi.kind == END_POS_INF:
        x = (lo.value + 1) if lo.kind == END_RATIONAL else lo.interval.hi
    elif lo.kind == END_RATIONAL:
        x = (lo.value + hi.value) / 2
    else:
        x = (lo.interval.hi + hi.interval.lo) / 2
    branch = 0
    if isinstance(curve, Hyperelliptic):
        branch = -1 if component.branch == BRANCH_MINUS else 1
        assert curve.f.eval_at(x) > 0
    return SamplePoint(x, branch)


# --- twists ----------------------------------------------------------------------

@dataclass(frozen=True)
class TwistMarker:
    component_id: str
    x: Fraction
    branch: int = 1
    multiplicity: int = 1


@dataclass(frozen=True)
class TwistDivisor:
    markers: tuple[TwistMarker, ...]

    @staticmethod
    def empty() -> "TwistDivisor":
        return TwistDivisor(())


def twist_class(curve: CurveModel, components: Sequence[RealComponent],
                divisor: TwistDivisor) -> dict[str, int]:
    """Per-component twist bit: total marker multiplicity mod 2 on circles,
    always 0 on intervals (every line bundle on an interval is trivial)."""
    bits = {comp.id: 0 for comp in components}
    by_id = {comp.id: comp for comp in components}
    for marker in divisor.markers:
        comp = by_id.get(marker.component_id)
        if comp is None:
            raise MarkerOffComponent(f"no component {marker.component_id}")
        located = component_containing(curve, components, marker.x, marker.branch)
        if located is None or located.id != comp.id:
            raise MarkerOffComponent(
                f"point x={marker.x} is not on component {marker.component_id}")
        if comp.is_circle:
            bits[comp.id] = (bits[comp.id] + marker.multiplicity) % 2
    return bits


# --- twisted cohomology -----------------------------------------------------------

@dataclass(frozen=True)
class TwistedCohomology:
    h0: FgAbGroup
    h1: FgAbGroup


def twisted_cohomology(components: Sequence[RealComponent],
                       bits: dict[str, int]) -> TwistedCohomology:
    """H^0 is free on intervals and untwisted circles; H^1 collects a Z per
    untwisted circle and a Z/2 per twisted circle."""
    h0_labels = tuple(c.id for c in components if not c.is_circle or bits[c.id] == 0)
    circles = [c for c in components if c.is_circle]
    h1_labels = tuple(c.id for c in circles)
    twisted = [c.id for c in circles if bits[c.id] == 1]
    relations = tuple(
        tuple((2 if c.id == t else 0) for t in twisted)
        for c in circles
    )
    return TwistedCohomology(FgAbGroup.free(*h0_labels), FgAbGroup(h1_labels, relations))


def bockstein_ladder(components: Sequence[RealComponent],
                     bits: dict[str, int]) -> list[GroupMap]:
    """The six-term coefficient sequence
    0 -> H^0(Z(L)) -2-> H^0(Z(L)) -> H^0(Z/2) -> H^1(Z(L)) -2-> H^1(Z(L)) -> H^1(Z/2) -> 0
    as explicit maps of presented groups, ready for exactness checking."""
    coh = twisted_cohomology(components, bits)
    h0, h1 = coh.h0, coh.h1
    all_ids = [c.id for c in components]
    circle_ids = [c.id for c in components if c.is_circle]
    h0_mod2 = FgAbGroup(tuple(all_ids), tuple(
        tuple((2 if i == j else 0) for j in range(len(all_ids)))
        for i in range(len(all_ids))
    ))
    h1_mod2 = FgAbGroup(tuple(circle_ids), tuple(
        tuple((2 if i == j else 0) for j in range(len(circle_ids)))
        for i in range(len(circle_ids))
    ))
    zero = FgAbGroup.trivial()

    red0 = GroupMap.make(h0, h0_mod2, [
        [1 if row_id == col_id else 0 for col_id in h0.labels]
        for row_id in all_ids
    ])
    bock = GroupMap.make(h0_mod2, h1, [
        [1 if (col_id == row_id and bits[col_id] == 1) else 0 for col_id in all_ids]
        for row_id in h1.labels
    ])
    red1 = GroupMap.make(h1, h1_mod2, [
        [1 if row_id == col_id else 0 for col_id in h1.labels]
        for row_id in circle_ids
    ])
    return [
        GroupMap.zero(zero, h0),
        GroupMap.scalar(h0, 2),
        red0,
        bock,
        GroupMap.scalar(h1, 2),
        red1,
        GroupMap.zero(h1_mod2, zero),
    ]
