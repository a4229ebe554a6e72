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

from bisect import bisect_left
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from typing import Optional, Sequence, Union

from .abgrp import FgAbGroup, GroupMap
from .errors import MarkerOffComponent, NotSquareFree, UnsupportedClosure
from .numeric import IsolatingInterval, UPoly, gap_samples, isolate_coprime_roots, sign_of

# --- curve models -------------------------------------------------------------


@dataclass(unsafe_hash=True)
class PuncturedLine:
    """The affine line minus a finite set of rational points."""

    punctures: tuple[Fraction, ...]

    @staticmethod
    def make(punctures: Sequence = ()) -> "PuncturedLine":
        pts = sorted(p if type(p) is Fraction else Fraction(p) for p in punctures)
        for a, b in zip(pts, pts[1:]):
            if a == b:
                raise UnsupportedClosure("punctures must be distinct")
        return PuncturedLine(tuple(pts))


@dataclass(unsafe_hash=True)
class ProjectiveLine:
    pass


@dataclass(unsafe_hash=True)
class Hyperelliptic:
    """The curve y^2 = f(x), affine or with its smooth projective closure."""

    f: UPoly
    projective: bool = False

    def __post_init__(self):
        if self.f.is_zero:
            raise NotSquareFree("f must be nonzero")
        self.root_intervals     # f's Sturm chain raises NotSquareFree on a repeated root

    @cached_property
    def root_intervals(self) -> tuple[IsolatingInterval, ...]:
        """The isolating intervals of the real roots of f, sorted, from the
        one Sturm chain of f; a cache, not a field, so ignored by equality."""
        return isolate_coprime_roots((self.f,))


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


@dataclass(unsafe_hash=True)
class ArcEnd:
    kind: str
    value: Optional[Fraction] = None                    # rational endpoint
    index: Optional[int] = None                         # its cut: puncture or root of f, in order
    interval: Optional[IsolatingInterval] = None        # isolates that root

    @staticmethod
    def neg_inf() -> "ArcEnd":
        return ArcEnd(END_NEG_INF)

    @staticmethod
    def pos_inf() -> "ArcEnd":
        return ArcEnd(END_POS_INF)

    @staticmethod
    def rational(i: int, x: Fraction) -> "ArcEnd":
        return ArcEnd(END_RATIONAL, x, i)

    @staticmethod
    def root(i: int, iv: IsolatingInterval) -> "ArcEnd":
        return ArcEnd(END_ROOT, index=i, interval=iv)

    def describe(self):
        if self.kind in (END_NEG_INF, END_POS_INF):
            return self.kind
        if self.kind == END_RATIONAL:
            return str(self.value)
        return {"root_between": [str(self.interval.lo), str(self.interval.hi)]}


Arc = tuple[ArcEnd, ArcEnd]


@dataclass(unsafe_hash=True)
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

    @property
    def is_circle(self) -> bool:
        return self.kind == KIND_CIRCLE


def real_components(curve: CurveModel) -> tuple[RealComponent, ...]:
    """The components of the real locus, left to right, computed on the first
    call and kept on the curve, so the same curve always gives the same tuple
    and every reader of components takes the curve alone."""
    comps = curve.__dict__.get("_components")
    if comps is None:
        comps = curve.__dict__["_components"] = _components(curve)
    return comps


def _components(curve: CurveModel) -> tuple[RealComponent, ...]:
    if isinstance(curve, PuncturedLine):
        cuts = [ArcEnd.rational(i, p) for i, p in enumerate(curve.punctures)]
        ends = [ArcEnd.neg_inf(), *cuts, ArcEnd.pos_inf()]
        return tuple(
            RealComponent(f"c{i}", KIND_INTERVAL, False, ((lo, hi),))
            for i, (lo, hi) in enumerate(zip(ends, ends[1:]))
        )
    if isinstance(curve, ProjectiveLine):
        return (RealComponent("c0", KIND_CIRCLE, True, ((ArcEnd.neg_inf(), ArcEnd.pos_inf()),)),)
    return _hyperelliptic_components(curve)


def _hyperelliptic_components(curve: Hyperelliptic) -> tuple[RealComponent, ...]:
    """One left-to-right pass over the gaps between the roots of f.

    A gap where f > 0 carries two branches glued at its root ends, so a
    bounded one is an oval.  The affine model leaves the unbounded gaps open;
    the projective model closes them through its real points at infinity,
    where an even-degree f joins its two ends into one circle."""
    f, ivs = curve.f, curve.root_intervals
    signs = [f.sign_at(x) for x in gap_samples(ivs)]
    assert all(s != 0 for s in signs)
    for a, b in zip(signs, signs[1:]):
        assert a != b, "simple roots must separate signs"
    ends = [ArcEnd.neg_inf(), *(ArcEnd.root(i, iv) for i, iv in enumerate(ivs)), ArcEnd.pos_inf()]
    gaps = [gap for gap, s in zip(zip(ends, ends[1:]), signs) if s > 0]
    if gaps and not ivs:
        # f > 0 on the whole line: the affine model keeps the two sheets
        # apart; the points at infinity close each sheet on itself when
        # deg f / 2 is even, and join the two sheets when it is odd
        joined = curve.projective and f.degree // 2 % 2 == 1
        sheets = (BRANCH_BOTH,) if joined else (BRANCH_PLUS, BRANCH_MINUS)
        pieces = [(tuple(gaps), b, curve.projective) for b in sheets]
    else:
        pieces = []     # (arcs, branch, closed), left to right
        if curve.projective and f.degree % 2 == 0 and signs[0] > 0:
            pieces.append(((gaps.pop(0), gaps.pop()), BRANCH_BOTH, True))
        pieces += [(((lo, hi),), BRANCH_BOTH, curve.projective or lo.kind == hi.kind == END_ROOT)
                   for lo, hi in gaps]
    return tuple(
        RealComponent(f"c{i}", KIND_CIRCLE if closed else KIND_INTERVAL, closed, arcs, branch)
        for i, (arcs, branch, closed) in enumerate(pieces))


# --- locating rational points ---------------------------------------------------

class _Locator:
    """Where a rational x lies on the real line of a curve, and the
    components there.

    The cuts are the punctures of a line or the isolating intervals of the
    roots of f, in increasing order; a projective line has none.  Slot 2i is
    the open gap left of cut i (slot 2n the gap right of the last of n cuts)
    and slot 2i + 1 the cut itself.  ``owners`` lists, slot by slot, the
    curve's components holding it, in their order: an arc covers the gap
    right of its lower end's cut, slot 2i + 2 for cut i of either kind, and
    holds its root ends, but no rational end.
    """

    def __init__(self, curve: CurveModel):
        self.punctures: Sequence[Fraction] = ()
        self.intervals: Sequence[IsolatingInterval] = ()
        self.left_signs: list[int] = []     # the sign of f just left of each root
        if isinstance(curve, PuncturedLine):
            self.punctures = curve.punctures
            n = len(self.punctures)
        elif isinstance(curve, Hyperelliptic):
            self.intervals = curve.root_intervals
            n = len(self.intervals)
            # f has the sign of lc f right of its last root and changes sign
            # at each of its simple roots
            lead = sign_of(curve.f.lc)
            self.left_signs = [lead * (-1) ** (n - i) for i in range(n)]
        else:
            n = 0
        self.his = [iv.hi for iv in self.intervals]
        self.owners: list[list[RealComponent]] = [[] for _ in range(2 * n + 1)]
        for comp in real_components(curve):
            for lo, hi in comp.arcs:
                gap = 0 if lo.kind == END_NEG_INF else 2 * lo.index + 2
                self.owners[gap].append(comp)
                if lo.kind == END_ROOT:
                    self.owners[gap - 1].append(comp)
                if hi.kind == END_ROOT:
                    self.owners[2 * hi.index + 1].append(comp)

    def slot(self, x: Fraction) -> int:
        """The slot of x: by bisection over the punctures, or over the upper
        ends of the root intervals and then, inside an interval, by the sign
        of f at x against the one just left of its root."""
        if self.punctures:
            i = bisect_left(self.punctures, x)
            return 2 * i + 1 if i < len(self.punctures) and self.punctures[i] == x else 2 * i
        i = bisect_left(self.his, x)
        if i == len(self.his):
            return 2 * i
        iv = self.intervals[i]
        if x <= iv.lo:
            return 2 * i
        # lo < x <= hi, and iv.poly = f changes sign once in the interval, at the root
        s = iv.poly.sign_at(x)
        if s == 0:
            return 2 * i + 1
        return 2 * i if s == self.left_signs[i] else 2 * i + 2


def component_containing(curve: CurveModel, x,
                         y_sign: Optional[int] = None) -> Optional[RealComponent]:
    """The component holding the real point with abscissa x (branch sign used
    only where the two sheets are separate components).  None when the point
    is not on the real locus.

    The point is found by bisection over the cuts of the curve (see
    ``_Locator``), which is built on the first call and kept on the curve, so
    a call costs a logarithm of the number of components."""
    locator = curve.__dict__.get("_locator")
    if locator is None:
        locator = curve.__dict__["_locator"] = _Locator(curve)
    for comp in locator.owners[locator.slot(Fraction(x))]:
        if comp.branch == BRANCH_BOTH or y_sign is None or (comp.branch == BRANCH_PLUS) == (y_sign > 0):
            return comp
    return None


# --- twists ----------------------------------------------------------------------

@dataclass(unsafe_hash=True)
class TwistMarker:
    x: Fraction
    branch: int = 1
    multiplicity: int = 1


@dataclass(unsafe_hash=True)
class TwistDivisor:
    markers: tuple[TwistMarker, ...]

    @staticmethod
    def empty() -> "TwistDivisor":
        return TwistDivisor(())


def twist_class(curve: CurveModel, divisor: TwistDivisor) -> dict[str, int]:
    """Per-component twist bit: total marker multiplicity mod 2 on circles,
    always 0 on intervals (every line bundle on an interval is trivial).
    Each marker is located once, on the sheet its branch picks; one off the
    real locus raises MarkerOffComponent."""
    bits = {comp.id: 0 for comp in real_components(curve)}
    for marker in divisor.markers:
        comp = component_containing(curve, marker.x, marker.branch)
        if comp is None:
            raise MarkerOffComponent(f"twist point x={marker.x} is not on the real locus")
        if comp.is_circle:
            bits[comp.id] = (bits[comp.id] + marker.multiplicity) % 2
    return bits


# --- twisted cohomology -----------------------------------------------------------

@dataclass(unsafe_hash=True)
class TwistedCohomology:
    h0: FgAbGroup
    h1: FgAbGroup


def twisted_cohomology(components: Sequence[RealComponent],
                       bits: dict[str, int]) -> TwistedCohomology:
    """H^0 is free on intervals and untwisted circles; H^1 collects a Z per
    untwisted circle and a Z/2 per twisted circle."""
    h0_labels = tuple(c.id for c in components if not c.is_circle or bits[c.id] == 0)
    circles = [c for c in components if c.is_circle]
    orders = [2 if bits[c.id] == 1 else 0 for c in circles]
    return TwistedCohomology(FgAbGroup.free(*h0_labels),
                             FgAbGroup.of_cyclics(*(c.id for c in circles), orders=orders))


def bockstein_ladder(components: Sequence[RealComponent],
                     bits: dict[str, int]) -> list[GroupMap]:
    """The six-term coefficient sequence
    0 -> H^0(Z(L)) -2-> H^0(Z(L)) -> H^0(Z/2) -> H^1(Z(L)) -2-> H^1(Z(L)) -> H^1(Z/2) -> 0
    as explicit maps of presented groups, ready for exactness checking."""
    coh = twisted_cohomology(components, bits)
    h0, h1 = coh.h0, coh.h1
    all_ids = [c.id for c in components]
    circle_ids = [c.id for c in components if c.is_circle]
    h0_mod2 = FgAbGroup.of_cyclics(*all_ids, orders=[2] * len(all_ids))
    h1_mod2 = FgAbGroup.of_cyclics(*circle_ids, orders=[2] * len(circle_ids))
    zero = FgAbGroup.trivial()

    def by_label(source, target, keep=lambda label: True):
        """Each kept source generator to the target generator with its label."""
        return GroupMap.make(source, target, [
            [1 if row_id == col_id and keep(col_id) else 0 for col_id in source.labels]
            for row_id in target.labels
        ])

    return [
        GroupMap.zero(zero, h0),
        GroupMap.scalar(h0, 2),
        by_label(h0, h0_mod2),
        by_label(h0_mod2, h1, lambda label: bits[label] == 1),
        GroupMap.scalar(h1, 2),
        by_label(h1, h1_mod2),
        GroupMap.zero(h1_mod2, zero),
    ]
