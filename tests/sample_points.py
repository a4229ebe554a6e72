"""A rational point inside each real component, an oracle for the tests.

``sample_point`` picks an abscissa strictly inside a component's first arc
from its ends alone: 0 on the whole line, one step outside a lone rational
end or the outer end of a lone root interval, and the midpoint between two
ends otherwise.  The library reads signs and locates points from the arc
ends' indices; tests check those readings against the plain evaluation of a
function at these points.  ``evaluated_signs`` is that evaluation for the
unit forms of a punctured line, the oracle for its signature image.
"""

from dataclasses import dataclass
from fractions import Fraction

from realcycle.numeric import UPoly
from realcycle.realcurve import (
    BRANCH_MINUS,
    END_NEG_INF,
    END_POS_INF,
    END_RATIONAL,
    CurveModel,
    Hyperelliptic,
    RealComponent,
)


@dataclass(unsafe_hash=True)
class SamplePoint:
    x: Fraction
    branch: int      # +1 / -1 sheet, 0 where y is not part of the model


def _midpoint(p: Fraction, q: Fraction) -> Fraction:
    """(p + q) / 2, as one Fraction."""
    return Fraction(p.numerator * q.denominator + q.numerator * p.denominator,
                    2 * p.denominator * q.denominator)


def _shifted(p: Fraction, step: int) -> Fraction:
    """p + step, as one Fraction."""
    return Fraction(p.numerator + step * p.denominator, p.denominator)


def sample_point(component: RealComponent, curve: CurveModel) -> SamplePoint:
    """A rational-x point strictly inside the component, on the plus branch."""
    lo, hi = component.arcs[0]
    if lo.kind == END_NEG_INF and hi.kind == END_POS_INF:
        x = Fraction(0)
    elif lo.kind == END_NEG_INF:
        x = _shifted(hi.value, -1) if hi.kind == END_RATIONAL else hi.interval.lo
    elif hi.kind == END_POS_INF:
        x = _shifted(lo.value, 1) if lo.kind == END_RATIONAL else lo.interval.hi
    elif lo.kind == END_RATIONAL:
        x = _midpoint(lo.value, hi.value)
    else:
        x = _midpoint(lo.interval.hi, hi.interval.lo)
    branch = 0
    if isinstance(curve, Hyperelliptic):
        branch = -1 if component.branch == BRANCH_MINUS else 1
        assert curve.f.sign_at(x) > 0
    return SamplePoint(x, branch)


def evaluated_signs(curve, comps):
    """The signs of -1 and of each t - a at the sample points, evaluated."""
    samples = [sample_point(c, curve).x for c in comps]
    units = [UPoly.of(-1)] + [UPoly.of(-a, 1) for a in curve.punctures]
    return [tuple(u.sign_at(x) for x in samples) for u in units]
