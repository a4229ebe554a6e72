"""Root isolation in Fractions, an oracle for the integer bisection and
refinement of ``realcycle.numeric``, and a recorder of that integer code's
sign reads.

``fraction_bisect`` is the bisection on Fraction points: it halves
[-B, B], B the Cauchy bound of the chains' product, and reads every chain at
every point with ``UPoly.sign_at``, with no skip bound.  ``fraction_refined_to``
halves a Fraction interval and reads the sign at lo at every step.  Neither
shares a line with the dyadic points, the scaled chains or the skip bound of
``numeric``: only ``UPoly.sign_at`` and ``root_bound``.

``kernel_reads`` records what the integer code reads, as rational points.
"""

from fractions import Fraction
from math import prod

from realcycle import numeric
from realcycle.numeric import IsolatingInterval, UPoly, root_bound, sign_of


def variations(signs):
    nonzero = [s for s in signs if s]
    return sum(a != b for a, b in zip(nonzero, nonzero[1:]))


def fraction_bisect(chains):
    """One isolating interval per real root of the product of the pairwise
    coprime polynomials whose Sturm chains are given, sorted, each carrying
    the polynomial whose root it holds."""
    chains = [c for c in chains if c[0].degree > 0]
    if not chains:
        return ()
    qs = [c[0] for c in chains]
    bound = root_bound(prod(qs, start=UPoly.one()))

    def var_at(x):
        """The chains' variations at x, or None when x is a root."""
        if any(q.sign_at(x) == 0 for q in qs):
            return None
        return tuple(variations([g.sign_at(x) for g in c]) for c in chains)

    def var_beyond(side):
        return tuple(variations([sign_of(g.nums[-1]) * side ** g.degree for g in c])
                     for c in chains)

    def interval(lo, hi, vlo, vhi):
        return IsolatingInterval(lo, hi, next(q for q, a, b in zip(qs, vlo, vhi) if a != b))

    out = []
    work = [(-bound, bound, var_beyond(-1), var_beyond(1))]
    while work:
        lo, hi, vlo, vhi = work.pop()
        n = sum(vlo) - sum(vhi)
        if n == 0:
            continue
        if n == 1:
            out.append(interval(lo, hi, vlo, vhi))
            continue
        mid = (lo + hi) / 2
        vmid = var_at(mid)
        if vmid is not None:
            work += [(lo, mid, vlo, vmid), (mid, hi, vmid, vhi)]
            continue
        w = (hi - lo) / 4
        while True:
            left, right = mid - w, mid + w
            vl = var_at(left)
            vr = None if vl is None else var_at(right)
            if vr is not None and sum(vl) - sum(vr) == 1:
                break
            w /= 2
        out.append(interval(left, right, vl, vr))
        work += [(lo, left, vlo, vl), (right, hi, vr, vhi)]
    return tuple(sorted(out, key=lambda iv: iv.lo))


def fraction_refined(iv):
    """iv halved: the half whose ends differ in sign, or, when the midpoint
    is a root, the window a quarter of iv to each side of it."""
    m = (iv.lo + iv.hi) / 2
    sm = iv.poly.sign_at(m)
    if sm == 0:
        w = (iv.hi - iv.lo) / 4
        return IsolatingInterval(m - w, m + w, iv.poly)
    if iv.poly.sign_at(iv.lo) == sm:
        return IsolatingInterval(m, iv.hi, iv.poly)
    return IsolatingInterval(iv.lo, m, iv.poly)


def fraction_refined_to(iv, width):
    while iv.hi - iv.lo > width:
        iv = fraction_refined(iv)
    return iv


def kernel_reads(monkeypatch):
    """Record every read of the integer sign kernel ``numeric._dyadic_sign``
    as (nums, x, sign): the numerators of the polynomial read, the rational
    point and the sign there.  The coefficients that ``numeric._scaled``
    scales by num/den carry the numerators and that unit, and a read of them
    at (m, e) is one at num/den * m/2^e."""
    reads = []
    scaled, sign = numeric._scaled, numeric._dyadic_sign

    class Scaled(list):
        pass

    def tagged(nums, num, den):
        out = Scaled(scaled(nums, num, den))
        out.nums, out.unit = tuple(nums), Fraction(num, den)
        return out

    def recorded(cs, m, e):
        s = sign(cs, m, e)
        reads.append((cs.nums, cs.unit * Fraction(m, 2 ** e), s))
        return s

    monkeypatch.setattr(numeric, "_scaled", tagged)
    monkeypatch.setattr(numeric, "_dyadic_sign", recorded)
    return reads


def skip_bound(p):
    """The power of two past which the bisection reads no chain of p."""
    return Fraction(2) ** numeric._skip_exponent(p.nums)
