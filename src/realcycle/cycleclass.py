"""Real cycle class computations for the supported curves.

Codimension 0 is handled through unit signature lattices: the subgroup of
component-indexed integer vectors generated by the signature vectors of the
unit forms <u>.  On a punctured line those vectors span the same-parity
lattice (the all-ones vector plus twice everything), so the image is built
as that lattice, with its Hermite basis, and the cokernel is reported
exactly.

Top codimension is handled constructively: for every circle generator of the
degree-one cohomology a zero-cycle witness is searched for (rational branch
points first, then rational points found by a budgeted height search, then a
conjugate-pair fallback which certifies twice the generator).  A conic that
Hilbert symbols prove to have no rational point skips the search for one.

The exponent oracle encodes the proved and conjectured bounds for the general
cokernel and kernel as a function of dimension, codimension and the standard
hypotheses; every reported number carries a source label so it can be audited.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd, isqrt
from typing import Iterator, Optional, Sequence, Union

from .abgrp import FgAbGroup, Lattice, exponent, order_of, quotient
from .errors import (
    FactorizationLimit,
    NegativeInput,
    PointOffCurve,
    UnsupportedClosure,
)
from .numeric import UPoly, eval_homogeneous, is_rational_square, rational_root, sign_of
from .qform import hilbert_obstruction
from .realcurve import (
    BRANCH_BOTH,
    BRANCH_MINUS,
    END_NEG_INF,
    END_POS_INF,
    END_ROOT,
    CurveModel,
    Hyperelliptic,
    ProjectiveLine,
    PuncturedLine,
    RealComponent,
    component_containing,
    real_components,
)

# --- codimension zero: unit signature lattices ---------------------------------


def gamma0_image(curve: PuncturedLine,
                 components: Optional[Sequence[RealComponent]] = None) -> Lattice:
    """The image of the global signature map inside H^0, as a lattice.

    The signature vectors of the unit forms span the image: sums of unit
    forms have the vector sums as signatures and <-u> realizes negation.
    Twists live on circles, and a punctured line has none, so the image is
    always untwisted.  On a line with k punctures <-1> is -1 everywhere and
    t - a_i is -1 on the gaps 0..i and +1 right of them, so the image is the
    parity lattice ``knebusch_gamma(k + 1)``, whose labels c0..ck are the
    line's component ids; it is returned as that, with no vector built.

    ``components``, when given, must be the line's own ``real_components``
    (the same tuple, or one equal to it); any other raises
    UnsupportedClosure.  The parameter is kept only for callers that pass
    that tuple.
    """
    if not isinstance(curve, PuncturedLine):
        raise UnsupportedClosure("unit signature lattices are computed for punctured lines")
    if components is not None:
        comps = real_components(curve)
        if components is not comps and tuple(components) != comps:
            raise UnsupportedClosure("the components are not those of the punctured line")
    return knebusch_gamma(len(curve.punctures) + 1)


def knebusch_gamma(m: int) -> Lattice:
    """The same-parity lattice: Z*(1,...,1) + 2*Z^m.

    2*e_0 = 2*(1,...,1) - sum 2*e_i over i >= 1 is left out, and the
    generators (1,...,1), 2*e_1, ..., 2*e_(m-1) are the Hermite basis, so
    they are stored as the lattice's basis and it runs no elimination.
    """
    if m < 1:
        raise NegativeInput("need at least one component")
    ambient = FgAbGroup.free(*(f"c{i}" for i in range(m)))
    gens = ((1,) * m,) + tuple((0,) * i + (2,) + (0,) * (m - 1 - i) for i in range(1, m))
    gamma = Lattice(ambient, gens)
    gamma.__dict__["hermite_basis"] = gens
    return gamma


def coker_report(image: Lattice) -> tuple[Optional[int], int]:
    """(order, exponent) of the quotient of the ambient by the image; order is
    None when infinite, exponent 0 likewise."""
    q = quotient(image)
    return order_of(q), exponent(q)


# --- zero cycles and their classes ----------------------------------------------


@dataclass(unsafe_hash=True)
class RationalPoint:
    x: Fraction
    y: Optional[Fraction] = None      # required on hyperelliptic models


@dataclass(unsafe_hash=True)
class ConjugatePair:
    """The closed point over rational x with f(x) positive and not a square:
    its two real places sit at (x, +sqrt(f(x))) and (x, -sqrt(f(x)))."""

    x: Fraction


CyclePoint = Union[RationalPoint, ConjugatePair]


@dataclass(unsafe_hash=True)
class UnitCoefficient:
    """The unit g(x) * y^e attached to a zero-cycle term."""

    g: UPoly = field(default_factory=UPoly.one)
    y_exponent: int = 0

    def describe(self) -> str:
        head = self.g.to_str("x")
        return f"({head})*y" if self.y_exponent else head


@dataclass(unsafe_hash=True)
class ZeroCycleTerm:
    point: CyclePoint
    unit: UnitCoefficient = field(default_factory=UnitCoefficient)


@dataclass(unsafe_hash=True)
class ZeroCycle:
    terms: tuple[ZeroCycleTerm, ...]

    @staticmethod
    def single(point: CyclePoint, unit: UnitCoefficient = UnitCoefficient()) -> "ZeroCycle":
        return ZeroCycle((ZeroCycleTerm(point, unit),))


def class_of_zero_cycle(curve: CurveModel, twist_bits: dict[str, int],
                        cycle: ZeroCycle) -> dict[str, int]:
    """Class of a zero cycle in the top cohomology, as coefficients on the
    circle generators (coefficients on twisted circles are reduced mod 2).

    Each real place of each term contributes the sign of its unit times the
    generator of the circle it lies on; places on intervals contribute zero.
    """
    out = {c.id: 0 for c in real_components(curve) if c.is_circle}

    def place_contribution(x: Fraction, y_sign: int, unit: UnitCoefficient):
        gx = unit.g.eval_at(x)
        if gx == 0 or (unit.y_exponent and y_sign == 0):
            raise PointOffCurve(f"unit vanishes at x={x}")
        comp = component_containing(curve, x, y_sign if y_sign else None)
        if comp is None:
            raise PointOffCurve(f"x={x} is not on the real locus")
        if not comp.is_circle:
            return
        s = sign_of(gx) * (y_sign ** unit.y_exponent if unit.y_exponent else 1)
        out[comp.id] += s

    for term in cycle.terms:
        pt, unit = term.point, term.unit
        if isinstance(pt, RationalPoint):
            if isinstance(curve, Hyperelliptic):
                if pt.y is None or pt.y * pt.y != curve.f.eval_at(pt.x):
                    raise PointOffCurve(f"({pt.x}, {pt.y}) does not satisfy the model")
                place_contribution(pt.x, sign_of(pt.y), unit)
            else:
                if pt.y is not None:
                    raise PointOffCurve("line models carry no y coordinate")
                place_contribution(pt.x, 0, unit)
        elif isinstance(pt, ConjugatePair):
            if not isinstance(curve, Hyperelliptic):
                raise PointOffCurve("conjugate pairs need a hyperelliptic model")
            fx = curve.f.eval_at(pt.x)
            if fx <= 0 or is_rational_square(fx):
                raise PointOffCurve(
                    f"x={pt.x} does not define a conjugate pair (f(x) = {fx})")
            place_contribution(pt.x, 1, unit)
            place_contribution(pt.x, -1, unit)
    for cid, bit in twist_bits.items():
        if cid in out and bit:
            out[cid] %= 2
    return out


# --- witnesses for top-codimension surjectivity ----------------------------------

STATUS_EXACT = "exact"
STATUS_DOUBLE = "double_only"
STATUS_FAILED = "failed"


@dataclass(unsafe_hash=True)
class WitnessCertificate:
    """The witness found for one circle generator and the class it achieves.

    ``obstruction``, when present, proves that the curve has no rational point
    at all, so a conjugate pair is the best a point search can do: it is a
    place v (a prime, or 0 for the real place) at which the Hilbert symbol
    (A, B)_v of the conic y^2 = A*u^2 + B is -1 (see ``_conic_obstruction``).
    Like ``DiagForm.pfister_terms`` it is ignored by equality.
    """

    generator: str
    status: str
    witness: Optional[ZeroCycle] = None
    achieved: dict[str, int] = field(default_factory=dict)
    obstruction: Optional[int] = field(default=None, compare=False)


def _interior_window(comp: RealComponent) -> tuple[Fraction, Fraction]:
    """An open rational window inside the first arc of the component."""
    eighth = Fraction(1, 8)
    lo, hi = comp.arcs[0]
    if lo.kind == END_NEG_INF and hi.kind == END_POS_INF:
        return Fraction(-2), Fraction(2)
    if lo.kind == END_NEG_INF:
        edge = hi.interval.refined_to(eighth)
        return edge.lo - 2, edge.lo
    if hi.kind == END_POS_INF:
        edge = lo.interval.refined_to(eighth)
        return edge.hi, edge.hi + 2
    left, right = lo.interval.refined_to(eighth), hi.interval.refined_to(eighth)
    while left.hi >= right.lo:
        left, right = left.refined(), right.refined()
    return left.hi, right.lo


# The residues of squares modulo 64, 63, 65 and 11.  An integer whose residue is
# missing from one of them is not a square; about one in 120 non-squares passes
# all four, so isqrt runs on almost nothing but the squares.
_SQUARES_64, _SQUARES_63, _SQUARES_65, _SQUARES_11 = (
    frozenset(r * r % m for r in range(m)) for m in (64, 63, 65, 11))

# The sieve of the height walk: its primes l, the block of candidates one bit
# mask stands for, and for each l the mask of the residues mod l that are
# squares or 0 and the repunit sum of 2^(l j) that tiles an l-bit mask over a
# block and the l bits a shift takes off.
_SIEVE_PRIMES = (3, 5, 7, 11, 13, 17, 19, 23, 29, 31)
_SIEVE_BITS = 512
_SQUARE_BITS = {ell: sum(1 << r for r in {t * t % ell for t in range(ell)})
                for ell in _SIEVE_PRIMES}
_REPUNITS = {ell: sum(1 << ell * j for j in range(_SIEVE_BITS // ell + 2))
             for ell in _SIEVE_PRIMES}


class _Sieve:
    """The p of a row of the height walk at which N(p, q) is a square or 0
    modulo every prime l of ``_SIEVE_PRIMES``.  A square is one modulo every
    l, so the sieve drops no square.

    N is homogeneous of degree 2k, so N(p, q) = q^(2k) N(p/q, 1) mod l, and
    q^(2k) is a nonzero square for q not 0 mod l: the good p are then q*t
    for the t in G_l, the residues at which N(t, 1) is a square or 0.  For
    q = 0 mod l, N(p, q) = w p^(2k) with w the coefficient of p^(2k) (0 when
    deg f is odd): every p is good when w is a square or 0 mod l, and only
    p = 0 otherwise.

    A row is sieved in blocks of ``_SIEVE_BITS`` candidates, one bit mask
    each, so the memory does not grow with the window.  A block takes the
    primes in increasing order until at most one candidate is left, and G_l
    and the mask of a residue of q mod l are made the first time a block
    asks for them, so a short row costs a few small primes.  The masks
    depend on f alone, so every walk for f can share one sieve.
    """

    def __init__(self, f: UPoly):
        # the coefficients of N(t, 1), lowest degree first, 2k + 1 of them
        coeffs = [f.den * n for n in f.nums]
        self.coeffs = coeffs + [0] * (f.degree % 2)
        self.values: list[int] = []     # N(t, 1) for t = 0, 1, ...
        # per prime: G_l, then the tiled masks by q mod l, -1 for every p
        self.good: list[Optional[list[int]]] = [None] * len(_SIEVE_PRIMES)
        self.tiles: list[list[Optional[int]]] = [[None] * ell for ell in _SIEVE_PRIMES]

    def _tile(self, i: int, r: int) -> int:
        """The mask of the good p mod the i-th prime for q = r, tiled over a
        block and the bits a shift takes off; -1 when every p is good."""
        ell = _SIEVE_PRIMES[i]
        squares = _SQUARE_BITS[ell]
        if not r:
            return -1 if squares >> self.coeffs[-1] % ell & 1 else _REPUNITS[ell]
        good = self.good[i]
        if good is None:
            values = self.values
            values += (eval_homogeneous(self.coeffs, t, 1) for t in range(len(values), ell))
            good = self.good[i] = [t for t in range(ell) if squares >> values[t] % ell & 1]
        if len(good) == ell:
            return -1
        mask = 0
        for t in good:
            mask |= 1 << r * t % ell
        return mask * _REPUNITS[ell]

    def survivors(self, q: int, row: range) -> Iterator[int]:
        """The p in ``row``, the candidates of height q from ``_row``, that
        pass every prime, ascending."""
        stop = row.stop
        for p0 in range(row.start, stop, _SIEVE_BITS):
            live = (1 << min(_SIEVE_BITS, stop - p0)) - 1
            # bit j of live stands for p0 + j, and bit j + (p0 mod l) of a
            # tile for the residue of p0 + j
            for i, ell in enumerate(_SIEVE_PRIMES):
                if not live & (live - 1):
                    break       # one candidate left is cheaper to test than a mask
                tiles, r = self.tiles[i], q % ell
                tile = tiles[r]
                if tile is None:
                    tile = tiles[r] = self._tile(i, r)
                live &= tile >> p0 % ell
            while live:
                low = live & -live
                yield p0 + low.bit_length() - 1
                live ^= low


def _conic_obstruction(f: UPoly) -> Optional[int]:
    """A place proving that y^2 = f(x) has no rational point, for deg f = 2.

    Completing the square gives y^2 = A*u^2 + B with A = lc(f),
    B = -disc(f)/(4A) and u = x + f_1/(2 f_2); this conic has a rational point
    exactly when the Hilbert symbol (A, B)_v is 1 at every place v
    (Hasse-Minkowski; Serre, *A Course in Arithmetic*, Ch. III-IV).  Returns
    the first place where it is -1, or None when the conic has a point, when
    deg f != 2, or when A or B is beyond the factorisation limit.  With
    f = (n0 + n1*x + n2*x^2)/den, the integers n2*den and
    (4*n0*n2 - n1^2)*n2*den are A and B times rational squares.
    """
    if f.degree != 2:
        return None
    n0, n1, n2 = f.nums
    try:
        return hilbert_obstruction(n2 * f.den, (4 * n0 * n2 - n1 * n1) * n2 * f.den)
    except FactorizationLimit:
        return None


def _row(lo: Fraction, hi: Fraction, q: int) -> range:
    """The p with lo < p/q < hi, for q > 0."""
    return range(lo.numerator * q // lo.denominator + 1,
                 (hi.numerator * q - 1) // hi.denominator + 1)


def _height_search(f: UPoly, lo: Fraction, hi: Fraction, heights: range,
                   sieve: _Sieve) -> Optional[tuple[Fraction, Fraction]]:
    """Walk x = p/q in lowest terms with lo < x < hi, q in ``heights`` and
    then p ascending, for the first x at which f is a nonzero rational square.

    Returns (x, y) with y = sqrt(f(x)) > 0 at the first such x, or None when
    there is none.  The walk is integer arithmetic: with 2k the least even
    number >= deg f, the integer N(p) = den^2 q^(2k) f(p/q) = sum of
    den*nums[i]*q^(2k-i) * p^i, the homogeneous value of the sieve's
    coefficients at (p, q), has the sign of f(p/q) and is a square exactly
    when f(p/q) is a rational square.  Only the survivors of ``sieve``, a
    ``_Sieve`` of f, are evaluated; it drops no square, so the point is that
    of the full walk.
    """
    k = (f.degree + 1) // 2
    coeffs = sieve.coeffs
    for q in heights:
        for p in sieve.survivors(q, _row(lo, hi, q)):
            if gcd(p, q) != 1:
                continue
            value = eval_homogeneous(coeffs, p, q)
            if value <= 0:
                continue
            if (value % 64 in _SQUARES_64 and value % 63 in _SQUARES_63
                    and value % 65 in _SQUARES_65 and value % 11 in _SQUARES_11):
                root = isqrt(value)
                if root * root == value:
                    return Fraction(p, q), Fraction(root, f.den * q ** k)
    return None


def _first_rational(lo: Fraction, hi: Fraction, budget: int) -> Optional[Fraction]:
    """The first x = p/q of the height walk with lo < x < hi and q <= budget:
    the least such q, then the least p.  No f is evaluated.  p/q is in lowest
    terms, since its reduced form would lie in the window at a lower height."""
    for q in range(1, budget + 1):
        row = _row(lo, hi, q)
        if row:
            return Fraction(row.start, q)
    return None


def gamma_top_witness_search(curve: CurveModel, twist_bits: Optional[dict[str, int]] = None,
                             budget: int = 50) -> list[WitnessCertificate]:
    """One certificate per circle generator of the top cohomology.

    Strategy per circle: a rational branch point (root of f) on it gives the
    generator exactly; otherwise a rational point found within the height
    budget does; otherwise a conjugate pair over the first rational x of the
    search window, where f > 0, certifies twice the generator.  A conic
    proved insoluble by Hilbert symbols skips the search beyond height 1.
    Where the two sheets are separate circles, points take the circle's sign
    of y, and the pair carries the unit 1 + (sign)*y, which counts twice on
    this circle and zero on the other.
    """
    comps = real_components(curve)
    bits = twist_bits if twist_bits is not None else {c.id: 0 for c in comps}
    circles = [c for c in comps if c.is_circle]
    # one sieve for every walk: its residue masks depend on f alone
    sieve = _Sieve(curve.f) if isinstance(curve, Hyperelliptic) else None
    out = []
    for comp in circles:
        cert = _witness_for_circle(curve, circles, bits, comp, budget, sieve)
        if cert.witness is not None:
            expected = class_of_zero_cycle(curve, bits, cert.witness)
            assert expected == cert.achieved, "witness certificate must be sound"
        out.append(cert)
    return out


def _witness_for_circle(curve, circles, bits, comp, budget, sieve) -> WitnessCertificate:
    def gen_hit(value):
        target = {c.id: 0 for c in circles}
        target[comp.id] = value
        if bits.get(comp.id, 0):
            target[comp.id] = value % 2
        return target

    if isinstance(curve, ProjectiveLine):
        # a punctured line has no circles; on P^1 any rational point is a witness
        cycle = ZeroCycle.single(RationalPoint(Fraction(0)))
        return WitnessCertificate(comp.id, STATUS_EXACT, cycle, gen_hit(1))

    # the roots of f on the circle are its root ends, in increasing order
    root_intervals = [end.interval for arc in comp.arcs for end in arc if end.kind == END_ROOT]
    for r in map(rational_root, root_intervals):
        if r is not None:
            cycle = ZeroCycle.single(RationalPoint(r, Fraction(0)))
            return WitnessCertificate(comp.id, STATUS_EXACT, cycle, gen_hit(1))
    sheet = -1 if comp.branch == BRANCH_MINUS else 1
    lo, hi = _interior_window(comp)
    heights = range(1, budget + 1)
    # height 1 first: a point there needs no factoring for the conic test
    point = _height_search(curve.f, lo, hi, heights[:1], sieve)
    obstruction = None
    if point is None:
        obstruction = _conic_obstruction(curve.f)
        if obstruction is None:
            point = _height_search(curve.f, lo, hi, heights[1:], sieve)
    if point is not None:
        x, y = point
        cycle = ZeroCycle.single(RationalPoint(x, sheet * y))
        return WitnessCertificate(comp.id, STATUS_EXACT, cycle, gen_hit(1))
    # f > 0 on the window, and no x of the walk is a point
    pair_x = _first_rational(lo, hi, budget)
    if pair_x is not None:
        pair = ConjugatePair(pair_x)
        terms = (ZeroCycleTerm(pair),)
        if comp.branch != BRANCH_BOTH:
            terms += (ZeroCycleTerm(pair, UnitCoefficient(UPoly.of(sheet), 1)),)
        cycle = ZeroCycle(terms)
        return WitnessCertificate(comp.id, STATUS_DOUBLE, cycle, gen_hit(2), obstruction)
    return WitnessCertificate(comp.id, STATUS_FAILED, None, {})


# --- the exponent oracle -----------------------------------------------------------

SRC_VANISHING = "vanishing-above-dimension"
SRC_TOP_SURJECTIVE = "top-codimension-surjectivity"
SRC_CURVE_BOUND = "codimension-one-bound"
SRC_ETALE_BOUND = "etale-vanishing-bound"
SRC_COMPONENTS_BOUND = "global-signature-bound"
SRC_LADDER_BOUND = "signature-ladder-bound"
SRC_TOP_INJECTIVE = "top-codimension-injectivity"
SRC_LADDER_KERNEL = "signature-ladder-kernel-bound"
SRC_CONJECTURE = "refined-prediction"


@dataclass(unsafe_hash=True)
class ExponentReport:
    d: int
    c: int
    proper: bool
    real_nonempty: bool
    etale_vanishing: bool
    proven_bound: int
    conjectured_bound: int
    kernel_bound: int
    sources: tuple[str, ...]


def exponent_oracle(d: int, c: int, proper: bool = False, real_nonempty: bool = False,
                    etale_vanishing: bool = False) -> ExponentReport:
    """Best proved bound for the cokernel exponent of the codimension-c cycle
    class map on a d-dimensional scheme, the conjectured bound, and the proved
    kernel bound, each with its source label."""
    if d < 0 or c < 0:
        raise NegativeInput("dimension and codimension must be non-negative")
    candidates: list[tuple[int, str]] = [(2 ** (d + 1 - c) if c <= d else 1, SRC_LADDER_BOUND)]
    if c > d:
        candidates.append((1, SRC_VANISHING))
    if c == d:
        candidates.append((1, SRC_TOP_SURJECTIVE))
    if c == d - 1:
        candidates.append((2, SRC_CURVE_BOUND))
    if c == d - 2 and etale_vanishing:
        candidates.append((4, SRC_ETALE_BOUND))
    if c == 0:
        candidates.append((2 ** d, SRC_COMPONENTS_BOUND))
    proven = min(b for b, _ in candidates)
    sources = tuple(sorted({label for b, label in candidates if b == proven}))
    conjectured = max(1, 2 ** (d - c))
    if c == d and (not proper or real_nonempty):
        kernel, kernel_src = 1, SRC_TOP_INJECTIVE
    else:
        kernel, kernel_src = 2 ** (2 * (d + 1 - c)) if c <= d else 1, SRC_LADDER_KERNEL
    assert proven % conjectured == 0, "the prediction must divide the proved bound"
    return ExponentReport(d, c, proper, real_nonempty, etale_vanishing,
                          proven, conjectured, kernel,
                          sources + (SRC_CONJECTURE, kernel_src))
