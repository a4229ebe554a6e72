"""Exact univariate polynomial arithmetic over Q with certified real-root isolation.

Polynomials are integer numerators over one common denominator, lowest degree
first, and their arithmetic is integer arithmetic: no floating point is used
anywhere, so root counts, signs and isolating intervals are certificates, not
estimates.  Points of the extended real line carry an optional side (just left
/ just right of a rational), which is how orderings of the rational function
field are represented downstream.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import floor, gcd, isqrt, lcm
from typing import Iterable, Optional, Sequence, Union

from .errors import BadInterval, ZeroPolynomial

Coeffable = Union[int, Fraction]


@dataclass(frozen=True)
class UPoly:
    """Univariate polynomial over Q, lowest degree first: the integer
    numerators ``nums`` over one common denominator ``den``.

    The form is canonical, so equal polynomials have equal fields: ``den`` is
    positive, ``gcd(den, *nums) == 1`` and the leading numerator is nonzero;
    the zero polynomial has empty ``nums``.

    >>> p = UPoly.of(Fraction(1, 2), 1)
    >>> p.nums, p.den
    ((1, 2), 2)
    """

    nums: tuple[int, ...]
    den: int = 1

    @staticmethod
    def _make(nums: Iterable[int], den: int) -> "UPoly":
        """The canonical form of nums/den, for any nonzero den."""
        nums = list(nums)
        while nums and not nums[-1]:
            nums.pop()
        if not nums:
            return UPoly(())
        g = gcd(den, *nums) if den > 0 else -gcd(den, *nums)
        if g != 1:
            nums = [n // g for n in nums]
            den //= g
        return UPoly(tuple(nums), den)

    @staticmethod
    def of(*coeffs: Coeffable) -> "UPoly":
        den = lcm(*(c.denominator for c in coeffs))
        return UPoly._make((c.numerator * (den // c.denominator) for c in coeffs), den)

    @staticmethod
    def zero() -> "UPoly":
        return UPoly(())

    @staticmethod
    def one() -> "UPoly":
        return UPoly((1,))

    @staticmethod
    def x() -> "UPoly":
        return UPoly((0, 1))

    @staticmethod
    def constant(c: Coeffable) -> "UPoly":
        return UPoly.of(c)

    @staticmethod
    def from_roots(roots: Iterable[Coeffable], lead: Coeffable = 1) -> "UPoly":
        p = UPoly.of(lead)
        for r in roots:
            p = p * UPoly.of(-r, 1)
        return p

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        """The coefficients as Fractions, lowest degree first."""
        return tuple(Fraction(n, self.den) for n in self.nums)

    @property
    def is_zero(self) -> bool:
        return not self.nums

    @property
    def degree(self) -> int:
        """Degree, with the convention that the zero polynomial has degree -1."""
        return len(self.nums) - 1

    @property
    def lc(self) -> Fraction:
        if self.is_zero:
            raise ZeroPolynomial("zero polynomial has no leading coefficient")
        return Fraction(self.nums[-1], self.den)

    def __add__(self, other: "UPoly") -> "UPoly":
        den = lcm(self.den, other.den)
        a, b = den // self.den, den // other.den
        return UPoly._make((x * a + y * b for x, y in
                            itertools.zip_longest(self.nums, other.nums, fillvalue=0)), den)

    def __sub__(self, other: "UPoly") -> "UPoly":
        return self + -other

    def __neg__(self) -> "UPoly":
        return UPoly(tuple(-n for n in self.nums), self.den)

    def __mul__(self, other: "UPoly") -> "UPoly":
        out = [0] * (len(self.nums) + len(other.nums) - 1)
        for i, a in enumerate(self.nums):
            if a:
                for j, b in enumerate(other.nums):
                    out[i + j] += a * b
        return UPoly._make(out, self.den * other.den)

    def scale(self, c: Coeffable) -> "UPoly":
        return UPoly._make((n * c.numerator for n in self.nums), self.den * c.denominator)

    def divmod(self, other: "UPoly") -> tuple["UPoly", "UPoly"]:
        """(q, r) with self = q*other + r, deg r < deg other: integer pseudo-division."""
        if other.is_zero:
            raise ZeroPolynomial("division by the zero polynomial")
        divisor, lead, dd = other.nums, other.nums[-1], other.degree
        qdeg = self.degree - dd
        if qdeg < 0:
            return UPoly.zero(), self
        rem, quo, mult = list(self.nums), [0] * (qdeg + 1), 1
        # mult * self.nums == quo * divisor + rem holds throughout
        for k in range(qdeg, -1, -1):
            c = rem[k + dd]
            if not c:
                continue
            m = abs(lead) // gcd(c, lead)   # the least m > 0 with lead | m * c
            if m != 1:
                rem, quo, mult = [m * r for r in rem], [m * q for q in quo], mult * m
            quo[k] = t = c * m // lead
            for j, b in enumerate(divisor):
                rem[k + j] -= t * b
        den = mult * self.den
        return UPoly._make((q * other.den for q in quo), den), UPoly._make(rem[:dd], den)

    def __floordiv__(self, other: "UPoly") -> "UPoly":
        q, r = self.divmod(other)
        if not r.is_zero:
            raise ValueError("inexact polynomial division")
        return q

    def deriv(self) -> "UPoly":
        return UPoly._make([i * n for i, n in enumerate(self.nums)][1:], self.den)

    def eval_at(self, x: Coeffable) -> Fraction:
        """f(p/q) by homogeneous Horner: sum of nums[i] p^i q^(d-i), over den q^d."""
        p, q = x.numerator, x.denominator
        acc, qpow = 0, 1
        for n in reversed(self.nums):
            acc = acc * p + n * qpow
            qpow *= q
        return Fraction(acc * q, self.den * qpow)     # qpow is q^(d+1) here

    def monic(self) -> "UPoly":
        if self.is_zero:
            raise ZeroPolynomial("zero polynomial cannot be made monic")
        return UPoly._make(self.nums, self.nums[-1])

    def gcd(self, other: "UPoly") -> "UPoly":
        """Monic greatest common divisor; gcd(0, 0) is the zero polynomial."""
        a, b = self, other
        while not b.is_zero:
            r = a.divmod(b)[1]
            # the result is made monic, so each remainder is cut to its primitive part
            a, b = b, UPoly._make(r.nums, gcd(*r.nums))
        if a.is_zero:
            return a
        return a.monic()

    def to_str(self, var: str = "t") -> str:
        if self.is_zero:
            return "0"
        parts = []
        for i, c in reversed(list(enumerate(self.coeffs))):
            if c == 0:
                continue
            if i == 0:
                mono = str(abs(c))
            else:
                head = "" if abs(c) == 1 else f"{abs(c)}*"
                mono = f"{head}{var}" if i == 1 else f"{head}{var}^{i}"
            if not parts:
                parts.append(mono if c > 0 else f"-{mono}")
            else:
                parts.append(f"+ {mono}" if c > 0 else f"- {mono}")
        return " ".join(parts)

    def __str__(self) -> str:
        return self.to_str()


# --- extended points -------------------------------------------------------

SIDE_EXACT = "exact"
SIDE_PLUS = "plus"
SIDE_MINUS = "minus"

_SIDE_RANK = {SIDE_MINUS: -1, SIDE_EXACT: 0, SIDE_PLUS: 1}


@dataclass(frozen=True)
class ExtendedPoint:
    """A point of the extended real line, optionally displaced to one side.

    ``kind`` is one of ``"-inf"``, ``"+inf"`` or ``"finite"``; finite points
    carry a rational base and a side.  Side ``plus`` (resp. ``minus``) means
    "immediately to the right (resp. left) of the base"; such points never
    coincide with a root of any nonzero polynomial, which is what makes them
    usable as orderings.
    """

    kind: str
    base: Fraction | None = None
    side: str = SIDE_EXACT

    @staticmethod
    def at(x: Coeffable) -> "ExtendedPoint":
        return ExtendedPoint("finite", Fraction(x), SIDE_EXACT)

    @staticmethod
    def above(x: Coeffable) -> "ExtendedPoint":
        return ExtendedPoint("finite", Fraction(x), SIDE_PLUS)

    @staticmethod
    def below(x: Coeffable) -> "ExtendedPoint":
        return ExtendedPoint("finite", Fraction(x), SIDE_MINUS)

    @staticmethod
    def neg_inf() -> "ExtendedPoint":
        return ExtendedPoint("-inf")

    @staticmethod
    def pos_inf() -> "ExtendedPoint":
        return ExtendedPoint("+inf")

    @property
    def is_finite(self) -> bool:
        return self.kind == "finite"

    def _key(self):
        if self.kind == "-inf":
            return (0, Fraction(0), 0)
        if self.kind == "+inf":
            return (2, Fraction(0), 0)
        return (1, self.base, _SIDE_RANK[self.side])

    def __lt__(self, other: "ExtendedPoint") -> bool:
        return self._key() < other._key()

    def __le__(self, other: "ExtendedPoint") -> bool:
        return self._key() <= other._key()

    def describe(self) -> str:
        if self.kind != "finite":
            return self.kind
        if self.side == SIDE_EXACT:
            return str(self.base)
        return f"{self.base}{'+' if self.side == SIDE_PLUS else '-'}"


@dataclass(frozen=True)
class IsolatingInterval:
    """Open rational interval containing exactly one real root of ``poly``.

    ``poly`` is the square-free part of the polynomial whose roots were
    isolated, so it changes sign exactly once across the interval and does not
    vanish at either endpoint.
    """

    lo: Fraction
    hi: Fraction
    poly: UPoly

    def midpoint(self) -> Fraction:
        return (self.lo + self.hi) / 2

    def refined(self) -> "IsolatingInterval":
        """Halve the interval, keeping the unique root inside."""
        m = self.midpoint()
        fm = self.poly.eval_at(m)
        if fm == 0:
            w = (self.hi - self.lo) / 4
            return IsolatingInterval(m - w, m + w, self.poly)
        if same_sign(self.poly.eval_at(self.lo), fm):
            return IsolatingInterval(m, self.hi, self.poly)
        return IsolatingInterval(self.lo, m, self.poly)

    def refined_to(self, width: Fraction) -> "IsolatingInterval":
        """Halve the interval until it is at most width wide."""
        iv = self
        while iv.hi - iv.lo > width:
            iv = iv.refined()
        return iv

    def contains(self, x: Coeffable) -> bool:
        return self.lo < x < self.hi


def same_sign(a: Fraction, b: Fraction) -> bool:
    return (a > 0) == (b > 0) and a != 0 and b != 0


def sign_of(x: Fraction) -> int:
    return (x > 0) - (x < 0)


def is_rational_square(x: Fraction) -> bool:
    """Is x the square of a nonzero rational?  False for every x <= 0."""
    if x <= 0:
        return False
    a, b = x.numerator, x.denominator
    return isqrt(a) ** 2 == a and isqrt(b) ** 2 == b


# --- core operations --------------------------------------------------------

def squarefree_part(p: UPoly) -> UPoly:
    """p / gcd(p, p'), scaled monic and multiplied by the sign of lc(p).

    For square-free input this returns p/|lc(p)|, so the sign of the result on
    the real line agrees with the sign of p everywhere; that convention is what
    the curve-topology code relies on.
    """
    if p.is_zero:
        raise ZeroPolynomial("square-free part of the zero polynomial")
    q = p // p.gcd(p.deriv())
    return q.monic().scale(sign_of(p.nums[-1]))


def odd_multiplicity_part(p: UPoly) -> UPoly:
    """Product of the monic irreducible factors of p occurring with odd
    multiplicity (the square class of monic(p) in Q(t)).  With g = gcd(p, p'),
    monic(p)/g is the product of all the factors and g has each multiplicity
    lowered by one, so the odd part of p is monic(p)/g over that of g."""
    if p.degree == 0:
        return UPoly.one()
    g = p.gcd(p.deriv())
    return p.monic() // g // odd_multiplicity_part(g)


def sturm_sequence(p: UPoly) -> tuple[UPoly, ...]:
    """Sturm chain of the square-free part of p.

    Degree-zero polynomials are returned as a one-element chain unchanged.
    """
    if p.is_zero:
        raise ZeroPolynomial("Sturm chain of the zero polynomial")
    if p.degree == 0:
        return (p,)
    q = squarefree_part(p)
    chain = [q, q.deriv()]
    while chain[-1].degree > 0:
        rem = chain[-2].divmod(chain[-1])[1]
        if rem.is_zero:
            # cannot happen for a square-free q, but guard anyway
            break
        chain.append(-rem)
    return tuple(chain)


def sign_at(p: UPoly, x: ExtendedPoint) -> int:
    """Certified sign of p at an extended point.

    At a side point the factor (t - base)^k is divided out exactly before
    evaluating, so the answer is the true one-sided sign, never a sample.
    """
    if p.is_zero:
        return 0
    if x.kind == "+inf":
        return sign_of(p.nums[-1])
    if x.kind == "-inf":
        return sign_of(p.nums[-1]) * (-1) ** p.degree
    value = p.eval_at(x.base)
    if x.side == SIDE_EXACT:
        return sign_of(value)
    if value != 0:
        return sign_of(value)
    u, k = split_root(p, x.base)
    base_sign = sign_of(u.eval_at(x.base))
    if x.side == SIDE_PLUS:
        return base_sign
    return base_sign * (-1) ** k


def split_root(p: UPoly, a: Coeffable) -> tuple[UPoly, int]:
    """(u, k) with p = (t - a)^k * u and u(a) != 0: k is the multiplicity of
    a as a root of p."""
    if p.is_zero:
        raise ZeroPolynomial("every point is a root of the zero polynomial")
    linear = UPoly.of(-a, 1)
    k = 0
    while True:
        q, r = p.divmod(linear)
        if not r.is_zero:
            return p, k
        p, k = q, k + 1


def rational_root(iv: IsolatingInterval) -> Optional[Fraction]:
    """The root isolated by iv when it is rational, else None.

    With the content of the numerators of iv.poly removed, every rational root
    is k/L for an integer k, L the leading coefficient (rational root theorem);
    an open interval at most 1/L wide holds at most one such point, the least
    k/L above its lower end.
    """
    nums = iv.poly.nums
    lead = abs(nums[-1]) // gcd(*nums)
    iv = iv.refined_to(Fraction(1, lead))
    x = Fraction(floor(iv.lo * lead) + 1, lead)
    return x if x < iv.hi and iv.poly.eval_at(x) == 0 else None


def _variations(signs: Sequence[int]) -> int:
    nonzero = [s for s in signs if s != 0]
    return sum(1 for a, b in zip(nonzero, nonzero[1:]) if a != b)


def _lower_cut(a: ExtendedPoint) -> ExtendedPoint:
    """Where to evaluate the chain so that the count starts just inside the
    open interval at a."""
    if not a.is_finite:
        return a
    if a.side == SIDE_MINUS:
        return a
    return ExtendedPoint.above(a.base)


def _upper_cut(b: ExtendedPoint) -> ExtendedPoint:
    if not b.is_finite:
        return b
    if b.side == SIDE_PLUS:
        return b
    return ExtendedPoint.below(b.base)


def count_real_roots(p: UPoly, a: ExtendedPoint, b: ExtendedPoint) -> int:
    """Number of distinct real roots of p in the open interval (a, b)."""
    if p.is_zero:
        raise ZeroPolynomial("root count of the zero polynomial")
    if not a < b:
        raise BadInterval(f"{a.describe()} is not below {b.describe()}")
    chain = sturm_sequence(p)
    lo = _lower_cut(a)
    hi = _upper_cut(b)
    va = _variations([sign_at(q, lo) for q in chain])
    vb = _variations([sign_at(q, hi) for q in chain])
    return va - vb


def root_bound(p: UPoly) -> Fraction:
    """Cauchy bound: every real root of p has absolute value strictly below it."""
    if p.is_zero:
        raise ZeroPolynomial("root bound of the zero polynomial")
    if p.degree == 0:
        return Fraction(1)
    return 1 + Fraction(max(abs(n) for n in p.nums[:-1]), abs(p.nums[-1]))


def gap_samples(ivs: Sequence[IsolatingInterval]) -> list[Fraction]:
    """One rational point in each open gap between consecutive isolating
    intervals and in the two unbounded gaps; [0] when there are none."""
    if not ivs:
        return [Fraction(0)]
    return ([ivs[0].lo] + [(left.hi + right.lo) / 2 for left, right in zip(ivs, ivs[1:])]
            + [ivs[-1].hi])


def isolate_real_roots(p: UPoly) -> tuple[IsolatingInterval, ...]:
    """One disjoint open rational interval per distinct real root, sorted."""
    if p.is_zero:
        raise ZeroPolynomial("cannot isolate roots of the zero polynomial")
    chain = sturm_sequence(p)
    q = chain[0]
    if q.degree <= 0:
        return ()

    def var_at(point: ExtendedPoint) -> int:
        return _variations([sign_at(g, point) for g in chain])

    bound = root_bound(q)
    out: list[IsolatingInterval] = []
    work = [(-bound, bound, var_at(ExtendedPoint.at(-bound)), var_at(ExtendedPoint.at(bound)))]
    while work:
        lo, hi, vlo, vhi = work.pop()
        n = vlo - vhi
        if n == 0:
            continue
        if n == 1:
            out.append(IsolatingInterval(lo, hi, q))
            continue
        mid = (lo + hi) / 2
        if q.eval_at(mid) != 0:
            vmid = var_at(ExtendedPoint.at(mid))
            work.append((lo, mid, vlo, vmid))
            work.append((mid, hi, vmid, vhi))
            continue
        # the midpoint is itself a root: carve out a window around it
        w = (hi - lo) / 4
        while (q.eval_at(mid - w) == 0 or q.eval_at(mid + w) == 0
               or var_at(ExtendedPoint.at(mid - w)) - var_at(ExtendedPoint.at(mid + w)) != 1):
            w /= 2
        out.append(IsolatingInterval(mid - w, mid + w, q))
        vl, vr = var_at(ExtendedPoint.at(mid - w)), var_at(ExtendedPoint.at(mid + w))
        work.append((lo, mid - w, vlo, vl))
        work.append((mid + w, hi, vr, vhi))
    out.sort(key=lambda iv: iv.lo)
    return tuple(out)
