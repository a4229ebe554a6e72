"""Exact univariate polynomial arithmetic over Q with certified real-root isolation.

Polynomials are integer numerators over one common denominator, lowest degree
first, and their arithmetic is integer arithmetic: no floating point is used
anywhere, so root counts, signs and isolating intervals are certificates, not
estimates.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import floor, gcd, isqrt, lcm, prod
from typing import Iterable, Optional, Sequence, Union

from .errors import NotSquareFree, ZeroPolynomial

Coeffable = Union[int, Fraction]


@dataclass(unsafe_hash=True, slots=True)
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
        """f(p/q): the homogeneous numerator over den q^d."""
        q = x.denominator
        return Fraction(eval_homogeneous(self.nums, x.numerator, q) * q,
                        self.den * q ** len(self.nums))

    def sign_at(self, x: Coeffable) -> int:
        """The sign of f(x) for a rational x, exactly: den > 0 and q > 0, so it
        is the sign of the integer homogeneous numerator."""
        acc = eval_homogeneous(self.nums, x.numerator, x.denominator)
        return (acc > 0) - (acc < 0)

    def monic(self) -> "UPoly":
        if self.is_zero:
            raise ZeroPolynomial("zero polynomial cannot be made monic")
        return UPoly._make(self.nums, self.nums[-1])

    def gcd(self, other: "UPoly") -> "UPoly":
        """Monic greatest common divisor; gcd(0, 0) is the zero polynomial."""
        # a positive denominator changes no remainder's primitive part
        a, b = self.nums, other.nums
        while len(b) > 1:
            a, b = b, _primitive_remainder(a, b)
        if b:
            # a nonzero constant divides everything
            return UPoly.one()
        return UPoly._make(a, a[-1]) if a else UPoly.zero()

    def to_str(self, var: str = "t") -> str:
        """Highest degree first, each |coefficient| in lowest terms as p or
        p/q, with 1 left out before a power of ``var``."""
        if self.is_zero:
            return "0"
        den, parts = self.den, []
        for i in range(len(self.nums) - 1, -1, -1):
            n = self.nums[i]
            if not n:
                continue
            a = abs(n)
            g = gcd(a, den)
            c = str(a // g) if g == den else f"{a // g}/{den // g}"
            if i == 0:
                mono = c
            else:
                head = "" if a == den else f"{c}*"
                mono = f"{head}{var}" if i == 1 else f"{head}{var}^{i}"
            if not parts:
                parts.append(mono if n > 0 else f"-{mono}")
            else:
                parts.append(f"+ {mono}" if n > 0 else f"- {mono}")
        return " ".join(parts)

    def __str__(self) -> str:
        return self.to_str()


def _primitive_remainder(a: Sequence[int], b: Sequence[int]) -> list[int]:
    """The primitive part of the pseudo-remainder of a by b, for integer
    coefficient lists lowest degree first with b's last entry nonzero; [] when
    b divides a.

    Each step multiplies by |lc(b)|/gcd, so the result is a positive multiple
    of the remainder over Q and has its signs: the one remainder step of
    ``UPoly.gcd`` and of the Sturm chains (Brown & Traub, J. ACM 18, 1971).

    >>> _primitive_remainder([1, 0, 1], [0, 2])
    [1]
    """
    rem, lead, dd = list(a), b[-1], len(b) - 1
    size = abs(lead)
    while len(rem) > dd:
        c = rem.pop()
        if not c:
            continue
        g = gcd(c, lead)
        if g != size:
            m = size // g
            rem = [m * r for r in rem]
        t = c // g if lead > 0 else -c // g
        k = len(rem) - dd
        for j in range(dd):
            rem[k + j] -= t * b[j]
    while rem and not rem[-1]:
        rem.pop()
    g = gcd(*rem)
    return [r // g for r in rem] if g > 1 else rem


@dataclass(unsafe_hash=True)
class IsolatingInterval:
    """Open rational interval containing exactly one real root of ``poly``.

    ``poly`` is the square-free basis polynomial whose root it holds, so it
    changes sign exactly once across the interval and does not vanish at
    either endpoint.
    """

    lo: Fraction
    hi: Fraction
    poly: UPoly

    def refined(self) -> "IsolatingInterval":
        """Halve the interval, keeping the unique root inside."""
        return self.refined_to((self.hi - self.lo) / 2)

    def refined_to(self, width: Fraction) -> "IsolatingInterval":
        """Halve the interval until it is at most width wide.

        The ends are carried as a/(den 2^k) and b/(den 2^k) over the common
        denominator of lo and hi, so a midpoint is (a + b, k + 1) and the
        integer kernel ``_dyadic_sign`` reads the sign there; only the result
        is made of Fractions.  The sign at lo is read once: a step that keeps
        lo keeps its sign, and a midpoint that is the root becomes the centre
        of a window a quarter of the interval to each side, and so the
        midpoint of every later window, which needs no sign at all."""
        lo, hi = self.lo, self.hi
        den = lcm(lo.denominator, hi.denominator)
        a, b = lo.numerator * (den // lo.denominator), hi.numerator * (den // hi.denominator)
        wide, k = width.numerator * den, 0
        if (b - a) * width.denominator <= wide:
            return self
        cs = _scaled(self.poly.nums, 1, den)
        slo, centred = _dyadic_sign(cs, a, 0), False
        while (b - a) * width.denominator > wide << k:
            m = a + b
            sm = 0 if centred else _dyadic_sign(cs, m, k + 1)
            if sm == 0:
                a, b, k, centred = 3 * a + b, a + 3 * b, k + 2, True
            elif sm == slo:
                a, b, k = m, 2 * b, k + 1
            else:
                a, b, k = 2 * a, m, k + 1
        return IsolatingInterval(Fraction(a, den << k), Fraction(b, den << k), self.poly)

    def contains(self, x: Coeffable) -> bool:
        return self.lo < x < self.hi


def sign_of(x: Fraction) -> int:
    return (x > 0) - (x < 0)


def is_rational_square(x: Fraction) -> bool:
    """Is x the square of a nonzero rational?  False for every x <= 0."""
    if x <= 0:
        return False
    a, b = x.numerator, x.denominator
    return isqrt(a) ** 2 == a and isqrt(b) ** 2 == b


# --- core operations --------------------------------------------------------

def squarefree_decomposition(p: UPoly) -> tuple[tuple[UPoly, int], ...]:
    """The pairs (a_i, i), i ascending, with a_i the monic product of the
    irreducible factors of p of multiplicity exactly i, for the a_i that are
    not 1: so monic(p) is the product of the a_i^i, and the a_i are
    square-free and pairwise coprime.

    Yun's recurrence (Yun, SYMSAC 1976): with g = gcd(p, p'), b = p/g and
    c = p'/g, each step takes a = gcd(b, c - b'), the factors of the next
    multiplicity, and goes on with b/a and (c - b')/a.  Only the first gcd
    has the degree of p; the others work on the square-free part.  A linear
    p is its own factor, and a quadratic is decided by its discriminant, so
    neither takes a gcd at all.

    >>> [(a.to_str(), i) for a, i in squarefree_decomposition(UPoly.from_roots([1, 1, -2]))]
    [('t + 2', 1), ('t - 1', 2)]
    """
    p = p.monic()
    if p.degree <= 0:
        return ()
    if p.degree == 1:
        return ((p, 1),)
    if p.degree == 2:
        n0, n1, n2 = p.nums
        if n1 * n1 != 4 * n0 * n2:
            return ((p, 1),)
        return ((UPoly._make((n1, 2 * n2), 2 * n2), 2),)
    d = p.deriv()
    g = p.gcd(d)
    if g.degree == 0:
        return ((p, 1),)
    b, c = p // g, d // g
    out, i = [], 1
    while b.degree > 0:
        d = c - b.deriv()
        a = b.gcd(d)
        if a.degree > 0:
            out.append((a, i))
            b, c = b // a, d // a
        else:
            c = d
        i += 1
    return tuple(out)


def odd_multiplicity_part(factors: Iterable[tuple[UPoly, int]]) -> UPoly:
    """The product of the bases b with an odd exponent e among the pairs
    (b, e) of a factorisation over pairwise coprime square-free bases, such
    as ``squarefree_decomposition`` gives: the square class of the
    factorised polynomial, up to its leading coefficient."""
    return prod((b for b, e in factors if e % 2), start=UPoly.one())


def squarefree_sign_at(p: UPoly, base: Optional[Fraction], side: int) -> int:
    """The sign of a square-free p just to one side of a point, with no
    division: just right (``side`` +1) or left (-1) of the rational ``base``,
    or with no base, at +inf or -inf.

    A square-free p has only simple roots, so at a side of a root a it has
    the sign of (t - a) * p'(a): the sign of p'(a) just right of a and its
    opposite just left."""
    if base is None:
        lead = sign_of(p.nums[-1])
        return -lead if side < 0 and p.degree % 2 else lead
    return p.sign_at(base) or p.deriv().sign_at(base) * side


def _sturm_chain(q: UPoly) -> tuple[UPoly, ...]:
    """The Sturm chain of a square-free q; a constant q is its own chain.

    Each remainder is kept as its negated primitive part: a positive scale
    changes no sign, so the chain counts the same roots with integer
    coefficients that stay small.  The chain is the remainder sequence of
    (q, q') and so ends at their gcd: it is also the square-free test, and
    raises ``NotSquareFree`` when a remainder vanishes above degree 0."""
    if q.degree <= 0:
        return (q,)
    chain = [q, q.deriv()]
    a, b = q.nums, chain[-1].nums
    while len(b) > 1:
        rem = _primitive_remainder(a, b)
        if not rem:
            raise NotSquareFree("the polynomial has a repeated root")
        a, b = b, tuple(-r for r in rem)
        chain.append(UPoly(b))
    return tuple(chain)


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
    return x if x < iv.hi and iv.poly.sign_at(x) == 0 else None


def _variations(signs: Sequence[int]) -> int:
    nonzero = [s for s in signs if s != 0]
    return sum(1 for a, b in zip(nonzero, nonzero[1:]) if a != b)


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


def coprime_basis(polys: Iterable[UPoly]) -> tuple[UPoly, ...]:
    """Monic, square-free, pairwise coprime polynomials whose product has the
    roots of the nonconstant polys, each of which is a constant times a
    product of powers of them: the refinement of the polys' square-free
    decompositions.

    >>> [b.to_str() for b in coprime_basis([UPoly.of(0, 0, -1, 0, 1), UPoly.of(0, 2, 2)])]
    ['t + 1', 't - 1', 't']
    """
    parts = dict.fromkeys(a for p in dict.fromkeys(p.monic() for p in polys if p.degree > 0)
                          for a, _ in squarefree_decomposition(p))
    return tuple(c for c, _ in coprime_refinement(list(parts)))


def coprime_refinement(polys: Sequence[UPoly]) -> list[tuple[UPoly, frozenset[int]]]:
    """Factor refinement of distinct monic square-free polys (Bach, Driscoll
    & Shallit, J. Algorithms 15, 1993): monic, square-free, pairwise coprime
    c, each with the set of the indices of the polys it divides, so that
    polys[i] is the product of the c whose set holds i.

    >>> [(c.to_str(), sorted(s)) for c, s in coprime_refinement([UPoly.of(-1, 0, 1), UPoly.of(1, 1)])]
    [('t + 1', [0, 1]), ('t - 1', [0])]
    """
    basis: list[tuple[UPoly, frozenset[int]]] = []
    for i, a in enumerate(polys):
        # a is square-free: what it shares with b is g, and a / g is coprime
        # to g and to b / g, both of which are coprime to the rest of the basis
        refined = []
        for b, owners in basis:
            if a.degree == 0 or (a.degree == 1 == b.degree and a != b):
                # distinct monic linear polynomials are coprime
                refined.append((b, owners))
                continue
            g = a.gcd(b)
            if g.degree == 0:
                refined.append((b, owners))
                continue
            refined.append((g, owners | {i}))
            if g.degree < b.degree:
                refined.append((b // g, owners))
            a = a // g
        if a.degree > 0:
            refined.append((a, frozenset((i,))))
        basis = refined
    return basis


def isolate_real_roots(p: UPoly) -> tuple[IsolatingInterval, ...]:
    """One disjoint open rational interval per distinct real root, sorted.

    The roots are isolated over the coprime basis of p, whose product is the
    monic square-free part of p: it has p's Cauchy bound, so the intervals
    are those of one Sturm chain of that part.  A square-free p is its own
    basis, and its Sturm chain is the square-free test, so the chain of
    monic(p) is tried first, and the basis is made only on
    ``NotSquareFree``: the remainder sequence of (p, p') then runs once."""
    if p.is_zero:
        raise ZeroPolynomial("cannot isolate roots of the zero polynomial")
    try:
        return _bisect([_sturm_chain(p.monic())])
    except NotSquareFree:
        return isolate_coprime_roots(coprime_basis((p,)))


def isolate_coprime_roots(polys: Sequence[UPoly]) -> tuple[IsolatingInterval, ...]:
    """One disjoint open rational interval per real root of the product of
    pairwise coprime polys, sorted, found with one Sturm chain per polynomial
    instead of one chain of the product.

    The polys must be square-free, as ``coprime_basis`` makes them, so each
    chain starts at its polynomial and no gcd(p, p') is computed; the chain
    itself raises ``NotSquareFree`` on a repeated root.  Each interval
    carries the polynomial whose root it holds."""
    return _bisect([_sturm_chain(p) for p in polys])


def eval_homogeneous(cs: Sequence[int], p: int, q: int) -> int:
    """The sum of cs[i] p^i q^(d-i), d = len(cs) - 1, by homogeneous Horner:
    q^d times the polynomial with coefficients cs at p/q.  The top
    coefficient may be 0, which reads the polynomial as one of degree d."""
    acc, qpow = 0, 1
    for c in reversed(cs):
        acc = acc * p + c * qpow
        qpow *= q
    return acc


def _scaled(nums: Sequence[int], num: int, den: int) -> list[int]:
    """The integers nums[i] num^i den^(d-i), d = len(nums) - 1: for den > 0,
    the polynomial with numerators nums has at num*m / (den 2^e) the sign
    that ``_dyadic_sign`` reads from them at (m, e)."""
    out, power = [], 1
    for n in nums:
        out.append(n * power)
        power *= num
    power = 1
    for i in range(len(out) - 1, -1, -1):
        out[i] *= power
        power *= den
    return out


def _dyadic_sign(cs: Sequence[int], m: int, e: int) -> int:
    """The sign of the sum of cs[i] m^i 2^(e(d-i)), by Horner with shifts:
    the sign at m/2^e of the polynomial with integer coefficients cs, the one
    sign kernel of the bisection and of interval refinement."""
    acc, shift = 0, 0
    for c in reversed(cs):
        acc = acc * m + (c << shift)
        shift += e
    return (acc > 0) - (acc < 0)


def _skip_exponent(nums: Sequence[int]) -> int:
    """A k with every real root of the polynomial with numerators nums
    strictly inside (-2^k, 2^k), for a degree of at least 1.

    Fujiwara's bound (Tôhoku Math. J. 10, 1916) puts every root at most
    2 max_i |a_(n-i)/a_n|^(1/i) from 0, the term i = n taken over 2.  Each
    term is below 2^(k-1) once 2^((k-1) i) |a_n| > |a_(n-i)|, with 2 |a_n|
    for i = n, which holds when (k-1) i reaches the bit length of a_(n-i)
    less that of a_n (of 2 a_n), plus 1: so k comes from bit lengths alone.
    A monomial's root 0 is inside (-1, 1)."""
    n, lead = len(nums) - 1, abs(nums[-1]).bit_length()
    return 1 + max((-((lead + (i == n) - abs(c).bit_length() - 1) // i)
                    for i, c in enumerate(reversed(nums[:-1]), 1) if c), default=-1)


def _bisect(chains: Sequence[tuple[UPoly, ...]]) -> tuple[IsolatingInterval, ...]:
    """Bisection of [-bound, bound] over the Sturm chains of pairwise coprime
    polynomials.

    Root counts of coprime polynomials add, so a count sums the chains' sign
    variations, and a point is a root of the product when one of them
    vanishes there.  The bound is the product's, so the bisection tree, and
    with it every interval, is the one a single chain of the product gives.

    With the bound num/den, a point is the pair (m, e) standing for
    num*m / (den 2^e): a midpoint is the sum of its ends' numerators one
    level down, and a chain element is read there by ``_dyadic_sign`` on its
    coefficients scaled by ``_scaled``, once, on the element's first
    evaluation.  Only the ends of the leaves become Fractions.

    A chain's variation changes only at its polynomial's roots.  So a point
    of an interval is evaluated only on the chains whose variation differs at
    the interval's ends, and of those only on the ones whose skip bound 2^k
    (``_skip_exponent``) lies above the point's absolute value; any other
    chain has the variation of the near end.
    """
    chains = [c for c in chains if c[0].degree > 0]
    if not chains:
        return ()
    qs = [c[0] for c in chains]
    bound = root_bound(prod(qs, start=UPoly.one()))
    num, den = bound.numerator, bound.denominator
    skip = [_skip_exponent(q.nums) for q in qs]
    scaled: list[list[Optional[list[int]]]] = [[None] * len(c) for c in chains]

    def sign(i: int, j: int, m: int, e: int) -> int:
        cs = scaled[i][j]
        if cs is None:
            cs = scaled[i][j] = _scaled(chains[i][j].nums, num, den)
        return _dyadic_sign(cs, m, e)

    def var_at(m: int, e: int, vlo: tuple[int, ...], vhi: tuple[int, ...]):
        """The variations at the point (m, e), between two with variations
        vlo and vhi, or None when it is a root."""
        x = abs(num * m)
        out = list(vlo)
        for i, chain in enumerate(chains):
            if vlo[i] == vhi[i]:
                continue
            # is |x| < 2^k, that is x < den 2^(k+e)?
            k = skip[i] + e
            if not (x < den << k if k >= 0 else x << -k < den):
                out[i] = vhi[i] if m > 0 else vlo[i]
                continue
            s = sign(i, 0, m, e)
            if not s:
                return None
            out[i] = _variations([s] + [sign(i, j, m, e) for j in range(1, len(chain))])
        return tuple(out)

    def leaf(a: int, b: int, e: int, vlo: tuple[int, ...], vhi: tuple[int, ...]):
        q = next(q for q, x, y in zip(qs, vlo, vhi) if x != y)
        return IsolatingInterval(Fraction(num * a, den << e), Fraction(num * b, den << e), q)

    def var_beyond(side: int) -> tuple[int, ...]:
        """The variations past the bound on one side: as at infinity, from
        the signs of the leading terms, since no root lies beyond it."""
        return tuple(_variations([sign_of(g.nums[-1]) * side ** g.degree for g in c])
                     for c in chains)

    out: list[IsolatingInterval] = []
    # (a, b, e, vlo, vhi): the interval from (a, e) to (b, e)
    work = [(-1, 1, 0, var_beyond(-1), var_beyond(1))]
    while work:
        a, b, e, vlo, vhi = work.pop()
        n = sum(vlo) - sum(vhi)
        if n == 0:
            continue
        if n == 1:
            out.append(leaf(a, b, e, vlo, vhi))
            continue
        mid = a + b
        vmid = var_at(mid, e + 1, vlo, vhi)
        if vmid is not None:
            work.append((2 * a, mid, e + 1, vlo, vmid))
            work.append((mid, 2 * b, e + 1, vmid, vhi))
            continue
        # the midpoint is itself a root: carve out a window around it, a
        # quarter of the interval to each side, halved until it isolates the
        # root; at level t the window is (c - w, c + w)
        c, w, t = 2 * mid, b - a, e + 2
        while True:
            vl = var_at(c - w, t, vlo, vhi)
            vr = None if vl is None else var_at(c + w, t, vlo, vhi)
            if vr is not None and sum(vl) - sum(vr) == 1:
                break
            c, t = 2 * c, t + 1
        out.append(leaf(c - w, c + w, t, vl, vr))
        work.append((a << t - e, c - w, t, vlo, vl))
        work.append((c + w, b << t - e, t, vr, vhi))
    out.sort(key=lambda iv: iv.lo)
    return tuple(out)
