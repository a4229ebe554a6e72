"""Diagonal symmetric bilinear forms over the supported field contexts.

The contexts are the rationals, a real-closed context with rational data,
finite fields of odd characteristic, the complex numbers, and the rational
function field Q(t) with exact rational-function entries.  Forms are diagonal,
so every invariant implemented here (rank, signatures at orderings, signed
discriminant, residues at rational places) is computed entrywise and exactly.

Witt-class equality over Q and Q(t) is deliberately not decided in general:
downstream code works through invariants and explicit certificates (isotropic
vectors, recorded Pfister presentations).  The three-valued answer of
``in_fundamental_power`` reflects that honestly; it is definite for I and I^2.
Hilbert symbols over Q decide, by Hasse-Minkowski, whether a ternary form
<1, -a, -b> is isotropic.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from functools import cached_property
from fractions import Fraction
from math import isqrt, prod
from typing import Iterable, Optional, Sequence, Union

from .errors import (
    ContextMismatch,
    FactorizationLimit,
    UnorderedContext,
    UnsupportedContext,
    ZeroEntry,
)
from .numeric import (
    UPoly,
    coprime_refinement,
    is_rational_square,
    odd_multiplicity_part,
    sign_of,
    squarefree_decomposition,
    squarefree_sign_at,
)

TAG_RATIONALS = "rationals"
TAG_REAL_CLOSED = "real-closed"
TAG_COMPLEXES = "complexes"
TAG_FINITE = "finite-field"
TAG_RATFUNC = "rational-functions"


@dataclass(unsafe_hash=True)
class FieldCtx:
    tag: str
    p: Optional[int] = None

    def __post_init__(self):
        if self.tag == TAG_FINITE:
            if self.p is None or self.p < 3 or self.p % 2 == 0 or not _is_prime(self.p):
                raise UnsupportedContext("finite fields must have odd prime order")

    def __str__(self) -> str:
        return f"F_{self.p}" if self.tag == TAG_FINITE else self.tag


RATIONALS = FieldCtx(TAG_RATIONALS)
REAL_CLOSED = FieldCtx(TAG_REAL_CLOSED)
COMPLEXES = FieldCtx(TAG_COMPLEXES)
RATFUNC = FieldCtx(TAG_RATFUNC)


def finite_field(p: int) -> FieldCtx:
    return FieldCtx(TAG_FINITE, p)


# Miller-Rabin with the first 13 primes as bases is a proof of primality below
# this bound (Sorenson & Webster, Math. Comp. 86, 2017).
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_BOUND = 3_317_044_064_679_887_385_961_981


def _is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin; UnsupportedContext at or above _MR_BOUND."""
    if n >= _MR_BOUND:
        raise UnsupportedContext(f"primality is not certified at or above {_MR_BOUND}")
    if n < 2:
        return False
    if n in _MR_BASES:
        return True
    if any(n % b == 0 for b in _MR_BASES):
        return False
    d, r = n - 1, 0
    while d % 2 == 0:
        d, r = d // 2, r + 1
    for b in _MR_BASES:
        x = pow(b, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


@dataclass(unsafe_hash=True)
class RatFunc:
    """Element of Q(t): a reduced fraction of polynomials with monic denominator.

    It carries its factorisation ``factors``: pairs (b, e) of monic,
    square-free, pairwise coprime b and nonzero exponents e, negative for the
    denominator, with num/den = lc(num) * prod b^e.  Products and negation
    combine their operands' factors; any other element takes them from one
    square-free decomposition of num and one of den, on demand.
    """

    num: UPoly
    den: UPoly

    @staticmethod
    def make(num: UPoly, den: UPoly = UPoly.one()) -> "RatFunc":
        if den.is_zero:
            raise ZeroDivisionError("zero denominator in Q(t)")
        if num.is_zero:
            return RatFunc(UPoly.zero(), UPoly.one())
        if den.degree == 0:
            # a nonzero constant divides num, so there is no gcd to take
            lead = den.lc
            return RatFunc(num if lead == 1 else num.scale(1 / lead), UPoly.one())
        g = num.gcd(den)
        num, den = num // g, den // g
        lead = den.lc
        return RatFunc(num.scale(1 / lead), den.scale(1 / lead))

    @staticmethod
    def from_powers(num: UPoly, powers: Iterable[tuple[UPoly, int]]) -> "RatFunc":
        """The nonzero polynomial num, given as a constant times the product
        of the powers b^e (e >= 0) of monic bases b: its factors come from
        the bases, which need be neither square-free nor coprime, and num is
        not decomposed."""
        out = RatFunc.make(num)
        out.__dict__["factors"] = _combine((a, e * i) for b, e in powers
                                           for a, i in squarefree_decomposition(b))
        return out

    @staticmethod
    def coerce(value) -> "RatFunc":
        if isinstance(value, RatFunc):
            return value
        if isinstance(value, UPoly):
            return RatFunc.make(value)
        return RatFunc.make(UPoly.of(Fraction(value)))

    def __mul__(self, other: "RatFunc") -> "RatFunc":
        out = RatFunc.make(self.num * other.num, self.den * other.den)
        if out:
            # a constant operand has no factors, and the other's are coprime
            out.__dict__["factors"] = (_combine(self.factors + other.factors)
                                       if self.factors and other.factors
                                       else self.factors or other.factors)
        return out

    def __add__(self, other: "RatFunc") -> "RatFunc":
        return RatFunc.make(self.num * other.den + other.num * self.den, self.den * other.den)

    def __neg__(self) -> "RatFunc":
        # only the sign of lc(num) changes, so the factors carry over
        out = RatFunc(-self.num, self.den)
        out.__dict__["factors"] = self.factors
        return out

    @cached_property
    def factors(self) -> tuple[tuple[UPoly, int], ...]:
        """The pairs (b, e) of the factorisation; num and den are coprime, so
        their square-free decompositions together are one."""
        return (squarefree_decomposition(self.num)
                + tuple((b, -e) for b, e in squarefree_decomposition(self.den)))

    @property
    def odd_part(self) -> UPoly:
        """The monic odd-multiplicity part of num*den: with the sign of lc(num)
        (den is monic), it fixes the square class."""
        return odd_multiplicity_part(self.factors)

    def __bool__(self) -> bool:
        return not self.num.is_zero

    def to_str(self) -> str:
        if self.den == UPoly.one():
            return self.num.to_str()
        return f"({self.num.to_str()})/({self.den.to_str()})"

    __str__ = to_str


def _combine(powers: Iterable[tuple[UPoly, int]]) -> tuple[tuple[UPoly, int], ...]:
    """The factorisation of the product of the powers b^e of monic square-free
    bases: equal bases add their exponents, the rest are refined into a
    coprime basis, and bases whose exponents cancel are dropped."""
    exps: dict[UPoly, int] = {}
    for b, e in powers:
        exps[b] = exps.get(b, 0) + e
    bases = [b for b, e in exps.items() if e]
    out = []
    for c, owners in coprime_refinement(bases):
        e = sum(exps[bases[i]] for i in owners)
        if e:
            out.append((c, e))
    return tuple(out)


class Fp(int):
    """Element of F_p: an int reduced into [0, p) whose *, + and - are taken
    mod p.  Everything else (equality with ints, hashing, pow(x, e, p)) is the
    int's own."""

    def __new__(cls, value, p: int) -> "Fp":
        x = super().__new__(cls, int(value) % p)
        x.p = p
        return x

    def __mul__(self, other) -> "Fp":
        return Fp(int.__mul__(self, other), self.p)

    def __add__(self, other) -> "Fp":
        return Fp(int.__add__(self, other), self.p)

    def __sub__(self, other) -> "Fp":
        return Fp(int.__sub__(self, other), self.p)

    def __rsub__(self, other) -> "Fp":
        return Fp(int.__rsub__(self, other), self.p)

    def __neg__(self) -> "Fp":
        return Fp(-int(self), self.p)

    __rmul__ = __mul__
    __radd__ = __add__


Element = Union[Fraction, Fp, RatFunc]


def coerce(ctx: FieldCtx, value) -> Element:
    if ctx.tag == TAG_RATFUNC:
        return RatFunc.coerce(value)
    if ctx.tag == TAG_FINITE:
        return Fp(value, ctx.p)
    return Fraction(value)


# --- square classes ----------------------------------------------------------

TRIAL_LIMIT = 10 ** 6


def _trial_division(n: int) -> tuple[list[int], int]:
    """Split a positive integer by trial division (2, then odd divisors) up to
    TRIAL_LIMIT.

    Returns the primes found that divide n to an odd power, in increasing
    order, and the square-free part of the cofactor left.  Division stops at
    TRIAL_LIMIT, at the square root of what is left, or when what is left is
    a square or a prime below _MR_BOUND, where ``_is_prime`` is a proof
    (tested once the divisor passes 2^10, 2^11, ..., so a large prime or
    squared factor costs about as many divisions as the next largest prime
    factor).  So the cofactor is 1, a prime, or free of prime factors up to
    TRIAL_LIMIT; below TRIAL_LIMIT**3 it is then a square, a prime or a
    product of two distinct primes, and a larger one that is neither a square
    nor a proven prime raises FactorizationLimit.
    """
    primes = []
    d, step, test_at = 2, 1, 2 ** 10
    while d <= TRIAL_LIMIT and d * d <= n:
        if n % d == 0:
            e = 0
            while n % d == 0:
                n //= d
                e += 1
            if e % 2:
                primes.append(d)
        if d > test_at:
            if isqrt(n) ** 2 == n or (n < _MR_BOUND and _is_prime(n)):
                break
            test_at *= 2
        d, step = d + step, 2
    if isqrt(n) ** 2 == n:
        n = 1
    elif n >= TRIAL_LIMIT ** 3 and not (n < _MR_BOUND and _is_prime(n)):
        raise FactorizationLimit(
            f"a square class needs the factors of a {n.bit_length()}-bit integer "
            f"with no prime factor up to {TRIAL_LIMIT}")
    return primes, n


def squarefree_int(n: int) -> int:
    """Signed square-free part of a nonzero integer, by ``_trial_division``."""
    if n == 0:
        raise ZeroEntry("square class of zero")
    primes, rest = _trial_division(abs(n))
    return (1 if n > 0 else -1) * prod(primes) * rest


def _fraction_squarefree(x: Fraction) -> int:
    return squarefree_int(x.numerator * x.denominator)


# --- Hilbert symbols over Q -----------------------------------------------------

def _split_prime(n: int, p: int) -> tuple[int, int]:
    """(k, u) with n = p^k * u and p not dividing u, for a nonzero integer n."""
    k = 0
    while n % p == 0:
        n //= p
        k += 1
    return k, n


def hilbert_symbol(a, b, p: int) -> int:
    """The Hilbert symbol (a, b)_p of nonzero rationals a and b.

    It is 1 when z^2 = a*x^2 + b*y^2 has a nonzero solution over Q_p, else -1.
    ``p`` is a prime, or 0 for the real place (the convention of PARI's
    ``hilbert``).  The formulas are those of Serre, *A Course in Arithmetic*,
    Ch. III, Thm. 1: with a = p^alpha*u and b = p^beta*v for units u and v,
    an odd p gives (-1)^(alpha*beta*e(p)) (u/p)^beta (v/p)^alpha, and p = 2
    gives (-1)^(e(u)e(v) + alpha*w(v) + beta*w(u)), where e(x) = (x-1)/2 and
    w(x) = (x^2-1)/8 mod 2.

    >>> [hilbert_symbol(-1, -1, v) for v in (0, 2, 3, 5)]
    [-1, -1, 1, 1]
    """
    a, b = Fraction(a), Fraction(b)
    if not a or not b:
        raise ZeroEntry("the Hilbert symbol needs nonzero entries")
    if p == 0:
        return -1 if a < 0 and b < 0 else 1
    if p < 2 or not _is_prime(p):
        raise ValueError(f"{p} is neither a prime nor 0 (the real place)")
    # n*d has the square class of n/d
    alpha, u = _split_prime(a.numerator * a.denominator, p)
    beta, v = _split_prime(b.numerator * b.denominator, p)
    if p == 2:
        e = ((u - 1) // 2 * ((v - 1) // 2) + alpha * ((v * v - 1) // 8)
             + beta * ((u * u - 1) // 8))
        return -1 if e % 2 else 1
    out = -1 if alpha * beta % 2 and p % 4 == 3 else 1
    if beta % 2 and pow(u, (p - 1) // 2, p) != 1:
        out = -out
    if alpha % 2 and pow(v, (p - 1) // 2, p) != 1:
        out = -out
    return out


def _class_primes(x: Fraction) -> list[int]:
    """The primes dividing the square-free part of a nonzero rational, or
    FactorizationLimit when a cofactor left by trial division is not a prime."""
    primes, rest = _trial_division(abs(x.numerator * x.denominator))
    if rest == 1:
        return primes
    if _is_prime(rest):
        return primes + [rest]
    raise FactorizationLimit(
        f"a {rest.bit_length()}-bit product of two primes above {TRIAL_LIMIT} is not split")


def hilbert_obstruction(a, b) -> Optional[int]:
    """The first place v with (a, b)_v = -1: the real place (0) first, then the
    primes dividing 2ab in increasing order.  None when there is none, which by
    Hasse-Minkowski is exactly when z^2 = a*x^2 + b*y^2 has a nonzero rational
    solution.  FactorizationLimit when the primes of a or b cannot be listed.

    >>> hilbert_obstruction(-1, 3), hilbert_obstruction(-1, 5)
    (2, None)
    """
    a, b = Fraction(a), Fraction(b)
    places = [0] + sorted({2, *_class_primes(a), *_class_primes(b)})
    return next((v for v in places if hilbert_symbol(a, b, v) == -1), None)


def _least_nonresidue(p: int) -> int:
    for n in range(2, p):
        if pow(n, (p - 1) // 2, p) != 1:
            return n
    raise AssertionError("no quadratic non-residue found")


def is_square(ctx: FieldCtx, x: Element) -> bool:
    if not x:
        raise ZeroEntry("zero has no square class")
    if ctx.tag == TAG_RATIONALS:
        return is_rational_square(x)
    if ctx.tag == TAG_REAL_CLOSED:
        return x > 0
    if ctx.tag == TAG_COMPLEXES:
        return True
    if ctx.tag == TAG_FINITE:
        return pow(x, (ctx.p - 1) // 2, ctx.p) == 1
    # Q(t): lc(num) must be a square and every exponent even
    return is_rational_square(x.num.lc) and not any(e % 2 for _, e in x.factors)


def square_class(ctx: FieldCtx, x: Element):
    """Canonical square-class representative.

    Rationals: signed square-free integer.  Real-closed: +-1.  Complexes: 1.
    Finite field: 1 or the least non-residue.  Q(t): the odd-multiplicity part
    of the polynomial num*den, scaled by the square-free part of its leading
    coefficient.
    """
    if not x:
        raise ZeroEntry("zero has no square class")
    if ctx.tag == TAG_RATIONALS:
        return _fraction_squarefree(x)
    if ctx.tag == TAG_REAL_CLOSED:
        return 1 if x > 0 else -1
    if ctx.tag == TAG_COMPLEXES:
        return 1
    if ctx.tag == TAG_FINITE:
        return 1 if is_square(ctx, x) else _least_nonresidue(ctx.p)
    return x.odd_part.scale(_fraction_squarefree(x.num.lc))


# --- orderings and places ----------------------------------------------------

@dataclass(unsafe_hash=True)
class Ordering:
    """An ordering of the context field.

    For the rationals and the real-closed context this is the unique,
    archimedean ordering: ``side`` 0 and no ``base``.  For Q(t) it is a side
    of a rational point or one of the two infinite ends: ``side`` +1 (resp.
    -1) means just right (resp. left) of ``base``, or with no base, +inf
    (resp. -inf).  Such a point never coincides with a root of a nonzero
    polynomial, which is what makes it an ordering; an exact point is not one.
    """

    base: Optional[Fraction] = None
    side: int = 0

    def __post_init__(self):
        if self.base is not None and not self.side:
            raise UnorderedContext("an exact point is not an ordering of Q(t)")

    @staticmethod
    def archimedean() -> "Ordering":
        return Ordering()

    @staticmethod
    def above(x) -> "Ordering":
        return Ordering(Fraction(x), 1)

    @staticmethod
    def below(x) -> "Ordering":
        return Ordering(Fraction(x), -1)

    @staticmethod
    def at_pos_inf() -> "Ordering":
        return Ordering(None, 1)

    @staticmethod
    def at_neg_inf() -> "Ordering":
        return Ordering(None, -1)

    def describe(self) -> str:
        if not self.side:
            return "archimedean"
        mark = "+" if self.side > 0 else "-"
        return f"{mark}inf" if self.base is None else f"{self.base}{mark}"


def ordering_pool(ctx: FieldCtx, sample: Sequence[Ordering]) -> list[Ordering]:
    """The orderings at which signatures are compared: none over C and F_p,
    the archimedean one over Q and R when no sample is given, else the sample."""
    if ctx.tag in (TAG_COMPLEXES, TAG_FINITE):
        return []
    pool = list(sample)
    if not pool and ctx.tag in (TAG_RATIONALS, TAG_REAL_CLOSED):
        pool.append(Ordering.archimedean())
    return pool


@dataclass(unsafe_hash=True)
class Place:
    """A rational place of Q(t): the monic polynomial t - a, or infinity."""

    kind: str                      # "finite" | "infinity"
    center: Optional[Fraction] = None

    @staticmethod
    def finite(a) -> "Place":
        return Place("finite", Fraction(a))

    @staticmethod
    def infinity() -> "Place":
        return Place("infinity")


# --- forms -------------------------------------------------------------------

PfisterTerms = tuple[tuple[int, tuple[Element, ...]], ...]


@dataclass(unsafe_hash=True)
class DiagForm:
    """Diagonal form <e1, ..., en> over a field context.

    ``pfister_terms``, when present, records the form's construction as an
    integer combination of Pfister forms; it certifies fundamental-ideal
    membership and is ignored by equality.
    """

    ctx: FieldCtx
    entries: tuple[Element, ...]
    pfister_terms: Optional[PfisterTerms] = field(default=None, compare=False)

    def __post_init__(self):
        if not all(self.entries):
            raise ZeroEntry("diagonal forms have nonzero entries")

    @staticmethod
    def make(ctx: FieldCtx, entries: Sequence) -> "DiagForm":
        return DiagForm(ctx, tuple(coerce(ctx, e) for e in entries))

    @staticmethod
    def empty(ctx: FieldCtx) -> "DiagForm":
        # the empty form is the zero combination of Pfister forms
        return DiagForm(ctx, (), ())

    @property
    def dim(self) -> int:
        return len(self.entries)

    @cached_property
    def _signed_product(self):
        """(-1)^(n(n-1)/2) times the product of the entries, computed once per
        form.

        Over Q(t) no product entry is formed: this is the pair (lead, odd) of
        the signed product of the leading coefficients and the bases of odd
        exponent in the product of the entries.  Only parities count: a base
        of odd exponent that occurs in an even number of entries is a square
        factor and is dropped, and the rest are refined into a coprime basis
        only when two or more remain."""
        n = self.dim
        sign = -1 if (n * (n - 1) // 2) % 2 else 1
        if self.ctx.tag == TAG_RATFUNC:
            top, bottom = sign, 1
            odd: dict[UPoly, bool] = {}
            for e in self.entries:
                top, bottom = top * e.num.nums[-1], bottom * e.num.den
                for b, k in e.factors:
                    if k % 2:
                        odd[b] = not odd.get(b)
            bases = [b for b, keep in odd.items() if keep]
            if len(bases) > 1:
                bases = [c for c, owners in coprime_refinement(bases) if len(owners) % 2]
            return Fraction(top, bottom), tuple(bases)
        out = coerce(self.ctx, sign)
        for e in self.entries:
            out = out * e
        return out

    @cached_property
    def discriminant(self):
        """The signed discriminant as a square class, computed once per form."""
        if self.ctx.tag == TAG_RATFUNC:
            lead, odd = self._signed_product
            return prod(odd, start=UPoly.one()).scale(_fraction_squarefree(lead))
        return square_class(self.ctx, self._signed_product)


@dataclass(unsafe_hash=True)
class GWElem:
    """Formal difference of diagonal forms: a Grothendieck-Witt style element."""

    plus: DiagForm
    minus: DiagForm

    def __post_init__(self):
        if self.plus.ctx != self.minus.ctx:
            raise ContextMismatch("both halves must share a context")

    @property
    def ctx(self) -> FieldCtx:
        return self.plus.ctx


def _require_same_ctx(a, b):
    if a.ctx != b.ctx:
        raise ContextMismatch(f"{a.ctx} vs {b.ctx}")


def direct_sum(phi: DiagForm, psi: DiagForm) -> DiagForm:
    _require_same_ctx(phi, psi)
    terms = None
    if phi.pfister_terms is not None and psi.pfister_terms is not None:
        terms = phi.pfister_terms + psi.pfister_terms
    return DiagForm(phi.ctx, phi.entries + psi.entries, terms)


def tensor(phi: DiagForm, psi: DiagForm) -> DiagForm:
    _require_same_ctx(phi, psi)
    entries = tuple(a * b for a in phi.entries for b in psi.entries)
    terms = None
    if phi.pfister_terms is not None and psi.pfister_terms is not None:
        terms = tuple(
            (ca * cb, sa + sb)
            for ca, sa in phi.pfister_terms
            for cb, sb in psi.pfister_terms
        )
    return DiagForm(phi.ctx, entries, terms)


def pfister(ctx: FieldCtx, *slots) -> DiagForm:
    """The Pfister form <<a1, ..., an>> = tensor of the <1, -a_i>; dimension 2^n."""
    coerced = tuple(coerce(ctx, a) for a in slots)
    if not all(coerced):
        raise ZeroEntry("Pfister slots must be nonzero")
    one = coerce(ctx, 1)
    entries = (one, -coerced[0]) if coerced else (one,)
    for a in coerced[1:]:
        entries = tuple(y for x in entries for y in (x, x * -a))
    return DiagForm(ctx, entries, ((1, coerced),))


def mult_by_pfister_minus_one(x):
    """Tensor with <1,1>; doubles every signature."""
    if isinstance(x, GWElem):
        return GWElem(mult_by_pfister_minus_one(x.plus), mult_by_pfister_minus_one(x.minus))
    return tensor(x, pfister(x.ctx, -1))


def gw_add(a: GWElem, b: GWElem) -> GWElem:
    return GWElem(direct_sum(a.plus, b.plus), direct_sum(a.minus, b.minus))


def gw_mul(a: GWElem, b: GWElem) -> GWElem:
    plus = direct_sum(tensor(a.plus, b.plus), tensor(a.minus, b.minus))
    minus = direct_sum(tensor(a.plus, b.minus), tensor(a.minus, b.plus))
    return GWElem(plus, minus)


def gw_to_form(a: GWElem) -> DiagForm:
    """A diagonal representative of the Witt class of a (negate the minus part)."""
    return DiagForm(a.ctx, a.plus.entries + tuple(-e for e in a.minus.entries))


# --- invariants ---------------------------------------------------------------

def _entry_signs(ctx: FieldCtx, p: Ordering):
    """The sign of an entry at the ordering p, as a function of the entry.

    Over Q(t) an entry's sign is that of lc(num) times the signs of its
    factors of odd exponent (a factor of even exponent is positive at every
    ordering, for no ordering sits on a root).  Each distinct factor is
    evaluated once per function, by ``squarefree_sign_at``."""
    if ctx.tag in (TAG_COMPLEXES, TAG_FINITE):
        def unordered(e):
            raise UnorderedContext(f"{ctx} admits no orderings")
        return unordered
    if ctx.tag in (TAG_RATIONALS, TAG_REAL_CLOSED):
        return sign_of
    base, side, known = p.base, p.side, {}

    def sign(e: RatFunc) -> int:
        if not side:
            raise UnorderedContext("an ordering of Q(t) needs a point")
        s = 1 if e.num.nums[-1] > 0 else -1
        for b, k in e.factors:
            if k % 2:
                if b not in known:
                    known[b] = squarefree_sign_at(b, base, side)
                s *= known[b]
        return s
    return sign


def signature(phi, p: Ordering) -> int:
    """Sum of entry signs at the ordering; difference of sums for a GWElem."""
    if isinstance(phi, GWElem):
        sign = _entry_signs(phi.ctx, p)
        return sum(map(sign, phi.plus.entries)) - sum(map(sign, phi.minus.entries))
    return sum(map(_entry_signs(phi.ctx, p), phi.entries))


def discriminant(phi: DiagForm):
    """Signed discriminant (-1)^(n(n-1)/2) * prod(entries), as a square class."""
    return phi.discriminant


def has_trivial_discriminant(phi: DiagForm) -> bool:
    """Is the signed product of the entries a square?  No square class is
    formed: no integer is factored, and over Q(t) no factor is multiplied
    out."""
    if phi.ctx.tag == TAG_RATFUNC:
        lead, odd = phi._signed_product
        return not odd and is_rational_square(lead)
    return is_square(phi.ctx, phi._signed_product)


def form_value(phi: DiagForm, vector: Sequence) -> Element:
    """Evaluate the quadratic form: sum of e_i * v_i^2."""
    ctx = phi.ctx
    if len(vector) != phi.dim:
        raise ContextMismatch("vector length must equal the form dimension")
    total = coerce(ctx, 0)
    for e, v in zip(phi.entries, vector):
        v = coerce(ctx, v)
        total = total + e * (v * v)
    return total


def is_isotropic_vector(phi: DiagForm, vector: Sequence) -> bool:
    value = form_value(phi, vector)
    return any(coerce(phi.ctx, v) for v in vector) and not value


def hyperbolic_pairing(phi: DiagForm) -> bool:
    """Greedy recognizer: can the entries be matched into hyperbolic pairs
    <a, b> with -ab a square?  True certifies Witt class zero.

    Over Q(t) no product is formed: -ab is a square exactly when a and b
    have the same odd part and -lc(a)*lc(b) is a rational square, and each
    entry's (lc, odd part) is computed once."""
    if phi.dim % 2:
        return False
    if phi.ctx.tag == TAG_RATFUNC:
        entries = [(e.num.lc, e.odd_part) for e in phi.entries]

        def pairs(a, b) -> bool:
            return a[1] == b[1] and is_rational_square(-a[0] * b[0])
    else:
        entries = list(phi.entries)

        def pairs(a, b) -> bool:
            return is_square(phi.ctx, -(a * b))
    while entries:
        a = entries.pop()
        for i, b in enumerate(entries):
            if pairs(a, b):
                entries.pop(i)
                break
        else:
            return False
    return True


class Membership(enum.Enum):
    YES = "yes"
    NO = "no"
    UNKNOWN = "unknown"


def in_fundamental_power(phi: DiagForm, n: int,
                         sample_orderings: Sequence[Ordering] = ()) -> Membership:
    """Does the Witt class of phi lie in the n-th power of the fundamental ideal?

    Over every field I^1 is exactly the classes of even rank, and I^2 those of
    even rank and trivial signed discriminant (I/I^2 is F*/F*^2 through the
    discriminant; Lam, Ch. II), so n <= 2 is always decided.  Beyond that,
    signatures not divisible by 2^n at a sampled ordering give a definite No,
    and Yes needs a certificate: a recorded Pfister presentation of arity >= n,
    a hyperbolic pairing, or full decidability of the context.
    """
    if n < 0:
        raise ValueError("n must be non-negative")
    if n == 0:
        return Membership.YES
    ctx = phi.ctx
    if phi.dim % 2:
        return Membership.NO
    if n == 1:
        return Membership.YES
    if not has_trivial_discriminant(phi):
        return Membership.NO
    if n == 2:
        return Membership.YES
    for p in ordering_pool(ctx, sample_orderings):
        if signature(phi, p) % (2 ** n):
            return Membership.NO
    if ctx.tag == TAG_REAL_CLOSED:
        return Membership.YES          # signature detects everything here
    if ctx.tag == TAG_COMPLEXES:
        return Membership.YES          # even rank forms are hyperbolic
    if ctx.tag == TAG_FINITE:
        # I^2 vanishes: membership beyond n=2 means Witt class zero,
        # which even rank plus trivial discriminant already certifies
        return Membership.YES
    if phi.pfister_terms is not None and all(len(s) >= n for _, s in phi.pfister_terms):
        return Membership.YES
    if hyperbolic_pairing(phi):
        return Membership.YES
    return Membership.UNKNOWN


# --- residues -----------------------------------------------------------------

def second_residue(phi: DiagForm, v: Place) -> DiagForm:
    """Second residue form at a rational place: entries u*pi^k with odd k
    contribute <u(v)> over the residue field (the rationals).

    At a finite place a the entry's factors give both: at most one basis b
    has b(a) = 0, and as b is square-free its exponent is k and b/(t - a)
    is b'(a) at a; every other basis c contributes c(a)^e."""
    if phi.ctx.tag != TAG_RATFUNC:
        raise UnsupportedContext("residues are taken over Q(t)")
    out = []
    for e in phi.entries:
        if v.kind == "finite":
            a = v.center
            k, unit = 0, e.num.lc
            for b, m in e.factors:
                value = b.eval_at(a)
                if value:
                    unit *= value ** m
                else:
                    k, unit = m, unit * b.deriv().eval_at(a) ** m
            if k % 2:
                out.append(unit)
        else:
            k = e.den.degree - e.num.degree
            if k % 2:
                out.append(e.num.lc / e.den.lc)
    return DiagForm.make(RATIONALS, out)
