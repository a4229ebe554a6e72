"""Diagonal symmetric bilinear forms over the supported field contexts.

The contexts are the rationals, a real-closed context with rational data,
finite fields of odd characteristic, the complex numbers, and the rational
function field Q(t) with exact rational-function entries.  Forms are diagonal,
so every invariant implemented here (rank, signatures at orderings, signed
discriminant, residues at rational places) is computed entrywise and exactly.

Witt-class equality over Q and Q(t) is deliberately not decided in general:
downstream code works through invariants and explicit certificates (isotropic
vectors, recorded Pfister presentations).  The three-valued answer of
``in_fundamental_power`` reflects that honestly.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from functools import cached_property
from fractions import Fraction
from math import isqrt
from typing import Optional, Sequence, Union

from .errors import (
    ContextMismatch,
    EntryVanishesAtOrdering,
    FactorizationLimit,
    UnorderedContext,
    UnsupportedContext,
    ZeroEntry,
)
from .numeric import (
    ExtendedPoint,
    UPoly,
    is_rational_square,
    odd_multiplicity_part,
    sign_at,
    sign_of,
    split_root,
)

TAG_RATIONALS = "rationals"
TAG_REAL_CLOSED = "real-closed"
TAG_COMPLEXES = "complexes"
TAG_FINITE = "finite-field"
TAG_RATFUNC = "rational-functions"


@dataclass(frozen=True)
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


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


@dataclass(frozen=True)
class RatFunc:
    """Element of Q(t): a reduced fraction of polynomials with monic denominator."""

    num: UPoly
    den: UPoly

    @staticmethod
    def make(num: UPoly, den: UPoly = UPoly.one()) -> "RatFunc":
        if den.is_zero:
            raise ZeroDivisionError("zero denominator in Q(t)")
        if num.is_zero:
            return RatFunc(UPoly.zero(), UPoly.one())
        g = num.gcd(den)
        num, den = num // g, den // g
        lead = den.lc
        return RatFunc(num.scale(1 / lead), den.scale(1 / lead))

    @staticmethod
    def coerce(value) -> "RatFunc":
        if isinstance(value, RatFunc):
            return value
        if isinstance(value, UPoly):
            return RatFunc.make(value)
        return RatFunc.make(UPoly.of(Fraction(value)))

    def __mul__(self, other: "RatFunc") -> "RatFunc":
        return RatFunc.make(self.num * other.num, self.den * other.den)

    def __add__(self, other: "RatFunc") -> "RatFunc":
        return RatFunc.make(self.num * other.den + other.num * self.den, self.den * other.den)

    def __sub__(self, other: "RatFunc") -> "RatFunc":
        return self + (-other)

    def __neg__(self) -> "RatFunc":
        return RatFunc(-self.num, self.den)

    def __bool__(self) -> bool:
        return not self.num.is_zero

    def to_str(self) -> str:
        if self.den == UPoly.one():
            return self.num.to_str()
        return f"({self.num.to_str()})/({self.den.to_str()})"

    __str__ = to_str


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


def squarefree_int(n: int) -> int:
    """Signed square-free part of a nonzero integer.

    Trial division stops at TRIAL_LIMIT.  The cofactor left has no prime factor
    up to it, so below TRIAL_LIMIT**3 it is a square, a prime or a product of
    two distinct primes; a larger one that is not a square raises
    FactorizationLimit.
    """
    if n == 0:
        raise ZeroEntry("square class of zero")
    sign = 1 if n > 0 else -1
    n = abs(n)
    out = 1
    d = 2
    while d <= TRIAL_LIMIT and d * d <= n:
        e = 0
        while n % d == 0:
            n //= d
            e += 1
        if e % 2:
            out *= d
        d += 1
    if isqrt(n) ** 2 == n:
        n = 1
    elif n >= TRIAL_LIMIT ** 3:
        raise FactorizationLimit(
            f"a square class needs the factors of a {n.bit_length()}-bit integer "
            f"with no prime factor up to {TRIAL_LIMIT}")
    return sign * out * n


def _fraction_squarefree(x: Fraction) -> int:
    return squarefree_int(x.numerator * x.denominator)


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
    # Q(t): num*den must be a square polynomial
    q = x.num * x.den
    return is_rational_square(q.lc) and odd_multiplicity_part(q).degree == 0


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
    q = x.num * x.den
    scalar = _fraction_squarefree(q.lc)
    return odd_multiplicity_part(q).scale(scalar)


# --- orderings and places ----------------------------------------------------

@dataclass(frozen=True)
class Ordering:
    """An ordering of the context field.

    For the rationals and the real-closed context this is the unique ordering
    (``point`` is None).  For Q(t) it is a side of a rational point, or one of
    the two infinite ends; exact points are not orderings.
    """

    point: Optional[ExtendedPoint] = None

    def __post_init__(self):
        if self.point is not None and self.point.is_finite and self.point.side == "exact":
            raise UnorderedContext("an exact point is not an ordering of Q(t)")

    @staticmethod
    def archimedean() -> "Ordering":
        return Ordering(None)

    @staticmethod
    def above(x) -> "Ordering":
        return Ordering(ExtendedPoint.above(x))

    @staticmethod
    def below(x) -> "Ordering":
        return Ordering(ExtendedPoint.below(x))

    @staticmethod
    def at_pos_inf() -> "Ordering":
        return Ordering(ExtendedPoint.pos_inf())

    @staticmethod
    def at_neg_inf() -> "Ordering":
        return Ordering(ExtendedPoint.neg_inf())

    def describe(self) -> str:
        return "archimedean" if self.point is None else self.point.describe()


def ordering_pool(ctx: FieldCtx, sample: Sequence[Ordering]) -> list[Ordering]:
    """The orderings at which signatures are compared: none over C and F_p,
    the archimedean one over Q and R when no sample is given, else the sample."""
    if ctx.tag in (TAG_COMPLEXES, TAG_FINITE):
        return []
    pool = list(sample)
    if not pool and ctx.tag in (TAG_RATIONALS, TAG_REAL_CLOSED):
        pool.append(Ordering.archimedean())
    return pool


@dataclass(frozen=True)
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


@dataclass(frozen=True)
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
    def discriminant(self):
        """The signed discriminant as a square class, computed once per form."""
        n = self.dim
        out = coerce(self.ctx, 1)
        for e in self.entries:
            out = out * e
        if (n * (n - 1) // 2) % 2:
            out = -out
        return square_class(self.ctx, out)

    def to_str(self) -> str:
        return "<" + ",".join(map(str, self.entries)) + ">"


@dataclass(frozen=True)
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
    entries = (coerce(ctx, 1),)
    for a in coerced:
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

def _entry_sign(ctx: FieldCtx, e: Element, p: Ordering) -> int:
    if ctx.tag in (TAG_COMPLEXES, TAG_FINITE):
        raise UnorderedContext(f"{ctx} admits no orderings")
    if ctx.tag in (TAG_RATIONALS, TAG_REAL_CLOSED):
        return sign_of(e)
    if p.point is None:
        raise UnorderedContext("an ordering of Q(t) needs a point")
    s = sign_at(e.num, p.point) * sign_at(e.den, p.point)
    if s == 0:
        raise EntryVanishesAtOrdering(str(e))
    return s


def signature(phi, p: Ordering) -> int:
    """Sum of entry signs at the ordering; difference of sums for a GWElem."""
    if isinstance(phi, GWElem):
        return signature(phi.plus, p) - signature(phi.minus, p)
    return sum(_entry_sign(phi.ctx, e, p) for e in phi.entries)


def discriminant(phi: DiagForm):
    """Signed discriminant (-1)^(n(n-1)/2) * prod(entries), as a square class."""
    return phi.discriminant


def has_trivial_discriminant(phi: DiagForm) -> bool:
    return discriminant(phi) == (UPoly.one() if phi.ctx.tag == TAG_RATFUNC else 1)


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
    <a, b> with -ab a square?  True certifies Witt class zero."""
    entries = list(phi.entries)
    if len(entries) % 2:
        return False
    while entries:
        a = entries.pop()
        for i, b in enumerate(entries):
            if is_square(phi.ctx, -(a * b)):
                entries.pop(i)
                break
        else:
            return False
    return True


def witt_decompose(phi: DiagForm) -> tuple[int, int]:
    """(anisotropic dimension, Witt index) over the decidable contexts."""
    ctx = phi.ctx
    n = phi.dim
    if ctx.tag == TAG_REAL_CLOSED:
        pos = sum(1 for e in phi.entries if e > 0)
        neg = n - pos
        return abs(pos - neg), min(pos, neg)
    if ctx.tag == TAG_COMPLEXES:
        return n % 2, n // 2
    if ctx.tag == TAG_FINITE:
        if n == 0:
            return 0, 0
        if n == 1:
            return 1, 0
        if n % 2 == 0:
            aniso = 0 if has_trivial_discriminant(phi) else 2
        else:
            aniso = 1
        return aniso, (n - aniso) // 2
    raise UnsupportedContext(f"Witt decomposition is not decided over {ctx}")


class Membership(enum.Enum):
    YES = "yes"
    NO = "no"
    UNKNOWN = "unknown"


def in_fundamental_power(phi: DiagForm, n: int,
                         sample_orderings: Sequence[Ordering] = ()) -> Membership:
    """Does the Witt class of phi lie in the n-th power of the fundamental ideal?

    Necessary conditions are applied in order (rank parity, discriminant,
    signatures divisible by 2^n at every sampled ordering); a failure is a
    definite No.  Yes needs a certificate: a recorded Pfister presentation of
    arity >= n, a hyperbolic pairing, full decidability of the context, or
    n <= 1, where I^1 is exactly the classes of even rank over every field.
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
    for p in ordering_pool(ctx, sample_orderings):
        if signature(phi, p) % (2 ** n):
            return Membership.NO
    if ctx.tag == TAG_REAL_CLOSED:
        return Membership.YES          # signature detects everything here
    if ctx.tag == TAG_COMPLEXES:
        return Membership.YES          # even rank forms are hyperbolic
    if ctx.tag == TAG_FINITE:
        # I^2 vanishes: membership beyond n=1 means Witt class zero,
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
    contribute <u(v)> over the residue field (the rationals)."""
    if phi.ctx.tag != TAG_RATFUNC:
        raise UnsupportedContext("residues are taken over Q(t)")
    out = []
    for e in phi.entries:
        if v.kind == "finite":
            a = v.center
            num_u, knum = split_root(e.num, a)
            den_u, kden = split_root(e.den, a)
            k = knum - kden
            if k % 2:
                out.append(num_u.eval_at(a) / den_u.eval_at(a))
        else:
            k = e.den.degree - e.num.degree
            if k % 2:
                out.append(e.num.lc / e.den.lc)
    return DiagForm.make(RATIONALS, out)
