"""Milnor-Witt K-theory elements in degrees 0, 1, 2 as compatible pairs.

An element is a Milnor half together with a Witt half constrained to the
matching power of the fundamental ideal; the two are glued over their common
mod-2 shadow.  Degree 0 recovers the Grothendieck-Witt ring as (rank, Witt
class) pairs; the unit form <a> corresponds to 1 + eta*[a], and that identity
is what pins down the sign convention used for the Witt half of a symbol.

Equality of elements is decided through invariants only (rank parity,
discriminant-type classes, sampled signatures, explicit hyperbolicity), so the
comparison is three-valued: equal, distinct, or indistinguishable.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Sequence, Union

from .errors import CompatibilityError, ContextMismatch, ZeroEntry
from .qform import (
    DiagForm,
    FieldCtx,
    GWElem,
    Ordering,
    coerce,
    gw_add,
    gw_mul,
    gw_to_form,
    has_trivial_discriminant,
    hyperbolic_pairing,
    is_isotropic_vector,
    ordering_pool,
    pfister,
    signature,
)

Sym2 = tuple[tuple[int, tuple], ...]   # sum of coef * {a, b}


@dataclass(unsafe_hash=True)
class MilnorPart:
    """Milnor K-theory component: an integer in degree 0, a unit of the field
    in degree 1, a formal sum of 2-symbols in degree 2."""

    ctx: FieldCtx
    degree: int
    value: Union[int, object, Sym2]

    def is_zero(self) -> bool:
        if self.degree == 0:
            return self.value == 0
        if self.degree == 1:
            return self.value == coerce(self.ctx, 1)
        return not self.value


def _canonical_sym2(ctx: FieldCtx, terms: Sequence[tuple[int, tuple]]) -> Sym2:
    """Light normal form for sums of 2-symbols: drop symbols killed by the
    defining relations ({a,b} with an entry 1, b = 1-a, or b = -a), then merge
    duplicates and sort by a stable key."""
    one = coerce(ctx, 1)
    merged: dict = {}
    for c, (a, b) in terms:
        if c == 0 or a == one or b == one:
            continue
        s = a + b
        if s == one or not s:       # Steinberg, and {a, -a} = 0
            continue
        merged[a, b] = merged.get((a, b), 0) + c
    out = tuple((c, ab) for ab, c in merged.items() if c != 0)
    if len(out) < 2:
        return out
    return tuple(sorted(out, key=lambda t: (repr(t[1][0]), repr(t[1][1]))))


def _milnor_zero(ctx: FieldCtx, degree: int) -> MilnorPart:
    """The zero Milnor part in degree 0 or 1, where eta lands."""
    return MilnorPart(ctx, 0, 0) if degree == 0 else MilnorPart(ctx, 1, coerce(ctx, 1))


@dataclass(unsafe_hash=True)
class KmwElem:
    """A compatible (Milnor, Witt) pair in degree 0, 1 or 2."""

    ctx: FieldCtx
    degree: int
    milnor: MilnorPart
    witt: GWElem

    def __post_init__(self):
        if self.degree not in (0, 1, 2):
            raise ValueError("degrees are capped at 0..2")
        if self.milnor.degree != self.degree:
            raise CompatibilityError("Milnor part has the wrong degree")
        if self.witt.ctx != self.ctx:
            raise ContextMismatch("Witt part lives over a different context")
        _check_compatibility(self)

    @property
    def rank(self) -> int:
        if self.degree != 0:
            raise ValueError("rank is only defined in degree 0")
        return self.milnor.value


def _witt_rank_parity(w: GWElem) -> int:
    return (w.plus.dim + w.minus.dim) % 2


def _check_compatibility(x: KmwElem) -> None:
    if x.degree == 0:
        if x.milnor.value % 2 != _witt_rank_parity(x.witt):
            raise CompatibilityError("rank parity disagrees with the Witt class")
        return
    # for degree >= 1 the Witt class must have even rank (it lies in I)
    if _witt_rank_parity(x.witt) != 0:
        raise CompatibilityError("Witt part of a positive-degree element must have even rank")
    if x.degree == 1:
        # on a form of even rank, <a> multiplies the signed discriminant by a,
        # so the symbol {a} and the Witt half share their class exactly when
        # the Witt half with <a> added has a trivial one
        with_unit = DiagForm(x.ctx, gw_to_form(x.witt).entries + (x.milnor.value,))
        if not has_trivial_discriminant(with_unit):
            raise CompatibilityError("degree-1 symbol class disagrees with the Witt discriminant")
        return
    # degree 2: the Witt part must satisfy the computable I^2 necessities;
    # finer agreement is certified by construction
    if not has_trivial_discriminant(gw_to_form(x.witt)):
        raise CompatibilityError("degree-2 Witt part must have trivial discriminant")


def one(ctx: FieldCtx) -> KmwElem:
    return gw_unit(ctx, 1)


def gw_unit(ctx: FieldCtx, a) -> KmwElem:
    """The rank-one element <a> of the degree-0 part."""
    a = coerce(ctx, a)
    if not a:
        raise ZeroEntry("unit forms need a nonzero entry")
    return KmwElem(ctx, 0, MilnorPart(ctx, 0, 1),
                   GWElem(DiagForm(ctx, (a,)), DiagForm.empty(ctx)))


def integer(ctx: FieldCtx, n: int) -> KmwElem:
    """n times the unit element: rank n, Witt class of n * <1>."""
    entries = tuple(coerce(ctx, 1) for _ in range(abs(n)))
    form = DiagForm(ctx, entries)
    plus, minus = (form, DiagForm.empty(ctx)) if n >= 0 else (DiagForm.empty(ctx), form)
    return KmwElem(ctx, 0, MilnorPart(ctx, 0, n), GWElem(plus, minus))


def symbol(ctx: FieldCtx, *entries) -> KmwElem:
    """The symbol [a1, ..., an] in degree n (n = 1 or 2).

    The Witt half is (-1)^n times the Pfister form on the entries; this is the
    convention under which <a> = 1 + eta*[a] holds, and gw_identity_check
    validates it rather than trusting it.
    """
    n = len(entries)
    if n not in (1, 2):
        raise ValueError("symbols are supported in degrees 1 and 2")
    coerced = tuple(coerce(ctx, a) for a in entries)
    if not all(coerced):
        raise ZeroEntry("symbol entries must be nonzero")
    pf = pfister(ctx, *coerced)
    if n % 2:
        witt = GWElem(DiagForm.empty(ctx), pf)
    else:
        witt = GWElem(pf, DiagForm.empty(ctx))
    if n == 1:
        milnor = MilnorPart(ctx, 1, coerced[0])
    else:
        milnor = MilnorPart(ctx, 2, _canonical_sym2(ctx, [(1, coerced)]))
    return KmwElem(ctx, n, milnor, witt)


def eta_mul(x: KmwElem) -> KmwElem:
    """Multiply by eta: the Milnor half dies, the Witt class is carried along
    the inclusion of ideal powers unchanged."""
    if x.degree < 1:
        raise ValueError("eta lowers the degree; need degree >= 1")
    return KmwElem(x.ctx, x.degree - 1, _milnor_zero(x.ctx, x.degree - 1), x.witt)


def add(x: KmwElem, y: KmwElem) -> KmwElem:
    if x.ctx != y.ctx:
        raise ContextMismatch("cannot add over different contexts")
    if x.degree != y.degree:
        raise ValueError("cannot add elements of different degrees")
    if x.degree == 0:
        milnor = MilnorPart(x.ctx, 0, x.milnor.value + y.milnor.value)
    elif x.degree == 1:
        milnor = MilnorPart(x.ctx, 1, x.milnor.value * y.milnor.value)
    else:
        milnor = MilnorPart(x.ctx, 2, _canonical_sym2(x.ctx, list(x.milnor.value) + list(y.milnor.value)))
    return KmwElem(x.ctx, x.degree, milnor, gw_add(x.witt, y.witt))


def product(x: KmwElem, y: KmwElem) -> KmwElem:
    """Product of two degree-1 elements; lands in degree 2."""
    if x.ctx != y.ctx:
        raise ContextMismatch("cannot multiply over different contexts")
    if x.degree != 1 or y.degree != 1:
        raise ValueError("product is implemented for degree-1 pairs")
    milnor = MilnorPart(x.ctx, 2, _canonical_sym2(x.ctx, [(1, (x.milnor.value, y.milnor.value))]))
    return KmwElem(x.ctx, 2, milnor, gw_mul(x.witt, y.witt))


def gw_identity_check(ctx: FieldCtx, a, orderings: Sequence[Ordering] = ()) -> bool:
    """Does 1 + eta*[a] have the rank and the sampled signatures of <a>?"""
    a = coerce(ctx, a)
    if not a:
        raise ZeroEntry("the identity is about nonzero a")
    lhs = add(one(ctx), eta_mul(symbol(ctx, a)))
    rhs = gw_unit(ctx, a)
    if lhs.rank != rhs.rank:
        return False
    return all(signature(lhs.witt, p) == signature(rhs.witt, p)
               for p in ordering_pool(ctx, orderings))


class Comparison(enum.Enum):
    EQUAL = "equal"
    DISTINCT = "distinct"
    INDISTINGUISHABLE = "indistinguishable"


def witt_class_is_zero(w: GWElem) -> bool:
    """Certified vanishing of a Witt class via the hyperbolic pairing."""
    return hyperbolic_pairing(gw_to_form(w))


def is_zero_certified(x: KmwElem, isotropy_vector: Sequence = None) -> bool:
    """Certified vanishing: the Milnor half is canonically zero and the Witt
    half is hyperbolic.

    For a Witt half built from a single Pfister form, an explicit isotropy
    vector is an accepted certificate: an isotropic Pfister form is hyperbolic.
    """
    if not x.milnor.is_zero():
        return False
    if witt_class_is_zero(x.witt):
        return True
    if isotropy_vector is not None:
        for half in (x.witt.plus, x.witt.minus):
            other = x.witt.minus if half is x.witt.plus else x.witt.plus
            if (half.pfister_terms is not None and len(half.pfister_terms) == 1
                    and other.dim == 0 and half.dim == len(isotropy_vector)
                    and is_isotropic_vector(half, isotropy_vector)):
                return True
    return False


def compare(x: KmwElem, y: KmwElem, orderings: Sequence[Ordering] = ()) -> Comparison:
    """Equality through invariants: Equal / Distinct / Indistinguishable."""
    if x.ctx != y.ctx or x.degree != y.degree:
        return Comparison.DISTINCT
    if x.degree == 0 and x.milnor.value != y.milnor.value:
        return Comparison.DISTINCT
    if x.degree == 1 and x.milnor.value != y.milnor.value:
        return Comparison.DISTINCT
    milnor_known_equal = x.milnor == y.milnor
    difference = gw_add(x.witt, GWElem(y.witt.minus, y.witt.plus))
    # both Witt halves have even rank, so the difference's discriminant is
    # the product of theirs
    if x.degree == 1 and not has_trivial_discriminant(gw_to_form(difference)):
        return Comparison.DISTINCT
    # the signature of the difference is signature(x.witt) - signature(y.witt)
    for p in ordering_pool(x.ctx, orderings):
        if signature(difference, p):
            return Comparison.DISTINCT
    if milnor_known_equal and witt_class_is_zero(difference):
        return Comparison.EQUAL
    return Comparison.INDISTINGUISHABLE
