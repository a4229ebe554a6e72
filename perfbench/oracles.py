"""Independent exact arithmetic used by the workload oracles.

Nothing here imports realcycle: every expected answer is derived from the data
the generator planted in the input (roots, factors, planted lattices), using
small textbook algorithms that share no code with the package under test.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from math import gcd, isqrt


def fmt_q(q) -> str:
    """A rational as the package writes it: "p" or "p/q"."""
    q = Fraction(q)
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


# --- dense univariate polynomials, lowest degree first ---------------------------

def poly_mul(a: list, b: list) -> list:
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return out


def poly_product(factors, scalar=1) -> list:
    out = [scalar]
    for f in factors:
        out = poly_mul(out, f)
    return out


def render_poly(coeffs, var: str) -> str:
    """The documented report format: descending terms, "c*t^k", " + " / " - "."""
    parts = []
    for i in range(len(coeffs) - 1, -1, -1):
        c = Fraction(coeffs[i])
        if c == 0:
            continue
        mag = abs(c)
        if i == 0:
            mono = fmt_q(mag)
        else:
            head = "" if mag == 1 else f"{fmt_q(mag)}*"
            mono = f"{head}{var}" if i == 1 else f"{head}{var}^{i}"
        if not parts:
            parts.append(mono if c > 0 else f"-{mono}")
        else:
            parts.append(f"+ {mono}" if c > 0 else f"- {mono}")
    return " ".join(parts) if parts else "0"


def squarefree_int(n: int) -> int:
    """Signed square-free part of a nonzero integer, by trial division."""
    sign = -1 if n < 0 else 1
    n = abs(n)
    out, p = 1, 2
    while p * p <= n:
        while n % (p * p) == 0:
            n //= p * p
        if n % p == 0:
            out *= p
            n //= p
        p += 1
    return sign * out * n


def is_square_q(q: Fraction) -> bool:
    q = Fraction(q)
    if q < 0:
        return False
    return isqrt(q.numerator) ** 2 == q.numerator and isqrt(q.denominator) ** 2 == q.denominator


# --- real algebraic roots of the planted polynomials ------------------------------

class Root:
    """A real root planted by a generator: a rational r, or c + sign*sqrt(s)
    with s not a square."""

    __slots__ = ("rational", "center", "sign", "square")

    def __init__(self, rational=None, center=0, sign=0, square=None):
        self.rational = None if rational is None else Fraction(rational)
        self.center = Fraction(center)
        self.sign = sign
        self.square = None if square is None else Fraction(square)

    @staticmethod
    def sqrt(center, sign: int, s) -> "Root":
        return Root(center=center, sign=sign, square=s)

    def cmp_q(self, q) -> int:
        """sign(root - q), exactly."""
        q = Fraction(q)
        if self.rational is not None:
            d = self.rational - q
            return (d > 0) - (d < 0)
        q -= self.center
        if self.sign > 0:
            return -1 if q > 0 and q * q > self.square else 1
        return 1 if q < 0 and q * q > self.square else -1

    def key(self):
        """Sort key among roots sharing one center."""
        if self.rational is not None:
            return (self.rational, 0)
        return (self.sign, self.sign * self.square)

    def __repr__(self):
        if self.rational is not None:
            return fmt_q(self.rational)
        return f"{fmt_q(self.center)}{'-' if self.sign < 0 else '+'}sqrt({fmt_q(self.square)})"


def strictly_inside(root: Root, lo, hi) -> bool:
    return root.cmp_q(lo) > 0 and root.cmp_q(hi) < 0


# --- integer matrices ---------------------------------------------------------------

def det(m) -> int:
    """Bareiss fraction-free determinant of a square integer matrix."""
    a = [list(row) for row in m]
    n = len(a)
    if n == 0:
        return 1
    sign, prev = 1, 1
    for k in range(n - 1):
        if a[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if a[i][k] != 0), None)
            if swap is None:
                return 0
            a[k], a[swap] = a[swap], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def rank(m) -> int:
    rows = [[Fraction(x) for x in row] for row in m]
    r = 0
    cols = len(rows[0]) if rows else 0
    for c in range(cols):
        piv = next((i for i in range(r, len(rows)) if rows[i][c] != 0), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        for i in range(len(rows)):
            if i != r and rows[i][c] != 0:
                f = rows[i][c] / rows[r][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        r += 1
    return r


def matmul(a, b):
    cols = len(b[0]) if b else 0
    return [[sum(a[i][k] * b[k][j] for k in range(len(b))) for j in range(cols)]
            for i in range(len(a))]


def presentation_invariants(relations, n_generators: int) -> tuple[int, tuple[int, ...]]:
    """(free rank, torsion invariant factors) of Z^g / column span, from the
    determinantal divisors: d_k = gcd of the k x k minors divided by d_{k-1}'s."""
    width = len(relations[0]) if relations and relations[0] else 0
    if n_generators == 0:
        return 0, ()
    if width == 0:
        return n_generators, ()
    r = rank(relations)
    divisors = [1]
    for k in range(1, r + 1):
        g = 0
        for rows in combinations(range(n_generators), k):
            for cols in combinations(range(width), k):
                g = gcd(g, det([[relations[i][j] for j in cols] for i in rows]))
        divisors.append(g)
    factors = tuple(divisors[k] // divisors[k - 1] for k in range(1, r + 1))
    return n_generators - r, tuple(f for f in factors if f != 1)


def cyclic_invariants(orders) -> tuple[int, tuple[int, ...]]:
    """(free rank, invariant factors) of the direct sum of Z/n (n = 0 meaning Z),
    by splitting every order into prime powers and regrouping them."""
    free = sum(1 for n in orders if n == 0)
    powers: dict[int, list[int]] = {}
    for n in orders:
        if n in (0, 1):
            continue
        p = 2
        while n > 1:
            if p * p > n:
                p = n
            e = 1
            while n % p == 0:
                n //= p
                e *= p
            if e > 1:
                powers.setdefault(p, []).append(e)
            p += 1
    depth = max((len(v) for v in powers.values()), default=0)
    factors = [1] * depth
    for v in powers.values():
        for i, e in enumerate(sorted(v, reverse=True)):
            factors[depth - 1 - i] *= e
    return free, tuple(factors)
