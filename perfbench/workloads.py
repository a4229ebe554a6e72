"""Seeded request streams for the three workloads, each request with its oracle.

A stream is an endless, deterministic sequence of requests.  Request ``i``
takes slot ``i`` of a fixed schedule, which sets its kind and size, and draws
its values from a generator seeded by ``(workload, seed, i)``, so it does not
depend on how many requests ran before it.  Inputs never repeat within a
stream, because the command line serves one input per process and a repeated
input would reward caches that real use never hits.

Every request carries the data its generator planted (roots, factors, planted
lattices).  ``check`` derives the expected answer from that data with the
helpers in ``oracles`` and returns a description of the first mismatch, or
None.  ``render`` gives the bytes that enter the run digest.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import json
import random
import shlex
from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import Callable, Iterator, Optional

from oracles import (
    Root,
    cyclic_invariants,
    det,
    fmt_q,
    is_square_q,
    matmul,
    poly_product,
    presentation_invariants,
    rank,
    render_poly,
    squarefree_int,
    strictly_inside,
)
from realcycle import abgrp, cli, cycleclass, mwk, qform, realcurve
from realcycle.numeric import UPoly


# Per-request deadlines by kind, in seconds.  No input in the mix comes near
# them: each is at least five times the slowest answer of its kind seen in
# probes and runs (README.md lists them), so a deadline fires only if the
# program hangs or gets far slower, and every run answers every request.
DEADLINE_S = {
    "readme": 10.0, "line": 10.0, "line_twist": 10.0, "oval50": 10.0,
    "hyper": 20.0, "hyper_twist": 20.0, "oval200": 20.0,
    "forms": 2.0,
    "invariants": 1.0, "maps": 1.0, "ladder": 1.0, "dense": 1.0,
    "gamma": 20.0,
}


@dataclass
class Request:
    ident: int
    kind: str
    text: str                              # the input, enough to reproduce the request
    call: Callable[[], object]             # the timed part
    check: Callable[[object], Optional[str]]
    render: Callable[[object], bytes]
    deadline: float = 0.0                  # seconds, from DEADLINE_S
    cycle_end: bool = False                # last request of a schedule cycle


def _cli(argv: list[str]) -> Callable[[], tuple[int, str]]:
    def call():
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(argv)
        return code, buf.getvalue()
    return call


def _cli_text(argv: list[str]) -> str:
    return "realcycle " + " ".join(shlex.quote(a) for a in argv)


def _render_cli(result) -> bytes:
    code, out = result
    return f"{code}\n{out}".encode()


def _render_repr(result) -> bytes:
    return _canonical(result).encode()


def _canonical(x) -> str:
    """repr with integers in hex, so huge entries never hit the decimal
    conversion limit and the digest needs no interpreter setting."""
    if isinstance(x, bool) or x is None:
        return repr(x)
    if isinstance(x, int):
        return hex(x)
    if isinstance(x, (list, tuple)):
        return "[" + ",".join(_canonical(v) for v in x) + "]"
    return repr(x)


def _spread(groups) -> list:
    """Interleave groups of slots so each group is spread evenly over the cycle."""
    keyed = [((j + 0.5) / len(g), gi, slot) for gi, g in enumerate(groups) for j, slot in enumerate(g)]
    return [slot for _, _, slot in sorted(keyed, key=lambda t: (t[0], t[1]))]


def _stream(name: str, seed: int, slots, cycle: int, draw, prefix=()) -> Iterator[Request]:
    """Request i takes slot i of a fixed schedule, the same for every seed, so
    the mix of kinds and sizes in a run does not depend on the seed; the seed
    draws only the concrete values.  A run stops at the end of a cycle of
    `cycle` slots, so every run holds whole cycles.  A redraw replaces an
    input seen before."""
    seen: set = set()
    for req in prefix:
        seen.add(hashlib.blake2b(req.text.encode(), digest_size=16).digest())
        yield req
    for i in itertools.count():
        kind, size = slots[i % len(slots)]
        ident = i + len(prefix)
        rng = random.Random(f"{name}:{seed}:{ident}")
        for _ in range(1000):
            req = draw(rng, ident, kind, size)
            key = hashlib.blake2b(req.text.encode(), digest_size=16).digest()
            if key not in seen:
                break
        else:
            raise RuntimeError(f"{name}: no new input of kind {kind} size {size} after 1000 draws")
        seen.add(key)
        req.cycle_end = (i + 1) % cycle == 0
        yield req


# =============================================================================
# curves: `realcycle curve` through cli.main
# =============================================================================

BOUND_SOURCES = ["codimension-one-bound", "global-signature-bound",
                 "refined-prediction", "signature-ladder-kernel-bound"]


@dataclass
class CurveCase:
    """A curve whose real locus is known before the program sees it."""

    spec: str
    budget: int
    punctures: Optional[list] = None         # punctured line
    roots: Optional[list] = None             # hyperelliptic: every real root, sorted
    lead_sign: int = 1
    projective: bool = False
    f: Optional[Callable] = None             # exact evaluation of f at a rational
    markers: tuple = ()                      # (component index, x, branch, multiplicity)

    def argv(self) -> list[str]:
        out = ["curve", "--spec", self.spec, "--budget", str(self.budget)]
        if self.markers:
            out += ["--twist", "points:" + ",".join(
                f"({fmt_q(x)},{'+' if b > 0 else '-'})" + (f"*{m}" if m > 1 else "")
                for _, x, b, m in self.markers)]
        return out


def _line_components(punctures):
    ends = ["-inf"] + [fmt_q(p) for p in punctures] + ["+inf"]
    return [("interval", False, [(lo, hi)]) for lo, hi in zip(ends, ends[1:])]


def _hyper_components(roots, lead_sign, projective):
    """(kind, compact, arcs) per component, in the documented order: by the
    leftmost root an arc starts at, the left unbounded arc first.  Arc ends
    are "-inf", "+inf" or a root index."""
    k = len(roots)
    gap_sign = [lead_sign * (-1) ** (k - j) for j in range(k + 1)]
    has_infinity = projective and (k % 2 == 1 or lead_sign > 0)
    pieces = [(g - 1, "circle", True, [(g - 1, g)])
              for g in range(1, k) if gap_sign[g] > 0]
    left, right = ("-inf", 0), (k - 1, "+inf")
    if has_infinity and k % 2 == 0:
        pieces.append((-1, "circle", True, [left, right]))
    else:
        if gap_sign[0] > 0:
            closes = has_infinity and lead_sign < 0
            pieces.append((-1, "circle" if closes else "interval", closes, [left]))
        if gap_sign[k] > 0:
            closes = has_infinity and lead_sign > 0
            pieces.append((k - 1, "circle" if closes else "interval", closes, [right]))
    pieces.sort(key=lambda p: p[0])
    return [(kind, compact, arcs) for _, kind, compact, arcs in pieces]


def _on_arcs(case: CurveCase, arcs, x) -> bool:
    for lo, hi in arcs:
        above = lo == "-inf" or case.roots[lo].cmp_q(x) < 0
        below = hi == "+inf" or case.roots[hi].cmp_q(x) > 0
        if above and below:
            return True
    return False


def _check_end(case: CurveCase, got, want) -> Optional[str]:
    if isinstance(want, str):
        return None if got == want else f"arc end {got!r}, expected {want!r}"
    if not (isinstance(got, dict) and "root_between" in got):
        return f"arc end {got!r}, expected an enclosure of root {case.roots[want]!r}"
    lo, hi = (Fraction(v) for v in got["root_between"])
    inside = [i for i, r in enumerate(case.roots) if strictly_inside(r, lo, hi)]
    if inside != [want]:
        return f"enclosure ({lo}, {hi}) holds roots {inside}, expected only #{want}"
    return None


def check_curve(case: CurveCase, result) -> Optional[str]:
    code, out = result
    if code != 0:
        return f"exit code {code}"
    rep = json.loads(out)
    if rep.get("curve") != case.spec:
        return "curve field differs from the spec"
    line = case.punctures is not None
    comps = (_line_components(case.punctures) if line
             else _hyper_components(case.roots, case.lead_sign, case.projective))
    got = rep["components"]
    if len(got) != len(comps):
        return f"{len(got)} components, expected {len(comps)}"
    bits = [0] * len(comps)
    for idx, _, _, mult in case.markers:
        if comps[idx][0] == "circle":
            bits[idx] = (bits[idx] + mult) % 2
    for i, (g, (kind, compact, arcs)) in enumerate(zip(got, comps)):
        if (g["id"], g["kind"], g["compact"], g["twist"]) != (f"c{i}", kind, compact, bits[i]):
            return f"component {i}: {g['id']} {g['kind']} compact={g['compact']} twist={g['twist']}"
        if len(g["x_range"]) != len(arcs):
            return f"component {i}: {len(g['x_range'])} arcs, expected {len(arcs)}"
        for (glo, ghi), (lo, hi) in zip(g["x_range"], arcs):
            for gend, end in ((glo, lo), (ghi, hi)):
                if line:
                    problem = None if gend == end else f"arc end {gend!r}, expected {end!r}"
                else:
                    problem = _check_end(case, gend, end)
                if problem:
                    return f"component {i}: {problem}"
    circles = [i for i, c in enumerate(comps) if c[0] == "circle"]
    untwisted = sum(1 for i in circles if not bits[i])
    want_h0 = {"rank": len(comps) - len(circles) + untwisted, "torsion": []}
    want_h1 = {"rank": untwisted, "torsion": [2] * (len(circles) - untwisted)}
    if rep["h0"] != want_h0 or rep["h1"] != want_h1:
        return f"h0 {rep['h0']} h1 {rep['h1']}, expected {want_h0} {want_h1}"
    if line:
        problem = _check_gamma0(rep.get("gamma0"), len(comps))
        if problem:
            return problem
    elif "gamma0" in rep:
        return "gamma0 reported for a hyperelliptic curve"
    problem = _check_witnesses(case, rep["gamma_top"], comps, circles, bits)
    if problem:
        return problem
    want_bounds = {"d": 1, "c": 0, "proven": 2, "conjectured": 2, "kernel": 16,
                   "sources": BOUND_SOURCES,
                   "flags": {"proper": case.projective, "real_nonempty": True,
                             "etale_vanishing": False}}
    if rep["bounds"] != want_bounds:
        return f"bounds {rep['bounds']}"
    return None


def _check_gamma0(g, m: int) -> Optional[str]:
    """The image of a punctured line with m components is the parity lattice
    Z(1,...,1) + 2Z^m, of index 2^(m-1): a basis of m vectors inside it whose
    determinant is +-2^(m-1) spans exactly that lattice."""
    if g is None:
        return "gamma0 missing"
    k = m - 1
    want_coker = {"order": 2 ** k, "exponent": 2 if k else 1}
    if g["coker"] != want_coker or g["knebusch_match"] is not True or g["bound_only"]:
        return f"gamma0 coker {g['coker']} match {g['knebusch_match']}"
    basis = g["image_basis"]
    if len(basis) != m or any(len(v) != m or len({x % 2 for x in v}) != 1 for v in basis):
        return "gamma0 basis is not m vectors of the parity lattice"
    if abs(det(basis)) != 2 ** k:
        return f"gamma0 basis determinant {det(basis)}, expected +-2^{k}"
    return None


def _check_witnesses(case: CurveCase, top, comps, circles, bits) -> Optional[str]:
    wits = top["witnesses"]
    if len(wits) != len(circles):
        return f"{len(wits)} witnesses for {len(circles)} circles"
    statuses = []
    for w, i in zip(wits, circles):
        arcs = comps[i][2]
        cid = f"c{i}"
        statuses.append(w["status"])
        if w["generator"] != cid:
            return f"witness for {w['generator']}, expected {cid}"
        rational_ends = [case.roots[e] for lo, hi in arcs for e in (lo, hi)
                         if not isinstance(e, str) and case.roots[e].rational is not None]
        if rational_ends and w["status"] != "exact":
            return f"{cid} holds a rational root but its witness is {w['status']}"
        if w["status"] == "failed":
            if w["point"] is not None or w["achieved"]:
                return f"{cid}: failed witness carries a point"
            continue
        value = {"exact": 1, "double_only": 2}.get(w["status"])
        if value is None:
            return f"{cid}: unknown witness status {w['status']!r}"
        want = {f"c{j}": 0 for j in circles}
        want[cid] = value % 2 if bits[i] else value
        if w["achieved"] != want or w["unit"] != "1":
            return f"{cid}: achieved {w['achieved']}, expected {want}"
        pt = w["point"]
        x = Fraction(pt["x"])
        if w["status"] == "exact":
            y = Fraction(pt["y"])
            if y == 0:
                if not any(r.rational == x for r in rational_ends):
                    return f"{cid}: branch point x={x} is not a root on this circle"
                continue
            if y * y != case.f(x):
                return f"{cid}: ({x}, {y}) is not on the curve"
        else:
            fx = case.f(x)
            if not pt.get("conjugate_pair") or fx <= 0 or is_square_q(fx):
                return f"{cid}: x={x} does not give a conjugate pair"
        if not _on_arcs(case, arcs, x):
            return f"{cid}: witness x={x} is off the circle"
    if all(s == "exact" for s in statuses):
        want_status = "certified"
    elif "failed" in statuses:
        want_status = "failed"
    else:
        want_status = "partial"
    if top["status"] != want_status:
        return f"gamma_top status {top['status']}, expected {want_status}"
    return None


def _root_factor(r: Fraction) -> str:
    if r == 0:
        return "x"
    return f"(x+{fmt_q(-r)})" if r < 0 else f"(x-{fmt_q(r)})"


def _signed(product: str, sign: int) -> str:
    return product if sign > 0 else f"-({product})"


def _rational_f(roots, sign):
    def f(x):
        out = Fraction(sign)
        for r in roots:
            out *= x - r
        return out
    return f


def _rational_case(rng, shape, degree: int, fractional: int, sign: int, projective: bool,
                   markers: int) -> CurveCase:
    """f = sign * prod (x - r_i), `fractional` of the roots non-integral.

    The root magnitudes come from `shape`, which depends on the request's
    place in the schedule and not on the seed; the seed picks the signs of the
    roots.  `rational_roots` walks the divisors of the leading and constant
    coefficients, so the magnitudes set its cost: drawing them this way keeps
    the work of a schedule slot the same from seed to seed."""
    pairs: set = set()
    while len(pairs) < degree:
        den = shape.randint(2, 6) if len(pairs) < fractional else 1
        num = shape.choice([n for n in range(1, 13) if den == 1 or n % den])
        if all(Fraction(num, den) != Fraction(*p) for p in pairs):
            pairs.add((num, den))
    roots = [Fraction(rng.choice((-1, 1)) * num, den) for num, den in sorted(pairs)]
    ordered = sorted(roots)
    spec = "hyperelliptic f=" + _signed("*".join(_root_factor(r) for r in ordered), sign)
    spec += " projective" if projective else ""
    case = CurveCase(spec, 50, roots=[Root(r) for r in ordered], lead_sign=sign,
                     projective=projective, f=_rational_f(ordered, sign))
    if markers:
        case.markers = _hyper_markers(rng, case, markers)
    return case


def _hyper_markers(rng, case: CurveCase, count: int) -> tuple:
    """Rational points strictly inside arcs of known components."""
    comps = _hyper_components(case.roots, case.lead_sign, case.projective)
    out = []
    for _ in range(count):
        idx = rng.randrange(len(comps))
        lo, hi = rng.choice(comps[idx][2])
        a = case.roots[lo].rational if lo != "-inf" else None
        b = case.roots[hi].rational if hi != "+inf" else None
        if a is None:
            x = b - Fraction(rng.randint(1, 12), rng.randint(1, 4))
        elif b is None:
            x = a + Fraction(rng.randint(1, 12), rng.randint(1, 4))
        else:
            x = a + (b - a) * Fraction(rng.randint(1, 6), 7)
        out.append((idx, x, rng.choice((-1, 1)), rng.choice((1, 1, 2, 3))))
    return tuple(out)


def _irrational_case(rng, squares: tuple, sign: int, projective: bool, budget: int) -> CurveCase:
    """f = +-prod ((x - c)^2 - s) with s not a square: every oval ends at
    irrational roots, so only the height search or a conjugate pair can
    witness it.  The slot fixes s: whether the conic (x - c)^2 + y^2 = s has
    rational points (s a sum of two squares) decides whether the search stops
    early or runs to its budget.  The seed draws the centre c."""
    ss = sorted(squares)
    c = Fraction(rng.randint(-30, 30), rng.randint(1, 3))
    shifted = "x" if c == 0 else f"({_root_factor(c)[1:-1]})"
    spec = "hyperelliptic f=" + _signed("*".join(f"({shifted}^2-{s})" for s in ss), sign)
    spec += " projective" if projective else ""
    roots = sorted([Root.sqrt(c, -1, s) for s in ss] + [Root.sqrt(c, 1, s) for s in ss],
                   key=Root.key)

    def f(x):
        out = Fraction(sign)
        for s in ss:
            out *= (x - c) ** 2 - s
        return out
    return CurveCase(spec, budget, roots=roots, lead_sign=sign, projective=projective, f=f)


def _line_case(rng, count: int, markers: int) -> CurveCase:
    pts: set = set()
    while len(pts) < count:
        pts.add(Fraction(rng.randint(-60, 60), rng.randint(1, 6)))
    ordered = sorted(pts)
    case = CurveCase("line punctures=" + ",".join(fmt_q(p) for p in ordered), 50,
                     punctures=ordered)
    if markers:
        ends = [ordered[0] - 2] + ordered + [ordered[-1] + 2]
        out = []
        for _ in range(markers):
            i = rng.randrange(len(ends) - 1)
            x = ends[i] + (ends[i + 1] - ends[i]) * Fraction(rng.randint(1, 4), 5)
            out.append((i, x, rng.choice((-1, 1)), rng.choice((1, 1, 2))))
        case.markers = tuple(out)
    return case


def _readme_cases() -> list[CurveCase]:
    """The command-line examples of the README, verbatim."""
    two = [Fraction(-2), Fraction(-1), Fraction(1), Fraction(2)]
    cubic = [Fraction(-1), Fraction(0), Fraction(1)]
    unit = [Fraction(-1), Fraction(1)]
    return [
        CurveCase("line punctures=0", 50, punctures=[Fraction(0)]),
        CurveCase("hyperelliptic f=-(x^2-1)*(x^2-4)", 50, roots=[Root(r) for r in two],
                  lead_sign=-1, f=_rational_f(two, -1)),
        CurveCase("hyperelliptic f=x^3-x projective", 50, roots=[Root(r) for r in cubic],
                  projective=True, f=_rational_f(cubic, 1)),
        CurveCase("hyperelliptic f=1-x^2", 50, roots=[Root(r) for r in unit], lead_sign=-1,
                  f=_rational_f(unit, -1), markers=((0, Fraction(0), 1, 1),)),
    ]


def _curve_request(ident: int, kind: str, case: CurveCase) -> Request:
    argv = case.argv()
    return Request(ident, kind, _cli_text(argv), _cli(argv),
                   lambda result: check_curve(case, result), _render_cli, DEADLINE_S[kind])


def _draw_curve(rng, ident, kind, size) -> Request:
    if kind == "line":
        case = _line_case(rng, size, 0)
    elif kind == "line_twist":
        case = _line_case(rng, size, rng.randint(1, 8))
    elif kind in ("hyper", "hyper_twist"):
        marks = rng.randint(1, 8) if kind == "hyper_twist" else 0
        case = _rational_case(rng, random.Random(f"curves:shape:{ident}"), *size, marks)
    else:
        case = _irrational_case(rng, *size, 50 if kind == "oval50" else 200)
    return _curve_request(ident, kind, case)


# (squares s, sign of f) of the budget-50 ovals in each cycle: one conic without
# rational points (3, 7, 11), one with (5, 10, 13), and two quartics.
OVAL50_SHAPES = (
    (((3,), -1), ((5,), -1), ((2, 7), 1), ((6, 11), -1)),
    (((7,), -1), ((10,), -1), ((3, 13), 1), ((2, 12), -1)),
    (((11,), -1), ((13,), -1), ((5, 6), 1), ((7, 10), -1)),
)


def _curve_slots() -> list:
    """Three cycles of 28 requests.  Sizes are stratified: every cycle holds
    each hyperelliptic degree 2-10 once and ten punctured lines, and three
    cycles hold every puncture count 1-30 once.  The sign of f and the
    projective flag are fixed per slot too, because they set how many circles
    the witness search visits."""
    def hyper(d, f, c):
        return d, f, 1 if (d + c) % 2 else -1, (d // 2 + c) % 2 == 0

    slots = []
    for c in range(3):
        slots += _spread([
            [("line", 1 + (3 * i + c) % 30) for i in range(10)],
            [("line_twist", 1 + (15 * i + 7 * c + 4) % 30) for i in range(2)],
            [("hyper", hyper(d, (d + c) % 3, c)) for d in range(2, 11)],
            [("hyper_twist", hyper(3 + 2 * i + c, (i + c) % 2, c + 1)) for i in range(2)],
            [("oval50", (squares, sign, (i + c) % 2 == 0))
             for i, (squares, sign) in enumerate(OVAL50_SHAPES[c])],
            [("oval200", (((3, 7, 11)[c],), -1, c % 2 == 0))],
        ])
    return slots


CURVE_SLOTS = _curve_slots()
CURVE_CYCLE = len(CURVE_SLOTS) // 3


def curves(seed: int) -> Iterator[Request]:
    prefix = [_curve_request(i, "readme", c) for i, c in enumerate(_readme_cases())]
    return _stream("curves", seed, CURVE_SLOTS, CURVE_CYCLE, _draw_curve, prefix)


# =============================================================================
# forms: `realcycle form` through cli.main, plus qform / mwk library requests
# =============================================================================

LINEAR_POOL = (Fraction(-2), Fraction(-1), Fraction(0), Fraction(1, 2), Fraction(1), Fraction(3))
QUADRATIC_POOL = (1, 2, 3)


@dataclass(frozen=True)
class Entry:
    """scalar * prod (t - a) * prod (t^2 + c), factors listed with repetition."""

    scalar: int
    linear: tuple = ()
    quadratic: tuple = ()

    def text(self) -> str:
        factors = [("t" if a == 0 else f"(t+{fmt_q(-a)})" if a < 0 else f"(t-{fmt_q(a)})")
                   for a in self.linear]
        factors += [f"(t^2+{c})" for c in self.quadratic]
        mag = abs(self.scalar)
        if not factors:
            return str(self.scalar)
        body = "*".join(([str(mag)] if mag != 1 else []) + factors)
        return f"-{body}" if self.scalar < 0 else body

    def coeffs(self) -> list:
        return poly_product([[-a, 1] for a in self.linear] + [[c, 0, 1] for c in self.quadratic],
                            Fraction(self.scalar))

    def sign_at(self, point) -> int:
        """Sign at "-inf", "+inf" or (base, side) with side +1 / -1."""
        s = 1 if self.scalar > 0 else -1
        for a in self.linear:
            if point == "+inf":
                continue
            if point == "-inf":
                s = -s
                continue
            base, side = point
            if base < a or (base == a and side < 0):
                s = -s
        return s

    def square_class(self):
        odd = lambda xs: tuple(sorted(x for x in set(xs) if xs.count(x) % 2))
        return squarefree_int(self.scalar), odd(self.linear), odd(self.quadratic)

    def neg(self) -> "Entry":
        return Entry(-self.scalar, self.linear, self.quadratic)

    def times(self, other: "Entry") -> "Entry":
        return Entry(self.scalar * other.scalar, tuple(sorted(self.linear + other.linear)),
                     tuple(sorted(self.quadratic + other.quadratic)))

    def ratfunc(self):
        return qform.RatFunc.coerce(UPoly.of(*self.coeffs()))


def _random_entry(rng) -> Entry:
    scalar = rng.choice((1, 1, 1, -1, -1, -1, 2, -2, 3, -3))
    linear = tuple(sorted(rng.sample(LINEAR_POOL, rng.randint(0, 2))))
    quadratic = tuple(sorted(rng.sample(QUADRATIC_POOL, rng.choice((0, 0, 1)))))
    return Entry(scalar, linear, quadratic)


def _form_entries(rng, kind) -> list[Entry]:
    if kind == "form_pfister":
        # <1, -a, -b, ab>: in I^2, but no hyperbolic pairing certifies it
        a, b = _random_entry(rng), _random_entry(rng)
        return [Entry(1), a.neg(), b.neg(), a.times(b)]
    if kind == "form_hyperbolic":
        phi = [_random_entry(rng) for _ in range(rng.randint(1, 2))]
        out = phi + [e.neg() for e in phi]
        rng.shuffle(out)
        return out
    return [_random_entry(rng) for _ in range(rng.randint(1, 4))]


def _signature(entries, point) -> int:
    return sum(e.sign_at(point) for e in entries)


def check_form(entries: list[Entry], result) -> Optional[str]:
    code, out = result
    if code != 0:
        return f"exit code {code}"
    rep = json.loads(out)["form"]
    want_entries = [render_poly(e.coeffs(), "t") for e in entries]
    if rep["entries"] != want_entries or rep["rank"] != len(entries):
        return f"entries {rep['entries']}, expected {want_entries}"
    n = len(entries)
    sign = (-1) ** (n * (n - 1) // 2)
    total = Entry(1)
    for e in entries:
        total = total.times(e)
    sign *= 1 if total.scalar > 0 else -1
    _, odd_lin, odd_quad = total.square_class()
    scalar = squarefree_int(sign * abs(total.scalar))
    want_disc = render_poly(Entry(scalar, odd_lin, odd_quad).coeffs(), "t")
    if rep["discriminant"] != want_disc:
        return f"discriminant {rep['discriminant']!r}, expected {want_disc!r}"
    roots = sorted({a for e in entries for a in e.linear})
    panel = rep["signatures"]
    labels = [p["at"] for p in panel]
    if labels[0] != "-inf" or labels[-1] != "+inf":
        return f"ordering panel {labels}"
    inner = labels[1:-1]
    if len(inner) != max(1, len(roots) + 1) or not all(
            s.startswith("t=") and s.endswith("+") for s in inner):
        return f"ordering panel {labels} for roots {roots}"
    samples = [Fraction(s[2:-1]) for s in inner]
    if roots:
        bounds = [None] + roots + [None]
        for s, lo, hi in zip(samples, bounds, bounds[1:]):
            if (lo is not None and s <= lo) or (hi is not None and s >= hi):
                return f"sample {s} does not separate the roots {roots}"
    points = ["-inf"] + [(s, 1) for s in samples] + ["+inf"]
    sigs = [_signature(entries, p) for p in points]
    if [p["value"] for p in panel] != sigs:
        return f"signatures {[p['value'] for p in panel]}, expected {sigs}"
    # I/I^2 is F*/F*^2 through the signed discriminant, so a form of even rank
    # lies in I^2 exactly when that discriminant is trivial.  Yes needs a
    # certificate, so "unknown" is also correct where the truth is yes.
    in_i = n % 2 == 0
    allowed = {"1": {"yes"} if in_i else {"no"},
               "2": {"yes", "unknown"} if in_i and want_disc == "1" else {"no"}}
    got = rep["fundamental_power"]
    if set(got) != set(allowed) or any(got[k] not in allowed[k] for k in allowed):
        return f"fundamental_power {got}, allowed {allowed}"
    return None


def _random_point(rng):
    roll = rng.random()
    if roll < 0.1:
        return "-inf"
    if roll < 0.2:
        return "+inf"
    base = rng.choice(LINEAR_POOL) if roll < 0.6 else Fraction(rng.randint(-9, 9), rng.randint(1, 6))
    return base, rng.choice((-1, 1))


def _ordering(point):
    if point == "-inf":
        return qform.Ordering.at_neg_inf()
    if point == "+inf":
        return qform.Ordering.at_pos_inf()
    base, side = point
    return qform.Ordering.above(base) if side > 0 else qform.Ordering.below(base)


def _point_text(point) -> str:
    return point if isinstance(point, str) else f"{fmt_q(point[0])}{'+' if point[1] > 0 else '-'}"


def _form_text(entries) -> str:
    return "<" + ",".join(e.text() for e in entries) + ">"


def _doubling_request(rng, ident, kind) -> Request:
    entries = [_random_entry(rng) for _ in range(rng.randint(1, 4))]
    points = [_random_point(rng) for _ in range(10)]

    def call():
        phi = qform.DiagForm.make(qform.RATFUNC, [e.ratfunc() for e in entries])
        doubled = qform.mult_by_pfister_minus_one(phi)
        return [qform.signature(doubled, _ordering(p)) for p in points]

    want = [2 * _signature(entries, p) for p in points]
    text = (f"signature of {_form_text(entries)} x <1,1> at "
            + " ".join(_point_text(p) for p in points))
    return Request(ident, kind, text, call,
                   lambda got: None if got == want else f"signatures {got}, expected {want}",
                   _render_repr)


EQUAL, DISTINCT, INDIST = "equal", "distinct", "indistinguishable"


def _mwk_request(rng, ident, kind) -> Request:
    """mwk requests whose truth is known by construction.  Each carries the set
    of answers that are correct: a definite answer must be true, and
    `indistinguishable` is allowed only where the invariants given to
    `compare` cannot decide (the Hilbert-symbol pairs over Q)."""
    points = [_random_point(rng) for _ in range(6)]
    ctx = qform.RATFUNC
    if kind == "mwk_identity":
        a = _random_entry(rng)
        q = Fraction(rng.choice((-1, 1)) * rng.randint(1, 60), rng.randint(1, 12))

        def call():
            orderings = [_ordering(p) for p in points]
            return (mwk.gw_identity_check(ctx, a.ratfunc(), orderings),
                    mwk.gw_identity_check(qform.RATIONALS, q))
        text = f"gw_identity_check <{a.text()}> at {[_point_text(p) for p in points]}; <{q}> over Q"
        return Request(ident, kind, text, call,
                       lambda got: None if got == (True, True) else f"identity check {got}",
                       _render_repr)
    if kind == "mwk_eta":
        a = _random_entry(rng)

        def call():
            lhs = mwk.eta_mul(mwk.symbol(ctx, a.ratfunc()))
            rhs = mwk.add(mwk.gw_unit(ctx, a.ratfunc()), mwk.integer(ctx, -1))
            return mwk.compare(lhs, rhs, [_ordering(p) for p in points]).value
        text = f"compare eta*[{a.text()}] with <{a.text()}> - 1"
        allowed = {EQUAL}
    elif kind == "mwk_product":
        # Either the same product rebuilt (equal), or a second pair whose
        # Pfister form <<a,b>> has another signature at a sampled ordering
        # (distinct); pairs that agree at every sampled ordering are redrawn,
        # since their truth is not known here.
        def pf_sig(u, v, p):
            return (1 - u.sign_at(p)) * (1 - v.sign_at(p))

        a, b = _random_entry(rng), _random_entry(rng)
        rebuilt = rng.random() < 0.5
        c, d = a, b
        while not rebuilt and all(pf_sig(a, b, p) == pf_sig(c, d, p) for p in points):
            c, d = _random_entry(rng), _random_entry(rng)

        def call():
            x = mwk.product(mwk.symbol(ctx, a.ratfunc()), mwk.symbol(ctx, b.ratfunc()))
            y = mwk.product(mwk.symbol(ctx, c.ratfunc()), mwk.symbol(ctx, d.ratfunc()))
            return mwk.compare(x, y, [_ordering(p) for p in points]).value
        text = f"compare [{a.text()}][{b.text()}] with [{c.text()}][{d.text()}]"
        allowed = {EQUAL} if rebuilt else {DISTINCT}
    elif kind == "mwk_symbols":
        a = _random_entry(rng)
        b = a
        while b == a:
            b = _random_entry(rng)

        def call():
            return mwk.compare(mwk.symbol(ctx, a.ratfunc()), mwk.symbol(ctx, b.ratfunc()),
                               [_ordering(p) for p in points]).value
        text = f"compare [{a.text()}] with [{b.text()}]"
        allowed = {DISTINCT}
    else:
        a, b, isometric = _hasse_pair(rng)
        q = qform.RATIONALS

        def call():
            x = mwk.add(mwk.gw_unit(q, a), mwk.gw_unit(q, b))
            y = mwk.add(mwk.gw_unit(q, 1), mwk.gw_unit(q, a * b))
            return mwk.compare(x, y).value
        text = f"compare <{a},{b}> with <1,{a * b}> over Q"
        allowed = {EQUAL, INDIST} if isometric else {DISTINCT, INDIST}
    return Request(ident, kind, text, call,
                   lambda got: None if got in allowed else f"answer {got}, allowed {sorted(allowed)}",
                   _render_repr)


def _hasse_pair(rng) -> tuple[Fraction, Fraction, bool]:
    """(a, b, isometric) for <a,b> against <1,ab> over Q.

    Isometric: a = u^2 - b v^2 is a norm from Q(sqrt b), so (a, b) = 1.
    Not isometric: b = p*m and a a non-residue unit at the odd prime p, so the
    Hilbert symbol (a, b)_p is the Legendre symbol (a|p) = -1."""
    if rng.random() < 0.5:
        while True:
            b = Fraction(rng.choice((-1, 1)) * rng.randint(2, 30))
            a = Fraction(rng.randint(-9, 9), rng.randint(1, 4)) ** 2 - b * Fraction(rng.randint(1, 9), rng.randint(1, 4)) ** 2
            if a != 0:
                return a, b, True
    p = rng.choice((3, 5, 7, 11, 13))
    residues = {x * x % p for x in range(1, p)}
    r = rng.choice([x for x in range(1, p) if x not in residues])
    w = rng.choice([x for x in range(1, 8) if x % p])
    m = rng.choice([x for x in range(-9, 10) if x and x % p])
    a = Fraction(r * w * w + p * rng.randint(0, 3) * w * w)
    return a, Fraction(p * m), False


def _draw_form(rng, ident, kind, size) -> Request:
    if kind.startswith("form_"):
        entries = _form_entries(rng, kind)
        argv = ["form", _form_text(entries)]
        req = Request(ident, kind, _cli_text(argv), _cli(argv),
                      lambda result: check_form(entries, result), _render_cli)
    elif kind == "doubling":
        req = _doubling_request(rng, ident, kind)
    else:
        req = _mwk_request(rng, ident, kind)
    req.deadline = DEADLINE_S["forms"]
    return req


FORM_SLOTS = [(kind, None) for kind in (
    "form_random", "doubling", "mwk_identity", "form_pfister", "mwk_hasse", "form_random",
    "mwk_product", "doubling", "form_hyperbolic", "mwk_eta", "form_random", "mwk_symbols",
    "doubling", "mwk_hasse", "form_random", "mwk_product",
)]


def forms(seed: int) -> Iterator[Request]:
    return _stream("forms", seed, FORM_SLOTS, len(FORM_SLOTS), _draw_form)


# =============================================================================
# lattices: abgrp / cycleclass library calls
# =============================================================================

def _random_presentation(rng, g: int, w: int):
    rows = [[rng.randint(-8, 8) for _ in range(w)] for _ in range(g)]
    return g, rows


def _group(g, rows):
    return abgrp.FgAbGroup(tuple(f"g{i}" for i in range(g)), tuple(tuple(r) for r in rows))


def _invariants_request(rng, ident, kind, size) -> Request:
    g, rows = _random_presentation(rng, *size)

    def call():
        grp = _group(g, rows)
        return (abgrp.free_rank(grp), abgrp.invariant_factors(grp),
                abgrp.order_of(grp), abgrp.exponent(grp))

    free, torsion = presentation_invariants(rows, g)
    order = None
    if not free:
        order = 1
        for d in torsion:
            order *= d
    want = (free, torsion, order, 0 if free else (torsion[-1] if torsion else 1))
    return Request(ident, kind, f"invariants of Z^{g} / columns of {rows}", call,
                   lambda got: None if got == want else f"got {got}, expected {want}",
                   _render_repr)


def _maps_request(rng, ident, kind, size) -> Request:
    """Image, cokernel and kernel of multiplication by e on G = Z^f + sum Z/d:
    eG = Z^f + sum Z/(d/(d,e)),  G/eG = (Z/e)^f + sum Z/(d,e),  G[e] = sum Z/(d,e)."""
    g, rows = _random_presentation(rng, *size)
    e = rng.randint(2, 6)

    def call():
        grp = _group(g, rows)
        mul = abgrp.GroupMap.scalar(grp, e)
        out = []
        for h in (abgrp.image_presentation(mul), abgrp.cokernel_presentation(mul),
                  abgrp.kernel_presentation(mul)[0]):
            out.append((abgrp.free_rank(h), tuple(abgrp.invariant_factors(h))))
        return tuple(out)

    free, torsion = presentation_invariants(rows, g)
    want = (cyclic_invariants([0] * free + [d // gcd(d, e) for d in torsion]),
            cyclic_invariants([e] * free + [gcd(d, e) for d in torsion]),
            cyclic_invariants([gcd(d, e) for d in torsion]))
    return Request(ident, kind, f"multiplication by {e} on Z^{g} / columns of {rows}", call,
                   lambda got: None if got == want else f"got {got}, expected {want}",
                   _render_repr)


def _ladder_request(rng, ident, kind, size) -> Request:
    """The Bockstein ladder of any component/twist pattern is exact.  With
    the first doubling replaced by multiplication by 4 it fails at node 1,
    unless H^0 is zero and the two maps agree."""
    intervals, circles = size
    kinds = ["interval"] * intervals + ["circle"] * circles
    rng.shuffle(kinds)
    bits = {f"c{i}": (rng.randint(0, 1) if k == "circle" else 0) for i, k in enumerate(kinds)}
    broken = rng.random() < 0.3

    def call():
        comps = [realcurve.RealComponent(f"c{i}", k, k == "circle", ()) for i, k in enumerate(kinds)]
        maps = realcurve.bockstein_ladder(comps, bits)
        if broken:
            maps[1] = abgrp.GroupMap.scalar(maps[1].source, 4)
        rep = abgrp.check_exact(maps)
        return rep.ok, rep.failed_at

    h0 = intervals + sum(1 for i, k in enumerate(kinds) if k == "circle" and not bits[f"c{i}"])
    want = (False, 1) if broken and h0 else (True, None)
    text = f"check_exact on the {'broken ' if broken else ''}ladder of {kinds} twisted {bits}"
    return Request(ident, kind, text, call,
                   lambda got: None if got == want else f"got {got}, expected {want}",
                   _render_repr)


def _gamma_request(rng, ident, kind, count) -> Request:
    pts: set = set()
    while len(pts) < count:
        pts.add(Fraction(rng.randint(-80, 80), rng.randint(1, 6)))
    ordered = sorted(pts)
    m = len(ordered) + 1

    def call():
        curve = realcurve.PuncturedLine.make(ordered)
        image = cycleclass.gamma0_image(curve, realcurve.real_components(curve))
        return (abgrp.lattices_equal(image, cycleclass.knebusch_gamma(m)),
                abgrp.lattice_basis(image), cycleclass.coker_report(image))

    def check(got):
        equal, basis, coker = got
        if equal is not True or coker != (2 ** (m - 1), 2):
            return f"lattices_equal {equal}, coker {coker}"
        return _check_gamma0({"coker": {"order": 2 ** (m - 1), "exponent": 2},
                              "knebusch_match": True, "bound_only": False,
                              "image_basis": basis}, m)
    return Request(ident, kind, f"gamma0 image vs parity lattice, punctures {[fmt_q(p) for p in ordered]}",
                   call, check, _render_repr)


# Dense sizes and map shapes are those on which Smith normal form never blew up
# in probes of 300 inputs each.  From 6x6 on, and for maps on presentations
# with at least two generators and two relations, the entry growth of
# `smith_normal_form` sends a few inputs in a hundred past any deadline; they
# are left out so that every request of a run is answered.
DENSE_SIZES = (3, 4, 5)
MAP_SHAPES = ((1, 2), (1, 3), (1, 4), (2, 1), (3, 1), (4, 1))


def check_snf(m, snf) -> Optional[str]:
    n = len(m)
    d, u, v = snf.d, snf.u, snf.v
    if matmul(matmul(u, m), v) != d:
        return "U*M*V != D"
    if abs(det(u)) != 1 or abs(det(v)) != 1:
        return "a transform is not unimodular"
    if any(d[i][j] for i in range(n) for j in range(n) if i != j):
        return "D is not diagonal"
    diag = [d[i][i] for i in range(n)]
    if list(snf.diagonal) != diag or any(x < 0 for x in diag):
        return f"diagonal {snf.diagonal}"
    for a, b in zip(diag, diag[1:]):
        if (a == 0 and b != 0) or (a and b % a):
            return f"divisibility chain broken at {a}, {b}"
    dm = det(m)
    if dm:
        prod = 1
        for x in diag:
            prod *= x
        if prod != abs(dm):
            return f"product of invariant factors {prod} != |det M| = {abs(dm)}"
    elif sum(1 for x in diag if x) != rank(m):
        return "rank of D differs from the rank of M"
    return None


def _dense_request(rng, ident, kind, n) -> Request:
    m = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
    return Request(ident, kind, f"smith_normal_form of {n}x{n} {m}",
                   lambda: abgrp.smith_normal_form(m), lambda snf: check_snf(m, snf),
                   lambda snf: _canonical([snf.d, snf.u, snf.v]).encode())


_LATTICE_DRAWS = {
    "invariants": _invariants_request,
    "maps": _maps_request,
    "ladder": _ladder_request,
    "gamma": _gamma_request,
    "dense": _dense_request,
}


def _draw_lattice(rng, ident, kind, size) -> Request:
    req = _LATTICE_DRAWS[kind](rng, ident, kind, size)
    req.deadline = DEADLINE_S[kind]
    return req


def _lattice_slots() -> list:
    """Eight cycles of 40 requests.  The cycles walk through the presentation
    shapes (generators 1-4 by relations 1-4; the 1x1 shape has too few
    inputs to stay distinct), the map shapes and the ladder shapes (intervals
    and at least two circles); every cycle runs each dense size once, and
    forty gamma requests cover every puncture count 1-40 once.
    Invariant requests are more than half of each cycle, so the median
    latency is the cost of a small presentation."""
    shapes = [(g, w) for g in range(1, 5) for w in range(1, 5) if g * w > 1]
    ladders = [(i, c) for i in range(4) for c in range(2, 6) if i + c >= 4]
    slots = []
    for c in range(8):
        slots += _spread([
            [("invariants", shapes[(3 * c + i) % len(shapes)]) for i in range(22)],
            [("maps", MAP_SHAPES[(c + i) % len(MAP_SHAPES)]) for i in range(8)],
            [("ladder", ladders[(3 * c + i) % len(ladders)]) for i in range(2)],
            [("gamma", 1 + (5 * c + 8 * i) % 40) for i in range(5)],
            [("dense", n) for n in DENSE_SIZES],
        ])
    return slots


LATTICE_SLOTS = _lattice_slots()
LATTICE_CYCLE = len(LATTICE_SLOTS) // 8


def lattices(seed: int) -> Iterator[Request]:
    return _stream("lattices", seed, LATTICE_SLOTS, LATTICE_CYCLE, _draw_lattice)


WORKLOADS = {"curves": curves, "forms": forms, "lattices": lattices}

# Request time of one schedule cycle at the reference speed of run.py, in
# seconds.  A run of --seconds holds round(seconds / CYCLE_S) whole cycles, so
# every run of a workload answers the same requests whatever the machine's
# speed, and takes about --seconds of request time at the reference speed.
CYCLE_S = {"curves": 5.8, "forms": 0.115, "lattices": 1.3}
