"""Command-line front end.

Subcommands:
  curve  - parse a curve spec, run the full pipeline, print a JSON report
  bound  - print the proved/conjectured exponent bounds for (d, c)
  form   - one-shot invariant evaluation of a diagonal form over Q(t)
  suite  - run the curated verification corpus

All numbers in reports are exact: integers stay integers, rationals are
rendered as "p/q" strings.  Reports contain no timestamps; identical inputs
produce byte-identical output.

Exit codes: 0 success, 1 suite failure, 2 parse error, 3 precondition
violation, 4 internal error, 141 stdout closed by its reader.

The module imports only ``numeric``, ``qform`` and ``errors``, which the spec
grammar and ``form`` need.  ``parse_curve_spec`` and ``parse_twist_spec``
import ``realcurve``, ``cmd_curve`` imports ``realcurve``, ``abgrp`` and
``cycleclass``, ``cmd_bound`` imports ``cycleclass``, and ``cmd_suite``
imports the corpus (and with it ``mwk``); the report helpers import nothing.
So building the parser or answering ``form`` loads none of them.
"""

from __future__ import annotations

import argparse
import os
import sys
from fractions import Fraction
from json.encoder import encode_basestring_ascii
from typing import TYPE_CHECKING

from . import qform
from .errors import (
    MarkerOffComponent,
    NotSquareFree,
    PointOffCurve,
    RealCycleError,
    SpecParseError,
    UnsupportedClosure,
    ZeroEntry,
)
from .numeric import UPoly, coprime_refinement, gap_samples, isolate_coprime_roots
from .qform import RATFUNC, DiagForm, Ordering, RatFunc

if TYPE_CHECKING:
    from . import realcurve

PRECONDITION_ERRORS = (
    NotSquareFree, UnsupportedClosure, MarkerOffComponent, PointOffCurve, ZeroEntry,
)

# Caps on a power in a spec (exponent and degree), whose cost grows with the
# square of its degree, on the depth of parentheses and unary minus signs,
# which the parser follows by recursion, on the d and c of `bound`, so
# 2^(2(d+1)) prints, on the digits of a literal, below Python's int-to-string
# limit, and on the height budget of the rational-point search, whose cost
# grows with its square.
MAX_POWER = 1000
MAX_NESTING = 100
MAX_DIMENSION = 1000
MAX_DIGITS = 1000
MAX_BUDGET = 1000


def _digit_run(text: str, start: int) -> int:
    """End of the run of decimal digits (those int() reads) from ``start``."""
    end = start
    while end < len(text) and text[end].isdecimal():
        end += 1
    if end - start > MAX_DIGITS:
        raise SpecParseError(f"numbers are capped at {MAX_DIGITS} digits")
    return end


# --- literals and polynomial expressions ------------------------------------------

class _Tokens:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0
        self.depth = 0

    def enter(self):
        """One level deeper into parentheses or unary minus signs; the
        caller leaves it with ``depth -= 1``."""
        self.depth += 1
        if self.depth > MAX_NESTING:
            raise SpecParseError(
                f"parentheses and unary minus signs are nested at most {MAX_NESTING} deep")

    def peek(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1
        return self.text[self.pos] if self.pos < len(self.text) else None

    def take(self):
        ch = self.peek()
        if ch is not None:
            self.pos += 1
        return ch

    def expect(self, ch):
        if self.peek() != ch:
            raise SpecParseError(f"expected '{ch}' at position {self.pos} of {self.text!r}")
        self.pos += 1

    def integer(self) -> int:
        self.peek()
        start = self.pos
        self.pos = _digit_run(self.text, start)
        if self.pos == start:
            raise SpecParseError(f"expected a number at position {start} of {self.text!r}")
        return int(self.text[start:self.pos])

    def number(self) -> Fraction:
        value = self.integer()
        if self.peek() == "/":
            self.take()
            self.peek()
            dstart = self.pos
            self.pos = _digit_run(self.text, dstart)
            if self.pos == dstart:
                raise SpecParseError(f"expected a denominator at position {dstart} of {self.text!r}")
            denominator = int(self.text[dstart:self.pos])
            if denominator == 0:
                raise SpecParseError(f"zero denominator at position {dstart} of {self.text!r}")
            return Fraction(value, denominator)
        return Fraction(value)

    def rational(self) -> Fraction:
        """A number with an optional leading '-'."""
        if self.peek() == "-":
            self.take()
            return -self.number()
        return self.number()


def parse_poly(text: str, var: str) -> UPoly:
    """Recursive-descent parser for integer/rational polynomial expressions in
    one variable with + - * ^ and parentheses."""
    return _parse(text, var)[0]


def parse_entry(text: str) -> RatFunc:
    """A form entry, a polynomial in t, with the factors it was typed with:
    ``(t-1)^2*(t^2+3)`` has the bases t - 1 and t^2 + 3, and is not
    decomposed again.  A sum is one base."""
    poly, powers = _parse(text, "t")
    return RatFunc.make(poly) if poly.is_zero else RatFunc.from_powers(poly, powers)


# A parsed term is (p, powers): the polynomial p, and the pairs (b, e) of
# monic bases with p = lc(p) * prod b^e, as the term was typed.

def _parse(text: str, var: str):
    toks = _Tokens(text)
    term = _parse_sum(toks, var)
    if toks.peek() is not None:
        raise SpecParseError(f"trailing input at position {toks.pos} of {text!r}")
    return _printable(term[0]), term[1]


def _printable(poly: UPoly) -> UPoly:
    """poly, when the interpreter can print its numerators and denominator
    (sys.get_int_max_str_digits, where 0 means no limit); else SpecParseError."""
    limit = getattr(sys, "get_int_max_str_digits", int)()
    # below 2^(3 * limit) a number has fewer than limit + 1 digits
    if limit and any(abs(n).bit_length() > 3 * limit and abs(n) >= 10 ** limit
                     for n in poly.nums + (poly.den,)):
        raise SpecParseError(f"coefficients are capped at {limit} digits")
    return poly


def _parse_sum(toks, var):
    out = _parse_product(toks, var)
    if toks.peek() not in ("+", "-"):
        return out
    poly = out[0]
    while toks.peek() in ("+", "-"):
        op = toks.take()
        rhs = _parse_product(toks, var)[0]
        poly = poly + rhs if op == "+" else poly - rhs
    return poly, (((poly.monic(), 1),) if poly.degree > 0 else ())


def _parse_product(toks, var):
    poly, powers = _parse_unary(toks, var)
    while toks.peek() == "*":
        toks.take()
        rhs, more = _parse_unary(toks, var)
        poly, powers = _printable(poly * rhs), powers + more
    return poly, powers


def _parse_unary(toks, var):
    if toks.peek() == "-":
        toks.take()
        toks.enter()
        poly, powers = _parse_unary(toks, var)
        toks.depth -= 1
        return -poly, powers
    return _parse_power(toks, var)


def _parse_power(toks, var):
    base, powers = _parse_atom(toks, var)
    if toks.peek() == "^":
        toks.take()
        exp = toks.integer()
        if exp > MAX_POWER or base.degree * exp > MAX_POWER:
            raise SpecParseError(f"powers are capped at degree {MAX_POWER}")
        out = UPoly.one()
        for bit in bin(exp)[2:]:    # square-and-multiply, top bit first
            out = _printable(out * out * base if bit == "1" else out * out)
        return out, tuple((b, e * exp) for b, e in powers if exp)
    return base, powers


def _parse_atom(toks, var):
    ch = toks.peek()
    if ch == "(":
        toks.take()
        toks.enter()
        inner = _parse_sum(toks, var)
        toks.expect(")")
        toks.depth -= 1
        return inner
    if ch == var:
        toks.take()
        return UPoly.x(), ((UPoly.x(), 1),)
    if ch is None:
        raise SpecParseError(f"unexpected end of polynomial {toks.text!r}")
    if ch.isdecimal():
        return UPoly.of(toks.number()), ()
    raise SpecParseError(f"unexpected {ch!r} in polynomial {toks.text!r}")


# --- curve and twist specs ---------------------------------------------------------

def parse_curve_spec(text: str) -> realcurve.CurveModel:
    from . import realcurve

    words = text.strip().split(None, 1)
    if not words:
        raise SpecParseError("empty curve spec")
    head, rest = words[0], (words[1] if len(words) > 1 else "")
    if head == "line":
        if rest and not rest.startswith("punctures="):
            raise SpecParseError("line takes only punctures=a1,a2,...")
        toks = _Tokens(rest[len("punctures="):])
        return realcurve.PuncturedLine.make(_separated(toks, _Tokens.rational))
    if head == "projective-line":
        if rest:
            raise SpecParseError("projective-line takes no arguments")
        return realcurve.ProjectiveLine()
    if head == "hyperelliptic":
        projective = False
        if rest.endswith(" projective"):
            projective = True
            rest = rest[: -len(" projective")]
        elif rest == "projective" or not rest.startswith("f="):
            raise SpecParseError("hyperelliptic needs f=<poly in x> [projective]")
        f = parse_poly(rest[len("f="):], "x")
        return realcurve.Hyperelliptic(f, projective)
    raise SpecParseError(f"unknown curve kind {head!r}")


def _separated(toks, read) -> list:
    """read(toks) for each comma-separated element of the rest of ``toks``;
    none when only whitespace is left."""
    if toks.peek() is None:
        return []
    out = [read(toks)]
    while (sep := toks.take()) == ",":
        out.append(read(toks))
    if sep is not None:
        raise SpecParseError(f"expected ',' at position {toks.pos - 1} of {toks.text!r}")
    return out


def _twist_point(toks):
    """(x, branch, multiplicity) of one marker ``(x,+)`` or ``(x,-)``, then ``[*mult]``."""
    toks.expect("(")
    x = toks.rational()
    toks.expect(",")
    sign = toks.peek()
    if sign not in ("+", "-"):
        raise SpecParseError(f"expected '+' or '-' at position {toks.pos} of {toks.text!r}")
    toks.take()
    toks.expect(")")
    mult = 1
    if toks.peek() == "*":
        toks.take()
        mult = toks.integer()
    return x, (1 if sign == "+" else -1), mult


def parse_twist_spec(text: str) -> realcurve.TwistDivisor:
    """Grammar: points:(x0,branch)[*mult],(x1,branch),...  with branch + or -."""
    from . import realcurve

    if not text.startswith("points:"):
        raise SpecParseError("twist spec must start with 'points:'")
    toks = _Tokens(text[len("points:"):])
    markers = [realcurve.TwistMarker(x, branch, mult)
               for x, branch, mult in _separated(toks, _twist_point)]
    return realcurve.TwistDivisor(tuple(markers))


# --- JSON rendering ----------------------------------------------------------------

def render_json(value, indent: str = "\n") -> str:
    """json.dumps(value, indent=2) for dicts with str keys, lists, str, int,
    bool and None, nested at the line break and spaces ``indent``; TypeError
    on any other type.  Exact types, so a float or a Fraction never passes
    for an int or a bool.  A list of ints alone is rendered in one join."""
    kind = type(value)
    if kind is str:
        return encode_basestring_ascii(value)
    if kind is int:
        return int.__repr__(value)
    inner = indent + "  "
    if kind is list:
        if not value:
            return "[]"
        if type(value[0]) is int and set(map(type, value)) == {int}:    # a gamma0 basis row
            return "[" + inner + ("," + inner).join(map(int.__repr__, value)) + indent + "]"
        return "[" + ",".join(inner + render_json(v, inner) for v in value) + indent + "]"
    if kind is dict:    # encode_basestring_ascii raises TypeError on a key that is not a str
        if not value:
            return "{}"
        return "{" + ",".join(inner + encode_basestring_ascii(k) + ": " + render_json(v, inner)
                              for k, v in value.items()) + indent + "}"
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    raise TypeError(f"cannot render {kind.__name__} as JSON")


def jnum(value):
    if isinstance(value, Fraction):
        return int(value) if value.denominator == 1 else f"{value.numerator}/{value.denominator}"
    return value


def _component_json(comp, bits):
    return {
        "id": comp.id,
        "kind": comp.kind,
        "compact": comp.compact,
        "x_range": [[lo.describe(), hi.describe()] for lo, hi in comp.arcs],
        "twist": bits[comp.id],
    }


def _group_json(group):
    rank, torsion = group.normal_form
    return {"rank": rank, "torsion": list(torsion)}


def _bounds_json(report):
    return {
        "d": report.d,
        "c": report.c,
        "proven": report.proven_bound,
        "conjectured": report.conjectured_bound,
        "kernel": report.kernel_bound,
        "sources": list(report.sources),
        "flags": {
            "proper": report.proper,
            "real_nonempty": report.real_nonempty,
            "etale_vanishing": report.etale_vanishing,
        },
    }


def _witness_json(cert, rational_point):
    """A witness certificate as JSON; ``rational_point`` is
    ``cycleclass.RationalPoint``, which the caller has imported."""
    entry = {"generator": cert.generator, "status": cert.status, "point": None,
             "unit": None, "achieved": {k: v for k, v in sorted(cert.achieved.items())}}
    if cert.witness is not None:
        term = cert.witness.terms[0]
        pt = term.point
        if isinstance(pt, rational_point):
            entry["point"] = {"x": jnum(pt.x), "y": jnum(pt.y) if pt.y is not None else None}
        else:
            entry["point"] = {"x": jnum(pt.x), "conjugate_pair": True}
        entry["unit"] = " + ".join(t.unit.describe() for t in cert.witness.terms)
    return entry


# --- subcommands ---------------------------------------------------------------------

def cmd_curve(args) -> int:
    from . import abgrp, cycleclass, realcurve

    curve = parse_curve_spec(args.spec)
    components = realcurve.real_components(curve)
    divisor = realcurve.TwistDivisor.empty()
    if args.twist:
        divisor = parse_twist_spec(args.twist)
    bits = realcurve.twist_class(curve, divisor)
    coh = realcurve.twisted_cohomology(components, bits)

    report = {
        "curve": args.spec.strip(),
        "components": [_component_json(c, bits) for c in components],
        "h0": _group_json(coh.h0),
        "h1": _group_json(coh.h1),
    }

    if isinstance(curve, realcurve.PuncturedLine):
        # a punctured line has no circles, so its twist bits are all 0
        image = cycleclass.gamma0_image(curve)
        order, exp = cycleclass.coker_report(image)
        report["gamma0"] = {
            "image_basis": abgrp.lattice_basis(image),
            "coker": {"order": order if order is not None else "infinite",
                      "exponent": exp},
            # a line's image is the parity lattice by construction; the suite
            # and the tests check it against the evaluated signs of its units
            "knebusch_match": True,
            "bound_only": False,
        }

    certs = cycleclass.gamma_top_witness_search(curve, bits, args.budget)
    if not components:
        status = "vacuous"
    elif all(c.status == cycleclass.STATUS_EXACT for c in certs):
        status = "certified"
    elif any(c.status == cycleclass.STATUS_FAILED for c in certs):
        status = "failed"
    else:
        status = "partial"
    witnesses = [_witness_json(c, cycleclass.RationalPoint) for c in certs]
    report["gamma_top"] = {"status": status, "witnesses": witnesses}

    proper = isinstance(curve, realcurve.ProjectiveLine) or (
        isinstance(curve, realcurve.Hyperelliptic) and curve.projective)
    oracle = cycleclass.exponent_oracle(1, 0, proper=proper,
                                        real_nonempty=bool(components))
    report["bounds"] = _bounds_json(oracle)
    print(render_json(report))
    return 0


def cmd_bound(args) -> int:
    from . import cycleclass

    report = cycleclass.exponent_oracle(args.d, args.c, proper=args.proper,
                                        real_nonempty=args.real_nonempty,
                                        etale_vanishing=args.etale_vanishing)
    print(render_json({"bounds": _bounds_json(report)}))
    return 0


def _ordering_panel(entries):
    """One ordering in each gap between the real roots of every numerator and
    denominator, and at both ends, each with the signature of the diagonal
    form on the entries there: a list of (label, ordering, signature).

    The entries' factors refine into a coprime basis B, and an entry's sign
    is that of its leading coefficient times the signs of the elements of B
    that divide it to an odd power.  A monic element of B is negative exactly
    where an odd number of its roots lie above, so the signs of B in each gap
    come from the order of B's isolating intervals, and at either end they
    are those of the nearest gap: one sign table, and no evaluation."""
    bases = list(dict.fromkeys(b for e in entries for b, _ in e.factors))
    index = {b: i for i, b in enumerate(bases)}
    refined = coprime_refinement(bases)
    # bit j stands for the j-th element of B; an input base is the product
    # of the elements whose bits it holds
    bits = [0] * len(bases)
    for j, (_, owners) in enumerate(refined):
        for i in owners:
            bits[i] |= 1 << j
    odd = []
    for e in entries:
        mask = 0
        for b, k in e.factors:
            if k % 2:
                mask ^= bits[index[b]]
        odd.append((1 if e.num.nums[-1] > 0 else -1, mask))
    basis = [c for c, _ in refined]
    bit = {c: 1 << j for j, c in enumerate(basis)}
    ivs = isolate_coprime_roots(basis)
    # the elements of B negative in each gap, from the top gap down
    negative = [0]
    for iv in reversed(ivs):
        negative.append(negative[-1] ^ bit[iv.poly])
    negative.reverse()

    def value(neg: int) -> int:
        return sum(-s if (m & neg).bit_count() % 2 else s for s, m in odd)

    return ([("-inf", Ordering.at_neg_inf(), value(negative[0]))]
            + [(f"t={s}+", Ordering.above(s), value(n))
               for s, n in zip(gap_samples(ivs), negative)]
            + [("+inf", Ordering.at_pos_inf(), value(0))])


def cmd_form(args) -> int:
    text = args.form.strip()
    if not (text.startswith("<") and text.endswith(">")):
        raise SpecParseError("form syntax is <e1,e2,...>")
    form = DiagForm(RATFUNC, tuple(parse_entry(chunk) for chunk in text[1:-1].split(",")))
    panel = _ordering_panel(form.entries)
    signatures = [{"at": label, "value": value} for label, _, value in panel]
    disc = qform.discriminant(form)
    # n <= 2 is decided by rank and discriminant, with no ordering sampled
    membership = {str(n): qform.in_fundamental_power(form, n).value for n in (1, 2)}
    report = {
        "form": {
            "entries": [e.to_str() for e in form.entries],
            "rank": form.dim,
            "discriminant": disc.to_str(),
            "signatures": signatures,
            "fundamental_power": membership,
        }
    }
    print(render_json(report))
    return 0


def cmd_suite(args) -> int:
    from .suite import run_suite   # only `realcycle suite` loads the corpus

    rows = run_suite(args.filter)
    if not rows:
        print(f"no check id contains {args.filter!r}", file=sys.stderr)
        return 2
    width = max(len(r.ident) for r in rows)
    for row in rows:
        mark = "PASS" if row.ok else "FAIL"
        print(f"{mark}  {row.ident:<{width}}  {row.label}")
        if not row.ok:
            print(f"      -> {row.detail}")
    failed = sum(1 for r in rows if not r.ok)
    print(f"{len(rows) - failed}/{len(rows)} checks passed")
    return 1 if failed else 0


def _bounded_int(low: int, high: int | None = None):
    """argparse type for an integer in low..high (no upper end when high is None)."""
    wanted = f"an integer in {low}..{high}" if high is not None else f"an integer >= {low}"

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
        if value < low or (high is not None and value > high):
            raise argparse.ArgumentTypeError(f"must be {wanted}, got {value}")
        return value
    return parse


_budget = _bounded_int(1, MAX_BUDGET)
_dimension = _bounded_int(0, MAX_DIMENSION)


def _default_budget() -> int:
    """RC_SEARCH_BUDGET when it is an integer in 1..MAX_BUDGET, else 50."""
    try:
        return _budget(os.environ.get("RC_SEARCH_BUDGET", "50"))
    except argparse.ArgumentTypeError:
        return 50


def build_parser() -> argparse.ArgumentParser:
    """The parser with every subcommand."""
    parser = argparse.ArgumentParser(prog="realcycle",
                                     description="quadratic forms and real cycle classes of curves")
    sub = parser.add_subparsers(dest="command", required=True)
    p = sub.add_parser("curve", help="analyse a curve")
    p.add_argument("--spec", required=True,
                   help='e.g. "line punctures=0,1" or "hyperelliptic f=1-x^2 projective"')
    p.add_argument("--twist", help='divisor spec "points:(x0,+)[*mult],..."')
    p.add_argument("--budget", type=_budget, default=_default_budget(),
                   help=f"height budget for rational point search, 1..{MAX_BUDGET}")
    p.set_defaults(func=cmd_curve)
    p = sub.add_parser("bound", help="exponent bounds for (d, c)")
    p.add_argument("--d", type=_dimension, required=True, help=f"dimension, 0..{MAX_DIMENSION}")
    p.add_argument("--c", type=_dimension, required=True, help=f"codimension, 0..{MAX_DIMENSION}")
    p.add_argument("--proper", action="store_true")
    p.add_argument("--real-nonempty", dest="real_nonempty", action="store_true")
    p.add_argument("--etale-vanishing", dest="etale_vanishing", action="store_true")
    p.set_defaults(func=cmd_bound)
    p = sub.add_parser("form", help="invariants of a diagonal form over Q(t)")
    p.add_argument("form", help='syntax "<e1,e2,...>" with entries polynomials in t')
    p.set_defaults(func=cmd_form)
    p = sub.add_parser("suite", help="run the verification corpus")
    p.add_argument("--filter", help="only run checks whose id contains this substring")
    p.set_defaults(func=cmd_suite)
    return parser


CURVE_FLAGS = {"--spec", "--twist", "--budget"}


def _read_direct(argv: list[str]) -> argparse.Namespace | None:
    """The Namespace build_parser() returns for a well-formed ``form <form>``
    or ``curve`` with exact --spec/--twist/--budget pairs, each flag once and
    no value starting with '-', read with no parser built; None for any other
    argv, which argparse then reads."""
    if len(argv) == 2 and argv[0] == "form" and not argv[1].startswith("-"):
        return argparse.Namespace(command="form", form=argv[1], func=cmd_form)
    if not argv or argv[0] != "curve" or len(argv) % 2 == 0:
        return None
    pairs = dict(zip(argv[1::2], argv[2::2]))
    if (len(pairs) != len(argv) // 2 or "--spec" not in pairs or not pairs.keys() <= CURVE_FLAGS
            or any(v.startswith("-") for v in pairs.values())):
        return None
    try:
        budget = _budget(pairs["--budget"]) if "--budget" in pairs else _default_budget()
    except argparse.ArgumentTypeError:
        return None
    return argparse.Namespace(command="curve", spec=pairs["--spec"], twist=pairs.get("--twist"),
                              budget=budget, func=cmd_curve)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = _read_direct(argv)
    if args is None:
        args = build_parser().parse_args(argv)
    try:
        status = args.func(args)
        sys.stdout.flush()
        return status
    except BrokenPipeError:
        # the reader closed stdout: send what is still buffered to devnull, so
        # the interpreter's final flush stays quiet, and exit as SIGPIPE would
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except SpecParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 2
    except PRECONDITION_ERRORS as exc:
        print(f"precondition violated: {exc}", file=sys.stderr)
        return 3
    except RealCycleError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except Exception as exc:
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
