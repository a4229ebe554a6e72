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
violation.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction

from . import abgrp, cycleclass, qform, realcurve
from .errors import (
    MarkerOffComponent,
    NotSquareFree,
    PointOffCurve,
    RealCycleError,
    SpecParseError,
    UnsupportedClosure,
    ZeroEntry,
)
from .numeric import UPoly, gap_samples, isolate_real_roots
from .qform import RATFUNC, DiagForm, Ordering, RatFunc
from .suite import run_suite

PRECONDITION_ERRORS = (
    NotSquareFree, UnsupportedClosure, MarkerOffComponent, PointOffCurve, ZeroEntry,
)

# Caps on a power in a spec (exponent and degree), whose cost grows with the
# square of its degree, on the d and c of `bound`, so 2^(2(d+1)) prints, and
# on the digits of a literal, below Python's int-to-string limit.
MAX_POWER = 1000
MAX_DIMENSION = 1000
MAX_DIGITS = 1000


def _digit_run(text: str, start: int) -> int:
    """End of the run of digits that starts at ``start``."""
    end = start
    while end < len(text) and text[end].isdigit():
        end += 1
    if end - start > MAX_DIGITS:
        raise SpecParseError(f"numbers are capped at {MAX_DIGITS} digits")
    return end


# --- polynomial expressions -------------------------------------------------------

class _Tokens:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

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
        got = self.take()
        if got != ch:
            raise SpecParseError(f"expected '{ch}' at position {self.pos} of {self.text!r}")

    def number(self) -> Fraction:
        self.peek()
        start = self.pos
        self.pos = _digit_run(self.text, start)
        if self.pos == start:
            raise SpecParseError(f"expected a number at position {start} of {self.text!r}")
        value = int(self.text[start:self.pos])
        if self.peek() == "/":
            self.take()
            dstart = self.pos
            self.pos = _digit_run(self.text, dstart)
            if self.pos == dstart:
                raise SpecParseError(f"expected a denominator at position {dstart}")
            denominator = int(self.text[dstart:self.pos])
            if denominator == 0:
                raise SpecParseError(f"zero denominator at position {dstart} of {self.text!r}")
            return Fraction(value, denominator)
        return Fraction(value)


def parse_poly(text: str, var: str) -> UPoly:
    """Recursive-descent parser for integer/rational polynomial expressions in
    one variable with + - * ^ and parentheses."""
    toks = _Tokens(text)
    poly = _parse_sum(toks, var)
    if toks.peek() is not None:
        raise SpecParseError(f"trailing input at position {toks.pos} of {text!r}")
    return poly


def _parse_sum(toks, var):
    out = _parse_product(toks, var)
    while toks.peek() in ("+", "-"):
        op = toks.take()
        rhs = _parse_product(toks, var)
        out = out + rhs if op == "+" else out - rhs
    return out


def _parse_product(toks, var):
    out = _parse_unary(toks, var)
    while toks.peek() == "*":
        toks.take()
        out = out * _parse_unary(toks, var)
    return out


def _parse_unary(toks, var):
    if toks.peek() == "-":
        toks.take()
        return -_parse_unary(toks, var)
    return _parse_power(toks, var)


def _parse_power(toks, var):
    base = _parse_atom(toks, var)
    if toks.peek() == "^":
        toks.take()
        exp = toks.number()
        if exp.denominator != 1 or exp < 0:
            raise SpecParseError("exponents must be non-negative integers")
        if exp > MAX_POWER or base.degree * exp > MAX_POWER:
            raise SpecParseError(f"powers are capped at degree {MAX_POWER}")
        out = UPoly.one()
        for _ in range(int(exp)):
            out = out * base
        return out
    return base


def _parse_atom(toks, var):
    ch = toks.peek()
    if ch == "(":
        toks.take()
        inner = _parse_sum(toks, var)
        toks.expect(")")
        return inner
    if ch == var:
        toks.take()
        return UPoly.x()
    if ch is None:
        raise SpecParseError(f"unexpected end of polynomial {toks.text!r}")
    if ch.isdigit():
        return UPoly.constant(toks.number())
    raise SpecParseError(f"unexpected {ch!r} in polynomial {toks.text!r}")


# --- curve and twist specs ---------------------------------------------------------

def parse_curve_spec(text: str) -> realcurve.CurveModel:
    words = text.strip().split(None, 1)
    if not words:
        raise SpecParseError("empty curve spec")
    head, rest = words[0], (words[1] if len(words) > 1 else "")
    if head == "line":
        if not rest:
            return realcurve.PuncturedLine.make()
        if not rest.startswith("punctures="):
            raise SpecParseError("line takes only punctures=a1,a2,...")
        values = rest[len("punctures="):]
        punctures = [_parse_rational(v) for v in values.split(",") if v != ""]
        return realcurve.PuncturedLine.make(punctures)
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


def _parse_rational(text: str) -> Fraction:
    text = text.strip()
    neg = text.startswith("-")
    toks = _Tokens(text[1:] if neg else text)
    value = toks.number()
    if toks.peek() is not None:
        raise SpecParseError(f"bad rational literal {text!r}")
    return -value if neg else value


def parse_twist_spec(text: str, curve, components) -> realcurve.TwistDivisor:
    """Grammar: points:(x0,branch)[*mult],(x1,branch),...  with branch + or -."""
    if not text.startswith("points:"):
        raise SpecParseError("twist spec must start with 'points:'")
    body = text[len("points:"):]
    markers = []
    i = 0
    while i < len(body):
        if body[i] != "(":
            raise SpecParseError(f"expected '(' at position {i} of twist spec")
        close = body.find(")", i)
        if close < 0:
            raise SpecParseError("unbalanced parenthesis in twist spec")
        inner = body[i + 1:close]
        parts = inner.split(",")
        if len(parts) != 2 or parts[1] not in ("+", "-"):
            raise SpecParseError(f"bad twist point {inner!r}; want (x,+) or (x,-)")
        x = _parse_rational(parts[0])
        branch = 1 if parts[1] == "+" else -1
        i = close + 1
        mult = 1
        if i < len(body) and body[i] == "*":
            j = _digit_run(body, i + 1)
            if j == i + 1:
                raise SpecParseError("expected a multiplicity after '*'")
            mult = int(body[i + 1:j])
            i = j
        if i < len(body):
            if body[i] != ",":
                raise SpecParseError(f"expected ',' at position {i} of twist spec")
            i += 1
        comp = realcurve.component_containing(curve, components, x, branch)
        if comp is None:
            raise MarkerOffComponent(f"twist point x={x} is not on the real locus")
        markers.append(realcurve.TwistMarker(comp.id, x, branch, mult))
    return realcurve.TwistDivisor(tuple(markers))


# --- JSON rendering ----------------------------------------------------------------

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
    return {
        "rank": abgrp.free_rank(group),
        "torsion": list(abgrp.invariant_factors(group)),
    }


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


def _witness_json(cert):
    entry = {"generator": cert.generator, "status": cert.status, "point": None,
             "unit": None, "achieved": {k: v for k, v in sorted(cert.achieved.items())}}
    if cert.witness is not None:
        term = cert.witness.terms[0]
        pt = term.point
        if isinstance(pt, cycleclass.RationalPoint):
            entry["point"] = {"x": jnum(pt.x), "y": jnum(pt.y) if pt.y is not None else None}
        elif isinstance(pt, cycleclass.ConjugatePair):
            entry["point"] = {"x": jnum(pt.x), "conjugate_pair": True}
        else:
            entry["point"] = {"x": jnum(pt.x), "interval": True}
        entry["unit"] = " + ".join(t.unit.describe() for t in cert.witness.terms)
    return entry


# --- subcommands ---------------------------------------------------------------------

def cmd_curve(args) -> int:
    curve = parse_curve_spec(args.spec)
    components = realcurve.real_components(curve)
    divisor = realcurve.TwistDivisor.empty()
    if args.twist:
        divisor = parse_twist_spec(args.twist, curve, components)
    bits = realcurve.twist_class(curve, components, divisor)
    coh = realcurve.twisted_cohomology(components, bits)

    report = {
        "curve": args.spec.strip(),
        "components": [_component_json(c, bits) for c in components],
        "h0": _group_json(coh.h0),
        "h1": _group_json(coh.h1),
    }

    if isinstance(curve, realcurve.PuncturedLine):
        if any(bits.values()):
            report["gamma0"] = {"image_basis": None, "coker": None,
                                "knebusch_match": None, "bound_only": True}
        else:
            image = cycleclass.gamma0_image(curve, components)
            order, exp = cycleclass.coker_report(image)
            basis = abgrp.lattice_basis(image)
            gamma = cycleclass.knebusch_gamma(len(components))
            report["gamma0"] = {
                "image_basis": [[jnum(x) for x in row] for row in basis],
                "coker": {"order": order if order is not None else "infinite",
                          "exponent": exp},
                "knebusch_match": abgrp.lattices_equal(image, gamma),
                "bound_only": False,
            }

    certs = cycleclass.gamma_top_witness_search(curve, components, bits, args.budget)
    if not components:
        status = "vacuous"
    elif all(c.status == cycleclass.STATUS_EXACT for c in certs):
        status = "certified"
    elif any(c.status == cycleclass.STATUS_FAILED for c in certs):
        status = "failed"
    else:
        status = "partial"
    report["gamma_top"] = {"status": status, "witnesses": [_witness_json(c) for c in certs]}

    proper = isinstance(curve, realcurve.ProjectiveLine) or (
        isinstance(curve, realcurve.Hyperelliptic) and curve.projective)
    oracle = cycleclass.exponent_oracle(1, 0, proper=proper,
                                        real_nonempty=bool(components))
    report["bounds"] = _bounds_json(oracle)
    print(json.dumps(report, indent=2))
    return 0


def cmd_bound(args) -> int:
    report = cycleclass.exponent_oracle(args.d, args.c, proper=args.proper,
                                        real_nonempty=args.real_nonempty,
                                        etale_vanishing=args.etale_vanishing)
    print(json.dumps({"bounds": _bounds_json(report)}, indent=2))
    return 0


def _ordering_panel(entries):
    product = UPoly.one()
    for e in entries:
        product = product * e.num * e.den
    ivs = isolate_real_roots(product)
    return ([("-inf", Ordering.at_neg_inf())]
            + [(f"t={s}+", Ordering.above(s)) for s in gap_samples(ivs)]
            + [("+inf", Ordering.at_pos_inf())])


def cmd_form(args) -> int:
    text = args.form.strip()
    if not (text.startswith("<") and text.endswith(">")):
        raise SpecParseError("form syntax is <e1,e2,...>")
    entries = []
    for chunk in text[1:-1].split(","):
        poly = parse_poly(chunk, "t")
        entries.append(RatFunc.coerce(poly))
    form = DiagForm.make(RATFUNC, entries)
    panel = _ordering_panel(form.entries)
    signatures = [{"at": label, "value": qform.signature(form, p)} for label, p in panel]
    disc = qform.discriminant(form)
    membership = {
        str(n): in_power.value
        for n, in_power in (
            (1, qform.in_fundamental_power(form, 1, [p for _, p in panel])),
            (2, qform.in_fundamental_power(form, 2, [p for _, p in panel])),
        )
    }
    report = {
        "form": {
            "entries": [e.to_str() for e in form.entries],
            "rank": form.dim,
            "discriminant": disc.to_str() if isinstance(disc, UPoly) else jnum(disc),
            "signatures": signatures,
            "fundamental_power": membership,
        }
    }
    print(json.dumps(report, indent=2))
    return 0


def cmd_suite(args) -> int:
    rows = run_suite(args.filter)
    width = max((len(r.ident) for r in rows), default=10)
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


_positive_budget = _bounded_int(1)
_dimension = _bounded_int(0, MAX_DIMENSION)


def _default_budget() -> int:
    """RC_SEARCH_BUDGET when it is a positive integer, else 50."""
    try:
        return _positive_budget(os.environ.get("RC_SEARCH_BUDGET", "50"))
    except argparse.ArgumentTypeError:
        return 50


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="realcycle",
                                     description="quadratic forms and real cycle classes of curves")
    sub = parser.add_subparsers(dest="command", required=True)

    p_curve = sub.add_parser("curve", help="analyse a curve")
    p_curve.add_argument("--spec", required=True,
                         help='e.g. "line punctures=0,1" or "hyperelliptic f=1-x^2 projective"')
    p_curve.add_argument("--twist", help='divisor spec "points:(x0,+)[*mult],..."')
    p_curve.add_argument("--budget", type=_positive_budget, default=_default_budget(),
                         help="height budget for rational point search (a positive integer)")
    p_curve.set_defaults(func=cmd_curve)

    p_bound = sub.add_parser("bound", help="exponent bounds for (d, c)")
    p_bound.add_argument("--d", type=_dimension, required=True, help=f"dimension, 0..{MAX_DIMENSION}")
    p_bound.add_argument("--c", type=_dimension, required=True, help=f"codimension, 0..{MAX_DIMENSION}")
    p_bound.add_argument("--proper", action="store_true")
    p_bound.add_argument("--real-nonempty", dest="real_nonempty", action="store_true")
    p_bound.add_argument("--etale-vanishing", dest="etale_vanishing", action="store_true")
    p_bound.set_defaults(func=cmd_bound)

    p_form = sub.add_parser("form", help="invariants of a diagonal form over Q(t)")
    p_form.add_argument("form", help='syntax "<e1,e2,...>" with entries polynomials in t')
    p_form.set_defaults(func=cmd_form)

    p_suite = sub.add_parser("suite", help="run the verification corpus")
    p_suite.add_argument("--filter", help="only run checks whose id contains this substring")
    p_suite.set_defaults(func=cmd_suite)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except SpecParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 2
    except PRECONDITION_ERRORS as exc:
        print(f"precondition violated: {exc}", file=sys.stderr)
        return 3
    except RealCycleError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
