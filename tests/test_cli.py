import builtins
import hashlib
import io
import json
import os
import re
import shlex
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import realcycle
from isolation_oracle import kernel_reads
from realcycle import abgrp, cycleclass, numeric, qform, realcurve
from realcycle.cli import (
    MAX_NESTING, main, parse_curve_spec, parse_poly, parse_twist_spec, render_json,
)
from realcycle.errors import SpecParseError
from realcycle.numeric import UPoly
from realcycle.realcurve import (
    Hyperelliptic, ProjectiveLine, PuncturedLine, component_containing, real_components,
)


def run_cli(*argv):
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main(list(argv))
    return code, buf.getvalue()


def run_json(*argv):
    code, out = run_cli(*argv)
    assert code == 0, out
    return json.loads(out)


def src_env():
    """The environment with this checkout's ``src`` first on PYTHONPATH, for
    a fresh interpreter that imports realcycle from here."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))


class TestPolyParser:
    def test_basic(self):
        assert parse_poly("1-x^2", "x") == UPoly.of(1, 0, -1)
        assert parse_poly("x^3 - x", "x") == UPoly.of(0, -1, 0, 1)
        assert parse_poly("(x-1)*(x+2)", "x") == UPoly.of(-2, 1, 1)
        assert parse_poly("-x", "x") == UPoly.of(0, -1)

    def test_rational_coefficients(self):
        assert parse_poly("1/2*x + 3/4", "x") == UPoly.of(Fraction(3, 4), Fraction(1, 2))

    def test_rejects_garbage(self):
        with pytest.raises(SpecParseError):
            parse_poly("x +", "x")
        with pytest.raises(SpecParseError):
            parse_poly("y", "x")
        with pytest.raises(SpecParseError):
            parse_poly("x^(2)", "x")

    def test_power_cap(self):
        assert parse_poly("x^12", "x") == UPoly.of(*[0] * 12, 1)
        assert parse_poly("(x^10)^100", "x").degree == 1000
        for text in ("x^2000", "((x^30)^30)^30", "(x^2+1)^501"):
            with pytest.raises(SpecParseError):
                parse_poly(text, "x")


class TestCurveSpecParser:
    def test_line_variants(self):
        assert parse_curve_spec("line") == PuncturedLine.make()
        assert parse_curve_spec("line punctures=0,1") == PuncturedLine.make([0, 1])
        assert parse_curve_spec("line punctures=-1/2") == PuncturedLine.make([Fraction(-1, 2)])
        assert parse_curve_spec("line punctures= 1 , -2/3") == PuncturedLine.make([1, Fraction(-2, 3)])

    def test_line_with_an_empty_puncture_list(self):
        assert parse_curve_spec("line punctures=") == PuncturedLine.make()
        empty, bare = run_json("curve", "--spec", "line punctures="), run_json("curve", "--spec", "line")
        assert empty.pop("curve") == "line punctures=" and bare.pop("curve") == "line"
        assert empty == bare

    @pytest.mark.parametrize("spec", [
        "line punctures=1,,2", "line punctures=1,", "line punctures=,1", "line punctures=,",
        "line punctures=1, ,2",
    ])
    def test_empty_puncture_item_exits_2(self, spec, capsys):
        with pytest.raises(SpecParseError):
            parse_curve_spec(spec)
        code, out = run_cli("curve", "--spec", spec)
        assert code == 2 and out == ""
        assert capsys.readouterr().err.startswith("parse error: ")

    def test_projective_line(self):
        assert parse_curve_spec("projective-line") == ProjectiveLine()

    def test_hyperelliptic(self):
        assert parse_curve_spec("hyperelliptic f=1-x^2") == Hyperelliptic(UPoly.of(1, 0, -1))
        got = parse_curve_spec("hyperelliptic f=x^3-x projective")
        assert got == Hyperelliptic(UPoly.of(0, -1, 0, 1), True)

    def test_unknown_kind(self):
        with pytest.raises(SpecParseError):
            parse_curve_spec("conic x^2+y^2=1")

    @pytest.mark.parametrize("spec, message", [
        ("", "empty curve spec"),
        ("  ", "empty curve spec"),
        ("line foo", "line takes only punctures=a1,a2,..."),
        ("projective-line x", "projective-line takes no arguments"),
        ("hyperelliptic x^2", "hyperelliptic needs f=<poly in x> [projective]"),
        ("hyperelliptic projective", "hyperelliptic needs f=<poly in x> [projective]"),
    ])
    def test_malformed_spec_exits_2(self, spec, message, capsys):
        code, out = run_cli("curve", "--spec", spec)
        assert code == 2 and out == ""
        assert capsys.readouterr().err == f"parse error: {message}\n"


class TestTwistParser:
    def test_single_and_multiplicity(self):
        div = parse_twist_spec("points:(0,+)")
        assert len(div.markers) == 1 and div.markers[0].multiplicity == 1
        div = parse_twist_spec("points:(0,+)*3,(1/2,-)")
        assert [m.multiplicity for m in div.markers] == [3, 1]
        assert parse_twist_spec("points:(0,+)*0").markers[0].multiplicity == 0
        assert parse_twist_spec("points:").markers == ()

    def test_bad_branch(self):
        with pytest.raises(SpecParseError):
            parse_twist_spec("points:(0,up)")

    @pytest.mark.parametrize("spec, message", [
        ("points:(0,+),", "expected '(' at position 6 of '(0,+),'"),
        ("points:(0,+)(1,+)", "expected ',' at position 5 of '(0,+)(1,+)'"),
        ("points:(0,+)*3/2", "expected ',' at position 7 of '(0,+)*3/2'"),
        ("points:(0,+)*", "expected a number at position 6 of '(0,+)*'"),
        ("(0,+)", "twist spec must start with 'points:'"),
    ])
    def test_malformed_marker_list_exits_2(self, spec, message, capsys):
        code, out = run_cli("curve", "--spec", "hyperelliptic f=1-x^2", "--twist", spec)
        assert code == 2 and out == ""
        assert capsys.readouterr().err == f"parse error: {message}\n"

    def test_whitespace_between_tokens(self):
        assert parse_twist_spec("points:(0, +)") == parse_twist_spec("points:(0,+)")
        assert (parse_twist_spec("points: ( -1/2 ,- ) * 2 , (0,+)")
                == parse_twist_spec("points:(-1/2,-)*2,(0,+)"))

    def test_each_marker_is_located_once(self, monkeypatch):
        # the parser locates nothing; twist_class locates each marker once
        calls = []

        def counted(curve, x, y_sign):
            calls.append(x)
            return component_containing(curve, x, y_sign)

        monkeypatch.setattr(realcurve, "component_containing", counted)
        curve = Hyperelliptic(UPoly.of(1, 0, -1))
        comps = real_components(curve)
        div = parse_twist_spec("points:(0,+)*3,(1/2,-),(-1/3,+)")
        assert calls == []
        assert realcurve.twist_class(curve, div) == {comps[0].id: 1}
        assert calls == [0, Fraction(1, 2), Fraction(-1, 3)]

    def test_a_twisted_report_builds_one_locator(self, monkeypatch):
        # the markers, the witness and its soundness check all locate points
        # on the one tuple of components kept on the curve
        built = []

        class Counted(realcurve._Locator):
            def __init__(self, curve):
                built.append(curve)
                super().__init__(curve)

        monkeypatch.setattr(realcurve, "_Locator", Counted)
        report = run_json("curve", "--spec", "hyperelliptic f=-(x^2-1)*(x^2-4)",
                          "--twist", "points:(3/2,+),(-3/2,-)*2")
        assert [c["twist"] for c in report["components"]] == [0, 1]
        assert len(built) == 1


@settings(max_examples=1000, deadline=None, derandomize=True)
@given(st.text("0123456789²٣-/,()+*^tx ", max_size=12))
def test_no_spec_ends_in_an_internal_error(text):
    for argv in (("curve", "--spec", f"line punctures={text}"),
                 ("curve", "--spec", "hyperelliptic f=1-x^2", "--twist", f"points:{text}"),
                 ("form", f"<{text}>")):
        assert run_cli(*argv)[0] in (0, 2, 3), argv


class TestCurveCommand:
    def test_once_punctured_line(self):
        report = run_json("curve", "--spec", "line punctures=0")
        assert report["gamma0"]["coker"] == {"order": 2, "exponent": 2}
        assert report["gamma0"]["knebusch_match"] is True
        assert report["h0"] == {"rank": 2, "torsion": []}

    def test_unit_circle_certified(self):
        report = run_json("curve", "--spec", "hyperelliptic f=1-x^2")
        assert report["gamma_top"]["status"] == "certified"
        assert len(report["components"]) == 1
        assert report["h1"] == {"rank": 1, "torsion": []}

    def test_twisted_circle_report(self):
        report = run_json("curve", "--spec", "hyperelliptic f=1-x^2",
                          "--twist", "points:(0,+)")
        assert report["h0"] == {"rank": 0, "torsion": []}
        assert report["h1"] == {"rank": 0, "torsion": [2]}
        assert report["components"][0]["twist"] == 1
        assert report["gamma_top"]["status"] == "certified"

    def test_empty_locus_vacuous(self):
        report = run_json("curve", "--spec", "hyperelliptic f=-1-x^2")
        assert report["components"] == []
        assert report["gamma_top"] == {"status": "vacuous", "witnesses": []}

    def test_a_circle_without_witness_fails(self):
        # the oval of -(5x^2 - 5x + 1) lies inside (0, 1): no x of height 1
        # is there, so budget 1 finds neither a point nor a conjugate pair,
        # and budget 3 reaches the point (1/2, 1/2)
        spec = "hyperelliptic f=-(5*x^2-5*x+1)"
        report = run_json("curve", "--spec", spec, "--budget", "1")
        assert report["gamma_top"] == {"status": "failed", "witnesses": [
            {"generator": "c0", "status": "failed", "point": None, "unit": None, "achieved": {}}]}
        report = run_json("curve", "--spec", spec, "--budget", "3")
        assert report["gamma_top"]["status"] == "certified"
        (witness,) = report["gamma_top"]["witnesses"]
        assert witness["status"] == "exact" and witness["point"] == {"x": "1/2", "y": "1/2"}

    def test_square_free_violation_exits_3(self):
        code, _ = run_cli("curve", "--spec", "hyperelliptic f=x^2")
        assert code == 3
        code, out = run_cli("curve", "--spec", "hyperelliptic f=x^2*(x-1)")
        assert code == 3 and out == ""

    def test_a_hyperelliptic_report_runs_one_remainder_sequence(self, monkeypatch):
        """The Sturm chain of f is the square-free test and isolates the
        roots: no gcd(f, f') is taken besides it."""
        calls = {"gcd": 0, "chain": 0}
        gcd, chain = UPoly.gcd, numeric._sturm_chain

        def counting_gcd(self, other):
            calls["gcd"] += 1
            return gcd(self, other)

        def counting_chain(q):
            calls["chain"] += 1
            return chain(q)

        monkeypatch.setattr(UPoly, "gcd", counting_gcd)
        monkeypatch.setattr(numeric, "_sturm_chain", counting_chain)
        report = run_json("curve", "--spec", "hyperelliptic f=x^3-x projective")
        assert len(report["components"]) == 2
        assert calls == {"gcd": 0, "chain": 1}

    def test_parse_error_exits_2(self):
        code, _ = run_cli("curve", "--spec", "hyperelliptic f=x^^2")
        assert code == 2

    @pytest.mark.parametrize("form", ["<t,>", "<>"])
    def test_end_of_polynomial_exits_2(self, form, capsys):
        code, _ = run_cli("form", form)
        assert code == 2
        assert "unexpected end of polynomial ''" in capsys.readouterr().err

    @pytest.mark.parametrize("f", ["x^2000", "((x^30)^30)^30"])
    def test_power_cap_exits_2(self, f, capsys):
        code, _ = run_cli("curve", "--spec", f"hyperelliptic f={f}")
        assert code == 2
        assert "capped" in capsys.readouterr().err

    @pytest.mark.parametrize("nest", [
        lambda e, n: "(" * n + e + ")" * n,
        lambda e, n: "-" * n + e,
    ], ids=["parentheses", "unary-minus"])
    @pytest.mark.parametrize("command", ["curve", "form"])
    def test_nesting_cap(self, nest, command, capsys):
        # each level is a recursion of the parser: the cap keeps it far from
        # the interpreter's recursion limit
        def argv(n):
            if command == "form":
                return "form", f"<{nest('t', n)}>"
            return "curve", "--spec", f"hyperelliptic f=1-{nest('x^2', n)}"

        at_cap, flat = run_json(*argv(MAX_NESTING)), run_json(*argv(0))
        at_cap.pop("curve", None), flat.pop("curve", None)
        assert at_cap == flat
        # the depth is left at the end of each level, so siblings do not add up
        def siblings(e):
            return "+".join([nest(e, 1)] * (MAX_NESTING + 1))

        if command == "form":
            assert run_cli("form", f"<{siblings('t')}>")[0] == 0
        else:
            assert run_cli("curve", "--spec", f"hyperelliptic f=1-{siblings('x^2')}")[0] == 0
        for n in (MAX_NESTING + 1, 3000):
            code, out = run_cli(*argv(n))
            assert code == 2 and out == ""
            assert capsys.readouterr().err == (
                f"parse error: parentheses and unary minus signs are nested at most "
                f"{MAX_NESTING} deep\n")

    @pytest.mark.parametrize("argv", [
        ("form", "<²>"), ("form", "<t^²>"), ("form", "<t,1/²>"),
        ("curve", "--spec", "line punctures=²"),
        ("curve", "--spec", "hyperelliptic f=1-x^2", "--twist", "points:(0,+)*²"),
    ])
    def test_superscript_digits_exit_2(self, argv, capsys):
        # str.isdigit holds for superscripts, which int() does not read
        code, out = run_cli(*argv)
        assert code == 2 and out == ""
        assert capsys.readouterr().err.startswith("parse error: ")

    def test_other_decimal_digits_are_read(self):
        assert run_json("form", "<٣*t>")["form"]["entries"] == ["3*t"]

    def test_zero_denominator_exits_2(self, capsys):
        code, _ = run_cli("curve", "--spec", "line punctures=1/0")
        assert code == 2
        assert "zero denominator" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ("curve", "--spec", "line punctures=" + "1" * 5000),
        ("curve", "--spec", "line punctures=1/" + "7" * 5000),
        ("curve", "--spec", "hyperelliptic f=1-x^2", "--twist", "points:(0,+)*" + "1" * 5000),
        ("form", "<" + "1" * 5000 + ",t>"),
    ])
    def test_long_literal_exits_2(self, argv, capsys):
        code, _ = run_cli(*argv)
        assert code == 2
        assert "capped at 1000 digits" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ("form", "<(10^1000)^5>"),
        ("form", "<10^1000*10^1000*10^1000*10^1000*10^1000>"),
        ("curve", "--spec", "hyperelliptic f=(10^1000)^5-x^2"),
        ("form", "<(1/10^1000)^5*t>"),
    ])
    def test_coefficients_past_the_str_limit_exit_2(self, argv, capsys):
        # the report could not print them: the interpreter caps int-to-string
        # conversion at sys.get_int_max_str_digits() digits
        code, out = run_cli(*argv)
        assert code == 2 and out == ""
        assert f"coefficients are capped at {sys.get_int_max_str_digits()} digits" in (
            capsys.readouterr().err)

    def test_coefficients_below_the_str_limit_are_accepted(self):
        report = run_json("form", "<(10*t+10)^1000>")["form"]
        assert report["entries"][0].startswith("10" + "0" * 999 + "*t^1000 + ")
        # 0 lifts the interpreter's limit, and with it the cap
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)
        try:
            assert parse_poly("(10^1000)^5", "x") == UPoly.of(10 ** 5000)
        finally:
            sys.set_int_max_str_digits(limit)

    def test_thousand_digit_literal_is_accepted(self):
        big = "1" * 1000
        report = run_json("curve", "--spec", f"line punctures={big}")
        assert report["components"][0]["x_range"] == [["-inf", big]]
        assert parse_poly(f"{big}*t", "t") == UPoly.of(0, int(big))

    @pytest.mark.parametrize("f", ["x^4+1", "x^4+2"])
    def test_separate_sheets_are_witnessed(self, f):
        # no real root and deg f = 0 mod 4: the two sheets close up into two
        # circles, c0 (y > 0) and c1 (y < 0)
        report = run_json("curve", "--spec", f"hyperelliptic f={f} projective")
        assert [c["kind"] for c in report["components"]] == ["circle", "circle"]
        for gen, other, witness in zip(("c0", "c1"), ("c1", "c0"), report["gamma_top"]["witnesses"]):
            assert witness["generator"] == gen
            hits = 1 if witness["status"] == "exact" else 2
            assert witness["achieved"] == {gen: hits, other: 0}

    def test_gamma_report_shares_one_hermite_form_and_carries_no_transforms(self, monkeypatch):
        # the cokernel and the reported basis both read the Hermite basis
        # stored with the image when it is built, so no elimination runs on
        # its generators; the cokernel's invariants come from the Smith
        # diagonal alone
        image = cycleclass.gamma0_image(PuncturedLine.make([0, 1, 2]))
        generators = [list(g) for g in image.generators]
        snf_calls, hermite_inputs = [], []
        smith, hermite = abgrp.smith_normal_form, abgrp.hermite_form

        def counted_smith(m):
            snf_calls.append(m)
            return smith(m)

        def counted_hermite(rows, width):
            rows = [list(r) for r in rows]
            hermite_inputs.append(rows)
            return hermite(rows, width)

        monkeypatch.setattr(abgrp, "smith_normal_form", counted_smith)
        monkeypatch.setattr(abgrp, "hermite_form", counted_hermite)
        report = run_json("curve", "--spec", "line punctures=0,1,2")
        assert report["gamma0"]["coker"] == {"order": 8, "exponent": 2}
        assert report["gamma0"]["knebusch_match"] is True
        assert snf_calls == []
        assert sum(1 for rows in hermite_inputs if rows == generators) == 0

    def test_gamma_image_and_knebusch_lattices_run_no_hermite_form(self, monkeypatch):
        # the image is the parity lattice, built with its Hermite basis
        # stored, so neither it nor the parity lattice is eliminated
        spec = "line punctures=" + ",".join(map(str, range(40)))
        image = cycleclass.gamma0_image(parse_curve_spec(spec))
        hermite_inputs = []
        hermite = abgrp.hermite_form

        def counted_hermite(rows, width):
            rows = [tuple(r) for r in rows]
            hermite_inputs.append(rows)
            return hermite(rows, width)

        monkeypatch.setattr(abgrp, "hermite_form", counted_hermite)
        report = run_json("curve", "--spec", spec)
        assert report["gamma0"]["image_basis"] == [list(g) for g in image.generators]
        assert report["gamma0"]["knebusch_match"] is True
        assert list(image.generators) not in hermite_inputs
        for m in range(1, 42):
            gamma = cycleclass.knebusch_gamma(m)
            assert abgrp.lattice_basis(gamma) == [list(g) for g in gamma.generators]
            assert list(gamma.generators) not in hermite_inputs

    def test_deterministic_output(self):
        a = run_cli("curve", "--spec", "hyperelliptic f=x^3-x projective")
        b = run_cli("curve", "--spec", "hyperelliptic f=x^3-x projective")
        assert a == b

    def test_numbers_round_trip(self):
        report = run_json("curve", "--spec", "line punctures=1/3")
        [c0, c1] = report["components"]
        assert c0["x_range"] == [["-inf", "1/3"]]
        assert Fraction(c0["x_range"][0][1]) == Fraction(1, 3)


# argv read with no parser built
DIRECT_ARGVS = [
    ["curve", "--spec", "line punctures=0,1"],
    ["curve", "--budget", "7", "--twist", "points:(0,+)", "--spec", "hyperelliptic f=1-x^2"],
    ["curve", "--twist", "", "--spec", " projective-line"],
    ["form", "<t,t-1,-1>"], ["form", ""],
]

PARITY_ARGVS = DIRECT_ARGVS + [
    [], ["-h"], ["--help"], ["frob"],
    ["curve", "-h"], ["curve"], ["curve", "--spec", "line", "--budget", "0"],
    ["curve", "--spec", "line", "--budget", "x"], ["curve", "--spec", "line", "x"],
    ["curve", "--spec=line"], ["curve", "--sp", "line"], ["curve", "--spec", "line", "--bud", "3"],
    ["curve", "--spec", "line", "--spec", "projective-line"],
    ["curve", "--spec", "line", "--budget", "-5"], ["curve", "--spec", "--twist"],
    ["curve", "--twist", "points:(0,+)"],
    ["bound", "-h"], ["bound", "--d", "1"], ["bound", "--d", "x", "--c", "0"],
    ["bound", "--d", "1", "--c", "1001"], ["bound", "--d", "1", "--c", "0", "zz"],
    ["form", "-h"], ["form"], ["form", "--bogus", "<1>"], ["form", "--foo", "<t>"], ["fo", "<t>"],
    ["form", "--", "<t>"], ["form", "<t>", "extra"], ["form", "-t"],
    ["suite", "-h"], ["suite", "--filter"], ["suite", "--bogus"],
]


class TestParser:
    @staticmethod
    def outcome(argv, capsys):
        try:
            code = main(list(argv))
        except SystemExit as exc:
            code = exc.code
        out, err = capsys.readouterr()
        return code, out, err

    @pytest.mark.parametrize("columns", ["200", "40"])
    @pytest.mark.parametrize("argv", PARITY_ARGVS, ids=shlex.join)
    def test_lean_parser_prints_what_the_full_one_does(self, argv, columns, monkeypatch, capsys):
        # 40 columns wraps the top-level usage line, which lists every command
        import realcycle.cli as cli_mod

        monkeypatch.setenv("COLUMNS", columns)
        direct = self.outcome(argv, capsys)
        monkeypatch.setattr(cli_mod, "_read_direct", lambda argv: None)
        assert self.outcome(argv, capsys) == direct
        assert direct[0] in (0, 2)

    @pytest.mark.parametrize("argv", PARITY_ARGVS, ids=shlex.join)
    def test_direct_reading_returns_what_argparse_does(self, argv):
        import realcycle.cli as cli_mod

        direct = cli_mod._read_direct(argv)
        assert (direct is not None) == (argv in DIRECT_ARGVS)
        if direct is not None:
            assert direct == cli_mod.build_parser().parse_args(argv)

    @pytest.mark.parametrize("argv, near_miss", [
        (DIRECT_ARGVS[1], ["curve", "--spec=line"]),
        (DIRECT_ARGVS[3], ["form", "--", "<t>"]),
    ], ids=["curve", "form"])
    def test_well_formed_curve_and_form_build_no_parser(self, argv, near_miss, monkeypatch):
        import argparse

        built = []
        init = argparse.ArgumentParser.__init__

        def counted(self, *args, **kwargs):
            built.append(kwargs.get("prog"))
            init(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
        assert run_cli(*argv)[0] == 0
        assert built == []
        assert run_cli(*near_miss)[0] == 0
        assert built == ["realcycle", "realcycle curve", "realcycle bound", "realcycle form",
                         "realcycle suite"]

    @pytest.mark.parametrize("command", [None, "form"])
    def test_usage_is_the_one_argparse_renders(self, command, monkeypatch):
        import argparse

        from realcycle.cli import build_parser

        monkeypatch.setenv("COLUMNS", "40")
        reference = argparse.ArgumentParser(prog="realcycle")
        sub = reference.add_subparsers(dest="command", required=True)
        for name in ("curve", "bound", "form", "suite"):
            sub.add_parser(name)
        sub.choices["form"].add_argument("form")
        parser = build_parser()
        if command is None:
            assert parser.format_usage() == reference.format_usage()
        else:
            [subparsers] = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
            assert subparsers.choices[command].format_usage() == sub.choices[command].format_usage()

    def test_no_argv_reads_the_command_line(self, monkeypatch, capsys):
        monkeypatch.setattr(sys, "argv", ["realcycle", "bound", "--d", "1", "--c", "0"])
        assert main() == 0
        assert capsys.readouterr().out == run_cli("bound", "--d", "1", "--c", "0")[1]


class TestRenderJson:
    # equality with json.dumps is a property test in test_properties.py
    @pytest.mark.parametrize("value", [1.0, Fraction(1), (1,), {1: "a"}, ["a", Fraction(1, 2)],
                                       {"k": (1,)}, [{"k": 1.0}], [1, Fraction(2)], [1, 2.0]],
                             ids=repr)
    def test_other_types_raise(self, value):
        with pytest.raises(TypeError):
            render_json(value)


class TestBoundCommand:
    def test_examples(self):
        assert run_json("bound", "--d", "1", "--c", "0")["bounds"]["proven"] == 2
        out = run_json("bound", "--d", "3", "--c", "1", "--etale-vanishing")
        assert out["bounds"]["proven"] == 4
        assert run_json("bound", "--d", "2", "--c", "5")["bounds"]["proven"] == 1

    def test_negative_rejected(self):
        with pytest.raises(SystemExit) as exc:
            run_cli("bound", "--d", "-1", "--c", "0")
        assert exc.value.code == 2

    @pytest.mark.parametrize("d, c, flag", [("10000", "0", "--d"), ("1", "1001", "--c"),
                                            ("x", "0", "--d")])
    def test_out_of_range_exits_2(self, d, c, flag, capsys):
        with pytest.raises(SystemExit) as exc:
            run_cli("bound", "--d", d, "--c", c)
        assert exc.value.code == 2
        assert f"argument {flag}" in capsys.readouterr().err

    def test_largest_dimension(self):
        bounds = run_json("bound", "--d", "1000", "--c", "0")["bounds"]
        assert bounds["proven"] == 2 ** 1000 and bounds["kernel"] == 2 ** 2002


class TestFormCommand:
    def test_invariants(self):
        report = run_json("form", "<t,t-1,-1>")["form"]
        assert report["rank"] == 3
        by_label = {row["at"]: row["value"] for row in report["signatures"]}
        assert by_label["-inf"] == -3 and by_label["+inf"] == 1

    def test_hyperbolic_form(self):
        report = run_json("form", "<1,-1>")["form"]
        assert all(row["value"] == 0 for row in report["signatures"])
        assert report["fundamental_power"] == {"1": "yes", "2": "yes"}

    def test_second_power_decided_by_the_discriminant(self):
        # even rank and trivial discriminant, with no hyperbolic pairing in
        # sight: I^2 membership is still decided
        for form in ("<2,3,-1,-6>", "<t,t-1,-t,-t+1>", "<t,t-1,t,t-1>"):
            assert run_json("form", form)["form"]["fundamental_power"] == {"1": "yes", "2": "yes"}
        report = run_json("form", "<t,t-1,-1,-t>")["form"]      # discriminant t - 1
        assert report["fundamental_power"] == {"1": "yes", "2": "no"}

    def test_discriminant_computed_once(self, monkeypatch):
        # the Q(t) discriminant factors one integer, the square-free part of
        # the signed product of the leading coefficients, and nothing else in
        # a form report does, so one call means one discriminant computation
        calls = []
        original = qform.squarefree_int

        def counted(n):
            calls.append(n)
            return original(n)

        monkeypatch.setattr(qform, "squarefree_int", counted)
        report = run_json("form", "<t,2>")["form"]
        assert report["discriminant"] == "-2*t"
        assert calls == [-2]

    def test_sixty_entry_panel_isolates_over_linear_chains(self, monkeypatch):
        # the panel isolates each basis polynomial's chain, never one chain of
        # the product: here every basis polynomial is linear
        import realcycle.numeric as numeric

        lengths = []
        bisect = numeric._bisect

        def observed(chains):
            lengths.extend(len(c) for c in chains)
            return bisect(chains)

        monkeypatch.setattr(numeric, "_bisect", observed)
        reads = kernel_reads(monkeypatch)
        code, out = run_cli("form", "<" + ",".join(f"t-{i}" for i in range(60)) + ">")
        assert code == 0 and len(json.loads(out)["form"]["signatures"]) == 63
        assert len(lengths) == 60 and max(lengths) <= 2
        # the bisection reads a chain only where one of its roots is within
        # its skip bound; reading every chain at every point took 162,960
        # evaluations
        assert 0 < len(reads) < 10_000
        # the bytes the product's isolation printed
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "cfa2520b0d3ded39900d58353058f546fc979ccac656316be24cc63bd3c7c8af")

    def test_slow_form_reads_no_chain_past_its_skip_bound(self, monkeypatch):
        # chains of degree up to 37 with coefficients of up to 1,000 bits,
        # whose product's Cauchy bound lies far above their roots: each chain
        # is read only below its skip bound, 1,649 reads in all
        form = ("<(t)^13,(-2*(t)^36)^1,"
                "86589072405572518*(t--6)*(t)^19+((t-875449474)*t)^30>")
        firsts, spans = {}, []
        bisect = numeric._bisect

        def observed(chains):
            firsts.update((c[0].nums, Fraction(2) ** numeric._skip_exponent(c[0].nums))
                          for c in chains)
            start = len(reads)
            out = bisect(chains)
            spans.append((start, len(reads)))
            return out

        reads = kernel_reads(monkeypatch)
        monkeypatch.setattr(numeric, "_bisect", observed)
        code, out = run_cli("form", form)
        assert code == 0 and hashlib.sha256(out.encode()).hexdigest() == (
            "f8fa62e328e2fad83807cdcb615d675ddf6d8f581054033e2c6180088073d614")
        read = [(nums, x) for start, end in spans for nums, x, _ in reads[start:end]]
        assert 0 < len(read) < 2_500
        assert all(abs(x) < firsts[nums] for nums, x in read if nums in firsts)

    @pytest.mark.parametrize("form, most", [
        ("<(t+1)^1000>", 1001),
        ("<" + ",".join(f"t-{i}" for i in range(60)) + ">", 1889),
    ])
    def test_gcd_calls_per_form(self, form, most, monkeypatch):
        # each entry climbs its square-free ladder once, and the panel refines
        # the cached rungs; climbing it for the odd part and again for the
        # basis took 2,998 calls on the thousandth power
        calls = [0]
        gcd = UPoly.gcd

        def counted(p, q):
            calls[0] += 1
            return gcd(p, q)

        monkeypatch.setattr(UPoly, "gcd", counted)
        assert run_cli("form", form)[0] == 0
        assert calls[0] <= most

    def test_typed_powers_are_not_decomposed_again(self, monkeypatch):
        # the entry's factors are the typed bases t + 1 and t + 2, so no gcd
        # sees a polynomial above degree 1; the report is the bytes the
        # expanded entry's square-free ladder gave
        degrees = []
        gcd = UPoly.gcd
        monkeypatch.setattr(UPoly, "gcd", lambda p, q: degrees.append(max(p.degree, q.degree))
                            or gcd(p, q))
        code, out = run_cli("form", "<(t+1)^1000*(t+2)^1000>")
        assert code == 0 and all(d <= 1 for d in degrees)
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "cc8cea9f395999225a65d4a8251cac5f90f5275f2118b1358c174e8636c654a2")

    def test_typed_quadratic_bases_take_no_gcd_with_a_derivative(self, monkeypatch):
        # linear and quadratic bases, repeated, shared and not square-free
        derivatives, with_derivative = [], []
        deriv, gcd = UPoly.deriv, UPoly.gcd

        def recorded(p):
            derivatives.append(deriv(p))
            return derivatives[-1]

        def counted(p, q):
            if p.degree > 1 and any(q is d for d in derivatives):
                with_derivative.append(p)
            return gcd(p, q)

        monkeypatch.setattr(UPoly, "deriv", recorded)
        monkeypatch.setattr(UPoly, "gcd", counted)
        code, _ = run_cli("form", "<(t^2+1)^3*(t-1/3)^5,(t-2)*(t+5/7)^2*(t^2-2)^2,"
                                  "-3*(t^2-2*t+1)^2*t*(t^2-1),(t^2+1)*-(t^2-2)>")
        assert code == 0 and with_derivative == []

    @pytest.mark.parametrize("power, discriminant", [(1000, "1"), (999, "t + 1")])
    def test_thousandth_power_entry(self, power, discriminant):
        # the odd part takes one multiplicity level per power, past the
        # default recursion limit
        report = run_json("form", f"<(t+1)^{power}>")["form"]
        assert report["discriminant"] == discriminant

    def test_zero_entry_exits_3(self):
        code, _ = run_cli("form", "<0>")
        assert code == 3

    def test_factorisation_limit_exits_3(self, capsys):
        # 6521908894648437971 = 3037000493 * 2147483647: above 10^18, not a
        # prime and with no factor up to 10^6
        start = time.perf_counter()
        code, out = run_cli("form", "<6521908894648437971,t>")
        assert time.perf_counter() - start < 2
        assert code == 3 and out == ""
        assert "no prime factor up to 1000000" in capsys.readouterr().err

    def test_proven_prime_above_the_trial_range_answers(self):
        # 2^61 - 1 is prime, above 10^18 and below the bound where
        # Miller-Rabin with 13 bases is a proof
        start = time.perf_counter()
        report = run_json("form", "<2305843009213693951*t,t>")["form"]
        assert time.perf_counter() - start < 2
        assert report["discriminant"] == "-2305843009213693951"

    def test_discriminant_factors_the_product_of_leading_coefficients(self):
        # 6521908894648437971 = 3037000493 * 2147483647: two primes above 10^6
        # whose product is above 10^18, so factoring one entry's scalar alone
        # hits the factorisation limit; the signed product -N^2 is -1 times a
        # square, which the discriminant reads off without factoring N
        report = run_json("form", "<6521908894648437971*t,6521908894648437971>")["form"]
        assert report["discriminant"] == "-t"

    def test_zero_denominator_exits_2(self, capsys):
        code, _ = run_cli("form", "<1/0>")
        assert code == 2
        assert "zero denominator" in capsys.readouterr().err

    @pytest.mark.parametrize("text", ["t^4/2", "t^4/1"])
    def test_exponents_are_integers(self, text, capsys):
        # an exponent read as a rational made <t^4/2> the entry t^2
        code, out = run_cli("form", f"<{text}>")
        assert code == 2 and out == ""
        assert capsys.readouterr().err == f"parse error: trailing input at position 3 of {text!r}\n"

    @pytest.mark.parametrize("argv, want", [
        (("form", "<(t;1)>"), "expected ')' at position 2 of '(t;1)'"),
        (("curve", "--spec", "hyperelliptic f=1-x^2", "--twist", "points:(0;+)"),
         "expected ',' at position 2 of '(0;+)'"),
    ])
    def test_a_missing_delimiter_is_reported_where_it_is(self, argv, want, capsys):
        # the ';' is at position 2
        code, out = run_cli(*argv)
        assert code == 2 and out == ""
        assert capsys.readouterr().err == f"parse error: {want}\n"

    def test_whitespace_around_a_fraction_bar(self, capsys):
        want = run_json("form", "<1/2*t>")
        assert run_json("form", "<1 /2*t>") == run_json("form", "<1/ 2*t>") == want
        code, out = run_cli("form", "<1/ *t>")
        assert code == 2 and out == ""
        assert capsys.readouterr().err == (
            "parse error: expected a denominator at position 3 of '1/ *t'\n")


class TestSuiteCommand:
    def test_filter_runs_subset(self):
        code, out = run_cli("suite", "--filter", "gamma0")
        assert code == 0
        lines = [l for l in out.splitlines() if l.startswith(("PASS", "FAIL"))]
        assert len(lines) == 3
        assert all(l.startswith("PASS") for l in lines)

    def test_filter_matching_nothing_exits_2(self, capsys):
        code, out = run_cli("suite", "--filter", "zzz")
        assert code == 2 and out == ""
        assert capsys.readouterr().err == "no check id contains 'zzz'\n"

    def test_oracle_row(self):
        code, out = run_cli("suite", "--filter", "exponent-oracle")
        assert code == 0 and "exponent-oracle-table" in out

    def test_unexpected_error_exits_4(self, monkeypatch, capsys):
        import realcycle.cli as cli_mod

        def broken(args):
            raise AssertionError("deliberately injected")

        monkeypatch.setattr(cli_mod, "cmd_curve", broken)
        assert main(["curve", "--spec", "line"]) == 4
        err = capsys.readouterr().err
        assert err == "internal error: AssertionError: deliberately injected\n"

    def test_closed_stdout_exits_141_quietly(self):
        # the report on 100 punctures is larger than a pipe buffer, so the
        # command is still writing it when the reader closes the pipe
        env = src_env()
        spec = "line punctures=" + ",".join(map(str, range(100)))
        proc = subprocess.Popen([sys.executable, "-m", "realcycle.cli", "curve", "--spec", spec],
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
        assert proc.stdout.readline() == b"{\n"
        proc.stdout.close()
        assert proc.wait(timeout=60) == 141
        assert proc.stderr.read() == b""
        proc.stderr.close()

    def test_only_the_suite_command_loads_the_corpus(self):
        env = src_env()
        probe = "import sys, realcycle.cli; print('realcycle.suite' in sys.modules)"
        loaded = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                                env=env, timeout=60, check=True).stdout
        assert loaded == "False\n"
        proc = subprocess.run([sys.executable, "-m", "realcycle.cli", "suite"],
                              capture_output=True, text=True, env=env, timeout=120)
        assert proc.returncode == 0
        assert proc.stdout.endswith("12/12 checks passed\n")

    def test_injected_failure_exits_1(self, monkeypatch):
        import realcycle.suite as suite_mod

        def broken():
            return False, "deliberately injected failure"

        patched = suite_mod.CHECKS + [("negative-control", "injected failing row", broken, 1.0)]
        monkeypatch.setattr(suite_mod, "CHECKS", patched)
        code, out = run_cli("suite", "--filter", "negative-control")
        assert code == 1
        assert "FAIL" in out and "deliberately injected failure" in out


# the modules that the parser and `form` never load
UNUSED_AT_START = ("abgrp", "cycleclass", "realcurve", "mwk", "suite")


def fresh_stdout(code: str) -> str:
    return subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=src_env(), timeout=60, check=True).stdout


class TestStartUp:
    @pytest.mark.parametrize("run, loaded", [
        ("realcycle.cli.build_parser()", []),
        ("realcycle.cli.main(['form', '<t-1,t>'])", []),
        ("realcycle.cli.main(['curve', '--spec', 'line punctures=0,1'])",
         ["abgrp", "cycleclass", "realcurve"]),
    ], ids=["parser", "form", "curve"])
    def test_a_command_loads_only_the_modules_it_runs(self, run, loaded):
        probe = (f"import sys, realcycle, realcycle.cli\n{run}\n"
                 f"print([m for m in {UNUSED_AT_START!r} if 'realcycle.' + m in sys.modules])")
        assert fresh_stdout(probe).splitlines()[-1] == repr(loaded)

    def test_the_package_imports_a_module_on_first_access(self):
        probe = ("import sys, realcycle\n"
                 "print('realcycle.mwk' in sys.modules, callable(realcycle.mwk.one),"
                 " 'realcycle.mwk' in sys.modules)\n"
                 "from realcycle import *\n"
                 "print(sorted(realcycle.__all__) == sorted(n for n in dir() if n in realcycle.__all__))")
        assert fresh_stdout(probe) == "False True True\nTrue\n"
        with pytest.raises(AttributeError, match="has no attribute 'not_a_module'"):
            realcycle.not_a_module

    @pytest.mark.parametrize("argv", [
        ["curve", "--spec", "line punctures=-1,0,5/2"],
        ["curve", "--spec", "hyperelliptic f=-(x^2-1)*(x^2-4)", "--twist", "points:(3/2,+),(-3/2,-)*2"],
        ["bound", "--d", "2", "--c", "1"],
    ], ids=["line", "twisted-hyperelliptic", "bound"])
    def test_a_fresh_process_prints_what_the_loaded_one_does(self, argv):
        proc = subprocess.run([sys.executable, "-m", "realcycle.cli", *argv],
                              capture_output=True, text=True, env=src_env(), timeout=60)
        code, out = run_cli(*argv)
        assert (proc.returncode, proc.stdout, proc.stderr) == (code, out, "")

    def test_a_warm_curve_report_runs_three_import_statements(self, monkeypatch):
        # the spec parser, the twist parser and cmd_curve import what they
        # use; the report helpers import nothing
        argv = ["curve", "--spec", "hyperelliptic f=-(x^2-1)*(x^2-4)",
                "--twist", "points:(3/2,+),(-3/2,-)*2"]
        run_cli(*argv)
        imports = []
        real = builtins.__import__

        def counted(name, globals=None, *args, **kwargs):
            if globals is not None and globals.get("__name__") == "realcycle.cli":
                imports.append(name)
            return real(name, globals, *args, **kwargs)

        monkeypatch.setattr(builtins, "__import__", counted)
        run_cli(*argv)
        assert len(imports) <= 3, imports


class TestBudgetConfiguration:
    def test_env_variable_sets_default(self, monkeypatch):
        monkeypatch.setenv("RC_SEARCH_BUDGET", "7")
        from realcycle.cli import build_parser
        args = build_parser().parse_args(["curve", "--spec", "line"])
        assert args.budget == 7

    def test_flag_wins_over_env(self, monkeypatch):
        monkeypatch.setenv("RC_SEARCH_BUDGET", "7")
        from realcycle.cli import build_parser
        args = build_parser().parse_args(["curve", "--spec", "line", "--budget", "3"])
        assert args.budget == 3

    def test_garbage_env_falls_back(self, monkeypatch):
        monkeypatch.setenv("RC_SEARCH_BUDGET", "many")
        from realcycle.cli import build_parser
        args = build_parser().parse_args(["curve", "--spec", "line"])
        assert args.budget == 50

    def test_env_above_cap_falls_back(self, monkeypatch):
        monkeypatch.setenv("RC_SEARCH_BUDGET", "1001")
        from realcycle.cli import build_parser
        args = build_parser().parse_args(["curve", "--spec", "line"])
        assert args.budget == 50

    def test_cap_is_accepted(self):
        from realcycle.cli import build_parser
        args = build_parser().parse_args(["curve", "--spec", "line", "--budget", "1000"])
        assert args.budget == 1000
        assert run_json("curve", "--spec", "line", "--budget", "1000")["gamma_top"]["status"] \
            == "certified"

    def test_flag_above_cap_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["curve", "--spec", "line", "--budget", "1001"])
        assert exc.value.code == 2
        assert "must be an integer in 1..1000, got 1001" in capsys.readouterr().err

    @pytest.mark.parametrize("budget", ["0", "-5", "many"])
    def test_flag_must_be_positive(self, budget, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["curve", "--spec", "line", "--budget", budget])
        assert exc.value.code == 2
        assert "--budget" in capsys.readouterr().err


class TestAffineLineReport:
    def test_full_image(self):
        report = run_json("curve", "--spec", "line")
        assert report["gamma0"]["coker"] == {"order": 1, "exponent": 1}
        assert report["gamma0"]["knebusch_match"] is True
        assert report["gamma_top"] == {"status": "certified", "witnesses": []}

    def test_markers_on_a_punctured_line_twist_nothing(self):
        # every component of a punctured line is an interval, so markers
        # leave the bits 0 and the image lattice is reported in full
        report = run_json("curve", "--spec", "line punctures=0", "--twist", "points:(1,+)*3,(-2,-)")
        assert [c["twist"] for c in report["components"]] == [0, 0]
        assert report["gamma0"] == {"image_basis": [[1, 1], [0, 2]],
                                    "coker": {"order": 2, "exponent": 2},
                                    "knebusch_match": True, "bound_only": False}



# SHA-256 of the stdout of each README "Command line" example, so any change
# to a report shows up here; regenerate a pin only when a report is meant to
# change.
README_PINS = {
    'realcycle curve --spec "line punctures=0"':
        "6b8fbf54203eaf5abee8f092c73b4564b4b6d92d951c91603d7f5149ad08b736",
    'realcycle curve --spec "hyperelliptic f=-(x^2-1)*(x^2-4)"':
        "9cb0e9bb36a32cd417ae464f0dabaaccb03fca55b8347ee97e43c258fd98bb00",
    'realcycle curve --spec "hyperelliptic f=x^3-x projective"':
        "a973dbe16d3d9871858cc511f6503024c24df7bb3109ddb99cf24ee94b0dcd0a",
    'realcycle curve --spec "hyperelliptic f=1-x^2" --twist "points:(0,+)"':
        "95538c82c8d3307448e49676443748904849df06cfb2e3a870ebcb1991e0ad97",
    'realcycle bound --d 3 --c 1 --etale-vanishing':
        "70e0b227de225083dbf87755377b9a97f36313023815f9a7c00686150af5f173",
    'realcycle form "<t,t-1,-1>"':
        "b652854dd78bc64ab0c08d1e5ba2445c95502f88edac16b0ed40ca5bc2efa834",
    'realcycle curve --spec "hyperelliptic f=3-x^2" --budget 200':
        "2c69a16ec3e1bef59e3806bfda82c18c02c7a5dda2f1db80c0815c47ba2f8f62",
    'realcycle curve --spec "hyperelliptic f=3-x^2" --budget 1000':
        "2c69a16ec3e1bef59e3806bfda82c18c02c7a5dda2f1db80c0815c47ba2f8f62",
    'realcycle form "<(t^2+1)^3*(t-1/3)^5,(t-2)*(t+5/7)^2,-3*t^4+7,t^2-2>"':
        "49e1f773a9a5b4eb5df6f25fd3e294f69405dc64bb3bb946a0e32d1ab0677824",
}


# SHA-256 of the stdout of the reports that the CI smoke step pins too: two
# forms, and two height walks, one over three ovals at budget 1000 and one
# over the wide window of 3*10^12 - x^2 at budget 50.
SMOKE_PINS = {
    'realcycle form "<t*(t-1),-(t^2-t),(t^2+1)*(t-1)^2,-(t^2+1)>"':
        "7551ab8faadca691151a9b60299367a99ce4bf974d76cbd77775656b7899da78",
    'realcycle form "<t*(t-1),-(t^2-t),(t^2+1)*(t-1)^2,-3*(t^2+1),1/2*t^3>"':
        "a0cdefd6115a109ce038e027752eeaa654eac33bd2b8378c9f01a6b1c6f38f55",
    'realcycle curve --spec "hyperelliptic f=-(x^2-2)*(x^2-11)*(x^2-23)" --budget 1000':
        "7c2eb07c3cbb1adb06aa32b08be12db4cba57ec13c63d22e6ee101e9a73dc9bb",
    'realcycle curve --spec "hyperelliptic f=3000000000000-x^2" --budget 50':
        "4f00afdd4ec9886fce383ec585cd19a710a4a132f09747128ceb27bd2d893f98",
    # the circle's conic coefficient 1000003 * 1000033 is past the trial
    # division bound, so no place is proved and the witness is a pair at x = 0
    'realcycle curve --spec "hyperelliptic f=2-1000003*1000033*x^2"':
        "694c1164a5c8ca2297781b7416991b3d5e4681a6528e68d7d22bbf3118cf54a4",
}


@pytest.mark.parametrize("line", list(SMOKE_PINS))
def test_smoke_pinned_output_is_unchanged(line):
    code, out = run_cli(*shlex.split(line)[1:])
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == SMOKE_PINS[line]


# SHA-256 of the stdout of five punctured-line reports: the CI smoke step's
# lines of 40 and 399 punctures, fractional punctures with markers, whose
# point location reads each component's gap from its arc ends, the line with
# no puncture (its image is Z) and the line punctured at 0 and 1.
LINE_PINS = {
    ("--spec", "line punctures=" + ",".join(map(str, range(40)))):
        "e084b66a79ab6242becaa4dcbd17ae1796b5fc8680299f2f7229d40e682deffb",
    ("--spec", "line punctures=" + ",".join(map(str, range(399)))):
        "bc24ed896cb499ebb4e3780ef5f7e379e4fd019704422daac5cfb72b650fb737",
    ("--spec", "line punctures=-7/3,0,1/6,5", "--twist", "points:(1,+),(-3,-)*2,(5/2,+)"):
        "e23731fd531cc04c96b96e57092b0ecd708d3c226c43b21f521d7839595c0a07",
    ("--spec", "line"):
        "cb9967a89c21738f3c945ee3b6908e817a7269e983e116e6c4cc3cd48c6a20e2",
    ("--spec", "line punctures=0,1"):
        "d99f66e3253708803c5adc07e1aabc65ecbca4b701eee67fba7bbe21a1fc36e9",
}


@pytest.mark.parametrize("argv", list(LINE_PINS),
                         ids=["40-punctures", "399-punctures", "twisted", "no-puncture",
                              "two-punctures"])
def test_line_report_output_is_unchanged(argv):
    code, out = run_cli("curve", *argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == LINE_PINS[argv]


# SHA-256 of the stdout of three twisted reports, whose markers, witnesses
# and witness checks locate points on the components kept on the curve: the
# separate sheets of a projective quartic, two ovals, and P^1.  The CI smoke
# step pins them too.
TWIST_PINS = {
    ("--spec", "hyperelliptic f=x^4+1 projective", "--twist", "points:(0,+),(1,-)*3"):
        "fa00c9c5e29c4ae4835a6c885b7af12b133aff0e681ef739f04b83fe40098d1f",
    ("--spec", "hyperelliptic f=-(x^2-1)*(x^2-4)", "--twist", "points:(3/2,+),(-3/2,-)*2"):
        "aa23e249e884052e2cc6937ce13da200ea93e9e07ab75125bbf51fe302f5668d",
    ("--spec", "projective-line", "--twist", "points:(1/2,+)"):
        "287fee1756febdedbcd00723531c8a0854279f0e9ed26b74564bea076b809e22",
}


@pytest.mark.parametrize("argv", list(TWIST_PINS), ids=["quartic-sheets", "two-ovals", "p1"])
def test_twisted_report_output_is_unchanged(argv):
    code, out = run_cli("curve", *argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == TWIST_PINS[argv]


def readme_examples():
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = text.split("## Command line", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
    return [line for line in block.strip().splitlines() if line.startswith("realcycle ")]


def test_readme_examples_are_pinned():
    assert readme_examples() == list(README_PINS)


@pytest.mark.parametrize("line", list(README_PINS))
def test_readme_example_output_is_unchanged(line):
    code, out = run_cli(*shlex.split(line)[1:])
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == README_PINS[line]


# The CI smoke step, read as text: its sha256sum pins and its expected exit
# codes, run in-process, so that a pin the workflow holds is checked even
# where the workflow cannot run.
WORKFLOW = Path(__file__).resolve().parents[1] / ".github" / "workflows" / "tests.yml"
PIPED_PIN = re.compile(r"""test "\$\((?:timeout \d+ )?realcycle (.+) \| sha256sum \| """
                       r"""cut -d' ' -f1\)" = ([0-9a-f]{64})""")
FILE_PIN = re.compile(r"""test "\$\(sha256sum < (\S+) \| cut -d' ' -f1\)" = ([0-9a-f]{64})""")
# a line report whose punctures 0, ..., n - 1 a `python -c` writes out
LINE_RUN = re.compile(r"""(?:timeout \d+ )?realcycle curve --spec "line punctures=\$\(python -c """
                      r""""print\(','\.join\(str\(i\) for i in range\((\d+)\)\)\)"\)" > (\S+)""")
EXIT_CODE = re.compile(r"realcycle (.+) && exit 1 \|\| test \$\? -eq (\d+)")


def workflow_checks():
    """({argv: sha256 of its stdout}, {argv: exit code}) from the workflow."""
    lines = [line.strip() for line in WORKFLOW.read_text().splitlines()]
    written = {m[2]: ("curve", "--spec", "line punctures=" + ",".join(map(str, range(int(m[1])))))
               for m in map(LINE_RUN.fullmatch, lines) if m}
    pins, exits = {}, {}
    for line in lines:
        if m := PIPED_PIN.fullmatch(line):
            pins[tuple(shlex.split(m[1]))] = m[2]
        elif m := FILE_PIN.fullmatch(line):
            pins[written[m[1]]] = m[2]
        elif m := EXIT_CODE.fullmatch(line):
            exits[tuple(shlex.split(m[1]))] = int(m[2])
        else:
            assert "sha256sum" not in line and "exit 1" not in line, line
    return pins, exits


WORKFLOW_PINS, WORKFLOW_EXITS = workflow_checks()


def test_the_workflow_pins_the_line_reports_it_writes_from_python():
    punctures = [len(argv[-1].split(",")) for argv in WORKFLOW_PINS
                 if argv[-1].startswith("line punctures=0,1,2,")]
    assert sorted(punctures) == [40, 399]
    assert all("$" not in arg for argv in [*WORKFLOW_PINS, *WORKFLOW_EXITS] for arg in argv)


@pytest.mark.parametrize("argv", list(WORKFLOW_PINS), ids=lambda argv: WORKFLOW_PINS[argv][:8])
def test_a_workflow_pin_matches_the_report(argv):
    code, out = run_cli(*argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == WORKFLOW_PINS[argv]


@pytest.mark.parametrize("argv", list(WORKFLOW_EXITS), ids=lambda argv: " ".join(argv))
def test_a_workflow_exit_code_matches_the_command(argv):
    with redirect_stderr(io.StringIO()):
        code, _ = run_cli(*argv)
    assert code == WORKFLOW_EXITS[argv]
