import hashlib
import io
import json
import shlex
import time
from contextlib import redirect_stdout
from fractions import Fraction
from pathlib import Path

import pytest

from realcycle import qform
from realcycle.cli import main, parse_curve_spec, parse_poly, parse_twist_spec
from realcycle.errors import SpecParseError
from realcycle.numeric import UPoly
from realcycle.realcurve import Hyperelliptic, ProjectiveLine, PuncturedLine, real_components


def run_cli(*argv):
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main(list(argv))
    return code, buf.getvalue()


def run_json(*argv):
    code, out = run_cli(*argv)
    assert code == 0, out
    return json.loads(out)


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

    def test_projective_line(self):
        assert parse_curve_spec("projective-line") == ProjectiveLine()

    def test_hyperelliptic(self):
        assert parse_curve_spec("hyperelliptic f=1-x^2") == Hyperelliptic(UPoly.of(1, 0, -1))
        got = parse_curve_spec("hyperelliptic f=x^3-x projective")
        assert got == Hyperelliptic(UPoly.of(0, -1, 0, 1), True)

    def test_unknown_kind(self):
        with pytest.raises(SpecParseError):
            parse_curve_spec("conic x^2+y^2=1")


class TestTwistParser:
    def test_single_and_multiplicity(self):
        curve = Hyperelliptic(UPoly.of(1, 0, -1))
        comps = real_components(curve)
        div = parse_twist_spec("points:(0,+)", curve, comps)
        assert len(div.markers) == 1 and div.markers[0].multiplicity == 1
        div = parse_twist_spec("points:(0,+)*3,(1/2,-)", curve, comps)
        assert [m.multiplicity for m in div.markers] == [3, 1]

    def test_bad_branch(self):
        curve = Hyperelliptic(UPoly.of(1, 0, -1))
        comps = real_components(curve)
        with pytest.raises(SpecParseError):
            parse_twist_spec("points:(0,up)", curve, comps)


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

    def test_square_free_violation_exits_3(self):
        code, _ = run_cli("curve", "--spec", "hyperelliptic f=x^2")
        assert code == 3

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

    def test_deterministic_output(self):
        a = run_cli("curve", "--spec", "hyperelliptic f=x^3-x projective")
        b = run_cli("curve", "--spec", "hyperelliptic f=x^3-x projective")
        assert a == b

    def test_numbers_round_trip(self):
        report = run_json("curve", "--spec", "line punctures=1/3")
        [c0, c1] = report["components"]
        assert c0["x_range"] == [["-inf", "1/3"]]
        assert Fraction(c0["x_range"][0][1]) == Fraction(1, 3)


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

    def test_discriminant_computed_once(self, monkeypatch):
        calls = []
        original = qform.square_class

        def counted(ctx, x):
            calls.append(x)
            return original(ctx, x)

        monkeypatch.setattr(qform, "square_class", counted)
        report = run_json("form", "<t,2>")["form"]
        assert report["discriminant"] == "-2*t"
        assert len(calls) == 1

    def test_zero_entry_exits_3(self):
        code, _ = run_cli("form", "<0>")
        assert code == 3

    def test_factorisation_limit_exits_3(self, capsys):
        # 2^61 - 1 is prime, above 10^18 and has no factor up to 10^6
        start = time.perf_counter()
        code, out = run_cli("form", "<2305843009213693951,t>")
        assert time.perf_counter() - start < 2
        assert code == 3 and out == ""
        assert "no prime factor up to 1000000" in capsys.readouterr().err

    def test_zero_denominator_exits_2(self, capsys):
        code, _ = run_cli("form", "<1/0>")
        assert code == 2
        assert "zero denominator" in capsys.readouterr().err


class TestSuiteCommand:
    def test_filter_runs_subset(self):
        code, out = run_cli("suite", "--filter", "gamma0")
        assert code == 0
        lines = [l for l in out.splitlines() if l.startswith(("PASS", "FAIL"))]
        assert len(lines) == 3
        assert all(l.startswith("PASS") for l in lines)

    def test_oracle_row(self):
        code, out = run_cli("suite", "--filter", "exponent-oracle")
        assert code == 0 and "exponent-oracle-table" in out

    def test_injected_failure_exits_1(self, monkeypatch):
        import realcycle.suite as suite_mod

        def broken():
            return False, "deliberately injected failure"

        patched = suite_mod.CHECKS + [("negative-control", "injected failing row", broken, 1.0)]
        monkeypatch.setattr(suite_mod, "CHECKS", patched)
        code, out = run_cli("suite", "--filter", "negative-control")
        assert code == 1
        assert "FAIL" in out and "deliberately injected failure" in out


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

    def test_twisted_punctured_line_is_bound_only(self):
        # a marker on an interval never twists anything, so force the marker
        # onto a circle-free model via the raw pipeline instead
        from realcycle.cycleclass import gamma0_image
        from realcycle.errors import UnsupportedTwist
        curve = PuncturedLine.make([0])
        comps = real_components(curve)
        with pytest.raises(UnsupportedTwist):
            gamma0_image(curve, comps, {comps[0].id: 1, comps[1].id: 0})


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
}


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
