"""Acceptance gate: run every check of the curated verification corpus.

Each criterion prints one PASS/FAIL line (visible with ``pytest -s`` or on
failure) and is asserted together with its runtime limit.  All comparisons are
exact integer/rational equalities; there are no tolerances to tune.
"""

import importlib
import inspect
import textwrap

import pytest

from realcycle.suite import CHECKS, SuiteRow, run_suite

IDENTS = [ident for ident, _, _, _ in CHECKS]


@pytest.fixture(scope="module")
def suite_rows() -> dict[str, SuiteRow]:
    return {row.ident: row for row in run_suite()}


def test_suite_is_complete(suite_rows):
    assert sorted(suite_rows) == sorted(IDENTS)
    assert len(IDENTS) == 12


@pytest.mark.parametrize("ident", IDENTS)
def test_criterion(ident, suite_rows):
    row = suite_rows[ident]
    verdict = "PASS" if row.ok else "FAIL"
    print(f"{verdict}  {row.ident}  ({row.elapsed:.2f}s < {row.limit:.0f}s)  {row.detail}")
    assert row.ok, f"{row.ident}: {row.detail}"
    assert row.elapsed < row.limit, f"{row.ident} exceeded its runtime limit"


# Each check is the one home of its property in Tier-1, so each must fail on a
# fault seeded in the code it certifies: the function, rebuilt from its source
# with one snippet replaced, fails the check with the detail of one clause.
FAULTS = {
    "gamma0-image-one-component-short": ("gamma0-parity-lattice", "cycleclass.gamma0_image",
        "len(curve.punctures) + 1", "len(curve.punctures)",
        "image=evaluated signature lattice, coker order 1, exponent 1"),
    "coker-order-is-exponent": ("gamma0-two-punctures", "cycleclass.coker_report",
        "order_of(q), exponent(q)", "exponent(q), exponent(q)",
        "module (2,2) vs closure oracle (4,2)"),
    "parity-lattice-drops-last-generator": ("gamma0-two-punctures", "cycleclass.knebusch_gamma",
        "range(1, m))", "range(1, m - 1))", "module (None,0) vs closure oracle (4,2)"),
    "parity-lattice-doubles-first-generator": ("gamma0-random-punctured",
        "cycleclass.knebusch_gamma", "((1,) * m,)", "((2,) * m,)",
        "trial 0: image differs from the evaluated signature lattice"),
    "branch-points-skipped": ("gamma-top-certificates", "cycleclass._witness_for_circle",
        "rational_root, root_intervals)", "rational_root, root_intervals[:0])",
        "y^2 = 1-x^2: witness for c0 is not a branch point"),
    "branch-point-counted-double": ("gamma-top-certificates", "cycleclass._witness_for_circle",
        "Fraction(0)))\n            return WitnessCertificate(comp.id, STATUS_EXACT",
        "Fraction(0)))\n            return WitnessCertificate(comp.id, STATUS_DOUBLE",
        "y^2 = 1-x^2: ['double_only']"),
    "twist-markers-dropped": ("twisted-circle", "realcurve.twist_class",
        "marker.multiplicity) % 2", "marker.multiplicity) % 1",
        "H0 trivial: False, H1 = Z/2: False, point class {'c0': 1}"),
    "h0-keeps-twisted-circles": ("twisted-circle", "realcurve.twisted_cohomology",
        "not c.is_circle or bits[c.id] == 0", "True",
        "H0 trivial: False, H1 = Z/2: True, point class {'c0': 1}"),
    "ladder-h1-times-4": ("bockstein-ladders", "realcurve.bockstein_ladder",
        "scalar(h1, 2)", "scalar(h1, 4)", "ladder fails at node 4 for ProjectiveLine()"),
    "components-bound-doubled": ("exponent-oracle-table", "cycleclass.exponent_oracle",
        "((2 ** d, SRC", "((2 ** (d + 1), SRC", "(d=2, c=0): expected 2^2"),
    "etale-bound-off-on-real-points": ("exponent-oracle-table", "cycleclass.exponent_oracle",
        "and etale_vanishing:", "and etale_vanishing and not real_nonempty:",
        "(d=3, c=1): flagged bound wrong"),
    "curve-bound-4": ("exponent-oracle-table", "cycleclass.exponent_oracle",
        "((2, SRC_CURVE", "((4, SRC_CURVE", "(d=2, c=1): expected 2"),
    "top-surjectivity-2": ("exponent-oracle-table", "cycleclass.exponent_oracle",
        "((1, SRC_TOP_SURJECTIVE", "((2, SRC_TOP_SURJECTIVE", "(d=1, c=1): expected 1"),
    "tensor-with-<1,-1>": ("signature-doubling", "qform.mult_by_pfister_minus_one",
        "pfister(x.ctx, -1)", "pfister(x.ctx, 1)", "trial 1 at 4/3-"),
    "unit-form-negated": ("gw-identity-steinberg", "mwk.gw_unit",
        "DiagForm(ctx, (a,))", "DiagForm(ctx, (-a,))", "rational trial 0: a=-26/5"),
    "steinberg-symbol-kept": ("gw-identity-steinberg", "mwk._canonical_sym2",
        "if s == one or not s:", "if not s:", "Steinberg trial 0: Milnor part survives"),
    "degree-2-milnor-zero-nonempty": ("gw-identity-steinberg", "mwk._milnor_zero",
        "())[degree]", "(None,))[degree]", "Steinberg trial 0: Milnor part survives"),
    "isotropy-vector-ignored": ("gw-identity-steinberg", "mwk.is_zero_certified",
        "and is_isotropic_vector(half, isotropy_vector)", "and False",
        "Steinberg trial 1: no vanishing certificate"),
    "row-operations-not-carried": ("snf-random", "abgrp._row_form",
        "[r[width:] for r in out]", "t", "6x6 trial 0: U*M*V != D"),
    "stray-divisor-kept": ("snf-random", "abgrp._smith_elimination",
        "if stray is None:", "if True:",
        "6x6 trial 0: divisibility chain broken in [1, 1, 1, 3, 1, 945970]"),
    "exponent-0-for-two-factors": ("group-law-suite", "abgrp.exponent",
        "torsion[-1] if torsion", "torsion[-1] if len(torsion) == 1 else 0 if torsion",
        "trial 4: product law fails"),
    "cokernel-drops-target-relations": ("group-law-suite", "abgrp.cokernel_presentation",
        "f.images + f.target.relation_columns", "f.images",
        "trial 3: inherited exponents fail"),
    "kernel-drops-relations": ("group-law-suite", "abgrp.kernel_presentation",
        "len(gens))), rels)", "len(gens))), [])", "trial 0: kernel composition law fails"),
    "invariant-factors-cyclic": ("group-law-suite", "abgrp.invariant_factors",
        "normal_form[1]", "normal_form[1][-1:]", "enumeration 7: order census mismatch at e=2"),
    "quotient-drops-a-relation": ("group-law-suite", "abgrp.quotient",
        "sub.hermite_basis", "sub.hermite_basis[:-1]",
        "enumeration 0: SNF disagrees with coset walk"),
    "bisection-drops-last-leaf": ("root-isolation-suite", "numeric._bisect",
        "iv.lo)\n    return tuple(out)", "iv.lo)\n    return tuple(out[:-1])",
        "trial 0: isolated 4 of 5"),
    "intervals-sorted-descending": ("root-isolation-suite", "numeric._bisect",
        "key=lambda iv: iv.lo", "key=lambda iv: -iv.lo",
        "trial 0: 161/32..161/16 overlaps 161/256..161/128"),
}


@pytest.mark.parametrize("fault", FAULTS)
def test_criterion_fails_on_a_seeded_fault(fault, monkeypatch):
    ident, target, code, faulty, detail = FAULTS[fault]
    module_name, name = target.split(".")
    module = importlib.import_module(f"realcycle.{module_name}")
    source = textwrap.dedent(inspect.getsource(getattr(module, name)))
    assert source.count(code) == 1, f"{target}: the seeded code must occur once"
    scope = {}
    exec(compile(source.replace(code, faulty), module.__file__, "exec"), vars(module), scope)
    monkeypatch.setattr(module, name, scope[name])
    [row] = run_suite(ident)
    assert (row.ok, row.detail) == (False, detail)
