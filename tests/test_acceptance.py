"""Acceptance gate: run every check of the curated verification corpus.

Each criterion prints one PASS/FAIL line (visible with ``pytest -s`` or on
failure) and is asserted together with its runtime limit.  All comparisons are
exact integer/rational equalities; there are no tolerances to tune.
"""

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
