"""Acceptance criteria, one test per criterion, full-size sweeps.

Run with `pytest tests/test_acceptance.py -v -s` to see one PASS line per
criterion; `wildbraid selftest --full` drives the same checks from the CLI.
"""

import pytest

from wildbraid import selfcheck


@pytest.fixture(scope="module")
def sweep():
    # Criterion 4 sizes: exhaustive rank <= 4, p <= 3; 500 random irregular
    # types per family at rank <= 6, p <= 4.  Shared by criteria 4, 5, 8.
    return selfcheck.run_sweep(exhaustive_rank=4, exhaustive_p=3, random_count=500)


def report(number, name, ok, detail):
    print(f"[criterion {number}] {'PASS' if ok else 'FAIL'} {name}: {detail}")
    assert ok, f"criterion {number} ({name}): {detail}"


def test_criterion_1_sl3_example():
    ok, detail = selfcheck.criterion_sl3()
    report(1, "sl3 reproduction", ok, detail)


def test_criterion_2_presentation_triple():
    ok, detail = selfcheck.criterion_presentation_triple()
    report(2, "presentation triple", ok, detail)


def test_criterion_3_generic_sweep():
    ok, detail = selfcheck.criterion_generic_sweep(max_rank=6)
    report(3, "generic-case sweep", ok, detail)


def test_criterion_4_oracle_agreement(sweep):
    ok, detail = selfcheck.criterion_oracle_agreement(sweep)
    report(4, "oracle agreement", ok, detail)


def test_criterion_5_structural_bounds(sweep):
    ok, detail = selfcheck.criterion_structural_bounds(sweep)
    report(5, "structural bounds", ok, detail)


def test_criterion_6_exotic_type_d():
    ok, detail = selfcheck.criterion_exotic_d()
    report(6, "exotic type D", ok, detail)


def test_criterion_7_braid_operad():
    ok, detail = selfcheck.criterion_braid_operad(
        law_tuples=200, injectivity_trials=10_000
    )
    report(7, "braid operad suite", ok, detail)


def test_criterion_8_cabled_groups(sweep):
    ok, detail = selfcheck.criterion_cabled_groups(sweep)
    report(8, "cabled groups", ok, detail)


def test_criterion_9_stokes():
    ok, detail = selfcheck.criterion_stokes(count=100)
    report(9, "stokes suite", ok, detail)
