"""Acceptance suite: one test per criterion, one printed PASS/FAIL line each.

Criterion 5 is honest-red: three stated prism values are contradicted by the
solver AND the independent naive oracle (see the analysis in the failure
message). Everything the solver computes there is double-checked; what fails
is the source material, not the code.
"""

import io
import time

import pytest

from domlab.verify import (SECTIONS, Report, SweepConfig, check_multipartite,
                           check_oracle, check_prisms, check_properties,
                           check_sandwich, check_witnesses, run_sweep,
                           write_csv)


def _summarize(rows):
    disc = [r for r in rows if r.discrepancy]
    return disc


def _line(num, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"criterion {num}: {status}" + (f" ({detail})" if detail else ""))


def test_criterion_1_complete_graphs():
    t0 = time.time()
    rows = SECTIONS["complete"]()
    elapsed = time.time() - t0
    disc = _summarize(rows)
    ok = not disc and elapsed < 10
    _line(1, ok, f"{len(rows)} instances, {elapsed:.1f}s")
    assert not disc, disc
    assert elapsed < 10


def test_criterion_2_cycles():
    rows = SECTIONS["cycles"]()
    disc = _summarize(rows)
    _line(2, not disc, f"{len(rows)} instances")
    assert not disc, disc


def test_criterion_3_complements():
    rows = SECTIONS["complements"]()
    disc = _summarize(rows)
    _line(3, not disc, f"{len(rows)} instances")
    assert not disc, disc


def test_criterion_4_bipartite_multipartite():
    rows = SECTIONS["bipartite"]() + check_multipartite()
    disc = _summarize(rows)
    _line(4, not disc, f"{len(rows)} instances")
    assert not disc, disc


# the three instances where computation contradicts the stated values;
# each is confirmed by the independent subset-scan oracle in check_prisms
REFUTED = {
    "prism:cycle:5|k=2|gamma-t": ("8", "7"),
    "prism:path:8|k=1|gamma-t": ("5", "6"),
    "prism:path:8|k=1|gamma-r": ("5", "6"),
}


def test_criterion_5_prisms_honest_red():
    t0 = time.time()
    rows = check_prisms()
    elapsed = time.time() - t0
    assert elapsed < 300
    disc = _summarize(rows)
    unexpected = [r for r in disc if r.instance not in REFUTED]
    assert not unexpected, unexpected
    # the solver values behind each refutation must be oracle-confirmed
    for inst, (solver_v, stated_v) in REFUTED.items():
        row = next(r for r in rows if r.instance == inst)
        assert (row.solver, row.formula) == (solver_v, stated_v)
        confirm = next(r for r in rows
                       if r.instance == inst + "|oracle-confirm")
        assert confirm.match, f"oracle does not confirm {inst}"
    _line(5, False, "3 stated values refuted; solver+oracle agree")
    pytest.fail(
        "criterion 5 is honestly red: three stated prism values are "
        "contradicted by exact computation, with the branch-and-bound kernel "
        "and the independent unpruned oracle in full agreement.\n"
        "  - 2-tuple total domination of the C5 prism (Petersen graph): "
        "stated n+2 = 7, computed 8.\n"
        "  - total domination of the P8 prism: stated 6, computed 5 "
        "(certificate {2, 2-bar, 5, 6, 8-bar}, hand-checkable).\n"
        "  - total restrained domination of the P8 prism: stated 6, "
        "computed 5 (same certificate is already restrained).\n"
        "The n = 0 (mod 4) branch of the prism-of-path formulas appears to "
        "be off by one (n = 12 computes 7, also below the stated 8). All "
        "other prism instances for n = 4..8, both variants, match exactly.")


def test_criterion_6_oracle_equivalence():
    rows = check_oracle(seed=20230417, random_count=500)
    disc = _summarize(rows)
    _line(6, not disc, f"{len(rows)} comparisons")
    assert not disc, disc


def test_criterion_7_theorem_suites():
    rows = check_properties(seed=20230417, random_count=200)
    rows += check_sandwich()
    disc = _summarize(rows)
    _line(7, not disc, f"{len(rows)} property checks")
    assert not disc, disc


def test_criterion_8_witness_validation():
    rows = check_witnesses()
    disc = _summarize(rows)
    assert not disc, disc
    # allowlisted failures must be individually reported with the failing
    # vertex condition
    allow_fail = [r for r in rows if r.allowlisted and not r.match]
    assert len(allow_fail) == 1
    assert allow_fail[0].instance == "witness:prism-cycle-pair:5"
    assert "neighbors in S" in allow_fail[0].note
    _line(8, True, "all witnesses valid except the reported "
                   "prism-pair n=5 transcription slip")


def test_criterion_9_determinism():
    config = SweepConfig(seed=20230417, oracle_random=60, property_random=60)
    buf1, buf2 = io.StringIO(), io.StringIO()
    write_csv(run_sweep(config), buf1)
    write_csv(run_sweep(config), buf2)
    ok = buf1.getvalue() == buf2.getvalue()
    _line(9, ok, f"{len(buf1.getvalue().splitlines())} CSV lines compared")
    assert ok
