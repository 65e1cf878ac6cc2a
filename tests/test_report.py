"""The report contract: the default sweep's CSV and summary are byte-stable.

Refactors must reproduce them exactly; rows added on purpose change the
digest and are noted in CHANGES.md.
"""

import hashlib

from domlab import cli

CSV_SHA256 = "d5d59077ac48e95cc35ec3b7159eae308290034f36e287c06156112b5139b0cf"
# the summary, the three refuted prism values and the allowlisted erratum,
# whose note names the barred vertices with a combining macron (U+0304)
STDERR = (
    "rows=6401 matched=6397 discrepancies=3 allowlisted=1\n"
    "DISCREPANCY prism:cycle:5|k=2|gamma-t: solver=8 formula=7 "
    "solver value confirmed by independent oracle\n"
    "DISCREPANCY prism:path:8|k=1|gamma-r: solver=5 formula=6 "
    "solver value confirmed by independent oracle\n"
    "DISCREPANCY prism:path:8|k=1|gamma-t: solver=5 formula=6 "
    "solver value confirmed by independent oracle\n"
    "allowlisted witness:prism-cycle-pair:5: stated size-4 pair invalid at "
    "n=5; solver confirms the claim it supports: "
    "S: vertex 5\u0304 has 0 neighbors in S, needs 1; "
    "S': vertex 1\u0304 has 0 neighbors in S, needs 1\n")


def test_default_sweep_csv_is_byte_stable(capsys, tmp_path):
    out_file = tmp_path / "report.csv"
    assert cli.main(["verify-paper", "--out", str(out_file)]) == 3
    assert capsys.readouterr().err == STDERR
    digest = hashlib.sha256(out_file.read_bytes()).hexdigest()
    assert digest == CSV_SHA256
