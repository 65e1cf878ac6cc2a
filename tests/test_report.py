"""The report contract: the default sweep's CSV is byte-stable.

Refactors must reproduce it exactly; rows added on purpose change the digest
and are noted in CHANGES.md.
"""

import hashlib
import io

from domlab.verify import SweepConfig, run_sweep, write_csv

CSV_SHA256 = "d5d59077ac48e95cc35ec3b7159eae308290034f36e287c06156112b5139b0cf"
REFUTED = ("prism:cycle:5|k=2|gamma-t", "prism:path:8|k=1|gamma-r",
           "prism:path:8|k=1|gamma-t")


def test_default_sweep_csv_is_byte_stable():
    report = run_sweep(SweepConfig())
    buf = io.StringIO()
    write_csv(report, buf)
    assert report.total == 6401
    assert tuple(sorted(r.instance for r in report.discrepancies)) == REFUTED
    assert hashlib.sha256(buf.getvalue().encode()).hexdigest() == CSV_SHA256
