"""Verification suites: results do not depend on the worker count."""

import io

from qturan import bounds as B
from qturan import verify as V
from qturan.search import POOL_MIN_ITEMS, count_classes


def _csv(reports):
    out = io.StringIO()
    B.write_reports_csv(reports, out)
    return out.getvalue()


def test_bound_suite_independent_of_job_count(opened_pools):
    # orders 1..7 give 1252 graphs: enough for map_chunks to fan out
    assert sum(count_classes(n) for n in range(1, 8)) >= POOL_MIN_ITEMS
    seq = V.suite_hofmeister(n_max=7, jobs=1, collect_reports=True)
    assert not opened_pools
    par = V.suite_hofmeister(n_max=7, jobs=2, collect_reports=True)
    assert len(opened_pools) == 1
    assert (seq.checked, seq.violations, seq.findings) == (par.checked, par.violations, par.findings)
    assert len(seq.reports) == seq.checked
    assert _csv(seq.reports) == _csv(par.reports)
