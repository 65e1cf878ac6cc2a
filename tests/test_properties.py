"""Property-based checks with hypothesis-generated graphs."""

import math
import subprocess
import sys
from pathlib import Path

from hypothesis import given, settings, strategies as st

from domlab.graphs import build_graph, complement
from domlab.predicates import is_ktds, is_ktrds
from domlab.solver import DominationQuery, gamma_exact


@st.composite
def graphs(draw, max_n=9):
    n = draw(st.integers(min_value=1, max_value=max_n))
    all_pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = draw(st.lists(st.sampled_from(all_pairs), max_size=len(all_pairs))
                 if all_pairs else st.just([]))
    return build_graph(n, edges)


@given(graphs())
def test_complement_involution(g):
    assert complement(complement(g)).adj == g.adj


@given(graphs())
def test_edge_counts_sum(g):
    assert g.num_edges + complement(g).num_edges == g.n * (g.n - 1) // 2


@given(graphs(), st.integers(min_value=1, max_value=3))
def test_restrained_implies_total(g, k):
    s = frozenset(range(0, g.n, 2))
    if is_ktrds(g, s, k):
        assert is_ktds(g, s, k)


@given(graphs(), st.integers(min_value=1, max_value=2))
def test_ktds_superset_monotone(g, k):
    s = frozenset(range(0, g.n, 2))
    if is_ktds(g, s, k):
        assert is_ktds(g, frozenset(range(g.n)), k)


@settings(deadline=None, max_examples=40)
@given(graphs(max_n=8))
def test_gamma_bounds(g):
    if g.min_degree < 1:
        return
    res = gamma_exact(DominationQuery(g, 1))
    assert res.feasible
    assert 2 <= res.value <= g.n
    assert is_ktrds(g, res.certificate, 1)
    # restrained value of a spanning-subgraph-free statement: at least the
    # total value
    total = gamma_exact(DominationQuery(g, 1, "total"))
    assert total.value <= res.value


PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

FAILING_GIVEN = """
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(x):
    assert x < 0


def test_passes():
    pass
"""


def test_failing_given_test_leaves_the_rest_of_the_run(tmp_path):
    # under the repo's warning filters, hypothesis's failure report must not
    # turn into an INTERNALERROR that stops every later test
    (tmp_path / "test_given.py").write_text(FAILING_GIVEN)
    out = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", str(PYPROJECT), "--rootdir", str(tmp_path), "test_given.py"],
        cwd=tmp_path, capture_output=True, text=True).stdout
    assert "INTERNALERROR" not in out
    assert "1 failed, 1 passed" in out
