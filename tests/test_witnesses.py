import pytest

from domlab import formulas as F
from domlab.graphs import complement, complementary_prism, cycle, path
from domlab.witnesses import (validate_witness, witness_complement_cycle,
                              witness_complement_path, witness_cycle_trds,
                              witness_prism_cycle_domatic_pair,
                              witness_prism_path_trds)


def sizes_are(w, expected):
    return all(len(s) == expected for s in w)


@pytest.mark.parametrize("n", range(4, 17))
def test_cycle_trds_witness(n):
    w = witness_cycle_trds(n)
    assert validate_witness(cycle(n), w, 1) == []
    assert sizes_are(w, F.f_cycle(n, 1).value)


@pytest.mark.parametrize("n", range(4, 17))
@pytest.mark.parametrize("k", [1, 2, 3])
def test_complement_cycle_witness(n, k):
    if n < k + 3:
        pytest.skip("outside stated range")
    w = witness_complement_cycle(n, k)
    assert validate_witness(complement(cycle(n)), w, k) == []
    assert sizes_are(w, F.f_complement_cycle(n, k).value)


@pytest.mark.parametrize("n", range(4, 17))
@pytest.mark.parametrize("k", [1, 2, 3])
def test_complement_path_witness(n, k):
    if n < k + 3:
        pytest.skip("outside stated range")
    w = witness_complement_path(n, k)
    assert validate_witness(complement(path(n)), w, k) == []
    assert sizes_are(w, F.f_complement_path(n, k).value)


@pytest.mark.parametrize("n", range(5, 13))
def test_prism_path_witness(n):
    w = witness_prism_path_trds(n)
    g = complementary_prism(path(n))
    assert validate_witness(g, w, 1) == []
    assert sizes_are(w, F.f_prism_k1(n).value)


KNOWN_BAD = {5}  # stated size-4 pair misses vertex 5-bar; see report allowlist


@pytest.mark.parametrize("n", range(4, 13))
def test_prism_cycle_domatic_pair(n):
    w = witness_prism_cycle_domatic_pair(n)
    g = complementary_prism(cycle(n))
    failures = validate_witness(g, w, 1)
    assert len(w) == 2 and sizes_are(w, F.f_prism_k1(n).value)
    if n in KNOWN_BAD:
        assert any("5̄" in msg for msg in failures)
    else:
        assert failures == []


def test_validate_reports_failing_vertex():
    failures = validate_witness(cycle(5), (frozenset({0, 1, 2, 3}),), 1)
    assert failures and "outside" in failures[0]


def test_preconditions():
    with pytest.raises(ValueError):
        witness_cycle_trds(3)
    with pytest.raises(ValueError):
        witness_prism_path_trds(4)
    with pytest.raises(ValueError):
        witness_complement_cycle(4, 2)
