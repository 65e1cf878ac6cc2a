import pytest

from domlab import formulas as F
from domlab.family_spec import family_graph
from domlab.graphs import complement, complementary_prism, cycle, path
from domlab.witnesses import (validate_witness, witness_complement_cycle,
                              witness_complement_path, witness_cycle_trds,
                              witness_prism_cycle_domatic_pair,
                              witness_prism_path_trds)


@pytest.mark.parametrize("n", range(4, 17))
def test_cycle_trds_witness(n):
    w = witness_cycle_trds(n)
    rep = validate_witness(cycle(n), w, 1, F.f_cycle(n, 1).value)
    assert rep.ok, rep.failures


@pytest.mark.parametrize("n", range(4, 17))
@pytest.mark.parametrize("k", [1, 2, 3])
def test_complement_cycle_witness(n, k):
    if n < k + 3:
        pytest.skip("outside stated range")
    w = witness_complement_cycle(n, k)
    rep = validate_witness(complement(cycle(n)), w, k,
                           F.f_complement_cycle(n, k).value)
    assert rep.ok, rep.failures


@pytest.mark.parametrize("n", range(4, 17))
@pytest.mark.parametrize("k", [1, 2, 3])
def test_complement_path_witness(n, k):
    if n < k + 3:
        pytest.skip("outside stated range")
    w = witness_complement_path(n, k)
    rep = validate_witness(complement(path(n)), w, k,
                           F.f_complement_path(n, k).value)
    assert rep.ok, rep.failures


@pytest.mark.parametrize("n", range(5, 13))
def test_prism_path_witness(n):
    w = witness_prism_path_trds(n)
    g = complementary_prism(path(n))
    rep = validate_witness(g, w, 1, F.f_prism_k1(n).value)
    assert rep.ok, rep.failures


KNOWN_BAD = {5}  # stated size-4 pair misses vertex 5-bar; see report allowlist


@pytest.mark.parametrize("n", range(4, 13))
def test_prism_cycle_domatic_pair(n):
    w = witness_prism_cycle_domatic_pair(n)
    g = complementary_prism(cycle(n))
    rep = validate_witness(g, w, 1, F.f_prism_k1(n).value)
    if n in KNOWN_BAD:
        assert not rep.ok
        assert any("5̄" in msg for msg in rep.failures)
    else:
        assert rep.ok, rep.failures


def test_validate_reports_failing_vertex():
    g = cycle(5)
    from domlab.witnesses import Witness
    w = Witness((frozenset({0, 1, 2, 3}),), "handmade")
    rep = validate_witness(g, w, 1, 4)
    assert not rep.valid
    assert rep.failures and "outside" in rep.failures[0]


def test_preconditions():
    with pytest.raises(ValueError):
        witness_cycle_trds(3)
    with pytest.raises(ValueError):
        witness_prism_path_trds(4)
    with pytest.raises(ValueError):
        witness_complement_cycle(4, 2)
