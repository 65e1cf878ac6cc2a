import pytest

from domlab import formulas as F
from domlab.graphs import (complement, complementary_prism, complete,
                           cycle, path)
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


# past the sweep's n <= 12, so every branch of each construction runs
@pytest.mark.parametrize("n", range(5, 41))
def test_prism_path_witness(n):
    w = witness_prism_path_trds(n)
    g = complementary_prism(path(n))
    assert validate_witness(g, w, 1) == []
    assert sizes_are(w, F.f_prism_k1(n).value)


# the stated size-4 pair at n = 5 misses vertices 5-bar and 1-bar; see the
# report allowlist
KNOWN_BAD = {5: ["S: vertex 5̄ has 0 neighbors in S, needs 1",
                 "S': vertex 1̄ has 0 neighbors in S, needs 1"]}


# n = 1 (mod 4) takes its general branch from n = 13, past the sweep's 12
@pytest.mark.parametrize("n", range(4, 41))
def test_prism_cycle_domatic_pair(n):
    w = witness_prism_cycle_domatic_pair(n)
    g = complementary_prism(cycle(n))
    assert len(w) == 2 and sizes_are(w, F.f_prism_k1(n).value)
    assert validate_witness(g, w, 1) == KNOWN_BAD.get(n, [])


def test_validate_reports_failing_vertex():
    failures = validate_witness(cycle(5), (frozenset({0, 1, 2, 3}),), 1)
    assert failures and "outside" in failures[0]


def test_validate_reports_overlapping_pair():
    # each set is a total dominating set of K4, but they share 2 and 3
    # (1-based)
    pair = (frozenset({0, 1, 2}), frozenset({1, 2, 3}))
    assert validate_witness(complete(4), pair, 1) == ["sets overlap on [2, 3]"]


def test_validate_names_overlap_by_vertex_label():
    # vertex 9 of the C6 prism is 4-bar, as in the other messages
    pair = (frozenset({0, 3, 6, 9}), frozenset({1, 4, 9, 10}))
    out = validate_witness(complementary_prism(cycle(6)), pair, 1)
    assert out[0] == "sets overlap on [4̄]"
    assert "S': vertex 4̄ has 0 neighbors in S, needs 1" in out


def test_validate_reports_vertex_outside_the_graph():
    assert validate_witness(cycle(5), (frozenset({0, 5, 7}),), 1) == \
        ["vertices outside 0..4: [5, 7]"]
    pair = (frozenset({0, 1}), frozenset({2, -1}))
    assert validate_witness(cycle(5), pair, 1) == \
        ["vertices outside 0..4: [-1]"]


@pytest.mark.parametrize("count", [0, 3])
def test_validate_reports_a_witness_of_other_than_one_or_two_sets(count):
    w = tuple(frozenset({v}) for v in range(count))
    assert validate_witness(cycle(5), w, 1) == \
        [f"a witness is one or two sets, got {count}"]


def test_preconditions():
    with pytest.raises(ValueError):
        witness_cycle_trds(3)
    with pytest.raises(ValueError):
        witness_prism_path_trds(4)
    with pytest.raises(ValueError):
        witness_complement_cycle(4, 2)
    with pytest.raises(ValueError, match=r"^witness_complement_path needs "
                                         r"n >= k\+3 >= 4$"):
        witness_complement_path(4, 2)
    with pytest.raises(ValueError, match="^witness_prism_cycle_domatic_pair "
                                         "needs n >= 4$"):
        witness_prism_cycle_domatic_pair(3)
