import pytest

from domlab.graphs import build_graph, complementary_prism, complete, cycle
from domlab.predicates import (failures, is_ktdp, is_ktds, is_ktrdp,
                               is_ktrds, ktds_batch)
from domlab.smallgraphs import all_graphs
from domlab.solver import subset_levels


def test_ktds_basic_cycle():
    g = cycle(6)
    assert is_ktds(g, {1, 2, 4, 5}, 1)
    assert not is_ktds(g, {1, 2}, 1)  # vertex 4 undominated
    assert is_ktds(g, range(6), 2)


def test_total_condition_applies_inside_set():
    g = build_graph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
    # {0, 2} dominates everything outside but neither member has a neighbor in it
    assert not is_ktds(g, {0, 2}, 1)


def test_ktrds_requires_outside_neighbors():
    g = cycle(5)
    # {1, 2} is a TDS of C5 (covers 0,1,2,3 via 1,2... check) - build explicitly
    assert is_ktds(g, {0, 1, 2, 3}, 1)
    # vertex 4 outside has neighbors {3, 0}, both inside: restrained fails
    assert not is_ktrds(g, {0, 1, 2, 3}, 1)
    assert is_ktrds(g, {1, 2, 3}, 1)


def test_whole_vertex_set_is_always_ktrds_when_degrees_allow():
    g = complete(5)
    assert is_ktrds(g, range(5), 2)
    assert not is_ktrds(g, range(5), 5)


def test_partition_predicates():
    g = complete(6)
    part = [{0, 1}, {2, 3}, {4, 5}]
    assert is_ktdp(g, part, 1)
    assert is_ktrdp(g, part, 1)
    assert not is_ktdp(g, [{0, 1}, {2, 3}], 1)  # not covering
    assert not is_ktdp(g, [{0, 1}, {1, 2, 3, 4, 5}], 1)  # overlap


def test_failure_messages_name_vertices():
    g = cycle(5)
    msgs = failures(g, {0, 1, 2, 3}, 1, True)
    assert any("outside" in m for m in msgs)
    assert failures(g, {0, 1}, 1, False)


def test_failure_messages_exact_text_on_labelled_prism():
    g = complementary_prism(cycle(5))
    assert failures(g, {0, 1, 2, 3, 5}, 2, True) == [
        "vertex 4 has 1 neighbors in S, needs 2",
        "vertex 1̄ has 1 neighbors in S, needs 2",
        "vertex 2̄ has 1 neighbors in S, needs 2",
        "vertex 5̄ has 0 neighbors in S, needs 2",
        "vertex 5 outside S has 1 neighbors outside S, needs 2",
        "vertex 3̄ outside S has 1 neighbors outside S, needs 2",
        "vertex 4̄ outside S has 1 neighbors outside S, needs 2"]


def test_out_of_range_vertices_rejected():
    # every set-form entry point validates, a partition each of its classes
    g = cycle(4)
    checks = [lambda s: is_ktds(g, s, 1), lambda s: is_ktrds(g, s, 1),
              lambda s: failures(g, s, 1, False),
              lambda s: failures(g, s, 1, True),
              lambda s: is_ktdp(g, [{1, 2, 3}, s], 1),
              lambda s: is_ktrdp(g, [{1, 2, 3}, s], 1)]
    for check in checks:
        with pytest.raises(ValueError,
                           match=r"^vertices outside 0\.\.3: \[-1, 9\]$"):
            check({0, 9, -1})


def test_mask_predicate_matches_set_predicates():
    # every mask of one call, for k' = 1..3 and both variants, against every
    # bit of every batch read back as a vertex set; a call from lo = 2 and a
    # total-only call return the same masks for the k' they cover
    for n in range(1, 7):
        batches = list(subset_levels(n))
        for g in all_graphs(n):
            for count, cols in batches:
                full = (1 << count) - 1
                sets = [[u for u in range(n) if cols[u] >> i & 1]
                        for i in range(count)]
                total, restr = ktds_batch(g.masks, cols, full, 3, 1, True)
                for k in (1, 2, 3):
                    for masks, pred in ((total, is_ktds), (restr, is_ktrds)):
                        assert masks[k - 1] == sum(
                            1 << i for i, s in enumerate(sets)
                            if pred(g, s, k))
                assert ktds_batch(g.masks, cols, full, 3, 2, True) == \
                    (total[1:], restr[1:])
                assert ktds_batch(g.masks, cols, full, 3, 1, False) == \
                    (total, [])
