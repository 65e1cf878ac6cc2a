import random
from collections import Counter
from dataclasses import fields
from itertools import (accumulate, combinations,
                       combinations_with_replacement, product)
from math import comb

import pytest

from domlab.family_spec import family_graph
from domlab.formulas import f_domatic_complete, f_multipartite_bounds
from domlab.graphs import (Graph, build_graph, complement, complementary_prism,
                           complete, complete_bipartite, complete_multipartite,
                           cycle, path)
from domlab.predicates import is_ktdp, is_ktds, is_ktrdp, is_ktrds
from domlab.smallgraphs import all_graphs
from domlab import solver
from domlab.solver import (BATCH_SETS, VARIANT_RESTRAINED, VARIANT_TOTAL,
                           DominationQuery, Guards, GuardExceeded,
                           active_backend, domatic_exact,
                           enumerate_domatic_partitions,
                           enumerate_optimal_sets, gamma_exact, gamma_naive,
                           gamma_naive_all, subset_levels, t0_exact)
from domlab.verify import random_graph


def test_active_backend_is_pure_python():
    assert active_backend() == "pure-python"


def test_gamma_on_cycles():
    # classic k=1 restrained values on cycles
    expect = {4: 2, 5: 3, 6: 4, 7: 5, 8: 4, 9: 5, 10: 6, 11: 7, 12: 6}
    for n, v in expect.items():
        res = gamma_exact(DominationQuery(cycle(n), 1))
        assert res.feasible and res.value == v
        assert is_ktrds(cycle(n), res.certificate, 1)


def test_gamma_total_vs_restrained_monotone():
    for g in (cycle(7), complete_bipartite(3, 4), complementary_prism(cycle(4))):
        t = gamma_exact(DominationQuery(g, 1, "total")).value
        r = gamma_exact(DominationQuery(g, 1, "total-restrained")).value
        assert t <= r


def test_gamma_infeasible_low_degree():
    res = gamma_exact(DominationQuery(path(5), 2))
    assert not res.feasible and res.value is None


def test_certificate_is_an_optimal_set():
    # the oracle's certificate is the first optimal set; the kernel's is one
    # of the optimal sets
    q = DominationQuery(complete(6), 1)
    assert sorted(gamma_naive(q).certificate) == [0, 1]
    assert gamma_exact(q).certificate in enumerate_optimal_sets(q)


# gamma_exact's node count and certificate on the prisms of C_n and P_n,
# n = 6..9 (variant t = total, r = total-restrained); 1,040 nodes in all.
# Each entry builds its own graph, so no restrained solve starts at the
# value of the total before it. A kernel change that moves these updates
# the table and says so.
PRISM_SEARCH_PINS = {
    ("cycle", 6, 1, "t"): (18, (1, 4, 7, 10)),
    ("cycle", 6, 1, "r"): (18, (1, 4, 7, 10)),
    ("cycle", 6, 2, "t"): (37, (0, 1, 2, 3, 4, 5, 8, 11)),
    ("cycle", 6, 2, "r"): (3, (0, 1, 2, 3, 4, 5, 8, 11)),
    ("cycle", 7, 1, "t"): (43, (0, 1, 4, 7, 11)),
    ("cycle", 7, 1, "r"): (43, (0, 1, 4, 7, 11)),
    ("cycle", 7, 2, "t"): (70, (0, 1, 2, 3, 4, 5, 6, 9, 12)),
    ("cycle", 7, 2, "r"): (3, (0, 1, 2, 3, 4, 5, 6, 9, 12)),
    ("cycle", 8, 1, "t"): (98, (0, 1, 2, 4, 5, 9)),
    ("cycle", 8, 1, "r"): (98, (0, 1, 2, 4, 5, 9)),
    ("cycle", 8, 2, "t"): (79, (0, 1, 2, 3, 4, 5, 6, 7, 10, 13)),
    ("cycle", 8, 2, "r"): (3, (0, 1, 2, 3, 4, 5, 6, 7, 10, 13)),
    ("cycle", 9, 1, "t"): (69, (0, 1, 2, 5, 6, 10)),
    ("cycle", 9, 1, "r"): (69, (0, 1, 2, 5, 6, 10)),
    ("cycle", 9, 2, "t"): (102, (0, 1, 2, 3, 4, 5, 6, 7, 8, 11, 14)),
    ("cycle", 9, 2, "r"): (3, (0, 1, 2, 3, 4, 5, 6, 7, 8, 11, 14)),
    ("path", 6, 1, "t"): (11, (1, 4, 7, 10)),
    ("path", 6, 1, "r"): (11, (1, 4, 7, 10)),
    ("path", 6, 2, "t"): (20, (0, 1, 2, 3, 4, 5, 6, 11)),
    ("path", 6, 2, "r"): (5, (0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11)),
    ("path", 7, 1, "t"): (19, (0, 1, 4, 5, 7)),
    ("path", 7, 1, "r"): (19, (0, 1, 4, 5, 7)),
    ("path", 7, 2, "t"): (14, (0, 1, 2, 3, 4, 5, 6, 7, 13)),
    ("path", 7, 2, "r"): (2, (0, 1, 2, 3, 4, 5, 6, 7, 13)),
    ("path", 8, 1, "t"): (32, (1, 4, 5, 9, 15)),
    ("path", 8, 1, "r"): (32, (1, 4, 5, 9, 15)),
    ("path", 8, 2, "t"): (14, (0, 1, 2, 3, 4, 5, 6, 7, 8, 15)),
    ("path", 8, 2, "r"): (2, (0, 1, 2, 3, 4, 5, 6, 7, 8, 15)),
    ("path", 9, 1, "t"): (43, (0, 1, 4, 7, 13, 16)),
    ("path", 9, 1, "r"): (43, (0, 1, 4, 7, 13, 16)),
    ("path", 9, 2, "t"): (15, (0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 17)),
    ("path", 9, 2, "r"): (2, (0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 17)),
}


def test_gamma_exact_prism_node_counts_pinned():
    got = {}
    for fam, n, k, v in PRISM_SEARCH_PINS:
        g = complementary_prism((cycle if fam == "cycle" else path)(n))
        variant = VARIANT_RESTRAINED if v == "r" else VARIANT_TOTAL
        res = gamma_exact(DominationQuery(g, k, variant))
        got[fam, n, k, v] = (res.nodes_explored, tuple(sorted(res.certificate)))
    assert got == PRISM_SEARCH_PINS
    assert sum(nodes for nodes, _ in got.values()) == 1040


def _check_kernel_against_oracle(q) -> None:
    """The kernel's value is the oracle's, and its certificate is one of the
    optimal sets, the first of which is the oracle's certificate."""
    res, naive, optimal = (gamma_exact(q), gamma_naive(q),
                           enumerate_optimal_sets(q))
    assert res.value == naive.value, (q.graph.edges(), q.k, q.variant)
    assert res.certificate in optimal, (q.graph.edges(), q.k, q.variant)
    assert naive.certificate == optimal[0]


def _certificate_cases_to_seven():
    """(graph, k): every graph of all_graphs(n), n = 2..7, with k = 1..3 up
    to its minimum degree."""
    for n in range(2, 8):
        for g in all_graphs(n):
            for k in range(1, min(g.min_degree, 3) + 1):
                yield g, k


def test_kernel_certificate_is_an_optimal_set():
    # soundness of every prune: the kernel finds an optimal set of the
    # exhaustive scan, and the oracle the first one
    cases = 0
    for g, k in _certificate_cases_to_seven():
        for variant in (VARIANT_TOTAL, VARIANT_RESTRAINED):
            _check_kernel_against_oracle(DominationQuery(g, k, variant))
            cases += 1
    assert cases == 3606


# gamma_exact's search nodes summed over _certificate_cases_to_seven for each
# (n, k, variant), t = total and r = total-restrained; every triple not
# listed sums to 0. Every level the deepening searches or skips shows here:
# searching level n of the total variant as well adds 347 nodes. Each
# restrained solve runs before its total, so none starts at the total's
# value (GAMMA_FLOORED_NODE_PINS has those).
GAMMA_NODE_PINS = {
    (3, 1, "t"): 4, (4, 1, "t"): 12, (4, 1, "r"): 7, (4, 2, "t"): 6,
    (5, 1, "t"): 55, (5, 1, "r"): 43, (5, 2, "t"): 34, (5, 3, "t"): 8,
    (6, 1, "t"): 342, (6, 1, "r"): 307, (6, 2, "t"): 259, (6, 2, "r"): 21,
    (6, 3, "t"): 57, (7, 1, "t"): 2_639, (7, 1, "r"): 2_779,
    (7, 2, "t"): 2_821, (7, 2, "r"): 433, (7, 3, "t"): 886,
}


def test_gamma_node_pins(monkeypatch):
    # forget the last total solve, which another test may have left
    monkeypatch.setattr(solver, "_last_total", (None, 0, 0, 0))
    got = {}
    cases = 0
    for g, k in _certificate_cases_to_seven():
        for v, variant in (("r", VARIANT_RESTRAINED), ("t", VARIANT_TOTAL)):
            nodes = gamma_exact(DominationQuery(g, k, variant)).nodes_explored
            if nodes:
                got[g.n, k, v] = got.get((g.n, k, v), 0) + nodes
            cases += 1
    assert got == GAMMA_NODE_PINS
    assert sum(got.values()) == 10_713
    assert cases == 3606


# the restrained nodes of GAMMA_NODE_PINS, 3,590 in all, when each
# restrained solve runs right after the total of its graph and k: it answers
# with the total's set when that set is a kTRDS, and otherwise starts its
# search at the total's value; the README's prism:cycle:16 at k = 1 takes
# no node so (211 alone, see ALONE)
GAMMA_FLOORED_NODE_PINS = {
    (4, 1): 1, (5, 1): 21, (6, 1): 156, (6, 2): 6, (7, 1): 1_488,
    (7, 2): 269,
}


def test_gamma_floored_node_pins():
    got = {}
    for g, k in _certificate_cases_to_seven():
        gamma_exact(DominationQuery(g, k, VARIANT_TOTAL))
        nodes = gamma_exact(DominationQuery(g, k, VARIANT_RESTRAINED)
                            ).nodes_explored
        if nodes:
            got[g.n, k] = got.get((g.n, k), 0) + nodes
    assert got == GAMMA_FLOORED_NODE_PINS
    assert sum(got.values()) == 1_941
    g, guards = family_graph("prism:cycle:16"), Guards(gamma_n=40)
    gamma_exact(DominationQuery(g, 1, VARIANT_TOTAL), guards)
    assert gamma_exact(DominationQuery(g, 1, VARIANT_RESTRAINED),
                       guards).nodes_explored == 0


def _certificate_cases_past_seven():
    """(graph, k): four seeded G(n, p) for each n = 8..12, p in {0.3, 0.5}
    and k = 1..3, resampled until min degree >= k, and the prisms of C_n and
    P_n for n = 4..6."""
    rng = random.Random(20230417)
    for n, p, k, _ in product(range(8, 13), (0.3, 0.5), (1, 2, 3), range(4)):
        g = random_graph(rng, n, p)
        while g.min_degree < k:
            g = random_graph(rng, n, p)
        yield g, k
    for base in (cycle, path):
        for n in range(4, 7):
            g = complementary_prism(base(n))
            for k in range(1, min(g.min_degree, 3) + 1):
                yield g, k


def test_kernel_certificate_is_an_optimal_set_past_seven():
    # the same check on graphs larger than all_graphs' lists
    cases = 0
    for g, k in _certificate_cases_past_seven():
        for variant in (VARIANT_TOTAL, VARIANT_RESTRAINED):
            _check_kernel_against_oracle(DominationQuery(g, k, variant))
            cases += 1
    assert cases == 268


# values and certificates (the optimal sets the kernel finds) of two deep
# prisms at k = 1 and k = 2, the same for both variants; the node ceiling is
# the machine-independent check on the kernel's speed
DEEP_PRISMS = {
    ("prism:cycle:16", 1): (9, (0, 1, 4, 5, 8, 11, 12, 24, 30)),
    ("prism:path:20", 1): (11, (1, 2, 5, 6, 9, 10, 14, 15, 18, 32, 38)),
    ("prism:cycle:16", 2): (18, (*range(16), 18, 21)),
    ("prism:path:20", 2): (22, (*range(21), 39)),
}


@pytest.mark.parametrize("variant", [VARIANT_TOTAL, VARIANT_RESTRAINED])
@pytest.mark.parametrize("family,k", sorted(DEEP_PRISMS), ids=[
    family if k == 1 else f"{family}-k{k}" for family, k in sorted(DEEP_PRISMS)])
def test_deep_prism_solves_under_node_ceiling(family, k, variant):
    g = family_graph(family)
    res = gamma_exact(DominationQuery(g, k, variant), Guards(gamma_n=40))
    assert (res.value, tuple(sorted(res.certificate))) == \
        DEEP_PRISMS[family, k]
    assert (is_ktrds if variant == VARIANT_RESTRAINED else is_ktds)(
        g, res.certificate, k)
    assert res.nodes_explored <= 10_000


def test_restrained_after_total_is_the_standalone_solve(monkeypatch):
    # a restrained solve right after the total of its graph and k answers
    # with the total's set when it is a kTRDS and otherwise starts at
    # γ_t <= γ^r: the same value and certificate as alone, in no more nodes.
    # Each case's first restrained solve follows the total of the case
    # before, another graph or another k, so it runs alone
    monkeypatch.setattr(solver, "_last_total", (None, 0, 0, 0))
    guards = Guards(gamma_n=40)
    cases = fewer = 0
    for g, k in (*_certificate_cases_to_seven(),
                 *_certificate_cases_past_seven(),
                 *((family_graph(family), k)
                   for family, k in sorted(DEEP_PRISMS))):
        restrained = DominationQuery(g, k, VARIANT_RESTRAINED)
        alone = gamma_exact(restrained, guards)
        gamma_exact(DominationQuery(g, k, VARIANT_TOTAL), guards)
        after = gamma_exact(restrained, guards)
        assert (after.value, after.certificate) == \
            (alone.value, alone.certificate), (g.edges(), k)
        assert after.nodes_explored <= alone.nodes_explored, (g.edges(), k)
        fewer += after.nodes_explored < alone.nodes_explored
        cases += 1
    assert (cases, fewer) == (1803 + 134 + 4, 715)


# what a restrained solve at k = 1 gives alone: value, certificate, nodes
ALONE = {"complete:7": (2, (0, 1), 2),
         "prism:cycle:16": (*DEEP_PRISMS["prism:cycle:16", 1], 211)}


def _restrained_after_total(total_graph, total_k, g):
    """The total value of total_graph at total_k, and the restrained result
    at k = 1 of g solved right after it."""
    guards = Guards(gamma_n=40)
    t = gamma_exact(DominationQuery(total_graph, total_k, VARIANT_TOTAL),
                    guards)
    res = gamma_exact(DominationQuery(g, 1, VARIANT_RESTRAINED), guards)
    return t.value, (res.value, tuple(sorted(res.certificate)),
                     res.nodes_explored)


@pytest.mark.parametrize("family,other", [("complete:7", "cycle:7"),
                                          ("prism:cycle:16", "cycle:32")])
def test_restrained_after_another_graphs_total_runs_alone(family, other):
    # the same n and k: a start at the other graph's value, above this
    # one's, would change the value
    g, h = family_graph(family), family_graph(other)
    assert g.n == h.n
    total, got = _restrained_after_total(h, 1, g)
    assert total > ALONE[family][0]
    assert got == ALONE[family]


@pytest.mark.parametrize("family,total_k", [("complete:7", 3),
                                            ("prism:cycle:16", 2)])
def test_restrained_after_a_total_at_another_k_runs_alone(family, total_k):
    # the same graph: a start at its value for the larger k would change
    # the value
    g = family_graph(family)
    total, got = _restrained_after_total(g, total_k, g)
    assert total > ALONE[family][0]
    assert got == ALONE[family]


def test_restrained_value_never_starts_a_total_solve():
    # γ_t = 2 < γ^r = 3 here: a total solve after the restrained one must
    # not start at 3. Solved alternately, each gives its own value and set
    g = all_graphs(7)[401]
    assert g.edges() == [(0, 3), (0, 5), (1, 4), (1, 5), (2, 5), (2, 6),
                         (3, 6), (4, 6), (5, 6)]
    got = [gamma_exact(DominationQuery(g, 1, variant))
           for variant in (VARIANT_TOTAL, VARIANT_RESTRAINED) * 2]
    assert [r.value for r in got] == [2, 3, 2, 3]
    assert got[2].certificate == got[0].certificate
    assert got[3].certificate == got[1].certificate
    assert is_ktds(g, got[2].certificate, 1)


def _union_cases():
    """(union, its two parts, k): 30 disjoint unions of two seeded
    G(n, 0.4) graphs with 10-18 vertices each, so 20-36 in all, past the
    naive guard, for every k <= 3 up to the union's minimum degree."""
    rng = random.Random(20230417)
    for _ in range(30):
        g, h = (random_graph(rng, rng.randint(10, 18), 0.4) for _ in range(2))
        union = Graph(g.masks + tuple(m << g.n for m in h.masks))
        for k in range(1, min(union.min_degree, 3) + 1):
            yield union, (g, h), k


def test_metamorphic_relations_past_the_naive_guard(monkeypatch):
    # no oracle reaches these sizes, so the kernel is checked against itself
    # by three relations that hold for every graph, on values only: γ of a
    # disjoint union is the sum over its parts, a relabelling keeps γ, and a
    # restrained solve right after its total gives the value it gives alone.
    # Every solve but that one starts with an empty slot
    guards = Guards(gamma_n=36)
    rng = random.Random(5)

    def alone(g, k, variant):
        monkeypatch.setattr(solver, "_last_total", (None, 0, 0, 0))
        return gamma_exact(DominationQuery(g, k, variant), guards).value

    failures = []
    cases = 0
    for union, parts, k in _union_cases():
        perm = rng.sample(range(union.n), union.n)
        relabelled = build_graph(union.n, [(perm[u], perm[v])
                                           for u, v in union.edges()])
        alone_values = {}
        for variant in (VARIANT_RESTRAINED, VARIANT_TOTAL):
            parts_value = sum(alone(part, k, variant) for part in parts)
            relabelled_value = alone(relabelled, k, variant)
            value = alone_values[variant] = alone(union, k, variant)
            if value != parts_value:
                failures.append(("union", union.n, k, variant))
            if value != relabelled_value:
                failures.append(("relabelled", union.n, k, variant))
            cases += 1
        # the union's total solve ran last, so this one follows it
        if gamma_exact(DominationQuery(union, k, VARIANT_RESTRAINED),
                       guards).value != alone_values[VARIANT_RESTRAINED]:
            failures.append(("after total", union.n, k))
    assert failures == []
    assert cases == 110


def _levels_after(g, k, value):
    """What _next_level answers after each level s = k..value-1 of g fails
    (no kTDS has k vertices, so level k always does)."""
    deg = [m.bit_count() for m in g.masks]
    ranked = sorted(deg, reverse=True)
    reach = list(accumulate(ranked))
    return [solver._next_level(g.masks, deg, ranked, reach, k, s)
            for s in range(k, value)]


def test_demand_start_never_passes_the_value():
    # the deepening moves on to the demand bound once a level fails; a start
    # above the value would skip the level that has the answer. Checked
    # after every level below the value, against the oracle on the cases
    # of both certificate tests and against the deep prisms' values; the
    # bound skips at least one level in `skips` of them
    cases = skips = 0
    for g, k in (*_certificate_cases_to_seven(),
                 *_certificate_cases_past_seven()):
        for variant in (VARIANT_TOTAL, VARIANT_RESTRAINED):
            value = gamma_naive(DominationQuery(g, k, variant)).value
            nxt = _levels_after(g, k, value)
            assert all(s < v <= value for s, v in enumerate(nxt, k)), \
                (g.edges(), k, variant, value, nxt)
            skips += any(v > s + 1 for s, v in enumerate(nxt, k))
            cases += 1
    for (family, k), (value, _) in DEEP_PRISMS.items():
        nxt = _levels_after(family_graph(family), k, value)
        assert all(s < v <= value for s, v in enumerate(nxt, k)), \
            (family, k, nxt)
        skips += any(v > s + 1 for s, v in enumerate(nxt, k))
    assert (cases, skips) == (3606 + 268, 1352)


def test_demand_start_closes_the_path_prism():
    # prism:path:20 at k = 2: the degrees start the deepening at 5, and
    # the demand of the 20 path vertices, of degree 2 and 3, moves it to
    # 22, the value; searching every level from 5 takes 346 nodes
    res = gamma_exact(DominationQuery(family_graph("prism:path:20"), 2,
                                      VARIANT_TOTAL), Guards(gamma_n=40))
    assert res.value == 22
    assert res.nodes_explored <= 26


def test_naive_certificate_is_valid_and_minimum_sized():
    graphs = list(all_graphs(5)) + [cycle(9), complementary_prism(cycle(5))]
    for g in graphs:
        for k in (1, 2, 3):
            if g.min_degree < k:
                continue
            for variant, pred in (("total", is_ktds),
                                  ("total-restrained", is_ktrds)):
                res = gamma_naive(DominationQuery(g, k, variant))
                assert res.feasible and len(res.certificate) == res.value
                assert pred(g, res.certificate, k)


def _first_set_by_combinations(g, k, pred):
    """(size, set, 1-based rank) of the first set in combinations order,
    size by size, that pred accepts; None when no set does."""
    rank = 0
    for size in range(g.n + 1):
        for s in combinations(range(g.n), size):
            rank += 1
            if pred(g, s, k):
                return size, frozenset(s), rank
    return None


def test_naive_raises_when_a_column_hit_fails_the_set_form(monkeypatch):
    # the empty set (set 0 of the first batch) is no kTDS
    real = solver.ktds_batch

    def with_empty(*args):
        total, restr = real(*args)
        return [m | 1 for m in total], [m | 1 for m in restr]

    monkeypatch.setattr(solver, "ktds_batch", with_empty)
    for variant in (VARIANT_TOTAL, VARIANT_RESTRAINED):
        with pytest.raises(RuntimeError, match=r"^gamma_naive: \[\] passes "
                           "the column predicate but not the set form$"):
            gamma_naive(DominationQuery(cycle(5), 1, variant))


def test_naive_matches_combinations_scan():
    # value, certificate and subset count (the first hit's rank) of
    # gamma_naive and of the per-graph scan, gamma_naive_all, against a
    # from-scratch scan that shares nothing with the column predicate. On
    # 13..15 vertices the subsets run over several batches and some first
    # hits lie past the first one; there an infeasible pair is not scanned
    # by combinations, which would test all 2^n sets
    rng = random.Random(14)
    seeded = [random_graph(rng, n, p) for n in (8, 9, 10) for p in (0.4, 0.6)]
    large = [cycle(13), complementary_prism(cycle(7)),
             random_graph(random.Random(16), 15, 0.5)]
    cases = past = 0
    for g in [g for n in range(1, 7) for g in all_graphs(n)] + seeded + large:
        per_graph = gamma_naive_all(g, 3)
        assert len(per_graph) == 6
        first_batch, _ = next(subset_levels(g.n))
        for k in (1, 2, 3):
            for variant, pred in ((VARIANT_TOTAL, is_ktds),
                                  (VARIANT_RESTRAINED, is_ktrds)):
                res = gamma_naive(DominationQuery(g, k, variant))
                assert per_graph[k, variant] == res, (g.edges(), k, variant)
                if g.n > 12 and g.min_degree < k:
                    assert not res.feasible
                    continue
                want = _first_set_by_combinations(g, k, pred)
                if want is None:
                    assert not res.feasible, (g.edges(), k, variant)
                    continue
                assert (res.value, res.certificate, res.nodes_explored) == \
                    want, (g.edges(), k, variant)
                cases += 1
                past += res.nodes_explored > first_batch
    assert (cases, past) == (550, 10)


def test_naive_scan_deep_in_cycle_24():
    # the default naive_n cap: the first kTRDS lies 12 sizes deep, past
    # batches that each hold one size
    try:
        res = gamma_naive(DominationQuery(cycle(24), 1))
        assert (res.value, res.nodes_explored) == (12, 7_531_537)
    finally:
        solver._batch.cache_clear()


def test_subset_levels_run_in_combinations_order():
    # every subset in combinations order, size by size; a batch holds whole
    # sizes and stops at the first size that takes it to BATCH_SETS sets
    for n in range(15):
        got = []
        batches = list(subset_levels(n))
        for count, cols in batches:
            assert len(cols) == n
            assert all(c >> count == 0 for c in cols)
            sets = [tuple(u for u in range(n) if cols[u] >> i & 1)
                    for i in range(count)]
            first, last = len(sets[0]), len(sets[-1])
            assert sets[0] == tuple(range(first))
            assert sets[-1] == tuple(range(n - last, n))
            assert count - comb(n, last) < BATCH_SETS
            got += sets
        assert all(count >= BATCH_SETS for count, _ in batches[:-1])
        assert got == [s for size in range(n + 1)
                       for s in combinations(range(n), size)]
    assert [len(list(subset_levels(n))) for n in (12, 13, 14)] == [1, 2, 3]


def test_batch_boundaries_at_the_naive_caps():
    # (sets, next size) of the batches the README names; each build is
    # fresh, past the cache
    build = solver._batch.__wrapped__
    got = [build(n, size)[::2]
           for n, size in ((24, 0), (24, 20), (24, 21), (20, 0), (20, 17))]
    assert got == [(12_951, 5), (10_626, 21), (2_325, 25), (6_196, 5),
                   (1_351, 21)]
    count, cols, _ = build(24, 21)
    assert [tuple(u for u in range(24) if cols[u] >> i & 1)
            for i in range(count)] == \
        [s for size in range(21, 25) for s in combinations(range(24), size)]


def _optimal_sets_by_combinations(g, k, pred):
    """Every set of the least size that pred accepts, in combinations
    order; [] when no set is accepted."""
    for size in range(g.n + 1):
        sets = [frozenset(s) for s in combinations(range(g.n), size)
                if pred(g, s, k)]
        if sets:
            return sets
    return []


def _assert_optimal_sets_match(graphs):
    cases = 0
    for g in graphs:
        for k in (1, 2):
            for variant, pred in ((VARIANT_TOTAL, is_ktds),
                                  (VARIANT_RESTRAINED, is_ktrds)):
                got = enumerate_optimal_sets(DominationQuery(g, k, variant))
                assert got == _optimal_sets_by_combinations(g, k, pred), \
                    (g.edges(), k, variant)
                cases += 1
    return cases


def test_enumerate_optimal_sets_cycle():
    # every minimum set, in combinations order; cycle(13)'s minimum sets lie
    # past gamma_naive's first batch
    _assert_optimal_sets_match((cycle(4), cycle(9),
                                complementary_prism(cycle(5)), cycle(13)))


def test_enumerate_optimal_sets_matches_combinations_scan():
    # every graph up to six vertices, infeasible pairs ([]) among them
    graphs = [g for n in range(1, 7) for g in all_graphs(n)]
    assert _assert_optimal_sets_match(graphs) == 832


def test_enumerate_optimal_sets_tests_only_what_gamma_naive_tests(
        monkeypatch):
    # the enumerator reads the batch where gamma_naive's scan stopped, so
    # it makes that scan's ktds_batch calls and no other; cycle(13)'s scan
    # runs over two batches, and infeasible pairs make none
    calls = []
    batch = solver.ktds_batch

    def counted(*args):
        calls.append(args)
        return batch(*args)

    monkeypatch.setattr(solver, "ktds_batch", counted)
    scans = []
    for g in (cycle(13), *all_graphs(7)[::25]):
        for k in (1, 2, 3):
            for variant in (VARIANT_TOTAL, VARIANT_RESTRAINED):
                q = DominationQuery(g, k, variant)
                calls.clear()
                gamma_naive(q)
                scan = calls[:]
                calls.clear()
                enumerate_optimal_sets(q)
                assert calls == scan, (g.edges(), k, variant)
                scans.append(len(scan))
    assert {c: scans.count(c) for c in set(scans)} == {0: 140, 1: 114, 2: 4}


def test_domatic_complete_graphs():
    # the paper's floor(n/(k+1)) on complete graphs
    for n in range(2, 9):
        for k in range(1, n):
            res = domatic_exact(complete(n), k)
            assert res.value == f_domatic_complete(n, k).value, (n, k)


def _set_partitions(n):
    """Every partition of range(n) into nonempty classes."""
    if n == 0:
        yield []
        return
    for part in _set_partitions(n - 1):
        for i in range(len(part)):
            yield part[:i] + [part[i] + [n - 1]] + part[i + 1:]
        yield part + [[n - 1]]


def test_domatic_matches_partition_scan():
    # independent oracle: the largest partition the set-form predicates
    # accept (0 when even V fails, as domatic_exact reports infeasible)
    cases = 0
    for n in range(1, 7):
        partitions = list(_set_partitions(n))
        for g in all_graphs(n):
            for k in (1, 2):
                # a kTDP is a kTRDP: a vertex outside a class lies in
                # another, which holds k of its neighbours
                assert all(is_ktdp(g, p, k) == is_ktrdp(g, p, k)
                           for p in partitions), (g.edges(), k)
                res = domatic_exact(g, k)
                for pred in (is_ktdp, is_ktrdp):
                    want = max((len(p) for p in partitions
                                if pred(g, p, k)), default=0)
                    assert res.value == want, (g.edges(), k, pred.__name__)
                    cases += 1
    assert cases == 832


def test_domatic_certificate_is_valid_partition():
    g = complete(7)
    res = domatic_exact(g, 1)
    assert res.value == 3
    assert is_ktrdp(g, res.certificate, 1) and is_ktdp(g, res.certificate, 1)


def test_domatic_one_when_degree_low():
    # C5 with k=2: min degree 2 <= 2k-1, so only the trivial partition
    res = domatic_exact(cycle(5), 2)
    assert res.value == 1


def test_domatic_rejects_k_below_1():
    # with k = 0 the class cap would divide by zero; d = 0 is checked too
    with pytest.raises(ValueError, match=r"^k must be >= 1$"):
        domatic_exact(complete(4), 0)
    for d in (0, 2):
        with pytest.raises(ValueError, match=r"^k must be >= 1$"):
            enumerate_domatic_partitions(complete(4), 0, d)


def test_gamma_naive_all_rejects_kmax_below_1():
    with pytest.raises(ValueError, match=r"^kmax must be >= 1$"):
        gamma_naive_all(cycle(4), 0)


def test_domatic_raises_on_a_search_answer_that_is_no_ktrdp(monkeypatch):
    # vertex 3 in no class, so the classes do not cover V
    def no_partition(masks, k, d):
        yield (0b011, 0b100), 1

    monkeypatch.setattr(solver, "_domatic_search", no_partition)
    with pytest.raises(RuntimeError, match=r"^domatic search: \[\[0, 1\], "
                       r"\[2\]\] is not a kTRDP$"):
        domatic_exact(complete(4), 1)


def test_enumerate_domatic_partitions_complete4():
    g = complete(4)
    parts = enumerate_domatic_partitions(g, 1, 2)
    # pairs of disjoint 2-sets; 3 ways to split 4 vertices into two pairs
    assert len(parts) == 3
    for p in parts:
        assert is_ktrdp(g, p, 1)


def test_enumerate_domatic_partitions_outside_range():
    # d = 1 is V itself; past min degree // k no class count is possible
    k5 = complete(5)
    assert [len(enumerate_domatic_partitions(k5, 1, d)) for d in range(6)] \
        == [0, 1, 10, 0, 0, 0]
    c5 = cycle(5)
    assert [len(enumerate_domatic_partitions(c5, 2, d)) for d in range(3)] \
        == [0, 1, 0]


def test_enumerate_domatic_partitions_past_the_cap(monkeypatch):
    # a class of a kTDP has at least k + 1 vertices, so K12 has no 7-class
    # partition at k = 1, and none is searched for
    def no_search(*args):
        raise AssertionError("the domatic search ran")

    monkeypatch.setattr(solver, "_domatic_search", no_search)
    assert enumerate_domatic_partitions(complete(12), 1, 7) == []


# domatic_exact's search nodes summed over all_graphs(n) for each (n, k)
# with min degree >= k; every pair not listed sums to 0
DOMATIC_NODE_PINS = {(4, 1): 17, (5, 1): 80, (6, 1): 769, (6, 2): 50,
                     (7, 1): 8_370, (7, 2): 489}


def test_domatic_node_pins():
    got = {}
    cases = 0
    for n in range(1, 8):
        for g in all_graphs(n):
            for k in (1, 2):
                if g.min_degree < k:
                    continue
                nodes = domatic_exact(g, k).nodes_explored
                if nodes:
                    got[n, k] = got.get((n, k), 0) + nodes
                cases += 1
    assert got == DOMATIC_NODE_PINS
    assert cases == 1_630


def test_domatic_certificate_is_first_enumerated_partition():
    # domatic_exact takes the first partition of the search that
    # enumerate_domatic_partitions runs to the end
    cases = 0
    for n in range(1, 8):
        for g in all_graphs(n):
            for k in (1, 2):
                res = domatic_exact(g, k)
                if not res.feasible or res.value < 2:
                    continue
                assert res.certificate == \
                    enumerate_domatic_partitions(g, k, res.value)[0], \
                    (g.edges(), k)
                cases += 1
    assert cases == 579


def test_t0_exact_matches_gamma():
    analysis = t0_exact((2, 2, 2), 1)
    from domlab.graphs import complete_multipartite
    g = complete_multipartite((2, 2, 2))
    assert analysis.gamma_value == gamma_exact(DominationQuery(g, 1)).value
    # t0 = 0 exactly when gamma = n
    assert (analysis.t0 == 0) == (analysis.gamma_value == g.n)


def test_t0_zero_iff_gamma_n():
    # t0 = 1 never occurs: the vertices outside a proper kTRDS need
    # neighbours outside it, so they lie in at least two parts
    t0s = Counter()
    for p in range(2, 7):
        for parts in combinations_with_replacement(range(12, 0, -1), p):
            n = sum(parts)
            if n > 12:
                continue
            # every k <= 5 within the min degree n - parts[0]
            for k in range(1, min(n - parts[0], 5) + 1):
                analysis = t0_exact(parts, k)
                assert analysis.t0 != 1, (parts, k)
                assert (analysis.t0 == 0) == (analysis.gamma_value == n), \
                    (parts, k)
                verdict = f_multipartite_bounds(parts, k, analysis.t0)
                assert verdict.applicable == (p >= 3 and analysis.t0 != 0), \
                    (parts, k)
                assert verdict.brackets(analysis.gamma_value), (parts, k)
                t0s[analysis.t0] += 1
    assert t0s == {0: 410, 2: 387, 3: 78, 4: 8, 5: 4, 6: 1}


def _t0_by_subsets(parts, k):
    """t0 and gamma of K_parts from all 2^n vertex subsets."""
    g = complete_multipartite(parts)
    blocks, start = [], 0
    for p in parts:
        blocks.append(set(range(start, start + p)))
        start += p
    sizes, ts = [], []
    for r in range(1, g.n + 1):
        for s in map(set, combinations(range(g.n), r)):
            if is_ktrds(g, s, k):
                sizes.append(r)
                if r < g.n:
                    ts.append(sum(1 for b in blocks if b - s))
    return min(ts, default=0), min(sizes)


def test_t0_exact_matches_subset_scan():
    checked = 0
    for p in (3, 4):
        for parts in product(range(1, 8), repeat=p):
            if sum(parts) > 9 or list(parts) != sorted(parts, reverse=True):
                continue
            for k in (1, 2, 3):
                if sum(parts) - max(parts) < k:
                    continue
                a = t0_exact(parts, k)
                assert (a.t0, a.gamma_value) == _t0_by_subsets(parts, k), \
                    (parts, k)
                checked += 1
    assert checked > 50


def test_t0_exact_rejects_bad_input():
    with pytest.raises(ValueError, match="min degree 2 < k=3"):
        t0_exact((2, 1, 1), 3)
    with pytest.raises(ValueError, match="positive"):
        t0_exact((2, 0, 1), 1)
    with pytest.raises(ValueError, match="positive"):
        t0_exact((), 1)
    for k in (0, -1):
        with pytest.raises(ValueError, match="k must be >= 1"):
            t0_exact((2, 2, 2), k)


def test_guards_raise():
    big = cycle(25)
    with pytest.raises(GuardExceeded, match="DOMLAB_GUARD_N") as exc:
        gamma_exact(DominationQuery(big, 1), Guards())
    assert "gamma_n=20" in str(exc.value)
    assert "Guards(gamma_n=" in str(exc.value)


def test_exhaustive_scans_share_naive_n():
    small = Guards(naive_n=12)
    with pytest.raises(GuardExceeded, match="naive_n=12"):
        t0_exact((5, 5, 5), 1, small)
    with pytest.raises(GuardExceeded, match="naive_n=12"):
        enumerate_optimal_sets(DominationQuery(cycle(13), 1), small)
    with pytest.raises(GuardExceeded, match="naive_n=12"):
        gamma_naive_all(cycle(13), 3, small)


def test_guards_env_override(monkeypatch):
    monkeypatch.setenv("DOMLAB_GUARD_N", "30")
    guards = Guards.from_env()
    assert {f.name: getattr(guards, f.name) for f in fields(Guards)} == \
        {"gamma_n": 30, "naive_n": 30, "domatic_n": 30}


@pytest.mark.parametrize("value", ["abc", "0", "-2"])
def test_guards_env_rejects_bad_values(monkeypatch, value):
    monkeypatch.setenv("DOMLAB_GUARD_N", value)
    with pytest.raises(ValueError, match=f"DOMLAB_GUARD_N.*'{value}'"):
        Guards.from_env()


def test_variant_normalization():
    # the query takes the report's two names and nothing else: "restrained"
    # alone names another parameter
    assert DominationQuery(cycle(4), 1, "total-restrained").restrained
    assert not DominationQuery(cycle(4), 1, "total").restrained
    for bad in ("restrained", "bogus"):
        with pytest.raises(ValueError, match=f"^unknown variant '{bad}'$"):
            DominationQuery(cycle(4), 1, bad)
    with pytest.raises(ValueError):
        DominationQuery(cycle(4), 0)
