import random
from dataclasses import fields
from itertools import product

import pytest

from domlab.family_spec import family_graph
from domlab.formulas import f_domatic_complete
from domlab.graphs import (complement, complementary_prism, complete,
                           complete_bipartite, complete_multipartite, cycle,
                           path)
from domlab.predicates import (is_ktdp, is_ktds, is_ktrdp, is_ktrds,
                               mask_is_ktds)
from domlab.smallgraphs import all_graphs
from domlab.solver import (VARIANT_RESTRAINED, VARIANT_TOTAL,
                           DominationQuery, Guards, GuardExceeded,
                           active_backend, domatic_exact,
                           enumerate_domatic_partitions,
                           enumerate_optimal_sets, gamma_exact, gamma_naive,
                           t0_exact)
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
        r = gamma_exact(DominationQuery(g, 1, "restrained")).value
        assert t <= r


def test_gamma_infeasible_low_degree():
    res = gamma_exact(DominationQuery(path(5), 2))
    assert not res.feasible and res.value is None


def test_certificate_is_lex_smallest():
    g = complete(6)
    res = gamma_exact(DominationQuery(g, 1))
    assert sorted(res.certificate) == [0, 1]


# gamma_exact's node count and certificate on the prisms of C_n and P_n,
# n = 6..9 (variant t = total, r = total-restrained); 1,418 nodes in all.
# A kernel change that moves these updates the table and says so.
PRISM_SEARCH_PINS = {
    ("cycle", 6, 1, "t"): (35, (0, 3, 6, 9)),
    ("cycle", 6, 1, "r"): (35, (0, 3, 6, 9)),
    ("cycle", 6, 2, "t"): (38, (0, 1, 2, 3, 4, 5, 6, 9)),
    ("cycle", 6, 2, "r"): (4, (0, 1, 2, 3, 4, 5, 6, 9)),
    ("cycle", 7, 1, "t"): (52, (0, 1, 4, 7, 11)),
    ("cycle", 7, 1, "r"): (52, (0, 1, 4, 7, 11)),
    ("cycle", 7, 2, "t"): (71, (0, 1, 2, 3, 4, 5, 6, 7, 10)),
    ("cycle", 7, 2, "r"): (4, (0, 1, 2, 3, 4, 5, 6, 7, 10)),
    ("cycle", 8, 1, "t"): (102, (0, 1, 2, 4, 5, 9)),
    ("cycle", 8, 1, "r"): (102, (0, 1, 2, 4, 5, 9)),
    ("cycle", 8, 2, "t"): (91, (0, 1, 2, 3, 4, 5, 6, 7, 8, 11)),
    ("cycle", 8, 2, "r"): (4, (0, 1, 2, 3, 4, 5, 6, 7, 8, 11)),
    ("cycle", 9, 1, "t"): (86, (0, 1, 2, 5, 6, 10)),
    ("cycle", 9, 1, "r"): (86, (0, 1, 2, 5, 6, 10)),
    ("cycle", 9, 2, "t"): (127, (0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 12)),
    ("cycle", 9, 2, "r"): (4, (0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 12)),
    ("path", 6, 1, "t"): (24, (1, 4, 7, 10)),
    ("path", 6, 1, "r"): (23, (1, 4, 7, 10)),
    ("path", 6, 2, "t"): (20, (0, 1, 2, 3, 4, 5, 6, 11)),
    ("path", 6, 2, "r"): (5, (0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11)),
    ("path", 7, 1, "t"): (25, (0, 1, 4, 5, 7)),
    ("path", 7, 1, "r"): (25, (0, 1, 4, 5, 7)),
    ("path", 7, 2, "t"): (31, (0, 1, 2, 3, 4, 5, 6, 7, 13)),
    ("path", 7, 2, "r"): (3, (0, 1, 2, 3, 4, 5, 6, 7, 13)),
    ("path", 8, 1, "t"): (54, (1, 4, 5, 9, 15)),
    ("path", 8, 1, "r"): (53, (1, 4, 5, 9, 15)),
    ("path", 8, 2, "t"): (46, (0, 1, 2, 3, 4, 5, 6, 7, 8, 15)),
    ("path", 8, 2, "r"): (3, (0, 1, 2, 3, 4, 5, 6, 7, 8, 15)),
    ("path", 9, 1, "t"): (75, (0, 1, 4, 7, 13, 16)),
    ("path", 9, 1, "r"): (75, (0, 1, 4, 7, 13, 16)),
    ("path", 9, 2, "t"): (60, (0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 17)),
    ("path", 9, 2, "r"): (3, (0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 17)),
}


def test_gamma_exact_prism_node_counts_pinned():
    got = {}
    for fam, n, k, v in PRISM_SEARCH_PINS:
        g = complementary_prism((cycle if fam == "cycle" else path)(n))
        variant = VARIANT_RESTRAINED if v == "r" else VARIANT_TOTAL
        res = gamma_exact(DominationQuery(g, k, variant))
        got[fam, n, k, v] = (res.nodes_explored, tuple(sorted(res.certificate)))
    assert got == PRISM_SEARCH_PINS
    assert sum(nodes for nodes, _ in got.values()) == 1418


def test_kernel_certificate_is_first_optimal_set():
    # soundness and order of every prune: the kernel's certificate is the
    # lexicographically first minimum set of the exhaustive scan
    cases = 0
    for n in range(2, 8):
        for g in all_graphs(n):
            for k in (1, 2, 3):
                if g.min_degree < k:
                    continue
                for variant in (VARIANT_TOTAL, VARIANT_RESTRAINED):
                    q = DominationQuery(g, k, variant)
                    assert gamma_exact(q).certificate == \
                        enumerate_optimal_sets(q)[0], (g.edges(), k, variant)
                    cases += 1
    assert cases == 3606


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


def test_kernel_certificate_is_first_optimal_set_past_seven():
    # the certificate pass, not the search order, makes the certificate
    # lexicographically first; these graphs are larger than all_graphs' lists
    cases = 0
    for g, k in _certificate_cases_past_seven():
        for variant in (VARIANT_TOTAL, VARIANT_RESTRAINED):
            q = DominationQuery(g, k, variant)
            assert gamma_exact(q).certificate == \
                enumerate_optimal_sets(q)[0], (g.edges(), k, variant)
            cases += 1
    assert cases == 268


# values and certificates (the lexicographically first optimal sets, as the
# earlier kernels found them) of two deep prisms at k = 1 and k = 2; the node
# ceiling is the machine-independent check on the kernel's speed
DEEP_PRISMS = {
    ("prism:cycle:16", 1): (9, (0, 1, 4, 5, 8, 11, 12, 24, 30)),
    ("prism:path:20", 1): (11, (1, 2, 5, 6, 9, 10, 13, 16, 17, 33, 39)),
    ("prism:cycle:16", 2): (18, (*range(17), 19)),
    ("prism:path:20", 2): (22, (*range(21), 39)),
}


@pytest.mark.parametrize("variant", [VARIANT_TOTAL, VARIANT_RESTRAINED])
@pytest.mark.parametrize("family,k", sorted(DEEP_PRISMS), ids=[
    family if k == 1 else f"{family}-k{k}" for family, k in sorted(DEEP_PRISMS)])
def test_deep_prism_solves_under_node_ceiling(family, k, variant):
    res = gamma_exact(DominationQuery(family_graph(family), k, variant),
                      Guards(gamma_n=40))
    assert (res.value, tuple(sorted(res.certificate))) == \
        DEEP_PRISMS[family, k]
    assert res.nodes_explored <= 10_000


def test_naive_certificate_is_valid_and_minimum_sized():
    graphs = list(all_graphs(5)) + [cycle(9), complementary_prism(cycle(5))]
    for g in graphs:
        for k in (1, 2, 3):
            if g.min_degree < k:
                continue
            for variant, pred in (("total", is_ktds),
                                  ("restrained", is_ktrds)):
                res = gamma_naive(DominationQuery(g, k, variant))
                assert res.feasible and len(res.certificate) == res.value
                assert pred(g, res.certificate, k)


def test_enumerate_optimal_sets_cycle():
    q = DominationQuery(cycle(4), 1)
    sets = enumerate_optimal_sets(q)
    assert sets and all(len(s) == 2 for s in sets)
    assert all(is_ktrds(cycle(4), s, 1) for s in sets)
    # C4: the two opposite pairs both work... verify against brute force count
    assert frozenset({0, 1}) in sets


def test_domatic_complete_graphs():
    # the paper's floor(n/(k+1)) on complete graphs, for both variants
    for n in range(2, 9):
        for k in range(1, n):
            want = f_domatic_complete(n, k).value
            for variant in ("total", "restrained"):
                res = domatic_exact(DominationQuery(complete(n), k, variant))
                assert res.value == want, (n, k, variant)


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
                for variant, pred in (("total", is_ktdp),
                                      ("restrained", is_ktrdp)):
                    want = max((len(p) for p in partitions
                                if pred(g, p, k)), default=0)
                    res = domatic_exact(DominationQuery(g, k, variant))
                    assert res.value == want, (g.edges(), k, variant)
                    cases += 1
    assert cases == 832


def test_domatic_certificate_is_valid_partition():
    g = complete(7)
    res = domatic_exact(DominationQuery(g, 1))
    assert res.value == 3
    assert is_ktrdp(g, res.certificate, 1)
    rest = domatic_exact(DominationQuery(g, 1, "total"))
    assert is_ktdp(g, rest.certificate, 1)


def test_domatic_one_when_degree_low():
    # C5 with k=2: min degree 2 <= 2k-1, so only the trivial partition
    res = domatic_exact(DominationQuery(cycle(5), 2))
    assert res.value == 1


def test_enumerate_domatic_partitions_complete4():
    g = complete(4)
    parts = enumerate_domatic_partitions(DominationQuery(g, 1), 2)
    # pairs of disjoint 2-sets; 3 ways to split 4 vertices into two pairs
    assert len(parts) == 3
    for p in parts:
        assert is_ktrdp(g, p, 1)


def test_t0_exact_matches_gamma():
    analysis = t0_exact((2, 2, 2), 1)
    from domlab.graphs import complete_multipartite
    g = complete_multipartite((2, 2, 2))
    assert analysis.gamma_value == gamma_exact(DominationQuery(g, 1)).value
    # t0 = 0 exactly when gamma = n
    assert (analysis.t0 == 0) == (analysis.gamma_value == g.n)


def test_t0_zero_iff_gamma_n():
    for parts in ((1, 1, 1), (2, 1, 1), (3, 3, 3), (2, 2, 2, 2)):
        k = 1
        analysis = t0_exact(parts, k)
        assert (analysis.t0 == 0) == (analysis.gamma_value == sum(parts))


def _t0_by_subsets(parts, k):
    """t0 and gamma of K_parts from all 2^n vertex subsets."""
    g = complete_multipartite(parts)
    masks = g.neighbor_masks()
    part_masks, start = [], 0
    for p in parts:
        part_masks.append(((1 << p) - 1) << start)
        start += p
    full = (1 << g.n) - 1
    sizes, ts = [], []
    for smask in range(1, full + 1):
        if mask_is_ktds(masks, smask, k, True):
            sizes.append(smask.bit_count())
            if smask != full:
                ts.append(sum(1 for pm in part_masks if pm & ~smask))
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
    q = DominationQuery(cycle(4), 1, "restrained")
    assert q.variant == "total-restrained"
    with pytest.raises(ValueError):
        DominationQuery(cycle(4), 1, "bogus")
    with pytest.raises(ValueError):
        DominationQuery(cycle(4), 0)
