"""Full verification sweep: families, bounds, witnesses, theorem suites.

Each entry of SECTIONS returns Report rows: the rows of the families in the
FAMILIES table come from one loop, those of every other section from its
check_* function. Every fixed-family graph is built by family_graph from the
spec its rows print. run_sweep assembles the report the CLI writes.
Discrepancies are recorded, never silently corrected. One known erratum is
allowlisted (reported but non-fatal): the n = 5 case of the
prism-cycle domatic-pair construction.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from functools import partial, reduce
from itertools import combinations_with_replacement
from operator import and_

from . import formulas
from .family_spec import family_graph
from .graphs import Graph, bit_indices, complement, complementary_prism
from .predicates import is_ktdp, ktds_batch
from .smallgraphs import all_graphs
from .solver import (VARIANT_RESTRAINED as RESTRAINED,
                     VARIANT_TOTAL as TOTAL, DominationQuery, SolveResult,
                     _timed, domatic_exact, gamma_exact, gamma_naive,
                     gamma_naive_all, subset_levels, t0_exact)
from .witnesses import (validate_witness, witness_complement_cycle,
                        witness_complement_path, witness_cycle_trds,
                        witness_prism_cycle_domatic_pair,
                        witness_prism_path_trds)
# not called here: perfbench/run.py patches these names on this module to time
# graph building and enumeration (ROADMAP item 17 removes patching and names)
from .graphs import build_graph, complete, cycle  # noqa: F401
from .solver import (enumerate_domatic_partitions,  # noqa: F401
                     enumerate_optimal_sets)

CSV_COLUMNS = ("instance", "family", "n", "k", "variant", "solver", "formula",
               "applicable", "match", "witness", "runtime_ms")


@dataclass
class Row:
    instance: str
    family: str
    n: int
    k: int
    variant: str
    solver: str
    formula: str
    applicable: bool
    match: bool
    witness: str = "-"
    runtime_ms: float | None = None
    allowlisted: bool = False
    note: str = ""

    @property
    def discrepancy(self) -> bool:
        return self.applicable and not self.match and not self.allowlisted

    def csv_fields(self, timings: bool) -> list[str]:
        rt = "" if (not timings or self.runtime_ms is None) \
            else f"{self.runtime_ms:.1f}"
        return [self.instance, self.family, str(self.n), str(self.k),
                self.variant, self.solver, self.formula,
                str(self.applicable).lower(), str(self.match).lower(),
                self.witness, rt]


@dataclass
class SweepConfig:
    sections: tuple[str, ...] = ()  # empty = all
    seed: int = 20230417
    oracle_random: int = 500
    property_random: int = 200


@dataclass
class Report:
    rows: list[Row]
    elapsed: float

    @property
    def total(self) -> int:
        return len(self.rows)

    @property
    def discrepancies(self) -> list[Row]:
        return [r for r in self.rows if r.discrepancy]

    @property
    def allowlisted_failures(self) -> list[Row]:
        return [r for r in self.rows if r.allowlisted and not r.match]

    @property
    def matched(self) -> int:
        return sum(1 for r in self.rows if r.match)


def _render(res: SolveResult) -> str:
    return str(res.value) if res.feasible else "infeasible"


def _gamma_row(instance: str, family: str, g: Graph, k: int, variant: str,
               verdict: formulas.FormulaVerdict) -> Row:
    res, ms = _timed(gamma_exact, DominationQuery(g, k, variant))
    match = (verdict.brackets(res.value) if res.feasible
             else not verdict.applicable)
    return Row(instance, family, g.n, k, variant, _render(res),
               verdict.render(), verdict.applicable, match, runtime_ms=ms)


# ---------------------------------------------------------------- families

# section -> one (family spec, k values, stated value as a function of k)
# entry per graph; every row solves the total-restrained variant
FAMILIES = {
    "complete": [(f"complete:{n}", range(1, n),
                  partial(formulas.f_complete, n)) for n in range(2, 13)],
    "cycles": [(f"cycle:{n}", (1, 2), partial(formulas.f_cycle, n))
               for n in range(4, 13)],
    "complements": [(f"complement:{base}:{n}", range(1, min(n - 3, 3) + 1),
                     partial(formula, n))
                    for n in range(4, 15)
                    for base, formula in (
                        ("cycle", formulas.f_complement_cycle),
                        ("path", formulas.f_complement_path))],
    "bipartite": [(f"bipartite:{n},{m}", range(1, min(m, 3) + 1),
                   partial(formulas.f_complete_bipartite, n, m))
                  for n in range(1, 8) for m in range(1, n + 1)],
}


def _family_rows(section: str) -> list[Row]:
    rows = []
    for spec, ks, formula in FAMILIES[section]:
        g = family_graph(spec)
        rows += [_gamma_row(f"{spec}|k={k}|gamma-r", spec, g, k, RESTRAINED,
                            formula(k)) for k in ks]
    return rows


def check_multipartite() -> list[Row]:
    rows = []
    for p in (3, 4):
        for parts in combinations_with_replacement(range(12, 0, -1), p):
            n = sum(parts)
            if n > 12:
                continue
            fam = "kpartite:" + ",".join(map(str, parts))
            g = family_graph(fam)
            for k in range(1, 4):
                if g.min_degree < k:
                    continue
                analysis = t0_exact(parts, k)
                verdict = formulas.f_multipartite_bounds(parts, k,
                                                         t0=analysis.t0)
                row = _gamma_row(f"{fam}|k={k}|bounds", fam, g, k, RESTRAINED,
                                 verdict)
                row.note = f"t0={analysis.t0}"
                if row.solver != str(analysis.gamma_value):
                    row = Row(f"{fam}|k={k}|t0-gamma-agree", fam, n, k,
                              RESTRAINED, row.solver,
                              str(analysis.gamma_value), True, False,
                              note="t0 enumeration disagrees with solver")
                rows.append(row)
    return rows


def check_prisms() -> list[Row]:
    rows = []
    for n in range(4, 9):
        k1 = formulas.f_prism_k1(n)
        # the gamma-t rows are non-restrained oracles from the cited
        # prelemmas. Each restrained row follows the total row of its graph
        # and k, whose value gamma_exact starts it at. The regular-prism
        # window (the 2n corollary is an open question: its statement omits
        # ",t"; we read it as total-restrained) follows the k = 2 pair
        cases = (("cycle", 1, "gamma-t", k1),
                 ("cycle", 1, "gamma-r", k1),
                 ("cycle", 2, "gamma-t", formulas.f_prism_cycle_k2_total(n)),
                 ("cycle", 2, "gamma-r", formulas.f_prism_cycle_k2(n)),
                 ("cycle", 2, "regular-window",
                  formulas.f_prism_regular_lb(n, 2, 2)),
                 ("path", 1, "gamma-t", k1),
                 ("path", 1, "gamma-r", k1))
        graphs = {base: family_graph(f"prism:{base}:{n}")
                  for base in ("cycle", "path")}
        for base, k, tag, verdict in cases:
            fam = f"prism:{base}:{n}"
            row = _gamma_row(f"{fam}|k={k}|{tag}", fam, graphs[base], k,
                             TOTAL if tag == "gamma-t" else RESTRAINED,
                             verdict)
            if tag == "regular-window":
                row.note = "2n corollary read as total-restrained"
            rows.append(row)
    # any stated value the kernel contradicts gets an independent
    # confirmation pass through the naive oracle (the kernel rows only, not
    # the confirm rows this loop adds)
    for r in [row for row in rows if row.discrepancy]:
        naive = gamma_naive(DominationQuery(family_graph(r.family), r.k,
                                           r.variant))
        agree = _render(naive) == r.solver
        r.note = (r.note + "; " if r.note else "") + (
            "solver value confirmed by independent oracle" if agree else
            "oracle disagrees with kernel")
        rows.append(Row(r.instance + "|oracle-confirm", r.family, r.n, r.k,
                        r.variant, _render(naive), r.solver, True, agree,
                        note="independent subset-scan confirmation of a "
                             "stated value the solver contradicts"))
    return rows


def check_kjoin() -> list[Row]:
    """gamma = k+1 for k-joins onto K_{k+1} (the value-characterization family)."""
    rows = []
    hosts = {1: ("cycle:4", "cycle:5", "complete:3", "path:4"),
             2: ("complete:3", "complete:4", "kpartite:2,2,2"),
             3: ("complete:4", "kpartite:2,2,2")}
    for k, specs in hosts.items():
        verdict = formulas.f_kjoin_gamma(k + 1, k)
        for spec in specs:
            fam = f"kjoin:{spec}:complete:{k + 1}:k={k}"
            g = family_graph(fam)
            rows.append(_gamma_row(f"{fam}|gamma-r", fam, g, k, RESTRAINED,
                                   verdict))
            # the naive oracle double-checks minimality on these instances
            naive = gamma_naive(DominationQuery(g, k, RESTRAINED))
            agree = naive.feasible and naive.value == k + 1
            rows.append(Row(f"{fam}|oracle-agree", fam, g.n, k, RESTRAINED,
                            _render(naive), str(k + 1), True, agree))
    return rows


# ---------------------------------------------------------------- witnesses

# the one allowlisted erratum, with the prefix of its row's note
_ERRATA = {"witness:prism-cycle-pair:5": (
    "stated size-4 pair invalid at n=5; "
    "solver confirms the claim it supports: ")}


def _witness_row(instance: str, family: str, g: Graph,
                 w: tuple[frozenset[int], ...], k: int, expected: int) -> Row:
    failures = validate_witness(g, w, k)
    ok = not failures and all(len(s) == expected for s in w)
    # a pair of sets is a domatic pair of total dominating sets
    return Row(instance, family, g.n, k, TOTAL if len(w) == 2 else RESTRAINED,
               "/".join(str(len(s)) for s in w), str(expected),
               True, ok, witness="valid" if ok else "invalid",
               allowlisted=instance in _ERRATA,
               note=_ERRATA.get(instance, "") + "; ".join(failures[:3]))


def check_witnesses() -> list[Row]:
    # (family spec, k, witness, stated verdict, instance tag)
    cases = [(f"cycle:{n}", 1, witness_cycle_trds(n), formulas.f_cycle(n, 1),
              f"cycle-trds:{n}") for n in range(4, 17)]
    cases += [(f"complement:{base}:{n}", k, witness(n, k), formula(n, k),
               f"complement-{base}:{n}|k={k}")
              for n in range(4, 17)
              for base, witness, formula in (
                  ("cycle", witness_complement_cycle,
                   formulas.f_complement_cycle),
                  ("path", witness_complement_path,
                   formulas.f_complement_path))
              for k in range(1, min(n - 3, 3) + 1)]
    cases += [(f"prism:path:{n}", 1, witness_prism_path_trds(n),
               formulas.f_prism_k1(n), f"prism-path-trds:{n}")
              for n in range(5, 13)]
    # n = 5: the stated size-4 pair misses vertex 5-bar (no disjoint size-4
    # pair exists; the claim d >= 2 still holds via larger sets, confirmed
    # below)
    cases += [(f"prism:cycle:{n}", 1, witness_prism_cycle_domatic_pair(n),
               formulas.f_prism_k1(n), f"prism-cycle-pair:{n}")
              for n in range(4, 13)]
    graphs = {spec: family_graph(spec) for spec, *_ in cases}
    rows = [_witness_row(f"witness:{tag}", spec, graphs[spec], w, k,
                         verdict.value)
            for spec, k, w, verdict, tag in cases]
    # the n = 5 erratum does not sink the claim: two disjoint total
    # dominating sets exist (classes need not be minimum)
    dres = domatic_exact(DominationQuery(graphs["prism:cycle:5"], 1, TOTAL))
    rows.append(Row("witness:prism-cycle-pair:5|claim-check", "prism:cycle:5",
                    graphs["prism:cycle:5"].n, 1, TOTAL, str(dres.value),
                    ">=2", True, bool(dres.feasible and dres.value >= 2),
                    note="domatic solver checks the claim the pair supports"))
    return rows


# ------------------------------------------------------------ random suites

def random_graph(rng: random.Random, n: int, p: float) -> Graph:
    """G(n, p): one rng.random() draw per pair (u, v), u < v, in row-major
    order; the pair is an edge iff the draw is below p."""
    masks = [0] * n
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < p:
                masks[u] |= 1 << v
                masks[v] |= 1 << u
    return Graph(tuple(masks))


def random_suite(seed: int, count: int, n_lo: int, n_hi: int,
                 min_degree: int = 0) -> list[tuple[str, Graph]]:
    """Deterministic list of (id, graph); resamples until min_degree is met."""
    rng = random.Random(seed)
    out = []
    probs = (0.3, 0.5, 0.7)
    while len(out) < count:
        n = rng.randint(n_lo, n_hi)
        p = probs[rng.randrange(3)]
        g = random_graph(rng, n, p)
        if g.min_degree < min_degree:
            continue
        out.append((f"random:{len(out)}|n={n}|p={p}", g))
    return out


def check_oracle(seed: int, random_count: int) -> list[Row]:
    """gamma_exact vs gamma_naive: exhaustive n <= 7, randomized 8..12.

    Exhaustive buckets aggregate to one row per (n, k, variant); mismatches
    get their own rows. One gamma_naive_all scan per graph answers every
    (k, variant) pair.
    """
    pairs = [(k, variant) for k in range(1, 4)
             for variant in (TOTAL, RESTRAINED)]
    rows = []
    for n in range(2, 8):
        mismatches = {pair: [] for pair in pairs}
        checked = dict.fromkeys(pairs, 0)
        for g in all_graphs(n):
            naive = gamma_naive_all(g, 3)
            for k, variant in pairs:
                if g.min_degree < k:
                    continue
                checked[k, variant] += 1
                q = DominationQuery(g, k, variant)
                if gamma_exact(q).value != naive[k, variant].value:
                    mismatches[k, variant].append(Row(
                        f"oracle:exhaustive:n={n}|k={k}|{variant}|"
                        f"edges={g.edges()}", f"n={n}", n, k, variant,
                        "mismatch", "oracle", True, False))
        for k, variant in pairs:
            mism = len(mismatches[k, variant])
            rows += mismatches[k, variant]
            rows.append(Row(f"oracle:exhaustive:n={n}|k={k}|{variant}",
                            f"all-graphs:{n}", n, k, variant,
                            f"{checked[k, variant]} agree" if mism == 0 else
                            f"{mism} mismatches", "gamma_naive", True,
                            mism == 0))
    for gid, g in random_suite(seed, random_count, 8, 12):
        naive = gamma_naive_all(g, 3)
        for k, variant in pairs:
            a = gamma_exact(DominationQuery(g, k, variant))
            b = naive[k, variant]
            ok = (a.feasible, a.value) == (b.feasible, b.value)
            rows.append(Row(f"oracle:{gid}|k={k}|{variant}", gid, g.n, k,
                            variant, _render(a), _render(b), True, ok))
    return rows


def _is_bipartite(g: Graph) -> bool:
    color = [-1] * g.n
    for s in range(g.n):
        if color[s] >= 0:
            continue
        color[s] = 0
        stack = [s]
        while stack:
            u = stack.pop()
            for v in bit_indices(g.masks[u]):
                if color[v] < 0:
                    color[v] = 1 - color[u]
                    stack.append(v)
                elif color[v] == color[u]:
                    return False
    return True


def check_properties(seed: int, random_count: int) -> list[Row]:
    """Theorem suites on seeded random graphs (n <= 10, k in {1, 2})."""
    rows = []
    for gid, g in random_suite(seed + 1, random_count, 4, 10, min_degree=1):
        n, m = g.n, g.num_edges
        bip = _is_bipartite(g)
        for k in (1, 2):
            if g.min_degree < k:
                continue
            qr = DominationQuery(g, k, RESTRAINED)
            gt = gamma_exact(DominationQuery(g, k, TOTAL))
            gr = gamma_exact(qr)
            # one search serves both variants; its partition is checked
            # here as a kTDP, and domatic_exact checked it as a kTRDP
            dr = domatic_exact(qr)

            def prop(tag: str, ok: bool, solver: str, formula: str,
                     note: str = ""):
                rows.append(Row(f"prop:{tag}:{gid}|k={k}", gid, n, k,
                                RESTRAINED, solver, formula, True, ok,
                                note=note))

            prop("gamma-monotone", gt.value <= gr.value, str(gr.value),
                 f">={gt.value}")
            prop("domatic-equal", is_ktdp(g, dr.certificate, k),
                 str(dr.value), str(dr.value))
            if dr.value >= 2:
                prop("two-domatic-classes-equalize", gr.value == gt.value,
                     str(gr.value), str(gt.value))
            prop("gamma-times-domatic", gr.value * dr.value <= n,
                 f"{gr.value}*{dr.value}", f"<={n}")
            if gr.value * dr.value == n:
                # d disjoint kTRDSs of >= gamma vertices each hold n = gamma*d
                # vertices, so each class has exactly the naive scan's gamma
                gamma = gamma_naive(qr).value
                prop("equality-classes-optimal",
                     all(len(cls) == gamma for cls in dr.certificate),
                     "partitions", "all classes optimal")
            # holds by construction, not evidence: domatic_exact never tries
            # more than solver._class_cap classes
            cap = formulas.f_domatic_caps(n, k, bipartite=False)
            prop("domatic-cap", cap.brackets(dr.value), str(dr.value),
                 cap.render())
            if bip:
                capb = formulas.f_domatic_caps(n, k, bipartite=True)
                prop("domatic-cap-bipartite", capb.brackets(dr.value),
                     str(dr.value), capb.render())
            low = [v for v in range(n) if g.degree(v) <= 2 * k - 1]
            if n <= 8 and low:
                # per batch, the kTRDS hits must lie in every low column
                ok = not any(
                    ktds_batch(g.masks, cols, (1 << count) - 1, k, k, True)[1][0]
                    & ~reduce(and_, (cols[v] for v in low))
                    for count, cols in subset_levels(n))
                prop("low-degree-in-every-set", ok, "all kTRDS",
                     "contain low-degree vertices")
            # holds by construction, not evidence: min_degree // k <= 1
            # here, and domatic_exact tries no more classes than that
            if g.min_degree <= 2 * k - 1:
                prop("domatic-one", dr.value == 1, str(dr.value), "1")
            if gr.value < n:
                prop("below-n-needs-degree",
                     g.max_degree >= 2 * k and n >= 2 * k + 2,
                     f"maxdeg={g.max_degree},n={n}", f">=2k={2 * k}")
            lb = formulas.f_lower_edges(n, m, k)
            prop("edge-lower-bound", lb.brackets(gr.value), str(gr.value),
                 lb.render())
            if g.min_degree >= gt.value + k:
                prop("deep-degree-upper", gr.value <= gt.value, str(gr.value),
                     f"<={gt.value}")
    return rows


def check_sandwich() -> list[Row]:
    """Prism sandwich bound at k = 2 over every graph with n <= 7 whose two
    halves both have min degree >= 2."""
    def gamma(h: Graph, k: int) -> int:
        return gamma_exact(DominationQuery(h, k, RESTRAINED)).value

    rows = []
    for n in range(5, 8):
        for idx, g in enumerate(all_graphs(n)):
            # the complement's min degree, without building the complement
            if g.min_degree < 2 or n - 1 - g.max_degree < 2:
                continue
            gbar = complement(g)
            verdict = formulas.f_prism_sandwich(gamma(g, 1), gamma(gbar, 1),
                                                gamma(g, 2), gamma(gbar, 2), 2)
            prism = complementary_prism(g)
            val = gamma(prism, 2)
            rows.append(Row(f"sandwich:n={n}:{idx}", f"all-graphs:{n}",
                            prism.n, 2, RESTRAINED, str(val),
                            verdict.render(), True, verdict.brackets(val)))
    return rows


SECTIONS = {
    **{section: partial(_family_rows, section) for section in FAMILIES},
    "multipartite": check_multipartite,
    "prisms": check_prisms,
    "kjoin": check_kjoin,
    "witnesses": check_witnesses,
    "oracle": check_oracle,
    "properties": check_properties,
    "sandwich": check_sandwich,
}


def run_sweep(config: SweepConfig) -> Report:
    names = config.sections or tuple(SECTIONS)
    unknown = [s for s in names if s not in SECTIONS]
    if unknown:
        raise ValueError(f"unknown sections: {unknown}")
    repeated = sorted({s for s in names if names.count(s) > 1})
    if repeated:
        raise ValueError(f"repeated sections: {repeated}")
    t0 = time.perf_counter()
    rows = []
    for name in names:
        fn = SECTIONS[name]
        if name == "oracle":
            rows += fn(config.seed, config.oracle_random)
        elif name == "properties":
            rows += fn(config.seed, config.property_random)
        else:
            rows += fn()
    rows.sort(key=lambda r: r.instance)
    return Report(rows, time.perf_counter() - t0)


def write_csv(report: Report, fh, timings: bool = False) -> None:
    import csv

    writer = csv.writer(fh, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    for row in report.rows:
        writer.writerow(row.csv_fields(timings))


def write_markdown(report: Report, fh, timings: bool = False) -> None:
    disc = report.discrepancies
    fh.write("# Verification report\n\n")
    fh.write(f"- rows: {report.total}\n")
    fh.write(f"- matched: {report.matched}\n")
    fh.write(f"- discrepancies: {len(disc)}\n")
    fh.write(f"- allowlisted failures: {len(report.allowlisted_failures)}\n")
    fh.write(f"- elapsed: {report.elapsed:.1f}s\n\n")
    fh.write("| " + " | ".join(CSV_COLUMNS) + " |\n")
    fh.write("|" + "---|" * len(CSV_COLUMNS) + "\n")
    for row in report.rows:
        cells = (f.replace("|", "\\|") for f in row.csv_fields(timings))
        fh.write("| " + " | ".join(cells) + " |\n")
