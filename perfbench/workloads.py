"""The two workloads: inputs from a seed, one timed pass, output checks.

Every workload calls only domlab's public API. A pass receives `api`, a
namespace holding the public functions it calls; the traced run hands in
wrapped versions of the same functions, the untraced run the originals.

- sweep: the full verify-paper sweep plus CSV, exactly what a
  `domlab verify-paper` user waits for. About 11,000 small solves (n <= 12)
  cross every layer: naive oracle, t0_exact, all_graphs, kernel, domatic.
- hard-gamma: gamma_exact past the default n = 20 cap. Complementary prisms
  give deep, sparse searches (and k = 2 restrained ones that close in under
  a millisecond); seeded G(n, p) give mostly shallow ones. A kernel change
  that helps one shape of search and hurts the other shows here.

The domatic search (domatic_exact, enumerate_domatic_partitions) is timed
only inside the sweep, where it does about 2% of the work. A workload of its
own (K9-K13 and dense G(n, p)) spread 21-28% (IQR/median of ten 40 s runs of
the same code), more than a bound may allow.

Latency quantiles use the calls on seed-independent family inputs (prisms,
the sweep's family rows): over seeded random inputs a pooled median moved by
20% between seeds while the pass time moved by 5% (pure-Python kernel,
2-vCPU Xeon VM).
"""

from __future__ import annotations

import hashlib
import io
import random
import time
from dataclasses import dataclass, field

DEFAULT_SEED = 20230417

# sha256 of `domlab verify-paper` CSV output at the default seed
SWEEP_CSV_SHA256 = \
    "d5d59077ac48e95cc35ec3b7159eae308290034f36e287c06156112b5139b0cf"
# stated values the sweep refutes on its fixed (seed-independent) families
SWEEP_DISCREPANCIES = ("prism:cycle:5|k=2|gamma-t", "prism:path:8|k=1|gamma-r",
                       "prism:path:8|k=1|gamma-t")
TINY_SECTIONS = ("complete", "cycles", "prisms", "kjoin", "witnesses")

TOTAL = "total"
RESTRAINED = "total-restrained"


@dataclass(frozen=True)
class Instance:
    name: str
    graph: object
    k: int
    variant: str
    fixed: bool          # seed-independent family input


@dataclass
class PassResult:
    start: float               # perf_counter() around the timed pass
    end: float
    latencies_ms: list[float]  # fixed-family calls only
    outputs: object
    # perf_counter() at each of those calls' start; None where the library
    # times the calls itself (the sweep's rows)
    call_starts: list[float] | None = None

    @property
    def wall(self) -> float:
        return self.end - self.start


@dataclass(frozen=True)
class SweepOutput:
    digest: str            # sha256 of the CSV text
    discrepancies: tuple   # verify.Row objects
    oracle: tuple          # (instance, match) per oracle row


@dataclass
class Checks:
    attempted: int = 0
    failed: int = 0
    failures: list[str] = field(default_factory=list)  # the first few
    notes: dict = field(default_factory=dict)

    def expect(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append(what)


def seeded_random_graph(dl, rng: random.Random, n: int, p: float,
                        min_degree: int):
    while True:
        edges = [(u, v) for u in range(n) for v in range(u + 1, n)
                 if rng.random() < p]
        g = dl.build_graph(n, edges)
        if g.min_degree >= min_degree:
            return g


# ------------------------------------------------------------------ sweep

class Sweep:
    name = "sweep"

    def make_inputs(self, dl, seed: int, tiny: bool):
        return dl.SweepConfig(seed=seed, sections=TINY_SECTIONS if tiny else ())

    def prepare(self, dl) -> None:
        # each CLI invocation pays for generating the small-graph lists
        dl.smallgraphs.all_graphs.cache_clear()

    def run_pass(self, dl, cfg, api) -> PassResult:
        t0 = time.perf_counter()
        report = dl.verify.run_sweep(cfg)
        buf = io.StringIO()
        api.write_csv(report, buf)
        t1 = time.perf_counter()
        # the sweep times each family-row solve itself; the CSV omits it
        lat = [r.runtime_ms for r in report.rows if r.runtime_ms is not None]
        # keep only what the checks read, so passes do not pile up rows
        out = SweepOutput(
            hashlib.sha256(buf.getvalue().encode()).hexdigest(),
            tuple(report.discrepancies),
            tuple((r.instance, r.match) for r in report.rows
                  if r.instance.startswith("oracle:")))
        return PassResult(t0, t1, lat, out)

    def check(self, dl, cfg, passes) -> Checks:
        checks = Checks()
        full = cfg == dl.SweepConfig(seed=DEFAULT_SEED)
        confirmed: dict[str, bool] = {}
        for out in passes:
            checks.expect(out.digest == passes[0].digest,
                          "CSV differs between passes")
            if full:
                checks.expect(out.digest == SWEEP_CSV_SHA256,
                              f"CSV sha256 {out.digest} != verify-paper's")
            fixed = tuple(sorted(r.instance for r in out.discrepancies
                                 if not r.instance.startswith("prop:")))
            checks.expect(fixed == SWEEP_DISCREPANCIES,
                          f"discrepancies {fixed}")
            for row in out.discrepancies:
                if row.instance.startswith("prop:"):
                    if row.instance not in confirmed:
                        confirmed[row.instance] = \
                            self.refutation_holds(dl, cfg, row)
                    checks.expect(confirmed[row.instance],
                                  f"{row.instance}: values not confirmed")
            for instance, match in out.oracle:
                checks.expect(match, f"{instance} mismatch")
        checks.notes["property_refutations"] = sorted(confirmed)
        return checks

    @staticmethod
    def refutation_holds(dl, cfg, row) -> bool:
        """A failed "two-domatic-classes-equalize" row is a finding, not an
        error, when the MILP reproduces the values it rests on: d_t >= 2
        and gamma_r (the row's solver value) != gamma_t (its formula).

        Other random-suite discrepancies have not been seen and count as
        failures. The suite arguments mirror check_properties.
        """
        from reference import domatic_milp, gamma_milp

        if not row.instance.startswith("prop:two-domatic-classes-equalize:"):
            return False
        graphs = dict(dl.verify.random_suite(cfg.seed + 1, cfg.property_random,
                                             4, 10, min_degree=1))
        g, k = graphs[row.family], row.k
        gamma_r, gamma_t = gamma_milp(g, k, True), gamma_milp(g, k, False)
        return (gamma_r == int(row.solver) and gamma_t == int(row.formula)
                and gamma_r != gamma_t and domatic_milp(g, k, False) >= 2)


# ------------------------------------------------------------- hard-gamma

class HardGamma:
    name = "hard-gamma"

    def make_inputs(self, dl, seed: int, tiny: bool):
        out = []
        prism_ns = range(8, 10) if tiny else range(8, 15)
        for fam, base in (("path", dl.path), ("cycle", dl.cycle)):
            for n in prism_ns:
                g = dl.complementary_prism(base(n))
                for k in (1, 2):
                    for variant in (TOTAL, RESTRAINED):
                        out.append(Instance(f"prism:{fam}:{n}|k={k}|{variant}",
                                            g, k, variant, True))
        rng = random.Random(seed)
        for n in (range(18, 19) if tiny else range(18, 25)):
            for p in (0.3, 0.5):
                for k in (1, 2, 3):
                    g = seeded_random_graph(dl, rng, n, p, k)
                    for variant in (TOTAL, RESTRAINED):
                        out.append(Instance(f"gnp:{n},{p}|k={k}|{variant}",
                                            g, k, variant, False))
        guards = dl.Guards(gamma_n=max(i.graph.n for i in out))
        return out, guards

    def prepare(self, dl) -> None:
        pass

    def run_pass(self, dl, inputs, api) -> PassResult:
        instances, guards = inputs
        results, lat, starts = [], [], []
        t0 = time.perf_counter()
        for inst in instances:
            q = dl.DominationQuery(inst.graph, inst.k, inst.variant)
            c0 = time.perf_counter()
            res = api.gamma_exact(q, guards)
            c1 = time.perf_counter()
            results.append(res)
            if inst.fixed:
                lat.append((c1 - c0) * 1000.0)
                starts.append(c0)
        return PassResult(t0, time.perf_counter(), lat, results, starts)

    def check(self, dl, inputs, passes) -> Checks:
        from reference import gamma_milp

        instances, _ = inputs
        checks = Checks()
        for i, inst in enumerate(instances):
            want = gamma_milp(inst.graph, inst.k, inst.variant == RESTRAINED)
            pred = dl.is_ktrds if inst.variant == RESTRAINED else dl.is_ktds
            nodes = {results[i].nodes_explored for results in passes}
            checks.expect(len(nodes) == 1,
                          f"{inst.name}: node counts differ {nodes}")
            for results in passes:
                res = results[i]
                checks.expect(
                    res.feasible and res.value == want
                    and len(res.certificate) == res.value
                    and pred(inst.graph, res.certificate, inst.k),
                    f"{inst.name}: got {res.value}, MILP {want}")
        checks.notes["kernel_twins"] = kernel_twins_agree(dl, checks)
        return checks


def kernel_twins_agree(dl, checks: Checks) -> str:
    """Pure and compiled kernels must agree on value and node count.

    Returns what was compared; without the compiled kernel only the pure
    one exists and nothing is compared.
    """
    try:
        from domlab import _gamma_cy
    except ImportError:
        return "skipped: compiled kernel not importable"
    from domlab import _gamma_py

    rng = random.Random(7)
    cases = [(dl.complementary_prism(dl.cycle(9)), 2),
             (dl.complementary_prism(dl.cycle(10)), 2),
             (dl.family_graph("prism:path:10"), 1),
             (dl.family_graph("kpartite:4,4,4"), 3),
             (dl.cycle(18), 1)]
    cases += [(seeded_random_graph(dl, rng, 16, 0.4, 0), 2) for _ in range(3)]
    for g, k in cases:
        masks = g.neighbor_masks()
        vp, _, np_ = _gamma_py.solve_gamma(g.n, k, True, masks)
        vc, _, nc = _gamma_cy.solve_gamma(g.n, k, True, masks)
        checks.expect((vp, np_) == (vc, nc),
                      f"kernels differ: pure {vp}/{np_} compiled {vc}/{nc}")
    return f"compared {len(cases)} instances"


WORKLOADS = {w.name: w for w in (Sweep(), HardGamma())}
