"""Sweep internals: how often each section calls the solvers, and the names
the benchmark harness reads on domlab and patches on domlab.verify."""

import ast
from pathlib import Path

import domlab
from domlab import verify
from domlab.family_spec import family_graph
from domlab.formulas import FormulaVerdict
from domlab.solver import SolveResult

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
PERFBENCH_RUN = PERFBENCH / "run.py"


def test_properties_run_one_domatic_search_per_graph_and_k(monkeypatch):
    calls = []
    real = verify.domatic_exact

    def counting(q, *args, **kw):
        calls.append((q.graph, q.k))
        return real(q, *args, **kw)

    monkeypatch.setattr(verify, "domatic_exact", counting)
    verify.check_properties(7, 12)
    expected = [(g, k) for _, g in verify.random_suite(8, 12, 4, 10,
                                                       min_degree=1)
                for k in (1, 2) if g.min_degree >= k]
    assert calls == expected


def test_properties_call_no_enumerator(monkeypatch):
    def refuse(*args, **kw):
        raise AssertionError("check_properties enumerated")

    for name in ("enumerate_domatic_partitions", "enumerate_optimal_sets"):
        monkeypatch.setattr(verify, name, refuse)
    assert verify.check_properties(7, 20)


def _equality_rows(seed, count):
    return [r for r in verify.check_properties(seed, count)
            if r.instance.startswith("prop:equality-classes-optimal:")]


def test_equality_rows_read_the_naive_gamma(monkeypatch):
    # seed 7 with 20 graphs has six graph-k pairs where gamma * d = n
    rows = _equality_rows(7, 20)
    assert len(rows) == 6 and all(r.match for r in rows)
    real = verify.gamma_naive
    monkeypatch.setattr(verify, "gamma_naive", lambda q: SolveResult(
        True, real(q).value + 1, frozenset()))
    rows = _equality_rows(7, 20)
    assert len(rows) == 6 and not any(r.match for r in rows)


def test_prism_oracle_disagreement_keeps_the_row_note(monkeypatch):
    # an oracle that never agrees, and a regular-window bound no value meets,
    # so that row is a discrepancy that already carries a note
    monkeypatch.setattr(verify, "gamma_naive",
                        lambda q: SolveResult(True, -1, frozenset()))
    monkeypatch.setattr(verify.formulas, "f_prism_regular_lb",
                        lambda n, ell, k: FormulaVerdict(lower=100))
    rows = {r.instance: r for r in verify.check_prisms()}
    window = rows["prism:cycle:4|k=2|regular-window"]
    assert window.discrepancy
    assert window.note == ("2n corollary read as total-restrained; "
                           "oracle disagrees with kernel")
    assert rows["prism:path:8|k=1|gamma-r"].note == \
        "oracle disagrees with kernel"
    confirm = rows["prism:cycle:4|k=2|regular-window|oracle-confirm"]
    assert (confirm.solver, confirm.match) == ("-1", False)
    # only the kernel rows are confirmed, not the confirm rows themselves
    assert "confirmed" not in confirm.note
    assert not any(i.endswith("|oracle-confirm|oracle-confirm") for i in rows)


def test_regular_window_rows_are_not_allowlisted():
    # the 2n corollary is read as total-restrained; every row matches, so a
    # row that stopped matching would count as a discrepancy
    rows = [r for r in verify.check_prisms()
            if r.instance.endswith("|regular-window")]
    assert len(rows) == 5
    assert all(r.match and not r.allowlisted for r in rows)


def test_fixed_family_labels_build_a_graph_of_the_row_size():
    sections = ("complete", "cycles", "complements", "bipartite",
                "multipartite", "prisms", "kjoin", "witnesses")
    rows = [r for name in sections for r in verify.SECTIONS[name]()]
    assert len(rows) == 675
    assert [r.instance for r in rows
            if family_graph(r.family).n != r.n] == []


def _module_constant(path: Path, name: str):
    """A literal assigned at module level, read without importing the file."""
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == name for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError(f"{name} not assigned in {path}")


def _dl_chains(path: Path) -> set[tuple[str, ...]]:
    """Every attribute chain dl.a.b... in a file (dl is the domlab module)."""
    chains = set()
    for node in ast.walk(ast.parse(path.read_text())):
        names = []
        while isinstance(node, ast.Attribute):
            names.append(node.attr)
            node = node.value
        if names and isinstance(node, ast.Name) and node.id == "dl":
            chains.add(tuple(reversed(names)))
    return chains


def _resolves(chain: tuple[str, ...]) -> bool:
    obj = domlab
    for name in chain:
        if not hasattr(obj, name):
            return False
        obj = getattr(obj, name)
    return True


def test_perfbench_names_exist_on_verify():
    layer_of = _module_constant(PERFBENCH_RUN, "LAYER_OF")
    assert [a for a in layer_of if not hasattr(verify, a)] == []
    assert tuple(verify.SECTIONS) == _module_constant(PERFBENCH_RUN,
                                                      "SECTIONS")
    chains = _dl_chains(PERFBENCH_RUN) | _dl_chains(PERFBENCH / "workloads.py")
    assert {("active_backend",), ("Guards",), ("verify", "random_suite"),
            ("smallgraphs", "all_graphs", "cache_info")} <= chains
    assert sorted(c for c in chains if not _resolves(c)) == []


def test_sandwich_builds_only_the_graphs_it_solves(monkeypatch):
    built = []
    for name in ("complement", "complementary_prism"):
        real = getattr(verify, name)
        monkeypatch.setattr(verify, name, lambda g, real=real, name=name:
                            built.append(name) or real(g))
    rows = verify.check_sandwich()
    assert len(rows) == 179
    assert built.count("complement") == built.count("complementary_prism") \
        == len(rows)
