"""Sweep internals: how often each section calls the solvers, and the names
the benchmark harness reads on domlab and patches on domlab.verify."""

import ast
from pathlib import Path

import domlab
from domlab import verify

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
