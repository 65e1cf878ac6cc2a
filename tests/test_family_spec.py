import pytest

from domlab.family_spec import FamilySpecError, family_graph


def test_base_families():
    assert family_graph("complete:5").n == 5
    assert family_graph("cycle:6").num_edges == 6
    assert family_graph("path:4").num_edges == 3
    assert family_graph("bipartite:2,3").num_edges == 6
    assert family_graph("kpartite:2,2,2").n == 6


def test_operators_compose():
    g = family_graph("complement:cycle:6")
    assert all(g.degree(v) == 3 for v in range(6))
    assert family_graph("prism:cycle:5").n == 10
    assert family_graph("corona:complete:3").n == 6
    assert family_graph("prism:complement:path:4").n == 8


def test_kjoin_spec():
    g = family_graph("kjoin:cycle:4:complete:2:k=1")
    assert g.n == 6


@pytest.mark.parametrize("bad", [
    "unknown:4", "cycle", "cycle:x", "bipartite:2", "kjoin:cycle:4:complete:2",
    "cycle:5:extra", "prism", "kpartite:2,,2", "bipartite:3,3,",
    "kpartite:,2,2,2",
])
def test_bad_specs_raise(bad):
    with pytest.raises(FamilySpecError):
        family_graph(bad)
