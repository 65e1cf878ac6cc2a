"""domlab: exact computation and verification for k-tuple total (restrained)
domination and domatic numbers on small graphs.

`import domlab` loads the solver and what it needs: `graphs`, `predicates`
and `solver`. The verification sweep (`verify`, `witnesses`, `formulas`,
`smallgraphs`), the family-spec parser and the CLI load on first access to
one of their names, so a solve does not pay for them.
"""

import importlib

from .graphs import (Graph, build_graph, complement, complementary_prism,
                     complete, complete_bipartite, complete_multipartite,
                     corona_k1, cycle, k_join, path, read_edge_list,
                     write_edge_list)
from .predicates import is_ktds, is_ktrdp, is_ktrds
from .solver import (DominationQuery, Guards, GuardExceeded, SolveResult,
                     active_backend, domatic_exact, enumerate_domatic_partitions,
                     enumerate_optimal_sets, gamma_exact, gamma_naive,
                     gamma_naive_all, t0_exact)

__version__ = "0.1.0"

__all__ = [
    "FamilySpecError", "family_graph", "FormulaVerdict", "Graph",
    "build_graph", "complement", "complementary_prism", "complete",
    "complete_bipartite", "complete_multipartite", "corona_k1", "cycle",
    "k_join", "path", "read_edge_list", "write_edge_list", "is_ktds",
    "is_ktrdp", "is_ktrds", "DominationQuery", "Guards",
    "GuardExceeded", "SolveResult", "active_backend", "domatic_exact",
    "enumerate_domatic_partitions", "enumerate_optimal_sets", "gamma_exact",
    "gamma_naive", "gamma_naive_all", "t0_exact", "Report", "SweepConfig",
    "run_sweep", "validate_witness", "__version__",
]

# name -> the submodule that defines it, loaded on first access
_LAZY = {
    "FamilySpecError": "family_spec", "family_graph": "family_spec",
    "FormulaVerdict": "formulas", "Report": "verify", "SweepConfig": "verify",
    "run_sweep": "verify", "validate_witness": "witnesses",
}
_SUBMODULES = ("cli", "family_spec", "formulas", "smallgraphs", "verify",
               "witnesses")


def __getattr__(name):
    if name in _SUBMODULES:
        # importing a submodule binds it on the package
        return importlib.import_module(f"{__name__}.{name}")
    if name in _LAZY:
        return getattr(importlib.import_module(f"{__name__}.{_LAZY[name]}"),
                       name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
