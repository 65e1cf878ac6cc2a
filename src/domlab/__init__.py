"""domlab: exact computation and verification for k-tuple total (restrained)
domination and domatic numbers on small graphs."""

from .family_spec import FamilySpecError, family_graph
from .formulas import FormulaVerdict
from .graphs import (Graph, build_graph, complement, complementary_prism,
                     complete, complete_bipartite, complete_multipartite,
                     corona_k1, cycle, k_join, path, read_edge_list,
                     write_edge_list)
from .predicates import is_ktdp, is_ktds, is_ktrdp, is_ktrds
from .solver import (DominationQuery, Guards, GuardExceeded, SolveResult,
                     active_backend, domatic_exact, enumerate_domatic_partitions,
                     enumerate_optimal_sets, gamma_exact, gamma_naive,
                     gamma_naive_all, t0_exact)
from .verify import Report, SweepConfig, run_sweep
from .witnesses import validate_witness

__version__ = "0.1.0"

__all__ = [
    "FamilySpecError", "family_graph", "FormulaVerdict", "Graph",
    "build_graph", "complement", "complementary_prism", "complete",
    "complete_bipartite", "complete_multipartite", "corona_k1", "cycle",
    "k_join", "path", "read_edge_list", "write_edge_list", "is_ktdp",
    "is_ktds", "is_ktrdp", "is_ktrds", "DominationQuery", "Guards",
    "GuardExceeded", "SolveResult", "active_backend", "domatic_exact",
    "enumerate_domatic_partitions", "enumerate_optimal_sets", "gamma_exact",
    "gamma_naive", "gamma_naive_all", "t0_exact", "Report", "SweepConfig",
    "run_sweep", "validate_witness", "__version__",
]
