"""Graph bootstrap percolation toolkit.

Build the slow-percolating scaffold constructions, run the K_r bootstrap
process to stabilization, verify the structural conditions behind the
step-per-pair lower bounds, and search small hosts exhaustively.
"""

# engine first: it is the largest module to compile, and where no bytecode
# cache is written, the modules loaded after it reuse its compile's memory
from .engine import PercolationTrace, replay, run, run_oracle, step_kr
from .apsets import ApSet, ap_digits3, ap_max_exhaustive
from .constructions import (
    ConstructionOutput,
    IntegrityError,
    build_chain,
    build_h6,
    build_hB,
    build_hprime,
    minimal_percolating,
)
from .graphs import (
    Graph,
    UniformHypergraph,
    cone,
    two_skeleton,
)
from .search import MaxTimeResult, max_running_time, max_running_time_sampled
from .verify import (
    VerificationReport,
    check_ap_free,
    check_induced_free,
    check_pair_condition,
    check_residue_lemma,
    verify_construction,
)

__version__ = "0.1.0"

__all__ = [
    "ApSet",
    "ConstructionOutput",
    "Graph",
    "IntegrityError",
    "MaxTimeResult",
    "PercolationTrace",
    "UniformHypergraph",
    "VerificationReport",
    "ap_digits3",
    "ap_max_exhaustive",
    "build_chain",
    "build_h6",
    "build_hB",
    "build_hprime",
    "check_ap_free",
    "check_induced_free",
    "check_pair_condition",
    "check_residue_lemma",
    "cone",
    "max_running_time",
    "max_running_time_sampled",
    "minimal_percolating",
    "replay",
    "run",
    "run_oracle",
    "step_kr",
    "two_skeleton",
    "verify_construction",
]
