"""Normal trees on finite graphs.

Rooted trees whose tree order tames every path of the host graph, the
constructions that build them (depth-first, path-guided sweeps, local
and cover-guided variants), Menger-style vertex connectivity, and
fat-TK certificates, with bounded exploration of generator-defined
infinite graphs.
"""

from .connectivity import (
    InseparableError,
    Path,
    PathFamily,
    Separator,
    kappa,
    max_independent_paths,
    min_blocking_set,
    min_separator,
)
from .construct import (
    BUDGET_EXHAUSTED,
    SPANNING,
    TARGET_COVERED,
    DispersedCover,
    ExtensionStep,
    RunTrace,
    dfs_nst,
    levels_of,
    local_normal_tree,
    nst_from_dispersed_cover,
    omega_nst,
)
from .fattk import (
    CertificateReport,
    DispersednessVerdict,
    FatTKCertificate,
    FatTKFailure,
    find_fat_tk,
    is_dispersed,
    kappa_necessary_check,
    verify_fat_tk,
)
from .generators import GraphGenerator, make_generator, truncate
from .graph import Graph, components, induced_subgraph, is_connected, neighborhood
from .tree import (
    NormalityReport,
    RootedTree,
    down_closure,
    is_chain,
    is_normal,
    separates_incomparable,
    tree_leq,
)

__version__ = "0.1.0"

__all__ = [
    "Graph",
    "GraphGenerator",
    "RootedTree",
    "NormalityReport",
    "Path",
    "PathFamily",
    "Separator",
    "InseparableError",
    "ExtensionStep",
    "RunTrace",
    "DispersedCover",
    "SPANNING",
    "BUDGET_EXHAUSTED",
    "TARGET_COVERED",
    "FatTKCertificate",
    "CertificateReport",
    "FatTKFailure",
    "DispersednessVerdict",
    "components",
    "neighborhood",
    "induced_subgraph",
    "is_connected",
    "truncate",
    "make_generator",
    "tree_leq",
    "down_closure",
    "is_chain",
    "is_normal",
    "separates_incomparable",
    "kappa",
    "max_independent_paths",
    "min_separator",
    "min_blocking_set",
    "dfs_nst",
    "omega_nst",
    "local_normal_tree",
    "nst_from_dispersed_cover",
    "levels_of",
    "verify_fat_tk",
    "find_fat_tk",
    "kappa_necessary_check",
    "is_dispersed",
]
