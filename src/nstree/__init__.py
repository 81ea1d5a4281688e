"""Normal trees on finite graphs.

Rooted trees whose tree order tames every path of the host graph, the
constructions that build them (depth-first, path-guided sweeps, local
and cover-guided variants), Menger-style vertex connectivity, and
fat-TK certificates, with bounded exploration of generator-defined
infinite graphs.
"""

from types import ModuleType as _ModuleType

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

# every public name bound above, less the layer modules the imports bind
__all__ = [k for k, v in globals().items() if k[0] != "_" and not isinstance(v, _ModuleType)]
