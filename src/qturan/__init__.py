"""qturan: verification and search toolkit for signless-Laplacian spectral
extremal graph theory at desk scale."""

from .graphs import (
    Graph,
    Graph6Error,
    canonical_form,
    delete_vertex,
    from_edges,
    is_isomorphic,
    join,
    parse_graph6,
    to_graph6,
)

__version__ = "0.1.0"

# the kernels are pure Python; benchmark records name the backend they ran on
KERNEL_BACKEND = "pure"
