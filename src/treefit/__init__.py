"""treefit: certificate-producing tree containment above the minimum degree.

Decides whether a host graph G contains a guest tree T as a subgraph, in the
regime where T has up to min_degree(G)+k vertices, and always backs a YES
with an explicit verified embedding.
"""

from .embedding import PartialEmbedding, chvatal_extend, verify
from .graph import Graph, parse_graph, read_graph
from .outcome import Contains, NotContained, NotFound, SolveOutcome
from .pipeline import SolveConfig, brute_force_contains, solve, verify_certificate
from .trees import Tree, parse_tree, read_tree

__all__ = [
    "Contains",
    "Graph",
    "NotContained",
    "NotFound",
    "PartialEmbedding",
    "SolveConfig",
    "SolveOutcome",
    "Tree",
    "brute_force_contains",
    "chvatal_extend",
    "parse_graph",
    "parse_tree",
    "read_graph",
    "read_tree",
    "solve",
    "verify",
    "verify_certificate",
]

__version__ = "0.1.0"
