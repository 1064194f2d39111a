"""Weighted phylogenetic networks as resistor circuits."""

__version__ = "0.1.0"

from . import (  # noqa: F401
    enum2,
    genetics,
    metrics,
    netgraph,
    polytope,
    reconstruct,
    splits,
)
from .metrics import (  # noqa: F401
    DistanceVector,
    find_kalmanson_order,
    is_kalmanson,
    min_path_vector,
    resistance_vector,
)
from .netgraph import (  # noqa: F401
    CircularOrder,
    PhyloNetwork,
    bridges,
    classify,
    is_binary,
    load_network,
    parse_network,
    validate,
    wye_delta,
)
from .reconstruct import (  # noqa: F401
    circular_decomposition,
    invert_to_network,
    min_path_split_system,
    resistance_split_system_direct,
)
from .splits import (  # noqa: F401
    CircularSplitSystem,
    Split,
    WeightedSplitSystem,
    displayed_splits,
    is_circular,
    is_faithfully_phylogenetic,
    is_outer_path,
    network_from_splits,
    refines,
    split_metric,
    weighted_network_from_splits,
)
