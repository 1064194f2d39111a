"""Weighted phylogenetic networks as resistor circuits.

Submodules and the names re-exported below load on first access
(PEP 562), so ``import phylocircuit`` loads none of them and a command
that needs only ``netgraph`` never compiles the rest.
"""

__version__ = "0.1.0"

_SUBMODULES = (
    "enum2",
    "genetics",
    "metrics",
    "netgraph",
    "polytope",
    "reconstruct",
    "splits",
)
_EXPORTS = {
    "metrics": (
        "DistanceVector",
        "find_kalmanson_order",
        "is_kalmanson",
        "min_path_vector",
        "resistance_vector",
    ),
    "netgraph": (
        "CircularOrder",
        "PhyloNetwork",
        "bridges",
        "classify",
        "is_binary",
        "load_network",
        "parse_network",
        "validate",
        "wye_delta",
    ),
    "reconstruct": (
        "circular_decomposition",
        "invert_to_network",
        "min_path_split_system",
        "resistance_split_system_direct",
    ),
    "splits": (
        "CircularSplitSystem",
        "Split",
        "WeightedSplitSystem",
        "displayed_splits",
        "is_circular",
        "is_faithfully_phylogenetic",
        "is_outer_path",
        "network_from_splits",
        "refines",
        "split_metric",
        "weighted_network_from_splits",
    ),
}
# public name -> the submodule that defines it; a submodule maps to itself
_HOME = {name: name for name in _SUBMODULES} | {
    name: module for module, names in _EXPORTS.items() for name in names
}

__all__ = list(_HOME)


def __getattr__(name):
    home = _HOME.get(name)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # __import__, not importlib.import_module, so that -X importtime lists
    # the import; with a fromlist it returns the submodule, not the package
    module = __import__(f"{__name__}.{home}", fromlist=[name])
    value = module if name == home else getattr(module, name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
