"""The package's public surface: every name it re-exports resolves to the
defining module's object, and ``import phylocircuit`` loads no submodule
until one of them is asked for."""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import phylocircuit

SUBMODULES = ("enum2", "genetics", "metrics", "netgraph", "polytope", "reconstruct", "splits")
EXPORTS = {
    "metrics": ("DistanceVector", "find_kalmanson_order", "is_kalmanson",
                "min_path_vector", "resistance_vector"),
    "netgraph": ("CircularOrder", "PhyloNetwork", "bridges", "classify", "is_binary",
                 "load_network", "parse_network", "validate", "wye_delta"),
    "reconstruct": ("circular_decomposition", "invert_to_network",
                    "min_path_split_system", "resistance_split_system_direct"),
    "splits": ("CircularSplitSystem", "Split", "WeightedSplitSystem", "displayed_splits",
               "is_circular", "is_faithfully_phylogenetic", "is_outer_path",
               "network_from_splits", "refines", "split_metric",
               "weighted_network_from_splits"),
}
SURFACE = [(name, name) for name in SUBMODULES] + [
    (name, home) for home, names in EXPORTS.items() for name in names
]


@pytest.mark.parametrize("name, home", SURFACE, ids=[name for name, _ in SURFACE])
def test_public_name_resolves_to_its_definition(monkeypatch, name, home):
    module = importlib.import_module(f"phylocircuit.{home}")
    expected = module if name == home else getattr(module, name)
    # drop any binding an earlier access cached, so each form resolves anew
    monkeypatch.delitem(vars(phylocircuit), name, raising=False)
    assert getattr(phylocircuit, name) is expected
    monkeypatch.delitem(vars(phylocircuit), name)
    namespace = {}
    exec(f"from phylocircuit import {name}", namespace)
    assert namespace[name] is expected


def test_all_lists_the_surface():
    assert len(SURFACE) == 7 + 29
    assert sorted(phylocircuit.__all__) == sorted(name for name, _ in SURFACE)
    assert set(dir(phylocircuit)) >= {"__version__", *phylocircuit.__all__}


def test_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="module 'phylocircuit' has no attribute 'nope'"):
        phylocircuit.nope  # noqa: B018
    with pytest.raises(ImportError, match="cannot import name 'nope'"):
        exec("from phylocircuit import nope", {})


def test_import_and_dir_load_no_submodule():
    # a fresh process, since this one has long loaded every submodule;
    # dir lists the whole surface before any of it is loaded
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    done = subprocess.run(
        [sys.executable, "-c",
         "import sys, phylocircuit;"
         " print(sorted({'__version__', *phylocircuit.__all__} - set(dir(phylocircuit))));"
         " print(sorted(m for m in sys.modules if m.startswith('phylocircuit')))"],
        capture_output=True, text=True, check=True, timeout=60,
        env=dict(os.environ, PYTHONPATH=path),
    )
    assert done.stdout == "[]\n['phylocircuit']\n"
