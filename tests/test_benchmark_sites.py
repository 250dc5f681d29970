"""The benchmark's traced functions exist where it looks them up.

``perfbench/layers.py`` wraps functions of ``oib`` by module and name, so
renaming or moving one breaks the benchmark without failing any test of
the package.  This reads its ``SITES`` list as it is and checks every
entry: the name resolves in the module the benchmark patches, and it is
the function of the module the span is named after.
"""

import importlib
import importlib.util
from pathlib import Path

LAYERS = Path(__file__).resolve().parents[1] / "perfbench" / "layers.py"


def benchmark_sites():
    spec = importlib.util.spec_from_file_location("perfbench_layers", LAYERS)
    layers = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layers)
    return layers.SITES


def test_every_benchmark_site_resolves():
    sites = benchmark_sites()
    assert sites
    unresolved = []
    for lookup, attr, owner, _, _ in sites:
        found = getattr(importlib.import_module("oib." + lookup), attr, None)
        defined = getattr(importlib.import_module("oib." + owner), attr, None)
        if found is None or found is not defined:
            unresolved.append("oib.%s.%s (span %s.%s)"
                              % (lookup, attr, owner, attr))
    assert unresolved == []
