"""The benchmark's per-layer span boundaries must exist in the simulator.

``simbench/spans.py`` wraps each ``(module, class, attribute)`` of its
``BOUNDARIES`` table by name when a traced run starts.  A renamed or
moved boundary would only surface there, so this test pins the table
against the source tree.  The spans module is loaded from its file and
only read: no wrapper is installed.
"""

from __future__ import annotations

import importlib
import importlib.util
from pathlib import Path

import pytest

from repro.cpu.core import Core

SPANS_PATH = Path(__file__).resolve().parents[1] / "simbench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("_simbench_spans",
                                                  SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


BOUNDARIES = _load_spans().BOUNDARIES


@pytest.mark.parametrize(
    "layer,module_name,owner,attrs", BOUNDARIES,
    ids=[f"{row[2] or row[1]}.{'/'.join(row[3])}" for row in BOUNDARIES])
def test_boundary_is_defined(layer, module_name, owner, attrs) -> None:
    module = importlib.import_module(module_name)
    if owner is None:
        namespace = vars(module)
    else:
        assert owner in vars(module), f"{module_name}.{owner} is gone"
        # The class's own __dict__: spans.py wraps the attribute there,
        # so an inherited one would not do.
        namespace = vars(module)[owner].__dict__
    for attr in attrs:
        assert attr in namespace, f"{module_name}.{owner}.{attr} is gone"


def test_fastpath_kind_tags() -> None:
    assert (getattr(Core._step_buffered, "_fp_kind", 0),
            getattr(Core._on_complete, "_fp_kind", 0)) == (2, 1)
