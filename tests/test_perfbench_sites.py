"""Every call site that perfbench's tracer wraps still exists.

``perfbench/tracer.py`` replaces ``(module, attribute)`` pairs of
``rbsdetree`` with timing wrappers; a deleted or renamed name breaks a traced
benchmark run.  The tracer imports only the standard library, so it is
loaded here by path.
"""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def test_every_tracer_site_resolves():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    missing = [
        f"{module}.{attr}"
        for module, attr, _, _ in tracer.SITES
        if not callable(getattr(importlib.import_module(f"rbsdetree.{module}"), attr, None))
    ]
    assert tracer.SITES
    assert not missing, missing
