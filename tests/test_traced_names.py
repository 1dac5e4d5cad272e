"""Every name the benchmark tracer wraps still exists.

``perfbench/tracer.py`` replaces attributes of arithex modules and classes
with timing wrappers.  A renamed or deleted target would only fail the
traced benchmark run; this test fails at once.  It reads the tracer's
target list and nothing else of ``perfbench/``.
"""

import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves():
    targets = load_tracer()._targets()
    assert targets
    missing = []
    for owners, attr, name, _kind, _after in targets:
        for owner in owners if isinstance(owners, tuple) else (owners,):
            if not callable(getattr(owner, attr, None)):
                missing.append(f"{owner.__name__}.{attr} ({name})")
    assert not missing, f"traced names gone: {missing}"
