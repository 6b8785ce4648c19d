"""The benchmark's span tracer wraps package functions by name, from
outside the package (`bench/tracing.py`).  Every name it wraps must still
resolve where it looks it up, or a traced benchmark run fails."""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize(
    "name,module,cls,attr",
    [layer[:4] for layer in load_tracing().LAYERS],
    ids=lambda v: v if isinstance(v, str) else "",
)
def test_layer_resolves(name, module, cls, attr):
    owner = importlib.import_module(module)
    if cls is not None:
        owner = vars(owner)[cls]
    assert callable(vars(owner).get(attr)), f"{name}: {module}.{cls or ''}{attr}"
