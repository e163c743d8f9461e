"""The per-layer benchmark tracer resolves each name it traces by getattr on
its ramphop module, so every name in its table must stay a public callable."""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _traced_layers():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)  # stdlib imports only
    return tracer.LAYERS


def test_every_traced_name_is_callable():
    for layer, names in _traced_layers().items():
        module = importlib.import_module(f"ramphop.{layer}")
        for name in names:
            assert callable(getattr(module, name, None)), f"ramphop.{layer}.{name}"
