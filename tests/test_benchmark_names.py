"""The benchmark's traced run wraps package functions by name; every name it
lists must keep resolving in ``mpf_lab``."""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "mpfbench" / "tracer.py"


def _layers() -> dict[str, tuple[str, ...]]:
    spec = importlib.util.spec_from_file_location("mpfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.LAYERS


def test_traced_names_resolve():
    layers = _layers()
    assert layers
    for module_name, qualnames in layers.items():
        module = importlib.import_module(f"mpf_lab.{module_name}")
        for qualname in qualnames:
            owner = module
            for part in qualname.split("."):
                assert hasattr(owner, part), f"mpf_lab.{module_name}.{qualname} is gone"
                owner = getattr(owner, part)
            assert callable(owner), f"mpf_lab.{module_name}.{qualname} is not callable"
