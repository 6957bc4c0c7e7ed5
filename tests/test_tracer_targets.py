"""The benchmark's traced pass wraps named functions and methods of sl2swc
from outside the package (perfbench/tracer.py); a rename here would make it
fail with AttributeError.  Every traced target must resolve."""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _traced():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod.TRACED


@pytest.mark.parametrize("target", _traced(), ids=".".join)
def test_traced_target_resolves(target):
    mod = importlib.import_module(f"sl2swc.{target[0]}")
    obj = getattr(mod, target[1])
    if len(target) == 3:
        # install() replaces the method found in the class's own namespace
        assert target[2] in vars(obj)
    else:
        assert callable(obj)
