"""The benchmark's span tracer (perfbench/tracer.py) wraps crowdinfer functions
by name.  A source change that renames or deletes one of them breaks every
traced benchmark run; this test catches it in the unit suite."""

import importlib.util
import sys
from pathlib import Path

import crowdinfer.cli  # noqa: F401  imports every module the tracer patches

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _tracer_module():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _bindings():
    """Every name bound in a crowdinfer module, and each class's own
    __post_init__, as (owner, name) -> object."""
    out = {}
    for mod_name, mod in list(sys.modules.items()):
        if mod_name == "crowdinfer" or mod_name.startswith("crowdinfer."):
            for key, value in vars(mod).items():
                out[mod_name, key] = value
                if isinstance(value, type) and "__post_init__" in vars(value):
                    out[value, "__post_init__"] = vars(value)["__post_init__"]
    return out


def test_tracer_wraps_every_target_and_uninstalls_cleanly():
    tracer_mod = _tracer_module()
    before = _bindings()
    tracer = tracer_mod.Tracer()
    tracer.install()
    try:
        for mod_name, attr, _ in tracer_mod.TARGETS:
            target = getattr(sys.modules[f"crowdinfer.{mod_name}"], attr)
            span = target.__post_init__ if isinstance(target, type) else target
            assert hasattr(span, "__wrapped__"), f"{mod_name}.{attr} is not traced"
    finally:
        tracer.uninstall()
    after = _bindings()
    assert after.keys() == before.keys()
    assert [key for key in before if after[key] is not before[key]] == []
