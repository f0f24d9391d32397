"""The span names that ``perfbench/spans.py`` aggregates must name real
public functions and methods, or the per-layer figures silently read 0.

The tracer wraps the public functions of each layer module and the
public methods in each public class's own ``vars()``, and names a span
``layer:__qualname__``.  A rename, a move into a base class or a private
helper would leave a name in ``GROUPS`` or ``COUNTERS`` that no span can
carry."""

import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

SPANS_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("_perfbench_spans",
                                                  SPANS_PATH)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


spans = _load_spans()
NAMES = sorted({key for self_keys, call_keys in spans.GROUPS.values()
                for key in (*self_keys, *call_keys)} | set(spans.COUNTERS))


def test_names_found():
    assert len(NAMES) >= 31


@pytest.mark.parametrize("key", NAMES)
def test_traced_name_is_public_function_or_method(key):
    layer, qualname = key.split(":")
    modname = spans.LAYERS[layer]
    mod = importlib.import_module(modname)
    *owner_path, attr = qualname.split(".")
    assert spans._public(attr)
    owner = mod
    for part in owner_path:
        assert spans._public(part)
        owner = vars(owner)[part]
        assert inspect.isclass(owner) and owner.__module__ == modname
    fn = vars(owner)[attr]
    if isinstance(fn, (classmethod, staticmethod)):
        fn = fn.__func__
    assert inspect.isfunction(fn)
    assert fn.__module__ == modname
    assert fn.__qualname__ == qualname
