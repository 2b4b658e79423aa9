import importlib
import importlib.util
import pkgutil
import sys
from pathlib import Path

import numpy as np

import fepkit
import fepkit.classify
from fepkit.selftest import planted_jordan


def test_every_export_resolves():
    modules = [fepkit] + [
        importlib.import_module(f"fepkit.{info.name}") for info in pkgutil.iter_modules(fepkit.__path__)
    ]
    for module in modules:
        missing = [name for name in getattr(module, "__all__", ()) if not hasattr(module, name)]
        assert not missing, f"{module.__name__}.__all__ names missing attributes: {missing}"


def test_traced_names_resolve(monkeypatch):
    """Every function the benchmark's tracer rebinds exists in its layer module.

    ``perfbench/spans.py`` is loaded from its file and only read.  The route
    metric needs ``classify_point`` to reach both routes through module
    globals, which is what the tracer rebinds.
    """
    path = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
    spec = importlib.util.spec_from_file_location("perfbench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, spans)  # dataclasses look their module up
    spec.loader.exec_module(spans)
    for layer, names in spans.TRACED.items():
        module = importlib.import_module(f"fepkit.{layer}")
        missing = [name for name in names if not callable(getattr(module, name, None))]
        assert not missing, f"fepkit.{layer} lacks traced functions {missing}"
    classify = importlib.import_module("fepkit.classify")
    assert {"flv_modes", "weyr_oracle"} <= set(classify.classify_point.__code__.co_names)


def test_route_order(monkeypatch):
    """The route ``classify_point`` enters first is the one it picked.

    The benchmark's ``classify.weyr_route_frac`` counts calls whose first
    routed function is ``weyr_oracle``, so the modal route must enter
    ``flv_modes`` before its Weyr cross-check.
    """
    calls = []
    for name in ("flv_modes", "weyr_oracle"):
        fn = getattr(fepkit.classify, name)

        def recorded(*args, _name=name, _fn=fn, **kwargs):
            calls.append(_name)
            return _fn(*args, **kwargs)

        monkeypatch.setattr(fepkit.classify, name, recorded)
    rng = np.random.default_rng(0)
    fepkit.classify.classify_point(planted_jordan(rng, 4, [2, 1]), 0.0)
    assert calls[0] == "flv_modes"
    calls.clear()
    fepkit.classify.classify_point(planted_jordan(rng, 24, [2, 1]), 0.0)
    assert calls[0] == "weyr_oracle"
