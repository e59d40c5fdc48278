"""The benchmark tracer finds every library name it wraps.

`perfbench/tracer.py` times layers by replacing module-global names; a
renamed function would silently leave its per-layer metric at 0.  One tiny
search per BER scheme, traced, must fill the search metrics.
"""
import importlib
import types

from mcdwin import Scheme, optimizer
from conftest import absorbing_params, load_perfbench


def _functions(tracer):
    modules = [importlib.import_module(f"mcdwin.{name}") for name in tracer.MODULES]
    return {
        (module.__name__, attr): value
        for module in modules
        for attr, value in vars(module).items()
        if isinstance(value, (types.FunctionType, type))
    }


def test_traced_searches_fill_their_metrics():
    tracer_mod = load_perfbench("tracer")
    before = _functions(tracer_mod)
    tracer = tracer_mod.Tracer()
    tracer.install()
    try:
        params = absorbing_params(L=2, Q=500)
        for scheme in (Scheme.SHIFT_TAU, Scheme.EXHAUSTIVE_BER):
            optimizer.select_window(params, scheme, 0.2 / 20)
        layers = tracer_mod.layer_metrics(tracer.spans, tracer.counts)
    finally:
        tracer.uninstall()
    after = _functions(tracer_mod)
    assert before.keys() == after.keys()
    assert all(after[key] is value for key, value in before.items())
    assert layers["optimizer.shift_tau.taus"] > 0
    assert layers["optimizer.exhaustive.scanned"] > 0
    # 21 grid edges give 21 * 20 / 2 candidate windows
    assert layers["optimizer.exhaustive.candidates"] == 210


def test_every_traced_name_resolves():
    # the tracer finds its names by (module, __name__); a deleted or renamed
    # one would read 0 without any error
    tracer_mod = load_perfbench("tracer")
    keys = [*tracer_mod.SPAN_NAMES, *tracer_mod.OWN_NAMESPACE]
    keys += [(module, name) for module, name, _ in tracer_mod.COUNTED]
    for module, name in keys:
        value = getattr(importlib.import_module(f"mcdwin.{module}"), name, None)
        assert getattr(value, "__name__", None) == name, f"mcdwin.{module}.{name}"
