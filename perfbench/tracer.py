"""Span tracing by wrapping the names one mcdwin module takes from another.

Nothing in the library changes: `Tracer.install` replaces module-global names
with timing wrappers and `Tracer.uninstall` puts the originals back.  Wrapped
are every function a module imports from another mcdwin module, plus the
names reached through a module object or called inside their own module
(`simulate_ber_taps` from `sweep`, the searches behind `select_window`, the
metric functions `optimizer` calls as `metrics.<name>`).  Spans stay in
memory as [name, start, end, parent, info] until the caller writes them out.
"""
from __future__ import annotations

import functools
import importlib
import types
from collections import defaultdict
from time import perf_counter

MODULES = ("channel", "cli", "errors", "metrics", "montecarlo", "optimizer", "reception")

# (defining module, function) -> span name; other functions take the module name.
SPAN_NAMES = {
    ("cli", "main"): "cli",
    ("montecarlo", "sweep"): "montecarlo.sweep",
    ("montecarlo", "simulate_ber_taps"): "montecarlo.simulate",
    ("optimizer", "select_window"): "optimizer.select",
    ("optimizer", "exhaustive_ber_search"): "optimizer.exhaustive",
    ("optimizer", "shift_tau_search"): "optimizer.shift_tau",
    ("optimizer", "numeric_metric_search"): "optimizer.numeric",
    ("optimizer", "closed_form_interval"): "optimizer.closed_form",
    ("reception", "threshold_from_taps"): "reception.threshold",
    ("reception", "ber_floor_from_taps"): "reception.floor",
}

# Names looked up in their own module at call time, so wrapped there.
OWN_NAMESPACE = (
    ("cli", "main"),
    ("montecarlo", "simulate_ber_taps"),
    ("optimizer", "select_window"),
    ("optimizer", "exhaustive_ber_search"),
    ("optimizer", "shift_tau_search"),
    ("optimizer", "numeric_metric_search"),
    ("optimizer", "closed_form_interval"),
    ("metrics", "msinar"),
    ("metrics", "q_hat"),
    ("metrics", "g_factor"),
    ("metrics", "metric_values_from_taps"),
)

# Counted, not timed: (module, name, counter).  The grid builders report how
# many candidate windows a search sees; pool construction counts pools.
COUNTED = (
    ("optimizer", "_continuous_grid", "windows"),
    ("optimizer", "_sampled_grid", "windows"),
    ("montecarlo", "ProcessPoolExecutor", "pools"),
)


def _span_info(name: str, args: tuple, kwargs: dict):
    if name == "montecarlo.simulate":
        cfg = args[3] if len(args) > 3 else kwargs["cfg"]
        return cfg.trials
    if name == "reception.threshold":
        taps = args[1] if len(args) > 1 else kwargs["taps"]
        return 1 << (len(taps.lags) - 1)
    return None


def _counted_amount(counter: str, result) -> int:
    if counter == "windows":
        return int(result[-1].shape[-1])  # var has shape (L+1, windows)
    return 1


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        # (counter, name of the enclosing span) -> amount
        self.counts: dict[tuple[str, str], int] = defaultdict(int)
        self._stack: list[int] = []
        self._saved: list[tuple[types.ModuleType, str, object]] = []

    def reset(self) -> None:
        self.spans = []
        self.counts = defaultdict(int)

    def _timed(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(self.spans)
            parent = self._stack[-1] if self._stack else -1
            span = [name, 0.0, 0.0, parent, _span_info(name, args, kwargs)]
            self.spans.append(span)
            self._stack.append(index)
            span[1] = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                self._stack.pop()

        return traced

    def _counting(self, counter: str, fn):
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            result = fn(*args, **kwargs)
            owner = self.spans[self._stack[-1]][0] if self._stack else ""
            self.counts[(counter, owner)] += _counted_amount(counter, result)
            return result

        return counted

    def _replace(self, module: types.ModuleType, attr: str, wrapper) -> None:
        self._saved.append((module, attr, getattr(module, attr)))
        setattr(module, attr, wrapper)

    def install(self) -> None:
        modules = {name: importlib.import_module(f"mcdwin.{name}") for name in MODULES}
        for short, module in modules.items():
            for attr, value in list(vars(module).items()):
                if not isinstance(value, types.FunctionType):
                    continue
                owner = value.__module__.rpartition(".")[2]
                if owner == short or owner not in modules:
                    continue
                name = SPAN_NAMES.get((owner, value.__name__), owner)
                self._replace(module, attr, self._timed(name, value))
        for short, attr in OWN_NAMESPACE:
            module = modules[short]
            name = SPAN_NAMES.get((short, attr), short)
            self._replace(module, attr, self._timed(name, getattr(module, attr)))
        for short, attr, counter in COUNTED:
            module = modules[short]
            self._replace(module, attr, self._counting(counter, getattr(module, attr)))

    def uninstall(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the time its child spans cover."""
    child = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    return [end - start - child[i] for i, (_, start, end, _, _) in enumerate(spans)]


def layer_metrics(spans: list[list], counts: dict[tuple[str, str], int]) -> dict[str, float]:
    """Per-layer counts and self times of one traced pass."""
    own = self_times(spans)
    calls: dict[str, int] = defaultdict(int)
    self_s: dict[str, float] = defaultdict(float)
    total_s: dict[str, float] = defaultdict(float)
    info: dict[str, int] = defaultdict(int)
    # threshold scans by the span that asked for them
    scans_under: dict[str, int] = defaultdict(int)
    for i, (name, start, end, parent, extra) in enumerate(spans):
        calls[name] += 1
        self_s[name] += own[i]
        total_s[name] += end - start
        if extra is not None:
            info[name] += extra
        if name == "reception.threshold" and parent >= 0:
            scans_under[spans[parent][0]] += 1

    candidates = counts.get(("windows", "optimizer.exhaustive"), 0)
    scanned = scans_under["optimizer.exhaustive"]
    simulate_s = total_s["montecarlo.simulate"]
    pools = sum(n for (counter, _), n in counts.items() if counter == "pools")
    return {
        "cli.self_s": self_s["cli"],
        "montecarlo.simulate.calls": calls["montecarlo.simulate"],
        "montecarlo.simulate.self_s": self_s["montecarlo.simulate"],
        "montecarlo.trials": info["montecarlo.simulate"],
        "montecarlo.trials_per_s": info["montecarlo.simulate"] / simulate_s if simulate_s else 0.0,
        "montecarlo.pools": pools,
        "optimizer.exhaustive.self_s": self_s["optimizer.exhaustive"],
        "optimizer.exhaustive.candidates": candidates,
        "optimizer.exhaustive.scanned": scanned,
        "optimizer.exhaustive.scan_frac": scanned / candidates if candidates else 0.0,
        "optimizer.shift_tau.self_s": self_s["optimizer.shift_tau"],
        "optimizer.shift_tau.taus": scans_under["optimizer.shift_tau"],
        "optimizer.numeric.self_s": self_s["optimizer.numeric"],
        "optimizer.closed_form.self_s": self_s["optimizer.closed_form"],
        "reception.threshold.calls": calls["reception.threshold"],
        "reception.threshold.self_s": self_s["reception.threshold"],
        "reception.threshold.sequences": info["reception.threshold"],
        "reception.floor.calls": calls["reception.floor"],
        "reception.floor.self_s": self_s["reception.floor"],
        "metrics.calls": calls["metrics"],
        "metrics.self_s": self_s["metrics"],
        "channel.calls": calls["channel"],
        "channel.self_s": self_s["channel"],
    }
