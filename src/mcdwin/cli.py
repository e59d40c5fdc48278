"""Command-line interface: configuration, experiment orchestration, CSV emission.

Subcommands: metrics, optimize, simulate, sweep, reproduce.

Config files are flat ``key = value`` text ('#' comments allowed); every key
can be overridden on the command line with ``--set key=value``.  Lengths may
be given in metres (``d``, ``r``) or micrometres (``d_um``, ``r_um``);
everything is converted to SI once at this boundary and emitted back in SI.
One table, ``_KEYS``, gives every key its reader (which range-checks the
value and names the key when it refuses it), its default and what
``emit_config`` writes back.  An empty value means the key is unset, for
every key: ``--set key=`` clears a key the config file sets.

CSV output: comma separated, '.' decimal point, one header row, LF line
endings, floats printed with 17 significant digits (value-exact round
trip).  Schemas are versioned through the ``schema`` column.

Exit codes: 0 ok, 2 config/usage error, 3 domain error (SymbolTooShort,
DegenerateWindow, NoFiniteQhat, pole, ...), 4 I/O error.
"""
from __future__ import annotations

import argparse
import csv
import enum
import math
import os
import sys
from dataclasses import dataclass, fields, replace
from operator import attrgetter
from pathlib import Path
from typing import Callable, Iterable, NamedTuple, Sequence

import numpy as np

from . import metrics as metrics_mod
from . import optimizer as opt
from .channel import ContinuousWindow, Receiver, SystemParams
from .errors import ConfigError, DomainError
from .montecarlo import CHUNK_TRIALS, SweepRow, TrialConfig, sweep, sweep_row
from .optimizer import Scheme
from .reception import MAX_ENUMERATION_L

__all__ = ["ExperimentConfig", "parse_config", "main"]

WORKERS_ENV = "MCDWIN_WORKERS"

METRICS_SCHEMA = "mcdwin-metrics-v1"
SWEEP_SCHEMA = "mcdwin-sweep-v1"
CONV_SCHEMA = "mcdwin-conv-v1"
VER_SCHEMA = "mcdwin-ver-v1"
CMP_SCHEMA = "mcdwin-cmp-v1"

METRICS_HEADER = ["schema", "t1", "t2", "n1", "n2", "sir", "sid", "sinar", "msinar", "msid"]
SWEEP_HEADER = [
    "schema",
    "receiver",
    "T_s",
    "L",
    "Q",
    "scheme",
    "resolved_method",
    "t1",
    "t2",
    "n1",
    "n2",
    "tau",
    "threshold",
    "ber_analytic",
    "ber_mc",
    "mc_ci_halfwidth",
    "trials",
    "seed",
]
CONV_HEADER = ["schema", "figure", "receiver", "T_s", "L", "Q", "scheme", "t1", "t2", "n1", "n2"]
VER_HEADER = [
    "schema",
    "figure",
    "receiver",
    "T_s",
    "L",
    "Q",
    "scheme",
    "threshold",
    "ber_analytic",
    "ber_mc",
    "mc_ci_halfwidth",
    "trials",
]
_CMP_SCHEMES = [
    Scheme.NUMERIC_MSINAR,
    Scheme.NUMERIC_SINAR,
    Scheme.NUMERIC_SID,
    Scheme.SHIFT_TAU,
    Scheme.FULL_WINDOW,
]
CMP_HEADER = ["schema", "figure", "receiver", "T_s", "L", "Q"] + [
    f"{scheme.value.replace('-', '_')}_{col}"
    for scheme in _CMP_SCHEMES
    for col in ("ber_analytic", "ber_mc", "mc_ci_halfwidth")
]

REPRODUCE_FIGURES = ("conv-ab", "conv-pa", "ver-ab", "ver-pa", "cmp-ab", "cmp-pa")

# Table-1 geometries
_TABLE1_ABSORBING = {"d": 5e-6, "r": 5e-6, "D": 80e-12}
_TABLE1_PASSIVE = {"d": 9e-6, "r": 1e-6, "D": 80e-12}
_FIGURE_TS_L = {
    "ab": ([0.2, 0.3], [4, 5, 6, 8]),
    "pa": ([1.0, 2.0], [2, 3, 5, 10]),
}


@dataclass(frozen=True)
class ExperimentConfig:
    system: SystemParams
    q_values: tuple[int, ...]
    schemes: tuple[Scheme, ...]
    trial: TrialConfig
    method: Scheme
    search_dt: float | None
    workers: int | None
    output_path: str | None
    output_format: str


def _parse_kv_text(text: str, source: str) -> dict[str, str]:
    entries: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{source}:{lineno}: expected 'key = value', got {raw!r}")
        key, value = line.split("=", 1)
        entries[key.strip()] = value.strip()
    return entries


# Config-key readers take (key, non-empty text) and raise a ConfigError that
# names the key when the text is not a value in the key's valid range.


def _real(key: str, text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise ConfigError(f"key {key}: not a number: {text!r}") from None
    if not math.isfinite(value):
        raise ConfigError(f"key {key}: must be a finite number, got {text!r}")
    return value


def _positive(key: str, text: str) -> float:
    value = _real(key, text)
    if not value > 0.0:
        raise ConfigError(f"key {key}: must be > 0, got {text!r}")
    return value


def _integer(lo: int, hi: float = math.inf) -> Callable[[str, str], int]:
    """Reader of a whole number in [lo, hi]."""

    def read(key: str, text: str) -> int:
        value = _real(key, text)
        if value != int(value):
            raise ConfigError(f"key {key}: expected an integer, got {text!r}")
        if not lo <= value <= hi:
            bound = f">= {lo}" if hi == math.inf else f"in [{lo}, {hi}]"
            raise ConfigError(f"key {key}: must be {bound}, got {text!r}")
        return int(value)

    return read


def _choice(options: dict[str, object]) -> Callable[[str, str], object]:
    """Reader of one of the (case-insensitive) tokens of ``options``."""

    def read(key: str, text: str) -> object:
        try:
            return options[text.lower()]
        except KeyError:
            raise ConfigError(f"key {key}: expected one of {', '.join(options)}, got {text!r}") from None

    return read


def _items(read: Callable[[str, str], object]) -> Callable[[str, str], tuple]:
    """Reader of a comma- or space-separated list, every item through ``read``."""

    def read_all(key: str, text: str) -> tuple:
        items = tuple(read(key, token) for token in text.replace(",", " ").split())
        if not items:
            raise ConfigError(f"key {key}: no values in {text!r}")
        return items

    return read_all


class _Key(NamedTuple):
    read: Callable[[str, str], object]
    default: object = None  # the value of an unset key; _REQUIRED: it must be set
    emit: str | None = None  # ExperimentConfig attribute written back; None: never


_REQUIRED = object()
_BOOLS = {"true": True, "yes": True, "1": True, "false": False, "no": False, "0": False}
_SCHEME = _choice({scheme.value: scheme for scheme in Scheme})
# a passive grid has (N+1)(N+2)/2 windows; the most samples whose grid fits the cap
_MAX_N = (math.isqrt(8 * opt.MAX_GRID_ELEMENTS + 1) - 3) // 2

# every config key, in emit order; an empty value means the key is unset
_KEYS: dict[str, _Key] = {
    "receiver": _Key(_choice({rx.value: rx for rx in Receiver}), _REQUIRED, "system.receiver"),
    "d": _Key(_positive, None, "system.d"),
    "r": _Key(_positive, None, "system.r"),
    "d_um": _Key(_positive),
    "r_um": _Key(_positive),
    "D": _Key(_positive, _REQUIRED, "system.D"),
    "T_s": _Key(_positive, _REQUIRED, "system.T_s"),
    "L": _Key(_integer(0, MAX_ENUMERATION_L), _REQUIRED, "system.L"),
    "Q": _Key(_integer(0), _REQUIRED, "system.Q"),
    "N": _Key(_integer(1, _MAX_N), None, "system.N"),
    "t_s": _Key(_positive, None, "system.t_s"),
    # read as: does the default t_s floor t_max/6 to whole seconds?
    "t_s_policy": _Key(_choice({"sixth": False, "floor-seconds": True}), False),
    "sweep.q_values": _Key(_items(_integer(0)), (), "q_values"),
    "sweep.methods": _Key(_items(_SCHEME), tuple(_CMP_SCHEMES), "schemes"),
    "method": _Key(_SCHEME, Scheme.CLOSED_FORM, "method"),
    "trial.trials": _Key(_integer(1), 100_000, "trial.trials"),
    "trial.seed": _Key(_integer(0), 0, "trial.seed"),
    "trial.exact_counts": _Key(_choice(_BOOLS), True, "trial.exact_counts"),
    # warmup bits are drawn per chunk: at most one chunk's worth
    "trial.warmup_symbols": _Key(_integer(0, CHUNK_TRIALS), None, "trial.warmup_symbols"),
    "search.dt": _Key(_real, None, "search_dt"),
    "workers": _Key(_integer(1), None, "workers"),
    "output.path": _Key(lambda key, text: text, None, "output_path"),
    "output.format": _Key(_choice({"csv": "csv"}), "csv", "output_format"),
}


def _sampling_interval(d: float, r: float, D: float, floor_literal: bool) -> float:
    t_max = (d + r) * (d + r) / (6.0 * D)
    if not math.isfinite(t_max):
        raise ConfigError(f"(d + r)^2 / 6D must be finite, got d={d:g}, r={r:g}, D={D:g}")
    sixth = t_max / 6.0
    if sixth <= 0.0:
        raise ConfigError(
            f"sampling interval t_max/6 = (d + r)^2 / 36D underflows to 0 s (d={d:g}, r={r:g}, "
            f"D={D:g}); give t_s explicitly"
        )
    t_s = float(math.floor(sixth)) if floor_literal else sixth
    if t_s <= 0.0:
        raise ConfigError(
            f"literal floored sampling interval floor({sixth:.6g}) = 0 s is "
            "degenerate; use t_s_policy = sixth or give t_s explicitly"
        )
    return t_s


def _samples(T_s: float, t_s: float) -> int:
    """N = floor(T_s / t_s), refused past _MAX_N before it is converted."""
    n = T_s / t_s
    if not n <= _MAX_N:
        raise ConfigError(
            f"N = floor(T_s / t_s) = {n:.6g} (t_s = {t_s:g}) is over the {_MAX_N:,} "
            "samples per symbol a search grid can hold; give a longer t_s"
        )
    return int(n)


def default_sampling(d: float, r: float, D: float, T_s: float, floor_literal: bool = False) -> tuple[int, float]:
    """Default passive sampling: t_s = t_max/6, N = floor(T_s/t_s).

    ``floor_literal`` floors t_max/6 to whole seconds first; for typical
    micro-scale links that is 0 and rejected as degenerate.
    """
    t_s = _sampling_interval(d, r, D, floor_literal)
    return _samples(T_s, t_s), t_s


def config_from_entries(entries: dict[str, str], source: str = "<config>") -> ExperimentConfig:
    unknown = set(entries) - set(_KEYS)
    if unknown:
        raise ConfigError(f"{source}: unknown keys: {', '.join(sorted(unknown))}")
    v: dict[str, object] = {}
    for key, spec in _KEYS.items():
        text = entries.get(key, "")
        if text:
            v[key] = spec.read(key, text)
        elif spec.default is _REQUIRED:
            raise ConfigError(f"missing required key {key}")
        else:
            v[key] = spec.default

    lengths = []
    for name in ("d", "r"):
        si, um = v[name], v[f"{name}_um"]
        if si is not None and um is not None:
            raise ConfigError(f"give {name} or {name}_um, not both")
        if si is None and um is None:
            raise ConfigError(f"missing required key {name} (or {name}_um)")
        lengths.append(si if um is None else um * 1e-6)
    d, r = lengths

    n_samples, t_s = v["N"], v["t_s"]
    if v["receiver"] is Receiver.PASSIVE:
        if t_s is None:
            t_s = _sampling_interval(d, r, v["D"], v["t_s_policy"])
        if n_samples is None:
            n_samples = _samples(v["T_s"], t_s)
    else:
        n_samples = t_s = None
    try:
        system = SystemParams(
            d=d, r=r, D=v["D"], T_s=v["T_s"], L=v["L"], Q=v["Q"],
            receiver=v["receiver"], N=n_samples, t_s=t_s,
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc

    search_dt = v["search.dt"]
    if search_dt is not None and not 0.0 < search_dt <= system.T_s:
        raise ConfigError(f"search.dt must be in (0, T_s = {system.T_s}], got {entries['search.dt']!r}")

    return ExperimentConfig(
        system=system,
        q_values=v["sweep.q_values"],
        schemes=v["sweep.methods"],
        trial=TrialConfig(
            trials=v["trial.trials"],
            seed=v["trial.seed"],
            exact_counts=v["trial.exact_counts"],
            warmup_symbols=v["trial.warmup_symbols"],
        ),
        method=v["method"],
        search_dt=search_dt,
        workers=v["workers"],
        output_path=v["output.path"],
        output_format=v["output.format"],
    )


def parse_config(text: str, source: str = "<config>") -> ExperimentConfig:
    return config_from_entries(_parse_kv_text(text, source), source)


def emit_config(config: ExperimentConfig) -> str:
    """Canonical flat-key text; parse(emit(c)) == c."""
    lines = []
    for key, spec in _KEYS.items():
        value = None if spec.emit is None else attrgetter(spec.emit)(config)
        if value is not None and value != ():
            text = " ".join(map(_fmt, value)) if isinstance(value, tuple) else _fmt(value)
            lines.append(f"{key} = {text}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Formatting
# ---------------------------------------------------------------------------


def _fmt(value) -> str:
    """One CSV cell: 17-significant-digit floats, bare ints, '' for None."""
    if value is None:
        return ""
    if isinstance(value, str):
        return value
    if isinstance(value, enum.Enum):
        return value.value
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, complex):
        return f"{value.real:.17g}{value.imag:+.17g}j"
    return f"{float(value):.17g}"


def _write_csv(path: str, header: Sequence[str], rows: Iterable[Sequence]) -> None:
    try:
        with open(path, "w", newline="") as handle:
            writer = csv.writer(handle, lineterminator="\n")
            writer.writerow(header)
            for row in rows:
                writer.writerow([_fmt(cell) for cell in row])
    except OSError as exc:
        raise OSError(f"cannot write {path}: {exc}") from exc


def _positive_workers(value: int | None, source: str) -> int | None:
    if value is not None and value < 1:
        raise ConfigError(f"{source} must be >= 1, got {value}")
    return value


def _resolve_workers(config: ExperimentConfig, args) -> int:
    """--workers, else the workers key, else $MCDWIN_WORKERS, else 1."""
    if args.workers is not None:
        return _positive_workers(args.workers, "--workers")
    if config.workers is not None:
        return config.workers
    env = os.environ.get(WORKERS_ENV)
    if env:
        try:
            value = int(env)
        except ValueError as exc:
            raise ConfigError(f"{WORKERS_ENV} must be an integer, got {env!r}") from exc
        return _positive_workers(value, WORKERS_ENV)
    return 1


def _load_config(args) -> ExperimentConfig:
    entries: dict[str, str] = {}
    if args.config is not None:
        try:
            text = Path(args.config).read_text()
        except OSError as exc:
            raise OSError(f"cannot read config {args.config}: {exc}") from exc
        entries = _parse_kv_text(text, args.config)
    for item in args.set or []:
        if "=" not in item:
            raise ConfigError(f"--set needs key=value, got {item!r}")
        key, value = item.split("=", 1)
        entries[key.strip()] = value.strip()
    return config_from_entries(entries, args.config or "<cli>")


def _window_cells(window) -> tuple:
    """(t1, t2, n1, n2) with the irrelevant pair empty."""
    if isinstance(window, ContinuousWindow):
        return (window.t1, window.t2, None, None)
    return (None, None, window.n1, window.n2)


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def cmd_metrics(args) -> int:
    config = _load_config(args)
    params = config.system
    out = args.output or config.output_path
    if out is None:
        raise ConfigError("metrics needs an output path (-o or output.path)")

    edges, i1, i2, mean, var = opt._window_grid(params, config.search_dt)
    columns = {
        metric: metrics_mod.metric_values_from_taps(metric, float(params.Q), mean, var)
        for metric in metrics_mod.Metric
    }

    def rows():
        for w in range(i1.size):
            place = _window_cells(opt._grid_window(edges, i1, i2, w))
            yield (METRICS_SCHEMA, *place) + tuple(
                columns[metric][w] for metric in metrics_mod.Metric
            )

    _write_csv(out, METRICS_HEADER, rows())
    print(f"wrote {i1.size} windows to {out}")
    return 0


def _print_fields(pairs: Iterable[tuple[str, object]]) -> None:
    print("\n".join(f"{key} = {_fmt(value)}" for key, value in pairs))


def cmd_optimize(args) -> int:
    params = _load_config(args).system
    result = opt.closed_form_interval(params)
    inter = result.intermediates
    _print_fields(
        [("receiver", params.receiver), ("method", result.method), ("q_hat", opt.regime_q_hat(params))]
        + [(field.name, getattr(inter, field.name) if inter else None) for field in fields(opt.ClosedFormIntermediates)]
        + list(zip(("t1", "t2", "n1", "n2"), _window_cells(result.window)))
        + [("objective", result.objective_value), ("clamped", result.clamped)]
    )
    return 0


def _sweep_rows(config: ExperimentConfig, rows: list[SweepRow]) -> Iterable[tuple]:
    params = config.system
    for row in rows:
        result, mc = row.result, row.mc
        yield (SWEEP_SCHEMA, params.receiver, params.T_s, params.L, row.q, row.scheme, result.method,
               *_window_cells(result.window), result.tau, result.threshold, result.ber.value,
               mc.value, mc.ci_halfwidth, mc.trials, config.trial.seed)


def cmd_simulate(args) -> int:
    config = _load_config(args)
    params = config.system
    workers = _resolve_workers(config, args)
    row = sweep_row(params, config.method, config.trial, config.search_dt, workers)
    result, mc = row.result, row.mc
    _print_fields(
        [("method", config.method), ("resolved_method", result.method)]
        + list(zip(("t1", "t2", "n1", "n2"), _window_cells(result.window)))
        + [("tau", result.tau), ("threshold", result.threshold), ("ber_analytic", result.ber.value)]
        + [("ber_mc", mc.value), ("mc_ci_halfwidth", mc.ci_halfwidth), ("trials", mc.trials)]
        + [("seed", config.trial.seed)]
    )
    return 0


def cmd_sweep(args) -> int:
    config = _load_config(args)
    if not config.q_values:
        raise ConfigError("sweep needs sweep.q_values")
    out = args.output or config.output_path
    if out is None:
        raise ConfigError("sweep needs an output path (-o or output.path)")
    workers = _resolve_workers(config, args)
    rows = sweep(
        config.system,
        config.q_values,
        config.schemes,
        config.trial,
        dt=config.search_dt,
        workers=workers,
    )
    _write_csv(out, SWEEP_HEADER, _sweep_rows(config, rows))
    print(f"wrote {len(rows)} rows to {out}")
    return 0


# ---------------------------------------------------------------------------
# Figure reproduction
# ---------------------------------------------------------------------------


def _reproduce_params(kind: str, T_s: float, L: int) -> SystemParams:
    if kind == "ab":
        geo = _TABLE1_ABSORBING
        return SystemParams(
            d=geo["d"], r=geo["r"], D=geo["D"], T_s=T_s, L=L, Q=1,
            receiver=Receiver.ABSORBING,
        )
    geo = _TABLE1_PASSIVE
    n, t_s = default_sampling(geo["d"], geo["r"], geo["D"], T_s)
    return SystemParams(
        d=geo["d"], r=geo["r"], D=geo["D"], T_s=T_s, L=L, Q=1,
        receiver=Receiver.PASSIVE, N=n, t_s=t_s,
    )


def _geometric_q(lo: float, hi: float, points: int) -> list[int]:
    qs = np.unique(np.rint(np.geomspace(lo, hi, points)).astype(int))
    return [int(q) for q in qs]


# the two searches a convergence row runs; only their windows are printed
_CONV_SEARCHES = (
    (Scheme.NUMERIC_MSINAR, lambda params, dt: opt.numeric_metric_search(params, metrics_mod.Metric.MSINAR, dt)),
    (Scheme.EXHAUSTIVE_BER, opt.exhaustive_ber_search),
)


def _conv_rows(lead, base, q_values, dt, trial, workers) -> Iterable[tuple]:
    for q in q_values:
        for scheme, search in _CONV_SEARCHES:
            window = search(replace(base, Q=q), dt).window
            yield (CONV_SCHEMA, *lead, q, scheme.value, *_window_cells(window))


def _ver_rows(lead, base, q_values, dt, trial, workers) -> Iterable[tuple]:
    schemes = (Scheme.NUMERIC_MSINAR, Scheme.CLOSED_FORM, Scheme.EXHAUSTIVE_BER)
    for row in sweep(base, q_values, schemes, trial, dt=dt, workers=workers):
        yield (VER_SCHEMA, *lead, row.q, row.scheme.value, row.result.threshold, row.result.ber.value,
               row.mc.value, row.mc.ci_halfwidth, row.mc.trials)


def _cmp_rows(lead, base, q_values, dt, trial, workers) -> Iterable[tuple]:
    swept = sweep(base, q_values, _CMP_SCHEMES, trial, dt=dt, workers=workers)
    by_cell = {(row.q, row.scheme): row for row in swept}
    for q in q_values:
        cells: list = [CMP_SCHEMA, *lead, q]
        for scheme in _CMP_SCHEMES:
            row = by_cell[q, scheme]
            cells.extend([row.result.ber.value, row.mc.value, row.mc.ci_halfwidth])
        yield tuple(cells)


# figure family -> (CSV header, the rows of one (T_s, L) cell)
_REPRODUCE_FAMILIES = {
    "conv": (CONV_HEADER, _conv_rows),
    "ver": (VER_HEADER, _ver_rows),
    "cmp": (CMP_HEADER, _cmp_rows),
}


def cmd_reproduce(args) -> int:
    figure = args.figure
    if figure not in REPRODUCE_FIGURES:
        raise ConfigError(
            f"unknown figure id {figure!r}; choose from {', '.join(REPRODUCE_FIGURES)}"
        )
    for flag, count in (("--grid-divisions", args.grid_divisions), ("--q-points", args.q_points)):
        if count < 1:
            raise ConfigError(f"{flag} must be >= 1, got {count}")
    for flag, q in (("--q-min", args.q_min), ("--q-max", args.q_max)):
        if not (math.isfinite(q) and q > 0):
            raise ConfigError(f"{flag} must be finite and > 0, got {q}")
    family, kind = figure.split("-")
    header, family_rows = _REPRODUCE_FAMILIES[family]
    ts_values, l_values = _FIGURE_TS_L[kind]
    q_values = _geometric_q(args.q_min, args.q_max, args.q_points)
    trial = TrialConfig(trials=args.trials, seed=args.seed)
    workers = 1 if args.workers is None else _positive_workers(args.workers, "--workers")
    outdir = Path(args.outdir)
    try:
        outdir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise OSError(f"cannot create {outdir}: {exc}") from exc
    out = outdir / f"{figure}.csv"

    rows: list[tuple] = []
    for T_s in ts_values:
        for L in l_values:
            base = _reproduce_params(kind, T_s, L)
            lead = (figure, base.receiver.value, T_s, L)
            rows.extend(family_rows(lead, base, q_values, T_s / args.grid_divisions, trial, workers))
    _write_csv(str(out), header, rows)
    print(f"wrote {len(rows)} rows to {out}")
    return 0


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mcdwin",
        description="Detection-window optimization for diffusion molecular communication.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    for name, func, summary in (
        ("metrics", cmd_metrics, "metric values on a window grid (CSV)"),
        ("optimize", cmd_optimize, "closed-form window with all intermediates"),
        ("simulate", cmd_simulate, "Monte Carlo BER at one configuration"),
        ("sweep", cmd_sweep, "BER versus Q sweep over schemes (CSV)"),
    ):
        command = sub.add_parser(name, help=summary)
        command.add_argument("-c", "--config", help="flat key=value config file")
        command.add_argument(
            "-s",
            "--set",
            action="append",
            metavar="KEY=VALUE",
            help="override a config key (repeatable)",
        )
        command.add_argument("-o", "--output", help="output CSV path (overrides output.path)")
        command.add_argument("--workers", type=int, help=f"worker processes (default ${WORKERS_ENV} or 1)")
        command.set_defaults(func=func)

    p_rep = sub.add_parser("reproduce", help="re-run a figure-style experiment")
    p_rep.add_argument("figure", help="one of " + ", ".join(REPRODUCE_FIGURES))
    p_rep.add_argument("-o", "--outdir", default="reproduce-out", help="output directory")
    p_rep.add_argument("--q-min", type=float, default=1e2)
    p_rep.add_argument("--q-max", type=float, default=1e5)
    p_rep.add_argument("--q-points", type=int, default=8)
    p_rep.add_argument("--grid-divisions", type=int, default=80)
    p_rep.add_argument("--trials", type=int, default=50_000)
    p_rep.add_argument("--seed", type=int, default=0)
    p_rep.add_argument("--workers", type=int)
    p_rep.set_defaults(func=cmd_reproduce)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except DomainError as exc:
        print(f"domain error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"invalid input: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
