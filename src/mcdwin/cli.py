"""Command-line interface: configuration, experiment orchestration, CSV emission.

Subcommands: metrics, optimize, simulate, sweep, reproduce.

Config files are flat ``key = value`` text ('#' comments allowed); every key
can be overridden on the command line with ``--set key=value``.  Lengths may
be given in metres (``d``, ``r``) or micrometres (``d_um``, ``r_um``);
everything is converted to SI once at this boundary and emitted back in SI.

CSV output: comma separated, '.' decimal point, one header row, LF line
endings, floats printed with 17 significant digits (value-exact round
trip).  Schemas are versioned through the ``schema`` column.

Exit codes: 0 ok, 2 config/usage error, 3 domain error (SymbolTooShort,
DegenerateWindow, NoFiniteQhat, pole, ...), 4 I/O error.
"""
from __future__ import annotations

import argparse
import csv
import math
import os
import sys
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from . import metrics as metrics_mod
from . import optimizer as opt
from .channel import ContinuousWindow, Receiver, SystemParams
from .errors import ConfigError, DomainError
from .montecarlo import SweepRow, TrialConfig, simulate_ber_taps, sweep
from .optimizer import Scheme
from .reception import threshold_from_taps

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


_DEFAULT_SCHEMES = tuple(_CMP_SCHEMES)

_KNOWN_KEYS = {
    "receiver",
    "d",
    "r",
    "d_um",
    "r_um",
    "D",
    "T_s",
    "L",
    "Q",
    "N",
    "t_s",
    "t_s_policy",
    "method",
    "sweep.q_values",
    "sweep.methods",
    "trial.trials",
    "trial.seed",
    "trial.exact_counts",
    "trial.warmup_symbols",
    "search.dt",
    "workers",
    "output.path",
    "output.format",
}


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


def _get_float(entries: dict[str, str], key: str) -> float | None:
    if key not in entries or entries[key] == "":
        return None
    try:
        return float(entries[key])
    except ValueError as exc:
        raise ConfigError(f"key {key}: not a number: {entries[key]!r}") from exc


def _get_int(entries: dict[str, str], key: str, default: int | None = None) -> int | None:
    value = _get_float(entries, key)
    if value is None:
        return default
    if value != int(value):
        raise ConfigError(f"key {key}: expected an integer, got {entries[key]!r}")
    return int(value)


def _get_bool(entries: dict[str, str], key: str) -> bool | None:
    if key not in entries or entries[key] == "":
        return None
    token = entries[key].lower()
    if token in ("true", "yes", "1"):
        return True
    if token in ("false", "no", "0"):
        return False
    raise ConfigError(f"key {key}: expected true/false, got {entries[key]!r}")


def _length(entries: dict[str, str], name: str) -> float:
    si = _get_float(entries, name)
    um = _get_float(entries, f"{name}_um")
    if si is not None and um is not None:
        raise ConfigError(f"give {name} or {name}_um, not both")
    if si is None and um is None:
        raise ConfigError(f"missing required key {name} (or {name}_um)")
    return si if si is not None else um * 1e-6


def default_sampling(d: float, r: float, D: float, T_s: float, floor_literal: bool = False) -> tuple[int, float]:
    """Default passive sampling: t_s = t_max/6, N = floor(T_s/t_s).

    ``floor_literal`` floors t_max/6 to whole seconds first; for typical
    micro-scale links that is 0 and rejected as degenerate.
    """
    t_max = (d + r) ** 2 / (6.0 * D)
    t_s = float(math.floor(t_max / 6.0)) if floor_literal else t_max / 6.0
    if t_s <= 0.0:
        raise ConfigError(
            f"literal floored sampling interval floor({t_max / 6.0:.6g}) = 0 s is "
            "degenerate; use t_s_policy = sixth or give t_s explicitly"
        )
    return int(T_s / t_s), t_s


def config_from_entries(entries: dict[str, str], source: str = "<config>") -> ExperimentConfig:
    unknown = set(entries) - _KNOWN_KEYS
    if unknown:
        raise ConfigError(f"{source}: unknown keys: {', '.join(sorted(unknown))}")

    receiver_token = entries.get("receiver")
    if receiver_token is None:
        raise ConfigError("missing required key receiver (absorbing|passive)")
    try:
        receiver = Receiver(receiver_token.lower())
    except ValueError as exc:
        raise ConfigError(f"receiver must be absorbing or passive, got {receiver_token!r}") from exc

    d = _length(entries, "d")
    r = _length(entries, "r")
    diffusion = _get_float(entries, "D")
    t_sym = _get_float(entries, "T_s")
    ell = _get_int(entries, "L")
    q = _get_int(entries, "Q")
    for name, value in (("D", diffusion), ("T_s", t_sym), ("L", ell), ("Q", q)):
        if value is None:
            raise ConfigError(f"missing required key {name}")

    n_samples = _get_int(entries, "N")
    t_s = _get_float(entries, "t_s")
    if receiver is Receiver.PASSIVE:
        if t_s is None:
            policy = entries.get("t_s_policy", "sixth")
            if policy not in ("sixth", "floor-seconds"):
                raise ConfigError(f"t_s_policy must be sixth or floor-seconds, got {policy!r}")
            n_default, t_s = default_sampling(d, r, diffusion, t_sym, policy == "floor-seconds")
            if n_samples is None:
                n_samples = n_default
        elif n_samples is None:
            n_samples = int(t_sym / t_s)
    else:
        n_samples = None
        t_s = None

    try:
        system = SystemParams(
            d=d, r=r, D=diffusion, T_s=t_sym, L=ell, Q=q,
            receiver=receiver, N=n_samples, t_s=t_s,
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc

    q_values: tuple[int, ...] = ()
    if "sweep.q_values" in entries:
        tokens = entries["sweep.q_values"].replace(",", " ").split()
        try:
            q_values = tuple(int(float(tok)) for tok in tokens)
        except ValueError as exc:
            raise ConfigError(f"sweep.q_values: bad value in {entries['sweep.q_values']!r}") from exc

    schemes = _DEFAULT_SCHEMES
    if "sweep.methods" in entries:
        tokens = entries["sweep.methods"].replace(",", " ").split()
        try:
            schemes = tuple(Scheme(tok) for tok in tokens)
        except ValueError as exc:
            valid = ", ".join(s.value for s in Scheme)
            raise ConfigError(f"sweep.methods: unknown scheme (valid: {valid})") from exc

    method = Scheme.CLOSED_FORM
    if "method" in entries:
        try:
            method = Scheme(entries["method"])
        except ValueError as exc:
            valid = ", ".join(s.value for s in Scheme)
            raise ConfigError(f"method: unknown scheme (valid: {valid})") from exc

    trial = TrialConfig(
        trials=_get_int(entries, "trial.trials", 100_000),
        seed=_get_int(entries, "trial.seed", 0),
        exact_counts=_get_bool(entries, "trial.exact_counts") in (None, True),
        warmup_symbols=_get_int(entries, "trial.warmup_symbols"),
    )

    output_format = entries.get("output.format", "csv")
    if output_format != "csv":
        raise ConfigError(f"output.format: only csv is supported, got {output_format!r}")

    return ExperimentConfig(
        system=system,
        q_values=q_values,
        schemes=schemes,
        trial=trial,
        method=method,
        search_dt=_get_float(entries, "search.dt"),
        workers=_positive_workers(_get_int(entries, "workers"), "workers"),
        output_path=entries.get("output.path"),
        output_format=output_format,
    )


def parse_config(text: str, source: str = "<config>") -> ExperimentConfig:
    return config_from_entries(_parse_kv_text(text, source), source)


def emit_config(config: ExperimentConfig) -> str:
    """Canonical flat-key text; parse(emit(c)) == c."""
    p = config.system
    lines = [
        f"receiver = {p.receiver.value}",
        f"d = {_fmt(p.d)}",
        f"r = {_fmt(p.r)}",
        f"D = {_fmt(p.D)}",
        f"T_s = {_fmt(p.T_s)}",
        f"L = {p.L}",
        f"Q = {p.Q}",
    ]
    if p.receiver is Receiver.PASSIVE:
        lines.append(f"N = {p.N}")
        lines.append(f"t_s = {_fmt(p.t_s)}")
    if config.q_values:
        lines.append("sweep.q_values = " + " ".join(str(q) for q in config.q_values))
    lines.append("sweep.methods = " + " ".join(s.value for s in config.schemes))
    lines.append(f"method = {config.method.value}")
    lines.append(f"trial.trials = {config.trial.trials}")
    lines.append(f"trial.seed = {config.trial.seed}")
    lines.append(f"trial.exact_counts = {'true' if config.trial.exact_counts else 'false'}")
    if config.trial.warmup_symbols is not None:
        lines.append(f"trial.warmup_symbols = {config.trial.warmup_symbols}")
    if config.search_dt is not None:
        lines.append(f"search.dt = {_fmt(config.search_dt)}")
    if config.workers is not None:
        lines.append(f"workers = {config.workers}")
    if config.output_path is not None:
        lines.append(f"output.path = {config.output_path}")
    lines.append(f"output.format = {config.output_format}")
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

    edges, i1, i2, mean, var = opt._window_grid(params, config.search_dt or None)
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


def _intermediate_lines(result: opt.OptimizationResult) -> list[str]:
    inter = result.intermediates
    fields = (
        "i_ratio",
        "v_ratio",
        "w_ratio",
        "a_ratio",
        "gamma",
        "delta1",
        "delta2",
        "s1",
        "s2",
        "t1_anchor",
        "t2_anchor",
        "n1_anchor",
        "n2_anchor",
    )
    lines = [
        f"regime = {inter.regime.value if inter else ''}",
        f"branch = {inter.branch.value if inter else ''}",
    ]
    for name in fields:
        value = getattr(inter, name) if inter else None
        lines.append(f"{name} = {_fmt(value)}")
    return lines


def cmd_optimize(args) -> int:
    config = _load_config(args)
    params = config.system
    result = opt.closed_form_interval(params)
    q_hat = opt.regime_q_hat(params)
    lines = [
        f"receiver = {params.receiver.value}",
        f"method = {result.method.value}",
        f"q_hat = {_fmt(q_hat)}",
    ]
    lines.extend(_intermediate_lines(result))
    t1, t2, n1, n2 = _window_cells(result.window)
    lines.append(f"t1 = {_fmt(t1)}")
    lines.append(f"t2 = {_fmt(t2)}")
    lines.append(f"n1 = {_fmt(n1)}")
    lines.append(f"n2 = {_fmt(n2)}")
    lines.append(f"objective = {_fmt(result.objective_value)}")
    lines.append(f"clamped = {_fmt(result.clamped)}")
    print("\n".join(lines))
    return 0


def _sweep_rows(config: ExperimentConfig, rows: list[SweepRow]) -> Iterable[tuple]:
    params = config.system
    for row in rows:
        t1, t2, n1, n2 = _window_cells(row.result.window)
        yield (
            SWEEP_SCHEMA,
            params.receiver.value,
            params.T_s,
            params.L,
            row.q,
            row.scheme.value,
            row.result.method.value,
            t1,
            t2,
            n1,
            n2,
            row.result.tau,
            row.threshold,
            row.analytic.value,
            row.mc.value,
            row.mc.ci_halfwidth,
            row.mc.trials,
            config.trial.seed,
        )


def cmd_simulate(args) -> int:
    config = _load_config(args)
    params = config.system
    workers = _resolve_workers(config, args)
    result = opt.select_window(params, config.method, config.search_dt)
    taps = opt.result_taps(params, result)
    threshold, analytic = threshold_from_taps(params, taps)
    mc = simulate_ber_taps(params, taps, threshold, config.trial, workers)
    t1, t2, n1, n2 = _window_cells(result.window)
    for key, value in (
        ("method", config.method.value),
        ("resolved_method", result.method.value),
        ("t1", _fmt(t1)),
        ("t2", _fmt(t2)),
        ("n1", _fmt(n1)),
        ("n2", _fmt(n2)),
        ("tau", _fmt(result.tau)),
        ("threshold", threshold),
        ("ber_analytic", _fmt(analytic.value)),
        ("ber_mc", _fmt(mc.value)),
        ("mc_ci_halfwidth", _fmt(mc.ci_halfwidth)),
        ("trials", mc.trials),
        ("seed", config.trial.seed),
    ):
        print(f"{key} = {value}")
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


def cmd_reproduce(args) -> int:
    figure = args.figure
    if figure not in REPRODUCE_FIGURES:
        raise ConfigError(
            f"unknown figure id {figure!r}; choose from {', '.join(REPRODUCE_FIGURES)}"
        )
    family, kind = figure.split("-")
    ts_values, l_values = _FIGURE_TS_L[kind]
    q_values = _geometric_q(args.q_min, args.q_max, args.q_points)
    outdir = Path(args.outdir)
    try:
        outdir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise OSError(f"cannot create {outdir}: {exc}") from exc
    out = outdir / f"{figure}.csv"
    trial = TrialConfig(trials=args.trials, seed=args.seed)
    workers = 1 if args.workers is None else _positive_workers(args.workers, "--workers")

    rows: list[tuple] = []
    if family == "conv":
        schemes = (Scheme.NUMERIC_MSINAR, Scheme.EXHAUSTIVE_BER)
        for T_s in ts_values:
            for L in l_values:
                base = _reproduce_params(kind, T_s, L)
                dt = T_s / args.grid_divisions
                for q in q_values:
                    params = replace(base, Q=q)
                    for scheme in schemes:
                        result = opt.select_window(params, scheme, dt)
                        t1, t2, n1, n2 = _window_cells(result.window)
                        rows.append(
                            (CONV_SCHEMA, figure, params.receiver.value, T_s, L, q,
                             scheme.value, t1, t2, n1, n2)
                        )
        _write_csv(str(out), CONV_HEADER, rows)
    elif family == "ver":
        schemes = (Scheme.NUMERIC_MSINAR, Scheme.CLOSED_FORM, Scheme.EXHAUSTIVE_BER)
        for T_s in ts_values:
            for L in l_values:
                base = _reproduce_params(kind, T_s, L)
                dt = T_s / args.grid_divisions
                swept = sweep(base, q_values, schemes, trial, dt=dt, workers=workers)
                for row in swept:
                    rows.append(
                        (VER_SCHEMA, figure, base.receiver.value, T_s, L, row.q,
                         row.scheme.value, row.threshold, row.analytic.value,
                         row.mc.value, row.mc.ci_halfwidth, row.mc.trials)
                    )
        _write_csv(str(out), VER_HEADER, rows)
    else:
        for T_s in ts_values:
            for L in l_values:
                base = _reproduce_params(kind, T_s, L)
                dt = T_s / args.grid_divisions
                swept = sweep(base, q_values, _CMP_SCHEMES, trial, dt=dt, workers=workers)
                by_q: dict[int, dict[Scheme, SweepRow]] = {}
                for row in swept:
                    by_q.setdefault(row.q, {})[row.scheme] = row
                for q in q_values:
                    cells: list = [CMP_SCHEMA, figure, base.receiver.value, T_s, L, q]
                    for scheme in _CMP_SCHEMES:
                        row = by_q[q][scheme]
                        cells.extend([row.analytic.value, row.mc.value, row.mc.ci_halfwidth])
                    rows.append(tuple(cells))
        _write_csv(str(out), CMP_HEADER, rows)
    print(f"wrote {len(rows)} rows to {out}")
    return 0


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("-c", "--config", help="flat key=value config file")
    parser.add_argument(
        "-s",
        "--set",
        action="append",
        metavar="KEY=VALUE",
        help="override a config key (repeatable)",
    )
    parser.add_argument("-o", "--output", help="output CSV path (overrides output.path)")
    parser.add_argument("--workers", type=int, help=f"worker processes (default ${WORKERS_ENV} or 1)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mcdwin",
        description="Detection-window optimization for diffusion molecular communication.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_metrics = sub.add_parser("metrics", help="metric values on a window grid (CSV)")
    _add_common(p_metrics)
    p_metrics.set_defaults(func=cmd_metrics)

    p_opt = sub.add_parser("optimize", help="closed-form window with all intermediates")
    _add_common(p_opt)
    p_opt.set_defaults(func=cmd_optimize)

    p_sim = sub.add_parser("simulate", help="Monte Carlo BER at one configuration")
    _add_common(p_sim)
    p_sim.set_defaults(func=cmd_simulate)

    p_sweep = sub.add_parser("sweep", help="BER versus Q sweep over schemes (CSV)")
    _add_common(p_sweep)
    p_sweep.set_defaults(func=cmd_sweep)

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
