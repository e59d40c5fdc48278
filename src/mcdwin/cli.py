"""Command-line interface: configuration, experiment orchestration, CSV emission.

Subcommands: metrics, optimize, simulate, sweep, reproduce.

Config files are flat ``key = value`` text ('#' comments allowed); every key
can be overridden on the command line with ``--set key=value``.  Lengths may
be given in metres (``d``, ``r``) or micrometres (``d_um``, ``r_um``);
everything is converted to SI once at this boundary.  One table, ``_KEYS``,
gives every key its reader (which range-checks the value and names the key
when it refuses it) and its default.  An empty value means the key is unset,
for every key: ``--set key=`` clears a key the config file sets.  The
``reproduce`` recipes build their links through the same reader.

CSV output: comma separated, '.' decimal point, one header row, LF line
endings, floats printed with 17 significant digits (value-exact round
trip).  Schemas are versioned through the ``schema`` column.  Every sweep
row is formatted once, by ``_row_cells``; ``sweep``, ``simulate`` and the
``ver``/``cmp`` recipes pick its cells by header name.

Exit codes: 0 ok, 2 config/usage error, 3 domain error (SymbolTooShort,
DegenerateWindow, NoFiniteQhat, pole, ...), 4 I/O error.
"""
from __future__ import annotations

import argparse
import csv
import enum
import math
import sys
from dataclasses import dataclass
from decimal import Decimal, InvalidOperation
from fractions import Fraction
from pathlib import Path
from typing import Callable, Iterable, NamedTuple, Sequence

import numpy as np

from . import metrics as metrics_mod
from . import optimizer as opt
from .channel import ContinuousWindow, Receiver, SystemParams
from .errors import ConfigError, DomainError
from .montecarlo import SweepRow, TrialConfig, simulate_ber_taps, sweep
from .optimizer import Scheme
from .reception import MAX_ENUMERATION_L

__all__ = ["ExperimentConfig", "parse_config", "main"]

METRICS_SCHEMA = "mcdwin-metrics-v1"
SWEEP_SCHEMA = "mcdwin-sweep-v1"
VER_SCHEMA = "mcdwin-ver-v2"
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
VER_HEADER = [
    "schema",
    "figure",
    "receiver",
    "T_s",
    "L",
    "Q",
    "scheme",
    "t1",
    "t2",
    "n1",
    "n2",
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
_CMP_COLUMNS = ("ber_analytic", "ber_mc", "mc_ci_halfwidth")
CMP_HEADER = ["schema", "figure", "receiver", "T_s", "L", "Q"] + [
    f"{scheme.value.replace('-', '_')}_{col}"
    for scheme in _CMP_SCHEMES
    for col in _CMP_COLUMNS
]

REPRODUCE_FIGURES = ("ver-ab", "ver-pa", "cmp-ab", "cmp-pa")

# Table-1 geometries, as config entries
_TABLE1 = {
    "ab": {"receiver": "absorbing", "d": "5e-6", "r": "5e-6", "D": "80e-12"},
    "pa": {"receiver": "passive", "d": "9e-6", "r": "1e-6", "D": "80e-12"},
}
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


def _micrometres(key: str, text: str) -> float:
    """A positive length in micrometres, in metres: the decimal as written,
    shifted six places and rounded once, so ``d_um = 5`` is ``d = 5e-6``."""
    _positive(key, text)
    metres = float(Fraction(Decimal(text)) / 10**6)
    if metres < sys.float_info.min:
        raise ConfigError(f"key {key}: {text!r} micrometres is below the least normal double ({sys.float_info.min:g} m)")
    return metres


def _integer(lo: int, hi: float = math.inf) -> Callable[[str, str], int]:
    """Reader of a whole number in [lo, hi], taken exactly as written (a
    double would round 2^53 + 1); it must still be a finite double."""

    def read(key: str, text: str) -> int:
        _real(key, text)
        try:
            value = Decimal(text)
            whole = value == value.to_integral_value()
        except InvalidOperation:  # an exponent past Decimal's range
            whole = False
        if not whole:
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


_REQUIRED = object()
_SCHEME = _choice({scheme.value: scheme for scheme in Scheme})
# a passive grid has (N+1)(N+2)/2 windows; the most samples whose grid fits the cap
_MAX_N = (math.isqrt(8 * opt.MAX_GRID_ELEMENTS + 1) - 3) // 2

# every config key, in the README's order; an empty value means the key is unset
_KEYS: dict[str, _Key] = {
    "receiver": _Key(_choice({rx.value: rx for rx in Receiver}), _REQUIRED),
    "d": _Key(_positive),
    "r": _Key(_positive),
    "d_um": _Key(_micrometres),
    "r_um": _Key(_micrometres),
    "D": _Key(_positive, _REQUIRED),
    "T_s": _Key(_positive, _REQUIRED),
    "L": _Key(_integer(0, MAX_ENUMERATION_L), _REQUIRED),
    "Q": _Key(_integer(0), _REQUIRED),
    "N": _Key(_integer(1, _MAX_N)),
    "t_s": _Key(_positive),
    "sweep.q_values": _Key(_items(_integer(0)), ()),
    "sweep.methods": _Key(_items(_SCHEME), tuple(_CMP_SCHEMES)),
    "method": _Key(_SCHEME, Scheme.CLOSED_FORM),
    "trial.trials": _Key(_integer(1), 100_000),
    "trial.seed": _Key(_integer(0), 0),
    "search.dt": _Key(_real),
}


def _sampling_interval(d: float, r: float, D: float) -> float:
    """The default passive sampling interval, t_s = t_max/6."""
    t_max = (d + r) * (d + r) / (6.0 * D)
    if not math.isfinite(t_max):
        raise ConfigError(f"(d + r)^2 / 6D must be finite, got d={d:g}, r={r:g}, D={D:g}")
    t_s = t_max / 6.0
    if t_s <= 0.0:
        raise ConfigError(
            f"sampling interval t_max/6 = (d + r)^2 / 36D underflows to 0 s (d={d:g}, r={r:g}, "
            f"D={D:g}); give t_s explicitly"
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
        lengths.append(si if um is None else um)
    d, r = lengths

    n_samples, t_s = v["N"], v["t_s"]
    if v["receiver"] is Receiver.PASSIVE:
        if t_s is None:
            t_s = _sampling_interval(d, r, v["D"])
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
        trial=TrialConfig(trials=v["trial.trials"], seed=v["trial.seed"]),
        method=v["method"],
        search_dt=search_dt,
    )


def parse_config(text: str, source: str = "<config>") -> ExperimentConfig:
    return config_from_entries(_parse_kv_text(text, source), source)


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


def _workers(count: int) -> int:
    if count < 1:
        raise ConfigError(f"--workers must be >= 1, got {count}")
    return count


def _output(args, command: str) -> str:
    if args.output is None:
        raise ConfigError(f"{command} needs an output path (-o)")
    return args.output


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


def _row_cells(params: SystemParams, row: SweepRow, seed: int) -> dict[str, object]:
    """The cells of one sweep row of the link ``params``, keyed by the
    ``SWEEP_HEADER`` names: the one row formatter of every command."""
    result, mc = row.result, row.mc
    cells = (SWEEP_SCHEMA, params.receiver, params.T_s, params.L, row.q, row.scheme, result.method,
             *_window_cells(result.window), result.tau, result.threshold, result.ber.value,
             mc.value, mc.ci_halfwidth, mc.trials, seed)
    return dict(zip(SWEEP_HEADER, cells))


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def cmd_metrics(args) -> int:
    config = _load_config(args)
    params = config.system
    out = _output(args, "metrics")

    edges, i1, i2, columns = opt._window_grid(params, config.search_dt)

    def scores(cols):
        taps = columns(cols)
        return [metrics_mod.metric_values_from_taps(metric, float(params.Q), *taps) for metric in metrics_mod.Metric]

    blocks = opt._blocks(i1.size)
    first = scores(blocks[0])  # a refused metric raises before the file is opened

    def rows():
        for cols in blocks:
            values = first if cols is blocks[0] else scores(cols)
            for k, w in enumerate(range(cols.start, cols.stop)):
                place = _window_cells(opt._grid_window(edges, i1, i2, w))
                yield (METRICS_SCHEMA, *place, *(column[k] for column in values))

    _write_csv(out, METRICS_HEADER, rows())
    print(f"wrote {i1.size} windows to {out}")
    return 0


def _print_fields(pairs: Iterable[tuple[str, object]]) -> None:
    print("\n".join(f"{key} = {_fmt(value)}" for key, value in pairs))


def cmd_optimize(args) -> int:
    params = _load_config(args).system
    result = opt.closed_form_interval(params)
    _print_fields(
        [("receiver", params.receiver), ("method", result.method), *vars(result.intermediates).items()]
        + list(zip(("t1", "t2", "n1", "n2"), _window_cells(result.window)))
        + [("objective", result.objective_value), ("clamped", result.clamped)]
    )
    return 0


def cmd_simulate(args) -> int:
    config = _load_config(args)
    params, workers = config.system, _workers(args.workers)
    result = opt.select_window(params, config.method, config.search_dt)
    mc = simulate_ber_taps(params, result.taps, result.threshold, config.trial, workers)
    cells = _row_cells(params, SweepRow(int(params.Q), config.method, result, mc), config.trial.seed)
    _print_fields([("method", config.method), *list(cells.items())[SWEEP_HEADER.index("resolved_method"):]])
    return 0


def cmd_sweep(args) -> int:
    config = _load_config(args)
    if not config.q_values:
        raise ConfigError("sweep needs sweep.q_values")
    out = _output(args, "sweep")
    rows = sweep(
        config.system,
        config.q_values,
        config.schemes,
        config.trial,
        dt=config.search_dt,
        workers=_workers(args.workers),
    )
    _write_csv(out, SWEEP_HEADER, (_row_cells(config.system, row, config.trial.seed).values() for row in rows))
    print(f"wrote {len(rows)} rows to {out}")
    return 0


# ---------------------------------------------------------------------------
# Figure reproduction
# ---------------------------------------------------------------------------


def _geometric_q(lo: float, hi: float, points: int) -> list[int]:
    # Python ints: a numpy int64 cast wraps at 2^63
    return sorted({int(q) for q in np.rint(np.geomspace(lo, hi, points))})


# the numeric-msinar and exhaustive-ber windows of the ver rows are the window-convergence figure
def _ver_rows(figure, base, q_values, dt, trial, workers) -> Iterable[list]:
    schemes = (Scheme.NUMERIC_MSINAR, Scheme.CLOSED_FORM, Scheme.EXHAUSTIVE_BER)
    for row in sweep(base, q_values, schemes, trial, dt=dt, workers=workers):
        cells = {**_row_cells(base, row, trial.seed), "schema": VER_SCHEMA, "figure": figure}
        yield [cells[name] for name in VER_HEADER]


def _cmp_rows(figure, base, q_values, dt, trial, workers) -> Iterable[list]:
    by_q: dict[int, dict] = {}  # one CSV row per Q, in sweep (so q_values) order
    for row in sweep(base, q_values, _CMP_SCHEMES, trial, dt=dt, workers=workers):
        cells = _row_cells(base, row, trial.seed)
        named = by_q.setdefault(row.q, {**cells, "schema": CMP_SCHEMA, "figure": figure})
        named.update({f"{row.scheme.value.replace('-', '_')}_{col}": cells[col] for col in _CMP_COLUMNS})
    return ([named[name] for name in CMP_HEADER] for named in by_q.values())


# figure family -> (CSV header, the rows of one (T_s, L) cell)
_REPRODUCE_FAMILIES = {
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
    trial, workers = TrialConfig(args.trials, args.seed), _workers(args.workers)
    ts_values, l_values = _FIGURE_TS_L[kind]
    q_values = _geometric_q(args.q_min, args.q_max, args.q_points)
    outdir = Path(args.outdir)
    try:
        outdir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise OSError(f"cannot create {outdir}: {exc}") from exc
    out = outdir / f"{figure}.csv"

    rows: list[Sequence] = []
    for T_s in ts_values:
        for L in l_values:
            base = config_from_entries({**_TABLE1[kind], "T_s": repr(T_s), "L": str(L), "Q": "1"}).system
            rows.extend(family_rows(figure, base, q_values, T_s / args.grid_divisions, trial, workers))
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

    # option groups, each given only to the subcommands that use it
    config = argparse.ArgumentParser(add_help=False)
    config.add_argument("-c", "--config", help="flat key=value config file")
    config.add_argument(
        "-s",
        "--set",
        action="append",
        metavar="KEY=VALUE",
        help="override a config key (repeatable)",
    )
    output = argparse.ArgumentParser(add_help=False)
    output.add_argument("-o", "--output", help="output CSV path (required)")
    workers = argparse.ArgumentParser(add_help=False)
    workers.add_argument("--workers", type=int, default=1, help="worker processes (default 1)")

    for name, func, summary, options in (
        ("metrics", cmd_metrics, "metric values on a window grid (CSV)", [config, output]),
        ("optimize", cmd_optimize, "closed-form window with all intermediates", [config]),
        ("simulate", cmd_simulate, "Monte Carlo BER at one configuration", [config, workers]),
        ("sweep", cmd_sweep, "BER versus Q sweep over schemes (CSV)", [config, output, workers]),
    ):
        sub.add_parser(name, help=summary, parents=options).set_defaults(func=func)

    p_rep = sub.add_parser("reproduce", help="re-run a figure-style experiment", parents=[workers])
    p_rep.add_argument("figure", help="one of " + ", ".join(REPRODUCE_FIGURES))
    p_rep.add_argument("-o", "--outdir", default="reproduce-out", help="output directory")
    p_rep.add_argument("--q-min", type=float, default=1e2)
    p_rep.add_argument("--q-max", type=float, default=1e5)
    p_rep.add_argument("--q-points", type=int, default=8)
    p_rep.add_argument("--grid-divisions", type=int, default=80)
    p_rep.add_argument("--trials", type=int, default=50_000, help="Monte Carlo trials a row (default 50,000)")
    p_rep.add_argument("--seed", type=int, default=0, help="master seed (default 0)")
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
