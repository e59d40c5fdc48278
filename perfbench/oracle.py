"""Independent re-evaluation of sweep CSV rows.

Each row's taps are rebuilt with the library's channel code, but the BER is
summed here from both hypotheses' tails taken directly, as
exp(log_ndtr(-z)) on each side, never as 1 - tail, so it stays accurate far
below 1e-16.  A row fails when its threshold is beaten by an integer
neighbour, its analytic BER is off the oracle, its in-symbol window leaves
the symbol, or (exhaustive-ber) another scheme's window on the same grid
does better.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np
from scipy.special import log_ndtr

from mcdwin.channel import ContinuousWindow, Receiver, SampledWindow, SystemParams, shift_taps, window_taps

# a threshold may lose to a neighbour only by summation noise
THRESHOLD_REL_TOL = 1e-9
# reported analytic BER against the oracle, and exhaustive against other schemes
BER_REL_TOL = 0.01


@dataclass(frozen=True)
class Row:
    """One sweep CSV row, parsed."""

    q: int
    scheme: str
    method: str
    t1: float | None
    t2: float | None
    n1: int | None
    n2: int | None
    tau: float | None
    threshold: int
    ber_analytic: float
    ber_mc: float
    trials: int

    @classmethod
    def from_csv(cls, cells: dict[str, str]) -> "Row":
        def opt(key, kind):
            return kind(cells[key]) if cells[key] != "" else None

        return cls(
            q=int(cells["Q"]),
            scheme=cells["scheme"],
            method=cells["resolved_method"],
            t1=opt("t1", float),
            t2=opt("t2", float),
            n1=opt("n1", int),
            n2=opt("n2", int),
            tau=opt("tau", float),
            threshold=int(cells["threshold"]),
            ber_analytic=float(cells["ber_analytic"]),
            ber_mc=float(cells["ber_mc"]),
            trials=int(cells["trials"]),
        )


def _taps(params: SystemParams, row: Row):
    if row.method == "shift-tau":
        return shift_taps(params, row.tau)
    if params.receiver is Receiver.ABSORBING:
        return window_taps(params, ContinuousWindow(row.t1, row.t2))
    return window_taps(params, SampledWindow(row.n1, row.n2))


def _hypotheses(q: float, taps) -> tuple[np.ndarray, ...]:
    """Count mean/variance under "0" and "1" for every interference pattern."""
    sig = taps.lags.index(0)
    others = [j for j in range(len(taps.lags)) if j != sig]
    k = len(others)
    patterns = (np.arange(1 << k)[:, None] >> np.arange(k)) & 1
    mean = q * np.asarray(taps.mean, dtype=float)
    var = q * np.asarray(taps.var, dtype=float)
    mu0 = patterns @ mean[others]
    var0 = patterns @ var[others]
    return mu0, var0, mu0 + mean[sig], var0 + var[sig]


def _log_tail(z: np.ndarray, sd: np.ndarray, indicator: np.ndarray) -> np.ndarray:
    """log P(error) per pattern; zero variance takes the indicator limit."""
    with np.errstate(divide="ignore"):
        return np.where(sd > 0.0, log_ndtr(z), np.log(indicator.astype(float)))


def oracle_ber(stats: tuple[np.ndarray, ...], xi: float) -> float:
    """Equal-prior BER at threshold xi (decide "1" iff count > xi)."""
    mu0, var0, mu1, var1 = stats
    sd0, sd1 = np.sqrt(var0), np.sqrt(var1)
    safe0, safe1 = np.where(sd0 > 0, sd0, 1.0), np.where(sd1 > 0, sd1, 1.0)
    # "0" sent, count > xi;  "1" sent, count <= xi
    err0 = np.exp(_log_tail(-(xi - mu0) / safe0, sd0, xi < mu0))
    err1 = np.exp(_log_tail((xi - mu1) / safe1, sd1, xi >= mu1))
    return 0.5 * (math.fsum(err0) + math.fsum(err1)) / mu0.size


def check_row(params: SystemParams, row: Row) -> tuple[float, list[str]]:
    """Oracle BER at the row's threshold and the reasons the row fails."""
    params_q = replace(params, Q=row.q)
    stats = _hypotheses(float(row.q), _taps(params_q, row))
    xi = row.threshold
    pe = oracle_ber(stats, xi)
    problems = []
    for neighbour in (xi - 1, xi + 1):
        if neighbour < 0:
            continue
        other = oracle_ber(stats, neighbour)
        if pe > other * (1.0 + THRESHOLD_REL_TOL):
            problems.append(f"threshold {xi} loses to {neighbour}: {pe:.6g} > {other:.6g}")
    if not math.isclose(row.ber_analytic, pe, rel_tol=BER_REL_TOL, abs_tol=0.0):
        problems.append(f"ber_analytic {row.ber_analytic:.6g} vs oracle {pe:.6g}")
    if row.method != "shift-tau":
        if params.receiver is Receiver.ABSORBING:
            inside = 0.0 <= row.t1 <= row.t2 <= params.T_s * (1 + 1e-12)
        else:
            inside = 0 <= row.n1 <= row.n2 <= params.N
        if not inside:
            problems.append("window outside the symbol")
    return pe, problems


def check_rows(params: SystemParams, rows: list[Row]) -> dict[int, list[str]]:
    """Problems per row index; rows with none are absent."""
    problems: dict[int, list[str]] = {}
    oracle: dict[tuple[int, str], float] = {}
    for i, row in enumerate(rows):
        pe, found = check_row(params, row)
        oracle[(row.q, row.scheme)] = pe
        if found:
            problems[i] = found
    # exhaustive-ber searches the grid that holds the full and numeric windows
    for i, row in enumerate(rows):
        if row.scheme != "exhaustive-ber":
            continue
        best = oracle[(row.q, row.scheme)]
        for other in ("full", "numeric-msinar"):
            rival = oracle.get((row.q, other))
            if rival is not None and best > rival * (1.0 + BER_REL_TOL):
                problems.setdefault(i, []).append(
                    f"exhaustive-ber {best:.6g} worse than {other} {rival:.6g}"
                )
    return problems


def rejects_planted_threshold(params: SystemParams, row: Row) -> bool:
    """True when the oracle accepts ``row`` but rejects it with threshold + 50."""
    planted = replace(row, threshold=row.threshold + 50)
    return not check_row(params, row)[1] and bool(check_row(params, planted)[1])
