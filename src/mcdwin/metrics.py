"""BER-surrogate metrics of a detection window.

All metrics are computed for the strongest ISI pattern (all past bits 1).
For an absorbing receiver the per-tap signal fraction is F_ab at the
k-shifted window and the noise amplitude is sqrt(Q F (1-F)); for a passive
receiver the fraction is the sample-summed observation rate and the noise
amplitude is the Poisson sqrt(Q * rate).

``q_hat`` is the molecule count at which mSINAR reaches 1; it separates the
low-count regime (noise-aware window) from the high-count regime where the
inflation factor ``g_factor`` is applied instead.
"""
from __future__ import annotations

import enum
import math
from dataclasses import dataclass, replace

import numpy as np

from .channel import (
    DetectionWindow,
    Receiver,
    SystemParams,
    full_window,
    sample_probability,
    window_taps,
)
from .errors import GFactorPole, InfiniteSinar, InfiniteSir, NoFiniteQhat

__all__ = [
    "Metric",
    "MetricReport",
    "sir",
    "sid",
    "sinar",
    "msinar",
    "msid",
    "q_hat",
    "alphas",
    "g_factor",
    "metric_report",
    "metric_values_from_taps",
]


class Metric(enum.Enum):
    SIR = "sir"
    SID = "sid"
    SINAR = "sinar"
    MSINAR = "msinar"
    MSID = "msid"


@dataclass(frozen=True)
class MetricReport:
    sir: float
    sid: float
    sinar: float
    msinar: float
    msid: float
    q_hat: int | None
    g_factor: float
    alpha1: float
    alpha2: float


def _require_isi(params: SystemParams) -> None:
    if params.L < 1:
        raise ValueError("metrics need at least one ISI tap (L >= 1)")


def _require_q(params: SystemParams) -> None:
    if params.Q < 1:
        raise ValueError("noise-aware metrics need Q >= 1")


def _tap_sums(mean: np.ndarray, var: np.ndarray):
    """(signal fraction, interference fraction sum, noise amplitude sum) per column."""
    return mean[0], mean[1:].sum(axis=0), np.sqrt(var).sum(axis=0)


def _components(params: SystemParams, window: DetectionWindow) -> tuple[float, float, float]:
    # a one-column table sums exactly like the 1-D tap vector
    taps = window_taps(params, window)
    return tuple(float(x[0]) for x in _tap_sums(taps.mean[:, None], taps.var[:, None]))


# metric -> (numerator, denominator) in terms of (q, f0, interference,
# noise_amp); the difference metrics have denominator 1
_FORMULAS = {
    Metric.SIR: lambda q, f0, i, n: (f0, i),
    Metric.SID: lambda q, f0, i, n: (q * (f0 - i), 1.0),
    Metric.SINAR: lambda q, f0, i, n: (q * f0, q * i + math.sqrt(q) * n),
    Metric.MSINAR: lambda q, f0, i, n: (0.5 * f0, 0.5 * i + n / math.sqrt(2.0 * q)),
    Metric.MSID: lambda q, f0, i, n: (f0 - i - math.sqrt(2.0 / q) * n, 1.0),
}


def _metric(metric: Metric, params: SystemParams, window: DetectionWindow) -> float:
    _require_isi(params)
    if metric is not Metric.SIR and metric is not Metric.SID:
        _require_q(params)
    num, den = _FORMULAS[metric](float(params.Q), *_components(params, window))
    if den == 0.0:
        if metric is Metric.SIR:
            raise InfiniteSir("all interference fractions are zero")
        raise InfiniteSinar("zero interference and noise amplitude")
    return num / den


def sir(params: SystemParams, window: DetectionWindow) -> float:
    """Signal-to-interference ratio; independent of Q."""
    return _metric(Metric.SIR, params, window)


def sid(params: SystemParams, window: DetectionWindow) -> float:
    """Signal-to-interference difference in molecules; linear in Q."""
    return _metric(Metric.SID, params, window)


def sinar(params: SystemParams, window: DetectionWindow) -> float:
    """Signal over interference-plus-noise amplitude."""
    return _metric(Metric.SINAR, params, window)


def msinar(params: SystemParams, window: DetectionWindow) -> float:
    """Modified SINAR: equal-prior weighting, sqrt(2/Q)-inflated noise."""
    return _metric(Metric.MSINAR, params, window)


def msid(params: SystemParams, window: DetectionWindow) -> float:
    """Modified SID: signal minus interference minus sqrt(2/Q) noise amplitude."""
    return _metric(Metric.MSID, params, window)


def q_hat(params: SystemParams, window: DetectionWindow) -> int:
    """Molecule count at which mSINAR at ``window`` reaches 1 (ceiling-valued)."""
    _require_isi(params)
    f0, interference, noise_amp = _components(params, window)
    margin = f0 - interference
    if margin <= 0.0:
        raise NoFiniteQhat(
            "window has no signal-over-interference margin; mSINAR cannot reach 1"
        )
    return int(math.ceil(2.0 * (noise_amp / margin) ** 2))


def alphas(params: SystemParams) -> tuple[float, float]:
    """Worst-case noise-to-signal amplitude ratios of the signal and first ISI tap.

    Absorbing: sqrt((1-F)/F) with F the whole-symbol absorbed fraction for
    the current (alpha1) and previous (alpha2) symbol.  Passive: the
    reciprocal root of the whole-symbol observation-rate sums.
    """
    if params.receiver is Receiver.ABSORBING:
        f_now, f_prev = window_taps(replace(params, L=1), full_window(params)).mean.tolist()
        return math.sqrt((1.0 - f_now) / f_now), math.sqrt((1.0 - f_prev) / f_prev)
    # Sample by sample on purpose: numpy may round the array power in
    # passive_probability differently from the scalar one, and g(Q) moves
    # every high-count passive closed form.
    assert params.N is not None
    ns = range(params.N + 1)
    rate0 = float(np.sum([sample_probability(params, n, 0) for n in ns]))
    rate1 = float(np.sum([sample_probability(params, n, 1) for n in ns]))
    return 1.0 / math.sqrt(rate0), 1.0 / math.sqrt(rate1)


def g_factor(params: SystemParams, q: float) -> float:
    """Noise-inflation factor (sqrt(Q) + sqrt(2) a2) / (sqrt(Q) - sqrt(2) a1).

    Decreasing in Q with limit 1; poles at Q <= 2 a1^2.
    """
    a1, a2 = alphas(params)
    if q <= 2.0 * a1**2:
        raise GFactorPole(f"Q={q} is at or below the pole 2*alpha1^2={2.0 * a1 ** 2:.6g}")
    root = math.sqrt(q)
    return (root + math.sqrt(2.0) * a2) / (root - math.sqrt(2.0) * a1)


def metric_report(params: SystemParams, window: DetectionWindow) -> MetricReport:
    """All metrics plus regime quantities at one window.

    ``q_hat`` is None when mSINAR cannot reach 1; ``g_factor`` is NaN at or
    below its pole.
    """
    a1, a2 = alphas(params)
    try:
        qh: int | None = q_hat(params, window)
    except NoFiniteQhat:
        qh = None
    try:
        g = g_factor(params, float(params.Q))
    except GFactorPole:
        g = math.nan
    try:
        sir_value = sir(params, window)
    except InfiniteSir:
        sir_value = math.inf
    return MetricReport(
        sir=sir_value,
        sid=sid(params, window),
        sinar=sinar(params, window),
        msinar=msinar(params, window),
        msid=msid(params, window),
        q_hat=qh,
        g_factor=g,
        alpha1=a1,
        alpha2=a2,
    )


def metric_values_from_taps(
    metric: Metric, q: float, mean: np.ndarray, var: np.ndarray
) -> np.ndarray:
    """Vectorized metric over many windows.

    ``mean`` and ``var`` are (L+1, n_windows) per-tap fraction arrays
    (tap 0 = signal).  Windows where the metric is undefined (0/0) come back
    as NaN; unbounded ratios as +inf.
    """
    if metric not in _FORMULAS:
        raise ValueError(f"unknown metric {metric!r}")
    with np.errstate(divide="ignore", invalid="ignore"):
        num, den = _FORMULAS[metric](q, *_tap_sums(mean, var))
        return num / den
