"""Received-count statistics and analytical bit-error rate.

The receiver counts molecules in a detection window and decides "1" iff the
count exceeds an integer threshold.  Counts are Gaussian-approximated per
tap: an absorbing receiver captures Binomial(Q, F) molecules per release, a
passive receiver observes Poisson(Q * rate) at its samples.  Bits are
equiprobable; the error probability averages the two hypotheses over all
2^L ISI sequences.

Both error terms are Gaussian tails evaluated directly, never as one minus
the other tail, so BERs far below 1e-16 keep their relative accuracy.
Degenerate zero-variance branches use the indicator limit of the Gaussian
tail: P(count > xi) -> 1{xi < mu} and P(count <= xi) -> 1{xi >= mu}.
"""
from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np
from scipy.special import erfc

from .channel import DetectionWindow, SystemParams, TapProfile, window_taps
from .errors import EnumerationTooLarge

__all__ = [
    "IsiSequence",
    "CountStatistics",
    "BerSource",
    "BerEstimate",
    "count_stats",
    "analytic_ber",
    "ber_from_taps",
    "ber_from_stats",
    "optimal_threshold",
    "threshold_from_taps",
    "q_function",
]

# Exact enumeration refuses beyond this ISI length; use Monte Carlo there.
MAX_ENUMERATION_L = 24

IsiSequence = Sequence[int]


class BerSource(enum.Enum):
    ANALYTICAL = "analytical"
    MONTE_CARLO = "monte-carlo"


@dataclass(frozen=True)
class CountStatistics:
    """Window-count mean/variance under each current-bit hypothesis."""

    mu0: float
    mu1: float
    var0: float
    var1: float


@dataclass(frozen=True)
class BerEstimate:
    value: float
    threshold: float
    source: BerSource
    ci_halfwidth: float | None = None
    trials: int | None = None


def _gaussian_tail(z: np.ndarray) -> np.ndarray:
    """Q(z) = P(N(0,1) > z), computed in place in the float array ``z``."""
    z /= math.sqrt(2.0)
    erfc(z, out=z)
    z *= 0.5
    return z


def q_function(x):
    """Gaussian tail probability Q(x) = P(N(0,1) > x)."""
    return _gaussian_tail(np.array(x, dtype=float))[()]


def _validate_isi(isi: IsiSequence, L: int) -> tuple[int, ...]:
    bits = tuple(int(b) for b in isi)
    if len(bits) != L:
        raise ValueError(f"ISI sequence must have exactly L={L} bits, got {len(bits)}")
    if any(b not in (0, 1) for b in bits):
        raise ValueError("ISI bits must be 0 or 1")
    return bits


def count_stats(params: SystemParams, window: DetectionWindow, isi: IsiSequence) -> CountStatistics:
    """Count mean/variance for one ISI sequence, under both hypotheses.

    ``isi`` lists the L past bits oldest first (x_{k-L} .. x_{k-1}).
    """
    bits = _validate_isi(isi, params.L)
    taps = window_taps(params, window)
    q = float(params.Q)
    mu0 = var0 = 0.0
    for age in range(1, params.L + 1):
        bit = bits[params.L - age]
        if bit:
            mu0 += q * taps.mean[age]
            var0 += q * taps.var[age]
    mu1 = mu0 + q * taps.mean[0]
    var1 = var0 + q * taps.var[0]
    return CountStatistics(mu0=mu0, mu1=mu1, var0=var0, var1=var1)


# ---------------------------------------------------------------------------
# Enumeration over ISI sequences
# ---------------------------------------------------------------------------


def _check_enumeration(k: int) -> None:
    if k > MAX_ENUMERATION_L:
        raise EnumerationTooLarge(
            f"2^{k} ISI sequences exceed the exact-enumeration cap "
            f"(L <= {MAX_ENUMERATION_L}); use Monte Carlo"
        )


def _interference_sums(q: float, taps: TapProfile) -> tuple[np.ndarray, np.ndarray]:
    """Mean and variance of the interference count for every on/off pattern.

    Returns arrays of length 2^K where K is the number of interference taps
    (every tap except lag 0).  Element order follows the fixed tap order, so
    repeated calls are bit-identical.
    """
    _check_enumeration(len(taps.lags) - 1)
    mu = np.zeros(1)
    var = np.zeros(1)
    sig = taps.signal_index
    for j in range(len(taps.lags)):
        if j == sig:
            continue
        mu = np.concatenate([mu, mu + q * taps.mean[j]])
        var = np.concatenate([var, var + q * taps.var[j]])
    return mu, var


def _hypothesis_stats(
    q: float, taps: TapProfile
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    mu0, var0 = _interference_sums(q, taps)
    sig = taps.signal_index
    mu1 = mu0 + q * taps.mean[sig]
    var1 = var0 + q * taps.var[sig]
    return mu0, var0, mu1, var1


def _upper_tail(x, mu, sd):
    """P(count > x) for Gaussian counts N(mu, sd^2), broadcast over arrays.

    Where sd = 0 the tail is its indicator limit 1{x < mu}.
    """
    spread = sd != 0.0
    z = (x - mu) / np.where(spread, sd, 1.0)
    return np.where(spread, _gaussian_tail(z), (x < mu).astype(float))


def _lower_tail(x, mu, sd):
    """P(count <= x) = Q((mu - x) / sd), broadcast like ``_upper_tail``.

    Where sd = 0 the tail is its indicator limit 1{x >= mu}.
    """
    spread = sd != 0.0
    z = (mu - x) / np.where(spread, sd, 1.0)
    return np.where(spread, _gaussian_tail(z), (x >= mu).astype(float))


def ber_from_stats(
    mu0: np.ndarray,
    sigma0: np.ndarray,
    mu1: np.ndarray,
    sigma1: np.ndarray,
    threshold: float,
) -> float:
    """Equal-prior error probability for explicit per-sequence statistics.

    Averages P(miss "0") = P(count > threshold) and P(miss "1") =
    P(count <= threshold) over the supplied sequences.  Each is its own
    Gaussian tail, so a BER far below 1e-16 keeps its relative accuracy.
    The per-term sum is compensated (math.fsum), so the result does not
    depend on the enumeration order.
    """
    mu0 = np.atleast_1d(np.asarray(mu0, dtype=float))
    mu1 = np.atleast_1d(np.asarray(mu1, dtype=float))
    sigma0 = np.atleast_1d(np.asarray(sigma0, dtype=float))
    sigma1 = np.atleast_1d(np.asarray(sigma1, dtype=float))
    p_err0 = _upper_tail(threshold, mu0, sigma0)
    p_err1 = _lower_tail(threshold, mu1, sigma1)
    return math.fsum(0.5 * (p_err0 + p_err1)) / mu0.size


def ber_from_taps(params: SystemParams, taps: TapProfile, threshold: float) -> BerEstimate:
    """Analytical BER for an arbitrary tap profile at a fixed threshold."""
    if threshold < 0:
        raise ValueError("threshold must be >= 0")
    mu0, var0, mu1, var1 = _hypothesis_stats(float(params.Q), taps)
    value = ber_from_stats(mu0, np.sqrt(var0), mu1, np.sqrt(var1), threshold)
    return BerEstimate(value=value, threshold=threshold, source=BerSource.ANALYTICAL)


def analytic_ber(params: SystemParams, window: DetectionWindow, threshold: float) -> BerEstimate:
    """Analytical BER of threshold detection on ``window``.

    Enumerates all 2^L ISI sequences; refuses L > 24.
    """
    return ber_from_taps(params, window_taps(params, window), threshold)


# ---------------------------------------------------------------------------
# Threshold optimization
# ---------------------------------------------------------------------------

_CURVE_CHUNK = 4096
# threshold ranges shorter than this are scanned in full
_PLAIN_SCAN = 64
# relative slack on the block bounds, against erfc rounding breaking monotonicity
_BOUND_SLACK = 1e-9
# windows x sequences elements per block of the batched floor
_FLOOR_BLOCK = 1 << 14


def _tail_sums(
    xis: np.ndarray,
    mu0: np.ndarray,
    sd0: np.ndarray,
    mu1: np.ndarray,
    sd1: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Per threshold, the "0" and "1" error tails summed over all sequences.

    The first sum falls and the second rises with the threshold.
    """
    s0 = np.empty(xis.size)
    s1 = np.empty(xis.size)
    for start in range(0, xis.size, _CURVE_CHUNK):
        x = xis[start : start + _CURVE_CHUNK, None]
        stop = start + x.shape[0]
        s0[start:stop] = _upper_tail(x, mu0, sd0).sum(axis=1)
        s1[start:stop] = _lower_tail(x, mu1, sd1).sum(axis=1)
    return s0, s1


def _pe_curve(
    xis: np.ndarray,
    mu0: np.ndarray,
    var0: np.ndarray,
    mu1: np.ndarray,
    var1: np.ndarray,
) -> np.ndarray:
    """P_e at each candidate threshold (vectorized, fixed summation order)."""
    s0, s1 = _tail_sums(xis, mu0, np.sqrt(var0), mu1, np.sqrt(var1))
    return 0.5 * (s0 + s1) / mu0.size


def _best_threshold(
    hi: int, mu0: np.ndarray, sd0: np.ndarray, mu1: np.ndarray, sd1: np.ndarray
) -> int:
    """Smallest minimizer over the integers 0..hi of the ``_pe_curve`` values.

    Exactly np.argmin of the full curve, at a cost of O(sqrt(hi)) thresholds
    near a sharp minimum: the curve is evaluated at ~sqrt(hi) edges, and
    between edges e < e' every threshold has P_e >= (S0(e') + S1(e)) / (2n),
    since S0 falls and S1 rises.  Only blocks whose bound does not exceed
    the best edge value (plus a rounding slack) are scanned in full.
    """
    n = mu0.size

    def curve(xis: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        s0, s1 = _tail_sums(xis.astype(float), mu0, sd0, mu1, sd1)
        return 0.5 * (s0 + s1) / n, s0, s1

    if hi < _PLAIN_SCAN:
        return int(np.argmin(curve(np.arange(hi + 1))[0]))
    edges = np.append(np.arange(0, hi, math.isqrt(hi)), hi)
    edge_pe, s0, s1 = curve(edges)
    values = np.full(hi + 1, np.inf)
    values[edges] = edge_pe
    bound = 0.5 * (s0[1:] + s1[:-1]) / n
    wanted = bound <= edge_pe.min() * (1.0 + _BOUND_SLACK)
    inner = np.repeat(wanted, np.diff(edges))  # per threshold 0..hi-1
    inner[edges[:-1]] = False
    xis = np.flatnonzero(inner)
    values[xis] = curve(xis)[0]
    return int(np.argmin(values))  # first occurrence = smallest threshold


def ber_floors(q: float, mean: np.ndarray, var: np.ndarray) -> np.ndarray:
    """``ber_floor_from_taps`` of every column of an (L+1, W) tap table.

    Row 0 is the signal tap, the other rows the interference taps in
    enumeration order.  The sequences and sort orders are built as for a
    single profile, so each value is bit-identical to the scalar floor.
    Windows go in blocks of at most _FLOOR_BLOCK windows x sequences.
    """
    k = mean.shape[0] - 1
    _check_enumeration(k)
    step = max(1, _FLOOR_BLOCK >> k)
    out = np.empty(mean.shape[1])
    for start in range(0, mean.shape[1], step):
        cols = slice(start, start + step)
        out[cols] = _floor_block(q, mean[:, cols], var[:, cols])
    return out


def _floor_block(q: float, mean: np.ndarray, var: np.ndarray) -> np.ndarray:
    # (windows, sequences) arrays, so each window's mean is a contiguous row
    # sum in the same pairwise order as a one-window call
    mu0 = np.zeros((mean.shape[1], 1))
    var0 = np.zeros((mean.shape[1], 1))
    for j in range(1, mean.shape[0]):
        mu0 = np.concatenate([mu0, mu0 + q * mean[j, :, None]], axis=1)
        var0 = np.concatenate([var0, var0 + q * var[j, :, None]], axis=1)
    mu1 = mu0 + q * mean[0, :, None]
    var1 = var0 + q * var[0, :, None]
    sd0 = np.sqrt(var0)
    sd1 = np.sqrt(var1)

    def matched(m0: np.ndarray, s0: np.ndarray, m1: np.ndarray, s1: np.ndarray) -> np.ndarray:
        gap = m1 - m0
        spread = s0 + s1
        with np.errstate(divide="ignore", invalid="ignore"):
            d = np.where(spread > 0.0, gap / spread, np.where(gap > 0.0, np.inf, 0.0))
        return np.mean(0.5 * _gaussian_tail(d), axis=1)

    same = matched(mu0, sd0, mu1, sd1)
    # pairing the heaviest-ISI zeros against the cleanest ones exposes the
    # shared-threshold conflict much earlier
    order0 = np.argsort(-mu0, axis=1, kind="stable")
    order1 = np.argsort(mu1, axis=1, kind="stable")
    take = np.take_along_axis
    crossed = matched(
        take(mu0, order0, 1), take(sd0, order0, 1), take(mu1, order1, 1), take(sd1, order1, 1)
    )
    return np.maximum(same, crossed)


def ber_floor_from_taps(params: SystemParams, taps: TapProfile) -> float:
    """Cheap lower bound on the threshold-optimized BER of a tap profile.

    Two valid relaxations, combined by max:
      - per sequence, any shared threshold leaves at least one hypothesis
        with a tail of Q(delta / (sigma0 + sigma1)); average those;
      - for the worst cross pair (heaviest-ISI "0" vs cleanest "1"), the
        shared threshold leaves Q((mu1_min - mu0_max) / (sd0 + sd1)) spread
        over one of its two terms.
    Lets window searches skip provably worse candidates.  A one-column call
    of ``ber_floors``.
    """
    sig = taps.signal_index
    order = [sig] + [j for j in range(len(taps.lags)) if j != sig]
    mean = np.asarray(taps.mean, dtype=float)[order, None]
    var = np.asarray(taps.var, dtype=float)[order, None]
    return float(ber_floors(float(params.Q), mean, var)[0])


def threshold_from_taps(params: SystemParams, taps: TapProfile) -> tuple[int, BerEstimate]:
    """BER-minimizing integer threshold for an arbitrary tap profile.

    The range is xi in [0, ceil(mu1_max) + 6*sigma_max]; a block-bounded
    scan (``_best_threshold``) returns exactly the smallest minimizer of the
    full-range ``_pe_curve`` without evaluating every integer.  The BER is
    re-summed exactly (``ber_from_stats``) at that threshold.
    """
    q = float(params.Q)
    mu0, var0, mu1, var1 = _hypothesis_stats(q, taps)
    sd0 = np.sqrt(var0)
    sd1 = np.sqrt(var1)
    sigma_max = math.sqrt(max(var0.max(), var1.max()))
    hi = int(math.ceil(mu1.max()) + math.ceil(6.0 * sigma_max))
    best = _best_threshold(hi, mu0, sd0, mu1, sd1)
    value = ber_from_stats(mu0, sd0, mu1, sd1, float(best))
    estimate = BerEstimate(value=value, threshold=float(best), source=BerSource.ANALYTICAL)
    return best, estimate


def optimal_threshold(params: SystemParams, window: DetectionWindow) -> tuple[int, BerEstimate]:
    """BER-minimizing integer threshold for a window (see ``threshold_from_taps``)."""
    return threshold_from_taps(params, window_taps(params, window))
