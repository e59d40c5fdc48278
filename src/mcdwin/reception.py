"""Received-count statistics and analytical bit-error rate.

The receiver counts molecules in a detection window and decides "1" iff the
count exceeds an integer threshold.  Counts are Gaussian-approximated per
tap: an absorbing receiver captures Binomial(Q, F) molecules per release, a
passive receiver observes Poisson(Q * rate) at its samples.  Bits are
equiprobable; the error probability averages the two hypotheses over all
2^L ISI sequences.

Degenerate zero-variance branches use the indicator limit of the Gaussian
tail: P(count > xi) -> 1{xi < mu}.
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


def _interference_sums(q: float, taps: TapProfile) -> tuple[np.ndarray, np.ndarray]:
    """Mean and variance of the interference count for every on/off pattern.

    Returns arrays of length 2^K where K is the number of interference taps
    (every tap except lag 0).  Element order follows the fixed tap order, so
    repeated calls are bit-identical.
    """
    k = len(taps.lags) - 1
    if k > MAX_ENUMERATION_L:
        raise EnumerationTooLarge(
            f"2^{k} ISI sequences exceed the exact-enumeration cap "
            f"(L <= {MAX_ENUMERATION_L}); use Monte Carlo"
        )
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


def ber_from_stats(
    mu0: np.ndarray,
    sigma0: np.ndarray,
    mu1: np.ndarray,
    sigma1: np.ndarray,
    threshold: float,
) -> float:
    """Equal-prior error probability for explicit per-sequence statistics.

    Averages P(miss "0") and P(miss "1") over the supplied sequences.  The
    per-term sum is compensated (math.fsum), so the result does not depend
    on the enumeration order.
    """
    mu0 = np.atleast_1d(np.asarray(mu0, dtype=float))
    mu1 = np.atleast_1d(np.asarray(mu1, dtype=float))
    sigma0 = np.atleast_1d(np.asarray(sigma0, dtype=float))
    sigma1 = np.atleast_1d(np.asarray(sigma1, dtype=float))
    p_err0 = _upper_tail(threshold, mu0, sigma0)
    p_err1 = 1.0 - _upper_tail(threshold, mu1, sigma1)
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


def _pe_curve(
    xis: np.ndarray,
    mu0: np.ndarray,
    var0: np.ndarray,
    mu1: np.ndarray,
    var1: np.ndarray,
) -> np.ndarray:
    """P_e at each candidate threshold (vectorized, fixed summation order)."""
    sd0 = np.sqrt(var0)
    sd1 = np.sqrt(var1)
    n = mu0.size
    out = np.empty(xis.size)
    for start in range(0, xis.size, _CURVE_CHUNK):
        x = xis[start : start + _CURVE_CHUNK, None]
        err0 = _upper_tail(x, mu0, sd0)
        err1 = _upper_tail(x, mu1, sd1)
        out[start : start + x.shape[0]] = (
            0.5 * (err0.sum(axis=1) + n - err1.sum(axis=1)) / n
        )
    return out


def ber_floor_from_taps(params: SystemParams, taps: TapProfile) -> float:
    """Cheap lower bound on the threshold-optimized BER of a tap profile.

    Two valid relaxations, combined by max:
      - per sequence, any shared threshold leaves at least one hypothesis
        with a tail of Q(delta / (sigma0 + sigma1)); average those;
      - for the worst cross pair (heaviest-ISI "0" vs cleanest "1"), the
        shared threshold leaves Q((mu1_min - mu0_max) / (sd0 + sd1)) spread
        over one of its two terms.
    Lets window searches skip provably worse candidates.
    """
    mu0, var0, mu1, var1 = _hypothesis_stats(float(params.Q), taps)
    sd0 = np.sqrt(var0)
    sd1 = np.sqrt(var1)

    def matched(order0: np.ndarray, order1: np.ndarray) -> float:
        gap = mu1[order1] - mu0[order0]
        spread = sd0[order0] + sd1[order1]
        with np.errstate(divide="ignore", invalid="ignore"):
            d = np.where(spread > 0.0, gap / spread, np.where(gap > 0.0, np.inf, 0.0))
        return float(np.mean(0.5 * _gaussian_tail(d)))

    identity = np.arange(mu0.size)
    same = matched(identity, identity)
    # pairing the heaviest-ISI zeros against the cleanest ones exposes the
    # shared-threshold conflict much earlier
    crossed = matched(np.argsort(-mu0, kind="stable"), np.argsort(mu1, kind="stable"))
    return max(same, crossed)


def threshold_from_taps(params: SystemParams, taps: TapProfile) -> tuple[int, BerEstimate]:
    """Exhaustive integer-threshold scan for an arbitrary tap profile.

    Scans xi in [0, ceil(mu1_max) + 6*sigma_max] and returns the smallest
    minimizing threshold with its (exactly re-summed) BER.
    """
    q = float(params.Q)
    mu0, var0, mu1, var1 = _hypothesis_stats(q, taps)
    sigma_max = math.sqrt(max(var0.max(), var1.max()))
    hi = int(math.ceil(mu1.max()) + math.ceil(6.0 * sigma_max))
    xis = np.arange(0, hi + 1, dtype=float)
    curve = _pe_curve(xis, mu0, var0, mu1, var1)
    best = int(np.argmin(curve))  # first occurrence = smallest threshold
    value = ber_from_stats(mu0, np.sqrt(var0), mu1, np.sqrt(var1), float(best))
    estimate = BerEstimate(value=value, threshold=float(best), source=BerSource.ANALYTICAL)
    return best, estimate


def optimal_threshold(params: SystemParams, window: DetectionWindow) -> tuple[int, BerEstimate]:
    """BER-minimizing integer threshold for a window (exhaustive scan)."""
    return threshold_from_taps(params, window_taps(params, window))
