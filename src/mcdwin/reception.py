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

import numpy as np

from .channel import DetectionWindow, SystemParams, TapProfile, window_taps
from .errors import EnumerationTooLarge

__all__ = [
    "BerSource",
    "BerEstimate",
    "ber_from_taps",
    "optimal_threshold",
    "threshold_from_taps",
]

# Exact enumeration refuses beyond this ISI length; use Monte Carlo there.
MAX_ENUMERATION_L = 24


class BerSource(enum.Enum):
    ANALYTICAL = "analytical"
    MONTE_CARLO = "monte-carlo"


@dataclass(frozen=True)
class BerEstimate:
    value: float
    threshold: float
    source: BerSource
    ci_halfwidth: float | None = None
    trials: int | None = None


def _gaussian_tail(z: np.ndarray) -> np.ndarray:
    """Q(z) = P(N(0,1) > z), computed in place in the float array ``z``."""
    # imported here: a window design that scores no BER never loads scipy
    from scipy.special import erfc

    z /= math.sqrt(2.0)
    erfc(z, out=z)
    z *= 0.5
    return z


# ---------------------------------------------------------------------------
# Enumeration over ISI sequences
# ---------------------------------------------------------------------------


def _check_enumeration(k: int) -> None:
    if k > MAX_ENUMERATION_L:
        raise EnumerationTooLarge(
            f"2^{k} ISI sequences exceed the exact-enumeration cap "
            f"(L <= {MAX_ENUMERATION_L}); use Monte Carlo"
        )


def _sequence_stats(q: float, mean: np.ndarray, var: np.ndarray) -> tuple[np.ndarray, ...]:
    """Count mean/variance under "0" and "1" for every ISI pattern.

    ``mean`` and ``var`` are tap tables of shape (K+1,) or (K+1, W): row 0
    the signal tap, the K other rows the interference taps in enumeration
    order.  Returns mu0, var0, mu1, var1 with the 2^K patterns on the last
    axis, built, and later summed, the same way for one window as for W,
    so batched results are bit-identical to one-profile ones.  Pattern k's
    complement is 2^K-1-k.
    """
    _check_enumeration(mean.shape[0] - 1)
    q_mean = q * mean[..., None]
    q_var = q * var[..., None]
    mu0 = np.zeros(q_mean.shape[1:])
    var0 = np.zeros(q_mean.shape[1:])
    for j in range(1, mean.shape[0]):
        mu0 = np.concatenate((mu0, mu0 + q_mean[j]), axis=-1)
        var0 = np.concatenate((var0, var0 + q_var[j]), axis=-1)
    return mu0, var0, mu0 + q_mean[0], var0 + q_var[0]


def _tap_table(taps: TapProfile) -> tuple[np.ndarray, np.ndarray]:
    """One profile as a (K+1,) tap table for ``_sequence_stats``."""
    sig = taps.signal_index
    order = [sig] + [j for j in range(len(taps.lags)) if j != sig]
    return tuple(np.asarray(a, dtype=float)[order] for a in (taps.mean, taps.var))


def _tail(gap, sd, limit):
    """Q(gap / sd), the Gaussian tail of an error gap, broadcast over arrays.

    Where sd = 0 the tail is its indicator limit ``limit``.
    """
    spread = sd != 0.0
    return np.where(spread, _gaussian_tail(gap / np.where(spread, sd, 1.0)), limit)


def _ber_at(mu0: np.ndarray, sd0: np.ndarray, mu1: np.ndarray, sd1: np.ndarray, x) -> float:
    """Equal-prior error probability of the per-sequence statistics at threshold x.

    Averages P(miss "0") = P(count > x) and P(miss "1") = P(count <= x) over
    the sequences.  Each is its own Gaussian tail, so a BER far below 1e-16
    keeps its relative accuracy, and the per-term sum is compensated
    (math.fsum), so the result does not depend on the enumeration order.
    """
    return math.fsum(0.5 * (_tail(x - mu0, sd0, x < mu0) + _tail(mu1 - x, sd1, x >= mu1))) / mu0.size


def ber_from_taps(params: SystemParams, taps: TapProfile, threshold: float) -> BerEstimate:
    """Analytical BER of a tap profile at a fixed threshold.

    Enumerates all 2^L ISI sequences; refuses L > 24.
    """
    if not threshold >= 0:
        raise ValueError(f"threshold must be >= 0, got {threshold}")
    mu0, var0, mu1, var1 = _sequence_stats(float(params.Q), *_tap_table(taps))
    value = _ber_at(mu0, np.sqrt(var0), mu1, np.sqrt(var1), threshold)
    return BerEstimate(value=value, threshold=threshold, source=BerSource.ANALYTICAL)


# ---------------------------------------------------------------------------
# Threshold optimization
# ---------------------------------------------------------------------------

# relative slack on the scan and floor bounds, against erfc rounding breaking monotonicity
_BOUND_SLACK = 1e-9
# threshold gaps at most this wide are filled, wider ones bisected
_FILL_WIDTH = 8
# elements per block of the batched floors, scans and tail sums (64 KiB a temporary)
_FLOOR_BLOCK = 1 << 13
# thresholds are scanned as floats, which hold every integer only below 2^53
_EXACT_INTEGERS = 2.0**53


def _tail_sums(
    xis: np.ndarray,
    cols: np.ndarray,
    mu0: np.ndarray,
    sd0: np.ndarray,
    mu1: np.ndarray,
    sd1: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Per threshold xis[i], the "0" and "1" error tails summed over the
    sequences of row cols[i] of the (C, 2^K) statistics.

    Each sum is one row of a (thresholds, sequences) array, so it does not
    depend on the other thresholds.  The first sum falls and the second
    rises with the threshold.
    """
    s0 = np.empty(xis.size)
    s1 = np.empty(xis.size)
    step = max(1, _FLOOR_BLOCK // mu0.shape[1])
    for start in range(0, xis.size, step):
        x = xis[start : start + step, None]
        c = cols[start : start + step]
        m0, m1 = mu0[c], mu1[c]
        s0[start : start + step] = _tail(x - m0, sd0[c], x < m0).sum(axis=1)
        s1[start : start + step] = _tail(m1 - x, sd1[c], x >= m1).sum(axis=1)
    return s0, s1


def best_thresholds(
    q: float, mean: np.ndarray, var: np.ndarray, beat: float = math.inf
) -> tuple[np.ndarray, np.ndarray]:
    """``threshold_from_taps`` of every column of a (K+1, C) tap table: the
    thresholds and their BERs, +inf where a column cannot win.

    The columns' integer thresholds 0..hi are scanned in lockstep.  Between
    evaluated thresholds e < e' every threshold has P_e >= (S0(e') +
    S1(e)) / (2n), since S0 falls and S1 rises; the ends [0, first) and
    (last, hi] are such gaps too, bounded with S1 >= 0 and S0 >= 0 (a
    sentinel at -1 and at hi + 1).  A column starts at g - 1, g, g + 1
    around the balance point g of its heaviest-ISI "0" and cleanest "1"
    (the last and first sequences).  Each round takes the gaps whose bound
    does not exceed min(column best, incumbent) plus a rounding slack: it
    fills one at most _FILL_WIDTH wide, doubles the distance of a wider end
    from g and bisects any other.  The incumbent starts at ``beat`` and
    falls to the least value of any column, so a column that provably cannot
    reach it stops early; every round is one ``_tail_sums`` call.  Where the
    best value is 0, only gaps below its first zero are searched: nothing
    is below 0, and ties go to the smaller threshold.

    A column's result is exactly the smallest np.argmin of its P_e at every
    threshold 0..hi, with the BER re-summed there (``_ber_at``), or
    +inf when every value exceeds the final incumbent (plus the slack).
    A range reaching 2^53 is refused (EnumerationTooLarge) before any tail
    is evaluated.
    """
    mu0, var0, mu1, var1 = _sequence_stats(q, mean, var)
    sd0, sd1 = np.sqrt(var0), np.sqrt(var1)
    n = mu0.shape[1]
    hi = np.ceil(mu1.max(axis=1)) + np.ceil(6.0 * np.sqrt(np.maximum(var0.max(axis=1), var1.max(axis=1))))
    if np.any(hi >= _EXACT_INTEGERS):
        raise EnumerationTooLarge(
            f"threshold range [0, {hi.max():.17g}] passes 2^53, beyond which consecutive "
            "integers are not distinct floats; use a smaller Q"
        )
    spread = sd0[:, -1] + sd1[:, 0]
    g = np.divide(
        sd1[:, 0] * mu0[:, -1] + sd0[:, -1] * mu1[:, 0], spread, out=mu0[:, -1].copy(), where=spread > 0.0
    )
    g = np.minimum(np.maximum(np.floor(g), 0.0), hi)
    xs = np.maximum(g[:, None] + (-math.inf, -1.0, 0.0, 1.0, math.inf), -1.0)
    xs = np.minimum(xs, hi[:, None] + 1.0)  # g - 1, g, g + 1 between the sentinels
    distinct = np.ones(xs.shape, dtype=bool)
    distinct[:, 1:] = xs[:, 1:] != xs[:, :-1]
    cols, xs = distinct.nonzero()[0], xs[distinct]
    # the sentinels' P_e is inf: S0 = inf, S1 = 0 at -1 and S0 = 0, S1 = inf at hi + 1
    s0 = np.where(xs < 0.0, math.inf, 0.0)
    s1 = np.where(xs < 0.0, 0.0, math.inf)
    real = (xs >= 0.0) & (xs <= hi[cols])
    s0[real], s1[real] = _tail_sums(xs[real], cols[real], mu0, sd0, mu1, sd1)
    incumbent = beat
    fill = np.arange(1.0, _FILL_WIDTH + 1.0)
    while True:
        pe = 0.5 * (s0 + s1) / n
        heads = (xs < 0.0).nonzero()[0]
        low = np.minimum.reduceat(pe, heads)
        incumbent = min(incumbent, low.min())
        cap = np.minimum(low, incumbent * (1.0 + _BOUND_SLACK)) * (1.0 + _BOUND_SLACK)
        index = np.arange(xs.size)
        where = np.minimum.reduceat(np.where(pe == low[cols], index, xs.size), heads)
        # gap i lies between points i and i + 1; between two columns its bound is inf
        gaps = (xs[1:] - xs[:-1] > 1.0) & (0.5 * (s0[1:] + s1[:-1]) / n <= cap[cols[1:]])
        zero = low == 0.0
        if zero.any():
            gaps &= ~zero[cols[1:]] | (index[:-1] < where[cols[1:]])
        at = gaps.nonzero()[0]
        if at.size == 0:
            break
        lo, up, c = xs[at], xs[at + 1], cols[at]
        width = up - lo - 1.0
        # an end moves twice as far from g, an inner gap is halved
        mid = np.where(pe[at + 1] == math.inf, 2.0 * lo - g[c], np.floor((lo + up) / 2.0))
        mid = np.minimum(np.maximum(np.where(lo < 0.0, 2.0 * up - g[c], mid), lo + 1.0), up - 1.0)
        wide = width > _FILL_WIDTH
        narrow = (fill <= width[:, None]) & ~wide[:, None]
        new_cols = np.concatenate((c[wide], c.repeat(narrow.sum(axis=1))))
        new_xs = np.concatenate((mid[wide], (lo[:, None] + fill)[narrow]))
        t0, t1 = _tail_sums(new_xs, new_cols, mu0, sd0, mu1, sd1)
        cols = np.concatenate((cols, new_cols))
        xs = np.concatenate((xs, new_xs))
        order = np.lexsort((xs, cols))
        cols, xs = cols[order], xs[order]
        s0 = np.concatenate((s0, t0))[order]
        s1 = np.concatenate((s1, t1))[order]
    values = np.full(g.size, math.inf)
    for c in np.flatnonzero(low <= incumbent * (1.0 + _BOUND_SLACK)):
        values[c] = _ber_at(mu0[c], sd0[c], mu1[c], sd1[c], xs[where[c]])
    return xs[where].astype(int), values


def ber_floors(q: float, mean: np.ndarray, var: np.ndarray) -> np.ndarray:
    """Lower bound on the threshold-optimized BER of each column of an (L+1, W) tap table.

    Pair each "0" sequence (mu0, s0) with a "1" sequence (mu1, s1) and let
    f(x) = Q((x - mu0) / s0) + Q((mu1 - x) / s1).  Any perfect matching of
    the sequences bounds the BER at every threshold by the mean of half the
    pairs' f, so by the mean of half their minima over x.  The floor
    matches each ISI pattern with its complement, so the heaviest-ISI "0"
    meets the cleanest "1", and bounds each pair's minimum by
    ``_pair_minima``.  Lets window searches skip provably worse candidates.

    A column's floor does not depend on the others (see ``_sequence_stats``).
    Windows go in blocks of at most _FLOOR_BLOCK windows x sequences.  The
    floors are lowered by the rounding slack _BOUND_SLACK, so a window
    whose BER ties the floor is never pruned by a plain comparison.
    """
    return _blocked(_floor_block, q, mean, var, mean.shape[0] - 1) / (1.0 + _BOUND_SLACK)


def _blocked(kernel, q: float, mean: np.ndarray, var: np.ndarray, log2_width: int) -> np.ndarray:
    """``kernel`` over blocks of columns, 2^log2_width elements per column."""
    step = max(1, _FLOOR_BLOCK >> log2_width)
    out = np.empty(mean.shape[1])
    for start in range(0, mean.shape[1], step):
        cols = slice(start, start + step)
        out[cols] = kernel(q, mean[:, cols], var[:, cols])
    return out


def _floor_block(q: float, mean: np.ndarray, var: np.ndarray) -> np.ndarray:
    mu0, var0, mu1, var1 = _sequence_stats(q, mean, var)
    # reversed, the "1" sequences are the complements of the "0" ones
    gap = mu1[:, ::-1] - mu0
    del mu0, mu1  # freed before the pair kernel's temporaries
    return 0.5 * _pair_minima(gap, var0, var1[:, ::-1]).mean(axis=1)


def _pair_minima(gap: np.ndarray, v0: np.ndarray, v1: np.ndarray) -> np.ndarray:
    """Per pair, min(1/2, a certified lower bound on min over x of
    f(x) = Q((x - mu0) / s0) + Q((mu1 - x) / s1)), for gap G = mu1 - mu0 and
    the variances v0, v1.

    With G > 0 and both spreads positive: outside [mu0, mu1] one term
    exceeds 1/2.  Inside, both arguments are >= 0 and affine in x, and Q is
    convex on [0, inf), so f is convex there.  Its stationary point
    phi(a) / s0 = phi(b) / s1, with a = (x - mu0) / s0 and b = (mu1 - x) / s1,
    solves (v0 - v1) a^2 - 2 B a + C = 0 for B = G s0 and C = G^2 +
    v1 ln(v1 / v0); the root a = C / (B + sqrt(B^2 + (v1 - v0) C)) stays
    finite as v1 -> v0, where it gives the midpoint, and B^2 + (v1 - v0) C =
    v1 (G^2 + (v1 - v0) ln(v1 / v0)) >= 0 is computed in that
    cancellation-free form.  Clip a to [0, G / s0] and take x^ = mu0 + s0 a.
    Convexity puts f above its tangent at x^, so on [mu0, mu1] f >= f(x^) -
    |f'(x^)| max(x^ - mu0, mu1 - x^): the term min(1/2, max(0, that)) bounds
    the pair's minimum wherever rounding puts x^, and equals it when x^ is
    the stationary point.  With a zero spread or G <= 0 the term is
    Q(G / (s0 + s1)) under the indicator limits, which is exact (or at least
    1/2).
    """
    s0 = np.sqrt(v0)
    s1 = np.sqrt(v1)
    rough = (gap <= 0.0) | (s0 == 0.0) | (s1 == 0.0)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        log_ratio = np.log(v1 / v0)
        root = np.sqrt(v1 * (gap * gap + (v1 - v0) * log_ratio))
        a = (gap * gap + v1 * log_ratio) / (gap * s0 + root)
        del log_ratio, root
        # any a in [0, G / s0] gives a valid term; a ratio v1 / v0 out of
        # range makes a NaN, which fmax sends to 0
        a = np.fmin(np.fmax(a, 0.0), gap / s0)
        b = np.maximum((gap - s0 * a) / s1, 0.0)
        # |f'(x^)| times the farther end of [mu0, mu1]
        slope = np.exp(-0.5 * a * a) / s0
        slope -= np.exp(-0.5 * b * b) / s1
        np.abs(slope, out=slope)
        slope *= np.maximum(s0 * a, s1 * b) / math.sqrt(2.0 * math.pi)
    term = _gaussian_tail(a)
    term += _gaussian_tail(b)
    term -= slope
    if rough.any():
        # a zero spread: Q(G / max(s0, s1)) or its indicator limit, exact;
        # G <= 0: at least 1/2
        term[rough] = _jensen_terms(gap[rough], v0[rough], v1[rough], 0.0)
    return np.minimum(np.fmax(term, 0.0), 0.5)


def _coarse_floors(q: float, mean: np.ndarray, var: np.ndarray) -> np.ndarray:
    """A lower bound on ``ber_floors`` of every column, from ~2^(K/2+1) tails,
    lowered by the rounding slack like the floors.

    The K interference rows split into the leading rows 1..k, k = ceil(K/2),
    and the rest; the leading bits of the "0" pattern group the floor's
    complement pairs into 2^k groups of 2^(K-k).  A pair's minimum is at
    least min(1/2, w Q(G / (s0 + s1))) with w = 1 + min(s0, s1) / max(s0,
    s1) (Jensen: Q is convex on [0, inf)).  The heaviest-ISI group, every
    leading tap on in "0", takes that term for each of its pairs.  Every
    other group takes 2^(K-k) times the term at its worst case over the
    trailing bits: the largest gap (every trailing tap favours detection),
    the least spread (s0 + s1 = sqrt(A + t) + sqrt(B + V - t) is concave in
    the trailing variance t that "0" takes, so least at t = 0 or V) and the
    least w.  Summing over a partition, the bound is strong both at high Q,
    where the heaviest group carries the BER, and at low Q.
    """
    return _blocked(_coarse_block, q, mean, var, mean.shape[0] // 2 + 1) / (1.0 + _BOUND_SLACK)


def _coarse_block(q: float, mean: np.ndarray, var: np.ndarray) -> np.ndarray:
    k = mean.shape[0] // 2
    lead_mu0, lead_var0, lead_mu1, lead_var1 = _sequence_stats(q, mean[: k + 1], var[: k + 1])
    zero = np.zeros((1, mean.shape[1]))
    trail_mu, trail_var = _sequence_stats(
        q, np.concatenate((zero, mean[k + 1 :])), np.concatenate((zero, var[k + 1 :]))
    )[:2]
    # "0" lead pattern 2^k-1 against "1" lead pattern 0, then p against 2^k-1-p
    heavy = _jensen_terms(
        lead_mu1[:, :1] + trail_mu[:, ::-1] - (lead_mu0[:, -1:] + trail_mu),
        lead_var0[:, -1:] + trail_var,
        lead_var1[:, :1] + trail_var[:, ::-1],
        0.0,
    )
    others = _jensen_terms(
        lead_mu1[:, :0:-1] - lead_mu0[:, :-1] + q * np.abs(mean[k + 1 :]).sum(axis=0)[:, None],
        lead_var0[:, :-1],
        lead_var1[:, :0:-1],
        trail_var[:, -1:],
    )
    n = trail_mu.shape[1]  # pairs per group
    return 0.5 * (heavy.sum(axis=1) + n * others.sum(axis=1)) / (lead_mu0.shape[1] * n)


def _jensen_terms(gap: np.ndarray, v0: np.ndarray, v1: np.ndarray, rest) -> np.ndarray:
    """min(1/2, (1 + min(s0, s1) / max(s0, s1)) Q(G / (s0 + s1))) at the
    worst case of a group of pairs with gaps G up to ``gap`` and variances
    v0 + t, v1 + rest - t for t in [0, rest]; Q(G / 0) takes its indicator
    limit."""
    s0, s1 = np.sqrt(v0), np.sqrt(v1)
    s0_all, s1_all = np.sqrt(v0 + rest), np.sqrt(v1 + rest)
    spread = np.minimum(s0 + s1_all, s0_all + s1)
    some = spread > 0.0
    w = np.minimum(s0, s1)
    np.divide(w, np.maximum(s0_all, s1_all), out=w, where=some)
    d = np.divide(gap, spread, out=np.where(gap > 0.0, np.inf, 0.0), where=some)
    return np.minimum((1.0 + w) * _gaussian_tail(np.maximum(d, 0.0)), 0.5)


def ber_floor_from_taps(params: SystemParams, taps: TapProfile) -> float:
    """Lower bound on the threshold-optimized BER of a tap profile: a one-column ``ber_floors``."""
    return float(ber_floors(float(params.Q), *(a[:, None] for a in _tap_table(taps)))[0])


def threshold_from_taps(params: SystemParams, taps: TapProfile) -> tuple[int, BerEstimate]:
    """BER-minimizing integer threshold for an arbitrary tap profile.

    The range is xi in [0, ceil(mu1_max) + 6*sigma_max]; a bounded scan
    returns exactly the smallest minimizer of P_e over the full range
    without evaluating every integer, and the BER is re-summed exactly
    (``_ber_at``) at that threshold.  A one-column ``best_thresholds``.
    """
    mean, var = _tap_table(taps)
    xis, values = best_thresholds(float(params.Q), mean[:, None], var[:, None])
    estimate = BerEstimate(value=float(values[0]), threshold=float(xis[0]), source=BerSource.ANALYTICAL)
    return int(xis[0]), estimate


def optimal_threshold(params: SystemParams, window: DetectionWindow) -> tuple[int, BerEstimate]:
    """BER-minimizing integer threshold for a window (see ``threshold_from_taps``)."""
    return threshold_from_taps(params, window_taps(params, window))
