"""Diffusion-channel primitives for a point transmitter and spherical receiver.

All quantities are SI internally: lengths in metres, times in seconds,
diffusion coefficients in m^2/s.  Molecule counts are dimensionless.

Everything here is a pure function of immutable inputs and is safe to call
concurrently.

The absorbing survival's erf is the C library's (``math.erf``), not
scipy's: importing ``scipy.special`` would be most of the start-up of a
process that only designs a window, and libm's erf is within 1 ulp where
scipy's is within 2.
"""
from __future__ import annotations

import enum
import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import DomainError

__all__ = [
    "Receiver",
    "SystemParams",
    "DerivedConstants",
    "ContinuousWindow",
    "SampledWindow",
    "DetectionWindow",
    "TapProfile",
    "derived",
    "hitting_density",
    "passive_probability",
    "window_taps",
    "shift_taps",
    "full_window",
]

# Validity bound for the uniform-concentration approximation inside a passive
# receiver: r/(r+d) must stay below this.
PASSIVE_RATIO_LIMIT = 0.15


class Receiver(enum.Enum):
    ABSORBING = "absorbing"
    PASSIVE = "passive"


@dataclass(frozen=True)
class SystemParams:
    """Physical and protocol constants of one link.

    d: transmitter to receiver-surface distance (m)
    r: receiver radius (m)
    D: diffusion coefficient (m^2/s)
    T_s: symbol duration (s)
    L: ISI length, number of past symbols modelled (>= 0)
    Q: molecules released per "1" bit
    receiver: absorbing or passive
    N, t_s: samples per symbol and sampling interval (passive only);
        samples are taken at n*t_s for n = 0..N.
    """

    d: float
    r: float
    D: float
    T_s: float
    L: int
    Q: int
    receiver: Receiver
    N: int | None = None
    t_s: float | None = None

    def __post_init__(self) -> None:
        if not all(math.isfinite(x) and x > 0 for x in (self.d, self.r, self.D, self.T_s)):
            raise ValueError("d, r, D and T_s must all be finite and positive")
        # m_hat^2 = (d+r)^2 / 4D bounds every length scale of the channel
        if not math.isfinite((self.d + self.r) * (self.d + self.r) / (4.0 * self.D)):
            raise ValueError("(d + r)^2 / 4D must be finite: d, r or D is out of range")
        # below it q_hat's (noise/margin)^2 overflows, and alpha1/alpha2 become 0 and inf
        if min(self.d, self.r) < sys.float_info.min:
            raise ValueError(f"d and r must be normal doubles, >= {sys.float_info.min:g} m: got d={self.d:g}, r={self.r:g}")
        if not (math.isfinite(self.L) and self.L >= 0):
            raise ValueError("ISI length L must be finite and >= 0")
        # Q = 0 is accepted so that no-signal edge cases (coin-flip BER) stay
        # representable; every released-molecule count must be integral.
        if not (math.isfinite(self.Q) and self.Q >= 0):
            raise ValueError("molecule count Q must be finite and >= 0")
        if self.receiver is Receiver.PASSIVE:
            ratio = self.r / (self.r + self.d)
            if ratio >= PASSIVE_RATIO_LIMIT:
                raise ValueError(
                    f"passive receiver requires r/(r+d) < {PASSIVE_RATIO_LIMIT}, "
                    f"got {ratio:.4f}"
                )
            if self.N is None or self.t_s is None:
                raise ValueError("passive receiver requires N and t_s")
            if not (math.isfinite(self.N) and self.N >= 1):
                raise ValueError("samples per symbol N must be finite and >= 1")
            if not (math.isfinite(self.t_s) and self.t_s > 0):
                raise ValueError("sampling interval t_s must be finite and positive")
            if self.N * self.t_s > self.T_s * (1 + 1e-12):
                raise ValueError("sampling must fit the symbol: N*t_s <= T_s")
        else:
            if self.N is not None or self.t_s is not None:
                raise ValueError("N and t_s only apply to the passive receiver")


@dataclass(frozen=True)
class DerivedConstants:
    """Length/time scales derived from :class:`SystemParams`.

    ``t_max`` is the true peak time of this receiver's response
    (d^2/6D absorbing, (d+r)^2/6D passive).
    """

    m: float
    m_hat: float
    t_max: float
    V: float | None


def derived(params: SystemParams) -> DerivedConstants:
    m = params.d / math.sqrt(4.0 * params.D)
    m_hat = (params.d + params.r) / math.sqrt(4.0 * params.D)
    if params.receiver is Receiver.ABSORBING:
        t_max = params.d**2 / (6.0 * params.D)
        volume = None
    else:
        t_max = (params.d + params.r) ** 2 / (6.0 * params.D)
        volume = 4.0 / 3.0 * math.pi * params.r**3
    return DerivedConstants(m=m, m_hat=m_hat, t_max=t_max, V=volume)


# ---------------------------------------------------------------------------
# Detection windows
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ContinuousWindow:
    """Absorbing-receiver counting interval [t1, t2] within a symbol."""

    t1: float
    t2: float

    def __post_init__(self) -> None:
        if not (0.0 <= self.t1 <= self.t2):
            raise ValueError(f"need 0 <= t1 <= t2, got [{self.t1}, {self.t2}]")

    @property
    def width(self) -> float:
        return self.t2 - self.t1


@dataclass(frozen=True)
class SampledWindow:
    """Passive-receiver sample range [n1, n2] (inclusive indices)."""

    n1: int
    n2: int

    def __post_init__(self) -> None:
        if not (0 <= self.n1 <= self.n2):
            raise ValueError(f"need 0 <= n1 <= n2, got [{self.n1}, {self.n2}]")


DetectionWindow = ContinuousWindow | SampledWindow


def full_window(params: SystemParams) -> DetectionWindow:
    """The conventional whole-symbol window: [0, T_s] or samples [0, N]."""
    if params.receiver is Receiver.ABSORBING:
        return ContinuousWindow(0.0, params.T_s)
    assert params.N is not None
    return SampledWindow(0, params.N)


def check_window(params: SystemParams, window: DetectionWindow) -> None:
    """Validate that ``window`` matches the receiver kind and fits one symbol."""
    if params.receiver is Receiver.ABSORBING:
        if not isinstance(window, ContinuousWindow):
            raise ValueError("absorbing receiver needs a ContinuousWindow")
        if window.t2 > params.T_s * (1 + 1e-12):
            raise ValueError(f"window end {window.t2} exceeds T_s={params.T_s}")
    else:
        if not isinstance(window, SampledWindow):
            raise ValueError("passive receiver needs a SampledWindow")
        assert params.N is not None
        if window.n2 > params.N:
            raise ValueError(f"window end {window.n2} exceeds N={params.N}")


# ---------------------------------------------------------------------------
# Channel responses
# ---------------------------------------------------------------------------


def hitting_density(params: SystemParams, t):
    """First-hitting probability density h(t) at an absorbing sphere (1/s).

    h(t) = r/(d+r) * d/sqrt(4 pi D t^3) * exp(-d^2 / 4Dt); its integral over
    (0, inf) is the total hitting probability r/(d+r).
    """
    t_arr = np.asarray(t, dtype=float)
    if np.any(t_arr <= 0.0):
        raise ValueError("hitting_density needs t > 0")
    # t^3 may overflow to inf, which is the limit: h(t) = 0
    with np.errstate(over="ignore"):
        out = (
            params.r
            / (params.d + params.r)
            * params.d
            / np.sqrt(4.0 * math.pi * params.D * t_arr**3)
            * np.exp(-params.d**2 / (4.0 * params.D * t_arr))
        )
    return out if isinstance(t, np.ndarray) else float(out)


def _survival(params: SystemParams, t) -> np.ndarray:
    """r/(d+r) * erf(d / sqrt(4Dt)), the mass not yet absorbed by time t.

    Continuously extended with erf(inf) = 1 at t = 0 and erf(0) = 0 at
    t = inf, so the fraction absorbed during [a, b] is _survival(a) -
    _survival(b).

    erf is libm's ``math.erf`` mapped over the array: it keeps scipy off the
    start-up path and is within 1 ulp of the true erf (scipy's within 2).
    """
    t_arr = np.asarray(t, dtype=float)
    if np.any(t_arr < 0.0):
        raise ValueError("time must be >= 0")
    arg = np.full_like(t_arr, np.inf)
    positive = t_arr > 0.0
    # subnormal t underflows 4*D*t to 0; the intended argument is then inf
    with np.errstate(divide="ignore"):
        np.divide(
            params.d,
            np.sqrt(4.0 * params.D * t_arr, where=positive, out=np.ones_like(t_arr)),
            where=positive,
            out=arg,
        )
    erf = np.fromiter(map(math.erf, arg.ravel().tolist()), float, arg.size).reshape(arg.shape)
    return params.r / (params.d + params.r) * erf


def passive_probability(params: SystemParams, t):
    """Probability p(t) that one released molecule sits inside the passive sphere.

    p(t) = V/(4 pi D t)^(3/2) * exp(-(d+r)^2 / 4Dt); p(0) is defined as 0
    so that sums over the n = 0 sample are well-formed.  A D so small that
    (4 pi D t)^(3/2) underflows to 0 is a ``DomainError`` (V/0 * 0 is NaN).
    """
    if params.receiver is not Receiver.PASSIVE:
        raise ValueError("passive_probability needs passive params")
    t_arr = np.asarray(t, dtype=float)
    if np.any(t_arr < 0.0):
        raise ValueError("passive_probability needs t >= 0")
    consts = derived(params)
    assert consts.V is not None
    positive = t_arr > 0.0
    safe_t = np.where(positive, t_arr, 1.0)
    # an overflow to inf is the limit, p(t) = 0; a 0/0 at a masked t = 0 is discarded
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        spread = (4.0 * math.pi * params.D * safe_t) ** 1.5
        if not spread.all():
            underflowed = positive & (spread == 0.0)
            if underflowed.any():
                raise DomainError(
                    f"the passive density's (4 pi D t)^1.5 underflows to 0 at D = {params.D:g} m^2/s "
                    f"(t = {np.max(t_arr[underflowed]):g} s); give a larger D"
                )
        out = np.where(
            positive,
            consts.V / spread * np.exp(-((params.d + params.r) ** 2) / (4.0 * params.D * safe_t)),
            0.0,
        )
    return out if isinstance(t, np.ndarray) else float(out)


# ---------------------------------------------------------------------------
# Per-tap count statistics for a detection window
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TapProfile:
    """Per-release count statistics of a window, one entry per ISI tap.

    ``lags[j]`` is the age of the release in symbols (0 = current, k > 0 =
    k symbols old, -1 = the next symbol leaking into an overhanging window).
    A release of Q molecules with bit x contributes mean Q*x*mean[j] and
    variance Q*x*var[j] to the windowed count.
    """

    lags: tuple[int, ...]
    mean: np.ndarray
    var: np.ndarray

    @property
    def signal_index(self) -> int:
        return self.lags.index(0)


def _response_table(params: SystemParams, points: np.ndarray, lags) -> np.ndarray:
    """Per-lag channel response at window edge points, shape (len(lags), len(points)).

    Absorbing: the survival r/(d+r) erf(d/sqrt(4Dt)) at t = point + lag*T_s,
    so a window's tap fraction is a difference of two columns.  Passive:
    p_{n,lag} at sample n = point, the time floored at 0 so that a release
    in the future (lag < 0) is only seen by samples taken after it; a
    window's tap rate is a row sum.
    """
    shifts = np.asarray(lags, dtype=float)[:, None] * params.T_s
    if params.receiver is Receiver.ABSORBING:
        return _survival(params, points[None, :] + shifts)
    assert params.t_s is not None
    return passive_probability(params, np.maximum(points[None, :] * params.t_s + shifts, 0.0))


def _tap_variance(params: SystemParams, mean: np.ndarray) -> np.ndarray:
    """Per-release count variance fractions: binomial F(1-F) or Poisson rate."""
    if params.receiver is Receiver.ABSORBING:
        return mean * (1.0 - mean)
    return mean.copy()


def _sample_sums(rates: np.ndarray, n1: int, n2: int) -> np.ndarray:
    """Passive tap rates of the windows [n1, n], n1 <= n <= n2, in column
    n - n1, from the p_{n,k} ``rates`` of consecutive samples.

    The one summation rule of a passive tap: its samples added in order from n1.
    """
    return np.cumsum(rates[:, n1 : n2 + 1], axis=1)


def _window_means(params: SystemParams, table: np.ndarray, first: np.ndarray, last: np.ndarray) -> np.ndarray:
    """Tap means, (rows of ``table``, len(first)), of the windows whose edge
    points or samples are the columns ``first`` and ``last`` of the per-lag
    response ``table``: the one tap builder of every window, grid column
    and delay.

    Absorbing: a difference of two survival columns.  Passive: a column of
    the ``_sample_sums`` of the window's start sample, one cumulative sum per
    distinct start, scattered to the columns that share it.  A column does
    not depend on the others, so a window gets the same taps bit for bit
    whichever table or batch it is built in.
    """
    if params.receiver is Receiver.ABSORBING:
        return table[:, first] - table[:, last]
    mean = np.empty((table.shape[0], first.size))
    for n1 in np.unique(first):
        at = first == n1
        mean[:, at] = _sample_sums(table, n1, last[at].max())[:, last[at] - n1]
    return mean


def window_taps(params: SystemParams, window: DetectionWindow) -> TapProfile:
    """Mean/variance fractions of taps 0..L for an in-symbol window.

    Absorbing: mean = F_ab at the k-shifted interval, var = F(1-F)
    (binomial capture).  Passive: mean = var = sum of p_{n,k} over the
    window samples in order from n1 (Poisson counting).  Both are the
    ``_window_means`` of the window's two edges or its samples.
    """
    check_window(params, window)
    lags = tuple(range(params.L + 1))
    if isinstance(window, ContinuousWindow):
        points, last = np.array([window.t1, window.t2]), 1
    else:
        points, last = np.arange(window.n1, window.n2 + 1, dtype=float), window.n2 - window.n1
    mean = _window_means(params, _response_table(params, points, lags), np.array([0]), np.array([last]))[:, 0]
    return TapProfile(lags=lags, mean=mean, var=_tap_variance(params, mean))


def _shifted_means(params: SystemParams, taus: np.ndarray):
    """The full-length windows delayed by each tau, as grid windows (edges or
    None, i1, i2), and their tap means, shape (L+2, len(taus)).

    The window is [tau, tau + T_s] (edges[i1], edges[i2]), or the N+1
    samples [i1, i2] from round(tau/t_s).  Rows are lags 0..L, then -1: the
    next symbol's release leaking into the overhang [T_s, tau + T_s].  Taps
    0..L, and the passive -1, are ``_window_means`` columns of one response
    table, summed like any other window's.
    """
    lags = range(params.L + 1)
    if params.receiver is Receiver.ABSORBING:
        edges = np.concatenate((taus, taus + params.T_s))
        i1 = np.arange(taus.size)
        i2 = i1 + taus.size
        own = _window_means(params, _response_table(params, edges, lags), i1, i2)
        # next symbol released at T_s: the overhang [T_s, tau+T_s] is [0, tau]
        # after its own release, taken at tau itself ((tau+T_s)-T_s != tau)
        return edges, i1, i2, np.vstack((own, _survival(params, 0.0) - _survival(params, taus)))
    assert params.t_s is not None and params.N is not None
    i1 = np.rint(taus / params.t_s)
    cols = (i1 - i1.min()).astype(np.int64)  # table columns: samples from the earliest start
    table = _response_table(params, i1.min() + np.arange(cols.max() + params.N + 1.0), (*lags, -1))
    return None, i1, i1 + params.N, _window_means(params, table, cols, cols + params.N)


def shift_taps(params: SystemParams, tau: float) -> TapProfile:
    """Taps 0..L and -1 of the full-length window delayed by tau (a ``_shifted_means`` column)."""
    if tau < 0:
        raise ValueError("shift tau must be >= 0")
    mean = _shifted_means(params, np.array([tau], dtype=float))[-1][:, 0]
    lags = tuple(range(params.L + 1)) + (-1,)
    return TapProfile(lags=lags, mean=mean, var=_tap_variance(params, mean))
