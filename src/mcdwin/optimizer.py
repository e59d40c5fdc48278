"""Detection-interval optimization.

Closed forms
------------
The low-count regime window comes from the zero crossings of
h(t) - sum_k h(k T_s + t) (signal minus strongest-ISI density).  A [1,1]
Pade approximation of the logarithms reduces the start-time equation to a
linear one:

    t1* = 28 m^2 T_s / (120 T_s - 28 T_s ln(R) - 74 m^2)

with R the ISI-to-first-tap density ratio at an anchor point (R = 1 when
L = 1).  The end time is the largest real root above the start of a cubic
in t2/T_s, solved in closed form (``Branch.END_ROOT``); the window ends at
T_s when the cubic has no root there (``NO_END_ROOT``) or when the first-tap
ISI at T_s stays below the signal (``COND_TS``).  In the high-count regime
every ISI ratio is inflated by the noise factor g(Q) evaluated at
Q = g(q_hat) * q_hat, and the ratios are anchored on the low-count window;
below q_hat the inflation is the identity.

``closed_form_interval`` is the one closed-form entry point: it dispatches
on the receiver and on Q against q_hat, and ``result.method`` names the
Prop it took.  The count regime is decided once: the low-count solve
evaluates q_hat at its own window and records it as
``intermediates.q_hat``, where the high-count solve, ``regime_q_hat`` and
the mSINAR count min(Q, q_hat) read it.  Props 1-4 are one solver (``_closed_form``) over a small
receiver adapter (``_ClosedFormReceiver``).  The adapter supplies what
differs between the receivers: m^2 (absorbing) or m_hat^2 = (d+r)^2/4D
(passive); the ratio sum of first-hitting densities or of observation
probabilities; the quantizers that turn a start time and an end root into
window units (seconds as they are, or ceil(t/t_s) and ceil(x N) sample
indices); and the units the anchors are measured in.  Prop 1/2 (absorbing,
L = 1 / L > 1) and the low-count half of Prop 4 run it with g = 1; Prop 3
and the high-count half of Prop 4 run it with g(Q).

Closed-form outputs falling outside [0, T_s] (or [0, N]) are clamped and
flagged; an empty window after clamping raises DegenerateWindow.

Searches
--------
Numeric metric maximization and exhaustive BER minimization run on a
uniform window grid (default step T_s/400) with one deterministic tie-break
(``_argbest``): smaller start, then larger end.  The shift-tau baseline
scores full-length windows delayed by tau in [0, t_max], counting the next
symbol's leakage as interference.  Both BER searches are one branch-and-bound
(``_least_ber``) over the columns of a tap table; they return the taps,
threshold and BER they scored the winner on, which ``select_window`` adds
to every other scheme's window, so no caller rescans a selected window.
The grid's taps are built a block of windows at a time (``_window_grid``),
so a grid search holds its int32 window indices (8 bytes a window), a bound a
window in the BER searches, and one block, never the whole (L+1, windows)
table.
"""
from __future__ import annotations

import enum
import math
from dataclasses import astuple, dataclass, replace
from decimal import Context, Decimal
from fractions import Fraction
from typing import Callable

import numpy as np

from . import metrics
from .channel import (
    ContinuousWindow,
    DetectionWindow,
    Receiver,
    SampledWindow,
    SystemParams,
    TapProfile,
    _response_table,
    _shifted_means,
    _tap_variance,
    _window_means,
    derived,
    full_window,
    hitting_density,
    passive_probability,
    window_taps,
)
from .errors import DegenerateWindow, DomainError, EnumerationTooLarge, NoFiniteQhat, SymbolTooShort
from .reception import _FLOOR_BLOCK, _coarse_floors, ber_floors, best_thresholds, threshold_from_taps
from .reception import BerEstimate, BerSource

__all__ = [
    "Regime",
    "Branch",
    "Method",
    "Scheme",
    "ClosedFormIntermediates",
    "OptimizationResult",
    "closed_form_interval",
    "regime_q_hat",
    "numeric_metric_search",
    "exhaustive_ber_search",
    "shift_tau_search",
    "select_window",
    "default_grid_step",
]

GRID_DIVISIONS = 400

# Exhaustive BER search scores O(T_s/dt)^2 windows, each with a threshold
# scan over 2^L sequences; beyond this the scan is impractical.
MAX_BER_SEARCH_L = 12

# Grid searches refuse more than this many (L+1) x windows tap elements, a
# bound on their work: they build the taps a block of windows at a time.
# The default grid, T_s/400, has 80,200 windows: 2.0M elements at L = 24.
MAX_GRID_ELEMENTS = 1 << 25

# Windows per block of every grid search.  A column's bounds and metric do
# not depend on which other columns (at least 2) share its block, and this
# is a multiple of each inner column block of ``_coarse_floors`` and
# ``ber_floors`` from K = 2 up, where a lone column could differ; at K <= 1
# their inner blocks (4,096 and 8,192 columns) are larger.  So every block
# gives the same bits as the whole grid at once.
_GRID_BLOCK = _FLOOR_BLOCK >> 2


class Regime(enum.Enum):
    BELOW_QHAT = "below-qhat"
    ABOVE_QHAT = "above-qhat"


class Branch(enum.Enum):
    COND_TS = "cond-ts"
    END_ROOT = "end-root"
    NO_END_ROOT = "no-end-root"


class Method(enum.Enum):
    PROP1 = "prop1"
    PROP2 = "prop2"
    PROP3 = "prop3"
    PROP4 = "prop4"
    NUMERIC_METRIC = "numeric-metric"
    EXHAUSTIVE_BER = "exhaustive-ber"
    SHIFT_TAU = "shift-tau"
    FULL_WINDOW = "full-window"


class Scheme(enum.Enum):
    """Window-selection schemes offered to sweeps and the CLI."""

    FULL_WINDOW = "full"
    SHIFT_TAU = "shift-tau"
    NUMERIC_SID = "numeric-sid"
    NUMERIC_SINAR = "numeric-sinar"
    NUMERIC_MSINAR = "numeric-msinar"
    CLOSED_FORM = "closed-form"
    EXHAUSTIVE_BER = "exhaustive-ber"


@dataclass(frozen=True)
class ClosedFormIntermediates:
    q_hat: int | None
    regime: Regime
    branch: Branch
    i_ratio: float | None = None
    v_ratio: float | None = None
    w_ratio: float | None = None
    a_ratio: float | None = None
    t1_anchor: float | None = None
    t2_anchor: float | None = None
    n1_anchor: float | None = None
    n2_anchor: float | None = None


@dataclass(frozen=True)
class OptimizationResult:
    """A selected window; ``taps`` (shifted for shift-tau), ``threshold`` and
    the analytic ``ber`` there are what it is scored on.  The BER searches
    and ``select_window`` fill them; ``closed_form_interval`` and
    ``numeric_metric_search`` leave them None."""

    window: DetectionWindow
    method: Method
    intermediates: ClosedFormIntermediates | None = None
    objective_value: float | None = None
    tau: float | None = None
    clamped: bool = False
    degenerate: bool = False
    taps: TapProfile | None = None
    threshold: int | None = None
    ber: BerEstimate | None = None


def default_grid_step(params: SystemParams) -> float:
    return params.T_s / GRID_DIVISIONS


# ---------------------------------------------------------------------------
# Closed-form building blocks
# ---------------------------------------------------------------------------


def _start_time(m2: float, T_s: float, ln_ratio: float) -> float:
    denom = 120.0 * T_s - 28.0 * T_s * ln_ratio - 74.0 * m2
    if denom <= 0.0:
        raise SymbolTooShort(
            f"start-time denominator {denom:.6g} <= 0 (T_s={T_s}, m^2={m2}, "
            f"ln-ratio={ln_ratio:.6g}); the closed form is invalid"
        )
    return 28.0 * m2 * T_s / denom


def _end_cond_sum(m2: float, T_s: float, L: int) -> float:
    """ISI-to-signal density sum at t = T_s; <= 1 keeps the window end at T_s."""
    k = np.arange(1, L + 1, dtype=float)
    return float(np.sum((1.0 + k) ** -1.5 * np.exp(k / (1.0 + k) * m2 / T_s)))


def _solve_end_fraction(m2: float, T_s: float, ln_v: float, after: float) -> tuple[float, Branch]:
    """The window end x = t2/T_s and its branch: the largest real root above
    ``after`` of x^3 ln(V) + 3 x^2 ln(V) + x (2 ln(V) + M - 6) + 2 M = 0,
    M = m^2/T_s, or x = 1 (the end at T_s) when no root lies there.

    In y = x + 1 the cubic is y^3 + p y + q = 0, p = (M - 6)/ln(V) - 1,
    q = (M + 6)/ln(V) > 0 (V > 1, as L > 1 here): real
    radicals give its one real root, the trigonometric form the largest of
    three, and two Newton steps on the cubic as stated restore the bits
    y - 1 loses near x = 0.
    """
    M = m2 / T_s
    p, q = (M - 6.0) / ln_v - 1.0, (M + 6.0) / ln_v
    disc = (q / 2.0) ** 2 + (p / 3.0) ** 3
    if disc > 0.0:
        u = -float(np.cbrt(q / 2.0 + math.sqrt(disc)))  # the larger Cardano term: no cancellation
        y = u - p / (3.0 * u)
    else:
        cos3 = 1.5 * q / p * math.sqrt(-3.0 / p)
        y = 2.0 * math.sqrt(-p / 3.0) * math.cos(math.acos(min(max(cos3, -1.0), 1.0)) / 3.0)
    x = y - 1.0
    for _ in range(2):
        value = ((ln_v * x + 3.0 * ln_v) * x + 2.0 * ln_v + M - 6.0) * x + 2.0 * M
        slope = (3.0 * ln_v * x + 6.0 * ln_v) * x + 2.0 * ln_v + M - 6.0
        if slope != 0.0:
            x -= value / slope
    if x > after:
        return x, Branch.END_ROOT
    return 1.0, Branch.NO_END_ROOT


def _clamp_continuous(t1: float, t2: float, T_s: float) -> tuple[ContinuousWindow, bool]:
    c1 = min(max(t1, 0.0), T_s)
    c2 = min(max(t2, 0.0), T_s)
    clamped = (c1 != t1) or (c2 != t2)
    if c2 <= c1:
        raise DegenerateWindow(f"window [{t1:.6g}, {t2:.6g}] is empty after clamping")
    return ContinuousWindow(c1, c2), clamped


def _clamp_sampled(n1: int, n2: int, N: int) -> tuple[SampledWindow, bool]:
    if n1 > N:
        raise DegenerateWindow(f"window start sample {n1} exceeds N={N}")
    c1 = max(n1, 0)
    c2 = min(max(n2, 0), N)
    clamped = (c1 != n1) or (c2 != n2)
    if c2 < c1:
        raise DegenerateWindow(f"sample window [{n1}, {n2}] is empty after clamping")
    return SampledWindow(c1, c2), clamped


def _msinar_count(Q: int, q_hat: int | None) -> int:
    """The count mSINAR is scored at: Q, capped at the regime q_hat."""
    return Q if q_hat is None else min(Q, q_hat)


def _msinar_objective(params: SystemParams, window: DetectionWindow, q_eff: int) -> float | None:
    if q_eff < 1:
        return None
    try:
        return metrics.msinar(replace(params, Q=int(q_eff)), window)
    except DomainError:
        return None


# ---------------------------------------------------------------------------
# Closed-form intervals
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _ClosedFormReceiver:
    """What the closed-form solver varies between the two receivers.

    Windows are in seconds (absorbing) or sample indices (passive): a time
    t starts a window at ``rounding(t / unit)``, an end root x = t2/T_s
    ends it at ``rounding(x * span)``, and ``clamp`` fits it to [0, span].
    ``names`` label the start/end ratio sums and their anchors.
    """

    m2: float
    t_max: float
    density: Callable
    unit: float
    span: float
    rounding: Callable
    clamp: Callable
    names: tuple[str, str, str, str]

    def start(self, t: float):
        return self.rounding(t / self.unit)

    def end(self, fraction: float):
        return self.rounding(fraction * self.span)

    def ratio_sum(self, params: SystemParams, anchor: float) -> float:
        """sum_k density(k T_s + t) / density(T_s + t), k = 1..L, t the anchor time."""
        k = np.arange(1, params.L + 1, dtype=float)
        values = self.density(params, k * params.T_s + anchor * self.unit)
        if not values[0] > 0.0:
            raise DomainError(
                f"the ISI ratio sum is 0/0: the response one symbol back (T_s = {params.T_s:g}) "
                "underflows to 0"
            )
        return float(np.sum(values) / values[0])


def _closed_form_receiver(params: SystemParams) -> _ClosedFormReceiver:
    consts = derived(params)
    if params.receiver is Receiver.ABSORBING:
        return _ClosedFormReceiver(
            consts.m**2, consts.t_max, hitting_density, 1.0, params.T_s, lambda t: t,
            _clamp_continuous, ("i_ratio", "v_ratio", "t1_anchor", "t2_anchor"),
        )
    assert params.N is not None and params.t_s is not None
    return _ClosedFormReceiver(
        consts.m_hat**2, consts.t_max, passive_probability, params.t_s, params.N, math.ceil,
        _clamp_sampled, ("w_ratio", "a_ratio", "n1_anchor", "n2_anchor"),
    )


def _closed_form(params: SystemParams, below: OptimizationResult | None = None) -> OptimizationResult:
    """The one closed-form solver: the Pade start root, then T_s or the end cubic.

    Low-count regime (``below`` None; Prop 1, 2 or 4): g = 1, and the ISI
    ratios are anchored at the unit-ratio start and midway between t_max
    and T_s; the regime threshold q_hat is evaluated at the window found
    (None when mSINAR cannot reach 1 there).  High-count regime (Prop 3 or
    4): the ratios are anchored on the low-count result ``below`` and
    inflated by g evaluated at Q = g(q_hat) * q_hat, with its q_hat.
    Either way mSINAR is scored at min(Q, q_hat).
    """
    rx = _closed_form_receiver(params)
    start_name, end_name, start_anchor_name, end_anchor_name = rx.names
    if below is None:
        regime, g = Regime.BELOW_QHAT, 1.0
        method = Method.PROP1 if params.L == 1 else Method.PROP2
        start_anchor = float(rx.start(_start_time(rx.m2, params.T_s, 0.0)))
    else:
        q_hat = below.intermediates.q_hat
        regime, method = Regime.ABOVE_QHAT, Method.PROP3
        g = metrics.g_factor(params, metrics.g_factor(params, float(q_hat)) * q_hat)
        first, last = astuple(below.window)
        start_anchor = float(first)
    ratio = rx.ratio_sum(params, start_anchor) if params.L > 1 else 1.0
    found: dict = {start_name: ratio} if params.L > 1 else {}
    if params.L > 1 or below is not None:
        found[start_anchor_name] = start_anchor
    start = rx.start(_start_time(rx.m2, params.T_s, math.log(ratio * g)))

    if params.L == 1 or g * _end_cond_sum(rx.m2, params.T_s, params.L) <= 1.0:
        window, clamped = rx.clamp(start, rx.end(1.0), rx.span)
        found["branch"] = Branch.COND_TS
    else:
        if below is None:
            end_anchor = float(rx.start(0.5 * (rx.t_max + params.T_s)))
        else:
            end_anchor = 0.5 * (last * rx.unit + rx.t_max) / rx.unit
        end_ratio = rx.ratio_sum(params, end_anchor)
        fraction, found["branch"] = _solve_end_fraction(
            rx.m2, params.T_s, math.log(end_ratio * g), start / rx.span
        )
        window, clamped = rx.clamp(start, rx.end(fraction), rx.span)
        found.update({end_name: end_ratio, end_anchor_name: end_anchor})
    if below is None:
        try:
            q_hat = metrics.q_hat(params, window)
        except NoFiniteQhat:
            q_hat = None
    return OptimizationResult(
        window=window,
        method=Method.PROP4 if params.receiver is Receiver.PASSIVE else method,
        intermediates=ClosedFormIntermediates(q_hat, regime, **found),
        objective_value=_msinar_objective(params, window, _msinar_count(params.Q, q_hat)),
        clamped=clamped,
    )


def regime_q_hat(params: SystemParams) -> int | None:
    """Regime threshold q_hat: ``intermediates.q_hat`` of the low-count
    closed form.

    None when the closed form fails or mSINAR cannot reach 1 there; callers
    then stay in the low-count regime for every Q.
    """
    if params.L < 1:
        return None
    try:
        return _closed_form(params).intermediates.q_hat
    except DomainError:
        return None


def closed_form_interval(params: SystemParams) -> OptimizationResult:
    """Regime-dispatched closed form (Prop 1/2/3 absorbing, Prop 4 passive):
    the low-count window unless Q reaches its q_hat."""
    if params.L < 1:
        raise ValueError("closed forms need L >= 1")
    below = _closed_form(params)
    q_hat = below.intermediates.q_hat
    if q_hat is None or params.Q < q_hat:
        return below
    return _closed_form(params, below)


# ---------------------------------------------------------------------------
# Window grids
# ---------------------------------------------------------------------------


def _pair_indices(n: int, k: int) -> tuple[np.ndarray, np.ndarray]:
    """``np.triu_indices(n, k)`` as int32, 8 bytes a pair, built without its
    int64 arrays: the pairs i + k <= j < n, by i, then j.  Each j comes from a
    running sum of ones that jumps back at every i's first pair."""
    counts = np.arange(n - k, 0, -1)  # pairs of each i
    i1 = np.repeat(np.arange(n - k, dtype=np.int32), counts)
    i2 = np.ones(i1.size, dtype=np.int32)
    i2[np.cumsum(counts) - counts] = np.arange(n - k) + (k - (n - 1))  # from n - 1 back to i + k
    i2[0] = k
    return i1, np.cumsum(i2, dtype=np.int32, out=i2)


def _continuous_grid(params: SystemParams, dt: float):
    """(edges, survival table, i1, i2): the windows [edges[i1], edges[i2]], i1 < i2."""
    steps = int(round(params.T_s / dt))
    if steps < 1:
        raise DegenerateWindow(f"grid step {dt} leaves no window inside T_s={params.T_s}")
    edges = np.linspace(0.0, params.T_s, steps + 1)
    return (edges, _response_table(params, edges, range(params.L + 1)), *_pair_indices(steps + 1, 1))


def _sampled_grid(params: SystemParams):
    """(rate table, n1, n2): the sample windows [n1, n2], n1 <= n2."""
    assert params.N is not None and params.t_s is not None
    rates = _response_table(params, np.arange(0, params.N + 1, dtype=float), range(params.L + 1))
    return (rates, *_pair_indices(params.N + 1, 0))


def _blocks(n: int):
    """Slices of _GRID_BLOCK of the n columns; a last slice of one column
    joins the one before, as numpy sums one column down its rows in another
    order than several."""
    starts = list(range(0, n, _GRID_BLOCK))
    if len(starts) > 1 and n - starts[-1] == 1:
        starts.pop()
    return [slice(start, stop) for start, stop in zip(starts, starts[1:] + [n])]


def _step_count(span: float, step: float, rounding: Callable = round) -> int:
    """rounding(span / step) as an int, exact where the float quotient overflows."""
    ratio = span / step
    return rounding(ratio if ratio < math.inf else Fraction(span) / Fraction(step))


def _count_text(n: int) -> str:
    """A refused count for a message: every digit, or 4 significant ones from
    1e15 up, rounded from its digits, so a count past float range prints too."""
    return f"{n:,}" if n < 10**15 else f"{Decimal(n).normalize(Context(prec=4)):g}"


def _window_grid(params: SystemParams, dt: float | None):
    """Candidate windows of the grid searches: (edges or None, i1, i2,
    columns); ``columns(cols)`` gives the (L+1, len(cols)) tap means and
    variances of the windows ``cols`` (an index array or a slice), built by
    ``_window_means`` from the grid's response table a block at a time.

    Refuses (EnumerationTooLarge) a grid whose (L+1, windows) taps would
    exceed MAX_GRID_ELEMENTS, before building anything.  The windows are
    counted as an exact int, so no step or sample count overflows them.
    """
    if params.receiver is Receiver.ABSORBING:
        step = default_grid_step(params) if dt is None else dt
        n = _step_count(params.T_s, step)  # steps; a window is a pair of the n+1 edges
    else:
        assert params.N is not None
        step, n = params.t_s, params.N + 1  # samples; a window is a pair n1 <= n2
    windows = n * (n + 1) // 2
    if (params.L + 1) * windows > MAX_GRID_ELEMENTS:
        raise EnumerationTooLarge(
            f"search grid step {step:g} gives {_count_text(windows)} candidate windows of {params.L + 1} "
            f"taps, over the cap of {MAX_GRID_ELEMENTS:,} table elements; use a coarser step"
        )
    if params.receiver is Receiver.ABSORBING:
        edges, table, i1, i2 = _continuous_grid(params, step)
    else:
        edges, (table, i1, i2) = None, _sampled_grid(params)

    def columns(cols):
        mean = _window_means(params, table, i1[cols], i2[cols])
        return mean, _tap_variance(params, mean)

    return edges, i1, i2, columns


def _grid_window(edges: np.ndarray | None, i1: np.ndarray, i2: np.ndarray, w: int) -> DetectionWindow:
    """Grid window w: sample indices when there are no edges, else edge times."""
    if edges is None:
        return SampledWindow(int(i1[w]), int(i2[w]))
    return ContinuousWindow(float(edges[i1[w]]), float(edges[i2[w]]))


def _argbest(values: np.ndarray, i1: np.ndarray, i2: np.ndarray, maximize: bool) -> int:
    """Index of the best finite value; ties go to the smaller start, then larger end."""
    finite = np.isfinite(values)
    if not finite.any():
        raise DegenerateWindow("no window produced a finite objective")
    best = values.max(where=finite, initial=-np.inf) if maximize else values.min(where=finite, initial=np.inf)
    ties = np.flatnonzero(values == best)
    order = np.lexsort((-i2[ties], i1[ties]))
    return int(ties[order[0]])


def numeric_metric_search(
    params: SystemParams, metric: metrics.Metric, dt: float | None = None
) -> OptimizationResult:
    """Exhaustive grid maximization of a metric over detection windows.

    For mSINAR the count regime is honored by evaluating at
    min(Q, regime q_hat).  Undefined (0/0) windows are skipped.  ``dt`` is
    the absorbing grid's step; a passive grid is the sample grid, so a
    passive search ignores ``dt``.
    """
    if params.L < 1:
        raise ValueError("metric search needs L >= 1")
    q_eff = params.Q
    if metric is not metrics.Metric.SIR:
        if params.Q < 1:
            raise ValueError("metric search needs Q >= 1")
        if metric is metrics.Metric.MSINAR:
            q_eff = _msinar_count(params.Q, regime_q_hat(params))

    edges, i1, i2, columns = _window_grid(params, dt)
    # each block's best window, then ``_argbest`` of those: the same rule
    # over the whole grid, without a value per window
    picks, best = [], []
    for cols in _blocks(i1.size):
        values = metrics.metric_values_from_taps(metric, float(q_eff), *columns(cols))
        if np.isfinite(values).any():
            pick = _argbest(values, i1[cols], i2[cols], maximize=True)
            picks.append(cols.start + pick)
            best.append(values[pick])
    picks, best = np.array(picks, dtype=int), np.array(best)
    pick = _argbest(best, i1[picks], i2[picks], maximize=True)
    idx, value = int(picks[pick]), float(best[pick])

    # difference metrics can be nonpositive everywhere (ISI swamps the
    # signal at every candidate window); fall back to a one-step window at
    # the response peak so downstream BER evaluation stays well-defined
    if metric in (metrics.Metric.SID, metrics.Metric.MSID) and value <= 0.0:
        return OptimizationResult(
            window=_peak_fallback_window(params, edges),
            method=Method.NUMERIC_METRIC,
            objective_value=value,
            degenerate=True,
        )
    return OptimizationResult(
        window=_grid_window(edges, i1, i2, idx),
        method=Method.NUMERIC_METRIC,
        objective_value=value,
    )


def _peak_fallback_window(params: SystemParams, edges: np.ndarray | None) -> DetectionWindow:
    t_max = derived(params).t_max
    if params.receiver is Receiver.ABSORBING:
        assert edges is not None
        lo = int(np.clip(np.searchsorted(edges, t_max, side="right") - 1, 0, len(edges) - 2))
        return ContinuousWindow(float(edges[lo]), float(edges[lo + 1]))
    assert params.N is not None and params.t_s is not None
    n = int(np.clip(round(t_max / params.t_s), 0, params.N))
    return SampledWindow(n, n)


def _least_ber(
    params: SystemParams, lags: tuple[int, ...], i1: np.ndarray, i2: np.ndarray, columns: Callable
) -> tuple[int, dict]:
    """Column of an (lags, W) tap table with the least threshold-optimized
    BER, and the result fields it was scored on (taps, threshold and BER).
    ``columns(cols)`` gives the (mean, var) of the columns ``cols``, so the
    table is built a block at a time, and only per-column scalars are kept.

    A branch-and-bound seeded by a scan of the column of least coarse
    bound.  Bounds cascade: the cheap coarse bound of every column first,
    the full ``ber_floors`` only on the columns it leaves at or below the
    seed's BER.  The columns whose floor does not exceed the incumbent BER
    go to ``best_thresholds`` in ascending-floor blocks of at most
    _FLOOR_BLOCK elements; it lowers the incumbent every round and skips
    (+inf) a column that provably cannot reach it.  Both tests allow a
    rounding slack, so a skipped column is strictly worse than the
    incumbent, which only falls: every tie reaches ``_argbest``.  When no
    molecule is ever counted (every Q * mean is 0), every column's BER is
    1/2 at threshold 0 and the tie-break picks without a scan.
    """
    q = float(params.Q)
    coarse = np.empty(i1.size)
    counted = False
    for cols in _blocks(i1.size):
        mean, var = columns(cols)
        counted = counted or bool(np.any(q * mean))
        coarse[cols] = _coarse_floors(q, mean, var)
    if not counted:
        # no molecule is ever counted: every column decides "0", BER 1/2 at threshold 0
        scanned = [(np.arange(i1.size), np.zeros(i1.size, dtype=int), np.full(i1.size, 0.5))]
    else:
        seed = int(np.argmin(coarse))
        mean, var = columns([seed])
        threshold, ber = threshold_from_taps(params, TapProfile(lags, mean[:, 0], var[:, 0]))
        incumbent = ber.value
        scanned = [(np.array([seed]), np.array([threshold]), np.array([incumbent]))]
        alive = np.flatnonzero(coarse <= incumbent)
        del coarse
        floors = np.empty(alive.size)
        for at in _blocks(alive.size):
            floors[at] = ber_floors(q, *columns(alive[at]))
        floors[alive == seed] = math.inf
        keep = floors <= incumbent
        order, floors = alive[keep], floors[keep]
        ranked = np.argsort(floors, kind="stable")
        order, floors = order[ranked], floors[ranked]
        # a column holds its 2^K sequence statistics and up to a few dozen thresholds
        step = max(1, _FLOOR_BLOCK >> max(len(lags) - 1, 6))
        for start in range(0, order.size, step):
            block = order[start : start + step][floors[start : start + step] <= incumbent]
            if block.size == 0:
                break
            thresholds, values = best_thresholds(q, *columns(block), incumbent)
            scanned.append((block, thresholds, values))
            incumbent = min(incumbent, values.min())
    cols, thresholds, values = (np.concatenate(parts) for parts in zip(*scanned))
    pick = _argbest(values, i1[cols], i2[cols], maximize=False)
    best = int(cols[pick])
    ber = BerEstimate(float(values[pick]), float(thresholds[pick]), BerSource.ANALYTICAL)
    mean, var = columns([best])
    taps = TapProfile(lags, mean[:, 0], var[:, 0])
    return best, dict(objective_value=ber.value, taps=taps, threshold=int(thresholds[pick]), ber=ber)


def exhaustive_ber_search(params: SystemParams, dt: float | None = None) -> OptimizationResult:
    """Grid argmin of the threshold-optimized analytical BER.

    This is the reference the closed forms and metric windows are judged
    against; cost grows as (T_s/dt)^2 * 2^L, so L is capped at 12.  The
    search is ``_least_ber`` over the grid's tap table: it seeds itself from
    its own bounds and uses neither the metrics nor the closed forms.  As in
    ``numeric_metric_search``, a passive search ignores ``dt``.
    """
    if params.L > MAX_BER_SEARCH_L:
        raise EnumerationTooLarge(
            f"exhaustive BER search caps at L <= {MAX_BER_SEARCH_L}, got {params.L}"
        )
    edges, i1, i2, columns = _window_grid(params, dt)
    best, scored = _least_ber(params, tuple(range(params.L + 1)), i1, i2, columns)
    return OptimizationResult(window=_grid_window(edges, i1, i2, best), method=Method.EXHAUSTIVE_BER, **scored)


def shift_tau_search(params: SystemParams, dt: float | None = None) -> OptimizationResult:
    """Best full-length window delayed by tau in [0, t_max] (BER argmin).

    The delayed window overhangs into the next symbol; that symbol's leakage
    is counted as interference alongside the L past taps.  The delays are
    the columns of one ``_shifted_means`` table searched by ``_least_ber``;
    tau k starts window k, so ties keep the first tau.  Refuses
    (EnumerationTooLarge) a table over MAX_GRID_ELEMENTS, before building
    anything: (L+2) x delays, times the N+1 sample rates each passive
    column sums.  ``dt`` is the absorbing delay step; passive delays step by
    the sampling interval t_s, so a passive search ignores ``dt``.
    """
    consts = derived(params)
    if params.receiver is Receiver.ABSORBING:
        step = default_grid_step(params) if dt is None else dt
        n_tau, samples = max(1, _step_count(consts.t_max, step)), 1
    else:
        assert params.t_s is not None and params.N is not None
        step, samples = params.t_s, params.N + 1
        n_tau = _step_count(consts.t_max, step, math.ceil)
    if (params.L + 2) * (n_tau + 1) * samples > MAX_GRID_ELEMENTS:
        raise EnumerationTooLarge(
            f"shift-tau step {step:g} gives {_count_text(n_tau + 1)} delays of {params.L + 2} taps"
            + (f" x {_count_text(samples)} samples" if samples > 1 else "")
            + f", over the cap of {MAX_GRID_ELEMENTS:,} table elements; use a coarser step"
        )
    if params.receiver is Receiver.ABSORBING:
        taus = np.linspace(0.0, consts.t_max, n_tau + 1)
    else:
        taus = np.arange(n_tau + 1.0) * step
    edges, i1, i2, mean = _shifted_means(params, taus)
    var = _tap_variance(params, mean)
    lags = tuple(range(params.L + 1)) + (-1,)
    best, scored = _least_ber(params, lags, i1, i2, lambda cols: (mean[:, cols], var[:, cols]))
    return OptimizationResult(
        window=_grid_window(edges, i1, i2, best), method=Method.SHIFT_TAU, tau=float(taus[best]), **scored
    )


_NUMERIC_SCHEMES = {
    Scheme.NUMERIC_SID: metrics.Metric.SID,
    Scheme.NUMERIC_SINAR: metrics.Metric.SINAR,
    Scheme.NUMERIC_MSINAR: metrics.Metric.MSINAR,
}


def select_window(
    params: SystemParams, scheme: Scheme, dt: float | None = None
) -> OptimizationResult:
    """The detection window of one scheme (sweep/CLI entry point) with its
    taps, threshold and BER: a BER search's own, else one ``threshold_from_taps``."""
    if scheme is Scheme.SHIFT_TAU:
        return shift_tau_search(params, dt)
    if scheme is Scheme.EXHAUSTIVE_BER:
        return exhaustive_ber_search(params, dt)
    if scheme is Scheme.FULL_WINDOW:
        result = OptimizationResult(window=full_window(params), method=Method.FULL_WINDOW)
    elif scheme is Scheme.CLOSED_FORM:
        result = closed_form_interval(params)
    else:
        result = numeric_metric_search(params, _NUMERIC_SCHEMES[scheme], dt)
    taps = window_taps(params, result.window)
    threshold, ber = threshold_from_taps(params, taps)
    return replace(result, taps=taps, threshold=threshold, ber=ber)
