"""Detection-interval optimization.

Closed forms
------------
The low-count regime window comes from the zero crossings of
h(t) - sum_k h(k T_s + t) (signal minus strongest-ISI density).  A [1,1]
Pade approximation of the logarithms reduces the start-time equation to a
linear one:

    t1* = 28 m^2 T_s / (120 T_s - 28 T_s ln(R) - 74 m^2)

with R the ISI-to-first-tap density ratio at an anchor point (R = 1 when
L = 1).  The end time solves a cubic in t2/T_s whose discriminant selects
between a Cardano branch, a quadratic root, or the quadratic vertex; when
the first-tap ISI at T_s stays below the signal the window simply ends at
T_s.  In the high-count regime every ISI ratio is inflated by the noise
factor g(Q) evaluated at Q = g(q_hat) * q_hat, and the ratios are anchored
on the low-count window; below q_hat the inflation is the identity.

Props 1-4 are one solver (``_closed_form``) over a small receiver adapter
(``_ClosedFormReceiver``).  The adapter supplies what differs between the
receivers: m^2 (absorbing) or m_hat^2 = (d+r)^2/4D (passive); the ratio sum
of first-hitting densities or of observation probabilities; the quantizers
that turn a start time and an end root into window units (seconds as they
are, or ceil(t/t_s) and ceil(x N) sample indices); and the units the
anchors are measured in.  Prop 1/2 (absorbing, L = 1 / L > 1) and the
low-count half of Prop 4 run it with g = 1; Prop 3 and the high-count half
of Prop 4 run it with g(Q).

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
"""
from __future__ import annotations

import enum
import math
from dataclasses import astuple, dataclass, replace
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
    _sample_sums,
    _shifted_means,
    _tap_variance,
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
    "prop1_interval",
    "prop2_interval",
    "prop3_interval",
    "prop4_interval",
    "closed_form_interval",
    "regime_q_hat",
    "numeric_metric_search",
    "exhaustive_ber_search",
    "shift_tau_search",
    "full_window_result",
    "select_window",
    "default_grid_step",
]

GRID_DIVISIONS = 400

# Exhaustive BER search scores O(T_s/dt)^2 windows, each with a threshold
# scan over 2^L sequences; beyond this the scan is impractical.
MAX_BER_SEARCH_L = 12

# Grid searches refuse a candidate-window table of more than this many
# (L+1) x windows elements (256 MiB per float table).  The default grid,
# T_s/400, has 80,200 windows: 2.0M elements at L = 24.
MAX_GRID_ELEMENTS = 1 << 25


class Regime(enum.Enum):
    BELOW_QHAT = "below-qhat"
    ABOVE_QHAT = "above-qhat"


class Branch(enum.Enum):
    COND_TS = "cond-ts"
    CUBIC_NEG_DISC = "cubic-neg-disc"
    QUAD_POS_DISC = "quad-pos-disc"
    QUAD_NEG_DISC = "quad-neg-disc"


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
    regime: Regime
    branch: Branch
    i_ratio: float | None = None
    v_ratio: float | None = None
    w_ratio: float | None = None
    a_ratio: float | None = None
    gamma: float | None = None
    delta1: float | None = None
    delta2: float | None = None
    s1: complex | None = None
    s2: complex | None = None
    t1_anchor: float | None = None
    t2_anchor: float | None = None
    n1_anchor: float | None = None
    n2_anchor: float | None = None


@dataclass(frozen=True)
class OptimizationResult:
    """A selected window; ``taps`` (shifted for shift-tau), ``threshold`` and
    the analytic ``ber`` there are what it is scored on.  The BER searches
    and ``select_window`` fill them; the ``prop*`` functions and
    ``closed_form_interval`` leave them None."""

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


def _cbrt(z: complex) -> complex:
    """Principal cube root; sign-preserving on the real axis."""
    if z.imag == 0.0:
        return complex(math.copysign(abs(z.real) ** (1.0 / 3.0), z.real), 0.0)
    return z ** (1.0 / 3.0)


@dataclass(frozen=True)
class _EndSolution:
    fraction: float  # t2 / T_s
    branch: Branch
    gamma: float
    delta1: float
    delta2: float
    s1: complex | None
    s2: complex | None


def _solve_end_fraction(m2: float, T_s: float, ln_v: float) -> _EndSolution:
    """Branch dispatch for the window-end cubic in x = t2/T_s.

    The cubic is x^3 ln(V) + 3 x^2 ln(V) + x (2 ln(V) + m^2/T_s - 6)
    + 2 m^2/T_s = 0.  delta1 < 0 selects the Cardano form (complex
    conjugate auxiliaries; the root is twice the real part of one cube
    root); otherwise delta2 picks the quadratic root or vertex.
    """
    M = m2 / T_s
    gamma = 2.0 * ln_v + M - 6.0
    delta1 = ln_v**2 * (
        (3.0 * gamma - 18.0 * M) ** 2
        - (12.0 * gamma / ln_v - 36.0) * (gamma**2 - 18.0 * M * ln_v)
    )
    delta2 = (M - 6.0) ** 2 + 4.0 * ln_v**2 - (20.0 * M + 24.0) * ln_v
    if delta1 < 0.0:
        real = -(81.0 / ln_v + 27.0 * M / (2.0 * ln_v))
        imag = math.sqrt(9.0 * -delta1) / (2.0 * ln_v**2)
        s1 = complex(real, imag)
        s2 = complex(real, -imag)
        fraction = (-3.0 + (_cbrt(s1) + _cbrt(s2)).real) / 3.0
        return _EndSolution(fraction, Branch.CUBIC_NEG_DISC, gamma, delta1, delta2, s1, s2)
    if delta2 >= 0.0:
        fraction = (-gamma + math.sqrt(delta2)) / (6.0 * ln_v)
        return _EndSolution(fraction, Branch.QUAD_POS_DISC, gamma, delta1, delta2, None, None)
    fraction = -gamma / (6.0 * ln_v)
    return _EndSolution(fraction, Branch.QUAD_NEG_DISC, gamma, delta1, delta2, None, None)


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


def _msinar_objective(params: SystemParams, window: DetectionWindow, q_eff: int) -> float | None:
    if q_eff < 1 or params.L < 1:
        return None
    try:
        return metrics.msinar(replace(params, Q=int(q_eff)), window)
    except DomainError:
        return None


def _require_receiver(params: SystemParams, kind: Receiver, where: str) -> None:
    if params.receiver is not kind:
        raise ValueError(f"{where} applies to the {kind.value} receiver")


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


def _closed_form(
    params: SystemParams,
    method: Method,
    below: DetectionWindow | None = None,
    q_hat: int | None = None,
) -> OptimizationResult:
    """The one closed-form solver: the Pade start root, then T_s or the end cubic.

    Low-count regime (``below`` None): g = 1, and the ISI ratios are
    anchored at the unit-ratio start and midway between t_max and T_s.
    High-count regime: the ratios are anchored on the low-count window
    ``below`` and inflated by g evaluated at Q = g(q_hat) * q_hat.
    """
    rx = _closed_form_receiver(params)
    start_name, end_name, start_anchor_name, end_anchor_name = rx.names
    if below is None:
        regime, g, q_eff = Regime.BELOW_QHAT, 1.0, params.Q
        start_anchor = float(rx.start(_start_time(rx.m2, params.T_s, 0.0)))
    else:
        assert q_hat is not None
        regime, q_eff = Regime.ABOVE_QHAT, q_hat
        g = metrics.g_factor(params, metrics.g_factor(params, float(q_hat)) * q_hat)
        first, last = astuple(below)
        start_anchor = float(first)
    found: dict = {}
    ratio = 1.0
    if params.L > 1:
        ratio = rx.ratio_sum(params, start_anchor)
        found = {start_name: ratio, start_anchor_name: start_anchor}
    elif below is not None:
        found = {start_anchor_name: start_anchor}
    start = rx.start(_start_time(rx.m2, params.T_s, math.log(ratio * g)))

    if params.L == 1 or g * _end_cond_sum(rx.m2, params.T_s, params.L) <= 1.0:
        window, clamped = rx.clamp(start, rx.end(1.0), rx.span)
        inter = ClosedFormIntermediates(regime, Branch.COND_TS, **found)
    else:
        if below is None:
            end_anchor = float(rx.start(0.5 * (rx.t_max + params.T_s)))
        else:
            end_anchor = 0.5 * (last * rx.unit + rx.t_max) / rx.unit
        end_ratio = rx.ratio_sum(params, end_anchor)
        sol = _solve_end_fraction(rx.m2, params.T_s, math.log(end_ratio * g))
        window, clamped = rx.clamp(start, rx.end(sol.fraction), rx.span)
        inter = ClosedFormIntermediates(
            regime,
            sol.branch,
            gamma=sol.gamma,
            delta1=sol.delta1,
            delta2=sol.delta2,
            s1=sol.s1,
            s2=sol.s2,
            **found,
            **{end_name: end_ratio, end_anchor_name: end_anchor},
        )
    return OptimizationResult(
        window=window,
        method=method,
        intermediates=inter,
        objective_value=_msinar_objective(params, window, q_eff),
        clamped=clamped,
    )


def _low_count(params: SystemParams) -> OptimizationResult:
    if params.receiver is Receiver.PASSIVE:
        return _closed_form(params, Method.PROP4)
    return _closed_form(params, Method.PROP1 if params.L == 1 else Method.PROP2)


def _regime_dispatch(params: SystemParams, q_hat: int | None) -> OptimizationResult:
    """Low-count window unless Q reaches q_hat (computed there when None)."""
    below = _low_count(params)
    if q_hat is None:
        try:
            q_hat = metrics.q_hat(params, below.window)
        except NoFiniteQhat:
            return below
    if params.Q < q_hat:
        return below
    above = Method.PROP4 if params.receiver is Receiver.PASSIVE else Method.PROP3
    return _closed_form(params, above, below.window, q_hat)


def prop1_interval(params: SystemParams) -> OptimizationResult:
    """Low-count closed form for the absorbing receiver with L = 1."""
    _require_receiver(params, Receiver.ABSORBING, "prop1_interval")
    if params.L != 1:
        raise ValueError("prop1_interval needs L = 1")
    return _low_count(params)


def prop2_interval(params: SystemParams) -> OptimizationResult:
    """Low-count closed form for the absorbing receiver with L > 1."""
    _require_receiver(params, Receiver.ABSORBING, "prop2_interval")
    if params.L <= 1:
        raise ValueError("prop2_interval needs L > 1")
    return _low_count(params)


def prop3_interval(params: SystemParams, q_hat: int | None = None) -> OptimizationResult:
    """High-count closed form for the absorbing receiver (Q >= q_hat).

    Recomputes the low-count window to anchor the ISI ratios, then inflates
    them by g evaluated at Q = g(q_hat) * q_hat.  ``q_hat`` may be supplied
    to skip its computation.
    """
    _require_receiver(params, Receiver.ABSORBING, "prop3_interval")
    if params.L < 1:
        raise ValueError("prop3_interval needs L >= 1")
    below = _low_count(params)
    if q_hat is None:
        q_hat = metrics.q_hat(params, below.window)
    if params.Q < q_hat:
        raise ValueError(
            f"prop3_interval needs Q >= q_hat ({params.Q} < {q_hat}); "
            "use prop1/prop2 in the low-count regime"
        )
    return _closed_form(params, Method.PROP3, below.window, q_hat)


def prop4_interval(params: SystemParams, q_hat: int | None = None) -> OptimizationResult:
    """Closed form for the passive receiver, both count regimes."""
    _require_receiver(params, Receiver.PASSIVE, "prop4_interval")
    if params.L < 1:
        raise ValueError("prop4_interval needs L >= 1")
    return _regime_dispatch(params, q_hat)


def regime_q_hat(params: SystemParams) -> int | None:
    """Regime threshold q_hat evaluated at the low-count closed-form window.

    None when the closed form fails or mSINAR cannot reach 1 there; callers
    then stay in the low-count regime for every Q.
    """
    if params.L < 1:
        return None
    try:
        return metrics.q_hat(params, _low_count(params).window)
    except DomainError:
        return None


def closed_form_interval(params: SystemParams) -> OptimizationResult:
    """Regime-dispatched closed form (Prop 1/2/3 absorbing, Prop 4 passive)."""
    if params.L < 1:
        raise ValueError("closed forms need L >= 1")
    return _regime_dispatch(params, None)


# ---------------------------------------------------------------------------
# Window grids
# ---------------------------------------------------------------------------


def _continuous_grid(params: SystemParams, dt: float):
    steps = int(round(params.T_s / dt))
    if steps < 1:
        raise DegenerateWindow(f"grid step {dt} leaves no window inside T_s={params.T_s}")
    edges = np.linspace(0.0, params.T_s, steps + 1)
    i1, i2 = np.triu_indices(steps + 1, k=1)
    surv = _response_table(params, edges, range(params.L + 1))
    mean = surv[:, i1] - surv[:, i2]
    return edges, i1, i2, mean, _tap_variance(params, mean)


def _sampled_grid(params: SystemParams):
    assert params.N is not None and params.t_s is not None
    rates = _response_table(params, np.arange(0, params.N + 1, dtype=float), range(params.L + 1))
    n1, n2 = np.triu_indices(params.N + 1, k=0)
    mean = _sample_sums(rates, range(params.N + 1))
    return n1, n2, mean, _tap_variance(params, mean)


def _window_grid(params: SystemParams, dt: float | None):
    """Candidate windows of the grid searches: (edges or None, i1, i2, mean, var).

    Refuses (EnumerationTooLarge) a grid whose (L+1, windows) tap table
    would exceed MAX_GRID_ELEMENTS, before building anything.
    """
    if params.receiver is Receiver.ABSORBING:
        step = default_grid_step(params) if dt is None else dt
        n = float(np.rint(params.T_s / step))  # steps; a window is a pair of the n+1 edges
    else:
        assert params.N is not None
        step, n = params.t_s, float(params.N + 1)  # samples; a window is a pair n1 <= n2
    windows = n * (n + 1) / 2
    if (params.L + 1) * windows > MAX_GRID_ELEMENTS:
        raise EnumerationTooLarge(
            f"search grid step {step:g} gives {windows:,.0f} candidate windows of {params.L + 1} "
            f"taps, over the cap of {MAX_GRID_ELEMENTS:,} table elements; use a coarser step"
        )
    if params.receiver is Receiver.ABSORBING:
        return _continuous_grid(params, step)
    return (None, *_sampled_grid(params))


def _grid_window(edges: np.ndarray | None, i1: np.ndarray, i2: np.ndarray, w: int) -> DetectionWindow:
    """Grid window w: sample indices when there are no edges, else edge times."""
    if edges is None:
        return SampledWindow(int(i1[w]), int(i2[w]))
    return ContinuousWindow(float(edges[i1[w]]), float(edges[i2[w]]))


def _argbest(values: np.ndarray, i1: np.ndarray, i2: np.ndarray, maximize: bool) -> int:
    """Index of the best window; ties go to the smaller start, then larger end."""
    finite = values[np.isfinite(values)]
    if finite.size == 0:
        raise DegenerateWindow("no window produced a finite objective")
    best = finite.max() if maximize else finite.min()
    ties = np.flatnonzero(values == best)
    order = np.lexsort((-i2[ties], i1[ties]))
    return int(ties[order[0]])


def numeric_metric_search(
    params: SystemParams, metric: metrics.Metric, dt: float | None = None
) -> OptimizationResult:
    """Exhaustive grid maximization of a metric over detection windows.

    For mSINAR the count regime is honored by evaluating at
    min(Q, regime q_hat).  Undefined (0/0) windows are skipped.
    """
    if params.L < 1:
        raise ValueError("metric search needs L >= 1")
    q_eff = params.Q
    if metric is not metrics.Metric.SIR:
        if params.Q < 1:
            raise ValueError("metric search needs Q >= 1")
        if metric is metrics.Metric.MSINAR:
            q_eff = _msinar_q(params)

    edges, i1, i2, mean, var = _window_grid(params, dt)
    values = metrics.metric_values_from_taps(metric, float(q_eff), mean, var)
    values[np.isnan(values)] = -np.inf
    idx = _argbest(values, i1, i2, maximize=True)

    # difference metrics can be nonpositive everywhere (ISI swamps the
    # signal at every candidate window); fall back to a one-step window at
    # the response peak so downstream BER evaluation stays well-defined
    if metric in (metrics.Metric.SID, metrics.Metric.MSID) and values[idx] <= 0.0:
        return OptimizationResult(
            window=_peak_fallback_window(params, edges),
            method=Method.NUMERIC_METRIC,
            objective_value=float(values[idx]),
            degenerate=True,
        )
    return OptimizationResult(
        window=_grid_window(edges, i1, i2, idx),
        method=Method.NUMERIC_METRIC,
        objective_value=float(values[idx]),
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


def _msinar_q(params: SystemParams) -> int:
    """The count mSINAR is evaluated at: Q, capped at the regime q_hat."""
    qh = regime_q_hat(params)
    return params.Q if qh is None else min(params.Q, qh)


def _least_ber(
    params: SystemParams,
    lags: tuple[int, ...],
    i1: np.ndarray,
    i2: np.ndarray,
    mean: np.ndarray,
    var: np.ndarray,
) -> tuple[int, dict]:
    """Column of an (lags, W) tap table with the least threshold-optimized
    BER, and the result fields it was scored on (taps, threshold and BER).

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
    values = np.full(i1.size, math.inf)
    thresholds = np.zeros(i1.size, dtype=int)
    if not np.any(q * mean):
        # no molecule is ever counted: every column decides "0", BER 1/2 at threshold 0
        values[:] = 0.5
    else:
        coarse = _coarse_floors(q, mean, var)
        seed = int(np.argmin(coarse))
        thresholds[seed], ber = threshold_from_taps(params, TapProfile(lags, mean[:, seed], var[:, seed]))
        values[seed] = incumbent = ber.value
        floors = np.full(i1.size, math.inf)
        alive = coarse <= incumbent
        floors[alive] = ber_floors(q, mean[:, alive], var[:, alive])
        floors[seed] = math.inf
        order = np.flatnonzero(floors <= incumbent)
        order = order[np.argsort(floors[order], kind="stable")]
        # a column holds its 2^K sequence statistics and up to a few dozen thresholds
        step = max(1, _FLOOR_BLOCK >> max(mean.shape[0] - 1, 6))
        for start in range(0, order.size, step):
            block = order[start : start + step]
            block = block[floors[block] <= incumbent]
            if block.size == 0:
                break
            thresholds[block], values[block] = best_thresholds(q, mean[:, block], var[:, block], incumbent)
            incumbent = min(incumbent, values[block].min())
    best = _argbest(values, i1, i2, maximize=False)
    ber = BerEstimate(float(values[best]), float(thresholds[best]), BerSource.ANALYTICAL)
    taps = TapProfile(lags, mean[:, best].copy(), var[:, best].copy())
    return best, dict(objective_value=ber.value, taps=taps, threshold=int(thresholds[best]), ber=ber)


def exhaustive_ber_search(params: SystemParams, dt: float | None = None) -> OptimizationResult:
    """Grid argmin of the threshold-optimized analytical BER.

    This is the reference the closed forms and metric windows are judged
    against; cost grows as (T_s/dt)^2 * 2^L, so L is capped at 12.  The
    search is ``_least_ber`` over the grid's tap table: it seeds itself from
    its own bounds and uses neither the metrics nor the closed forms.
    """
    if params.L > MAX_BER_SEARCH_L:
        raise EnumerationTooLarge(
            f"exhaustive BER search caps at L <= {MAX_BER_SEARCH_L}, got {params.L}"
        )
    edges, i1, i2, mean, var = _window_grid(params, dt)
    best, scored = _least_ber(params, tuple(range(params.L + 1)), i1, i2, mean, var)
    return OptimizationResult(window=_grid_window(edges, i1, i2, best), method=Method.EXHAUSTIVE_BER, **scored)


def shift_tau_search(params: SystemParams, dt: float | None = None) -> OptimizationResult:
    """Best full-length window delayed by tau in [0, t_max] (BER argmin).

    The delayed window overhangs into the next symbol; that symbol's leakage
    is counted as interference alongside the L past taps.  The delays are
    the columns of one ``_shifted_means`` table searched by ``_least_ber``;
    tau k starts window k, so ties keep the first tau.
    """
    consts = derived(params)
    if params.receiver is Receiver.ABSORBING:
        step = default_grid_step(params) if dt is None else dt
        n_tau = max(1, int(round(consts.t_max / step)))
        taus = np.linspace(0.0, consts.t_max, n_tau + 1)
        edges, offset = np.concatenate((taus, taus + params.T_s)), taus.size
    else:
        assert params.t_s is not None and params.N is not None
        n_tau = int(math.ceil(consts.t_max / params.t_s))
        taus = np.arange(0, n_tau + 1, dtype=float) * params.t_s
        edges, offset = None, params.N
    i1 = np.arange(taus.size)
    i2 = i1 + offset
    mean = _shifted_means(params, taus)
    lags = tuple(range(params.L + 1)) + (-1,)
    best, scored = _least_ber(params, lags, i1, i2, mean, _tap_variance(params, mean))
    return OptimizationResult(
        window=_grid_window(edges, i1, i2, best), method=Method.SHIFT_TAU, tau=float(taus[best]), **scored
    )


def full_window_result(params: SystemParams) -> OptimizationResult:
    return OptimizationResult(window=full_window(params), method=Method.FULL_WINDOW)


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
        result = full_window_result(params)
    elif scheme is Scheme.CLOSED_FORM:
        result = closed_form_interval(params)
    else:
        result = numeric_metric_search(params, _NUMERIC_SCHEMES[scheme], dt)
    taps = window_taps(params, result.window)
    threshold, ber = threshold_from_taps(params, taps)
    return replace(result, taps=taps, threshold=threshold, ber=ber)
