"""Stochastic link simulation and BER sweeps.

A simulated stream draws i.i.d. equiprobable bits; each scored symbol's
count is the sum of independent per-tap draws, one for each tap whose release
was a "1" -- Binomial(Q, F_j) for the absorbing receiver, Poisson(Q*rate_j)
for the passive one (their marginals are exact for the channel model, and a
sum of independent Poissons is the Poisson of the summed rate) -- and decides
"1" iff the count exceeds the threshold.

Draws stop once a trial is decided: taps go by descending mean (stable sort),
each drawn only for the trials that released at its lag and are still at or
below the threshold.  Counts never fall, so a trial past the threshold
decides "1" whatever its remaining draws, and skipping them keeps every
decision's distribution exact.

A tap's count is drawn by inverting a table of its CDF (``_CountTable``, a
guide table) built once per ``simulate_ber_taps`` call.  The table covers the
counts from mean - (10 sd + 40) up to cap = floor(threshold) + 1, or to mean
+ 10 sd + 40 when that is lower, and lumps every count at or past the cap
into the cap: any such count decides "1" and ends the trial's draws, so the
lump changes no decision.  Each tail a table drops holds less than 2^-60.  A
tap keeps numpy's ``binomial``/``poisson`` draw when its table would hold
more counts than 1/8 of the call's trials or than _MAX_TABLE_WIDTH, or Q
passes 2^53 (the 1-trial rows of a design sweep; Q up to 2^63 - 1), so the
choice depends on the input alone.  The RNG stream is consumed in this
order, so exact estimates at a given seed differ from those of earlier
versions, which drew every count with numpy (the passive one as one Poisson
of the summed rate).

Reproducibility: trials are split into fixed-size chunks, each with its own
RNG stream spawned from the master seed.  Results are summed over chunks,
so identical seeds give identical error counts for any worker count.
Gaussian-approximate draws are available behind ``exact_counts=False``.
"""
from __future__ import annotations

import math
import os
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np
from scipy.special import betainc, betaincc, pdtr, pdtrc

from .channel import Receiver, SystemParams, TapProfile, window_taps, DetectionWindow
from .errors import ConfigError
from .optimizer import OptimizationResult, Scheme, select_window
from .reception import BerEstimate, BerSource

__all__ = [
    "TrialConfig",
    "SweepRow",
    "simulate_ber",
    "simulate_ber_taps",
    "sweep",
    "sweep_row",
    "wilson_halfwidth",
]

# Trials per RNG chunk.  Fixed: the chunk layout (not the worker count)
# determines the draws.
CHUNK_TRIALS = 1 << 16

_Z95 = 1.959963984540054

# numpy draws a Binomial count as a 64-bit integer
_MAX_DRAW_Q = np.iinfo(np.int64).max
# a count table: at most this many values, and Q - k an exact double
_MAX_TABLE_WIDTH = 1 << 12
_MAX_TABLE_Q = 2**53


@dataclass(frozen=True)
class TrialConfig:
    """Monte Carlo protocol knobs.

    ``warmup_symbols`` defaults to L (the minimum that fills the ISI
    pipeline before scoring starts).
    """

    trials: int
    seed: int
    exact_counts: bool = True
    warmup_symbols: int | None = None

    def __post_init__(self) -> None:
        if self.trials < 1:
            raise ConfigError("trials must be >= 1")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        if self.warmup_symbols is not None and self.warmup_symbols < 0:
            raise ConfigError("warmup_symbols must be >= 0")


def wilson_halfwidth(errors: int, trials: int, z: float = _Z95) -> float:
    """Half-width of the Wilson 95% score interval for an error rate."""
    n = float(trials)
    p = errors / n
    denom = 1.0 + z * z / n
    return z * math.sqrt(p * (1.0 - p) / n + z * z / (4.0 * n * n)) / denom


def _chunk_count(trials: int) -> int:
    return (trials + CHUNK_TRIALS - 1) // CHUNK_TRIALS


def _pool_workers(workers: int, n_chunks: int) -> int:
    """Worker processes to start: no more than there are chunks or CPUs."""
    if workers < 1:
        raise ConfigError(f"workers must be >= 1, got {workers}")
    return min(workers, n_chunks, os.cpu_count() or 1)


@dataclass(frozen=True)
class _CountTable:
    """Guide-table inversion of one tap's count CDF (Chen & Asau 1974).

    ``steps[i]`` is P(count <= lo + i) for the values below the table's top,
    then a 2.0 sentinel; a uniform u maps to lo + searchsorted(steps, u,
    "right").  Bucket b of the m = ``guide.size`` (a power of two) buckets
    covers [b/m, (b+1)/m): ``guide[b]`` is the answer at its left edge and,
    unless the bucket is ``wide`` (it holds more than one CDF step), one
    comparison settles the answer for every u in it.
    """

    lo: int
    steps: np.ndarray
    guide: np.ndarray
    wide: np.ndarray

    @classmethod
    def from_cdf(cls, lo: int, cdf: np.ndarray) -> "_CountTable":
        m = 1 << (2 * (cdf.size + 1) - 1).bit_length()
        edges = np.searchsorted(cdf, np.arange(m + 1) / m, "right")
        return cls(lo, np.append(cdf, 2.0), edges[:-1], np.diff(edges) > 1)

    def invert(self, u: np.ndarray) -> np.ndarray:
        """lo + searchsorted(cdf, u, "right") for u in [0, 1), bit for bit."""
        b = (u * self.guide.size).astype(np.intp)  # exact: m is a power of two
        i = self.guide[b]
        i += self.steps[i] <= u
        wide = np.flatnonzero(self.wide[b])
        if wide.size:
            i[wide] = np.searchsorted(self.steps, u[wide], "right")
        if self.lo:
            i += self.lo
        return i

    def draw(self, rng: np.random.Generator, size: int) -> np.ndarray:
        if self.steps.size == 1:  # one value: nothing to draw
            return np.full(size, self.lo)
        return self.invert(rng.random(size))


@dataclass(frozen=True)
class _NumpyDraw:
    """numpy's own sampler, ``rng.binomial(Q, p)`` or ``rng.poisson(Q*rate)``."""

    method: str
    args: tuple

    def draw(self, rng: np.random.Generator, size: int) -> np.ndarray:
        return getattr(rng, self.method)(*self.args, size=size)


def _binomial_cdf(k, n: int, p: float):
    """P(Binomial(n, p) <= k) as I_p(k+1, n-k) taken at p itself, for k < n.

    scipy's ``bdtr`` takes it at 1 - p: its error grows with n (3.9e-12 at
    n = 1e4, 2.8e-10 at 1e6) and it is NaN past a 32-bit n.
    """
    k = np.asarray(k, dtype=float)
    return betaincc(k + 1.0, n - k, p)


def _binomial_sf(k, n: int, p: float):
    """P(Binomial(n, p) > k), 0 at k = n."""
    return betainc(k + 1.0, n - k, p) if k < n else 0.0


def _tap_sampler(
    params: SystemParams, mean: float, var: float, threshold: float, trials: int
) -> _CountTable | _NumpyDraw:
    """The count sampler of one tap: a table lumped at cap = floor(threshold) + 1
    when it holds at most trials/8 and _MAX_TABLE_WIDTH counts, else numpy's.

    The table covers [lo, min(hi, cap)], with [lo, hi] the mean -/+ (10 sd +
    40) clipped to the possible counts; every count >= cap decides "1", so
    lumping them into cap changes no decision.  By Bernstein's inequality
    each dropped tail is below exp(-50); the check below keeps a table from
    ever dropping 2^-60.
    """
    q = int(params.Q)
    binomial = params.receiver is Receiver.ABSORBING
    args = (q, mean) if binomial else (q * mean,)
    numpy_draw = _NumpyDraw("binomial" if binomial else "poisson", args)
    center, margin = q * mean, 10.0 * math.sqrt(q * var) + 40.0
    lo = max(0, math.floor(center - margin))
    top = math.ceil(center + margin)
    if binomial:
        top = min(top, q)
    capped = math.isfinite(threshold) and math.floor(threshold) + 1 <= top
    if capped:
        top = math.floor(threshold) + 1
    lo = min(lo, top)
    width = top - lo + 1
    if 8 * width > trials or width > _MAX_TABLE_WIDTH or q > _MAX_TABLE_Q:
        return numpy_draw
    cdf, sf = (_binomial_cdf, _binomial_sf) if binomial else (pdtr, pdtrc)
    dropped = (cdf(lo - 1, *args) if lo > 0 else 0.0) + (0.0 if capped else sf(top, *args))
    if not dropped < 2.0**-60:
        return numpy_draw
    return _CountTable.from_cdf(lo, cdf(np.arange(lo, top), *args))


def _chunk_errors(
    params: SystemParams,
    taps: TapProfile,
    threshold: float,
    n_trials: int,
    warmup: int,
    samplers: list | None,
    seed_seq: np.random.SeedSequence,
) -> int:
    rng = np.random.default_rng(seed_seq)
    has_future = -1 in taps.lags
    n_bits = warmup + n_trials + (1 if has_future else 0)
    bits = rng.integers(0, 2, size=n_bits, dtype=np.int64)

    if samplers is not None:
        ones = bits == 1
        counts = np.zeros(n_trials, dtype=np.int64)
        undecided = np.ones(n_trials, dtype=bool)
        for lag, sampler in samplers:
            drawn = np.flatnonzero(undecided & ones[warmup - lag : warmup - lag + n_trials])
            drawn_counts = counts[drawn] + sampler.draw(rng, drawn.size)
            counts[drawn] = drawn_counts
            undecided[drawn] = drawn_counts <= threshold
        decisions = counts > threshold
    else:
        q = int(params.Q)
        mu = np.zeros(n_trials)
        var = np.zeros(n_trials)
        for j, lag in enumerate(taps.lags):
            active = bits[warmup - lag : warmup - lag + n_trials]
            mu += active * (q * float(taps.mean[j]))
            var += active * (q * float(taps.var[j]))
        decisions = rng.normal(mu, np.sqrt(var)) > threshold
    sent = bits[warmup : warmup + n_trials].astype(bool)
    return int(np.count_nonzero(decisions != sent))


def simulate_ber_taps(
    params: SystemParams,
    taps: TapProfile,
    threshold: float,
    cfg: TrialConfig,
    workers: int = 1,
) -> BerEstimate:
    """Monte Carlo BER for an arbitrary tap profile."""
    if not threshold >= 0:
        raise ValueError(f"threshold must be >= 0, got {threshold}")
    if cfg.exact_counts and params.receiver is Receiver.ABSORBING and params.Q > _MAX_DRAW_Q:
        raise ValueError(f"exact absorbing draws need Q <= 2^63 - 1 (a 64-bit count), got Q = {params.Q:.6g}")
    warmup = params.L if cfg.warmup_symbols is None else cfg.warmup_symbols
    if warmup < params.L:
        raise ConfigError(f"warmup_symbols must be >= L ({warmup} < {params.L})")

    n_chunks = _chunk_count(cfg.trials)
    sizes = [
        min(CHUNK_TRIALS, cfg.trials - i * CHUNK_TRIALS) for i in range(n_chunks)
    ]
    streams = np.random.SeedSequence(cfg.seed).spawn(n_chunks)
    samplers = None
    if cfg.exact_counts:
        samplers = [
            (taps.lags[j], _tap_sampler(params, float(taps.mean[j]), float(taps.var[j]), threshold, cfg.trials))
            for j in np.argsort(-taps.mean, kind="stable")
        ]
    jobs = [
        (params, taps, threshold, size, warmup, samplers, stream)
        for size, stream in zip(sizes, streams)
    ]
    pool_size = _pool_workers(workers, n_chunks)
    if pool_size > 1:
        with _pool(pool_size) as pool:
            errors = sum(pool.map(_chunk_errors_job, jobs))
    else:
        errors = sum(_chunk_errors_job(job) for job in jobs)
    return BerEstimate(
        value=errors / cfg.trials,
        threshold=threshold,
        source=BerSource.MONTE_CARLO,
        ci_halfwidth=wilson_halfwidth(errors, cfg.trials),
        trials=cfg.trials,
    )


def _chunk_errors_job(job) -> int:
    return _chunk_errors(*job)


# (workers, pool) a running ``sweep`` lends the ``simulate_ber_taps`` calls
# of its rows, so a sweep starts one pool and the public signature stays
_SWEEP_POOL: ContextVar[tuple[int, ProcessPoolExecutor] | None] = ContextVar(
    "_SWEEP_POOL", default=None
)


@contextmanager
def _pool(size: int):
    """The running sweep's pool when it has ``size`` workers, else a new one."""
    lent = _SWEEP_POOL.get()
    if lent is not None and lent[0] == size:
        yield lent[1]
        return
    with ProcessPoolExecutor(max_workers=size) as pool:
        yield pool


@contextmanager
def _lend_pool(trial: TrialConfig, workers: int):
    """One pool for every row simulation of a sweep; rows all draw trial.trials."""
    size = _pool_workers(workers, _chunk_count(trial.trials))
    if size == 1:
        yield
        return
    with _pool(size) as pool:
        token = _SWEEP_POOL.set((size, pool))
        try:
            yield
        finally:
            _SWEEP_POOL.reset(token)


def simulate_ber(
    params: SystemParams,
    window: DetectionWindow,
    threshold: float,
    cfg: TrialConfig,
    workers: int = 1,
) -> BerEstimate:
    """Monte Carlo BER of threshold detection on an in-symbol window."""
    return simulate_ber_taps(params, window_taps(params, window), threshold, cfg, workers)


# ---------------------------------------------------------------------------
# Sweeps
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SweepRow:
    """One (Q, scheme) point; ``result`` holds the window, threshold and BER it scored."""

    q: int
    scheme: Scheme
    result: OptimizationResult
    mc: BerEstimate


def sweep_row(
    params: SystemParams,
    scheme: Scheme,
    trial: TrialConfig,
    dt: float | None = None,
    workers: int = 1,
) -> SweepRow:
    """Select the scheme's window and simulate on the taps and threshold it was scored on."""
    result = select_window(params, scheme, dt)
    mc = simulate_ber_taps(params, result.taps, result.threshold, trial, workers)
    return SweepRow(q=int(params.Q), scheme=scheme, result=result, mc=mc)


def sweep(
    params: SystemParams,
    q_values: Sequence[int],
    schemes: Sequence[Scheme],
    trial: TrialConfig,
    dt: float | None = None,
    workers: int = 1,
) -> list[SweepRow]:
    """BER versus Q for several window-selection schemes, a ``sweep_row`` per
    (Q, scheme): the window with the threshold and analytic BER its selection
    scored (never a rescan) and a Monte Carlo estimate on the same taps.  Row
    seeds derive deterministically from the master seed, so the output is
    reproducible for any worker count.
    """
    if not q_values or not schemes:
        raise ConfigError("sweep needs at least one Q value and one scheme")
    cells = [(int(q), scheme) for q in q_values for scheme in schemes]
    seeds = np.random.SeedSequence(trial.seed).generate_state(len(cells), dtype=np.uint64)
    with _lend_pool(trial, workers):
        return [
            sweep_row(replace(params, Q=q), scheme, replace(trial, seed=int(seed)), dt, workers)
            for (q, scheme), seed in zip(cells, seeds)
        ]
