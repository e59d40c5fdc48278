"""Stochastic link simulation and BER sweeps.

A simulated stream draws i.i.d. equiprobable bits; each scored symbol's
count is the sum of independent per-tap draws -- Binomial(Q*x, F) for the
absorbing receiver, Poisson of the summed rate for the passive one (their
marginals are exact for the channel model, no particle tracking needed) --
and decides "1" iff the count exceeds the threshold.

Absorbing draws stop once a trial is decided: taps go by descending mean
(stable sort), each drawn only for the trials that released at its lag and
are still at or below the threshold.  Counts never fall, so a trial past the
threshold decides "1" whatever its remaining draws, and skipping them keeps
every decision's distribution exact.  The RNG stream is consumed in this
order, so absorbing estimates at a given seed differ from those of the former
sampler, which drew every tap for every trial.

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


def _chunk_errors(
    params: SystemParams,
    taps: TapProfile,
    threshold: float,
    n_trials: int,
    warmup: int,
    exact: bool,
    seed_seq: np.random.SeedSequence,
) -> int:
    rng = np.random.default_rng(seed_seq)
    has_future = -1 in taps.lags
    n_bits = warmup + n_trials + (1 if has_future else 0)
    bits = rng.integers(0, 2, size=n_bits, dtype=np.int64)
    q = int(params.Q)

    if exact:
        if params.receiver is Receiver.ABSORBING:
            counts = np.zeros(n_trials, dtype=np.int64)
            undecided = np.ones(n_trials, dtype=bool)
            for j in np.argsort(-taps.mean, kind="stable"):
                lag = taps.lags[j]
                released = bits[warmup - lag : warmup - lag + n_trials] == 1
                drawn = np.flatnonzero(undecided & released)
                counts[drawn] += rng.binomial(q, float(taps.mean[j]), size=drawn.size)
                undecided[drawn] = counts[drawn] <= threshold
        else:
            lam = np.zeros(n_trials)
            for j, lag in enumerate(taps.lags):
                active = bits[warmup - lag : warmup - lag + n_trials]
                lam += active * (q * float(taps.mean[j]))
            counts = rng.poisson(lam)
        decisions = counts > threshold
    else:
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
    jobs = [
        (params, taps, threshold, size, warmup, cfg.exact_counts, stream)
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
