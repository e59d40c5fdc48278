"""Stochastic link simulation and BER sweeps.

A simulated stream draws i.i.d. equiprobable bits; each scored symbol's
count is the sum of independent per-tap draws -- Binomial(Q*x, F) for the
absorbing receiver, Poisson of the summed rate for the passive one (their
marginals are exact for the channel model, no particle tracking needed) --
and decides "1" iff the count exceeds the threshold.

Reproducibility: trials are split into fixed-size chunks, each with its own
RNG stream spawned from the master seed.  Results are summed over chunks,
so identical seeds give identical error counts for any worker count.
Gaussian-approximate draws are available behind ``exact_counts=False``.
"""
from __future__ import annotations

import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .channel import Receiver, SystemParams, TapProfile, window_taps, DetectionWindow
from .errors import ConfigError
from .optimizer import OptimizationResult, Scheme, result_taps, select_window
from .reception import BerEstimate, BerSource, threshold_from_taps

__all__ = [
    "TrialConfig",
    "SweepRow",
    "simulate_ber",
    "simulate_ber_taps",
    "sweep",
    "wilson_halfwidth",
]

# Trials per RNG chunk.  Fixed: the chunk layout (not the worker count)
# determines the draws.
CHUNK_TRIALS = 1 << 16

_Z95 = 1.959963984540054


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
        if self.warmup_symbols is not None and self.warmup_symbols < 0:
            raise ConfigError("warmup_symbols must be >= 0")


def wilson_halfwidth(errors: int, trials: int, z: float = _Z95) -> float:
    """Half-width of the Wilson 95% score interval for an error rate."""
    n = float(trials)
    p = errors / n
    denom = 1.0 + z * z / n
    return z * math.sqrt(p * (1.0 - p) / n + z * z / (4.0 * n * n)) / denom


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
            for j, lag in enumerate(taps.lags):
                released = bits[warmup - lag : warmup - lag + n_trials] * q
                counts += rng.binomial(released, float(taps.mean[j]))
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
    if threshold < 0:
        raise ValueError("threshold must be >= 0")
    warmup = params.L if cfg.warmup_symbols is None else cfg.warmup_symbols
    if warmup < params.L:
        raise ConfigError(f"warmup_symbols must be >= L ({warmup} < {params.L})")

    n_chunks = (cfg.trials + CHUNK_TRIALS - 1) // CHUNK_TRIALS
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
        with ProcessPoolExecutor(max_workers=pool_size) as pool:
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
    q: int
    scheme: Scheme
    result: OptimizationResult
    threshold: int
    analytic: BerEstimate
    mc: BerEstimate


def sweep(
    params: SystemParams,
    q_values: Sequence[int],
    schemes: Sequence[Scheme],
    trial: TrialConfig,
    dt: float | None = None,
    workers: int = 1,
) -> list[SweepRow]:
    """BER versus Q for several window-selection schemes.

    Every (Q, scheme) row gets the scheme's window, the BER-optimal
    threshold, the analytical BER and a Monte Carlo estimate.  Row seeds
    derive deterministically from the master seed, so the output is
    reproducible for any worker count.
    """
    if not q_values or not schemes:
        raise ConfigError("sweep needs at least one Q value and one scheme")
    row_seeds = np.random.SeedSequence(trial.seed).generate_state(
        len(q_values) * len(schemes), dtype=np.uint64
    )
    rows: list[SweepRow] = []
    index = 0
    for q in q_values:
        params_q = replace(params, Q=int(q))
        for scheme in schemes:
            result = select_window(params_q, scheme, dt)
            taps = result_taps(params_q, result)
            threshold, analytic = threshold_from_taps(params_q, taps)
            row_cfg = replace(trial, seed=int(row_seeds[index]))
            mc = simulate_ber_taps(params_q, taps, threshold, row_cfg, workers)
            rows.append(
                SweepRow(
                    q=int(q),
                    scheme=scheme,
                    result=result,
                    threshold=threshold,
                    analytic=analytic,
                    mc=mc,
                )
            )
            index += 1
    return rows
