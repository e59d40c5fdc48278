import math
import os
from dataclasses import replace

import mpmath
import numpy as np
import pytest

from mcdwin import (
    ConfigError,
    Receiver,
    Scheme,
    TrialConfig,
    full_window,
    optimal_threshold,
    select_window,
    simulate_ber,
    sweep,
    window_taps,
)
from mcdwin import montecarlo, reception
from mcdwin.montecarlo import _pool_workers, wilson_halfwidth
from mcdwin.reception import BerSource
from conftest import absorbing_params, passive_params
from test_acceptance import _exact_binomial_ber


class TestTrialConfig:
    def test_rejects_zero_trials(self):
        with pytest.raises(ConfigError):
            TrialConfig(trials=0, seed=1)

    def test_rejects_negative_seed(self):
        with pytest.raises(ConfigError, match="seed"):
            TrialConfig(trials=10, seed=-1)

    def test_rejects_insufficient_warmup(self, table1_absorbing):
        cfg = TrialConfig(trials=100, seed=1, warmup_symbols=2)
        with pytest.raises(ConfigError):
            simulate_ber(table1_absorbing, full_window(table1_absorbing), 10.0, cfg)


    def test_rejects_exact_draws_past_64_bit_counts(self):
        # numpy draws a Binomial count as a 64-bit integer
        params = absorbing_params(Q=2**63)
        with pytest.raises(ValueError, match="64-bit"):
            simulate_ber(params, full_window(params), 0.0, TrialConfig(trials=10, seed=1))


class TestPoolWorkers:
    def test_clamped_to_chunks_and_cpus(self):
        cpus = os.cpu_count() or 1
        # only the returned count is checked; no pool is started
        assert _pool_workers(10**6, 3) == min(3, cpus)
        assert _pool_workers(10**6, 10**6) == cpus
        assert _pool_workers(1, 50) == 1

    @pytest.mark.parametrize("workers", [0, -3])
    def test_rejects_fewer_than_one(self, workers):
        with pytest.raises(ConfigError):
            _pool_workers(workers, 4)


class TestWilson:
    def test_against_reference_value(self):
        # Wilson 95% for 50/1000: interval (0.0381, 0.0652); halfwidth 0.01355
        hw = wilson_halfwidth(50, 1000)
        assert hw == pytest.approx(0.01355, abs=2e-4)

    def test_nonzero_at_zero_errors(self):
        assert wilson_halfwidth(0, 1000) > 0.0


class TestSimulateBer:
    def test_no_molecules_is_coin_flip(self):
        params = absorbing_params(Q=0)
        cfg = TrialConfig(trials=40_000, seed=5)
        est = simulate_ber(params, full_window(params), 0.0, cfg)
        assert abs(est.value - 0.5) <= 4 * est.ci_halfwidth
        assert est.source is BerSource.MONTE_CARLO
        assert est.trials == 40_000

    def test_unreachable_threshold_is_coin_flip(self, table1_absorbing):
        cfg = TrialConfig(trials=40_000, seed=6)
        xi = table1_absorbing.Q * (table1_absorbing.L + 1) + 1
        est = simulate_ber(table1_absorbing, full_window(table1_absorbing), xi, cfg)
        assert abs(est.value - 0.5) <= 4 * est.ci_halfwidth

    def test_nan_threshold_rejected(self, table1_absorbing):
        cfg = TrialConfig(trials=1000, seed=6)
        with pytest.raises(ValueError, match="threshold"):
            simulate_ber(table1_absorbing, full_window(table1_absorbing), math.nan, cfg)

    def test_infinite_threshold_always_decides_zero(self, table1_absorbing):
        cfg = TrialConfig(trials=40_000, seed=6)
        est = simulate_ber(table1_absorbing, full_window(table1_absorbing), math.inf, cfg)
        assert abs(est.value - 0.5) <= 4 * est.ci_halfwidth

    def test_matches_analytic_absorbing(self, table1_absorbing):
        xi, analytic = optimal_threshold(table1_absorbing, full_window(table1_absorbing))
        cfg = TrialConfig(trials=200_000, seed=42)
        mc = simulate_ber(table1_absorbing, full_window(table1_absorbing), xi, cfg)
        assert abs(mc.value - analytic.value) <= 4 * mc.ci_halfwidth

    def test_matches_analytic_passive(self, table1_passive):
        xi, analytic = optimal_threshold(table1_passive, full_window(table1_passive))
        cfg = TrialConfig(trials=200_000, seed=43)
        mc = simulate_ber(table1_passive, full_window(table1_passive), xi, cfg)
        assert abs(mc.value - analytic.value) <= 4 * mc.ci_halfwidth

    def test_seed_determinism(self, table1_absorbing):
        cfg = TrialConfig(trials=30_000, seed=99)
        w = full_window(table1_absorbing)
        a = simulate_ber(table1_absorbing, w, 300.0, cfg)
        b = simulate_ber(table1_absorbing, w, 300.0, cfg)
        assert a.value == b.value

    def test_worker_count_invariance(self, table1_absorbing):
        # trials span multiple RNG chunks; totals must not depend on workers
        cfg = TrialConfig(trials=150_000, seed=123)
        w = full_window(table1_absorbing)
        serial = simulate_ber(table1_absorbing, w, 300.0, cfg, workers=1)
        parallel = simulate_ber(table1_absorbing, w, 300.0, cfg, workers=3)
        assert serial.value == parallel.value

    def test_warmup_does_not_shift_statistics(self, table1_absorbing):
        w = full_window(table1_absorbing)
        xi, analytic = optimal_threshold(table1_absorbing, w)
        short = simulate_ber(
            table1_absorbing, w, xi, TrialConfig(trials=100_000, seed=7, warmup_symbols=4)
        )
        long = simulate_ber(
            table1_absorbing, w, xi, TrialConfig(trials=100_000, seed=7, warmup_symbols=16)
        )
        combined = short.ci_halfwidth + long.ci_halfwidth
        assert abs(short.value - long.value) <= 4 * combined
        assert abs(short.value - analytic.value) <= 4 * short.ci_halfwidth

    def test_gaussian_mode_matches_analytic(self, table1_absorbing):
        w = full_window(table1_absorbing)
        xi, analytic = optimal_threshold(table1_absorbing, w)
        cfg = TrialConfig(trials=200_000, seed=21, exact_counts=False)
        mc = simulate_ber(table1_absorbing, w, xi, cfg)
        assert abs(mc.value - analytic.value) <= 4 * mc.ci_halfwidth

    def test_exact_draws_converge_to_gaussian_analytic(self, capsys):
        # audit of the approximation trend; asserted only deep in regime
        gaps = {}
        for q in (100, 500, 2000, 10_000):
            params = absorbing_params(T_s=0.2, L=2, Q=q)
            w = full_window(params)
            xi, analytic = optimal_threshold(params, w)
            mc = simulate_ber(params, w, xi, TrialConfig(trials=150_000, seed=31))
            gaps[q] = abs(mc.value - analytic.value) / mc.ci_halfwidth
            print(f"Q={q}: |mc-analytic| = {gaps[q]:.2f} halfwidths")
        assert gaps[2000] <= 4.0
        assert gaps[10_000] <= 4.0


class TestSweep:
    def test_single_point_single_scheme(self, table1_absorbing):
        rows = sweep(
            table1_absorbing,
            [500],
            [Scheme.FULL_WINDOW],
            TrialConfig(trials=5_000, seed=1),
        )
        assert len(rows) == 1
        assert rows[0].q == 500
        assert rows[0].scheme is Scheme.FULL_WINDOW
        assert rows[0].result.ber.source is BerSource.ANALYTICAL
        assert rows[0].mc.source is BerSource.MONTE_CARLO

    def test_rejects_empty(self, table1_absorbing):
        with pytest.raises(ConfigError):
            sweep(table1_absorbing, [], [Scheme.FULL_WINDOW], TrialConfig(trials=10, seed=1))
        with pytest.raises(ConfigError):
            sweep(table1_absorbing, [100], [], TrialConfig(trials=10, seed=1))

    def test_bit_identical_rerun(self, table1_absorbing):
        cfg = TrialConfig(trials=20_000, seed=8)
        schemes = [Scheme.FULL_WINDOW, Scheme.NUMERIC_MSINAR]
        a = sweep(table1_absorbing, [500, 2000], schemes, cfg, dt=0.2 / 25)
        b = sweep(table1_absorbing, [500, 2000], schemes, cfg, dt=0.2 / 25)
        assert [(r.q, r.scheme, r.mc.value, r.result.threshold) for r in a] == [
            (r.q, r.scheme, r.mc.value, r.result.threshold) for r in b
        ]

    def test_shift_tau_rows_use_overhanging_window(self, table1_absorbing):
        rows = sweep(
            table1_absorbing,
            [1000],
            [Scheme.SHIFT_TAU],
            TrialConfig(trials=20_000, seed=9),
            dt=0.2 / 25,
        )
        row = rows[0]
        assert row.result.tau is not None
        assert row.result.window.t2 == pytest.approx(row.result.tau + 0.2)
        assert abs(row.mc.value - row.result.ber.value) <= 4 * row.mc.ci_halfwidth

    def test_exhaustive_analytic_monotone_in_q(self):
        # audited with slack for grid artifacts
        params = absorbing_params(T_s=0.2, L=4)
        rows = sweep(
            params,
            [200, 600, 1800],
            [Scheme.EXHAUSTIVE_BER],
            TrialConfig(trials=1_000, seed=2),
            dt=0.2 / 25,
        )
        values = [r.result.ber.value for r in rows]
        assert values[1] <= values[0] * 1.05
        assert values[2] <= values[1] * 1.05

    def test_rows_do_not_rescan_searched_windows(self, monkeypatch):
        # a row simulates on the threshold its search scored: the sweep runs
        # exactly the one-column threshold scans of the searches themselves
        scans = []
        original = reception.best_thresholds

        def counting(q, mean, var, beat=math.inf):
            scans.append(mean.shape[1])
            return original(q, mean, var, beat)

        monkeypatch.setattr(reception, "best_thresholds", counting)
        params = absorbing_params(T_s=0.2, L=4)
        schemes = [Scheme.EXHAUSTIVE_BER, Scheme.SHIFT_TAU]
        for q in (500, 2000):
            for scheme in schemes:
                select_window(replace(params, Q=q), scheme, 0.2 / 25)
        searched, scans[:] = scans.count(1), []
        rows = sweep(params, [500, 2000], schemes, TrialConfig(trials=100, seed=3), dt=0.2 / 25)
        assert len(rows) == 4
        assert scans.count(1) == searched

    def test_one_pool_per_sweep(self, monkeypatch, table1_absorbing):
        # count process pools: one for the whole sweep, not one per row
        pools = []
        executor = montecarlo.ProcessPoolExecutor

        def counting(*args, **kwargs):
            pools.append(kwargs.get("max_workers"))
            return executor(*args, **kwargs)

        monkeypatch.setattr(montecarlo, "ProcessPoolExecutor", counting)
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        cfg = TrialConfig(trials=montecarlo.CHUNK_TRIALS + 1, seed=4)  # two chunks per row
        schemes = [Scheme.FULL_WINDOW, Scheme.CLOSED_FORM]
        shared = sweep(table1_absorbing, [500, 2000], schemes, cfg, workers=2)
        assert pools == [2]
        monkeypatch.undo()
        alone = sweep(table1_absorbing, [500, 2000], schemes, cfg)
        assert [r.mc for r in shared] == [r.mc for r in alone]


def _sampler(params, tap, threshold, trials=1_000_000):
    taps = window_taps(params, full_window(params))
    return montecarlo._tap_sampler(params, float(taps.mean[tap]), float(taps.var[tap]), threshold, trials)


# (params, tap, threshold): Binomial and Poisson taps, lumped at the
# threshold's cap or reaching their upper tail, including a cap below lo
TABLE_CASES = [
    (absorbing_params(T_s=0.2, L=4, Q=1000), 0, 150.0),
    (absorbing_params(T_s=0.2, L=4, Q=1000), 1, 150.0),
    (absorbing_params(T_s=0.2, L=4, Q=60), 0, 9.5),
    (absorbing_params(T_s=0.2, L=4, Q=10_000), 0, 1000.0),
    (absorbing_params(T_s=0.2, L=4, Q=10_000), 3, math.inf),
    (passive_params(T_s=1.0, L=2, Q=10_000), 0, 44.0),
    (passive_params(T_s=1.0, L=2, Q=10_000), 2, math.inf),
    (passive_params(T_s=1.0, L=2, Q=200), 0, 0.0),
]


class TestCountTables:
    @pytest.mark.parametrize("params, tap, threshold", TABLE_CASES)
    def test_inversion_equals_searchsorted(self, params, tap, threshold):
        table = _sampler(params, tap, threshold)
        assert isinstance(table, montecarlo._CountTable)
        cdf = table.steps[:-1]
        m = table.guide.size
        rng = np.random.default_rng(11)
        u = np.concatenate(
            (
                rng.random(200_000),
                np.arange(m) / m,  # bucket edges
                cdf,
                np.nextafter(cdf, 0.0),
                np.nextafter(cdf, 1.0),
                [0.0, np.nextafter(1.0, 0.0)],
            )
        )
        u = u[(u >= 0.0) & (u < 1.0)]
        assert np.array_equal(table.invert(u), table.lo + np.searchsorted(cdf, u, "right"))

    @pytest.mark.parametrize("params, tap, threshold", TABLE_CASES)
    def test_pmf_matches_oracle(self, params, tap, threshold):
        table = _sampler(params, tap, threshold)
        q = int(params.Q)
        mean = float(window_taps(params, full_window(params)).mean[tap])
        top = table.lo + table.steps.size - 1
        with mpmath.workdps(40):
            if params.receiver is Receiver.ABSORBING:
                # math.comb keeps the binomial coefficient exact
                p = mpmath.mpf(mean)
                pmf = [mpmath.mpf(math.comb(q, k)) * p**k * (1 - p) ** (q - k) for k in range(top)]
            else:
                lam = q * mpmath.mpf(mean)
                pmf = [mpmath.exp(-lam) * lam**k / mpmath.factorial(k) for k in range(top)]
            # the table's values lo .. top: lo takes the mass below it, top the mass above
            cdf = [0] + [mpmath.fsum(pmf[: k + 1]) for k in range(table.lo, top)] + [1]
            expected = [float(b - a) for a, b in zip(cdf, cdf[1:])]
        got = np.diff(np.concatenate(([0.0], table.steps[:-1], [1.0])))
        assert np.allclose(got, expected, rtol=0.0, atol=1e-12)

    def test_top_is_the_cap_and_decides_one(self):
        params = absorbing_params(T_s=0.2, L=4, Q=1000)
        for threshold in (150.0, 150.5):
            table = _sampler(params, 0, threshold)
            cap = math.floor(threshold) + 1
            assert table.lo + table.steps.size - 1 == cap
            # u at or past P(count < cap) draws the lump, a count > threshold
            assert table.invert(np.array([table.steps[-2], np.nextafter(1.0, 0.0)])).tolist() == [cap, cap]
            assert cap > threshold
            assert table.invert(np.nextafter(table.steps[-2:-1], 0.0))[0] == cap - 1

    def test_lumped_draws_decide_exactly(self):
        # L = 0: BER = P(count <= xi) / 2 with count ~ Binomial(Q, F), and at
        # xi = 5 below the signal mean ~11 most draws are lumped at the cap
        params = absorbing_params(T_s=0.2, L=0, Q=60)
        xi = 5.0
        table = _sampler(params, 0, xi)
        assert table.lo + table.steps.size - 1 == 6
        mean = float(window_taps(params, full_window(params)).mean[0])
        exact = 0.5 * sum(math.comb(60, k) * mean**k * (1 - mean) ** (60 - k) for k in range(6))
        est = simulate_ber(params, full_window(params), xi, TrialConfig(trials=400_000, seed=12))
        assert abs(est.value - exact) <= 4 * est.ci_halfwidth

    def test_constant_table_draws_nothing(self):
        # Q = 0: every count is 0, and no uniform is drawn for it
        params = absorbing_params(T_s=0.2, L=2, Q=0)
        table = _sampler(params, 0, 0.0)
        assert (table.lo, table.steps.size) == (0, 1)
        rng = np.random.default_rng(3)
        state = rng.bit_generator.state
        assert np.array_equal(table.draw(rng, 5), np.zeros(5, dtype=int))
        assert rng.bit_generator.state == state

    def test_choice_depends_on_trials_and_width(self):
        params = absorbing_params(T_s=0.2, L=4, Q=1000)
        table = _sampler(params, 0, 150.0)
        width = table.steps.size
        assert isinstance(_sampler(params, 0, 150.0, trials=8 * width), montecarlo._CountTable)
        assert isinstance(_sampler(params, 0, 150.0, trials=8 * width - 1), montecarlo._NumpyDraw)
        # wider than _MAX_TABLE_WIDTH at Q = 1e7 and 1e12
        assert isinstance(_sampler(absorbing_params(Q=10**7), 0, math.inf, 10**9), montecarlo._NumpyDraw)
        assert isinstance(_sampler(absorbing_params(Q=10**12), 4, math.inf, 10**9), montecarlo._NumpyDraw)
        # a narrow tap past 2^53 molecules, where Q - k is no longer an exact double
        huge = absorbing_params(Q=2**60)
        narrow = montecarlo._tap_sampler(huge, 1e-17, 1e-17, math.inf, 10**9)
        assert isinstance(narrow, montecarlo._NumpyDraw)
        assert isinstance(
            montecarlo._tap_sampler(absorbing_params(Q=2**52), 1e-15, 1e-15, math.inf, 10**9), montecarlo._CountTable
        )

    def test_numpy_path_at_few_trials(self):
        # 1 and 7 trials per call: no table serves 8 draws per entry
        params = absorbing_params(T_s=0.2, L=2, Q=60)
        for trials in (1, 7):
            assert all(isinstance(_sampler(params, j, 5.0, trials), montecarlo._NumpyDraw) for j in range(3))
        w = full_window(params)
        xi, analytic = optimal_threshold(params, w)
        errors = sum(
            round(simulate_ber(params, w, xi, TrialConfig(trials=7, seed=s)).value * 7) for s in range(3000)
        )
        exact = _exact_binomial_ber(params, w, xi)
        pooled = 7 * 3000
        assert abs(errors / pooled - exact) <= 4 * wilson_halfwidth(errors, pooled)

    def test_numpy_path_at_huge_q(self):
        # Q = 1e12: every tap too wide for a table; with xi at the signal
        # mean and L = 0 the BER is P(count <= mean) / 2 ~ 1/4
        params = absorbing_params(T_s=0.2, L=0, Q=10**12)
        w = full_window(params)
        taps = window_taps(params, w)
        xi = math.floor(params.Q * float(taps.mean[0]))
        assert isinstance(_sampler(params, 0, float(xi), trials=10**6), montecarlo._NumpyDraw)
        est = simulate_ber(params, w, float(xi), TrialConfig(trials=100_000, seed=13))
        sd = math.sqrt(params.Q * float(taps.var[0]))
        expected = 0.5 * 0.5 * math.erfc(-(xi + 0.5 - params.Q * float(taps.mean[0])) / (sd * math.sqrt(2)))
        assert abs(est.value - expected) <= 4 * est.ci_halfwidth

    @pytest.mark.parametrize("xi", [0.0, 3.0, 12.0])
    def test_passive_early_stop_is_exact(self, xi):
        # passive taps are drawn one by one, like absorbing ones, and stop
        # once a trial passes the threshold; the oracle is the Poisson of the
        # summed rate of each bit pattern
        from scipy.stats import poisson

        params = passive_params(T_s=1.0, L=2, Q=200)
        w = full_window(params)
        taps = window_taps(params, w)
        exact = 0.0
        for pattern in range(4):
            for sent in (0, 1):
                bits = {0: sent, 1: pattern & 1, 2: pattern >> 1}
                lam = sum(params.Q * taps.mean[j] for j, lag in enumerate(taps.lags) if bits[lag])
                p_one = float(poisson.sf(xi, lam))
                exact += 0.125 * (p_one if sent == 0 else 1.0 - p_one)
        est = simulate_ber(params, w, xi, TrialConfig(trials=300_000, seed=14))
        assert abs(est.value - exact) <= 4 * est.ci_halfwidth
