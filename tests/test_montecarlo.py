import os

import pytest

from mcdwin import (
    ConfigError,
    Scheme,
    TrialConfig,
    full_window,
    optimal_threshold,
    simulate_ber,
    sweep,
)
from mcdwin.montecarlo import _pool_workers, wilson_halfwidth
from mcdwin.reception import BerSource
from conftest import absorbing_params


class TestTrialConfig:
    def test_rejects_zero_trials(self):
        with pytest.raises(ConfigError):
            TrialConfig(trials=0, seed=1)

    def test_rejects_insufficient_warmup(self, table1_absorbing):
        cfg = TrialConfig(trials=100, seed=1, warmup_symbols=2)
        with pytest.raises(ConfigError):
            simulate_ber(table1_absorbing, full_window(table1_absorbing), 10.0, cfg)


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
        assert rows[0].analytic.source is BerSource.ANALYTICAL
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
        assert [(r.q, r.scheme, r.mc.value, r.threshold) for r in a] == [
            (r.q, r.scheme, r.mc.value, r.threshold) for r in b
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
        assert abs(row.mc.value - row.analytic.value) <= 4 * row.mc.ci_halfwidth

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
        values = [r.analytic.value for r in rows]
        assert values[1] <= values[0] * 1.05
        assert values[2] <= values[1] * 1.05
