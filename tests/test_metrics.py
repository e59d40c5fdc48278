import math
from dataclasses import replace

import numpy as np
import pytest
from scipy.integrate import quad

from mcdwin import (
    ContinuousWindow,
    GFactorPole,
    InfiniteSinar,
    InfiniteSir,
    Method,
    Metric,
    NoFiniteQhat,
    alphas,
    full_window,
    g_factor,
    hitting_density,
    msid,
    msinar,
    q_hat,
    sid,
    sinar,
    sir,
    window_taps,
)
from mcdwin.metrics import metric_values_from_taps
from mcdwin.optimizer import _window_grid, closed_form_interval, numeric_metric_search
from conftest import absorbing_params, assert_rel, passive_params, sample_probability

WINDOW = ContinuousWindow(0.03, 0.2)


class TestSir:
    def test_equal_taps_give_one_over_l(self):
        mean = np.full((5, 1), 0.1)
        var = mean * (1 - mean)
        value = metric_values_from_taps(Metric.SIR, 100.0, mean, var)[0]
        assert value == pytest.approx(1.0 / 4.0)

    def test_q_invariant(self, table1_absorbing):
        a = sir(table1_absorbing, WINDOW)
        b = sir(replace(table1_absorbing, Q=10 * table1_absorbing.Q), WINDOW)
        assert a == b

    def test_matches_quadrature_ratio(self, table1_absorbing):
        p = table1_absorbing
        signal, _ = quad(lambda t: hitting_density(p, t), WINDOW.t1, WINDOW.t2)
        interference = sum(
            quad(lambda t: hitting_density(p, k * p.T_s + t), WINDOW.t1, WINDOW.t2)[0]
            for k in range(1, p.L + 1)
        )
        assert_rel(sir(p, WINDOW), signal / interference, 1e-7, "sir vs quadrature")

    def test_requires_isi(self):
        with pytest.raises(ValueError):
            sir(absorbing_params(L=0), WINDOW)

    def test_zero_window_is_infinite(self, table1_absorbing):
        with pytest.raises(InfiniteSir):
            sir(table1_absorbing, ContinuousWindow(0.1, 0.1))


class TestSid:
    def test_zero_width_window(self, table1_absorbing):
        assert sid(table1_absorbing, ContinuousWindow(0.1, 0.1)) == 0.0

    def test_linear_in_q(self, table1_absorbing):
        doubled = replace(table1_absorbing, Q=2 * table1_absorbing.Q)
        assert sid(doubled, WINDOW) == pytest.approx(2 * sid(table1_absorbing, WINDOW))

    def test_sign_change_into_isi_region(self):
        p = absorbing_params(T_s=0.2, L=8, Q=1000)
        early = sid(p, ContinuousWindow(0.0, 0.01))
        late = sid(p, ContinuousWindow(0.05, 0.2))
        assert early < 0.0 < late


class TestSinar:
    def test_limits_to_sir(self, table1_absorbing):
        huge = replace(table1_absorbing, Q=10**9)
        s_inf = sinar(huge, WINDOW)
        s_ratio = sir(table1_absorbing, WINDOW)
        assert abs(s_inf - s_ratio) < 1e-3 * s_ratio

    def test_noise_dominates_small_q(self):
        p = absorbing_params(L=2, Q=1)
        value = sinar(p, ContinuousWindow(0.0005, 0.0025))
        assert value < 0.05

    def test_monotone_in_q(self, table1_absorbing):
        values = [
            sinar(replace(table1_absorbing, Q=q), WINDOW)
            for q in (10, 100, 1000, 10_000, 100_000)
        ]
        assert all(b >= a for a, b in zip(values, values[1:]))

    def test_zero_window_is_infinite(self, table1_absorbing):
        with pytest.raises(InfiniteSinar):
            sinar(table1_absorbing, ContinuousWindow(0.1, 0.1))


class TestMsinar:
    def test_identity_with_rewritten_form(self, table1_absorbing):
        taps = window_taps(table1_absorbing, WINDOW)
        q = float(table1_absorbing.Q)
        f0 = taps.mean[0]
        interference = taps.mean[1:].sum()
        noise = np.sqrt(taps.var).sum()
        rewritten = f0 / (interference + math.sqrt(2.0 / q) * noise)
        assert msinar(table1_absorbing, WINDOW) == pytest.approx(rewritten, rel=1e-14)

    def test_below_sinar(self, table1_absorbing):
        # denominator comparison: sqrt(2/Q) >= sqrt(1/Q) per-tap noise weight
        taps = window_taps(table1_absorbing, WINDOW)
        q = float(table1_absorbing.Q)
        noise = np.sqrt(taps.var).sum()
        interference = taps.mean[1:].sum()
        denom_msinar = interference + math.sqrt(2.0 / q) * noise
        denom_sinar = interference + noise / math.sqrt(q)
        assert denom_msinar >= denom_sinar
        assert msinar(table1_absorbing, WINDOW) < sinar(table1_absorbing, WINDOW)

    def test_equals_one_at_q_hat(self):
        for (T_s, L) in ((0.2, 4), (0.2, 8), (0.3, 5)):
            p = absorbing_params(T_s=T_s, L=L, Q=100)
            res = closed_form_interval(p)
            assert res.method is Method.PROP2
            window = res.window
            qh = q_hat(p, window)
            value = msinar(replace(p, Q=qh), window)
            assert 1.0 <= value <= 1.05


class TestMsid:
    def test_limits_to_sid_fraction(self, table1_absorbing):
        # noise term scales as sqrt(2/Q): ~1.5e-8 at Q = 1e16
        huge = replace(table1_absorbing, Q=10**16)
        target = sid(huge, WINDOW) / huge.Q
        assert msid(huge, WINDOW) == pytest.approx(target, abs=1e-7)

    def test_below_sid_fraction(self, table1_absorbing):
        assert msid(table1_absorbing, WINDOW) < sid(table1_absorbing, WINDOW) / table1_absorbing.Q

    def test_independent_evaluation(self):
        from scipy.special import erf

        p = absorbing_params(T_s=0.3, L=1, Q=100)
        window = ContinuousWindow(0.05, 0.3)
        d, r, D = 5e-6, 5e-6, 80e-12

        def frac(a, b):
            upper = 1.0 if a == 0 else erf(d / math.sqrt(4 * D * a))
            return r / (d + r) * (upper - erf(d / math.sqrt(4 * D * b)))

        f0 = frac(0.05, 0.3)
        f1 = frac(0.35, 0.6)
        hand = f0 - f1 - math.sqrt(2.0 / 100.0) * (
            math.sqrt(f0 * (1 - f0)) + math.sqrt(f1 * (1 - f1))
        )
        assert msid(p, window) == pytest.approx(hand, rel=1e-12)


class TestQHat:
    def test_no_margin_no_qhat(self):
        p = absorbing_params(T_s=0.2, L=8)
        with pytest.raises(NoFiniteQhat):
            q_hat(p, ContinuousWindow(0.0, 0.01))

    def test_square_law_in_noise(self, table1_absorbing):
        taps = window_taps(table1_absorbing, WINDOW)
        margin = taps.mean[0] - taps.mean[1:].sum()
        noise = np.sqrt(taps.var).sum()
        pre_ceiling = 2.0 * (noise / margin) ** 2
        assert q_hat(table1_absorbing, WINDOW) == math.ceil(pre_ceiling)
        assert 2.0 * (2 * noise / margin) ** 2 == pytest.approx(4 * pre_ceiling)

    def test_self_consistency(self):
        for (T_s, L) in ((0.2, 4), (0.3, 5)):
            p = absorbing_params(T_s=T_s, L=L, Q=100)
            res = closed_form_interval(p)
            assert res.method is Method.PROP2
            window = res.window
            qh = q_hat(p, window)
            assert msinar(replace(p, Q=qh), window) >= 1.0
            assert msinar(replace(p, Q=max(1, int(0.9 * qh))), window) < 1.0


class TestAlphasAndG:
    def test_alpha_ordering_absorbing(self, table1_absorbing):
        a1, a2 = alphas(table1_absorbing)
        # the later interval absorbs less, so its noise-to-signal ratio is larger
        p = table1_absorbing
        f_now, _ = quad(lambda t: hitting_density(p, t), 1e-12, p.T_s)
        f_prev, _ = quad(lambda t: hitting_density(p, t + p.T_s), 0.0, p.T_s)
        assert a1 == pytest.approx(math.sqrt((1 - f_now) / f_now), rel=1e-7)
        assert a2 == pytest.approx(math.sqrt((1 - f_prev) / f_prev), rel=1e-7)
        assert a2 > a1

    def test_alphas_passive(self, table1_passive):
        a1, a2 = alphas(table1_passive)
        rate0 = sum(sample_probability(table1_passive, n, 0) for n in range(table1_passive.N + 1))
        rate1 = sum(sample_probability(table1_passive, n, 1) for n in range(table1_passive.N + 1))
        assert a1 == pytest.approx(1.0 / math.sqrt(rate0))
        assert a2 == pytest.approx(1.0 / math.sqrt(rate1))

    @pytest.mark.parametrize("T_s, L", [(1.0, 2), (2.0, 10), (2.0, 0)])
    def test_alphas_passive_from_full_window_taps(self, T_s, L):
        # the same whole-symbol sample sums every passive window search scores
        params = passive_params(T_s=T_s, L=L)
        taps = window_taps(replace(params, L=1), full_window(params))
        assert alphas(params) == (1.0 / math.sqrt(taps.mean[0]), 1.0 / math.sqrt(taps.mean[1]))

    def test_g_limit(self, table1_absorbing):
        assert g_factor(table1_absorbing, 1e9) - 1.0 < 1e-3

    def test_g_monotone_decreasing(self, table1_absorbing):
        values = [g_factor(table1_absorbing, q) for q in (1e2, 1e3, 1e4)]
        assert values[0] > values[1] > values[2] > 1.0

    def test_g_pole(self, table1_absorbing):
        a1, _ = alphas(table1_absorbing)
        with pytest.raises(GFactorPole):
            g_factor(table1_absorbing, 2.0 * a1**2)
        with pytest.raises(GFactorPole):
            g_factor(table1_absorbing, 0.5 * a1**2)


class TestRescalingInvariance:
    def test_argmax_index_invariant_under_time_rescale(self):
        # scaling (D, T_s) -> (D/c, c*T_s) leaves every fraction unchanged
        c = 3.0
        base = absorbing_params(T_s=0.2, L=4, Q=700)
        scaled = replace(base, D=base.D / c, T_s=base.T_s * c)
        for metric in (Metric.MSINAR, Metric.SID, Metric.SINAR):
            w_base = numeric_metric_search(base, metric, dt=0.2 / 60).window
            w_scaled = numeric_metric_search(scaled, metric, dt=0.2 * c / 60).window
            assert w_scaled.t1 == pytest.approx(c * w_base.t1, rel=1e-9, abs=1e-12)
            assert w_scaled.t2 == pytest.approx(c * w_base.t2, rel=1e-9)


class TestSinglePath:
    """Scalar taps and metrics agree exactly with the window-grid tables."""

    @pytest.mark.parametrize("L", [1, 4, 9])
    def test_grid_column_equals_window_taps_and_scalar_metrics(self, L):
        params = absorbing_params(T_s=0.2, L=L, Q=700)
        edges, i1, i2, columns = _window_grid(params, params.T_s / 16)
        mean, var = columns(slice(None))
        scalar = {
            Metric.SIR: sir, Metric.SID: sid, Metric.SINAR: sinar, Metric.MSINAR: msinar, Metric.MSID: msid
        }
        for w in range(0, i1.size, 7):
            window = ContinuousWindow(float(edges[i1[w]]), float(edges[i2[w]]))
            taps = window_taps(params, window)
            assert np.array_equal(taps.mean, mean[:, w])
            assert np.array_equal(taps.var, var[:, w])
            for metric, fn in scalar.items():
                column = metric_values_from_taps(metric, float(params.Q), mean[:, [w]], var[:, [w]])
                assert fn(params, window) == column[0]


class TestBelowOneMolecule:
    def test_noise_aware_columns_refused_below_q_one(self):
        # the sqrt(2/q) noise terms divide by q; the table refuses q < 1 as
        # the scalar metrics do instead of dividing by zero
        params = absorbing_params(T_s=0.2, L=2, Q=0)
        _, i1, _, columns = _window_grid(params, params.T_s / 8)
        mean, var = columns(slice(None))
        for metric in (Metric.SINAR, Metric.MSINAR, Metric.MSID):
            with pytest.raises(ValueError, match="noise-aware metrics need Q >= 1"):
                metric_values_from_taps(metric, 0.0, mean, var)
            with pytest.raises(ValueError, match="noise-aware metrics need Q >= 1"):
                metric_values_from_taps(metric, 0.5, mean, var)
        for metric in (Metric.SIR, Metric.SID):
            assert metric_values_from_taps(metric, 0.0, mean, var).shape == (i1.size,)


def test_metric_table_refuses_a_non_metric():
    mean = var = np.ones((3, 1))
    with pytest.raises(ValueError, match="unknown metric 'sinar'"):
        metric_values_from_taps("sinar", 100.0, mean, var)
