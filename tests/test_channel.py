import math
import sys
import warnings
from dataclasses import replace

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.optimize import minimize_scalar

from mcdwin import (
    ContinuousWindow,
    DomainError,
    Receiver,
    SampledWindow,
    SystemParams,
    derived,
    full_window,
    hitting_density,
    passive_probability,
    shift_taps,
    threshold_from_taps,
    window_taps,
)
from mcdwin.channel import _response_table, _survival
from conftest import absorbing_params, passive_params, assert_rel, sample_probability

# Relative error bound of the absorbing survival against mpmath, set from
# 150,000 values of libm's erf (max 2.37e-16); scipy's erf reaches 4.1e-16
SURVIVAL_REL_BOUND = 2.5e-16


class TestSystemParams:
    def test_rejects_nonpositive_scales(self):
        for field in ("d", "r", "D", "T_s"):
            kwargs = dict(d=5e-6, r=5e-6, D=80e-12, T_s=0.2, L=1, Q=10, receiver=Receiver.ABSORBING)
            kwargs[field] = 0.0
            with pytest.raises(ValueError):
                SystemParams(**kwargs)

    def test_rejects_negative_counts(self):
        with pytest.raises(ValueError):
            absorbing_params(L=-1)
        with pytest.raises(ValueError):
            SystemParams(d=5e-6, r=5e-6, D=80e-12, T_s=0.2, L=1, Q=-1, receiver=Receiver.ABSORBING)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("field", ["d", "r", "D", "T_s", "L", "Q", "N", "t_s"])
    def test_rejects_non_finite_numbers(self, field, value):
        # a bare x <= 0 check lets NaN through
        kwargs = dict(
            d=9e-6, r=1e-6, D=80e-12, T_s=1.0, L=2, Q=10,
            receiver=Receiver.PASSIVE, N=10, t_s=0.05,
        )
        kwargs[field] = value
        with pytest.raises(ValueError, match="finite"):
            SystemParams(**kwargs)

    @pytest.mark.parametrize("field", ["d", "r"])
    def test_rejects_subnormal_lengths(self, field):
        kwargs = dict(d=5e-6, r=5e-6, D=80e-12, T_s=0.2, L=4, Q=2000, receiver=Receiver.ABSORBING)
        with pytest.raises(ValueError, match="d and r must be normal doubles"):
            SystemParams(**{**kwargs, field: 1e-320})
        # the least normal double is a length
        assert getattr(SystemParams(**{**kwargs, field: sys.float_info.min}), field) == sys.float_info.min

    def test_table1_passive_satisfies_guard(self):
        p = passive_params()
        assert p.r / (p.r + p.d) == pytest.approx(0.1)

    def test_passive_needs_sampling(self):
        with pytest.raises(ValueError):
            SystemParams(d=9e-6, r=1e-6, D=80e-12, T_s=1.0, L=2, Q=10, receiver=Receiver.PASSIVE)

    @pytest.mark.parametrize("sampling", [{"N": 10}, {"t_s": 0.05}])
    def test_absorbing_refuses_sampling(self, sampling):
        with pytest.raises(ValueError, match="N and t_s only apply to the passive receiver"):
            SystemParams(d=5e-6, r=5e-6, D=80e-12, T_s=0.2, L=1, Q=10, receiver=Receiver.ABSORBING, **sampling)

    def test_passive_sampling_must_fit_symbol(self):
        with pytest.raises(ValueError):
            SystemParams(
                d=9e-6, r=1e-6, D=80e-12, T_s=1.0, L=2, Q=10,
                receiver=Receiver.PASSIVE, N=40, t_s=0.0347,
            )

    @given(r=st.floats(1e-7, 1e-4), scale=st.floats(0.01, 5.666))
    @settings(max_examples=60, deadline=None)
    def test_passive_guard_rejects_large_ratio(self, r, scale):
        # d = scale * r with scale <= 17/3 makes r/(r+d) >= 0.15
        d = scale * r
        assert r / (r + d) >= 0.15
        with pytest.raises(ValueError):
            SystemParams(
                d=d, r=r, D=80e-12, T_s=1.0, L=1, Q=10,
                receiver=Receiver.PASSIVE, N=10, t_s=0.05,
            )


class TestDerivedConstants:
    def test_scales(self, table1_absorbing):
        c = derived(table1_absorbing)
        assert c.m == pytest.approx(5e-6 / math.sqrt(4 * 80e-12))
        assert c.m_hat > c.m > 0
        assert c.t_max == pytest.approx(((5e-6) ** 2) / (6 * 80e-12))
        assert c.V is None

    def test_passive_volume(self, table1_passive):
        c = derived(table1_passive)
        assert c.V == pytest.approx(4 / 3 * math.pi * (1e-6) ** 3)
        assert c.t_max == pytest.approx(((1e-5) ** 2) / (6 * 80e-12))

    @pytest.mark.parametrize("make", [absorbing_params, passive_params])
    def test_t_max_is_golden_section_argmax(self, make):
        params = make()
        c = derived(params)
        if params.receiver is Receiver.ABSORBING:
            response = lambda t: hitting_density(params, t)
        else:
            response = lambda t: passive_probability(params, t)
        res = minimize_scalar(
            lambda t: -response(t), bounds=(1e-6, 2.0), method="bounded",
            options={"xatol": 1e-14},
        )
        assert_rel(c.t_max, res.x, 1e-6, "t_max vs golden-section argmax")

    def test_t_max_matches_grid_argmax(self, table1_absorbing):
        c = derived(table1_absorbing)
        grid = np.linspace(1e-4, 0.2, 4001)
        idx = int(np.argmax(hitting_density(table1_absorbing, grid)))
        assert abs(grid[idx] - c.t_max) <= grid[1] - grid[0]


class TestHittingDensity:
    def test_rejects_nonpositive_time(self, table1_absorbing):
        with pytest.raises(ValueError):
            hitting_density(table1_absorbing, 0.0)
        with pytest.raises(ValueError):
            hitting_density(table1_absorbing, -1.0)

    def test_vanishes_at_origin(self, table1_absorbing):
        # essential singularity of exp(-d^2/4Dt) wins over t^(-3/2)
        assert hitting_density(table1_absorbing, 1e-9) == 0.0

    def test_strictly_positive(self, table1_absorbing):
        t = np.linspace(0.001, 2.0, 100)
        assert np.all(hitting_density(table1_absorbing, t) > 0)

    def test_argmax_matches_analytic(self, table1_absorbing):
        grid = np.linspace(1e-4, 0.3, 30_000)
        values = hitting_density(table1_absorbing, grid)
        t_peak = grid[int(np.argmax(values))]
        assert t_peak == pytest.approx((5e-6) ** 2 / (6 * 80e-12), rel=1e-3)
        assert t_peak == pytest.approx(0.05208, rel=1e-3)

    def test_total_hitting_probability(self, table1_absorbing):
        total, _ = quad(lambda t: hitting_density(table1_absorbing, t), 0, np.inf)
        assert total == pytest.approx(0.5, rel=1e-8)

    def test_unimodal(self, table1_absorbing):
        grid = np.linspace(1e-4, 2.0, 5000)
        diffs = np.diff(hitting_density(table1_absorbing, grid))
        sign_changes = np.count_nonzero(np.diff(np.sign(diffs)) != 0)
        assert sign_changes == 1

    def test_overflowing_time_is_zero_without_warnings(self, table1_absorbing):
        # t^3 overflows to inf at t = 1e300; the limit h = 0 needs no warning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert hitting_density(table1_absorbing, 1e300) == 0.0
            assert np.all(hitting_density(table1_absorbing, np.array([1e200, 1e300])) == 0.0)


class TestAbsorbedFraction:
    """The fraction absorbed during [t1, t2] is _survival(t1) - _survival(t2)."""

    def test_empty_interval(self, table1_absorbing):
        taps = window_taps(table1_absorbing, ContinuousWindow(0.1, 0.1))
        assert np.all(taps.mean == 0.0)

    def test_whole_axis(self, table1_absorbing):
        # the total hitting probability r/(d+r)
        start, end = _survival(table1_absorbing, np.array([0.0, np.inf]))
        assert start - end == pytest.approx(0.5)

    def test_rejects_inverted(self, table1_absorbing):
        with pytest.raises(ValueError):
            window_taps(table1_absorbing, ContinuousWindow(0.2, 0.1))
        with pytest.raises(ValueError, match="time must be >= 0"):
            _survival(table1_absorbing, np.array([-1e-3, 0.1]))

    def test_matches_quadrature_on_symbol(self, table1_absorbing):
        value = window_taps(table1_absorbing, ContinuousWindow(0.0, 0.2)).mean[0]
        oracle, _ = quad(lambda t: hitting_density(table1_absorbing, t), 1e-12, 0.2)
        assert 0.0 < value < 0.5
        assert_rel(value, oracle, 1e-8, "F_ab vs quadrature")

    @given(
        t1=st.floats(0.0, 0.5),
        width=st.floats(1e-4, 0.5),
    )
    @settings(max_examples=40, deadline=None)
    def test_quadrature_property(self, t1, width):
        params = absorbing_params()
        start, end = _survival(params, np.array([t1, t1 + width]))
        oracle, _ = quad(
            lambda t: hitting_density(params, t), max(t1, 1e-12), t1 + width, limit=200
        )
        assert start - end == pytest.approx(oracle, rel=1e-6, abs=1e-15)

    @given(
        t1=st.floats(0.0, 0.3),
        w1=st.floats(1e-5, 0.3),
        w2=st.floats(1e-5, 0.3),
    )
    @settings(max_examples=60, deadline=None)
    def test_additivity(self, t1, w1, w2):
        params = absorbing_params()
        s1, s2, s3 = _survival(params, np.array([t1, t1 + w1, t1 + w1 + w2]))
        assert abs((s1 - s3) - ((s1 - s2) + (s2 - s3))) <= 1e-12

    def test_survival_against_mpmath(self):
        # libm's erf of the float d/sqrt(4Dt), times the float r/(d+r), the
        # operands the code forms: 50,000 log-uniform values, max 2.24e-16
        rng = np.random.default_rng(30)

        def log_uniform(lo, hi, size):
            return np.exp(rng.uniform(math.log(lo), math.log(hi), size))

        links, per_link = 2000, 25
        ds, rs = log_uniform(1e-7, 1e-4, links), log_uniform(1e-7, 1e-4, links)
        Ds = log_uniform(1e-12, 1e-9, links)
        worst = 0.0
        with mpmath.workdps(50):
            for d, r, D in zip(ds.tolist(), rs.tolist(), Ds.tolist()):
                params = SystemParams(d=d, r=r, D=D, T_s=1.0, L=1, Q=1, receiver=Receiver.ABSORBING)
                t = log_uniform(0.03, 1000.0, per_link) * d * d / (6.0 * D)
                ratio = mpmath.mpf(r / (d + r))
                for got, arg in zip(_survival(params, t).tolist(), (d / np.sqrt(4.0 * D * t)).tolist()):
                    exact = ratio * mpmath.erf(arg)
                    worst = max(worst, float(abs(mpmath.mpf(got) - exact) / exact))
        assert worst <= SURVIVAL_REL_BOUND

    def test_monotone_in_interval(self, table1_absorbing):
        inner = window_taps(table1_absorbing, ContinuousWindow(0.05, 0.1)).mean
        outer = window_taps(table1_absorbing, ContinuousWindow(0.04, 0.12)).mean
        assert np.all(outer >= inner)


class TestIsiFraction:
    """Tap k of a window is its fraction of the release k symbols old."""

    def test_k0_is_plain_fraction(self, table1_absorbing):
        start, end = _survival(table1_absorbing, np.array([0.0, 0.2]))
        assert window_taps(table1_absorbing, ContinuousWindow(0.0, 0.2)).mean[0] == start - end

    def test_huge_lag_vanishes(self, table1_absorbing):
        # the erf difference decays like k^(-3/2): ~2e-10 at k=1e6
        table = _response_table(table1_absorbing, np.array([0.0, 0.2]), (10**6, 10**8))
        fraction = table[:, 0] - table[:, 1]
        assert fraction[0] < 1e-9
        assert fraction[1] < 1e-12

    def test_decay_in_tap_index(self):
        values = window_taps(absorbing_params(L=11), ContinuousWindow(0.0, 0.2)).mean
        assert all(a > b for a, b in zip(values, values[1:]))


class TestPassiveProbability:
    def test_needs_passive(self, table1_absorbing):
        with pytest.raises(ValueError):
            passive_probability(table1_absorbing, 0.1)

    def test_zero_at_origin_by_convention(self, table1_passive):
        assert passive_probability(table1_passive, 0.0) == 0.0
        with pytest.raises(ValueError):
            passive_probability(table1_passive, -0.1)

    def test_decays_at_infinity(self, table1_passive):
        assert passive_probability(table1_passive, 1e9) < 1e-12

    def test_peak_location(self, table1_passive):
        grid = np.linspace(1e-4, 1.0, 50_000)
        values = passive_probability(table1_passive, grid)
        t_peak = grid[int(np.argmax(values))]
        assert t_peak == pytest.approx((1e-5) ** 2 / (6 * 80e-12), rel=1e-3)
        assert t_peak == pytest.approx(0.2083, rel=1e-3)

    def test_peak_value_against_mpmath(self, table1_passive):
        c = derived(table1_passive)
        with mpmath.workdps(50):
            d = mpmath.mpf("9e-6")
            r = mpmath.mpf("1e-6")
            diff = mpmath.mpf("80e-12")
            t = (d + r) ** 2 / (6 * diff)
            volume = 4 * mpmath.pi * r**3 / 3
            oracle = volume / (4 * mpmath.pi * diff * t) ** mpmath.mpf("1.5") * mpmath.exp(
                -((d + r) ** 2) / (4 * diff * t)
            )
        value = passive_probability(table1_passive, c.t_max)
        assert_rel(value, float(oracle), 1e-12, "p(t_max)")
        assert value == pytest.approx(3.08e-4, rel=2e-3)

    def test_unimodal(self, table1_passive):
        grid = np.linspace(1e-4, 5.0, 5000)
        diffs = np.diff(passive_probability(table1_passive, grid))
        sign_changes = np.count_nonzero(np.diff(np.sign(diffs)) != 0)
        assert sign_changes == 1

    def test_underflowed_spread_names_D(self):
        # (4 pi D t)^1.5 underflows to 0 at D = 1e-300, and V/0 * 0 is NaN
        params = replace(passive_params(T_s=1.0, L=2), D=1e-300)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match=r"D = 1e-300"):
                passive_probability(params, np.array([0.0, 0.05, 1.0]))
            assert passive_probability(params, 0.0) == 0.0

    def test_overflowing_spread_is_zero_without_warnings(self, table1_passive):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert passive_probability(replace(table1_passive, D=1e300), 1e300) == 0.0


class TestSampleProbability:
    def test_maps_to_times(self, table1_passive):
        # the per-sample table every passive tap sums is p(n t_s + i T_s)
        p = table1_passive
        table = _response_table(p, np.arange(p.N + 1, dtype=float), (0, 1, 2))
        oracle = [[sample_probability(p, n, i) for n in range(p.N + 1)] for i in (0, 1, 2)]
        np.testing.assert_allclose(table, oracle, rtol=1e-15, atol=0.0)

    def test_origin_convention(self, table1_passive):
        assert sample_probability(table1_passive, 0, 0) == 0.0

    def test_rejects_negative_indices(self, table1_passive):
        with pytest.raises(ValueError):
            sample_probability(table1_passive, -1, 0)
        with pytest.raises(ValueError):
            sample_probability(table1_passive, 0, -1)

    def test_current_tap_dominates_near_peak(self):
        params = passive_params(T_s=1.0)
        c = derived(params)
        n = round(c.t_max / params.t_s)
        assert sample_probability(params, n, 0) > sample_probability(params, n, 1)


class TestWindows:
    def test_continuous_ordering(self):
        with pytest.raises(ValueError):
            ContinuousWindow(0.2, 0.1)
        with pytest.raises(ValueError):
            ContinuousWindow(-0.1, 0.1)

    def test_sampled_ordering(self):
        with pytest.raises(ValueError):
            SampledWindow(5, 4)

    def test_full_window(self, table1_absorbing, table1_passive):
        assert full_window(table1_absorbing) == ContinuousWindow(0.0, 0.2)
        assert full_window(table1_passive) == SampledWindow(0, table1_passive.N)

    def test_window_receiver_mismatch(self, table1_absorbing, table1_passive):
        with pytest.raises(ValueError):
            window_taps(table1_absorbing, SampledWindow(0, 3))
        with pytest.raises(ValueError):
            window_taps(table1_passive, ContinuousWindow(0.0, 0.5))

    def test_window_must_fit_symbol(self, table1_absorbing, table1_passive):
        with pytest.raises(ValueError):
            window_taps(table1_absorbing, ContinuousWindow(0.0, 0.3))
        with pytest.raises(ValueError):
            window_taps(table1_passive, SampledWindow(0, table1_passive.N + 1))


class TestTapProfiles:
    def test_absorbing_taps(self, table1_absorbing):
        w = ContinuousWindow(0.03, 0.2)
        taps = window_taps(table1_absorbing, w)
        assert taps.lags == (0, 1, 2, 3, 4)
        for k in range(5):
            shift = k * table1_absorbing.T_s
            f, _ = quad(lambda t: hitting_density(table1_absorbing, t), w.t1 + shift, w.t2 + shift)
            assert taps.mean[k] == pytest.approx(f, rel=1e-8)
            assert taps.var[k] == pytest.approx(f * (1 - f), rel=1e-8)

    def test_passive_taps_sum_samples(self, table1_passive):
        w = SampledWindow(2, 9)
        taps = window_taps(table1_passive, w)
        for k in range(table1_passive.L + 1):
            oracle = sum(
                sample_probability(table1_passive, n, k) for n in range(2, 10)
            )
            assert taps.mean[k] == pytest.approx(oracle, rel=1e-12)
        assert np.all(taps.var == taps.mean)

    def test_shift_zero_matches_full_window(self, table1_absorbing):
        shifted = shift_taps(table1_absorbing, 0.0)
        base = window_taps(table1_absorbing, full_window(table1_absorbing))
        assert shifted.lags[:-1] == base.lags
        np.testing.assert_allclose(shifted.mean[:-1], base.mean, rtol=1e-14)
        # no overhang: the next symbol contributes nothing
        assert shifted.lags[-1] == -1
        assert shifted.mean[-1] == 0.0

    def test_shift_passive_counts_future(self, table1_passive):
        taps = shift_taps(table1_passive, 3 * table1_passive.t_s)
        assert taps.lags[-1] == -1
        assert taps.mean[-1] > 0.0

    def test_shift_rejects_negative(self, table1_absorbing):
        with pytest.raises(ValueError):
            shift_taps(table1_absorbing, -0.01)

    @pytest.mark.parametrize("tau", [0.0, 0.0131, 0.0371, 25 / 480])
    def test_shift_absorbing_equals_per_window_taps(self, tau):
        # each tap is the absorbed fraction of its own shifted window, the
        # overhang tap that of [0, tau] after the next release: bit for bit
        params = absorbing_params(L=5)
        taps = shift_taps(params, tau)
        own = [
            _survival(params, tau + k * params.T_s) - _survival(params, tau + params.T_s + k * params.T_s)
            for k in range(params.L + 1)
        ]
        mean = np.array(own + [_survival(params, 0.0) - _survival(params, tau)])
        assert taps.lags == (0, 1, 2, 3, 4, 5, -1)
        assert np.array_equal(taps.mean, mean)
        assert np.array_equal(taps.var, mean * (1.0 - mean))

    @pytest.mark.parametrize("samples", [0.0, 2.4, 2.5, 3.0, 4.6])
    def test_shift_passive_equals_per_window_taps(self, samples):
        # the window is the N+1 samples from round(tau/t_s); tau need not
        # fall on a sample
        params = passive_params(L=3)
        tau = samples * params.t_s
        first = int(round(tau / params.t_s))
        times = np.arange(first, first + params.N + 1, dtype=float) * params.t_s
        # the samples added one at a time in order from the first (np.cumsum;
        # Python's sum is compensated from 3.12)
        mean = np.array(
            [
                np.cumsum(passive_probability(params, np.maximum(times + k * params.T_s, 0.0)))[-1]
                for k in (0, 1, 2, 3, -1)
            ]
        )
        taps = shift_taps(params, tau)
        assert taps.lags == (0, 1, 2, 3, -1)
        assert np.array_equal(taps.mean, mean)
        assert np.array_equal(taps.var, mean)

    @pytest.mark.parametrize(
        "params",
        [
            pytest.param(absorbing_params(L=3, Q=10_000), id="absorbing"),
            pytest.param(passive_params(T_s=2.0, L=3, Q=10_000), id="passive"),
        ],
    )
    def test_shift_zero_is_the_full_window_bit_for_bit(self, params):
        # the delay tau = 0 is the full window: its taps 0..L, and with its
        # zero next-symbol tap its threshold and BER, are the full scheme's
        shifted = shift_taps(params, 0.0)
        full = window_taps(params, full_window(params))
        assert shifted.lags[:-1] == full.lags
        assert shifted.mean[:-1].tobytes() == full.mean.tobytes()
        assert shifted.var[:-1].tobytes() == full.var.tobytes()
        assert shifted.mean[-1] == 0.0
        assert repr(threshold_from_taps(params, shifted)) == repr(threshold_from_taps(params, full))
