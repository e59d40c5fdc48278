import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.optimize import minimize_scalar
from scipy.stats import norm

from mcdwin import (
    ContinuousWindow,
    EnumerationTooLarge,
    Receiver,
    SampledWindow,
    TapProfile,
    ber_from_taps,
    exhaustive_ber_search,
    optimal_threshold,
    threshold_from_taps,
    window_taps,
)
from mcdwin import reception
from mcdwin.optimizer import _window_grid
from mcdwin.reception import (
    BerSource,
    _ber_at,
    _coarse_floors,
    _gaussian_tail,
    _pair_minima,
    _sequence_stats,
    _tap_table,
    ber_floor_from_taps,
    ber_floors,
    best_thresholds,
)
from conftest import absorbing_params, passive_params


def _all_grid_taps(params, dt=None):
    """(mean, var) tap tables of every window of a search grid."""
    return _window_grid(params, dt)[-1](slice(None))


def _stats(params, taps: TapProfile):
    """mu0, var0, mu1, var1 of every ISI pattern of one profile."""
    return _sequence_stats(float(params.Q), *_tap_table(taps))


def _pe_curve(xis, mu0, var0, mu1, var1) -> np.ndarray:
    """Oracle: P_e of one set of sequences at each candidate threshold, from
    the scan's own tail sums, so its argmin compares bit for bit."""
    stats = (a[None] for a in (mu0, np.sqrt(var0), mu1, np.sqrt(var1)))
    s0, s1 = reception._tail_sums(xis, np.zeros(xis.size, dtype=int), *stats)
    return 0.5 * (s0 + s1) / mu0.size


class TestCountStats:
    """Per-pattern count statistics: bit age - 1 of a pattern index is the
    past bit ``age`` symbols old."""

    @staticmethod
    def _pattern(params, window, pattern: int):
        return tuple(float(a[pattern]) for a in _stats(params, window_taps(params, window)))

    def test_all_zero_isi(self, table1_absorbing):
        mu0, var0, mu1, _ = self._pattern(table1_absorbing, ContinuousWindow(0.0, 0.2), 0)
        assert mu0 == 0.0
        assert var0 == 0.0
        assert mu1 > 0.0

    def test_no_isi_single_term(self):
        params = absorbing_params(L=0, Q=1000)
        _, _, mu1, var1 = self._pattern(params, ContinuousWindow(0.0, 0.2), 0)
        f0 = window_taps(params, ContinuousWindow(0.0, 0.2)).mean[0]
        assert mu1 == pytest.approx(1000 * f0)
        assert var1 == pytest.approx(1000 * f0 * (1 - f0))

    def test_passive_variance_equals_mean(self, table1_passive):
        # both past bits set
        mu0, var0, mu1, var1 = self._pattern(table1_passive, SampledWindow(0, table1_passive.N), 0b11)
        assert var0 == pytest.approx(mu0)
        assert var1 == pytest.approx(mu1)

    def test_pattern_bits_are_ages(self, table1_absorbing):
        # pattern 0b0100 sets only the bit three symbols old
        params, window = table1_absorbing, ContinuousWindow(0.0, 0.2)
        taps = window_taps(params, window)
        mu0, var0, mu1, var1 = self._pattern(params, window, 0b0100)
        assert mu0 == params.Q * taps.mean[3]
        assert var0 == params.Q * taps.var[3]
        assert mu1 == mu0 + params.Q * taps.mean[0]
        assert var1 == var0 + params.Q * taps.var[0]

    def test_against_binomial_sampling(self):
        # L=1, ISI bit set: Y = B(Q, F0)*x_k + B(Q, F1)
        params = absorbing_params(L=1, Q=1000)
        window = ContinuousWindow(0.0, 0.2)
        mu0, var0, mu1, var1 = self._pattern(params, window, 1)
        taps = window_taps(params, window)
        rng = np.random.default_rng(2024)
        n = 1_000_000
        isi_draw = rng.binomial(1000, taps.mean[1], size=n)
        sig_draw = rng.binomial(1000, taps.mean[0], size=n)
        for mu, var, sample in (
            (mu0, var0, isi_draw),
            (mu1, var1, isi_draw + sig_draw),
        ):
            se_mean = math.sqrt(var / n)
            assert abs(sample.mean() - mu) <= 3 * se_mean
            # variance of the sample variance ~ 2 var^2 / n for near-Gaussian sums
            se_var = var * math.sqrt(2.0 / n)
            assert abs(sample.var() - var) <= 4 * se_var


def _mixture_oracle(mu0, sd0, mu1, sd1, xi):
    """BER by numeric integration of the Gaussian mixture densities."""
    total = 0.0
    for m, s in zip(mu0, sd0):
        if s == 0.0:
            total += 0.5 * (1.0 if xi < m else 0.0)
        else:
            val, _ = quad(norm(m, s).pdf, xi, m + 14 * s)
            total += 0.5 * val
    for m, s in zip(mu1, sd1):
        if s == 0.0:
            total += 0.5 * (0.0 if xi < m else 1.0)
        else:
            val, _ = quad(norm(m, s).pdf, min(xi, m - 14 * s) - 1.0, xi)
            total += 0.5 * val
    return total / len(mu0)


class TestAnalyticBer:
    def test_value_in_unit_interval(self, table1_absorbing):
        taps = window_taps(table1_absorbing, ContinuousWindow(0.0, 0.2))
        for xi in (0.0, 50.0, 400.0, 5000.0):
            est = ber_from_taps(table1_absorbing, taps, xi)
            assert 0.0 <= est.value <= 1.0
            assert est.source is BerSource.ANALYTICAL

    def test_zero_threshold_degenerate_indicator(self):
        # with xi = 0 the all-zero sequence term is the indicator 1{0 < mu0} = 0,
        # so the "sent 0" error comes only from ISI-active sequences
        params = absorbing_params(L=1, Q=200)
        window = ContinuousWindow(0.0, 0.2)
        taps = window_taps(params, window)
        q = float(params.Q)
        mu0 = np.array([0.0, q * taps.mean[1]])
        sd0 = np.array([0.0, math.sqrt(q * taps.var[1])])
        mu1 = mu0 + q * taps.mean[0]
        sd1 = np.sqrt(sd0**2 + q * taps.var[0])
        est = ber_from_taps(params, taps, 0.0)
        assert est.value == pytest.approx(_mixture_oracle(mu0, sd0, mu1, sd1, 0.0), abs=1e-9)

    def test_matches_integration_oracle(self):
        params = absorbing_params(L=2, Q=500)
        window = ContinuousWindow(0.02, 0.18)
        taps = window_taps(params, window)
        q = float(params.Q)
        mu0 = np.zeros(4)
        var0 = np.zeros(4)
        for i, pattern in enumerate([(0, 0), (1, 0), (0, 1), (1, 1)]):
            mu0[i] = sum(b * q * taps.mean[k + 1] for k, b in enumerate(pattern))
            var0[i] = sum(b * q * taps.var[k + 1] for k, b in enumerate(pattern))
        mu1 = mu0 + q * taps.mean[0]
        var1 = var0 + q * taps.var[0]
        xi = 55.0
        est = ber_from_taps(params, taps, xi)
        oracle = _mixture_oracle(mu0, np.sqrt(var0), mu1, np.sqrt(var1), xi)
        assert est.value == pytest.approx(oracle, rel=1e-8)

    def test_hand_computed_two_sequence_case(self):
        # mu0 in {0, a}, mu1 in {a, 2a}, equal sigmas:
        # P_e = 1/2 + (Q(xi/s) - Q((xi-2a)/s))/4
        a, s, xi = 30.0, 9.0, 22.0
        value = _ber_at(
            np.array([0.0, a]),
            np.array([s, s]),
            np.array([a, 2 * a]),
            np.array([s, s]),
            xi,
        )
        qf = lambda x: 0.5 * math.erfc(x / math.sqrt(2.0))
        hand = 0.5 + (qf(xi / s) - qf((xi - 2 * a) / s)) / 4.0
        assert value == pytest.approx(hand, abs=1e-12)

    def test_monotone_in_q(self):
        window = ContinuousWindow(0.03, 0.2)
        values = []
        for q in (100, 400, 1600, 6400):
            params = absorbing_params(L=2, Q=q)
            _, est = optimal_threshold(params, window)
            values.append(est.value)
        assert all(a > b for a, b in zip(values, values[1:]))
        assert values[-1] < 1e-6

    def test_refuses_huge_enumeration(self):
        params = absorbing_params(L=25)
        with pytest.raises(EnumerationTooLarge):
            ber_from_taps(params, window_taps(params, ContinuousWindow(0.0, 0.2)), 10.0)
        # and a threshold that is not >= 0, NaN included
        params = absorbing_params(L=2)
        taps = window_taps(params, ContinuousWindow(0.0, 0.2))
        for threshold in (-1.0, math.nan):
            with pytest.raises(ValueError, match="threshold must be >= 0"):
                ber_from_taps(params, taps, threshold)

    def test_permutation_invariance_exact(self, table1_absorbing):
        window = ContinuousWindow(0.01, 0.19)
        taps = window_taps(table1_absorbing, window)
        base = ber_from_taps(table1_absorbing, taps, 300.0).value
        for perm in ((4, 2, 1, 3), (1, 3, 2, 4), (3, 4, 1, 2)):
            shuffled = TapProfile(
                lags=(0,) + perm,
                mean=np.concatenate([[taps.mean[0]], taps.mean[list(perm)]]),
                var=np.concatenate([[taps.var[0]], taps.var[list(perm)]]),
            )
            assert ber_from_taps(table1_absorbing, shuffled, 300.0).value == base

    def test_bit_identical_repeat(self, table1_passive):
        window = SampledWindow(3, table1_passive.N)
        first = ber_from_taps(table1_passive, window_taps(table1_passive, window), 9.0).value
        second = ber_from_taps(table1_passive, window_taps(table1_passive, window), 9.0).value
        assert first == second


class TestOptimalThreshold:
    def test_zero_q_coin_flip(self):
        params = absorbing_params(L=2, Q=0)
        xi, est = optimal_threshold(params, ContinuousWindow(0.0, 0.2))
        assert xi == 0
        assert est.value == pytest.approx(0.5)

    def test_degenerate_h0_prefers_smallest_threshold(self):
        # L = 0: the "0" hypothesis is exactly zero counts, so every xi >= 0
        # rejects it perfectly and the scan settles on the smallest xi with
        # negligible miss probability
        params = absorbing_params(L=0, Q=400)
        window = ContinuousWindow(0.02, 0.2)
        xi, est = optimal_threshold(params, window)
        assert xi == 0
        assert est.value < 1e-15

    def test_two_point_case_matches_continuous_optimum(self):
        # classic symmetric two-Gaussian crossing: integer scan vs golden-section
        mu0, mu1, s = np.array([40.0]), np.array([90.0]), np.array([8.0])
        xis = np.arange(0.0, 151.0)
        curve = _pe_curve(xis, mu0, s**2, mu1, s**2)
        xi = int(np.argmin(curve))
        cont = minimize_scalar(
            lambda x: _ber_at(mu0, s, mu1, s, x),
            bounds=(0.0, 150.0),
            method="bounded",
            options={"xatol": 1e-10},
        )
        assert abs(xi - cont.x) <= 1.0
        assert cont.x == pytest.approx(65.0, abs=1e-6)

    def test_scan_matches_10x_finer_scan(self):
        params = absorbing_params(T_s=0.2, L=4, Q=500)
        window = ContinuousWindow(0.0, 0.2)
        xi, est = optimal_threshold(params, window)
        taps = window_taps(params, window)
        mu0, var0, mu1, var1 = _stats(params, taps)
        sigma_max = math.sqrt(max(var0.max(), var1.max()))
        hi = math.ceil(mu1.max()) + math.ceil(6 * sigma_max)
        fine = np.arange(0.0, hi + 0.1, 0.1)
        curve = _pe_curve(fine, mu0, var0, mu1, var1)
        fine_min = curve.min()
        assert est.value >= fine_min - 1e-15
        assert est.value == pytest.approx(fine_min, rel=1e-3)

    def test_smallest_minimizer_tie_break(self):
        # flat objective (Q = 0) must return the smallest threshold
        params = passive_params(Q=0)
        xi, _ = optimal_threshold(params, SampledWindow(0, params.N))
        assert xi == 0

    def test_deterministic(self, table1_absorbing):
        window = ContinuousWindow(0.03, 0.17)
        a = optimal_threshold(table1_absorbing, window)
        b = optimal_threshold(table1_absorbing, window)
        assert a[0] == b[0]
        assert a[1].value == b[1].value


class TestBerFloor:
    @given(
        lo=st.floats(0.0, 0.15),
        width=st.floats(0.005, 0.2),
        q=st.integers(5, 5000),
        L=st.integers(1, 6),
    )
    @settings(max_examples=40, deadline=None)
    def test_floor_is_a_lower_bound(self, lo, width, q, L):
        params = absorbing_params(L=L, Q=q)
        window = ContinuousWindow(lo, min(lo + width, 0.2))
        if window.width == 0.0:
            return
        taps = window_taps(params, window)
        floor = ber_floor_from_taps(params, taps)
        _, est = threshold_from_taps(params, taps)
        assert floor <= est.value + 1e-12

    @pytest.mark.parametrize("L", [0, 1, 4, 10])
    @pytest.mark.parametrize("receiver", ["absorbing", "passive"])
    def test_batched_floor_is_bit_identical(self, receiver, L):
        if receiver == "absorbing":
            params = absorbing_params(L=L, Q=2000)
            mean, var = _all_grid_taps(params, 0.2 / 40)
        else:
            params = passive_params(L=L, Q=2000)
            mean, var = _all_grid_taps(params)
        floors = ber_floors(float(params.Q), mean, var)
        lags = tuple(range(L + 1))
        for w in range(mean.shape[1]):
            taps = TapProfile(lags=lags, mean=mean[:, w], var=var[:, w])
            assert floors[w] == ber_floor_from_taps(params, taps)

    def test_floor_passive(self, table1_passive):
        taps = window_taps(table1_passive, SampledWindow(0, table1_passive.N))
        floor = ber_floor_from_taps(table1_passive, taps)
        _, est = threshold_from_taps(table1_passive, taps)
        assert floor <= est.value + 1e-12

    def test_floor_admits_few_losing_windows(self):
        # a floor within 2x of the BER would let ~1,300 of these windows
        # through to a threshold scan
        params = absorbing_params(L=8, Q=100)
        dt = 0.2 / 80
        mean, var = _all_grid_taps(params, dt)
        floors = ber_floors(float(params.Q), mean, var)
        best = exhaustive_ber_search(params, dt).objective_value
        assert np.count_nonzero(floors <= best) <= 400


def _scan_range(q: float, taps: TapProfile):
    mu0, var0, mu1, var1 = _sequence_stats(q, *_tap_table(taps))
    hi = math.ceil(mu1.max()) + math.ceil(6 * math.sqrt(max(var0.max(), var1.max())))
    return hi, mu0, var0, mu1, var1


def _full_curve(hi: int, mu0, var0, mu1, var1) -> np.ndarray:
    """The curve at every integer of 0..hi, a few hundred thresholds at a time."""
    xis = np.arange(0, hi + 1)
    return np.concatenate(
        [_pe_curve(xis[i : i + 512], mu0, var0, mu1, var1) for i in range(0, xis.size, 512)]
    )


def _full_scan(params, taps: TapProfile) -> tuple[int, float]:
    """Reference: argmin of the curve at every integer of the scan range."""
    hi, mu0, var0, mu1, var1 = _scan_range(float(params.Q), taps)
    xi = int(np.argmin(_full_curve(hi, mu0, var0, mu1, var1)))
    return xi, _ber_at(mu0, np.sqrt(var0), mu1, np.sqrt(var1), float(xi))


DEEP_TAIL_WINDOW = ContinuousWindow(0.03, 0.16)


class TestDeepTail:
    """Q = 1e5: the optimum lies far below 1e-16, where 1 - tail is noise."""

    @staticmethod
    def _mp_ber(mu0, var0, mu1, var1, xi: int):
        x = mpmath.mpf(xi)
        total = mpmath.mpf(0)

        def twice_tail(gap, var, limit: bool):
            # 2 Q(gap / sd), or twice its indicator limit where sd = 0
            if var == 0.0:
                return 2 * int(limit)
            return mpmath.erfc(gap / mpmath.sqrt(2 * mpmath.mpf(var)))

        for m0, v0, m1, v1 in zip(mu0, var0, mu1, var1):
            # both tails directly, in 50-digit arithmetic
            total += twice_tail(x - mpmath.mpf(m0), v0, xi < m0)
            total += twice_tail(mpmath.mpf(m1) - x, v1, xi >= m1)
        return total / (4 * len(mu0))

    @pytest.mark.parametrize("L, expected_xi", [(4, 12486), (8, 13862)])
    def test_matches_mpmath_oracle(self, L, expected_xi):
        params = absorbing_params(L=L, Q=100_000)
        xi, est = optimal_threshold(params, DEEP_TAIL_WINDOW)
        assert xi == expected_xi
        taps = window_taps(params, DEEP_TAIL_WINDOW)
        stats = _stats(params, taps)
        with mpmath.workdps(50):
            exact = self._mp_ber(*stats, xi)
            assert est.value == pytest.approx(float(exact), rel=1e-12)
            assert exact < self._mp_ber(*stats, xi - 1)
            assert exact < self._mp_ber(*stats, xi + 1)
        if L == 4:
            assert est.value == pytest.approx(1.157e-113, rel=1e-3)

    def test_scan_width_is_far_below_the_range(self, monkeypatch):
        # count the thresholds the scan evaluates (work, not time)
        params = absorbing_params(L=4, Q=100_000)
        taps = window_taps(params, DEEP_TAIL_WINDOW)
        evaluated = []
        tail_sums = reception._tail_sums

        def counting(xis, *args):
            evaluated.append(xis.size)
            return tail_sums(xis, *args)

        monkeypatch.setattr(reception, "_tail_sums", counting)
        xi, est = threshold_from_taps(params, taps)
        monkeypatch.undo()
        hi = _scan_range(float(params.Q), taps)[0]
        assert sum(evaluated) <= 0.1 * (hi + 1)
        assert (xi, est.value) == _full_scan(params, taps)


class TestUnderflowedBer:
    """BERs below ~1e-308 are exactly 0, so every threshold of a zero
    plateau ties; the scan must still return its smallest threshold."""

    @pytest.mark.parametrize("L, t1", [(1, 0.025), (2, 0.0275)])
    def test_smallest_threshold_of_the_zero_plateau(self, monkeypatch, L, t1):
        params = absorbing_params(L=L, Q=100_000)
        taps = window_taps(params, ContinuousWindow(t1, 0.2))
        evaluated = []
        tail_sums = reception._tail_sums

        def counting(xis, *args):
            evaluated.append(xis.size)
            return tail_sums(xis, *args)

        monkeypatch.setattr(reception, "_tail_sums", counting)
        xi, est = threshold_from_taps(params, taps)
        monkeypatch.undo()
        assert est.value == 0.0
        assert (xi, est.value) == _full_scan(params, taps)
        hi = _scan_range(float(params.Q), taps)[0]
        assert sum(evaluated) <= 4 * math.log2(hi) + 16

    def test_plateau_windows_share_their_rounds(self, monkeypatch):
        # 1,347 of these windows underflow to a zero BER; scanned one at a
        # time, their plateau bisections take ~10,000 tail calls
        calls = []
        tail_sums = reception._tail_sums

        def counting(xis, *args):
            calls.append(xis.size)
            return tail_sums(xis, *args)

        monkeypatch.setattr(reception, "_tail_sums", counting)
        res = exhaustive_ber_search(absorbing_params(L=1, Q=100_000), dt=0.2 / 80)
        assert (res.window, res.objective_value) == (ContinuousWindow(0.0, 0.2), 0.0)
        assert len(calls) <= 500


def _random_taps(rng, params) -> TapProfile:
    """Taps of a random window over the whole symbol, some taps zeroed or made noiseless."""
    if params.receiver is Receiver.ABSORBING:
        lo = rng.uniform(0.0, 0.19)
        window = ContinuousWindow(lo, rng.uniform(lo + 0.005, 0.2))
    else:
        n1, n2 = sorted(int(n) for n in rng.integers(0, params.N + 1, size=2))
        window = SampledWindow(n1, n2)
    taps = window_taps(params, window)
    mean = taps.mean.copy()
    var = taps.var.copy()
    modes = rng.choice(["keep", "zero", "noiseless"], size=params.L + 1, p=[0.6, 0.2, 0.2])
    for j, mode in enumerate(modes):
        if mode != "keep":
            var[j] = 0.0
        if mode == "zero":
            mean[j] = 0.0
    return TapProfile(lags=taps.lags, mean=mean, var=var)


@st.composite
def _tap_profiles(draw, max_L: int = 8):
    """Absorbing or passive window taps (see ``_random_taps``).

    The profile comes from a drawn seed, so Q spreads log-uniformly over
    [1, 1e5] (plus Q = 0), L over 0..max_L and windows over the whole symbol.
    """
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    L = int(rng.integers(0, max_L + 1))
    Q = 0 if rng.random() < 0.1 else round(10.0 ** rng.uniform(0.0, 5.0))
    params = (absorbing_params if rng.random() < 0.5 else passive_params)(L=L, Q=Q)
    return params, _random_taps(rng, params)


@st.composite
def _tap_blocks(draw):
    """One to six random window taps of one system, L in 0..10 and Q = 0,
    1e5 or log-uniform over [1, 1e5]."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    L = int(rng.integers(0, 11))
    Q = int(rng.choice([0, 100_000, round(10.0 ** rng.uniform(0.0, 5.0))], p=[0.15, 0.15, 0.7]))
    params = (absorbing_params if rng.random() < 0.5 else passive_params)(L=L, Q=Q)
    return params, [_random_taps(rng, params) for _ in range(int(rng.integers(1, 7)))]


class TestFloorBound:
    @given(case=_tap_profiles(max_L=10))
    @settings(max_examples=200, deadline=None)
    def test_floor_is_below_the_full_range_minimum(self, case):
        params, taps = case
        hi, *stats = _scan_range(float(params.Q), taps)
        assert ber_floor_from_taps(params, taps) <= _full_curve(hi, *stats).min() * (1.0 + 1e-9)


class TestCascadedBounds:
    @given(case=_tap_profiles(max_L=10))
    @settings(max_examples=400, deadline=None)
    def test_both_bounds_are_below_the_full_range_minimum(self, case):
        params, taps = case
        hi, *stats = _scan_range(float(params.Q), taps)
        least = _full_curve(hi, *stats).min() * (1.0 + 1e-9)
        mean, var = _tap_table(taps)
        assert ber_floor_from_taps(params, taps) <= least
        assert _coarse_floors(float(params.Q), mean[:, None], var[:, None])[0] <= least

    @pytest.mark.parametrize(
        "mu0, var0, mu1, var1",
        [(3.0, 3.0, 9.0, 3.0), (40.0, 30.0, 60.0, 8.0), (5.0, 2.0, 30.0, 25.0), (100.0, 90.0, 1400.0, 1300.0)],
    )
    def test_pair_term_is_the_pair_minimum(self, mu0, var0, mu1, var1):
        # one complement pair's term is its minimum over every real threshold,
        # against a bounded minimization of the log error in [mu0, mu1]
        sd0, sd1 = math.sqrt(var0), math.sqrt(var1)

        def log_errors(x):
            return np.logaddexp(norm.logsf(x, mu0, sd0), norm.logcdf(x, mu1, sd1))

        least = minimize_scalar(log_errors, bounds=(mu0, mu1), method="bounded", options={"xatol": 1e-9})
        term = _pair_minima(np.array([mu1 - mu0]), np.array([var0]), np.array([var1]))[0]
        assert math.log(term) <= least.fun
        assert math.log(term) == pytest.approx(least.fun, rel=1e-9)

    _variances = st.one_of(
        st.just(0.0), st.floats(1e-320, 1e8, allow_subnormal=True), st.floats(1e-3, 1e4)
    )

    @given(mu0=st.floats(0, 1e5), gap=st.floats(-5, 2e3), var0=_variances, var1=_variances)
    @settings(max_examples=300, deadline=None)
    def test_pair_term_is_below_the_pair_errors_everywhere(self, mu0, gap, var0, var1):
        # extreme and subnormal variances included: the term stays in
        # [0, 1/2] and below both error tails at any threshold
        mu1 = mu0 + gap
        term = _pair_minima(np.array([mu1 - mu0]), np.array([var0]), np.array([var1]))[0]
        assert 0.0 <= term <= 0.5
        lo, hi = min(mu0, mu1), max(mu0, mu1)
        x = np.concatenate((np.linspace(lo, hi, 401), [lo - 1.0, hi + 1.0]))
        sd0, sd1 = math.sqrt(var0), math.sqrt(var1)
        miss0 = norm.sf(x, mu0, sd0) if sd0 > 0.0 else (x < mu0).astype(float)
        miss1 = norm.cdf(x, mu1, sd1) if sd1 > 0.0 else (x >= mu1).astype(float)
        assert term <= (miss0 + miss1).min() * (1.0 + 1e-9)

    def test_coarse_bound_is_below_every_floor(self):
        params = passive_params(T_s=2.0, L=10, Q=1000)
        mean, var = _all_grid_taps(params)
        floors = ber_floors(float(params.Q), mean, var)
        coarse = _coarse_floors(float(params.Q), mean, var)
        assert np.all(coarse <= floors * (1.0 + 1e-12))


def _scan_against(params, taps, beat):
    """One-column ``best_thresholds`` against the incumbent BER ``beat``:
    the threshold and its BER, +inf for a window that loses."""
    mean, var = _tap_table(taps)
    xis, values = best_thresholds(float(params.Q), mean[:, None], var[:, None], beat)
    return int(xis[0]), float(values[0])


class TestBoundedScan:
    @given(case=_tap_profiles())
    @settings(max_examples=400, deadline=None)
    def test_equals_full_range_scan(self, case):
        params, taps = case
        xi, est = threshold_from_taps(params, taps)
        assert (xi, est.value) == _full_scan(params, taps)

    @given(case=_tap_profiles(max_L=10), log2_factor=st.none() | st.floats(-1.0, 1.0))
    @settings(max_examples=300, deadline=None)
    def test_beat_gives_up_only_on_a_losing_window(self, case, log2_factor):
        params, taps = case
        xi, est = threshold_from_taps(params, taps)
        beat = math.inf if log2_factor is None else est.value * 2.0**log2_factor
        found_xi, found = _scan_against(params, taps, beat)
        if found == math.inf:
            assert est.value > beat
        else:
            assert (found_xi, found) == (xi, est.value)

    @given(case=_tap_blocks(), log2_factor=st.none() | st.floats(-1.0, 1.0))
    @settings(max_examples=300, deadline=None)
    def test_block_equals_one_column_scans(self, case, log2_factor):
        # the lockstep scan of a block gives each column its one-column
        # result, or +inf where the column loses to the incumbent, which
        # starts at beat and falls to the least value in the block
        params, columns = case
        alone = [threshold_from_taps(params, taps) for taps in columns]
        least = min(est.value for _, est in alone)
        beat = math.inf if log2_factor is None else least * 2.0**log2_factor
        mean, var = (np.stack(table, axis=1) for table in zip(*map(_tap_table, columns)))
        xis, values = best_thresholds(float(params.Q), mean, var, beat)
        limit = min(beat, least) * (1.0 + 1e-9)
        for (xi, est), found_xi, found in zip(alone, xis, values):
            if found == math.inf:
                assert est.value > limit
            else:
                assert (int(found_xi), found.hex()) == (xi, est.value.hex())

    def test_block_of_wide_ranges_equals_one_column_scans(self, monkeypatch):
        # 64 columns of ranges ~8e14: column * range + threshold passes 2^53,
        # so a scan that sorts its points by that key stops telling
        # neighbouring thresholds apart and never ends
        params = absorbing_params(L=1, Q=10**15)
        rng = np.random.default_rng(5)
        signal = rng.uniform(0.3, 0.4, 64)
        mean = np.vstack((signal, signal - rng.uniform(5e-8, 1e-7, 64)))
        var = mean * (1.0 - mean)
        alone = [threshold_from_taps(params, TapProfile((0, 1), mean[:, c], var[:, c])) for c in range(64)]
        least = min(est.value for _, est in alone)
        assert least > 0.0
        tail_sums = reception._tail_sums
        evaluated = []

        def counting(xis, *args):
            evaluated.append(xis.size)
            assert sum(evaluated) <= 100_000, "the lockstep scan does not end"
            return tail_sums(xis, *args)

        monkeypatch.setattr(reception, "_tail_sums", counting)
        xis, values = best_thresholds(float(params.Q), mean, var)
        for (xi, est), found_xi, found in zip(alone, xis, values):
            if found == math.inf:
                assert est.value > least * (1.0 + 1e-9)
            else:
                assert (int(found_xi), found.hex()) == (xi, est.value.hex())

    def test_range_past_2_53_refused_before_any_tail(self, monkeypatch):
        # the range [0, max mu1 + 6 sigma] of this window at Q = 5e16 is ~1.1e16
        params = absorbing_params(L=2, Q=5 * 10**16)
        monkeypatch.setattr(reception, "_tail_sums", None)
        with pytest.raises(EnumerationTooLarge, match=r"threshold range \[0, 1\d{16}\] passes 2\^53"):
            optimal_threshold(params, ContinuousWindow(0.03, 0.16))

    @pytest.mark.parametrize("L, Q", [(8, 100), (8, 10_000), (4, 100_000)])
    def test_losing_window_costs_log_range(self, monkeypatch, L, Q):
        # count the thresholds a scan spends on windows that lose to the
        # optimum by 20% or more (work, not time)
        params = absorbing_params(L=L, Q=Q)
        dt = 0.2 / 40
        best = exhaustive_ber_search(params, dt).objective_value
        mean, var = _all_grid_taps(params, dt)
        tail_sums = reception._tail_sums
        checked = 0
        for w in range(0, mean.shape[1], 5):
            taps = TapProfile(lags=tuple(range(L + 1)), mean=mean[:, w], var=var[:, w])
            if threshold_from_taps(params, taps)[1].value < 1.2 * best:
                continue
            evaluated = []

            def counting(xis, *args):
                evaluated.append(xis.size)
                return tail_sums(xis, *args)

            monkeypatch.setattr(reception, "_tail_sums", counting)
            assert _scan_against(params, taps, best)[1] == math.inf
            monkeypatch.undo()
            hi = _scan_range(float(params.Q), taps)[0]
            assert sum(evaluated) <= math.log2(hi) + 2
            checked += 1
        assert checked >= 100


def test_q_function_basics():
    # the Gaussian tail Q(x), computed in place in its float array
    z = np.array([0.0, 9.0, -2.0])
    out = _gaussian_tail(z)
    assert out is z
    assert out[0] == pytest.approx(0.5)
    assert out[1] == pytest.approx(norm.sf(9.0), rel=1e-12)
    assert out[2] == pytest.approx(norm.sf(-2.0), rel=1e-15)
