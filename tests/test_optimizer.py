import math
import tracemalloc
import types
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq
from scipy.special import erf

from mcdwin import (
    Branch,
    ContinuousWindow,
    DegenerateWindow,
    DomainError,
    EnumerationTooLarge,
    Metric,
    Method,
    Receiver,
    Regime,
    SampledWindow,
    Scheme,
    SymbolTooShort,
    SystemParams,
    closed_form_interval,
    derived,
    exhaustive_ber_search,
    full_window,
    hitting_density,
    numeric_metric_search,
    optimal_threshold,
    passive_probability,
    prop1_interval,
    prop2_interval,
    prop3_interval,
    prop4_interval,
    q_hat,
    regime_q_hat,
    select_window,
    shift_taps,
    shift_tau_search,
    threshold_from_taps,
    window_taps,
)
from mcdwin import metrics, optimizer, reception
from mcdwin.reception import BerEstimate, BerSource
from mcdwin.channel import _response_table
from mcdwin.optimizer import _argbest, _start_time
from conftest import absorbing_params, passive_params, assert_rel

D_ABS, R_ABS, DIFF = 5e-6, 5e-6, 80e-12
M2 = D_ABS**2 / (4 * DIFF)  # 0.078125 s


# ---------------------------------------------------------------------------
# Independent reimplementation of the closed-form machinery (oracle code)
# ---------------------------------------------------------------------------


def _h(params, t):
    d, r, D = params.d, params.r, params.D
    return r / (d + r) * d / math.sqrt(4 * math.pi * D * t**3) * math.exp(
        -(d**2) / (4 * D * t)
    )


def _p(params, t):
    if t <= 0:
        return 0.0
    d, r, D = params.d, params.r, params.D
    V = 4 / 3 * math.pi * r**3
    return V / (4 * math.pi * D * t) ** 1.5 * math.exp(-((d + r) ** 2) / (4 * D * t))


def _oracle_t1(m2, T_s, ln_ratio):
    return 28 * m2 * T_s / (120 * T_s - 28 * T_s * ln_ratio - 74 * m2)


def _oracle_end(m2, T_s, ln_v):
    M = m2 / T_s
    gamma = 2 * ln_v + M - 6
    delta1 = ln_v**2 * (
        (3 * gamma - 18 * M) ** 2
        - (12 * gamma / ln_v - 36) * (gamma**2 - 18 * M * ln_v)
    )
    delta2 = (M - 6) ** 2 + 4 * ln_v**2 - (20 * M + 24) * ln_v
    if delta1 < 0:
        s1 = complex(
            -(81 / ln_v + 27 * M / (2 * ln_v)), math.sqrt(-9 * delta1) / (2 * ln_v**2)
        )
        x = (-3 + 2 * (s1 ** (1 / 3)).real) / 3
    elif delta2 >= 0:
        x = (-gamma + math.sqrt(delta2)) / (6 * ln_v)
    else:
        x = -gamma / (6 * ln_v)
    return x, gamma, delta1, delta2


def _oracle_cond(m2, T_s, L, scale=1.0):
    total = sum(
        (1 + k) ** -1.5 * math.exp(k / (1 + k) * m2 / T_s) for k in range(1, L + 1)
    )
    return scale * total <= 1.0


def _oracle_prop2(params):
    c = derived(params)
    m2 = c.m**2
    t1_hat = _oracle_t1(m2, params.T_s, 0.0)
    ratio_i = sum(
        _h(params, k * params.T_s + t1_hat) for k in range(1, params.L + 1)
    ) / _h(params, params.T_s + t1_hat)
    t1 = _oracle_t1(m2, params.T_s, math.log(ratio_i))
    if _oracle_cond(m2, params.T_s, params.L):
        return t1, params.T_s, ratio_i, None, None
    t2_hat = 0.5 * (c.t_max + params.T_s)
    ratio_v = sum(
        _h(params, k * params.T_s + t2_hat) for k in range(1, params.L + 1)
    ) / _h(params, params.T_s + t2_hat)
    x, gamma, d1, d2 = _oracle_end(m2, params.T_s, math.log(ratio_v))
    t2 = min(x * params.T_s, params.T_s)
    return t1, t2, ratio_i, ratio_v, (gamma, d1, d2)


def _oracle_g(params, q):
    if params.receiver is Receiver.ABSORBING:
        d, r, D, T = params.d, params.r, params.D, params.T_s
        surv = lambda t: r / (d + r) * (1.0 if t == 0 else erf(d / math.sqrt(4 * D * t)))
        f_now = surv(0.0) - surv(T)
        f_prev = surv(T) - surv(2 * T)
        a1 = math.sqrt((1 - f_now) / f_now)
        a2 = math.sqrt((1 - f_prev) / f_prev)
    else:
        rate0 = sum(_p(params, n * params.t_s) for n in range(params.N + 1))
        rate1 = sum(_p(params, n * params.t_s + params.T_s) for n in range(params.N + 1))
        a1, a2 = 1 / math.sqrt(rate0), 1 / math.sqrt(rate1)
    return (math.sqrt(q) + math.sqrt(2) * a2) / (math.sqrt(q) - math.sqrt(2) * a1)


class TestProp1:
    def test_table1_arithmetic(self):
        p = absorbing_params(T_s=0.2, L=1)
        res = prop1_interval(p)
        assert res.window.t1 == pytest.approx(0.4375 / 18.21875, rel=1e-12)
        assert res.window.t1 == pytest.approx(0.02401, rel=1e-3)
        assert res.window.t2 == p.T_s
        assert res.method is Method.PROP1

    @pytest.mark.parametrize("T_s", [0.2, 0.3])
    def test_start_below_peak(self, T_s):
        p = absorbing_params(T_s=T_s, L=1)
        res = prop1_interval(p)
        assert 0.0 < res.window.t1 < derived(p).t_max

    def test_long_symbol_limit(self):
        p = absorbing_params(T_s=1e6, L=1)
        res = prop1_interval(p)
        assert res.window.t1 == pytest.approx(28 * M2 / 120, rel=1e-5)

    def test_short_symbol_rejected(self):
        # denominator 120*T_s - 74*m^2 <= 0
        p = absorbing_params(T_s=74 * M2 / 120, L=1)
        with pytest.raises(SymbolTooShort):
            prop1_interval(p)

    def test_against_pade_quartic_root(self):
        # the same Pade substitutions without the linear truncation give
        # 15*T x^4 + 6*T x^3 + (51*T - 15*m2) x^2 + (60*T - 37*m2) x - 14*m2 = 0
        # in x = t1/T_s; the truncated solution sits ~11% above its root
        T_s = 0.2
        p = absorbing_params(T_s=T_s, L=1)
        res = prop1_interval(p)
        poly = lambda x: (
            15 * T_s * x**4
            + 6 * T_s * x**3
            + (51 * T_s - 15 * M2) * x**2
            + (60 * T_s - 37 * M2) * x
            - 14 * M2
        )
        root = brentq(poly, 1e-6, 1.0)
        assert_rel(res.window.t1 / T_s, root, 0.15, "prop1 vs quartic root")

    def test_wrong_shape_rejected(self):
        with pytest.raises(ValueError):
            prop1_interval(absorbing_params(L=2))
        with pytest.raises(ValueError):
            prop1_interval(passive_params(L=1))


class TestProp2:
    def test_unit_ratio_reduces_to_prop1(self):
        p = absorbing_params(T_s=0.2, L=1)
        p1 = prop1_interval(p)
        m2 = derived(p).m ** 2
        assert _start_time(m2, 0.2, math.log(1.0)) == p1.window.t1

    @pytest.mark.parametrize("T_s,L", [(0.2, 4), (0.2, 5), (0.2, 8), (0.3, 6)])
    def test_matches_independent_reimplementation(self, T_s, L):
        p = absorbing_params(T_s=T_s, L=L)
        res = prop2_interval(p)
        t1, t2, ratio_i, ratio_v, disc = _oracle_prop2(p)
        inter = res.intermediates
        assert res.window.t1 == pytest.approx(t1, rel=1e-12)
        assert res.window.t2 == pytest.approx(t2, rel=1e-12)
        assert inter.i_ratio == pytest.approx(ratio_i, rel=1e-12)
        if ratio_v is None:
            assert inter.branch is Branch.COND_TS
        else:
            assert inter.v_ratio == pytest.approx(ratio_v, rel=1e-12)
            gamma, d1, d2 = disc
            assert inter.gamma == pytest.approx(gamma, rel=1e-12)
            assert inter.delta1 == pytest.approx(d1, rel=1e-12)
            assert inter.delta2 == pytest.approx(d2, rel=1e-12)

    # measured gaps between the Pade closed form and the exact density
    # crossings; the looser cells reflect the source approximations, see
    # the acceptance suite for the full fidelity map
    @pytest.mark.parametrize(
        "T_s,L,tol1,tol2",
        [
            (0.2, 4, 0.12, None),
            (0.2, 5, 0.09, 0.12),
            (0.2, 6, 0.07, 0.25),
            (0.2, 8, 0.04, 0.38),
            (0.3, 6, 0.24, 0.08),
            (0.3, 8, 0.23, 0.21),
        ],
    )
    def test_against_bisection_roots(self, T_s, L, tol1, tol2):
        p = absorbing_params(T_s=T_s, L=L)
        c = derived(p)
        res = prop2_interval(p)

        def crossing(t):
            return hitting_density(p, t) - sum(
                hitting_density(p, k * T_s + t) for k in range(1, L + 1)
            )

        root1 = brentq(crossing, 1e-9, c.t_max, xtol=1e-14)
        assert_rel(res.window.t1, root1, tol1, "prop2 t1 vs bisection")
        if tol2 is not None:
            assert crossing(T_s) < 0
            root2 = brentq(crossing, c.t_max, T_s, xtol=1e-14)
            assert_rel(res.window.t2, root2, tol2, "prop2 t2 vs bisection")

    @pytest.mark.parametrize("T_s,L", [(0.2, 5), (0.2, 6), (0.2, 8), (0.3, 6), (0.3, 8)])
    def test_branch_sign_matches_exact_discriminant(self, T_s, L):
        """sign(delta1) agrees with the root-based cubic discriminant."""
        p = absorbing_params(T_s=T_s, L=L)
        inter = prop2_interval(p).intermediates
        assert inter.branch is not Branch.COND_TS
        ln_v = math.log(inter.v_ratio)
        M = M2 / T_s
        roots = np.roots([ln_v, 3 * ln_v, 2 * ln_v + M - 6, 2 * M])
        disc = ln_v**4
        for i in range(3):
            for j in range(i + 1, 3):
                disc *= (roots[i] - roots[j]) ** 2
        disc = disc.real  # conjugate pairs leave a real product
        assert (inter.delta1 >= 0) == (disc >= 0)

    def test_needs_multiple_taps(self):
        with pytest.raises(ValueError):
            prop2_interval(absorbing_params(L=1))


class TestProp3:
    def test_reduces_to_prop2_when_g_is_one(self):
        # a huge injected q_hat drives the inflation factor to 1; the windows
        # then differ only through the re-anchored ISI ratios (the high-count
        # form anchors at the low-count window rather than the L=1 start), a
        # ~3e-3 relative shift at this configuration
        p = absorbing_params(T_s=0.2, L=4, Q=10**16)
        res2 = prop2_interval(p)
        res3 = prop3_interval(p, q_hat=10**15)
        assert res3.window.t1 == pytest.approx(res2.window.t1, rel=1e-2)
        assert res3.window.t2 == pytest.approx(res2.window.t2, rel=2e-2)
        # with matched anchors the substitution identity is exact
        m2 = derived(p).m ** 2
        ratio = res2.intermediates.i_ratio
        assert _start_time(m2, p.T_s, math.log(ratio * 1.0)) == res2.window.t1

    @pytest.mark.parametrize("T_s,L", [(0.2, 1), (0.2, 4), (0.3, 5)])
    def test_start_not_earlier_than_low_count_regime(self, T_s, L):
        p = absorbing_params(T_s=T_s, L=L, Q=10**7)
        below = prop1_interval(p) if L == 1 else prop2_interval(p)
        above = prop3_interval(p)
        assert above.window.t1 >= below.window.t1
        assert above.intermediates.regime is Regime.ABOVE_QHAT

    def test_rejects_low_count_regime(self):
        p = absorbing_params(T_s=0.2, L=4, Q=100)
        with pytest.raises(ValueError):
            prop3_interval(p)

    def test_full_pipeline_against_independent_reimplementation(self):
        p = absorbing_params(T_s=0.3, L=5, Q=10**6)
        res = prop3_interval(p)

        # oracle: below-regime window, q_hat there, inflated ratios
        t1_sub, t2_sub, _, _, _ = _oracle_prop2(p)
        surv = lambda t: p.r / (p.d + p.r) * (
            1.0 if t == 0 else erf(p.d / math.sqrt(4 * p.D * t))
        )
        fracs = [
            surv(t1_sub + k * p.T_s) - surv(t2_sub + k * p.T_s)
            for k in range(0, p.L + 1)
        ]
        margin = fracs[0] - sum(fracs[1:])
        noise = sum(math.sqrt(f * (1 - f)) for f in fracs)
        qh = math.ceil(2 * (noise / margin) ** 2)
        g = _oracle_g(p, _oracle_g(p, qh) * qh)

        c = derived(p)
        m2 = c.m**2
        t1_anchor, t2_anchor = t1_sub, 0.5 * (t2_sub + c.t_max)
        ratio_i = sum(
            _h(p, k * p.T_s + t1_anchor) for k in range(1, p.L + 1)
        ) / _h(p, p.T_s + t1_anchor)
        t1 = _oracle_t1(m2, p.T_s, math.log(ratio_i * g))
        assert not _oracle_cond(m2, p.T_s, p.L, scale=g)
        ratio_v = sum(
            _h(p, k * p.T_s + t2_anchor) for k in range(1, p.L + 1)
        ) / _h(p, p.T_s + t2_anchor)
        x, gamma, d1, d2 = _oracle_end(m2, p.T_s, math.log(ratio_v * g))

        assert regime_q_hat(p) == qh
        assert res.window.t1 == pytest.approx(t1, rel=1e-10)
        assert res.window.t2 == pytest.approx(x * p.T_s, rel=1e-10)
        inter = res.intermediates
        assert inter.gamma == pytest.approx(gamma, rel=1e-10)
        assert inter.delta1 == pytest.approx(d1, rel=1e-10)
        assert inter.delta2 == pytest.approx(d2, rel=1e-10)

    def test_near_numeric_high_count_objective(self):
        # the closed form approximates the regime-clamped mSINAR argmax;
        # measured gaps at this configuration: |dt1| ~ 4.0e-3, |dt2| ~ 5.7e-2
        p = absorbing_params(T_s=0.3, L=5, Q=10**6)
        res = prop3_interval(p)
        num = numeric_metric_search(p, Metric.MSINAR)
        assert abs(res.window.t1 - num.window.t1) < 0.006
        assert abs(res.window.t2 - num.window.t2) < 0.08
        # and the BER cost of the gap stays small
        _, ber_cf = optimal_threshold(replace(p, Q=2000), res.window)
        _, ber_num = optimal_threshold(replace(p, Q=2000), num.window)
        assert ber_cf.value <= 2.0 * ber_num.value


class TestProp4:
    def test_l1_structural_formula(self):
        p = passive_params(T_s=1.0, L=1, Q=100)  # low-count regime
        res = prop4_interval(p)
        m2 = derived(p).m_hat ** 2
        n1 = math.ceil(28 * m2 * p.T_s / ((120 * p.T_s - 74 * m2) * p.t_s))
        assert res.window == SampledWindow(n1, p.N)
        assert res.method is Method.PROP4

    def test_matches_independent_reimplementation(self):
        p = passive_params(T_s=1.0, L=2, Q=500)
        res = prop4_interval(p)
        m2 = derived(p).m_hat ** 2
        n1_hat = math.ceil(_oracle_t1(m2, p.T_s, 0.0) / p.t_s)
        ratio_w = sum(
            _p(p, n1_hat * p.t_s + k * p.T_s) for k in range(1, p.L + 1)
        ) / _p(p, n1_hat * p.t_s + p.T_s)
        n1 = math.ceil(_oracle_t1(m2, p.T_s, math.log(ratio_w)) / p.t_s)
        assert _oracle_cond(m2, p.T_s, p.L)
        assert res.window == SampledWindow(n1, p.N)
        assert res.intermediates.w_ratio == pytest.approx(ratio_w, rel=1e-12)

    def test_start_against_bisection(self):
        p = passive_params(T_s=1.0, L=2, Q=500)
        res = prop4_interval(p)

        def crossing(u):
            return passive_probability(p, u) - sum(
                passive_probability(p, u + k * p.T_s) for k in range(1, p.L + 1)
            )

        root = brentq(crossing, 1e-6, derived(p).t_max, xtol=1e-14)
        assert abs(res.window.n1 - math.ceil(root / p.t_s)) <= 1

    @pytest.mark.parametrize("T_s,L", [(1.0, 2), (1.0, 3), (2.0, 5)])
    def test_end_at_last_sample_when_condition_holds(self, T_s, L):
        p = passive_params(T_s=T_s, L=L, Q=100)
        m2 = derived(p).m_hat ** 2
        assert _oracle_cond(m2, T_s, L)
        res = prop4_interval(p)
        assert res.window.n2 == p.N
        assert res.intermediates.branch is Branch.COND_TS

    def test_high_count_regime_shrinks_window(self):
        p = passive_params(T_s=1.0, L=5, Q=500)
        below = prop4_interval(p)
        qh = regime_q_hat(p)
        above = prop4_interval(replace(p, Q=10 * qh))
        assert above.intermediates.regime is Regime.ABOVE_QHAT
        assert below.intermediates.regime is Regime.BELOW_QHAT
        assert above.window.n1 >= below.window.n1
        assert above.window.n2 <= below.window.n2
        assert 0 <= above.window.n1 <= above.window.n2 <= p.N

    def test_needs_passive(self):
        with pytest.raises(ValueError):
            prop4_interval(absorbing_params(L=2))


class TestClosedFormDispatch:
    def test_absorbing_regimes(self):
        low = closed_form_interval(absorbing_params(T_s=0.2, L=4, Q=100))
        assert low.method is Method.PROP2
        high = closed_form_interval(absorbing_params(T_s=0.2, L=4, Q=2000))
        assert high.method is Method.PROP3
        single = closed_form_interval(absorbing_params(T_s=0.2, L=1, Q=50))
        assert single.method is Method.PROP1

    def test_underflowed_isi_ratio_names_the_symbol_time(self):
        # at T_s = 1e300 the density one symbol back underflows to 0, and the
        # ISI ratio sum would be 0/0
        with pytest.raises(DomainError, match=r"T_s = 1e\+300"):
            closed_form_interval(absorbing_params(T_s=1e300, L=4, Q=100))

    def test_passive_dispatch(self, table1_passive):
        res = closed_form_interval(table1_passive)
        assert res.method is Method.PROP4

    def test_regime_continuity_audit(self, capsys):
        # the source acknowledges a window jump at the regime boundary; it is
        # reported, not asserted
        p = absorbing_params(T_s=0.2, L=4, Q=100)
        qh = regime_q_hat(p)
        below = closed_form_interval(replace(p, Q=qh - 1))
        above = closed_form_interval(replace(p, Q=qh))
        jump_t1 = abs(above.window.t1 - below.window.t1)
        jump_t2 = abs(above.window.t2 - below.window.t2)
        print(
            f"regime-boundary window jump at q_hat={qh}: "
            f"dt1={jump_t1:.5f}s dt2={jump_t2:.5f}s"
        )
        assert above.method is Method.PROP3
        assert below.method is Method.PROP2

    def test_cubic_branch_reachable(self):
        # fuzz-located configuration whose end-time cubic has delta1 < 0
        p = SystemParams(
            d=1.71e-5, r=1.04e-5, D=1.39e-10, T_s=0.814, L=21, Q=970,
            receiver=Receiver.ABSORBING,
        )
        res = closed_form_interval(p)
        inter = res.intermediates
        assert inter.branch is Branch.CUBIC_NEG_DISC
        assert inter.delta1 < 0
        assert inter.s1 is not None and inter.s2 is not None
        assert inter.s1 == inter.s2.conjugate()
        assert 0 <= res.window.t1 < res.window.t2 <= p.T_s

    def test_quad_neg_branch_reachable(self):
        p = SystemParams(
            d=1.4e-5, r=1.34e-5, D=1.16e-10, T_s=0.837, L=10, Q=23,
            receiver=Receiver.ABSORBING,
        )
        res = closed_form_interval(p)
        assert res.intermediates.branch is Branch.QUAD_NEG_DISC
        assert res.intermediates.delta1 >= 0 > res.intermediates.delta2


class TestBranchFuzz:
    @given(
        d=st.floats(1e-6, 2e-5),
        r=st.floats(1e-6, 2e-5),
        log_diff=st.floats(-12, -9),
        L=st.integers(2, 24),
        ts_scale=st.floats(0.3, 100.0),
        log_q=st.floats(0.5, 7.0),
    )
    @settings(max_examples=120, deadline=None)
    def test_absorbing_never_unhandled(self, d, r, log_diff, L, ts_scale, log_q):
        diffusion = 10.0**log_diff
        t_max = d * d / (6 * diffusion)
        params = SystemParams(
            d=d, r=r, D=diffusion, T_s=ts_scale * t_max, L=L, Q=int(10**log_q),
            receiver=Receiver.ABSORBING,
        )
        try:
            res = closed_form_interval(params)
        except DomainError:
            return
        assert isinstance(res.intermediates.branch, Branch)
        assert 0.0 <= res.window.t1 <= res.window.t2 <= params.T_s

    @given(
        r=st.floats(5e-7, 3e-6),
        scale=st.floats(6.0, 30.0),
        log_diff=st.floats(-12, -9),
        L=st.integers(2, 20),
        ts_scale=st.floats(0.6, 40.0),
        log_q=st.floats(0.5, 7.0),
    )
    @settings(max_examples=120, deadline=None)
    def test_passive_never_unhandled(self, r, scale, log_diff, L, ts_scale, log_q):
        d = scale * r
        diffusion = 10.0**log_diff
        t_max = (d + r) ** 2 / (6 * diffusion)
        T_s = ts_scale * t_max
        t_s = t_max / 6
        N = int(T_s / t_s)
        params = SystemParams(
            d=d, r=r, D=diffusion, T_s=T_s, L=L, Q=int(10**log_q),
            receiver=Receiver.PASSIVE, N=N, t_s=t_s,
        )
        try:
            res = closed_form_interval(params)
        except DomainError:
            return
        assert isinstance(res.intermediates.branch, Branch)
        assert 0 <= res.window.n1 <= res.window.n2 <= N


# One case per reachable closed-form cell: receiver x regime x (L = 1, L > 1)
# x end branch.  Windows recorded from the four separate Prop 1-4 bodies the
# single solver replaced.  Rows with a q_hat call prop3/prop4 with it (the
# high-count cubic and quadratic-vertex branches need a supplied q_hat);
# the others go through closed_form_interval.
# (receiver, d, r, D, T_s, L, Q, q_hat, method, regime, branch, window)
CLOSED_FORM_PINS = [
    ("ab", 7.86e-06, 1.71e-05, 3.05e-12, 8.08, 2, 1229854, None, "prop3", "above-qhat", "cond-ts", (2.551445084686609, 8.08)),
    ("ab", 1.14e-05, 6.35e-06, 7.27e-10, 0.0895, 20, 1000000, 28, "prop3", "above-qhat", "cubic-neg-disc", (0.03549059103414998, 0.04191865822415382)),
    ("ab", 5.62e-06, 9.9e-06, 2.9e-11, 0.479, 8, 1000000, 240845, "prop3", "above-qhat", "quad-neg-disc", (0.14897330392006658, 0.27573632141119875)),
    ("ab", 1.9e-05, 6.92e-06, 2.71e-12, 110.0, 5, 41549945, None, "prop3", "above-qhat", "quad-pos-disc", (13.24822944630491, 92.52237749179827)),
    ("ab", 1.75e-05, 1.3e-05, 1.97e-11, 451.0, 1, 216156, None, "prop3", "above-qhat", "cond-ts", (1.1514320765154187, 451.0)),
    ("ab", 1.97e-05, 1.05e-06, 2.59e-12, 72.5, 2, 84, None, "prop2", "below-qhat", "cond-ts", (14.842620660391285, 72.5)),
    ("ab", 9.22e-06, 6.19e-06, 3.85e-10, 0.0869, 30, 26, None, "prop2", "below-qhat", "cubic-neg-disc", (0.03883366654437312, 0.04266506690485037)),
    ("ab", 1.93e-05, 1.53e-05, 1.9e-12, 73.4, 8, 5, None, "prop2", "below-qhat", "quad-neg-disc", (31.41851750636504, 36.770532294212686)),
    ("ab", 1.13e-05, 1.57e-05, 7.74e-10, 0.357, 20, 7, None, "prop2", "below-qhat", "quad-pos-disc", (0.013117194934332103, 0.357)),
    ("ab", 1.66e-05, 1.81e-06, 4.59e-10, 1.55, 1, 4, None, "prop1", "below-qhat", "cond-ts", (0.037244267101034005, 1.55)),
    ("pa", 2.5e-05, 2.06e-06, 1.01e-12, 333.0, 2, 137036, None, "prop4", "above-qhat", "cond-ts", (5, 16)),
    ("pa", 2.74e-05, 7.69e-07, 1.89e-12, 311.0, 12, 1000000, 28868, "prop4", "above-qhat", "cubic-neg-disc", (5, 9)),
    ("pa", 6.96e-05, 2.03e-06, 2.06e-11, 290.0, 20, 1000000, 243090, "prop4", "above-qhat", "quad-neg-disc", (4, 12)),
    ("pa", 1.3e-05, 1.87e-06, 1.69e-11, 59.2, 8, 4713136, None, "prop4", "above-qhat", "quad-pos-disc", (4, 91)),
    ("pa", 1.44e-05, 2.02e-06, 8.95e-11, 2.45, 1, 1012213, None, "prop4", "above-qhat", "cond-ts", (4, 29)),
    ("pa", 1.78e-05, 1.79e-06, 8.12e-10, 1.07, 5, 34, None, "prop4", "below-qhat", "cond-ts", (3, 81)),
    ("pa", 2.102e-05, 2.374e-06, 3.191e-12, 75.03, 30, 3, None, "prop4", "below-qhat", "cubic-neg-disc", (6, 6)),
    ("pa", 3.64e-05, 1.16e-06, 4.08e-12, 128.0, 8, 2534, None, "prop4", "below-qhat", "quad-neg-disc", (6, 7)),
    ("pa", 2.11e-05, 7.65e-07, 1.83e-11, 16.3, 5, 209, None, "prop4", "below-qhat", "quad-pos-disc", (4, 22)),
    ("pa", 7.91e-05, 2.3e-06, 8.65e-11, 28.5, 1, 2, None, "prop4", "below-qhat", "cond-ts", (4, 13)),
]


def _pin_params(kind, d, r, diffusion, T_s, L, Q):
    if kind == "ab":
        return SystemParams(d=d, r=r, D=diffusion, T_s=T_s, L=L, Q=Q, receiver=Receiver.ABSORBING)
    t_s = (d + r) ** 2 / (6 * diffusion) / 6
    return SystemParams(
        d=d, r=r, D=diffusion, T_s=T_s, L=L, Q=Q,
        receiver=Receiver.PASSIVE, N=int(T_s / t_s), t_s=t_s,
    )


class TestClosedFormPins:
    def test_every_cell_is_pinned(self):
        cells = {(row[0], row[9], row[5] == 1, row[10]) for row in CLOSED_FORM_PINS}
        assert len(cells) == len(CLOSED_FORM_PINS) == 2 * (2 + 2 * len(Branch))

    @pytest.mark.parametrize(
        "row", CLOSED_FORM_PINS, ids=[f"{r[0]}-{r[9]}-{r[10]}-L{r[5]}" for r in CLOSED_FORM_PINS]
    )
    def test_window_branch_and_regime(self, row):
        kind, d, r, diffusion, T_s, L, Q, qh, method, regime, branch, window = row
        params = _pin_params(kind, d, r, diffusion, T_s, L, Q)
        if qh is None:
            res = closed_form_interval(params)
        elif kind == "ab":
            res = prop3_interval(params, q_hat=qh)
        else:
            res = prop4_interval(params, q_hat=qh)
        assert res.method.value == method
        assert res.intermediates.regime.value == regime
        assert res.intermediates.branch.value == branch
        if kind == "ab":
            assert res.window.t1 == pytest.approx(window[0], rel=1e-12)
            assert res.window.t2 == pytest.approx(window[1], rel=1e-12)
        else:
            assert (res.window.n1, res.window.n2) == window


class TestNumericMetricSearch:
    def test_sid_window_is_q_independent(self):
        p_small = absorbing_params(T_s=0.2, L=4, Q=10)
        p_large = absorbing_params(T_s=0.2, L=4, Q=10**6)
        a = numeric_metric_search(p_small, Metric.SID, dt=0.2 / 50)
        b = numeric_metric_search(p_large, Metric.SID, dt=0.2 / 50)
        assert a.window == b.window

    def test_single_cell_grid(self, table1_absorbing):
        res = numeric_metric_search(table1_absorbing, Metric.MSINAR, dt=0.2)
        assert res.window == ContinuousWindow(0.0, 0.2)

    def test_oversized_step_degenerates(self, table1_absorbing):
        with pytest.raises(DegenerateWindow):
            numeric_metric_search(table1_absorbing, Metric.MSINAR, dt=0.5)

    def test_msinar_argmax_beats_closed_form_value(self, table1_absorbing):
        # numeric search maximizes the regime-clamped mSINAR, so its value
        # dominates the closed-form window's
        from mcdwin import msinar

        num = numeric_metric_search(table1_absorbing, Metric.MSINAR)
        cf = closed_form_interval(table1_absorbing)
        q_eff = min(table1_absorbing.Q, regime_q_hat(table1_absorbing))
        p_eff = replace(table1_absorbing, Q=q_eff)
        assert msinar(p_eff, num.window) >= msinar(p_eff, cf.window)
        assert num.objective_value == pytest.approx(msinar(p_eff, num.window))

    def test_msinar_near_closed_form(self, table1_absorbing):
        # measured gaps at Table-1 (0.2, L=4, Q=2000), grid T_s/400:
        # |dt1| ~ 1.4e-3 (3 steps), |dt2| ~ 4.4e-2; BER ratio ~ 1.33
        num = numeric_metric_search(table1_absorbing, Metric.MSINAR)
        cf = closed_form_interval(table1_absorbing)
        step = 0.2 / 400
        assert abs(num.window.t1 - cf.window.t1) <= 5 * step
        assert abs(num.window.t2 - cf.window.t2) <= 100 * step
        _, ber_num = optimal_threshold(table1_absorbing, num.window)
        _, ber_cf = optimal_threshold(table1_absorbing, cf.window)
        assert ber_cf.value <= 1.5 * ber_num.value

    def test_passive_search_full_grid(self, table1_passive):
        res = numeric_metric_search(table1_passive, Metric.MSINAR)
        assert 0 <= res.window.n1 <= res.window.n2 <= table1_passive.N

    def test_nonpositive_sid_falls_back_to_peak_window(self):
        # ISI swamps the signal at every window for a short symbol with long
        # memory; the search returns the one-step window at t_max, flagged
        p = absorbing_params(T_s=0.06, L=12, Q=100)
        dt = 0.06 / 80
        res = numeric_metric_search(p, Metric.SID, dt=dt)
        assert res.degenerate
        assert res.objective_value <= 0.0
        t_max = derived(p).t_max
        assert res.window.t1 <= t_max <= res.window.t2
        assert res.window.width == pytest.approx(dt, rel=1e-9)
        healthy = numeric_metric_search(absorbing_params(), Metric.SID, dt=0.2 / 40)
        assert not healthy.degenerate

    def test_argbest_tie_break(self):
        values = np.array([1.0, 2.0, 2.0, 2.0, 0.5])
        i1 = np.array([3, 1, 1, 0, 2])
        i2 = np.array([5, 4, 9, 2, 2])
        # ties at 2.0: smallest start wins, then the larger end
        assert _argbest(values, i1, i2, maximize=True) == 3
        values = np.array([2.0, 1.0, 1.0])
        i1 = np.array([0, 1, 1])
        i2 = np.array([1, 3, 7])
        assert _argbest(values, i1, i2, maximize=False) == 2


def _naive_exhaustive(params, dt):
    """Every grid window through the unbounded threshold scan, with the
    search's tie-break: the smaller start, then the larger end."""
    if params.receiver is Receiver.ABSORBING:
        edges = np.linspace(0.0, params.T_s, round(params.T_s / dt) + 1).tolist()
        spans = [(t1, t2) for a, t1 in enumerate(edges) for t2 in edges[a + 1 :]]
        windows = [((t1, -t2), ContinuousWindow(t1, t2)) for t1, t2 in spans]
    else:
        n = params.N
        windows = [((a, -b), SampledWindow(a, b)) for a in range(n + 1) for b in range(a, n + 1)]
    scored = [(optimal_threshold(params, w)[1].value, key, w) for key, w in windows]
    value, _, window = min(scored, key=lambda item: item[:2])
    return window, value


def _naive_shift_tau(params, dt):
    """Every delay through the unbounded threshold scan; ties keep the first.
    Returns the BER, the delay and its window."""
    t_max = derived(params).t_max
    if params.receiver is Receiver.ABSORBING:
        taus = np.linspace(0.0, t_max, max(1, round(t_max / dt)) + 1)
    else:
        taus = np.arange(0, math.ceil(t_max / params.t_s) + 1) * params.t_s
    best = (math.inf, None)
    for tau in taus:
        _, est = threshold_from_taps(params, shift_taps(params, float(tau)))
        if est.value < best[0]:
            best = (est.value, float(tau))
    value, tau = best
    if params.receiver is Receiver.ABSORBING:
        return value, tau, ContinuousWindow(tau, tau + params.T_s)
    first = round(tau / params.t_s)
    return value, tau, SampledWindow(first, first + params.N)


_NAIVE_CASES = [
    pytest.param("exhaustive", absorbing_params(L=4, Q=500), 0.2 / 25, id="ab-L4-Q500"),
    *(
        pytest.param("exhaustive", absorbing_params(L=L, Q=Q), 0.2 / 25, id=f"ab-L{L}-Q{Q}")
        for L in (0, 1, 8)
        for Q in (0, 100, 10_000)
    ),
    pytest.param("exhaustive", passive_params(L=3, Q=1000), None, id="pa-L3-Q1000"),
    pytest.param("shift-tau", absorbing_params(L=4, Q=2000), 0.2 / 50, id="shift-ab-L4-Q2000"),
    *(
        pytest.param("shift-tau", absorbing_params(L=L, Q=Q), 0.2 / 25, id=f"shift-ab-L{L}-Q{Q}")
        for L in (0, 1, 8)
        for Q in (0, 100, 10_000)
    ),
    pytest.param("shift-tau", passive_params(L=3, Q=1000), None, id="shift-pa-L3-Q1000"),
    pytest.param("shift-tau", passive_params(L=10, Q=1000), None, id="shift-pa-L10-Q1000"),
]


class TestExhaustiveBerSearch:
    @pytest.mark.parametrize("search, params, dt", _NAIVE_CASES)
    def test_equals_naive_scan(self, search, params, dt):
        # the pruned, incumbent-bounded searches must match a naive full scan exactly
        if search == "exhaustive":
            res = exhaustive_ber_search(params, dt=dt)
            assert (res.window, res.objective_value) == _naive_exhaustive(params, dt)
        else:
            res = shift_tau_search(params, dt=dt)
            assert (res.objective_value, res.tau, res.window) == _naive_shift_tau(params, dt)

    def test_dominates_full_window(self, table1_absorbing):
        res = exhaustive_ber_search(table1_absorbing, dt=0.2 / 40)
        _, full_est = optimal_threshold(table1_absorbing, full_window(table1_absorbing))
        assert res.objective_value <= full_est.value

    def test_dominates_msinar_window_on_matching_grid(self, table1_absorbing):
        dt = 0.2 / 40
        res = exhaustive_ber_search(table1_absorbing, dt=dt)
        num = numeric_metric_search(table1_absorbing, Metric.MSINAR, dt=dt)
        _, num_est = optimal_threshold(table1_absorbing, num.window)
        assert res.objective_value <= num_est.value

    def test_no_isi_prefers_wide_windows(self, capsys):
        # with L = 0 the only penalty is noise; record how close the found
        # window is to the full symbol (soft check, grid oracle)
        p = absorbing_params(L=0, Q=50)
        res = exhaustive_ber_search(p, dt=0.2 / 25)
        _, full_est = optimal_threshold(p, full_window(p))
        print(f"L=0 exhaustive window {res.window}, full-window BER {full_est.value:.4g}")
        assert res.objective_value <= full_est.value

    def test_passive_search(self, table1_passive):
        res = exhaustive_ber_search(table1_passive)
        assert 0 <= res.window.n1 <= res.window.n2 <= table1_passive.N
        _, full_est = optimal_threshold(table1_passive, full_window(table1_passive))
        assert res.objective_value <= full_est.value

    def test_isi_length_cap(self):
        with pytest.raises(EnumerationTooLarge):
            exhaustive_ber_search(absorbing_params(L=13))

    def test_judges_without_metrics_or_closed_forms(self, monkeypatch, table1_passive):
        # the reference search must not run the metric layer or the closed
        # form it is used to judge
        def forbidden(*args, **kwargs):
            raise AssertionError("the exhaustive search called a metric or regime_q_hat")

        for name, value in vars(metrics).items():
            if isinstance(value, types.FunctionType) and value.__module__ == metrics.__name__:
                monkeypatch.setattr(metrics, name, forbidden)
        monkeypatch.setattr(optimizer, "regime_q_hat", forbidden)
        for params, dt in ((absorbing_params(L=4, Q=2000), 0.2 / 40), (table1_passive, None)):
            res = exhaustive_ber_search(params, dt)
            assert math.isfinite(res.objective_value)

    def test_high_q_window_converges(self):
        # at Q = 1e5 the BERs lie far below 1e-16; the window must stay the
        # Q = 1e4 one instead of being picked on rounding noise
        dt = 0.2 / 80
        low = exhaustive_ber_search(absorbing_params(L=4, Q=10_000), dt=dt)
        high = exhaustive_ber_search(absorbing_params(L=4, Q=100_000), dt=dt)
        assert low.window == ContinuousWindow(0.03, 0.1575)
        assert high.window == low.window
        assert high.objective_value < 1e-100


def _grid_cases():
    yield "absorbing-L4", absorbing_params(T_s=0.2, L=4), 0.2 / 40
    for T_s in (1.0, 2.0):
        for L in (3, 10):
            yield f"passive-Ts{T_s:g}-L{L}", passive_params(T_s=T_s, L=L), None


GRID_CASES = [pytest.param(params, dt, id=name) for name, params, dt in _grid_cases()]


class TestGridTaps:
    """A search scores a window on the taps ``window_taps`` gives it."""

    @pytest.mark.parametrize("params, dt", GRID_CASES)
    def test_grid_columns_equal_window_taps(self, params, dt):
        edges, i1, i2, mean, var = optimizer._window_grid(params, dt)
        for w in range(i1.size):
            taps = window_taps(params, optimizer._grid_window(edges, i1, i2, w))
            assert taps.mean.tobytes() == mean[:, w].tobytes()
            assert taps.var.tobytes() == var[:, w].tobytes()

    @pytest.mark.parametrize(
        "params", [pytest.param(params, id=name) for name, params, dt in _grid_cases() if dt is None]
    )
    def test_passive_taps_within_sequential_bound(self, params):
        # a running sum of n non-negative terms is within (n - 1) u of the
        # exact sum; u = 2^-53
        rates = _response_table(params, np.arange(params.N + 1, dtype=float), range(params.L + 1))
        _, i1, i2, mean, _ = optimizer._window_grid(params, None)
        for w in range(i1.size):
            n = i2[w] - i1[w] + 1
            for lag in range(params.L + 1):
                exact = math.fsum(rates[lag, i1[w] : i2[w] + 1])
                assert abs(mean[lag, w] - exact) <= (n - 1) * 2.0**-53 * exact

    @pytest.mark.parametrize("search", [exhaustive_ber_search, shift_tau_search])
    @pytest.mark.parametrize("params, dt", GRID_CASES)
    def test_search_returns_what_it_scored(self, search, params, dt):
        res = search(params, dt)
        fresh = shift_taps(params, res.tau) if search is shift_tau_search else window_taps(params, res.window)
        assert res.taps.lags == fresh.lags
        assert res.taps.mean.tobytes() == fresh.mean.tobytes()
        assert res.taps.var.tobytes() == fresh.var.tobytes()
        assert repr((res.threshold, res.ber)) == repr(threshold_from_taps(params, fresh))
        assert res.ber.value == res.objective_value

    @pytest.mark.parametrize("scheme", [s for s in Scheme if s not in (Scheme.EXHAUSTIVE_BER, Scheme.SHIFT_TAU)])
    def test_select_window_scores_other_schemes(self, scheme, table1_passive):
        res = select_window(table1_passive, scheme)
        taps = window_taps(table1_passive, res.window)
        assert res.taps.mean.tobytes() == taps.mean.tobytes()
        assert repr((res.threshold, res.ber)) == repr(threshold_from_taps(table1_passive, taps))


class TestWindowCap:
    """The grid searches refuse a candidate-window table over
    MAX_GRID_ELEMENTS before building any of it."""

    @staticmethod
    def _no_grid(monkeypatch):
        def build(*args):
            raise AssertionError("the grid was built")

        monkeypatch.setattr(optimizer, "_continuous_grid", build)
        monkeypatch.setattr(optimizer, "_sampled_grid", build)

    @pytest.mark.parametrize("search", [exhaustive_ber_search, numeric_metric_search])
    def test_fine_step_refused_before_building(self, monkeypatch, search):
        # T_s / dt = 1e5 steps would be ~5e9 windows
        self._no_grid(monkeypatch)
        args = (Metric.MSINAR,) if search is numeric_metric_search else ()
        with pytest.raises(EnumerationTooLarge, match=r"5,000,050,000 candidate windows"):
            search(absorbing_params(L=4), *args, dt=0.2 / 100_000)

    def test_lowered_cap_names_step_windows_and_cap(self, monkeypatch):
        monkeypatch.setattr(optimizer, "MAX_GRID_ELEMENTS", 5 * 1275 - 1)
        with pytest.raises(EnumerationTooLarge) as info:
            exhaustive_ber_search(absorbing_params(L=4), dt=0.2 / 50)
        assert "step 0.004 gives 1,275 candidate windows of 5 taps" in str(info.value)
        assert "cap of 6,374 table elements" in str(info.value)
        monkeypatch.setattr(optimizer, "MAX_GRID_ELEMENTS", 5 * 1275)
        exhaustive_ber_search(absorbing_params(L=4), dt=0.2 / 50)

    def test_passive_grid_capped(self, monkeypatch, table1_passive):
        # N + 1 samples, each pair n1 <= n2 a window
        n = table1_passive.N + 1
        monkeypatch.setattr(optimizer, "MAX_GRID_ELEMENTS", (table1_passive.L + 1) * n * (n + 1) // 2 - 1)
        with pytest.raises(EnumerationTooLarge):
            exhaustive_ber_search(table1_passive)

    def test_huge_passive_sample_count_refused(self):
        # (N + 1)(N + 2)/2 windows are counted in float: a sample count far
        # past any float-sized product is refused, not an OverflowError
        params = SystemParams(
            d=9e-6, r=1e-6, D=80e-12, T_s=1.0, L=2, Q=2000,
            receiver=Receiver.PASSIVE, N=10**299, t_s=1e-300,
        )
        with pytest.raises(EnumerationTooLarge, match="candidate windows"):
            exhaustive_ber_search(params)

    def test_default_grid_fits_at_the_enumeration_cap(self):
        steps = optimizer.GRID_DIVISIONS
        assert 25 * steps * (steps + 1) // 2 <= optimizer.MAX_GRID_ELEMENTS


def _counted(monkeypatch, name: str, size) -> list:
    """Wrap ``optimizer.<name>`` and record ``size`` of each call's arguments."""
    seen = []
    original = getattr(optimizer, name)

    def counting(*args, **kwargs):
        seen.append(size(*args))
        return original(*args, **kwargs)

    monkeypatch.setattr(optimizer, name, counting)
    return seen


def _scanned_columns(monkeypatch) -> list:
    """Record the columns of each ``best_thresholds`` call, the seed's
    one-column scan (through ``threshold_from_taps``) included."""
    seen = []
    original = reception.best_thresholds

    def counting(q, mean, var, beat=math.inf):
        seen.append(mean.shape[1])
        return original(q, mean, var, beat)

    monkeypatch.setattr(reception, "best_thresholds", counting)
    monkeypatch.setattr(optimizer, "best_thresholds", counting)
    return seen


class TestCascadedBounds:
    """Work counts of the least-BER search: the coarse bound prunes most
    windows before the full floor, and the pair-minimum floor lets few
    losing windows reach a threshold scan."""

    def test_exhaustive_scans_few_windows(self, monkeypatch):
        columns = _scanned_columns(monkeypatch)
        exhaustive_ber_search(absorbing_params(L=8, Q=100), dt=0.2 / 80)
        # 3,240 windows; the complement-pair Jensen floor admitted 335
        assert sum(columns) <= 200

    def test_full_floor_runs_on_coarse_survivors(self, monkeypatch):
        columns = _counted(monkeypatch, "ber_floors", lambda q, mean, var: mean.shape[1])
        exhaustive_ber_search(absorbing_params(L=8, Q=10_000), dt=0.2 / 80)
        # the seed, the least coarse bound, is the winner here: 5 columns
        assert sum(columns) <= 20

    def test_shift_tau_scans_few_delays(self, monkeypatch):
        columns = _scanned_columns(monkeypatch)
        res = shift_tau_search(absorbing_params(L=8, Q=10_000), dt=0.2 / 80)
        assert res.tau == pytest.approx(0.0223, abs=1e-4)
        assert sum(columns) <= 8


class TestNoMolecules:
    """At Q = 0 every window's BER is 1/2: the searches return the tie-break
    window at threshold 0 without a threshold scan (results as before)."""

    CASES = [
        (absorbing_params(T_s=0.2, L=4, Q=0), 0.2 / 40, ContinuousWindow(0.0, 0.2)),
        (passive_params(T_s=2.0, L=8, Q=0), None, SampledWindow(0, 57)),
    ]

    @pytest.mark.parametrize("params, dt, window", CASES)
    @pytest.mark.parametrize("search", [exhaustive_ber_search, shift_tau_search])
    def test_tie_break_window_at_coin_flip(self, monkeypatch, search, params, dt, window):
        columns = _scanned_columns(monkeypatch)
        res = search(params, dt)
        assert columns == []
        assert (res.window, res.threshold, res.objective_value) == (window, 0, 0.5)
        assert res.ber == BerEstimate(0.5, 0.0, BerSource.ANALYTICAL)
        if search is shift_tau_search:
            assert res.tau == 0.0
            assert np.array_equal(res.taps.mean, shift_taps(params, 0.0).mean)
        else:
            assert np.array_equal(res.taps.mean, window_taps(params, window).mean)


class TestSearchMemory:
    @pytest.mark.parametrize("L, Q", [(12, 100), (1, 100_000)])
    def test_traced_peak_is_bounded(self, L, Q):
        # the scans go in blocks sized by the sequence statistics and by
        # the scanned thresholds of each column
        tracemalloc.start()
        try:
            exhaustive_ber_search(absorbing_params(L=L, Q=Q), dt=0.2 / 80)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 3 * 2**20


class TestShiftTau:
    def test_never_worse_than_zero_shift(self, table1_absorbing):
        res = shift_tau_search(table1_absorbing, dt=0.2 / 50)
        _, zero_est = threshold_from_taps(table1_absorbing, shift_taps(table1_absorbing, 0.0))
        assert res.objective_value <= zero_est.value
        assert 0.0 <= res.tau <= derived(table1_absorbing).t_max
        assert res.window.t1 == res.tau
        assert res.window.t2 == pytest.approx(res.tau + table1_absorbing.T_s)

    def test_passive_shift_is_sample_aligned(self, table1_passive):
        res = shift_tau_search(table1_passive)
        assert res.window.n1 == round(res.tau / table1_passive.t_s)
        assert res.window.n2 == res.window.n1 + table1_passive.N

    def test_floor_prune_skips_most_delays(self, monkeypatch):
        # delays whose BER floor exceeds the incumbent get no threshold scan
        columns = _scanned_columns(monkeypatch)
        res = shift_tau_search(absorbing_params(L=8, Q=10_000), dt=0.2 / 80)
        monkeypatch.undo()
        assert res.tau == pytest.approx(0.0223, abs=1e-4)
        # 22 delays in [0, t_max]; without the floor prune each gets a scan
        assert sum(columns) <= 11


class TestInitialValueProperty:
    @pytest.mark.parametrize("L", [4, 8])
    def test_small_q_window_shape(self, L):
        # at the smallest feasible counts the best window starts near t_max/2
        # and still ends at the symbol boundary
        p = absorbing_params(T_s=0.2, L=L, Q=20)
        c = derived(p)
        dt = 0.2 / 80
        res = exhaustive_ber_search(p, dt=dt)
        assert 0.25 * c.t_max < res.window.t1 < 0.75 * c.t_max
        assert res.window.t2 >= p.T_s - dt


class TestSelectWindow:
    def test_all_schemes_produce_windows(self, table1_absorbing):
        for scheme in Scheme:
            res = select_window(table1_absorbing, scheme, dt=0.2 / 25)
            assert res.window is not None

    def test_full_window_scheme(self, table1_absorbing):
        res = select_window(table1_absorbing, Scheme.FULL_WINDOW)
        assert res.window == ContinuousWindow(0.0, 0.2)
        assert res.method is Method.FULL_WINDOW
