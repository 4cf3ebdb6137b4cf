import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bardina import bounds, instability

from conftest import (
    ADELTA4_MAX,
    AREA_ORACLE,
    C1_CONSTANT,
    DELTA_STAR,
)

PREFACTOR_EXACT = 0.000461597541180485  # (1/8)(21/(110 pi))^2


class TestUpperBound:
    def test_direct_value(self):
        assert bounds.upper_bound(1.0, 1.0, 8 * math.pi) == 1.0

    def test_gamma_scaling(self):
        a = bounds.upper_bound(0.3, 1.0, 5.0)
        b = bounds.upper_bound(0.3, 2.0, 5.0)
        assert a / b == pytest.approx(16.0, rel=1e-14)

    def test_constant_form(self):
        from bardina.inequalities import B2

        v = bounds.upper_bound(0.01, 0.7, 3.0)
        assert v == pytest.approx(B2**2 / 2 * 3.0 / (0.01 * 0.7**4), rel=1e-14)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            bounds.upper_bound(0.0, 1.0, 1.0)
        with pytest.raises(ValueError):
            bounds.upper_bound(1.0, -1.0, 1.0)
        with pytest.raises(ValueError):
            bounds.upper_bound(1.0, 1.0, 0.0)


class TestTraceBound:
    def test_root_at_upper_bound(self):
        alpha, gamma, curl_sq = 0.01, 1.3, 7.0
        n_star = bounds.upper_bound(alpha, gamma, curl_sq)
        assert abs(bounds.trace_bound_q(n_star, alpha, gamma, math.sqrt(curl_sq))) < 1e-12

    def test_sign_change_at_root(self):
        alpha, gamma, curl_sq = 0.02, 0.9, 11.0
        n_star = bounds.upper_bound(alpha, gamma, curl_sq)
        assert bounds.trace_bound_q(0.5 * n_star, alpha, gamma, math.sqrt(curl_sq)) > 0
        assert bounds.trace_bound_q(2.0 * n_star, alpha, gamma, math.sqrt(curl_sq)) < 0

    def test_huge_damping(self):
        q = bounds.trace_bound_q(1, 1.0, 1e6, 1.0)
        assert q == pytest.approx(-1e6, rel=1e-9)

    def test_array_input(self):
        out = bounds.trace_bound_q(np.array([1.0, 4.0, 9.0]), 0.1, 1.0, 2.0)
        assert out.shape == (3,)

    def test_rejects_small_n(self):
        with pytest.raises(ValueError):
            bounds.trace_bound_q(0.5, 0.1, 1.0, 1.0)


def _midpoint_area(delta: float, n: int = 10**6) -> float:
    """Midpoint rule on the 1D reduction, an independent route to area_a.

    The integrand f(r) = sqrt(1/3 - r^2) - max(delta, sqrt(2r - r^2)), clipped
    at 0, is smooth on [0, 1/6] but for two kinks, so each cell of width h
    errs by at most (h^2/4) times the variation of f' over it; that variation
    totals at most 0.62 + 2/delta (the circle r^2 + t^2 = 1/3 contributes 0.31
    before and 0.31 at the clip, the arc 1/delta after the kink at
    r_delta and 1/delta at it).
    """
    h = (1.0 / 6.0) / n
    r = h * (np.arange(n) + 0.5)
    gap = np.sqrt(1.0 / 3.0 - r * r) - np.maximum(delta, np.sqrt(2.0 * r - r * r))
    return 2.0 * float(np.sum(np.maximum(gap, 0.0))) * h


def _midpoint_error_bound(delta: float, n: int = 10**6) -> float:
    # twice the per-half bound of _midpoint_area, plus summation rounding;
    # below 1e-12 for every delta >= 0.03
    h = (1.0 / 6.0) / n
    return h * h * (0.62 + 2.0 / delta) / 2.0 + 1e-15


DELTAS = st.floats(0.0, bounds.DELTA_MAX, exclude_min=True, exclude_max=True)


class TestArea:
    def test_frozen_values(self):
        # the frozen values are rounded to 12 decimals (5e-13)
        for delta, ref in AREA_ORACLE.items():
            assert bounds.area_a(delta) == pytest.approx(ref, abs=1e-11)

    @settings(max_examples=25, deadline=None)
    @given(delta=DELTAS)
    def test_matches_midpoint_rule(self, delta):
        err = abs(bounds.area_a(delta) - _midpoint_area(delta))
        assert err <= _midpoint_error_bound(delta)

    @settings(max_examples=200, deadline=None)
    @given(a=DELTAS, b=DELTAS)
    def test_decreasing(self, a, b):
        lo, hi = min(a, b), max(a, b)
        # a'(delta) = -2 min(r_delta, R) is ~ -delta^2 near 0: allow rounding
        assert bounds.area_a(hi) <= bounds.area_a(lo) + 1e-15
        if hi - lo >= 1e-3:
            assert bounds.area_a(hi) < bounds.area_a(lo)

    def test_degenerates_at_upper_end(self):
        assert bounds.area_a(0.575) < 2e-3
        vals = [bounds.area_a(d) for d in (0.45, 0.5, 0.55)]
        assert vals[0] > vals[1] > vals[2]

    def test_lattice_count_converges_to_area(self):
        d96 = len(instability.region_lattice(96, 0.35))
        assert d96 / 96**2 == pytest.approx(bounds.area_a(0.35), rel=0.1)

    def test_rejects_bad_delta(self):
        with pytest.raises(ValueError):
            bounds.area_a(0.0)
        with pytest.raises(ValueError):
            bounds.area_a(0.6)


class TestLowerBoundConstant:
    def test_prefactor_exact(self):
        assert abs(bounds.C1_PREFACTOR - PREFACTOR_EXACT) / PREFACTOR_EXACT < 1e-7

    def test_c1_within_five_percent_of_stated(self):
        c1, _ = bounds.lower_bound_constant()
        assert abs(c1 - 6.46e-7) / 6.46e-7 < 0.05

    def test_score_has_single_interior_maximum(self):
        deltas = np.linspace(0.0, bounds.DELTA_MAX, 20003)[1:-1]
        score = np.array([bounds.area_a(d) * d**4 for d in deltas])
        rising = np.diff(score) > 0
        assert rising[0] and not rising[-1]
        assert np.count_nonzero(rising[1:] != rising[:-1]) == 1
        assert deltas[score.argmax()] == pytest.approx(DELTA_STAR, abs=deltas[1] - deltas[0])

    def test_against_frozen_optimum(self):
        # near the maximum f(d) = f* - |f''| (d - d*)^2 / 2 with f* = 1.41e-3
        # and f'' = -0.18, so comparing values of f resolves d* only to
        # sqrt(2 eps f* / |f''|) ~ 2e-9; 1e-6 leaves room for the search's
        # rounding and moves f by 1e-10 relative at most
        c1, delta_star = bounds.lower_bound_constant()
        assert c1 == pytest.approx(C1_CONSTANT, rel=1e-10)
        assert delta_star == pytest.approx(DELTA_STAR, abs=1e-6)
        assert c1 / bounds.C1_PREFACTOR == pytest.approx(ADELTA4_MAX, rel=1e-10)

    def test_consistent_with_area(self):
        c1, delta_star = bounds.lower_bound_constant()
        direct = bounds.area_a(delta_star) * delta_star**4
        assert c1 / bounds.C1_PREFACTOR == pytest.approx(direct, rel=1e-14)


class TestLambdaChoice:
    def test_curl_norm_at_matched_scale(self):
        # s = 1/sqrt(alpha) exactly: ||curl g_s||^2 = (110 pi/21)^2 gamma^4 16/delta^4
        s, delta, gamma = 16, 0.4, 1.2
        alpha = 1.0 / s**2
        lam = instability.threshold_amplitude(s, delta, alpha, gamma)
        curl_sq = (gamma * lam * s) ** 2
        want = (110 * math.pi / 21) ** 2 * gamma**4 * 16.0 / delta**4
        assert curl_sq == pytest.approx(want, rel=1e-12)

    def test_linear_in_gamma(self):
        a = instability.threshold_amplitude(8, 0.35, 0.01, 1.0)
        b = instability.threshold_amplitude(8, 0.35, 0.01, 3.0)
        assert b == pytest.approx(3 * a, rel=1e-14)

    def test_induced_coupling_tops_critical_band(self):
        for s in (8, 16, 32):
            alpha = 1.0 / s**2
            delta = 0.35
            lam = instability.threshold_amplitude(s, delta, alpha, 1.0)
            spec = instability.KolmogorovSpec(s=s, amplitude=lam, gamma=1.0)
            chains = [instability.Chain.from_spec(spec, alpha, t, r)
                      for t, r in instability.region_lattice(s, delta)]
            for ch, lam0 in zip(chains, instability.solve_lambda0s(chains).tolist()):
                _, hi = instability.coupling_bounds(ch, delta)
                assert ch.coupling >= hi * (1 - 1e-12)
                assert lam0 < ch.coupling

    def test_rejects_bad_delta(self):
        with pytest.raises(ValueError):
            instability.threshold_amplitude(8, 0.6, 0.01, 1.0)


class TestLowerBound:
    def test_c1_ratio_identity(self):
        alpha, gamma = 1.0 / 1024, 1.0
        c1, delta_star = bounds.lower_bound_constant()
        s = 32
        lam = instability.threshold_amplitude(s, delta_star, alpha, gamma)
        curl_sq = (gamma * lam * s) ** 2
        lower = bounds.dimension_report(alpha, gamma).lower
        assert lower / (curl_sq / (alpha * gamma**4)) == pytest.approx(c1, rel=1e-14)

    def test_below_upper_bound_across_alphas(self):
        for k in range(6, 13):
            rep = bounds.dimension_report(2.0**-k, 1.0)
            assert rep.lower <= rep.upper

    def test_ratio_is_alpha_independent(self):
        c1, _ = bounds.lower_bound_constant()
        r1 = bounds.dimension_report(2.0**-8, 1.0)
        r2 = bounds.dimension_report(2.0**-11, 0.7)
        assert r1.lower / r1.upper == pytest.approx(8 * math.pi * c1, rel=1e-12)
        assert r2.lower / r2.upper == pytest.approx(8 * math.pi * c1, rel=1e-12)

    def test_consistent_with_direct_count(self):
        alpha = 2.0**-6  # s = 8
        _, delta_star = bounds.lower_bound_constant()
        count = instability.unstable_count(8, delta_star, alpha, 1.0)
        assert bounds.dimension_report(alpha, 1.0).lower <= 2 * count * 1.25

    def test_uncertifiable_alpha(self):
        with pytest.raises(ValueError, match="no lower bound certified"):
            bounds.dimension_report(1.0, 1.0)
        with pytest.raises(ValueError, match="no lower bound certified"):
            bounds.dimension_report(0.25, 1.0)  # s = 2 < 4

    @settings(max_examples=200, deadline=None)
    @given(s=st.integers(1, 399),
           delta=st.floats(0.0, 1.0 / math.sqrt(3.0), exclude_min=True, exclude_max=True))
    @example(s=2, delta=0.5)  # the one point (1, 0)
    @example(s=7, delta=4.0 / 7.0)  # t = 4, the last t with 3 t^2 < s^2
    @example(s=7, delta=0.5715)  # t >= 5: empty
    @example(s=399, delta=0.5764)  # t = 230, the last t
    @example(s=399, delta=0.577)  # t >= 231: empty
    def test_closed_form_emptiness_agrees_with_the_lattice(self, s, delta):
        assert bounds._region_empty(s, delta) == (not instability.region_lattice(s, delta))

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            bounds.dimension_report(-0.1, 1.0)

    @pytest.mark.parametrize("alpha, gamma, name", [
        (math.nan, 1.0, "alpha"), (math.inf, 1.0, "alpha"),
        (0.001, 0.0, "gamma"), (0.001, math.nan, "gamma"), (0.001, math.inf, "gamma"),
    ])
    def test_names_a_parameter_that_is_not_positive_and_finite(self, alpha, gamma, name):
        with pytest.raises(ValueError, match=f"^{name} must be positive and finite"):
            bounds.dimension_report(alpha, gamma)


class TestDimensionReport:
    def test_fields_echo_inputs(self):
        rep = bounds.dimension_report(1.0 / 256, 2.0)
        assert rep.alpha == 1.0 / 256 and rep.gamma == 2.0 and rep.s == 16
        assert rep.upper == bounds.upper_bound(rep.alpha, rep.gamma, rep.curl_g_norm_sq)
        assert rep.lower == rep.constant_c1 * rep.curl_g_norm_sq / (rep.alpha * rep.gamma**4)

    def test_count_tracks_lower_bound_scaling(self):
        # halving alpha quadruples s^2 and roughly quadruples both the
        # certified count and the closed-form lower bound
        _, delta_star = bounds.lower_bound_constant()
        c8 = instability.unstable_count(8, delta_star, 2.0**-6, 1.0)
        c16 = instability.unstable_count(16, delta_star, 2.0**-8, 1.0)
        l8 = bounds.dimension_report(2.0**-6, 1.0).lower
        l16 = bounds.dimension_report(2.0**-8, 1.0).lower
        assert l16 / l8 == pytest.approx(4.0, rel=1e-6)
        assert 2.0 <= c16 / c8 <= 8.0
