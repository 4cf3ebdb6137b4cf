import math
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bardina import instability as inst
from bardina.spectral import curl, make_grid

from conftest import CHAIN_COUNT_ORACLE, cf_two_sweeps, nodes

ALPHA = 1.0 / 64.0
PINNED = inst.Chain(s=8, t=4, r=1, alpha=ALPHA, gamma=1.0, coupling=0.4)


def mode_sq(chain, n):
    """|k_n|^2 = t^2 + (s n + r)^2 along a chain."""
    kn = chain.s * np.asarray(n, dtype=np.float64) + chain.r
    return chain.t**2 + kn * kn


def x_of(chain, sigma):
    """The solvers' unknown x = (gamma + sigma) / coupling of a chain at growth rate sigma."""
    return (chain.gamma + sigma) / chain.coupling


def g_from(chain, x, n_max, max_depth=None):
    """g(x) of a chain from first depth n_max, doubled up to max_depth (default
    n_max: depths n_max and 2 n_max, no doubling)."""
    cols = inst._columns([chain])
    return float(inst._cf(np.arange(1), np.array([x]), n_max, max_depth or n_max,
                          inst._tabulated(cols, n_max))[0])


def g_of(chain, x):
    """The solvers' g(x) of a chain: first depth _N_MAX, doubled up to _MAX_DEPTH."""
    return g_from(chain, x, inst._N_MAX, inst._MAX_DEPTH)


def f_of(chain, x):
    """The left side f(x) = x (q + alpha q^2)/(t (s^2 - q)), q = t^2 + r^2, of the
    eigenvalue condition f = g."""
    return float(inst._f(inst._columns([chain]), x)[0])


def ladder_d(ch, n, x):
    """Recurrence coefficients d_n = x A_n of a chain."""
    return x * inst._ladder_a(ch.s, ch.t, ch.r, ch.alpha, np.asarray(n, dtype=np.float64))


def brute_force_region(s, delta):
    """Independent region scan in float arithmetic."""
    pts = []
    for t in range(1, s):
        for r in range(-s, s + 1):
            if (
                t * t + r * r < s * s / 3.0
                and t * t + (r - s) ** 2 > s * s
                and t * t + (r + s) ** 2 > s * s
                and -s / 6.0 < r < s / 6.0
                and t >= delta * s
            ):
                pts.append((t, r))
    return pts


class TestForcing:
    def test_norms(self):
        g = make_grid(64)
        spec = inst.KolmogorovSpec(s=3, amplitude=1.7, gamma=0.5)
        f = inst.kolmogorov_forcing(spec, g)
        assert f.l2_norm_sq() == pytest.approx((spec.gamma * spec.amplitude) ** 2, rel=1e-12)
        w = curl(f)
        assert w.l2_norm_sq() == pytest.approx(spec.curl_norm_sq, rel=1e-12)

    def test_is_sine_profile(self):
        g = make_grid(32)
        spec = inst.KolmogorovSpec(s=2, amplitude=1.0, gamma=1.0)
        f = inst.kolmogorov_forcing(spec, g)
        x2 = nodes(g)[1]
        want = spec.gamma * spec.amplitude / (math.sqrt(2) * math.pi) * np.sin(2 * x2)
        assert np.allclose(f.component(0).to_samples(), want, atol=1e-13)
        assert np.allclose(f.component(1).to_samples(), 0.0, atol=1e-15)

    def test_divergence_free_zero_mean(self):
        g = make_grid(32)
        f = inst.kolmogorov_forcing(inst.KolmogorovSpec(s=4, amplitude=2.0, gamma=1.0), g)
        assert np.max(np.abs(g.k1 * f.coeffs[0] + g.k2 * f.coeffs[1])) == 0.0
        assert f.coeffs[0, 0, 0] == 0.0 and f.coeffs[1, 0, 0] == 0.0

    def test_zero_amplitude_gives_zero_field(self):
        g = make_grid(32)
        f = inst.kolmogorov_forcing(inst.KolmogorovSpec(s=1, amplitude=0.0, gamma=1.0), g)
        assert np.all(f.coeffs == 0)

    def test_stationary_vorticity_profile(self):
        g = make_grid(32)
        spec = inst.KolmogorovSpec(s=2, amplitude=1.3, gamma=2.0)
        w = inst.stationary_vorticity(spec, g)
        x2 = nodes(g)[1]
        want = -spec.amplitude * spec.s / (math.sqrt(2) * math.pi) * np.cos(2 * x2)
        assert np.allclose(w.to_samples(), want, atol=1e-13)

    def test_wavenumber_beyond_band_rejected(self):
        g = make_grid(32)  # de-aliased band: |k| <= 10
        with pytest.raises(ValueError):
            inst.kolmogorov_forcing(inst.KolmogorovSpec(s=11, amplitude=1.0, gamma=1.0), g)

    @pytest.mark.parametrize("amplitude,gamma", [(-1.0, 1.0), (math.nan, 1.0), (math.inf, 1.0),
                                                 (1.0, 0.0), (1.0, math.nan), (1.0, math.inf)])
    def test_spec_rejects_bad_values(self, amplitude, gamma):
        with pytest.raises(ValueError):
            inst.KolmogorovSpec(s=2, amplitude=amplitude, gamma=gamma)

    @pytest.mark.parametrize("alpha, gamma, name", [
        (0.0, 1.0, "alpha"), (math.nan, 1.0, "alpha"), (math.inf, 1.0, "alpha"),
        (0.01, -1.0, "gamma"), (0.01, math.nan, "gamma"), (0.01, math.inf, "gamma"),
    ])
    def test_threshold_amplitude_names_a_bad_parameter(self, alpha, gamma, name):
        with pytest.raises(ValueError, match=f"^{name} must be positive and finite"):
            inst.threshold_amplitude(8, 0.35, alpha, gamma)

    def test_chain_rejects_nan_alpha(self):
        spec = inst.KolmogorovSpec(s=8, amplitude=40.0, gamma=1.0)
        with pytest.raises(ValueError, match="^alpha must be finite and >= 0, got nan"):
            inst.Chain.from_spec(spec, math.nan, 4, 0)


class TestRegion:
    def test_frozen_counts(self):
        for s, want in CHAIN_COUNT_ORACLE.items():
            assert len(inst.region_lattice(s, 0.35)) == want

    def test_small_s(self):
        # empty at s = 1; at s = 2 and 3, (1, 0) holds while delta * s <= 1
        assert inst.region_lattice(1, 0.35) == []
        assert inst.region_lattice(2, 0.5) == inst.region_lattice(3, 0.2) == [(1, 0)]
        assert inst.region_lattice(2, 0.57) == inst.region_lattice(3, 0.35) == []

    def test_matches_brute_force(self):
        for s, delta in [(24, 0.35), (17, 0.2), (40, 0.5)]:
            assert inst.region_lattice(s, delta) == sorted(brute_force_region(s, delta))

    def test_shifted_mode_band(self):
        # every admissible point keeps its shifted neighbors in the annulus
        for t, r in inst.region_lattice(48, 0.35):
            for sgn in (-1, 1):
                v = t * t + (sgn * 48 + r) ** 2
                assert 48**2 <= v <= (5.0 / 3.0) * 48**2

    def test_doubling_ratio_approaches_four(self):
        for s in (12, 24, 48, 96):
            ratio = len(inst.region_lattice(2 * s, 0.35)) / len(inst.region_lattice(s, 0.35))
            assert abs(ratio - 4.0) <= 1.0

    def test_delta_out_of_range(self):
        with pytest.raises(ValueError):
            inst.region_lattice(12, 0.0)
        with pytest.raises(ValueError):
            inst.region_lattice(12, 0.58)

    @pytest.mark.parametrize("s", [0, -5, 96.5, 12.0, "12", None])
    def test_rejects_a_bad_s(self, s):
        with pytest.raises(ValueError, match=r"^s must be an integer >= 1, got "):
            inst.region_lattice(s, 0.35)
        with pytest.raises(ValueError, match=r"^s must be an integer >= 1, got "):
            inst.lattice_chains(s, 0.35, 0.01, 1.0)

    def test_numpy_integer_s(self):
        assert inst.region_lattice(np.int64(24), 0.35) == inst.region_lattice(24, 0.35)

    @pytest.mark.parametrize("amplitude", [None, 40.0])
    def test_lattice_chains(self, amplitude):
        s, delta, alpha, gamma = 24, 0.35, 1.0 / 576, 0.5
        forced = inst.threshold_amplitude(s, delta, alpha, gamma) if amplitude is None else amplitude
        spec = inst.KolmogorovSpec(s=s, amplitude=forced, gamma=gamma)
        want = [inst.Chain.from_spec(spec, alpha, t, r) for t, r in inst.region_lattice(s, delta)]
        assert inst.lattice_chains(s, delta, alpha, gamma, amplitude) == want


class TestRecurrence:
    def test_coefficient_value(self):
        K1 = 4**2 + (8 + 1) ** 2  # 97
        want = (K1 + ALPHA * K1**2) / (4 * (K1 - 64))
        assert float(inst._ladder_a(8, 4, 1, ALPHA, 1.0)) == pytest.approx(want, rel=1e-14)
        d = float(ladder_d(PINNED, 1, x_of(PINNED, 0.25)))
        assert d == pytest.approx(1.25 / 0.4 * want, rel=1e-14)

    def test_sign_pattern_across_region(self):
        for s, delta in [(8, 0.35), (24, 0.35), (16, 0.5)]:
            for t, r in inst.region_lattice(s, delta):
                ch = inst.Chain(s=s, t=t, r=r, alpha=0.01, gamma=1.0, coupling=0.7)
                for sigma in (-0.999, -0.5, 0.0, 1.0, 10.0):
                    d = ladder_d(ch, np.arange(-6, 7), x_of(ch, sigma))
                    assert d[6] < 0  # center
                    assert np.all(np.delete(d, 6) > 0)

    def test_coefficients_grow(self):
        d = np.abs(ladder_d(PINNED, np.arange(2, 40), x_of(PINNED, 0.0)))
        assert np.all(np.diff(d) > 0)


class TestContinuedFraction:
    def test_vanishes_at_large_sigma(self):
        assert 0 < g_of(PINNED, x_of(PINNED, 1e6)) < 1e-5

    def test_two_term_brackets(self):
        x = x_of(PINNED, 0.1)
        g = g_of(PINNED, x)
        d = {n: float(ladder_d(PINNED, n, x)) for n in (-2, -1, 1, 2)}
        upper = 1 / d[-1] + 1 / d[1]
        lower = 1 / (d[-1] + 1 / d[-2]) + 1 / (d[1] + 1 / d[2])
        assert lower < g < upper

    def test_depth_insensitive(self):
        x = x_of(PINNED, 0.3)
        assert abs(g_from(PINNED, x, 8) - g_from(PINNED, x, 64)) < 1e-13
        assert g_of(PINNED, x) == g_from(PINNED, x, inst._N_MAX)

    def test_nonconvergence_flagged_near_minus_gamma(self):
        x = x_of(PINNED, -1.0 + 1e-10)
        with pytest.raises(inst.ContinuedFractionError, match=rf"at x={x!r}$"):
            g_from(PINNED, x, 8)
        # the solvers' g doubles on where two fixed depths stop
        want, _ = cf_two_sweeps(PINNED, x, inst._N_MAX, inst._MAX_DEPTH)
        assert g_of(PINNED, x) == want


def _g_or_error(compute):
    """(value, None) or (None, message) of a continued-fraction evaluation."""
    try:
        return compute(), None
    except inst.ContinuedFractionError as exc:
        return None, str(exc)


def _same_bits(a, b):
    return a is b is None or np.float64(a).view(np.int64) == np.float64(b).view(np.int64)


@st.composite
def _chain_and_x(draw):
    """An admissible chain and an x = (gamma + sigma) / coupling in (0, the x of its
    upper sigma estimate], drawn log-uniformly above 0 so that some need depth
    doublings."""
    s = draw(st.integers(4, 96))
    t, r = draw(st.sampled_from(inst.region_lattice(s, 0.05)))
    chain = inst.Chain(s=s, t=t, r=r, alpha=draw(st.sampled_from([0.0, 1.0 / s**2, 0.5])),
                       gamma=draw(st.sampled_from([0.25, 0.5, 1.0, 2.0, 3.0])),
                       coupling=draw(st.floats(0.05, 50.0)))
    hi = inst.sigma_bounds(chain, t / s)[1]
    return chain, 10.0 ** -draw(st.floats(0.0, 9.0)) * x_of(chain, hi)


class TestFusedPass:
    """The pass that makes depths n and 2n together gives the bits of two
    separate sweeps (conftest.cf_two_sweeps), per chain, in any batch."""

    @settings(max_examples=60, deadline=None)
    @given(case=_chain_and_x(), n_max=st.sampled_from([2, 4, 8, 32]))
    def test_continued_fraction_g_matches_two_sweeps(self, case, n_max):
        chain, x = case
        got = _g_or_error(lambda: g_from(chain, x, n_max))
        want = _g_or_error(lambda: cf_two_sweeps(chain, x, n_max, n_max)[0])
        assert _same_bits(got[0], want[0]) and got[1] == want[1]
        if n_max == inst._N_MAX:  # the solvers' own g, which doubles on up to _MAX_DEPTH
            own = _g_or_error(lambda: g_of(chain, x))
            deep = _g_or_error(lambda: cf_two_sweeps(chain, x, n_max, inst._MAX_DEPTH)[0])
            assert _same_bits(own[0], deep[0]) and own[1] == deep[1]

    @settings(max_examples=40, deadline=None)
    @given(cases=st.lists(_chain_and_x(), min_size=1, max_size=6),
           n_max=st.sampled_from([2, 4, 8, 32]), data=st.data())
    def test_batch_matches_two_sweeps_per_chain(self, cases, n_max, data):
        # the solvers' own depth limit; a subset of the batch reads a gathered table
        chains, xs = zip(*cases)
        cols = inst._columns(chains)
        i = np.array(sorted(data.draw(st.sets(st.integers(0, len(chains) - 1), min_size=1))))
        got = _g_or_error(lambda: inst._cf(i, np.array(xs)[i], n_max, inst._MAX_DEPTH,
                                           inst._tabulated(cols, n_max)))
        want = [_g_or_error(lambda k=k: cf_two_sweeps(chains[k], xs[k], n_max,
                                                      inst._MAX_DEPTH)[0]) for k in i]
        errors = [msg for _, msg in want if msg is not None]
        if errors:
            assert got == (None, errors[0])
        else:
            assert np.array_equal(got[0].view(np.int64),
                                  np.array([g for g, _ in want]).view(np.int64))

    def test_chains_that_need_depth_doublings(self):
        # near sigma = -gamma the fraction converges slowly: at n_max = 4 these
        # chains stop at different depths past 2 n_max
        xs = x_of(PINNED, np.array([-1.0 + 1e-6, -1.0 + 1e-4, -0.99, 0.5]))
        want = [cf_two_sweeps(PINNED, float(x), 4, inst._MAX_DEPTH) for x in xs]
        assert len({depth for _, depth in want}) > 2 and max(d for _, d in want) > 8
        cols = inst._columns([PINNED] * xs.size)
        got = inst._cf(np.arange(xs.size), xs, 4, inst._MAX_DEPTH, inst._tabulated(cols, 4))
        assert np.array_equal(got.view(np.int64), np.array([g for g, _ in want]).view(np.int64))

    def test_error_names_the_same_depth_move(self):
        # the ContinuedFractionError path of the fused pass
        x = x_of(PINNED, -1.0 + 1e-10)
        got = _g_or_error(lambda: g_from(PINNED, x, 8))
        want = _g_or_error(lambda: cf_two_sweeps(PINNED, x, 8, 8)[0])
        assert got[0] is None and got == want


class TestFSigma:
    def test_zero_at_minus_gamma(self):
        assert f_of(PINNED, x_of(PINNED, -PINNED.gamma)) == 0.0

    def test_closed_form_alpha_zero(self):
        # q = s^2/4 collapses f to x/(3t) = (gamma+sigma)/(3*coupling*t)
        ch = inst.Chain(s=4, t=2, r=0, alpha=0.0, gamma=1.0, coupling=0.9)
        for sigma in (-0.4, 0.0, 2.0):
            assert f_of(ch, x_of(ch, sigma)) == pytest.approx(
                (1.0 + sigma) / (3 * 0.9 * 2), rel=1e-14
            )

    def test_monotone_increasing(self):
        vals = [f_of(PINNED, x) for x in np.linspace(0.1, 15.0, 50)]
        assert np.all(np.diff(vals) > 0)


class TestSolveSigma:
    def test_matches_matrix_oracle_pinned(self):
        sigma = inst.solve_sigma(PINNED)
        oracle = inst.chain_matrix_eigen(PINNED, depth=400)
        assert abs(sigma - oracle) < 1e-8

    def test_all_threshold_chains_unstable(self):
        for ch in _threshold_chains(12):
            assert inst.solve_sigma(ch) > 0

    def test_monotone_in_coupling(self):
        for c in (0.2, 0.5, 1.0):
            s1 = inst.solve_sigma(replace(PINNED, coupling=c))
            s2 = inst.solve_sigma(replace(PINNED, coupling=2 * c))
            assert s2 > s1

    def test_two_sided_estimate(self):
        delta = 0.35
        for t, r in inst.region_lattice(8, delta):
            ch = inst.Chain(s=8, t=t, r=r, alpha=ALPHA, gamma=1.0, coupling=0.6)
            lo, hi = inst.sigma_bounds(ch, delta)
            assert lo <= inst.solve_sigma(ch) <= hi

    def test_rejects_inadmissible_chain(self):
        bad = inst.Chain(s=8, t=1, r=1, alpha=ALPHA, gamma=1.0, coupling=0.4)
        assert not bad.admissible()  # t^2+(r-s)^2 = 50 < 64
        with pytest.raises(ValueError):
            inst.solve_sigma(bad)

    def test_f_up_g_down_on_bracket(self):
        xs = x_of(PINNED, np.linspace(-0.8, 2.0, 15))
        f = np.array([f_of(PINNED, x) for x in xs])
        g = np.array([g_of(PINNED, x) for x in xs])
        assert np.all(np.diff(f) > 0)
        assert np.all(np.diff(g) < 0)

    def test_cross_validation_random_chains(self, rng):
        # >= 50 random chains across several regions and couplings
        cases = []
        for s in (8, 12, 16, 24):
            for t, r in inst.region_lattice(s, 0.35):
                cases.append((s, t, r))
        assert len(cases) >= 50
        for s, t, r in cases:
            ch = inst.Chain(
                s=s, t=t, r=r, alpha=1.0 / s**2, gamma=1.0,
                coupling=float(rng.uniform(0.2, 2.0)),
            )
            assert abs(inst.solve_sigma(ch) - inst.chain_matrix_eigen(ch, depth=150)) < 1e-8


class TestSolveSigmas:
    @staticmethod
    def _lattice_chains(s, gamma, factors=(1.0,)):
        chains = _threshold_chains(s, gamma=gamma)
        factors = np.resize(factors, len(chains))
        return [replace(c, coupling=c.coupling * f) for c, f in zip(chains, factors)]

    @staticmethod
    def _bits(x):
        return np.asarray(x, dtype=np.float64).view(np.int64)

    @settings(max_examples=12, deadline=None)
    @given(s=st.integers(4, 48), k=st.integers(-2, 2),
           factors=st.lists(st.floats(0.5, 2.0), min_size=1, max_size=8), data=st.data())
    def test_matches_single_chain_solves_in_any_order(self, s, k, factors, data):
        chains = self._lattice_chains(s, 2.0**k, factors)
        if chains:
            chains = data.draw(st.lists(st.sampled_from(chains), min_size=1, max_size=12))
        got = inst.solve_sigmas(chains)
        want = [inst.solve_sigma(c) for c in chains]
        assert np.array_equal(self._bits(got), self._bits(want))
        order = data.draw(st.permutations(range(len(chains))))
        shuffled = inst.solve_sigmas([chains[i] for i in order])
        assert np.array_equal(self._bits(shuffled), self._bits(got)[list(order)])

    def test_mixed_depths(self, monkeypatch):
        # from a first depth of 4 the chains need different numbers of depth doublings
        chains = self._lattice_chains(24, 1.0)
        want = inst.solve_sigmas(chains)
        monkeypatch.setattr(inst, "_N_MAX", 4)
        shallow = inst.solve_sigmas(chains)
        alone = [inst.solve_sigma(c) for c in chains]
        assert np.array_equal(self._bits(shallow), self._bits(alone))
        assert np.array_equal(self._bits(shallow), self._bits(want))

    def test_empty_batch(self):
        assert inst.solve_sigmas([]).shape == (0,)

    @pytest.mark.parametrize("stuck", [[0], [1, 2]])
    def test_bracket_error_reports_the_solvers_f_and_g(self, monkeypatch, stuck):
        # a critical-coupling bracket [scale, 2 scale] lambda0 that excludes the root,
        # above it (the x bracket is below the root, so the upper end fails) or below
        # it (the lower end fails): the error names the first chain stuck and reports
        # f and the solvers' own g at the failing end of its x bracket
        chains = self._lattice_chains(12, 0.5, (0.5, 1.0, 2.0))[:3]
        lam0 = dict(zip(chains, inst.solve_lambda0s(chains).tolist()))
        bounds, moved = inst.coupling_bounds, [chains[k] for k in stuck]
        for end, scale in (("upper", 2.0), ("lower", 0.25)):
            monkeypatch.setattr(inst, "coupling_bounds", lambda c, delta, scale=scale: (
                (scale * lam0[c], 2.0 * scale * lam0[c]) if c in moved else bounds(c, delta)))
            with pytest.raises(inst.BracketError) as info:
                inst.solve_sigmas(chains)
            c = moved[0]
            x = c.gamma / (2.0 * scale * lam0[c] if end == "lower" else scale * lam0[c])
            assert str(info.value) == (
                f"chain (t={c.t}, r={c.r}): no sign change of f - g on the critical-coupling "
                f"bracket; at its {end} end x={x!r}, f={f_of(c, x)!r}, g={g_of(c, x)!r}")

    def test_rejects_inadmissible_chain_in_batch(self):
        bad = inst.Chain(s=8, t=1, r=1, alpha=ALPHA, gamma=1.0, coupling=0.4)
        with pytest.raises(ValueError):
            inst.solve_sigmas([PINNED, bad])


class TestLambda0:
    def test_batch_matches_single_chain_solves_in_any_order(self):
        chains = [inst.Chain(s=s, t=t, r=r, alpha=1.0 / s**2, gamma=g, coupling=1.0)
                  for s, g in ((8, 1.0), (16, 0.5), (24, 2.0))
                  for t, r in inst.region_lattice(s, 0.2)]
        chains += [inst.Chain(s=4, t=t, r=r, alpha=1 / 16, gamma=1.0, coupling=1.0)
                   for t in (1, 2, 3) for r in (-1, 0, 1, 2)
                   if inst.Chain(s=4, t=t, r=r, alpha=1 / 16, gamma=1.0, coupling=1.0).admissible()]
        bits = TestSolveSigmas._bits
        got = inst.solve_lambda0s(chains)
        assert np.array_equal(bits(got), bits([inst.solve_lambda0s([c])[0] for c in chains]))
        order = np.random.default_rng(3).permutation(len(chains))
        shuffled = inst.solve_lambda0s([chains[i] for i in order])
        assert np.array_equal(bits(shuffled), bits(got)[order])

    def test_batch_edge_cases(self):
        assert inst.solve_lambda0s([]).shape == (0,)
        bad = inst.Chain(s=8, t=1, r=1, alpha=ALPHA, gamma=1.0, coupling=0.4)
        with pytest.raises(ValueError):
            inst.solve_lambda0s([PINNED, bad])

    def test_sign_change_around_root(self):
        # sigma(L) = gamma (1 +- 1e-9) - gamma = +-1e-9 gamma at L = (1 +- 1e-9) lambda0,
        # a thousand times the tolerance of the solve
        for s in (8, 16, 32):
            chains = [inst.Chain(s=s, t=t, r=r, alpha=1.0 / s**2, gamma=1.0, coupling=1.0)
                      for t, r in inst.region_lattice(s, 0.05)]
            lam0 = inst.solve_lambda0s(chains)
            for factor, sign in ((1.0 + 1e-9, 1.0), (1.0 - 1e-9, -1.0)):
                sigma = inst.solve_sigmas([replace(c, coupling=factor * l)
                                           for c, l in zip(chains, lam0)])
                assert np.all(np.sign(sigma) == sign), (s, factor)

    @settings(max_examples=40, deadline=None)
    @given(data=st.data(), kappa=st.floats(0.5, 4.0))
    def test_rate_scales_with_the_coupling(self, data, kappa):
        # the coupling L enters f and every d_n only through (gamma + sigma) / L, so
        # gamma + sigma(kappa L) = kappa (gamma + sigma(L)), the identity solve_lambda0s
        # rests on; each sigma is bisected to within SIGMA_TOL max(gamma, |sigma|)
        chain = data.draw(_oracle_chain())
        sigma, scaled = inst.solve_sigmas([chain, replace(chain, coupling=kappa * chain.coupling)])
        gamma = chain.gamma
        tol = inst.SIGMA_TOL * (max(gamma, abs(scaled)) + kappa * max(gamma, abs(sigma)))
        assert abs(gamma + scaled - kappa * (gamma + sigma)) <= tol

    @pytest.mark.parametrize("kappa", [0.5, 1.7, 4.0])
    @pytest.mark.parametrize("s", [8, 24])
    def test_matrix_rate_scales_with_the_coupling(self, s, kappa):
        # the chain matrix is linear in the coupling, so its spectrum scales with it
        chains = _threshold_chains(s, 0.2)
        sigma = inst.chain_matrix_eigens(chains, 64)
        scaled = inst.chain_matrix_eigens([replace(c, coupling=kappa * c.coupling)
                                           for c in chains], 64)
        want = kappa * (1.0 + sigma)
        assert np.all(np.abs(1.0 + scaled - want) <= 1e-13 * want)

    @settings(max_examples=40, deadline=None)
    @given(data=st.data(), s=st.integers(4, 128), gamma=st.sampled_from([0.25, 1.0, 2.0]),
           log_factor=st.floats(-3.0, 3.0))
    def test_critical_coupling_bracket_holds_the_root(self, data, s, gamma, log_factor):
        # the bracket the solvers bisect x in: coupling_bounds at delta = t/s strictly
        # holds lambda0 = gamma / x, and the gap f - g is < 0 at x = gamma / hi and
        # > 0 at x = gamma / lo, at couplings 1e-3 to 1e3 times the threshold
        alpha = data.draw(st.sampled_from([1.0 / s**2, 1e-3]))
        chain = data.draw(st.sampled_from(inst.lattice_chains(s, 0.05, alpha, gamma)))
        chain = replace(chain, coupling=10.0**log_factor * chain.coupling)
        lo, hi = inst.coupling_bounds(chain, chain.t / chain.s)
        (lam0,) = inst.solve_lambda0s([chain])
        assert lo < lam0 < hi
        x_lo, x_hi = gamma / hi, gamma / lo
        assert f_of(chain, x_lo) - g_of(chain, x_lo) < 0.0 < f_of(chain, x_hi) - g_of(chain, x_hi)

    def test_two_sided_estimate_sweep(self):
        for s in (8, 16, 32):
            for delta in (0.2, 0.35, 0.5):
                alpha = 1.0 / s**2
                chains = [inst.Chain(s=s, t=t, r=r, alpha=alpha, gamma=1.0, coupling=1.0)
                          for t, r in inst.region_lattice(s, delta)]
                for ch, lam0 in zip(chains, inst.solve_lambda0s(chains)):
                    lo, hi = inst.coupling_bounds(ch, delta)
                    assert lo < lam0 < hi

    def test_matches_matrix_crossing(self):
        (lam0,) = inst.solve_lambda0s([PINNED])
        lo, hi = 0.5 * lam0, 2.0 * lam0

        def eig(c):
            return inst.chain_matrix_eigen(replace(PINNED, coupling=c), depth=200)

        assert eig(lo) < 0 < eig(hi)
        for _ in range(40):
            mid = 0.5 * (lo + hi)
            if eig(mid) < 0:
                lo = mid
            else:
                hi = mid
        assert abs(0.5 * (lo + hi) - lam0) < 1e-6


def inv_a(chain, depth):
    """1/A_n of a chain on n in [-depth, depth], zero where |k_n| = s."""
    k_sq = mode_sq(chain, np.arange(-depth, depth + 1))
    return chain.coupling * chain.t * (k_sq - chain.s**2) / (k_sq + chain.alpha * k_sq * k_sq)


def chain_matrix(chain, depth):
    """The dense reference M: the tridiagonal truncation of (gamma + sigma) e_n =
    (e_{n+1} - e_{n-1}) / A_n on n in [-depth, depth], zero diagonal, off-diagonals
    +-1/A_n; a row with |k_n| = s, where A_n diverges, decouples with zero entries."""
    w = inv_a(chain, depth)
    m = np.zeros((w.size, w.size))
    i = np.arange(w.size - 1)
    m[i, i + 1] = w[:-1]
    m[i + 1, i] = -w[1:]
    return m


def dense_oracle(chain, depth):
    """The full route: largest real eigenvalue part of the (2 depth + 1)^2 chain matrix."""
    return float(np.linalg.eigvals(chain_matrix(chain, depth)).real.max()) - chain.gamma


def square_block(chain, depth, first):
    """The package's rows and columns first, first + 2, ... of M^2, M = chain_matrix(chain, depth)."""
    return inst._square_blocks(inst._inv_ladders(inst._columns([chain]), depth), first)[0]


def one_chain_block(chain, depth, first):
    """square_block of a chain alone, built as one dense scatter on its padded 1/A_n."""
    w = inv_a(chain, depth)
    rows, inner, padded = w[first::2], w[first + 1 : -1 : 2], np.pad(w, 1)
    b = np.zeros((rows.size, rows.size))
    j = np.arange(rows.size)
    b[j, j] = -rows * (padded[first:-2:2] + padded[first + 2 :: 2])
    b[j[:-1], j[1:]] = rows[:-1] * inner
    b[j[1:], j[:-1]] = rows[1:] * inner
    return b


def _one_chain_symmetric(chain, depth):
    b = one_chain_block(chain, depth, 1 - depth % 2)  # the odd n
    c = np.diagonal(b, 1) * np.diagonal(b, -1)
    if not np.all(c >= 0.0):
        return None
    j = np.arange(len(c))
    b[j + 1, j] = np.sqrt(c)
    return math.sqrt(max(np.linalg.eigvalsh(b)[-1], 0.0)) - chain.gamma


def fixed_depth_oracle(chain, depth):
    """The oracle of one chain at one depth: eigvalsh on the symmetrized block of
    the odd n where every off-diagonal product is >= 0, else eigvals on the odd rows."""
    sigma = _one_chain_symmetric(chain, depth)
    if sigma is not None:
        return sigma
    mu = np.linalg.eigvals(one_chain_block(chain, depth, 1)).astype(complex)
    return float(np.sqrt(mu).real.max()) - chain.gamma


def one_chain_oracle(chain, depth=None):
    """chain_matrix_eigen solved one chain and one truncation at a time: without a
    depth, doubling until two truncations agree, off the symmetric route at 200."""
    if depth is None:
        last = None
        for depth in inst._ORACLE_DEPTHS:
            sigma = _one_chain_symmetric(chain, depth)
            if sigma is None or (last is not None and abs(sigma - last)
                                 <= inst.SIGMA_TOL * max(chain.gamma, abs(sigma))):
                break
            last = sigma
        if sigma is not None:
            return sigma
        depth = inst._ORACLE_DEPTHS[-1]
    return fixed_depth_oracle(chain, depth)


def _threshold_chains(s, delta=0.35, gamma=1.0):
    return inst.lattice_chains(s, delta, 1.0 / s**2, gamma)


# unstable (threshold forcing), stable (the sub-critical shear of the stable
# Lyapunov check, and a vanishing coupling) and inadmissible base modes,
# one of them with a decoupled row (|k_1| = s)
ORACLE_CHAINS = {
    "unstable-s12": _threshold_chains(12)[0],
    "unstable-s24": _threshold_chains(24)[-1],
    "stable-shear": inst.Chain(s=4, t=1, r=0, alpha=1 / 16, gamma=1.0, coupling=0.1),
    "stable-weak": replace(PINNED, coupling=1e-9),
    "outside-t1": inst.Chain(s=8, t=1, r=1, alpha=ALPHA, gamma=1.0, coupling=0.4),
    "outside-decoupled": inst.Chain(s=5, t=4, r=-2, alpha=0.1, gamma=1.0, coupling=0.3),
}


def _match(got, want, tol):
    """Pair each value of got with the nearest unpaired value of want, within tol."""
    want = list(want)
    assert len(got) == len(want)
    for g in got:
        k = int(np.argmin(np.abs(np.asarray(want) - g)))
        assert abs(want[k] - g) <= tol, (g, want[k])
        want.pop(k)


@st.composite
def _oracle_chain(draw):
    """An admissible chain of s 4..96 and gamma 1/4..2, at its threshold coupling
    or at a drawn one."""
    s = draw(st.integers(4, 96))
    gamma = draw(st.sampled_from([0.25, 0.5, 1.0, 2.0]))
    chain = draw(st.sampled_from(_threshold_chains(s, 0.2, gamma)))
    if draw(st.booleans()):
        chain = replace(chain, coupling=draw(st.floats(0.05, 50.0)))
    return chain


class TestMatrixOracle:
    @pytest.mark.parametrize("depth", [1, 3, 5, 60, 121, 150, 200, 400])
    @pytest.mark.parametrize("name", list(ORACLE_CHAINS))
    def test_matches_dense_route(self, name, depth):
        ch = ORACLE_CHAINS[name]
        assert abs(inst.chain_matrix_eigen(ch, depth) - dense_oracle(ch, depth)) <= 1e-10

    def test_matches_dense_route_on_cli_chains(self):
        # every chain `bardina instability` reports at s = 8, 12 and 24
        for s in (8, 12, 24):
            for ch in _threshold_chains(s):
                assert abs(inst.chain_matrix_eigen(ch) - dense_oracle(ch, 200)) <= 1e-10

    @settings(max_examples=40, deadline=None)
    @given(s=st.integers(1, 24), t=st.integers(1, 16), r=st.integers(-24, 24),
           alpha=st.floats(0.0, 0.5), coupling=st.floats(0.05, 5.0), depth=st.integers(1, 12))
    def test_odd_block_holds_the_squared_spectrum(self, s, t, r, alpha, coupling, depth):
        ch = inst.Chain(s=s, t=t, r=r, alpha=alpha, gamma=1.0, coupling=coupling)
        m = chain_matrix(ch, depth)
        d = np.diag((-1.0) ** np.arange(m.shape[0]))
        assert np.array_equal(d @ m @ d, -m)
        # so M^2 has no even-odd entries, and its rows of the odd n are the package's block
        m2 = m @ m
        assert np.all(m2[1::2, ::2] == 0.0) and np.all(m2[::2, 1::2] == 0.0)
        odd_n = np.arange(-depth, depth + 1) % 2 == 1
        block = square_block(ch, depth, 1 - depth % 2)
        scale = max(1.0, float(np.abs(m).max())) ** 2
        assert np.allclose(block, m2[np.ix_(odd_n, odd_n)], rtol=0.0, atol=1e-14 * scale)
        # M's spectrum is +-lambda plus one zero: its squares are mu, mu and 0, where
        # the block holds the zero too at odd depth (size depth + 1)
        mu = np.linalg.eigvals(block)
        if depth % 2:
            _match(np.append(np.linalg.eigvals(m) ** 2, 0.0), np.concatenate((mu, mu)), 1e-9 * scale)
        else:
            _match(np.linalg.eigvals(m) ** 2, np.concatenate((mu, mu, [0.0])), 1e-9 * scale)

    @settings(max_examples=40, deadline=None)
    @given(data=st.data(), s=st.integers(2, 48), alpha=st.floats(0.0, 0.5),
           coupling=st.floats(0.05, 5.0), depth=st.integers(1, 200))
    def test_admissible_odd_block_takes_the_symmetric_route(self, data, s, alpha, coupling,
                                                            depth):
        # the block holds the odd n, where an admissible chain has 1/A_n > 0, so every
        # off-diagonal product of the block is >= 0 and eigvalsh applies, at any depth
        t, r = data.draw(st.sampled_from(inst.region_lattice(s, 1e-3)))
        ch = inst.Chain(s=s, t=t, r=r, alpha=alpha, gamma=1.0, coupling=coupling)
        block = square_block(ch, depth, 1 - depth % 2)
        assert np.all(np.diagonal(block, 1) * np.diagonal(block, -1) >= 0.0)
        general = float(np.sqrt(np.linalg.eigvals(block).astype(complex)).real.max()) - ch.gamma
        scale = max(1.0, float(np.abs(block).max()))
        assert abs(inst.chain_matrix_eigen(ch, depth) - general) <= 1e-10 * scale

    @settings(max_examples=30, deadline=None)
    @given(data=st.data(), depth=st.sampled_from([None, None, 1, 2, 5, 16, 31, 32, 121, 200]))
    def test_stacked_oracle_matches_the_one_chain_route(self, data, depth):
        # admissible chains of several s and gamma, unstable and stable, and one
        # inadmissible chain, which takes eigvals on its own
        chains = data.draw(st.lists(_oracle_chain(), min_size=1, max_size=8))
        outside = ORACLE_CHAINS[data.draw(st.sampled_from(["outside-t1", "outside-decoupled"]))]
        chains.insert(data.draw(st.integers(0, len(chains))), outside)
        got = inst.chain_matrix_eigens(chains, depth)
        want = np.array([one_chain_oracle(c, depth) for c in chains])
        assert np.array_equal(got.view(np.int64), want.view(np.int64))
        assert inst.chain_matrix_eigen(chains[0], depth) == want[0]

    @settings(max_examples=20, deadline=None)
    @given(case=_chain_and_x(), depth=st.integers(1, 40), first=st.sampled_from([0, 1]))
    def test_block_matches_the_dense_scatter(self, case, depth, first):
        chain, _ = case
        got, want = square_block(chain, depth, first), one_chain_block(chain, depth, first)
        assert np.array_equal(got.view(np.int64), want.view(np.int64))

    def test_stacks_split_at_the_byte_cap(self, monkeypatch):
        chains = _threshold_chains(24)[:7] + [ORACLE_CHAINS["outside-t1"]]
        want = inst.chain_matrix_eigens(chains, 16)
        monkeypatch.setattr(inst, "_STACK_BYTES", 3 * 8 * 17**2)  # three blocks a stack
        got = inst.chain_matrix_eigens(chains, 16)
        assert np.array_equal(got.view(np.int64), want.view(np.int64))

    def test_empty_batch(self):
        assert inst.chain_matrix_eigens([]).shape == (0,)
        assert inst.chain_matrix_eigens([], 16).shape == (0,)

    def test_outside_chain_keeps_the_general_route(self):
        # a negative product, so test_matches_dense_route covers the eigvals route too
        block = square_block(ORACLE_CHAINS["outside-t1"], 200, 1)
        assert np.min(np.diagonal(block, 1) * np.diagonal(block, -1)) < 0.0

    def test_rejects_zero_depth(self):
        with pytest.raises(ValueError):
            inst.chain_matrix_eigen(PINNED, depth=0)

    @pytest.mark.parametrize("gamma", [0.5, 1.0, 2.0])
    @pytest.mark.parametrize("s", [8, 12, 24, 96])
    def test_default_depth_is_converged(self, s, gamma):
        # without a depth the truncation doubles until two agree to the tolerance
        # solve_sigmas bisects to; the result sits that close to depth 200
        for ch in _threshold_chains(s, gamma=gamma):
            want = inst.chain_matrix_eigen(ch, 200)
            got = inst.chain_matrix_eigen(ch)
            assert abs(got - want) <= inst.SIGMA_TOL * max(gamma, abs(want)), (ch.t, ch.r)

    @pytest.mark.parametrize("name", list(ORACLE_CHAINS))
    def test_explicit_depth_keeps_its_arithmetic(self, name):
        ch = ORACLE_CHAINS[name]
        for depth in (1, 3, 5, 16, 60, 121, 200, 400):
            assert inst.chain_matrix_eigen(ch, depth) == fixed_depth_oracle(ch, depth), depth
        got = inst.chain_matrix_eigen(ch)
        if name.startswith("outside"):  # off the symmetric route: depth 200, bit for bit
            assert got == fixed_depth_oracle(ch, 200)
        else:
            assert abs(got - fixed_depth_oracle(ch, 200)) <= inst.SIGMA_TOL * max(1.0, abs(got))

    def test_unconverged_chain_gets_its_depth_200_value(self, monkeypatch):
        monkeypatch.setattr(inst, "SIGMA_TOL", -1.0)  # no two truncations agree
        for ch in _threshold_chains(24)[:4] + [ORACLE_CHAINS["stable-shear"]]:
            assert inst.chain_matrix_eigen(ch) == fixed_depth_oracle(ch, 200)

    def test_depth_stability(self):
        assert abs(
            inst.chain_matrix_eigen(PINNED, 200) - inst.chain_matrix_eigen(PINNED, 400)
        ) < 1e-9

    def test_weak_coupling_limit(self):
        ch = replace(PINNED, coupling=1e-9)
        assert inst.chain_matrix_eigen(ch, depth=60) == pytest.approx(-1.0, abs=1e-7)

    def test_structure(self):
        m = chain_matrix(PINNED, depth=5)
        assert m.shape == (11, 11)
        assert np.all(np.diag(m) == 0)
        assert np.count_nonzero(m - np.diag(np.diag(m, 1), 1) - np.diag(np.diag(m, -1), -1)) == 0

    def test_singular_mode_row_decouples(self):
        # s=5, t=4, r=-2: |k_1|^2 = 16+9 = 25 = s^2, so its row vanishes
        ch = inst.Chain(s=5, t=4, r=-2, alpha=0.1, gamma=1.0, coupling=0.3)
        m = chain_matrix(ch, depth=3)
        row = 3 + 1  # n = +1
        assert np.all(m[row] == 0.0)
        assert np.all(np.isfinite(m))

    def test_a_space_similarity(self):
        # same spectrum from the unscaled coefficient form of the ladder
        ch = PINNED
        depth = 150
        n = np.arange(-depth, depth + 1)
        K = mode_sq(ch, n)
        C = (K - ch.s**2) / (K + ch.alpha * K * K)
        m = np.zeros((n.size, n.size))
        i = np.arange(n.size - 1)
        m[i, i + 1] = ch.coupling * ch.t * C[1:]
        m[i + 1, i] = -ch.coupling * ch.t * C[:-1]
        sigma_a = float(np.linalg.eigvals(m).real.max()) - ch.gamma
        assert abs(sigma_a - inst.chain_matrix_eigen(ch, depth)) < 1e-9


class TestUnstableCount:
    def test_frozen_counts(self):
        assert inst.unstable_count(12, 0.35, alpha=1 / 144, gamma=1.0) == 12
        assert inst.unstable_count(24, 0.35, alpha=1 / 576, gamma=1.0) == 54

    def test_empty_region_zero(self):
        assert inst.unstable_count(3, 0.35, alpha=0.1, gamma=1.0) == 0

    def test_doubling_ratio(self):
        counts = {s: inst.unstable_count(s, 0.35, alpha=1.0 / s**2, gamma=1.0)
                  for s in (12, 24, 48)}
        assert abs(counts[24] / counts[12] - 4.0) <= 1.0
        assert abs(counts[48] / counts[24] - 4.0) <= 1.0

    def test_certification_failure_raises(self, monkeypatch):
        # a thousandth of the threshold is below every chain's critical coupling
        # (coupling_bounds), so every gap at sigma = 0 is positive
        threshold = inst.threshold_amplitude
        monkeypatch.setattr(inst, "threshold_amplitude", lambda *args: 1e-3 * threshold(*args))
        t, r = inst.region_lattice(12, 0.35)[0]
        with pytest.raises(RuntimeError, match=rf"^chain \(t={t}, r={r}\) failed"):
            inst.unstable_count(12, 0.35, alpha=1 / 144, gamma=1.0)

    def test_rejects_a_fractional_s(self):
        with pytest.raises(ValueError, match="^s must be an integer >= 1, got 96.5"):
            inst.unstable_count(96.5, 0.35, 1e-4, 1.0)

    @settings(max_examples=25, deadline=None)
    @given(data=st.data(), factors=st.lists(
        st.one_of(st.floats(0.5, 2.0), st.sampled_from([1.0 - 1e-9, 1.0 + 1e-9])),
        min_size=1, max_size=8))
    def test_sign_certificate_agrees_with_the_solved_rate(self, data, factors):
        # couplings on both sides of each chain's critical coupling
        chains = [data.draw(_oracle_chain()) for _ in factors]
        lam0 = inst.solve_lambda0s(chains)
        chains = [replace(c, coupling=l * f) for c, l, f in zip(chains, lam0, factors)]
        sigma = inst.solve_sigmas(chains)
        gamma = np.array([c.gamma for c in chains])
        clear = np.abs(sigma) > 1e-9 * gamma
        certified = inst._gap_at_zero(inst._columns(chains)) < 0.0
        assert np.array_equal(certified[clear], (sigma > 0.0)[clear])
        # unstable_count certifies its lattice by that sign, naming the first failure
        with mock.patch.object(inst, "lattice_chains", lambda *args: chains):
            if certified.all():
                assert inst.unstable_count(8, 0.35, 1.0, 1.0) == 2 * len(chains)
            else:
                c = chains[np.flatnonzero(~certified)[0]]
                with pytest.raises(RuntimeError, match=rf"^chain \(t={c.t}, r={c.r}\) failed"):
                    inst.unstable_count(8, 0.35, 1.0, 1.0)
