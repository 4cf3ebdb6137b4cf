"""Spectral representation: grids, multipliers, the de-aliased Jacobian."""
import math

import numpy as np
import pytest

from bardina import cli
from bardina.dynamics import make_state, vorticity_rhs
from bardina.spectral import (
    ModelParams,
    SpectralField,
    VectorField,
    curl,
    hermitianize,
    make_grid,
    random_field,
    smooth,
    stream_velocity,
    velocity_from_vorticity,
    zero_field,
)

from conftest import alpha_inner, nodes


class TestGrid:
    def test_rejects_odd_and_small(self):
        for n in (3, 2, 0, -4, 7):
            with pytest.raises(ValueError):
                make_grid(n)

    def test_refuses_a_float_n_even_with_the_grid_cached(self):
        # 64.0 == 64 and both hash alike, so the cache must tell the types apart
        make_grid(64)
        with pytest.raises(ValueError, match="^n must be an integer >= 4, got 64.0$"):
            make_grid(64.0)
        with pytest.raises(ValueError, match="^grid size must be even, got 7$"):
            make_grid(7)

    def test_mask_symmetric_under_negation(self):
        g = make_grid(24)
        neg = g._neg
        flipped = g.dealias[neg, :][:, neg]
        assert np.array_equal(g.dealias, flipped)

    def test_dealias_cut_is_two_thirds(self):
        g = make_grid(96)
        cut = 31  # largest |k| with 3|k| < n
        inside = (np.abs(g.k1) <= cut) & (np.abs(g.k2) <= cut)
        assert np.array_equal(g.dealias, inside)

    def test_wavenumber_range(self):
        g = make_grid(16)
        assert g.k1.min() == -8 and g.k1.max() == 7
        assert g.k_sq[0, 0] == 0.0

    def test_grid_cached(self):
        assert make_grid(32) is make_grid(32)


class TestModelParams:
    def test_accepts_positive(self):
        p = ModelParams(alpha=0.25, gamma=2.0)
        assert p.alpha == 0.25 and p.gamma == 2.0

    @pytest.mark.parametrize("alpha,gamma", [(0.0, 1.0), (-1.0, 1.0), (1.0, 0.0), (1.0, -2.0),
                                             (math.inf, 1.0), (math.nan, 1.0),
                                             (1.0, math.inf), (1.0, math.nan)])
    def test_rejects_nonpositive(self, alpha, gamma):
        with pytest.raises(ValueError):
            ModelParams(alpha=alpha, gamma=gamma)


class TestSmooth:
    def test_alpha_zero_identity(self, rng):
        f = random_field(make_grid(32), rng)
        out = smooth(f, 0.0)
        assert np.array_equal(out.coeffs, f.coeffs)

    def test_unit_mode_halved(self):
        g = make_grid(16)
        c = np.zeros((16, 16), dtype=complex)
        c[1, 0] = 1.0
        c[-1, 0] = 1.0
        out = smooth(SpectralField(g, c), 1.0)
        assert out.coeffs[1, 0] == pytest.approx(0.5, abs=0)
        assert out.coeffs[-1, 0] == pytest.approx(0.5, abs=0)

    def test_forward_round_trip(self, rng):
        f = random_field(make_grid(64), rng)
        back = smooth(f, 0.37).coeffs * (1.0 + 0.37 * f.grid.k_sq)
        assert np.abs(back - f.coeffs).max() < 1e-13

    def test_contraction(self, rng):
        f = random_field(make_grid(32), rng)
        assert smooth(f, 0.8).l2_norm_sq() <= f.l2_norm_sq()

    def test_negative_alpha_rejected(self, rng):
        f = random_field(make_grid(16), rng)
        with pytest.raises(ValueError):
            smooth(f, -0.1)


class TestVelocityFromVorticity:
    def test_kolmogorov_profile_alpha_zero(self):
        # omega = -(lam*s/sqrt(2pi)) cos(s x2) gives u = (lam/sqrt(2pi) sin(s x2), 0)
        g = make_grid(64)
        s, lam = 3, 1.7
        x1, x2 = nodes(g)
        samples = -(lam * s / (math.sqrt(2.0) * math.pi)) * np.cos(s * x2)
        om = SpectralField(g, np.fft.fft2(samples) / g.n**2)
        u = velocity_from_vorticity(om, 0.0)
        want = (lam / (math.sqrt(2.0) * math.pi)) * np.sin(s * x2)
        assert np.abs(u.component(0).to_samples() - want).max() < 1e-13
        assert np.abs(u.component(1).to_samples()).max() < 1e-14

    def test_matches_stationary_velocity(self):
        # the same profile equals g_s / gamma for the matching forcing
        from bardina.instability import KolmogorovSpec, kolmogorov_forcing, stationary_vorticity

        g = make_grid(48)
        spec = KolmogorovSpec(s=5, amplitude=2.3, gamma=1.4)
        u = velocity_from_vorticity(stationary_vorticity(spec, g), 0.0)
        gs = kolmogorov_forcing(spec, g)
        assert np.abs(u.coeffs - gs.coeffs / spec.gamma).max() < 1e-14

    def test_zero_maps_to_zero(self):
        g = make_grid(16)
        u = velocity_from_vorticity(zero_field(g), 0.3)
        assert np.abs(u.coeffs).max() == 0.0

    def test_round_trip_curl_inverse_smooth(self, rng):
        om = random_field(make_grid(64), rng)
        u = velocity_from_vorticity(om, 0.1)
        tot = curl(VectorField(u.grid, u.coeffs * (1.0 + 0.1 * u.grid.k_sq)))
        assert np.abs(tot.coeffs - om.coeffs).max() < 1e-13

    def test_divergence_free_to_roundoff(self, rng):
        g = make_grid(32)
        u = velocity_from_vorticity(random_field(g, rng), 0.05)
        div = g.k1 * u.coeffs[0] + g.k2 * u.coeffs[1]
        assert np.abs(div).max() < 1e-15 * np.abs(u.coeffs).max()


def _transport(omega, alpha):
    """Fourier coefficients of the transport term -J(psibar, omegabar) of the
    unforced vorticity equation, read off vorticity_rhs."""
    state = make_state(omega, ModelParams(alpha=alpha, gamma=1.0))
    return vorticity_rhs(state).coeffs + state.omega.coeffs


class TestJacobian:
    """The de-aliased Jacobian J(psibar, omegabar) through vorticity_rhs."""

    def test_self_jacobian_vanishes(self, rng):
        # on one shell |k|^2 = 25 the stream function is psibar = -omegabar/25,
        # so the transport is a Jacobian of a field with itself
        g = make_grid(64)
        shell = np.where(g.k_sq == 25.0, random_field(g, rng).coeffs, 0.0)
        transport = _transport(SpectralField(g, shell), 0.1)
        assert np.abs(transport).max() < 1e-14 * np.abs(shell).max()

    def test_cosine_coupling_formula(self):
        # omega = a1 cos(s x2) + a2 cos(k.x) has omegabar = b1 cos(s x2) + b2 cos(k.x),
        # b_i = a_i/(1 + alpha |k_i|^2), and psibar = -(b1/s^2) cos(s x2) - (b2/|k|^2) cos(k.x).
        # J is bilinear and J(f, f) = 0, so the transport is
        #   -J(psibar, omegabar) = b1 b2 (1/s^2 - 1/|k|^2) J(cos(s x2), cos(k.x)),
        # J(cos(s x2), cos(k1 x1 + k2 x2)) = -s k1 sin(s x2) sin(k.x)
        #   = (k1 s / 2)[cos(k1 x1 + (k2+s) x2) - cos(k1 x1 + (k2-s) x2)]
        g = make_grid(64)
        s, k1, k2, a1, a2, alpha = 4, 3, 2, 3.0, 2.0, 0.1
        x1, x2 = nodes(g)
        samples = a1 * np.cos(s * x2) + a2 * np.cos(k1 * x1 + k2 * x2)
        omega = SpectralField(g, np.fft.fft2(samples) / g.n**2)
        got = SpectralField(g, _transport(omega, alpha)).to_samples()
        b1, b2 = a1 / (1.0 + alpha * s**2), a2 / (1.0 + alpha * (k1**2 + k2**2))
        want = b1 * b2 * (1.0 / s**2 - 1.0 / (k1**2 + k2**2)) * (k1 * s / 2.0) * (
            np.cos(k1 * x1 + (k2 + s) * x2) - np.cos(k1 * x1 + (k2 - s) * x2)
        )
        assert np.abs(got - want).max() < 1e-12 * np.abs(want).max()

    def test_zero_mean_and_band_limited(self, rng):
        g = make_grid(48)
        j = _transport(random_field(g, rng), 0.05)
        assert j[0, 0] == 0.0
        assert np.abs(np.where(g.dealias, 0.0, j)).max() == 0.0

    def test_skew_against_first_argument(self, rng):
        # integral of psibar * J(psibar, omegabar) vanishes
        g = make_grid(64)
        alpha = 0.05
        omega = random_field(g, rng)
        j = _transport(omega, alpha)
        psibar = np.divide(-smooth(omega, alpha).coeffs, g.k_sq, out=np.zeros_like(j),
                           where=g.k_sq > 0)
        ip = float(np.vdot(psibar, j).real)
        assert abs(ip) < 1e-12 * np.linalg.norm(psibar) * np.linalg.norm(j)


class TestAlphaInner:
    def test_alpha_zero_is_l2(self, rng):
        g = make_grid(32)
        th = VectorField(g, np.stack([random_field(g, rng).coeffs for _ in range(2)]))
        xi = VectorField(g, np.stack([random_field(g, rng).coeffs for _ in range(2)]))
        l2 = (2.0 * np.pi) ** 2 * float(np.vdot(th.coeffs, xi.coeffs).real)
        assert alpha_inner(th, xi, 0.0) == pytest.approx(l2, rel=1e-14)

    def test_unit_mode_forced_half(self):
        # |k|^2 = 1, alpha = 1, unit L2 amplitude -> 1/2
        g = make_grid(16)
        c = np.zeros((2, 16, 16), dtype=complex)
        c[0, 0, 1] = 1.0 / (2.0 * math.sqrt(2.0) * math.pi)
        c[0, 0, -1] = 1.0 / (2.0 * math.sqrt(2.0) * math.pi)
        th = VectorField(g, c)
        assert th.l2_norm_sq() == pytest.approx(1.0, rel=1e-14)
        assert alpha_inner(th, th, 1.0) == pytest.approx(0.5, rel=1e-14)

    def test_two_route_identity(self, rng):
        # multiplier route vs smoothed-derivative route
        g = make_grid(64)
        alpha = 0.23
        th = VectorField(g, np.stack([random_field(g, rng).coeffs for _ in range(2)]))
        direct = alpha_inner(th, th, alpha)
        tb = VectorField(g, th.coeffs / (1.0 + alpha * g.k_sq))
        grads = 0.0
        for c in tb.coeffs:
            gi = VectorField(g, np.stack((1j * g.k1 * c, 1j * g.k2 * c)))
            grads += gi.l2_norm_sq()
        other = tb.l2_norm_sq() + alpha * grads
        assert direct == pytest.approx(other, rel=1e-12)

    def test_bilinear_symmetric(self, rng):
        g = make_grid(32)
        mk = lambda: VectorField(g, np.stack([random_field(g, rng).coeffs for _ in range(2)]))
        th, xi, ze = mk(), mk(), mk()
        a = 0.4
        assert alpha_inner(th, xi, a) == pytest.approx(alpha_inner(xi, th, a), rel=1e-13)
        lhs = alpha_inner(VectorField(g, 2.0 * th.coeffs - xi.coeffs), ze, a)
        rhs = 2.0 * alpha_inner(th, ze, a) - alpha_inner(xi, ze, a)
        assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)

    def test_negative_alpha_rejected(self, rng):
        g = make_grid(16)
        th = VectorField(g, np.zeros((2, 16, 16), dtype=complex))
        with pytest.raises(ValueError):
            alpha_inner(th, th, -0.5)


class TestNorms:
    def test_same_bits_on_any_blas_pool(self):
        # a numpy reduction; a BLAS one (vdot) sums a 128^2 field in an order that
        # depends on the size of the pool
        pool = cli._openblas_pool()
        if pool is None or pool[0]() < 2:
            pytest.skip("numpy's BLAS pool has one thread")
        g = make_grid(128)
        f = random_field(g, np.random.default_rng(7))
        v = VectorField(g, np.stack((f.coeffs, 2.0 * f.coeffs)))
        want = (f.l2_norm_sq(), v.l2_norm_sq())
        with cli._blas_pool(1):
            assert pool[0]() == 1
            assert (f.l2_norm_sq(), v.l2_norm_sq()) == want


class TestRoundTripsAndProjections:
    def test_samples_round_trip(self, rng):
        g = make_grid(64)
        f = random_field(g, rng, amplitude=3.0)
        samples = f.to_samples()
        back = SpectralField(g, np.fft.fft2(samples) / g.n**2).to_samples()
        assert np.abs(back - samples).max() < 1e-12 * np.abs(samples).max()

    def test_hermitianize_projects_and_fixes(self, rng):
        g = make_grid(32)
        raw = rng.standard_normal((32, 32)) + 1j * rng.standard_normal((32, 32))
        h = hermitianize(g, raw)
        again = hermitianize(g, h)
        assert np.abs(h - again).max() < 1e-15
        neg = g._neg
        assert np.abs(h - np.conj(h[neg, :][:, neg])).max() < 1e-15

    def test_leray_kills_gradients_keeps_divfree(self, rng):
        # on zero-mean fields the Leray projection is stream_velocity(curl(.))
        g = make_grid(32)
        phi = random_field(g, rng)
        grad = VectorField(g, np.stack((1j * g.k1 * phi.coeffs, 1j * g.k2 * phi.coeffs)))
        proj = stream_velocity(curl(grad))
        assert np.abs(proj.coeffs[:, ~(g.k_sq == 0)]).max() < 1e-13
        om = random_field(g, rng)
        u = velocity_from_vorticity(om, 0.2)
        again = stream_velocity(curl(u))
        assert np.abs(again.coeffs - u.coeffs).max() < 1e-14

    def test_stream_velocity_curl_round_trip(self, rng):
        om = random_field(make_grid(48), rng)
        u = stream_velocity(om)
        assert np.abs(curl(u).coeffs - om.coeffs).max() < 1e-13

    def test_random_field_invariants(self, rng):
        g = make_grid(32)
        f = random_field(g, rng, band=5)
        assert f.coeffs[0, 0] == 0.0
        assert np.abs(np.where(g.k_sq > 25.0, f.coeffs, 0.0)).max() == 0.0
        assert np.abs(f.to_samples().imag if np.iscomplexobj(f.to_samples()) else 0.0).max() == 0.0
