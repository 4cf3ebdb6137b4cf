"""Spectral representation: grids, multipliers, the de-aliased Jacobian."""
import math

import numpy as np
import pytest

from bardina.spectral import (
    ModelParams,
    SpectralField,
    VectorField,
    alpha_inner,
    alpha_norm_sq,
    curl,
    divergence_coeffs,
    field_from_samples,
    gradient,
    hermitianize,
    inverse_smooth,
    jacobian,
    l2_inner,
    leray_project,
    make_grid,
    random_field,
    smooth,
    smooth_vector,
    stream_velocity,
    velocity_from_vorticity,
    zero_field,
)


class TestGrid:
    def test_rejects_odd_and_small(self):
        for n in (3, 2, 0, -4, 7):
            with pytest.raises(ValueError):
                make_grid(n)

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
        back = inverse_smooth(smooth(f, 0.37), 0.37)
        assert np.abs(back.coeffs - f.coeffs).max() < 1e-13

    def test_contraction(self, rng):
        f = random_field(make_grid(32), rng)
        assert smooth(f, 0.8).l2_norm_sq() <= f.l2_norm_sq()

    def test_negative_alpha_rejected(self, rng):
        f = random_field(make_grid(16), rng)
        with pytest.raises(ValueError):
            smooth(f, -0.1)
        with pytest.raises(ValueError):
            inverse_smooth(f, -0.1)
        with pytest.raises(ValueError):
            smooth_vector(VectorField(f.grid, np.stack((f.coeffs, f.coeffs))), -1.0)


class TestVelocityFromVorticity:
    def test_kolmogorov_profile_alpha_zero(self):
        # omega = -(lam*s/sqrt(2pi)) cos(s x2) gives u = (lam/sqrt(2pi) sin(s x2), 0)
        g = make_grid(64)
        s, lam = 3, 1.7
        x1, x2 = g.nodes()
        om = field_from_samples(g, -(lam * s / (math.sqrt(2.0) * math.pi)) * np.cos(s * x2))
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
        om = random_field(make_grid(32), rng)
        u = velocity_from_vorticity(om, 0.05)
        assert np.abs(divergence_coeffs(u)).max() < 1e-15 * np.abs(u.coeffs).max()


class TestJacobian:
    def test_self_jacobian_vanishes(self, rng):
        a = random_field(make_grid(64), rng)
        assert np.abs(jacobian(a, a).coeffs).max() < 1e-14

    def test_cosine_coupling_formula(self):
        # J(cos(s x2), cos(k1 x1 + k2 x2))
        #   = (k1 s / 2)[cos(k1 x1 + (k2+s) x2) - cos(k1 x1 + (k2-s) x2)]
        g = make_grid(64)
        s, k1, k2 = 4, 3, 2
        x1, x2 = g.nodes()
        a = field_from_samples(g, np.cos(s * x2))
        b = field_from_samples(g, np.cos(k1 * x1 + k2 * x2))
        got = jacobian(a, b).to_samples()
        want = (k1 * s / 2.0) * (
            np.cos(k1 * x1 + (k2 + s) * x2) - np.cos(k1 * x1 + (k2 - s) * x2)
        )
        assert np.abs(got - want).max() < 1e-12

    def test_antisymmetry(self, rng):
        g = make_grid(64)
        a, b = random_field(g, rng), random_field(g, rng)
        assert np.abs(jacobian(a, b).coeffs + jacobian(b, a).coeffs).max() < 1e-13

    def test_zero_mean_and_band_limited(self, rng):
        g = make_grid(48)
        a, b = random_field(g, rng), random_field(g, rng)
        j = jacobian(a, b)
        assert j.coeffs[0, 0] == 0.0
        assert np.abs(np.where(g.dealias, 0.0, j.coeffs)).max() == 0.0

    def test_skew_against_first_argument(self, rng):
        # integral of a * J(a, b) vanishes
        g = make_grid(64)
        a, b = random_field(g, rng), random_field(g, rng)
        j = jacobian(a, b)
        ip = (2.0 * np.pi) ** 2 * float(np.vdot(a.coeffs, j.coeffs).real)
        scale = math.sqrt(a.l2_norm_sq() * j.l2_norm_sq())
        assert abs(ip) < 1e-12 * scale

    def test_grid_mismatch(self, rng):
        a = random_field(make_grid(32), rng)
        b = random_field(make_grid(64), rng)
        with pytest.raises(ValueError):
            jacobian(a, b)


class TestAlphaInner:
    def test_alpha_zero_is_l2(self, rng):
        g = make_grid(32)
        th = VectorField(g, np.stack([random_field(g, rng).coeffs for _ in range(2)]))
        xi = VectorField(g, np.stack([random_field(g, rng).coeffs for _ in range(2)]))
        assert alpha_inner(th, xi, 0.0) == pytest.approx(l2_inner(th, xi), rel=1e-14)

    def test_unit_mode_forced_half(self):
        # |k|^2 = 1, alpha = 1, unit L2 amplitude -> 1/2
        g = make_grid(16)
        c = np.zeros((2, 16, 16), dtype=complex)
        c[0, 0, 1] = 1.0 / (2.0 * math.sqrt(2.0) * math.pi)
        c[0, 0, -1] = 1.0 / (2.0 * math.sqrt(2.0) * math.pi)
        th = VectorField(g, c)
        assert l2_inner(th, th) == pytest.approx(1.0, rel=1e-14)
        assert alpha_inner(th, th, 1.0) == pytest.approx(0.5, rel=1e-14)

    def test_two_route_identity(self, rng):
        # multiplier route vs smoothed-derivative route
        g = make_grid(64)
        alpha = 0.23
        th = VectorField(g, np.stack([random_field(g, rng).coeffs for _ in range(2)]))
        direct = alpha_norm_sq(th, alpha)
        tb = smooth_vector(th, alpha)
        grads = 0.0
        for i in range(2):
            gi = gradient(tb.component(i))
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


class TestRoundTripsAndProjections:
    def test_samples_round_trip(self, rng):
        g = make_grid(64)
        f = random_field(g, rng, amplitude=3.0)
        samples = f.to_samples()
        back = field_from_samples(g, samples).to_samples()
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
        g = make_grid(32)
        phi = random_field(g, rng)
        grad = gradient(phi)
        proj = leray_project(grad)
        assert np.abs(proj.coeffs[:, ~(g.k_sq == 0)]).max() < 1e-13
        om = random_field(g, rng)
        u = velocity_from_vorticity(om, 0.2)
        again = leray_project(u)
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
