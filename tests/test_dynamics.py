"""Integrator, diagnostics, variational flow, Lyapunov machinery."""
import dataclasses
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hs

try:
    import resource
except ImportError:  # not on every platform
    resource = None

from bardina.spectral import (
    ModelParams,
    SpectralField,
    VectorField,
    curl,
    hermitianize,
    make_grid,
    random_field,
    stream_velocity,
    velocity_from_vorticity,
    zero_field,
)
from bardina.dynamics import (
    BlowUpError,
    CFLError,
    SimState,
    TangentBundle,
    absorbing_radius,
    lyapunov_spectrum,
    make_state,
    make_tangents,
    simulate,
    step,
    step_with_tangents,
    variational_rhs,
    vorticity_rhs,
)
import bardina.dynamics as dyn
from bardina.dynamics import _check_tangent, _orthonormalize, _r0_sq_from_curl, _renormalize
from bardina.spectral import _band, _full, _unband
from bardina.instability import (
    Chain,
    KolmogorovSpec,
    _ladder_a,
    chain_matrix_eigen,
    kolmogorov_forcing,
    stationary_vorticity,
)

from conftest import alpha_inner

PARAMS = ModelParams(alpha=1.0 / 64.0, gamma=1.0)


def _mode_field(grid, t, q, c):
    arr = np.zeros((grid.n, grid.n), dtype=complex)
    arr[t % grid.n, q % grid.n] = c
    return SpectralField(grid, hermitianize(grid, 2.0 * arr))


def _band_zetas(grid, vectors):
    """Band stack of the vorticities of tangent velocity fields."""
    return np.stack([_band(grid, curl(v).coeffs) for v in vectors])


def _band_tangents(grid, zetas):
    """Tangent velocity fields of a band stack of vorticities."""
    return [stream_velocity(SpectralField(grid, z)) for z in _full(grid, _unband(grid, zetas))]


def _random_divfree(grid, rng, band=6):
    return stream_velocity(random_field(grid, rng, band=band))


class TestSimState:
    def test_make_state_cleans_input(self, rng):
        grid = make_grid(32)
        raw = rng.standard_normal((32, 32)) + 1j * rng.standard_normal((32, 32))
        raw[0, 0] = 3.0
        st = make_state(SpectralField(grid, raw), PARAMS)
        assert st.omega.coeffs[0, 0] == 0.0
        assert st.forcing_curl.l2_norm_sq() == 0.0

    def test_rejects_non_hermitian(self):
        grid = make_grid(16)
        c = np.zeros((16, 16), dtype=complex)
        c[1, 2] = 1.0  # no conjugate partner
        with pytest.raises(ValueError, match="Hermitian"):
            SimState(SpectralField(grid, c), 0.0, PARAMS, zero_field(grid))

    def test_rejects_nonzero_mean(self):
        grid = make_grid(16)
        c = np.zeros((16, 16), dtype=complex)
        c[0, 0] = 1.0
        with pytest.raises(ValueError, match="zero mean"):
            SimState(SpectralField(grid, c), 0.0, PARAMS, zero_field(grid))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite(self, rng, bad):
        grid = make_grid(16)
        c = random_field(grid, rng, band=3).coeffs.copy()
        c[1, 2] = bad
        with pytest.raises(ValueError, match="not finite"):
            SimState(SpectralField(grid, c), 0.0, PARAMS, zero_field(grid))
        with pytest.raises(ValueError, match="not finite"):
            SimState(zero_field(grid), 0.0, PARAMS, SpectralField(grid, c))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_time(self, bad):
        grid = make_grid(16)
        with pytest.raises(ValueError, match="time must be finite"):
            SimState(zero_field(grid), bad, PARAMS, zero_field(grid))

    def test_rejects_grid_mismatch(self):
        with pytest.raises(ValueError, match="grids"):
            SimState(zero_field(make_grid(16)), 0.0, PARAMS, zero_field(make_grid(32)))

    @pytest.mark.parametrize("shape", [(8, 8), (32, 32), (16, 9)])
    def test_rejects_coefficients_of_another_shape(self, shape):
        grid = make_grid(16)
        bad = SpectralField(grid, np.zeros(shape, dtype=complex))
        with pytest.raises(ValueError, match=r"^omega coefficients must have shape \(16, 16\)"):
            SimState(bad, 0.0, PARAMS, zero_field(grid))
        with pytest.raises(ValueError, match=r"^forcing_curl coefficients must have shape"):
            SimState(zero_field(grid), 0.0, PARAMS, bad)

    def test_make_state_rejects_grid_mismatch(self):
        # the grids are compared before either field is hermitianized
        with pytest.raises(ValueError, match="omega and forcing_curl live on different grids"):
            make_state(zero_field(make_grid(16)), PARAMS, forcing_curl=zero_field(make_grid(32)))

    def test_states_of_a_run_still_check_new_forcing(self, rng):
        # a run skips the forcing check only for its own, already checked forcing
        grid = make_grid(16)
        st = step(make_state(random_field(grid, rng, band=3), PARAMS), 1e-3)
        bad = np.zeros((16, 16), dtype=complex)
        bad[1, 2] = 1.0  # no conjugate partner
        with pytest.raises(ValueError, match="forcing_curl coefficients are not Hermitian"):
            dataclasses.replace(st, forcing_curl=SpectralField(grid, bad))
        with pytest.raises(ValueError, match="forcing_curl coefficients are not Hermitian"):
            SimState(st.omega, st.time, st.params, SpectralField(grid, bad))
        assert vars(st).keys() == {"omega", "time", "params", "forcing_curl"}

    def test_forcing_xor(self, rng):
        grid = make_grid(16)
        f = zero_field(grid)
        with pytest.raises(ValueError, match="not both"):
            make_state(f, PARAMS, forcing=VectorField(grid, np.zeros((2, 16, 16), complex)),
                       forcing_curl=f)


def _exactly_real(field):
    """Exactly Hermitian coefficients with an exactly zero mean."""
    c, neg = field.coeffs, field.grid._neg
    return np.array_equal(c, np.conj(c[..., neg, :][..., :, neg])) and not c[..., 0, 0].any()


def _full_spectrum_state(grid, rng, forcing):
    """make_state of a random omega on every mode, off the band too, with no
    forcing, a Kolmogorov forcing on the band or a shear forcing off it."""
    n = grid.n
    c = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / (1.0 + grid.k_sq)
    if forcing == "none":
        return make_state(SpectralField(grid, c), PARAMS)
    if forcing == "band":
        spec = KolmogorovSpec(s=grid.cut, amplitude=2.0, gamma=PARAMS.gamma)
        return make_state(SpectralField(grid, c), PARAMS, forcing=kolmogorov_forcing(spec, grid))
    s = int(rng.integers(grid.cut + 1, n // 2 + 1))  # the Nyquist column too
    return make_state(SpectralField(grid, c), PARAMS, forcing_curl=_shear_curl(grid, s, 2.0))


class TestStatesOfARun:
    """The integrators do not check what they hand out; these pin that it is
    valid by construction, when the run's input came from make_state."""

    @settings(max_examples=25, deadline=None)
    @given(n=hs.sampled_from([8, 12, 16, 30]), seed=hs.integers(0, 2**32 - 1),
           forcing=hs.sampled_from(["none", "band", "off-band"]))
    def test_states_are_exactly_real_and_zero_mean(self, n, seed, forcing):
        grid = make_grid(n)
        st = _full_spectrum_state(grid, np.random.default_rng(seed), forcing)
        assert _exactly_real(st.omega) and _exactly_real(st.forcing_curl)
        seen = []
        final, _ = simulate(st, 0.05, 0.01, observers=(seen.append,))
        assert len(seen) == 6 and seen[-1] is final
        for state in seen + [step(st, 0.01)]:
            assert _exactly_real(state.omega)
            assert state.forcing_curl is st.forcing_curl

    @settings(max_examples=10, deadline=None)
    @given(n=hs.sampled_from([8, 16, 30]), seed=hs.integers(0, 2**32 - 1),
           m=hs.integers(1, 3), forcing=hs.sampled_from(["none", "band", "off-band"]))
    def test_tangent_steps_hand_out_tangents(self, n, seed, m, forcing):
        grid = make_grid(n)
        rng = np.random.default_rng(seed)
        st = _full_spectrum_state(grid, rng, forcing)
        off = np.where(grid.dealias, 0.0, rng.standard_normal((n, n)) + 0j)
        extra = stream_velocity(SpectralField(grid, hermitianize(grid, off)))
        vecs = make_tangents(grid, m, PARAMS.alpha, rng)
        first = VectorField(grid, vecs[0].coeffs + extra.coeffs)
        out = step_with_tangents(TangentBundle(st, [first, *vecs[1:]]), 0.01)
        assert _exactly_real(out.base.omega) and len(out.vectors) == m
        for v in out.vectors:
            _check_tangent(grid, v)

    def test_runs_check_nothing_they_build(self, rng, monkeypatch):
        grid = make_grid(16)
        st = _full_spectrum_state(grid, rng, "off-band")
        bundle = TangentBundle(st, make_tangents(grid, 2, PARAMS.alpha, rng))
        checked = []
        monkeypatch.setattr(dyn, "_check_real_coeffs", lambda *args: checked.append(args[-1]))
        monkeypatch.setattr(dyn, "_check_tangent", lambda *args: checked.append("tangent"))
        _, rows = simulate(st, 0.01, 1e-3)
        step(st, 1e-3)
        step_with_tangents(bundle, 1e-3)
        assert len(rows) == 11 and checked == []


class TestVorticityRhs:
    def test_stationary_state_is_equilibrium(self):
        grid = make_grid(64)
        spec = KolmogorovSpec(s=4, amplitude=3.0, gamma=PARAMS.gamma)
        st = make_state(stationary_vorticity(spec, grid), PARAMS,
                        forcing=kolmogorov_forcing(spec, grid))
        assert np.abs(vorticity_rhs(st).coeffs).max() < 1e-13

    def test_single_mode_pure_decay(self):
        grid = make_grid(32)
        st = make_state(_mode_field(grid, 2, 3, 0.3 - 0.1j), PARAMS)
        r = vorticity_rhs(st)
        # self-advection of one mode vanishes up to transform roundoff
        resid = np.abs(r.coeffs + PARAMS.gamma * st.omega.coeffs).max()
        assert resid < 1e-14 * np.abs(st.omega.coeffs).max()

    def test_energy_identity_finite_difference(self, rng):
        # d/dt (||omegabar||^2 + alpha ||grad omegabar||^2) two ways: inner
        # product of the rhs vs a one-step finite difference, O(dt) agreement
        grid = make_grid(64)
        spec = KolmogorovSpec(s=4, amplitude=3.0, gamma=PARAMS.gamma)
        om = random_field(grid, rng, amplitude=1.0, band=8)
        st = make_state(om, PARAMS, forcing=kolmogorov_forcing(spec, grid))
        w = 1.0 / (1.0 + PARAMS.alpha * grid.k_sq)
        r = vorticity_rhs(st)
        d_ip = 2.0 * (2.0 * np.pi) ** 2 * float(
            np.sum((r.coeffs * np.conj(st.omega.coeffs)).real * w)
        )
        errs = []
        for h in (1e-4, 1e-5):
            d_fd = (step(st, h).energy() - st.energy()) / h
            errs.append(abs(d_fd - d_ip))
        assert errs[0] / abs(d_ip) < 1e-3
        assert 5.0 < errs[0] / errs[1] < 15.0  # first-order in the probe step

    def test_rhs_zero_mean(self, rng):
        grid = make_grid(32)
        st = make_state(random_field(grid, rng), PARAMS)
        assert vorticity_rhs(st).coeffs[0, 0] == 0.0


class TestStep:
    def test_pure_decay_exact(self):
        grid = make_grid(32)
        st = make_state(_mode_field(grid, 3, 5, 0.4 - 0.2j), PARAMS)
        n0 = math.sqrt(st.omega.l2_norm_sq())
        for _ in range(100):
            st = step(st, 0.05)
        want = n0 * math.exp(-PARAMS.gamma * 5.0)
        assert abs(math.sqrt(st.omega.l2_norm_sq()) - want) < 1e-10 * n0

    def test_stationary_fixed_point_bitwise(self):
        grid = make_grid(64)
        spec = KolmogorovSpec(s=4, amplitude=3.0, gamma=PARAMS.gamma)
        st = make_state(stationary_vorticity(spec, grid), PARAMS,
                        forcing=kolmogorov_forcing(spec, grid))
        c0 = st.omega.coeffs.copy()
        for _ in range(200):
            st = step(st, 0.02)
        assert np.array_equal(st.omega.coeffs, c0)

    @pytest.mark.parametrize("n", [64, 96])
    @pytest.mark.parametrize("k", [(3, 0), (0, 3), (3, 3), (3, -3)],
                             ids=["along_x1", "along_x2", "diagonal", "antidiagonal"])
    def test_single_wavevector_shear_fixed_bitwise(self, n, k):
        # one wavevector has no self-advection: with omega = curl g / gamma the
        # transport of the base row is exactly zero, also on the diagonals
        grid = make_grid(n)
        params = ModelParams(alpha=PARAMS.alpha, gamma=0.5)
        st = make_state(_mode_field(grid, *k, (0.7 - 0.4j) / params.gamma), params,
                        forcing_curl=_mode_field(grid, *k, 0.7 - 0.4j))
        c0 = st.omega.coeffs.copy()
        for _ in range(50):
            st = step(st, 0.02)
        assert np.array_equal(st.omega.coeffs, c0)

    @pytest.mark.parametrize("k", [(0, 4), (3, 3)])
    def test_single_mode_decay_bitwise(self, k):
        # unforced, each step multiplies the mode by e2 = e^(-gamma dt/2)^2
        # and adds exactly zero transport
        dt = 0.05
        st = make_state(_mode_field(make_grid(64), *k, 0.4 - 0.2j), PARAMS)
        e1 = math.exp(-PARAMS.gamma * dt / 2.0)
        want = st.omega.coeffs.copy()
        for _ in range(50):
            st = step(st, dt)
            want *= e1 * e1
        assert np.array_equal(st.omega.coeffs, want)

    def test_fourth_order_convergence(self, rng):
        grid = make_grid(64)
        spec = KolmogorovSpec(s=4, amplitude=3.0, gamma=PARAMS.gamma)
        g = kolmogorov_forcing(spec, grid)
        om0 = random_field(grid, rng, amplitude=1.0, band=8)

        def run(dt, T=0.16):
            s = make_state(om0, PARAMS, forcing=g)
            for _ in range(int(round(T / dt))):
                s = step(s, dt)
            return s.omega.coeffs

        ref = run(0.16 / 256)
        e_coarse = np.abs(run(0.01) - ref).max()
        e_fine = np.abs(run(0.005) - ref).max()
        assert 12.0 < e_coarse / e_fine < 20.0

    def test_preserves_invariants_exactly(self, rng):
        grid = make_grid(32)
        spec = KolmogorovSpec(s=4, amplitude=2.0, gamma=PARAMS.gamma)
        st = make_state(random_field(grid, rng, band=6), PARAMS,
                        forcing=kolmogorov_forcing(spec, grid))
        for _ in range(10):
            st = step(st, 0.01)
        c = st.omega.coeffs
        neg = grid._neg
        assert c[0, 0] == 0.0
        assert np.abs(c - np.conj(c[neg, :][:, neg])).max() == 0.0

    def test_cfl_guard(self, rng):
        grid = make_grid(32)
        st = make_state(random_field(grid, rng, amplitude=50.0, band=6), PARAMS)
        with pytest.raises(CFLError, match="grid spacing"):
            step(st, 0.5)

    def test_cfl_guard_checks_later_stages(self, rng, monkeypatch):
        # a speed above the limit on the third stage only must still trip
        import bardina.dynamics as dyn

        grid = make_grid(16)
        st = make_state(random_field(grid, rng, band=3), PARAMS)
        real = dyn._rates
        calls = []

        def fast_third_stage(*args, **kwargs):
            rates, speed = real(*args, **kwargs)
            calls.append(speed)
            return rates, (1e9 if len(calls) == 3 else speed)

        monkeypatch.setattr(dyn, "_rates", fast_third_stage)
        with pytest.raises(CFLError, match="grid spacing"):
            step(st, 1e-3)
        assert len(calls) == 3

    def test_blowup_detection(self, rng, monkeypatch):
        import bardina.dynamics as dyn

        grid = make_grid(16)
        st = make_state(random_field(grid, rng, band=3), PARAMS)
        real = dyn._rates

        def poisoned(*args, **kwargs):
            rates, speed = real(*args, **kwargs)
            rates[0] *= np.inf
            return rates, speed

        monkeypatch.setattr(dyn, "_rates", poisoned)
        # simulate between samples and lyapunov_spectrum build no state per
        # step; a non-finite step must stop them all the same
        runs = [
            lambda: step(st, 1e-6),
            lambda: simulate(st, st.time + 100 * 1e-6, 1e-6, observe_every=50),
            lambda: lyapunov_spectrum(st, n=2, dt=1e-6, renorm_every=2, t_transient=0.0,
                                      t_average=4e-6, blocks=2),
        ]
        for run in runs:
            with pytest.raises(BlowUpError, match="non-finite"):
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore", RuntimeWarning)
                    run()

    def test_rejects_nonpositive_dt(self, rng):
        st = make_state(random_field(make_grid(16), rng, band=3), PARAMS)
        with pytest.raises(ValueError, match="dt"):
            step(st, 0.0)


class TestSimulate:
    def test_unforced_trajectory_decays(self, rng):
        grid = make_grid(32)
        st = make_state(random_field(grid, rng, band=6), PARAMS)
        e0 = st.energy()
        final, rows = simulate(st, 3.0, 0.01, observe_every=50)
        assert rows[0].time == 0.0
        want = e0 * math.exp(-2.0 * PARAMS.gamma * 3.0)
        got = rows[-1].enstrophy_bar + rows[-1].grad_enstrophy_bar
        assert got == pytest.approx(want, rel=1e-6)

    def test_unforced_energy_decay_is_exponential_all_rows(self, rng):
        # with g = 0 the filtered energy obeys dE/dt = -2 gamma E exactly
        # (the transport term is energy-neutral); the integrator tracks it
        grid = make_grid(32)
        st = make_state(random_field(grid, rng, band=6), PARAMS)
        e0 = st.energy()
        _, rows = simulate(st, 1.0, 0.01, observe_every=10)
        for row in rows:
            want = e0 * math.exp(-2.0 * PARAMS.gamma * row.time)
            assert row.enstrophy_bar + row.grad_enstrophy_bar == pytest.approx(want, rel=1e-8)

    @pytest.mark.parametrize("dt", [0.0, -0.01, math.nan, math.inf])
    def test_rejects_bad_dt(self, rng, dt):
        st = make_state(random_field(make_grid(16), rng, band=3), PARAMS)
        with pytest.raises(ValueError, match="dt must be positive and finite"):
            simulate(st, 0.1, dt)

    def test_time_grid_validated(self, rng):
        st = make_state(random_field(make_grid(16), rng, band=3), PARAMS)
        with pytest.raises(ValueError, match="whole number"):
            simulate(st, 0.05, 0.02)

    @pytest.mark.parametrize("t_end", [math.inf, math.nan])
    def test_non_finite_t_end_rejected(self, rng, t_end):
        st = make_state(random_field(make_grid(16), rng, band=3), PARAMS)
        with pytest.raises(ValueError, match=f"t_end = {t_end} is not a whole number"):
            simulate(st, t_end, 0.02)

    def test_observers_called_at_row_instants(self, rng):
        st = make_state(random_field(make_grid(16), rng, band=3), PARAMS)
        seen = []
        _, rows = simulate(st, 0.1, 0.01, observe_every=2, observers=(lambda s: seen.append(s.time),))
        assert seen == [r.time for r in rows]
        assert len(rows) == 6

    def test_jacobian_energy_neutral_spectrally(self, rng):
        grid = make_grid(64)
        st = make_state(random_field(grid, rng, amplitude=2.0), PARAMS)
        nl = vorticity_rhs(st).coeffs + PARAMS.gamma * st.omega.coeffs
        w = 1.0 / (1.0 + PARAMS.alpha * grid.k_sq)
        ip = (2.0 * np.pi) ** 2 * float(np.sum((nl * np.conj(st.omega.coeffs)).real * w))
        assert abs(ip) < 1e-11 * st.energy()


def _forced_state(grid, rng, band=4):
    spec = KolmogorovSpec(s=2, amplitude=2.0, gamma=PARAMS.gamma)
    return make_state(random_field(grid, rng, amplitude=5.0, band=band), PARAMS,
                      forcing=kolmogorov_forcing(spec, grid))


class TestRunWorkspace:
    """Every integrator run writes into one preallocated workspace; these
    pin what that must never change."""

    def test_runs_leave_inputs_unchanged(self, rng):
        grid = make_grid(32)
        st = _forced_state(grid, rng)
        vecs = make_tangents(grid, 2, PARAMS.alpha, rng)
        inputs = [st.omega.coeffs, st.forcing_curl.coeffs, *(v.coeffs for v in vecs)]
        before = [a.tobytes() for a in inputs]
        dt = 1e-3
        runs = [
            lambda: step(st, dt),
            lambda: simulate(st, st.time + 5 * dt, dt, observe_every=2),
            lambda: step_with_tangents(TangentBundle(st, vecs), dt),
            lambda: lyapunov_spectrum(st, n=2, dt=dt, renorm_every=2, t_transient=0.0,
                                      t_average=4 * dt, blocks=2),
            lambda: vorticity_rhs(st),
            lambda: variational_rhs(vecs[0], st),
        ]
        for run in runs:
            run()
            assert [a.tobytes() for a in inputs] == before

    def test_reused_workspace_gives_the_bytes_of_a_fresh_one(self, rng):
        # a second run in the same buffers, after one cut short by the CFL
        # guard, must not see anything the first left behind
        import bardina.dynamics as dyn

        grid = make_grid(32)
        first = _forced_state(grid, rng)
        second = make_state(random_field(grid, rng, amplitude=5.0, band=4), PARAMS,
                            forcing_curl=first.forcing_curl)
        zetas = [curl(v).coeffs for v in make_tangents(grid, 2, PARAMS.alpha, rng)]

        def stack(state):
            return np.stack([state.omega.coeffs, *zetas])[..., : grid.n // 2 + 1]

        work = dyn._Work(first, stack(first))
        dyn._if_rk4(work, 1e-3)
        with pytest.raises(CFLError):
            dyn._if_rk4(work, 10.0)
        fresh = dyn._Work(second, stack(second))
        np.copyto(work.y, _band(grid, stack(second)))
        for _ in range(3):
            dyn._if_rk4(work, 1e-3)
            dyn._if_rk4(fresh, 1e-3)
        assert work.y.tobytes() == fresh.y.tobytes()
        assert work.w.tobytes() == fresh.w.tobytes()

    @staticmethod
    def _workspace_arrays(grid, rng, m):
        """The arrays a _Work with m tangents at grid allocates, the shared
        read-only operator tables left out."""
        st = _forced_state(grid, rng)
        zetas = [curl(v).coeffs for v in make_tangents(grid, m, PARAMS.alpha, rng)] if m else []
        stack = np.stack([st.omega.coeffs, *zetas])[..., : grid.n // 2 + 1]
        return [value for value in vars(dyn._Work(st, stack)).values()
                if isinstance(value, np.ndarray) and value.flags.writeable]

    @classmethod
    def _workspace_bytes(cls, grid, rng, m):
        """(grid-sized, other) bytes of _workspace_arrays: grid-sized are those
        whose trailing shape is (n, n), (n, n//2+1) or (n, K+1)."""
        n = grid.n
        grid_sized = other = 0
        for value in cls._workspace_arrays(grid, rng, m):
            if value.shape[-2:] in ((n, n), (n, n // 2 + 1), (n, grid.cut + 1)):
                grid_sized += value.nbytes
            else:
                other += value.nbytes
        return grid_sized, other

    def test_scratch_does_not_grow_with_tangents(self, rng):
        # each row is transformed as soon as its products are formed, so only
        # the band stacks y, stage, acc and rate hold a row per tangent
        grid = make_grid(64)
        cut = grid.cut
        (grid_one, other_one), (grid_eight, other_eight) = (
            self._workspace_bytes(grid, rng, m) for m in (1, 8))
        band_row = (2 * cut + 1) * (cut + 1) * np.dtype(complex).itemsize
        assert grid_eight == grid_one
        assert other_eight - other_one == 7 * 4 * band_row

    @pytest.mark.parametrize("m", [0, 1, 8])
    def test_one_transform_scratch_and_two_sample_pairs(self, rng, m):
        # every inverse and forward transform of the run goes through one
        # pair of half spectra, so no column input of shape (n, K+1) is
        # left; the samples base and pert hold two fields each, the base
        # product is formed in pert, and prod, a tangent's two products,
        # exists only with tangents
        grid = make_grid(64)
        n, cut = grid.n, grid.cut
        real, cplx = np.dtype(float).itemsize, np.dtype(complex).itemsize
        scratch = 2 * n * (n // 2 + 1) * cplx
        samples = (2 + 2 + (2 if m else 0)) * n * n * real
        assert scratch + samples == (264_192 if m else 198_656)
        assert self._workspace_bytes(grid, rng, m)[0] == scratch + samples
        shapes = [a.shape[-2:] for a in self._workspace_arrays(grid, rng, m)]
        assert (n, cut + 1) not in shapes
        assert shapes.count((n, n // 2 + 1)) == 1

    def test_step_with_tangents_converts_one_tangent_at_a_time(self, rng):
        # the stack is filled one curl at a time and each tangent goes back to
        # velocity on its own, so beside its workspace and what it returns the
        # call holds the few fields of one conversion: the tangent's full
        # layout, its stream function and its two velocity components with
        # one factor in flight, five n x n complex fields
        grid, m = make_grid(64), 8
        bundle = TangentBundle(_forced_state(grid, rng), make_tangents(grid, m, PARAMS.alpha, rng))
        step_with_tangents(bundle, 1e-3)  # fills the per-grid caches
        workspace = sum(self._workspace_bytes(grid, rng, m))
        field = grid.n**2 * np.dtype(complex).itemsize
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            out = step_with_tangents(bundle, 1e-3)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        kept = out.base.omega.coeffs.nbytes + sum(v.coeffs.nbytes for v in out.vectors)
        assert peak - kept < workspace + 5 * field

    @pytest.mark.skipif(resource is None, reason="needs the resource module")
    def test_steps_do_not_fault_in_fresh_memory(self, rng):
        # an allocating step maps about 4 MB of fresh memory at 128^2 and
        # takes about 1000 minor page faults; with the workspace a step,
        # publishing and diagnostics included, takes a handful
        grid = make_grid(128)
        st = _forced_state(grid, rng, band=12)
        faults = []

        def count(_state):
            faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt)

        n_steps = 20
        simulate(st, st.time + 2e-3, 1e-3)  # glibc raises its mmap threshold on the first frees
        simulate(st, st.time + n_steps * 1e-3, 1e-3, observers=(count,))
        # faults[1] is sampled after the first step, which touches the workspace
        per_step = (faults[-1] - faults[1]) / (n_steps - 1)
        assert per_step < 100

    @pytest.mark.skipif(resource is None, reason="needs the resource module")
    def test_renormalizations_do_not_fault_in_fresh_memory(self, rng):
        # a renormalization that expands the tangents to the full layout
        # allocates about 3.4 MB at 128^2 with 4 tangents, 50-100 minor page
        # faults per step at renorm_every = 10; on the band it takes a handful
        grid = make_grid(128)
        st = _forced_state(grid, rng, band=12)
        dt, every = 1e-3, 10
        kw = dict(n=4, dt=dt, renorm_every=every, t_transient=0.0, blocks=2, seed=1)

        def faults(intervals):
            before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", UserWarning)
                lyapunov_spectrum(st, t_average=intervals * every * dt, **kw)
            return resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before

        faults(2)  # glibc raises its mmap threshold on the first frees
        per_step = (faults(8) - faults(2)) / (6 * every)
        assert per_step < 25


def _reference_step(state, dt):
    """One IF-RK4 step in the full layout with complex transforms, the 2/3
    mask applied to every input and product."""
    grid, alpha, gamma = state.grid, state.params.alpha, state.params.gamma
    n2 = grid.n**2
    inv_smooth = 1.0 / (1.0 + alpha * grid.k_sq)
    psi_mult = -np.divide(inv_smooth, grid.k_sq, out=np.zeros_like(inv_smooth),
                          where=grid.k_sq > 0)

    def d(c, k):
        return np.fft.ifft2(1j * k * np.where(grid.dealias, c, 0.0)).real * n2

    def transport(omega):
        psi, ob = psi_mult * omega, inv_smooth * omega
        prod = d(psi, grid.k1) * d(ob, grid.k2) - d(psi, grid.k2) * d(ob, grid.k1)
        out = np.where(grid.dealias, np.fft.fft2(prod) / n2, 0.0)
        out[0, 0] = 0.0
        return -out

    shift = state.forcing_curl.coeffs / gamma
    e1 = math.exp(-gamma * dt / 2.0)
    e2 = e1 * e1
    w = state.omega.coeffs - shift
    g1 = transport(w + shift)
    g2 = transport(e1 * (w + 0.5 * dt * g1) + shift)
    g3 = transport(e1 * w + 0.5 * dt * g2 + shift)
    g4 = transport(e2 * w + dt * e1 * g3 + shift)
    return e2 * w + dt / 6.0 * (e2 * g1 + 2.0 * e1 * g2 + 2.0 * e1 * g3 + g4) + shift


def _shear_curl(grid, s, amplitude):
    """curl g of the shear forcing g = (amplitude sin(s x2), 0), at any s."""
    c = np.zeros((grid.n, grid.n), dtype=complex)
    c[0, s] = c[0, -s] = -0.5 * s * amplitude
    return SpectralField(grid, c)


class TestBandLayout:
    """The integrators carry the 2/3-band coefficients only; these pin that
    the band carries the whole de-aliased step, and that the modes off the
    band move by the integrating factor alone."""

    @pytest.mark.parametrize("n", [30, 96])
    def test_step_and_simulate_match_full_layout_reference(self, rng, n):
        # 3 | n: the largest retained |k| is (n-1)//3 = n/3 - 1
        grid = make_grid(n)
        spec = KolmogorovSpec(s=3, amplitude=4.0, gamma=PARAMS.gamma)
        st = make_state(random_field(grid, rng, amplitude=3.0), PARAMS,
                        forcing=kolmogorov_forcing(spec, grid))
        dt, steps = 0.005, 5
        stepped, want = st, st
        for _ in range(steps):
            stepped = step(stepped, dt)
            want = dataclasses.replace(want, omega=SpectralField(grid, _reference_step(want, dt)))
        scale = np.abs(st.omega.coeffs).max()
        assert np.abs(stepped.omega.coeffs - want.omega.coeffs).max() <= 1e-14 * scale
        final, _ = simulate(st, steps * dt, dt, observe_every=2)
        assert final.omega.coeffs.tobytes() == stepped.omega.coeffs.tobytes()

    def test_off_band_modes_follow_the_integrating_factor(self, rng):
        # shear forcing at s = 11 > (30-1)//3 = 9 and an initial state with
        # modes off the band: those modes get no transport, so each step
        # takes them from y to e2 (y - shift) + shift, bit for bit, and the
        # band does not see them
        grid = make_grid(30)
        fc = _shear_curl(grid, 11, 4.0)
        extra = np.zeros((30, 30), dtype=complex)
        extra[12, 3], extra[2, 13], extra[15, 0] = 0.3 + 0.1j, -0.2j, 0.05
        omega = random_field(grid, rng, amplitude=2.0)
        st = make_state(SpectralField(grid, omega.coeffs + hermitianize(grid, extra)), PARAMS,
                        forcing_curl=fc)
        banded = make_state(omega, PARAMS)
        off = ~grid.dealias
        assert np.abs(st.omega.coeffs[off]).min() == 0.0 < np.abs(st.omega.coeffs[off]).max()
        dt = 0.01
        e1 = math.exp(-PARAMS.gamma * dt / 2.0)
        shift = fc.coeffs[off] / PARAMS.gamma
        want = st.omega.coeffs[off]
        a, b = st, banded
        for _ in range(4):
            a, b = step(a, dt), step(b, dt)
            want = (want - shift) * (e1 * e1) + shift
            assert np.array_equal(a.omega.coeffs[off], want)
            assert np.array_equal(a.omega.coeffs[grid.dealias], b.omega.coeffs[grid.dealias])
        final, _ = simulate(st, 4 * dt, dt, observe_every=3)
        assert final.omega.coeffs.tobytes() == a.omega.coeffs.tobytes()

    def test_off_band_tangent_modes_decay_by_the_integrating_factor(self, rng):
        grid = make_grid(30)
        st = make_state(random_field(grid, rng, amplitude=2.0), PARAMS)
        zeta = np.zeros((30, 30), dtype=complex)
        zeta[12, 3] = 0.3 + 0.1j
        theta = stream_velocity(SpectralField(grid, hermitianize(grid, zeta)))
        (inside,) = make_tangents(grid, 1, PARAMS.alpha, rng)
        dt = 0.01
        both = VectorField(grid, inside.coeffs + theta.coeffs)
        out = step_with_tangents(TangentBundle(st, [both, inside]), dt)
        e1 = math.exp(-PARAMS.gamma * dt / 2.0)
        got = curl(VectorField(grid, out.vectors[0].coeffs - out.vectors[1].coeffs)).coeffs
        want = curl(theta).coeffs * (e1 * e1)
        assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()


class TestAbsorbingRadius:
    def test_forced_formula(self):
        # ||g|| = 1, ||curl g|| = 2 via a single divergence-free |k| = 2 mode
        grid = make_grid(16)
        amp = 1.0 / (2.0 * math.sqrt(2.0) * math.pi)
        c = np.zeros((2, 16, 16), dtype=complex)
        c[0, 0, 2] = amp
        c[0, 0, -2] = amp
        g = VectorField(grid, c)
        assert g.l2_norm_sq() == pytest.approx(1.0, rel=1e-14)
        assert curl(g).l2_norm_sq() == pytest.approx(4.0, rel=1e-14)
        r0 = absorbing_radius(ModelParams(alpha=1.0, gamma=1.0), g)
        assert r0 == pytest.approx(1.0, rel=1e-14)

    def test_kolmogorov_norms(self):
        grid = make_grid(48)
        spec = KolmogorovSpec(s=5, amplitude=2.0, gamma=1.5)
        g = kolmogorov_forcing(spec, grid)
        force_norm_sq = (spec.gamma * spec.amplitude) ** 2
        assert g.l2_norm_sq() == pytest.approx(force_norm_sq, rel=1e-13)
        assert curl(g).l2_norm_sq() == pytest.approx(spec.curl_norm_sq, rel=1e-13)
        r0 = absorbing_radius(ModelParams(alpha=0.04, gamma=spec.gamma), g)
        want = min(force_norm_sq / 0.04, spec.curl_norm_sq) / spec.gamma**2
        assert r0**2 == pytest.approx(want, rel=1e-13)

    def test_zero_forcing(self):
        grid = make_grid(16)
        g = VectorField(grid, np.zeros((2, 16, 16), dtype=complex))
        assert absorbing_radius(PARAMS, g) == 0.0

    def test_rejects_nonzero_mean(self):
        grid = make_grid(16)
        c = np.zeros((2, 16, 16), dtype=complex)
        c[0, 0, 0] = 1.0
        with pytest.raises(ValueError, match="zero mean"):
            absorbing_radius(PARAMS, VectorField(grid, c))

    def test_margin_uses_divergence_free_radius(self, rng):
        grid = make_grid(32)
        spec = KolmogorovSpec(s=4, amplitude=2.0, gamma=PARAMS.gamma)
        g = kolmogorov_forcing(spec, grid)
        st = make_state(random_field(grid, rng, band=6), PARAMS, forcing=g)
        direct = absorbing_radius(PARAMS, g) ** 2
        r0_sq = _r0_sq_from_curl(PARAMS, st.forcing_curl)
        assert r0_sq == pytest.approx(direct, rel=1e-12)
        row = st._diagnostics(r0_sq)
        assert row.r0_margin == pytest.approx(direct - st.energy(), rel=1e-10)


class TestVariationalRhs:
    def test_zero_base_is_pure_damping(self, rng):
        grid = make_grid(32)
        st = make_state(zero_field(grid), PARAMS)
        th = _random_divfree(grid, rng)
        out = variational_rhs(th, st)
        assert np.abs(out.coeffs + PARAMS.gamma * th.coeffs).max() < 1e-15

    def test_linear(self, rng):
        grid = make_grid(48)
        st = make_state(random_field(grid, rng, band=8), PARAMS)
        th, xi = _random_divfree(grid, rng), _random_divfree(grid, rng)
        lhs = variational_rhs(VectorField(grid, 2.0 * th.coeffs - 0.5 * xi.coeffs), st).coeffs
        rhs = 2.0 * variational_rhs(th, st).coeffs - 0.5 * variational_rhs(xi, st).coeffs
        scale = np.abs(rhs).max()
        assert np.abs(lhs - rhs).max() < 1e-12 * max(scale, 1.0)

    def test_output_divergence_free(self, rng):
        grid = make_grid(32)
        st = make_state(random_field(grid, rng, band=8), PARAMS)
        out = variational_rhs(_random_divfree(grid, rng), st)
        div = grid.k1 * out.coeffs[0] + grid.k2 * out.coeffs[1]
        assert np.abs(div).max() < 1e-13 * np.abs(out.coeffs).max()

    def test_grid_mismatch(self, rng):
        st = make_state(random_field(make_grid(32), rng, band=6), PARAMS)
        th = _random_divfree(make_grid(16), rng, band=3)
        with pytest.raises(ValueError, match="grids"):
            variational_rhs(th, st)

    def test_finite_difference_linearization_slope(self, rng):
        # || N(u+eps theta) - N(u) - eps L theta || = O(eps^2) in the
        # velocity form N(u) = -P[(ubar.grad) ubar]
        grid = make_grid(64)
        alpha = PARAMS.alpha

        def n_vel(omega_field):
            ub = velocity_from_vorticity(omega_field, alpha)
            d = [VectorField(grid, np.stack((1j * grid.k1 * c, 1j * grid.k2 * c)))
                 for c in ub.coeffs]
            u1 = ub.component(0).to_samples()
            u2 = ub.component(1).to_samples()
            comps = []
            for j in range(2):
                dj1 = d[j].component(0).to_samples()
                dj2 = d[j].component(1).to_samples()
                comps.append(np.fft.fft2(u1 * dj1 + u2 * dj2) / grid.n**2)
            # Leray projection: remove k (k.uhat)/|k|^2
            out = -np.stack(comps)
            kdotu = np.divide(grid.k1 * out[0] + grid.k2 * out[1], grid.k_sq,
                              out=np.zeros_like(out[0]), where=grid.k_sq > 0)
            out -= np.stack((grid.k1 * kdotu, grid.k2 * kdotu))
            return VectorField(grid, np.where(grid.dealias, out, 0.0))

        om = random_field(grid, rng, amplitude=1.0, band=8)
        st = make_state(om, PARAMS)
        th = _random_divfree(grid, rng)
        n0 = n_vel(om)
        l_th = variational_rhs(th, st).coeffs + PARAMS.gamma * th.coeffs
        eps_list = (1e-3, 1e-4, 1e-5, 1e-6)
        errs = []
        for eps in eps_list:
            om_eps = SpectralField(grid, om.coeffs + eps * curl(th).coeffs)
            n_eps = n_vel(om_eps)
            resid = n_eps.coeffs - n0.coeffs - eps * l_th
            errs.append(np.sqrt(float(np.vdot(resid, resid).real)))
        slope = np.polyfit(np.log(eps_list), np.log(errs), 1)[0]
        assert abs(slope - 2.0) < 0.1

    def test_chain_recurrence_reproduced(self):
        # the linearized action at the Kolmogorov state, restricted to one
        # chain, reproduces the recurrence couplings 1/A_n exactly: read them
        # off as exact differences of the quadratic vorticity rhs
        grid = make_grid(256)
        s, lam, t, r = 8, 5.0, 4, 1
        spec = KolmogorovSpec(s=s, amplitude=lam, gamma=PARAMS.gamma)
        ch = Chain.from_spec(spec, t=t, r=r, alpha=PARAMS.alpha)
        om_s = stationary_vorticity(spec, grid)
        base = make_state(om_s, PARAMS, forcing=kolmogorov_forcing(spec, grid))
        r0 = vorticity_rhs(base).coeffs
        for n in range(-6, 7):
            q = s * n + r
            zeta = _mode_field(grid, t, q, 0.37)
            st2 = make_state(SpectralField(grid, om_s.coeffs + zeta.coeffs), PARAMS,
                             forcing=kolmogorov_forcing(spec, grid))
            dr = vorticity_rhs(st2).coeffs - r0
            up = complex(dr[t % grid.n, (q + s) % grid.n]) / 0.37
            down = complex(dr[t % grid.n, (q - s) % grid.n]) / 0.37
            k_sq = t * t + q * q
            c_val = (k_sq - s * s) / (k_sq + PARAMS.alpha * k_sq**2)
            assert abs(up - (-ch.coupling * t * c_val)) < 1e-12
            assert abs(down - ch.coupling * t * c_val) < 1e-12
            a_n = _ladder_a(ch.s, ch.t, ch.r, ch.alpha, float(n))  # at unit coupling
            assert abs(abs(up) - abs(ch.coupling / a_n)) < 1e-12

    def test_chain_eigenvalue_from_velocity_action(self):
        # assemble the chain matrix by applying the velocity-form linearized
        # operator to single-mode tangents; its top eigenvalue must match the
        # tridiagonal oracle
        grid = make_grid(256)
        s, lam, t, r, depth = 8, 5.0, 4, 1, 8
        spec = KolmogorovSpec(s=s, amplitude=lam, gamma=PARAMS.gamma)
        ch = Chain.from_spec(spec, t=t, r=r, alpha=PARAMS.alpha)
        om_s = stationary_vorticity(spec, grid)
        base = make_state(om_s, PARAMS, forcing=kolmogorov_forcing(spec, grid))
        size = 2 * depth + 1
        mat = np.zeros((size, size))
        for n in range(-depth, depth + 1):
            q = s * n + r
            arr = np.zeros((grid.n, grid.n), dtype=complex)
            arr[t % grid.n, q % grid.n] = 1.0
            arr = hermitianize(grid, 2.0 * arr)
            th = VectorField(grid, np.stack((-1j * grid.k2 * arr, 1j * grid.k1 * arr)))
            out = variational_rhs(th, base).coeffs + PARAMS.gamma * th.coeffs
            for m in (n - 1, n + 1):
                if -depth <= m <= depth:
                    qm = s * m + r
                    amp = complex(out[1, t % grid.n, qm % grid.n]) / (1j * t)
                    assert abs(amp.imag) < 1e-12
                    mat[m + depth, n + depth] = amp.real
        sigma = float(np.linalg.eigvals(mat).real.max()) - PARAMS.gamma
        # same truncation depth on both sides: agreement is exact
        assert abs(sigma - chain_matrix_eigen(ch, depth=depth)) < 1e-10


class TestTangentStepping:
    def test_exact_derivative_of_discrete_map(self, rng):
        # Richardson-extrapolated finite difference of the base map equals
        # the propagated tangent: the tangent step is the exact Jacobian
        grid = make_grid(48)
        spec = KolmogorovSpec(s=4, amplitude=2.0, gamma=PARAMS.gamma)
        g = kolmogorov_forcing(spec, grid)
        om = random_field(grid, rng, amplitude=0.8, band=8)
        st = make_state(om, PARAMS, forcing=g)
        th = _random_divfree(grid, rng)
        dt = 0.02
        bundle = step_with_tangents(TangentBundle(st, [th]), dt)
        zeta_new = curl(bundle.vectors[0]).coeffs

        zeta = curl(th).coeffs

        def base_map(eps):
            pert = make_state(SpectralField(grid, om.coeffs + eps * zeta), PARAMS, forcing=g)
            return step(pert, dt).omega.coeffs

        c0 = base_map(0.0)
        eps = 1e-5
        fd1 = (base_map(eps) - c0) / eps
        fd2 = (base_map(2.0 * eps) - c0) / (2.0 * eps)
        richardson = 2.0 * fd1 - fd2
        scale = np.abs(zeta_new).max()
        assert np.abs(richardson - zeta_new).max() < 1e-8 * scale

    def test_damping_only_when_base_zero(self, rng):
        grid = make_grid(32)
        st = make_state(zero_field(grid), PARAMS)
        th = _random_divfree(grid, rng)
        bundle = step_with_tangents(TangentBundle(st, [th]), 0.1)
        want = math.exp(-PARAMS.gamma * 0.1) * th.coeffs
        assert np.abs(bundle.vectors[0].coeffs - want).max() < 1e-15

    @pytest.mark.parametrize("n", [30, 32, 64])
    @pytest.mark.parametrize("m", [1, 4])
    def test_stacking_never_couples_rows(self, rng, n, m):
        # the base row of a stacked step is the plain step, and each tangent
        # row that tangent stepped alone on the same base, bit for bit
        grid = make_grid(n)
        spec = KolmogorovSpec(s=4, amplitude=2.0, gamma=PARAMS.gamma)
        st = make_state(random_field(grid, rng, band=6), PARAMS,
                        forcing=kolmogorov_forcing(spec, grid))
        vecs = make_tangents(grid, m, PARAMS.alpha, rng)
        moved = step_with_tangents(TangentBundle(st, vecs), 0.01)
        assert np.array_equal(moved.base.omega.coeffs, step(st, 0.01).omega.coeffs)
        for v, stacked in zip(vecs, moved.vectors, strict=True):
            (alone,) = step_with_tangents(TangentBundle(st, [v]), 0.01).vectors
            assert np.array_equal(stacked.coeffs, alone.coeffs)

    @pytest.mark.parametrize("shape", [(3, 16, 16), (16, 16), (2, 8, 8)])
    def test_rejects_tangent_of_another_shape(self, shape):
        # a third component would drop out of the curl without notice
        st = make_state(zero_field(make_grid(16)), PARAMS)
        bad = VectorField(st.grid, np.zeros(shape, dtype=complex))
        with pytest.raises(ValueError,
                           match=r"^tangent coefficients must have shape \(2, 16, 16\)"):
            TangentBundle(st, [bad])

    def test_rejects_tangent_outside_tangent_space(self, rng):
        # a mean or a gradient part would vanish in the curl without notice
        grid = make_grid(32)
        st = make_state(random_field(grid, rng, band=6), PARAMS)
        th = _random_divfree(grid, rng)
        with_mean = VectorField(grid, th.coeffs.copy())
        with_mean.coeffs[0, 0, 0] = 0.1
        phi = random_field(grid, rng, band=6).coeffs
        grad = VectorField(grid, np.stack((1j * grid.k1 * phi, 1j * grid.k2 * phi)))
        with_grad = VectorField(grid, th.coeffs + 1e-6 * grad.coeffs)
        for bad, what in ((with_mean, "zero mean"), (with_grad, "divergence-free")):
            with pytest.raises(ValueError, match=what):
                TangentBundle(st, [th, bad])
            with pytest.raises(ValueError, match=what):
                variational_rhs(bad, st)
        TangentBundle(st, [th])  # the clean tangent passes

    def test_tangent_grid_mismatch(self, rng):
        st = make_state(random_field(make_grid(32), rng, band=4), PARAMS)
        th = _random_divfree(make_grid(16), rng, band=3)
        with pytest.raises(ValueError, match="grid"):
            TangentBundle(st, [th])


class TestGramSchmidt:
    def test_orthonormal_in_alpha_inner(self, rng):
        grid = make_grid(32)
        vecs = make_tangents(grid, 4, PARAMS.alpha, rng)
        for i in range(4):
            for j in range(4):
                want = 1.0 if i == j else 0.0
                got = alpha_inner(vecs[i], vecs[j], PARAMS.alpha)
                assert abs(got - want) < 1e-12

    def test_growth_factors(self, rng):
        grid = make_grid(32)
        zetas = _band_zetas(grid, make_tangents(grid, 2, PARAMS.alpha, rng))
        scaled = np.stack([3.0 * zetas[0], 0.25 * zetas[1]])
        _, norms = _orthonormalize(scaled, PARAMS.alpha)
        assert norms[0] == pytest.approx(3.0, rel=1e-12)
        assert norms[1] == pytest.approx(0.25, rel=1e-12)

    def test_collapse_reseeds_and_flags(self, rng):
        grid = make_grid(32)
        st = make_state(zero_field(grid), PARAMS)
        (zeta,) = _band_zetas(grid, make_tangents(grid, 1, PARAMS.alpha, rng))
        zetas, growth, collapsed = _renormalize(grid, np.stack([zeta, zeta.copy()]), PARAMS.alpha, rng)
        renewed = TangentBundle(st, _band_tangents(grid, zetas))
        assert collapsed
        assert growth[1] == 0.0
        gram = [[alpha_inner(a, b, PARAMS.alpha) for a in renewed.vectors]
                for b in renewed.vectors]
        assert np.abs(np.array(gram) - np.eye(2)).max() < 1e-10

    def test_nearly_dependent_pair_stays_in_tangent_space(self, rng):
        # normalizing a remainder of 1e-7 amplifies the roundoff of the
        # differences; the renormalized family must still be tangents
        grid = make_grid(32)
        st = make_state(zero_field(grid), PARAMS)
        v, u = _band_zetas(grid, make_tangents(grid, 2, PARAMS.alpha, rng))
        zetas, growth, collapsed = _renormalize(grid, np.stack([v, v + 1e-7 * u]), PARAMS.alpha, rng)
        renewed = TangentBundle(st, _band_tangents(grid, zetas))
        assert not collapsed
        assert growth[1] == pytest.approx(1e-7, rel=1e-6)
        gram = [[alpha_inner(a, b, PARAMS.alpha) for a in renewed.vectors]
                for b in renewed.vectors]
        assert np.abs(np.array(gram) - np.eye(2)).max() < 1e-8


class TestLyapunov:
    @pytest.mark.parametrize("bad, what", [
        (dict(t_transient=math.inf), "t_transient"),
        (dict(t_transient=math.nan), "t_transient"),
        (dict(t_transient=-1.0), "t_transient"),
        (dict(t_average=math.nan), "t_average must be"),
        (dict(t_average=math.inf), "t_average must be"),
        (dict(t_average=0.0), "t_average must be"),
        (dict(blocks=1), "blocks"),
        (dict(blocks=0), "blocks"),
        (dict(dt=0.0), "dt must be positive and finite"),
        (dict(dt=-0.01), "dt must be positive and finite"),
        (dict(dt=math.nan), "dt must be positive and finite"),
        (dict(dt=math.inf), "dt must be positive and finite"),
    ], ids=["transient_inf", "transient_nan", "transient_negative", "average_nan",
            "average_inf", "average_zero", "one_block", "no_blocks", "dt_zero",
            "dt_negative", "dt_nan", "dt_inf"])
    def test_rejects_bad_window(self, bad, what):
        st = make_state(zero_field(make_grid(16)), PARAMS)
        kw = dict(n=1, dt=0.05, renorm_every=2, t_transient=0.1, t_average=1.0, seed=1, blocks=2)
        with pytest.raises(ValueError, match=what):
            lyapunov_spectrum(st, **{**kw, **bad})

    @pytest.mark.parametrize("name, window", [("t_transient", 0.1), ("t_average", 2.3)])
    def test_window_must_be_whole_intervals(self, name, window):
        # an interval is renorm_every * dt = 0.25; rounding would run no
        # transient for 0.1 and average over 2.25 for 2.3
        st = make_state(zero_field(make_grid(16)), PARAMS)
        kw = dict(n=1, dt=0.025, renorm_every=10, t_transient=0.25, t_average=2.25, blocks=2)
        with pytest.raises(ValueError, match=f"{name} = {window} is not a whole number"):
            lyapunov_spectrum(st, **{**kw, name: window})
        # within the 1e-9 relative tolerance of simulate's t_end rule
        nearly = lyapunov_spectrum(st, **{**kw, name: kw[name] * (1 + 1e-12)})
        assert nearly == lyapunov_spectrum(st, **kw)

    def test_unforced_all_exponents_equal_damping(self):
        grid = make_grid(32)
        st = make_state(zero_field(grid), PARAMS)
        rep = lyapunov_spectrum(st, n=3, dt=0.05, renorm_every=10,
                                t_transient=1.0, t_average=20.0, seed=1)
        for lam in rep.exponents:
            assert abs(lam + PARAMS.gamma) < 1e-6
        assert rep.lyapunov_dimension == 0.0
        assert rep.partial_sums[2] == pytest.approx(-3.0 * PARAMS.gamma, abs=1e-6)

    def test_exponents_sorted_and_sums_consistent(self, rng):
        grid = make_grid(32)
        spec = KolmogorovSpec(s=4, amplitude=2.0, gamma=PARAMS.gamma)
        st = make_state(random_field(grid, rng, band=6), PARAMS,
                        forcing=kolmogorov_forcing(spec, grid))
        rep = lyapunov_spectrum(st, n=3, dt=0.02, renorm_every=10,
                                t_transient=2.0, t_average=12.0, seed=3, blocks=4)
        assert list(rep.exponents) == sorted(rep.exponents, reverse=True)
        assert rep.partial_sums[-1] == pytest.approx(sum(rep.exponents), rel=1e-12)
        assert len(rep.standard_errors) == 3

    def test_renorm_interval_invariance(self, rng):
        # doubling renorm_every moves the estimates by < 2 joint standard errors
        grid = make_grid(48)
        spec = KolmogorovSpec(s=4, amplitude=4.0, gamma=PARAMS.gamma)
        st = make_state(random_field(grid, rng, amplitude=0.5, band=8), PARAMS,
                        forcing=kolmogorov_forcing(spec, grid))
        kw = dict(n=2, dt=0.02, t_transient=4.0, t_average=16.0, seed=7, blocks=4)
        a = lyapunov_spectrum(st, renorm_every=5, **kw)
        b = lyapunov_spectrum(st, renorm_every=10, **kw)
        for la, sa, lb, sb in zip(a.exponents, a.standard_errors,
                                  b.exponents, b.standard_errors):
            assert abs(la - lb) <= 2.0 * (sa + sb) + 1e-9

    def test_stable_base_leading_exponent_matches_oracle(self):
        # linearly stable Kolmogorov state at 0.8x the critical coupling: the
        # measured leading exponent is the top chain eigenvalue; modest run
        # and tolerance here, the acceptance suite repeats this tightly
        from bardina.instability import solve_lambda0s

        alpha, gamma, s = 1.0 / 16.0, 1.0, 4
        params = ModelParams(alpha=alpha, gamma=gamma)
        grid = make_grid(64)
        candidates = [
            Chain(s=s, t=t, r=r, alpha=alpha, gamma=gamma, coupling=1.0)
            for t in (1, 2, 3) for r in (-1, 0, 1, 2)
        ]
        crit = float(solve_lambda0s([c for c in candidates if c.admissible()]).min())
        amp = 0.8 * crit * 2.0 * math.sqrt(2.0) * math.pi * (1.0 + alpha * s * s)
        spec = KolmogorovSpec(s=s, amplitude=amp, gamma=gamma)
        st = make_state(stationary_vorticity(spec, grid), params,
                        forcing=kolmogorov_forcing(spec, grid))
        best = max(
            chain_matrix_eigen(Chain.from_spec(spec, alpha=alpha, t=t, r=r), depth=60)
            for t in range(1, 13) for r in (-1, 0, 1, 2)
        )
        assert best < 0.0  # coupling below critical: base is stable
        rep = lyapunov_spectrum(st, n=1, dt=0.05, renorm_every=10,
                                t_transient=40.0, t_average=20.0, seed=2)
        assert rep.exponents[0] == pytest.approx(best, abs=1e-3)

    def test_report_counts_collapses(self, monkeypatch):
        # zero one growth factor at the 3rd and 7th orthonormalization: the
        # 1st seeds the tangents, the 3rd is the last transient renormalization
        # and the 7th the third of the window (the 4th re-seeds after the 3rd)
        import bardina.dynamics as dyn

        st = make_state(zero_field(make_grid(16)), PARAMS)
        kw = dict(n=2, dt=0.05, renorm_every=2, t_transient=0.2, t_average=1.0, seed=1, blocks=2)
        assert lyapunov_spectrum(st, **kw).collapses == 0
        real, calls = dyn._orthonormalize, []

        def collapsing(zetas, alpha):
            calls.append(None)
            out, growth = real(zetas, alpha)
            if len(calls) in (3, 7):
                out[1], growth[1] = 0.0, 0.0
            return out, growth

        monkeypatch.setattr(dyn, "_orthonormalize", collapsing)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rep = lyapunov_spectrum(st, **kw)
        messages = [str(w.message) for w in caught]
        assert rep.collapses == 2
        assert sum("during transient" in m for m in messages) == 1
        assert sum("interval dropped" in m for m in messages) == 1
        for lam in rep.exponents:  # the kept intervals still see pure damping
            assert lam == pytest.approx(-PARAMS.gamma, abs=1e-9)

    def test_kaplan_yorke_interpolation(self):
        from bardina.dynamics import _kaplan_yorke

        lams = np.array([0.3, 0.1, -0.5])
        q = np.cumsum(lams)
        # crossing between n=2 and n=3: 2 + 0.4/0.5
        assert _kaplan_yorke(lams, q) == pytest.approx(2.8)
        lams = np.array([-0.2, -0.4])
        assert _kaplan_yorke(lams, np.cumsum(lams)) == 0.0
        with pytest.warns(UserWarning, match="never crossed"):
            lams = np.array([0.5, 0.4])
            assert _kaplan_yorke(lams, np.cumsum(lams)) == 2.0

    def test_too_short_average_rejected(self):
        st = make_state(zero_field(make_grid(16)), PARAMS)
        with pytest.raises(ValueError, match="too short"):
            lyapunov_spectrum(st, n=1, dt=0.1, renorm_every=10,
                              t_transient=0.0, t_average=1.0)
