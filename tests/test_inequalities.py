import math

import numpy as np
import pytest

from bardina import inequalities as ineq
from bardina.spectral import SpectralField, hermitianize, make_grid, random_field, zero_field

from conftest import (
    AREA_ORACLE,
    CROSSOVER_M1,
    CROSSOVER_M2,
    F_ORACLE,
    K1_ORACLE,
    PHI_ARGMAX,
    PSI_ORACLE,
)


def _squared(w):
    """The field w^2, transformed from its samples."""
    g = w.grid
    return SpectralField(g, hermitianize(g, np.fft.fft2(w.to_samples() ** 2) / g.n**2))


class TestK1:
    def test_reference_values(self):
        for x, ref in K1_ORACLE.items():
            assert ineq.k1(x) == pytest.approx(ref, rel=1e-9)

    def test_against_scipy(self):
        kv = pytest.importorskip("scipy.special").kv
        xs = np.logspace(math.log10(0.01), math.log10(50.0), 500)
        rel = np.abs(ineq.k1(xs) - kv(1, xs)) / kv(1, xs)
        assert rel.max() < 1e-9

    def test_scalar_and_array(self):
        out = ineq.k1(np.array([0.5, 1.0, 2.0]))
        assert out.shape == (3,)
        assert isinstance(ineq.k1(1.0), float)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            ineq.k1(0.0)
        with pytest.raises(ValueError):
            ineq.k1(np.array([1.0, -2.0]))

    def test_tail_bound_margin(self):
        xs = np.logspace(math.log10(0.01), math.log10(50.0), 500)
        bound = (1.0 + 0.5 / xs) * np.sqrt(np.pi / (2.0 * xs)) * np.exp(-xs)
        assert np.all(bound - ineq.k1(xs) > 0)
        # bound is asymptotically sharp: within 0.3 percent at x = 50
        bound = (1 + 1 / 100.0) * math.sqrt(math.pi / 100.0) * math.exp(-50.0)
        assert 0.99 < ineq.k1(50.0) / bound < 1.0


class TestLatticeSum:
    def test_direct_brackets_reference(self):
        for m in (1.0, 2.0):
            r = ineq.lattice_F(m, radius=400)
            assert r.F_direct <= F_ORACLE[m] <= r.F_upper

    def test_bracket_shrinks_with_radius(self):
        widths = [ineq.lattice_F(1.0, radius=rad).tail_bound for rad in (100, 200, 400)]
        assert widths[0] > widths[1] > widths[2]
        for rad in (100, 200, 400):
            r = ineq.lattice_F(1.0, radius=rad)
            assert r.F_direct <= F_ORACLE[1.0] <= r.F_upper

    def test_streamed_path_matches_counted_path(self):
        # radius > 2048 switches to row streaming; compare runs at the
        # same radius through both code paths via a monkeypatched threshold
        a = ineq.lattice_F(0.7, radius=64)
        mm = 0.49
        k2sq = np.arange(-64, 65, dtype=np.float64) ** 2
        direct = 0.0
        for k1v in range(-64, 65):
            jrow = k1v * k1v + k2sq
            sel = jrow <= 64 * 64
            direct += float(np.sum(1.0 / (jrow[sel] + mm) ** 2))
        direct = mm * (direct - 1.0 / mm**2)
        assert a.F_direct == pytest.approx(direct, rel=1e-13)

    def test_margin_below_pi(self):
        r = ineq.lattice_F(4.0, radius=400)
        assert r.margin() > 0

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError):
            ineq.lattice_F(0.0)
        with pytest.raises(ValueError):
            ineq.lattice_F(1.0, radius=4)


class TestPoisson:
    def test_matches_lattice_oracle_to_1e10(self):
        for m, ref in F_ORACLE.items():
            assert abs(ineq.poisson_F(m) - ref) < 1e-10

    def test_kmax_doubling_stable(self):
        assert abs(ineq.poisson_F(1.0, k_max=48) - ineq.poisson_F(1.0, k_max=96)) < 1e-12

    def test_routes_agree_within_truncation(self):
        for m in (0.5, 1.0, 3.0):
            r = ineq.lattice_F(m, radius=400)
            p = ineq.poisson_F(m, k_max=96)
            assert r.F_direct - 1e-10 <= p <= r.F_upper + 1e-10

    def test_increasing_and_below_pi_on_grid(self):
        ms = np.linspace(0.1, 16.0, 61)
        vals = np.array([ineq.poisson_F(float(m), k_max=64) for m in ms])
        assert np.all(np.diff(vals) > 0)
        assert np.all(vals < math.pi)

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError):
            ineq.poisson_F(-1.0)
        with pytest.raises(ValueError):
            ineq.poisson_F(1.0, k_max=0)


class TestPsi:
    def test_values(self):
        assert ineq.psi_big(1.0) == pytest.approx(PSI_ORACLE[1.0], abs=1e-9)
        for m, ref in PSI_ORACLE.items():
            assert ineq.psi_big(m) == pytest.approx(ref, abs=1e-9)

    def test_paper_rounded_value(self):
        assert abs(ineq.psi_big(1.0) - (-0.141093)) < 1e-6

    def test_negative_and_decreasing_beyond_09(self):
        ms = np.linspace(0.9, 16.0, 200)
        vals = ineq.psi_big(ms)
        assert np.all(vals < 0)
        # saturates to -1/pi at the double-precision floor for large m
        assert np.all(np.diff(vals) <= 0)
        early = ineq.psi_big(np.linspace(0.9, 5.0, 100))
        assert np.all(np.diff(early) < 0)

    def test_limit_minus_inv_pi(self):
        assert abs(ineq.psi_big(10.0) + 1.0 / math.pi) < 1e-10

    def test_phi_psi_at_zero(self):
        assert ineq.phi(0.0) == 0.0
        assert ineq.psi_small(0.0) == 1.0
        assert ineq.phi(1e-9) == pytest.approx(1e-9, rel=1e-6)

    def test_phi_argmax_and_crossovers(self):
        x0 = ineq.phi_argmax()
        assert x0 == pytest.approx(PHI_ARGMAX, abs=1e-12)
        # stationarity: derivative of x^2/(e^x-1) vanishes
        h = 1e-6
        assert abs(ineq.phi(x0 + h) - ineq.phi(x0 - h)) < 1e-11
        m1, m2 = ineq.crossover_masses()
        assert m1 == pytest.approx(CROSSOVER_M1, abs=1e-9)
        assert m2 == pytest.approx(CROSSOVER_M2, abs=1e-9)
        assert abs(m1 - 0.47824) < 1e-4 and abs(m2 - 0.35868) < 1e-4

    def test_rejects_nonpositive_mass(self):
        with pytest.raises(ValueError):
            ineq.psi_big(0.0)


def _reference_rho_ratios(n, m, trials, seed, band, eval_grid, vector):
    """rho_l2_check one function at a time: modified Gram-Schmidt on the
    draw's rows, each function's modes scattered and transformed alone, and
    the L2 norm from the spectrum of rho."""
    modes = ineq._band_modes(band)
    ksq = (modes[:, 0] ** 2 + modes[:, 1] ** 2).astype(np.float64)
    idx = (modes[:, 0] % eval_grid, modes[:, 1] % eval_grid)
    perp = np.stack((-modes[:, 1], modes[:, 0]), axis=1) / np.sqrt(ksq)[:, None]
    ratios = []
    for child in np.random.SeedSequence(seed).spawn(trials):
        rng = np.random.Generator(np.random.Philox(child))
        c = rng.standard_normal((n, len(modes))) + 1j * rng.standard_normal((n, len(modes)))
        for i in range(n):
            for j in range(i):
                c[i] -= np.vdot(c[j], c[i]) * c[j]
            c[i] /= np.linalg.norm(c[i])
        cu = c / (2.0 * math.pi) / np.sqrt(m * m + ksq)
        rho = np.zeros((eval_grid, eval_grid))
        for i in range(n):
            for comp in (perp.T if vector else [1.0]):
                spec = np.zeros((eval_grid, eval_grid), dtype=complex)
                np.add.at(spec, idx, cu[i] * comp)
                u = np.fft.ifft2(spec) * eval_grid**2
                rho += u.real**2 + u.imag**2
        rho_hat = np.fft.fft2(rho) / eval_grid**2
        norm = 2.0 * math.pi * math.sqrt(float(np.vdot(rho_hat, rho_hat).real))
        ratios.append(norm / (ineq.B2 * math.sqrt(n) / m))
    return np.array(ratios)


class TestRhoCheck:
    @pytest.mark.parametrize("n, m, vector", [(1, 2.0, False), (5, 0.5, False), (3, 1.0, True)])
    def test_matches_one_function_at_a_time(self, n, m, vector):
        # one QR and one batched transform per trial against the loops they
        # replace; the arithmetic order differs, so agreement is to roundoff
        kw = dict(n=n, m=m, trials=4, seed=3, band=4, eval_grid=20, vector=vector)
        np.testing.assert_allclose(ineq.rho_l2_check(**kw).ratios, _reference_rho_ratios(**kw),
                                   rtol=1e-13)

    def test_single_mode_analytic(self):
        # family {e^(ik.x)/(2 pi)}: rho is the constant (2 pi)^-2 (m^2+|k|^2)^-1
        m, k = 1.0, (1, 0)
        n_grid = 32
        spec = np.zeros((n_grid, n_grid), dtype=complex)
        spec[k[0] % n_grid, k[1] % n_grid] = 1.0 / (2 * math.pi * math.sqrt(m**2 + k[0] ** 2 + k[1] ** 2))
        u = np.fft.ifft2(spec) * n_grid**2
        rho = u.real**2 + u.imag**2
        expect = 1.0 / ((2 * math.pi) ** 2 * (m**2 + 1))
        assert np.allclose(rho, expect, rtol=1e-12, atol=1e-15)
        norm = 2 * math.pi * expect  # L2 norm of a constant
        assert norm < ineq.B2 * math.sqrt(1) / m

    @pytest.mark.parametrize("vector", [False, True], ids=["scalar", "vector"])
    def test_complete_family_gives_the_constant_density(self, vector):
        # a family spanning every mode of the band has
        # rho = sum_k (2 pi)^-2 (m^2 + |k|^2)^-1 whatever the draw
        m = 0.5
        r = ineq.rho_l2_check(n=8, m=m, trials=3, seed=4, band=1, eval_grid=8, vector=vector)
        rho = sum(1.0 / ((2 * math.pi) ** 2 * (m * m + k_sq)) for k_sq in (1, 1, 1, 1, 2, 2, 2, 2))
        np.testing.assert_allclose(r.ratios, 2 * math.pi * rho / r.bound, rtol=1e-13)

    def test_orthonormal_rows_is_gram_schmidt(self, rng):
        # rows orthonormal, and draw = L Q with L lower triangular: row i of Q
        # spans what rows 0..i of the draw span beyond the rows before it
        draw = rng.standard_normal((6, 40)) + 1j * rng.standard_normal((6, 40))
        q = ineq._orthonormal_rows(draw)
        assert np.abs(q @ q.conj().T - np.eye(6)).max() < 1e-14
        lower = draw @ q.conj().T
        assert np.abs(np.triu(lower, 1)).max() < 1e-13 * np.abs(lower).max()
        with pytest.raises(ValueError, match="degenerate"):
            ineq._orthonormal_rows(np.stack([draw[0], draw[1], draw[0]]))

    def test_scalar_families_within_bound(self):
        r = ineq.rho_l2_check(n=8, m=1.0, trials=25, seed=11)
        assert r.violations == 0
        assert 0 < r.worst_ratio < 1

    def test_vector_families_within_bound(self):
        r = ineq.rho_l2_check(n=6, m=0.5, trials=15, seed=5, vector=True)
        assert r.violations == 0
        assert r.worst_ratio < 1

    def test_small_mass_stress(self):
        # bound degrades like 1/m, families cannot keep up
        r = ineq.rho_l2_check(n=12, m=0.25, trials=10, seed=2)
        assert r.violations == 0

    def test_reproducible(self):
        a = ineq.rho_l2_check(n=4, m=1.0, trials=6, seed=9)
        b = ineq.rho_l2_check(n=4, m=1.0, trials=6, seed=9)
        assert np.array_equal(a.ratios, b.ratios)
        c = ineq.rho_l2_check(n=4, m=1.0, trials=6, seed=10)
        assert not np.array_equal(a.ratios, c.ratios)

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError):
            ineq.rho_l2_check(n=0, m=1.0, trials=1)
        with pytest.raises(ValueError):
            ineq.rho_l2_check(n=4, m=-1.0, trials=1)
        with pytest.raises(ValueError):
            ineq.rho_l2_check(n=10**6, m=1.0, trials=1)
        with pytest.raises(ValueError):
            ineq.rho_l2_check(n=4, m=1.0, trials=1, band=10, eval_grid=16)


class TestTraceCheck:
    def test_constant_potential_reproduces_lattice_ratio(self):
        g = make_grid(64)
        V = zero_field(g)
        V.coeffs[0, 0] = 0.7
        r = ineq.trace_k2_check(V, m=1.0, k_cut=16)
        # truncated lhs sits below F(1)/pi by at most the lattice tail
        full = F_ORACLE[1.0] / math.pi
        assert full - 0.005 < r.lhs / r.rhs < full
        assert r.lhs < r.rhs

    def test_random_nonneg_potential(self, rng):
        g = make_grid(64)
        w = random_field(g, rng, amplitude=1.0, band=10)
        V = _squared(w)  # band 20: alias-free
        r = ineq.trace_k2_check(V, m=2.0, k_cut=12)
        assert 0 < r.lhs <= r.rhs

    def test_truncation_monotone(self, rng):
        g = make_grid(64)
        w = random_field(g, rng, amplitude=1.0, band=8)
        V = _squared(w)
        vals = [ineq.trace_k2_check(V, m=1.0, k_cut=c).lhs for c in (6, 10, 14)]
        assert vals[0] < vals[1] < vals[2]

    def test_lhs_does_not_depend_on_the_blas_pool(self, rng):
        # the sum of squares makes no BLAS call, so a process whose pool has
        # two threads prints what a one-thread CLI process prints
        from bardina import cli

        pool = cli._openblas_pool()
        if pool is None or pool[0]() < 2:
            pytest.skip("needs an OpenBLAS pool of two threads or more")
        g = make_grid(64)
        V = _squared(random_field(g, rng, amplitude=1.0, band=8))
        pooled = ineq.trace_k2_check(V, m=1.0).lhs
        with cli._blas_pool(1):
            single = ineq.trace_k2_check(V, m=1.0).lhs
        assert pooled.hex() == single.hex()

    def test_zero_potential(self):
        g = make_grid(32)
        r = ineq.trace_k2_check(zero_field(g), m=1.0, k_cut=8)
        assert r.lhs == 0.0 and r.rhs == 0.0

    def test_rejects_invalid(self, rng):
        g = make_grid(32)
        V = zero_field(g)
        V.coeffs[0, 0] = -1.0  # negative constant
        with pytest.raises(ValueError):
            ineq.trace_k2_check(V, m=1.0, k_cut=8)
        V.coeffs[0, 0] = 1.0
        with pytest.raises(ValueError):
            ineq.trace_k2_check(V, m=0.0, k_cut=8)
        with pytest.raises(ValueError):
            ineq.trace_k2_check(V, m=1.0, k_cut=12)


class TestModeCounts:
    def test_small_counts_exact(self):
        counts = ineq._sq_mode_counts(12)
        assert counts[0] == 0
        assert counts[1] == 4 and counts[2] == 4 and counts[4] == 4
        assert counts[5] == 8 and counts[25] == 12
        brute = 0
        for a in range(-12, 13):
            for b in range(-12, 13):
                if 0 < a * a + b * b <= 100:
                    brute += 1
        assert int(counts[:101].sum()) == brute


class TestAreaOracleConsistency:
    def test_frozen_values_sane(self):
        # spot-check the frozen 1D-reduction areas against a direct
        # quadrature at modest resolution (the bounds tests reuse them);
        # this trapezoid rule is off by at most 1.3e-10 at these four
        # deltas, and the old frozen values were off by up to 1.4e-7
        for delta, ref in AREA_ORACLE.items():
            rs = np.linspace(-1.0 / 6, 1.0 / 6, 20001)
            upper = np.sqrt(np.maximum(1.0 / 3 - rs**2, 0.0))
            lower = np.maximum(delta, np.sqrt(np.maximum(2 * np.abs(rs) - rs**2, 0.0)))
            a = np.trapezoid(np.maximum(upper - lower, 0.0), rs)
            assert a == pytest.approx(ref, abs=1e-9)
