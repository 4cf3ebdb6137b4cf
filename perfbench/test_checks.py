"""Each check of the benchmark must pass on a true result and reject a corrupted one.

    python3 -m pytest perfbench -q
"""
import math
import os
import sys
import time

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

from bardina import bounds, dynamics, instability, spectral  # noqa: E402
from bardina import io as ckpt  # noqa: E402

import checks  # noqa: E402
from kernel import ReferenceKernel  # noqa: E402
from spans import Tracer, layer_metrics  # noqa: E402

N, S, AMP, ALPHA, GAMMA = 32, 4, 6.0, 1.0 / 16.0, 1.0


def _state(seed=3, scale=1.0):
    grid = spectral.make_grid(N)
    params = spectral.ModelParams(alpha=ALPHA, gamma=GAMMA)
    spec = instability.KolmogorovSpec(s=S, amplitude=AMP, gamma=GAMMA)
    noise = spectral.random_field(grid, np.random.Generator(np.random.Philox(seed)),
                                  amplitude=scale, band=6)
    omega = instability.stationary_vorticity(spec, grid).coeffs + noise.coeffs
    return dynamics.make_state(spectral.SpectralField(grid, omega), params,
                               forcing=instability.kolmogorov_forcing(spec, grid))


@pytest.fixture(scope="module")
def budget():
    obs = checks.EnergyBudget(N, ALPHA, GAMMA, checks.kolmogorov_curl(N, S, AMP, GAMMA))
    dynamics.simulate(_state(scale=20.0), 0.05, 1e-3, observers=(obs,))
    return obs


def test_own_forcing_matches_program():
    grid = spectral.make_grid(N)
    spec = instability.KolmogorovSpec(s=S, amplitude=AMP, gamma=GAMMA)
    got = spectral.curl(instability.kolmogorov_forcing(spec, grid)).coeffs
    assert np.allclose(got, checks.kolmogorov_curl(N, S, AMP, GAMMA), rtol=0, atol=1e-12)


def test_energy_budget_rejects_a_perturbed_state(budget):
    assert checks.check_energy_budget(budget.times, budget.energy, budget.rate) == []
    energy = list(budget.energy)
    energy[20] *= 1.0 + 1e-5
    assert checks.check_energy_budget(budget.times, energy, budget.rate)
    energy[20] = math.nan
    assert checks.check_energy_budget(budget.times, energy, budget.rate)


def test_checkpoint_rejects_a_changed_coefficient(tmp_path):
    st = _state()
    path = str(tmp_path / "s.ebv")
    ckpt.save_state(st, path)
    loaded = ckpt.load_state(path)
    assert checks.check_checkpoint(st, loaded) == []
    loaded.omega.coeffs[1, 2] += 1e-15 * abs(loaded.omega.coeffs[1, 2]) + 1e-300
    assert checks.check_checkpoint(st, loaded)
    moved = dynamics.SimState(st.omega, st.time + 1e-3, st.params, st.forcing_curl)
    assert checks.check_checkpoint(st, moved)


def test_ball_entry_needs_outside_then_inside():
    assert checks.check_ball_entry(1.2, 0.9, 1.0) == []
    assert checks.check_ball_entry(0.95, 0.9, 1.0)
    assert checks.check_ball_entry(1.2, 1.01, 1.0)


def test_tangent_finite_difference_rejects_a_perturbed_tangent():
    st = _state()
    k1, k2 = checks.wavenumbers(N)
    (vec,) = dynamics.make_tangents(st.grid, 1, ALPHA, np.random.Generator(np.random.Philox(2)))
    moved = dynamics.step_with_tangents(dynamics.TangentBundle(st, [vec]), 0.01).vectors[0]
    dw = 1j * k1 * vec.coeffs[1] - 1j * k2 * vec.coeffs[0]
    ends = [dynamics.step(dynamics.make_state(spectral.SpectralField(st.grid, st.omega.coeffs + e * dw),
                                              st.params, forcing_curl=st.forcing_curl), 0.01)
            for e in (checks.FD_EPS, -checks.FD_EPS)]
    fd = (ends[0].omega.coeffs - ends[1].omega.coeffs) / (2 * checks.FD_EPS)
    tangent = 1j * k1 * moved.coeffs[1] - 1j * k2 * moved.coeffs[0]
    assert checks.check_tangent_fd(fd, tangent) == []
    bad = tangent.copy()
    bad[1, 1] += 1e-6 * np.abs(tangent).max()
    assert checks.check_tangent_fd(fd, bad)


def test_lyapunov_check_rejects_each_violation():
    lam = [0.4, 0.1, -0.3, -0.9]
    q = list(np.cumsum(lam))
    ky = checks.kaplan_yorke(lam)
    assert ky == pytest.approx(3 + 0.2 / 0.9)
    bound = [10.0] * 4
    assert checks.check_lyapunov(lam, q, ky, bound, 100.0, 0) == []
    assert checks.check_lyapunov([0.1, 0.4, -0.3, -0.9], list(np.cumsum([0.1, 0.4, -0.3, -0.9])),
                                 ky, bound, 100.0, 0)
    assert checks.check_lyapunov(lam, q, ky, [0.3] * 4, 100.0, 0)
    assert checks.check_lyapunov(lam, q, ky, bound, 2.0, 0)
    assert checks.check_lyapunov(lam, q, ky + 0.1, bound, 100.0, 0)
    assert checks.check_lyapunov(lam, q, ky, bound, 100.0, 1)
    assert checks.check_lyapunov([math.nan] + lam[1:], q, ky, bound, 100.0, 0)


@pytest.mark.parametrize("s, chains", [(8, 4), (12, 6), (24, 27), (48, 117)])
def test_lattice_enumeration_and_count(s, chains):
    assert len(checks.lattice_points(s, "0.35")) == chains
    assert checks.check_count(2 * chains, s, "0.35") == []
    assert checks.check_count(2 * chains - 2, s, "0.35")


def _instability_rows(s=12, alpha=1.0 / 144.0, delta=0.35):
    amp = instability.threshold_amplitude(s, delta, alpha, GAMMA)
    spec = instability.KolmogorovSpec(s=s, amplitude=amp, gamma=GAMMA)
    rows = []
    for t, r in instability.region_lattice(s, delta):
        ch = instability.Chain.from_spec(spec, alpha, t, r)
        lo, hi = instability.sigma_bounds(ch, delta)
        rows.append({"t": t, "r": r, "Lambda": ch.coupling, "sigma": instability.solve_sigma(ch),
                     "sigma_lower_bound": lo, "sigma_upper_bound": hi,
                     "oracle_sigma": instability.chain_matrix_eigen(ch)})
    return rows


def test_instability_rows_reject_sigma_outside_its_bracket():
    rows = _instability_rows()
    assert checks.check_instability_rows(rows, 12, "0.35", 1.0 / 144.0, GAMMA) == []
    moved = [dict(r) for r in rows]
    moved[2]["sigma"] = moved[2]["sigma_upper_bound"] * 1.01 + 1e-9
    moved[2]["oracle_sigma"] = moved[2]["sigma"]
    assert checks.check_instability_rows(moved, 12, "0.35", 1.0 / 144.0, GAMMA)
    off = [dict(r) for r in rows]
    off[0]["oracle_sigma"] += 1e-7
    assert checks.check_instability_rows(off, 12, "0.35", 1.0 / 144.0, GAMMA)
    assert checks.check_instability_rows(rows[1:], 12, "0.35", 1.0 / 144.0, GAMMA)


def test_read_csv_skips_header_lines():
    rows = checks.read_csv("# bardina 0.1.0\n# x = 1\na,b\n1,2.5\n3,-4e-3\n")
    assert rows == [{"a": 1.0, "b": 2.5}, {"a": 3.0, "b": -4e-3}]


def test_own_area_and_constant_against_high_precision_values():
    # mpmath values of the 1-D reduction and of c1, frozen in tests/conftest.py
    for delta, area in {0.2: 0.06201656626, 0.35: 0.05013314801, 0.5: 0.02131096686}.items():
        assert abs(checks.area_1d(delta) - area) < 2e-7
    c1, delta_star = checks.lower_bound_constant()
    assert abs(c1 / 6.50055320705365e-7 - 1.0) < 1e-6
    assert abs(delta_star - 0.473014051162239) < 1e-4
    assert 1e-4 < checks.c1_tolerance(delta_star) < 1e-2


def test_bounds_check_rejects_each_violation():
    c1, ds = checks.lower_bound_constant()
    rep = bounds.dimension_report(2.0**-6, GAMMA)
    real = {"alpha": rep.alpha, "gamma": rep.gamma, "curl_g_sq": rep.curl_g_norm_sq,
            "upper": rep.upper, "lower": rep.lower, "c1": rep.constant_c1}
    assert checks.check_bounds([real], c1, ds) == []

    def record(k, **change):
        alpha = 2.0**-k
        curl = 1e6 / alpha
        upper = curl / (8 * math.pi * alpha)
        rec = {"alpha": alpha, "gamma": 1.0, "curl_g_sq": curl, "upper": upper,
               "lower": 8 * math.pi * c1 * upper, "c1": c1}
        rec.update(change)
        return rec

    good = [record(k) for k in range(6, 10)]
    assert checks.check_bounds(good, c1, ds) == []
    assert checks.check_bounds(good[:3] + [record(9, lower=2 * good[3]["upper"])], c1, ds)
    assert checks.check_bounds(good[:3] + [record(9, c1=c1 * 1.02)], c1, ds)
    assert checks.check_bounds(good[:3] + [record(9, lower=good[3]["lower"] * 1.02)], c1, ds)
    assert checks.check_bounds(good[:3] + [record(9, upper=good[3]["upper"] * 1.001)], c1, ds)


def test_tracer_records_nested_spans_and_restores_the_program():
    st = _state()
    original = (dynamics.step, np.fft.ifft2, dynamics.SimState.__post_init__)
    tracer = Tracer()
    tracer.install()
    try:
        t0 = time.perf_counter()
        dynamics.simulate(st, 0.002, 1e-3)
        wall = time.perf_counter() - t0
    finally:
        tracer.uninstall()
    assert (dynamics.step, np.fft.ifft2, dynamics.SimState.__post_init__) == original
    metrics, shares = layer_metrics(tracer.spans, wall)
    assert metrics["dynamics.step_calls"] == 2
    assert metrics["dynamics.fft_per_step"] == 20.0
    assert metrics["spectral.fft_points"] == 40 * N * N
    assert metrics["spectral.fft_s"] < metrics["dynamics.step_s"] < wall
    assert 0.0 < metrics["dynamics.state_check_s"] < metrics["dynamics.step_s"]
    assert sum(shares.values()) == pytest.approx(metrics["trace.coverage"], rel=1e-9)


def test_reference_kernel_is_deterministic_work():
    kernel = ReferenceKernel()
    assert kernel.run() > 0.0
    again = ReferenceKernel()
    assert np.array_equal(kernel.a, again.a)
