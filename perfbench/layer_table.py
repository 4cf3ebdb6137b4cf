"""Reference timings of single public functions (`run.py --layer-table`).

Prints a markdown table in milliseconds: the best of up to five calls, or
of as many as fit in about a second.  The figures are for the README and
for reading alongside the traced runs; no gate rests on them.
"""
from __future__ import annotations

import os
import subprocess
import sys
import time

import numpy as np

from bardina import dynamics, instability, spectral

GRIDS = (64, 128, 256)
TANGENTS = (1, 4, 16)


def best_ms(fn, budget: float = 1.0, most: int = 5) -> float:
    times, spent = [], 0.0
    while len(times) < most and (not times or spent < budget):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
        spent += times[-1]
    return 1e3 * min(times)


def _state(n: int):
    grid = spectral.make_grid(n)
    params = spectral.ModelParams(alpha=1.0 / 64.0, gamma=1.0)
    spec = instability.KolmogorovSpec(s=8, amplitude=15.0, gamma=1.0)
    noise = spectral.random_field(grid, np.random.Generator(np.random.Philox(11)),
                                  amplitude=0.5, band=12)
    omega = instability.stationary_vorticity(spec, grid).coeffs + noise.coeffs
    return dynamics.make_state(spectral.SpectralField(grid, omega), params,
                               forcing=instability.kolmogorov_forcing(spec, grid))


def grid_rows() -> list[tuple[str, list[float]]]:
    rows: dict[str, list[float]] = {}
    dt = 1e-3
    for n in GRIDS:
        st = _state(n)
        rng = np.random.Generator(np.random.Philox(5))
        one = dynamics.make_tangents(st.grid, 1, st.params.alpha, rng)
        add = rows.setdefault
        add("`vorticity_rhs`", []).append(best_ms(lambda: dynamics.vorticity_rhs(st)))
        add("`variational_rhs`, 1 vector", []).append(
            best_ms(lambda: dynamics.variational_rhs(one[0], st)))
        add("`step` (IF-RK4)", []).append(best_ms(lambda: dynamics.step(st, dt)))
        add("`make_tangents`, 4 vectors", []).append(
            best_ms(lambda: dynamics.make_tangents(st.grid, 4, st.params.alpha, rng)))
        for m in TANGENTS:
            bundle = dynamics.TangentBundle(
                st, dynamics.make_tangents(st.grid, m, st.params.alpha, rng))
            add(f"`step_with_tangents`, {m} vector{'s' if m > 1 else ''}", []).append(
                best_ms(lambda: dynamics.step_with_tangents(bundle, dt)))
    return list(rows.items())


def chain_rows() -> list[tuple[str, float]]:
    s, delta, alpha = 96, 0.35, 1.0 / 96**2
    spec = instability.KolmogorovSpec(
        s=s, amplitude=instability.threshold_amplitude(s, delta, alpha, 1.0), gamma=1.0)
    t, r = instability.region_lattice(s, delta)[0]
    chain = instability.Chain.from_spec(spec, alpha, t, r)
    cold = subprocess.run(
        [sys.executable, "-c",
         "import time; t = time.perf_counter(); from bardina import bounds; "
         "bounds.lower_bound_constant(); print(time.perf_counter() - t)"],
        env=dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path)),
        capture_output=True, text=True, check=True)
    return [
        (f"`solve_sigma`, chain (s={s}, t={t}, r={r})", best_ms(lambda: instability.solve_sigma(chain))),
        ("`chain_matrix_eigen`, depth 200 (401^2)",
         best_ms(lambda: instability.chain_matrix_eigen(chain))),
        ("`lower_bound_constant`, cold (with import)", 1e3 * float(cold.stdout)),
    ]


def main() -> int:
    print("| function (ms) | " + " | ".join(f"{n}²" for n in GRIDS) + " |")
    print("|---|" + "---:|" * len(GRIDS))
    for name, values in grid_rows():
        print(f"| {name} | " + " | ".join(f"{v:.4g}" for v in values) + " |")
    print()
    print("| function (ms) | time |")
    print("|---|---:|")
    for name, value in chain_rows():
        print(f"| {name} | {value:.4g} |")
    return 0
