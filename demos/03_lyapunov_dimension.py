"""Lyapunov spectrum and attractor dimension of a forced shear flow.

Three regimes, in increasing order of cost (the last one averages long
enough for the dimension sum to cross zero and takes several minutes
at 128^2 on one core):

* unforced: the tangent propagator is the exact Jacobian of the time
  step, so every exponent lands on -gamma and the dimension is zero;
* shear forced below the instability threshold: the leading exponent
  is the top eigenvalue of the sideband-ladder matrix, and the Benettin
  average reproduces it to several digits;
* shear forced well past threshold: a positive leading exponent and a
  Kaplan-Yorke dimension that must stay below the proven upper bound.
"""
import math

import numpy as np

from bardina.bounds import upper_bound
from bardina.dynamics import lyapunov_spectrum, make_state, simulate
from bardina.instability import (
    Chain,
    KolmogorovSpec,
    chain_matrix_eigen,
    kolmogorov_forcing,
    solve_lambda0s,
    stationary_vorticity,
)
from bardina.spectral import ModelParams, SpectralField, make_grid, random_field, zero_field

grid = make_grid(64)
params = ModelParams(alpha=1.0 / 64.0, gamma=1.0)
rep = lyapunov_spectrum(make_state(zero_field(grid), params),
                        n=3, dt=0.05, renorm_every=10,
                        t_transient=1.0, t_average=10.0, seed=1)
print("unforced exponents (all must equal -gamma):")
print("  " + "  ".join(f"{lam:+.9f}" for lam in rep.exponents))
print(f"  dimension = {rep.lyapunov_dimension}\n")

# stable shear: amplitude at 80% of the critical coupling
alpha, gamma, s = 1.0 / 16.0, 1.0, 4
cands = [Chain(s=s, t=t, r=r, alpha=alpha, gamma=gamma, coupling=1.0)
         for t in (1, 2, 3) for r in (-1, 0, 1, 2)]
crit = float(solve_lambda0s([c for c in cands if c.admissible()]).min())
amp = 0.8 * crit * 2.0 * math.sqrt(2.0) * math.pi * (1.0 + alpha * s * s)
spec = KolmogorovSpec(s=s, amplitude=amp, gamma=gamma)
st = make_state(stationary_vorticity(spec, grid), ModelParams(alpha=alpha, gamma=gamma),
                forcing=kolmogorov_forcing(spec, grid))
oracle = max(chain_matrix_eigen(Chain.from_spec(spec, alpha=alpha, t=t, r=r), depth=60)
             for t in range(1, 13) for r in (-1, 0, 1, 2))
rep = lyapunov_spectrum(st, n=1, dt=0.05, renorm_every=10,
                        t_transient=40.0, t_average=20.0, seed=2)
print("stable shear, leading exponent:")
print(f"  ladder-matrix oracle  {oracle:+.9f}")
print(f"  Benettin estimate     {rep.exponents[0]:+.9f}\n")

# chaotic shear at 128^2; same configuration the acceptance gate runs
grid = make_grid(128)
params = ModelParams(alpha=1.0 / 64.0, gamma=1.0)
spec = KolmogorovSpec(s=8, amplitude=15.0, gamma=params.gamma)
rng = np.random.Generator(np.random.Philox(11))
om = SpectralField(grid, stationary_vorticity(spec, grid).coeffs
                   + random_field(grid, rng, amplitude=0.5, band=12).coeffs)
state = make_state(om, params, forcing=kolmogorov_forcing(spec, grid))
state, _ = simulate(state, 10.0, 0.005, observe_every=1000)
rep = lyapunov_spectrum(state, n=4, dt=0.0125, renorm_every=10,
                        t_transient=20.0, t_average=60.0, seed=5)
cap = upper_bound(params.alpha, params.gamma, spec.curl_norm_sq)
print("chaotic shear exponents:")
print("  " + "  ".join(f"{lam:+.6f}" for lam in rep.exponents))
print(f"  Kaplan-Yorke dimension = {rep.lyapunov_dimension:.3f}")
print(f"  proven upper bound     = {cap:.1f}")
