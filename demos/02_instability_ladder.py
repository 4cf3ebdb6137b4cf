"""Growth rates of perturbation ladders over a stationary shear.

Each admissible base mode couples a ladder of sidebands whose linearised
dynamics reduce to a tridiagonal recurrence.  The continued-fraction
solver, the dense matrix eigenvalue, and the closed-form bracket must
all agree; with the amplitude rule from the lower-bound construction
every ladder in the admissible region goes unstable, and their number
grows like the region area.  All ladders of one forcing are solved
together by one batched continued-fraction bisection.
"""
from bardina.instability import (
    Chain,
    KolmogorovSpec,
    chain_matrix_eigen,
    threshold_amplitude,
    region_lattice,
    sigma_bounds,
    solve_sigmas,
    unstable_count,
)

alpha, gamma, delta = 1.0 / 144.0, 1.0, 0.35
s = 12
amp = threshold_amplitude(s, delta, alpha, gamma)
spec = KolmogorovSpec(s=s, amplitude=amp, gamma=gamma)
print(f"shear wavenumber s = {s}, amplitude = {amp:.6g}\n")

print("   t    r      sigma     matrix eig    lower      upper")
chains = [Chain.from_spec(spec, alpha=alpha, t=t, r=r) for t, r in region_lattice(s, delta)]
for ch, sigma in zip(chains, solve_sigmas(chains)):
    lo, hi = sigma_bounds(ch, delta)
    print(f"  {ch.t:2d}  {ch.r:+2d}   {sigma:+.6f}   {chain_matrix_eigen(ch):+.6f}"
          f"   {lo:+.5f}   {hi:+.5f}")

print("\nunstable directions (two per ladder) and area scaling:")
print("    s   count   count/(2 s^2)")
for sk in (12, 24, 48, 96, 192, 384):
    n = unstable_count(sk, delta, alpha=1.0 / sk**2, gamma=gamma)
    print(f"  {sk:3d}   {n:5d}   {n / (2.0 * sk**2):.6f}")
