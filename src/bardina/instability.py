"""Linear instability analysis of stationary Kolmogorov flows.

A single-mode body force g = (c sin(s x2), 0) drives the stationary state
u = g / gamma.  Linearizing the damped filtered-vorticity equation around
it couples Fourier modes only along vertical ladders k = (t, s n + r),
n in Z, so the eigenvalue problem splits into independent three-term
recurrences ("chains").  For chains whose base mode lies in an explicit
admissible region the recurrence has a unique real eigenvalue, found here
as the root of a continued-fraction identity and cross-checked against a
truncated tridiagonal matrix.  Counting the admissible lattice points and
driving them all unstable with a large enough forcing amplitude yields the
attractor-dimension lower bound assembled in :mod:`bardina.bounds`.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .spectral import FourierGrid, SpectralField, VectorField, zero_field, zero_vector_field

__all__ = [
    "KolmogorovSpec",
    "Chain",
    "RecurrenceCoeffs",
    "ContinuedFractionError",
    "BracketError",
    "kolmogorov_forcing",
    "stationary_vorticity",
    "threshold_amplitude",
    "region_lattice",
    "in_region",
    "continued_fraction_g",
    "f_sigma",
    "solve_sigma",
    "solve_lambda0",
    "sigma_bounds",
    "coupling_bounds",
    "chain_matrix",
    "chain_matrix_eigen",
    "unstable_count",
]

SIGMA_TOL = 1e-12  # relative bisection tolerance on eigenvalues
GAMMA_OFFSET = 1e-10  # bracket offset from -gamma, in units of gamma


class ContinuedFractionError(RuntimeError):
    """Depth doubling moved the continued-fraction value by > 1e-10."""


class BracketError(RuntimeError):
    """Root bracketing failed; carries diagnostic f/g samples."""


@dataclass(frozen=True)
class KolmogorovSpec:
    """Single-mode forcing g = (gamma*amplitude/(sqrt2 pi)) (sin(s x2), 0).

    The amplitude is dimensionless; the gamma prefactor makes the
    stationary velocity u = g/gamma independent of the damping rate.
    """

    s: int
    amplitude: float
    gamma: float

    def __post_init__(self):
        # amplitude 0 is allowed and gives the zero forcing
        if self.s < 1 or not 0 <= self.amplitude < math.inf or not 0 < self.gamma < math.inf:
            raise ValueError("need s >= 1, finite amplitude >= 0, finite gamma > 0")

    @property
    def force_norm_sq(self) -> float:
        """||g||^2 in L2 of the torus: gamma^2 amplitude^2."""
        return (self.gamma * self.amplitude) ** 2

    @property
    def curl_norm_sq(self) -> float:
        """||curl g||^2 = gamma^2 amplitude^2 s^2."""
        return (self.gamma * self.amplitude * self.s) ** 2


def threshold_amplitude(s: int, delta: float, alpha: float, gamma: float) -> float:
    """Forcing amplitude (110 pi/21) gamma delta^-2 (1+alpha s^2)^2 / s,
    large enough that every admissible chain at this s has a positive
    eigenvalue (it pushes the coupling past each chain's critical value).
    """
    if not 0.0 < delta < 1.0 / math.sqrt(3.0):
        raise ValueError("delta must lie in (0, 1/sqrt(3))")
    if s < 1 or alpha <= 0 or gamma <= 0:
        raise ValueError("need s >= 1, alpha > 0, gamma > 0")
    return (110.0 * math.pi / 21.0) * gamma * (1.0 + alpha * s * s) ** 2 / (delta * delta * s)


def kolmogorov_forcing(spec: KolmogorovSpec, grid: FourierGrid) -> VectorField:
    """Spectral coefficients of the forcing; divergence-free, zero-mean.

    Raises:
        ValueError: if the forcing wavenumber lies outside the de-aliased
            band of the grid.
    """
    if spec.s > (grid.n - 1) // 3:
        raise ValueError("forcing wavenumber outside the de-aliased band")
    g = zero_vector_field(grid)
    c = spec.gamma * spec.amplitude / (math.sqrt(2.0) * math.pi)
    # sin(s x2) = (e^{i s x2} - e^{-i s x2}) / (2i)
    g.coeffs[0, 0, spec.s] = -0.5j * c
    g.coeffs[0, 0, -spec.s % grid.n] = 0.5j * c
    return g


def stationary_vorticity(spec: KolmogorovSpec, grid: FourierGrid) -> SpectralField:
    """Vorticity of the stationary solution u = g/gamma:
    omega = -(amplitude*s/(sqrt2 pi)) cos(s x2).  Independent of alpha."""
    if spec.s > (grid.n - 1) // 3:
        raise ValueError("forcing wavenumber outside the de-aliased band")
    w = zero_field(grid)
    c = -spec.amplitude * spec.s / (math.sqrt(2.0) * math.pi)
    w.coeffs[0, spec.s] = 0.5 * c
    w.coeffs[0, -spec.s % grid.n] = 0.5 * c
    return w


# ---------------------------------------------------------------------------
# chains and the admissible lattice region


def in_region(s: int, t: int, r: int, delta: float) -> bool:
    """Admissibility of the base mode (t, r): inside the open disk of
    radius s/sqrt(3), outside both unit-shifted disks of radius s, strip
    |r| < s/6 (strict), and t >= delta*s.  All but the delta cut are exact
    integer comparisons.
    """
    if not 0.0 < delta < 1.0 / math.sqrt(3.0):
        raise ValueError("delta must lie in (0, 1/sqrt(3))")
    s2 = s * s
    if 3 * (t * t + r * r) >= s2:
        return False
    if t * t + (r - s) * (r - s) <= s2:
        return False
    if t * t + (r + s) * (r + s) <= s2:
        return False
    if 6 * r <= -s or 6 * r >= s:
        return False
    return t >= delta * s


def region_lattice(s: int, delta: float) -> list[tuple[int, int]]:
    """All integer (t, r) in the admissible region, ordered by (t, r).

    Empty for small s (the constraints are incompatible below s = 4).
    """
    if not 0.0 < delta < 1.0 / math.sqrt(3.0):
        raise ValueError("delta must lie in (0, 1/sqrt(3))")
    out = []
    t_max = int(math.floor(s / math.sqrt(3.0)))
    r_hi = (s - 1) // 6  # strict |r| < s/6
    for t in range(max(1, int(math.ceil(delta * s))), t_max + 1):
        for r in range(-r_hi, r_hi + 1):
            if in_region(s, t, r, delta):
                out.append((t, r))
    return out


@dataclass(frozen=True)
class Chain:
    """One mode ladder k_n = (t, s n + r) of the linearized operator.

    ``coupling`` is the ladder coupling strength; a forcing of amplitude
    a at wavenumber s induces coupling = a / (2 sqrt2 pi (1 + alpha s^2)).
    """

    s: int
    t: int
    r: int
    alpha: float
    gamma: float
    coupling: float

    def __post_init__(self):
        if self.s < 1 or self.t < 1:
            raise ValueError("need s >= 1 and t >= 1")
        # alpha 0 = unregularized limit; legal in the chain algebra even
        # though the evolution modules require alpha > 0
        if self.alpha < 0 or self.gamma <= 0 or self.coupling <= 0:
            raise ValueError("alpha must be >= 0, gamma and coupling > 0")

    @classmethod
    def from_spec(cls, spec: KolmogorovSpec, alpha: float, t: int, r: int) -> "Chain":
        coupling = spec.amplitude / (2.0 * math.sqrt(2.0) * math.pi * (1.0 + alpha * spec.s**2))
        return cls(s=spec.s, t=t, r=r, alpha=alpha, gamma=spec.gamma, coupling=coupling)

    def in_region(self, delta: float) -> bool:
        return in_region(self.s, self.t, self.r, delta)

    def admissible(self) -> bool:
        """The delta-independent region conditions (delta -> 0 limit)."""
        s2 = self.s**2
        return (
            3 * (self.t**2 + self.r**2) < s2
            and self.t**2 + (self.r - self.s) ** 2 > s2
            and self.t**2 + (self.r + self.s) ** 2 > s2
            and -self.s < 6 * self.r < self.s
        )

    def mode_sq(self, n) -> np.ndarray:
        """|k_n|^2 = t^2 + (s n + r)^2, exact in float for moderate depth."""
        kn = self.s * np.asarray(n, dtype=np.float64) + self.r
        return self.t**2 + kn * kn

    def recurrence(self) -> "RecurrenceCoeffs":
        return RecurrenceCoeffs(self)


@dataclass(frozen=True)
class RecurrenceCoeffs:
    """Coefficients of the three-term recurrence d_n e_n + e_{n-1} - e_{n+1} = 0."""

    chain: Chain

    def A(self, n) -> np.ndarray:
        c = self.chain
        K = c.mode_sq(n)
        return (K + c.alpha * K * K) / (c.coupling * c.t * (K - c.s**2))

    def d(self, n, sigma: float) -> np.ndarray:
        return (self.chain.gamma + sigma) * self.A(n)


def _cf_one_sided(rec: RecurrenceCoeffs, sigma: float, n_max: int, sign: int) -> float:
    """1/(d_{sign*1} + 1/(d_{sign*2} + ...)), truncated at depth n_max."""
    acc = float(rec.d(sign * n_max, sigma))
    for n in range(n_max - 1, 0, -1):
        acc = float(rec.d(sign * n, sigma)) + 1.0 / acc
    return 1.0 / acc


def continued_fraction_g(chain: Chain, sigma: float, n_max: int = 32) -> float:
    """g(sigma) = descending continued fractions from both chain tails.

    Evaluated at depths n_max and 2*n_max; the coefficients grow like n^2
    so the truncation error collapses rapidly.

    Raises:
        ContinuedFractionError: if the two depths disagree by > 1e-10.
    """
    if sigma <= -chain.gamma:
        raise ValueError("sigma must exceed -gamma")
    rec = chain.recurrence()
    g1 = _cf_one_sided(rec, sigma, n_max, +1) + _cf_one_sided(rec, sigma, n_max, -1)
    g2 = _cf_one_sided(rec, sigma, 2 * n_max, +1) + _cf_one_sided(rec, sigma, 2 * n_max, -1)
    if abs(g1 - g2) > 1e-10:
        raise ContinuedFractionError(
            f"depth doubling moved g by {abs(g1 - g2):.3e} at sigma={sigma!r}"
        )
    return g2


def f_sigma(chain: Chain, sigma: float) -> float:
    """Left side of the eigenvalue condition:
    f(sigma) = (gamma+sigma)(q + alpha q^2)/(coupling * t * (s^2 - q)),
    q = t^2 + r^2.  Vanishes at sigma = -gamma and increases linearly.
    """
    q = float(chain.t**2 + chain.r**2)
    return (
        (chain.gamma + sigma)
        * (q + chain.alpha * q * q)
        / (chain.coupling * chain.t * (chain.s**2 - q))
    )


def _gap(chain: Chain, sigma: float, n_max: int) -> float:
    return f_sigma(chain, sigma) - continued_fraction_g(chain, sigma, n_max)


def _gap_adaptive(chain: Chain, sigma: float, n_max: int) -> float:
    # near sigma = -gamma all d_n shrink together and the fraction needs
    # depth ~ (gamma+sigma)^(-1/2); grow it instead of failing outright
    depth = n_max
    while True:
        try:
            return _gap(chain, sigma, depth)
        except ContinuedFractionError:
            depth *= 2
            if depth > 1 << 15:
                raise


def sigma_bounds(chain: Chain, delta: float) -> tuple[float, float]:
    """Closed-form two-sided estimate of the eigenvalue for chains in the
    delta region:  coupling*21*sqrt2*delta^2*s/(55(1+alpha s^2)) - gamma
    <= sigma <= coupling*sqrt2*s/(delta(1+alpha s^2)) - gamma.
    """
    c = chain
    scale = c.coupling * math.sqrt(2.0) * c.s / (1.0 + c.alpha * c.s**2)
    lo = scale * (21.0 / 55.0) * delta * delta - c.gamma
    hi = scale / delta - c.gamma
    return lo, hi


def coupling_bounds(chain: Chain, delta: float) -> tuple[float, float]:
    """Two-sided estimate for the critical coupling (where sigma = 0):
    gamma*delta*(1+alpha s^2)/(sqrt2 s) < coupling_0
    < 55*gamma*(1+alpha s^2)/(21*sqrt2*delta^2*s)."""
    c = chain
    base = c.gamma * (1.0 + c.alpha * c.s**2) / (math.sqrt(2.0) * c.s)
    return base * delta, base * 55.0 / (21.0 * delta * delta)


def solve_sigma(chain: Chain, tol: float = SIGMA_TOL, n_max: int = 32) -> float:
    """Unique real eigenvalue of the chain: the root of f(sigma) = g(sigma).

    f grows linearly from f(-gamma) = 0 while g is positive and strictly
    decreasing, so the gap f - g has exactly one sign change on
    (-gamma, inf); bisection brackets it starting from the closed-form
    upper estimate (taken at the chain's own maximal delta = t/s).

    Raises:
        ValueError: if the chain violates the admissibility conditions
            (the sign structure of the recurrence is then lost).
        BracketError: if no sign change is found (diagnostic payload).
    """
    if not chain.admissible():
        raise ValueError("chain base mode outside the admissible region")
    gam = chain.gamma
    lo = -gam + GAMMA_OFFSET * gam
    # at lo the gap is negative by construction (f ~ 0+, g > 0), and the
    # fraction converges too slowly there to probe it directly
    _, hi0 = sigma_bounds(chain, chain.t / chain.s)
    hi = max(hi0, lo + gam)
    for _ in range(80):
        if _gap_adaptive(chain, hi, n_max) > 0.0:
            break
        hi = 2.0 * hi + gam  # expand keeping hi > -gamma
    else:
        samples = [(s_, f_sigma(chain, s_), continued_fraction_g(chain, s_, n_max))
                   for s_ in (0.0, hi)]
        raise BracketError(f"no sign change up to sigma={hi!r}; (sigma, f, g) = {samples}")
    while hi - lo > tol * max(gam, abs(hi)):
        mid = 0.5 * (lo + hi)
        if _gap_adaptive(chain, mid, n_max) > 0.0:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


def solve_lambda0(chain: Chain, tol: float = SIGMA_TOL, n_max: int = 32) -> float:
    """Critical coupling at which the chain eigenvalue crosses zero.

    The gap f - g at sigma = 0 is strictly decreasing in the coupling;
    bisection starts from the closed-form two-sided estimate (at the
    chain's maximal delta = t/s) and expands if needed.
    """
    if not chain.admissible():
        raise ValueError("chain base mode outside the admissible region")
    b_lo, b_hi = coupling_bounds(chain, chain.t / chain.s)
    lo, hi = 0.5 * b_lo, 2.0 * b_hi
    for _ in range(80):
        if _gap_adaptive(replace(chain, coupling=lo), 0.0, n_max) > 0.0:
            break
        lo *= 0.5
    else:
        raise BracketError("no positive gap at small coupling")
    for _ in range(80):
        if _gap_adaptive(replace(chain, coupling=hi), 0.0, n_max) < 0.0:
            break
        hi *= 2.0
    else:
        raise BracketError("no negative gap at large coupling")
    while hi - lo > tol * hi:
        mid = 0.5 * (lo + hi)
        if _gap_adaptive(replace(chain, coupling=mid), 0.0, n_max) > 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


# ---------------------------------------------------------------------------
# truncated matrix oracle


def chain_matrix(chain: Chain, depth: int) -> np.ndarray:
    """Tridiagonal truncation of (gamma+sigma) e_n = (e_{n+1}-e_{n-1})/A_n
    on n in [-depth, depth]: zero diagonal, off-diagonals +-1/A_n.

    1/A_n is evaluated directly, so rows with |k_n| = s (where the
    recurrence coefficient diverges) decouple gracefully with zero entries.
    """
    if depth < 1:
        raise ValueError("depth must be >= 1")
    n = np.arange(-depth, depth + 1)
    K = chain.mode_sq(n)
    inv_a = chain.coupling * chain.t * (K - chain.s**2) / (K + chain.alpha * K * K)
    m = np.zeros((n.size, n.size))
    idx = np.arange(n.size - 1)
    m[idx, idx + 1] = inv_a[:-1]
    m[idx + 1, idx] = -inv_a[1:]
    return m


def chain_matrix_eigen(chain: Chain, depth: int = 200) -> float:
    """Largest real part of the truncated-matrix spectrum, minus gamma.

    Independent route to the chain eigenvalue; agrees with
    :func:`solve_sigma` once depth is large (coefficients grow like n^2,
    so boundary truncation decays fast).
    """
    eig = np.linalg.eigvals(chain_matrix(chain, depth))
    return float(eig.real.max()) - chain.gamma


def unstable_count(s: int, delta: float, alpha: float, gamma: float) -> int:
    """Number of certified unstable directions of the stationary flow
    forced at wavenumber s with the threshold-exceeding amplitude: two per
    admissible chain (each ladder appears with its conjugate partner).

    Raises:
        RuntimeError: if any admissible chain fails to certify a positive
            eigenvalue (contradicts the two-sided estimate).
    """
    lam = threshold_amplitude(s, delta, alpha, gamma)
    spec = KolmogorovSpec(s=s, amplitude=lam, gamma=gamma)
    count = 0
    for t, r in region_lattice(s, delta):
        sigma = solve_sigma(Chain.from_spec(spec, alpha, t, r))
        if not sigma > 0.0:
            raise RuntimeError(f"chain (t={t}, r={r}) failed instability certification")
        count += 2
    return count
