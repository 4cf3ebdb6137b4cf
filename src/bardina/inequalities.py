"""Numerical verification of the spectral inequalities behind the dimension
estimates: the lattice sum F(m) < pi (two independent routes), the Bessel
function K1, the auxiliary function Psi(m), and Monte-Carlo checks of the
L2 bound for sums of squared smoothed orthonormal families and of the
Hilbert-Schmidt trace bound.

All sums follow the conventions of :mod:`bardina.spectral` (integer lattice,
Parseval factor (2*pi)^2).  The modified Bessel function K1 is implemented
here from scratch (convergent series below x = 10 in extended precision,
asymptotic expansion with optimal truncation above) so the module has no
special-function dependency.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .bounds import B2
from .spectral import SpectralField, _check_int, _check_real

__all__ = [
    "k1",
    "lattice_F",
    "poisson_F",
    "LatticeSumResult",
    "phi",
    "psi_small",
    "phi_argmax",
    "crossover_masses",
    "psi_big",
    "rho_l2_check",
    "RhoCheckResult",
    "trace_k2_check",
    "TraceCheckResult",
]

_SERIES_ASYMPTOTIC_SPLIT = 10.0


def _k1_series(x: np.ndarray) -> np.ndarray:
    """Convergent series for K1, x in (0, 10).

    K1(x) = 1/x + ln(x/2) I1(x)
            - (x/4) sum_j [h(j) + h(j+1)] (x^2/4)^j / (j! (j+1)!)
    with h(j) = -euler_gamma + 1 + 1/2 + ... + 1/j.  The two large terms
    cancel to ~exp(-2x), so the sum is carried in extended precision.
    """
    xl = x.astype(np.longdouble)
    q = xl * xl / 4.0
    term = np.ones_like(xl)  # (x^2/4)^j / (j! (j+1)!)
    hj = np.longdouble(-np.euler_gamma)
    hj1 = hj + 1.0
    s_i = term.copy()
    s_h = (hj + hj1) * term
    for j in range(1, 44):
        term = term * q / (j * (j + 1))
        hj = hj + np.longdouble(1.0) / j
        hj1 = hj1 + np.longdouble(1.0) / (j + 1)
        s_i += term
        s_h += (hj + hj1) * term
    i1 = (xl / 2.0) * s_i
    out = 1.0 / xl + np.log(xl / 2.0) * i1 - (xl / 4.0) * s_h
    return out.astype(np.float64)


def _k1_asymptotic(x: np.ndarray) -> np.ndarray:
    """Poincare expansion sqrt(pi/2x) e^-x (1 + sum a_j/x^j), x >= 10.

    Terms are added while they keep decreasing (optimal truncation); the
    relative error is then below ~3e-10 at x = 10 and falls off rapidly.
    """
    s = np.ones_like(x)
    prev = np.full_like(x, np.inf)
    active = np.ones(x.shape, dtype=bool)
    a = 1.0
    for j in range(1, 31):
        a *= (4.0 - (2 * j - 1) ** 2) / (8.0 * j)
        term = a / x**j
        mag = np.abs(term)
        shrinking = active & (mag < prev)
        s = np.where(shrinking, s + term, s)
        active = shrinking & (mag > 1e-18)
        prev = mag
    return np.sqrt(np.pi / (2.0 * x)) * np.exp(-x) * s


def k1(x):
    """Modified Bessel function of the second kind, order one.

    Accepts a positive scalar or array; relative accuracy is ~1e-10 or
    better across (0, 700) (beyond which the result underflows to 0).

    Raises:
        ValueError: unless every argument is > 0 (K1(inf) = 0).
    """
    arr = np.asarray(x, dtype=np.float64)
    scalar = arr.ndim == 0
    arr = np.atleast_1d(arr)
    if not np.all(arr > 0.0):
        raise ValueError("x must be > 0")
    out = np.empty_like(arr)
    lo = arr < _SERIES_ASYMPTOTIC_SPLIT
    if np.any(lo):
        out[lo] = _k1_series(arr[lo])
    if np.any(~lo):
        out[~lo] = _k1_asymptotic(arr[~lo])
    return float(out[0]) if scalar else out


# ---------------------------------------------------------------------------
# lattice sum F(m), direct route and Poisson-summation route


@dataclass(frozen=True)
class LatticeSumResult:
    """Truncated direct lattice sum with its rigorous remainder bound."""

    m: float
    radius: int
    F_direct: float
    tail_bound: float

    @property
    def F_upper(self) -> float:
        return self.F_direct + self.tail_bound

    def margin(self) -> float:
        """Distance of the certified upper value from the limit pi."""
        return math.pi - self.F_upper


@lru_cache(maxsize=8)
def _sq_mode_counts(radius: int) -> np.ndarray:
    """counts[j] = #{k in Z^2, k != 0, |k|^2 = j} for j <= radius^2."""
    r2 = radius * radius
    counts = np.zeros(r2 + 1, dtype=np.int64)
    k2 = np.arange(-radius, radius + 1, dtype=np.int64) ** 2
    for k1v in range(-radius, radius + 1):
        j = k1v * k1v + k2
        counts += np.bincount(j[j <= r2], minlength=r2 + 1)
    counts[0] = 0
    return counts


def lattice_F(m: float, radius: int = 400) -> LatticeSumResult:
    """Direct evaluation of F(m) = m^2 sum_{k != 0} (|k|^2 + m^2)^-2.

    Sums all modes with 0 < |k| <= radius and attaches the integral
    remainder bound pi*m^2 / ((radius-1)^2 + m^2), which dominates the
    discarded positive terms.

    Args:
        m: positive mass parameter.
        radius: truncation radius in mode units (>= 8).
    """
    _check_real("m", m)
    _check_int("radius", radius, 8)
    mm = m * m
    if radius <= 2048:
        counts = _sq_mode_counts(radius)
        j = np.arange(counts.size, dtype=np.float64)
        direct = mm * float(np.sum(counts / (j + mm) ** 2))
    else:
        # row-streamed accumulation; avoids the O(radius^2) count table
        r2 = radius * radius
        k2sq = np.arange(-radius, radius + 1, dtype=np.float64) ** 2
        direct = 0.0
        for k1v in range(-radius, radius + 1):
            jrow = k1v * k1v + k2sq
            sel = jrow <= r2
            direct += float(np.sum(1.0 / (jrow[sel] + mm) ** 2))
        direct = mm * (direct - 1.0 / (mm * mm))  # remove k = 0
    tail = math.pi * mm / ((radius - 1.0) ** 2 + mm)
    return LatticeSumResult(m=float(m), radius=radius, F_direct=direct, tail_bound=tail)


def poisson_F(m: float, k_max: int = 48) -> float:
    """F(m) through Poisson summation.

    F(m) = pi - 1/m^2 + 2*pi sum_{k != 0} fhat(2*pi*m*|k|) with
    fhat(xi) = (xi/2) K1(xi), summed over 0 < |k| <= k_max.  The terms
    decay like exp(-2*pi*m*|k|), so modest k_max suffices for m >= 1.
    """
    _check_real("m", m)
    _check_int("k_max", k_max, 1)
    if k_max > 2048:
        raise ValueError("k_max out of range")
    counts = _sq_mode_counts(k_max)
    j = np.nonzero(counts)[0]
    xi = 2.0 * math.pi * m * np.sqrt(j.astype(np.float64))
    vals = 0.5 * xi * k1(xi)
    corr = 2.0 * math.pi * float(np.sum(counts[j] * vals))
    return math.pi - 1.0 / (m * m) + corr


# ---------------------------------------------------------------------------
# the auxiliary majorant Psi(m)


def phi(x):
    """phi(x) = x^2 / (e^x - 1), extended by 0 at x = 0."""
    arr = np.asarray(x, dtype=np.float64)
    safe = np.where(arr == 0.0, 1.0, arr)
    out = np.where(arr == 0.0, 0.0, arr * arr / np.expm1(safe))
    return float(out) if np.ndim(x) == 0 else out


def psi_small(x):
    """psi(x) = x / (e^x - 1), extended by 1 at x = 0."""
    arr = np.asarray(x, dtype=np.float64)
    safe = np.where(arr == 0.0, 1.0, arr)
    out = np.where(arr == 0.0, 1.0, arr / np.expm1(safe))
    return float(out) if np.ndim(x) == 0 else out


def phi_argmax() -> float:
    """Location of the maximum of phi: the root of x = 2(1 - e^-x)."""
    x = 1.6
    for _ in range(60):
        x = x - (x - 2.0 + 2.0 * math.exp(-x)) / (1.0 - 2.0 * math.exp(-x))
    return x


def crossover_masses() -> tuple[float, float]:
    """Masses where the two exponential scales of Psi peak.

    Returns (2*sqrt(2)/(3*pi), 1/(sqrt(2)*pi)) times the phi maximizer.
    """
    x0 = phi_argmax()
    return (2.0 * math.sqrt(2.0) / (3.0 * math.pi) * x0, x0 / (math.sqrt(2.0) * math.pi))


def psi_big(m):
    """Closed-form majorant Psi(m); Psi < 0 certifies F(m) < pi - no lattice
    sum involved.

    Psi(m) = 4 sqrt(pi/e) (2 sqrt2/(3 pi))^2 [phi(x1) + psi(x1)^2]
             + (1/(2 pi^2)) [phi(x2) + psi(x2)^2] - 1/pi,
    x1 = 3 pi m/(2 sqrt2), x2 = sqrt2 pi m.
    """
    arr = np.asarray(m, dtype=np.float64)
    if not np.all((arr > 0) & (arr < math.inf)):
        raise ValueError("m must be positive and finite")
    x1 = 3.0 * math.pi * arr / (2.0 * math.sqrt(2.0))
    x2 = math.sqrt(2.0) * math.pi * arr
    c1 = 4.0 * math.sqrt(math.pi / math.e) * (2.0 * math.sqrt(2.0) / (3.0 * math.pi)) ** 2
    out = (
        c1 * (phi(x1) + psi_small(x1) ** 2)
        + (phi(x2) + psi_small(x2) ** 2) / (2.0 * math.pi**2)
        - 1.0 / math.pi
    )
    return float(out) if np.ndim(m) == 0 else out


# ---------------------------------------------------------------------------
# Monte-Carlo check of || sum |u_i|^2 ||_L2 <= (2 sqrt(pi))^-1 m^-1 n^(1/2)


@dataclass(frozen=True)
class RhoCheckResult:
    n: int
    m: float
    trials: int
    bound: float
    ratios: np.ndarray  # ||rho||_L2 / bound per trial
    vector: bool

    @property
    def worst_ratio(self) -> float:
        return float(self.ratios.max())

    @property
    def violations(self) -> int:
        return int(np.sum(self.ratios >= 1.0))


def _band_modes(band: int) -> np.ndarray:
    """Nonzero integer modes with max-norm <= band, fixed ordering."""
    rng = np.arange(-band, band + 1)
    k1g, k2g = np.meshgrid(rng, rng, indexing="ij")
    modes = np.stack((k1g.ravel(), k2g.ravel()), axis=1)
    return modes[(modes[:, 0] != 0) | (modes[:, 1] != 0)]


def _orthonormal_rows(c: np.ndarray) -> np.ndarray:
    """Rows spanning the same nested subspaces as those of c, orthonormal in
    the complex inner product: one QR factorization of c^T.  Each row is
    Gram-Schmidt's up to a unit phase.

    Raises:
        ValueError: if a row degenerates (|r_jj| below 1e-12).
    """
    q, r = np.linalg.qr(c.T)
    if not (np.abs(np.diag(r)) >= 1e-12).all():
        raise ValueError("degenerate draw in Gram-Schmidt")
    return q.T


def rho_l2_check(
    n: int,
    m: float,
    trials: int,
    seed: int = 0,
    band: int = 10,
    eval_grid: int = 64,
    vector: bool = False,
) -> RhoCheckResult:
    """Sample random L2-orthonormal zero-mean families and test the bound
    ||rho||_L2 <= (2 sqrt(pi))^-1 m^-1 sqrt(n), rho = sum_i |u_i|^2, where
    u_i = (m^2 - Laplacian)^(-1/2) psi_i.

    Families are complex Gaussian coefficient draws on the nonzero modes of
    a band, orthonormalized in L2 by one QR factorization per trial; rho
    does not see the phase of each member, so that is Gram-Schmidt.  With
    ``vector=True`` the draw runs over the divergence-free basis
    k-perp/|k| e^(ikx)/(2 pi), exercising the vector-valued variant.

    The counter-based Philox generator makes trial i reproducible from
    (seed, i) alone, independent of execution order.
    """
    _check_int("n", n, 1)
    _check_real("m", m)
    _check_int("trials", trials, 1)
    _check_int("band", band)
    _check_int("eval_grid", eval_grid)
    modes = _band_modes(band)
    if n > len(modes):
        raise ValueError("family larger than the mode band")
    if eval_grid < 4 * band + 4:
        raise ValueError("eval_grid too small to hold |u|^2 without aliasing")
    ksq = (modes[:, 0] ** 2 + modes[:, 1] ** 2).astype(np.float64)
    mult = 1.0 / np.sqrt(m * m + ksq)
    idx1 = modes[:, 0] % eval_grid
    idx2 = modes[:, 1] % eval_grid
    # vector basis: unit vectors k-perp/|k| per mode
    perp = np.stack((-modes[:, 1], modes[:, 0]), axis=1) / np.sqrt(ksq)[:, None]
    bound = B2 * math.sqrt(n) / m
    root = np.random.SeedSequence(seed)
    children = root.spawn(trials)
    ratios = np.empty(trials)
    # the modes are distinct mod eval_grid, so one scatter places them all
    spec = np.zeros((n, 2 if vector else 1, eval_grid, eval_grid), dtype=complex)
    basis = perp.T if vector else np.ones((1, len(modes)))
    for t in range(trials):
        rng = np.random.Generator(np.random.Philox(children[t]))
        draw = rng.standard_normal((n, len(modes))) + 1j * rng.standard_normal((n, len(modes)))
        c = _orthonormal_rows(draw) / (2.0 * math.pi)  # rows orthonormal in L2
        cu = c * mult  # coefficients of u_i
        spec[..., idx1, idx2] = cu[:, None, :] * basis
        u = np.fft.ifft2(spec, norm="forward")
        rho = (u.real**2 + u.imag**2).sum(axis=(0, 1))
        # ||rho||_L2 = 2 pi sqrt(mean rho^2): rho is a trigonometric
        # polynomial the grid resolves, so its samples carry its L2 norm
        norm = 2.0 * math.pi * math.sqrt(float(np.vdot(rho, rho))) / eval_grid
        ratios[t] = norm / bound
    return RhoCheckResult(n=n, m=float(m), trials=trials, bound=bound, ratios=ratios, vector=vector)


# ---------------------------------------------------------------------------
# Hilbert-Schmidt bound Tr K^2 <= ||V||_L2^2 / (4 pi m^2)


@dataclass(frozen=True)
class TraceCheckResult:
    m: float
    k_cut: int
    lhs: float  # Tr K^2 on the truncated mode set
    rhs: float  # ||V||^2 / (4 pi m^2)


def trace_k2_check(V: SpectralField, m: float, k_cut: int = 16) -> TraceCheckResult:
    """Exact Tr K^2 for K = (m^2 - Lap)^(-1/2) V (m^2 - Lap)^(-1/2) against
    the closed-form bound, on the nonzero modes with |k| <= k_cut.

    The matrix element is K(k,k') = Vhat(k-k') / sqrt((m^2+|k|^2)(m^2+|k'|^2))
    and Tr K^2 is its squared Frobenius norm (K is Hermitian for real V).
    Truncation only discards nonnegative contributions, so the inequality
    is tested on the safe side.

    Raises:
        ValueError: if V has negative collocation values, m is not positive
            and finite, k_cut is not an integer >= 1, or 2 k_cut > n // 2 (the
            grid of V cannot resolve the mode differences).
    """
    _check_real("m", m)
    _check_int("k_cut", k_cut, 1)
    g = V.grid
    if 2 * k_cut > g.n // 2:
        raise ValueError("k_cut too large for the grid of V")
    samples = V.to_samples()
    if samples.min() < -1e-12 * max(1.0, abs(samples).max()):
        raise ValueError("V must be pointwise nonnegative")
    modes = _band_modes(k_cut)
    ksq = (modes[:, 0] ** 2 + modes[:, 1] ** 2).astype(np.float64)
    keep = ksq <= k_cut * k_cut
    modes, ksq = modes[keep], ksq[keep]
    w = 1.0 / np.sqrt(m * m + ksq)
    d1 = (modes[:, 0][:, None] - modes[:, 0][None, :]) % g.n
    d2 = (modes[:, 1][:, None] - modes[:, 1][None, :]) % g.n
    kmat = V.coeffs[d1, d2] * (w[:, None] * w[None, :])
    # a numpy reduction, not vdot: BLAS sums move in the last bits with its pool size
    lhs = float(np.sum(kmat.real**2 + kmat.imag**2))
    rhs = V.l2_norm_sq() / (4.0 * math.pi * m * m)
    return TraceCheckResult(m=float(m), k_cut=k_cut, lhs=lhs, rhs=rhs)
