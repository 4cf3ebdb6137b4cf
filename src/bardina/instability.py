"""Linear instability analysis of stationary Kolmogorov flows.

A single-mode body force g = (c sin(s x2), 0) drives the stationary state
u = g / gamma.  Linearizing the damped filtered-vorticity equation around
it couples Fourier modes only along vertical ladders k = (t, s n + r),
n in Z, so the eigenvalue problem splits into independent three-term
recurrences ("chains").  For chains whose base mode lies in an explicit
admissible region the recurrence has a unique real eigenvalue, the root of
f = g: f is linear, and g sums continued fractions down both tails of the
ladder, their depth doubled per chain until two depths agree.  The coupling
L and the damping gamma enter f and g only through x = (gamma + sigma) / L,
so each chain has one root x, which neither moves: sigma = L x - gamma, and
the critical coupling, where sigma = 0, is gamma / x.  `solve_sigmas` and
`solve_lambda0s` bisect x, a batch of chains at once, inside the paper's
critical-coupling estimate (:func:`coupling_bounds`), which brackets it.
`chain_matrix_eigens` cross-checks the roots on the truncated tridiagonal matrix
of the chain, by a route that uses no continued fraction: the matrix has a
zero diagonal, so its spectrum is +-lambda and the mu = lambda^2 are the
eigenvalues of one tridiagonal block of its square, the rows of the odd n;
for an admissible chain that block is similar to a symmetric one, and one
stacked symmetric eigensolve serves a batch.  Driving every admissible
lattice point unstable with a large enough forcing amplitude, certified by
the sign of the eigenvalue condition at sigma = 0, gives the dimension
lower bound of :mod:`bardina.bounds`.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .spectral import (FourierGrid, SpectralField, VectorField, _check_int, _check_real,
                       zero_field, zero_vector_field)

__all__ = [
    "KolmogorovSpec", "Chain", "ContinuedFractionError", "BracketError",
    "kolmogorov_forcing", "stationary_vorticity", "threshold_amplitude", "region_lattice",
    "lattice_chains", "solve_sigma", "solve_sigmas", "solve_lambda0s", "sigma_bounds",
    "coupling_bounds", "chain_matrix_eigen", "chain_matrix_eigens", "unstable_count",
]

SIGMA_TOL = 1e-12  # relative bisection tolerance on eigenvalues
_N_MAX = 32  # first continued-fraction depth; the fractions are made at n_max and 2 n_max
_MAX_DEPTH = 1 << 15  # g needs depth ~ x^(-1/2) near x = 0; doubled up to this
_ORACLE_DEPTHS = (16, 32, 64, 128, 200)  # the oracle's truncations without a depth
_STACK_BYTES = 1 << 22  # the oracle's eigvalsh stacks hold at most this many bytes


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
        _check_int("s", self.s, 1)
        _check_real("amplitude", self.amplitude, zero_ok=True)  # 0 gives the zero forcing
        _check_real("gamma", self.gamma)

    @property
    def curl_norm_sq(self) -> float:
        """||curl g||^2 = gamma^2 amplitude^2 s^2."""
        return (self.gamma * self.amplitude * self.s) ** 2


def threshold_amplitude(s: int, delta: float, alpha: float, gamma: float) -> float:
    """Forcing amplitude (110 pi/21) gamma delta^-2 (1+alpha s^2)^2 / s,
    large enough that every admissible chain at this s has a positive
    eigenvalue (it pushes the coupling past each chain's critical value).
    Raises ValueError naming alpha or gamma if it is not positive and finite.
    """
    if not 0.0 < delta < 1.0 / math.sqrt(3.0):
        raise ValueError("delta must lie in (0, 1/sqrt(3))")
    _check_int("s", s, 1)
    _check_real("alpha", alpha)
    _check_real("gamma", gamma)
    return (110.0 * math.pi / 21.0) * gamma * (1.0 + alpha * s * s) ** 2 / (delta * delta * s)


def kolmogorov_forcing(spec: KolmogorovSpec, grid: FourierGrid) -> VectorField:
    """Spectral coefficients of the forcing; divergence-free, zero-mean.

    Raises:
        ValueError: if the forcing wavenumber lies outside the de-aliased
            band of the grid.
    """
    if spec.s > grid.cut:
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
    if spec.s > grid.cut:
        raise ValueError("forcing wavenumber outside the de-aliased band")
    w = zero_field(grid)
    c = -spec.amplitude * spec.s / (math.sqrt(2.0) * math.pi)
    w.coeffs[0, spec.s] = 0.5 * c
    w.coeffs[0, -spec.s % grid.n] = 0.5 * c
    return w


# ---------------------------------------------------------------------------
# chains and the admissible lattice region


def _admissible(s: int, t: int, r: int) -> bool:
    return (3 * (t * t + r * r) < s * s and t * t + (r - s) ** 2 > s * s
            and t * t + (r + s) ** 2 > s * s and -s < 6 * r < s)


def region_lattice(s: int, delta: float) -> list[tuple[int, int]]:
    """All integer (t, r) in the admissible region, ordered by (t, r): inside
    the open disk of radius s/sqrt(3), outside both unit-shifted disks of
    radius s, strip |r| < s/6 (strict), and t >= delta*s.  All but the delta
    cut, which the range of t makes, are exact integer comparisons.

    Empty at s = 1; at s = 2 and 3 it holds (t, r) = (1, 0) when delta*s <= 1.
    Raises ValueError naming s unless it is an integer >= 1 (not a bool).
    """
    _check_int("s", s, 1)
    if not 0.0 < delta < 1.0 / math.sqrt(3.0):
        raise ValueError("delta must lie in (0, 1/sqrt(3))")
    t_max = int(math.floor(s / math.sqrt(3.0)))
    r_hi = (s - 1) // 6  # strict |r| < s/6
    return [(t, r) for t in range(max(1, int(math.ceil(delta * s))), t_max + 1)
            for r in range(-r_hi, r_hi + 1) if _admissible(s, t, r)]


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
        _check_int("s", self.s, 1)
        _check_int("t", self.t, 1)
        _check_int("r", self.r)
        # alpha 0 = unregularized limit; legal in the chain algebra even
        # though the evolution modules require alpha > 0
        _check_real("alpha", self.alpha, zero_ok=True)
        _check_real("gamma", self.gamma)
        _check_real("coupling", self.coupling)

    @classmethod
    def from_spec(cls, spec: KolmogorovSpec, alpha: float, t: int, r: int) -> "Chain":
        coupling = spec.amplitude / (2.0 * math.sqrt(2.0) * math.pi * (1.0 + alpha * spec.s**2))
        return cls(s=spec.s, t=t, r=r, alpha=alpha, gamma=spec.gamma, coupling=coupling)

    def admissible(self) -> bool:
        """The delta-independent region conditions (delta -> 0 limit)."""
        return _admissible(self.s, self.t, self.r)


def lattice_chains(s: int, delta: float, alpha: float, gamma: float,
                   amplitude: float | None = None) -> list[Chain]:
    """The chains of ``region_lattice(s, delta)``, in its order, for the forcing of
    wavenumber s and the given amplitude, by default ``threshold_amplitude(s, delta,
    alpha, gamma)``, which makes every one of them unstable."""
    lattice = region_lattice(s, delta)
    if amplitude is None:
        amplitude = threshold_amplitude(s, delta, alpha, gamma)
    spec = KolmogorovSpec(s=s, amplitude=amplitude, gamma=gamma)
    return [Chain.from_spec(spec, alpha, t, r) for t, r in lattice]


def _ladder_a(s, t, r, alpha, n):
    """A_n = (K + alpha K^2) / (t (K - s^2)), K = t^2 + (s n + r)^2; broadcasts.

    The chain recurrence is d_n e_n + e_{n-1} - e_{n+1} = 0, d_n = x A_n with
    x = (gamma + sigma) / coupling.
    """
    kn = s * n + r
    k_sq = t * t + kn * kn
    return (k_sq + alpha * k_sq * k_sq) / (t * (k_sq - s * s))


def _columns(chains) -> np.ndarray:
    """A batch of chains: one column each, rows s, t, r, alpha, gamma, coupling."""
    return np.array([(c.s, c.t, c.r, c.alpha, c.gamma, c.coupling) for c in chains],
                    dtype=np.float64).reshape(-1, 6).T


def _f(cols: np.ndarray, x) -> np.ndarray:
    s, t, r, alpha = cols[:4]
    q = t * t + r * r
    return x * (q + alpha * q * q) / (t * (s * s - q))


def _ladder_table(cols: np.ndarray, depth: int) -> np.ndarray:
    """A_n of each chain on both tails, n = 1..depth and -1..-depth: shape (depth, tail, chain)."""
    n = np.arange(1.0, depth + 1.0)[:, None, None] * np.array([[1.0], [-1.0]])
    return _ladder_a(*cols[:4], n)


def _tabulated(cols: np.ndarray, n_max: int):
    """Lookup scaled(depth, i, x) -> d_n = x A_n of the chains i of a batch,
    n = 1..depth on both tails: shape (depth, tail, chain).

    Every continued fraction starts with one pass at depth 2 n_max, which
    yields depth n_max from the same rows, so that A_n table, which holds no
    gamma or coupling, is made once for the whole batch and every x probed.
    Its d_n go into one buffer that each lookup overwrites, straight from the
    table while every chain is still in play, else from the chains' columns
    gathered there first.  Deeper passes, which only chains probed near x = 0
    need, get tables made for the chains asking.
    """
    first, every = _ladder_table(cols, 2 * n_max), np.arange(cols.shape[1])
    buffer = np.empty(first.size)

    def scaled(depth, i, x):
        if depth > 2 * n_max:
            a = _ladder_table(cols[:, i], depth)
            return np.multiply(x, a, out=a)
        d = buffer[: 4 * n_max * i.size].reshape(2 * n_max, 2, i.size)
        if np.array_equal(i, every):
            return np.multiply(x, first, out=d)
        return np.multiply(x, np.take(first, i, axis=2, out=d), out=d)

    return scaled


def _cf(i: np.ndarray, x: np.ndarray, n_max: int, max_depth: int, scaled) -> np.ndarray:
    """g of the chains i of a batch at depth 2n once depths n and 2n agree to 1e-10;
    n doubles per chain from n_max.  scaled(depth, i, x) hands over their d_n.

    Both tails are 1/(d_1 + 1/(d_2 + ... + 1/d_depth)), d_n = x A_n, summed
    from the deepest row up.  The first pass makes depths n_max and
    2 n_max at once: the deeper fraction runs alone down to row n_max, where
    the shallower one starts, and from there both run stacked.  Each fraction
    meets the same operations in the same order as in a pass of its own, so
    its bits do not depend on the sharing; later doublings take one pass each.
    """
    def descend(j, depth, split=0):
        # fractions of depth `depth` and, with split > 0, of depth `split`: shape (2, chain)
        d = scaled(depth, i[j], x[j])
        acc = d[-1]
        for d_n in d[max(split - 1, 0):-1][::-1]:
            np.divide(1.0, acc, out=acc)
            np.add(d_n, acc, out=acc)
        if split:
            acc = np.stack((acc, d[split - 1]))
            for d_n in d[: split - 1][::-1]:
                np.divide(1.0, acc, out=acc)
                np.add(d_n, acc, out=acc)
        return 1.0 / acc[..., 0, :] + 1.0 / acc[..., 1, :]

    depth, todo = n_max, np.arange(x.size)
    deeper, g = descend(todo, 2 * depth, depth)
    while True:
        moved = np.abs(g[todo] - deeper)
        g[todo] = deeper
        bad = moved > 1e-10
        todo, depth = todo[bad], 2 * depth
        if not todo.size:
            return g
        if depth > max_depth:
            raise ContinuedFractionError(f"depth doubling moved g by {moved[bad][0]:.3e} "
                                         f"at x={float(x[todo[0]])!r}")
        deeper = descend(todo, 2 * depth)


def _gap(cols: np.ndarray, i: np.ndarray, x: np.ndarray, scaled) -> np.ndarray:
    return _f(cols[:, i], x) - _cf(i, x, _N_MAX, _MAX_DEPTH, scaled)


def _gap_at_zero(cols: np.ndarray) -> np.ndarray:
    """The gap f - g of each chain at sigma = 0, x = gamma / coupling: negative exactly
    when its eigenvalue is positive, as the gap changes sign once, from - to +, at the root."""
    return _gap(cols, np.arange(cols.shape[1]), cols[4] / cols[5], _tabulated(cols, _N_MAX))


def _bisect(above, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Halve each [lo, hi], 0 < lo, to (SIGMA_TOL / 2) hi; above(x, i): x[i] past root i."""
    todo = np.arange(lo.size)
    while True:
        todo = todo[hi[todo] - lo[todo] > 0.5 * SIGMA_TOL * hi[todo]]
        if not todo.size:
            return 0.5 * (lo + hi)
        mid = 0.5 * (lo[todo] + hi[todo])
        up = above(mid, todo)
        hi[todo[up]] = mid[up]
        lo[todo[~up]] = mid[~up]


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


def _roots(chains) -> tuple[np.ndarray, np.ndarray]:
    """The columns of the chains and the root x = (gamma + sigma) / coupling of each.

    The critical coupling is gamma / x, so :func:`coupling_bounds` at delta = t/s
    brackets x: gamma / hi < x < gamma / lo.  Unless the gap f - g is < 0 at the
    lower end and > 0 at the upper one, BracketError names the first chain where
    it is not, with f and g at that end; else each [lo, hi] is halved in lockstep.
    """
    chains = list(chains)
    if not all(c.admissible() for c in chains):
        raise ValueError("chain base mode outside the admissible region")
    cols = _columns(chains)
    every, scaled = np.arange(cols.shape[1]), _tabulated(cols, _N_MAX)
    hi, lo = cols[4] / np.array([coupling_bounds(c, c.t / c.s) for c in chains]).reshape(-1, 2).T
    (f_lo, g_lo), (f_hi, g_hi) = ((_f(cols, x), _cf(every, x, _N_MAX, _MAX_DEPTH, scaled))
                                  for x in (lo, hi))
    low, high = ~(f_lo - g_lo < 0.0), ~(f_hi - g_hi > 0.0)  # NaN counts as wrong
    wrong = np.flatnonzero(low | high)
    if wrong.size:
        k = wrong[0]
        end, x, f, g = ("lower", lo, f_lo, g_lo) if low[k] else ("upper", hi, f_hi, g_hi)
        raise BracketError(f"chain (t={chains[k].t}, r={chains[k].r}): no sign change of f - g "
                           f"on the critical-coupling bracket; at its {end} end "
                           f"x={float(x[k])!r}, f={float(f[k])!r}, g={float(g[k])!r}")
    return cols, _bisect(lambda x, i: _gap(cols, i, x, scaled) > 0.0, lo, hi)


def solve_sigmas(chains) -> np.ndarray:
    """Array of :func:`solve_sigma` over the chains, found in one lockstep bisection;
    each entry is bit-identical to solving that chain alone, and it raises
    as :func:`solve_sigma` does for the first chain that fails."""
    cols, x = _roots(chains)
    return cols[5] * x - cols[4]


def solve_sigma(chain: Chain) -> float:
    """Unique real eigenvalue of the chain: coupling x - gamma at the root x of f = g.

    In x = (gamma + sigma) / coupling, f grows linearly from f(0) = 0 while g
    is positive and strictly decreasing, so the gap f - g changes sign once on
    x > 0.  Bisection brackets it by :func:`coupling_bounds` at the chain's own
    maximal delta = t/s and halves x to (SIGMA_TOL / 2) x, so sigma is within
    SIGMA_TOL max(gamma, |sigma|), as gamma + sigma <= 2 max(gamma, |sigma|).

    Raises:
        ValueError: if the chain violates the admissibility conditions
            (the sign structure of the recurrence is then lost).
        BracketError: if the gap does not change sign across the bracket
            (names the chain and gives f and g at the failing end).
    """
    return float(solve_sigmas([chain])[0])


def solve_lambda0s(chains) -> np.ndarray:
    """Critical coupling of each chain, where its eigenvalue crosses zero: gamma / x
    for the chain's root x = (gamma + sigma) / coupling, the one bisection of
    :func:`solve_sigmas`, which no coupling moves.  x is bisected to SIGMA_TOL / 2
    relative, so the coupling is too.  Each entry is bit-identical to solving that
    chain alone.

    Raises:
        ValueError, BracketError, ContinuedFractionError: as :func:`solve_sigmas`.
    """
    cols, x = _roots(chains)
    return cols[4] / x


# ---------------------------------------------------------------------------
# truncated matrix oracle
#
# The chain matrix M of a depth is the tridiagonal truncation of
# (gamma + sigma) e_n = (e_{n+1} - e_{n-1}) / A_n on n in [-depth, depth]
# (row i holds n = i - depth): zero diagonal, M[i, i+1] = 1/A_n and
# M[i+1, i] = -1/A_{n+1}.  1/A_n is evaluated directly, so a row with
# |k_n| = s, where A_n diverges, decouples with zero entries.


def _inv_ladders(cols: np.ndarray, depth: int) -> np.ndarray:
    """1/A_n of each chain on n in [-depth, depth], zero where |k_n| = s: shape (chain, n)."""
    s, t, r, alpha, _, coupling = cols[:, :, None]
    kn = s * np.arange(-depth, depth + 1.0) + r
    k_sq = t * t + kn * kn
    return coupling * t * (k_sq - s * s) / (k_sq + alpha * k_sq * k_sq)


def _square_blocks(w: np.ndarray, first: int) -> np.ndarray:
    """Rows and columns first, first + 2, ... (first 0 or 1) of M^2, M the chain matrix,
    for each row w of :func:`_inv_ladders`: shape (chain, size, size).

    With w = 1/A_n along M's rows, M[i, i+1] = w_i and M[i+1, i] = -w_{i+1},
    so M^2 is tridiagonal in steps of two: diagonal -w_i (w_{i-1} + w_{i+1}) (one
    side at either end), M^2[i, i+2] = w_i w_{i+1} and M^2[i+2, i] = w_{i+2} w_{i+1}.
    """
    sides = np.concatenate((w[:, 1:2], w[:, :-2] + w[:, 2:], w[:, -2:-1]), axis=1)
    rows, inner = w[:, first::2], w[:, first + 1 : -1 : 2]
    j = np.arange(rows.shape[1])
    b = np.zeros((len(w), j.size, j.size))
    b[:, j, j] = -rows * sides[:, first::2]
    b[:, j[:-1], j[1:]] = rows[:, :-1] * inner
    b[:, j[1:], j[:-1]] = rows[:, 1:] * inner
    return b


def chain_matrix_eigens(chains, depth: int | None = None) -> np.ndarray:
    """Largest real part of the spectrum of the chain matrix of the depth, minus gamma,
    for each chain; each entry is bit-identical to that chain solved alone.

    Independent route to the chain eigenvalue (no continued fraction);
    agrees with :func:`solve_sigmas` once depth is large (coefficients grow
    like n^2, so boundary truncation decays fast).  The matrix M has a zero
    diagonal, so D M D = -M for D = diag((-1)^i): its spectrum is +-lambda,
    and M^2 splits into its even and odd rows and columns.
    Each block holds every mu = lambda^2 of a nonzero lambda; the even rows, one
    more, add the zero eigenvalue of the odd-sized M.  So the largest real part is
    max Re sqrt(mu) over one block instead of a (2 depth + 1)^2 problem.

    The block B of the odd n is tridiagonal.  Where every product
    c_j = B[j, j+1] B[j+1, j] is >= 0, B is diagonally similar to the
    symmetric tridiagonal matrix with off-diagonals sqrt(c_j) (blocks split
    where c_j = 0), so mu is real, and one ``numpy.linalg.eigvalsh`` call
    solves a stack of such blocks of one truncation.  This holds for every
    admissible chain at every depth, as 1/A_n > 0 at every n != 0.  Any other
    chain goes on its own to ``numpy.linalg.eigvals`` on the odd rows, without
    the zero eigenvalue, whose rounding the sqrt would magnify.

    With no depth, the symmetric route doubles the depth, 16, 32, 64, 128 and
    last 200, and a chain stops at the first truncation that agrees with the
    one before to SIGMA_TOL * max(gamma, |sigma|), the tolerance
    :func:`solve_sigmas` bisects sigma to; a chain that has not converged by
    then gets its value at depth 200.  A chain off the symmetric route is
    solved at depth 200.
    """
    if depth is not None:
        _check_int("depth", depth, 1)
    cols = _columns(list(chains))
    sigma, on = np.full(cols.shape[1], np.nan), np.ones(cols.shape[1], dtype=bool)
    todo = np.arange(cols.shape[1])
    for depth in _ORACLE_DEPTHS if depth is None else (depth,):  # leaves the last depth set
        last, step = sigma[todo], max(1, _STACK_BYTES // (8 * (depth + 1) ** 2))
        for i in np.split(todo, range(step, todo.size, step)):
            b = _square_blocks(_inv_ladders(cols[:, i], depth), 1 - depth % 2)  # the odd n
            j = np.arange(b.shape[1] - 1)
            c = b[:, j, j + 1] * b[:, j + 1, j]
            ok = np.all(c >= 0.0, axis=1)
            on[i[~ok]] = False
            b, i = b[ok], i[ok]
            b[:, j + 1, j] = np.sqrt(c[ok])  # eigvalsh reads the lower triangle only
            sigma[i] = np.sqrt(np.maximum(np.linalg.eigvalsh(b)[:, -1], 0.0)) - cols[4, i]
        got = sigma[todo]  # `last` is NaN at the first depth, so no chain stops there
        agree = np.abs(got - last) <= SIGMA_TOL * np.maximum(cols[4, todo], np.abs(got))
        todo = todo[on[todo] & ~agree]
    for k in np.flatnonzero(~on):
        mu = np.linalg.eigvals(_square_blocks(_inv_ladders(cols[:, k : k + 1], depth), 1)[0])
        sigma[k] = np.sqrt(mu.astype(complex)).real.max() - cols[4, k]
    return sigma


def chain_matrix_eigen(chain: Chain, depth: int | None = None) -> float:
    """:func:`chain_matrix_eigens` of one chain."""
    return float(chain_matrix_eigens([chain], depth)[0])


def unstable_count(s: int, delta: float, alpha: float, gamma: float) -> int:
    """Number of certified unstable directions of the stationary flow
    forced at wavenumber s with the threshold-exceeding amplitude: two per
    admissible chain (each ladder appears with its conjugate partner).

    Raises:
        RuntimeError: if any admissible chain fails to certify a positive
            eigenvalue (contradicts the two-sided estimate).
    """
    chains = lattice_chains(s, delta, alpha, gamma)
    failed = np.flatnonzero(~(_gap_at_zero(_columns(chains)) < 0.0))
    if failed.size:
        c = chains[failed[0]]
        raise RuntimeError(f"chain (t={c.t}, r={c.r}) failed instability certification")
    return 2 * len(chains)
