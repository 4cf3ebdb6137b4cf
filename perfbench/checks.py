"""Independent computations and the correctness checks of the benchmark.

Nothing here calls bardina: every reference value is recomputed with plain
numpy or exact integer arithmetic from the definitions, so a fault in the
program cannot hide by also being in its reference.  Each `check_*`
function returns a list of failure messages, empty when the result holds.
"""
from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

TWO_PI_SQ = (2.0 * math.pi) ** 2

# Energy budget: per-step trapezoid residual of dE/dt = -2 gamma E + 2 (curl g, omegabar),
# relative to E.  The trapezoid rule is exact to O(dt^3); at dt = 1e-3 the observed
# residual is ~4e-9, so 1e-6 leaves a factor ~250 while a one-coefficient error of
# relative size 1e-5 in a state still shows.
ENERGY_TOL = 1e-6
# Tangent vs central difference of `step`, relative max-norm in vorticity.  With
# eps = 1e-3 the truncation error is O(eps^2) (~1e-11 observed, ~1e-9 at eps = 1e-2)
# and rounding ~1e-16/eps, so 1e-8 is far above both.
FD_EPS = 1e-3
FD_TOL = 1e-8
ORACLE_TOL = 1e-8
BRACKET_RTOL = 1e-12
RATIO_SPREAD = 0.01


# ---------------------------------------------------------------------------
# spectral quantities


def wavenumbers(n: int) -> tuple[np.ndarray, np.ndarray]:
    k = np.fft.fftfreq(n, d=1.0 / n)
    return np.meshgrid(k, k, indexing="ij")


def kolmogorov_curl(n: int, s: int, amplitude: float, gamma: float) -> np.ndarray:
    """curl g for g = (gamma a / (sqrt2 pi)) (sin(s x2), 0): -(gamma a s / (sqrt2 pi)) cos(s x2)."""
    c = np.zeros((n, n), dtype=complex)
    c[0, s] = c[0, -s] = -0.5 * gamma * amplitude * s / (math.sqrt(2.0) * math.pi)
    return c


def absorbing_radius_sq(s: int, amplitude: float, alpha: float) -> float:
    """R0^2 = min(|g|^2/alpha, |curl g|^2)/gamma^2 with |g| = gamma a, |curl g| = gamma a s."""
    return amplitude**2 * min(1.0 / alpha, float(s * s))


def max_speed(coeffs: np.ndarray, alpha: float) -> float:
    """max |ubar| on the collocation grid for vorticity coefficients (FFT layout)."""
    n = coeffs.shape[0]
    k1, k2 = wavenumbers(n)
    ksq = k1 * k1 + k2 * k2
    psi = np.zeros_like(coeffs)
    nz = ksq > 0
    psi[nz] = -coeffs[nz] / (ksq[nz] * (1.0 + alpha * ksq[nz]))
    u1 = np.fft.ifft2(-1j * k2 * psi).real * n * n
    u2 = np.fft.ifft2(1j * k1 * psi).real * n * n
    return float(np.sqrt(u1 * u1 + u2 * u2).max())


class EnergyBudget:
    """Observer: samples E = |omegabar|^2 + alpha |grad omegabar|^2 and its exact rate."""

    def __init__(self, n: int, alpha: float, gamma: float, forcing_curl: np.ndarray) -> None:
        k1, k2 = wavenumbers(n)
        self.weight = 1.0 / (1.0 + alpha * (k1 * k1 + k2 * k2))
        self.gamma = gamma
        self.forcing_curl = forcing_curl
        self.times: list[float] = []
        self.energy: list[float] = []
        self.rate: list[float] = []

    def __call__(self, state) -> None:
        if self.times and state.time == self.times[-1]:
            return  # a leg starts where the previous one ended
        c = state.omega.coeffs
        e = TWO_PI_SQ * float(np.sum((c * np.conj(c)).real * self.weight))
        work = TWO_PI_SQ * float(np.sum((self.forcing_curl * np.conj(c)).real * self.weight))
        self.times.append(state.time)
        self.energy.append(e)
        self.rate.append(-2.0 * self.gamma * e + 2.0 * work)


def check_energy_budget(times, energy, rate, tol: float = ENERGY_TOL) -> list[str]:
    t, e, f = (np.asarray(x, dtype=float) for x in (times, energy, rate))
    if not (np.isfinite(e).all() and np.isfinite(f).all()):
        return ["energy budget: non-finite energy or rate"]
    resid = np.abs(e[1:] - e[:-1] - 0.5 * np.diff(t) * (f[1:] + f[:-1])) / e[1:]
    worst = int(resid.argmax())
    if resid[worst] > tol:
        return [f"energy budget residual {resid[worst]:.3e} > {tol:.0e} at t = {t[worst + 1]!r}"]
    return []


def check_checkpoint(in_memory, loaded) -> list[str]:
    """A reloaded checkpoint must equal the state it was written from, bit for bit."""
    out = []
    if not np.array_equal(in_memory.omega.coeffs, loaded.omega.coeffs):
        out.append(f"checkpoint at t = {in_memory.time!r}: omega differs after reload")
    if not np.array_equal(in_memory.forcing_curl.coeffs, loaded.forcing_curl.coeffs):
        out.append(f"checkpoint at t = {in_memory.time!r}: forcing differs after reload")
    if (in_memory.time, in_memory.params) != (loaded.time, loaded.params):
        out.append(f"checkpoint at t = {in_memory.time!r}: header differs after reload")
    return out


def check_ball_entry(energy_start: float, energy_end: float, r0_sq: float) -> list[str]:
    out = []
    if not energy_start > r0_sq:
        out.append(f"run starts inside the absorbing ball (E/R0^2 = {energy_start / r0_sq:.4f})")
    if not energy_end < r0_sq:
        out.append(f"run ends outside the absorbing ball (E/R0^2 = {energy_end / r0_sq:.4f})")
    return out


def check_tangent_fd(fd: np.ndarray, tangent: np.ndarray, tol: float = FD_TOL) -> list[str]:
    """Central difference of `step` along a tangent against the propagated tangent."""
    scale = float(np.abs(tangent).max())
    err = float(np.abs(fd - tangent).max()) / scale if scale > 0 else math.inf
    if not err <= tol:
        return [f"tangent step disagrees with finite difference: relative {err:.3e} > {tol:.0e}"]
    return []


def kaplan_yorke(exponents) -> float:
    q = np.cumsum(exponents)
    if q[0] < 0:
        return 0.0
    for m in range(len(q) - 1):
        if q[m + 1] < 0:
            return float(m + 1 + q[m] / abs(exponents[m + 1]))
    return float(len(q))


def check_lyapunov(exponents, partial_sums, dimension: float, q_bound, cap: float,
                   collapses: int) -> list[str]:
    lam = np.asarray(exponents, dtype=float)
    q = np.asarray(partial_sums, dtype=float)
    out = []
    if not (np.isfinite(lam).all() and np.isfinite(q).all() and math.isfinite(dimension)):
        return ["lyapunov: non-finite exponent, partial sum or dimension"]
    if np.any(np.diff(lam) > 0):
        out.append(f"lyapunov: exponents not descending: {lam.tolist()}")
    if not np.allclose(q, np.cumsum(lam), rtol=1e-12, atol=0.0):
        out.append("lyapunov: partial sums are not the cumulative sums of the exponents")
    if np.any(q > np.asarray(q_bound)):
        out.append(f"lyapunov: q(n) {q.tolist()} exceeds the trace majorant {list(q_bound)}")
    if not 0.0 <= dimension <= cap:
        out.append(f"lyapunov: dimension {dimension!r} outside [0, {cap!r}]")
    if abs(dimension - kaplan_yorke(lam)) > 1e-12 * max(1.0, dimension):
        out.append(f"lyapunov: dimension {dimension!r} != Kaplan-Yorke {kaplan_yorke(lam)!r}")
    if collapses:
        out.append(f"lyapunov: {collapses} tangent collapse(s)")
    return out


# ---------------------------------------------------------------------------
# ladders: lattice, brackets, oracle


def lattice_points(s: int, delta: str) -> list[tuple[int, int]]:
    """Integer (t, r) with 3(t^2+r^2) < s^2, t^2+(r-+s)^2 > s^2, -s < 6r < s, t >= delta s.

    delta is a decimal string, compared exactly as a fraction.
    """
    d = Fraction(delta)
    pts = []
    for t in range(1, s + 1):
        if t * d.denominator < d.numerator * s:
            continue
        for r in range(-s, s + 1):
            if (
                3 * (t * t + r * r) < s * s
                and t * t + (r - s) ** 2 > s * s
                and t * t + (r + s) ** 2 > s * s
                and -s < 6 * r < s
            ):
                pts.append((t, r))
    return pts


def check_count(count: int, s: int, delta: str) -> list[str]:
    expect = 2 * len(lattice_points(s, delta))
    if count != expect:
        return [f"unstable_count(s={s}) = {count}, expected 2 x lattice points = {expect}"]
    return []


def read_csv(text: str) -> list[dict[str, float]]:
    lines = [ln for ln in text.splitlines() if ln and not ln.startswith("#")]
    head = lines[0].split(",")
    return [dict(zip(head, map(float, ln.split(",")))) for ln in lines[1:]]


def oracle_sigma(s: int, t: int, r: int, alpha: float, gamma: float, coupling: float,
                 depth: int = 200) -> float:
    """Largest real eigenvalue of the truncated ladder matrix, minus gamma."""
    n = np.arange(-depth, depth + 1)
    k = t * t + (s * n + r) ** 2.0
    inv_a = coupling * t * (k - s * s) / (k + alpha * k * k)
    m = np.diag(inv_a[:-1], 1) - np.diag(inv_a[1:], -1)
    return float(np.linalg.eigvals(m).real.max()) - gamma


def check_instability_rows(rows, s: int, delta: str, alpha: float, gamma: float) -> list[str]:
    out = []
    got = sorted((int(row["t"]), int(row["r"])) for row in rows)
    if got != lattice_points(s, delta):
        out.append(f"instability rows cover {len(got)} chains, not the admissible lattice")
    dl = float(Fraction(delta))
    for row in rows:
        where = f"chain (t={int(row['t'])}, r={int(row['r'])})"
        sig = row["sigma"]
        scale = row["Lambda"] * math.sqrt(2.0) * s / (1.0 + alpha * s * s)
        lo, hi = scale * (21.0 / 55.0) * dl * dl - gamma, scale / dl - gamma
        if not (abs(row["sigma_lower_bound"] - lo) <= BRACKET_RTOL * abs(lo)
                and abs(row["sigma_upper_bound"] - hi) <= BRACKET_RTOL * abs(hi)):
            out.append(f"{where}: bracket columns differ from the closed form")
        if not (sig > 0.0 and lo <= sig <= hi):
            out.append(f"{where}: sigma {sig!r} not positive inside [{lo!r}, {hi!r}]")
        if not abs(sig - row["oracle_sigma"]) < ORACLE_TOL:
            out.append(f"{where}: |sigma - oracle| = {abs(sig - row['oracle_sigma']):.3e}")
    if rows:
        row = rows[0]
        own = oracle_sigma(s, int(row["t"]), int(row["r"]), alpha, gamma, row["Lambda"])
        if not abs(own - row["oracle_sigma"]) < ORACLE_TOL:
            out.append(f"oracle column {row['oracle_sigma']!r} != own matrix eigenvalue {own!r}")
    return out


# ---------------------------------------------------------------------------
# bounds: area of the admissible region and the lower-bound constant

C1_PREFACTOR = (21.0 / (110.0 * math.pi)) ** 2 / 8.0
AREA_A_RESOLUTION = 2000  # the golden-section refinement of bardina evaluates area_a at 2 x 1000


def area_1d(delta: float, m: int = 400_000) -> float:
    """a(delta) = int_{-1/6}^{1/6} max(0, sqrt(1/3 - r^2) - max(delta, sqrt(2|r| - r^2))) dr."""
    h = (1.0 / 3.0) / m
    r = -1.0 / 6.0 + h * (np.arange(m) + 0.5)
    top = np.sqrt(1.0 / 3.0 - r * r)
    bottom = np.maximum(delta, np.sqrt(2.0 * np.abs(r) - r * r))
    return float(np.sum(np.maximum(0.0, top - bottom)) * h)


def lower_bound_constant() -> tuple[float, float]:
    """(c1, delta*) by golden-section maximization of a(delta) delta^4 over [0.40, 0.55]."""
    def f(d: float) -> float:
        return area_1d(d) * d**4

    inv_phi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = 0.40, 0.55
    c, d = b - inv_phi * (b - a), a + inv_phi * (b - a)
    fc, fd = f(c), f(d)
    while b - a > 1e-7:
        if fc > fd:
            b, d, fd = d, c, fc
            c = b - inv_phi * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + inv_phi * (b - a)
            fd = f(d)
    ds = 0.5 * (a + b)
    return C1_PREFACTOR * f(ds), ds


def c1_tolerance(delta: float, resolution: int = AREA_A_RESOLUTION) -> float:
    """Relative error bound of c1 from bardina's cell-counting area_a.

    area_a counts midpoints of a resolution^2 grid of cells ht x hr over
    [delta, 1/sqrt3] x [-1/6, 1/6]; the straight cuts fall on cell edges, so
    only cells crossed by the four monotone arc pieces can be miscounted.  A
    monotone piece spanning at most the box crosses at most
    (1/sqrt3 - delta)/ht + (1/6)/hr + 1 = 1.5 resolution + 1 cells.  The
    maximum over delta moves by at most the same amount, and the quadrature
    of area_1d adds well below 1e-5.
    """
    ht = (1.0 / math.sqrt(3.0) - delta) / resolution
    hr = (1.0 / 3.0) / resolution
    cells = 4 * (1.5 * resolution + 1)
    return cells * ht * hr / area_1d(delta) + 1e-5


def check_bounds(records: list[dict], c1_own: float, delta_own: float) -> list[str]:
    out = []
    tol = c1_tolerance(delta_own)
    ratios = []
    for rec in records:
        where = f"bounds at alpha = {rec['alpha']!r}"
        if not rec["lower"] <= rec["upper"]:
            out.append(f"{where}: lower {rec['lower']!r} > upper {rec['upper']!r}")
        upper = rec["curl_g_sq"] / (8.0 * math.pi * rec["alpha"] * rec["gamma"] ** 4)
        if abs(rec["upper"] / upper - 1.0) > 1e-12:
            out.append(f"{where}: upper {rec['upper']!r} != |curl g|^2/(8 pi alpha gamma^4)")
        if abs(rec["c1"] / c1_own - 1.0) > tol:
            out.append(f"{where}: c1 {rec['c1']!r} vs own {c1_own!r} beyond {tol:.2e}")
        ratios.append(rec["lower"] / rec["upper"])
    if ratios:
        if max(ratios) / min(ratios) - 1.0 > RATIO_SPREAD:
            out.append(f"lower/upper varies across alpha: {min(ratios)!r} .. {max(ratios)!r}")
        if abs(ratios[0] / (8.0 * math.pi * c1_own) - 1.0) > tol:
            out.append(f"lower/upper {ratios[0]!r} != 8 pi c1 = {8.0 * math.pi * c1_own!r}")
    return out
