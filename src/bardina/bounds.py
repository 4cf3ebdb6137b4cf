"""Two-sided attractor-dimension estimates.

The upper bound comes from the trace majorant of the linearized evolution:
q(n) <= -gamma n + (B2/sqrt2) sqrt(n/alpha) ||curl g|| / gamma, whose
positive root gives dim <= ||curl g||^2 / (8 pi alpha gamma^4).

The lower bound counts unstable directions of a stationary Kolmogorov flow
at wavenumber s ~ 1/sqrt(alpha) driven with the amplitude of
:func:`bardina.instability.threshold_amplitude`; the count is asymptotic to
the area of the admissible region, which is bounded by three circles and
two lines and so has a closed form (:func:`area_a`).  Maximizing the product
area(delta) * delta^4 over the region parameter by one golden-section search
produces the constant c1 ~ 6.5e-7 multiplying the same ratio
||curl g||^2 / (alpha gamma^4).
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import instability
from .spectral import _check_real

__all__ = [
    "upper_bound",
    "trace_bound_q",
    "area_a",
    "lower_bound_constant",
    "DimensionReport",
    "dimension_report",
]

B2 = 0.5 / math.sqrt(math.pi)  # constant in the rho and trace bounds, shared with inequalities
DELTA_MAX = 1.0 / math.sqrt(3.0)
# arithmetic prefactor of the lower-bound constant: (1/8)(21/(110 pi))^2
C1_PREFACTOR = (21.0 / (110.0 * math.pi)) ** 2 / 8.0


def upper_bound(alpha: float, gamma: float, curl_g_norm_sq: float) -> float:
    """dim <= ||curl g||^2 / (8 pi alpha gamma^4).

    Raises:
        ValueError: naming alpha, gamma or the forcing norm if it is not
            positive and finite.
    """
    _check_real("alpha", alpha)
    _check_real("gamma", gamma)
    _check_real("curl_g_norm_sq", curl_g_norm_sq)
    return curl_g_norm_sq / (8.0 * math.pi * alpha * gamma**4)


def trace_bound_q(n, alpha: float, gamma: float, curl_g_norm: float):
    """Analytic majorant of the n-trace of the linearization:
    -gamma*n + (B2/sqrt2) sqrt(n/alpha) ||curl g|| / gamma.

    Its positive root equals :func:`upper_bound` of the same forcing.
    """
    _check_real("alpha", alpha)
    _check_real("gamma", gamma)
    _check_real("curl_g_norm", curl_g_norm, zero_ok=True)
    narr = np.asarray(n, dtype=np.float64)
    if not np.all((narr >= 1) & (narr < math.inf)):
        raise ValueError("n must be finite and >= 1")
    out = -gamma * narr + (B2 / math.sqrt(2.0)) * np.sqrt(narr / alpha) * curl_g_norm / gamma
    return float(out) if np.ndim(n) == 0 else out


def _sqrt_antiderivative(x: float, c: float) -> float:
    # antiderivative of sqrt(c - x^2) on [-sqrt(c), sqrt(c)]
    return 0.5 * (x * math.sqrt(c - x * x) + c * math.asin(x / math.sqrt(c)))


def area_a(delta: float) -> float:
    """Normalized area of the admissible region (wavenumber s scaled to 1).

    The region delta < t, t^2 + r^2 < 1/3, t^2 + (r -+ 1)^2 > 1 is symmetric
    in r, so a(delta) = 2 int_0^R [sqrt(1/3 - r^2) - max(delta, sqrt(2r - r^2))] dr
    with R = min(1/6, sqrt(1/3 - delta^2)); the two lower curves cross at
    r_delta = 1 - sqrt(1 - delta^2), and each piece integrates in closed form.
    """
    if not 0.0 < delta < DELTA_MAX:
        raise ValueError("delta must lie in (0, 1/sqrt(3))")
    top = min(1.0 / 6.0, math.sqrt(1.0 / 3.0 - delta * delta))
    cross = min(1.0 - math.sqrt(1.0 - delta * delta), top)
    upper = _sqrt_antiderivative(top, 1.0 / 3.0)  # the value at r = 0 is 0
    # sqrt(2r - r^2) = sqrt(1 - (r - 1)^2)
    arc = _sqrt_antiderivative(top - 1.0, 1.0) - _sqrt_antiderivative(cross - 1.0, 1.0)
    return 2.0 * (upper - delta * cross - arc)


@lru_cache(maxsize=1)
def lower_bound_constant() -> tuple[float, float]:
    """(c1, delta_star): maximum of area(delta)*delta^4 over the region
    parameter, times the arithmetic prefactor (1/8)(21/(110 pi))^2.

    area(delta)*delta^4 is unimodal on (0, 1/sqrt3), so one golden-section
    search over the whole interval finds the maximizer; cached per process.
    """
    def score(d: float) -> float:
        return area_a(d) * d**4

    inv_phi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = 0.0, DELTA_MAX
    c, d = b - inv_phi * (b - a), a + inv_phi * (b - a)
    fc, fd = score(c), score(d)
    while b - a > 1e-10:
        if fc > fd:
            b, d, fd = d, c, fc
            c = b - inv_phi * (b - a)
            fc = score(c)
        else:
            a, c, fc = c, d, fd
            d = a + inv_phi * (b - a)
            fd = score(d)
    delta_star = 0.5 * (a + b)
    return C1_PREFACTOR * score(delta_star), delta_star


@dataclass(frozen=True)
class DimensionReport:
    """Both dimension estimates for the threshold forcing at one alpha."""

    alpha: float
    gamma: float
    s: int
    curl_g_norm_sq: float
    upper: float
    lower: float
    constant_c1: float
    delta_star: float


def _region_empty(s: int, delta: float) -> bool:
    """Whether instability.region_lattice(s, delta) is empty: (t, 0) is admissible iff
    3 t^2 < s^2, as is every admissible (t, r), so the least t of the region decides."""
    t0 = max(1, math.ceil(delta * s))
    return 3 * t0 * t0 >= s * s


def dimension_report(alpha: float, gamma: float) -> DimensionReport:
    """Evaluate both bounds on the same forcing g_s; lower <= upper always
    (their ratio is the alpha-independent constant 8 pi c1).

    Raises:
        ValueError: naming alpha or gamma if it is not positive and finite,
            or if the admissible region holds no lattice points at
            s = ceil(1/sqrt(alpha)).
    """
    _check_real("alpha", alpha)
    _check_real("gamma", gamma)
    s = math.ceil(1.0 / math.sqrt(alpha))
    c1, delta_star = lower_bound_constant()
    if s < 4 or _region_empty(s, delta_star):
        raise ValueError(f"no lower bound certified at this alpha (s={s}: region empty)")
    lam = instability.threshold_amplitude(s, delta_star, alpha, gamma)
    curl_sq = (gamma * lam * s) ** 2
    return DimensionReport(
        alpha=alpha,
        gamma=gamma,
        s=s,
        curl_g_norm_sq=curl_sq,
        upper=upper_bound(alpha, gamma, curl_sq),
        lower=c1 * curl_sq / (alpha * gamma**4),
        constant_c1=c1,
        delta_star=delta_star,
    )
