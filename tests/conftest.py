"""Shared frozen reference values and oracle helpers.

The constants below were computed with independent high-precision routes
(mpmath row-collapse for the lattice sum, adaptive quadrature of the Bessel
integral representation, exact rational enumeration for mode counts) and
frozen here; the tests compare library output against them.
"""
import ast
import math
from fractions import Fraction

import numpy as np
import pytest

from bardina.instability import ContinuedFractionError

# F(m) = m^2 sum_{k in Z^2, k != 0} (|k|^2 + m^2)^-2, mpmath dps=40 via the
# one-dimensional collapse sum_j (j^2+c^2)^-2 = pi*coth(pi c)/(2c^3)
#                                               + pi^2/(2c^2 sinh(pi c)^2).
F_ORACLE = {
    1.0: 2.226581364423359770486418,
    2.0: 2.891794328063736616795632,
    4.0: 3.079092654564221250012026,
}

# K1 references (quadrature of int_0^inf e^(-x cosh t) cosh t dt, dps=30)
K1_ORACLE = {
    0.01: 99.973894118296248,
    0.5: 1.6564411200033009,
    1.0: 0.60190723019723457,
    2.0: 0.13986588181652243,
    2 * math.pi: 0.00098699605768104512,
    8.886: 6.0527354602394323e-5,
    10.0: 1.8648773453825585e-5,
    25.0: 3.5327780731999338e-12,
    50.0: 3.4441022267175556e-23,
}

# root of 2(e^x - 1) = x e^x and the induced crossover masses
PHI_ARGMAX = 1.5936242600400400923
CROSSOVER_M1 = 0.478255307713
CROSSOVER_M2 = 0.358691480784

PSI_ORACLE = {
    0.9: -0.11060458463,
    1.0: -0.141093688721,
    2.0: -0.295758667309,
    5.0: -0.318303632722,
    10.0: -0.318309886182,
}

# 1D reduction of the admissible-wavenumber region area:
# a(delta) = int_{-1/6}^{1/6} max(0, sqrt(1/3-r^2)
#                                 - max(delta, sqrt(2|r|-r^2))) dr,
# by two routes that agree to 3e-16: the closed form through the
# antiderivative of sqrt(c - x^2), and a 2e7-point midpoint rule
AREA_ORACLE = {
    0.2: 0.062016612391,
    0.35: 0.050133010740,
    0.45: 0.033327700964,
    0.5: 0.021310989669,
}

# maximizer of a(delta) * delta^4 (golden-section at dps=30) and the
# resulting lower-bound constant c1 = max * (21/(110 pi))^2 / 8
DELTA_STAR = 0.473014051162239
AREA_AT_DELTA_STAR = 0.0281313557559277
ADELTA4_MAX = 0.00140827292763068
C1_CONSTANT = 6.50055320705365e-7

# exact chain-point counts d(s) at delta = 0.35 (integer enumeration)
CHAIN_COUNT_ORACLE = {4: 1, 8: 4, 12: 6, 24: 27, 48: 117, 96: 466, 192: 1835}

# one line per acceptance criterion, echoed after the test summary
ACCEPTANCE_LINES: list[str] = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


def alpha_inner(theta, xi, alpha: float) -> float:
    """Inner product of the filtered energy space, the reference of the tangent
    orthonormalization tests.

    (theta, xi)_alpha = ((1-alpha*Lap)^(-1/2) theta, (1-alpha*Lap)^(-1/2) xi),
    computed spectrally as (2*pi)^2 sum Re(theta.conj(xi)) / (1+alpha|k|^2)
    over the full-layout coefficients of two vector fields.  Its square norm
    equals ||thetabar||^2 + alpha*||grad thetabar||^2 with
    thetabar = (1-alpha*Lap)^(-1) theta.
    """
    if alpha < 0:
        raise ValueError("alpha must be >= 0")
    w = 1.0 / (1.0 + alpha * theta.grid.k_sq)
    s = np.sum((theta.coeffs * np.conj(xi.coeffs)).real * w)
    return float((2.0 * np.pi) ** 2 * s)


def nodes(grid):
    """Physical collocation nodes x1, x2 of a grid as (n, n) arrays."""
    x = 2.0 * np.pi * np.arange(grid.n) / grid.n
    return np.meshgrid(x, x, indexing="ij")


CF_FIRST_DEPTH, CF_MAX_DEPTH = 8, 1 << 15  # the solvers' continued-fraction depths N
UNIT_ROUNDOFF = 2.0**-53


def cf_two_sweeps(chain, x: float, first_depth: int = CF_FIRST_DEPTH,
                  max_depth: int = CF_MAX_DEPTH) -> tuple[float, int]:
    """Reference of the continued fraction g(x) of a chain, x = (gamma + sigma) /
    coupling, one sweep per depth.

    Sweeps depths N and N + 1 from N = first_depth and doubles N while the two
    differ by more than 4 (N + 1) u g, u the unit roundoff and g the depth N + 1
    value; returns g at depth N + 1 and N, or raises ContinuedFractionError once
    N would pass max_depth.  Each sweep runs both tails 1/(d_1 + 1/(d_2 + ... +
    1/d_depth)) from the deepest row up, d_n = x A_n, on plain floats with the
    operation order of the library's A_n, so its bits are those the batched
    solver must give.
    """
    s, t, r, alpha = float(chain.s), float(chain.t), float(chain.r), chain.alpha

    def d(n):
        kn = s * n + r
        k_sq = t * t + kn * kn
        return x * ((k_sq + alpha * k_sq * k_sq) / (t * (k_sq - s * s)))

    def sweep(depth):
        tails = []
        for sign in (1.0, -1.0):
            acc = d(sign * depth)
            for n in range(depth - 1, 0, -1):
                acc = d(sign * n) + 1.0 / acc
            tails.append(1.0 / acc)
        return tails[0] + tails[1]

    depth = first_depth
    while True:
        deep, shallow = sweep(depth + 1), sweep(depth)
        if not abs(deep - shallow) > 4.0 * (depth + 1) * UNIT_ROUNDOFF * deep:
            return deep, depth
        if 2 * depth > max_depth:
            raise ContinuedFractionError(
                f"depths {depth} and {depth + 1} of g differ by "
                f"{abs(deep - shallow) / deep:.3e} relative at x={x!r}")
        depth *= 2


def exact_g_enclosure(chain, x, depth: int) -> tuple[Fraction, Fraction]:
    """The exact convergents of depths depth and depth + 1 of g(x) for a chain, in
    rational arithmetic on its float inputs, ordered: on an admissible chain at
    x > 0 every d_n is positive, so the two enclose g."""
    s, t, r = chain.s, chain.t, chain.r
    alpha, x = Fraction(chain.alpha), Fraction(x)

    def d(n):
        k_sq = t * t + (s * n + r) ** 2
        return x * (k_sq + alpha * k_sq * k_sq) / (t * (k_sq - s * s))

    def sweep(depth):
        total = Fraction(0)
        for sign in (1, -1):
            acc = d(sign * depth)
            for n in range(depth - 1, 0, -1):
                acc = d(sign * n) + 1 / acc
            total += 1 / acc
        return total

    return tuple(sorted((sweep(depth), sweep(depth + 1))))


def exact_gap_enclosure(chain, depth: int, x=None) -> tuple[Fraction, Fraction]:
    """Exact lower and upper bounds of the gap f - g of a chain at x, by default at
    sigma = 0, x = gamma / coupling; f exact and g between its exact convergents
    of depths depth and depth + 1 (exact_g_enclosure).  The float inputs of the
    chain (alpha, gamma, coupling) and x are taken as the rationals they hold."""
    s, t, r = chain.s, chain.t, chain.r
    x = Fraction(chain.gamma) / Fraction(chain.coupling) if x is None else Fraction(x)
    q = t * t + r * r
    f = x * (q + Fraction(chain.alpha) * q * q) / (t * (s * s - q))
    g_lo, g_hi = exact_g_enclosure(chain, x, depth)
    return f - g_hi, f - g_lo


def name_reads(tree):
    """Names a module reads, as an ast.Name load or as the attribute of an
    ast.Attribute, each outside the function or class of that name: the lints'
    notion of a caller."""
    found = set()

    def visit(node, inside):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            inside = inside | {node.name}
        elif (isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
              and node.id not in inside):
            found.add(node.id)
        elif isinstance(node, ast.Attribute) and node.attr not in inside:
            found.add(node.attr)
        for child in ast.iter_child_nodes(node):
            visit(child, inside)

    visit(tree, frozenset())
    return found


@pytest.fixture(scope="session")
def rng():
    return np.random.Generator(np.random.Philox(20260814))
